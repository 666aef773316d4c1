"""Leg ``serve-central``: a real ``repro serve`` process (memory only,
default knobs) hosting one ``central`` session under Σ.

Phase A is an open loop at a fixed rate on two keep-alive connections;
each request is timed from the moment it was due, so a stall also
charges the requests queued behind it.  Phase B is a closed loop of
back-to-back requests on two keep-alive connections, which gives the
capacity.  Both phases send the same mix: single-row updates (3
inserts to 1 delete of an earlier key) and one full-report
``GET …/detect`` per 20 writes.  Each slice of the run gives Phase A
its share of the leg's time and Phase B the rest.  The ack path (group
commit, the incremental fold and report), HTTP and JSON do almost all
the work.
"""

from __future__ import annotations

import json
import random
import threading
import time

from common import (
    Context, Leg, cust_rows, load_session, median, percentile,
    read_proc_cpu_s, read_vm_hwm_mb, served_ids, session_spec, sigma_texts,
    timed_passes, violation_ids,
)

#: Phase A's arrival rate: about half of the capacity measured at the
#: commit that introduced this benchmark (≈37 acks/s on two
#: connections, bounded by a transport stall rather than server CPU)
RATE_PER_S = 18.0
#: one full-report read per this many writes
WRITES_PER_READ = 20
SETUP_REPEATS = 3
PATH = "/v1/bench/sessions/central"
#: statuses that mean "refused" rather than "broken"; both count as
#: failed operations
REFUSED = (413, 429, 503)
#: a Phase A slice fails the run when the send lateness or the server
#: queue of its last third exceeds its first third's by this many arrival
#: intervals: the backlog is growing
BACKLOG_INTERVALS = 2.0
IN_PROCESS_PASSES = 2
#: Phase A's share of the leg's time; Phase B gets the rest
PHASE_A_SHARE = 0.65


class Stream:
    """The seeded request mix, shared by both connections.

    Inserts take fresh keys; deletes take either an initial key or a key
    whose insert was already acknowledged, each at most once.  So the
    final state is independent of how the two connections interleave,
    and a serial replay of the acknowledged requests is exact.  Each
    phase counts its own requests for the read schedule, so both phases
    read once per :data:`WRITES_PER_READ` writes however their slices
    cut the stream.
    """

    def __init__(self, initial: list[tuple], pool: list[tuple],
                 seed: int) -> None:
        self.lock = threading.Lock()
        self.resident = {row[0]: row for row in initial}
        self.initial_keys = [row[0] for row in initial]
        random.Random(seed).shuffle(self.initial_keys)
        self.pool = iter(pool)
        self.acked_inserts: list = []
        self.index = 0
        self.per_phase = {"A": 0, "B": 0}
        self.writes = 0
        self.deletes = 0
        #: (kind, payload) of every acknowledged request, in ack order
        self.acked: list[tuple[str, dict]] = []

    def next_request(self, phase: str) -> tuple[int, str, dict | None]:
        with self.lock:
            index = self.index
            self.index += 1
            count = self.per_phase[phase]
            self.per_phase[phase] += 1
            if count % (WRITES_PER_READ + 1) == WRITES_PER_READ:
                return index, "read", None
            self.writes += 1
            if self.writes % 4:
                return index, "insert", {"inserted": [list(next(self.pool))]}
            self.deletes += 1
            if self.deletes % 2 and self.acked_inserts:
                key = self.acked_inserts.pop(0)
            else:
                key = self.initial_keys.pop()
            return index, "delete", {"deleted": [key]}

    def acknowledge(self, kind: str, payload: dict | None) -> None:
        with self.lock:
            self.acked.append((kind, payload))
            if kind == "insert":
                row = tuple(payload["inserted"][0])
                self.resident[row[0]] = row
                self.acked_inserts.append(row[0])
            elif kind == "delete":
                del self.resident[payload["deleted"][0]]


class Record:
    __slots__ = ("index", "kind", "due", "sent", "done", "status", "queue_s")

    def __init__(self, index, kind, due, sent, done, status, queue_s):
        self.index = index
        self.kind = kind
        self.due = due
        self.sent = sent
        self.done = done
        self.status = status
        self.queue_s = queue_s


def _send(client, stream: Stream, index: int, kind: str, payload, due: float):
    sent = time.perf_counter()
    if kind == "read":
        status, body = client.call("GET", f"{PATH}/detect")
    else:
        status, body = client.call("POST", f"{PATH}/update", payload)
    done = time.perf_counter()
    if status == 200:
        stream.acknowledge(kind, payload)
    return Record(index, kind, due, sent, done, status,
                  body.get("queue_seconds") if status == 200 else None)


def _open_loop(server, stream: Stream, seconds: float) -> list[Record]:
    """Requests due every 1/RATE_PER_S, sent by whichever of the two
    connections is free; a request whose connection is busy waits."""
    records: list[Record] = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    first = stream.index

    def worker() -> None:
        client = server.connect()
        try:
            while True:
                index, kind, payload = stream.next_request("A")
                due = start + (index - first) / RATE_PER_S
                if due > start + seconds:
                    return
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                record = _send(client, stream, index, kind, payload, due)
                with lock:
                    records.append(record)
        finally:
            client.close()

    _run_threads(worker)
    return sorted(records, key=lambda record: record.index)


def _closed_loop(server, stream: Stream, seconds: float):
    records: list[Record] = []
    lock = threading.Lock()
    end = time.perf_counter() + seconds

    def worker() -> None:
        client = server.connect()
        try:
            while time.perf_counter() < end:
                index, kind, payload = stream.next_request("B")
                now = time.perf_counter()
                record = _send(client, stream, index, kind, payload, now)
                with lock:
                    records.append(record)
        finally:
            client.close()

    cpu_before = read_proc_cpu_s(server.pid)
    started = time.perf_counter()
    _run_threads(worker)
    wall = time.perf_counter() - started
    cpu = read_proc_cpu_s(server.pid) - cpu_before
    return records, wall, cpu


def _run_threads(worker) -> None:
    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _backlog(records: list[Record]) -> tuple[float, float]:
    """How much the send lateness and the server queue of one open-loop
    sub-phase grew from its first third to its last, in ms."""
    lateness = [(r.sent - r.due) * 1e3 for r in records]
    queue = [r.queue_s * 1e3 for r in records
             if r.kind != "read" and r.status == 200]
    grew = []
    for values in (lateness, queue):
        third = max(1, len(values) // 3)
        grew.append(median(values[-third:]) - median(values[:third])
                    if values else 0.0)
    return grew[0], grew[1]


class ServeCentral(Leg):
    name = "serve-central"
    share = 0.3

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        rows = cust_rows(ctx)
        self.initial = rows[:ctx.sizes["central"]]
        self.texts = sigma_texts()
        self.spec = session_spec("central", self.texts, self.initial)
        self.body = json.dumps(self.spec).encode()
        self.stream = Stream(self.initial, rows[ctx.sizes["relation"]:],
                             ctx.seed)
        self.server = None
        self.starts: list[float] = []
        self.phase_a: list[Record] = []
        self.phase_b: list[Record] = []
        self.wall_b = 0.0
        self.cpu_b = 0.0

    def setup(self) -> None:
        setups = []
        for _ in range(SETUP_REPEATS):
            self.close()
            self.server, elapsed = load_session(PATH, [self.body])
            setups.append(elapsed)
            self.starts.append(self.server.start_s)
        self.setup_s = median(setups)

    def slice(self, index: int, seconds: float) -> None:
        records = _open_loop(self.server, self.stream, PHASE_A_SHARE * seconds)
        lateness_grew, queue_grew = _backlog(records)
        limit = BACKLOG_INTERVALS * 1e3 / RATE_PER_S
        self.expect(lateness_grew <= limit,
                    f"phase A backlog grew by {lateness_grew:.1f} ms of send "
                    f"lateness: {RATE_PER_S}/s is above capacity")
        self.expect(queue_grew <= limit,
                    f"phase A server queue grew by {queue_grew:.1f} ms")
        self.phase_a += records
        records, wall, cpu = _closed_loop(
            self.server, self.stream, (1 - PHASE_A_SHARE) * seconds)
        self.phase_b += records
        self.wall_b += wall
        self.cpu_b += cpu

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def finish(self) -> None:
        from repro.core import parse_cfd
        from repro.core.detection import detect_violations_reference
        from repro.datagen import CUST_SCHEMA
        from repro.relational import Relation

        client = self.server.connect()
        status, final = client.call("GET", f"{PATH}/detect")
        _status, stats = client.call("GET", "/v1/stats")
        client.close()
        rss = read_vm_hwm_mb(self.server.pid)
        self.close()

        phase_a, phase_b = self.phase_a, self.phase_b
        for phase, records in (("A", phase_a), ("B", phase_b)):
            for record in records:
                self.op(record.status == 200,
                        f"phase {phase} {record.kind} got HTTP {record.status}")
            kinds = {r.kind for r in records if r.status == 200}
            self.expect("delete" in kinds, f"phase {phase} saw no delete ack")
            self.expect("read" in kinds, f"phase {phase} saw no read")

        # the final report against a serial replay of the acked updates
        cfds = [parse_cfd(text) for text in self.texts]
        expected = detect_violations_reference(
            Relation(CUST_SCHEMA, list(self.stream.resident.values()),
                     copy=False),
            cfds,
        )
        ok = status == 200 and served_ids(final) == (
            violation_ids(expected), set(expected.tuple_keys))
        self.op(ok, "final detect differs from the serial replay of acked "
                    "updates" if status == 200
                    else f"final detect got HTTP {status}")

        updates_a = [r for r in phase_a if r.kind != "read" and r.status == 200]
        updates_b = [r for r in phase_b if r.kind != "read" and r.status == 200]
        reads = [r for r in phase_a + phase_b
                 if r.kind == "read" and r.status == 200]
        latency_a = [(r.done - r.due) * 1e3 for r in updates_a]
        self.metric("update_capacity_per_s", len(updates_b) / self.wall_b,
                    "1/s")
        self.metric("server_peak_rss_mb.central", rss, "MB")

        session = stats["sessions"]["bench/central"]
        lateness = [(r.sent - r.due) * 1e3 for r in phase_a]
        self.layer("serve.update_p50_ms", median(latency_a), "ms")
        self.layer("serve.update_p90_ms", percentile(latency_a, 90), "ms")
        self.layer("serve.read_p50_ms",
                   median([(r.done - r.due) * 1e3 for r in reads]), "ms")
        self.layer("serve.send_lateness_p99_ms", percentile(lateness, 99),
                   "ms")
        self.layer("serve.queue_ms",
                   median([r.queue_s * 1e3 for r in updates_a]), "ms")
        self.layer("serve.http_wait_ms.open", median(
            [(r.done - r.sent - r.queue_s) * 1e3 for r in updates_a]), "ms")
        self.layer("serve.http_wait_ms.closed", median(
            [(r.done - r.sent - r.queue_s) * 1e3 for r in updates_b]), "ms")
        self.layer("serve.server_cpu_ms_per_update",
                   self.cpu_b * 1e3 / max(1, len(updates_b)), "ms")
        self.layer("serve.server_busy_ratio", self.cpu_b / self.wall_b,
                   "ratio")
        self.layer("serve.updates_per_fold",
                   session["updates"] / max(1, session["folds"]), "ratio")
        self.layer("serve.rejected", sum(
            r.status in REFUSED for r in phase_a + phase_b), "count")
        self.layer("cli.serve_start_ms", median(self.starts) * 1e3, "ms")
        self.layer("serve.samples.update_open", len(latency_a), "count")

        if self.ctx.trace:
            _layers(self.ctx, self, self.spec, self.initial, cfds,
                    self.stream.acked)


def _in_process(tracer, spec, initial, cfds, acked) -> None:
    """The acknowledged request stream replayed through the session
    detector alone, then through the service façade alone."""
    from repro.core.incremental import IncrementalDetector
    from repro.datagen import CUST_SCHEMA
    from repro.relational import Relation
    from repro.serve import DetectionService

    detector = IncrementalDetector(cfds)
    detector.attach(Relation(CUST_SCHEMA, initial, copy=False))
    for kind, payload in acked:
        if kind == "read":
            continue
        op = tracer.new_op()
        inserted = [tuple(row) for row in payload.get("inserted", ())]
        with tracer.span("core.incremental.update", op):
            detector.update(inserted, payload.get("deleted", ()))
        with tracer.span("core.incremental.report", op):
            detector.report

    service = DetectionService()
    try:
        with tracer.span("serve.service.create", tracer.new_op()):
            service.create_session("bench", "central", spec)
        for kind, payload in acked:
            op = tracer.new_op()
            if kind == "read":
                with tracer.span("serve.service.detect", op):
                    service.detect("bench", "central")
            else:
                with tracer.span("serve.service.update", op):
                    service.update("bench", "central", **payload)
    finally:
        service.close()


def _layers(ctx, leg, spec, initial, cfds, acked) -> None:
    timed_passes(leg, ctx.tracer, IN_PROCESS_PASSES,
                 lambda tracer: _in_process(tracer, spec, initial, cfds,
                                            acked))
    tracer = ctx.tracer
    for name in ("core.incremental.update", "core.incremental.report",
                 "serve.service.update", "serve.service.detect",
                 "serve.service.create"):
        leg.layer(f"{name}_ms", tracer.median_ms(name), "ms")
