"""Leg ``serve-durable``: ``repro serve --data-dir`` (default fsync
``batch``, default checkpoint) hosting a ``pat-s`` session on 4 sites
under ``cust_street_cfd(255)``.

Set-up loads the resident relation through one create plus bulk
inserts, each body under the default 8 MiB cap.  Then a fixed count of
100-row batches (inserts and deletes, round-robin over the sites) runs
in a closed loop on one connection; the count is fixed for a given
``--seconds``, so the WAL length does not depend on program speed.
Then the server is SIGKILLed, and every slice of the run (the first
one after the kill) restarts a fresh copy of the killed data directory,
timed until its first correct ``detect``.  The WAL append, snapshots,
recovery and the distributed-session batch cost (which grows with
|D_i|) do their work here and nowhere else.
"""

from __future__ import annotations

import json
import random
import shutil
import time

from common import (
    Context, Leg, Server, cust_rows, load_session, median, percentile,
    read_proc_cpu_s, read_vm_hwm_mb, served_ids, session_spec,
    timed_passes, violation_ids,
)

SITES = 4
INSERTS_PER_BATCH = 70
DELETES_PER_BATCH = 30
#: batches per second of the leg's share of ``--seconds``: 101 batches
#: at ``--seconds 30``, enough for ten samples beyond their p90; the
#: commit that introduced this benchmark acknowledges about 19 per second
BATCHES_PER_BUDGET_S = 24
#: each create/bulk body stays under the server's default 8 MiB cap
BODY_CAP = 7 * 1024 * 1024
SETUP_REPEATS = 3
PATH = "/v1/bench/sessions/durable"
#: in-process batches timed against the session detector alone
IN_PROCESS_BATCHES = 20


def _street_text() -> str:
    from repro.core import format_cfd
    from repro.datagen import cust_street_cfd

    return format_cfd(cust_street_cfd(255))


def _chunks(rows: list[tuple], first_overhead: int) -> list[list[tuple]]:
    """Split ``rows`` into runs whose JSON stays under :data:`BODY_CAP`;
    each run is a list of (row, its JSON text)."""
    chunks, current, size = [], [], first_overhead
    for row in rows:
        text = json.dumps(list(row))
        if current and size + len(text) + 2 > BODY_CAP:
            chunks.append(current)
            current, size = [], 200
        current.append((row, text))
        size += len(text) + 2
    chunks.append(current)
    return chunks


def _body(head: dict, key: str, chunk: list[tuple]) -> bytes:
    """``json.dumps({**head, key: rows})`` from the rows' JSON texts, so
    each row is encoded once."""
    rows = ", ".join(text for _row, text in chunk)
    return f'{json.dumps(head)[:-1]}, "{key}": [{rows}]}}'.encode()


class Placement:
    """Which resident keys live on which site, as the server places them."""

    def __init__(self, seed: int) -> None:
        self.rows: list[dict] = [{} for _ in range(SITES)]
        self.keys: list[list] = [[] for _ in range(SITES)]
        self.rng = random.Random(seed)

    def add(self, site: int, row: tuple) -> None:
        self.rows[site][row[0]] = row
        self.keys[site].append(row[0])

    def take_keys(self, site: int, count: int) -> list:
        keys = self.keys[site]
        taken = []
        for _ in range(min(count, len(keys))):
            position = self.rng.randrange(len(keys))
            keys[position], keys[-1] = keys[-1], keys[position]
            taken.append(keys.pop())
        return taken

    def all_rows(self) -> list[tuple]:
        return [row for site in self.rows for row in site.values()]


class ServeDurable(Leg):
    """Slice 0 runs the batches and kills the server; every slice then
    times one restart from a fresh copy of the killed data directory,
    so the recovery samples spread over the run."""

    name = "serve-durable"
    share = 0.14

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        n = ctx.sizes["relation"]
        self.count = max(SITES, round(
            BATCHES_PER_BUDGET_S * ctx.seconds * self.share))
        rows = cust_rows(ctx)
        self.pool = iter(rows[n:])
        self.text = _street_text()
        # the create body carries the first chunk; later chunks are bulk
        # inserts, each to one site round-robin, as the placement records
        chunks = _chunks(rows[:n], 2000)
        self.placement = Placement(ctx.seed)
        for position, (row, _text) in enumerate(chunks[0]):
            self.placement.add(position % SITES, row)
        spec = session_spec("pat-s", [self.text], [], sites=SITES)
        del spec["rows"]
        self.bodies = [_body(spec, "rows", chunks[0])]
        for index, chunk in enumerate(chunks[1:]):
            site = index % SITES
            for row, _text in chunk:
                self.placement.add(site, row)
            self.bodies.append(_body({"site": site}, "inserted", chunk))
        self.logged_rows = sum(len(chunk) for chunk in chunks[1:])
        self.fragments = [list(site.values())
                          for site in self.placement.rows]
        self.data_dir = ctx.work / "durable"
        self.server = None
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.queue: list[float] = []
        self.acked: list[dict] = []
        self.want = None
        self.recoveries: list[float] = []
        self.recovery_spans: list[tuple[float, float]] = []
        self.reads: list[float] = []
        self.replayed = 0

    def setup(self) -> None:
        setups = []
        for _ in range(SETUP_REPEATS):
            self.close()
            if self.data_dir.exists():
                shutil.rmtree(self.data_dir)
            self.server, elapsed = load_session(
                PATH, self.bodies, "--data-dir", str(self.data_dir))
            setups.append(elapsed)
            self.starts.append(self.server.start_s)
        self.setup_s = median(setups)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop(kill=True)
            self.server = None

    def slice(self, index: int, seconds: float) -> None:
        if index == 0:
            self._batches()
            # bracket the first restart, not the batches, with the host
            self.ctx.host.mark()
        self._recover()

    def _batches(self) -> None:
        from repro.core import parse_cfd
        from repro.core.detection import detect_violations_reference
        from repro.datagen import CUST_SCHEMA
        from repro.relational import Relation

        placement, server = self.placement, self.server
        acked_sites = [0] * SITES
        client = server.connect()
        cpu_before = read_proc_cpu_s(server.pid)
        for batch in range(self.count):
            site = batch % SITES
            inserted = [next(self.pool) for _ in range(INSERTS_PER_BATCH)]
            deleted = placement.take_keys(site, DELETES_PER_BATCH)
            payload = {"inserted": [list(row) for row in inserted],
                       "deleted": deleted, "site": site}
            sent = time.perf_counter()
            status, reply = client.call("POST", f"{PATH}/update", payload)
            self.latencies.append((time.perf_counter() - sent) * 1e3)
            self.op(status == 200, f"batch {batch} got HTTP {status}: {reply}")
            if status == 200:
                self.queue.append(reply["queue_seconds"] * 1e3)
                self.acked.append(payload)
                acked_sites[site] += 1
                self.logged_rows += len(inserted) + len(deleted)
                for key in deleted:
                    del placement.rows[site][key]
                for row in inserted:
                    placement.add(site, row)
        self.cpu_per_batch = ((read_proc_cpu_s(server.pid) - cpu_before)
                              * 1e3 / max(1, len(self.acked)))
        _status, stats = client.call("GET", "/v1/stats")
        status, before_kill = client.call("GET", f"{PATH}/detect")
        client.close()
        self.rss = read_vm_hwm_mb(server.pid)
        self.close()
        self.wal_bytes = stats.get("durability", {}).get("wal_bytes", 0)
        self.snapshot_bytes = sum(
            path.stat().st_size for path in self.data_dir.rglob("snapshot.json"))
        self.expect(all(acked_sites), f"acked batches per site {acked_sites}")

        expected = detect_violations_reference(
            Relation(CUST_SCHEMA, placement.all_rows(), copy=False),
            [parse_cfd(self.text)],
        )
        self.want = (violation_ids(expected), set(expected.tuple_keys))
        self.op(status == 200 and self._correct(before_kill),
                "detect before the kill differs from the serial replay")

    def _correct(self, payload: dict) -> bool:
        """Distributed sessions carry no tuple keys, so served keys need
        only be a subset of the reference's."""
        violations, keys = served_ids(payload)
        return violations == self.want[0] and keys <= self.want[1]

    def _recover(self) -> None:
        restart_dir = self.ctx.work / "durable-restart"
        if restart_dir.exists():
            shutil.rmtree(restart_dir)
        shutil.copytree(self.data_dir, restart_dir)
        server = Server("--data-dir", str(restart_dir))
        try:
            client = server.connect()
            banner_at = time.perf_counter()
            status, recovered = client.call("GET", f"{PATH}/detect")
            answered = time.perf_counter()
            _status, stats = client.call("GET", "/v1/stats")
            client.close()
        finally:
            server.stop()
        self.recoveries.append(answered - server.launched)
        self.recovery_spans.append((server.launched, answered))
        self.reads.append(answered - banner_at)
        self.op(status == 200 and self._correct(recovered),
                "detect after recovery differs from the serial replay")
        durability = stats.get("durability", {})
        self.replayed = durability.get("replayed_records", 0)
        self.expect("recovered=1" in server.banner,
                    f"restart did not recover the session: {server.banner}")
        self.expect(self.replayed > 0
                    or durability.get("recovered_sessions", 0) > 0,
                    "recovery neither replayed the WAL nor loaded a snapshot")

    def finish(self) -> None:
        recover_s = median(self.recoveries)
        self.metric("batch_p50_ms", median(self.latencies), "ms")
        self.metric("recover_s", median(self.ctx.host.normalised(
            self.recoveries, self.recovery_spans)), "s")
        self.layer("recover_s.raw", recover_s, "s")
        self.metric("server_peak_rss_mb.durable", self.rss, "MB")
        self.layer("serve.batch_p90_ms", percentile(self.latencies, 90), "ms")
        self.layer("serve.server_cpu_ms_per_batch", self.cpu_per_batch, "ms")
        self.layer("serve.batch_unaccounted_ms",
                   median(self.latencies) - self.cpu_per_batch, "ms")
        self.layer("serve.queue_ms.durable", median(self.queue), "ms")
        self.layer("serve.durability.wal_bytes_per_row",
                   self.wal_bytes / max(1, self.logged_rows), "B")
        self.layer("serve.durability.snapshot_bytes", self.snapshot_bytes,
                   "B")
        self.layer("serve.durability.replayed_records", self.replayed,
                   "count")
        self.layer("cli.serve_start_ms.durable", median(self.starts) * 1e3,
                   "ms")
        self.layer("serve.samples.batch", len(self.latencies), "count")
        if self.ctx.trace:
            _layers(self, recover_s, median(self.starts), median(self.reads))


def _in_process(tracer, fragments, acked, create_body, scratch) -> None:
    """The session detector alone on the same |D| and batches, then an
    in-process durable create of the same first chunk."""
    from repro.core import parse_cfd
    from repro.datagen import CUST_SCHEMA
    from repro.detect.incremental import IncrementalHorizontalDetector
    from repro.distributed import Cluster
    from repro.relational import Relation
    from repro.serve import DetectionService

    cluster = Cluster.from_fragments(
        Relation(CUST_SCHEMA, rows, copy=False) for rows in fragments)
    detector = IncrementalHorizontalDetector(
        cluster, parse_cfd(_street_text()), "pat-s")
    detector.detect()
    for payload in acked[:IN_PROCESS_BATCHES]:
        update = {payload["site"]: (
            [tuple(row) for row in payload["inserted"]], payload["deleted"])}
        with tracer.span("detect.incremental.apply_updates", tracer.new_op()):
            detector.apply_updates(update)

    if scratch.exists():
        shutil.rmtree(scratch)
    spec = json.loads(create_body)
    service = DetectionService(data_dir=scratch)
    try:
        with tracer.span("serve.service.create.durable", tracer.new_op()):
            service.create_session("bench", "durable", spec)
    finally:
        service.close()
    shutil.rmtree(scratch)


def _layers(leg: ServeDurable, recover_s: float, start_s: float,
            read_s: float) -> None:
    from repro.serve import DetectionService

    work = leg.ctx.work
    timed_passes(leg, leg.ctx.tracer, 1,
                 lambda tracer: _in_process(
                     tracer, leg.fragments, leg.acked, leg.bodies[0],
                     work / "durable-scratch"))
    copy = work / "durable-copy"
    shutil.copytree(leg.data_dir, copy)
    tracer = leg.ctx.tracer
    with tracer.span("serve.registry.recover", tracer.new_op()):
        service = DetectionService(data_dir=copy)
    recovered = service.recovered
    service.close()
    shutil.rmtree(copy)
    leg.expect(recovered == 1, "in-process recovery found no session")
    recover_ms = tracer.median_ms("serve.registry.recover")
    leg.layer("detect.incremental.apply_updates_ms",
              tracer.median_ms("detect.incremental.apply_updates"), "ms")
    leg.layer("serve.service.create_ms.durable",
              tracer.median_ms("serve.service.create.durable"), "ms")
    leg.layer("serve.registry.recover_ms", recover_ms, "ms")
    leg.layer("serve.recover_unaccounted_ms",
              (recover_s - start_s - read_s) * 1e3 - recover_ms, "ms")
