"""Shared machinery of the benchmark: run context, tracing, statistics,
seeded input cache, reference checks, and the ``repro serve`` process.

Everything here times the program from outside: it launches ``repro``
processes, talks HTTP to them, or calls public functions and classes of
the ``repro`` package.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: every file the benchmark writes lives under this ignored directory
STATE = ROOT / ".perfbench"
CACHE = STATE / "cache"
WORK = STATE / "work"
TRACES = STATE / "traces"
#: seeds whose inputs stay cached (about 40 MB each at full size)
CACHED_SEEDS = 12

# The workloads' input sizes: the CUST relation that ``check-csv``,
# ``serve-durable`` and ``distributed-round`` run on, and the rows of the
# ``serve-central`` session.  ``full`` is the headline sizing (the fig3c
# 160k-row relation, a 20k-row session); ``small`` is an eighth of it,
# so per-request and per-process fixed costs dominate and any cost that
# grows with |D| nearly vanishes.
SIZES = {
    "full": {"relation": 160_000, "central": 20_000},
    "small": {"relation": 20_000, "central": 2_500},
}
#: fresh rows after the relation, for the serve legs' inserts; more than
#: any plausible run uses
POOL = 30_000


def src_ready() -> bool:
    """Whether the program's source tree is present next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def clear_knobs() -> None:
    """Drop inherited ``REPRO_*`` knobs: the benchmark measures the
    program's defaults, in-process and in every process it starts."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def child_env(**extra: str) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    ``src`` first on the path, plus ``extra``."""
    return {**os.environ, "PYTHONPATH": str(SRC), **extra}


# -- statistics -------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linearly interpolated."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


# -- tracing -----------------------------------------------------------------

class Tracer:
    """In-memory spans around calls into the program's layers.

    A span records its name, start, end, the span that caused it and the
    operation it belongs to.  Disabled tracers cost one branch per span,
    which is how the untraced pass of ``trace.overhead_pct`` runs.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": op if op is not None else self._op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations_ms(self, name: str) -> list[float]:
        return [
            (span["end"] - span["start"]) * 1e3
            for span in self.spans if span["name"] == name
        ]

    def median_ms(self, name: str) -> float:
        return median(self.durations_ms(name))


def timed_passes(leg, tracer: Tracer, passes: int, run_pass):
    """Run ``run_pass(tracer)`` untraced and traced ``passes`` times each,
    alternating which goes first, and record both wall times on ``leg``
    for ``trace.overhead_pct``.  Returns the last traced pass's result."""
    untraced = Tracer(False)
    result = None
    for index in range(passes):
        order = (untraced, tracer) if index % 2 == 0 else (tracer, untraced)
        for current in order:
            start = time.perf_counter()
            outcome = run_pass(current)
            elapsed = time.perf_counter() - start
            if current is tracer:
                leg.traced_s.append(elapsed)
                result = outcome
            else:
                leg.untraced_s.append(elapsed)
    return result


@contextmanager
def frozen_heap():
    """Keep the benchmark's own inputs and references out of the cyclic
    collector for the rest of the run, so in-process timings do not pay
    for traversing them, as a process that held only the program's data
    would not."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) jiffies of the whole machine from ``/proc/stat``:
    the hypervisor's steal is the visible part of the run-to-run drift on
    a shared virtual machine, so every run reports how much it suffered."""
    fields = [int(value) for value in
              Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


# -- run context -------------------------------------------------------------

class Leg:
    """One leg of a run: its set-up, its share of each time slice, and
    what it produced (metrics, operation counts, and the path checks that
    failed, each of which makes the run incorrect)."""

    name = "leg"
    #: the leg's share of ``--seconds``
    share = 0.0

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: float | None = None
        #: seconds of in-process work measured with tracing off and on,
        #: for ``trace.overhead_pct``
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []

    def setup(self) -> None:
        """Make the program ready, several times; sets ``setup_s``."""

    def slice(self, index: int, seconds: float) -> None:
        """Timed work for one of the run's interleaved slices."""

    def finish(self) -> None:
        """Final output checks and metrics (plus layers when traced)."""

    def close(self) -> None:
        """Stop whatever the leg still runs."""

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    def expect(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(f"{self.name}: {problem}")

    def op(self, ok: bool, problem: str | None = None) -> None:
        """Count one operation; a failed one records its problem (the
        first 20 are kept)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem and len(self.problems) < 20:
                self.problems.append(f"{self.name}: {problem}")


class Budget:
    """Spreads a leg's repeated operations over the run's slices: each
    slice adds its seconds and runs at least one operation, and another
    starts only while the time spent plus one more median operation fits
    in what was added.  So an operation longer than a slice's share still
    gets one sample per slice, spread over the whole run."""

    def __init__(self) -> None:
        self.allowed = 0.0
        self.spent = 0.0
        self.walls: list[float] = []
        #: (start, end) perf_counter of every operation, for host speed
        self.spans: list[tuple[float, float]] = []

    def _record(self, operation) -> None:
        start = time.perf_counter()
        wall = operation()
        self.walls.append(wall)
        self.spans.append((start, time.perf_counter()))
        self.spent += wall

    def spend(self, seconds: float, operation) -> None:
        """Run ``operation()`` (returning its wall seconds) while it fits."""
        self.allowed += seconds
        self._record(operation)
        while self.spent + median(self.walls) <= self.allowed:
            self._record(operation)


# -- host speed ----------------------------------------------------------------

#: rows of the host probe; about 0.25 s of work on the reference host
PROBE_ROWS = 90_000
#: the probe's median seconds on the reference host (the 2-vCPU virtual
#: machine this benchmark was built on, Python 3.11): normalised timings
#: read as seconds on that host at that speed
REFERENCE_PROBE_S = 0.25

#: The probe: a fixed pure-Python workload that calls no program code.
#: It builds string rows, parses them into ints and floats, groups them
#: in a dict, sorts each group, and joins, splits and indexes the keys:
#: the interpreter work the program's CPU-bound paths are made of.  It
#: runs in a fresh interpreter, so the benchmark's own heap does not
#: slow it, and prints the seconds its work took.
_PROBE = """
import random, sys, time
from operator import itemgetter
n = int(sys.argv[1])
words = [f"w{i}" for i in range(500)]
start = time.perf_counter()
rng = random.Random(0)
rows = [(str(i), repr(rng.random()), words[i % 500]) for i in range(n)]
groups = {}
for key, price, word in rows:
    groups.setdefault(word, []).append((int(key), float(price)))
for values in groups.values():
    values.sort(key=itemgetter(1))
keys = ",".join(row[0] for row in rows).split(",")
index = {key: position for position, key in enumerate(keys)}
assert len(index) == n
print(time.perf_counter() - start)
"""


def host_probe() -> float:
    """Seconds the probe's work took, in a fresh ``python -I``."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE, str(PROBE_ROWS)], cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class HostSpeed:
    """The host's speed over the run, from probes taken between legs.

    On a shared virtual machine the host's speed drifts by a third within
    minutes, and every CPU-bound timing drifts with it: runs minutes
    apart differ far more than the samples within one run.  The probe
    tracks that drift (over ten runs, a sample's wall time and the mean
    of the probes just before and after it correlated at 0.75-0.84), so
    a CPU-bound sample scaled by ``REFERENCE_PROBE_S / probe`` measures
    the program, not the moment.
    """

    def __init__(self) -> None:
        #: (start, end, seconds) of every probe, in time order
        self.probes: list[tuple[float, float, float]] = []

    def mark(self) -> None:
        start = time.perf_counter()
        seconds = host_probe()
        self.probes.append((start, time.perf_counter(), seconds))

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_PROBE_S`` over the mean of the last probe that
        ended before ``start`` and the first that started after ``end``
        (either alone at the edges of the run)."""
        ends = [probe[1] for probe in self.probes]
        starts = [probe[0] for probe in self.probes]
        around = []
        before = bisect_right(ends, start)
        if before:
            around.append(self.probes[before - 1][2])
        after = bisect_left(starts, end)
        if after < len(self.probes):
            around.append(self.probes[after][2])
        return REFERENCE_PROBE_S / statistics.fmean(around)

    def normalised(self, walls, spans) -> list[float]:
        """Each wall time scaled to the reference host's speed."""
        return [wall * self.factor(start, end)
                for wall, (start, end) in zip(walls, spans)]

    def median_probe_s(self) -> float:
        return median([probe[2] for probe in self.probes])


class Context:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = SIZES[workload]
        self.tracer = Tracer(trace)
        self.host = HostSpeed()
        self.cache = CACHE / f"{workload}-seed{seed}"
        self.work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
        self.cache.mkdir(parents=True, exist_ok=True)
        os.utime(self.cache)
        self.work.mkdir(parents=True, exist_ok=True)
        _prune(CACHE, CACHED_SEEDS)


def _prune(directory: Path, keep: int) -> None:
    """Remove all but the ``keep`` most recently used entries."""
    entries = sorted(directory.iterdir(), key=lambda path: path.stat().st_mtime,
                     reverse=True)
    for stale in entries[keep:]:
        shutil.rmtree(stale, ignore_errors=True)


# -- inputs ------------------------------------------------------------------

def write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def cached_json(path: Path, build):
    """``build()``'s JSON value, computed once per seed and reused."""
    if path.exists():
        return json.loads(path.read_bytes())
    value = build()
    write_atomic(path, json.dumps(value).encode())
    return value


def cust_rows(ctx: Context) -> list[tuple]:
    """The seeded CUST rows (2% error rate), cached per seed: the first
    ``sizes["relation"]`` form the relation, the next :data:`POOL` are
    fresh keys for inserts."""
    from repro.datagen import generate_cust

    rows = cached_json(
        ctx.cache / "cust.json",
        lambda: [list(row) for row in generate_cust(
            ctx.sizes["relation"] + POOL, seed=ctx.seed,
            error_rate=0.02).rows],
    )
    return [tuple(row) for row in rows]


def relation_reference(ctx: Context, rows: list[tuple]) -> dict:
    """The reference engine's reports on the relation (the first
    ``sizes["relation"]`` rows), cached per seed: ``sigma`` for Σ and
    ``street`` for ``cust_street_cfd(255)`` alone, each as sorted
    violation identities and tuple keys."""
    from repro.core.detection import detect_violations_reference
    from repro.datagen import CUST_SCHEMA, cust_overlapping_cfds
    from repro.relational import Relation

    def build() -> dict:
        relation = Relation(CUST_SCHEMA, rows[:ctx.sizes["relation"]],
                            copy=False)
        sigma = cust_overlapping_cfds()
        encoded = {}
        for name, cfds in (("sigma", sigma), ("street", sigma[:1])):
            report = detect_violations_reference(relation, cfds)
            encoded[name] = {
                "violations": sorted(
                    [cfd, list(attrs), list(values)]
                    for cfd, attrs, values in violation_ids(report)),
                "keys": sorted(list(key) for key in report.tuple_keys),
            }
        return encoded

    return cached_json(ctx.cache / "reference.json", build)


def decode_reference(encoded: dict) -> tuple[set, set]:
    violations = {(cfd, tuple(attrs), tuple(values))
                  for cfd, attrs, values in encoded["violations"]}
    return violations, {tuple(key) for key in encoded["keys"]}


def sigma_texts() -> list[str]:
    """Σ = {cust_street_cfd(255), cust_city_cfd(26)} in paper notation."""
    from repro.core import format_cfd
    from repro.datagen import cust_overlapping_cfds

    return [format_cfd(cfd) for cfd in cust_overlapping_cfds()]


def violation_ids(report) -> set:
    """Full violation identity: (CFD, LHS attributes, LHS values)."""
    return {
        (v.cfd, tuple(v.lhs_attributes), tuple(v.lhs_values))
        for v in report.violations
    }


def served_ids(payload: dict) -> tuple[set, set]:
    """Violation identities and tuple keys of a ``GET …/detect`` body."""
    violations = {
        (v["cfd"], tuple(v["lhs_attributes"]), tuple(v["lhs_values"]))
        for v in payload["violations"]
    }
    keys = {tuple(key) for key in payload["tuple_keys"]}
    return violations, keys


# -- processes ---------------------------------------------------------------

def read_proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    raw = Path(f"/proc/{pid}/stat").read_text()
    fields = raw[raw.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def read_vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


_CHILDREN: set[subprocess.Popen] = set()
_CHILDREN_LOCK = threading.Lock()


def track(process: subprocess.Popen) -> subprocess.Popen:
    with _CHILDREN_LOCK:
        _CHILDREN.add(process)
    return process


def reap(process: subprocess.Popen, kill: bool = False,
         timeout: float = 30.0) -> None:
    """Stop ``process`` (SIGTERM, or SIGKILL with ``kill``) and wait for it."""
    if process.poll() is None:
        process.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=timeout)
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()
    with _CHILDREN_LOCK:
        _CHILDREN.discard(process)


def reap_all() -> None:
    """Stop every process the benchmark started and is still running."""
    with _CHILDREN_LOCK:
        leftover = list(_CHILDREN)
    for process in leftover:
        reap(process, kill=True)


def run_timed(argv: list[str], env: dict, timeout: float = 120.0):
    """Run ``argv`` to completion; returns (wall s, exit code, output,
    peak RSS MiB).  ``output`` is stdout, plus stderr when the exit code
    is neither 0 nor 1.  The peak is the child's own ``VmHWM``, polled
    while it runs: rusage's maxrss would also count the benchmark's
    memory, which a forked child inherits until it execs."""
    start = time.perf_counter()
    process = track(subprocess.Popen(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    ))
    peak = [0.0]
    done = threading.Event()

    def poll() -> None:
        while not done.is_set():
            try:
                peak[0] = read_vm_hwm_mb(process.pid)
            except (OSError, RuntimeError):
                return  # exited: a zombie has no VmHWM
            time.sleep(0.01)

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        out, err = process.communicate(timeout=timeout)
        wall = time.perf_counter() - start
    finally:
        done.set()
        poller.join()
        reap(process, kill=True)
    if process.returncode not in (0, 1):
        out += err
    return wall, process.returncode, out, peak[0]


class Server:
    """One ``python -m repro serve`` process on a free port."""

    def __init__(self, *args: str) -> None:
        self.launched = time.perf_counter()
        self.process = track(subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        ))
        self.banner = self._await_banner()
        #: launch → "listening" banner, seconds
        self.start_s = time.perf_counter() - self.launched
        self.port = int(self.banner.split("http://127.0.0.1:")[1].split()[0])
        self.pid = self.process.pid

    def _await_banner(self, timeout: float = 120.0) -> str:
        timer = threading.Timer(timeout, self.process.kill)
        timer.start()
        try:
            line = self.process.stdout.readline()
        finally:
            timer.cancel()
        if "listening on http://127.0.0.1:" not in line:
            reap(self.process, kill=True)
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return line.strip()

    def connect(self) -> "Client":
        return Client(self.port)

    def stop(self, kill: bool = False) -> None:
        reap(self.process, kill=kill)


def load_session(path: str, bodies: list[bytes], *server_args: str):
    """One serve set-up: launch a server, POST ``bodies[0]`` to create
    the session at ``path`` and every later body as an update.  Returns
    the server and the seconds from launch to the last acknowledgement."""
    server = Server(*server_args)
    client = server.connect()
    try:
        status, reply = client.call("POST", path, body=bodies[0])
        expected = 201
        for body in bodies[1:]:
            if status != expected:
                break
            status, reply = client.call("POST", f"{path}/update", body=body)
            expected = 200
    finally:
        client.close()
    elapsed = time.perf_counter() - server.launched
    if status != expected:
        server.stop()
        raise RuntimeError(f"session set-up failed: HTTP {status} {reply}")
    return server, elapsed


class Client:
    """A persistent keep-alive HTTP/1.1 connection, as real clients use."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, payload=None,
             body: bytes | None = None):
        """(status, decoded JSON body) of one request."""
        if payload is not None:
            body = json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()
            return 0, {"error": f"{type(error).__name__}: {error}"}
        if response.will_close:
            self.connection.close()
        return response.status, json.loads(raw) if raw else {}

    def close(self) -> None:
        self.connection.close()


def session_spec(kind: str, cfds: list[str], rows, sites: int | None = None):
    from repro.datagen import CUST_SCHEMA

    spec = {
        "kind": kind,
        "schema": {"name": "CUST", "attributes": list(CUST_SCHEMA.attributes),
                   "key": list(CUST_SCHEMA.key)},
        "cfds": cfds,
        "rows": [list(row) for row in rows],
    }
    if sites is not None:
        spec["sites"] = sites
    return spec


# -- provenance --------------------------------------------------------------

def provenance(ctx: Context) -> dict:
    """Where a record came from: program version, host and run settings."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
    }
