"""Leg ``distributed-round``: the paper's algorithms, in-process.

Each round partitions the CUST relation uniformly over 8 sites (fresh
fragments, so every cache starts cold), then runs PATDETECTRT on
``cust_street_cfd(255)`` and CLUSTDETECT on Σ with the default serial
scheduler.  The work is in ``partition``, ``detect``, ``distributed``
and the per-fragment ``core`` engines.  Shipment counts are exact, so a
coordinator-selection change shows as a count.

Run as a script (``--child``), it times the same round in a fresh
process under ``REPRO_WORKERS``/``REPRO_PARALLEL``, for the parallel
scheduler's per-layer figures.
"""

from __future__ import annotations

import json
import sys
import time

from common import (
    Budget, Leg, Tracer, child_env, cust_rows, decode_reference, median,
    relation_reference, run_timed, timed_passes, violation_ids,
)

SITES = 8
SETUP_REPEATS = 3
IN_PROCESS_PASSES = 2
CHILD_ROUNDS = 3


def _build(rows):
    """The initial relation build: the program's own constructor, which
    copies and width-checks every row."""
    from repro.datagen import CUST_SCHEMA
    from repro.relational import Relation

    return Relation(CUST_SCHEMA, rows)


def _round(tracer, relation, street, sigma):
    from repro.detect import clust_detect, pat_detect_rt
    from repro.partition import partition_uniform

    op = tracer.new_op()
    with tracer.span("partition.horizontal.partition_uniform", op):
        cluster = partition_uniform(relation, SITES)
    with tracer.span("detect.pat.pat_detect_rt", op):
        pat = pat_detect_rt(cluster, street)
    with tracer.span("detect.clust.clust_detect", op):
        clust = clust_detect(cluster, sigma)
    return pat, clust


class DistributedRound(Leg):
    name = "distributed-round"
    share = 0.12

    def __init__(self, ctx) -> None:
        from repro.datagen import cust_overlapping_cfds, cust_street_cfd

        super().__init__(ctx)
        self.rows = cust_rows(ctx)[:ctx.sizes["relation"]]
        self.street = cust_street_cfd(255)
        self.sigma = cust_overlapping_cfds()
        reference = relation_reference(ctx, self.rows)
        self.expected = {"pat": decode_reference(reference["street"]),
                         "clust": decode_reference(reference["sigma"])}
        self.budget = Budget()
        self.shipped: set = set()
        self.modelled: set = set()
        self.relation = None

    def setup(self) -> None:
        setups = []
        for _ in range(SETUP_REPEATS):
            self.relation = None  # free the previous build first
            start = time.perf_counter()
            self.relation = _build(self.rows)
            setups.append(time.perf_counter() - start)
        self.setup_s = median(setups)

    def _timed_round(self) -> float:
        start = time.perf_counter()
        pat, clust = _round(Tracer(False), self.relation, self.street,
                            self.sigma)
        wall = time.perf_counter() - start
        for name, outcome in (("pat", pat), ("clust", clust)):
            want_violations, want_keys = self.expected[name]
            ok = (violation_ids(outcome.report) == want_violations
                  and set(outcome.report.tuple_keys) <= want_keys)
            self.op(ok, f"{outcome.algorithm} report differs from the "
                        "reference")
        self.shipped.add(pat.tuples_shipped + clust.tuples_shipped)
        self.modelled.add(pat.response_time + clust.response_time)
        self.last = pat, clust
        return wall

    def slice(self, index: int, seconds: float) -> None:
        self.budget.spend(seconds, self._timed_round)

    def finish(self) -> None:
        self.expect(len(self.shipped) == 1 and len(self.modelled) == 1,
                    f"rounds disagree on |M| {self.shipped} or the "
                    "modelled time")
        tuples = min(self.shipped)
        self.expect(tuples > 0,
                    "no tuples shipped: the round missed its path")
        walls = self.budget.walls
        round_s = median(walls)
        self.metric("round_s", median(
            self.ctx.host.normalised(walls, self.budget.spans)), "s")
        self.metric("tuples_shipped", tuples, "count")
        self.metric("model_response_s", min(self.modelled), "s")
        self.layer("round_s.raw", round_s, "s")
        self.layer("round.samples", len(walls), "count")
        if self.ctx.trace:
            pat, clust = self.last
            _layers(self.ctx, self, self.relation, self.street, self.sigma,
                    pat, clust, round_s)


def _layers(ctx, leg, relation, street, sigma, pat, clust, round_s) -> None:
    timed_passes(leg, ctx.tracer, IN_PROCESS_PASSES,
                 lambda tracer: _round(tracer, relation, street, sigma))
    tracer = ctx.tracer
    stages = 0.0
    for name in ("partition.horizontal.partition_uniform",
                 "detect.pat.pat_detect_rt", "detect.clust.clust_detect"):
        stage = tracer.median_ms(name)
        stages += stage
        leg.layer(f"{name}_ms", stage, "ms")
    leg.layer("round.unaccounted_ms", round_s * 1e3 - stages, "ms")
    leg.layer("distributed.network.tuples_shipped.pat_rt",
              pat.tuples_shipped, "count")
    leg.layer("distributed.network.tuples_shipped.clust",
              clust.tuples_shipped, "count")
    leg.layer("distributed.network.codes_shipped",
              pat.shipments.codes_shipped + clust.shipments.codes_shipped,
              "count")
    leg.layer("distributed.network.control_messages",
              pat.shipments.control_messages
              + clust.shipments.control_messages, "count")

    serial = [pat.tuples_shipped + clust.tuples_shipped,
              len(pat.report.violations) + len(clust.report.violations)]
    for mode in ("thread", "process"):
        _wall, code, out, _rss = run_timed(
            [sys.executable, __file__, "--child", str(ctx.cache / "cust.json"),
             str(len(relation))],
            child_env(REPRO_WORKERS="2", REPRO_PARALLEL=mode),
            timeout=150,
        )
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            result = None
        leg.expect(code == 0 and result is not None
                   and result["counts"] == serial,
                   f"{mode} round differs from the serial one: {out[-300:]}")
        leg.layer(f"core.parallel.round_{mode}2_ms",
                  median(result["round_ms"]) if result else 0.0, "ms")


def _child(rows_path: str, n: int) -> None:
    from repro.datagen import cust_overlapping_cfds, cust_street_cfd

    with open(rows_path) as handle:
        relation = _build(json.load(handle)[:n])
    street, sigma = cust_street_cfd(255), cust_overlapping_cfds()
    tracer = Tracer(False)
    walls = []
    for _ in range(CHILD_ROUNDS):
        start = time.perf_counter()
        pat, clust = _round(tracer, relation, street, sigma)
        walls.append((time.perf_counter() - start) * 1e3)
    print(json.dumps({
        "round_ms": walls,
        "counts": [pat.tuples_shipped + clust.tuples_shipped,
                   len(pat.report.violations) + len(clust.report.violations)],
    }))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        _child(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit("usage: distributed_round.py --child ROWS_JSON N")
