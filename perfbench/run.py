"""The repository benchmark: one command, every end-to-end metric.

    python3 perfbench/run.py --workload full --seed 1 --seconds 36 --trace 0

Each run executes four legs (``check-csv``, ``serve-central``,
``serve-durable``, ``distributed-round``; see ``perfbench/README.md``),
their timed work interleaved in slices, on inputs generated from
``--seed``.  It checks every output against the reference engine,
prints each metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, measured with tracing
off; ``--trace 1`` runs the same legs plus the in-process layer passes
and reports the per-layer metrics.  ``--workload`` picks the input
sizes (``full`` or ``small``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import common

#: the legs, in the order each slice runs them
LEGS = (
    ("check_csv", "CheckCsv"),
    ("serve_central", "ServeCentral"),
    ("serve_durable", "ServeDurable"),
    ("distributed_round", "DistributedRound"),
)
#: every leg's timed work is cut into this many slices, run round-robin,
#: so each metric samples the whole run rather than one stretch of it:
#: on a shared virtual machine the host's speed drifts within seconds.
#: Each slice takes at least one sample of every timing, so the
#: multi-second ones (``check_s``, ``recover_s``) get four per run
SLICES = 4


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(common.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _overhead_pct(legs) -> float:
    untraced = sum(common.median(leg.untraced_s) for leg in legs
                   if leg.untraced_s)
    traced = sum(common.median(leg.traced_s) for leg in legs
                 if leg.traced_s)
    return 100.0 * (traced - untraced) / untraced


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.src_ready():
        print(f"error: no program source at {common.SRC}/repro; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    common.clear_knobs()
    ctx = common.Context(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    provenance = common.provenance(ctx)
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}",
          flush=True)

    started = time.perf_counter()
    busy_before, steal_before = common.cpu_ticks()
    legs = []
    try:
        for module_name, class_name in LEGS:
            legs.append(getattr(__import__(module_name), class_name)(ctx))
        # a host probe between every two legs' set-ups and slices brackets
        # each CPU-bound sample with the host's speed just around it
        setup_spans = []
        with common.frozen_heap():
            for leg in legs:
                ctx.host.mark()
                start = time.perf_counter()
                leg.setup()
                setup_spans.append((start, time.perf_counter()))
            for index in range(SLICES):
                for leg in legs:
                    ctx.host.mark()
                    leg.slice(index, leg.share * args.seconds / SLICES)
            ctx.host.mark()
            for leg in legs:
                leg.finish()
    finally:
        for leg in legs:
            leg.close()
        common.reap_all()
        shutil.rmtree(ctx.work, ignore_errors=True)
    busy, steal = (now - before for now, before in zip(
        common.cpu_ticks(), (busy_before, steal_before)))
    attempted = sum(leg.attempted for leg in legs)
    failed = sum(leg.failed for leg in legs)
    problems = [problem for leg in legs for problem in leg.problems]
    metrics: dict[str, tuple[float, str]] = {"setup_s": (sum(
        ctx.host.normalised([leg.setup_s for leg in legs], setup_spans)),
        "s")}
    layers: dict[str, tuple[float, str]] = {
        "setup_s.raw": (sum(leg.setup_s for leg in legs), "s")}
    for leg in legs:
        metrics.update(leg.metrics)
        layers.update(leg.layers)
        layers[f"setup.{leg.name}_s"] = (leg.setup_s, "s")
        print(f"[{leg.name}] set-up {leg.setup_s:.4f} s, "
              f"{leg.attempted} operations, {leg.failed} failed "
              f"(error_rate {leg.failed / max(1, leg.attempted):.4f})")
    layers["error_rate"] = (failed / max(1, attempted), "ratio")
    layers["host.steal_pct"] = (100.0 * steal / max(1, busy + steal), "%")
    layers["host.probe_ms"] = (ctx.host.median_probe_s() * 1e3, "ms")
    if args.trace:
        layers["trace.overhead_pct"] = (_overhead_pct(legs), "%")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"e2e   {name} = {value:.6g} {unit}")
    for name, (value, unit) in sorted(layers.items()):
        print(f"layer {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"run took {time.perf_counter() - started:.1f} s")

    reported = layers if args.trace else metrics
    common.TRACES.mkdir(parents=True, exist_ok=True)
    record = common.TRACES / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    common.write_atomic(record, json.dumps({
        "provenance": provenance,
        "metrics": {name: value for name, (value, _u) in metrics.items()},
        "layers": {name: value for name, (value, _u) in layers.items()},
        "problems": problems,
        "spans": ctx.tracer.spans,
    }).encode())
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
