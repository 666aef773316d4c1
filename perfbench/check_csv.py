"""Leg ``check-csv``: one cold ``python -m repro check`` process per
operation over a seeded CUST CSV with Σ.

This is the CLI headline.  Its cold path spends everything in
``relational`` (CSV parse, type inference, columnar encoding) and the
``core`` engines; nothing in ``serve``, ``detect`` or ``distributed``.
"""

from __future__ import annotations

import ast
import re
import sys

from common import (
    Budget, Context, Leg, child_env, cust_rows, decode_reference, median,
    relation_reference, run_timed, sigma_texts, timed_passes, violation_ids,
)

#: rows of the tiny CSV whose check is the leg's set-up probe
SETUP_ROWS = 100
SETUP_REPEATS = 3
IN_PROCESS_PASSES = 2

_COUNT = re.compile(r"^(cfd\d+): (\d+) violating pattern\(s\)$")
_KEYS = re.compile(r"^violating tuple keys \((\d+)\): (\[.*\])$")


def _write_csv(path, rows) -> None:
    from repro.datagen import CUST_SCHEMA
    from repro.relational import Relation, save_csv

    if not path.exists():
        tmp = path.with_name(f".{path.name}.tmp")
        save_csv(Relation(CUST_SCHEMA, rows, copy=False), tmp)
        tmp.replace(path)


def _cli_names() -> dict[str, str]:
    """Σ's CFD names to the names ``repro check`` gives them: cfd1,
    cfd2, ... in ``--cfd`` order."""
    from repro.datagen import cust_overlapping_cfds

    return {cfd.name: f"cfd{i + 1}"
            for i, cfd in enumerate(cust_overlapping_cfds())}


def _expected(ctx: Context, rows: list[tuple]) -> dict:
    """What ``repro check`` must print, from the reference engine.

    The reference runs on the generated rows; the CSV round trip plus
    ``infer_column_types`` gives back exactly these values (ints stay
    ints, prices are written with ``repr`` and read back as floats).
    """
    reference = relation_reference(ctx, rows)["sigma"]
    names = _cli_names()
    counts: dict[str, int] = {}
    for cfd, _attrs, _values in reference["violations"]:
        counts[names[cfd]] = counts.get(names[cfd], 0) + 1
    return {
        "tuples": ctx.sizes["relation"],
        "counts": counts,
        "n_keys": len(reference["keys"]),
        "shown": reference["keys"][:20],
    }


def _parse(out: str) -> dict:
    lines = out.splitlines()
    counts, n_keys, shown = {}, 0, []
    for line in lines[1:]:
        if match := _COUNT.match(line):
            counts[match.group(1)] = int(match.group(2))
        elif match := _KEYS.match(line):
            n_keys = int(match.group(1))
            shown = [list(key) for key in ast.literal_eval(match.group(2))]
    tuples = int(lines[0].split()[0]) if lines else -1
    return {"tuples": tuples, "counts": counts, "n_keys": n_keys,
            "shown": shown}


def _check_argv(csv_path, texts) -> list[str]:
    argv = [sys.executable, "-m", "repro", "check", "--data", str(csv_path),
            "--key", "id"]
    for text in texts:
        argv += ["--cfd", text]
    return argv


def prepare(ctx: Context) -> dict:
    """The seeded CSVs and the reference output (cached per seed)."""
    rows = cust_rows(ctx)
    csv_path = ctx.cache / "cust.csv"
    tiny_path = ctx.cache / "cust-tiny.csv"
    _write_csv(csv_path, rows[:ctx.sizes["relation"]])
    _write_csv(tiny_path, rows[:SETUP_ROWS])
    return {"csv": csv_path, "tiny": tiny_path, "texts": sigma_texts(),
            "expected": _expected(ctx, rows)}


class CheckCsv(Leg):
    name = "check-csv"
    share = 0.3

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.inputs = prepare(ctx)
        self.argv = _check_argv(self.inputs["csv"], self.inputs["texts"])
        self.budget = Budget()
        self.rss: list[float] = []

    def setup(self) -> None:
        # the fixed cost of a cold process, before data-dependent work
        argv = _check_argv(self.inputs["tiny"], self.inputs["texts"])
        setups = []
        for _ in range(SETUP_REPEATS):
            wall, code, out, _rss = run_timed(argv, child_env())
            self.expect(code in (0, 1),
                        f"set-up check exited {code}: {out[-300:]}")
            setups.append(wall)
        self.setup_s = median(setups)

    def _check(self) -> float:
        expected = self.inputs["expected"]
        wall, code, out, peak = run_timed(self.argv, child_env())
        self.rss.append(peak)
        got = _parse(out)
        want_code = 1 if expected["counts"] else 0
        self.op(code == want_code and got == expected,
                f"check printed {got if code in (0, 1) else out[-300:]}"
                f" (exit {code}), reference {expected}")
        return wall

    def slice(self, index: int, seconds: float) -> None:
        self.budget.spend(seconds, self._check)

    def finish(self) -> None:
        walls = self.budget.walls
        check_s = median(walls)
        self.metric("check_s", median(
            self.ctx.host.normalised(walls, self.budget.spans)), "s")
        self.metric("check_peak_rss_mb", median(self.rss), "MB")
        self.layer("check_s.raw", check_s, "s")
        self.layer("check.samples", len(walls), "count")
        if self.ctx.trace:
            _layers(self.ctx, self, self.inputs, check_s)


def _pipeline(tracer, csv_path, cfds):
    """The stages ``repro check`` runs, called in-process."""
    from repro.core import detect_violations
    from repro.relational import infer_column_types, load_csv

    op = tracer.new_op()
    with tracer.span("relational.csvio.load_csv", op):
        loaded = load_csv(csv_path, key=["id"])
    with tracer.span("relational.csvio.infer_column_types", op):
        relation = infer_column_types(loaded)
    with tracer.span("core.detection.detect_violations_cold", op):
        report = detect_violations(relation, cfds)
    with tracer.span("core.detection.detect_violations_warm", op):
        warm = detect_violations(relation, cfds)
    return report, warm


def _layers(ctx: Context, leg: Leg, inputs: dict, check_s: float) -> None:
    from repro.core import parse_cfd

    env = child_env()
    imports = [
        run_timed([sys.executable, "-c", "import repro.cli"], env)[0] * 1e3
        for _ in range(3)
    ]
    import_ms = median(imports)
    cfds = [parse_cfd(text, name=f"cfd{i + 1}")
            for i, text in enumerate(inputs["texts"])]
    report, warm = timed_passes(
        leg, ctx.tracer, IN_PROCESS_PASSES,
        lambda tracer: _pipeline(tracer, inputs["csv"], cfds))
    tracer = ctx.tracer
    load_ms = tracer.median_ms("relational.csvio.load_csv")
    infer_ms = tracer.median_ms("relational.csvio.infer_column_types")
    cold_ms = tracer.median_ms("core.detection.detect_violations_cold")
    warm_ms = tracer.median_ms("core.detection.detect_violations_warm")
    violations, keys = decode_reference(
        relation_reference(ctx, cust_rows(ctx))["sigma"])
    names = _cli_names()
    violations = {(names[cfd], attrs, values)
                  for cfd, attrs, values in violations}
    leg.expect(violation_ids(report) == violations
               and set(report.tuple_keys) == keys,
               "in-process detect_violations disagrees with the reference")
    leg.expect(warm == report and warm.tuple_keys == report.tuple_keys,
               "warm detect_violations disagrees with the cold one")
    leg.layer("cli.import_ms", import_ms, "ms")
    leg.layer("relational.csvio.load_csv_ms", load_ms, "ms")
    leg.layer("relational.csvio.infer_column_types_ms", infer_ms, "ms")
    leg.layer("core.detection.detect_violations_cold_ms", cold_ms, "ms")
    leg.layer("relational.columnar.encode_ms", cold_ms - warm_ms, "ms")
    leg.layer("cli.unaccounted_ms",
              check_s * 1e3 - import_ms - load_ms - infer_ms - cold_ms, "ms")
    leg.layer("core.detection.violations", len(report.violations), "count")
    leg.layer("core.detection.tuple_keys", len(report.tuple_keys), "count")

