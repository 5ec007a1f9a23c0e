"""Inputs and execution loops of the four benchmark workloads.

Every input is made from the seed with Python's ``random`` module, whose
streams do not change between Python versions, and the package only
ever sees the generated inputs. Each workload draws from a fixed
universe of inputs whose outputs at the baseline commit are stored under
``data/``, so every run can be checked against a reference. The amount
of work is fixed by the seed and ``--seconds`` through the per-unit costs
below, measured at the baseline commit on a 2-CPU box; it never depends
on how fast the code under test runs, so two commits always do the same
work and per-layer counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import random
import time

WORKLOADS = ("presets", "onset_scan", "point_queries", "oracle_grid")

# -- presets: every bundled fig* sweep at reduced axis resolution --------

PRESETS = tuple(sorted(
    [f"fig2{c}" for c in "abcdef"] + [f"fig3{c}" for c in "abcd"]
    + ["fig5", "fig6a", "fig6b"] + [f"fig7{c}" for c in "abcd"]
    + [f"fig8{c}" for c in "abcd"] + [f"fig9{c}" for c in "abcdef"]
    + [f"fig10{c}" for c in "abcdef"] + [f"fig11{c}" for c in "abcd"]
    + ["fig12a", "fig12b"]))
# share of each preset's axis points kept; keeps every axis, every preset
# and the failing fig7c/fig7d/fig9*/fig10* curves
PRESET_SCALE = 0.15
PRESET_PASS_S = 16.0     # one serial pass over all presets

# -- onset_scan: dense criterion-7 curves ---------------------------------

ONSET_POINTS = 240
# acceleration grids of the onset brackets: a in [1, 3] at dz = 0.1 and
# a in [3, 12] at dz = 5, on the steps the criterion-7 test scans
ONSET_GRIDS = {0.1: [round(1.0 + 0.05 * i, 10) for i in range(41)],
               5.0: [round(3.0 + 0.1 * i, 10) for i in range(91)]}
ONSET_CURVE_S = 2.1

# -- point_queries: independent `udwmi mi` calls ---------------------------

QUERY_UNIVERSE = 3000
QUERY_UNIVERSE_SEED = 20260917
QUERY_S = 0.014
QUERY_MIN = 1000         # so that >= 10 samples lie beyond the p99

# -- oracle_grid ------------------------------------------------------------

ORACLE_GRID = "oracle_grid"
ORACLE_PASS_S = 16.0     # one serial run_oracle_suite pass
# one pass is a single timed sample whose speed normalisation is the
# weakest of all workloads (large arrays), so every run makes at least two
ORACLE_MIN_PASSES = 2


@dataclasses.dataclass
class Op:
    """One call a user of the package would make, with its inputs."""

    key: str
    points: int
    payload: object


@dataclasses.dataclass
class OpResult:
    """perf_counter times around the package calls, and their output."""

    start: float
    end: float
    output: object
    error: str | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _units(seconds: float, unit_s: float, minimum: int = 1) -> int:
    return max(minimum, int(round(seconds / unit_s)))


def preset_specs(udwmi):
    """(name, SweepSpec) of every preset at the benchmark's resolution."""
    out = []
    for name in PRESETS:
        spec = udwmi.sweep.load_config(name)
        points = max(3, int(round(spec.axis.points * PRESET_SCALE)))
        axis = dataclasses.replace(spec.axis, points=points)
        out.append((name, dataclasses.replace(spec, axis=axis)))
    return out


def onset_spec(udwmi, dz: float, accel: float):
    """The criterion-7 curve: equal gaps, R = 0.02, 240 sep points."""
    return udwmi.sweep.SweepSpec(
        axis=udwmi.sweep.SweepAxis(name="sep", start=0.1, stop=8.0,
                                   points=ONSET_POINTS),
        gap_a=0.1, accel=accel, radius=0.02, dz=dz, tol=1e-8,
        gap_ratios=(0.0,))


def onset_draw(seed: int, seconds: float) -> list[tuple[float, float]]:
    """(dz, accel) of each curve. Each bracket's grid is cut into equal
    strata and one acceleration is drawn per stratum, so every run covers
    the whole bracket and its cost does not swing with the seed."""
    rng = random.Random(seed)
    per_dz = _units(seconds, 2.0 * ONSET_CURVE_S)
    curves = []
    for dz, grid in ONSET_GRIDS.items():
        for j in range(per_dz):
            lo = j * len(grid) // per_dz
            hi = max((j + 1) * len(grid) // per_dz, lo + 1)
            curves.append((dz, grid[rng.randrange(lo, hi)]))
    rng.shuffle(curves)
    return curves


def query_universe() -> list[dict]:
    """The fixed universe of single-point queries, drawn as: gap_a in
    [0.05, 1], ratio in {0, 2, 10}; accel log-uniform on [0.1, 40],
    radius in {0.02, 1, 10}; sep in [0.1, 8]; dz log-uniform on [0.1, 10]."""
    rng = random.Random(QUERY_UNIVERSE_SEED)
    out = []
    for _ in range(QUERY_UNIVERSE):
        gap_a = rng.uniform(0.05, 1.0)
        ratio = rng.choice((0.0, 2.0, 10.0))
        out.append({
            "gap_a": gap_a,
            "gap_b": gap_a * (1.0 + ratio),
            "accel": math.exp(rng.uniform(math.log(0.1), math.log(40.0))),
            "radius": rng.choice((0.02, 1.0, 10.0)),
            "sep": rng.uniform(0.1, 8.0),
            "dz": math.exp(rng.uniform(math.log(0.1), math.log(10.0))),
        })
    return out


def query_argv(q: dict) -> list[str]:
    return ["mi", "--gap-a", repr(q["gap_a"]), "--gap-b", repr(q["gap_b"]),
            "--accel", repr(q["accel"]), "--radius", repr(q["radius"]),
            "--sep", repr(q["sep"]), "--dz", repr(q["dz"])]


def query_draw(seed: int, seconds: float) -> list[int]:
    """Universe indices of the run's queries: distinct, in seed order."""
    n = min(_units(seconds, QUERY_S, QUERY_MIN), QUERY_UNIVERSE)
    return random.Random(seed).sample(range(QUERY_UNIVERSE), n)


def prepare(udwmi, workload: str, seed: int, seconds: float) -> list[Op]:
    """The run's operations, in the order they are issued."""
    if workload == "presets":
        specs = preset_specs(udwmi)
        rng = random.Random(seed)
        ops = []
        for _ in range(_units(seconds, PRESET_PASS_S)):
            order = list(range(len(specs)))
            rng.shuffle(order)
            ops += [Op(specs[i][0], specs[i][1].axis.points
                       * len(specs[i][1].gap_ratios), specs[i][1])
                    for i in order]
        return ops
    if workload == "onset_scan":
        return [Op(f"{dz}:{a}", ONSET_POINTS, onset_spec(udwmi, dz, a))
                for dz, a in onset_draw(seed, seconds)]
    if workload == "point_queries":
        universe = query_universe()
        return [Op(str(i), 1, query_argv(universe[i]))
                for i in query_draw(seed, seconds)]
    if workload == "oracle_grid":
        grid = udwmi.sweep.load_grid(ORACLE_GRID)
        n = len(grid["response_points"]) + len(grid["correlation_points"])
        rng = random.Random(seed)
        ops = []
        for _ in range(_units(seconds, ORACLE_PASS_S, ORACLE_MIN_PASSES)):
            resp = list(range(len(grid["response_points"])))
            corr = list(range(len(grid["correlation_points"])))
            rng.shuffle(resp)
            rng.shuffle(corr)
            permuted = dict(grid)
            permuted["response_points"] = [grid["response_points"][i] for i in resp]
            permuted["correlation_points"] = [grid["correlation_points"][i] for i in corr]
            ops.append(Op(ORACLE_GRID, n, (resp, corr, permuted)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def execute(udwmi, workload: str, op: Op, workers: int) -> OpResult:
    """Run one operation; its times cover only the package calls."""
    sweep, cli = udwmi.sweep, udwmi.cli
    t0 = math.nan
    try:
        if workload in ("presets", "onset_scan"):
            buf = io.StringIO()
            t0 = time.perf_counter()
            rows = sweep.run_sweep(op.payload, workers=workers)
            sweep.emit_table(rows, "csv", buf)
            return OpResult(t0, time.perf_counter(), buf.getvalue())
        if workload == "point_queries":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = cli.main(op.payload)
                t1 = time.perf_counter()
            return OpResult(t0, t1, (code, out.getvalue()))
        if workload == "oracle_grid":
            t0 = time.perf_counter()
            report = sweep.run_oracle_suite(op.payload[2], workers=workers)
            return OpResult(t0, time.perf_counter(), report)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return OpResult(t0, time.perf_counter(), None,
                        f"{type(exc).__name__}: {exc}")
    raise ValueError(f"unknown workload {workload!r}")


def reported_failures(workload: str, op: Op, res: OpResult) -> int:
    """Points the package itself reported as failed: fail: rows, non-zero
    cli exits, or every point of an op that raised."""
    if res.error is not None:
        return op.points
    if workload in ("presets", "onset_scan"):
        rows = csv.DictReader(io.StringIO(res.output))
        return sum(r["status"].startswith("fail") for r in rows)
    if workload == "point_queries":
        return int(res.output[0] != 0)
    return 0
