"""Parameter sweeps, deterministic tables, and the oracle cross-check suite.

A sweep is one axis (separation, boundary distance, acceleration, or
energy gap) swept over a fixed background of the remaining parameters,
once per gap-detuning ratio. Rows share sub-results: P_A repeats along
a separation axis, the direct correlation part along a boundary-distance
axis, and a detector's free-space response at every height it sits at.
So a sweep is lowered to its distinct free-space responses, mirror
transition probabilities (each adding its image terms to its detector's
free-space response) and line integrals; these run data-parallel, once
each, and every row is assembled from the ones it uses. Output order is
fixed by (curve, axis index) so files are byte-identical whatever the
worker count. A failing point keeps its row with a fail status instead
of aborting the run. The oracle suite runs its points through the same
task runner, one process pool per call.

Config files are JSON; the presets/ directory ships one per figure-style
sweep plus the oracle cross-check grids. The process pool is udwmi's
only parallelism: its worker count defaults to the CPUs this process may
use, at most 8, and no environment variable changes it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .correlation import (PairConfig, _correlation_from_lines,
                          _line_integral_args, _reduced_line_integral,
                          correlation_equal, correlation_general_result)
from .infomeasure import (PairPointResult, PerturbativeRegimeWarning,
                          PointTerms, mutual_information_point)
from .kinematics import DomainError, detector_from_accel_radius
from .response import transition_probability, transition_probability_oracle_result

__all__ = [
    "AXIS_NAMES",
    "COLUMNS",
    "SweepAxis",
    "SweepSpec",
    "SweepRow",
    "point_record",
    "load_config",
    "load_grid",
    "run_sweep",
    "emit_table",
    "run_oracle_suite",
    "count_interior_maxima",
]

AXIS_NAMES = ("sep", "dz", "accel", "gap")
_SPACINGS = ("linear", "log")


def _require_finite(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: name, closed range, point count, spacing."""

    name: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise DomainError(f"axis name must be one of {AXIS_NAMES}, "
                              f"got {self.name!r}")
        if self.spacing not in _SPACINGS:
            raise DomainError(f"axis spacing must be one of {_SPACINGS}, "
                              f"got {self.spacing!r}")
        object.__setattr__(self, "start", _require_finite("axis start", self.start))
        object.__setattr__(self, "stop", _require_finite("axis stop", self.stop))
        if not self.start < self.stop:
            raise DomainError(f"axis needs start < stop, got "
                              f"[{self.start}, {self.stop}]")
        if not isinstance(self.points, int) or self.points < 2:
            raise DomainError(f"axis needs at least 2 points, got {self.points}")
        if self.spacing == "log" and self.start <= 0.0:
            raise DomainError("log spacing needs a positive start")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Full sweep description: axis, fixed parameters, gap-ratio curves.

    gap_ratios lists (gap_b - gap_a)/gap_a detunings, one output curve
    each. free_space=True (or dz=None) drops the mirror. A sweep only
    evaluates the reduced paths; run_oracle_suite (`udwmi verify`) is
    where they are cross-checked against the definition-level oracles.
    A config file holds these fields as keys, axis as an object, plus
    an optional "description"."""

    axis: SweepAxis
    name: str = "sweep"
    gap_a: float = 0.1
    gap_ratios: tuple[float, ...] = (0.0,)
    accel: float = 1.0
    radius: float = 1.0
    sep: float = 1.0
    dz: float | None = None
    free_space: bool = False
    tol: float = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "gap_a", _require_finite("gap_a", self.gap_a))
        object.__setattr__(self, "accel", _require_finite("accel", self.accel))
        object.__setattr__(self, "radius", _require_finite("radius", self.radius))
        object.__setattr__(self, "sep", _require_finite("sep", self.sep))
        object.__setattr__(self, "tol", _require_finite("tol", self.tol))
        if self.accel < 0.0:
            raise DomainError(f"accel must be >= 0, got {self.accel}")
        if self.radius <= 0.0:
            raise DomainError(f"radius must be > 0, got {self.radius}")
        if self.sep < 0.0:
            raise DomainError(f"sep must be >= 0, got {self.sep}")
        if self.tol <= 0.0:
            raise DomainError(f"tol must be > 0, got {self.tol}")
        if not isinstance(self.gap_ratios, (list, tuple)):
            raise DomainError(f"gap_ratios must be a list, "
                              f"got {self.gap_ratios!r}")
        ratios = tuple(_require_finite("gap_ratio", r) for r in self.gap_ratios)
        if not ratios:
            raise DomainError("gap_ratios must be nonempty")
        object.__setattr__(self, "gap_ratios", ratios)
        if self.dz is not None:
            dz = _require_finite("dz", self.dz)
            if dz <= 0.0:
                raise DomainError(f"dz must be > 0, got {dz}")
            object.__setattr__(self, "dz", dz)
        if not self.free_space and self.dz is None and self.axis.name != "dz":
            raise DomainError("dz is required unless free_space is set "
                              "or dz is the swept axis")
        if self.free_space and self.axis.name == "dz":
            raise DomainError("sweeping dz makes no sense in free space")
        if self.free_space and self.dz is not None:
            raise DomainError("dz makes no sense in free space")

    @classmethod
    def from_mapping(cls, cfg: dict) -> "SweepSpec":
        if not isinstance(cfg, dict):
            raise DomainError("sweep config must be a JSON object")
        known = {f.name for f in fields(cls)} | {"description"}
        unknown = set(cfg) - known
        if unknown:
            raise DomainError(f"unknown sweep config keys: {sorted(unknown)}")
        axis_cfg = cfg.get("axis")
        if not isinstance(axis_cfg, dict):
            raise DomainError("sweep config needs an 'axis' object")
        axis_unknown = set(axis_cfg) - {f.name for f in fields(SweepAxis)}
        if axis_unknown:
            raise DomainError(f"unknown axis keys: {sorted(axis_unknown)}")
        try:
            axis = SweepAxis(
                name=axis_cfg["name"],
                start=axis_cfg["start"],
                stop=axis_cfg["stop"],
                points=axis_cfg["points"],
                spacing=axis_cfg.get("spacing", "linear"),
            )
        except KeyError as exc:
            raise DomainError(f"axis config missing key {exc}") from None
        kwargs = {k: cfg[k] for k in known - {"axis", "description"} if k in cfg}
        return cls(axis=axis, **kwargs)

    def point_params(self) -> list[dict]:
        """Resolved per-point parameter records in output order
        (curve-major, axis-minor)."""
        values = self.axis.values()
        out = []
        for ratio in self.gap_ratios:
            for v in values:
                gap_a = self.gap_a
                sep = self.sep
                dz = self.dz
                accel = self.accel
                v = float(v)
                if self.axis.name == "sep":
                    sep = v
                elif self.axis.name == "dz":
                    dz = v
                elif self.axis.name == "accel":
                    accel = v
                else:
                    gap_a = v
                out.append({
                    "gap_a": gap_a,
                    "gap_b": gap_a * (1.0 + ratio),
                    "accel": accel,
                    "radius": self.radius,
                    "sep": sep,
                    "dz": dz,
                    "free_space": dz is None,
                })
        return out


def _column(name: str):
    return field(metadata={"column": name})


@dataclass(frozen=True)
class SweepRow:
    """One evaluated sweep point. The fields are the table's columns in
    order, each named after its field unless it names its column; this
    class is the one copy of the table schema."""

    gap_a: float
    gap_b: float
    accel: float
    radius: float
    sep: float
    dz: float | None
    free_space: bool
    p_a: float = _column("P_A")
    p_b: float = _column("P_B")
    re_c: float = _column("ReC")
    im_c: float = _column("ImC")
    abs_c: float = _column("absC")
    re_c1: float = _column("ReC1")
    im_c1: float = _column("ImC1")
    re_c2: float = _column("ReC2")
    im_c2: float = _column("ImC2")
    l_plus: float = _column("Lplus")
    l_minus: float = _column("Lminus")
    mutual_info: float = _column("I")
    slack: float
    err: float
    status: str

    def to_record(self) -> dict:
        return {col: getattr(self, name) for name, col in _FIELD_COLUMNS}


_FIELD_COLUMNS = tuple((f.name, f.metadata.get("column", f.name))
                       for f in fields(SweepRow))
COLUMNS = tuple(col for _, col in _FIELD_COLUMNS)
_OUTPUT_COLUMNS = COLUMNS[7:21]


def _row_from_record(rec: dict) -> SweepRow:
    return SweepRow(**{name: rec[col] for name, col in _FIELD_COLUMNS})


def point_record(pt: PairPointResult) -> dict:
    """The output columns (P_A through err) of one evaluated pair point:
    its cells in a sweep table and the record `udwmi mi` prints."""
    c = pt.corr
    return dict(zip(_OUTPUT_COLUMNS, (
        pt.p_a, pt.p_b, c.c_total.real, c.c_total.imag, abs(c.c_total),
        c.c_free.real, c.c_free.imag, c.c_boundary.real, c.c_boundary.imag,
        pt.l_plus, pt.l_minus, pt.mutual_info, pt.positivity_slack,
        pt.abs_error_estimate), strict=True))


def _one_line(text: str, limit: int = 200) -> str:
    flat = " ".join(str(text).split())
    return flat[:limit]


def _fail_status(exc: Exception) -> str:
    return f"fail:{type(exc).__name__}:{_one_line(exc)}"


def _warning_tags(wlog) -> frozenset[str]:
    return frozenset(
        "perturbative" if issubclass(w.category, PerturbativeRegimeWarning)
        else "quadrature" for w in wlog)


def _plan(spec: SweepSpec) -> tuple[list[tuple], list[tuple]]:
    """Lower a sweep into its rows and the distinct calls they need.

    A task is one (function, arguments, free task index or None) call,
    listed once, in the order rows first use it. A free task is
    transition_probability on (detector, None, tol): a detector's
    free-space response, or its whole P without a mirror. A mirror task
    is transition_probability on (detector, height, tol) and names the
    detector's free task, which it gets as free= and which always comes
    before it; the rest are _reduced_line_integral on a line-integral
    key (its full argument tuple). Equal keys give equal results, and
    free= leaves P bit-identical, so every row is made from exactly the
    values a single-point evaluation would compute.

    A row plan is (params, status, task indices, C prefactor). The
    indices follow the order a single point evaluates its terms: P_A,
    P_B, the direct and then the image line integral. status is the fail
    status of building the detectors or the pair, with no tasks, or None.
    """
    tasks: list[tuple] = []
    index: dict[tuple, int] = {}

    def use(task: tuple) -> int:
        if task not in index:
            index[task] = len(tasks)
            tasks.append(task)
        return index[task]

    def response(det, dz) -> int:
        free = use((transition_probability, (det, None, spec.tol), None))
        if dz is None:
            return free
        return use((transition_probability, (det, dz, spec.tol), free))

    plans = []
    for params in spec.point_params():
        try:
            pair = _pair_from_params(params)
        except Exception as exc:  # per-point isolation is the contract
            plans.append((params, _fail_status(exc), (), 0.0))
            continue
        dz_b = None if pair.dz is None else pair.dz + pair.sep
        pref, lines = _line_integral_args(pair, spec.tol)
        keys = (response(pair.det_a, pair.dz), response(pair.det_b, dz_b),
                *(use((_reduced_line_integral, args, None)) for args in lines))
        plans.append((params, None, keys, pref))
    return plans, tasks


def _evaluate_task(item: tuple) -> tuple:
    """Worker: one distinct sub-result as (value, fail status or None,
    warning tags) of a (function, arguments, free result or None) item.
    Never raises; the rows using a failed task fail.

    A mirror task whose free task failed takes that result, fail status
    and tags, without running: the failure a single point would meet
    first. Otherwise the free result is passed as free= and its warning
    tags join the task's own."""
    fn, args, free = item
    kwargs, free_tags = {}, frozenset()
    if free is not None:
        value, fail, free_tags = free
        if fail is not None:
            return free
        kwargs["free"] = value
    try:
        with warnings.catch_warnings(record=True) as wlog:
            warnings.simplefilter("always")
            value = fn(*args, **kwargs)
    except Exception as exc:  # per-point isolation is the contract
        return None, _fail_status(exc), frozenset()
    return value, None, free_tags | _warning_tags(wlog)


def _assemble(status: str | None, keys: tuple[int, ...], pref: float,
              results: list) -> tuple[str, PairPointResult | None]:
    """Status and point of one planned row from its evaluated tasks.

    The first failure in evaluation order decides a fail status. Warnings
    of every task the row uses, and of its assembly, become warn tags."""
    if status is not None:
        return status, None
    tags = set()
    for i in keys:
        _, fail, task_tags = results[i]
        if fail is not None:
            return fail, None
        tags |= task_tags
    resp_a, resp_b, *lines = (results[i][0] for i in keys)
    terms = PointTerms(resp_a, resp_b, _correlation_from_lines(pref, lines))
    try:
        with warnings.catch_warnings(record=True) as wlog:
            warnings.simplefilter("always")
            pt = mutual_information_point(terms)
    except Exception as exc:  # per-point isolation is the contract
        return _fail_status(exc), None
    tags |= _warning_tags(wlog)
    if not pt.converged:
        tags.add("tolerance")
    return ("ok" if not tags else "warn:" + ";".join(sorted(tags))), pt


def _resolve_workers(requested: int | None) -> int:
    """requested, or the CPUs this process may use (so a cpuset or
    taskset limit holds), at most 8."""
    if requested is not None:
        if requested < 1:
            raise DomainError(f"workers must be >= 1, got {requested}")
        return requested
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, 8)


def _evaluate_plan(evaluate, tasks: list[tuple], workers: int):
    """Iterator over evaluate of each (function, arguments, dependency)
    task, in order; the one task runner of sweeps and the oracle suite.

    evaluate gets (function, arguments, result of the dependency task or
    None). Serially each result is made when it is taken, so run_sweep
    assembles every row right after the tasks it first needs and a
    serial run's calls group by row; a dependency comes before the tasks
    that need it. With workers, the tasks without a dependency are
    mapped first, then the rest with their dependency's result bound in,
    on one pool."""
    if workers == 1 or len(tasks) <= 1:
        results = []
        for fn, args, dep in tasks:
            results.append(evaluate(
                (fn, args, None if dep is None else results[dep])))
            yield results[-1]
        return
    results = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for dependent in (False, True):
            order = [i for i, task in enumerate(tasks)
                     if (task[2] is not None) == dependent]
            items = [(fn, args, None if dep is None else results[dep])
                     for fn, args, dep in (tasks[i] for i in order)]
            chunksize = max(1, len(items) // (4 * workers))
            for i, res in zip(order, pool.map(evaluate, items,
                                              chunksize=chunksize)):
                results[i] = res
    yield from results


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[SweepRow]:
    """Evaluate every sweep point; deterministic row order (curve-major,
    axis-minor) independent of worker count.

    Each distinct transition probability and line integral of the sweep
    is evaluated once, each detector's free-space response too, and every
    row is assembled from the ones it uses."""
    plans, tasks = _plan(spec)
    stream = _evaluate_plan(_evaluate_task, tasks, _resolve_workers(workers))
    results: list = []
    rows = []
    for params, status, keys, pref in plans:
        # tasks come in first-use order, so a row needs no task past its
        # own largest index
        while len(results) <= max(keys, default=-1):
            results.append(next(stream))
        status, pt = _assemble(status, keys, pref, results)
        outputs = (dict.fromkeys(_OUTPUT_COLUMNS, math.nan) if pt is None
                   else point_record(pt))
        rows.append(_row_from_record({**params, **outputs, "status": status}))

    return rows


def _fmt(x) -> str:
    return f"{x:.12g}"


def _csv_cell(key: str, value) -> str:
    if key == "status":
        return value
    if key == "free_space":
        return "true" if value else "false"
    if key == "dz":
        return "" if value is None else _fmt(value)
    return _fmt(value)


def _json_value(key: str, value):
    if key in ("status", "free_space", "dz"):
        return value
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        return None
    return float(_fmt(v))


def emit_table(rows: list[SweepRow], fmt: str, destination) -> None:
    """Write rows as CSV or JSON to a path or text stream.

    Numbers carry 12 significant digits in both formats; a NaN output of
    a failed point becomes null in JSON and 'nan' in CSV."""
    if not rows:
        raise DomainError("no rows to emit")
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {fmt!r}")

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            rec = row.to_record()
            writer.writerow([_csv_cell(k, rec[k]) for k in COLUMNS])
        text = buf.getvalue()
    else:
        payload = [{k: _json_value(k, v) for k, v in row.to_record().items()}
                   for row in rows]
        text = json.dumps(payload, indent=2) + "\n"

    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"writing table to {path}: {exc}") from exc


def _preset_dir():
    return resources.files("udwmi") / "presets"


def _load_json_source(source, kind: str) -> dict:
    """Load a JSON config from a path or a packaged preset name."""
    if isinstance(source, dict):
        return source
    p = Path(source)
    if p.exists():
        try:
            return json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON in {p}: {exc}") from None
    name = str(source)
    if not name.endswith(".json"):
        name += ".json"
    preset = _preset_dir() / name
    if preset.is_file():
        return json.loads(preset.read_text())
    available = sorted(f.name[:-5] for f in _preset_dir().iterdir()
                       if f.name.endswith(".json"))
    raise DomainError(f"no such {kind} file or preset: {source!r} "
                      f"(presets: {', '.join(available)})")


def load_config(source) -> SweepSpec:
    """Sweep config from a JSON path, preset name, or mapping."""
    return SweepSpec.from_mapping(_load_json_source(source, "sweep config"))


def load_grid(source) -> dict:
    """Oracle-suite grid from a JSON path, preset name, or mapping,
    checked: a positive finite rel_tol (default 1e-3) and point lists of
    objects with the keys their section needs."""
    grid = _load_json_source(source, "oracle grid")
    if not isinstance(grid, dict):
        raise DomainError("oracle grid must be a JSON object")
    grid = dict(grid)
    grid["rel_tol"] = _require_finite("rel_tol", grid.get("rel_tol", 1e-3))
    if grid["rel_tol"] <= 0.0:
        raise DomainError(f"rel_tol must be > 0, got {grid['rel_tol']}")
    # the keys each point needs; dz is optional (absent or None: no mirror)
    for section, keys in (
            ("response_points", ("gap", "accel", "radius")),
            ("correlation_points", ("gap_a", "gap_b", "accel", "radius", "sep"))):
        points = grid.setdefault(section, [])
        if not (isinstance(points, list)
                and all(isinstance(p, dict) for p in points)):
            raise DomainError(f"{section} must be a list of objects")
        for p in points:
            missing = [k for k in keys if k not in p]
            if missing:
                raise DomainError(f"{section} point {p} lacks keys {missing}")
    if not (grid["response_points"] or grid["correlation_points"]):
        raise DomainError("oracle grid has no points")
    return grid


def _pair_from_params(p: dict) -> PairConfig:
    det_a = detector_from_accel_radius(p["gap_a"], p["accel"], p["radius"])
    det_b = detector_from_accel_radius(p["gap_b"], p["accel"], p["radius"])
    return PairConfig(det_a=det_a, det_b=det_b, sep=p["sep"], dz=p.get("dz"))


def _suite_response_point(params: dict) -> dict:
    spec = detector_from_accel_radius(params["gap"], params["accel"],
                                      params["radius"])
    res = transition_probability(spec, params.get("dz"))
    est = transition_probability_oracle_result(spec, params.get("dz"))
    return _deviation_record(params, res.total, res.abs_error_estimate,
                             float(est.value), est.error_estimate)


def _suite_correlation_point(params: dict) -> dict:
    pair = _pair_from_params(params)
    res = correlation_equal(pair)
    est = correlation_general_result(pair)
    rec = _deviation_record(params, res.c_total, res.abs_error_estimate,
                            est.value, est.error_estimate)
    rec["c_boundary"] = [res.c_boundary.real, res.c_boundary.imag]
    return rec


def _call(item: tuple):
    fn, args, _ = item
    return fn(*args)


def _deviation_record(params, value, err, oracle, oerr) -> dict:
    abs_dev = abs(value - oracle)
    rel_dev = abs_dev / max(abs(oracle), 1e-300)
    if isinstance(value, complex):
        stored_value = [value.real, value.imag]
        stored_oracle = [oracle.real, oracle.imag]
    else:
        stored_value = value
        stored_oracle = float(oracle)
    return {
        "params": dict(params),
        "value": stored_value,
        "oracle": stored_oracle,
        "abs_dev": abs_dev,
        "rel_dev": rel_dev,
        "err": err,
        "oracle_err": oerr,
        "within_combined_err": bool(abs_dev <= err + oerr),
    }


def run_oracle_suite(grid, *, workers: int | None = None) -> dict:
    """Cross-check the fast paths against the definition-level oracles
    on a grid (a JSON path, preset name, or mapping) of points;
    pass/fail against the grid's rel_tol (default 1e-3 relative
    deviation).

    The response and then the correlation points are one task list on
    _evaluate_plan. Unlike a sweep row, a point does not fail alone: its
    exception (a DomainError for a bad point, a RuntimeError for an
    oracle that did not converge) ends the suite, and its warnings are
    passed on."""
    grid = load_grid(grid)
    rel_tol = grid["rel_tol"]
    resp_points = grid["response_points"]
    tasks = ([(_suite_response_point, (p,), None) for p in resp_points]
             + [(_suite_correlation_point, (p,), None)
                for p in grid["correlation_points"]])
    records = list(_evaluate_plan(_call, tasks, _resolve_workers(workers)))
    resp_records = records[:len(resp_points)]
    corr_records = records[len(resp_points):]

    def section(records):
        max_rel = max((r["rel_dev"] for r in records), default=0.0)
        return {
            "points": records,
            "max_rel_dev": max_rel,
            "ok": all(r["rel_dev"] <= rel_tol for r in records),
            "all_within_combined_err": all(r["within_combined_err"]
                                           for r in records),
        }

    report = {
        "name": grid.get("name", "oracle-grid"),
        "rel_tol": rel_tol,
        "response": section(resp_records),
        "correlation": section(corr_records),
    }
    report["ok"] = report["response"]["ok"] and report["correlation"]["ok"]
    return report


def count_interior_maxima(values, prominence_rel: float = 1e-4) -> int:
    """Number of interior local maxima with prominence above
    prominence_rel times the curve maximum. Endpoints never count."""
    from scipy.signal import find_peaks

    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise DomainError("need a 1-D curve with at least 3 samples")
    if not np.all(np.isfinite(y)):
        raise DomainError("curve contains non-finite values")
    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        return 0
    peaks, _ = find_peaks(y, prominence=prominence_rel * scale)
    return int(len(peaks))
