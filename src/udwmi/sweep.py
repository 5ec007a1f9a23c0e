"""Parameter sweeps, deterministic tables, and the oracle cross-check suite.

A sweep is one axis (separation, boundary distance, acceleration, or
energy gap) swept over a fixed background of the remaining parameters,
once per gap-detuning ratio. Rows share sub-results: P_A repeats along
a separation axis, the direct correlation part along a boundary-distance
axis, and a detector's free-space response at every height it sits at.
So a sweep's pairs are lowered by infomeasure._plan_points, the one
evaluator of pair points, to their distinct free-space responses, line
integrals (those of C, and the image line of each mirror P) and mirror
transition probabilities, and run in two batch stages and one row pass.
First the free-space responses and then the line integrals refine in
lockstep, in the quadrature's bounded runs, serially or as jobs on a
process pool, each member on a mesh of its own, so no value depends on
its batch. Then infomeasure._point_terms makes each row's terms in order
in the calling process, each mirror P the first time a row needs it,
and mutual_information_point assembles the row. Output order is fixed
by (curve, axis index) so files are byte-identical whatever the worker
count. A failing point keeps its row with a fail status instead of
aborting the run; otherwise its status is tagged from its values. The
oracle suite maps its points on the same serial-or-pool helper, one
process pool per call.

Config files are JSON; the presets/ directory ships one per figure-style
sweep plus the oracle cross-check grids. The process pool is udwmi's
only parallelism: a sweep runs serially unless given workers, the
oracle suite defaults to the CPUs this process may use, at most 8, and
no environment variable changes either.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import operator
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .correlation import (PairConfig, _reduced_line_integrals,
                          correlation_equal, correlation_general_result)
from .infomeasure import (PairPointResult, PerturbativeRegimeWarning,
                          PointTerms, _beyond_budget, _plan_points,
                          _point_terms, mutual_information_point)
from .kinematics import (DomainError, _require_tol,
                         detector_from_accel_radius)
from .response import (_free_responses, transition_probability,
                       transition_probability_oracle_result)

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
    # a real number: not a bool, nor a string that float() would parse
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a number, got {value!r}")
    value = float(value)
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
        if isinstance(self.points, bool) or not isinstance(
                self.points, numbers.Integral):
            raise DomainError(f"axis points must be an integer, "
                              f"got {self.points!r}")
        object.__setattr__(self, "points", int(self.points))
        if self.points < 2:
            raise DomainError(f"axis needs at least 2 points, got {self.points}")
        if self.spacing == "log" and self.start <= 0.0:
            raise DomainError("log spacing needs a positive start")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


def _reject_unknown_keys(what: str, cfg: dict, known) -> None:
    """DomainError naming the keys of a config object cfg that are not
    in known: a misspelled key is an error, not a default."""
    unknown = set(cfg) - set(known)
    if unknown:
        raise DomainError(f"unknown {what} keys: {sorted(unknown)}")


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
        for name in ("gap_a", "accel", "radius", "sep", "tol"):
            object.__setattr__(self, name,
                               _require_finite(name, getattr(self, name)))
        object.__setattr__(self, "tol", _require_tol(self.tol))
        if self.accel < 0.0:
            raise DomainError(f"accel must be >= 0, got {self.accel}")
        if self.radius <= 0.0:
            raise DomainError(f"radius must be > 0, got {self.radius}")
        if self.sep < 0.0:
            raise DomainError(f"sep must be >= 0, got {self.sep}")
        if not isinstance(self.gap_ratios, (list, tuple)):
            raise DomainError(f"gap_ratios must be a list, "
                              f"got {self.gap_ratios!r}")
        ratios = tuple(_require_finite("gap_ratio", r) for r in self.gap_ratios)
        if not ratios:
            raise DomainError("gap_ratios must be nonempty")
        object.__setattr__(self, "gap_ratios", ratios)
        if not isinstance(self.free_space, bool):
            raise DomainError(f"free_space must be true or false, "
                              f"got {self.free_space!r}")
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
        _reject_unknown_keys("sweep config", cfg,
                             {f.name for f in fields(cls)} | {"description"})
        axis_cfg = cfg.get("axis")
        if not isinstance(axis_cfg, dict):
            raise DomainError("sweep config needs an 'axis' object")
        _reject_unknown_keys("axis", axis_cfg,
                             {f.name for f in fields(SweepAxis)})
        missing = [f.name for f in fields(SweepAxis)
                   if f.default is MISSING and f.name not in axis_cfg]
        if missing:
            raise DomainError(f"axis config missing key {missing[0]!r}")
        kwargs = {k: v for k, v in cfg.items()
                  if k not in ("axis", "description")}
        return cls(axis=SweepAxis(**axis_cfg), **kwargs)

    def point_params(self) -> list[dict]:
        """Resolved per-point parameter records in output order
        (curve-major, axis-minor)."""
        fixed = {"gap_a": self.gap_a, "gap_b": None, "accel": self.accel,
                 "radius": self.radius, "sep": self.sep, "dz": self.dz}
        key = "gap_a" if self.axis.name == "gap" else self.axis.name
        values = self.axis.values().tolist()
        out = []
        for ratio in self.gap_ratios:
            for v in values:
                p = {**fixed, key: v}
                p["gap_b"] = p["gap_a"] * (1.0 + ratio)
                p["free_space"] = p["dz"] is None
                out.append(p)
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


def _evaluate_batch(batch, keys: list[tuple]) -> list:
    """The value, or the exception it failed with, of each key of a
    batch function (_free_responses or _reduced_line_integrals), from
    one lockstep batch. A batch that raises as a whole is run again one
    key at a time, so that a key's failure does not depend on the batch
    it shared."""
    try:
        return batch(keys)
    except Exception as exc:  # per-point isolation is the contract
        if len(keys) == 1:
            return [exc]
    return [res for key in keys for res in _evaluate_batch(batch, [key])]


def _batch_jobs(batch, keys: list, workers: int) -> list[tuple]:
    """(batch, keys) arguments of _evaluate_batch: all keys as one job,
    or on a pool of workers jobs of about a quarter of a worker's
    share. quadrature.integrate_adaptive_batch bounds the lockstep runs
    a job takes."""
    size = max(len(keys) if workers == 1 else len(keys) // (4 * workers), 1)
    return [(batch, keys[c:c + size]) for c in range(0, len(keys), size)]


def _row_status(terms: tuple) -> tuple[str, PairPointResult | None]:
    """Status and point of one row from its terms (P_A, P_B, C) in
    evaluation order, each a value or the exception it failed with.

    The first failure, of a term or of the assembly, decides a fail
    status. Otherwise the point's values give the warn tags: perturbative
    when P_A + P_B is beyond the perturbative budget, tolerance when a
    term missed its tolerance."""
    fail = next((term for term in terms if isinstance(term, Exception)), None)
    if fail is None:
        try:
            pt = mutual_information_point(PointTerms(*terms))
        except Exception as exc:  # per-point isolation is the contract
            fail = exc
    if fail is not None:
        return _fail_status(fail), None
    tags = [tag for tag, on in (("perturbative", _beyond_budget(pt.p_a, pt.p_b)),
                                ("tolerance", not pt.converged)) if on]
    return ("warn:" + ";".join(tags) if tags else "ok"), pt


def _resolve_workers(requested: int | None) -> int:
    """requested, an integral number >= 1 and not a bool, or the CPUs
    this process may use (so a cpuset or taskset limit holds), at most
    8."""
    if requested is not None:
        if isinstance(requested, bool) or not isinstance(
                requested, numbers.Integral) or requested < 1:
            raise DomainError(f"workers must be an integer >= 1, "
                              f"got {requested!r}")
        return int(requested)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, 8)


def _map(fn, calls: list[tuple], workers: int) -> list:
    """fn(*args) of each args tuple, in order: serially, or on one
    process pool of workers. The one place sweeps and the oracle suite
    meet the pool."""
    if workers == 1 or len(calls) <= 1:
        return [fn(*args) for args in calls]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*calls)))


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate every sweep point; deterministic row order (curve-major,
    axis-minor) independent of worker count.

    The pairs are lowered by infomeasure._plan_points, so each distinct
    free-space response, line integral and mirror transition probability
    of the sweep is evaluated once. The free-space responses and then
    the line integrals run first, as lockstep batches, serially as one
    job each or on a pool of workers as several (_batch_jobs).
    infomeasure._point_terms then makes the rows' terms in order in
    this process, each mirror P the first time a row needs it, and each
    row is assembled by
    mutual_information_point with its PerturbativeRegimeWarning
    silenced: its status carries the perturbative tag instead."""
    workers = _resolve_workers(workers)
    detector = functools.cache(detector_from_accel_radius)
    params = spec.point_params()
    pairs = []
    for p in params:
        try:
            pairs.append(_pair_from_params(p, detector))
        except Exception as exc:  # per-point isolation is the contract
            pairs.append(exc)
    plans, free_keys, line_keys, responses = _plan_points(
        [pair for pair in pairs if not isinstance(pair, Exception)], spec.tol)
    jobs = (_batch_jobs(_free_responses, free_keys, workers)
            + _batch_jobs(_reduced_line_integrals, line_keys, workers))
    done = [res for job in _map(_evaluate_batch, jobs, workers)
            for res in job]
    points = _point_terms(plans, responses, done[:len(free_keys)],
                          done[len(free_keys):], spec.tol)

    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        for p, pair in zip(params, pairs):
            status, pt = ((_fail_status(pair), None)
                          if isinstance(pair, Exception)
                          else _row_status(next(points)))
            outputs = (dict.fromkeys(_OUTPUT_COLUMNS, math.nan) if pt is None
                       else point_record(pt))
            rows.append(_row_from_record({**p, **outputs, "status": status}))
    return rows


def _fmt(x) -> str:
    return f"{x:.12g}"


def _csv_number(value) -> str:
    return "" if value is None else f"{value:.12g}"  # _fmt's form


# a row's CSV cells: its field values in column order, and the formatter
# of each column
_ROW_VALUES = operator.attrgetter(*(name for name, _ in _FIELD_COLUMNS))
_CSV_FORMATS = tuple(
    {"status": lambda v: v,
     "free_space": lambda v: "true" if v else "false"}.get(col, _csv_number)
    for _, col in _FIELD_COLUMNS)


def _json_value(key: str, value):
    if key in ("status", "free_space") or value is None:
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
        writer.writerows([fmt(v) for fmt, v in zip(_CSV_FORMATS,
                                                   _ROW_VALUES(row))]
                         for row in rows)
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
    checked: no keys but name, description, rel_tol and the two point
    lists; a positive finite rel_tol (default 1e-3); and point lists of
    objects with the keys their section needs and no others but dz, each
    a finite number (dz too, unless absent or None)."""
    grid = _load_json_source(source, "oracle grid")
    if not isinstance(grid, dict):
        raise DomainError("oracle grid must be a JSON object")
    _reject_unknown_keys("oracle grid", grid, (
        "name", "description", "rel_tol", "response_points",
        "correlation_points"))
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
        checked = []
        for p in points:
            _reject_unknown_keys(f"{section} point", p, (*keys, "dz"))
            missing = [k for k in keys if k not in p]
            if missing:
                raise DomainError(f"{section} point {p} lacks keys {missing}")
            numbers = [k for k in (*keys, "dz") if p.get(k) is not None]
            checked.append({**p, **{k: _require_finite(k, p[k])
                                    for k in numbers}})
        grid[section] = checked
    if not (grid["response_points"] or grid["correlation_points"]):
        raise DomainError("oracle grid has no points")
    return grid


def _pair_from_params(p: dict,
                      detector=detector_from_accel_radius) -> PairConfig:
    det_a = detector(p["gap_a"], p["accel"], p["radius"])
    det_b = detector(p["gap_b"], p["accel"], p["radius"])
    return PairConfig(det_a=det_a, det_b=det_b, sep=p["sep"], dz=p.get("dz"))


def _suite_point(section: str, params: dict) -> dict:
    """The deviation record of one point of a grid section, "response"
    or "correlation"."""
    if section == "response":
        spec = detector_from_accel_radius(params["gap"], params["accel"],
                                          params["radius"])
        res = transition_probability(spec, params.get("dz"))
        est = transition_probability_oracle_result(spec, params.get("dz"))
        return _deviation_record(params, res.total, res.abs_error_estimate,
                                 est.value, est.error_estimate,
                                 est.evaluations)
    pair = _pair_from_params(params)
    res = correlation_equal(pair)
    est = correlation_general_result(pair)
    rec = _deviation_record(params, res.c_total, res.abs_error_estimate,
                            est.value, est.error_estimate, est.evaluations)
    rec["c_boundary"] = _json_number(res.c_boundary)
    return rec


def _json_number(z) -> float | list[float]:
    """A real number as a float, a complex one as [re, im]: the JSON
    form of a value in a report or a printed record."""
    if isinstance(z, complex):
        return [z.real, z.imag]
    return float(z)


def _deviation_record(params, value, err, oracle, oerr,
                      oracle_evaluations) -> dict:
    abs_dev = abs(value - oracle)
    rel_dev = abs_dev / max(abs(oracle), 1e-300)
    return {
        "params": dict(params),
        "value": _json_number(value),
        "oracle": _json_number(oracle),
        "abs_dev": abs_dev,
        "rel_dev": rel_dev,
        "err": err,
        "oracle_err": oerr,
        "oracle_evaluations": oracle_evaluations,
        "within_combined_err": bool(abs_dev <= err + oerr),
    }


def run_oracle_suite(grid, *, workers: int | None = None) -> dict:
    """Cross-check the fast paths against the definition-level oracles
    on a grid (a JSON path, preset name, or mapping) of points;
    pass/fail against the grid's rel_tol (default 1e-3 relative
    deviation).

    The response and then the correlation points are mapped as one list
    of calls, serially or on one process pool, like a sweep's batches.
    Unlike a sweep row, a point does not fail alone: its exception (a
    DomainError for a bad point, a RuntimeError for an oracle that did
    not converge) ends the suite, and its warnings are passed on."""
    grid = load_grid(grid)
    rel_tol = grid["rel_tol"]
    resp_points = grid["response_points"]
    calls = ([("response", p) for p in resp_points]
             + [("correlation", p) for p in grid["correlation_points"]])
    records = _map(_suite_point, calls, _resolve_workers(workers))
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
    """Number of interior local maxima whose prominence is at least
    prominence_rel times max |values|: the count of
    scipy.signal.find_peaks with that prominence. A flat top counts once,
    and never when it touches an end. A peak's prominence is its height
    above the higher of the lowest points on each side before the curve
    rises strictly above it or ends."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise DomainError("need a 1-D curve with at least 3 samples")
    if not np.all(np.isfinite(y)):
        raise DomainError("curve contains non-finite values")
    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        return 0
    # runs of equal samples; a peak is an interior run above both neighbours
    starts = np.flatnonzero(np.diff(y, prepend=np.nan))
    level = y[starts]
    tops = np.flatnonzero((level[1:-1] > level[:-2])
                          & (level[1:-1] > level[2:])) + 1
    count = 0
    for top in starts[tops]:
        higher = np.flatnonzero(y > y[top])
        k = np.searchsorted(higher, top)
        lo = higher[k - 1] + 1 if k else 0
        hi = higher[k] if k < higher.size else y.size
        base = max(y[lo:top + 1].min(), y[top:hi].min())
        count += bool(y[top] - base >= prominence_rel * scale)
    return count
