"""Parameter sweeps, deterministic tables, and the oracle cross-check suite.

A sweep is one axis (separation, boundary distance, acceleration, or
energy gap) swept over a fixed background of the remaining parameters,
once per gap-detuning ratio. Rows share sub-results: P_A repeats along
a separation axis, the direct correlation part along a boundary-distance
axis, and a detector's free-space response at every height it sits at.
So a sweep's pairs are lowered by one infomeasure._Plan, the one
lowering of pair points, to their distinct free-space responses, line
integrals (those of C, and the image line of each mirror P) and mirror
transition probabilities, and run in one batch stage and one row pass.
The free-space responses and the line integrals refine in lockstep as
the members of one batch (response._reduced_batch), in the
quadrature's bounded runs, serially or as jobs on a process pool, each
member on a mesh of its own, so no value depends on its batch. Then
the plan's results give each row's terms in order in the calling
process, each mirror P made the first time a row needs it,
mutual_information_point assembles the row's point, and the row is
built positionally from its point params and the point's outputs.
emit_table writes the cells of a row but its status with one %-format
of the row. Output order is fixed by (curve, axis index) so files are
byte-identical whatever the worker count. A failing point keeps its
row with a fail status instead of aborting the run; otherwise its
status is tagged from its values. The oracle suite lowers its points
by the same plan, to free-space, line and oracle keys: the first two
as one reduced batch, and the oracles, both contour passes of each a
member of one quadrature, as a batch of their own, on the same runner,
one process pool per call. Each point's P or C is then made as
transition_probability and correlation_equal make it alone.

Config files are JSON; the presets/ directory ships one per figure-style
sweep plus the oracle cross-check grids. The process pool is udwmi's
only parallelism: a sweep and the oracle suite run serially unless
given an integer count of workers, and no environment variable changes
that.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import warnings
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .correlation import PairConfig, _pair_oracle_key
from .infomeasure import (PairPointResult, PerturbativeRegimeWarning,
                          PointTerms, _beyond_budget, _Plan,
                          mutual_information_point)
from .kinematics import (DomainError, _require_dz, _require_finite,
                         _require_integer, _require_orbit, _require_positive,
                         _require_sep, _require_tol,
                         detector_from_accel_radius)
from .quadrature import _checked
from .response import _real_estimate, _response_oracle_key

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
        object.__setattr__(self, "points",
                           _require_integer("axis points", self.points))
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
        accel, radius = _require_orbit(self.accel, self.radius)
        for name, value in (("gap_a", _require_finite("gap_a", self.gap_a)),
                            ("accel", accel), ("radius", radius),
                            ("sep", _require_sep(self.sep)),
                            ("dz", _require_dz(self.dz)),
                            ("tol", _require_tol(self.tol))):
            object.__setattr__(self, name, value)
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
# a row's fields: the point params (gap_a through free_space), the
# outputs of its point (P_A through err) and its status
_POINT_PARAMS = operator.itemgetter(*COLUMNS[:7])
_OUTPUT_COLUMNS = COLUMNS[7:21]
_NO_OUTPUTS = (math.nan,) * len(_OUTPUT_COLUMNS)


def _point_outputs(pt: PairPointResult) -> tuple:
    """The output cells (P_A through err) of one evaluated pair point."""
    c = pt.corr
    return (pt.p_a, pt.p_b, c.c_total.real, c.c_total.imag, abs(c.c_total),
            c.c_free.real, c.c_free.imag, c.c_boundary.real,
            c.c_boundary.imag, pt.l_plus, pt.l_minus, pt.mutual_info,
            pt.positivity_slack, pt.abs_error_estimate)


def point_record(pt: PairPointResult) -> dict:
    """The output columns (P_A through err) of one evaluated pair point:
    its cells in a sweep table and the record `udwmi mi` prints."""
    return dict(zip(_OUTPUT_COLUMNS, _point_outputs(pt), strict=True))


def _one_line(text: str, limit: int = 200) -> str:
    flat = " ".join(str(text).split())
    return flat[:limit]


def _fail_status(exc: Exception) -> str:
    return f"fail:{type(exc).__name__}:{_one_line(exc)}"


def _row_status(terms: tuple) -> tuple[str, PairPointResult | None]:
    """Status and point of one row from its terms (P_A, P_B, C) in
    evaluation order, each a value or the exception it failed with.

    The first failure, of a term or of the assembly, decides a fail
    status. Otherwise the point's values give the warn tags: perturbative
    when P_A + P_B is beyond the perturbative budget, tolerance when a
    term missed its tolerance."""
    for term in terms:
        if isinstance(term, Exception):
            return _fail_status(term), None
    try:
        pt = mutual_information_point(PointTerms(*terms))
    except Exception as exc:  # per-point isolation is the contract
        return _fail_status(exc), None
    tags = [tag for tag, on in (("perturbative", _beyond_budget(pt.p_a, pt.p_b)),
                                ("tolerance", not pt.converged)) if on]
    return ("warn:" + ";".join(tags) if tags else "ok"), pt


def _resolve_workers(requested: int) -> int:
    """requested, an integral number >= 1 and not a bool."""
    return _require_integer("workers", requested, "an integer >= 1",
                            lambda n: n >= 1)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate every sweep point; deterministic row order (curve-major,
    axis-minor) independent of worker count.

    The pairs are lowered by one infomeasure._Plan, so each distinct
    free-space response, line integral and mirror transition probability
    of the sweep is evaluated once, and its batch runs serially as one
    job or on a pool of workers as several (_Plan.evaluate). The rows'
    terms are then made in order in this process, each mirror P the
    first time a row needs it, and each row's point is assembled by
    mutual_information_point with its PerturbativeRegimeWarning
    silenced: its status carries the perturbative tag instead. A row is
    built positionally from its point params and its point's
    outputs."""
    workers = _resolve_workers(workers)
    detector = functools.cache(detector_from_accel_radius)
    params = spec.point_params()
    plan = _Plan(spec.tol)
    points = []
    for p in params:
        try:
            points.append(plan.point(_pair_from_params(p, detector)))
        except Exception as exc:  # per-point isolation is the contract
            points.append(exc)
    terms = plan.evaluate(workers)

    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        for p, point in zip(params, points):
            status, pt = ((_fail_status(point), None)
                          if isinstance(point, Exception)
                          else _row_status(terms.point(point)))
            rows.append(SweepRow(*_POINT_PARAMS(p), *(
                _NO_OUTPUTS if pt is None else _point_outputs(pt)), status))
    return rows


@functools.cache
def _row_format(no_dz: bool, free_space: bool) -> str:
    """The %-format of the cells of a row but its status, by field name,
    from SweepRow's field types: each number to 12 significant digits
    (%.12g; NaN and inf as 'nan' and 'inf'), the flag true or false as
    free_space is, and dz empty when no_dz (it is None)."""
    cells = []
    for f in fields(SweepRow)[:-1]:
        if f.type == "bool":
            cells.append("true" if free_space else "false")
        elif f.type == "float | None" and no_dz:
            cells.append("")
        else:
            cells.append(f"%({f.name}).12g")
    return ",".join(cells)


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it in a row of several cells: quoted
    when it holds a delimiter, a double quote or a line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow((text, ""))
    return buf.getvalue()[:-1]


def _json_cell(text: str) -> float | None:
    """The JSON value of a number's cell: null when it is empty or not
    finite."""
    return None if text in ("", "nan", "inf", "-inf") else float(text)


# the JSON value of each cell of a row, by its field's type
_JSON_VALUES = tuple({"str": str, "bool": "true".__eq__}.get(f.type,
                                                             _json_cell)
                     for f in fields(SweepRow))


def emit_table(rows: list[SweepRow], fmt: str, destination) -> None:
    """Write rows as CSV or JSON to a path or text stream.

    Numbers carry 12 significant digits in both formats; a NaN output of
    a failed point becomes null in JSON and 'nan' in CSV. The cells of a
    row but its status come from one %-format of the row (_row_format);
    CSV takes them as they are, with its status cells quoted by
    csv.writer, and JSON reads its values from the same cells."""
    if not rows:
        raise DomainError("no rows to emit")
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {fmt!r}")

    cells = [(_row_format(row.dz is None, row.free_space) % vars(row),
              row.status) for row in rows]
    if fmt == "csv":
        quoted = functools.cache(_csv_cell)
        text = "".join([",".join(map(quoted, COLUMNS)), "\n",
                        *(f"{head},{quoted(status)}\n"
                          for head, status in cells)])
    else:
        text = json.dumps([
            {col: value(cell) for col, value, cell in zip(
                COLUMNS, _JSON_VALUES, (*head.split(","), status))}
            for head, status in cells], indent=2) + "\n"

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
    """Load a JSON config from a path or a packaged preset name; a file
    not UTF-8 JSON, or nested too deep to parse, is a DomainError."""
    if isinstance(source, dict):
        return source
    p = Path(source)
    if p.exists():
        try:
            return json.loads(p.read_bytes())
        except (ValueError, RecursionError) as exc:
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
    grid["rel_tol"] = _require_positive("rel_tol", grid.get("rel_tol", 1e-3))
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
            p = {**p, **{k: _require_finite(k, p[k])
                         for k in keys if k.startswith("gap")}}
            p["accel"], p["radius"] = _require_orbit(p["accel"], p["radius"])
            if "sep" in p:
                p["sep"] = _require_sep(p["sep"])
            if "dz" in p:
                p["dz"] = _require_dz(p["dz"])
            checked.append(p)
        grid[section] = checked
    if not (grid["response_points"] or grid["correlation_points"]):
        raise DomainError("oracle grid has no points")
    return grid


def _pair_from_params(p: dict,
                      detector=detector_from_accel_radius) -> PairConfig:
    det_a = detector(p["gap_a"], p["accel"], p["radius"])
    det_b = detector(p["gap_b"], p["accel"], p["radius"])
    return PairConfig(det_a=det_a, det_b=det_b, sep=p["sep"], dz=p.get("dz"))


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


# the tolerances of a suite point: its reduced P and C, and the oracles
# of P and of C (the defaults of transition_probability, correlation_equal,
# transition_probability_oracle_result and correlation_general_result)
_SUITE_TOL, _P_ORACLE_TOL, _C_ORACLE_TOL = 1e-8, 1e-6, 1e-7


def run_oracle_suite(grid, *, workers: int = 1) -> dict:
    """Cross-check the fast paths against the definition-level oracles
    on a grid (a JSON path, preset name, or mapping) of points;
    pass/fail against the grid's rel_tol (default 1e-3 relative
    deviation).

    The response and then the correlation points are lowered by one
    infomeasure._Plan, as a sweep's pairs are, to the keys of two
    lockstep batches: their free-space responses and their line
    integrals (the image lines of each mirror P and the lines of C) as
    one reduced batch, and their oracles, both contour passes of each a
    member of one quadrature, as a batch of their own. These run
    serially as one job, or on a pool of workers as several
    (_Plan.evaluate), to the same report at any worker count, since
    each member equals its batch of one; each P and C is then made as
    transition_probability and correlation_equal make them alone.
    Unlike a sweep row, a point does not fail alone: the first failure
    in suite order (a DomainError for a bad point, a RuntimeError for
    an oracle that did not converge) ends the suite, and its warnings
    are passed on."""
    grid = load_grid(grid)
    workers = _resolve_workers(workers)
    rel_tol = grid["rel_tol"]
    resp_points = grid["response_points"]
    points = ([("response", p) for p in resp_points]
              + [("correlation", p) for p in grid["correlation_points"]])
    plan = _Plan(_SUITE_TOL)
    lowered = []
    for section, p in points:
        try:
            if section == "response":
                spec = detector_from_accel_radius(p["gap"], p["accel"],
                                                  p["radius"])
                dz = p.get("dz")
                lowered.append((plan.response(spec, dz), plan.oracle(
                    _response_oracle_key(spec, dz, _P_ORACLE_TOL))))
            else:
                pair = _pair_from_params(p)
                lowered.append((plan.correlation(pair), plan.oracle(
                    _pair_oracle_key(pair, _C_ORACLE_TOL))))
        except Exception as exc:  # raised in suite order, below
            lowered.append(exc)
    terms = plan.evaluate(workers)

    records = []
    for (section, params), point in zip(points, lowered):
        term, oracle = _checked(point)
        if section == "response":
            res = _checked(terms.response(term))
            est = _real_estimate(_checked(terms.oracle(oracle)))
            records.append(_deviation_record(
                params, res.total, res.abs_error_estimate, est.value,
                est.error_estimate, est.evaluations))
            continue
        res = _checked(terms.correlation(term))
        est = _checked(terms.oracle(oracle))
        rec = _deviation_record(params, res.c_total, res.abs_error_estimate,
                                est.value, est.error_estimate,
                                est.evaluations)
        rec["c_boundary"] = _json_number(res.c_boundary)
        records.append(rec)
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
