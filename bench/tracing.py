"""In-memory span tracer for the traced benchmark run.

The tracer wraps every public function of the udwmi layer modules at
every module binding that refers to it, so calls are seen whichever
module makes them (``response`` imports ``principal_value_integral`` by
name, ``sweep`` imports ``mutual_information_point`` by name, and so
on). Nothing inside ``src/`` is modified on disk; the wrappers live only
in the traced process and are removed by ``uninstall``.

Each span records its name, start, end, parent span and a point id that
all spans of one sweep row, query or oracle point share. Spans stay in
memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from pathlib import Path

LAYERS = ("kinematics", "quadrature", "response", "correlation",
          "infomeasure", "sweep", "cli")

# Spans that evaluate many points; their direct children form points.
_BATCH = frozenset({"sweep.run_sweep", "sweep.run_oracle_suite"})
# The last call of one point: the next point-level span opens a new point.
_CLOSING = frozenset({"infomeasure.mutual_information_point",
                      "response.transition_probability_oracle_result",
                      "correlation.correlation_general_result"})


def response_key(spec, dz=None, tol=1e-8):
    """Identity of one transition-probability evaluation: calls with equal
    keys compute the same value, so distinct keys / calls is the share of
    work a deduplicating planner cannot skip."""
    return (spec, None if dz is None else float(dz), float(tol))


def line_keys(pair, tol=1e-8):
    """Keys (omega, R, gamma, L_eff, k, tol) of the reduced line integrals
    one ``correlation_equal(pair, tol)`` call evaluates: the direct one
    at L_eff = sep and, with a mirror, the image one at sep + 2 dz."""
    det = pair.det_a
    k = (det.energy_gap + pair.det_b.energy_gap) / (2.0 * det.gamma)
    base = (det.omega, det.radius, det.gamma)
    keys = [base + (float(pair.sep), k, float(tol))]
    if pair.dz is not None:
        keys.append(base + (float(pair.sep + 2.0 * pair.dz), k, float(tol)))
    return keys


def self_times(starts, ends, parents):
    """Duration of each span minus the time covered by its child spans.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never counts an instant twice and
    never goes below zero."""
    children = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda c: starts[c]):
            lo, hi = max(starts[c], s), min(ends[c], e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(e - s - covered, 0.0))
    return out


class Tracer:
    """Records spans around the public functions of the udwmi layers."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.points: list[int] = []
        self.errors: list[str | None] = []
        self.counts: dict[str, float] = {}
        self.keys: dict[str, list] = {"response": [], "line": []}
        self._stack: list[int] = []
        self._next_point = 0
        self._point_open = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0 and self.names[parent] not in _BATCH:
            point = self.points[parent]
        elif name.startswith("sweep."):
            # batch calls, table output and loaders belong to no point
            point = -1
            self._point_open = False
        else:
            if not self._point_open:
                self._next_point += 1
                self._point_open = True
            point = self._next_point
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.points.append(point)
        self.errors.append(None)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int, error: str | None = None) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self.errors[idx] = error
        parent = self.parents[idx]
        # a top-level call (one query) is a whole point; under a batch
        # span the point ends with its closing call
        if parent < 0 or (self.names[parent] in _BATCH
                          and self.names[idx] in _CLOSING):
            self._point_open = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        sig = None if observe in (None, _observe_adaptive) else inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, type(exc).__name__)
                raise
            tracer._close(idx)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer, bound.arguments, result)
            elif observe is not None:
                observe(tracer, None, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of each layer module at every
        binding in the package that refers to it."""
        import importlib
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS]
        originals = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            public = getattr(mod, "__all__", None) or [
                a for a in vars(mod) if not a.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, f"{layer}.{attr}")
        wrappers = {key: self._wrap(name, fn)
                    for key, (fn, name) in originals.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"names": self.names, "start": self.starts,
                   "end": self.ends, "parent": self.parents,
                   "point": self.points, "error": self.errors}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (value, unit) from the recorded spans."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, st in zip(self.names, selfs):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + st

        def n(*names):
            return sum(calls.get(x, 0) for x in names)

        def t(*names):
            return sum(self_s.get(x, 0.0) for x in names)

        def total(name):
            # inclusive wall time of the outermost calls of name
            return sum(e - st for nm, st, e, p in zip(self.names, self.starts,
                                                       self.ends, self.parents)
                       if nm == name and (p < 0 or self.names[p] != name))

        def c(key):
            return self.counts.get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        adaptive = n("quadrature.integrate_adaptive")
        lines = c("correlation.line_integrals")
        resp_calls = n("response.transition_probability")
        mi_errors = sum(1 for name, err in zip(self.names, self.errors)
                        if name == "infomeasure.mutual_information_point"
                        and err == "DomainError")
        m = {
            "quadrature.adaptive_calls": (adaptive, "count"),
            "quadrature.adaptive_evals": (c("quadrature.adaptive_evals"), "count"),
            "quadrature.adaptive_self_s": (t("quadrature.integrate_adaptive"), "s"),
            "quadrature.adaptive_unconverged": (c("quadrature.adaptive_unconverged"), "count"),
            "quadrature.evals_per_call": (ratio(c("quadrature.adaptive_evals"), adaptive), "evals/call"),
            "quadrature.pv_calls": (n("quadrature.principal_value_integral"), "count"),
            "quadrature.pv_self_s": (t("quadrature.principal_value_integral"), "s"),
            "quadrature.line_pole_calls": (n("quadrature.real_line_pole_integral"), "count"),
            "quadrature.line_pole_self_s": (t("quadrature.real_line_pole_integral"), "s"),
            "quadrature.pole_scan_calls": (n("quadrature.poles_of_denominator"), "count"),
            "quadrature.pole_scan_self_s": (t("quadrature.poles_of_denominator"), "s"),
            "quadrature.extrapolate_calls": (n("quadrature.epsilon_extrapolate"), "count"),
            "response.calls_mirror": (c("response.calls_mirror"), "count"),
            "response.calls_free": (resp_calls - c("response.calls_mirror"), "count"),
            "response.self_s": (t("response.transition_probability",
                                  "response.transition_probability_free",
                                  "response.image_pole_location",
                                  "response.inertial_response"), "s"),
            "response.total_s": (total("response.transition_probability"), "s"),
            "response.far_pole_ratio": (ratio(c("response.noted"), resp_calls), "ratio"),
            "response.distinct_ratio": (ratio(len(set(self.keys["response"])),
                                              len(self.keys["response"])), "ratio"),
            "response.oracle_calls": (n("response.transition_probability_oracle_result"), "count"),
            "response.oracle_self_s": (t("response.transition_probability_oracle_result",
                                         "response.transition_probability_oracle"), "s"),
            "correlation.equal_calls": (n("correlation.correlation_equal"), "count"),
            "correlation.equal_self_s": (t("correlation.correlation_equal"), "s"),
            "correlation.equal_total_s": (total("correlation.correlation_equal"), "s"),
            "correlation.line_integrals": (lines, "count"),
            "correlation.shortcut_ratio": (1.0 - ratio(n("quadrature.real_line_pole_integral"), lines)
                                           if lines else 0.0, "ratio"),
            "correlation.distinct_line_ratio": (ratio(len(set(self.keys["line"])), lines), "ratio"),
            "correlation.unconverged": (c("correlation.unconverged"), "count"),
            "correlation.oracle_calls": (n("correlation.correlation_general_result"), "count"),
            "correlation.oracle_self_s": (t("correlation.correlation_general_result",
                                            "correlation.correlation_general",
                                            "correlation.wightman_free",
                                            "correlation.wightman_boundary"), "s"),
            "kinematics.trajectory_calls": (n("kinematics.trajectory_point"), "count"),
            "kinematics.trajectory_self_s": (t("kinematics.trajectory_point"), "s"),
            "infomeasure.point_calls": (n("infomeasure.mutual_information_point"), "count"),
            "infomeasure.point_self_s": (t("infomeasure.mutual_information_point"), "s"),
            "infomeasure.domain_errors": (mi_errors, "count"),
            "sweep.rows": (c("sweep.rows"), "count"),
            "sweep.fail_rows": (c("sweep.fail_rows"), "count"),
            "sweep.run_self_s": (t("sweep.run_sweep"), "s"),
            "sweep.emit_self_s": (t("sweep.emit_table"), "s"),
            "sweep.emit_bytes": (c("sweep.emit_bytes"), "bytes"),
            "sweep.suite_self_s": (t("sweep.run_oracle_suite"), "s"),
            "sweep.workers": (c("sweep.workers"), "count"),
            "cli.calls": (n("cli.main"), "count"),
            "cli.self_s": (t("cli.main"), "s"),
            "cli.nonzero_exits": (c("cli.nonzero_exits"), "count"),
            "trace.spans": (len(self.names), "count"),
            "trace.points": (self._next_point, "count"),
            "trace.wall_s": (wall_s, "s"),
        }
        return m


# -- observers: what a call's arguments and result add to the counts ------

def _observe_adaptive(tr, args, res):
    tr.count("quadrature.adaptive_evals", res.evaluations)
    if not res.converged:
        tr.count("quadrature.adaptive_unconverged")


def _observe_response(tr, args, res):
    tr.keys["response"].append(response_key(args["spec"], args["dz"], args["tol"]))
    if args["dz"] is not None:
        tr.count("response.calls_mirror")
    if res.notes:
        tr.count("response.noted")


def _observe_correlation(tr, args, res):
    keys = line_keys(args["pair"], args["tol"])
    tr.keys["line"].extend(keys)
    tr.count("correlation.line_integrals", len(keys))
    if not res.converged:
        tr.count("correlation.unconverged")


def _observe_sweep(tr, args, rows):
    tr.count("sweep.rows", len(rows))
    tr.count("sweep.fail_rows", sum(r.status.startswith("fail") for r in rows))
    tr.counts["sweep.workers"] = max(tr.counts.get("sweep.workers", 0),
                                     args["workers"] or 0)


def _observe_suite(tr, args, report):
    tr.counts["sweep.workers"] = max(tr.counts.get("sweep.workers", 0),
                                     args["workers"] or 0)


def _observe_emit(tr, args, result):
    dest = args["destination"]
    if hasattr(dest, "getvalue"):
        tr.count("sweep.emit_bytes", len(dest.getvalue().encode()))


def _observe_cli(tr, args, code):
    if code != 0:
        tr.count("cli.nonzero_exits")


_OBSERVERS = {
    "quadrature.integrate_adaptive": _observe_adaptive,
    "response.transition_probability": _observe_response,
    "correlation.correlation_equal": _observe_correlation,
    "sweep.run_sweep": _observe_sweep,
    "sweep.run_oracle_suite": _observe_suite,
    "sweep.emit_table": _observe_emit,
    "cli.main": _observe_cli,
}
