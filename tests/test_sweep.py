"""Sweep configs, the sweep planner, deterministic tables, oracle suite,
peak counting."""
import ast
import dataclasses
import io
import json
import math
import multiprocessing
import os
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import udwmi
from udwmi import cli, correlation, infomeasure, response
from udwmi.correlation import (LineIntegral, PairConfig,
                               _correlation_from_lines, _line_batch,
                               _line_integral_args, correlation_equal)
from udwmi.infomeasure import (PerturbativeRegimeWarning, PointTerms,
                               mutual_information_point)
from udwmi.kinematics import DomainError, detector_from_accel_radius
from udwmi.response import (_image_line_args, _reduced_batch,
                            transition_probability)
from udwmi.sweep import (_OUTPUT_COLUMNS, AXIS_NAMES, COLUMNS, SweepAxis,
                         SweepRow, SweepSpec, _deviation_record, _json_number,
                         count_interior_maxima, emit_table, load_config,
                         load_grid, point_record, run_oracle_suite, run_sweep)

CHEAP = dict(gap_a=0.5, accel=0.1, radius=1.0, dz=0.5)
# every status a row can have but a fail:<exception>:<detail> one
STATUSES = ("ok", "warn:perturbative", "warn:tolerance",
            "warn:perturbative;tolerance")


def cheap_spec(**overrides):
    cfg = dict(CHEAP)
    cfg.update(overrides)
    axis = cfg.pop("axis", SweepAxis(name="sep", start=0.5, stop=2.0, points=4))
    return SweepSpec(axis=axis, **cfg)


class TestAxis:
    def test_axis_names_are_closed(self):
        assert AXIS_NAMES == ("sep", "dz", "accel", "gap")
        with pytest.raises(DomainError):
            SweepAxis(name="omega", start=0.1, stop=1.0, points=3)

    def test_linear_values(self):
        axis = SweepAxis(name="sep", start=0.1, stop=8.0, points=60)
        np.testing.assert_array_equal(axis.values(),
                                      np.linspace(0.1, 8.0, 60))

    def test_log_values(self):
        axis = SweepAxis(name="gap", start=0.02, stop=4.0, points=10,
                         spacing="log")
        np.testing.assert_array_equal(axis.values(),
                                      np.geomspace(0.02, 4.0, 10))

    def test_validation(self):
        with pytest.raises(DomainError):
            SweepAxis(name="sep", start=1.0, stop=1.0, points=3)
        with pytest.raises(DomainError):
            SweepAxis(name="sep", start=2.0, stop=1.0, points=3)
        with pytest.raises(DomainError):
            SweepAxis(name="sep", start=0.1, stop=1.0, points=1)
        with pytest.raises(DomainError):
            SweepAxis(name="sep", start=0.1, stop=1.0, points=3.0)
        with pytest.raises(DomainError):
            SweepAxis(name="sep", start=math.nan, stop=1.0, points=3)
        with pytest.raises(DomainError):
            SweepAxis(name="sep", start=0.1, stop=1.0, points=3,
                      spacing="quadratic")
        with pytest.raises(DomainError):
            SweepAxis(name="dz", start=0.0, stop=1.0, points=3, spacing="log")


class TestSpec:
    def test_dz_required_without_free_space(self):
        axis = SweepAxis(name="sep", start=0.5, stop=2.0, points=3)
        with pytest.raises(DomainError, match="dz is required"):
            SweepSpec(axis=axis)

    def test_dz_not_required_when_swept_or_free(self):
        dz_axis = SweepAxis(name="dz", start=0.5, stop=2.0, points=3)
        SweepSpec(axis=dz_axis)
        sep_axis = SweepAxis(name="sep", start=0.5, stop=2.0, points=3)
        SweepSpec(axis=sep_axis, free_space=True)

    def test_free_space_dz_axis_rejected(self):
        axis = SweepAxis(name="dz", start=0.5, stop=2.0, points=3)
        with pytest.raises(DomainError):
            SweepSpec(axis=axis, free_space=True)

    def test_free_space_with_dz_rejected(self):
        axis = SweepAxis(name="sep", start=0.5, stop=2.0, points=3)
        with pytest.raises(DomainError, match="free space"):
            SweepSpec(axis=axis, free_space=True, dz=0.1)
        with pytest.raises(DomainError, match="free space"):
            SweepSpec.from_mapping({
                "axis": {"name": "sep", "start": 0.5, "stop": 2.0,
                         "points": 3},
                "free_space": True, "dz": 0.1})

    def test_parameter_validation(self):
        axis = SweepAxis(name="sep", start=0.5, stop=2.0, points=3)
        with pytest.raises(DomainError):
            SweepSpec(axis=axis, dz=0.0)
        with pytest.raises(DomainError):
            SweepSpec(axis=axis, dz=0.5, accel=-1.0)
        with pytest.raises(DomainError):
            SweepSpec(axis=axis, dz=0.5, radius=0.0)
        with pytest.raises(DomainError):
            SweepSpec(axis=axis, dz=0.5, sep=-0.1)
        with pytest.raises(DomainError):
            SweepSpec(axis=axis, dz=0.5, tol=0.0)
        with pytest.raises(DomainError, match="smallest normal float"):
            SweepSpec(axis=axis, dz=0.5, tol=1e-323)
        with pytest.raises(DomainError):
            SweepSpec(axis=axis, dz=0.5, gap_ratios=())

    def test_from_mapping_round_trip(self):
        cfg = {
            "name": "tiny",
            "description": "ignored free text",
            "axis": {"name": "sep", "start": 0.5, "stop": 2.0, "points": 4},
            "gap_a": 0.5,
            "gap_ratios": [0.0, 0.5],
            "accel": 0.1,
            "radius": 1.0,
            "dz": 0.5,
        }
        spec = SweepSpec.from_mapping(cfg)
        assert spec.name == "tiny"
        assert spec.gap_ratios == (0.0, 0.5)
        assert spec.axis.points == 4
        assert spec.axis.spacing == "linear"
        assert spec.dz == 0.5
        assert not spec.free_space

    def test_from_mapping_rejects_unknown_keys(self):
        base = {"axis": {"name": "sep", "start": 0.5, "stop": 2.0,
                         "points": 4}, "dz": 0.5}
        for extra in ({"omega": 1.0}, {"oracle_check": True}):
            with pytest.raises(DomainError, match="unknown sweep config"):
                SweepSpec.from_mapping({**base, **extra})
        with pytest.raises(DomainError, match="unknown axis keys"):
            SweepSpec.from_mapping({"dz": 0.5, "axis": {
                "name": "sep", "start": 0.5, "stop": 2.0, "points": 4,
                "scale": "log"}})
        with pytest.raises(DomainError, match="missing key"):
            SweepSpec.from_mapping({"dz": 0.5, "axis": {
                "name": "sep", "start": 0.5, "points": 4}})
        with pytest.raises(DomainError):
            SweepSpec.from_mapping(["not", "a", "dict"])
        with pytest.raises(DomainError, match="needs an 'axis' object"):
            SweepSpec.from_mapping({"dz": 0.5, "axis": ["sep", 0.5, 2.0]})

    @pytest.mark.parametrize("bad", [
        # a truthy string would drop the mirror a config without dz needs
        {"free_space": "false"}, {"free_space": 0}, {"dz": 0.5, "accel": "2"},
        {"dz": 0.5, "accel": True}, {"dz": True}, {"dz": 0.5, "tol": "1e-8"},
        {"dz": 0.5, "gap_ratios": [False]},
        {"dz": 0.5, "axis": {"name": "sep", "start": "0.5", "stop": 2.0,
                             "points": 4}},
        {"dz": 0.5, "axis": {"name": "sep", "start": 0.5, "stop": 2.0,
                             "points": 60.0}},
        {"dz": 0.5, "axis": {"name": "sep", "start": 0.5, "stop": 2.0,
                             "points": True}},
    ], ids=["free_space-str", "free_space-int", "accel-str", "accel-bool",
            "dz-bool", "tol-str", "gap_ratio-bool", "axis-start-str",
            "axis-points-float", "axis-points-bool"])
    def test_from_mapping_rejects_non_numbers(self, bad):
        cfg = {"axis": {"name": "sep", "start": 0.5, "stop": 2.0,
                        "points": 4}, **bad}
        with pytest.raises(DomainError, match="must be a number|must be true "
                           "or false|axis points must be an integer"):
            SweepSpec.from_mapping(cfg)

    def test_numpy_numbers_are_numbers(self):
        spec = SweepSpec.from_mapping({
            "axis": {"name": "sep", "start": np.float32(0.5),
                     "stop": np.float64(2.0), "points": np.int64(4)},
            "dz": np.float64(0.5), "accel": np.int64(2)})
        assert (spec.axis.start, spec.dz, spec.accel) == (0.5, 0.5, 2.0)
        assert all(type(v) is float
                   for v in (spec.axis.start, spec.dz, spec.accel))
        assert type(spec.axis.points) is int and spec.axis.points == 4


class TestPointParams:
    def test_curve_major_axis_minor_order(self):
        spec = cheap_spec(gap_ratios=(0.0, 0.5))
        params = spec.point_params()
        assert len(params) == 8
        axis_vals = list(spec.axis.values())
        assert [p["sep"] for p in params] == axis_vals + axis_vals
        assert [p["gap_b"] for p in params[:4]] == [0.5] * 4
        assert [p["gap_b"] for p in params[4:]] == [0.75] * 4

    def test_gap_axis_moves_both_gaps(self):
        axis = SweepAxis(name="gap", start=0.02, stop=4.0, points=3)
        spec = cheap_spec(axis=axis, gap_ratios=(2.0,))
        params = spec.point_params()
        for p, v in zip(params, axis.values()):
            assert p["gap_a"] == v
            assert p["gap_b"] == pytest.approx(3.0 * v, rel=1e-15)

    def test_dz_axis_and_free_space_resolution(self):
        axis = SweepAxis(name="dz", start=0.5, stop=2.0, points=3)
        spec = cheap_spec(axis=axis, dz=None)
        params = spec.point_params()
        assert [p["dz"] for p in params] == list(axis.values())
        assert all(not p["free_space"] for p in params)

        free = cheap_spec(free_space=True, dz=None)
        for p in free.point_params():
            assert p["dz"] is None
            assert p["free_space"]


class TestRunSweep:
    def test_rows_align_with_params_and_pass(self):
        spec = cheap_spec(gap_ratios=(0.0, 0.5))
        rows = run_sweep(spec, workers=1)
        params = spec.point_params()
        assert len(rows) == len(params)
        for row, p in zip(rows, params):
            assert row.sep == p["sep"]
            assert row.gap_b == p["gap_b"]
            assert row.status == "ok"
            assert math.isfinite(row.mutual_info)
            assert row.mutual_info >= 0.0
            assert row.abs_c == pytest.approx(math.hypot(row.re_c, row.im_c),
                                              rel=1e-14)
            assert row.slack == pytest.approx(
                row.p_a * row.p_b - row.abs_c ** 2, abs=1e-15)
            # total is assembled from the free and image parts
            assert row.re_c == pytest.approx(row.re_c1 - row.re_c2, abs=1e-15)

    def test_detector_a_identical_across_curves(self):
        # the detuning ratio only moves detector B, so P_A must repeat
        # bit-for-bit between curves at the same axis value
        rows = run_sweep(cheap_spec(gap_ratios=(0.0, 0.5)), workers=1)
        for first, second in zip(rows[:4], rows[4:]):
            assert first.p_a == second.p_a

    def test_parallel_rows_identical_to_serial(self):
        spec = cheap_spec(gap_ratios=(0.0, 0.5))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial == parallel

    def test_free_space_rows_have_no_boundary_part(self):
        spec = cheap_spec(free_space=True, dz=None)
        rows = run_sweep(spec, workers=1)
        for row in rows:
            assert row.dz is None
            assert row.free_space
            assert row.re_c2 == 0.0 and row.im_c2 == 0.0
            assert row.re_c == row.re_c1

    def test_perturbative_regime_points_are_tagged(self):
        axis = SweepAxis(name="sep", start=0.5, stop=1.0, points=2)
        spec = SweepSpec(axis=axis, gap_a=0.1, accel=5.0, radius=0.02,
                         free_space=True)
        rows = run_sweep(spec, workers=1)
        for row in rows:
            assert row.status == "warn:perturbative"
            assert math.isfinite(row.mutual_info)

    def test_failing_point_is_isolated(self, monkeypatch):
        from udwmi import sweep as sweep_mod

        axis = SweepAxis(name="sep", start=0.5, stop=1.5, points=3)
        spec = cheap_spec(axis=axis)
        # C's direct line at L_eff = 1: only the sep = 1 row uses it
        pair = sweep_mod._pair_from_params(spec.point_params()[1])
        direct = _line_integral_args(pair, spec.tol)[1][0]
        assert direct[0] == 1.0
        forced = DomainError("forced failure for this point")

        def failing_member(free_keys, line_keys):
            frees, lines = _reduced_batch(free_keys, line_keys)
            return frees, lines._replace(failures={
                **lines.failures,
                **{i: forced for i, key in enumerate(line_keys)
                   if key == direct}})

        def failing_batch(free_keys, line_keys):
            if direct in line_keys:
                raise forced
            return _reduced_batch(free_keys, line_keys)

        clean = run_sweep(spec, workers=1)
        # the member fails in its batch, or the batch raises as a whole
        # and is run again key by key: either way one row fails
        for patch in (failing_member, failing_batch):
            monkeypatch.setattr(infomeasure, "_reduced_batch", patch)
            rows = run_sweep(spec, workers=1)
            assert [r.status.split(":")[0] for r in rows] == \
                ["ok", "fail", "ok"]
            failed = rows[1]
            assert "DomainError" in failed.status
            assert "forced failure" in failed.status
            assert math.isnan(failed.mutual_info)
            assert math.isnan(failed.p_a)
            assert (rows[0], rows[2]) == (clean[0], clean[2])

    def test_unconverged_points_are_tagged(self, monkeypatch):
        from udwmi import sweep as sweep_mod

        spec = cheap_spec()
        c_keys, image_keys = set(), set()
        for params in spec.point_params():
            pair = sweep_mod._pair_from_params(params)
            c_keys.update(_line_integral_args(pair, spec.tol)[1])
            image_keys.update(
                _image_line_args(det, dz, spec.tol)[1]
                for det, dz in ((pair.det_a, pair.dz),
                                (pair.det_b, pair.dz + pair.sep)))
        assert c_keys and image_keys and not c_keys & image_keys
        assert all(r.status == "ok" for r in run_sweep(spec, workers=1))
        # only C's lines, then only the mirror P's image lines, miss
        # their tolerance: either way every row is tagged
        for marked in (c_keys, image_keys):
            def unconverged_lines(free_keys, line_keys, marked=marked):
                frees, lines = _reduced_batch(free_keys, line_keys)
                return frees, lines._replace(
                    converged=lines.converged & np.array(
                        [key not in marked for key in line_keys], dtype=bool))

            monkeypatch.setattr(infomeasure, "_reduced_batch",
                                unconverged_lines)
            rows = run_sweep(spec, workers=1)
            assert all(r.status == "warn:tolerance" for r in rows)

    def test_unconverged_probability_is_tagged(self):
        # a real point: at tol 1e-14 the bounded response term stops at
        # its roundoff floor (P unconverged) while C converges
        det = detector_from_accel_radius(0.5, 5.0, 10.0)
        with pytest.warns(PerturbativeRegimeWarning):
            pt = mutual_information_point(PairConfig(det, det, sep=1.0),
                                          1e-14)
        assert not pt.converged and pt.corr.converged
        axis = SweepAxis(name="sep", start=1.0, stop=2.0, points=2)
        rows = run_sweep(SweepSpec(axis=axis, gap_a=0.5, accel=5.0,
                                   radius=10.0, free_space=True, tol=1e-14),
                         workers=1)
        assert [r.status for r in rows] == ["warn:perturbative;tolerance"] * 2

    def test_worker_validation(self):
        with pytest.raises(DomainError):
            run_sweep(cheap_spec(), workers=0)
        assert len(run_sweep(cheap_spec(), workers=np.int64(1))) == 4

    @pytest.mark.parametrize("workers", [2.0, 1.5, True, "2", None])
    def test_non_integral_workers_rejected(self, workers):
        # a float, a bool, a string or None is not a worker count, even
        # where its value is a whole number
        with pytest.raises(DomainError, match="workers must be an integer"):
            run_sweep(cheap_spec(), workers=workers)

    def test_default_is_serial_on_any_cpu_count(self, monkeypatch,
                                                tmp_path):
        # a sweep, the oracle suite and udwmi verify run serially unless
        # asked for workers: a process allowed two CPUs starts no pool
        def no_pool(*args, **kwargs):
            raise AssertionError("started a process pool")

        monkeypatch.setattr(infomeasure, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert len(run_sweep(cheap_spec())) == 4
        # two points, so that more than one worker would start a pool
        grid = {"response_points": [
            {"gap": 0.5, "accel": 0.1, "radius": 1.0, "dz": 0.5},
            {"gap": 0.5, "accel": 0.1, "radius": 1.0}]}
        assert run_oracle_suite(grid)["ok"]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert cli.main(["verify", "--grid", str(path),
                         "--out", str(tmp_path / "report.json")]) == 0


def oracles_zeroed(section):
    """correlation._oracle_batch with a zero estimate, not evaluated, for
    each key of one suite section: "response" (a detector with itself
    at one height) or "correlation"."""
    def batch(keys):
        zero = [(key[2] == key[3]) == (section == "response") for key in keys]
        kept = iter(correlation._oracle_batch(
            [key for key, z in zip(keys, zero) if not z]))
        return [correlation.OracleEstimate(0j, 0.0, (), 0) if z
                else next(kept) for z in zero]

    return batch


def core_terms(pair, tol):
    """P_A, P_B and C of a pair with the mirror P's image lines and C's
    lines taken from one batch of the line core, _line_batch: each P
    from its free-space response and the LineIntegral of its image
    line's record, C from its lines' records, the first failure raised
    in the order P_A, P_B, C."""
    dz_b = None if pair.dz is None else pair.dz + pair.sep
    heights = [(pair.det_a, pair.dz), (pair.det_b, dz_b)]
    image_keys = [_image_line_args(det, dz, tol)[1]
                  for det, dz in heights if dz is not None]
    pref, c_keys = _line_integral_args(pair, tol)
    lines = _line_batch(image_keys + c_keys)
    records = lines.records()

    def record(i):
        if i in lines.failures:
            raise lines.failures[i]
        return records[i]

    images = iter(range(len(image_keys)))
    terms = []
    for det, dz in heights:
        free = transition_probability(det, None, tol)
        terms.append(free if dz is None else transition_probability(
            det, dz, tol, free=free, line=LineIntegral(*record(next(images)))))
    return PointTerms(*terms, _correlation_from_lines(
        pref, [record(len(image_keys) + j) for j in range(len(c_keys))]))


def reference_record(params, tol, from_core=False):
    """One row evaluated on its own, term by term: transition_probability
    gives P_A and P_B, correlation_equal gives C, and
    mutual_information_point assembles them. The first exception gives a
    fail status; otherwise the point's PerturbativeRegimeWarning and its
    convergence give the tags. Shares no planner or batch code with the
    sweep it judges, unless from_core, where the mirror P and C come
    from the line core (core_terms)."""
    try:
        with warnings.catch_warnings(record=True) as wlog:
            warnings.simplefilter("always")
            pair = PairConfig(
                det_a=detector_from_accel_radius(params["gap_a"],
                                                 params["accel"],
                                                 params["radius"]),
                det_b=detector_from_accel_radius(params["gap_b"],
                                                 params["accel"],
                                                 params["radius"]),
                sep=params["sep"], dz=params["dz"])
            dz_b = None if pair.dz is None else pair.dz + pair.sep
            pt = mutual_information_point(core_terms(pair, tol) if from_core
                                          else PointTerms(
                transition_probability(pair.det_a, pair.dz, tol),
                transition_probability(pair.det_b, dz_b, tol),
                correlation_equal(pair, tol)))
    except Exception as exc:
        detail = " ".join(str(exc).split())[:200]
        return {**params, **dict.fromkeys(_OUTPUT_COLUMNS, math.nan),
                "status": f"fail:{type(exc).__name__}:{detail}"}
    # the perturbative warning is the only one a point gives
    assert all(issubclass(w.category, PerturbativeRegimeWarning)
               for w in wlog), [str(w.message) for w in wlog]
    tags = {"perturbative"} if wlog else set()
    if not pt.converged:
        tags.add("tolerance")
    status = "ok" if not tags else "warn:" + ";".join(sorted(tags))
    return {**params, **point_record(pt), "status": status}


def bits(record):
    """A record with every float as its exact hex form, NaN included."""
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in record.items()}


def float_bits(value):
    """A nested report with every float as its exact hex form."""
    if isinstance(value, dict):
        return {k: float_bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [float_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


class TestPointRecord:
    def test_output_columns_are_named_in_order(self):
        assert _OUTPUT_COLUMNS == ("P_A", "P_B", "ReC", "ImC", "absC",
                                   "ReC1", "ImC1", "ReC2", "ImC2", "Lplus",
                                   "Lminus", "I", "slack", "err")
        det = detector_from_accel_radius(CHEAP["gap_a"], CHEAP["accel"],
                                         CHEAP["radius"])
        pt = mutual_information_point(
            PairConfig(det_a=det, det_b=det, sep=1.0, dz=CHEAP["dz"]))
        assert tuple(point_record(pt)) == _OUTPUT_COLUMNS


def fail_bounded_term(monkeypatch, alpha):
    """Patch response's bounded quadrature so that the integral of the
    detector whose Gaussian is exp(-alpha x^2) fails with a RuntimeError:
    as its member of a free-space batch or of a reduced batch beside
    line integrals, or by raising when it runs alone. The member is the
    one whose upper limit is that detector's cutoff."""
    error = RuntimeError("forced bounded-term failure")
    cutoffs = {}
    cutoff = response.gaussian_truncation_point
    batch, lone = response.integrate_adaptive_batch, response.integrate_adaptive
    adaptive_parts = response._adaptive_parts

    def recorded_cutoff(a, tol):
        cutoffs[a] = cutoff(a, tol)
        return cutoffs[a]

    def failing_batch(f, lo, hi, *args, **kwargs):
        return [error if x == cutoffs.get(alpha) else res
                for x, res in zip(np.atleast_1d(hi),
                                  batch(f, lo, hi, *args, **kwargs))]

    def failing_lone(f, lo, hi, *args, **kwargs):
        if hi == cutoffs.get(alpha):
            raise error
        return lone(f, lo, hi, *args, **kwargs)

    def failing_parts(parts, *args):
        # the free-space part comes first
        free, *rest = adaptive_parts(parts, *args)
        hit = np.flatnonzero(parts[0].hi == cutoffs.get(alpha)).tolist()
        return [free._replace(failures={**free.failures,
                                        **dict.fromkeys(hit, error)}),
                *rest]

    monkeypatch.setattr(response, "gaussian_truncation_point",
                        recorded_cutoff)
    monkeypatch.setattr(response, "integrate_adaptive_batch", failing_batch)
    monkeypatch.setattr(response, "integrate_adaptive", failing_lone)
    monkeypatch.setattr(response, "_adaptive_parts", failing_parts)


# sweeps whose rows are compared with their points evaluated alone, by id
PLANNER_CASES = {
    # sep = 0 makes coincident detectors, a DomainError row; the image
    # line integral at sep 0.5 is the direct one at sep 1.5
    "sep": dict(axis=SweepAxis(name="sep", start=0.0, stop=1.5, points=4),
                gap_ratios=(0.0, 0.5)),
    "dz": dict(axis=SweepAxis(name="dz", start=0.2, stop=2.0, points=3),
               dz=None, gap_ratios=(0.0, 2.0)),
    # accel = 0 is a static detector
    "accel": dict(axis=SweepAxis(name="accel", start=0.0, stop=1.0,
                                 points=3)),
    "gap": dict(axis=SweepAxis(name="gap", start=0.1, stop=2.0, points=3,
                               spacing="log"), gap_ratios=(0.0, 2.0)),
    "free-space": dict(free_space=True, dz=None, gap_ratios=(0.0, 1.0)),
    # P_A + P_B crosses the perturbative budget between accel 1 and 2,
    # with each P below it
    "budget": dict(axis=SweepAxis(name="accel", start=0.0, stop=3.0,
                                  points=4), free_space=True, dz=None),
    # P_A + P_B > 1: every row fails in assembly with a DomainError
    "assembly-fail": dict(free_space=True, dz=None, gap_a=1.0, accel=30.0),
}


class TestPlanner:
    # each case with its terms evaluated alone, then, as <id>-core, with
    # its mirror P and C taken from the line core
    @pytest.mark.parametrize(
        "overrides, from_core",
        [(case, False) for case in PLANNER_CASES.values()]
        + [(case, True) for case in PLANNER_CASES.values()],
        ids=[*PLANNER_CASES, *(f"{name}-core" for name in PLANNER_CASES)])
    def test_rows_equal_single_point_evaluation(self, overrides, from_core):
        spec = cheap_spec(**overrides)
        rows = run_sweep(spec, workers=1)
        expected = [reference_record(p, spec.tol, from_core)
                    for p in spec.point_params()]
        assert [bits(r.to_record()) for r in rows] == \
            [bits(e) for e in expected]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_terms_are_evaluated_once(self, monkeypatch, workers):
        probabilities = []
        bounded = []
        direct_lines = []
        tp = infomeasure.transition_probability
        batch, lone = response.integrate_adaptive_batch, response.integrate_adaptive
        adaptive_parts = response._adaptive_parts

        def counted_tp(spec, dz=None, tol=1e-8, free=None, line=None):
            probabilities.append((spec, dz, tol))
            return tp(spec, dz, tol, free=free, line=line)

        def counted_batch(f, lo, hi, *args, **kwargs):
            # one bounded quadrature per member of the batch
            bounded.extend(np.atleast_1d(hi).tolist())
            return batch(f, lo, hi, *args, **kwargs)

        def counted_lone(f, lo, hi, *args, **kwargs):
            bounded.append(hi)
            return lone(f, lo, hi, *args, **kwargs)

        def counted_parts(parts, *args):
            # one bounded quadrature per member of the free-space part
            bounded.extend(parts[0].hi.tolist())
            return adaptive_parts(parts, *args)

        def counted_lines(free_keys, line_keys):
            direct_lines.extend(key for key in line_keys if key[0] == 1.0)
            return _reduced_batch(free_keys, line_keys)

        monkeypatch.setattr(infomeasure, "transition_probability", counted_tp)
        n = 5
        sep_spec = cheap_spec(axis=SweepAxis(name="sep", start=0.5, stop=2.5,
                                             points=n))
        run_sweep(sep_spec, workers=workers)
        # P_A is one value along the curve, P_B one per height, each made
        # in this process at any worker count
        assert sum(dz is not None for _, dz, _ in probabilities) == n + 1
        if workers > 1:
            return
        # the batches are counted serially, where these patches reach them
        monkeypatch.setattr(response, "integrate_adaptive_batch",
                            counted_batch)
        monkeypatch.setattr(response, "integrate_adaptive", counted_lone)
        monkeypatch.setattr(response, "_adaptive_parts", counted_parts)
        monkeypatch.setattr(infomeasure, "_reduced_batch", counted_lines)
        run_sweep(sep_spec, workers=1)
        # both detectors are one detector: its free-space response, the
        # bounded quadrature, runs once, not once per mirror P
        assert len(bounded) == 1
        # the direct part does not depend on dz: one per curve (per k)
        direct_lines.clear()
        dz_axis = SweepAxis(name="dz", start=0.2, stop=2.0, points=4)
        run_sweep(cheap_spec(axis=dz_axis, dz=None, sep=1.0,
                             gap_ratios=(0.0, 0.5)), workers=1)
        assert len(direct_lines) == 2

    def test_line_integrals_run_as_one_batch(self, monkeypatch):
        # a serial criterion-7 style curve hands all its line integrals
        # to one principal-value batch: P_A's image line, then P_B's
        # image line and C's direct and image lines of every row; its
        # members run in the one lockstep batch of the curve
        batches = []
        runs = []
        pv_part = correlation._pv_part
        adaptive_parts = response._adaptive_parts

        def counted(g, pole, lo, hi, tol, initial_panels, g_pole):
            batches.append(len(pole))
            return pv_part(g, pole, lo, hi, tol, initial_panels, g_pole)

        def counted_parts(parts, *args):
            runs.append(len(parts))
            return adaptive_parts(parts, *args)

        monkeypatch.setattr(correlation, "_pv_part", counted)
        monkeypatch.setattr(response, "_adaptive_parts", counted_parts)
        spec = SweepSpec(axis=SweepAxis(name="sep", start=0.1, stop=8.0,
                                        points=240),
                         gap_a=0.1, accel=3.7, radius=0.02, dz=5.0)
        rows = run_sweep(spec, workers=1)
        assert len(rows) == 240
        assert batches == [1 + 3 * 240]
        assert runs == [2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_free_response_fails_its_rows(self, monkeypatch, workers):
        # the bounded quadrature of the accel = 0.5 detector fails as its
        # member of the batch: the rows using that detector carry the
        # status a single point gives, the others are untouched, on the
        # pool too
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches pool workers only when they fork")
        spec = cheap_spec(axis=SweepAxis(name="accel", start=0.0, stop=1.0,
                                         points=3))
        clean = run_sweep(spec, workers=1)
        broken = detector_from_accel_radius(spec.gap_a, 0.5, spec.radius)
        fail_bounded_term(monkeypatch,
                          1.0 / (broken.gamma * broken.omega) ** 2)
        rows = run_sweep(spec, workers=workers)
        expected = [reference_record(p, spec.tol) for p in spec.point_params()]
        assert [bits(r.to_record()) for r in rows] == \
            [bits(e) for e in expected]
        assert rows[1].status == \
            "fail:RuntimeError:forced bounded-term failure"
        assert (rows[0], rows[2]) == (clean[0], clean[2])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mirror_response_of_failed_term_is_not_made(self, monkeypatch,
                                                       workers):
        # the accel = 0.5 detector's bounded term fails, and so does P_A's
        # image line (L_eff = 2 dz) of both moving detectors: a mirror P
        # with a failed free-space response or image line is never made,
        # and its row carries that failure, the free-space one first
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches pool workers only when they fork")
        spec = cheap_spec(axis=SweepAxis(name="accel", start=0.0, stop=1.0,
                                         points=3), sep=1.5)
        clean = run_sweep(spec, workers=1)
        dets = [detector_from_accel_radius(spec.gap_a, a, spec.radius)
                for a in (0.0, 0.5, 1.0)]
        line_pole = correlation._line_pole

        def failing_line_pole(L_eff, radius, omega, gamma):
            if L_eff == 2.0 * spec.dz and gamma > 1.0:
                raise DomainError("forced image-line failure")
            return line_pole(L_eff, radius, omega, gamma)

        made = []
        tp = infomeasure.transition_probability

        def counted_tp(det, dz=None, tol=1e-8, free=None, line=None):
            made.append((det, dz))
            return tp(det, dz, tol, free=free, line=line)

        fail_bounded_term(monkeypatch,
                          1.0 / (dets[1].gamma * dets[1].omega) ** 2)
        monkeypatch.setattr(correlation, "_line_pole", failing_line_pole)
        monkeypatch.setattr(infomeasure, "transition_probability", counted_tp)
        rows = run_sweep(spec, workers=workers)
        # P_A and P_B at accel = 0.5 (failed free-space response), P_A at
        # accel = 1.0 (failed image line)
        heights = (spec.dz, spec.dz + 1.5)
        assert not {(dets[1], heights[0]), (dets[1], heights[1]),
                    (dets[2], heights[0])} & set(made)
        assert sorted(made, key=made.index) == [
            (dets[0], heights[0]), (dets[0], heights[1]),
            (dets[2], heights[1])]
        assert [r.status for r in rows] == [
            clean[0].status, "fail:RuntimeError:forced bounded-term failure",
            "fail:DomainError:forced image-line failure"]
        assert rows[0] == clean[0]
        expected = [reference_record(p, spec.tol) for p in spec.point_params()]
        assert [bits(r.to_record()) for r in rows] == \
            [bits(e) for e in expected]

    @pytest.mark.parametrize("sep", [1e-320, 1e-300, 1e-200, 1e-155,
                                     1.6e-154, 1e-153])
    @pytest.mark.parametrize("accel", [0.1, 0.0])
    def test_tiny_separations_fail_cleanly(self, sep, accel):
        # C ~ 1/sep^2 leaves the float range: each row fails with one
        # DomainError, with no numpy warning and no OverflowError
        spec = cheap_spec(axis=SweepAxis(name="sep", start=sep,
                                         stop=2.0 * sep, points=2),
                          accel=accel)
        with warnings.catch_warnings(record=True) as wlog:
            warnings.simplefilter("always")
            rows = run_sweep(spec, workers=1)
        assert not wlog
        assert all(r.status.startswith("fail:DomainError:") for r in rows)

    def test_light_speed_orbit_fails_its_row_alone(self):
        # at a R = 1e16 the orbital speed rounds to 1: that row fails
        # with a DomainError, the a = 1 row beside it is computed
        spec = cheap_spec(axis=SweepAxis(name="accel", start=1.0,
                                         stop=1e16, points=2))
        ok, fast = run_sweep(spec, workers=1)
        assert not ok.status.startswith("fail")
        assert fast.status.startswith("fail:DomainError:a = 1e+16, R = 1.0")

    def test_extreme_orbit_fails_its_row_alone(self):
        # at a = 1.7e154, R = 1e-154 the bounded term's Gaussian alpha is
        # subnormal and its cutoff infinite: that row fails with a
        # DomainError, the a = 1 row beside it is computed
        spec = cheap_spec(axis=SweepAxis(name="accel", start=1.0,
                                         stop=1.7e154, points=2),
                          radius=1e-154)
        ok, fast = run_sweep(spec, workers=1)
        assert ok.status == "ok"
        assert fast.status.startswith(
            "fail:DomainError:the rotating term's cutoff is not finite")

    def test_smallest_tol_does_not_raise(self):
        # the smallest tol a spec takes cannot be met, but the rows say
        # so instead of the sweep raising; its image lines' budgets are
        # subnormal
        spec = cheap_spec(axis=SweepAxis(name="dz", start=0.5, stop=1.0,
                                         points=2),
                          dz=None, tol=sys.float_info.min)
        rows = run_sweep(spec, workers=1)
        assert len(rows) == 2
        assert all("tolerance" in row.status for row in rows)

    @settings(max_examples=25, deadline=None)
    @given(axis=st.sampled_from(AXIS_NAMES),
           start=st.floats(0.0, 4.0), width=st.floats(0.05, 6.0),
           points=st.integers(2, 4), log=st.booleans(),
           gap_a=st.floats(-0.5, 2.0), accel=st.floats(0.0, 20.0),
           radius=st.sampled_from((0.02, 1.0, 10.0)),
           sep=st.floats(0.0, 6.0), dz=st.floats(0.05, 8.0),
           free_space=st.booleans(),
           ratios=st.lists(st.floats(-1.0, 10.0), min_size=1, max_size=2))
    def test_random_configs_never_raise(self, axis, start, width, points,
                                        log, gap_a, accel, radius, sep, dz,
                                        free_space, ratios):
        try:
            spec = SweepSpec(
                axis=SweepAxis(name=axis, start=start, stop=start + width,
                               points=points,
                               spacing="log" if log else "linear"),
                gap_a=gap_a, gap_ratios=tuple(ratios), accel=accel,
                radius=radius, sep=sep, dz=None if free_space else dz,
                free_space=free_space, tol=1e-6)
        except DomainError:
            assume(False)
        with warnings.catch_warnings(record=True) as wlog:
            warnings.simplefilter("always")
            rows = run_sweep(spec, workers=1)
        # a sweep passes no warning on: its rows carry the perturbative
        # tag, and a separation too small for float arithmetic fails its
        # row with a DomainError
        assert not wlog
        params = spec.point_params()
        assert len(rows) == len(params)
        for row, p in zip(rows, params):
            assert {k: row.to_record()[k] for k in p} == p
            assert row.status in STATUSES or row.status.startswith("fail:")
            # the perturbative tag is read off the row's own values
            if row.status in STATUSES:
                assert ("perturbative" in row.status) == \
                    (row.p_a + row.p_b > 0.1)


@pytest.fixture(scope="module")
def rows():
    return run_sweep(cheap_spec(gap_ratios=(0.0, 0.5)), workers=1)


@pytest.fixture(scope="module")
def smoke_report():
    return run_oracle_suite("oracle_grid_smoke", workers=1)


class TestEmitTable:
    def test_csv_shape_and_formatting(self, rows):
        buf = io.StringIO()
        emit_table(rows, "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[COLUMNS.index("free_space")] == "false"
        assert first[COLUMNS.index("P_A")] == f"{rows[0].p_a:.12g}"
        assert first[COLUMNS.index("status")] == "ok"

    def test_csv_byte_identical_across_worker_counts(self):
        spec = cheap_spec(gap_ratios=(0.0, 0.5))
        outs = []
        for workers in (1, 2):
            buf = io.StringIO()
            emit_table(run_sweep(spec, workers=workers), "csv", buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_free_space_dz_cell_is_empty(self):
        rows = run_sweep(cheap_spec(free_space=True, dz=None,
                                    axis=SweepAxis(name="sep", start=0.5,
                                                   stop=1.0, points=2)),
                         workers=1)
        buf = io.StringIO()
        emit_table(rows, "csv", buf)
        line = buf.getvalue().splitlines()[1].split(",")
        assert line[COLUMNS.index("dz")] == ""
        assert line[COLUMNS.index("free_space")] == "true"

    def test_json_round_trip(self, rows):
        buf = io.StringIO()
        emit_table(rows, "json", buf)
        payload = json.loads(buf.getvalue())
        assert len(payload) == len(rows)
        for entry, row in zip(payload, rows):
            assert list(entry) == list(COLUMNS)
            assert entry["free_space"] is False
            assert entry["dz"] == row.dz
            assert entry["I"] == float(f"{row.mutual_info:.12g}")
            assert entry["status"] == "ok"

    def test_json_dz_carries_12_digits(self):
        # a log-spaced dz axis holds values 12 digits do not write exactly
        axis = SweepAxis(name="dz", start=0.1, stop=1.0, points=3,
                         spacing="log")
        rows = run_sweep(cheap_spec(axis=axis, dz=None), workers=1)
        buf = io.StringIO()
        emit_table(rows, "json", buf)
        dzs = [entry["dz"] for entry in json.loads(buf.getvalue())]
        assert dzs == [float(f"{r.dz:.12g}") for r in rows]
        assert dzs[1] != rows[1].dz

    def test_json_nan_becomes_null(self):
        row = run_sweep(cheap_spec(), workers=1)[0]
        import dataclasses
        broken = dataclasses.replace(row, mutual_info=math.nan,
                                     status="fail:forced")
        buf = io.StringIO()
        emit_table([broken], "json", buf)
        payload = json.loads(buf.getvalue())
        assert payload[0]["I"] is None
        assert payload[0]["status"] == "fail:forced"

    def test_path_destination(self, rows, tmp_path):
        target = tmp_path / "table.csv"
        emit_table(rows, "csv", target)
        buf = io.StringIO()
        emit_table(rows, "csv", buf)
        assert target.read_text() == buf.getvalue()

    def test_bad_inputs(self, rows):
        with pytest.raises(DomainError):
            emit_table([], "csv", io.StringIO())
        with pytest.raises(DomainError):
            emit_table(rows, "tsv", io.StringIO())

    def test_record_keys_match_columns(self, rows):
        assert set(rows[0].to_record()) == set(COLUMNS)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_hand_made_rows_give_golden_bytes(self, fmt):
        # every kind of cell: the least subnormal, -0.0, NaN and +-inf,
        # 12 digits of 1/3 and of a 17-digit integer, an empty dz in
        # free space, both flags, and statuses with a comma and double
        # quotes, which CSV quotes and JSON escapes
        nan, inf = math.nan, math.inf
        rows = [
            SweepRow(0.1, 0.15, 2.0, 0.02, 1.0 / 3.0, 0.1, False, 5e-324,
                     -0.0, 1.5e-300, -2.5e-7, 0.1 + 0.2,
                     123456789012345678.0, -1e-12, 0.0, 7.0, 0.25, 1e300,
                     4.2e-5, -3.0e-20, 1e-15, "ok"),
            SweepRow(1.0, 1.0, 30.0, 1.0, 0.5, None, True, *[nan] * 14,
                     'fail:DomainError:p_a + p_b = 1.5, "beyond" 1'),
            SweepRow(0.5, 0.5, 0.0, 10.0, 8.0, 3 * 5e-324, False, inf, -inf,
                     -0.0, 0.0, inf, 1.0, -1.0, 2.0, -2.0, inf, -inf, 0.0,
                     nan, 100.0, 'warn:a "quoted" tag'),
        ]
        buf = io.StringIO()
        emit_table(rows, fmt, buf)
        if fmt == "csv":
            assert buf.getvalue() == (
                ",".join(COLUMNS) + "\n"
                "0.1,0.15,2,0.02,0.333333333333,0.1,false,"
                "4.94065645841e-324,-0,1.5e-300,-2.5e-07,0.3,"
                "1.23456789012e+17,-1e-12,0,7,0.25,1e+300,4.2e-05,-3e-20,"
                "1e-15,ok\n"
                "1,1,30,1,0.5,,true," + "nan," * 14
                + '"fail:DomainError:p_a + p_b = 1.5, ""beyond"" 1"\n'
                "0.5,0.5,0,10,8,1.48219693752e-323,false,inf,-inf,-0,0,inf,"
                '1,-1,2,-2,inf,-inf,0,nan,100,"warn:a ""quoted"" tag"\n')
            return
        expected = [dict(zip(COLUMNS, cells, strict=True)) for cells in (
            (0.1, 0.15, 2.0, 0.02, 0.333333333333, 0.1, False, 5e-324, -0.0,
             1.5e-300, -2.5e-07, 0.3, 1.23456789012e+17, -1e-12, 0.0, 7.0,
             0.25, 1e+300, 4.2e-05, -3e-20, 1e-15, "ok"),
            (1.0, 1.0, 30.0, 1.0, 0.5, None, True, *[None] * 14,
             'fail:DomainError:p_a + p_b = 1.5, "beyond" 1'),
            (0.5, 0.5, 0.0, 10.0, 8.0, 1.5e-323, False, None, None, -0.0,
             0.0, None, 1.0, -1.0, 2.0, -2.0, None, None, 0.0, None, 100.0,
             'warn:a "quoted" tag'))]
        assert buf.getvalue() == json.dumps(expected, indent=2) + "\n"
        assert '"P_B": -0.0,\n' in buf.getvalue()


class TestConfigLoading:
    def test_named_preset(self):
        spec = load_config("fig2c")
        assert spec.name == "fig2c"
        assert spec.axis.name == "sep"
        assert (spec.axis.start, spec.axis.stop, spec.axis.points) \
            == (0.1, 8.0, 60)
        assert spec.gap_ratios == (0.0, 2.0, 10.0)
        assert (spec.accel, spec.radius, spec.dz) == (5.0, 0.02, 0.1)

    def test_mapping_and_path_sources(self, tmp_path):
        cfg = {"axis": {"name": "sep", "start": 0.5, "stop": 2.0,
                        "points": 3}, "dz": 0.5}
        assert load_config(cfg).axis.points == 3
        p = tmp_path / "sweep.json"
        p.write_text(json.dumps(cfg))
        assert load_config(p).axis.points == 3
        assert load_config(str(p)).axis.points == 3

    def test_missing_preset_lists_available(self):
        with pytest.raises(DomainError, match="fig2a"):
            load_config("no_such_preset")

    def test_invalid_json_file(self, tmp_path):
        # a syntax error, a file that is not UTF-8, and nesting too deep
        # for the parser's recursion are all invalid JSON, not crashes
        p = tmp_path / "broken.json"
        for content in (b"{not json", b'{"name": "caf\xe9"}',
                        b"[" * 100_000 + b"]" * 100_000):
            p.write_bytes(content)
            for load in (load_config, load_grid):
                with pytest.raises(DomainError, match="invalid JSON"):
                    load(p)

    def test_grid_defaults(self):
        grid = load_grid({"response_points": [{"gap": 0.1, "accel": 1.0,
                                               "radius": 1.0, "dz": 1.0}]})
        assert grid["rel_tol"] == 1e-3
        assert grid["correlation_points"] == []
        with pytest.raises(DomainError, match="no points"):
            load_grid({})

    @pytest.mark.parametrize("bad", [
        {"rel_tol": "1e-3"}, {"rel_tol": True},
        {"point": {"accel": "2"}}, {"point": {"gap": True}},
        {"point": {"dz": False}},
    ], ids=["rel_tol-str", "rel_tol-bool", "accel-str", "gap-bool",
            "dz-bool"])
    def test_grid_rejects_non_numbers(self, bad):
        point = {"gap": 0.1, "accel": 1.0, "radius": 1.0,
                 **bad.pop("point", {})}
        with pytest.raises(DomainError, match="must be a number"):
            load_grid({"response_points": [point], **bad})

    def test_smoke_grid_preset(self):
        grid = load_grid("oracle_grid_smoke")
        assert len(grid["response_points"]) == 2
        assert len(grid["correlation_points"]) == 2
        assert grid["rel_tol"] == 1e-3


class TestOracleSuite:
    @pytest.mark.parametrize("workers", [1.5, 2.0, True, None])
    def test_non_integral_workers_rejected(self, workers):
        with pytest.raises(DomainError, match="workers must be an integer"):
            run_oracle_suite("oracle_grid_smoke", workers=workers)

    def test_smoke_grid_passes(self, smoke_report):
        rep = smoke_report
        assert rep["ok"]
        assert rep["response"]["ok"] and rep["correlation"]["ok"]
        assert rep["response"]["max_rel_dev"] <= 1e-3
        assert rep["correlation"]["max_rel_dev"] <= 1e-3
        assert rep["response"]["all_within_combined_err"]
        assert rep["correlation"]["all_within_combined_err"]

    def test_corners_grid_passes(self):
        # the corners of the presets: gamma = 20, the fast small orbit,
        # gap 4 and detuned pairs, each with and without the mirror
        grid = load_grid("oracle_corners")
        points = grid["response_points"] + grid["correlation_points"]
        gammas = {detector_from_accel_radius(0.1, p["accel"],
                                             p["radius"]).gamma
                  for p in points}
        assert max(gammas) > 20.0
        assert {p["gap_b"] for p in grid["correlation_points"]} >= {
            0.3, 1.1, 1.6, 4.0}
        assert {p["dz"] is None for p in points} == {True, False}
        rep = run_oracle_suite(grid, workers=1)
        assert rep["ok"]
        assert rep["response"]["all_within_combined_err"]
        assert rep["correlation"]["all_within_combined_err"]

    def test_deviation_records_are_complete(self, smoke_report):
        rec = smoke_report["response"]["points"][0]
        assert rec["params"]["accel"] == 5.0
        assert rec["rel_dev"] == rec["abs_dev"] / abs(rec["oracle"])
        crec = smoke_report["correlation"]["points"][0]
        assert len(crec["value"]) == 2
        assert len(crec["c_boundary"]) == 2

    def test_records_count_oracle_evaluations(self, smoke_report,
                                              monkeypatch):
        # both contour passes of a point's oracle, summed: the two
        # members of the quadrature batch of its oracle alone
        batch = correlation.integrate_adaptive_batch
        calls = []

        def counted(*args, **kwargs):
            results = batch(*args, **kwargs)
            calls.extend(res.evaluations for res in results)
            return results

        monkeypatch.setattr(correlation, "integrate_adaptive_batch", counted)
        for rec in smoke_report["response"]["points"]:
            p = rec["params"]
            calls.clear()
            response.transition_probability_oracle_result(
                detector_from_accel_radius(p["gap"], p["accel"], p["radius"]),
                p["dz"])
            assert rec["oracle_evaluations"] == sum(calls) > 0
        for crec in smoke_report["correlation"]["points"]:
            p = crec["params"]
            calls.clear()
            correlation.correlation_general_result(PairConfig(
                det_a=detector_from_accel_radius(p["gap_a"], p["accel"],
                                                 p["radius"]),
                det_b=detector_from_accel_radius(p["gap_b"], p["accel"],
                                                 p["radius"]),
                sep=p["sep"], dz=p["dz"]))
            assert len(calls) == 2
            assert crec["oracle_evaluations"] == sum(calls)

    def test_corrupted_response_is_caught(self, monkeypatch):
        value_fn = infomeasure.transition_probability

        def corrupted(*args):
            res = value_fn(*args)
            return dataclasses.replace(res, total=res.total * 1.01)

        monkeypatch.setattr(infomeasure, "transition_probability", corrupted)
        # correlation zeroed out so only the response check runs: its
        # reduced value, and its oracle in the suite's oracle batch
        monkeypatch.setattr(infomeasure, "_correlation_from_lines",
                            lambda pref, lines: correlation.CorrelationResult(
                                0j, 0j, 0j, 0.0, True))
        monkeypatch.setattr(infomeasure, "_oracle_batch",
                            oracles_zeroed("correlation"))
        rep = run_oracle_suite("oracle_grid_smoke", workers=1)
        assert not rep["response"]["ok"]
        assert rep["response"]["max_rel_dev"] > 5e-3
        assert not rep["response"]["points"][0]["within_combined_err"]

    def test_corrupted_correlation_is_caught(self, monkeypatch):
        value_fn = infomeasure._correlation_from_lines

        def corrupted(pref, lines):
            res = value_fn(pref, lines)
            return dataclasses.replace(res, c_total=res.c_total * (1.0 + 5e-3))

        # response zeroed out so only the correlation check runs
        monkeypatch.setattr(infomeasure, "transition_probability",
                            lambda *args: response.ResponseBreakdown(
                                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, None, True))
        monkeypatch.setattr(infomeasure, "_oracle_batch",
                            oracles_zeroed("response"))
        monkeypatch.setattr(infomeasure, "_correlation_from_lines", corrupted)
        rep = run_oracle_suite("oracle_grid_smoke", workers=1)
        assert not rep["correlation"]["ok"]
        assert rep["correlation"]["max_rel_dev"] > 2e-3

    @pytest.mark.parametrize("name", ["oracle_grid_smoke", "oracle_corners"])
    def test_records_equal_points_evaluated_alone(self, name):
        # the suite's batches give each point the terms the public
        # functions give it alone, to the last bit
        grid = load_grid(name)
        report = run_oracle_suite(grid)
        alone = []
        for p in grid["response_points"]:
            spec = detector_from_accel_radius(p["gap"], p["accel"],
                                              p["radius"])
            res = transition_probability(spec, p.get("dz"))
            est = response.transition_probability_oracle_result(spec,
                                                                 p.get("dz"))
            alone.append(_deviation_record(
                p, res.total, res.abs_error_estimate, est.value,
                est.error_estimate, est.evaluations))
        assert (float_bits(report["response"]["points"])
                == float_bits(alone))
        alone = []
        for p in grid["correlation_points"]:
            pair = PairConfig(
                det_a=detector_from_accel_radius(p["gap_a"], p["accel"],
                                                 p["radius"]),
                det_b=detector_from_accel_radius(p["gap_b"], p["accel"],
                                                 p["radius"]),
                sep=p["sep"], dz=p.get("dz"))
            res = correlation_equal(pair)
            est = correlation.correlation_general_result(pair)
            rec = _deviation_record(p, res.c_total, res.abs_error_estimate,
                                    est.value, est.error_estimate,
                                    est.evaluations)
            rec["c_boundary"] = _json_number(res.c_boundary)
            alone.append(rec)
        assert (float_bits(report["correlation"]["points"])
                == float_bits(alone))

    def test_permuted_grid_gives_permuted_records(self):
        # the benchmark shuffles the points of oracle_grid; a record
        # does not depend on where its point stands
        grid = load_grid("oracle_grid")
        report = run_oracle_suite(grid)
        rng = random.Random(40)
        permuted, orders = dict(grid), {}
        for section in ("response", "correlation"):
            points = grid[f"{section}_points"]
            orders[section] = rng.sample(range(len(points)), len(points))
            permuted[f"{section}_points"] = [points[i]
                                             for i in orders[section]]
        got = run_oracle_suite(permuted)
        for section, order in orders.items():
            assert float_bits(got[section]["points"]) == float_bits(
                [report[section]["points"][i] for i in order])
            assert (float_bits(got[section]["max_rel_dev"])
                    == float_bits(report[section]["max_rel_dev"]))

    def test_first_failure_in_suite_order_is_raised(self, monkeypatch):
        # the oracles of two response points fail (a second contour
        # beyond the tube of a gamma = 20 orbit), and so does a
        # correlation point (coincident detectors): the suite raises
        # the first failure in suite order, the responses before the
        # correlations, as it did when it ran its points one by one
        fast = detector_from_accel_radius(0.1, 40.0, 10.0)
        eta_1, _ = correlation._contours(fast, fast)
        monkeypatch.setattr(correlation, "_contours",
                            lambda *_: (eta_1, 0.2))

        def failing(gap):
            point = {"gap": gap, "accel": 40.0, "radius": 10.0, "dz": 0.1}
            with pytest.raises(RuntimeError) as alone:
                response.transition_probability_oracle_result(
                    detector_from_accel_radius(gap, 40.0, 10.0), 0.1)
            return point, str(alone.value)

        (first, first_msg), (second, second_msg) = failing(0.1), failing(2.0)
        assert first_msg != second_msg
        good = {"gap": 0.5, "accel": 0.1, "radius": 1.0, "dz": 0.5}
        coincident = {"gap_a": 0.1, "gap_b": 0.1, "accel": 1.0,
                      "radius": 1.0, "sep": 0.0, "dz": 1.0}
        for points, message in (([good, first, second], first_msg),
                                ([second, good, first], second_msg)):
            grid = {"correlation_points": [coincident],
                    "response_points": points}
            with pytest.raises(RuntimeError) as caught:
                run_oracle_suite(grid)
            assert str(caught.value) == message
        with pytest.raises(DomainError, match="coincident detectors"):
            run_oracle_suite({"correlation_points": [coincident],
                              "response_points": [good]})

    def test_pool_maps_batch_jobs(self, monkeypatch):
        # with workers, the pool gets jobs of the suite's batch, as a
        # sweep's: each job a slice of every kind of key, fewer jobs
        # than keys, not a point per task
        mapped = []

        def serial(fn, calls, workers):
            mapped.append((fn, calls, workers))
            return [fn(*args) for args in calls]

        monkeypatch.setattr(infomeasure, "_map", serial)
        report = run_oracle_suite("oracle_grid", workers=2)
        ((fn, jobs, workers),) = mapped
        assert fn is infomeasure._evaluate_batch and workers == 2
        assert {batch for batch, _ in jobs} == {infomeasure._plan_batch}
        oracle_jobs = [oracles for _, (_, _, oracles) in jobs]
        assert sum(map(len, oracle_jobs)) == 39 > len(oracle_jobs) > 1
        assert float_bits(report) == float_bits(run_oracle_suite(
            "oracle_grid"))

    def test_pool_report_is_bit_identical(self, smoke_report):
        pooled = run_oracle_suite("oracle_grid_smoke", workers=2)
        assert float_bits(pooled) == float_bits(smoke_report)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_point_raises(self, workers):
        # two points, so that workers=2 maps them on the pool
        grid = {"response_points": [{"gap": 0.1, "accel": 1.0,
                                     "radius": -1.0, "dz": 1.0}],
                "correlation_points": [{"gap_a": 0.1, "gap_b": 0.1,
                                        "accel": 1.0, "radius": -1.0,
                                        "sep": 1.0, "dz": 1.0}]}
        with pytest.raises(DomainError, match="radius must be positive"):
            run_oracle_suite(grid, workers=workers)

    def test_bad_rel_tol_rejected(self):
        grid = load_grid("oracle_grid_smoke")
        grid["rel_tol"] = 0.0
        with pytest.raises(DomainError):
            run_oracle_suite(grid)


class TestInteriorMaxima:
    def test_synthetic_peak_counts(self):
        x = np.linspace(0.0, 1.0, 201)
        assert count_interior_maxima(x) == 0
        assert count_interior_maxima(np.sin(math.pi * x)) == 1
        assert count_interior_maxima(np.sin(2.0 * math.pi * x) + 1.5) == 1
        assert count_interior_maxima(np.sin(4.0 * math.pi * x) + 1.5) == 2
        assert count_interior_maxima(np.sin(6.0 * math.pi * x) + 1.5) == 3

    def test_endpoint_maximum_does_not_count(self):
        assert count_interior_maxima(np.linspace(1.0, 0.0, 50)) == 0

    def test_prominence_filter(self):
        # one unit-height peak and one 1e-5 bump: the bump is below the
        # default relative prominence floor but above a 1e-6 one
        y = np.zeros(60)
        y[5:16] = 1.0 - np.abs(np.arange(-5, 6)) / 5.0
        y[28:33] = 1e-5 * (1.0 - np.abs(np.arange(-2, 3)) / 2.0)
        assert count_interior_maxima(y) == 1
        assert count_interior_maxima(y, prominence_rel=1e-6) == 2

    def test_flat_curve(self):
        assert count_interior_maxima(np.zeros(10)) == 0

    def test_bad_input(self):
        with pytest.raises(DomainError):
            count_interior_maxima([1.0, 2.0])
        with pytest.raises(DomainError):
            count_interior_maxima([1.0, math.nan, 2.0])
        with pytest.raises(DomainError):
            count_interior_maxima(np.ones((3, 3)))

    @seed(2020)
    @settings(max_examples=150, deadline=None)
    @given(curve=st.one_of(
        # small integers: ties, plateaus, flat tops at the ends
        st.lists(st.integers(-3, 3).map(float), min_size=3, max_size=40),
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40)),
        # at 1/3, 1/2 and 2/3 an integer curve's prominence meets the cut
        prominence_rel=st.sampled_from([0.0, 1e-6, 1e-4, 1e-3, 0.1, 1 / 3,
                                        0.5, 2 / 3]))
    def test_equals_scipy_find_peaks(self, curve, prominence_rel):
        # the prominence count of find_peaks (Virtanen et al., Nat.
        # Methods 17, 261 (2020)) is the reference
        y = np.asarray(curve)
        scale = np.max(np.abs(y))
        expected = (0 if scale == 0.0 else
                    len(find_peaks(y, prominence=prominence_rel * scale)[0]))
        assert count_interior_maxima(curve, prominence_rel) == expected


def test_src_calls_no_blas():
    # the process pool is udwmi's only parallelism: a matmul or dot
    # product would start a native BLAS thread pool under it, and so
    # could einsum with optimize set
    blas = {"dot", "matmul", "tensordot", "inner", "vdot"}
    found = []
    for path in sorted(Path(udwmi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(getattr(node, "op", None), ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in blas or (name == "einsum" and any(
                        kw.arg == "optimize" for kw in node.keywords)):
                    found.append((path.name, node.lineno, name))
    assert found == []
