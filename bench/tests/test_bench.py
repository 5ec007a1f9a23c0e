"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

udwmi = run.import_package()


# -- self time -----------------------------------------------------------

def test_self_time_subtracts_merged_and_clipped_children():
    # 0: root [0, 10]
    # 1: child [1, 3], 2: child [2, 5] overlapping it, 3: child [8, 12]
    #    running past the root's end, 4: grandchild [1.5, 2.5] under 1
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    selfs = tracing.self_times(starts, ends, parents)
    # root: 10 - ([1, 5] merged = 4) - ([8, 10] clipped = 2)
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_without_children_is_duration():
    assert tracing.self_times([2.0], [2.5], [-1]) == [pytest.approx(0.5)]


# -- reference comparator ------------------------------------------------

def _row(i, **values):
    row = {"gap_a": "0.1", "gap_b": "0.1", "accel": "5", "radius": "0.02",
           "sep": str(i), "dz": "0.1", "free_space": "false", "status": "ok"}
    row.update({c: "0.5" for c in reference.TABLE_VALUES})
    row.update({k: str(v) for k, v in values.items()})
    return row


def test_reference_nan_is_skipped_but_value_turning_nan_is_a_mismatch():
    ref_rows = [_row(1, P_A="nan"), _row(2)]
    ref = reference.table_reference(ref_rows)
    assert ref["values"]["P_A"][0] is None
    # the baseline failed row now has a value: nothing to compare
    assert reference.compare_table([_row(1, P_A="0.25"), _row(2)], ref) == set()
    # a finite reference value that turns NaN is a mismatch
    assert reference.compare_table([_row(1), _row(2, I="nan")], ref) == {1}


def test_reference_tolerance():
    ref = reference.table_reference([_row(1, I="0.001")])
    ok = 0.001 * (1 + 0.5 * reference.RTOL)
    bad = 0.001 * (1 + 3 * reference.RTOL)
    assert reference.compare_table([_row(1, I=ok)], ref) == set()
    assert reference.compare_table([_row(1, I=bad)], ref) == {0}


def test_row_order_or_count_change_is_a_mismatch():
    ref = reference.table_reference([_row(1), _row(2), _row(3)])
    swapped = [_row(2), _row(1), _row(3)]
    assert reference.compare_table(swapped, ref) == {0, 1, 2}
    assert reference.compare_table([_row(1), _row(2)], ref) == {0, 1, 2}


def test_query_comparator_skips_baseline_failures_only():
    good = '{"P_A": 0.1, "P_B": 0.2, "ReC": 0.01, "ReC2": 0.001, "I": 0.003}'
    failed_ref = reference.query_reference(1, "")
    assert failed_ref == [1, None, None, None, None, None]
    assert reference.compare_query(0, good, failed_ref)
    ok_ref = reference.query_reference(0, good)
    assert reference.compare_query(0, good, ok_ref)
    assert not reference.compare_query(1, "", ok_ref)
    # same output, but the exit code turned non-zero
    assert not reference.compare_query(1, good, ok_ref)


def test_oracle_comparator_maps_permuted_points():
    report = {"ok": True,
              "response": {"points": [{"value": 1.0, "oracle": 1.0},
                                      {"value": 2.0, "oracle": 2.0}]},
              "correlation": {"points": [{"value": [0.5, 0.0],
                                          "oracle": [0.5, 0.0]}]}}
    ref = reference.oracle_reference(report)
    permuted = {**report, "response": {"points": report["response"]["points"][::-1]}}
    assert reference.compare_oracle(permuted, [1, 0], [0], ref) == 0
    assert reference.compare_oracle(permuted, [0, 1], [0], ref) == 2
    assert reference.compare_oracle({**report, "ok": False}, [0, 1], [0], ref) == 3


# -- distinct-ratio keys -------------------------------------------------

def test_response_key_identifies_equal_evaluations():
    det = udwmi.kinematics.detector_from_accel_radius
    a = tracing.response_key(det(0.1, 5.0, 0.02), 0.1, 1e-8)
    assert a == tracing.response_key(det(0.1, 5.0, 0.02), 0.1)
    assert a != tracing.response_key(det(0.1, 5.0, 0.02), 0.2)
    assert a != tracing.response_key(det(0.3, 5.0, 0.02), 0.1)
    assert tracing.response_key(det(0.1, 5.0, 0.02)) != a


def test_line_keys_direct_and_image():
    det = udwmi.kinematics.detector_from_accel_radius(0.1, 5.0, 0.02)
    pair = udwmi.correlation.PairConfig(det_a=det, det_b=det, sep=1.0, dz=0.5)
    direct, image = tracing.line_keys(pair)
    assert direct[3] == 1.0 and image[3] == 2.0
    assert direct[:3] == image[:3] == (det.omega, det.radius, det.gamma)
    free = udwmi.correlation.PairConfig(det_a=det, det_b=det, sep=1.0)
    assert tracing.line_keys(free) == [direct]


def test_traced_distinct_ratio_binds_positional_and_keyword_calls():
    det = udwmi.kinematics.detector_from_accel_radius
    original = udwmi.response.transition_probability
    tracer = tracing.Tracer()
    tracer.install(udwmi)
    try:
        tp = udwmi.response.transition_probability
        tp(det(0.1, 1.0, 1.0), 0.5)
        tp(det(0.1, 1.0, 1.0), dz=0.5, tol=1e-8)
        tp(spec=det(0.1, 1.0, 1.0), dz=0.5)
        tp(det(0.1, 1.0, 1.0))
    finally:
        tracer.uninstall()
    assert udwmi.response.transition_probability is original
    m = tracer.layer_metrics(1.0)
    assert m["response.distinct_ratio"] == (0.5, "ratio")
    assert m["response.calls_mirror"][0] == 3
    assert m["response.calls_free"][0] == 1
    assert m["quadrature.adaptive_calls"][0] > 0


def test_tracer_wraps_every_binding_and_groups_points():
    tracer = tracing.Tracer()
    tracer.install(udwmi)
    try:
        # sweep and infomeasure import these by name
        assert udwmi.sweep.mutual_information_point is \
            udwmi.infomeasure.mutual_information_point
        assert udwmi.response.principal_value_integral is \
            udwmi.quadrature.principal_value_integral
        spec = udwmi.sweep.SweepSpec(
            axis=udwmi.sweep.SweepAxis(name="sep", start=0.5, stop=1.5,
                                       points=3),
            gap_a=0.1, accel=1.0, radius=1.0, dz=1.0)
        rows = udwmi.sweep.run_sweep(spec, workers=1)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(1.0)
    assert m["sweep.rows"][0] == len(rows) == 3
    assert m["infomeasure.point_calls"][0] == 3
    assert m["trace.points"][0] == 3
    points = {p for name, p in zip(tracer.names, tracer.points)
              if name == "response.transition_probability"}
    assert points == {1, 2, 3}


# -- machine-speed normalisation ----------------------------------------

def _probe(samples):
    """A probe holding hand-made samples (start, kernel seconds)."""
    probe = speed.SpeedProbe()
    for start, cost in samples:
        probe.mids.append(start + cost / 2)
        probe.costs.append(cost)
        probe.walls.append(cost)
    return probe


def test_normalise_scales_by_local_kernel_time_and_drops_probe_time():
    nominal = speed.NOMINAL_KERNEL_S
    # the machine runs at half speed around t = 10 and full speed at t = 20
    probe = _probe([(9.9, 2 * nominal), (10.05, 2 * nominal), (10.3, 2 * nominal),
                    (19.9, nominal), (20.05, nominal), (20.3, nominal)])
    # an op from 10.0 to 10.2 that the probe interrupted once
    busy = 0.2 - 2 * nominal
    assert probe.normalise(10.0, 10.2) == pytest.approx(busy / 2)
    assert probe.normalise(20.0, 20.2) == pytest.approx(0.2 - nominal)


def test_speed_is_the_time_average_not_the_median():
    nominal = speed.NOMINAL_KERNEL_S
    probe = _probe([(0.1 * i, nominal if i % 3 else 2 * nominal)
                    for i in range(30)])
    probe_s = nominal * (20 + 2 * 10)
    assert probe.normalise(0.0, 3.0) == pytest.approx(
        (3.0 - probe_s) * (2 / 3 + 1 / 3 * 0.5))


def test_probe_runs_from_the_timer_and_stops():
    probe = speed.SpeedProbe(interval=0.01)
    with probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    n = len(probe.costs)
    assert n >= 3
    time.sleep(0.05)
    assert len(probe.costs) == n


# -- workload inputs -----------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    a = workloads.prepare(udwmi, workload, 3, 15)
    b = workloads.prepare(udwmi, workload, 3, 15)
    c = workloads.prepare(udwmi, workload, 4, 15)
    assert [op.key for op in a] == [op.key for op in b]
    assert repr([op.payload for op in a]) == repr([op.payload for op in b])
    assert repr([op.payload for op in a]) != repr([op.payload for op in c])


def test_every_drawn_input_has_a_reference():
    for workload in workloads.WORKLOADS:
        ref = reference.load(workload)
        for seed in range(5):
            for op in workloads.prepare(udwmi, workload, seed, 15):
                if workload == "presets":
                    assert op.key in ref["presets"]
                    assert op.points == ref["presets"][op.key]["rows"]
                elif workload == "onset_scan":
                    assert op.key in ref["curves"]
                elif workload == "point_queries":
                    assert 0 <= int(op.key) < len(ref["points"])


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([0.0, 10.0], 99) == pytest.approx(9.9)
    assert math.isfinite(run.percentile([7.0], 99))


def test_interpreter_time_ends_when_the_code_has_run():
    # the child's own reading ends the interval: the sleep is counted,
    # and a wait for the child that polls in 50 ms steps is not
    took = run._interpreter_s("import time; time.sleep(0.2)")
    assert 0.2 <= took < 5.0
