"""The diff logic of tools/tables.py on small synthetic tables."""

import importlib.util
import json
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "tables.py"
_SPEC = importlib.util.spec_from_file_location("tables", _PATH)
tables = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tables)

OLD = """sep,P_A,I,err,status
0.1,0.5,0.01,0.002,ok
0.2,0.5,nan,nan,fail:DomainError:p_a + p_b = 1.2 exceeds 1
0.3,0.5,0.03,0.001,warn:perturbative
"""
NEW = """sep,P_A,I,err,status
0.1,0.5,0.0125,0.002,ok
0.2,0.5,0.02,0.001,warn:perturbative
0.3,0.5,0.03,0.001,warn:perturbative;tolerance
"""


def test_identical_tables_have_no_differences():
    d = tables.diff_file("t.csv", OLD, OLD)
    assert d["classes"] == [] and d["text_changes"] == 0
    assert all(delta == 0.0 for delta, _ in d["largest"].values())
    assert tables.report("t.csv", OLD, OLD) == ["t.csv: byte-identical"]


def test_largest_change_per_column_and_class_changes():
    d = tables.diff_file("t.csv", OLD, NEW)
    # NaN on one side only is an infinite change, and it is the largest
    assert d["largest"]["I"] == (math.inf, "1")
    assert d["largest"]["P_A"] == (0.0, "0")
    assert d["largest"]["sep"] == (0.0, "0")
    assert d["classes"] == [("status", "1", "fail", "warn")]
    # warn:perturbative -> warn:perturbative;tolerance keeps its class
    assert d["text_changes"] == 1
    assert tables.report("t.csv", OLD, NEW) == [
        "t.csv: differs",
        "  I: max |delta| inf at row 1, relative inf at row 1",
        "  err: max |delta| inf at row 1, relative inf at row 1",
        "  I beyond err_old + err_new: 1 rows, worst |delta I| / "
        "(err_old + err_new) inf at row 1",
        "  status row 1: class fail -> warn",
        "  1 other text cells changed",
    ]
    # without the NaN row the largest finite change is found, with its row
    finite = tables.diff_file("t.csv", OLD.replace("nan", "0.02"), NEW)
    assert finite["largest"]["I"] == (0.0125 - 0.01, "0")


def test_largest_relative_change_per_column():
    # a last-bit change of a large value reads as about 1e-16 relative,
    # beside the larger relative change of a small value; a column with
    # no change has no line
    old = "P,Q\n0.3,1\n1e-20,2\n0,3\n"
    new = "P,Q\n0.30000000000000004,1\n1.5e-20,2\n0,3\n"
    d = tables.diff_file("t.csv", old, new)
    assert d["largest"]["P"] == (0.30000000000000004 - 0.3, "0")
    assert d["relative"]["P"] == ((1.5e-20 - 1e-20) / 1.5e-20, "1")
    assert d["relative"]["Q"] == (0.0, "0")
    same = tables.diff_file("t.csv", old, new.replace("1.5e-20", "1e-20"))
    assert same["relative"]["P"][1] == "0"
    assert math.isclose(same["relative"]["P"][0], 1.85e-16, rel_tol=0.01)
    assert tables.report("t.csv", old, new)[1:] == [
        "  P: max |delta| 5.55e-17 at row 0, relative 0.333 at row 1"]


def test_rows_whose_change_in_I_exceeds_both_errors():
    old = "I,err\n0.01,0.001\n0.02,0.001\n0.03,0.001\nnan,nan\n"
    # row 0 moves by 0.75 of err_old + err_new, row 1 by 2.2 of it;
    # row 3 has no I on either side
    new = "I,err\n0.0115,0.001\n0.0233,0.0005\n0.03,0.001\nnan,nan\n"
    count, worst, row = tables.diff_file("t.csv", old, new)["beyond_err"]
    assert (count, row) == (1, "1")
    assert math.isclose(worst, 0.0033 / 0.0015)
    assert tables.diff_file("t.csv", old, old)["beyond_err"] == (0, 0.0, "0")


def test_reports_diff_by_point():
    old = {"ok": True, "rel_tol": 1e-3,
           "response": {"points": [{"value": 1.0, "c": [0.5, 0.0]},
                                   {"value": 2.0, "c": [0.25, 0.0]},
                                   {"value": 3.0, "c": [0.0, 0.0]}]}}
    new = json.loads(json.dumps(old))
    new["ok"] = False
    new["response"]["points"][2]["value"] = 3.5
    new["response"]["points"][1]["c"][1] = 1e-17
    d = tables.diff_file("r.json", json.dumps(old), json.dumps(new))
    assert d["largest"]["response.points[].value"] == (0.5, "2")
    assert d["largest"]["response.points[].c[1]"] == (1e-17, "1")
    assert d["largest"]["rel_tol"] == (0.0, "-")
    assert d["classes"] == [("ok", "-", "true", "false")]
    assert tables.report("r.json", None, "{}") == ["r.json: missing in old"]


def test_complex_leaf_change_is_relative_to_its_magnitude():
    # a [re, im] pair's imaginary part moving in the roundoff around zero
    # beside a real part of 1 is a change of about 2e-17 of the number,
    # not of its imaginary part
    old = {"points": [{"oracle": [1.0, 1e-17]}]}
    new = {"points": [{"oracle": [1.0, 3e-17]}]}
    d = tables.diff_file("r.json", json.dumps(old), json.dumps(new))
    rel, row = d["relative"]["points[].oracle[1]"]
    assert row == "0"
    assert math.isclose(rel, 2e-17 / (1.0 + 3e-17))


def test_json_table_rows_are_its_list_items():
    # a JSON table (udwmi sweep --format json) or the records udwmi mi
    # prints: the items of the top-level list are the rows, with the
    # columns of a CSV table, so I is checked against err as there
    old = [{"sep": 0.1, "I": 0.01, "err": 0.001, "status": "ok"},
           {"sep": 0.2, "I": 0.02, "err": 0.001, "status": "ok"}]
    new = json.loads(json.dumps(old))
    new[1].update(I=0.0233, err=0.0005, status="warn:perturbative")
    d = tables.diff_file("t.json", json.dumps(old), json.dumps(new))
    assert d["largest"]["I"] == (0.0233 - 0.02, "1")
    assert d["classes"] == [("status", "1", "ok", "warn")]
    count, worst, row = d["beyond_err"]
    assert (count, row) == (1, "1")
    assert math.isclose(worst, 0.0033 / 0.0015)
    # a report without an I column has no such count
    assert "beyond_err" not in tables.diff_file("r.json", '{"a": 1}',
                                                '{"a": 2}')


def test_onset_curves_are_benchmark_onset_curves(tmp_path, monkeypatch):
    # each onset config, written to a file as the tool writes it, loads
    # as the benchmark's onset_scan curve of its bracket: one near the
    # mirror and one far from it
    import sys

    import udwmi

    path = _PATH.parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    brackets = set()
    for name, curve in tables.ONSET_CURVES.items():
        config = tmp_path / (name + ".json")
        config.write_text(json.dumps(curve))
        dz, accel = curve["dz"], curve["accel"]
        assert accel in workloads.ONSET_GRIDS[dz]
        assert udwmi.sweep.load_config(str(config)) == \
            workloads.onset_spec(udwmi, dz, accel)
        brackets.add(dz)
    assert brackets == set(workloads.ONSET_GRIDS)
