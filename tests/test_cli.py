"""Exit codes and output shapes of the command line front-end."""
import json
import math
import subprocess
import sys

import pytest

import udwmi
from udwmi import correlation, response
from udwmi.cli import main
from udwmi.infomeasure import PerturbativeRegimeWarning
from udwmi.sweep import COLUMNS, SweepAxis, SweepSpec, run_sweep

CHEAP_POINT = ["--gap-a", "0.5", "--accel", "0.1", "--radius", "1.0",
               "--sep", "1.0", "--dz", "0.5"]


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestResponseCommand:
    def test_boundary_point(self, capsys):
        rc, out, err = run_cli(capsys, [
            "response", "--gap", "0.5", "--accel", "0.1", "--radius", "1.0",
            "--dz", "0.5"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["converged"]
        assert payload["total"] > 0.0
        parts = (payload["term_bounded"] + payload["term_pv"]
                 + payload["term_inertial"] + payload["term_pole"])
        assert parts == pytest.approx(payload["total"], rel=1e-12)
        assert payload["pole_location"] > 0.0

    def test_free_space_point(self, capsys):
        rc, out, err = run_cli(capsys, [
            "response", "--gap", "0.5", "--accel", "0.1", "--radius", "1.0",
            "--free-space"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["term_pv"] == 0.0
        assert payload["term_pole"] == 0.0
        assert payload["pole_location"] is None

    def test_dz_and_free_space_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["response", "--gap", "0.5", "--dz", "0.5", "--free-space"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["response", "--gap", "0.5"])
        assert exc.value.code == 2

    def test_invalid_physics_is_config_error(self, capsys):
        rc, out, err = run_cli(capsys, [
            "response", "--gap", "0.5", "--radius", "-1.0", "--dz", "0.5"])
        assert rc == 1
        assert "config error" in err


class TestCorrelationCommand:
    def test_equal_kinematics_uses_reduced_method(self, capsys):
        rc, out, err = run_cli(capsys, ["correlation", *CHEAP_POINT])
        assert rc == 0
        payload = json.loads(out)
        assert payload["method"] == "reduced"
        assert payload["converged"]
        re_c, im_c = payload["c_total"]
        re_c1, _ = payload["c_free"]
        re_c2, _ = payload["c_boundary"]
        assert re_c == pytest.approx(re_c1 - re_c2, abs=1e-15)
        # equal gaps and kinematics force a real correlation
        assert abs(im_c) < 1e-12

    def test_detuned_pair(self, capsys):
        rc, out, err = run_cli(capsys, [
            "correlation", *CHEAP_POINT, "--gap-b", "0.75"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["method"] == "reduced"
        assert math.hypot(*payload["c_total"]) > 0.0


class TestMiCommand:
    def test_point_record(self, capsys):
        rc, out, err = run_cli(capsys, ["mi", *CHEAP_POINT])
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {"P_A", "P_B", "ReC", "ImC", "absC",
                                "ReC1", "ImC1", "ReC2", "ImC2",
                                "Lplus", "Lminus", "I", "slack", "err"}
        assert payload["I"] >= 0.0
        assert payload["absC"] == pytest.approx(
            math.hypot(payload["ReC"], payload["ImC"]), rel=1e-14)
        assert payload["slack"] > 0.0

    def test_roundoff_negative_probability_rounds_to_zero(self, capsys):
        # P_B vanishes up to roundoff here (about -1e-17 against an error
        # estimate near 6e-10); within its error bar it is zero, not an
        # unphysical input
        rc, out, err = run_cli(capsys, [
            "mi", "--gap-a", "0.9434462073905755",
            "--gap-b", "10.37790828129633", "--accel", "0.7788225683062892",
            "--radius", "10.0", "--sep", "4.536405464772817",
            "--dz", "0.44481925752216145"])
        assert rc == 0, err
        assert json.loads(out)["P_B"] == 0.0

    def test_invalid_dz_is_config_error(self, capsys):
        rc, out, err = run_cli(capsys, [
            "mi", "--gap-a", "0.5", "--dz", "0"])
        assert rc == 1
        assert "config error" in err

    def test_failed_point_is_not_config_error(self, capsys):
        # a valid pair whose P_A + P_B exceeds 1: evaluating the point
        # fails, the configuration is fine
        with pytest.warns(PerturbativeRegimeWarning):
            rc, out, err = run_cli(capsys, [
                "mi", "--accel", "30", "--radius", "1", "--sep", "1",
                "--dz", "1"])
        assert rc == 2
        assert "config error" not in err
        assert "point failed" in err and "exceeds 1" in err
        assert out == ""

    def test_invalid_tol_is_config_error(self, capsys):
        rc, out, err = run_cli(capsys, ["mi", *CHEAP_POINT, "--tol", "-1"])
        assert rc == 1
        assert "config error" in err

    def test_missed_tolerance_exits_2(self, capsys):
        # at tol 1e-12 the bounded response term stops at its roundoff
        # floor: the record is printed, but the point did not converge
        with pytest.warns(PerturbativeRegimeWarning):
            rc, out, err = run_cli(capsys, [
                "mi", "--gap-a", "0.5", "--accel", "5", "--radius", "10",
                "--sep", "1", "--free-space", "--tol", "1e-12"])
        assert rc == 2
        assert math.isfinite(json.loads(out)["I"])


class TestSweepCommand:
    @pytest.fixture()
    def config_path(self, tmp_path):
        cfg = {
            "name": "cli-tiny",
            "axis": {"name": "sep", "start": 0.5, "stop": 1.5, "points": 3},
            "gap_a": 0.5, "accel": 0.1, "radius": 1.0, "dz": 0.5,
        }
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_csv_output(self, capsys, tmp_path, config_path):
        out_path = tmp_path / "out.csv"
        rc, out, err = run_cli(capsys, [
            "sweep", "--config", str(config_path), "--out", str(out_path),
            "--workers", "1"])
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 4

    def test_json_output(self, capsys, tmp_path, config_path):
        out_path = tmp_path / "out.json"
        rc, out, err = run_cli(capsys, [
            "sweep", "--config", str(config_path), "--out", str(out_path),
            "--format", "json", "--workers", "1"])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert len(payload) == 3
        assert all(row["status"] == "ok" for row in payload)

    def test_missing_preset_is_config_error(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, [
            "sweep", "--config", "no_such_preset",
            "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "config error" in err
        assert "fig2a" in err

    @pytest.mark.parametrize("ratios", [5, None])
    def test_bad_config_is_config_error(self, capsys, tmp_path, ratios):
        cfg = {"axis": {"name": "sep", "start": 0.5, "stop": 1.5,
                        "points": 3}, "dz": 0.5, "gap_ratios": ratios}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        rc, out, err = run_cli(capsys, [
            "sweep", "--config", str(p), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "config error: gap_ratios must be a list" in err

    def test_unwritable_output_is_io_error(self, capsys, tmp_path,
                                           config_path):
        rc, out, err = run_cli(capsys, [
            "sweep", "--config", str(config_path),
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
            "--workers", "1"])
        assert rc == 1
        assert "i/o error" in err

    def test_failing_points_exit_code(self, capsys, tmp_path, config_path,
                                      monkeypatch):
        from udwmi import sweep as sweep_mod

        def always_fail(det, dz, tol, free=None):
            raise RuntimeError("forced point failure")

        monkeypatch.setattr(sweep_mod, "transition_probability", always_fail)
        out_path = tmp_path / "out.csv"
        rc, out, err = run_cli(capsys, [
            "sweep", "--config", str(config_path), "--out", str(out_path),
            "--workers", "1"])
        assert rc == 2
        assert "3 of 3 points failed" in err
        lines = out_path.read_text().splitlines()
        assert all("fail:RuntimeError" in line for line in lines[1:])


class TestVerifyCommand:
    @pytest.fixture()
    def grid_path(self, tmp_path):
        grid = {
            "response_points": [
                {"gap": 0.5, "accel": 0.1, "radius": 1.0, "dz": 0.5}],
            "correlation_points": [
                {"gap_a": 0.5, "gap_b": 0.5, "accel": 0.1, "radius": 1.0,
                 "sep": 1.0, "dz": 0.5}],
        }
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(grid))
        return p

    def test_passing_grid(self, capsys, grid_path):
        rc, out, err = run_cli(capsys, [
            "verify", "--grid", str(grid_path), "--workers", "1"])
        assert rc == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["response"]["max_rel_dev"] <= 1e-3
        assert report["correlation"]["max_rel_dev"] <= 1e-3

    def test_report_to_file(self, capsys, tmp_path, grid_path):
        out_path = tmp_path / "report.json"
        rc, out, err = run_cli(capsys, [
            "verify", "--grid", str(grid_path), "--out", str(out_path),
            "--workers", "1"])
        assert rc == 0
        assert out == ""
        assert json.loads(out_path.read_text())["ok"]

    def test_unattainable_tolerance_exits_3(self, capsys, tmp_path):
        grid = {
            "rel_tol": 1e-16,
            "response_points": [
                {"gap": 0.5, "accel": 0.1, "radius": 1.0, "dz": 0.5}],
        }
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(grid))
        rc, out, err = run_cli(capsys, [
            "verify", "--grid", str(p), "--workers", "1"])
        assert rc == 3
        assert "oracle suite FAILED" in err

    def test_missing_grid_is_config_error(self, capsys):
        rc, out, err = run_cli(capsys, ["verify", "--grid", "nope"])
        assert rc == 1
        assert "config error" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_grid_point_is_config_error(self, capsys, tmp_path, workers):
        bad = {"gap": 0.1, "accel": 1.0, "radius": -1.0, "dz": 1.0}
        p = tmp_path / "grid.json"
        p.write_text(json.dumps({"response_points": [bad, bad]}))
        rc, out, err = run_cli(capsys, [
            "verify", "--grid", str(p), "--workers", workers])
        assert rc == 1
        assert "radius must be positive" in err
        # malformed grids are rejected before any point runs
        good = {"gap": 0.1, "accel": 1.0, "radius": 1.0}
        for grid in ({"response_points": [5]},
                     {"response_points": [{"gap": 0.1, "radius": 1.0}]},
                     {"rel_tol": "x", "response_points": [good]},
                     {"response_points": [good], "correlation_points": 3}):
            p.write_text(json.dumps(grid))
            rc, out, err = run_cli(capsys, [
                "verify", "--grid", str(p), "--workers", workers])
            assert (rc, "config error" in err) == (1, True), grid


class TestNoProductionOracle:
    # the definition-level oracles judge the reduced formulas; no
    # evaluation path may fall back on them, static detectors included.
    # pytest.fail raises past the sweep's per-point isolation and the
    # CLI's error handlers.
    @pytest.fixture(autouse=True)
    def forbid_oracles(self, monkeypatch):
        oracles = (response.transition_probability_oracle_result,
                   correlation.correlation_general_result)

        def forbidden(*args, **kwargs):
            pytest.fail("a production path called an oracle")

        modules = [m for name, m in sys.modules.items()
                   if name == "udwmi" or name.startswith("udwmi.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if any(value is o for o in oracles):
                    monkeypatch.setattr(module, name, forbidden)
        assert udwmi.correlation_general_result is forbidden

    def test_sweep_with_static_and_rotating_points(self):
        spec = SweepSpec(axis=SweepAxis(name="accel", start=0.0, stop=1.0,
                                        points=3),
                         gap_a=0.5, gap_ratios=(0.0, 0.5), radius=1.0,
                         sep=1.0, dz=0.5)
        rows = run_sweep(spec, workers=1)
        assert [r.accel for r in rows[:3]] == [0.0, 0.5, 1.0]
        assert all(r.status == "ok" for r in rows)

    # the last --accel on a command line wins
    @pytest.mark.parametrize("argv", [
        ["mi", *CHEAP_POINT, "--accel", "0"],
        ["mi", "--gap-a", "0.5", "--accel", "0", "--free-space"],
        ["response", "--gap", "0.5", "--accel", "0", "--dz", "0.5"],
        ["correlation", *CHEAP_POINT, "--accel", "0"],
    ], ids=["mi", "mi-free-space", "response", "correlation"])
    def test_static_point_commands(self, capsys, argv):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 0, err
        assert json.loads(out)


class TestParserBasics:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["orbit"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "udwmi.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("response", "correlation", "mi", "sweep", "verify"):
            assert sub in proc.stdout
