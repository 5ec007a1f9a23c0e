"""The seed parsing, commit lookup and pair summary of tools/pairs.py,
on synthetic runs and a scratch repository, and its record of a run
that prints no result, on faked runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_pairs(monkeypatch):
    # pairs imports its sibling tables by name
    monkeypatch.syspath_prepend(str(_TOOLS))
    spec = importlib.util.spec_from_file_location("pairs", _TOOLS / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "pairs", pairs)
    spec.loader.exec_module(pairs)
    return pairs


def run(side, seed, rate, p50, correct=True, failed=0):
    return {"workload": "w", "seed": seed, "side": side, "record": {
        "correct": correct, "failed": failed,
        "metrics": {"points_per_s": {"value": rate},
                    "point_ms_p50": {"value": p50}}}}


METRICS = [
    {"name": "points_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.2},
    {"name": "point_ms_p50", "unit": "ms", "better": "lower",
     "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def test_seeds_and_ranges(monkeypatch):
    pairs = load_pairs(monkeypatch)
    assert pairs.parse_seeds(["601-603", "7", "9-9"]) == [601, 602, 603, 7, 9]


def test_summary_counts_pairs_won_by_the_better_direction(monkeypatch):
    pairs = load_pairs(monkeypatch)
    runs = []
    for seed, old, new in ((1, 100.0, 120.0), (2, 104.0, 118.0),
                           (3, 98.0, 97.0), (4, 102.0, 125.0)):
        runs += [run("old", seed, old, 10.0 / old),
                 run("new", seed, new, 10.0 / new)]
    s = pairs.summarise(runs, METRICS)
    assert (s["pairs"], s["seeds"], s["all_correct"]) == (4, [1, 2, 3, 4],
                                                           True)
    rate = s["points_per_s"]
    # higher is better for a rate, lower for a time: the same pairs win
    assert rate["pairs_won_by_new"] == 3
    assert s["point_ms_p50"]["pairs_won_by_new"] == 3
    assert rate["old"]["median"] == 101.0 and rate["new"]["median"] == 119.0
    assert rate["beyond_old_iqr"] and rate["within_bound"]
    assert s["point_ms_p50"]["median_change_rel"] < 0.0
    # a metric the runs do not report is left out
    assert "setup_s" not in s


def test_summary_flags_a_regression_beyond_the_bound(monkeypatch):
    pairs = load_pairs(monkeypatch)
    runs = [run("old", 1, 100.0, 1.0), run("new", 1, 70.0, 1.4),
            run("old", 2, 100.0, 1.0), run("new", 2, 75.0, 1.3,
                                           correct=False, failed=2)]
    s = pairs.summarise(runs, METRICS)
    assert not s["all_correct"] and s["failed"] == {"old": 0, "new": 2}
    assert not s["points_per_s"]["within_bound"]
    assert not s["point_ms_p50"]["within_bound"]
    assert s["points_per_s"]["pairs_won_by_new"] == 0


def test_revisions_resolve_to_commits(monkeypatch, tmp_path):
    # a run given HEAD or a branch records the commit it names
    pairs = load_pairs(monkeypatch)

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
            text=True).stdout.strip()

    git("init", "-q")
    git("commit", "-q", "--allow-empty", "-m", "first")
    first = git("rev-parse", "HEAD")
    git("commit", "-q", "--allow-empty", "-m", "second")
    monkeypatch.setattr(pairs.tables, "REPO", tmp_path)
    assert pairs.commit_of("HEAD~1") == first
    assert pairs.commit_of("HEAD") == git("rev-parse", "HEAD") != first
    assert pairs.commit_of(first[:8]) == first
    with pytest.raises(subprocess.CalledProcessError):
        pairs.commit_of("no-such-revision")


def test_a_run_without_a_result_keeps_the_other_pairs(monkeypatch, tmp_path,
                                                      capsys):
    # one bench/run.py run crashes: it is recorded with its side, seed,
    # exit status and stderr tail, the summary is over the other pairs,
    # and the exit status is 1
    pairs = load_pairs(monkeypatch)
    monkeypatch.setattr(pairs, "commit_of", lambda revision: revision * 8)

    def checkout(commit, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": METRICS}))
        return dest

    def bench_run(cmd, cwd, **kwargs):
        seed, side = int(cmd[cmd.index("--seed") + 1]), Path(cwd).name
        if (seed, side) == (2, "new"):
            return subprocess.CompletedProcess(
                cmd, 1, "", "Traceback (most recent call last):\n"
                "statistics.StatisticsError: fmean requires at least one "
                "data point\n")
        rate = 100.0 + seed + (10.0 if side == "new" else 0.0)
        record = run(side, seed, rate, 10.0 / rate)["record"]
        return subprocess.CompletedProcess(cmd, 0,
                                           "warming\n" + json.dumps(record),
                                           "")

    monkeypatch.setattr(pairs.tables, "checkout", checkout)
    monkeypatch.setattr(subprocess, "run", bench_run)
    out = tmp_path / "pairs.json"
    assert pairs.main(["a", "b", "--workload", "w", "--seeds", "1-3",
                       "--out", str(out)]) == 1
    written = json.loads(out.read_text())
    crashed = [r for r in written["runs"] if "record" not in r]
    assert crashed == [{"workload": "w", "seed": 2, "side": "new",
                        "position_in_pair": 1, "exit": 1,
                        "stderr_tail": "Traceback (most recent call last):\n"
                        "statistics.StatisticsError: fmean requires at "
                        "least one data point\n"}]
    assert len(written["runs"]) == 6
    s = written["summary"]["w"]
    assert (s["pairs"], s["seeds"], s["runs_without_result"]) == (2, [1, 3],
                                                                   1)
    assert s["all_correct"]
    assert s["points_per_s"]["pairs_won_by_new"] == 2
    assert s["points_per_s"]["old"]["median"] == 102.0
    assert "runs without a result 1" in capsys.readouterr().out


def test_gain_shown_needs_nine_tenths_of_the_pairs_and_the_iqr(
        monkeypatch, tmp_path, capsys):
    # hand-made runs of ten seeds through main: the rate wins 9 pairs
    # and ties 1, beyond OLD's IQR, a gain; the p50 time wins 8 (two
    # ties count for neither side), no gain; a metric that wins every
    # pair by less than OLD's IQR shows none either
    pairs = load_pairs(monkeypatch)
    monkeypatch.setattr(pairs, "commit_of", lambda revision: revision * 8)
    metrics = METRICS[:2] + [{"name": "setup_s", "unit": "s",
                              "better": "lower", "bound": 0.25}]

    def checkout(commit, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": metrics}))
        return dest

    def bench_run(cmd, cwd, **kwargs):
        seed, side = int(cmd[cmd.index("--seed") + 1]), Path(cwd).name
        rate = 100.0 + 4.0 * (seed % 3)
        p50 = 2.0 + 0.1 * (seed % 3)
        setup = 1.0 + 0.1 * (seed % 2)
        if side == "new":
            rate += 0.0 if seed == 5 else 20.0
            p50 -= 0.0 if seed in (5, 6) else 0.5
            setup -= 0.01
        record = run(side, seed, rate, p50)["record"]
        record["metrics"]["setup_s"] = {"value": setup}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(record), "")

    monkeypatch.setattr(pairs.tables, "checkout", checkout)
    monkeypatch.setattr(subprocess, "run", bench_run)
    out = tmp_path / "pairs.json"
    assert pairs.main(["a", "b", "--workload", "w", "--seeds", "1-10",
                       "--out", str(out)]) == 0
    s = json.loads(out.read_text())["summary"]["w"]
    rate, p50, setup = s["points_per_s"], s["point_ms_p50"], s["setup_s"]
    assert (rate["pairs_won_by_new"], rate["gain_shown"]) == (9, True)
    assert p50["beyond_old_iqr"]
    assert (p50["pairs_won_by_new"], p50["gain_shown"]) == (8, False)
    assert setup["pairs_won_by_new"] == 10 and not setup["beyond_old_iqr"]
    assert not setup["gain_shown"]
    printed = capsys.readouterr().out
    assert "points_per_s" in printed and "gain shown True" in printed
    assert "gain shown False" in printed
