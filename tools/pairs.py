"""Run the benchmark on two versions of udwmi in alternating pairs.

    python tools/pairs.py OLD NEW --workload W [--workload W2 ...] \
        --seeds 601-610 [--seconds 15] [--out FILE]

OLD and NEW are git revisions of this repository, each resolved to its
commit with git rev-parse and extracted fresh with git archive
(tables.checkout). For each seed, and for each workload
in turn, bench/run.py runs once in each checkout with the same arguments
(--seed S --seconds T --trace 0): a pair. The first seed's pair runs OLD
first, the next NEW first, and so on, so that neither side always meets
the host in the same state. --seeds takes seeds and inclusive ranges
a-b.

A run that prints no result is kept as it ended: its side, seed, exit
status and the tail of its stderr. For every workload and every
end-to-end metric of the NEW checkout's BENCHMARK.json the summary
gives, over the complete pairs (both runs printed a result), per side,
the median and the quartiles (statistics.quantiles(values, n=4), as
bench/spread.py), the number of pairs the NEW side won, the change of
the medians relative to OLD's, the parent's interquartile range,
whether the medians differ by more than it, whether the change stays
within the metric's bound, and whether a gain is shown: NEW won at
least nine tenths of the complete pairs (a tie counts for neither
side) and its median is better than OLD's by more than OLD's
interquartile range; and it counts the runs that printed no result. It prints one line per metric and writes the summary and
every run's result to FILE (default BENCH_<first workload>.json), with
both revisions as typed and the commits they name. The exit status is
0 when every run printed a result that passed its correctness gate,
else 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tables  # noqa: E402

COMMAND = ("python3 bench/run.py --workload <workload> --seed <seed> "
           "--seconds <seconds> --trace 0")


def parse_seeds(items: list[str]) -> list[int]:
    """The seeds of items such as 601, 605-610."""
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def commit_of(revision: str) -> str:
    """The commit that revision names in this repository."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", revision + "^{commit}"],
        cwd=tables.REPO, check=True, capture_output=True,
        text=True).stdout.strip()


def src_sha256(tree: Path) -> str:
    """A digest of the Python sources under tree/src, path by path."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in tree: {"record": its JSON result, the
    last line it prints}, or, for a run that prints none, {"exit": its
    exit status, "stderr_tail": the last 2000 characters of its
    stderr}."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return {"exit": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    return {"record": json.loads(lines[-1])}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of one workload's complete pairs (runs in pairs, in
    order, each with its record): both sides' quartiles, pairs won by
    NEW, the relative change of the medians, OLD's IQR, and whether the
    change exceeds that IQR and stays within the bound; and the count
    of runs with no record. A gain is shown when NEW won at least nine
    tenths of the pairs (ties count for neither) and its median is
    better than OLD's by more than OLD's IQR."""
    complete = [run for i in range(0, len(runs), 2)
                if all("record" in r for r in runs[i:i + 2])
                for run in runs[i:i + 2]]
    old = [r["record"] for r in complete if r["side"] == "old"]
    new = [r["record"] for r in complete if r["side"] == "new"]
    out = {"pairs": len(new),
           "seeds": [r["seed"] for r in complete if r["side"] == "new"],
           "all_correct": all(r["correct"] for r in old + new),
           "failed": {"old": sum(r["failed"] for r in old),
                      "new": sum(r["failed"] for r in new)},
           "runs_without_result": sum("record" not in r for r in runs)}
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "higher"
                                      else -1.0)
        if not new or not all(name in r["metrics"] for r in old + new):
            continue
        a = [r["metrics"][name]["value"] for r in old]
        b = [r["metrics"][name]["value"] for r in new]
        qa, qb = quartiles(a), quartiles(b)
        rel = (qb["median"] - qa["median"]) / qa["median"]
        iqr = qa["q3"] - qa["q1"]
        won = sum(sign * (y - x) > 0.0 for x, y in zip(a, b))
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "old": qa, "new": qb,
            "pairs_won_by_new": won,
            "median_change_rel": rel,
            "old_iqr": iqr,
            "beyond_old_iqr": abs(qb["median"] - qa["median"]) > iqr,
            "bound": metric["bound"],
            "within_bound": sign * rel >= -metric["bound"],
            "gain_shown": (won >= 0.9 * len(b) and
                           sign * (qb["median"] - qa["median"]) > iqr),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="git revision")
    parser.add_argument("new", help="git revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    out = Path(args.out or f"BENCH_{args.workload[0]}.json")
    commits = {"old": commit_of(args.old), "new": commit_of(args.new)}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: tables.checkout(commit, Path(scratch) / side)
                 for side, commit in commits.items()}
        metrics = json.loads((trees["new"] / "BENCHMARK.json").read_text()
                             )["end_to_end"]
        runs = []
        for i, seed in enumerate(seeds):
            for workload in args.workload:
                sides = ("old", "new") if i % 2 == 0 else ("new", "old")
                for position, side in enumerate(sides, 1):
                    run = run_bench(trees[side], workload, seed,
                                    args.seconds)
                    runs.append({"workload": workload, "seed": seed,
                                 "side": side, "position_in_pair": position,
                                 **run})
                    if "record" not in run:
                        print(f"{workload} seed {seed} {side}: no result, "
                              f"exit {run['exit']}", flush=True)
                        continue
                    record = run["record"]
                    print(f"{workload} seed {seed} {side}: "
                          f"correct {record['correct']}, points_per_s "
                          f"{record['metrics']['points_per_s']['value']:.1f}",
                          flush=True)
        digests = {side: src_sha256(tree) for side, tree in trees.items()}
    summary = {w: summarise([r for r in runs if r["workload"] == w], metrics)
               for w in args.workload}
    out.write_text(json.dumps({
        "old": args.old, "new": args.new, "commits": commits,
        "src_sha256": digests,
        "command": COMMAND, "seconds": args.seconds, "seeds": seeds,
        "order": "per seed, the workloads in turn; each a pair, OLD first "
                 "on the first seed's pairs, NEW first on the next, "
                 "alternating",
        "quartiles": "statistics.quantiles(values, n=4), as bench/spread.py",
        "summary": summary, "runs": runs}, indent=1) + "\n")
    for workload, s in summary.items():
        print(f"{workload}: {s['pairs']} pairs, all correct "
              f"{s['all_correct']}, failed {s['failed']}, runs without "
              f"a result {s['runs_without_result']}")
        for name, m in s.items():
            if isinstance(m, dict) and "old" in m and "unit" in m:
                print(f"  {name}: median {m['old']['median']:.4g} -> "
                      f"{m['new']['median']:.4g} {m['unit']} "
                      f"({m['median_change_rel']:+.1%}), new won "
                      f"{m['pairs_won_by_new']} of {s['pairs']}, old IQR "
                      f"{m['old_iqr']:.3g}, beyond it "
                      f"{m['beyond_old_iqr']}, within bound "
                      f"{m['within_bound']}, gain shown {m['gain_shown']}")
    print(f"wrote {out}")
    return 0 if all(s["all_correct"] and not s["runs_without_result"]
                    for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
