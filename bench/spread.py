"""Run the benchmark repeatedly and summarise each metric's spread.

    python3 bench/spread.py --workloads presets onset_scan --runs 10 \
        --seconds 15 --first-seed 1 [--traced] [--out bench/baseline.json]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the summary gives the median of the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
which must stay below the metric's bound in BENCHMARK.json. With
``--traced`` each workload also gets one traced run on the first seed,
and the tracing overhead: its normalised time in package calls over
that of the untraced run with the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["summary"] = lines[-2] if len(lines) > 1 else ""
    result["seed"] = seed
    result["process_wall_s"] = wall
    record = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed{seed}"
                         f"-trace{1 if trace else 0}.json").read_text())
    for key in ("env", "fail_frac", "raw_metrics", "probe_kernel_s",
                "setup_pairs_s"):
        if key in record:
            result[key] = record[key]
    if "point_ms_p99" in record["metrics"]:
        result["point_ms_p99"] = record["metrics"]["point_ms_p99"]
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "min": min(values), "max": max(values)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, default=None,
                        help="write runs and summaries as JSON here")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(workload, seed, args.seconds, False)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"wall={res['process_wall_s']:.1f}s  {res['summary']}",
                  flush=True)
        summary = summarise(runs)
        kernel = [r["probe_kernel_s"] for r in runs]
        q1, _, q3 = (statistics.quantiles(kernel, n=4) if len(kernel) > 1
                     else (kernel[0],) * 3)
        med = statistics.median(kernel)
        summary["probe_kernel_s"] = {"unit": "s", "median": med, "q1": q1,
                                     "q3": q3, "spread": (q3 - q1) / med,
                                     "min": min(kernel), "max": max(kernel)}
        for name, s in summary.items():
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}"
                  f"  spread {s['spread']:.4f}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
        if args.traced:
            traced = run_once(workload, args.first_seed, args.seconds, True)
            first = runs[0]
            busy = first["attempted"] / first["metrics"]["points_per_s"]["value"]
            overhead = traced["metrics"]["trace.wall_s"]["value"] / busy
            report[workload]["traced"] = traced
            report[workload]["tracing_overhead"] = overhead
            print(f"  {workload} traced seed {args.first_seed}: "
                  f"correct={traced['correct']} overhead {overhead:.3f}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
