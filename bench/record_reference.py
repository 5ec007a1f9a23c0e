"""Record the reference outputs of every workload's input universe.

    python3 bench/record_reference.py [--workers 2] [workload ...]

Writes data/<workload>.json (every workload by default) from the package
in this checkout's src/. The committed files were recorded at the baseline commit; re-record
only when the inputs of a workload change, never to make a changed
program pass the gate.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402  (pins thread pools, locates src/)
import workloads  # noqa: E402


def _onset_curve(dz_accel):
    udwmi = run.import_package()
    dz, accel = dz_accel
    op = workloads.Op(f"{dz}:{accel}", workloads.ONSET_POINTS,
                      workloads.onset_spec(udwmi, dz, accel))
    res = workloads.execute(udwmi, "onset_scan", op, 1)
    rows = reference.csv_rows(res.output)
    maxima = udwmi.sweep.count_interior_maxima(
        [reference.number(r["I"]) for r in rows])
    return op.key, reference.onset_reference(rows, maxima)


def _query(argv):
    udwmi = run.import_package()
    res = workloads.execute(udwmi, "point_queries",
                            workloads.Op("", 1, argv), 1)
    return reference.query_reference(*res.output)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    todo = set(args.workloads) or set(workloads.WORKLOADS)
    if todo - set(workloads.WORKLOADS):
        parser.error(f"workloads are {', '.join(workloads.WORKLOADS)}")
    udwmi = run.import_package()
    reference.DATA.mkdir(exist_ok=True)

    def write(name, payload):
        (reference.DATA / f"{name}.json").write_text(
            json.dumps(payload, separators=(",", ":")) + "\n")
        print(f"wrote data/{name}.json", flush=True)

    if "presets" in todo:
        presets = {}
        for name, spec in workloads.preset_specs(udwmi):
            op = workloads.Op(name, 0, spec)
            res = workloads.execute(udwmi, "presets", op, args.workers)
            presets[name] = reference.table_reference(
                reference.csv_rows(res.output))
        write("presets", {"scale": workloads.PRESET_SCALE, "presets": presets})

    if "oracle_grid" in todo:
        grid = udwmi.sweep.load_grid(workloads.ORACLE_GRID)
        report = udwmi.sweep.run_oracle_suite(grid, workers=args.workers)
        write("oracle_grid", reference.oracle_reference(report))

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.workers) as pool:
        if "onset_scan" in todo:
            curves = [(dz, a) for dz, grid_a in workloads.ONSET_GRIDS.items()
                      for a in grid_a]
            write("onset_scan",
                  {"curves": dict(pool.map(_onset_curve, curves))})
        if "point_queries" in todo:
            universe = workloads.query_universe()
            points = pool.map(_query,
                              [workloads.query_argv(q) for q in universe],
                              chunksize=50)
            write("point_queries", {"universe": workloads.QUERY_UNIVERSE,
                                    "seed": workloads.QUERY_UNIVERSE_SEED,
                                    "points": points})
    return 0


if __name__ == "__main__":
    sys.exit(main())
