"""Compare the tables and oracle reports of two versions of udwmi.

    python tools/tables.py OLD NEW [--workers N] [--out DIR]

OLD and NEW are git revisions of this repository, each extracted fresh
with git archive. Each version writes, in a process of its own, the CSV
table of every fig* preset (udwmi sweep), the CSV table of each
criterion-7 curve of ONSET_CURVES (udwmi sweep on a config file written
for it), the JSON tables of the presets in JSON_TABLES, the reports of
the oracle_grid, oracle_corners
and oracle_grid_smoke grids (udwmi verify), and the records that udwmi
response, correlation and mi print for each argument list of POINTS
(one file per command: a list of the exit status, record and stderr of
each point, warnings in stderr without the file and line that raised
them), all at the given worker count, into DIR/old and DIR/new (a
temporary directory unless --out is given).

For each file the report says whether it is byte-identical. For a file
that is not, it lists for each changed numeric column its largest
|new - old| and its largest relative change |new - old| / max(|old|,
|new|), each with the row where it occurs (a difference of summation
order reads as about 1e-16; |re| + |im| stands for |x| in a leaf of a
complex number's [re, im] pair), the rows whose ok/warn/fail class changed
(the text of a cell before its first ':'; true/false for a flag), and
how many other text cells changed. For a file with an I column (a
table, or the records of udwmi mi) it also counts the rows whose
|I_new - I_old| exceeds err_old + err_new, and gives the worst ratio of
the two with its row. A JSON file's column is the path of a leaf; its
row is the index of the point the leaf belongs to, and the items of a
top-level list are rows with the paths of their own leaves. The exit
status is 0 when every file is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ORACLE_GRIDS = ("oracle_grid", "oracle_corners", "oracle_grid_smoke")
JSON_TABLES = ("fig7a",)
# the sweep configs of one dense criterion-7 curve per onset bracket, by
# table name: equal gaps of 0.1, R = 0.02, 240 separations from 0.1 to
# 8, near the mirror at a = 2 and far from it at a = 3.7
ONSET_CURVES = {
    f"onset_dz{dz:g}_a{accel:g}": {
        "axis": {"name": "sep", "start": 0.1, "stop": 8.0, "points": 240},
        "gap_a": 0.1, "accel": accel, "radius": 0.02, "dz": dz}
    for dz, accel in ((0.1, 2.0), (5.0, 3.7))
}
# the single points whose printed records are compared, each as the
# arguments of its detector (all that udwmi response takes) and those of
# the pair: a rotating pair near the mirror, detuned gaps, the
# criterion-7 orbit, a pole beyond the switching envelope, a static
# pair, free space and a large gamma at a tight tol; then three config
# errors, whose stderr shows what each version says of them: an accel
# that is not finite, a height of 0 and a negative separation (the last
# a valid point of udwmi response, which takes no --sep); query_points
# adds a sample of the benchmark's udwmi mi queries
POINTS = (
    (["--accel", "1", "--radius", "1", "--dz", "0.5"], []),
    (["--accel", "4", "--radius", "0.02", "--dz", "0.2"], ["--gap-b", "0.5"]),
    (["--accel", "3.7", "--radius", "0.02", "--dz", "5"], ["--sep", "2.5"]),
    (["--accel", "0.5", "--radius", "10", "--dz", "20"], []),
    (["--accel", "0", "--dz", "1"], ["--sep", "0.3"]),
    (["--accel", "2", "--radius", "1", "--free-space"], []),
    (["--accel", "40", "--radius", "10", "--dz", "0.1", "--tol", "1e-10"],
     []),
    (["--accel", "nan", "--dz", "1"], []),
    (["--dz", "0"], []),
    (["--dz", "1"], ["--sep", "-1"]),
)


def query_points(seed: int = 43, per_cell: int = 2) -> tuple:
    """A fixed sample of the benchmark's udwmi mi queries
    (bench/workloads.py query_universe), in the form of POINTS: for each
    gap ratio 0, 2 and 10 (gap_b = gap_a (1 + ratio)) and each radius
    0.02, 1 and 10, per_cell pairs drawn from random.Random(seed) with
    gap_a uniform on [0.05, 1], accel log-uniform on [0.1, 40], sep
    uniform on [0.1, 8] and dz log-uniform on [0.1, 10]; then one pair in
    free space and one failed point (P_A + P_B exceeds 1, exit status
    2). Every float is written as repr writes it, as the benchmark
    does."""
    rng = random.Random(seed)

    def log_uniform(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    points = []
    for ratio in (0.0, 2.0, 10.0):
        for radius in (0.02, 1.0, 10.0):
            for _ in range(per_cell):
                gap_a = rng.uniform(0.05, 1.0)
                accel, sep = log_uniform(0.1, 40.0), rng.uniform(0.1, 8.0)
                points.append((
                    ["--accel", repr(accel), "--radius", repr(radius),
                     "--dz", repr(log_uniform(0.1, 10.0))],
                    ["--gap-a", repr(gap_a),
                     "--gap-b", repr(gap_a * (1.0 + ratio)),
                     "--sep", repr(sep)]))
    points.append((["--accel", "3.3", "--radius", "1", "--free-space"],
                   ["--gap-a", "0.4", "--gap-b", "1.2", "--sep", "2.7"]))
    points.append((["--accel", "35", "--radius", "1", "--dz", "0.3"],
                   ["--gap-a", "0.64", "--gap-b", "7", "--sep", "2.2"]))
    return tuple(points)


POINTS += query_points()

# run inside each version, with that version's src first on the path
_WRITE_OUTPUTS = """
import contextlib, io, json, sys, tempfile, warnings
from pathlib import Path
from udwmi import cli
# the file and line of a warning differ between the two trees
warnings.formatwarning = (
    lambda message, category, *where: f"{category.__name__}: {message}\\n")
src, out, workers = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
grids, json_tables, onset_curves, points = json.loads(sys.argv[4])
for config in sorted((src / "udwmi" / "presets").glob("fig*.json")):
    cli.main(["sweep", "--config", config.stem, "--workers", workers,
              "--out", str(out / (config.stem + ".csv"))])
with tempfile.TemporaryDirectory() as configs:
    for name, curve in onset_curves.items():
        config = Path(configs) / (name + ".json")
        config.write_text(json.dumps(curve))
        cli.main(["sweep", "--config", str(config), "--workers", workers,
                  "--out", str(out / (name + ".csv"))])
for config in json_tables:
    cli.main(["sweep", "--config", config, "--workers", workers, "--format",
              "json", "--out", str(out / (config + ".json"))])
for grid in grids:
    cli.main(["verify", "--grid", grid, "--workers", workers,
              "--out", str(out / (grid + ".json"))])
for command in ("response", "correlation", "mi"):
    records = []
    for detector, pair in points:
        argv = [command, *detector, *(pair if command != "response" else [])]
        printed, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(printed), \\
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        records.append({"argv": " ".join(argv), "exit": code,
                        "stderr": stderr.getvalue(),
                        **json.loads(printed.getvalue() or "{}")})
    (out / (command + "_points.json")).write_text(
        json.dumps(records, indent=1) + "\\n")
"""


def checkout(revision: str, dest: Path) -> Path:
    """dest, holding a fresh git archive of revision."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             cwd=REPO, check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def write_outputs(tree: Path, out: Path, workers: int) -> None:
    """The fig* and onset tables, oracle reports and point records of
    the checkout tree, in out."""
    out.mkdir(parents=True)
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _WRITE_OUTPUTS, str(src), str(out),
         str(workers), json.dumps([ORACLE_GRIDS, JSON_TABLES, ONSET_CURVES,
                                      POINTS])],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: writing the outputs failed\n{proc.stderr}")


def csv_columns(text: str) -> dict[str, dict[str, str]]:
    """Each column of a CSV table as {row number: cell}."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return {name: {str(i): row[name] for i, row in enumerate(rows)}
            for name in (rows[0] if rows else {})}


def json_columns(text: str) -> dict[str, dict[str, object]]:
    """Each leaf path of a JSON report as {row: value}: the first list
    index on the path is the row ('-' outside any list), and later
    indices stay in the path; a top-level list adds nothing to it."""
    columns: dict[str, dict[str, object]] = {}

    def walk(node, path, row):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key, row)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                if row == "-":
                    walk(value, f"{path}[]" if path else "", str(i))
                else:
                    walk(value, f"{path}[{i}]", row)
        else:
            columns.setdefault(path, {})[row] = node

    walk(json.loads(text), "", "-")
    return columns


def _number(value) -> float | None:
    """value as a float, or None for text, a flag or null."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _magnitude(columns: dict, name: str, row: str) -> float:
    """|x| of the number in column name at row, or |re| + |im| when it is
    a leaf of a [re, im] pair (sweep._json_number's form of a complex
    number), so that roundoff around zero beside a real part reads as
    small."""
    stem = name[:-3]
    if name.endswith(("[0]", "[1]")) and f"{stem}[2]" not in columns:
        pair = [_number(columns.get(f"{stem}[{i}]", {}).get(row))
                for i in (0, 1)]
        if None not in pair:
            return abs(pair[0]) + abs(pair[1])
    return abs(_number(columns[name][row]))


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "null" if value is None else str(value)


def diff_columns(old: dict, new: dict) -> dict:
    """The differences of two files' columns: for each numeric column
    its largest |new - old| and its largest |new - old| / max(|old|,
    |new|) (|re| + |im| in place of |x| for a leaf of a [re, im] pair),
    each with its row (inf where one side is NaN or missing),
    the (column, row, old class, new class) of each class change, and
    the count of other changed text cells."""
    largest: dict[str, tuple[float, str]] = {}
    relative: dict[str, tuple[float, str]] = {}
    classes, text_changes = [], 0
    for name in sorted(old.keys() | new.keys()):
        a_col, b_col = old.get(name, {}), new.get(name, {})
        for row in sorted(a_col.keys() | b_col.keys(), key=_row_order):
            a, b = a_col.get(row), b_col.get(row)
            x, y = _number(a), _number(b)
            if x is not None and y is not None:
                delta = (0.0 if math.isnan(x) and math.isnan(y)
                         else abs(y - x))
                if math.isnan(delta):  # NaN on one side only
                    delta = math.inf
            elif row not in a_col or row not in b_col:
                delta = math.inf
            else:
                delta = None
                ta, tb = _text(a), _text(b)
                ca, cb = ta.split(":", 1)[0], tb.split(":", 1)[0]
                if ca != cb:
                    classes.append((name, row, ca, cb))
                elif ta != tb:
                    text_changes += 1
            if delta is None:
                continue
            # a finite nonzero delta has two finite sides
            rel = (delta / max(_magnitude(old, name, row),
                               _magnitude(new, name, row))
                   if 0.0 < delta < math.inf else delta)
            for table, change in ((largest, delta), (relative, rel)):
                if name not in table or change > table[name][0]:
                    table[name] = (change, row)
    return {"largest": largest, "relative": relative, "classes": classes,
            "text_changes": text_changes}


def _row_order(row: str):
    return (0, int(row)) if row.isdigit() else (1, row)


def beyond_err(old: dict, new: dict) -> tuple[int, float, str | None]:
    """The rows of two tables' columns whose |new I - old I| exceeds
    err_old + err_new: their count, and the largest ratio of the two
    with its row. The ratio is inf where I is NaN or missing on one side
    only, or where I changed and an err is NaN or missing; rows whose I
    is NaN on both sides have no ratio."""
    def value(columns, name, row) -> float:
        x = _number(columns.get(name, {}).get(row))
        return math.nan if x is None else x

    ratios = []
    for row in sorted(old.get("I", {}).keys() | new.get("I", {}).keys(),
                      key=_row_order):
        i_old, e_old = value(old, "I", row), value(old, "err", row)
        i_new, e_new = value(new, "I", row), value(new, "err", row)
        if math.isnan(i_old) and math.isnan(i_new):
            continue
        delta, bound = abs(i_new - i_old), e_old + e_new
        ratio = (delta / bound if bound > 0.0
                 else 0.0 if delta == 0.0 else math.inf)
        ratios.append((math.inf if math.isnan(ratio) else ratio, row))
    worst, row = max(ratios, key=lambda r: r[0], default=(0.0, None))
    return sum(r > 1.0 for r, _ in ratios), worst, row


def diff_file(name: str, old_text: str, new_text: str) -> dict:
    """diff_columns of two versions of one table (.csv) or JSON file;
    with its beyond_err when it has an I column."""
    columns = csv_columns if name.endswith(".csv") else json_columns
    old, new = columns(old_text), columns(new_text)
    d = diff_columns(old, new)
    if "I" in old.keys() | new.keys():
        d["beyond_err"] = beyond_err(old, new)
    return d


def report(name: str, old_text: str | None, new_text: str | None) -> list[str]:
    """The report lines of one file: one line when it is identical or
    missing on one side, else the changed columns and classes too."""
    if old_text is None or new_text is None:
        side = "old" if old_text is None else "new"
        return [f"{name}: missing in {side}"]
    if old_text == new_text:
        return [f"{name}: byte-identical"]
    d = diff_file(name, old_text, new_text)
    lines = [f"{name}: differs"]
    for column, (delta, row) in d["largest"].items():
        if delta > 0.0:
            rel, rel_row = d["relative"][column]
            lines.append(f"  {column}: max |delta| {delta:.3g} at row {row}, "
                         f"relative {rel:.3g} at row {rel_row}")
    if "beyond_err" in d:
        count, worst, row = d["beyond_err"]
        lines.append(f"  I beyond err_old + err_new: {count} rows, worst "
                     f"|delta I| / (err_old + err_new) {worst:.3g} at row "
                     f"{row}")
    for column, row, a, b in d["classes"]:
        lines.append(f"  {column} row {row}: class {a} -> {b}")
    if d["text_changes"]:
        lines.append(f"  {d['text_changes']} other text cells changed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="git revision")
    parser.add_argument("new", help="git revision")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="keep the outputs here (default: a temporary "
                             "directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(args.out) if args.out else Path(scratch) / "out"
        for label, revision in (("old", args.old), ("new", args.new)):
            tree = checkout(revision, Path(scratch) / label)
            write_outputs(tree, out / label, args.workers)
        names = sorted({p.name for side in ("old", "new")
                        for p in (out / side).iterdir()})
        identical = 0
        for name in names:
            texts = [(out / side / name).read_text()
                     if (out / side / name).exists() else None
                     for side in ("old", "new")]
            identical += texts[0] is not None and texts[0] == texts[1]
            print("\n".join(report(name, *texts)))
    print(f"{identical} of {len(names)} files byte-identical "
          f"(workers {args.workers})")
    return 0 if identical == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
