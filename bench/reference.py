"""Reference outputs and the comparator of the correctness gate.

The references under ``data/`` were recorded at the baseline commit by
``record_reference.py``. A value is compared only where its reference is
finite: a failed row of the baseline (NaN outputs) may become a computed
row later without tripping the gate. A reference value that turns NaN or
goes missing, a changed row count and a changed row order are all
mismatches.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Relative tolerance, ten times tighter than the oracle grid's rel_tol of
# 1e-3, plus an absolute floor for values near zero: two evaluations that
# each meet the default absolute tolerance tol = 1e-8 may differ by 2e-8.
RTOL = 1e-4
ATOL = 2e-8

TABLE_VALUES = ("P_A", "P_B", "ReC", "ReC1", "ReC2", "I")
INPUT_COLUMNS = ("gap_a", "gap_b", "accel", "radius", "sep", "dz",
                 "free_space")
QUERY_VALUES = ("P_A", "P_B", "ReC", "ReC2", "I")
ONSET_STRIDE = 4


def load(workload: str) -> dict:
    return json.loads((DATA / f"{workload}.json").read_text())


def store(value) -> float | None:
    """A float as the reference files keep it: 10 significant digits,
    NaN and infinities as null."""
    value = float(value)
    return float(f"{value:.10g}") if math.isfinite(value) else None


def number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def close(value: float, ref: float | None) -> bool:
    """True when value matches a finite reference, or the reference is
    not finite (nothing to compare)."""
    if ref is None or not math.isfinite(ref):
        return True
    return math.isfinite(value) and abs(value - ref) <= RTOL * abs(ref) + ATOL


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def inputs_digest(rows: list[dict]) -> str:
    """SHA-256 of the input columns of a table, row by row in order."""
    text = "\n".join(",".join(r.get(c, "") for c in INPUT_COLUMNS)
                     for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def table_reference(rows: list[dict]) -> dict:
    return {"rows": len(rows), "inputs_sha256": inputs_digest(rows),
            "values": {c: [store(number(r[c])) for r in rows]
                       for c in TABLE_VALUES}}


def compare_table(rows: list[dict], ref: dict) -> set[int]:
    """Indices of mismatching rows; every row when the row count or the
    row order differs from the reference."""
    if len(rows) != ref["rows"] or inputs_digest(rows) != ref["inputs_sha256"]:
        return set(range(max(len(rows), ref["rows"])))
    bad = set()
    for col in TABLE_VALUES:
        for i, (row, r) in enumerate(zip(rows, ref["values"][col])):
            if not close(number(row.get(col)), r):
                bad.add(i)
    return bad


def onset_reference(rows: list[dict], maxima: int) -> dict:
    return {"rows": len(rows), "maxima": maxima,
            "I": [store(number(r["I"])) for r in rows[::ONSET_STRIDE]]}


def compare_onset(rows: list[dict], maxima: int, ref: dict) -> bool:
    if len(rows) != ref["rows"] or maxima != ref["maxima"]:
        return False
    return all(close(number(r.get("I")), v)
               for r, v in zip(rows[::ONSET_STRIDE], ref["I"]))


def query_reference(code: int, stdout: str) -> list:
    """[exit code, P_A, P_B, ReC, ReC2, I]; values null without output."""
    values = _query_values(stdout)
    return [code] + [store(values[k]) if k in values else None
                     for k in QUERY_VALUES]


def compare_query(code: int, stdout: str, ref: list) -> bool:
    """A query that exited 0 at the baseline must still exit 0; one that
    failed there may now succeed."""
    if ref[0] == 0 and code != 0:
        return False
    values = _query_values(stdout)
    return all(close(number(values.get(k)), r)
               for k, r in zip(QUERY_VALUES, ref[1:]))


def _query_values(stdout: str) -> dict:
    try:
        payload = json.loads(stdout) if stdout.strip() else {}
    except json.JSONDecodeError:
        return {}
    return payload if isinstance(payload, dict) else {}


def _oracle_pairs(record) -> list[float]:
    """value and oracle of one oracle-report point, flattened."""
    out = []
    for key in ("value", "oracle"):
        v = record[key]
        out += [number(x) for x in v] if isinstance(v, list) else [number(v)]
    return out


def oracle_reference(report: dict) -> dict:
    return {"ok": bool(report["ok"]),
            "response": [[store(x) for x in _oracle_pairs(p)]
                         for p in report["response"]["points"]],
            "correlation": [[store(x) for x in _oracle_pairs(p)]
                            for p in report["correlation"]["points"]]}


def compare_oracle(report: dict, resp_order: list[int],
                   corr_order: list[int], ref: dict) -> int:
    """Mismatching points of a report on a permuted grid; every point
    when the suite does not report ok."""
    total = len(ref["response"]) + len(ref["correlation"])
    if not report.get("ok"):
        return total
    bad = 0
    for section, order in (("response", resp_order),
                           ("correlation", corr_order)):
        points = report[section]["points"]
        if len(points) != len(order):
            return total
        for rec, idx in zip(points, order):
            got = _oracle_pairs(rec)
            want = ref[section][idx]
            if len(got) != len(want) or not all(
                    close(g, w) for g, w in zip(got, want)):
                bad += 1
    return bad
