"""Command line front-end.

Subcommands: response / correlation / mi evaluate one parameter point
on the reduced formulas, static detectors (accel 0) included, and print
a JSON record; both detectors of a pair share --accel and --radius.
sweep runs a config (path or packaged preset name) and writes a CSV/JSON
table; verify runs the oracle cross-check suite on a grid. Exit codes:
0 all ok, 1 config error, 2 failed point (for response / correlation /
mi also a printed value that missed its tolerance), 3 oracle-suite
failure. response / correlation / mi build their detectors and pair
first: a DomainError there is a config error, one raised while
evaluating the point a failed point.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .correlation import PairConfig, correlation_equal
from .infomeasure import mutual_information_point
from .kinematics import (DomainError, _require_dz, _require_tol,
                         detector_from_accel_radius)
from .response import transition_probability
from .sweep import (_json_number, _pair_from_params, emit_table, load_config,
                    point_record, run_oracle_suite, run_sweep)

_OK, _CONFIG_ERROR, _POINT_FAILURE, _ORACLE_FAILURE = 0, 1, 2, 3


class _PointFailed(Exception):
    """A valid point whose evaluation raised a DomainError."""


def _add_point_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags every point command (response, correlation, mi) takes."""
    parser.add_argument("--accel", type=float, default=1.0,
                        help="proper acceleration of every orbit (default 1)")
    parser.add_argument("--radius", type=float, default=1.0,
                        help="orbit radius of every detector (default 1)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dz", type=float,
                       help="distance from the mirror to the nearest detector")
    group.add_argument("--free-space", action="store_true",
                       help="no mirror")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="absolute tolerance (default 1e-8)")


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    """The flag of sweep and verify: serial unless given workers."""
    parser.add_argument("--workers", type=int, default=1,
                        help="process count (default 1)")


def _add_pair_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gap-a", type=float, default=0.1,
                        help="energy gap of detector A (default 0.1)")
    parser.add_argument("--gap-b", type=float, default=None,
                        help="energy gap of detector B (default: gap-a)")
    parser.add_argument("--sep", type=float, default=1.0,
                        help="vertical separation between the detectors")
    _add_point_arguments(parser)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main call in the process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="udwmi",
        description="Mutual information harvesting by rotating detectors "
                    "near a mirror: single points, sweeps, oracle checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_resp = sub.add_parser("response",
                            help="transition probability of one detector")
    p_resp.add_argument("--gap", type=float, default=0.1,
                        help="detector energy gap (default 0.1)")
    _add_point_arguments(p_resp)

    p_corr = sub.add_parser("correlation",
                            help="pair correlation split into direct and "
                                 "image parts")
    _add_pair_arguments(p_corr)

    p_mi = sub.add_parser("mi", help="mutual information of one pair point")
    _add_pair_arguments(p_mi)

    p_sweep = sub.add_parser("sweep", help="run a sweep config")
    p_sweep.add_argument("--config", required=True,
                         help="JSON config path or packaged preset name")
    p_sweep.add_argument("--out", required=True, help="output file path")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="table format (default csv)")
    _add_workers_argument(p_sweep)

    p_verify = sub.add_parser("verify", help="run the oracle cross-check "
                                             "suite on a grid")
    p_verify.add_argument("--grid", required=True,
                          help="JSON grid path or packaged preset name")
    p_verify.add_argument("--out", default=None,
                          help="write the report JSON here instead of stdout")
    _add_workers_argument(p_verify)
    return parser


def _dz_of(args) -> float | None:
    if args.free_space:
        return None
    return _require_dz(args.dz)


def _pair_of(args) -> PairConfig:
    gap_b = args.gap_a if args.gap_b is None else args.gap_b
    return _pair_from_params({**vars(args), "gap_b": gap_b,
                              "dz": _dz_of(args)})


def _print_json(payload: dict, stream=None) -> None:
    json.dump(payload, stream or sys.stdout, indent=2)
    (stream or sys.stdout).write("\n")


def _evaluate(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        raise _PointFailed(exc) from exc


def _cmd_response(args) -> int:
    spec = detector_from_accel_radius(args.gap, args.accel, args.radius)
    res = _evaluate(transition_probability, spec, _dz_of(args),
                    _require_tol(args.tol))
    _print_json({
        "total": res.total,
        "term_bounded": res.term_bounded,
        "term_pv": res.term_pv,
        "term_inertial": res.term_inertial,
        "term_pole": res.term_pole,
        "pole_location": res.pole_location,
        "err": res.abs_error_estimate,
        "converged": res.converged,
        "notes": list(res.notes),
    })
    return _OK if res.converged else _POINT_FAILURE


def _cmd_correlation(args) -> int:
    res = _evaluate(correlation_equal, _pair_of(args), _require_tol(args.tol))
    _print_json({
        "method": "reduced",
        "c_total": _json_number(res.c_total),
        "c_free": _json_number(res.c_free),
        "c_boundary": _json_number(res.c_boundary),
        "err": res.abs_error_estimate,
        "converged": res.converged,
    })
    return _OK if res.converged else _POINT_FAILURE


def _cmd_mi(args) -> int:
    pt = _evaluate(mutual_information_point, _pair_of(args),
                   _require_tol(args.tol))
    _print_json(point_record(pt))
    return _OK if pt.converged else _POINT_FAILURE


def _cmd_sweep(args) -> int:
    spec = load_config(args.config)
    rows = run_sweep(spec, workers=args.workers)
    emit_table(rows, args.format, args.out)
    failed = sum(1 for r in rows if r.status.startswith("fail"))
    if failed:
        print(f"{failed} of {len(rows)} points failed (see status column)",
              file=sys.stderr)
        return _POINT_FAILURE
    return _OK


def _cmd_verify(args) -> int:
    report = run_oracle_suite(args.grid, workers=args.workers)
    if args.out:
        with open(args.out, "w") as f:
            _print_json(report, f)
    else:
        _print_json(report)
    if not report["ok"]:
        print("oracle suite FAILED "
              f"(max rel dev: response {report['response']['max_rel_dev']:.3g}, "
              f"correlation {report['correlation']['max_rel_dev']:.3g})",
              file=sys.stderr)
        return _ORACLE_FAILURE
    return _OK


_HANDLERS = {
    "response": _cmd_response,
    "correlation": _cmd_correlation,
    "mi": _cmd_mi,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _PointFailed as exc:
        print(f"point failed: {exc}", file=sys.stderr)
        return _POINT_FAILURE
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    except RuntimeError as exc:
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return _POINT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
