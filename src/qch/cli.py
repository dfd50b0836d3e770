"""Command-line front end: verification suites and profile analysis.

Reports are deterministic: identical flags and seed reproduce byte-identical
JSON (the timestamp is the only run-dependent field, and ``--no-timestamp``
drops it).  Every numeric scalar is serialized as a decimal string with 17
significant digits so values round-trip exactly.  Every ``verify`` suite runs
through :func:`~qch.identities.run_suite`, which validates ``--tol``,
``--trials`` and ``--coeff-range`` for every suite.  Exit status: 0 when every
check passes, 1 on a failed check, a numeric breakdown (including a profile
boundary bound that is not below s) or an unsolvable profile, 2 on usage
errors, among them a ``--json``, ``--csv`` or ``--dump`` path that is a
directory or lies in no existing directory (checked before any work), and 2
when the run does not fit in memory (no report file is written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .derivation import NumericBreakdownError
from .identities import SUITES, CheckResult, run_suite
from .profiles import (
    NoAdmissibleRootError,
    Profile,
    _endpoint_checks,
    _require_bounds_below_s,
    ab2_alternate,
    eval_profile,
    profile_report,
    solve_profile,
)
from .spaces import make_space, random_adapted_change, structure_tensors
from .tensors import to_text

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = "1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qch",
        description="verify curvature model identities and solve boundary profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run an identity verification suite")
    verify.add_argument(
        "suite", choices=SUITES,
        help="which checks to run",
    )
    verify.add_argument("--n", type=int, default=3, help="complex dimension (default 3)")
    verify.add_argument("--seed", type=int, default=42, help="PRNG seed (default 42)")
    verify.add_argument("--trials", type=int, default=100, help="random draws for theorem1")
    verify.add_argument("--coeff-range", type=float, default=5.0,
                        help="coefficient cube half-width for theorem1")
    verify.add_argument("--tol", type=float, default=1e-10, help="base tolerance")
    verify.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                        help="write the JSON report here")
    verify.add_argument("--dump", dest="dump_path", default=None, metavar="PATH",
                        help="write the stage and block tensors as text records")
    verify.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field from the report")

    profile = sub.add_parser("profile", help="solve or tabulate a boundary profile")
    profile.add_argument("action", choices=["solve", "report"], help="what to do")
    profile.add_argument("--r0", type=float, required=True, help="radius at t = 0")
    profile.add_argument("--L", type=float, required=True, help="interval length")
    profile.add_argument("--k", type=int, required=True, help="factor curvature index")
    profile.add_argument("--n", type=int, required=True, help="complex dimension")
    profile.add_argument("--grid", type=int, default=1000, help="report grid size")
    profile.add_argument("--eps", type=float, default=None,
                         help="endpoint margin for the alternate form (default L/1000)")
    profile.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                         help="write the JSON report here")
    profile.add_argument("--csv", dest="csv_path", default=None, metavar="PATH",
                         help="write the t,ab2 table here")
    profile.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp field from the report")
    return parser


def _check_dict(c: CheckResult) -> dict:
    # elapsed is intentionally absent: reports are byte-identical across runs
    return {
        "name": c.name,
        "n": str(c.n),
        "seed": str(c.seed),
        "max_defect": _fmt(c.max_defect),
        "tolerance": _fmt(c.tolerance),
        "passed": c.passed,
    }


def _check_output_paths(args) -> None:
    """Each ``--json``, ``--csv`` and ``--dump`` path must name a file in an
    existing directory; checked before any work, without creating the file."""
    for flag in ("json", "csv", "dump"):
        path = getattr(args, f"{flag}_path", None)
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            raise ValueError(f"--{flag} {path!r} is not a file in an existing directory")


def _emit_report(report: dict, json_path: str | None, no_timestamp: bool) -> None:
    if not no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2) + "\n"
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text)


def _dump_tensors(path: str, n: int, seed: int) -> None:
    space = random_adapted_change(make_space(n), seed)
    h, omega, big_omega = structure_tensors(space)
    records = [
        ("g", space.g),
        ("J", space.J),
        ("p_D", space.p_D),
        ("h", h),
        ("omega", omega),
        ("Omega", big_omega),
        *zip(("pi", "phi", "psi"), space.blocks),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(to_text(t, name) for name, t in records))


def _run_verify(args) -> int:
    results = run_suite([args.n], [args.seed], tol=args.tol, trials=args.trials,
                        coeff_range=args.coeff_range, suite=args.suite)

    if args.dump_path:
        _dump_tensors(args.dump_path, args.n, args.seed)

    overall = all(r.passed for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} (n={r.n} seed={r.seed}) "
              f"defect={r.max_defect:.3e} tol={r.tolerance:.3e}")
    print(f"{'ok' if overall else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} checks passed")

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": f"verify {args.suite}",
        "parameters": {
            "n": str(args.n),
            "seed": str(args.seed),
            "trials": str(args.trials),
            "coeff_range": _fmt(args.coeff_range),
            "tol": _fmt(args.tol),
        },
        "results": [_check_dict(r) for r in results],
        "overall_pass": overall,
        "seed": str(args.seed),
    }
    _emit_report(report, args.json_path, args.no_timestamp)
    return 0 if overall else 1


def _profile_core_dict(p: Profile, residuals: tuple[float, float]) -> dict:
    end = eval_profile(p, p.L)
    return {
        "s": _fmt(p.s),
        "gamma0": _fmt(p.gamma0),
        "gamma1": _fmt(p.gamma1),
        "r_end": _fmt(end.r),
        "boundary_residual_left": _fmt(residuals[0]),
        "boundary_residual_right": _fmt(residuals[1]),
    }


def _run_profile(args) -> int:
    if args.grid < 3:
        raise ValueError("--grid must be at least 3")
    if args.eps is not None and not (math.isfinite(args.eps) and 0 < args.eps < args.L / 2):
        raise ValueError("--eps must be finite, positive and less than L/2")

    p = solve_profile(args.r0, args.L, args.k, args.n)
    eps = args.eps if args.eps is not None else p.L * 1e-3
    print(f"profile r0={p.r0} L={p.L} k={p.k} n={p.n}: s={p.s} "
          f"gamma0={p.gamma0:.12g} gamma1={p.gamma1:.12g}")
    if args.action == "report":  # the report carries the endpoint checks
        rep = profile_report(p, grid_size=args.grid)
        residuals, bounds = rep.boundary_residuals, rep.boundary_bounds
    else:
        residuals, bounds = _endpoint_checks(p)
    passed = all(r <= b for r, b in zip(residuals, bounds))
    result = _profile_core_dict(p, residuals)
    print(f"boundary residuals: left={residuals[0]:.3e} right={residuals[1]:.3e}")

    if args.action == "report":
        passed = passed and len(rep.sign_change_points) >= 1
        # each table value is formatted once, for the JSON and the CSV alike
        grid_txt = [format(t, ".17g") for t in rep.grid.tolist()]
        ab2_txt = [format(v, ".17g") for v in rep.ab2_values.tolist()]
        result["sign_change_points"] = [_fmt(t) for t in rep.sign_change_points]
        result["grid"] = grid_txt
        result["ab2_values"] = ab2_txt
        # cross-check the two algebraically equal forms away from the endpoints
        inside = (rep.grid >= eps) & (rep.grid <= p.L - eps)
        if not inside.any():
            raise ValueError("--eps leaves no grid point for the alternate-form cross-check")
        alternate = ab2_alternate(p, rep.grid[inside], eps=eps)
        form_gap = float(np.max(np.abs(rep.ab2_values[inside] - alternate)))
        result["alternate_max_diff"] = _fmt(form_gap)
        passed = passed and form_gap <= 1e-10
    # a bound not below s is a breakdown; checked after the report, so that the
    # report's own breakdowns (in ab2, ab2_alternate) are the ones named
    _require_bounds_below_s(p, bounds)
    if args.action == "report":
        pts = ", ".join(f"{t:.12g}" for t in rep.sign_change_points)
        print(f"sign changes of a+b/2 at: {pts}")
        if args.csv_path:
            with open(args.csv_path, "w") as fh:
                fh.write("t,ab2\n" + "".join(f"{t},{v}\n" for t, v in zip(grid_txt, ab2_txt)))

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": f"profile {args.action}",
        "parameters": {
            "r0": _fmt(args.r0),
            "L": _fmt(args.L),
            "k": str(args.k),
            "n": str(args.n),
            "grid": str(args.grid),
            "eps": _fmt(eps),
        },
        "results": [result],
        "overall_pass": passed,
        "seed": "0",
    }
    _emit_report(report, args.json_path, args.no_timestamp)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        _check_output_paths(args)
        if args.command == "verify":
            return _run_verify(args)
        return _run_profile(args)
    except (NoAdmissibleRootError, NumericBreakdownError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # precondition violations are usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a run too large for this machine is refused, not a traceback
        print("error: the run does not fit in memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
