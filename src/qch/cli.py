"""Command-line front end: verification suites and profile analysis.

Reports are deterministic: identical flags and seed reproduce byte-identical
JSON (the timestamp is the only run-dependent field, and ``--no-timestamp``
drops it).  Every numeric scalar is serialized as a decimal string with 17
significant digits so values round-trip exactly.  Exit status: 0 when every
check passes, 1 on a failed check, a numeric breakdown or an unsolvable
profile, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .curvature import build_phi, build_pi, build_psi
from .derivation import NumericBreakdownError
from .identities import (
    CheckResult,
    run_suite,
    verify_eq32,
    verify_multiplication_table,
    verify_product_route,
    verify_theorem1,
)
from .profiles import (
    NoAdmissibleRootError,
    Profile,
    ab2,
    ab2_alternate,
    boundary_residuals,
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
        "suite", choices=["table", "eq32", "theorem1", "product", "all"],
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
        ("pi", build_pi(space).tensor),
        ("phi", build_phi(space).tensor),
        ("psi", build_psi(space).tensor),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(to_text(t, name) for name, t in records))


def _run_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if not (math.isfinite(args.coeff_range) and args.coeff_range > 0):
        raise ValueError("--coeff-range must be finite and positive")

    if args.suite == "all":
        results = run_suite([args.n], [args.seed], tol=args.tol,
                            trials=args.trials, coeff_range=args.coeff_range)
    else:
        space = random_adapted_change(make_space(args.n), args.seed)
        if args.suite == "table":
            results = verify_multiplication_table(space, tol=args.tol, seed=args.seed)
        elif args.suite == "eq32":
            results = verify_eq32(space, tol=args.tol, seed=args.seed)
        elif args.suite == "theorem1":
            results = [verify_theorem1(space, trials=args.trials,
                                       coeff_range=args.coeff_range,
                                       tol=args.tol, seed=args.seed)]
        else:  # product
            rng = np.random.default_rng([args.seed, args.n])
            k, l = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
            results = verify_product_route(space, k, l, tol=args.tol, seed=args.seed)

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
    residuals, bounds = boundary_residuals(p)
    passed = all(r <= b for r, b in zip(residuals, bounds))

    result = _profile_core_dict(p, residuals)
    print(f"profile r0={p.r0} L={p.L} k={p.k} n={p.n}: s={p.s} "
          f"gamma0={p.gamma0:.12g} gamma1={p.gamma1:.12g}")
    print(f"boundary residuals: left={residuals[0]:.3e} right={residuals[1]:.3e}")

    if args.action == "report":
        rep = profile_report(p, grid_size=args.grid)
        passed = passed and len(rep.sign_change_points) >= 1
        result["sign_change_points"] = [_fmt(t) for t in rep.sign_change_points]
        result["grid"] = [_fmt(t) for t in rep.grid]
        result["ab2_values"] = [_fmt(v) for v in rep.ab2_values]
        # cross-check the two algebraically equal forms away from the endpoints
        inner = rep.grid[(rep.grid >= eps) & (rep.grid <= p.L - eps)]
        if not inner.size:
            raise ValueError("--eps leaves no grid point for the alternate-form cross-check")
        form_gap = float(np.max(np.abs(ab2(p, inner) - ab2_alternate(p, inner, eps=eps))))
        result["alternate_max_diff"] = _fmt(form_gap)
        passed = passed and form_gap <= 1e-10
        pts = ", ".join(f"{t:.12g}" for t in rep.sign_change_points)
        print(f"sign changes of a+b/2 at: {pts}")
        if args.csv_path:
            with open(args.csv_path, "w") as fh:
                fh.write("t,ab2\n")
                for t, v in zip(rep.grid, rep.ab2_values):
                    fh.write(f"{_fmt(t)},{_fmt(v)}\n")

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
        if args.command == "verify":
            return _run_verify(args)
        return _run_profile(args)
    except (NoAdmissibleRootError, NumericBreakdownError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # precondition violations are usage errors
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
