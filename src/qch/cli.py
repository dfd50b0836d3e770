"""Command-line front end: verification suites and profile analysis.

Reports are deterministic: identical flags and seed reproduce byte-identical
JSON (the timestamp is the only run-dependent field, and ``--no-timestamp``
drops it) on one numpy build and CPU.  Across machines a value can move in
its last digit: ``verify`` values with the OpenBLAS kernel, and ``profile``
values with numpy's SIMD ``pow`` (AVX-512 or not).  Every numeric scalar is
serialized as a decimal string with 17 significant digits so values
round-trip exactly.  A report file holds
``json.dumps(report, indent=2)`` and a newline, byte for byte, and its text is
built only when ``--json`` is given: a list of plain strings (a profile's grid
and values) is joined, and other lists of leaves go through the C encoder.
Every ``verify`` suite runs through :func:`~qch.identities.run_suite`, which
validates ``--tol``, ``--trials`` and ``--coeff-range`` for every suite.  Each
command's runner prints its lines and returns its report's parts and verdict;
:func:`main` alone writes the report and sets the exit status: 0 when every
check passes, 1 on a failed check or a numeric breakdown (including a profile
boundary bound that is not below s), 2 on usage errors, among them a
``--json``, ``--csv`` or ``--dump`` path that is empty, a directory, in no
existing directory or the same file as another of them, a ``--csv`` for
``profile solve``, and an ``--eps`` that leaves no report grid point (all
checked before any work), and 2 when the run does not fit in memory (no
report file is written).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .identities import SUITES, CheckResult, run_suite
from .profiles import (
    _endpoint_checks,
    _require_bounds_below_s,
    ab2_alternate,
    eval_profile,
    profile_report,
    solve_profile,
)
from .spaces import make_space, random_adapted_change, structure_tensors
from .tensors import NumericBreakdownError, UsageError, _fmt, _fmt_all, to_text

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = "1"


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
                         help="write the t,ab2 table here (report only)")
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
    existing directory, and no two of them the same file, and ``--csv`` is
    for ``profile report`` only; checked before any work, without creating
    the file."""
    if getattr(args, "action", None) == "solve" and args.csv_path is not None:
        raise UsageError("--csv is for profile report only")
    seen = {}
    for flag in ("json", "csv", "dump"):
        path = getattr(args, f"{flag}_path", None)
        if path is None:
            continue
        if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"--{flag} {path!r} is not a file in an existing directory")
        real = os.path.realpath(path)
        if real in seen:
            raise UsageError(f"--{seen[real]} and --{flag} name the same file {path!r}")
        seen[real] = flag


_LEAVES = {str, bool, type(None)}  # the leaf types of a report
_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')


def _plain(s: str) -> bool:
    """Whether ``json.dumps`` writes ``s`` as it is between quotes: printable
    ASCII without a quote or a backslash (a byte deletion, 3x faster than
    ``str.isprintable``)."""
    return s.isascii() and not s.encode().translate(None, _PLAIN)


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, for string keys.

    With an indent, ``json.dumps`` runs the pure-Python encoder.  Here a list
    of strings that need no escaping (see :func:`_plain`) is joined between
    quotes, and every other list of leaves is one call to the C encoder,
    whose item separator carries the line break and indent."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))  # a set: any() over a generator is 5x slower
        if types == {str} and _plain("".join(obj)):
            body = '"' + ('",' + inner + '"').join(obj) + '"'
        elif types <= _LEAVES:
            body = json.dumps(obj, separators=("," + inner, ": "))[1:-1]
        else:
            body = ("," + inner).join(_json_text(v, inner) for v in obj)
        return "[" + inner + body + indent + "]"
    return json.dumps(obj)


def _emit_report(args, command: str, parameters: dict, results: list, passed: bool,
                 seed: str) -> None:
    """Write the report of one command to ``--json``, if given."""
    if not args.json_path:
        return
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
        "overall_pass": passed,
        "seed": seed,
    }
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    with open(args.json_path, "w") as fh:
        fh.write(_json_text(report) + "\n")


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


def _run_verify(args) -> tuple:
    """Run one suite and print it; return the report's command, parameters,
    results, verdict and seed."""
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

    parameters = {
        "n": str(args.n),
        "seed": str(args.seed),
        "trials": str(args.trials),
        "coeff_range": _fmt(args.coeff_range),
        "tol": _fmt(args.tol),
    }
    return f"verify {args.suite}", parameters, [_check_dict(r) for r in results], overall, str(args.seed)


def _grid_meets_margin(L: float, grid: int, eps: float) -> bool:
    """Whether ``np.linspace(0.0, L, grid)`` has a point in ``[eps, L - eps]``,
    in linspace's float arithmetic but without forming the grid: point i is
    ``i * (L / (grid - 1))`` (``i / (grid - 1) * L`` where that step is zero)
    and the last is L.  The points rise with i, so the first at or past eps
    decides."""
    last = grid - 1
    step = L / last

    def point(i: int) -> float:
        return L if i == last else i * step if step else i / last * L

    i = bisect.bisect_left(range(grid), eps, key=point)
    return i < grid and point(i) <= L - eps


def _run_profile(args) -> tuple:
    """Solve one profile (and tabulate it for ``report``) and print it; return
    what :func:`_run_verify` returns."""
    if args.grid < 3:
        raise UsageError("--grid must be at least 3")
    if args.eps is not None and not (math.isfinite(args.eps) and 0 < args.eps < args.L / 2):
        raise UsageError("--eps must be finite, positive and less than L/2")
    eps = args.eps if args.eps is not None else args.L * 1e-3
    # an L that is not positive and finite is solve_profile's to name
    if (args.action == "report" and 0 < args.L < math.inf
            and not _grid_meets_margin(args.L, args.grid, eps)):
        raise UsageError("--eps leaves no grid point for the alternate-form cross-check")

    p = solve_profile(args.r0, args.L, args.k, args.n)
    print(f"profile r0={p.r0} L={p.L} k={p.k} n={p.n}: s={p.s} "
          f"gamma0={p.gamma0:.12g} gamma1={p.gamma1:.12g}")
    if args.action == "report":  # the report carries the endpoint checks
        rep = profile_report(p, grid_size=args.grid)
        residuals, bounds = rep.boundary_residuals, rep.boundary_bounds
    else:
        residuals, bounds = _endpoint_checks(p)
    passed = all(r <= b for r, b in zip(residuals, bounds))
    result = {
        "s": _fmt(p.s),
        "gamma0": _fmt(p.gamma0),
        "gamma1": _fmt(p.gamma1),
        "r_end": _fmt(eval_profile(p, p.L).r),
        "boundary_residual_left": _fmt(residuals[0]),
        "boundary_residual_right": _fmt(residuals[1]),
    }
    print(f"boundary residuals: left={residuals[0]:.3e} right={residuals[1]:.3e}")

    if args.action == "report":
        passed = passed and len(rep.sign_change_points) >= 1
        # each table value is formatted once, for the JSON and the CSV alike
        grid_txt = _fmt_all(rep.grid)
        ab2_txt = _fmt_all(rep.ab2_values)
        result["sign_change_points"] = [_fmt(t) for t in rep.sign_change_points]
        result["grid"] = grid_txt
        result["ab2_values"] = ab2_txt
        # cross-check the two algebraically equal forms away from the endpoints
        inside = (rep.grid >= eps) & (rep.grid <= p.L - eps)
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
                fh.write("t,ab2\n" + "\n".join(map(",".join, zip(grid_txt, ab2_txt))) + "\n")

    parameters = {
        "r0": _fmt(args.r0),
        "L": _fmt(args.L),
        "k": str(args.k),
        "n": str(args.n),
        "grid": str(args.grid),
        "eps": _fmt(eps),
    }
    return f"profile {args.action}", parameters, [result], passed, "0"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        _check_output_paths(args)
        run = _run_verify if args.command == "verify" else _run_profile
        command, parameters, results, passed, seed = run(args)
        _emit_report(args, command, parameters, results, passed, seed)
        return 0 if passed else 1
    except NumericBreakdownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:  # arguments outside their domain, refused before any work
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a run too large for this machine is refused, not a traceback
        print("error: the run does not fit in memory", file=sys.stderr)
        return 2
