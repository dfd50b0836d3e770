"""Workload inputs and output checks.

A workload is a list of ``qch`` command lines per pass, drawn from the
workload seed and the pass index.  Each command writes its reports into a work directory; after it
returns, :func:`check` reads them back and decides whether the output is
correct.  The checks never trust the program's own verdict alone: they also
require the expected set of checks, finite defects within tolerance, and a
profile table consistent with its reported sign changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("suite-small", "theorem1-wide", "profile-sweep")

VERIFY_NAMES = {
    "theorem1": ["theorem1:r.r=(a+b/2)pi.r"],
    "all": [
        "table:pi.pi=0",
        "table:phi.pi=0",
        "table:psi.pi=0",
        "table:psi.phi=0",
        "table:psi.psi=0",
        "table:pi.phi=2phi.phi",
        "table:pi.psi=2phi.psi",
        "eq32:2phi.phi=phi.pi+pi.phi",
        "eq32:psi.psi=0",
        "eq32:psi.pi+pi.psi=2(phi.psi+psi.phi)",
        "theorem1:r.r=(a+b/2)pi.r",
        "product:matches_combination",
        "product:semisymmetric_opposite_plane",
        "product:semisymmetric_unit_block",
        "product:holomorphic_diagonal",
    ],
}

RESIDUAL_TOL = 1e-12
FORM_GAP_TOL = 1e-10
PROFILE_GRID = 1000
# Below r0 = 0.5, long intervals give r(L) of about 100 and more, where the
# CLI's absolute 1e-12 boundary-residual tolerance is below the rounding
# error of 2 r r'' (about 1 in 17,000 draws with r0 >= 0.25 fails with
# exit 1).  That defect is reproduced by selfcheck.py; this range avoids it.
R0_LOW = 0.5


@dataclass
class Command:
    argv: list[str]
    kind: str  # "verify" or "profile"
    params: dict
    outputs: list[Path] = field(default_factory=list)


def _verify(suite, n, seed, trials, path):
    argv = ["verify", suite, "--n", str(n), "--seed", str(seed), "--trials", str(trials),
            "--json", str(path), "--no-timestamp"]
    return Command(argv, "verify", {"suite": suite, "n": n, "seed": seed}, [path])


def _profile(i, r0, L, k, n, workdir):
    jpath, cpath = workdir / f"p{i}.json", workdir / f"p{i}.csv"
    argv = ["profile", "report", "--r0", repr(r0), "--L", repr(L), "--k", str(k),
            "--n", str(n), "--grid", str(PROFILE_GRID), "--json", str(jpath),
            "--csv", str(cpath), "--no-timestamp"]
    return Command(argv, "profile", {"grid": PROFILE_GRID}, [jpath, cpath])


def commands(workload: str, seed: int, index: int, workdir: Path) -> list[Command]:
    """The workload's command list for pass ``index`` of a run.

    The same seed and index give the same list.  Each pass draws fresh
    inputs, so a cache that outlives one command cannot make later passes
    cheaper than a user's own run of the same commands.
    """
    rng = np.random.default_rng([seed, index])
    if workload == "suite-small":
        seeds = rng.choice(2**31, size=10, replace=False)
        return [_verify("all", n, int(s), 100, workdir / f"v{n}_{i}.json")
                for n in (2, 3) for i, s in enumerate(seeds)]
    if workload == "theorem1-wide":
        return [_verify("theorem1", 10, int(rng.integers(2**31)), 1, workdir / "t.json")]
    if workload == "profile-sweep":
        out = []
        for i in range(400):
            r0 = float(rng.uniform(R0_LOW, 4.0))
            L = float(rng.uniform(0.5, 20.0))
            k = int(rng.integers(1, 4))
            n = int(rng.integers(2, 9))
            out.append(_profile(i, r0, L, k, n, workdir))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def check(cmd: Command, code: int) -> str | None:
    """``None`` when the command's output is correct, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(cmd.outputs[0].read_text())
        if report.get("overall_pass") is not True:
            return "overall_pass is not true"
        if cmd.kind == "verify":
            return _check_verify(cmd.params, report)
        return _check_profile(cmd.params, report, cmd.outputs[1])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _check_verify(params, report):
    results = report["results"]
    names = [r["name"] for r in results]
    if names != VERIFY_NAMES[params["suite"]]:
        return f"check names {names}"
    for r in results:
        defect, tol = float(r["max_defect"]), float(r["tolerance"])
        if not (math.isfinite(defect) and math.isfinite(tol) and defect <= tol):
            return f"{r['name']}: defect {defect!r} vs tolerance {tol!r}"
        if r["passed"] is not True:
            return f"{r['name']}: passed is not true"
        if (r["n"], r["seed"]) != (str(params["n"]), str(params["seed"])):
            return f"{r['name']}: ran on n={r['n']} seed={r['seed']}"
    return None


def _check_profile(params, report, csv_path):
    res = report["results"][0]
    for side in ("left", "right"):
        value = float(res[f"boundary_residual_{side}"])
        if not value <= RESIDUAL_TOL:
            return f"{side} boundary residual {value!r}"
    gap = float(res["alternate_max_diff"])
    if not gap <= FORM_GAP_TOL:
        return f"alternate_max_diff {gap!r}"
    grid = [float(t) for t in res["grid"]]
    values = [float(v) for v in res["ab2_values"]]
    points = [float(t) for t in res["sign_change_points"]]
    if not points:
        return "no sign change"
    if not (values[0] < 0.0 < values[-1]):
        return "a + b/2 does not go from negative at 0 to positive at L"
    for t in points:
        i = int(np.searchsorted(grid, t))
        if not (0 < i < len(grid)) or values[i - 1] * values[i] > 0.0:
            return f"sign change at {t!r} is not bracketed by the table"
    rows = csv_path.read_text().splitlines()
    if len(rows) != params["grid"] + 1 or rows[0] != "t,ab2":
        return f"csv has {len(rows)} rows"
    if rows[1:] != [f"{t},{v}" for t, v in zip(res["grid"], res["ab2_values"])]:
        return "csv rows differ from the json table"
    return None
