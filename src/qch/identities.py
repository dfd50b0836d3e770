"""Named, tolerance-checked propositions about the curvature model algebra.

Each verifier returns :class:`CheckResult` records, and every record comes
from one runner: it times the check, takes the check's sup-norm defect and
effective tolerance, and passes it exactly when the defect is finite and at
most the tolerance.  Equality checks between two nonzero products guard
against vacuous passes by requiring the left side to be comfortably nonzero
first: a guard at most ``10 * tol`` reports an infinite defect, which fails
at any tolerance.  Every derivation check is a linear relation among
products, reduced on the fly by :func:`~qch.derivation.fused_sups`; a
product that overflows raises :class:`~qch.tensors.NumericBreakdownError`
rather than giving a verdict.  The base tolerance must be finite and
positive.  All randomness is seeded PCG64, so identical inputs and seeds
reproduce identical results.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .curvature import (
    QCHCoefficients,
    build_phi,
    build_pi,
    build_psi,
    combine,
    hol_sect,
    product_curvature,
)
from .derivation import fused_sups, pseudosymmetry_sups
from .spaces import HermitianSpace, make_space, project_D, random_adapted_change
from .tensors import UsageError, _checked_int, max_abs

__all__ = [
    "CheckResult",
    "verify_multiplication_table",
    "verify_eq32",
    "verify_theorem1",
    "verify_product_route",
    "run_suite",
    "SUITES",
]

SUITES = ("table", "eq32", "theorem1", "product", "all")


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    seed: int
    max_defect: float
    tolerance: float
    passed: bool
    elapsed: float


def _vacuous(defect: float, guard: float, tol: float) -> float:
    """``defect``, or an infinite one when ``guard <= 10 * tol``: a relation
    whose left side is that small would pass whatever its right side is."""
    return math.inf if guard <= 10.0 * tol else defect


def _run(name: str, space: HermitianSpace, seed: int, check) -> CheckResult:
    """Time ``check()``, which returns ``(defect, tolerance)``, and judge it."""
    clock = time.perf_counter
    started = clock()
    defect, tolerance = check()
    passed = math.isfinite(defect) and defect <= tolerance
    return CheckResult(name=name, n=space.n, seed=seed, max_defect=float(defect),
                       tolerance=float(tolerance), passed=bool(passed), elapsed=clock() - started)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"tol must be finite and positive, got {tol!r}")


def _check_draws(trials: int, coeff_range: float) -> int:
    """``trials`` as an int, once it and ``coeff_range`` are valid."""
    trials = _checked_int(trials, 1, "trials")
    # the draws are uniform on [-coeff_range, coeff_range], a width of 2 * coeff_range
    if not (math.isfinite(2.0 * coeff_range) and coeff_range > 0):
        raise UsageError(f"coeff_range must be positive with 2 * coeff_range finite, "
                         f"got {coeff_range!r}")
    if 24 * trials > sys.maxsize:  # the (trials, 3) draws, 8 bytes each
        raise MemoryError(f"the draws of {trials} trials exceed the address space")
    return trials


def _relations(space: HermitianSpace, seed: int, tol: float, rows) -> list[CheckResult]:
    """Check each row ``(name, lhs, rhs, (c, e))``, the relation
    ``c * Sum lhs = e * Sum rhs`` (see :func:`~qch.derivation.fused_sups`),
    to ``tol * (1 + |A| |T|)`` for the first product ``A . T`` of ``lhs``.  A
    row with a non-empty ``rhs`` is guarded by ``sup|c * Sum lhs|``.  The
    rows share one set of slab buffers."""
    pool: list = []

    def relation(name, lhs, rhs, coeffs):
        defect, guard = fused_sups(lhs, rhs, coeffs, name, pool)
        actor, target = lhs[0]
        return (_vacuous(defect, guard, tol) if rhs else defect,
                tol * (1.0 + max_abs(actor.tensor) * max_abs(target.tensor)))

    return [_run(row[0], space, seed, partial(relation, *row)) for row in rows]


def verify_multiplication_table(
    space: HermitianSpace,
    tol: float = 1e-10,
    seed: int = 0,
) -> list[CheckResult]:
    """The seven derivation products among the blocks.

    Five products vanish; the two survivors satisfy Pi.X = 2 Phi.X.
    """
    _check_tol(tol)
    pi, phi, psi = build_pi(space), build_phi(space), build_psi(space)
    return _relations(space, seed, tol, [
        ("table:pi.pi=0", [(pi, pi)], [], (1.0, 1.0)),
        ("table:phi.pi=0", [(phi, pi)], [], (1.0, 1.0)),
        ("table:psi.pi=0", [(psi, pi)], [], (1.0, 1.0)),
        ("table:psi.phi=0", [(psi, phi)], [], (1.0, 1.0)),
        ("table:psi.psi=0", [(psi, psi)], [], (1.0, 1.0)),
        ("table:pi.phi=2phi.phi", [(pi, phi)], [(phi, phi)], (1.0, 2.0)),
        ("table:pi.psi=2phi.psi", [(pi, psi)], [(phi, psi)], (1.0, 2.0)),
    ])


def verify_eq32(space: HermitianSpace, tol: float = 1e-10, seed: int = 0) -> list[CheckResult]:
    """The three coupled relations among the seven products."""
    _check_tol(tol)
    pi, phi, psi = build_pi(space), build_phi(space), build_psi(space)
    return _relations(space, seed, tol, [
        ("eq32:2phi.phi=phi.pi+pi.phi", [(phi, phi)], [(phi, pi), (pi, phi)], (2.0, 1.0)),
        ("eq32:psi.psi=0", [(psi, psi)], [], (1.0, 1.0)),
        ("eq32:psi.pi+pi.psi=2(phi.psi+psi.phi)",
         [(psi, pi), (pi, psi)], [(phi, psi), (psi, phi)], (1.0, 2.0)),
    ])


def verify_theorem1(
    space: HermitianSpace,
    trials: int = 100,
    coeff_range: float = 5.0,
    tol: float = 1e-10,
    seed: int = 0,
) -> CheckResult:
    """R.R = (a + b/2) Pi.R over random coefficient draws.

    The recorded defect is the worst relative one,
    ``max_abs(R.R - f Pi.R) / (1 + max_abs(R.R))`` over all trials.  Each
    trial is guarded by ``max_abs(R.R)``, as a relation row is: one vacuous
    trial makes the run's defect infinite, and no later batch of trials is
    formed (see :func:`~qch.derivation.pseudosymmetry_sups`).
    """
    _check_tol(tol)
    trials = _check_draws(trials, coeff_range)
    name = "theorem1:r.r=(a+b/2)pi.r"

    def check():
        draws = np.random.default_rng(seed).uniform(-coeff_range, coeff_range, size=(trials, 3))
        worst = 0.0
        for defect, rr in pseudosymmetry_sups(space, draws, draws[:, 0] + draws[:, 1] / 2.0, name):
            worst = max(worst, _vacuous(defect, rr, tol) / (1.0 + rr))
            if worst == math.inf:
                break
        return worst, tol

    return _run(name, space, seed, check)


def verify_product_route(
    space: HermitianSpace,
    k: float,
    l: float,
    tol: float = 1e-10,
    seed: int = 0,
) -> list[CheckResult]:
    """The product construction against the combination picture.

    Checks, in order: the blockwise product curvature equals
    combine(k, -2k, l+k) entrywise; the two semisymmetric specializations
    (l = -k, and unit complement block with l = d - 1 for d = k + l) have
    vanishing R.R; and the holomorphic diagonal matches the displayed quartic
    at random unit vectors.
    """
    _check_tol(tol)
    product = product_curvature(k, l, space)
    tol_kl = tol * (1.0 + abs(k) + abs(l))

    def matches_combination():
        combined = combine(QCHCoefficients(k, -2.0 * k, l + k), space)
        return max_abs(product.tensor - combined.tensor), tol_kl

    def semisymmetric(name, k, l, scale):
        r = product_curvature(k, l, space)
        return fused_sups([(r, r)], check=name)[0], tol * (1.0 + scale * scale)

    def holomorphic_diagonal():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal(space.dim)
            x = x / np.sqrt(float(x @ space.g.entries @ x))
            _, t = project_D(space, x)
            expected = k - 2.0 * k * t**2 + (l + k) * t**4
            worst = max(worst, abs(hol_sect(product, x) - expected))
        return worst, tol_kl

    opposite, unit = "product:semisymmetric_opposite_plane", "product:semisymmetric_unit_block"
    return [
        _run("product:matches_combination", space, seed, matches_combination),
        _run(opposite, space, seed, partial(semisymmetric, opposite, k, -k, k)),
        _run(unit, space, seed, partial(semisymmetric, unit, 1.0, k + l - 1.0, k + l)),
        _run("product:holomorphic_diagonal", space, seed, holomorphic_diagonal),
    ]


def run_suite(
    n_list: Sequence[int],
    seeds: Iterable[int],
    tol: float = 1e-10,
    trials: int = 100,
    coeff_range: float = 5.0,
    suite: str = "all",
) -> list[CheckResult]:
    """One suite of verifiers over the cartesian product of dimensions and seeds.

    ``suite`` is one of :data:`SUITES`: ``table``, ``eq32``, ``theorem1`` or
    ``product`` runs that verifier alone, and ``all`` runs the four in that
    order.  For each pair the stage is a seeded random adapted frame, so the
    suite also exercises basis independence; the product-route factor
    curvatures are drawn from the same seeded stream.  Every ``n`` (an integer
    >= 2) and seed (an integer >= 0), ``tol``, ``trials`` and ``coeff_range``
    are validated before any work, whatever the suite; an ``n`` whose d^4
    blocks (d = 2n) or ``trials`` whose (trials, 3) draws would exceed
    ``sys.maxsize`` bytes is then a ``MemoryError``.  An empty ``n_list``
    yields an empty report.
    """
    if suite not in SUITES:
        raise UsageError(f"suite must be one of {', '.join(SUITES)}, got {suite!r}")
    _check_tol(tol)
    trials = _check_draws(trials, coeff_range)
    n_list = [_checked_int(n, 2, "complex dimension n") for n in n_list]
    seeds = [_checked_int(seed, 0, "seed") for seed in seeds]
    if n_list and 8 * (2 * max(n_list)) ** 4 > sys.maxsize:  # a d^4 block, d = 2n
        raise MemoryError(f"the d^4 blocks of n = {max(n_list)} exceed the address space")
    results: list[CheckResult] = []
    for n in n_list:
        for seed in seeds:
            space = random_adapted_change(make_space(n), seed)
            if suite in ("table", "all"):
                results += verify_multiplication_table(space, tol, seed)
            if suite in ("eq32", "all"):
                results += verify_eq32(space, tol, seed)
            if suite in ("theorem1", "all"):
                results.append(verify_theorem1(space, trials, coeff_range, tol, seed))
            if suite in ("product", "all"):
                rng = np.random.default_rng([seed, n])
                k, l = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
                results += verify_product_route(space, k, l, tol, seed)
    return results
