"""Named, tolerance-checked propositions about the curvature model algebra.

Each verifier returns :class:`CheckResult` records with the measured sup-norm
defect, the effective tolerance, and a verdict; a result passes exactly when
``max_defect`` is finite and at most ``tolerance``.  Equality checks between
two nonzero products guard against vacuous passes by requiring the left side
to be comfortably nonzero first (a failed guard reports an infinite defect,
which fails at any tolerance).  Every derivation product is reduced on the
fly by :func:`~qch.derivation.fused_sups`; a product that overflows raises
:class:`~qch.derivation.NumericBreakdownError` rather than giving a verdict.
The base tolerance must be finite and positive.  All randomness is seeded
PCG64, so identical inputs and seeds reproduce identical results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
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
from .derivation import fused_sups
from .spaces import HermitianSpace, make_space, project_D, random_adapted_change
from .tensors import Tensor, _checked_int, max_abs

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


def _result(name: str, space: HermitianSpace, seed: int, defect: float,
            tolerance: float, started: float, guard: float = math.inf,
            tol: float = 0.0) -> CheckResult:
    """The verdict of a check; a ``guard`` (a compared side's sup norm) at
    most ``10 * tol`` makes the check vacuous, reported as an infinite defect."""
    if guard <= 10.0 * tol:
        defect = math.inf
    return CheckResult(
        name=name,
        n=space.n,
        seed=seed,
        max_defect=float(defect),
        tolerance=float(tolerance),
        passed=bool(math.isfinite(defect) and defect <= tolerance),
        elapsed=time.perf_counter() - started,
    )


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _check_draws(trials: int, coeff_range: float) -> int:
    """``trials`` as an int, once it and ``coeff_range`` are valid."""
    trials = _checked_int(trials, 1, "trials")
    if not (math.isfinite(coeff_range) and coeff_range > 0):
        raise ValueError(f"coeff_range must be finite and positive, got {coeff_range!r}")
    return trials


def _doubled_rhs(lhs, rhs):
    """``lhs - 2 rhs`` and ``lhs``, formed in place over the slabs."""
    np.multiply(rhs, 2.0, out=rhs)
    return np.subtract(lhs, rhs, out=rhs), lhs


def verify_multiplication_table(
    space: HermitianSpace,
    tol: float = 1e-10,
    seed: int = 0,
    phi_noise: float = 0.0,
) -> list[CheckResult]:
    """The seven derivation products among the blocks.

    Five products vanish; the two survivors satisfy Pi.X = 2 Phi.X.  With
    ``phi_noise > 0`` a seeded uniform perturbation of that size is added to
    the mixed block first, which breaks the relations by about that amount
    (useful to confirm the checks can fail).
    """
    _check_tol(tol)
    pi, phi, psi = build_pi(space), build_phi(space), build_psi(space)
    if phi_noise:
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=phi.tensor.entries.shape)
        phi = phi + phi_noise * Tensor(space.dim, (0, 4), noise)
    results = []

    zero_cases = [
        ("table:pi.pi=0", pi, pi),
        ("table:phi.pi=0", phi, pi),
        ("table:psi.pi=0", psi, pi),
        ("table:psi.phi=0", psi, phi),
        ("table:psi.psi=0", psi, psi),
    ]
    for name, actor, target in zero_cases:
        started = time.perf_counter()
        (defect,) = fused_sups([(actor, target)], check=name)
        tol_eff = tol * (1.0 + max_abs(actor.tensor) * max_abs(target.tensor))
        results.append(_result(name, space, seed, defect, tol_eff, started))

    double_cases = [
        ("table:pi.phi=2phi.phi", phi),
        ("table:pi.psi=2phi.psi", psi),
    ]
    for name, target in double_cases:
        started = time.perf_counter()
        defect, guard = fused_sups([(pi, target), (phi, target)], _doubled_rhs, name)
        tol_eff = tol * (1.0 + max_abs(pi.tensor) * max_abs(target.tensor))
        results.append(_result(name, space, seed, defect, tol_eff, started, guard, tol))
    return results


def verify_eq32(space: HermitianSpace, tol: float = 1e-10, seed: int = 0) -> list[CheckResult]:
    """The three coupled relations among the seven products."""
    _check_tol(tol)
    pi, phi, psi = build_pi(space), build_phi(space), build_psi(space)
    results = []

    def doubled(phi_phi, phi_pi, pi_phi):
        lhs = np.multiply(phi_phi, 2.0, out=phi_phi)
        rhs = np.add(phi_pi, pi_phi, out=phi_pi)
        return np.subtract(lhs, rhs, out=rhs), lhs

    name = "eq32:2phi.phi=phi.pi+pi.phi"
    started = time.perf_counter()
    defect, guard = fused_sups([(phi, phi), (phi, pi), (pi, phi)], doubled, name)
    tol_eff = tol * (1.0 + max_abs(phi.tensor) ** 2)
    results.append(_result(name, space, seed, defect, tol_eff, started, guard, tol))

    name = "eq32:psi.psi=0"
    started = time.perf_counter()
    (defect,) = fused_sups([(psi, psi)], check=name)
    tol_eff = tol * (1.0 + max_abs(psi.tensor) ** 2)
    results.append(_result(name, space, seed, defect, tol_eff, started))

    def exchanged(psi_pi, pi_psi, phi_psi, psi_phi):
        lhs = np.add(psi_pi, pi_psi, out=psi_pi)
        rhs = np.multiply(np.add(phi_psi, psi_phi, out=phi_psi), 2.0, out=phi_psi)
        return np.subtract(lhs, rhs, out=rhs), lhs

    name = "eq32:psi.pi+pi.psi=2(phi.psi+psi.phi)"
    started = time.perf_counter()
    defect, guard = fused_sups(
        [(psi, pi), (pi, psi), (phi, psi), (psi, phi)], exchanged, name
    )
    tol_eff = tol * (1.0 + max_abs(pi.tensor) * max_abs(psi.tensor))
    results.append(_result(name, space, seed, defect, tol_eff, started, guard, tol))
    return results


def verify_theorem1(
    space: HermitianSpace,
    trials: int = 100,
    coeff_range: float = 5.0,
    tol: float = 1e-10,
    seed: int = 0,
) -> CheckResult:
    """R.R = (a + b/2) Pi.R over random coefficient draws.

    The recorded defect is the worst relative one,
    ``max_abs(R.R - f Pi.R) / (1 + max_abs(R.R))`` over all trials.
    """
    _check_tol(tol)
    trials = _check_draws(trials, coeff_range)
    name = "theorem1:r.r=(a+b/2)pi.r"
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    pi = build_pi(space)
    worst = 0.0
    for _ in range(trials):
        a, b, c = rng.uniform(-coeff_range, coeff_range, size=3)
        r = combine(QCHCoefficients(a, b, c), space)
        factor = float(a + b / 2.0)

        def defect_and_rr(rr, pi_r):
            np.multiply(pi_r, factor, out=pi_r)
            return np.subtract(rr, pi_r, out=pi_r), rr

        defect, rr = fused_sups([(r, r), (pi, r)], defect_and_rr, name)
        worst = max(worst, defect / (1.0 + rr))
    return _result(name, space, seed, worst, tol, started)


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
    results = []
    product = product_curvature(k, l, space)

    started = time.perf_counter()
    combined = combine(QCHCoefficients(k, -2.0 * k, l + k), space)
    defect = max_abs(product.tensor - combined.tensor)
    results.append(
        _result("product:matches_combination", space, seed, defect,
                tol * (1.0 + abs(k) + abs(l)), started)
    )

    name = "product:semisymmetric_opposite_plane"
    started = time.perf_counter()
    opposite = product_curvature(k, -k, space)
    (defect,) = fused_sups([(opposite, opposite)], check=name)
    results.append(_result(name, space, seed, defect, tol * (1.0 + k * k), started))

    name = "product:semisymmetric_unit_block"
    started = time.perf_counter()
    d_total = k + l
    unit_block = product_curvature(1.0, d_total - 1.0, space)
    (defect,) = fused_sups([(unit_block, unit_block)], check=name)
    results.append(
        _result(name, space, seed, defect, tol * (1.0 + d_total * d_total), started)
    )

    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(space.dim)
        x = x / np.sqrt(float(x @ space.g.entries @ x))
        _, t = project_D(space, x)
        expected = k - 2.0 * k * t**2 + (l + k) * t**4
        worst = max(worst, abs(hol_sect(product, x) - expected))
    results.append(
        _result("product:holomorphic_diagonal", space, seed, worst,
                tol * (1.0 + abs(k) + abs(l)), started)
    )
    return results


def run_suite(
    n_list: Sequence[int],
    seeds: Iterable[int],
    tol: float = 1e-10,
    trials: int = 100,
    coeff_range: float = 5.0,
    phi_noise: float = 0.0,
    suite: str = "all",
) -> list[CheckResult]:
    """One suite of verifiers over the cartesian product of dimensions and seeds.

    ``suite`` is one of :data:`SUITES`: ``table``, ``eq32``, ``theorem1`` or
    ``product`` runs that verifier alone, and ``all`` runs the four in that
    order.  For each pair the stage is a seeded random adapted frame, so the
    suite also exercises basis independence; the product-route factor
    curvatures are drawn from the same seeded stream.  ``tol``, ``trials`` and
    ``coeff_range`` are validated before any work, whatever the suite.  An
    empty ``n_list`` yields an empty report.
    """
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {', '.join(SUITES)}, got {suite!r}")
    _check_tol(tol)
    trials = _check_draws(trials, coeff_range)
    results: list[CheckResult] = []
    seeds = list(seeds)
    for n in n_list:
        for seed in seeds:
            space = random_adapted_change(make_space(n), seed)
            if suite in ("table", "all"):
                results += verify_multiplication_table(space, tol, seed, phi_noise)
            if suite in ("eq32", "all"):
                results += verify_eq32(space, tol, seed)
            if suite in ("theorem1", "all"):
                results.append(verify_theorem1(space, trials, coeff_range, tol, seed))
            if suite in ("product", "all"):
                rng = np.random.default_rng([seed, n])
                k, l = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
                results += verify_product_route(space, k, l, tol, seed)
    return results
