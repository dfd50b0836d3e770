"""Warping profiles meeting the boundary curvature conditions.

A profile is a radius function r on [0, L] with r(0) = r0 > 0, r' > 0 on the
open interval, r'(0) = r'(L) = 0, and the endpoint conditions
2 r(0) r''(0) = s and 2 r(L) r''(L) = -s, where s = 2k/n is set by the factor
curvature k and the complex dimension n.  The associated fiber scale is
f = 2 r r' / s.

The derivative is taken as the quartic ansatz r'(t) = t (L - t) (g0 + g1 t):
the left condition fixes g0 = s / (2 r0 L), and the right condition is a
quadratic in g1 whose admissible root (r' > 0 inside) is selected
deterministically.  The curvature combination a + b/2 carried by the profile
is -4 r''/r; it is negative at 0, positive at L, and changes sign inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .derivation import NumericBreakdownError
from .tensors import _checked_int

__all__ = [
    "Profile",
    "ProfileSample",
    "ProfileReport",
    "NoAdmissibleRootError",
    "solve_profile",
    "eval_profile",
    "ab2",
    "ab2_alternate",
    "boundary_residuals",
    "profile_report",
]

_BISECT_TOL = 1e-12


class NoAdmissibleRootError(RuntimeError):
    """The boundary quadratic has no root keeping r' positive inside (0, L)."""


@dataclass(frozen=True)
class Profile:
    """A solved profile; gamma0 and gamma1 pin the quartic ansatz."""

    r0: float
    L: float
    s: float
    gamma0: float
    gamma1: float
    k: int
    n: int


class ProfileSample(NamedTuple):
    r: float
    r_prime: float
    r_second: float
    f: float
    f_prime: float


@dataclass(frozen=True, eq=False)
class ProfileReport:
    """Grid view of the curvature combination along a profile."""

    grid: np.ndarray
    ab2_values: np.ndarray
    sign_change_points: tuple[float, ...]
    boundary_residuals: tuple[float, float]
    boundary_bounds: tuple[float, float]


def solve_profile(r0: float, L: float, k: int, n: int) -> Profile:
    """Solve the endpoint conditions for the quartic ansatz.

    Returns the profile with the admissible quadratic root; among two
    admissible roots the one of smaller magnitude wins (ties break toward the
    larger root).  Raises ``ValueError`` on bad parameters and
    :class:`NoAdmissibleRootError` if no root keeps r' > 0 on (0, L).
    """
    if not (math.isfinite(r0) and r0 > 0):
        raise ValueError("r0 must be a positive finite number")
    if not (math.isfinite(L) and L > 0):
        raise ValueError("L must be a positive finite number")
    k = _checked_int(k, 1, "factor curvature index k")
    n = _checked_int(n, 2, "complex dimension n")
    # Python floats: an overflow below gives inf, where numpy scalars would warn
    r0, L = float(r0), float(L)

    s = 2.0 * k / n
    g0 = s / (2.0 * r0 * L)

    # r(L) = A + B*g1 and r''(L) = -(C + D*g1); the right-hand condition
    # 2 r(L) r''(L) = -s becomes q(g1) = 2 (A + B g1)(C + D g1) - s = 0.
    a_ = r0 + g0 * L**3 / 6.0
    b_ = L**4 / 12.0
    c_ = g0 * L
    d_ = L**2
    q2 = 2.0 * b_ * d_
    q1 = 2.0 * (a_ * d_ + b_ * c_)
    q0 = g0 * g0 * L**4 / 3.0  # equals 2*A*C - s exactly, without cancellation

    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        raise NoAdmissibleRootError("boundary quadratic has no real root")
    sq = math.sqrt(disc)
    root_far = (-q1 - sq) / (2.0 * q2)
    root_near = -2.0 * q0 / (q1 + sq)  # stable form of the root nearer zero

    def residual(g1: float) -> float:
        return 2.0 * (a_ + b_ * g1) * (c_ + d_ * g1) - s

    def residual_prime(g1: float) -> float:
        return 2.0 * (b_ * (c_ + d_ * g1) + d_ * (a_ + b_ * g1))

    admissible = [g1 for g1 in (root_near, root_far) if g0 + g1 * L >= 0.0]
    if not admissible:
        raise NoAdmissibleRootError(
            f"no quadratic root keeps r' > 0 on (0, {L}); roots {root_near}, {root_far}"
        )
    g1 = min(admissible, key=lambda x: (abs(x), -x))
    for _ in range(2):  # Newton polish against the boundary residual
        slope = residual_prime(g1)
        if slope == 0.0:
            break
        g1 -= residual(g1) / slope
    if g0 + g1 * L < 0.0:  # polish must not cross the admissibility line
        g1 = -g0 / L
    return Profile(r0=r0, L=L, s=s, gamma0=g0, gamma1=float(g1), k=k, n=n)


def _domain(profile: Profile, t, lo: float, hi: float):
    arr = np.asarray(t, dtype=float)
    if not ((arr >= lo).all() and (arr <= hi).all()):  # NaN fails both
        raise ValueError(f"t must lie in [{lo}, {hi}] for this profile")
    return arr


def _terms(profile: Profile, t):
    """The terms of r and of r'' at ``t``, in summation order."""
    g0, g1, L = profile.gamma0, profile.gamma1, profile.L
    r_terms = (profile.r0, g0 * L * t**2 / 2.0, (g1 * L - g0) * t**3 / 3.0, -g1 * t**4 / 4.0)
    rpp_terms = (g0 * L, 2.0 * (g1 * L - g0) * t, -3.0 * g1 * t**2)
    return r_terms, rpp_terms


def eval_profile(profile: Profile, t):
    """Sample (r, r', r'', f, f') at ``t`` (scalar or array) in [0, L]."""
    arr = _domain(profile, t, 0.0, profile.L)
    g0, g1, L, s = profile.gamma0, profile.gamma1, profile.L, profile.s
    r, rpp = (sum(terms) for terms in _terms(profile, arr))
    rp = arr * (L - arr) * (g0 + g1 * arr)
    f = 2.0 * r * rp / s
    fp = 2.0 * (rp * rp + r * rpp) / s
    if arr.ndim == 0:
        return ProfileSample(float(r), float(rp), float(rpp), float(f), float(fp))
    return ProfileSample(r, rp, rpp, f, fp)


def _finite(name: str, out: np.ndarray):
    """``out`` as a float or an array; an overflow is a named breakdown."""
    if out.ndim == 0:  # math.isfinite: np.isfinite costs 7 us on a 0-d array
        out = float(out)
        finite = math.isfinite(out)
    else:
        finite = np.isfinite(out).all()
    if not finite:
        raise NumericBreakdownError(f"numeric breakdown in {name}: an a+b/2 value is not finite")
    return out


def ab2(profile: Profile, t):
    """The curvature combination a + b/2 along the profile: -4 r''/r.

    Evaluates r and r'' only, with the same terms as :func:`eval_profile`, so
    the values equal ``-4 r_second / r`` of its sample bit for bit.  The terms
    stay on numpy arrays (0-d for a scalar ``t``): numpy's ``pow`` and Python's
    float ``**`` differ in the last bit on some inputs.

    Raises :class:`~qch.derivation.NumericBreakdownError` when a value
    overflows (near 0 it is about -2 s / r0**2, past the float range for
    r0 below about 1e-154)."""
    arr = _domain(profile, t, 0.0, profile.L)
    r, rpp = (sum(terms) for terms in _terms(profile, arr))
    with np.errstate(over="ignore"):
        out = -4.0 * rpp / r
    return _finite("ab2", out)


def ab2_alternate(profile: Profile, t, eps: float | None = None):
    """First-form evaluation 4 ((r'/r)^2 - f' r' / (r f)).

    Valid only away from the endpoints, where f vanishes; ``eps`` is the
    exclusion margin (default L * 1e-3) and out-of-margin input raises.
    Raises :class:`~qch.derivation.NumericBreakdownError` when a value
    overflows (for tiny r0).
    """
    if eps is None:
        eps = profile.L * 1e-3
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be a positive margin")
    arr = _domain(profile, t, eps, profile.L - eps)
    sample = eval_profile(profile, arr)
    r, rp, f, fp = (np.asarray(v) for v in (sample.r, sample.r_prime, sample.f, sample.f_prime))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = 4.0 * ((rp / r) ** 2 - fp * rp / (r * f))
    return _finite("ab2_alternate", out)


def _bisect_sign_change(profile: Profile, lo: float, hi: float) -> float:
    flo = ab2(profile, lo)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the spacing near a long L exceeds the tol
            break
        fmid = ab2(profile, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _endpoint_checks(profile: Profile) -> tuple[tuple[float, float], tuple[float, float]]:
    """The endpoint residuals and their bounds, as :func:`boundary_residuals`
    gives them, without the check that each bound is below s."""
    eps = float(np.finfo(float).eps)
    checks = []
    for t, target in ((0.0, profile.s), (profile.L, -profile.s)):
        x = eval_profile(profile, t)
        r_abs, rpp_abs = (sum(map(abs, terms)) for terms in _terms(profile, t))
        scale = 2.0 * (r_abs * abs(x.r_second) + abs(x.r) * rpp_abs)
        checks.append((abs(2.0 * x.r * x.r_second - target), max(1e-12, 16.0 * eps * scale)))
    residuals, bounds = zip(*checks)
    return residuals, bounds


def _require_bounds_below_s(profile: Profile, bounds: tuple[float, float]) -> None:
    for t, bound in zip((0.0, profile.L), bounds):
        if not bound < profile.s:
            raise NumericBreakdownError(
                f"numeric breakdown in boundary residuals: the rounding bound {bound:.3e} "
                f"at t = {t!r} is not below s = {profile.s!r}"
            )


def boundary_residuals(profile: Profile) -> tuple[tuple[float, float], tuple[float, float]]:
    """Endpoint residuals ``|2 r r'' - s|`` at 0 and ``|2 r r'' + s|`` at L,
    and the bound each must meet, ``max(1e-12, 16 eps scale)``: evaluating
    the condition rounds in proportion to ``scale``, the sum of the absolute
    terms of ``2 r r''`` there (about 1e4 when r(L) is about 100).

    Raises :class:`~qch.derivation.NumericBreakdownError` when a bound is not
    below s: the terms then cancel so far that a residual of s, an endpoint
    condition that fails outright, would pass (r0 = 1e-9, L = 1 gives 1184)."""
    residuals, bounds = _endpoint_checks(profile)
    _require_bounds_below_s(profile, bounds)
    return residuals, bounds


def profile_report(profile: Profile, grid_size: int = 1000) -> ProfileReport:
    """Uniform-grid report: ab2 samples, bisected sign changes, and the
    endpoint condition residuals with their bounds, as :func:`boundary_residuals`
    gives them (the breakdown for a bound not below s is left to the caller).

    A zero sample is a sign change only between nonzero samples of opposite
    signs.  Raises :class:`~qch.derivation.NumericBreakdownError` when every
    sample is zero (ab2 underflows for huge r0) or one overflows (tiny r0)."""
    grid = np.linspace(0.0, profile.L, _checked_int(grid_size, 3, "grid_size"))
    values = ab2(profile, grid)

    # a sign change lies between consecutive nonzero samples of opposite
    # signs: bisected when they are neighbours, else the first zero between
    nonzero = np.flatnonzero(values)
    if not nonzero.size:
        raise NumericBreakdownError(
            "numeric breakdown in profile report: every a+b/2 sample is zero"
        )
    negative = values[nonzero] < 0.0
    points: list[float] = []
    for c in np.flatnonzero(negative[:-1] != negative[1:]):
        i, j = int(nonzero[c]), int(nonzero[c + 1])
        if j == i + 1:
            points.append(_bisect_sign_change(profile, float(grid[i]), float(grid[j])))
        else:
            points.append(float(grid[i + 1]))

    residuals, bounds = _endpoint_checks(profile)
    return ProfileReport(
        grid=grid,
        ab2_values=values,
        sign_change_points=tuple(points),
        boundary_residuals=residuals,
        boundary_bounds=bounds,
    )
