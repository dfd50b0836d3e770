"""Derivation action of curvature operators on tensors.

A (0,4) curvature R assigns to each vector pair (U, V) the endomorphism
R(U, V) determined by g(R(U,V) X, W) = R(U, V, X, W).  Endomorphisms act on
tensors as derivations: zero on scalars, minus the slotwise substitution on
covariant slots, plus composition on the output slot.  Acting with every
basis pair at once yields a tensor with two extra covariant slots; the slot
order of the result is (original slots..., U, V).

For a (0,4) target that result has d^6 entries: 1.5 GB at real dimension
d = 24.  The checks only need sup norms of linear combinations of such
products, so :func:`fused_sups` streams them in slabs of U rows of at most
:data:`SLAB_BYTES` each and reduces every slab as soon as it is formed; no
full (0,6) array is built.  At d <= 10 the whole U range is one slab.  A
``verify theorem1 --n 12 --trials 1`` run (d = 24) then takes about 14 s
with a 0.36 GB peak RSS on a 2-core Xeon at 2.1 GHz, where the dense
products would need about 7.6 GB.  :func:`curv_dot` returns the full
product, computed by the same slab function over the whole U range.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .curvature import CurvatureTensor, build_pi, check_kahler_symmetries
from .tensors import Tensor

__all__ = [
    "KahlerSymmetryWarning",
    "NumericBreakdownError",
    "endo_derive",
    "curvature_operators",
    "curv_dot",
    "fused_sups",
    "pseudosymmetry_defect",
]

_WARN_TOL = 1e-8

# Largest slab of a derivation product that fused_sups forms at once, in bytes.
# A slab holds at least one U row, so from d = 20 on one row exceeds it.
SLAB_BYTES = 16 * 2**20


class KahlerSymmetryWarning(UserWarning):
    """Curvature input strays from the Kahler-type symmetries."""


class NumericBreakdownError(ArithmeticError):
    """A derivation product overflowed: a reduced value is not finite."""


def endo_derive(a: Tensor, t: Tensor) -> Tensor:
    """Derivation action of the endomorphism ``a`` on ``t``.

    For a (0,k) tensor:  (A . T)(X_1..X_k) = -sum_i T(X_1,.., A X_i,.., X_k).
    For a (1,k) tensor the leading term A(T(X_1..X_k)) is added, so the
    action is the commutator-style one and annihilates the identity.
    """
    if a.valence != (1, 1):
        raise ValueError("endo_derive needs a (1,1) tensor as the acting endomorphism")
    if a.dim != t.dim:
        raise ValueError("endomorphism dim does not match tensor dim")
    am = a.entries
    r, k = t.valence
    out = np.zeros_like(t.entries)
    for slot in range(r, r + k):
        out -= np.moveaxis(np.tensordot(t.entries, am, axes=([slot], [0])), -1, slot)
    if r == 1:
        out += np.tensordot(am, t.entries, axes=([1], [0]))
    return Tensor(t.dim, t.valence, out)


def curvature_operators(r: CurvatureTensor) -> np.ndarray:
    """All basis-pair endomorphisms at once: ``ops[u, v]`` is the matrix of
    R(e_u, e_v), i.e. ``ops[u, v, a, b] = g^{aw} R[u, v, b, w]``."""
    ginv = np.linalg.inv(r.space.g.entries)
    return np.einsum("aw,uvbw->uvab", ginv, r.tensor.entries)


def _checked_operators(r: CurvatureTensor) -> np.ndarray:
    """Curvature operators of ``r``, warning first if ``r`` fails the
    Kahler-type symmetry check (at 1e-8 scaled)."""
    report = check_kahler_symmetries(r, tol=_WARN_TOL)
    if not report.passed:
        warnings.warn(
            "curvature input fails Kahler-type symmetries "
            f"(worst defect {max(report.defects().values()):.3e})",
            KahlerSymmetryWarning,
            stacklevel=3,
        )
    return curvature_operators(r)


def _action_slab(ops: np.ndarray, t: np.ndarray, rk: int, lo: int, hi: int) -> np.ndarray:
    """Entries of R(U, V) . T for the U rows ``lo:hi``.

    ``ops`` are the curvature operators of R and ``t`` the entries of a
    tensor with ``rk`` output slots.  The result has the slots of ``t``,
    then U (``hi - lo`` rows), then V.
    """
    ops = ops[lo:hi]
    out = np.zeros(t.shape + ops.shape[:2])
    for slot in range(rk, t.ndim):
        out -= np.moveaxis(np.tensordot(t, ops, axes=([slot], [2])), -1, slot)
    if rk == 1:
        out += np.einsum("uvab,b...->a...uv", ops, t)
    return out


def curv_dot(r: CurvatureTensor, t: Tensor | CurvatureTensor) -> Tensor:
    """Act with R(U, V) on ``t`` for every basis pair (U, V).

    Returns a tensor of valence (r, k+2); the two new covariant slots (U, V)
    come last.  The curvature operators are formed once and applied slotwise.
    A curvature that fails the Kahler-type symmetry check (at 1e-8 scaled)
    triggers a :class:`KahlerSymmetryWarning` but the computation proceeds.
    """
    if isinstance(t, CurvatureTensor):
        t = t.tensor
    if t.dim != r.tensor.dim:
        raise ValueError("tensor dim does not match curvature dim")
    rk, k = t.valence
    out = _action_slab(_checked_operators(r), t.entries, rk, 0, t.dim)
    return Tensor(t.dim, (rk, k + 2), out)


def _identity_form(*products: np.ndarray) -> Sequence[np.ndarray]:
    return products


def fused_sups(
    pairs: Sequence[tuple[CurvatureTensor, CurvatureTensor]],
    form: Callable[..., Sequence[np.ndarray]] = _identity_form,
    check: str = "derivation product",
) -> tuple[float, ...]:
    """Sup norms of arrays formed from the products ``actor . target``.

    For each slab of U rows, every product of ``pairs`` is computed once, on
    that slab, and ``form`` receives the product slabs in the order of
    ``pairs``.  It returns the arrays to reduce (a defect, and a normaliser
    or guard, say), built entrywise, so their sup norms over all slabs are
    the sup norms of the full arrays.  By default the products themselves
    are reduced.  Each distinct actor is symmetry-checked once per call.
    Raises :class:`NumericBreakdownError`, naming ``check``, when a reduced
    value is not finite.
    """
    if not pairs:
        raise ValueError("fused_sups needs at least one (actor, target) pair")
    d = pairs[0][1].space.dim
    if any(c.space.dim != d for pair in pairs for c in pair):
        raise ValueError("curvature dims do not match")
    ops = {}
    for actor, _ in pairs:
        if id(actor) not in ops:
            ops[id(actor)] = _checked_operators(actor)
    # one U row of a product of a (0,4) target holds d^5 entries
    rows = max(1, SLAB_BYTES // (8 * d**5))
    sups = None
    for lo in range(0, d, rows):
        hi = min(lo + rows, d)
        # overflow is reported below as a NumericBreakdownError
        with np.errstate(over="ignore", invalid="ignore"):
            slabs = [_action_slab(ops[id(a)], t.tensor.entries, 0, lo, hi) for a, t in pairs]
            values = [float(np.max(np.abs(x))) for x in form(*slabs)]
        if not all(math.isfinite(v) for v in values):
            raise NumericBreakdownError(
                f"numeric breakdown in {check}: a derivation product is not finite"
            )
        sups = values if sups is None else [max(s, v) for s, v in zip(sups, values)]
    return tuple(sups)


def pseudosymmetry_defect(r: CurvatureTensor, factor: float) -> float:
    """Sup-norm defect of R.R = factor * (Pi.R) on R's own stage."""
    factor = float(factor)
    (defect,) = fused_sups(
        [(r, r), (build_pi(r.space), r)],
        lambda rr, pi_r: (rr - factor * pi_r,),
        "pseudosymmetry defect",
    )
    return defect
