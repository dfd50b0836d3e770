"""Derivation action of curvature operators on tensors.

A (0,4) curvature R assigns to each vector pair (U, V) the endomorphism
R(U, V) determined by g(R(U,V) X, W) = R(U, V, X, W).  Endomorphisms act on
tensors as derivations: zero on scalars, minus the slotwise substitution on
covariant slots, plus composition on the output slot.  Acting with every
basis pair at once yields a tensor with two extra covariant slots; the slot
order of the result is (original slots..., U, V).

For a (0,4) target that result has d^6 entries: 1.5 GB at real dimension
d = 24.  The checks only need sup norms of linear combinations of such
products, so :func:`fused_sups` streams them in slabs of at most
:data:`SLAB_BYTES` (1 MB) and reduces every slab as soon as it is formed; no
full (0,6) array is built.  A slab is a range of flattened (U, V) pairs, pair
axis first: all pairs up to d = 6, 32 pairs at d = 8, one pair from d = 20
on.  Each slot's term of the action is one batched matmul that lands in that
layout, and a check allocates one buffer per product and one term buffer,
which every slab reuses; its ``form`` combines the product slabs in place.
A ``verify theorem1 --n 12 --trials 1`` run (d = 24) then takes about 5 s
with a 62 MB peak RSS on a 2-core Xeon at 2.1 GHz, where the dense products
would need about 7.6 GB.  :func:`curv_dot` returns the full
product, computed by the same slab function over all pairs, with the pair
axes moved back to the end.
"""

from __future__ import annotations

import math
import warnings
import weakref
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
# A slab holds at least one (U, V) pair, so from d = 20 on one pair exceeds it.
SLAB_BYTES = 2**20


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
    out = _action_slab(a.entries[None], t.entries, t.valence[0], 0, 1)[0]
    return Tensor(t.dim, t.valence, out)


def curvature_operators(r: CurvatureTensor) -> np.ndarray:
    """All basis-pair endomorphisms at once: ``ops[u, v]`` is the matrix of
    R(e_u, e_v), i.e. ``ops[u, v, a, b] = g^{aw} R[u, v, b, w]``."""
    ginv = np.linalg.inv(r.space.g.entries)
    return np.einsum("aw,uvbw->uvab", ginv, r.tensor.entries)


# Stage, operators and symmetry report of each curvature in use, keyed by its
# entries (immutable, hashed by identity), so every wrapper of a stage's shared
# blocks finds them; the stage is held weakly, or it would keep its blocks alive.
_OPERATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _checked_operators(r: CurvatureTensor) -> np.ndarray:
    """Curvature operators of ``r``, warning first if ``r`` fails the
    Kahler-type symmetry check (at 1e-8 scaled).  Both are computed once per
    tensor and stage; the warning is repeated on every use."""
    memo = _OPERATORS.get(r.tensor)
    if memo is None or memo[0]() is not r.space:
        _OPERATORS[r.tensor] = memo = (weakref.ref(r.space), curvature_operators(r),
                                       check_kahler_symmetries(r, tol=_WARN_TOL))
    _, ops, report = memo
    if not report.passed:
        warnings.warn(
            "curvature input fails Kahler-type symmetries "
            f"(worst defect {max(report.defects().values()):.3e})",
            KahlerSymmetryWarning,
            stacklevel=3,
        )
    return ops


def _action_slab(ops: np.ndarray, t: np.ndarray, rk: int, lo: int, hi: int,
                 out: np.ndarray | None = None, term: np.ndarray | None = None) -> np.ndarray:
    """Entries of R(U, V) . T for the flattened pairs ``lo:hi`` of (U, V).

    ``ops`` are the curvature operators of R and ``t`` the entries of a
    tensor with ``rk`` output slots.  The result has the pair axis
    (``hi - lo`` pairs ``U * d + V``) first, then the slots of ``t``.  It is
    written into ``out`` and each slot's term into ``term`` when they are
    given (arrays with at least ``hi - lo`` pairs), so a caller that keeps
    both across slabs allocates nothing per slab.
    """
    d = ops.shape[-1]
    ops = ops.reshape(-1, d, d)[lo:hi]
    ops_t = ops.transpose(0, 2, 1)[:, None]
    m = len(ops)
    out = np.empty((m,) + t.shape) if out is None else out[:m]
    term = np.empty_like(out) if term is None else term[:m]
    dst = out
    for slot in range(rk, t.ndim):
        # -T(..., A X_slot, ...): one batched matmul over the slot's axis
        left, right = d**slot, d ** (t.ndim - slot - 1)
        if right == 1:
            np.matmul(t.reshape(left, d), ops, out=dst.reshape(m, left, d))
        else:
            np.matmul(ops_t, t.reshape(left, d, right), out=dst.reshape(m, left, d, right))
        if dst is out:
            np.negative(out, out=out)
            dst = term
        else:
            np.subtract(out, dst, out=out)
    if rk == 1:
        # A(T(X_1, ..., X_k)) on the output slot
        np.matmul(ops, t.reshape(d, -1), out=dst.reshape(m, d, -1))
        if dst is not out:
            np.add(out, dst, out=out)
    elif dst is out:
        out.fill(0.0)  # derivations vanish on scalars
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
    d = t.dim
    out = _action_slab(_checked_operators(r), t.entries, rk, 0, d * d)
    return Tensor(d, (rk, k + 2), np.moveaxis(out, 0, -1).reshape(t.entries.shape + (d, d)))


def _identity_form(*products: np.ndarray) -> Sequence[np.ndarray]:
    return products


def fused_sups(
    pairs: Sequence[tuple[CurvatureTensor, CurvatureTensor]],
    form: Callable[..., Sequence[np.ndarray]] = _identity_form,
    check: str = "derivation product",
) -> tuple[float, ...]:
    """Sup norms of arrays formed from the products ``actor . target``.

    For each slab of (U, V) pairs, every product of ``pairs`` is computed
    once, on that slab, and ``form`` receives the product slabs in the order
    of ``pairs``.  It returns the arrays to reduce (a defect, and a
    normaliser or guard, say), built entrywise, so their sup norms over all
    slabs are the sup norms of the full arrays.  By default the products
    themselves are reduced.  The slabs are buffers that every slab reuses:
    ``form`` may overwrite them (with ``out=`` ufuncs, say) and return them,
    and each returned array is overwritten by its absolute values as it is
    reduced.  Each actor is symmetry-checked once per tensor and stage and, if it
    fails, warns once per call.
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
        if actor not in ops:
            ops[actor] = _checked_operators(actor)
    # one (U, V) pair of a product of a (0,4) target holds d^4 entries
    step = min(d * d, max(1, SLAB_BYTES // (8 * d**4)))
    products = [np.empty((step,) + (d,) * 4) for _ in pairs]
    term = np.empty_like(products[0])
    sups = None
    # overflow is reported as a NumericBreakdownError
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, d * d, step):
            hi = min(lo + step, d * d)
            slabs = [
                _action_slab(ops[a], t.tensor.entries, 0, lo, hi, out, term)
                for (a, t), out in zip(pairs, products)
            ]
            values = [float(np.max(np.abs(x, out=x))) for x in form(*slabs)]
            if not all(math.isfinite(v) for v in values):
                raise NumericBreakdownError(
                    f"numeric breakdown in {check}: a derivation product is not finite"
                )
            sups = values if sups is None else [max(s, v) for s, v in zip(sups, values)]
    return tuple(sups)


def pseudosymmetry_defect(r: CurvatureTensor, factor: float) -> float:
    """Sup-norm defect of R.R = factor * (Pi.R) on R's own stage; a factor
    that is not finite is a ``ValueError``, raised before any product."""
    factor = float(factor)
    if not math.isfinite(factor):
        raise ValueError(f"pseudosymmetry factor must be finite, got {factor!r}")

    def defect(rr, pi_r):
        np.multiply(pi_r, factor, out=pi_r)
        return (np.subtract(rr, pi_r, out=pi_r),)

    (sup,) = fused_sups([(r, r), (build_pi(r.space), r)], defect, "pseudosymmetry defect")
    return sup
