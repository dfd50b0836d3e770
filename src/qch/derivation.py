"""Derivation action of curvature operators on tensors.

A (0,4) curvature R assigns to each vector pair (U, V) the endomorphism
R(U, V) determined by g(R(U,V) X, W) = R(U, V, X, W).  Endomorphisms act on
tensors as derivations: zero on scalars, minus the slotwise substitution on
covariant slots, plus composition on the output slot.  Acting with every
basis pair at once yields a tensor with two extra covariant slots; the slot
order of the result is (original slots..., U, V).

For a (0,4) target that result has d^6 entries: 1.5 GB at real dimension
d = 24.  Every check is a linear relation ``c * Sum lhs = e * Sum rhs`` among
such products and needs only sup norms, so :func:`fused_sups` streams the
products in slabs of at most :data:`SLAB_BYTES` (1 MB), forms the relation in
place and reduces every slab as soon as it is formed; no full (0,6) array is
built.  A slab is a range of (U, V) pairs of an operator stack, pair axis
first.  When every actor of a check has exactly antisymmetric operators,
R(V, U) = -R(U, V) bit for bit, as the model blocks, their combinations and
product curvatures do by construction, the stack holds only the d(d-1)/2
pairs U < V.  That is exact: negating an operator negates every rounded
product and sum, so each product, and each linear combination of products,
at (V, U) is the exact negation of the one at (U, V), and zero at U = V.  Any
other actor (a perturbed block, a user tensor, one off by an ulp) runs all
d^2 pairs.  A slab holds all pairs U < V up to d = 8, 13 pairs at d = 10 and
one pair from d = 20 on.  Each slot's term of the action is one batched
matmul that lands in that layout, and a check allocates one buffer per
product and one term buffer, which every slab reuses.

A sweep of more than one slab (d >= 10) runs on one worker per available core,
at most d/2: the calling thread and a ``threading.Thread`` for each other.
Every worker walks every slab but forms only its own block of rows of the
products' first slot, in its own buffers of that many rows, so all workers
together hold the bytes of one full set.  Meanwhile numpy's bundled OpenBLAS
is pinned to one thread (through ``ctypes``; two BLAS threads per worker
would oversubscribe the cores) under a module lock, and its old count is
restored when the last worker has joined.  Where its thread control is not
found the sweep runs on the calling thread alone.  Each sup is a max over
rows and slabs, and a block of two or more rows rounds every entry as the
full product does, so the split changes no bit.  On a 2-core Xeon at 2.1 GHz
one d = 24 theorem1 sweep then takes about 1.0-1.1 s instead of 1.8-1.9 s,
where the dense products would need about 7.6 GB.  :func:`curv_dot` returns
the full product, computed by the same slab function over all d^2 pairs,
with the pair axes moved back to the end.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
import warnings
import weakref
from typing import Sequence

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


# Stage, operator stack and symmetry report of each curvature in use, keyed by
# its entries (immutable, hashed by identity), so every wrapper of a stage's
# shared blocks finds them; the stage is held weakly, or it would keep its
# blocks alive.
_OPERATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _checked_operators(r: CurvatureTensor) -> np.ndarray:
    """Stacked curvature operators of ``r``, warning first if ``r`` fails the
    Kahler-type symmetry check (at 1e-8 scaled).

    When the operators are exactly antisymmetric, R(V, U) = -R(U, V) bit for
    bit, the stack holds the d(d-1)/2 pairs U < V in ``np.triu_indices``
    order; otherwise it holds all d*d pairs ``U * d + V``.  Both are computed
    once per tensor and stage; the warning is repeated on every use.
    """
    memo = _OPERATORS.get(r.tensor)
    if memo is None or memo[0]() is not r.space:
        ops = curvature_operators(r)
        d = r.space.dim
        if np.array_equal(ops, -ops.swapaxes(0, 1)):
            ops = ops[np.triu_indices(d, 1)]
        else:
            ops = ops.reshape(d * d, d, d)
        _OPERATORS[r.tensor] = memo = (weakref.ref(r.space), ops,
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
                 out: np.ndarray | None = None, term: np.ndarray | None = None,
                 rows: slice = slice(None)) -> np.ndarray:
    """Entries of R(U, V) . T for the pairs ``lo:hi`` of an operator stack,
    restricted to the ``rows`` of the first slot of ``t``.

    ``ops`` is a (P, d, d) stack of curvature operators of R and ``t`` the
    entries of a tensor with ``rk`` output slots.  The result has the pair
    axis (``hi - lo`` pairs of the stack) first, then the slots of ``t``, the
    first cut to ``rows``.  It is written into ``out`` and each slot's term
    into ``term`` when they are given (arrays with at least ``hi - lo``
    pairs), so a caller that keeps both across slabs allocates nothing per
    slab.
    """
    d = ops.shape[-1]
    ops = ops[lo:hi]
    ops_t = ops.transpose(0, 2, 1)[:, None]
    m = len(ops)
    head = t[rows] if t.ndim else t
    out = np.empty((m,) + head.shape) if out is None else out[:m]
    term = np.empty_like(out) if term is None else term[:m]
    dst = out
    for slot in range(rk, t.ndim):
        # -T(..., A X_slot, ...): one batched matmul over the slot's axis; on
        # the first slot the rows are the columns of A, on the others of T
        right = d ** (t.ndim - slot - 1)
        src = head if slot else t
        left = src.size // (d * right)
        if right == 1:
            a = ops if slot else ops[:, :, rows]
            np.matmul(src.reshape(left, d), a, out=dst.reshape(m, left, -1))
        else:
            a_t = ops_t if slot else ops_t[:, :, rows]
            np.matmul(a_t, src.reshape(left, d, right), out=dst.reshape(m, left, -1, right))
        if dst is out:
            np.negative(out, out=out)
            dst = term
        else:
            np.subtract(out, dst, out=out)
    if rk == 1:
        # A(T(X_1, ..., X_k)) on the output slot
        np.matmul(ops[:, rows], t.reshape(d, -1), out=dst.reshape(m, len(head), -1))
        if dst is not out:
            np.add(out, dst, out=out)
    elif dst is out:
        out.fill(0.0)  # derivations vanish on scalars
    return out


def curv_dot(r: CurvatureTensor, t: Tensor | CurvatureTensor) -> Tensor:
    """Act with R(U, V) on ``t`` for every basis pair (U, V).

    Returns a tensor of valence (r, k+2); the two new covariant slots (U, V)
    come last.  The curvature operators of all d*d pairs are formed afresh
    and applied slotwise, so this is the dense reference for
    :func:`fused_sups`, whatever pair list that takes.
    A curvature that fails the Kahler-type symmetry check (at 1e-8 scaled)
    triggers a :class:`KahlerSymmetryWarning` but the computation proceeds.
    """
    if isinstance(t, CurvatureTensor):
        t = t.tensor
    if t.dim != r.tensor.dim:
        raise ValueError("tensor dim does not match curvature dim")
    rk, k = t.valence
    d = t.dim
    _checked_operators(r)  # the symmetry check and its warning
    out = _action_slab(curvature_operators(r).reshape(d * d, d, d), t.entries, rk, 0, d * d)
    return Tensor(d, (rk, k + 2), np.moveaxis(out, 0, -1).reshape(t.entries.shape + (d, d)))


def _weighted_sum(slabs: Sequence[np.ndarray], coeff: float) -> np.ndarray:
    """``coeff`` times the sum of ``slabs``, summed left to right in the first."""
    total = slabs[0]
    for slab in slabs[1:]:
        np.add(total, slab, out=total)
    if coeff != 1.0:
        np.multiply(total, coeff, out=total)
    return total


def _openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None when its library or either symbol is not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


# Held from pinning OpenBLAS to one thread until its old count is restored, so
# two concurrent sweeps cannot leave it pinned.
_BLAS_LOCK = threading.Lock()


def fused_sups(
    lhs: Sequence[tuple[CurvatureTensor, CurvatureTensor]],
    rhs: Sequence[tuple[CurvatureTensor, CurvatureTensor]] = (),
    coeffs: tuple[float, float] = (1.0, 1.0),
    check: str = "derivation product",
) -> tuple[float, float]:
    """Sup norms of the relation ``c * Sum lhs = e * Sum rhs`` of derivation products.

    ``lhs`` and ``rhs`` (which may be empty) list ``(actor, target)`` pairs,
    each standing for the product ``actor . target``, and ``coeffs`` is
    ``(c, e)``.  Returns the defect and the guard,
    ``(sup|c Sum lhs - e Sum rhs|, sup|c Sum lhs|)``.  Each slab of (U, V)
    pairs forms every product once, in a buffer that all slabs reuse; a side
    is summed left to right in its first product's buffer, then scaled
    (unless its coefficient is 1.0).  Each actor is symmetry-checked once per
    tensor and stage and, if it fails, warns once per call.

    When every actor's operators are exactly antisymmetric (see
    :func:`_checked_operators`), only the pairs U < V are formed: the defect
    and the guard, linear in the products, are then exactly negated at
    (V, U) and zero at U = V.  A call with any other actor forms all d*d
    pairs.  A call of more than one slab runs on one worker per available
    core (at most d/2), each forming every slab for its own block of rows of
    the products' first slot, with OpenBLAS pinned to one thread meanwhile;
    the buffers of all workers together are the size of one full set.  A
    sup is a max, so the split changes no bit.  Raises
    :class:`NumericBreakdownError`, naming ``check``, when a reduced value is
    not finite.
    """
    if not lhs:
        raise ValueError("fused_sups needs at least one (actor, target) pair on the left")
    pairs = [*lhs, *rhs]
    d = pairs[0][1].space.dim
    if any(c.space.dim != d for pair in pairs for c in pair):
        raise ValueError("curvature dims do not match")
    ops = {}
    for actor, _ in pairs:
        if actor not in ops:
            ops[actor] = _checked_operators(actor)
    count = max(len(stack) for stack in ops.values())
    if count == d * d:  # an actor is not exactly antisymmetric: all pairs
        ops = {a: stack if len(stack) == count else curvature_operators(a).reshape(count, d, d)
               for a, stack in ops.items()}
    # one (U, V) pair of a product of a (0,4) target holds d^4 entries
    step = min(count, max(1, SLAB_BYTES // (8 * d**4)))
    blas = _openblas() if count > step else None
    # a block of one row would take numpy's matrix-vector path, whose sums
    # round differently, so every block has at least two
    workers = min(len(os.sched_getaffinity(0)), d // 2) if blas else 1
    bounds = [d * w // workers for w in range(workers + 1)]
    jobs = [
        (slice(r0, r1), [np.empty((step, r1 - r0) + (d,) * 3) for _ in range(len(pairs) + 1)])
        for r0, r1 in zip(bounds, bounds[1:])
    ]
    stacks = [ops[a] for a, _ in pairs]
    targets = [t.tensor.entries for _, t in pairs]
    c, e = coeffs
    split = len(lhs)
    stop = threading.Event() if workers > 1 else None

    def sweep(rows, buffers):
        """The sups over the ``rows`` of the products' first slot, formed in
        ``buffers`` (one per product, then the term buffer), slab by slab
        until another worker fails."""
        *products, term = buffers
        sups = [0.0, 0.0] if rhs else [0.0]
        # overflow is reported as a NumericBreakdownError
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, count, step):
                if stop is not None and stop.is_set():
                    break
                hi = min(lo + step, count)
                slabs = [
                    _action_slab(stack, t, 0, lo, hi, out, term, rows)
                    for stack, t, out in zip(stacks, targets, products)
                ]
                left = _weighted_sum(slabs[:split], c)
                arrays = [left]
                if rhs:  # the defect, formed in the right side's buffer, goes first
                    right = _weighted_sum(slabs[split:], e)
                    arrays.insert(0, np.subtract(left, right, out=right))
                values = [float(np.max(np.abs(x, out=x))) for x in arrays]
                if not all(math.isfinite(v) for v in values):
                    raise NumericBreakdownError(
                        f"numeric breakdown in {check}: a derivation product is not finite"
                    )
                sups = [max(s, v) for s, v in zip(sups, values)]
        return sups

    if workers == 1:
        sups = sweep(*jobs[0])
        return (sups[0], sups[-1])
    results: list = [None] * workers

    def work(w):
        try:
            results[w] = sweep(*jobs[w])
        except BaseException as exc:  # re-raised on the caller once every worker is done
            results[w] = exc
            stop.set()

    get, put = blas
    with _BLAS_LOCK:
        old = get()
        put(1)
        threads = []
        try:
            for w in range(1, workers):
                thread = threading.Thread(target=work, args=(w,))
                thread.start()
                threads.append(thread)
            work(0)
        finally:
            for thread in threads:
                thread.join()
            put(old)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    sups = [max(s) for s in zip(*results)]
    return (sups[0], sups[-1])


def pseudosymmetry_defect(r: CurvatureTensor, factor: float) -> float:
    """Sup-norm defect of R.R = factor * (Pi.R) on R's own stage; a factor
    that is not finite is a ``ValueError``, raised before any product."""
    factor = float(factor)
    if not math.isfinite(factor):
        raise ValueError(f"pseudosymmetry factor must be finite, got {factor!r}")
    return fused_sups([(r, r)], [(build_pi(r.space), r)], (1.0, factor),
                      "pseudosymmetry defect")[0]
