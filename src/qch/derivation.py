"""Derivation action of curvature operators on tensors.

A (0,4) curvature R assigns to each vector pair (U, V) the endomorphism
R(U, V) determined by g(R(U,V) X, W) = R(U, V, X, W).  Endomorphisms act on
tensors as derivations: zero on scalars, minus the slotwise substitution on
covariant slots, plus composition on the output slot.  Acting with every
basis pair at once yields a tensor with two extra covariant slots; the slot
order of the result is (original slots..., U, V).

The checks stream these d^6-entry products in slabs of at most
:data:`SLAB_BYTES` and keep only sup norms.  The layout rests on these
invariants, each exact bit for bit:

- U < V mirror.  A curvature with R(V, U) = -R(U, V) bit for bit (the gate
  is ``np.array_equal``) has a stack of the pairs U < V only: negating an
  operator negates every rounded product and sum, so each linear
  combination of products at (V, U) is the exact negation of the one at
  (U, V), and zero at U = V.  A relation whose stacks disagree expands each
  U < V stack to all d^2 pairs by that negation (:func:`_all_pairs`).
- X1 <= X2 mirror.  When every target is antisymmetric in its first output
  pair bit for bit, each slot's term at (X2, X1) sums the negated terms at
  (X1, X2) in the same order, so a sweep's sups are reached on X1 <= X2.
- X3 X4 swap.  When every target of a sweep of several slabs is also
  antisymmetric in its second pair bit for bit, the last slot's term is
  minus the third slot's with X3 and X4 swapped, summed in the same order
  by both matmuls wherever the last slot's one is above the small-matrix
  cut below (from d = 20 on); there it is not formed, and the third slot's
  term is added transposed instead.  At d = 18, below the cut, the two
  differ in the last bit.
- Two fixed blocks.  A sweep of several slabs forms each product on the two
  blocks of :func:`_blocks`, which depend on d alone; cores decide only
  whether one worker forms both or two form one each.  A sweep of one slab
  forms the full square as one block.
- Small-matrix cut.  OpenBLAS (0.3.31) sums some entries of a matmul with
  M N K <= 1e6 otherwise than a larger one's, so a block's entries equal the
  full square's only while each of its matmuls stays on the same side of
  that cut; the tests pin them at d = 16 and 20.
- BLAS pin.  While two workers run, numpy's bundled OpenBLAS is pinned to
  one thread under a module lock and restored when both have joined; where
  its thread control is not found the sweep runs on the calling thread.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import math
import numbers
import os
import threading
import warnings
import weakref
from typing import Iterator, Sequence

import numpy as np

from .curvature import CurvatureTensor, _combination, _kahler_verdict, _symmetry_defects, build_pi
from .spaces import HermitianSpace
from .tensors import NumericBreakdownError, Tensor, UsageError

__all__ = [
    "KahlerSymmetryWarning",
    "endo_derive",
    "curvature_operators",
    "curv_dot",
    "fused_sups",
    "pseudosymmetry_sups",
]

_WARN_TOL = 1e-8

# Largest slab of a derivation product that fused_sups forms at once, in bytes.
# A slab holds at least one (U, V) pair, so from d = 20 on one pair exceeds it.
SLAB_BYTES = 2**20

# OpenBLAS runs a matmul of M N K at most this on its small-matrix kernel.
_SMALL_MNK = 10**6


class KahlerSymmetryWarning(UserWarning):
    """Curvature input strays from the Kahler-type symmetries."""


_BREAKDOWN = "numeric breakdown in {}: a derivation product is not finite"


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
    out = _action_slab(a.entries[None, None], t.entries[None], t.valence[0], 0, 1)[0, 0]
    return Tensor(t.dim, t.valence, out)


def curvature_operators(r: CurvatureTensor) -> np.ndarray:
    """All basis-pair endomorphisms at once: ``ops[u, v]`` is the matrix of
    R(e_u, e_v), i.e. ``ops[u, v, a, b] = g^{aw} R[u, v, b, w]``."""
    return _operators(r.space, r.tensor.entries)


def _operators(space: HermitianSpace, arr: np.ndarray) -> np.ndarray:
    """:func:`curvature_operators` of each (0,4) array over the leading axes
    of ``arr``."""
    return np.einsum("aw,...uvbw->...uvab", np.linalg.inv(space.g.entries), arr)


def _prepared(space: HermitianSpace, arr: np.ndarray) -> tuple:
    """The (B, P, d, d) operator stack, the sup norms and the warnings of the
    (B, d, d, d, d) curvatures ``arr`` on ``space``.  The stack holds the
    d(d-1)/2 pairs U < V in ``np.triu_indices`` order when R(V, U) = -R(U, V)
    bit for bit in all of them, otherwise all d*d pairs ``U * d + V``; a
    curvature that fails the Kahler-type symmetries (at 1e-8 scaled) has the
    text of its warning, any other None.  The symmetry defects are formed
    first, so their temporaries and the stack are never alive together."""
    *defects, size = _symmetry_defects(space, arr)
    _, passed = _kahler_verdict(defects, size, _WARN_TOL)
    texts = [None if ok else "curvature input fails Kahler-type symmetries "
             f"(worst defect {max(v[i] for v in defects):.3e})" for i, ok in enumerate(passed)]
    ops, d = _operators(space, arr), space.dim
    if _antisymmetric_in_first_pair(ops):
        return ops[(slice(None), *np.triu_indices(d, 1))], size, texts
    return ops.reshape(len(arr), d * d, d, d), size, texts


# Stage, (1, P, d, d) stack and warning text of each curvature in use,
# keyed by its entries (immutable, hashed by identity) so that every wrapper
# of a stage's blocks finds them; the stage is held weakly, as it holds them.
_OPERATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _checked_operators(r: CurvatureTensor) -> np.ndarray:
    """The (1, P, d, d) operator stack of ``r`` (see :func:`_prepared`),
    warning first if ``r`` fails the Kahler-type symmetry check.  Both are
    computed once per tensor and stage; the warning is repeated on every use.
    """
    memo = _OPERATORS.get(r.tensor)
    if memo is None or memo[0]() is not r.space:
        ops, _, (text,) = _prepared(r.space, r.tensor.entries[None])
        _OPERATORS[r.tensor] = memo = (weakref.ref(r.space), ops, text)
    _, ops, text = memo
    if text is not None:
        warnings.warn(text, KahlerSymmetryWarning, stacklevel=3)
    return ops


def _action_slab(ops: np.ndarray, t: np.ndarray, rk: int, lo: int, hi: int,
                 out: np.ndarray | None = None, term: np.ndarray | None = None,
                 rows: slice = slice(None), cols: slice = slice(None),
                 head: np.ndarray | None = None, antisym: bool = False) -> np.ndarray:
    """Entries of R(U, V) . T for the pairs ``lo:hi`` of each trial's operator
    stack, restricted to the ``rows`` of the first slot of ``t`` and, for a
    tensor of two or more slots, the ``cols`` of its second.

    ``ops`` is a (B, P, d, d) stack of curvature operators, one (P, d, d)
    stack per trial, and ``t`` the (B, ...) entries of each trial's tensor
    with ``rk`` output slots; either may hold one trial that all share.  The
    result has the trial axis first, then the pair axis (``hi - lo`` pairs),
    then the slots of ``t``, the first two cut to ``rows`` and ``cols``.
    ``head`` is ``t[:, rows, cols]``, contiguous, when the caller keeps it
    across slabs; each later slot's term is then one matmul over it.  Each
    trial's matmuls have the shapes of a single trial's, so batching trials
    changes no bit.  The result is written into ``out`` and each slot's term
    into ``term`` when they are given (contiguous arrays of at least the
    result's size), so a caller that keeps both across slabs allocates
    nothing per slab but numpy's buffer of the transposed add below
    (``np.getbufsize()`` values, freed when it returns).  ``antisym`` says
    that each trial's tensor is (0,4) and antisymmetric in its last two
    slots bit for bit; where the last slot's matmul is above
    :data:`_SMALL_MNK`, its term is then not formed, and the third slot's is
    added transposed (see the module docstring).
    """
    d = ops.shape[-1]
    ops = ops[:, lo:hi]
    ops_t = ops.transpose(0, 1, 3, 2)[:, :, None]
    nb, m = max(len(ops), len(t)), ops.shape[1]
    # the sources of the terms of the first slot (all its rows) and of the
    # second (all its columns); every later slot's is the block itself
    first = t[:, :, cols] if t.ndim > 2 else t
    if head is None:
        head = first[:, rows] if t.ndim > 1 else first
    shape = (nb, m) + head.shape[1:]
    out, term = (np.empty(shape) if x is None else x.reshape(-1)[:math.prod(shape)].reshape(shape)
                 for x in (out, term))
    dst = out
    for slot in range(rk, t.ndim - 1):
        # -T(..., A X_slot, ...): one batched matmul over the slot's axis, in
        # which the slot's cut selects columns of A
        src = first if slot == 0 else t[:, rows] if slot == 1 else head
        cut = (rows, cols)[slot] if slot < 2 else slice(None)
        left, right = math.prod(src.shape[1:slot + 1]), math.prod(src.shape[slot + 2:])
        if slot == 3 and antisym and left * d * d > _SMALL_MNK:
            # -T(X1, X2, X3, A X4) = T(X1, X2, A X4, X3): slot 2's term, in ``term``
            np.add(out, term.swapaxes(-1, -2), out=out)
            continue
        if right == 1:
            np.matmul(src.reshape(len(src), 1, left, d), ops[..., cut],
                      out=dst.reshape(nb, m, left, -1))
        else:
            np.matmul(ops_t[:, :, :, cut], src.reshape(len(src), 1, left, d, right),
                      out=dst.reshape(nb, m, left, -1, right))
        if dst is out:
            np.negative(out, out=out)
            dst = term
        else:
            np.subtract(out, dst, out=out)
    if rk == 1:
        # A(T(X_1, ..., X_k)) on the output slot
        np.matmul(ops[:, :, rows], first.reshape(len(t), 1, d, -1),
                  out=dst.reshape(nb, m, head.shape[1], -1))
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
    ops = curvature_operators(r).reshape(1, d * d, d, d)
    out = _action_slab(ops, t.entries[None], rk, 0, d * d)[0]
    return Tensor(d, (rk, k + 2), np.moveaxis(out, 0, -1).reshape(t.entries.shape + (d, d)))


def _weighted_sum(slabs: Sequence[np.ndarray], coeff) -> np.ndarray:
    """``coeff`` (a float, or one per trial) times the sum of ``slabs``,
    summed left to right in the first; a coefficient of 1.0 is skipped."""
    total = slabs[0]
    for slab in slabs[1:]:
        np.add(total, slab, out=total)
    if np.any(coeff != 1.0):
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


_BLAS = _openblas()  # looked up once per process, not once per sweep

# Held from pinning OpenBLAS to one thread until its old count is restored, so
# two concurrent sweeps cannot leave it pinned.
_BLAS_LOCK = threading.Lock()


def _blocks(d: int, triangle: bool) -> tuple:
    """The two ``(rows, cols)`` blocks of the first output pair (X1, X2) that
    a sweep of several slabs forms: rows [0, r) times all d columns, and rows
    [r, d) times the columns [r, d) when ``triangle`` (so the two cover
    X1 <= X2) or all d.  Each has at least two rows (one row would take
    numpy's matrix-vector path, whose sums round otherwise), and r makes the
    larger block's area as small as that allows, the smaller r on a tie."""
    r = min(range(2, d - 1), key=lambda r: max(r * d, (d - r) * (d - r if triangle else d)))
    return (slice(0, r), slice(0, d)), (slice(r, d), slice(r if triangle else 0, d))


def _all_pairs(ops: np.ndarray) -> np.ndarray:
    """The (B, d*d, d, d) stack of all pairs ``U * d + V`` of the (B, P, d, d)
    stack ``ops`` of the pairs U < V: ``ops`` at (U, V), their negation at
    (V, U) and zero at U = V, which is exact as the stack passed the gate
    R(V, U) = -R(U, V) bit for bit."""
    d = ops.shape[-1]
    u, v = np.triu_indices(d, 1)
    full = np.zeros((len(ops), d, d, d, d))
    full[:, u, v] = ops
    full[:, v, u] = -ops
    return full.reshape(len(ops), d * d, d, d)


def _antisymmetric_in_first_pair(t: np.ndarray) -> bool:
    """Whether the (B, d, d, ...) entries ``t`` change sign bit for bit under
    the swap of their first two slots."""
    return np.array_equal(t, -t.swapaxes(1, 2))


def _sups(stacks: list, targets: list, split: int, coeffs: tuple, pool: list | None = None
          ) -> np.ndarray:
    """Each trial's sups ``[sup|c Sum lhs - e Sum rhs|, sup|c Sum lhs|]`` of a
    relation of products, or ``[sup|c Sum lhs|]`` with no right side.

    Product i acts with the (B, P, d, d) operator stack ``stacks[i]`` on the
    (B, d, d, d, d) entries ``targets[i]``, either of which may hold one
    trial that all B share; the first ``split`` products are the left side.
    ``coeffs`` is ``(c, e)``, where ``e`` may be one float per trial.  When
    the stacks' pair counts disagree, each stack of the pairs U < V is
    expanded to all pairs.  A sweep of several slabs forms only the blocks
    over X1 <= X2 when every target is antisymmetric in its first pair, the
    full square otherwise, and derives the last slot's term from the third's
    when every target is antisymmetric in its second pair (see
    :func:`_action_slab`).  A value that is not finite is returned, not
    raised.  Each worker's buffers are kept in ``pool``, when given, for the
    next call of at most as many products and slabs no larger.
    """
    trials, d = max(len(x) for x in (*stacks, *targets)), stacks[0].shape[-1]
    if len({ops.shape[1] for ops in stacks}) > 1:
        stacks = [ops if ops.shape[1] == d * d else _all_pairs(ops) for ops in stacks]
    count = stacks[0].shape[1]
    # a slab is several whole trials, whose buffers (one a product and the
    # term buffer) together hold at most SLAB_BYTES, or one trial, its pairs
    # in ranges of at most SLAB_BYTES a product; a pair holds d^4 entries
    per = min(trials, max(1, SLAB_BYTES // (8 * count * d**4 * (len(stacks) + 1))))
    step = min(count, max(1, SLAB_BYTES // (8 * d**4)))
    if count > step:
        distinct = {id(t): t for t in targets}.values()
        blocks = _blocks(d, all(_antisymmetric_in_first_pair(t) for t in distinct))
        antisym = all(np.array_equal(t, -t.swapaxes(3, 4)) for t in distinct)
        blas = _BLAS
    else:
        blocks, blas, antisym = ((slice(0, d), slice(0, d)),), None, False
    workers = min(len(os.sched_getaffinity(0)), 2) if blas else 1
    pool = [] if pool is None else pool
    jobs = []
    for w in range(workers):
        mine = blocks[w::workers]
        size = per * step * max((b.stop - b.start) * (c.stop - c.start) for b, c in mine) * d**2
        if len(pool) == w or len(pool[w]) <= len(stacks) or pool[w][0].size < size:
            pool[w:w + 1] = [None]  # the old buffers go before the new are made
            pool[w] = [np.empty(size) for _ in range(len(stacks) + 1)]
        # each target's block, contiguous, so that its last slots' terms are
        # one matmul of the block's shape; made here, on the calling thread
        heads = [{id(t): np.ascontiguousarray(t[:, rows, cols]) for t in targets}
                 for rows, cols in mine]
        jobs.append((mine, heads, pool[w]))
    # e broadcasts over the pair and slot axes of a slab of (0,4) targets
    c, e = coeffs[0], np.reshape(coeffs[1], (-1,) + (1,) * 5)
    stop = threading.Event() if workers > 1 else None

    def part(x, b0, b1):
        return x[b0:b1] if len(x) > 1 else x

    def sweep(mine, heads, buffers):
        """The sups over the blocks ``mine`` of the products' first output
        pair, with the targets' ``heads`` on each, formed in ``buffers`` (one
        per product, then the term buffer), slab by slab until another
        worker fails."""
        *products, term = buffers
        sups = np.zeros((1 + (split < len(stacks)), trials))
        # a product that overflows gives a sup that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            for (rows, cols), head in zip(mine, heads):
                for b0, lo in itertools.product(range(0, trials, per), range(0, count, step)):
                    if stop is not None and stop.is_set():
                        return sups
                    b1, hi = min(b0 + per, trials), min(lo + step, count)
                    slabs = [
                        _action_slab(part(ops, b0, b1), part(t, b0, b1), 0, lo, hi, out, term,
                                     rows, cols, part(head[id(t)], b0, b1), antisym)
                        for ops, t, out in zip(stacks, targets, products)
                    ]
                    left = _weighted_sum(slabs[:split], c)
                    arrays = [left]
                    if split < len(stacks):  # the defect, formed in the right side's buffer, first
                        right = _weighted_sum(slabs[split:], part(e, b0, b1))
                        arrays.insert(0, np.subtract(left, right, out=right))
                    for sup, x in zip(sups, arrays):
                        worst = np.max(np.abs(x, out=x).reshape(b1 - b0, -1), axis=1)
                        np.maximum(sup[b0:b1], worst, out=sup[b0:b1])
        return sups

    if workers == 1:
        return sweep(*jobs[0])
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
    return np.max(results, axis=0)


def fused_sups(
    lhs: Sequence[tuple[CurvatureTensor, CurvatureTensor]],
    rhs: Sequence[tuple[CurvatureTensor, CurvatureTensor]] = (),
    coeffs: tuple[float, float] = (1.0, 1.0),
    check: str = "derivation product",
    pool: list | None = None,
) -> tuple[float, float]:
    """Sup norms of the relation ``c * Sum lhs = e * Sum rhs`` of derivation products.

    ``lhs`` and ``rhs`` (which may be empty) list ``(actor, target)`` pairs,
    each standing for the product ``actor . target``, and ``coeffs`` is
    ``(c, e)``.  Returns the defect and the guard,
    ``(sup|c Sum lhs - e Sum rhs|, sup|c Sum lhs|)``.  Each slab of (U, V)
    pairs forms every product once, in a buffer that all slabs reuse; a side
    is summed left to right in its first product's buffer, then scaled
    (unless its coefficient is 1.0).  Each actor is symmetry-checked once per
    tensor and stage and, if it fails, warns once per call.  A caller that
    passes the same ``pool`` list to several calls (the relation rows of one
    verifier) lets them share the slab buffers, reallocated only for a call
    of more products or larger slabs than they hold.

    The pair layout, the blocks, the derived last slot and the workers are
    those of the module docstring, and none changes a bit.  ``coeffs`` that
    are not two finite real numbers are a ``ValueError``, raised before any
    product; a reduced value that is not finite is a
    :class:`NumericBreakdownError` naming ``check``.
    """
    if not lhs:
        raise ValueError("fused_sups needs at least one (actor, target) pair on the left")
    if not (np.shape(coeffs) == (2,)
            and all(isinstance(x, numbers.Real) and math.isfinite(x) for x in coeffs)):
        raise ValueError(f"relation coefficients must be two finite reals (c, e), got {coeffs!r}")
    pairs = [*lhs, *rhs]
    d = pairs[0][1].space.dim
    if any(c.space.dim != d for pair in pairs for c in pair):
        raise ValueError("curvature dims do not match")
    ops = {}  # a loop: before Python 3.12 a comprehension is a frame of its own,
    for a in dict.fromkeys(a for a, _ in pairs):  # which the warning would name
        ops[a] = _checked_operators(a)
    # one view a distinct target, so that _sups gates and copies each once
    views = {t: t.tensor.entries[None] for t in dict.fromkeys(t for _, t in pairs)}
    sups = _sups([ops[a] for a, _ in pairs], [views[t] for _, t in pairs],
                 len(lhs), coeffs, pool)[:, 0]
    if not np.all(np.isfinite(sups)):
        raise NumericBreakdownError(_BREAKDOWN.format(check))
    return (float(sups[0]), float(sups[-1]))


def pseudosymmetry_sups(space: HermitianSpace, draws: np.ndarray, factors: np.ndarray,
                        check: str) -> Iterator[tuple[float, float]]:
    """For each row (a, b, c) of ``draws`` and its factor f, in order, the
    defect and guard ``(sup|R.R - f Pi.R|, sup|R.R|)`` of R = a Pi + b Phi + c Psi.

    The trials run in batches of ``SLAB_BYTES // (8 P d^4)`` (at least one),
    P pairs a stack: each batch prepares its combinations at once and runs
    one sweep, whose products and sums of each trial are those of
    ``fused_sups([(r, r)], [(pi, r)], (1.0, f))`` bit for bit.  ``draws``
    that is not (T, 3), ``factors`` that is not T values and a factor that is
    not finite are a ``ValueError`` when the first trial is asked for, before
    any product.  Each trial is then decided in order: a combination that is
    not finite is a :class:`~qch.tensors.UsageError`, one that fails the
    Kahler-type symmetries warns, and a sup that is not finite is a
    :class:`NumericBreakdownError` naming ``check``.  A batch is formed when
    its first trial is asked for, so a caller that stops early forms no more.
    """
    draws, factors = np.asarray(draws, dtype=float), np.asarray(factors, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != 3 or factors.shape != draws.shape[:1]:
        raise ValueError(f"pseudosymmetry_sups needs (T, 3) draws and T factors, "
                         f"got shapes {draws.shape} and {factors.shape}")
    if not np.all(np.isfinite(factors)):
        raise ValueError("pseudosymmetry factors must be finite")
    pi = build_pi(space)
    pi_ops = _checked_operators(pi)
    per = max(1, SLAB_BYTES // (8 * pi_ops.shape[1] * space.dim**4))
    pool: list = []  # the sweep buffers, which every batch reuses
    for b0 in range(0, len(draws), per):
        a, b, c = draws[b0:b0 + per].T
        with np.errstate(over="ignore", invalid="ignore"):
            rs = _combination(space, a, b, c)
            ops, size, texts = _prepared(space, rs)
            defect, guard = _sups([ops, pi_ops], [rs, rs], 1, (1.0, factors[b0:b0 + per]), pool)
        for i, row in enumerate(draws[b0:b0 + per].tolist()):
            if not math.isfinite(size[i]):
                raise UsageError(f"coefficients {tuple(row)} give a curvature that is not finite")
            if texts[i] is not None:
                warnings.warn(texts[i], KahlerSymmetryWarning, stacklevel=2)  # the loop's line
            if not (math.isfinite(defect[i]) and math.isfinite(guard[i])):
                raise NumericBreakdownError(_BREAKDOWN.format(check))
            yield float(defect[i]), float(guard[i])
