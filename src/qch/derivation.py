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

- U < V mirror.  A curvature whose entries have R(V, U) = -R(U, V) bit for
  bit (the gate is ``np.array_equal``) has its operators formed for the
  pairs U < V only: negating the entries negates every rounded product and
  sum, so the operators at (V, U), and each linear combination of products
  there, are the exact negations of those at (U, V), and zero at U = V.  A
  sweep whose stacks disagree expands each U < V stack to all d^2 pairs by
  that negation (:func:`_all_pairs`).
- Grouped rows.  A sweep reduces several relations at once: each slab forms
  each distinct product once, and each relation sums and reduces it as a
  sweep of its own would, so a row's sups equal those of its lone sweep.
- Trial batches.  Each trial's matmuls have the shapes of a lone trial's,
  so a batch's sups equal those of one sweep per trial.
- X1 <= X2 mirror.  When every target is antisymmetric in its first output
  pair bit for bit, each slot's term at (X2, X1) sums the negated terms at
  (X1, X2) in the same order, so a sweep's sups are reached on X1 <= X2.
- X3 X4 swap.  When every target of a sweep of several slabs is also
  antisymmetric in its second pair bit for bit, the last slot's term is
  minus the third slot's with X3 and X4 swapped, summed in the same order
  by both matmuls wherever the last slot's one is above the small-matrix
  cut below (from d = 20 on); there it is not formed, and the third slot's
  term is added transposed instead.  At d = 18, below the cut, the two
  differ in the last bit.  This holds on OpenBLAS's SkylakeX kernel; under
  Haswell the two differ at d = 22 on both full-width row blocks (those of
  the square), though not on the triangle's.
- Two fixed blocks.  A sweep of several slabs forms each product on the two
  blocks of :func:`_blocks`, which depend on d alone; cores decide only
  whether one worker forms both or two form one each.  A sweep of one slab
  forms the full square as one block.
- Stacked pairs.  A sweep of one slab whose first slot's matmul over the
  slab's P pairs stacked, M N K = P d^5, is at most :data:`_STACK_MNK` (d <= 6
  with the pairs U < V) stacks each trial's negated transposed operators
  into one (P d, d) matrix: the first slot's term is then one matmul a
  trial, the second's one a (trial, X1) and the third's one a (trial, X1,
  X2), each added back through a transposed view, and the last slot's is
  formed pair by pair as before.  Every matmul stays on OpenBLAS's
  small-matrix kernel with the same K = d, whose sums do not depend on M,
  so each entry is the pair-by-pair one bit for bit but for the sign of a
  zero: the first slot's term is summed from negated operators where the
  pair-by-pair path negates its sum, so a sum that cancels to +0 there is
  -0 here, and every sup takes an abs.  Larger slabs and every other caller
  keep the pair-by-pair matmuls, which are as fast from d = 8 on.
- Small-matrix cut.  OpenBLAS (0.3.31) sums some entries of a matmul with
  M N K <= 1e6 otherwise than a larger one's, so a block's entries equal the
  full square's only while each of its matmuls stays on the same side of
  that cut; the tests pin them at d = 16 and 20.  Under Sandybridge the
  d = 16 full-square eq32 defect that they compare is exactly 0.0 (7.29e-20
  under SkylakeX and Haswell), so there the pin shows nothing.
- BLAS pin.  Numpy's bundled OpenBLAS is pinned to one thread under a module
  lock from a derivation call's first operator preparation to its sweep's
  end, and its old count is restored then, so that no OpenBLAS thread left
  busy by a threaded GEMM of the preparation (at d = 20, the J pull-back of
  the Kahler check) competes with the sweep's two workers.
  :func:`pseudosymmetry_sups` holds it for each batch and never across a
  ``yield``.  Concurrent derivation calls wait for each other for the whole
  call, not only while a sweep is split.  Where the thread control is not
  found nothing is pinned and every sweep runs on the calling thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import itertools
import math
import numbers
import os
import sys
import threading
import warnings
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

# A one-slab sweep stacks a trial's P pairs into one operator matrix while the
# first slot's stacked matmul, M N K = P d^5, is at most this.  Stacked over
# pair-by-pair time of a slab of the pairs U < V, median of 30 interleaved
# pairs on a 2-core Xeon: 0.87 for one trial and 0.64 for 28 at d = 4, 0.82
# for two at d = 6 (P d^5 = 116640), 1.04 for one at d = 8 (917504).
_STACK_MNK = 2 * 10**5


class KahlerSymmetryWarning(UserWarning):
    """Curvature input strays from the Kahler-type symmetries."""


_PACKAGE = os.path.dirname(__file__) + os.sep


def _warn(text: str | None) -> None:
    """Warn ``text`` as a :class:`KahlerSymmetryWarning` at the first frame
    whose file is not in this package, as Python 3.12's ``skip_file_prefixes``
    does; nothing, and no frame walked, when ``text`` is None."""
    if text is None:
        return
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    warnings.warn(text, KahlerSymmetryWarning, stacklevel=level)


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
    """The operator ``ops[..., a, b] = g^{aw} arr[..., b, w]`` of each (0,4)
    array's pair over the leading axes of ``arr``."""
    return np.einsum("aw,...bw->...ab", np.linalg.inv(space.g.entries), arr)


def _verdicts(space: HermitianSpace, arr: np.ndarray) -> tuple:
    """The sup norms of the (B, d, d, d, d) curvatures ``arr`` on ``space``
    and the text of each one's warning: None unless it fails the Kahler-type
    symmetries (at 1e-8 scaled)."""
    *defects, size = _symmetry_defects(space, arr)
    _, passed = _kahler_verdict(defects, size, _WARN_TOL)
    return size, [None if ok else "curvature input fails Kahler-type symmetries "
                  f"(worst defect {max(v[i] for v in defects):.3e})" for i, ok in enumerate(passed)]


def _prepared(space: HermitianSpace, arr: np.ndarray) -> tuple:
    """The (B, P, d, d) operator stack of the (B, d, d, d, d) curvatures
    ``arr`` on ``space``, then their :func:`_verdicts`.  The stack holds the
    d(d-1)/2 pairs U < V in ``np.triu_indices`` order, formed on those
    entries alone, when R(V, U) = -R(U, V) bit for bit in the entries of all
    of them, otherwise all d*d pairs ``U * d + V``.  The symmetry defects
    are formed first, so their temporaries and the stack are never alive
    together."""
    size, texts = _verdicts(space, arr)
    d = space.dim
    if _antisymmetric_in_first_pair(arr):
        return _operators(space, arr[(slice(None), *np.triu_indices(d, 1))]), size, texts
    return _operators(space, arr).reshape(len(arr), d * d, d, d), size, texts


def _action_slab(ops: np.ndarray, t: np.ndarray, rk: int, lo: int, hi: int,
                 out: np.ndarray | None = None, term: np.ndarray | None = None,
                 rows: slice = slice(None), cols: slice = slice(None),
                 head: np.ndarray | None = None, antisym: bool = False,
                 stacked: bool = False) -> np.ndarray:
    """Entries of R(U, V) . T for the pairs ``lo:hi`` of each trial's operator
    stack, restricted to the ``rows`` of the first slot of ``t`` and, for a
    tensor of two or more slots, the ``cols`` of its second.

    ``ops`` is a (B, P, d, d) operator stack and ``t`` the (B, ...) entries
    of each trial's tensor with ``rk`` output slots; either may hold one
    trial that all share.  The result's axes are the trial, the pair
    (``hi - lo`` of them), then the slots of ``t``, the first two cut to
    ``rows`` and ``cols``.  ``head``, when given, is ``t[:, rows, cols]``,
    contiguous.  The result is written into ``out`` and each slot's term
    into ``term`` when they are given (contiguous, at least the result's
    size); nothing else is allocated then but numpy's buffer of a
    transposed add and, when ``stacked``, the stacked operators.
    ``antisym`` says that each trial's tensor is (0,4) and antisymmetric in
    its last two slots bit for bit, and ``stacked`` that it is (0,4) and
    ``rows`` and ``cols`` are the full square; the module docstring gives
    the layout that each selects.
    """
    d = ops.shape[-1]
    ops = ops[:, lo:hi]
    if stacked:
        return _stacked_slab(ops, t, out, term)
    ops_t = ops.transpose(0, 1, 3, 2)[:, :, None]
    nb, m = max(len(ops), len(t)), ops.shape[1]
    # the sources of the terms of the first slot (all its rows) and of the
    # second (all its columns); every later slot's is the block itself
    first = t[:, :, cols] if t.ndim > 2 else t
    if head is None:
        head = first[:, rows] if t.ndim > 1 else first
    shape = (nb, m) + head.shape[1:]
    out, term = _buffer(out, shape), _buffer(term, shape)
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


def _buffer(x: np.ndarray | None, shape: tuple) -> np.ndarray:
    """A fresh array of ``shape``, or a view of that shape on the head of ``x``."""
    return np.empty(shape) if x is None else x.reshape(-1)[:math.prod(shape)].reshape(shape)


def _stacked_slab(ops: np.ndarray, t: np.ndarray, out: np.ndarray | None,
                  term: np.ndarray | None) -> np.ndarray:
    """:func:`_action_slab` of the whole (B, m, d, d) stack ``ops`` on the
    full square of the (B, d, d, d, d) entries ``t``, with each trial's m
    pairs stacked into one (m d, d) matrix, so that the first slot's term is
    one matmul a trial, the second's one a (trial, X1) and the third's one a
    (trial, X1, X2); each has the K = d of the pair-by-pair matmuls, whose
    sums it repeats up to the sign of a zero (see the module docstring)."""
    nb, (m, d) = max(len(ops), len(t)), ops.shape[1:3]
    # -A^T of each pair, so that each term comes out negated: added, it is subtracted
    neg = np.negative(ops.transpose(0, 1, 3, 2), out=np.empty(ops.shape)).reshape(-1, m * d, d)
    shape = (nb, m) + t.shape[1:]
    out, term = _buffer(out, shape), _buffer(term, shape)
    # -T(A X1, X2, X3, X4), written in place: the pair and X1 axes are the rows
    np.matmul(neg, t.reshape(len(t), d, -1), out=out.reshape(nb, m * d, -1))
    # -T(X1, A X2, X3, X4) with the axes (X1, pair, X2, X3, X4), then
    # -T(X1, X2, A X3, X4) with (X1, X2, pair, X3, X4), each added transposed
    for slot, axes in ((1, (0, 2, 1, 3, 4, 5)), (2, (0, 3, 1, 2, 4, 5))):
        lead = d**slot
        np.matmul(neg[:, None], t.reshape(len(t), lead, d, -1),
                  out=term.reshape(nb, lead, m * d, -1))
        spread = term.reshape((nb,) + (d,) * slot + (m,) + (d,) * (4 - slot))
        np.add(out, spread.transpose(axes), out=out)
    # -T(X1, X2, X3, A X4), pair by pair
    np.matmul(t.reshape(len(t), 1, -1, d), ops, out=term.reshape(nb, m, -1, d))
    return np.subtract(out, term, out=out)


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
    _warn(_verdicts(r.space, r.tensor.entries[None])[1][0])
    ops = curvature_operators(r).reshape(1, d * d, d, d)
    out = _action_slab(ops, t.entries[None], rk, 0, d * d)[0]
    return Tensor(d, (rk, k + 2), np.moveaxis(out, 0, -1).reshape(t.entries.shape + (d, d)))


def _weighted_sum(slabs: Sequence[np.ndarray], coeff, out: np.ndarray | None) -> np.ndarray:
    """``coeff`` (a float, or one per trial) times the sum of ``slabs``,
    summed left to right in ``out``; a coefficient of 1.0 is skipped, so a
    lone slab of coefficient 1.0 is returned as it is."""
    total = slabs[0]
    for slab in slabs[1:]:
        total = np.add(total, slab, out=out)
    if np.any(coeff != 1.0):
        total = np.multiply(total, coeff, out=out)
    return total


def _openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None when its library or either symbol is not found.  Numpy 2 bundles
    scipy-openblas, whose symbols carry a ``scipy_`` prefix; numpy 1 bundles
    OpenBLAS itself, with or without the ``64_`` suffix of its ILP64 build."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_BLAS = _openblas()  # looked up once per process, not once per sweep

# Held from pinning OpenBLAS to one thread until its old count is restored, so
# two concurrent calls cannot leave it pinned; reentrant, so that a call made
# while the pin is held on the same thread (a warning hook's) cannot deadlock.
_BLAS_LOCK = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread, under :data:`_BLAS_LOCK`, and
    restore its old count on leaving; nothing where its thread control is
    not found.  Entered again on the thread that holds it, it changes
    nothing."""
    if _BLAS is None:
        yield
        return
    get, put = _BLAS
    with _BLAS_LOCK:
        old = get()
        put(1)
        try:
            yield
        finally:
            put(old)


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


def _sups(stacks: list, targets: list, rows: list, pool: list | None = None) -> np.ndarray:
    """Each trial's sups ``[sup|c Sum lhs - e Sum rhs|, sup|c Sum lhs|]`` of
    each row ``(lhs, rhs, (c, e))``, a (rows, 2, trials) array; a row with no
    right side has ``sup|c Sum lhs|`` twice.

    Product i acts with the (B, P, d, d) operator stack ``stacks[i]`` on the
    (B, d, d, d, d) entries ``targets[i]``, either of which may hold one
    trial that all B share; ``lhs`` and ``rhs`` list product indices, and
    ``e`` may be one float per trial.  Each slab forms each product once and
    reduces every row from it, in order: a side is summed left to right,
    then scaled unless its coefficient is 1.0, in the buffer that the row
    plan gives it, and each trial's sup of a slab is
    ``|max(max x, -min x)|``, which writes nothing, keeps a NaN and is never
    -0.0.  A value that is not finite is returned, not raised.  The pair
    layout, blocks, workers and slot kernels are those of the module
    docstring.  Each worker's buffers are kept in ``pool``, when given, for
    the next call of at most as many buffers and slabs no larger:
    :func:`pseudosymmetry_sups` passes one through its batches.
    """
    trials, d = max(len(x) for x in (*stacks, *targets)), stacks[0].shape[-1]
    if len({ops.shape[1] for ops in stacks}) > 1:
        stacks = [ops if ops.shape[1] == d * d else _all_pairs(ops) for ops in stacks]
    count = stacks[0].shape[1]
    # the first spare is the term buffer, free once a slab's products are formed
    reads = [i for lhs, rhs, _ in rows for i in (*lhs, *rhs)]
    plan, at, spares = [], 0, 1
    for lhs, rhs, (c, e) in rows:
        own_l, own_r = (not side or reads[at:].count(side[0]) == 1 for side in (lhs, rhs))
        at += len(lhs) + len(rhs)
        spares = max(spares, (not own_l and (len(lhs) > 1 or c != 1.0)) + (not own_r))
        # e broadcasts over the pair and slot axes of a slab of (0,4) targets
        plan.append((lhs, rhs, c, np.reshape(e, (-1,) + (1,) * 5), own_l, own_r))
    # a slab is several whole trials, whose buffers (one a product, then the
    # spares) together hold at most SLAB_BYTES, or one trial, its pairs in
    # ranges of at most SLAB_BYTES a product; a pair holds d^4 entries
    per = min(trials, max(1, SLAB_BYTES // (8 * count * d**4 * (len(stacks) + spares))))
    step = min(count, max(1, SLAB_BYTES // (8 * d**4)))
    distinct = {id(t): t for t in targets}
    if count > step:
        blocks = _blocks(d, all(_antisymmetric_in_first_pair(t) for t in distinct.values()))
        antisym = all(np.array_equal(t, -t.swapaxes(3, 4)) for t in distinct.values())
    else:
        blocks, antisym = ((slice(0, d), slice(0, d)),), False
    stacked = count <= step and count * d**5 <= _STACK_MNK
    workers = min(len(os.sched_getaffinity(0)), 2) if count > step and _BLAS else 1
    pool = [] if pool is None else pool
    jobs = []
    for w in range(workers):
        mine = blocks[w::workers]
        size = per * step * max((b.stop - b.start) * (c.stop - c.start) for b, c in mine) * d**2
        if len(pool) == w or len(pool[w]) < len(stacks) + spares or pool[w][0].size < size:
            pool[w:w + 1] = [None]  # the old buffers go before the new are made
            pool[w] = [np.empty(size) for _ in range(len(stacks) + spares)]
        # each target's block, contiguous, so that its last slots' terms are
        # one matmul of the block's shape; made here, on the calling thread
        heads = [{k: np.ascontiguousarray(t[:, rows, cols]) for k, t in distinct.items()}
                 for rows, cols in mine]
        jobs.append((mine, heads, pool[w]))
    stop = threading.Event() if workers > 1 else None

    def part(x, b0, b1):
        return x[b0:b1] if len(x) > 1 else x

    def sweep(mine, heads, buffers):
        """The sups over the blocks ``mine`` of the products' first output
        pair, with the targets' ``heads`` on each, formed in ``buffers`` (one
        per product, then the spares), slab by slab until another worker
        fails."""
        products, spare = buffers[:len(stacks)], buffers[len(stacks):]
        sups = np.zeros((len(plan), 2, trials))

        def reduce(sup, x):
            x = x.reshape(b1 - b0, -1)
            worst = np.abs(np.maximum(np.max(x, axis=1), -np.min(x, axis=1)))
            np.maximum(sup[:, b0:b1], worst, out=sup[:, b0:b1])

        # a product that overflows gives a sup that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            for (rows, cols), head in zip(mine, heads):
                for b0, lo in itertools.product(range(0, trials, per), range(0, count, step)):
                    if stop is not None and stop.is_set():
                        return sups
                    b1, hi = min(b0 + per, trials), min(lo + step, count)
                    slabs = [
                        _action_slab(part(ops, b0, b1), part(t, b0, b1), 0, lo, hi, out, spare[0],
                                     rows, cols, part(head[id(t)], b0, b1), antisym, stacked)
                        for ops, t, out in zip(stacks, targets, products)
                    ]
                    shape = slabs[0].shape
                    views = [x.reshape(-1)[:math.prod(shape)].reshape(shape) for x in spare]
                    for (lhs, rhs, c, e, own_l, own_r), sup in zip(plan, sups):
                        free = iter(views)
                        left = [slabs[i] for i in lhs]
                        out = left[0] if own_l else next(free) if len(lhs) > 1 or c != 1.0 else None
                        total = _weighted_sum(left, c, out)
                        if rhs:  # the defect, formed in the right side's buffer, first
                            right = [slabs[i] for i in rhs]
                            into = right[0] if own_r else next(free)
                            np.subtract(total, _weighted_sum(right, part(e, b0, b1), into), out=into)
                            reduce(sup[:1], into)
                            sup = sup[1:]
                        reduce(sup, total)
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

    threads = []
    with _one_blas_thread():  # already held when called from _relation_sups or a batch
        try:
            for w in range(1, workers):
                thread = threading.Thread(target=work, args=(w,))
                thread.start()
                threads.append(thread)
            work(0)
        finally:
            for thread in threads:
                thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return np.max(results, axis=0)


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
    ``(sup|c Sum lhs - e Sum rhs|, sup|c Sum lhs|)``, bit for bit those of
    the same row in a grouped sweep (:func:`_relation_sups`).  Each distinct
    actor is symmetry-checked once a call and, if it fails the check, warns
    once (:func:`_warn`); nothing is kept from one call to the next.
    ``coeffs`` that are not two finite real numbers are a ``ValueError``,
    raised before any product; a reduced value that is not finite is a
    :class:`NumericBreakdownError` naming ``check``.
    """
    return _relation_sups([(check, lhs, rhs, coeffs)])[0]


def _relation_sups(rows: Sequence[tuple]) -> list[tuple[float, float]]:
    """The defect and guard of each row ``(check, lhs, rhs, coeffs)``, in
    order, each as :func:`fused_sups` gives them, from one sweep that forms
    each distinct product of all the rows once a slab.  Every row is
    validated before any product, and the first row, in order, with a value
    that is not finite is the :class:`NumericBreakdownError`.  Each distinct
    actor, its entries on its stage, is prepared once (:func:`_prepared`)
    and warns (:func:`_warn`) if it fails the symmetry check."""
    for _, lhs, rhs, coeffs in rows:
        if not lhs:
            raise ValueError("fused_sups needs at least one (actor, target) pair on the left")
        if not (np.shape(coeffs) == (2,)
                and all(isinstance(x, numbers.Real) and math.isfinite(x) for x in coeffs)):
            raise ValueError(f"relation coefficients must be two finite reals (c, e), got {coeffs!r}")
    pairs = [pair for _, lhs, rhs, _ in rows for pair in (*lhs, *rhs)]
    d = pairs[0][1].space.dim
    if any(c.space.dim != d for pair in pairs for c in pair):
        raise ValueError("curvature dims do not match")

    def actor(a):
        return id(a.tensor.entries), id(a.space)

    def key(pair):
        return actor(pair[0]), id(pair[1].tensor.entries)

    # a product is an actor's stack on a target's entries, whichever wrappers
    # hold them, and each distinct target has one view, so that _sups forms
    # each product once and gates and copies each target once
    views = {id(t.tensor.entries): t.tensor.entries[None] for _, t in pairs}
    products = dict(zip(map(key, pairs), pairs))  # in the order of first use
    index = {k: i for i, k in enumerate(products)}
    ops = {}
    with _one_blas_thread():
        for a, _ in pairs:
            if actor(a) not in ops:
                ops[actor(a)], _, (text,) = _prepared(a.space, a.tensor.entries[None])
                _warn(text)
        sups = _sups([ops[actor(a)] for a, _ in products.values()],
                     [views[id(t.tensor.entries)] for _, t in products.values()],
                     [([index[key(p)] for p in lhs], [index[key(p)] for p in rhs], coeffs)
                      for _, lhs, rhs, coeffs in rows])[..., 0]
    for (check, *_), row in zip(rows, sups):
        if not np.all(np.isfinite(row)):
            raise NumericBreakdownError(_BREAKDOWN.format(check))
    return [(float(defect), float(guard)) for defect, guard in sups]


def pseudosymmetry_sups(space: HermitianSpace, draws: np.ndarray, factors: np.ndarray,
                        check: str) -> Iterator[tuple[float, float]]:
    """For each row (a, b, c) of ``draws`` and its factor f, in order, the
    defect and guard ``(sup|R.R - f Pi.R|, sup|R.R|)`` of R = a Pi + b Phi + c Psi.

    The trials run in batches of ``SLAB_BYTES // (8 P d^4)`` (at least one),
    P pairs a stack: Pi is prepared once a call, and each batch prepares its
    combinations at once and runs one sweep, in buffers that every batch
    reuses, whose products and sums of each trial are those of
    ``fused_sups([(r, r)], [(pi, r)], (1.0, f))`` bit for bit.  ``draws``
    that is not (T, 3), ``factors`` that is not T values and a factor that is
    not finite are a ``ValueError`` when the first trial is asked for, before
    any product.  Each trial is then decided in order: a combination that is
    not finite is a :class:`~qch.tensors.UsageError`, one that fails the
    Kahler-type symmetries warns, and a sup that is not finite is a
    :class:`NumericBreakdownError` naming ``check``.  A batch is formed when
    its first trial is asked for, so a caller that stops early forms no more.
    OpenBLAS is pinned to one thread while Pi and each batch are formed, and
    never while a trial is with the caller.
    """
    draws, factors = np.asarray(draws, dtype=float), np.asarray(factors, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != 3 or factors.shape != draws.shape[:1]:
        raise ValueError(f"pseudosymmetry_sups needs (T, 3) draws and T factors, "
                         f"got shapes {draws.shape} and {factors.shape}")
    if not np.all(np.isfinite(factors)):
        raise ValueError("pseudosymmetry factors must be finite")
    with _one_blas_thread():
        pi_ops, _, (text,) = _prepared(space, build_pi(space).tensor.entries[None])
    _warn(text)
    per = max(1, SLAB_BYTES // (8 * pi_ops.shape[1] * space.dim**4))
    pool: list = []
    for b0 in range(0, len(draws), per):
        a, b, c = draws[b0:b0 + per].T
        # pinned while the batch is formed, never across a yield
        with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
            rs = _combination(space, a, b, c)
            ops, size, texts = _prepared(space, rs)
            (defect, guard), = _sups([ops, pi_ops], [rs, rs],
                                     [([0], [1], (1.0, factors[b0:b0 + per]))], pool)
        for i, row in enumerate(draws[b0:b0 + per].tolist()):
            if not math.isfinite(size[i]):
                raise UsageError(f"coefficients {tuple(row)} give a curvature that is not finite")
            _warn(texts[i])
            if not (math.isfinite(defect[i]) and math.isfinite(guard[i])):
                raise NumericBreakdownError(_BREAKDOWN.format(check))
            yield float(defect[i]), float(guard[i])
