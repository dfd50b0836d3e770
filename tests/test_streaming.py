"""The streamed derivation kernel against the dense products it replaces.

Every check of ``run_suite`` is a linear relation among derivation products,
reduced slab by slab over the pairs U < V when every actor is exactly
antisymmetric.  The dense reference below forms each full product over all
pairs with ``curv_dot`` and reduces it afterwards, exactly as the checks did
before streaming; the two must give the same floats, whether the pairs form
one slab or several.
"""

import fnmatch
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qch.derivation as derivation
import qch.identities as identities
from qch import (
    CurvatureTensor,
    HermitianSpace,
    KahlerSymmetryWarning,
    NumericBreakdownError,
    QCHCoefficients,
    Tensor,
    UsageError,
    build_phi,
    build_pi,
    build_psi,
    check_kahler_symmetries,
    combine,
    curv_dot,
    make_space,
    max_abs,
    product_curvature,
    random_adapted_change,
    run_suite,
    verify_eq32,
    verify_multiplication_table,
    verify_product_route,
    verify_theorem1,
)
from qch.cli import main

from helpers import loop_endo_derive

SRC = Path(__file__).resolve().parents[1] / "src"
TRIALS = 3

DERIVATION_CHECKS = {
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
    "product:semisymmetric_opposite_plane",
    "product:semisymmetric_unit_block",
}


def dense_defects(n, seed, trials=TRIALS, coeff_range=5.0):
    """Defects of every derivation check of ``run_suite`` for one (n, seed),
    from full ``curv_dot`` tensors."""
    space = random_adapted_change(make_space(n), seed)
    k, l = (float(x) for x in np.random.default_rng([seed, n]).uniform(-2.0, 2.0, size=2))
    pi, phi, psi = build_pi(space), build_phi(space), build_psi(space)
    out = {}
    for name, actor, target in [
        ("table:pi.pi=0", pi, pi),
        ("table:phi.pi=0", phi, pi),
        ("table:psi.pi=0", psi, pi),
        ("table:psi.phi=0", psi, phi),
        ("table:psi.psi=0", psi, psi),
    ]:
        out[name] = max_abs(curv_dot(actor, target))
    for name, target in [("table:pi.phi=2phi.phi", phi), ("table:pi.psi=2phi.psi", psi)]:
        out[name] = max_abs(curv_dot(pi, target) - 2.0 * curv_dot(phi, target))
    out["eq32:2phi.phi=phi.pi+pi.phi"] = max_abs(
        2.0 * curv_dot(phi, phi) - (curv_dot(phi, pi) + curv_dot(pi, phi))
    )
    out["eq32:psi.psi=0"] = max_abs(curv_dot(psi, psi))
    out["eq32:psi.pi+pi.psi=2(phi.psi+psi.phi)"] = max_abs(
        (curv_dot(psi, pi) + curv_dot(pi, psi))
        - 2.0 * (curv_dot(phi, psi) + curv_dot(psi, phi))
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a, b, c = rng.uniform(-coeff_range, coeff_range, size=3)
        r = combine(QCHCoefficients(a, b, c), space)
        rr = curv_dot(r, r)
        defect = max_abs(rr - (a + b / 2.0) * curv_dot(pi, r))
        worst = max(worst, defect / (1.0 + max_abs(rr)))
    out["theorem1:r.r=(a+b/2)pi.r"] = worst
    opposite = product_curvature(k, -k, space)
    out["product:semisymmetric_opposite_plane"] = max_abs(curv_dot(opposite, opposite))
    unit_block = product_curvature(1.0, k + l - 1.0, space)
    out["product:semisymmetric_unit_block"] = max_abs(curv_dot(unit_block, unit_block))
    return out


def _pairs(count, step):
    """The ranges of slabs of ``step`` pairs over a stack of ``count`` pairs."""
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _upper(d):
    """Number of pairs U < V at dim ``d``."""
    return d * (d - 1) // 2


def _stack(r):
    """The (1, P, d, d) operator stack that a sweep prepares for the actor ``r``."""
    return derivation._prepared(r.space, r.tensor.entries[None])[0]


def _sweep_blocks(d, triangle=True):
    """The (row start, row stop, column start) blocks of the products' first
    output pair that a sweep of several slabs forms at dim ``d``, on any
    number of cores: two over X1 <= X2 when ``triangle``, two full-width row
    blocks otherwise (the columns of each run to d)."""
    return [(rows.start, rows.stop, cols.start) for rows, cols in derivation._blocks(d, triangle)]


def _block_key(rows, cols):
    return rows.start, rows.stop, cols.start


needs_openblas = pytest.mark.skipif(
    derivation._BLAS is None, reason="numpy's bundled OpenBLAS thread control not found"
)


def _spy_on_slab(monkeypatch, spy):
    """Route every ``derivation._action_slab`` call through ``spy(a, slab)``:
    ``a`` holds the call's arguments by name, defaults filled in, and
    ``slab()`` forms the slab with the real kernel."""
    real = derivation._action_slab
    signature = inspect.signature(real)

    def spying(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return spy(types.SimpleNamespace(**bound.arguments), lambda: real(*args, **kwargs))

    monkeypatch.setattr(derivation, "_action_slab", spying)


def _use_cores(monkeypatch, cores):
    """Make ``cores`` cores available to the sweep, so a sweep of several
    slabs runs on ``min(cores, 2)`` workers (one when OpenBLAS's thread
    control is not found)."""
    monkeypatch.setattr(derivation.os, "sched_getaffinity", lambda pid: set(range(cores)))


# the checks run the 6, 15 and 28 pairs U < V at d = 4, 6 and 8: the default
# budget forms each as one slab, one budget splits d = 6 into 2-pair slabs
# and a last single pair and d = 8 into single pairs, one splits d = 8 into
# four 7-pair slabs, and one splits d = 4 into 5 + 1 and d = 6 and 8 into
# single pairs
@pytest.mark.parametrize("budget,slabs", [
    (None, {4: _pairs(6, 6), 6: _pairs(15, 15), 8: _pairs(28, 28)}),
    (12 * 8 * 4**4, {4: _pairs(6, 6), 6: _pairs(15, 2), 8: _pairs(28, 1)}),
    (24 * 8 * 6**4, {4: _pairs(6, 6), 6: _pairs(15, 15), 8: _pairs(28, 7)}),
    (8 * 6**4, {4: _pairs(6, 5), 6: _pairs(15, 1), 8: _pairs(28, 1)}),
])
def test_fused_checks_equal_the_dense_products(monkeypatch, budget, slabs):
    if budget is not None:
        monkeypatch.setattr(derivation, "SLAB_BYTES", budget)
    _use_cores(monkeypatch, 2)
    seen = {}

    def recording(a, slab):
        seen.setdefault(a.t.shape[-1], set()).add((a.lo, a.hi, *_block_key(a.rows, a.cols)))
        return slab()

    for n, seed in itertools.product((2, 3, 4), (0, 1)):
        with monkeypatch.context() as m:
            _spy_on_slab(m, recording)
            results = run_suite([n], [seed], trials=TRIALS)
        dense = dense_defects(n, seed)
        fused = {r.name: r.max_defect for r in results if r.name in DERIVATION_CHECKS}
        assert fused == dense, (n, seed)
        assert all(r.passed for r in results)
    # a sweep of several slabs forms two blocks over X1 <= X2, split between
    # the two workers; a sweep of one slab forms the full square
    blocks = {d: _sweep_blocks(d) if len(pairs) > 1 else [(0, d, 0)]
              for d, pairs in slabs.items()}
    assert seen == {d: {(*pair, *block) for pair in slabs[d] for block in blocks[d]}
                    for d in slabs}


def _force_all_pairs(monkeypatch):
    """Make every prepared stack the d*d pairs, as for curvatures that fail
    the antisymmetry gate; the symmetry check and its warning still run."""
    real = derivation._prepared

    def all_pairs(space, arr):
        _, size, texts = real(space, arr)
        d = space.dim
        return derivation._operators(space, arr).reshape(len(arr), d * d, d, d), size, texts

    monkeypatch.setattr(derivation, "_prepared", all_pairs)


def _record_stacks(monkeypatch):
    """Record the stack length, pair range and block (row start, row stop,
    column start) of every slab formed."""
    seen = []

    def recording(a, slab):
        seen.append((a.ops.shape[1], a.lo, a.hi, *_block_key(a.rows, a.cols)))
        return slab()

    _spy_on_slab(monkeypatch, recording)
    return seen


@pytest.mark.parametrize("n", [2, 3, 4])
def test_upper_pairs_give_the_all_pairs_sups_bit_for_bit(monkeypatch, n):
    d = 2 * n
    for seed in (0, 1):
        with monkeypatch.context() as m:
            seen = _record_stacks(m)
            short = run_suite([n], [seed], trials=TRIALS)
        assert {count for count, *_ in seen} == {_upper(d)}
        with monkeypatch.context() as m:
            _force_all_pairs(m)
            seen = _record_stacks(m)
            full = run_suite([n], [seed], trials=TRIALS)
        assert {count for count, *_ in seen} == {d * d}
        checks = [(r.name, r.max_defect, r.tolerance, r.passed) for r in short]
        assert checks == [(r.name, r.max_defect, r.tolerance, r.passed) for r in full]
        assert DERIVATION_CHECKS <= {r.name for r in short}


# -- the antisymmetry gate -------------------------------------------------------


def _one_ulp_off(r):
    """``r`` with its entry (1, 0, 0, 1), a pair U > V, moved up by one ulp."""
    arr = np.array(r.tensor.entries)
    arr[1, 0, 0, 1] = np.nextafter(arr[1, 0, 0, 1], np.inf)
    return CurvatureTensor(Tensor(r.space.dim, (0, 4), arr), r.space)


def test_an_actor_one_ulp_from_antisymmetric_runs_every_pair(monkeypatch):
    sp = make_space(2)
    d = sp.dim
    pi = build_pi(sp)
    off = _one_ulp_off(pi)
    assert check_kahler_symmetries(off, tol=1e-8).passed  # so no warning either
    assert _stack(pi).shape[1] == _upper(d)
    assert _stack(off).shape[1] == d * d
    dense_pi, dense_off = max_abs(curv_dot(pi, off)), max_abs(curv_dot(off, off))
    dense_diff = max_abs(curv_dot(pi, off) - curv_dot(off, off))
    seen = _record_stacks(monkeypatch)
    # alone, and next to an actor that passes the gate
    assert derivation.fused_sups([(off, off)]) == (dense_off, dense_off)
    assert derivation.fused_sups([(pi, off)], [(off, off)]) == (dense_diff, dense_pi)
    assert seen == [(d * d, 0, d * d, 0, d, 0)] * 3
    seen.clear()
    assert derivation.fused_sups([(pi, off)]) == (dense_pi, dense_pi)
    assert seen == [(_upper(d), 0, _upper(d), 0, d, 0)]


def test_the_all_pairs_fallback_expands_each_stack_formed_on_its_own_stage(monkeypatch):
    # two stages of one dimension, the second with basis vectors twice as
    # long (g = 4 I), so the same entries give operators a quarter the size:
    # operators formed on the wrong stage give other sups
    first = make_space(2)
    d, eye = first.dim, np.eye(first.dim)
    second = HermitianSpace(n=2, basis_map=2.0 * eye, g=Tensor(d, (0, 2), 4.0 * eye),
                            J=first.J, p_D=first.p_D)
    pi = build_pi(first)
    off = _one_ulp_off(combine(QCHCoefficients(0.7, -1.3, 2.1), second))
    seen = _record_stacks(monkeypatch)
    # either actor first: Pi's stack of pairs U < V is expanded to all pairs
    for lhs, rhs in [((pi, off), (off, off)), ((off, off), (pi, off))]:
        dense = (max_abs(curv_dot(*lhs) - curv_dot(*rhs)), max_abs(curv_dot(*lhs)))
        assert derivation.fused_sups([lhs], [rhs]) == dense
    assert {count for count, *_ in seen} == {d * d}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10])
def test_the_all_pairs_expansion_equals_the_all_pairs_operators(n):
    # the stack of pairs U < V, its negation at (V, U) and zero at U = V
    # equal the operators formed for all pairs (signed zeros compare equal)
    sp = random_adapted_change(make_space(n), n)
    d = sp.dim
    k, l = np.random.default_rng(n).uniform(-2.0, 2.0, size=2)
    curvatures = [build_pi(sp), build_phi(sp), build_psi(sp),
                  combine(QCHCoefficients(0.7, -1.3, 2.1), sp),
                  combine(QCHCoefficients(-2.4, 0.3, 1.9), sp),
                  product_curvature(k, l, sp), product_curvature(k, -k, sp)]
    for r in curvatures:
        upper = _stack(r)
        assert upper.shape == (1, _upper(d), d, d)
        dense = derivation.curvature_operators(r).reshape(1, d * d, d, d)
        assert np.array_equal(derivation._all_pairs(upper), dense)


def test_a_noisy_phi_fails_with_the_all_pairs_defects(monkeypatch, noisy_phi):
    def table():
        with pytest.warns(KahlerSymmetryWarning):
            results = verify_multiplication_table(sp, seed=4)
        return [(r.name, r.max_defect, r.passed) for r in results]

    noisy_phi(1e-6, seed=4)
    for sp in (make_space(2), random_adapted_change(make_space(3), 1)):
        short = table()
        with monkeypatch.context() as m:
            _force_all_pairs(m)
            assert table() == short
        failed = {name for name, _, passed in short if not passed}
        assert failed == {"table:phi.pi=0", "table:psi.phi=0",
                          "table:pi.phi=2phi.phi", "table:pi.psi=2phi.psi"}


def test_a_target_one_ulp_from_antisymmetric_forms_the_full_square(monkeypatch):
    # d = 8 in slabs of 4 pairs on one core: targets antisymmetric in their
    # first pair form the two blocks over X1 <= X2; one target one ulp off
    # makes its relation form the full square, in two full-width row blocks.
    # The actors pass their own gate, so every relation runs the pairs U < V,
    # and all give the dense sups
    sp = random_adapted_change(make_space(4), 3)
    d = sp.dim
    pi = build_pi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    off = _one_ulp_off(r)
    # a batch passes the gate only when each of its trials does
    gate = derivation._antisymmetric_in_first_pair
    assert gate(np.stack([pi.tensor.entries, r.tensor.entries]))
    assert not gate(np.stack([pi.tensor.entries, off.tensor.entries]))
    diagonal = np.array(r.tensor.entries)
    diagonal[2, 2, 0, 1] = 1e-300
    assert not gate(diagonal[None])
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * d**4)
    _use_cores(monkeypatch, 1)
    seen = _record_stacks(monkeypatch)
    for lhs, rhs, blocks in [([(pi, r)], [(r, r)], _sweep_blocks(d)),
                             ([(pi, off)], [(r, off)], _sweep_blocks(d, False)),
                             ([(pi, r)], [(r, off)], _sweep_blocks(d, False))]:
        left = _dense_sum(lhs)
        dense = (max_abs(left - 0.5 * _dense_sum(rhs)), max_abs(left))
        seen.clear()
        assert derivation.fused_sups(lhs, rhs, (1.0, 0.5)) == dense
        assert {count for count, *_ in seen} == {_upper(d)}
        assert {tuple(x[3:]) for x in seen} == set(blocks)


# -- every slot branch of the kernel against the loop oracle ---------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("valence", [(0, 2), (1, 1), (1, 2), (1, 3), (0, 4)])
def test_kernel_matches_the_loop_oracle_pair_by_pair(n, valence):
    sp = random_adapted_change(make_space(n), 5)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    d = sp.dim
    t = np.random.default_rng([n, *valence]).standard_normal((d,) * sum(valence))
    ops = derivation.curvature_operators(r).reshape(d * d, d, d)
    oracle = np.stack([loop_endo_derive(op, t, valence[0]) for op in ops])
    dense = curv_dot(r, Tensor(d, valence, t)).entries
    assert dense.shape == t.shape + (d, d)
    pair_major = np.moveaxis(dense, (-2, -1), (0, 1)).reshape((d * d,) + t.shape)
    assert np.allclose(pair_major, oracle, rtol=0.0, atol=1e-13)
    # ragged slabs of 5 pairs of one trial, written into the same two buffers
    # every time, over all rows and columns of the first two slots and over
    # blocks of two or more of each, with and without the block's entries
    # given contiguous
    full = slice(None)
    for rows, cols in [(full, full), (slice(0, 2), full), (slice(1, d - 1), full),
                       (slice(2, d), full), (slice(2, d), slice(2, d)),
                       (slice(0, 2), slice(0, 3)), (slice(1, 3), slice(1, d - 1))]:
        block = t[rows, cols]
        shape = (1, 5) + block.shape
        out, term = np.empty(shape), np.empty(shape)
        for head in (None, np.ascontiguousarray(block)[None]):
            for lo in range(0, d * d, 5):
                hi = min(lo + 5, d * d)
                slab = derivation._action_slab(ops[None], t[None], valence[0], lo, hi, out, term,
                                               rows, cols, head)
                assert np.shares_memory(slab, out)
                assert np.array_equal(slab[0], pair_major[lo:hi, rows, cols]), (rows, cols)
    # one row takes numpy's matrix-vector path: right, but not bit for bit
    one_row = derivation._action_slab(ops[None], t[None], valence[0], 0, d * d, rows=slice(1, 2))
    assert np.allclose(one_row[0], pair_major[:, 1:2], rtol=0.0, atol=1e-13)


# -- blocks of the first output pair, and workers over them ------------------------


@pytest.mark.parametrize("d", [4, 6, 10, 16, 20, 24])
def test_the_blocks_cover_the_triangle_or_the_square_with_the_smallest_largest_block(d):
    full = np.ones((d, d), int)
    for triangle in (True, False):
        blocks = derivation._blocks(d, triangle)
        assert len(blocks) == 2
        covered = np.zeros((d, d), int)
        for rows, cols in blocks:
            assert rows.stop - rows.start >= 2
            assert cols == slice(rows.start if triangle else 0, d)
            covered[rows, cols] += 1
        # each entry at most once, every one of X1 <= X2 (or of the square)
        assert covered.max() == 1
        assert np.all(covered >= (np.triu(full) if triangle else full))

        def area(r0, r1):
            return (r1 - r0) * (d - r0 if triangle else d)

        # no cut into two blocks of two or more rows has a smaller largest one
        best = min(max(area(0, cut), area(cut, d)) for cut in range(2, d - 1))
        assert max(area(rows.start, rows.stop) for rows, _ in blocks) == best, triangle


def _square_by_slot(a, t):
    """A . T of the (d, d) endomorphism ``a`` on the (d, d, d, d) entries
    ``t``, each slot's term one matmul over the full square."""
    d = len(a)
    terms = [(a.T @ t.reshape(d, -1)).reshape(t.shape),
             np.matmul(a.T, t.reshape(d, d, d * d)).reshape(t.shape),
             np.matmul(a.T, t.reshape(d * d, d, d)).reshape(t.shape),
             (t.reshape(-1, d) @ a).reshape(t.shape)]
    out = -terms[0]
    for term in terms[1:]:
        out = out - term
    return out


@pytest.mark.parametrize("n", [8, 10])
def test_the_blocks_form_the_full_squares_entries_and_the_mirror_is_exact(n):
    # the two blocks over X1 <= X2 that a sweep of several slabs forms:
    # at d = 20 OpenBLAS's small-matrix kernel (for M N K <= 1e6) rounds
    # some of these sums otherwise, and every slot's matmul of either block
    # stays on the full square's side of that cut, so each entry is the full
    # square's; the entries at (X2, X1) are the exact negations of those at
    # (X1, X2), so the sups over the blocks are those over the square
    sp = random_adapted_change(make_space(n), 9)
    d = sp.dim
    r = combine(QCHCoefficients(1.3, -0.6, 2.2), sp)
    ops, t = _stack(r), r.tensor.entries[None]
    for lo in (0, 77, _upper(d) - 1):
        square = _square_by_slot(ops[0, lo], t[0])[None, None]
        assert np.array_equal(derivation._action_slab(ops, t, 0, lo, lo + 1), square)
        assert np.array_equal(square, -square.swapaxes(2, 3))
        for rows, cols in derivation._blocks(d, True):
            head = np.ascontiguousarray(t[:, rows, cols])
            block = derivation._action_slab(ops, t, 0, lo, lo + 1, rows=rows, cols=cols, head=head)
            assert np.array_equal(block, square[:, :, rows, cols]), (lo, rows)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_the_derived_last_slot_equals_the_four_slot_product_bit_for_bit(n):
    # from d = 20 on, the last slot's matmul of every block is above the
    # small-matrix cut; on targets antisymmetric in their second pair, each
    # block's product with that slot's term added as the third slot's
    # transposed is the four-slot one, for one trial and for a batch
    sp = random_adapted_change(make_space(n), 5)
    d = sp.dim
    rs = derivation._combination(sp, np.array([0.7, -2.4]), np.array([-1.3, 0.3]),
                                 np.array([2.1, 1.9]))
    stacks = [(_stack(r), r.tensor.entries[None])
              for r in (build_pi(sp), build_phi(sp), build_psi(sp))]
    stacks.append((derivation._prepared(sp, rs)[0], rs))
    blocks = derivation._blocks(d, True) + derivation._blocks(d, False)
    for ops, t in stacks:
        assert np.array_equal(t, -t.swapaxes(3, 4))
        for i, (rows, cols) in enumerate(blocks):
            lo = 37 * i % ops.shape[1]
            head = np.ascontiguousarray(t[:, rows, cols])
            four = derivation._action_slab(ops, t, 0, lo, lo + 1, rows=rows, cols=cols, head=head)
            derived = derivation._action_slab(ops, t, 0, lo, lo + 1, rows=rows, cols=cols,
                                              head=head, antisym=True)
            assert np.array_equal(derived, four), (len(t), rows, cols)


@pytest.mark.parametrize("d", range(4, 26, 2))
def test_the_last_slot_is_derived_from_d20_on_in_every_block(d):
    # on a target that is not antisymmetric in its second pair the derived
    # term is wrong, so the flag changes a block's product exactly where the
    # rule applies: nowhere at d <= 18 (at d = 18 the two would differ in the
    # last bit), everywhere from d = 20 on
    rng = np.random.default_rng(d)
    ops, t = rng.standard_normal((1, 1, d, d)), rng.standard_normal((1,) + (d,) * 4)
    for rows, cols in derivation._blocks(d, True) + derivation._blocks(d, False):
        head = np.ascontiguousarray(t[:, rows, cols])
        four = derivation._action_slab(ops, t, 0, 0, 1, rows=rows, cols=cols, head=head)
        derived = derivation._action_slab(ops, t, 0, 0, 1, rows=rows, cols=cols, head=head,
                                          antisym=True)
        assert np.array_equal(derived, four) == (d <= 18), (rows, cols)


def _one_ulp_off_in_the_second_pair(r):
    """``r`` with its entries (0, 1, 2, 3) and (1, 0, 2, 3) moved one ulp
    apart from zero, so that it stays antisymmetric in its first pair only."""
    arr = np.array(r.tensor.entries)
    arr[0, 1, 2, 3] = np.nextafter(arr[0, 1, 2, 3], math.copysign(np.inf, arr[0, 1, 2, 3]))
    arr[1, 0, 2, 3] = -arr[0, 1, 2, 3]
    return CurvatureTensor(Tensor(r.space.dim, (0, 4), arr), r.space)


def test_a_target_one_ulp_from_antisymmetric_in_its_second_pair_forms_four_slots(monkeypatch):
    # d = 20: the target one ulp off keeps the blocks over X1 <= X2 but
    # forms every slot; its sups are those of the dense products, formed
    # pair by pair over the pairs U < V, each slot one matmul over the square
    sp = random_adapted_change(make_space(10), 3)
    d = sp.dim
    pi = build_pi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    off = _one_ulp_off_in_the_second_pair(r)
    t = off.tensor.entries
    assert derivation._antisymmetric_in_first_pair(t[None])
    assert not np.array_equal(t, -t.swapaxes(2, 3))
    flags = []

    def recording(a, slab):
        flags.append((a.antisym, *_block_key(a.rows, a.cols)))
        return slab()

    _spy_on_slab(monkeypatch, recording)
    ops = _stack(pi)[0]
    assert len(ops) == _upper(d)
    dense = max(np.max(np.abs(_square_by_slot(op, t))) for op in ops)
    assert derivation.fused_sups([(pi, off)]) == (dense, dense)
    assert {flag for flag, *_ in flags} == {False}
    assert {tuple(block) for _, *block in flags} == set(_sweep_blocks(d))
    flags.clear()
    derivation.fused_sups([(pi, r)])  # the untouched target takes the derived slot
    assert {flag for flag, *_ in flags} == {True}


def _blas_threads():
    get, _ = derivation._BLAS
    return get()


@needs_openblas
def test_a_split_sweep_pins_blas_to_one_thread_and_restores_it(monkeypatch):
    sp = random_adapted_change(make_space(4), 3)
    pi = build_pi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * 8**4)
    during = set()

    def recording(a, slab):
        during.add((threading.get_ident(), _blas_threads()))
        return slab()

    _spy_on_slab(monkeypatch, recording)
    get, put = derivation._BLAS
    old = get()
    put(2)
    try:
        derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 0.05))
        assert {count for _, count in during} == {1}
        assert len({ident for ident, _ in during}) == 2
        assert get() == 2
        # concurrent sweeps on three cores (two workers each), with frequent
        # thread switches, neither mix rows nor leave it pinned
        _use_cores(monkeypatch, 3)
        expected = derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 0.05))
        got = []

        def caller():
            got.append(derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 0.05)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert got == [expected] * 4
        assert get() == 2
        huge = 1e200 * pi
        with pytest.raises(NumericBreakdownError, match="huge product"):
            derivation.fused_sups([(huge, huge)], check="huge product")
        assert get() == 2
    finally:
        put(old)


def test_a_missing_blas_symbol_runs_one_worker(monkeypatch):
    class NoSymbols:  # a library that exports nothing
        def __init__(self, path):
            pass

    monkeypatch.setattr(derivation.ctypes, "CDLL", NoSymbols)
    assert derivation._openblas() is None
    monkeypatch.setattr(derivation, "_BLAS", None)  # what the lookup at import then holds
    sp = random_adapted_change(make_space(4), 3)
    pi = build_pi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    dense = max_abs(curv_dot(r, r) - 0.05 * curv_dot(pi, r))
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * 8**4)
    seen = _record_stacks(monkeypatch)
    assert derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 0.05))[0] == dense
    # the calling thread forms both blocks over X1 <= X2, one after the other
    assert seen == [(_upper(8), lo, hi, *block) for block in _sweep_blocks(8)
                    for lo, hi in _pairs(_upper(8), 4) for _ in "rp"]


@pytest.mark.parametrize("suffix", ["64_", ""])
def test_numpy_1s_openblas_thread_control_is_found(monkeypatch, suffix):
    # numpy 1.x bundles OpenBLAS itself, e.g. libopenblas64_p-r0-15028c96.3.21.so,
    # whose thread control has no scipy_ prefix (and no 64_ suffix when built
    # with 32-bit integers)
    made = []

    class Numpy1:  # a library that exports numpy 1's names only
        def __init__(self, path):
            self.path = path
            for verb in ("get", "set"):
                setattr(self, f"openblas_{verb}_num_threads{suffix}", types.SimpleNamespace())
            made.append(self)

    def numpy1_libs(pattern):
        name = os.path.join(os.path.dirname(pattern), "libopenblas64_p-r0-15028c96.3.21.so")
        return fnmatch.filter([name], pattern)

    monkeypatch.setattr(derivation.glob, "glob", numpy1_libs)
    monkeypatch.setattr(derivation.ctypes, "CDLL", Numpy1)
    get, put = derivation._openblas()
    lib, = made
    assert lib.path.endswith("numpy.libs/libopenblas64_p-r0-15028c96.3.21.so")
    assert get is getattr(lib, f"openblas_get_num_threads{suffix}")
    assert put is getattr(lib, f"openblas_set_num_threads{suffix}")
    assert (get.argtypes, get.restype) == ([], derivation.ctypes.c_int)
    assert (put.argtypes, put.restype) == ([derivation.ctypes.c_int], None)


@needs_openblas
def test_openblas_is_pinned_from_preparation_to_the_sweeps_end_only(monkeypatch):
    # the Kahler check's GEMMs and every slab run on one OpenBLAS thread, and
    # the caller never does: not while it holds a trial, nor after a return,
    # an error raised in or between batches, or a generator closed early
    space = random_adapted_change(make_space(4), 3)
    pi = build_pi(space)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), space)
    _use_cores(monkeypatch, 2)
    # 4 pairs a slab: each sweep splits its 7 slabs a block between two
    # workers, and theorem1 runs one trial a batch
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * 8**4)
    seen, failing = [], []
    real = derivation._prepared

    def preparing(*args):
        seen.append(("prepared", threading.get_ident(), _blas_threads()))
        if [kind for kind, *_ in seen].count("prepared") in failing:
            raise RuntimeError("a preparation failed")
        return real(*args)

    def slab(a, form):
        seen.append(("slab", threading.get_ident(), _blas_threads()))
        return form()

    monkeypatch.setattr(derivation, "_prepared", preparing)
    _spy_on_slab(monkeypatch, slab)
    get, put = derivation._BLAS
    old = get()
    put(2)
    try:
        derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 0.05))
        assert get() == 2
        assert {count for *_, count in seen} == {1}
        assert [kind for kind, *_ in seen].count("prepared") == 2  # r and pi
        assert len({ident for kind, ident, _ in seen if kind == "slab"}) == 2
        seen.clear()
        draws, factors = _draws(space, 3)
        for _ in derivation.pseudosymmetry_sups(space, draws, factors, "theorem1"):
            assert get() == 2
        assert get() == 2
        assert {count for *_, count in seen} == {1}
        assert [kind for kind, *_ in seen].count("prepared") == 4  # pi, then each batch
        # each batch's sweep starts a worker thread of its own
        assert len({ident for kind, ident, _ in seen if kind == "slab"}) > 1
        sups = derivation.pseudosymmetry_sups(space, draws, factors, "theorem1")
        next(sups)
        sups.close()
        assert get() == 2
        # a combination that is not finite, and a product that overflows,
        # are decided after their batch; a preparation that fails, inside it
        for rows, error in [(np.array([[1.0, 0.5, -0.3], [1e308, 1e308, 1e308]]), UsageError),
                            (np.array([[1.0, 0.5, -0.3], [1e160, 0.0, 0.0]]), NumericBreakdownError)]:
            sups = derivation.pseudosymmetry_sups(space, rows, rows[:, 0], "theorem1")
            next(sups)
            with pytest.raises(error):
                next(sups)
            assert get() == 2
        seen.clear()
        failing.append(3)  # pi, the first batch, then the second batch's
        sups = derivation.pseudosymmetry_sups(space, draws, factors, "theorem1")
        next(sups)
        with pytest.raises(RuntimeError, match="a preparation failed"):
            next(sups)
        assert get() == 2
    finally:
        put(old)


@needs_openblas
def test_a_derivation_call_from_a_warning_hook_inside_the_pin_returns(monkeypatch):
    # a failing actor warns while its call holds the pin; a showwarning hook
    # that makes a derivation call on the same thread enters the pin again
    sp = make_space(2)
    arr = np.array(build_pi(sp).tensor.entries)
    arr[0, 0, 0, 0] += 1.0
    lopsided, pi = CurvatureTensor(Tensor(4, (0, 4), arr), sp), build_pi(sp)
    expected = derivation.fused_sups([(pi, pi)])
    nested = []

    def hook(message, category, *args):
        nested.append((category, derivation.fused_sups([(pi, pi)]), _blas_threads()))

    get, put = derivation._BLAS
    old = get()
    put(2)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = hook
            # on a thread of its own, so that a deadlock fails the test
            caller = threading.Thread(target=derivation.fused_sups, args=([(lopsided, pi)],),
                                      daemon=True)
            caller.start()
            caller.join(timeout=60)
        assert not caller.is_alive()
        assert nested == [(KahlerSymmetryWarning, expected, 1)]
        assert get() == 2
    finally:
        put(old)


@needs_openblas
@pytest.mark.parametrize("n", [5, 10])
def test_the_preparation_gives_the_same_bits_on_one_openblas_thread_or_two(n):
    # the pin moves no bit: OpenBLAS splits a threaded GEMM over M and N,
    # never K, so each entry is summed in the same order on any thread count
    # (at d = 20 the J pull-back of the Kahler check is threaded)
    space = random_adapted_change(make_space(n), n)
    rs = derivation._combination(space, np.array([1.3, -0.4]), np.array([-0.6, 2.1]),
                                 np.array([2.2, 0.7]))
    get, put = derivation._BLAS
    old = get()
    put(2)
    try:
        threaded = derivation._prepared(space, rs)
        with derivation._one_blas_thread():
            assert get() == 1
            pinned = derivation._prepared(space, rs)
        assert get() == 2
    finally:
        put(old)
    (ops, size, texts), (ops1, size1, texts1) = threaded, pinned
    assert ops.shape == (2, _upper(2 * n), 2 * n, 2 * n)
    assert np.array_equal(ops, ops1) and np.array_equal(size, size1) and texts == texts1


@needs_openblas
def test_a_breakdown_in_one_worker_reaches_the_caller_with_the_check_name(monkeypatch):
    sp = random_adapted_change(make_space(4), 3)
    pi = build_pi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * 8**4)

    def faulty(a, slab):
        out = slab()
        if a.rows.start:  # only worker 1's block overflows
            out.flat[0] = np.inf
        return out

    _spy_on_slab(monkeypatch, faulty)
    before, threads = _blas_threads(), threading.active_count()
    name = "theorem1:r.r=(a+b/2)pi.r"
    with pytest.raises(NumericBreakdownError, match=re.escape(name)):
        derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 0.05), name)
    assert _blas_threads() == before
    assert threading.active_count() == threads


@needs_openblas
@pytest.mark.parametrize("failing", [1, 0])
def test_an_exception_in_one_worker_reaches_the_caller_and_stops_the_other(monkeypatch, failing):
    # the failing worker raises once the other is inside its first slab, and
    # the other waits until that failure is recorded (worker 1's thread has
    # ended, or worker 0 on the calling thread has set the stop event), so it
    # forms only the slab it is in: two products at pairs 0:4 of 7 slabs
    sp = random_adapted_change(make_space(4), 3)
    pi = build_pi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * 8**4)
    stops, threads, waited, formed = [], [], [], []
    entered = threading.Event()

    def event():
        stops.append(threading.Event())
        return stops[-1]

    def thread(**kwargs):
        threads.append(threading.Thread(**kwargs))
        return threads[-1]

    monkeypatch.setattr(derivation, "threading", types.SimpleNamespace(Event=event, Thread=thread))
    error = RuntimeError("a worker failed")

    def faulty(a, slab):
        if (a.rows.start > 0) == failing:  # worker 1 forms the block of rows [r, d)
            entered.wait(timeout=60)
            raise error
        if not formed:
            entered.set()
            if failing:
                threads[0].join(timeout=60)
                waited.append(not threads[0].is_alive())
            else:
                waited.append(stops[0].wait(timeout=60))
        formed.append((a.lo, a.hi))
        return slab()

    _spy_on_slab(monkeypatch, faulty)
    before, alive = _blas_threads(), threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 0.05))
    assert raised.value is error
    assert waited == [True]
    assert formed == [(0, 4), (0, 4)]
    assert _blas_threads() == before
    assert len(threads) == 1 and not threads[0].is_alive()
    assert threading.active_count() == alive


def test_an_empty_right_side_gives_the_left_sup_twice(monkeypatch):
    sp = random_adapted_change(make_space(3), 2)
    r = combine(QCHCoefficients(1.5, 0.4, -0.9), sp)
    dense = max_abs(curv_dot(r, r))
    monkeypatch.setattr(derivation, "SLAB_BYTES", 5 * 8 * 6**4)
    assert derivation.fused_sups([(r, r)]) == (dense, dense)
    assert derivation.fused_sups([(r, r)], [], (-3.0, 7.0)) == (3.0 * dense, 3.0 * dense)


def _dense_sum(pairs):
    """The sum of ``curv_dot(actor, target)`` over ``pairs``, left to right."""
    total = curv_dot(*pairs[0])
    for actor, target in pairs[1:]:
        total = total + curv_dot(actor, target)
    return total


def _assert_relations_equal_the_dense_oracle(monkeypatch, sp, pairs_per_slab):
    """24 random relations among the blocks, a combination and that
    combination one ulp off, on ``sp`` with ``pairs_per_slab`` pairs a slab
    (8 * d**4 bytes hold one pair of a product at dim d): each equals the
    dense products' sups."""
    d = sp.dim
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    combo = combine(QCHCoefficients(0.8, -1.7, 0.6), sp)
    pool = [pi, phi, psi, combo, _one_ulp_off(combo)]
    if pairs_per_slab is not None:
        monkeypatch.setattr(derivation, "SLAB_BYTES", pairs_per_slab * 8 * d**4)
    rng = np.random.default_rng([sp.n, pairs_per_slab or 0])

    def draw_side():
        return [tuple(pool[i] for i in rng.integers(len(pool), size=2))
                for _ in range(rng.integers(1, 3))]

    for trial in range(24):
        c, e = (1.0 if rng.random() < 0.25 else float(rng.uniform(-3.0, 3.0)) for _ in "ce")
        lhs, rhs = draw_side(), draw_side() if trial % 6 else []
        left = c * _dense_sum(lhs)
        defect = left - e * _dense_sum(rhs) if rhs else left
        assert derivation.fused_sups(lhs, rhs, (c, e)) == (max_abs(defect), max_abs(left)), (
            trial, c, e)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("pairs_per_slab", [None, 1, 4, 5])
def test_relations_equal_the_dense_oracle(monkeypatch, n, pairs_per_slab):
    _assert_relations_equal_the_dense_oracle(
        monkeypatch, random_adapted_change(make_space(n), 6), pairs_per_slab)


@pytest.mark.parametrize("n,pairs_per_slab", [(2, None), (2, 1), (3, None), (3, 4), (5, None)])
def test_relations_equal_the_dense_oracle_on_a_gl_frame(monkeypatch, gl_frame, n, pairs_per_slab):
    # dense blocks; at d = 10 the default budget runs several slabs on the two blocks
    _assert_relations_equal_the_dense_oracle(monkeypatch, gl_frame(n), pairs_per_slab)


def test_a_relation_needs_a_left_side_on_one_stage():
    sp = make_space(2)
    pi = build_pi(sp)
    with pytest.raises(ValueError, match="at least one"):
        derivation.fused_sups([], [(pi, pi)])
    with pytest.raises(ValueError, match="dims do not match"):
        derivation.fused_sups([(pi, pi)], [(build_pi(make_space(3)), pi)])


def test_the_pseudosymmetry_relation_sups_equal_the_dense_values(monkeypatch):
    sp = random_adapted_change(make_space(3), 8)
    r, pi = combine(QCHCoefficients(0.4, 1.1, -2.0), sp), build_pi(sp)
    rr = curv_dot(r, r)
    dense = (max_abs(rr - 3.0 * curv_dot(pi, r)), max_abs(rr))
    assert derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 3.0)) == dense
    monkeypatch.setattr(derivation, "SLAB_BYTES", 8 * 6**4)
    assert derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 3.0)) == dense


def _record_prepared(monkeypatch):
    """Map the id of every stack that ``derivation._prepared`` returns to the
    id of the base of the curvatures it was given (a lone curvature's
    entries), keeping each stack alive so that no id is reused."""
    owners, kept = {}, []
    real = derivation._prepared

    def recording(space, arr):
        out = real(space, arr)
        kept.append(out[0])
        owners[id(out[0])] = id(arr.base)
        return out

    monkeypatch.setattr(derivation, "_prepared", recording)
    return owners


def test_each_product_slab_is_formed_once_and_each_actor_checked_once(monkeypatch):
    sp = make_space(2)
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    _use_cores(monkeypatch, 2)
    slabs = []

    def counting_slab(a, slab):
        # a relation's products are one trial: its actor's stack, and a view of its target
        slabs.append((owners[id(a.ops)], id(a.t.base), a.lo, a.hi, *_block_key(a.rows, a.cols)))
        return slab()

    _spy_on_slab(monkeypatch, counting_slab)
    checks = _count_checks(monkeypatch)
    owners = _record_prepared(monkeypatch)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * 4**4)
    products = [(psi, pi), (pi, psi), (phi, psi), (psi, phi)]
    derivation.fused_sups(products[:2], products[2:], (1.0, 2.0))
    # every product of every (slab, block) once; the two workers' slabs interleave
    blocks = _sweep_blocks(4)
    assert sorted(slabs) == sorted(
        (id(a.tensor.entries), id(t.tensor.entries), lo, hi, *block)
        for a, t in products for lo, hi in [(0, 4), (4, 6)] for block in blocks
    )
    assert [id(arr.base) for arr in checks] == [id(r.tensor.entries) for r in (psi, pi, phi)]


def _count_checks(monkeypatch):
    """Record every batch of curvatures that gets symmetry-checked: a lone
    curvature is a batch of one, a view of its entries."""
    checks = []
    real = derivation._symmetry_defects
    monkeypatch.setattr(derivation, "_symmetry_defects",
                        lambda space, arr: checks.append(arr) or real(space, arr))
    return checks


def test_a_curvature_is_checked_once_across_calls(monkeypatch):
    sp = make_space(2)
    checks = _count_checks(monkeypatch)  # theorem1 checks its combinations a batch at a time
    verify_theorem1(sp, trials=100)
    pi = build_pi(sp).tensor.entries
    entries = [r for arr in checks for r in arr]
    assert len(entries) == 101  # Pi once, and each trial's R once
    assert sum(np.array_equal(arr, pi) for arr in entries) == 1


def test_a_failing_curvature_warns_on_every_use(monkeypatch):
    sp = make_space(2)
    arr = np.array(build_pi(sp).tensor.entries)
    arr[0, 0, 0, 0] += 1.0
    lopsided, pi = CurvatureTensor(Tensor(4, (0, 4), arr), sp), build_pi(sp)
    checks = _count_checks(monkeypatch)
    for _ in range(3):  # nothing is kept between calls: each checks and warns again
        with pytest.warns(KahlerSymmetryWarning) as record:
            derivation.fused_sups([(lopsided, lopsided), (lopsided, pi)])
        assert len(record) == 1  # once a call, however often the actor acts
        assert record[0].filename == __file__  # the caller's line, not the library's
    assert [id(arr.base) for arr in checks] == [id(lopsided.tensor.entries)] * 3


# -- fault injection -----------------------------------------------------------


def test_a_perturbed_slab_fails_every_derivation_check(monkeypatch):
    # the perturbation grows with every slab formed, so no check's linear
    # combination of products can cancel it
    counter = itertools.count(1)

    def faulty(a, slab):
        out = slab()
        out.flat[0] += 1e-3 * next(counter)
        return out

    _spy_on_slab(monkeypatch, faulty)
    results = run_suite([2, 3], [0], trials=2)
    failed = {r.name for r in results if not r.passed}
    passed = {r.name for r in results if r.passed}
    assert failed == DERIVATION_CHECKS
    assert passed == {"product:matches_combination", "product:holomorphic_diagonal"}
    r = combine(QCHCoefficients(1.2, -0.8, 0.5), make_space(2))
    assert derivation.fused_sups([(r, r)], [(build_pi(r.space), r)], (1.0, 1.2 - 0.4))[0] > 1e-4


# -- tolerance and breakdown rules ---------------------------------------------

_VERIFIERS = [
    lambda sp, tol: verify_multiplication_table(sp, tol=tol),
    lambda sp, tol: verify_eq32(sp, tol=tol),
    lambda sp, tol: verify_theorem1(sp, trials=1, tol=tol),
    lambda sp, tol: verify_product_route(sp, 0.5, 1.5, tol=tol),
    lambda sp, tol: run_suite([2], [0], tol=tol, trials=1),
]


@settings(max_examples=40, deadline=None)
@given(
    tol=st.one_of(st.floats(max_value=0.0), st.just(math.inf), st.just(math.nan)),
    which=st.integers(0, len(_VERIFIERS) - 1),
)
def test_non_finite_or_non_positive_tolerance_is_rejected(tol, which):
    with pytest.raises(ValueError, match="tol"):
        _VERIFIERS[which](make_space(2), tol)


@settings(max_examples=25, deadline=None)
@given(tol=st.floats(min_value=1.0, max_value=1.7e308))
def test_a_tripped_guard_fails_at_any_tolerance(tol):
    # 10 * tol exceeds every O(1) left-hand side, so every guard trips
    sp = make_space(2)
    results = verify_multiplication_table(sp, tol=tol) + verify_eq32(sp, tol=tol)
    guarded = {
        "table:pi.phi=2phi.phi",
        "table:pi.psi=2phi.psi",
        "eq32:2phi.phi=phi.pi+pi.phi",
        "eq32:psi.pi+pi.psi=2(phi.psi+psi.phi)",
    }
    for r in results:
        if r.name in guarded:
            assert r.max_defect == math.inf and not r.passed, r
        else:
            assert r.passed, r


@settings(max_examples=25, deadline=None)
@given(tol=st.floats(min_value=5e-324, max_value=1.7e308))
def test_verdict_is_a_finite_defect_within_tolerance(tol):
    for r in verify_multiplication_table(make_space(2), tol=tol):
        assert r.passed == (math.isfinite(r.max_defect) and r.max_defect <= r.tolerance)


@settings(max_examples=20, deadline=None)
@given(coeff_range=st.floats(min_value=1e200, max_value=1e300), seed=st.integers(0, 2**31))
def test_overflow_is_a_named_breakdown_never_a_verdict(coeff_range, seed):
    with pytest.raises(NumericBreakdownError, match=r"theorem1:r\.r=\(a\+b/2\)pi\.r"):
        verify_theorem1(make_space(2), trials=1, coeff_range=coeff_range, seed=seed)


def test_huge_curvature_breaks_down_in_every_fused_caller():
    sp = make_space(2)
    huge = 1e200 * build_pi(sp)
    with pytest.raises(NumericBreakdownError, match="pseudosymmetry defect"):
        derivation.fused_sups([(huge, huge)], [(build_pi(sp), huge)], (1.0, 1.0),
                              "pseudosymmetry defect")
    with pytest.raises(NumericBreakdownError, match="product:semisymmetric_opposite_plane"):
        verify_product_route(sp, 1e200, 1.0)


def test_cli_exit_codes_for_tolerance_and_breakdown(capsys):
    assert main(["verify", "table", "--n", "2", "--tol", "inf"]) == 2
    assert main(["verify", "table", "--n", "2", "--tol", "nan"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert main(["verify", "theorem1", "--n", "2", "--coeff-range", "1e300"]) == 1
    captured = capsys.readouterr()
    assert "numeric breakdown in theorem1" in captured.err
    assert "PASS" not in captured.out


# -- memory ----------------------------------------------------------------------


def _prepare_beforehand(monkeypatch, actors):
    """Prepare the stack of each of ``actors`` now, and have the sweep's
    preparation of that actor return it, so that a traced call's peak holds
    no preparation; the stacks, by actor."""
    real = derivation._prepared
    prepared = {id(a.tensor.entries): real(a.space, a.tensor.entries[None]) for a in actors}
    monkeypatch.setattr(derivation, "_prepared", lambda space, arr: prepared[id(arr.base)])
    return {a: prepared[id(a.tensor.entries)][0] for a in actors}


# the Python objects and small arrays that a sweep holds beside its buffers,
# per worker and once more: at d = 4 to 20 they peak at 14 kB on one worker
# and 28 kB on two
_OBJECTS = 12 * 1024


def _assert_sweep_holds_its_buffers(monkeypatch, lhs, rhs, coeffs, step, stacked=False):
    """Run ``fused_sups(lhs, rhs, coeffs)`` of model curvatures, its actors
    prepared beforehand, at ``step`` pairs a slab on 1, 2 and 3 cores, and
    bound what it allocates by the real sizes: each worker's buffers (one a
    product, then one spare, each a single trial's ``step`` pairs on the
    largest of the worker's blocks of :func:`derivation._blocks`, or on the
    square in a sweep of one slab), each distinct target's copy of each
    block that is not full-width, a stacked sweep's copy of its largest
    operator stack, and :data:`_OBJECTS` a worker and once more.  Once the
    first slab begins, the memory held must grow by less than one slab, so
    no slab is copied.  numpy's ufunc buffer is shrunk to 256 values
    meanwhile, so that a transposed add allocates 3.4 kB rather than
    13.8 kB at d = 4."""
    pairs = lhs + rhs
    d = pairs[0][0].space.dim
    count = _upper(d)
    targets = len({id(t.tensor.entries) for _, t in pairs})
    stacks = [_stack(a) for a in dict.fromkeys(a for a, _ in pairs)]
    copy = max(ops.nbytes for ops in stacks) if stacked else 0
    real = derivation._action_slab
    for cores in (1, 2, 3):
        if count > step:
            blocks = derivation._blocks(d, True)
            workers = min(cores, 2) if derivation._BLAS else 1
        else:
            blocks, workers = ((slice(0, d), slice(0, d)),), 1
        areas = [(rows.stop - rows.start) * (cols.stop - cols.start) for rows, cols in blocks]
        held = copy + (workers + 1) * _OBJECTS + sum(
            (len(pairs) + 1) * 8 * step * max(areas[w::workers]) * d**2 for w in range(workers))
        held += sum(targets * 8 * area * d**2
                    for area, (_, cols) in zip(areas, blocks) if cols.stop - cols.start < d)
        slab = 8 * step * min(areas) * d**2
        _use_cores(monkeypatch, cores)
        first = []

        def spy(*args, **kwargs):
            if not first:  # the memory held, and the peak, as the first slab begins
                first.append(tracemalloc.get_traced_memory())
                tracemalloc.reset_peak()
            if np.getbufsize() != 256:  # numpy's buffer size is per thread
                np.setbufsize(256)
            return real(*args, **kwargs)

        monkeypatch.setattr(derivation, "_action_slab", spy)
        bufsize = np.setbufsize(256)
        tracemalloc.start()
        try:
            derivation.fused_sups(lhs, rhs, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
            monkeypatch.setattr(derivation, "_action_slab", real)
        (held_then, setup), = first[:1]
        assert max(setup, peak) <= held, (len(pairs), cores, setup, peak, held)
        # a per-slab copy of a slab (np.abs without out=, say) breaks this bound
        assert peak - held_then < slab, (len(pairs), cores, peak - held_then, slab)


def _assert_slabs_allocate_nothing(monkeypatch, n, pairs_per_slab, stacked):
    """Run theorem1's relation, and one with both sides summed and both
    scaled, at complex dimension ``n`` with ``pairs_per_slab`` pairs a slab
    (see :func:`_assert_sweep_holds_its_buffers`)."""
    sp = random_adapted_change(make_space(n), 3)
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    d = sp.dim
    monkeypatch.setattr(derivation, "SLAB_BYTES", pairs_per_slab * 8 * d**4)
    operators = _prepare_beforehand(monkeypatch, [pi, phi, psi, r])
    assert all(ops.shape == (1, _upper(d), d, d) for ops in operators.values())
    for lhs, rhs, coeffs in [
        ([(r, r)], [(pi, r)], (1.0, 2.0)),
        ([(psi, pi), (pi, psi)], [(phi, psi), (psi, phi)], (3.0, 2.0)),
    ]:
        _assert_sweep_holds_its_buffers(monkeypatch, lhs, rhs, coeffs,
                                        min(pairs_per_slab, _upper(d)), stacked)


@pytest.mark.parametrize("pairs_per_slab", [32, 8, 1])
def test_fused_sups_allocates_nothing_per_slab(monkeypatch, pairs_per_slab):
    # the 28 pairs U < V at d = 8 as 1, 4 or 28 slabs, pair by pair
    _assert_slabs_allocate_nothing(monkeypatch, 4, pairs_per_slab, False)


@pytest.mark.stacked_pairs
@pytest.mark.parametrize("n", [2, 3])
def test_a_stacked_slab_allocates_nothing_but_its_operators(monkeypatch, n):
    # the 6 and 15 pairs U < V at d = 4 and 6 as one stacked slab, whose
    # copy of the operators is P d^2 floats (4.3 kB at d = 6)
    _assert_slabs_allocate_nothing(monkeypatch, n, 32, True)


def test_the_derived_last_slot_allocates_nothing_per_slab(monkeypatch):
    # d = 20, one pair a slab: the transposed add of the third slot's term
    # allocates nothing but numpy's ufunc buffer
    sp = random_adapted_change(make_space(10), 3)
    pi = build_pi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 8 * sp.dim**4)
    _prepare_beforehand(monkeypatch, [r, pi])
    real, flags = derivation._action_slab, set()
    _spy_on_slab(monkeypatch, lambda a, slab: flags.add(a.antisym) or slab())
    derivation.fused_sups([(r, r)], [(pi, r)], (1.0, 0.05))
    assert flags == {True}
    monkeypatch.setattr(derivation, "_action_slab", real)
    _assert_sweep_holds_its_buffers(monkeypatch, [(r, r)], [(pi, r)], (1.0, 0.05), 1)


@pytest.mark.parametrize("n", [2, 5])
def test_one_pool_through_rows_of_one_two_and_four_products_gives_fresh_sups(n):
    # the sweep's pool, passed through sweeps of one, two and four products:
    # buffers kept for fewer products are not reused as they are, or a row
    # of four products after one of two would drop two products; one slab
    # at d = 4, pair slabs on every worker at d = 10
    sp = random_adapted_change(make_space(n), 4)
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    rows = [
        ([(phi, phi)], [], (1.0, 1.0)),
        ([(pi, phi)], [(phi, phi)], (1.0, 2.0)),
        ([(psi, pi), (pi, psi)], [(phi, psi), (psi, phi)], (1.0, 2.0)),
    ]

    def sweep(lhs, rhs, coeffs, pool=None):
        pairs = lhs + rhs
        split = (list(range(len(lhs))), list(range(len(lhs), len(pairs))), coeffs)
        stacks, targets = [_stack(a) for a, _ in pairs], [t.tensor.entries[None] for _, t in pairs]
        return derivation._sups(stacks, targets, [split], pool)[..., 0].tolist()

    fresh = [sweep(*row) for row in rows]
    assert [row[0] for row in fresh] == [list(derivation.fused_sups(*row)) for row in rows]
    for order in ([0, 1, 2, 1, 0], [2, 1, 0, 2]):
        pool: list = []
        assert [sweep(*rows[i], pool) for i in order] == [fresh[i] for i in order]


def _record_sweeps(monkeypatch):
    """Record the row count, product count and, once it returns, the buffer
    count of each worker of every ``derivation._sups`` call."""
    sweeps = []
    real = derivation._sups

    def recording(stacks, targets, rows, pool=None):
        pool = [] if pool is None else pool
        out = real(stacks, targets, rows, pool)
        sweeps.append((len(rows), len(stacks), {len(buffers) for buffers in pool}))
        return out

    monkeypatch.setattr(derivation, "_sups", recording)
    return sweeps


def test_the_table_and_eq32_rows_of_a_stage_share_one_sweep(monkeypatch):
    # verify all hands the 10 rows to one sweep of the 9 block products; the
    # table alone forms 9 products, eq32 alone 8, each in its own buffer, and
    # the term buffer is the one spare that the shared products of verify
    # all need
    sp = make_space(2)
    sweeps = _record_sweeps(monkeypatch)
    for suite, rows, products in [("table", 7, 9), ("eq32", 3, 8), ("all", 10, 9)]:
        sweeps.clear()
        results = run_suite([2], [0], trials=1, suite=suite)
        assert all(r.passed for r in results)
        grouped = [sweep for sweep in sweeps if sweep[0] > 1]
        assert grouped == [(rows, products, {products + 1})], suite
        if suite == "all":  # theorem1's one batch and the product route's two rows
            assert sweeps == [(10, 9, {10}), (1, 2, {3}), (1, 1, {2}), (1, 1, {2})]


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_grouped_rows_equal_their_lone_sweeps_bit_for_bit(monkeypatch, n):
    # one slab at d = 4 and 6, several on two blocks from d = 10 on, and the
    # derived last slot at d = 20; each row alone, through fused_sups, on one
    # core, against the grouped sweep on one, two and three
    sp = random_adapted_change(make_space(n), 3)
    rows = identities._block_rows(sp, "all")
    _use_cores(monkeypatch, 1)
    lone = [derivation.fused_sups(lhs, rhs, coeffs, name) for name, lhs, rhs, coeffs in rows]
    for cores in (1, 2, 3):
        _use_cores(monkeypatch, cores)
        grouped = derivation._relation_sups(rows)
        assert np.array(grouped).view(np.uint64).tolist() == (
            np.array(lone).view(np.uint64).tolist()), cores


@pytest.mark.parametrize("n", [2, 5])
def test_each_block_product_is_formed_once_per_slab_and_block(monkeypatch, n):
    # one slab and the full square at d = 4; at d = 10 five slabs of pairs on
    # the two blocks over X1 <= X2, one a worker; each of the three distinct
    # actors is prepared, and gated, once a sweep, and each of the three
    # distinct targets is gated and copied once a block, not once a product
    sp = random_adapted_change(make_space(n), 2)
    d = sp.dim
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(identities, "random_adapted_change", lambda space, seed: sp)
    blocks = _sweep_blocks(d) if n > 2 else [(0, d, 0)]
    step = min(_upper(d), derivation.SLAB_BYTES // (8 * d**4))
    named = {"pi": build_pi(sp), "phi": build_phi(sp), "psi": build_psi(sp)}
    owners = _record_prepared(monkeypatch)
    entries = {id(r.tensor.entries): name for name, r in named.items()}
    gated, heads, formed = [], {}, []
    real_gate = derivation._antisymmetric_in_first_pair

    def gate(t):
        gated.append(t)
        return real_gate(t)

    def recording(a, slab):
        heads[id(a.head)] = a.head  # kept alive, so that no id is reused
        actor, target = entries.get(owners.get(id(a.ops))), entries.get(id(a.t.base))
        if actor and target:
            formed.append((actor, target, a.lo, a.hi, *_block_key(a.rows, a.cols)))
        return slab()

    monkeypatch.setattr(derivation, "_antisymmetric_in_first_pair", gate)
    _spy_on_slab(monkeypatch, recording)
    table = set(itertools.product(named, repeat=2))
    eq32 = table - {("pi", "pi")}
    for suite, products in [("all", table), ("table", table), ("eq32", eq32)]:
        gated.clear(), heads.clear(), formed.clear()
        assert all(r.passed for r in run_suite([n], [2], trials=1, suite=suite))  # on sp
        assert sorted(formed) == sorted(
            (*product, lo, hi, *block) for product in products
            for lo, hi in _pairs(_upper(d), step) for block in blocks), suite
        if suite != "all":  # theorem1's batch and the product route gate their own
            assert len(gated) == 3 + (3 if n > 2 else 0)
            assert len(heads) == 3 * len(blocks)


def test_a_grouped_breakdown_names_its_first_row_in_report_order(monkeypatch):
    # the second row's right side sums +inf and -inf, so its defect is NaN
    # beside a finite guard; the third row's product overflows.  A reduction
    # through Python's max, where max(0.0, nan) is 0.0, would pass the second
    # row and name the third
    sp = make_space(2)
    pi, phi = build_pi(sp), build_phi(sp)
    big, target = 1e300 * pi, 1e10 * pi
    minus = -1.0 * big
    rows = [
        ("fine", [(pi, phi)], [(phi, phi)], (1.0, 2.0)),
        ("nan defect", [(pi, phi)], [(big, target), (minus, target)], (1.0, 1.0)),
        ("overflow", [(big, target)], [], (1.0, 1.0)),
    ]
    swept = []
    real = derivation._sups
    monkeypatch.setattr(derivation, "_sups", lambda *a: swept.append(real(*a)) or swept[-1])
    for cut in (3, 2):
        with pytest.raises(NumericBreakdownError, match="nan defect"):
            derivation._relation_sups(rows[:cut])
    (defect, guard), overflow = swept[0][1:, :, 0]
    assert np.isnan(defect) and 0.0 < guard < math.inf and not np.isfinite(overflow).any()
    with pytest.raises(NumericBreakdownError, match="nan defect"):
        derivation.fused_sups(*rows[1][1:], "nan defect")
    assert derivation._relation_sups(rows[:1]) == [derivation.fused_sups(*rows[0][1:])]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10, 12])
def test_the_upper_pair_stack_equals_the_dense_operators_bit_for_bit(n):
    # the stack formed on the entries of the pairs U < V alone is the dense
    # operators' rows at those pairs, signed zeros included: for the three
    # blocks, a batch of theorem1's combinations and both product curvatures
    sp = random_adapted_change(make_space(n), n)
    d = sp.dim
    upper = np.triu_indices(d, 1)

    def bits(x):
        return np.ascontiguousarray(x).view(np.uint64)

    k, l = np.random.default_rng(n).uniform(-2.0, 2.0, size=2)
    for r in (build_pi(sp), build_phi(sp), build_psi(sp),
              product_curvature(k, l, sp), product_curvature(k, -k, sp)):
        stack = _stack(r)
        assert stack.shape == (1, _upper(d), d, d)
        assert np.array_equal(bits(stack[0]), bits(derivation.curvature_operators(r)[upper]))
    a, b, c = np.random.default_rng([n, 1]).uniform(-5.0, 5.0, size=(3, 4))
    batch = derivation._combination(sp, a, b, c)
    stacks, _, texts = derivation._prepared(sp, batch)
    assert stacks.shape == (4, _upper(d), d, d) and texts == [None] * 4
    for stack, arr in zip(stacks, batch):
        dense = derivation.curvature_operators(CurvatureTensor(Tensor(d, (0, 4), arr), sp))
        assert np.array_equal(bits(stack), bits(dense[upper]))


def _peak_rss_mb(argv):
    """Exit code, peak RSS in MB (NaN if the child died before reporting it)
    and stderr of ``qch`` run with ``argv`` in a fresh process.

    The peak is the child's own ``VmHWM``: its ``ru_maxrss`` would carry the
    high-water mark of the process that spawned it across ``execve``."""
    code = (
        "import re, sys\n"
        "from qch.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "finally:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        print('peak_rss_kb', re.search(r'VmHWM:\\s*(\\d+) kB', fh.read())[1])\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    peak = re.search(r"^peak_rss_kb (\d+)$", proc.stdout, re.M)
    return proc.returncode, int(peak[1]) / 1024 if peak else math.nan, proc.stderr


def _assert_peak_below(argv, bound_mb):
    exit_code, peak_mb, stderr = _peak_rss_mb(argv)
    detail = f"exit code {exit_code}, peak RSS {peak_mb:.1f} MB, stderr tail: {stderr[-2000:]!r}"
    assert exit_code == 0, detail
    assert peak_mb < bound_mb, detail


def test_theorem1_at_n10_stays_under_100_mb():
    # d = 20 runs one pair per slab, about 52 MB
    _assert_peak_below(["verify", "theorem1", "--n", "10", "--trials", "1"], 100)


def test_theorem1_at_n8_stays_under_300_mb():
    # dense (0,6) products put this run at about 0.7 GB; streamed, about 0.12 GB
    _assert_peak_below(["verify", "theorem1", "--n", "8", "--trials", "1"], 300)


# -- every worker count against dense products at d = 8 and 12 --------------------


@needs_openblas
@pytest.mark.parametrize("n", [4, 6])
def test_every_worker_count_gives_the_dense_sups_bit_for_bit(monkeypatch, n):
    # 5 pairs a slab: the 28 pairs U < V at d = 8 run as 6 slabs, the 66 at
    # d = 12 as 14, and the all-pairs actor's 64 and 144 as 13 and 29
    sp = random_adapted_change(make_space(n), 9)
    d = sp.dim
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    r = combine(QCHCoefficients(1.3, -0.6, 2.2), sp)
    off = _one_ulp_off(r)
    f = 1.3 - 0.3
    # the last relation's target fails the first-pair gate: the full square
    relations = [
        ([(r, r)], [(pi, r)], (1.0, f), True),
        ([(psi, pi), (pi, psi)], [(phi, psi), (psi, phi)], (1.0, 2.0), True),
        ([(off, off)], [(pi, off)], (1.0, f), False),
    ]
    dense = []
    for lhs, rhs, (c, e), _ in relations:
        left = c * _dense_sum(lhs)
        dense.append((max_abs(left - e * _dense_sum(rhs)), max_abs(left)))
    monkeypatch.setattr(derivation, "SLAB_BYTES", 5 * 8 * d**4)
    seen = _record_stacks(monkeypatch)
    # every core count forms the same two blocks, on one worker or two
    for cores in (1, 2, 3, 4):
        _use_cores(monkeypatch, cores)
        for (*rel, triangle), expected in zip(relations, dense):
            seen.clear()
            assert derivation.fused_sups(*rel) == expected, (cores, triangle)
            blocks = {x[3:] for x in seen}
            assert blocks == set(_sweep_blocks(d, triangle)), (cores, triangle)


@needs_openblas
def test_worker_counts_and_the_full_square_agree_across_the_small_matrix_cut(monkeypatch):
    # d = 16, two pairs a slab: a first-slot matmul over the full square in
    # one block has M N K = 16^5, above the 1e6 where OpenBLAS switches to
    # its small-matrix kernel; each of the two row blocks and of the two
    # triangle blocks is below it
    sp = random_adapted_change(make_space(8), 9)
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    r = combine(QCHCoefficients(1.3, -0.6, 2.2), sp)
    relations = [
        ([(r, r)], [(pi, r)], (1.0, 1.3 - 0.3)),
        ([(psi, pi), (pi, psi)], [(phi, psi), (psi, phi)], (1.0, 2.0)),
    ]
    assert all(_stack(a).shape[1] == _upper(16) for a in (pi, phi, psi, r))  # pairs U < V
    real_blocks = derivation._blocks

    def sups(cores, triangle, whole=False):
        _use_cores(monkeypatch, cores)
        with monkeypatch.context() as m:
            if whole:  # the full square as one block
                m.setattr(derivation, "_blocks", lambda d, triangle: ((slice(0, d),) * 2,))
            elif not triangle:  # the two row blocks, as for targets that fail the first-pair gate
                m.setattr(derivation, "_blocks", lambda d, triangle: real_blocks(d, False))
            return [derivation.fused_sups(*rel) for rel in relations]

    square = sups(1, False, whole=True)
    # both defects are rounding errors, so a sum rounded otherwise shows
    assert all(0.0 < defect < 1e-15 and guard > 0.1 for defect, guard in square)
    for cores in (1, 2, 3, 4):
        assert sups(cores, True) == square, cores
        assert sups(cores, False) == square, cores


# -- theorem1's trials in batches ----------------------------------------------------


def _per_batch(d):
    """Trials a batch of theorem1 holds at dim ``d``: one product's slab of them
    fills SLAB_BYTES."""
    return max(1, derivation.SLAB_BYTES // (8 * _upper(d) * d**4))


def _per_slab(d):
    """Trials a slab of theorem1 holds at dim ``d``: its two product buffers
    and its term buffer together fill SLAB_BYTES."""
    return max(1, derivation.SLAB_BYTES // (3 * 8 * _upper(d) * d**4))


def _draws(space, trials, coeff_range=5.0, seed=4):
    """Theorem1's draws on ``space`` and their factors a + b/2."""
    draws = np.random.default_rng(seed).uniform(-coeff_range, coeff_range, size=(trials, 3))
    return draws, draws[:, 0] + draws[:, 1] / 2.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("trials", [1, 7, 100])
def test_batched_trials_equal_their_lone_sweeps_bit_for_bit(monkeypatch, n, trials):
    # 85 trials a batch (28 a slab) at d = 4 and 6 (2 a slab) at d = 6, so 7
    # and 100 straddle batch and slab boundaries; one trial a batch at d = 8,
    # and at d = 10 a trial's pair slabs split their two blocks between two
    # workers
    _use_cores(monkeypatch, 2)
    space = random_adapted_change(make_space(n), n)
    pi = build_pi(space)
    draws, factors = _draws(space, trials)
    batched = list(derivation.pseudosymmetry_sups(space, draws, factors, "theorem1"))
    rs = [combine(QCHCoefficients(*row), space) for row in draws]
    lone = [derivation.fused_sups([(r, r)], [(pi, r)], (1.0, f)) for r, f in zip(rs, factors)]
    assert batched == lone


@pytest.mark.parametrize("n", [2, 3])
def test_theorem1_forms_two_slabs_per_slab_of_trials(monkeypatch, n):
    # one R.R slab and one Pi.R slab for each slab of whole trials in each
    # batch: a fallback to a sweep per trial would form 2 * trials
    d, trials = 2 * n, 100
    per_batch, per_slab = _per_batch(d), _per_slab(d)
    assert (per_batch, per_slab) == {4: (85, 28), 6: (6, 2)}[d]
    batches = [min(per_batch, trials - b0) for b0 in range(0, trials, per_batch)]
    seen = _record_stacks(monkeypatch)
    assert verify_theorem1(make_space(n), trials=trials).passed
    assert len(seen) == 2 * sum(math.ceil(b / per_slab) for b in batches)
    assert len(seen) < 2 * trials


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("place", ["middle", "last"])
@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("wrong", [lambda f: 3.0 * f, lambda f: f * (1.0 + 1e-3)],
                         ids=["3f", "f(1+1e-3)"])
def test_a_false_factor_fails_in_its_own_trial_only(n, place, scale, wrong):
    # one trial of a batch gets a wrong factor: it must fail, and every
    # other trial must pass or fail as vacuous; a factor broadcast to the
    # wrong trial would pass the false statement or fail a true one
    tol = 1e-10
    space = random_adapted_change(make_space(n), 2)
    per = _per_batch(space.dim)
    draws, factors = _draws(space, per + 3, coeff_range=5.0 * scale)
    false = per // 2 if place == "middle" else per - 1
    factors[false] = wrong(factors[false])
    sups = derivation.pseudosymmetry_sups(space, draws, factors, "theorem1")
    for i, (defect, guard) in enumerate(sups):
        relative = identities._vacuous(defect, guard, tol) / (1.0 + guard)
        if i == false:
            assert not relative <= tol, (i, relative)
        else:
            assert relative <= tol or relative == math.inf, (i, relative)


def test_each_trial_is_decided_in_order():
    # the three trials form one batch, but each is decided only when asked
    # for: a caller that stops at the vacuous second trial never meets the
    # third, whose combination overflows and is refused as not finite
    space = make_space(2)
    draws = np.array([[1.0, 0.5, -0.3], [1e-9, 1e-9, 1e-9], [1e308, 1e308, 1e308]])
    factors = draws[:, 0] + draws[:, 1] / 2.0
    sups = derivation.pseudosymmetry_sups(space, draws, factors, "theorem1")
    assert next(sups)[1] > 1e-2
    assert next(sups)[1] < 1e-15
    with pytest.raises(UsageError, match="not finite"):
        next(sups)
    # a product that overflows is a breakdown named in its own trial
    huge = np.array([[1.0, 0.5, -0.3], [1e160, 0.0, 0.0]])
    sups = derivation.pseudosymmetry_sups(space, huge, huge[:, 0], "theorem1:x")
    assert next(sups)[1] > 1e-2
    with pytest.raises(NumericBreakdownError, match="theorem1:x"):
        next(sups)


def test_a_batch_trial_that_fails_the_symmetries_warns(monkeypatch):
    space = make_space(2)
    pi, phi, psi = space.blocks
    noise = np.random.default_rng(0).uniform(-1e-6, 1e-6, size=phi.entries.shape)
    noisy = Tensor(4, (0, 4), phi.entries + noise)
    monkeypatch.setitem(space.__dict__, "blocks", (pi, noisy, psi))
    draws = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])  # only the second holds Phi
    sups = derivation.pseudosymmetry_sups(space, draws, draws[:, 0], "theorem1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        next(sups)
    with pytest.warns(KahlerSymmetryWarning) as record:
        next(sups)
    assert record[0].filename == __file__


# -- the stacked pairs of a one-slab sweep -----------------------------------------


def _bits(x):
    """The entries of ``x`` as integers, up to the sign of a zero."""
    return np.abs(x).view(np.uint64)


def _both_slabs(ops, t):
    """The slab of the whole stack ``ops`` on ``t``, pair by pair and stacked."""
    count = ops.shape[1]
    return (derivation._action_slab(ops, t, 0, 0, count),
            derivation._action_slab(ops, t, 0, 0, count, stacked=True))


@pytest.mark.stacked_pairs
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("trials", [1, 2, 85])
def test_the_stacked_slab_equals_the_pair_by_pair_slab(n, trials):
    # Pi's one-trial stack shared by the B combinations (theorem1's Pi.R),
    # and the combinations' own stacks of the pairs U < V (R.R) and of all
    # d^2 pairs, which the sweep stacks only at d = 4
    sp = random_adapted_change(make_space(n), 6)
    d = sp.dim
    a, b, c = np.random.default_rng([n, trials]).uniform(-5.0, 5.0, size=(3, trials))
    rs = derivation._combination(sp, a, b, c)
    upper, _, _ = derivation._prepared(sp, rs)
    full = derivation._operators(sp, rs).reshape(trials, d * d, d, d)
    for ops in (_stack(build_pi(sp)), upper, full):
        per_pair, stacked = _both_slabs(ops, rs)
        assert np.array_equal(_bits(per_pair), _bits(stacked)), ops.shape


@pytest.mark.stacked_pairs
@pytest.mark.parametrize("n", [2, 3])
def test_the_stacked_slab_equals_the_pair_by_pair_slab_on_a_gl_frame(gl_frame, n):
    # the blocks are dense there: every product of two blocks
    sp = gl_frame(n)
    blocks = build_pi(sp), build_phi(sp), build_psi(sp)
    for actor, target in itertools.product(blocks, repeat=2):
        per_pair, stacked = _both_slabs(_stack(actor), target.tensor.entries[None])
        assert np.array_equal(_bits(per_pair), _bits(stacked))


@pytest.mark.stacked_pairs
def test_a_stack_just_over_the_gate_takes_the_pair_by_pair_path(monkeypatch):
    # at d = 4 the 6 pairs U < V of theorem1's relation are one slab with
    # P d^5 = 6144: a gate of 6144 stacks them, one of 6143 does not, and
    # the sups agree bit for bit.  At the default gate, d = 6 stacks its 15
    # pairs, but not an actor's 36 (P d^5 = 279936), and d = 8 its 28
    flags = []
    _spy_on_slab(monkeypatch, lambda a, slab: flags.append(a.stacked) or slab())

    def relation(n, actor=lambda r: r):
        sp = random_adapted_change(make_space(n), 3)
        r = actor(combine(QCHCoefficients(0.7, -1.3, 2.1), sp))
        flags.clear()
        sups = derivation.fused_sups([(r, r)], [(build_pi(sp), r)], (1.0, 0.05))
        return sups, set(flags)

    sups = {}
    for gate, stacked in [(6144, True), (6143, False)]:
        with monkeypatch.context() as m:
            m.setattr(derivation, "_STACK_MNK", gate)
            sups[stacked], flags_seen = relation(2)
        assert flags_seen == {stacked}, gate
    assert sups[True] == sups[False]
    assert relation(3)[1] == {True}
    assert relation(3, _one_ulp_off)[1] == {False}
    assert relation(4)[1] == {False}


@pytest.mark.stacked_pairs
@pytest.mark.parametrize("n", [2, 3])
def test_every_run_suite_sweep_gives_the_pair_by_pair_sups_on_one_and_two_cores(monkeypatch, n):
    # every sweep of verify all (the grouped rows, theorem1's batches and
    # the product route's rows), its defects and guards for every trial
    real = derivation._sups
    sweeps = []
    monkeypatch.setattr(derivation, "_sups", lambda *a: sweeps.append(real(*a)) or sweeps[-1])

    default = derivation._STACK_MNK

    def sups(cores, gate):
        _use_cores(monkeypatch, cores)
        monkeypatch.setattr(derivation, "_STACK_MNK", gate)
        sweeps.clear()
        assert all(r.passed for r in run_suite([n], [0, 1]))
        return [x.view(np.uint64).tolist() for x in sweeps]

    pair_by_pair = sups(1, 0)
    assert len(pair_by_pair) == 2 * (1 + math.ceil(100 / _per_batch(2 * n)) + 2)
    for cores in (1, 2):
        assert sups(cores, default) == pair_by_pair, cores
