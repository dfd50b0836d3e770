"""The streamed derivation kernel against the dense products it replaces.

Every check of ``run_suite`` is a linear relation among derivation products,
reduced slab by slab over the pairs U < V when every actor is exactly
antisymmetric.  The dense reference below forms each full product over all
pairs with ``curv_dot`` and reduces it afterwards, exactly as the checks did
before streaming; the two must give the same floats, whether the pairs form
one slab or several.
"""

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


def _sweep_blocks(d, triangle=True):
    """The (row start, row stop, column start) blocks of the products' first
    output pair that a sweep of several slabs forms at dim ``d``, on any
    number of cores: two over X1 <= X2 when ``triangle``, two full-width row
    blocks otherwise (the columns of each run to d)."""
    return [(rows.start, rows.stop, cols.start) for rows, cols in derivation._blocks(d, triangle)]


def _block_key(rows, cols):
    return rows.start, rows.stop, cols.start


needs_openblas = pytest.mark.skipif(
    derivation._openblas() is None, reason="numpy's bundled OpenBLAS thread control not found"
)


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
    real = derivation._action_slab
    seen = {}

    def recording(ops, t, rk, lo, hi, out=None, term=None, rows=slice(None), cols=slice(None),
                  head=None):
        seen.setdefault(t.shape[-1], set()).add((lo, hi, *_block_key(rows, cols)))
        return real(ops, t, rk, lo, hi, out, term, rows, cols, head)

    for n, seed in itertools.product((2, 3, 4), (0, 1)):
        monkeypatch.setattr(derivation, "_action_slab", recording)
        results = run_suite([n], [seed], trials=TRIALS)
        monkeypatch.setattr(derivation, "_action_slab", real)
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
    """Make every actor's stack the d*d pairs, as for an actor that fails the
    antisymmetry gate; the symmetry check and its warning still run."""
    real = derivation._checked_operators

    def all_pairs(r):
        real(r)
        d = r.space.dim
        return derivation.curvature_operators(r).reshape(1, d * d, d, d)

    monkeypatch.setattr(derivation, "_checked_operators", all_pairs)


def _record_stacks(monkeypatch):
    """Record the stack length, pair range and block (row start, row stop,
    column start) of every slab formed."""
    real = derivation._action_slab
    seen = []

    def recording(ops, t, rk, lo, hi, out=None, term=None, rows=slice(None), cols=slice(None),
                  head=None):
        seen.append((ops.shape[1], lo, hi, *_block_key(rows, cols)))
        return real(ops, t, rk, lo, hi, out, term, rows, cols, head)

    monkeypatch.setattr(derivation, "_action_slab", recording)
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
    assert derivation._checked_operators(pi).shape[1] == _upper(d)
    assert derivation._checked_operators(off).shape[1] == d * d
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
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
        upper = derivation._checked_operators(r)
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
    ops, t = derivation._checked_operators(r), r.tensor.entries[None]
    for lo in (0, 77, _upper(d) - 1):
        square = _square_by_slot(ops[0, lo], t[0])[None, None]
        assert np.array_equal(derivation._action_slab(ops, t, 0, lo, lo + 1), square)
        assert np.array_equal(square, -square.swapaxes(2, 3))
        for rows, cols in derivation._blocks(d, True):
            head = np.ascontiguousarray(t[:, rows, cols])
            block = derivation._action_slab(ops, t, 0, lo, lo + 1, rows=rows, cols=cols, head=head)
            assert np.array_equal(block, square[:, :, rows, cols]), (lo, rows)


def _blas_threads():
    get, _ = derivation._openblas()
    return get()


@needs_openblas
def test_a_split_sweep_pins_blas_to_one_thread_and_restores_it(monkeypatch):
    sp = random_adapted_change(make_space(4), 3)
    pi = build_pi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * 8**4)
    real = derivation._action_slab
    during = set()

    def recording(*args):
        during.add((threading.get_ident(), _blas_threads()))
        return real(*args)

    monkeypatch.setattr(derivation, "_action_slab", recording)
    get, put = derivation._openblas()
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


@needs_openblas
def test_a_breakdown_in_one_worker_reaches_the_caller_with_the_check_name(monkeypatch):
    sp = random_adapted_change(make_space(4), 3)
    pi = build_pi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    _use_cores(monkeypatch, 2)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * 8**4)
    real = derivation._action_slab

    def faulty(ops, t, rk, lo, hi, out=None, term=None, rows=slice(None), cols=slice(None),
               head=None):
        slab = real(ops, t, rk, lo, hi, out, term, rows, cols, head)
        if rows.start:  # only worker 1's block overflows
            slab.flat[0] = np.inf
        return slab

    monkeypatch.setattr(derivation, "_action_slab", faulty)
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
    real = derivation._action_slab
    error = RuntimeError("a worker failed")

    def faulty(ops, t, rk, lo, hi, out=None, term=None, rows=slice(None), cols=slice(None),
               head=None):
        if (rows.start > 0) == failing:  # worker 1 forms the block of rows [r, d)
            entered.wait(timeout=60)
            raise error
        if not formed:
            entered.set()
            if failing:
                threads[0].join(timeout=60)
                waited.append(not threads[0].is_alive())
            else:
                waited.append(stops[0].wait(timeout=60))
        formed.append((lo, hi))
        return real(ops, t, rk, lo, hi, out, term, rows, cols, head)

    monkeypatch.setattr(derivation, "_action_slab", faulty)
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


# 8 * d**4 bytes hold one pair of a product at dim d
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("pairs_per_slab", [None, 1, 4, 5])
def test_relations_equal_the_dense_oracle(monkeypatch, n, pairs_per_slab):
    sp = random_adapted_change(make_space(n), 6)
    d = sp.dim
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    combo = combine(QCHCoefficients(0.8, -1.7, 0.6), sp)
    pool = [pi, phi, psi, combo, _one_ulp_off(combo)]
    if pairs_per_slab is not None:
        monkeypatch.setattr(derivation, "SLAB_BYTES", pairs_per_slab * 8 * d**4)
    rng = np.random.default_rng([n, pairs_per_slab or 0])

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


def test_each_product_slab_is_formed_once_and_each_actor_checked_once(monkeypatch):
    sp = make_space(2)
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    _use_cores(monkeypatch, 2)
    slabs = []
    real_slab = derivation._action_slab

    def counting_slab(ops, t, rk, lo, hi, out=None, term=None, rows=slice(None),
                      cols=slice(None), head=None):
        # a relation's products are one trial: its stack, and a view of its target
        slabs.append((id(ops), id(t.base), lo, hi, *_block_key(rows, cols)))
        return real_slab(ops, t, rk, lo, hi, out, term, rows, cols, head)

    monkeypatch.setattr(derivation, "_action_slab", counting_slab)
    checks = _count_checks(monkeypatch)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 4 * 8 * 4**4)
    products = [(psi, pi), (pi, psi), (phi, psi), (psi, phi)]
    derivation.fused_sups(products[:2], products[2:], (1.0, 2.0))
    # every product of every (slab, block) once; the two workers' slabs interleave
    blocks = _sweep_blocks(4)
    assert sorted(slabs) == sorted(
        (id(derivation._checked_operators(a)), id(t.tensor.entries), lo, hi, *block)
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
    lopsided = CurvatureTensor(Tensor(4, (0, 4), arr), sp)
    checks = _count_checks(monkeypatch)
    for _ in range(3):
        with pytest.warns(KahlerSymmetryWarning) as record:
            derivation.fused_sups([(lopsided, lopsided)])
        assert record[0].filename == __file__  # the caller's line, not the library's
    assert [id(arr.base) for arr in checks] == [id(lopsided.tensor.entries)]


# -- fault injection -----------------------------------------------------------


def test_a_perturbed_slab_fails_every_derivation_check(monkeypatch):
    # the perturbation grows with every slab formed, so no check's linear
    # combination of products can cancel it
    real = derivation._action_slab
    counter = itertools.count(1)

    def faulty(*args):
        out = real(*args)
        out.flat[0] += 1e-3 * next(counter)
        return out

    monkeypatch.setattr(derivation, "_action_slab", faulty)
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


@pytest.mark.parametrize("pairs_per_slab", [32, 8, 1])
def test_fused_sups_allocates_nothing_per_slab(monkeypatch, pairs_per_slab):
    # the product buffers and one term buffer are the only slab-sized arrays,
    # whether the 28 pairs U < V at d = 8 run as 1, 4 or 28 slabs, and on one
    # worker or two
    sp = random_adapted_change(make_space(4), 3)
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    r = combine(QCHCoefficients(0.7, -1.3, 2.1), sp)
    d = sp.dim
    slab = pairs_per_slab * 8 * d**4
    monkeypatch.setattr(derivation, "SLAB_BYTES", slab)
    # theorem1's relation, and one with both sides summed and both scaled
    for lhs, rhs, coeffs in [
        ([(r, r)], [(pi, r)], (1.0, 2.0)),
        ([(psi, pi), (pi, psi)], [(phi, psi), (psi, phi)], (3.0, 2.0)),
    ]:
        pairs = lhs + rhs
        operators = {a: derivation._checked_operators(a) for a, _ in pairs}
        assert all(ops.shape == (1, _upper(d), d, d) for ops in operators.values())
        for cores in (1, 2, 3):
            _use_cores(monkeypatch, cores)
            tracemalloc.start()
            try:
                derivation.fused_sups(lhs, rhs, coeffs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            ops_bytes = sum(ops.nbytes for ops in operators.values())
            # a per-slab copy of a slab (np.abs without out=, say) breaks this bound
            assert peak <= (len(pairs) + 1) * slab + ops_bytes, (len(pairs), cores, peak)


@pytest.mark.parametrize("n", [2, 5])
def test_one_pool_through_rows_of_one_two_and_four_products_gives_fresh_sups(n):
    # buffers kept for fewer products are not reused as they are: a row of
    # four products after one of two would otherwise drop two products; one
    # slab at d = 4, pair slabs on every worker at d = 10
    sp = random_adapted_change(make_space(n), 4)
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    rows = [
        ([(phi, phi)], [], (1.0, 1.0)),
        ([(pi, phi)], [(phi, phi)], (1.0, 2.0)),
        ([(psi, pi), (pi, psi)], [(phi, psi), (psi, phi)], (1.0, 2.0)),
    ]
    fresh = [derivation.fused_sups(*row) for row in rows]
    for order in ([0, 1, 2, 1, 0], [2, 1, 0, 2]):
        pool: list = []
        assert [derivation.fused_sups(*rows[i], "row", pool) for i in order] == [
            fresh[i] for i in order]


def test_the_relation_rows_of_a_stage_share_one_pool(monkeypatch):
    pools = []
    real = identities.fused_sups

    def recording(lhs, rhs, coeffs, check, pool):
        pools.append(pool)
        return real(lhs, rhs, coeffs, check, pool)

    monkeypatch.setattr(identities, "fused_sups", recording)
    sp = make_space(2)
    for verify, rows in [(verify_multiplication_table, 7), (verify_eq32, 3)]:
        pools.clear()
        assert all(r.passed for r in verify(sp))
        assert len(pools) == rows and all(pool is pools[0] for pool in pools)
        assert len(pools[0]) == 1 and len(pools[0][0]) == {7: 3, 3: 5}[rows]


def test_each_distinct_target_of_a_row_is_gated_and_copied_once(monkeypatch):
    # d = 10 sweeps several slabs on two blocks: the table's rows hold 7
    # distinct targets in 9 products and eq32's 6 in 8, so 13 gates and 13
    # head copies a block, not one per product
    gated, heads = [], {}
    real_gate, real_slab = derivation._antisymmetric_in_first_pair, derivation._action_slab

    def gate(t):
        gated.append(t)
        return real_gate(t)

    def slab(ops, t, rk, lo, hi, out=None, term=None, rows=slice(None), cols=slice(None),
             head=None):
        heads[id(head)] = head  # kept alive, so that no id is reused
        return real_slab(ops, t, rk, lo, hi, out, term, rows, cols, head)

    sp = random_adapted_change(make_space(5), 2)
    verify_eq32(sp)  # the stage's actors are prepared, and gated, once
    monkeypatch.setattr(derivation, "_antisymmetric_in_first_pair", gate)
    monkeypatch.setattr(derivation, "_action_slab", slab)
    assert all(r.passed for r in verify_multiplication_table(sp) + verify_eq32(sp))
    assert len(gated) == 13
    assert len(heads) == 13 * len(derivation._blocks(sp.dim, True))


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
    # the actors' stacks of pairs U < V, memoised before the gate is forced
    assert all(derivation._checked_operators(a).shape[1] == _upper(16) for a in (pi, phi, psi, r))

    def sups(cores, triangle, whole=False):
        _use_cores(monkeypatch, cores)
        with monkeypatch.context() as m:
            if not triangle:  # as for targets that fail the first-pair gate
                m.setattr(derivation, "_antisymmetric_in_first_pair", lambda t: False)
            if whole:  # the full square as one block
                m.setattr(derivation, "_blocks", lambda d, triangle: ((slice(0, d),) * 2,))
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
