"""The streamed derivation kernel against the dense products it replaces.

Every check of ``run_suite`` reduces derivation products slab by slab.  The
dense reference below forms each full product with ``curv_dot`` and reduces
it afterwards, exactly as the checks did before streaming; the two must give
the same floats, whether the U range is one slab or several.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qch.derivation as derivation
from qch import (
    CurvatureTensor,
    KahlerSymmetryWarning,
    NumericBreakdownError,
    QCHCoefficients,
    Tensor,
    build_phi,
    build_pi,
    build_psi,
    combine,
    curv_dot,
    make_space,
    max_abs,
    product_curvature,
    pseudosymmetry_defect,
    random_adapted_change,
    run_suite,
    verify_eq32,
    verify_multiplication_table,
    verify_product_route,
    verify_theorem1,
)
from qch.cli import main

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


def _rows(*bounds):
    return list(zip(bounds, bounds[1:]))


# the default budget (one slab up to d = 10), one that splits d = 4 into 3 + 1
# rows and d = 6 and 8 into single rows, and one that splits d = 6 into 4 + 2
@pytest.mark.parametrize("budget,slabs", [
    (None, {4: _rows(0, 4), 6: _rows(0, 6), 8: _rows(0, 8)}),
    (3 * 8 * 4**5, {4: _rows(0, 3, 4), 6: _rows(*range(7)), 8: _rows(*range(9))}),
    (4 * 8 * 6**5, {4: _rows(0, 4), 6: _rows(0, 4, 6), 8: _rows(*range(9))}),
])
def test_fused_checks_equal_the_dense_products(monkeypatch, budget, slabs):
    if budget is not None:
        monkeypatch.setattr(derivation, "SLAB_BYTES", budget)
    real = derivation._action_slab
    seen = {}

    def recording(ops, t, rk, lo, hi):
        seen.setdefault(t.shape[0], set()).add((lo, hi))
        return real(ops, t, rk, lo, hi)

    for n, seed in itertools.product((2, 3, 4), (0, 1)):
        monkeypatch.setattr(derivation, "_action_slab", recording)
        results = run_suite([n], [seed], trials=TRIALS)
        monkeypatch.setattr(derivation, "_action_slab", real)
        dense = dense_defects(n, seed)
        fused = {r.name: r.max_defect for r in results if r.name in DERIVATION_CHECKS}
        assert fused == dense, (n, seed)
        assert all(r.passed for r in results)
    assert {d: sorted(rows) for d, rows in seen.items()} == slabs


def test_pseudosymmetry_defect_equals_the_dense_value(monkeypatch):
    sp = random_adapted_change(make_space(3), 8)
    r = combine(QCHCoefficients(0.4, 1.1, -2.0), sp)
    dense = max_abs(curv_dot(r, r) - 3.0 * curv_dot(build_pi(sp), r))
    assert pseudosymmetry_defect(r, 3.0) == dense
    monkeypatch.setattr(derivation, "SLAB_BYTES", 8 * 6**5)
    assert pseudosymmetry_defect(r, 3.0) == dense


def test_each_product_slab_is_formed_once_and_each_actor_checked_once(monkeypatch):
    sp = make_space(2)
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    slabs, checks = [], []
    real_slab = derivation._action_slab
    real_check = derivation.check_kahler_symmetries

    def counting_slab(*args):
        slabs.append(args[3:])
        return real_slab(*args)

    def counting_check(r, **kwargs):
        checks.append(r)
        return real_check(r, **kwargs)

    monkeypatch.setattr(derivation, "_action_slab", counting_slab)
    monkeypatch.setattr(derivation, "check_kahler_symmetries", counting_check)
    monkeypatch.setattr(derivation, "SLAB_BYTES", 2 * 8 * 4**5)
    derivation.fused_sups([(psi, pi), (pi, psi), (phi, psi), (psi, phi)])
    assert slabs == [(0, 2)] * 4 + [(2, 4)] * 4
    assert [id(r) for r in checks] == [id(psi), id(pi), id(phi)]


def _count_checks(monkeypatch):
    """Record every curvature that gets symmetry-checked."""
    checks = []
    real_check = derivation.check_kahler_symmetries

    def counting_check(r, **kwargs):
        checks.append(r)
        return real_check(r, **kwargs)

    monkeypatch.setattr(derivation, "check_kahler_symmetries", counting_check)
    return checks


def test_a_curvature_is_checked_once_across_calls(monkeypatch):
    sp = make_space(2)
    checks = _count_checks(monkeypatch)
    verify_theorem1(sp, trials=100)
    pi = build_pi(sp).tensor.entries
    assert len(checks) == 101  # Pi once, and each trial's R once
    assert sum(np.array_equal(r.tensor.entries, pi) for r in checks) == 1


def test_a_failing_curvature_warns_on_every_use(monkeypatch):
    sp = make_space(2)
    arr = np.array(build_pi(sp).tensor.entries)
    arr[0, 0, 0, 0] += 1.0
    lopsided = CurvatureTensor(Tensor(4, (0, 4), arr), sp)
    checks = _count_checks(monkeypatch)
    for _ in range(3):
        with pytest.warns(KahlerSymmetryWarning):
            derivation.fused_sups([(lopsided, lopsided)])
    assert checks == [lopsided]


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
    assert pseudosymmetry_defect(r, 1.2 - 0.4) > 1e-4


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
        pseudosymmetry_defect(huge, 1.0)
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


def test_theorem1_at_n8_stays_under_300_mb():
    # dense (0,6) products put this run at about 0.7 GB; streamed, about 0.12 GB
    code = (
        "import resource, sys\n"
        "from qch.cli import main\n"
        "code = main(['verify', 'theorem1', '--n', '8', '--trials', '1'])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    exit_code, peak_kb = (int(x) for x in proc.stdout.split()[-2:])
    assert exit_code == 0
    assert peak_kb < 300 * 1024, f"peak RSS {peak_kb / 1024:.0f} MB"
