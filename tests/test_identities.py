import math

import numpy as np
import pytest

from qch import derivation, identities
from qch import (
    KahlerSymmetryWarning,
    UsageError,
    QCHCoefficients,
    build_phi,
    build_pi,
    build_psi,
    combine,
    curv_dot,
    fused_sups,
    make_space,
    max_abs,
    random_adapted_change,
    run_suite,
    verify_eq32,
    verify_multiplication_table,
    verify_product_route,
    verify_theorem1,
)

TABLE_NAMES = [
    "table:pi.pi=0",
    "table:phi.pi=0",
    "table:psi.pi=0",
    "table:psi.phi=0",
    "table:psi.psi=0",
    "table:pi.phi=2phi.phi",
    "table:pi.psi=2phi.psi",
]

EQ32_NAMES = [
    "eq32:2phi.phi=phi.pi+pi.phi",
    "eq32:psi.psi=0",
    "eq32:psi.pi+pi.psi=2(phi.psi+psi.phi)",
]


@pytest.mark.parametrize("n", [2, 3])
def test_multiplication_table_passes(n):
    for space in (make_space(n), random_adapted_change(make_space(n), 11)):
        results = verify_multiplication_table(space)
        assert [r.name for r in results] == TABLE_NAMES
        assert all(r.passed for r in results), {
            r.name: r.max_defect for r in results if not r.passed
        }
        assert all(r.n == n for r in results)


def test_table_defects_are_near_machine_precision():
    results = verify_multiplication_table(make_space(2))
    for r in results:
        assert r.max_defect < 1e-13
        assert r.elapsed >= 0.0
        assert r.passed == (r.max_defect <= r.tolerance)


def test_table_detects_seeded_corruption(noisy_phi):
    # corrupting the middle block must break at least the products involving it
    noisy_phi(1e-6, seed=4)
    with pytest.warns(KahlerSymmetryWarning):
        results = verify_multiplication_table(make_space(2), seed=4)
    failed = {r.name for r in results if not r.passed}
    assert "table:phi.pi=0" in failed
    assert "table:pi.phi=2phi.phi" in failed
    # products that never touch the corrupted block still pass
    assert all(r.passed for r in results if r.name in ("table:pi.pi=0", "table:psi.psi=0"))


@pytest.mark.parametrize("n", [2, 3])
def test_coupled_relations_pass(n):
    results = verify_eq32(random_adapted_change(make_space(n), 2))
    assert [r.name for r in results] == EQ32_NAMES
    assert all(r.passed for r in results)


def test_nontrivial_sides_of_doubling_are_nonzero():
    # the doubling relations are only meaningful because both sides are O(1)
    sp = make_space(2)
    pi, phi, psi = build_pi(sp), build_phi(sp), build_psi(sp)
    assert max_abs(curv_dot(pi, phi.tensor)) == pytest.approx(0.125, abs=1e-13)
    assert max_abs(curv_dot(pi, psi.tensor)) > 1e-2


def test_pseudosymmetry_statement_over_random_coefficients():
    result = verify_theorem1(random_adapted_change(make_space(3), 5), trials=20, seed=5)
    assert result.passed
    assert result.name == "theorem1:r.r=(a+b/2)pi.r"
    assert result.max_defect < 1e-11


@pytest.mark.parametrize("coeff_range", [1e-6, 1e-5])
def test_a_theorem1_trial_with_a_tiny_r_dot_r_is_vacuous(coeff_range):
    # sup|R.R| scales as coeff_range**2, at or below 10 * tol here, so the
    # trial would pass whatever the factor is
    result = verify_theorem1(make_space(3), trials=5, coeff_range=coeff_range, seed=42)
    assert result.max_defect == math.inf and not result.passed


def test_a_false_theorem1_factor_fails_at_a_small_coefficient_range(monkeypatch):
    # 3 (a + b/2) is false, but its defect at coeff_range = 1e-5 (about 4e-11
    # once) lies below tol = 1e-10; the vacuity guard fails it instead
    real = identities.pseudosymmetry_sups

    def tripled(space, draws, factors, check):
        return real(space, draws, 3.0 * factors, check)

    monkeypatch.setattr(identities, "pseudosymmetry_sups", tripled)
    sp = make_space(3)
    for coeff_range in (1e-5, 5.0):
        assert not verify_theorem1(sp, trials=20, coeff_range=coeff_range, seed=1).passed


GUARDED_ROWS = {
    "table:pi.phi=2phi.phi",
    "table:pi.psi=2phi.psi",
    "eq32:2phi.phi=phi.pi+pi.phi",
    "eq32:psi.pi+pi.psi=2(phi.psi+psi.phi)",
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("wrong", [None, lambda e: 3.0 * e, lambda e: e * (1.0 + 1e-3)],
                         ids=["true", "3e", "e(1+1e-3)"])
def test_a_false_guarded_row_fails_at_every_scale(monkeypatch, n, scale, wrong):
    # the verifiers' own guarded rows, their right side's coefficient e made
    # false; a false row must fail, and a true one must pass or fail through
    # its tripped guard (all of them do at scale 1e-6, where sup|c Sum lhs|
    # is about 1e-12); every row is homogeneous of degree 2 in the blocks,
    # so scaling them keeps a true row true
    for name in ("build_pi", "build_phi", "build_psi"):
        build = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda space, build=build: scale * build(space))
    real = identities._relations

    def guarded(space, seed, tol, rows):
        rows = [(name, lhs, rhs, (c, wrong(e) if wrong else e))
                for name, lhs, rhs, (c, e) in rows if rhs]
        return real(space, seed, tol, rows)

    monkeypatch.setattr(identities, "_relations", guarded)
    sp = random_adapted_change(make_space(n), 2)
    results = verify_multiplication_table(sp) + verify_eq32(sp)
    assert {r.name for r in results} == GUARDED_ROWS
    for r in results:
        if wrong is None:
            assert r.passed or r.max_defect == math.inf, r
        else:
            assert not r.passed, r


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_a_false_zero_claim_fails(n, scale):
    # the four products that do not vanish, each claimed to vanish in an
    # unguarded row; at scale 1e-6 such a claim still passes (its defect,
    # 6.25e-14 for phi.phi, lies below tol * (1 + |A| |T|), about 1e-10)
    sp = random_adapted_change(make_space(n), 2)
    pi, phi, psi = (scale * build(sp) for build in (build_pi, build_phi, build_psi))
    products = {"pi.phi": (pi, phi), "pi.psi": (pi, psi), "phi.phi": (phi, phi),
                "phi.psi": (phi, psi)}
    rows = [(f"{name}=0", [pair], [], (1.0, 1.0)) for name, pair in products.items()]
    for r in identities._relations(sp, 0, 1e-10, rows):
        assert not r.passed, r


def test_pseudosymmetry_verifier_is_deterministic():
    sp = make_space(2)
    r1 = verify_theorem1(sp, trials=10, seed=3)
    r2 = verify_theorem1(sp, trials=10, seed=3)
    assert r1.max_defect == r2.max_defect


@pytest.mark.parametrize("k,l", [(1.0, -1.0), (0.5, 1.5), (-2.0, 0.3), (0.0, 0.0)])
def test_product_route_passes(k, l):
    results = verify_product_route(make_space(2), k, l)
    assert [r.name for r in results] == [
        "product:matches_combination",
        "product:semisymmetric_opposite_plane",
        "product:semisymmetric_unit_block",
        "product:holomorphic_diagonal",
    ]
    assert all(r.passed for r in results)


def test_run_suite_shape_and_determinism():
    a = run_suite([2, 3], [0, 1], trials=5)
    b = run_suite([2, 3], [0, 1], trials=5)
    assert len(a) == 2 * 2 * (7 + 3 + 1 + 4)
    assert all(x.name == y.name and x.max_defect == y.max_defect for x, y in zip(a, b))
    assert all(r.passed for r in a)
    assert run_suite([], [0]) == []


@pytest.mark.parametrize("kwargs, match", [
    ({"trials": 0}, "trials"),
    ({"coeff_range": float("nan")}, "coeff_range"),
    ({"suite": "nonsense"}, "suite"),
    ({"trials": 2.5}, "trials"),
    ({"trials": float("inf")}, "trials"),
    ({"n_list": [2, 1]}, "complex dimension n"),
    ({"n_list": [2, 2.5]}, "complex dimension n"),
    ({"seeds": [0, -1]}, "seed"),
    ({"seeds": [0, 1.5]}, "seed"),
    ({"seeds": [0, float("nan")]}, "seed"),
    ({"coeff_range": 1e308}, "coeff_range"),
])
def test_run_suite_validates_before_any_verifier_runs(monkeypatch, kwargs, match):
    def refuse(*args, **kw):
        raise AssertionError("work started before validation")

    for name in ("make_space", "random_adapted_change", "verify_multiplication_table",
                 "verify_eq32", "verify_theorem1", "verify_product_route"):
        monkeypatch.setattr(identities, name, refuse)
    with pytest.raises(ValueError, match=match):
        run_suite(**{"n_list": [2], "seeds": [0], "suite": "table", **kwargs})


@pytest.mark.parametrize("coeff_range", [1e308, 1.7976931348623157e308])
def test_a_coeff_range_whose_width_overflows_is_a_usage_error(monkeypatch, coeff_range):
    # the draws are uniform on [-coeff_range, coeff_range]: numpy refuses a
    # width 2 * coeff_range past the float range with an OverflowError
    monkeypatch.setattr(identities, "pseudosymmetry_sups",
                        lambda *a: pytest.fail("a trial ran before validation"))
    with pytest.raises(UsageError, match="coeff_range"):
        verify_theorem1(make_space(2), coeff_range=coeff_range)
    # the widest range that numpy draws from is accepted
    assert identities._check_draws(3, 0.5 * 1.7976931348623157e308) == 3


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"trials": 0}, {"coeff_range": -1.0}, {"suite": "nonsense"},
    {"n_list": [1]}, {"seeds": [-1]},
])
def test_every_run_suite_validator_raises_a_usage_error(kwargs):
    with pytest.raises(UsageError):
        run_suite(**{"n_list": [2], "seeds": [0], **kwargs})


@pytest.mark.parametrize("trials", [2.5, float("inf"), float("nan"), "2"])
def test_theorem1_rejects_a_trial_count_that_is_not_an_integer(trials):
    with pytest.raises(ValueError, match="trials"):
        verify_theorem1(make_space(2), trials=trials)


@pytest.mark.parametrize("trials", [1, 3, 10])
def test_run_suite_checks_each_curvature_once(trials, monkeypatch):
    # the three shared blocks, one combination per trial and the two
    # semisymmetric product curvatures; every check is of a batch (one
    # curvature, or a batch of theorem1's combinations), and each curvature
    # of a batch is counted
    checked = []
    real = derivation._symmetry_defects
    monkeypatch.setattr(derivation, "_symmetry_defects",
                        lambda space, arr: checked.extend(arr) or real(space, arr))
    assert all(r.passed for r in run_suite([2], [0], trials=trials))
    assert len(checked) == trials + 5
    assert len({arr.tobytes() for arr in checked}) == len(checked)


@pytest.mark.parametrize("above", [False, True])
def test_a_guard_of_ten_tol_is_vacuous_in_every_guarded_check(monkeypatch, above):
    # at exactly 10 * tol a guarded row and theorem1 fail as vacuous; one
    # float above it, both give a finite verdict
    tol = 1e-10
    guard = math.nextafter(10.0 * tol, math.inf) if above else 10.0 * tol
    monkeypatch.setattr(identities, "fused_sups", lambda *a, **kw: (0.0, guard))
    monkeypatch.setattr(identities, "pseudosymmetry_sups",
                        lambda space, draws, *a: iter([(0.0, guard)] * len(draws)))
    sp = make_space(2)
    table = {r.name: r for r in verify_multiplication_table(sp, tol)}
    for r in (table["table:pi.phi=2phi.phi"], verify_theorem1(sp, trials=3, tol=tol)):
        assert math.isfinite(r.max_defect) == above
        assert r.passed == above
    assert table["table:pi.pi=0"].passed  # an unguarded row has no vacuity


def test_run_suite_reports_honest_failures_under_noise(noisy_phi):
    clean = run_suite([2], [0], trials=2)
    assert all(r.passed for r in clean)
    noisy_phi(1e-5, seed=0)
    with pytest.warns(KahlerSymmetryWarning):
        noisy = run_suite([2], [0], trials=2)
    assert any(not r.passed for r in noisy)


def test_defect_scales_quadratically_with_the_curvature():
    # scaling R by s scales R.R by s^2 and the comparison term by s * (s f),
    # so a wrong-factor defect obeys defect(s R, s f) = s^2 defect(R, f); the
    # guard sup|R.R| scales by s^2 too, so only defect / guard is scale-free
    sp = make_space(2)
    pi = build_pi(sp)
    r = combine(QCHCoefficients(1.0, 1.0, -0.5), sp)
    wrong = 7.0  # anything but a + b/2 = 1.5

    def sups(s):
        return fused_sups([(s * r, s * r)], [(pi, s * r)], (1.0, s * wrong))

    base, base_guard = sups(1.0)
    assert base > 1e-2
    assert sups(2.0) == (4.0 * base, 4.0 * base_guard)  # exact: powers of two
    assert sups(10.0) == pytest.approx((100.0 * base, 100.0 * base_guard), rel=1e-12)


def test_sign_flip_of_the_fourth_block_is_invisible_to_every_check():
    # every relation involving the fourth block is homogeneous in it, so
    # flipping its sign cannot break anything: combine with -c agrees with the
    # flipped tensor, and the checks stay green.  Falsifiability comes from the
    # noise path above, not from a sign flip.
    sp = make_space(2)
    flipped = combine(QCHCoefficients(1.0, -2.0, -0.75), sp)
    direct = (
        build_pi(sp)
        - 2.0 * build_phi(sp)
        + (-0.75) * build_psi(sp)
    )
    assert np.allclose(flipped.tensor.entries, direct.tensor.entries)
    assert fused_sups([(flipped, flipped)], [(build_pi(sp), flipped)], (1.0, 1.0 - 2.0 / 2.0)
                      )[0] < 1e-13
