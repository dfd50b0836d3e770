import numpy as np
import pytest

from qch import derivation, identities
from qch import (
    KahlerSymmetryWarning,
    QCHCoefficients,
    build_phi,
    build_pi,
    build_psi,
    combine,
    curv_dot,
    make_space,
    max_abs,
    pseudosymmetry_defect,
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


def test_table_detects_seeded_corruption():
    # corrupting the middle block must break at least the products involving it
    with pytest.warns(KahlerSymmetryWarning):
        results = verify_multiplication_table(make_space(2), phi_noise=1e-6, seed=4)
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
])
def test_run_suite_validates_before_any_verifier_runs(monkeypatch, kwargs, match):
    def refuse(*args, **kw):
        raise AssertionError("work started before validation")

    for name in ("make_space", "verify_multiplication_table", "verify_eq32",
                 "verify_theorem1", "verify_product_route"):
        monkeypatch.setattr(identities, name, refuse)
    with pytest.raises(ValueError, match=match):
        run_suite([2], [0], **{"suite": "table", **kwargs})


@pytest.mark.parametrize("trials", [2.5, float("inf"), float("nan"), "2"])
def test_theorem1_rejects_a_trial_count_that_is_not_an_integer(trials):
    with pytest.raises(ValueError, match="trials"):
        verify_theorem1(make_space(2), trials=trials)


@pytest.mark.parametrize("trials", [1, 3, 10])
def test_run_suite_checks_each_curvature_once(trials, monkeypatch):
    # the three shared blocks, one combination per trial and the two
    # semisymmetric product curvatures
    checked = []
    real = derivation.check_kahler_symmetries
    monkeypatch.setattr(derivation, "check_kahler_symmetries",
                        lambda r, tol: checked.append(r) or real(r, tol))
    assert all(r.passed for r in run_suite([2], [0], trials=trials))
    assert len(checked) == trials + 5
    assert len({r.tensor for r in checked}) == len(checked)


def test_run_suite_reports_honest_failures_under_noise():
    with pytest.warns(KahlerSymmetryWarning):
        noisy = run_suite([2], [0], trials=2, phi_noise=1e-5)
    assert any(not r.passed for r in noisy)
    clean = run_suite([2], [0], trials=2)
    assert all(r.passed for r in clean)


def test_defect_scales_quadratically_with_the_curvature():
    # scaling R by s scales R.R by s^2 and the comparison term by s * (s f),
    # so a wrong-factor defect obeys defect(s R, s f) = s^2 defect(R, f)
    sp = make_space(2)
    r = combine(QCHCoefficients(1.0, 1.0, -0.5), sp)
    wrong = 7.0  # anything but a + b/2 = 1.5
    base = pseudosymmetry_defect(r, wrong)
    assert base > 1e-2
    assert pseudosymmetry_defect(2.0 * r, 2.0 * wrong) == 4.0 * base  # exact: powers of two
    assert pseudosymmetry_defect(10.0 * r, 10.0 * wrong) == pytest.approx(
        100.0 * base, rel=1e-12
    )


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
    assert pseudosymmetry_defect(flipped, 1.0 - 2.0 / 2.0) < 1e-13
