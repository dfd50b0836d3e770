import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from qch import curvature
from qch import (
    CurvatureTensor,
    QCHCoefficients,
    Tensor,
    build_phi,
    build_pi,
    build_psi,
    check_kahler_symmetries,
    combine,
    curvature_operators,
    fit_coefficients,
    fused_sups,
    hol_sect,
    make_space,
    max_abs,
    product_curvature,
    project_D,
    pullback,
    random_adapted_change,
    structure_tensors,
    verify_eq32,
    verify_multiplication_table,
    verify_theorem1,
)

from helpers import (
    canonical_matrices,
    einsum_j_invariance,
    loop_phi,
    loop_pi,
    loop_psi,
    random_unit_vector,
)


# -- the three blocks against the loop oracle --------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_blocks_match_loop_oracle(n):
    sp = make_space(n)
    g, J, p, h, omega, big_omega = canonical_matrices(n)
    assert np.allclose(build_pi(sp).tensor.entries, loop_pi(g, big_omega), atol=1e-14)
    assert np.allclose(
        build_phi(sp).tensor.entries, loop_phi(g, big_omega, h, omega), atol=1e-14
    )
    assert np.allclose(build_psi(sp).tensor.entries, loop_psi(omega), atol=1e-14)


def test_pinned_first_block_entries():
    pi = build_pi(make_space(2)).tensor.entries
    assert pi[0, 2, 0, 2] == -0.25
    assert pi[0, 1, 1, 0] == 1.0
    assert pi[0, 1, 3, 2] == 0.5


def test_combine_is_the_linear_span():
    sp = make_space(2)
    co = QCHCoefficients(1.5, -2.0, 0.75)
    direct = (
        1.5 * build_pi(sp).tensor
        - 2.0 * build_phi(sp).tensor
        + 0.75 * build_psi(sp).tensor
    )
    assert np.allclose(combine(co, sp).tensor.entries, direct.entries)


def test_coefficients_must_be_finite():
    with pytest.raises(ValueError):
        QCHCoefficients(1.0, np.inf, 0.0)
    with pytest.raises(ValueError):
        QCHCoefficients(np.nan, 0.0, 0.0)
    # finite coefficients whose sum leaves the float range are Tensor's
    # ValueError, not numpy's overflow warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="tensor entries must be finite"):
            combine(QCHCoefficients(1e308, 1e308, 0.0), make_space(2))


def test_curvature_tensor_validates_valence_only():
    sp = make_space(2)
    with pytest.raises(ValueError):
        CurvatureTensor(Tensor.zeros(4, (0, 3)), sp)
    with pytest.raises(ValueError):
        CurvatureTensor(Tensor.zeros(6, (0, 4)), sp)
    # no symmetry is enforced at construction: asymmetric entries are allowed
    CurvatureTensor(Tensor(4, (0, 4), np.arange(256.0).reshape(4, 4, 4, 4)), sp)


def test_curvature_arithmetic():
    sp = make_space(2)
    pi, phi = build_pi(sp), build_phi(sp)
    s = pi + phi
    assert isinstance(s, CurvatureTensor)
    assert np.allclose(s.tensor.entries, pi.tensor.entries + phi.tensor.entries)
    d = pi - 2.0 * phi
    assert np.allclose(d.tensor.entries, pi.tensor.entries - 2.0 * phi.tensor.entries)
    assert np.allclose((-pi).tensor.entries, -pi.tensor.entries)


# -- one bilinear form, blocks built once per stage -----------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_every_model_curvature_is_exactly_antisymmetric_in_its_first_pair(n):
    sp = random_adapted_change(make_space(n), 4)
    a, b, c = np.random.default_rng(n).uniform(-5.0, 5.0, size=3)
    candidates = [build_pi(sp), build_phi(sp), build_psi(sp),
                  combine(QCHCoefficients(a, b, c), sp), product_curvature(0.7, -1.3, sp)]
    for r in candidates:
        for x in (r.tensor.entries, curvature_operators(r)):
            assert np.array_equal(x, -x.swapaxes(0, 1))


def test_one_stage_builds_its_blocks_once(monkeypatch):
    builds, forms = [], []
    real_build, real_form = curvature._build_blocks, curvature._pair_form
    monkeypatch.setattr(curvature, "_build_blocks",
                        lambda space: builds.append(space) or real_build(space))
    monkeypatch.setattr(curvature, "_pair_form",
                        lambda u, v: forms.append(u) or real_form(u, v))
    sp = random_adapted_change(make_space(2), 6)
    r = combine(QCHCoefficients(0.5, -1.0, 2.0), sp)
    verify_multiplication_table(sp)
    verify_eq32(sp)
    verify_theorem1(sp, trials=2)
    fit_coefficients(r)
    fused_sups([(r, r)], [(build_pi(sp), r)], (1.0, 0.0))
    assert builds == [sp]
    assert len(forms) == 4  # Pi, Psi, and the two halves of Phi
    assert tuple(b(sp).tensor for b in (build_pi, build_phi, build_psi)) == sp.blocks


def test_a_used_stage_dies_with_its_blocks():
    # no reference cycle either: the stage is freed without the cycle collector
    gc.collect()
    gc.disable()
    try:
        sp = random_adapted_change(make_space(2), 8)
        verify_theorem1(sp, trials=2)
        fit_coefficients(product_curvature(1.0, 0.5, sp))
        stage, block = weakref.ref(sp), weakref.ref(sp.blocks[0])
        del sp
        assert stage() is None and block() is None
    finally:
        gc.enable()


# -- symmetry reports ---------------------------------------------------------


def test_the_symmetry_check_holds_at_most_two_temporaries_above_its_input():
    # each defect takes its absolute value in place and the J pull-back
    # subtracts in place, so the peak is the two matmuls of the pull-back
    sp = random_adapted_change(make_space(8), 3)
    arr = combine(QCHCoefficients(0.7, -1.3, 2.1), sp).tensor.entries[None]
    assert not arr.flags.writeable
    expected = curvature._symmetry_defects(sp, arr)
    tracemalloc.start()
    try:
        defects = curvature._symmetry_defects(sp, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(a, b) for a, b in zip(defects, expected))
    assert peak <= 2 * arr.nbytes + 2**16, peak / arr.nbytes


@pytest.mark.parametrize("n", [2, 3])
def test_blocks_have_all_four_symmetries(n):
    sp = make_space(n)
    for block in (build_pi(sp), build_phi(sp), build_psi(sp)):
        rep = check_kahler_symmetries(block)
        assert rep.passed, rep.defects()
        assert all(v <= rep.tolerance for v in rep.defects().values())


def test_symmetry_report_catches_perturbation():
    sp = make_space(2)
    eps = 1e-6
    arr = np.array(build_pi(sp).tensor.entries)
    arr[0, 1, 0, 1] += eps
    broken = CurvatureTensor(Tensor(4, (0, 4), arr), sp)
    rep = check_kahler_symmetries(broken)
    assert not rep.passed
    assert rep.defects()["pair_antisymmetry"] == pytest.approx(eps, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_j_invariance_matches_the_einsum_oracle(n):
    sp = random_adapted_change(make_space(n), 3)
    g = sp.g.entries
    rng = np.random.default_rng(n)
    noise = rng.standard_normal((sp.dim,) * 4)
    # real space form: every symmetry but J-invariance
    real_form = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
    candidates = [
        build_pi(sp), build_phi(sp), build_psi(sp),
        combine(QCHCoefficients(*rng.uniform(-5.0, 5.0, size=3)), sp),
        CurvatureTensor(Tensor(sp.dim, (0, 4), real_form), sp),
        CurvatureTensor(Tensor(sp.dim, (0, 4), noise - noise.swapaxes(0, 1)), sp),
    ]
    verdicts = []
    for r in candidates:
        oracle = einsum_j_invariance(r.tensor.entries, sp.J.entries)
        for tol in (1e-12, 1e-8):
            rep = check_kahler_symmetries(r, tol=tol)
            assert rep.j_invariance == pytest.approx(
                oracle, rel=1e-13, abs=1e-13 * max_abs(r.tensor))
            others = (rep.pair_antisymmetry, rep.pair_symmetry, rep.first_bianchi)
            assert rep.passed == all(v <= rep.tolerance for v in others + (oracle,))
            verdicts.append(rep.passed)
    assert verdicts == [True] * 8 + [False] * 4


def test_symmetry_tolerance_scales_with_magnitude():
    sp = make_space(2)
    big = 1e8 * build_pi(sp)
    rep = check_kahler_symmetries(big)
    assert rep.passed  # roundoff grows with the entries, and so does the bar


# -- holomorphic diagonal -----------------------------------------------------


def test_diagonal_is_quartic_in_plane_length():
    sp = make_space(3)
    co = QCHCoefficients(0.7, -1.1, 0.4)
    r = combine(co, sp)
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = random_unit_vector(rng, 6)
        _, t = project_D(sp, x)
        expected = co.a + co.b * t**2 + co.c * t**4
        assert hol_sect(r, x) == pytest.approx(expected, abs=1e-12)


def test_diagonal_at_the_extremes():
    sp = make_space(2)
    co = QCHCoefficients(2.0, -3.0, 1.0)  # a + b + c = 0
    r = combine(co, sp)
    in_plane = np.array([0.6, 0.8, 0.0, 0.0])
    off_plane = np.array([0.0, 0.0, 1.0, 0.0])
    assert hol_sect(r, in_plane) == pytest.approx(0.0, abs=1e-12)
    assert hol_sect(r, off_plane) == pytest.approx(2.0, abs=1e-12)


def test_diagonal_rejects_non_unit_vectors():
    sp = make_space(2)
    r = build_pi(sp)
    with pytest.raises(ValueError):
        hol_sect(r, np.zeros(4))
    with pytest.raises(ValueError):
        hol_sect(r, np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="does not match dim 4"):
        hol_sect(r, np.array([1.0, 0.0, 0.0]))
    # a NaN length fails every comparison, so the unit check must fail on it
    for bad in (np.nan, np.inf, 1e200):
        with pytest.raises(ValueError, match="unit vector"):
            hol_sect(r, np.array([bad, 0.0, 0.0, 0.0]))


# -- coefficient recovery -----------------------------------------------------


def test_fit_recovers_exact_coefficients():
    sp = make_space(3)
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b, c = rng.uniform(-5.0, 5.0, size=3)
        co, residual = fit_coefficients(combine(QCHCoefficients(a, b, c), sp))
        assert co.a == pytest.approx(a, abs=1e-12)
        assert co.b == pytest.approx(b, abs=1e-12)
        assert co.c == pytest.approx(c, abs=1e-12)
        assert residual <= 1e-12


def test_fit_flags_out_of_span_input():
    # constant-type curvature concentrated on a J-plane orthogonal to the
    # distinguished one: it has every symmetry, but no combination matches it
    sp = make_space(3)
    d = 6
    p1 = np.zeros((d, d))
    p1[2, 2] = p1[3, 3] = 1.0
    h1 = p1.T @ sp.g.entries @ p1
    w1 = sp.J.entries.T @ h1
    alien = CurvatureTensor(Tensor(d, (0, 4), 0.01 * loop_pi(h1, w1)), sp)
    rep = check_kahler_symmetries(alien)
    assert rep.passed  # symmetric, so the failure below is purely span content
    _, residual = fit_coefficients(alien)
    assert residual > 1e-3


# -- the product construction -------------------------------------------------


def test_product_equals_combination():
    for n in (2, 3):
        sp = make_space(n)
        for k, l in [(1.0, -1.0), (0.5, 2.0), (-1.5, 0.25)]:
            prod = product_curvature(k, l, sp)
            expected = combine(QCHCoefficients(k, -2.0 * k, l + k), sp)
            assert np.allclose(
                prod.tensor.entries, expected.tensor.entries, atol=1e-13
            )


def test_product_rejects_non_finite_factors():
    sp = make_space(2)
    with pytest.raises(ValueError):
        product_curvature(np.inf, 1.0, sp)
    with pytest.raises(ValueError):
        product_curvature(1.0, np.nan, sp)


def test_product_diagonal_profile():
    sp = make_space(2)
    k, l = 1.5, -0.5
    r = product_curvature(k, l, sp)
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = random_unit_vector(rng, 4)
        _, t = project_D(sp, x)
        expected = k - 2.0 * k * t**2 + (l + k) * t**4
        assert hol_sect(r, x) == pytest.approx(expected, abs=1e-12)


# -- frame covariance ---------------------------------------------------------


def test_blocks_transform_by_pullback():
    sp = make_space(2)
    moved = random_adapted_change(sp, 77)
    q = np.linalg.solve(sp.basis_map, moved.basis_map)
    for build in (build_pi, build_phi, build_psi):
        direct = build(moved).tensor.entries
        via_pullback = pullback(build(sp).tensor, q).entries
        assert np.allclose(direct, via_pullback, atol=1e-13)


def test_structure_tensor_of_moved_frame_still_rotates_the_plane():
    sp = random_adapted_change(make_space(3), 55)
    h, omega, big_omega = structure_tensors(sp)
    # omega still annihilates anything g-orthogonal to the plane
    gm, pm = sp.g.entries, sp.p_D.entries
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(6)
        perp = x - pm @ x
        y = rng.standard_normal(6)
        assert abs(omega(perp, y)) < 1e-12
        assert abs(h(perp, y)) < 1e-12
