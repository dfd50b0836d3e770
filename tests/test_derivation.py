import numpy as np
import pytest

from qch import derivation
from qch import (
    KahlerSymmetryWarning,
    QCHCoefficients,
    CurvatureTensor,
    Tensor,
    build_phi,
    build_pi,
    build_psi,
    combine,
    curv_dot,
    curvature_operators,
    endo_derive,
    make_space,
    fused_sups,
    max_abs,
    pseudosymmetry_sups,
    random_adapted_change,
    structure_tensors,
)

from helpers import loop_curvature_operator, tensor_product_2_2


# -- the endomorphism action --------------------------------------------------


def test_derive_two_form_matches_matrix_formula():
    # (A . s)(X, Y) = -s(AX, Y) - s(X, AY)
    rng = np.random.default_rng(2)
    am = rng.standard_normal((4, 4))
    sm = rng.standard_normal((4, 4))
    a = Tensor(4, (1, 1), am)
    s = Tensor(4, (0, 2), sm)
    out = endo_derive(a, s)
    assert np.allclose(out.entries, -(am.T @ sm + sm @ am))


def test_derive_endomorphism_is_the_commutator():
    rng = np.random.default_rng(3)
    am, tm = rng.standard_normal((2, 4, 4))
    out = endo_derive(Tensor(4, (1, 1), am), Tensor(4, (1, 1), tm))
    assert np.allclose(out.entries, am @ tm - tm @ am)


def test_derivations_vanish_on_scalars():
    d = 4
    out = endo_derive(Tensor(d, (1, 1), np.random.default_rng(5).standard_normal((d, d))),
                      Tensor(d, (0, 0), 3.0))
    assert out.valence == (0, 0) and out.entries.shape == () and out.entries == 0.0
    r = combine(QCHCoefficients(0.3, 1.2, -0.7), make_space(2))
    acted = curv_dot(r, Tensor(d, (0, 0), 3.0))
    assert acted.valence == (0, 2) and acted.entries.shape == (d, d)
    assert not acted.entries.any()


def test_skew_endomorphisms_kill_the_metric():
    sp = make_space(3)
    out = endo_derive(sp.J, sp.g)
    assert max_abs(out) == 0.0
    # and J centralizes itself
    assert max_abs(endo_derive(sp.J, sp.J)) == 0.0


def test_derive_satisfies_leibniz_over_tensor_products():
    rng = np.random.default_rng(4)
    am, sm, tm = rng.standard_normal((3, 4, 4))
    a = Tensor(4, (1, 1), am)
    prod = Tensor(4, (0, 4), tensor_product_2_2(sm, tm))
    lhs = endo_derive(a, prod).entries
    ds = endo_derive(a, Tensor(4, (0, 2), sm)).entries
    dt = endo_derive(a, Tensor(4, (0, 2), tm)).entries
    rhs = tensor_product_2_2(ds, tm) + tensor_product_2_2(sm, dt)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_derive_rejects_mismatched_input():
    with pytest.raises(ValueError):
        endo_derive(Tensor.zeros(4, (0, 2)), Tensor.zeros(4, (0, 2)))
    with pytest.raises(ValueError):
        endo_derive(Tensor.zeros(3, (1, 1)), Tensor.zeros(4, (0, 2)))
    with pytest.raises(ValueError, match="does not match curvature dim"):
        curv_dot(build_pi(make_space(2)), Tensor.zeros(6, (0, 2)))


# -- curvature operators ------------------------------------------------------


def test_operators_match_loop_oracle():
    sp = make_space(2)
    pi = build_pi(sp)
    ops = curvature_operators(pi)
    ginv = np.linalg.inv(sp.g.entries)
    arr = pi.tensor.entries
    for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        assert np.allclose(ops[u, v], loop_curvature_operator(arr, ginv, u, v))


def test_operators_are_skew_in_their_arguments():
    sp = random_adapted_change(make_space(3), 3)
    ops = curvature_operators(combine(QCHCoefficients(1.0, 2.0, -1.0), sp))
    assert np.allclose(ops, -ops.transpose(1, 0, 2, 3), atol=1e-13)


# -- the displayed expansion of the first block acting on the plane form ------


def _expansion_terms(g, w, jm, include_h=None):
    """The eight metric bilinear terms, plus optionally the plane-metric group."""
    gj = jm.T @ g   # (V, X) -> g(JV, X)
    jw = jm.T @ w   # (U, Y) -> w(JU, Y)
    wj = w @ jm     # (X, U) -> w(X, JU)
    total = (
        np.einsum("uy,vx->uvxy", w, g)
        + np.einsum("vy,xu->uvxy", g, w)
        - np.einsum("ux,vy->uvxy", g, w)
        - np.einsum("uy,xv->uvxy", g, w)
        + np.einsum("vx,uy->uvxy", gj, jw)
        + np.einsum("vy,xu->uvxy", gj, wj)
        - np.einsum("ux,vy->uvxy", gj, jw)
        - np.einsum("uy,xv->uvxy", gj, wj)
    )
    if include_h is not None:
        h = include_h
        total += (
            np.einsum("vx,uy->uvxy", h, w)
            + np.einsum("vy,xu->uvxy", h, w)
            - np.einsum("ux,vy->uvxy", h, w)
            - np.einsum("uy,xv->uvxy", h, w)
            + np.einsum("vx,uy->uvxy", w, jw)
            + np.einsum("vy,xu->uvxy", w, wj)
            - np.einsum("ux,vy->uvxy", w, jw)
            - np.einsum("uy,xv->uvxy", w, wj)
        )
    return total


@pytest.mark.parametrize("n", [2, 3])
def test_first_block_action_on_plane_form_expands_as_displayed(n):
    sp = make_space(n)
    h, omega, _ = structure_tensors(sp)
    g, w, jm = sp.g.entries, omega.entries, sp.J.entries
    acted = curv_dot(build_pi(sp), omega)  # slots (X, Y, U, V)
    rhs = -0.25 * _expansion_terms(g, w, jm)  # slots (U, V, X, Y)
    assert np.allclose(acted.entries, rhs.transpose(2, 3, 0, 1), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_second_block_action_on_plane_form_expands_as_displayed(n):
    sp = make_space(n)
    h, omega, _ = structure_tensors(sp)
    g, w, jm = sp.g.entries, omega.entries, sp.J.entries
    acted = curv_dot(build_phi(sp), omega)
    full = -0.125 * _expansion_terms(g, w, jm, include_h=h.entries)
    assert np.allclose(acted.entries, full.transpose(2, 3, 0, 1), atol=1e-12)
    # the plane-metric group cancels against the quadratic group, leaving
    # exactly half the first block's action
    reduced = -0.125 * _expansion_terms(g, w, jm)
    assert np.allclose(full, reduced, atol=1e-13)
    acted_pi = curv_dot(build_pi(sp), omega)
    assert np.allclose(2.0 * acted.entries, acted_pi.entries, atol=1e-12)


def test_dropped_groups_vanish_identically():
    # the raw expansions also contain g(JU,V)-proportional groups; both brackets
    # are identically zero, which is why they never appear in the reduced form
    sp = make_space(3)
    h, omega, _ = structure_tensors(sp)
    w, jm, pm = omega.entries, sp.J.entries, sp.p_D.entries
    assert np.allclose(jm.T @ w + w @ jm, 0.0)            # w(JX, Y) + w(X, JY)
    pj = pm @ jm
    assert np.allclose(pj.T @ w + w @ pj, 0.0)            # same, through the plane


# -- annihilation and structure -----------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_both_curvature_blocks_annihilate_the_stage_tensors(n):
    sp = make_space(n)
    _, _, big_omega = structure_tensors(sp)
    for build in (build_pi, build_phi):
        r = build(sp)
        for target in (sp.g, sp.J, big_omega):
            assert max_abs(curv_dot(r, target)) < 1e-13


def test_action_splits_over_the_fourth_block():
    # R . (-w (x) w) = -(R.w) (x) w - w (x) (R.w), slot by slot
    sp = make_space(2)
    _, omega, _ = structure_tensors(sp)
    w = omega.entries
    pi = build_pi(sp)
    acted_psi = curv_dot(pi, build_psi(sp).tensor).entries  # (i,j,k,l,u,v)
    acted_w = curv_dot(pi, omega).entries  # (i,j,u,v)
    rhs = -(
        np.einsum("ijuv,kl->ijkluv", acted_w, w)
        + np.einsum("ij,kluv->ijkluv", w, acted_w)
    )
    assert np.allclose(acted_psi, rhs, atol=1e-13)


def test_action_output_is_skew_in_the_operator_pair():
    sp = random_adapted_change(make_space(2), 9)
    r = combine(QCHCoefficients(0.3, 1.2, -0.7), sp)
    out = curv_dot(r, build_phi(sp).tensor).entries
    assert np.allclose(out, -out.transpose(0, 1, 2, 3, 5, 4), atol=1e-13)


def test_action_warns_on_asymmetric_curvature_but_proceeds():
    sp = make_space(2)
    arr = np.array(build_pi(sp).tensor.entries)
    arr[0, 0, 0, 0] += 1.0  # clearly breaks the exchange rules
    lopsided = CurvatureTensor(Tensor(4, (0, 4), arr), sp)
    with pytest.warns(KahlerSymmetryWarning) as record:
        out = curv_dot(lopsided, sp.g)
    assert record[0].filename == __file__
    assert out.entries.shape == (4,) * 4


# -- the pseudosymmetry defect -------------------------------------------------


def test_defect_vanishes_at_the_predicted_factor():
    sp = random_adapted_change(make_space(3), 41)
    a, b, c = 1.2, -0.8, 0.5
    r = combine(QCHCoefficients(a, b, c), sp)
    assert fused_sups([(r, r)], [(build_pi(sp), r)], (1.0, a + b / 2.0))[0] < 1e-12


def test_defect_is_large_at_the_wrong_factor():
    sp = make_space(2)
    r = combine(QCHCoefficients(0.0, 1.0, 0.0), sp)
    # a + b = 1 is the natural wrong guess; the true factor is a + b/2 = 1/2
    pi = build_pi(sp)
    assert fused_sups([(r, r)], [(pi, r)], (1.0, 1.0))[0] > 1e-3
    assert fused_sups([(r, r)], [(pi, r)], (1.0, 0.5))[0] < 1e-13


@pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
def test_a_non_finite_factor_is_rejected_before_any_product(factor, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(derivation, "_sups", refuse)
    sp = make_space(2)
    r, pi = combine(QCHCoefficients(0.0, 1.0, 0.0), sp), build_pi(sp)
    # a non-finite value, and anything but two real numbers: one value, three
    # values (the third would be dropped), a string
    for coeffs in ((factor, 1.0), (1.0, factor), (1.0,), (1.0, 2.0, 3.0), ("1", 2.0)):
        with pytest.raises(ValueError, match=r"coefficients must be two finite reals \(c, e\)"):
            fused_sups([(r, r)], [(pi, r)], coeffs)
    draws = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
    with pytest.raises(ValueError, match="factors must be finite"):
        next(pseudosymmetry_sups(sp, draws, np.array([0.5, 1.0, factor]), "theorem1"))
    # a shape mismatch is refused first: too few factors, one factor (not
    # broadcast over the draws), a column of factors, draws that are not (T, 3)
    for rows, factors in ((draws, np.full(2, factor)), (draws, np.float64(factor)),
                          (draws, np.full((3, 1), factor)), (draws[:, :2], np.full(3, factor)),
                          (draws[0], np.full(1, factor))):
        with pytest.raises(ValueError, match=r"needs \(T, 3\) draws and T factors"):
            next(pseudosymmetry_sups(sp, rows, factors, "theorem1"))
    # draws are taken as an array: a ragged list is refused, and a list gives
    # the array's sups
    with pytest.raises(ValueError):
        next(pseudosymmetry_sups(sp, [[1.0, 0.0, 0.0], [1.0]], np.ones(2), "theorem1"))
    monkeypatch.undo()
    ones = np.ones(3)
    assert (list(pseudosymmetry_sups(sp, draws.tolist(), ones, "theorem1"))
            == list(pseudosymmetry_sups(sp, draws, ones, "theorem1")))
