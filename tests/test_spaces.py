import numpy as np
import pytest

from qch import (
    HermitianSpace,
    Tensor,
    hol_sect,
    combine,
    QCHCoefficients,
    make_space,
    project_D,
    pullback,
    random_adapted_change,
    structure_tensors,
)

from helpers import canonical_matrices, random_unit_vector


def test_canonical_stage_matches_hand_matrices():
    for n in (2, 3, 4):
        sp = make_space(n)
        g, J, p, h, omega, big_omega = canonical_matrices(n)
        assert np.array_equal(sp.g.entries, g)
        assert np.array_equal(sp.J.entries, J)
        assert np.array_equal(sp.p_D.entries, p)
        th, tw, tbo = structure_tensors(sp)
        assert np.allclose(th.entries, h)
        assert np.allclose(tw.entries, omega)
        assert np.allclose(tbo.entries, big_omega)


def test_make_space_rejects_bad_dimension():
    for bad in (1, 0, -3, 2.5, float("inf"), float("-inf"), float("nan"), "3"):
        with pytest.raises(ValueError, match="complex dimension n"):
            make_space(bad)


def test_plane_form_evaluates_positively_on_oriented_pair():
    # direct evaluation: omega(e0, e1) = h(J e0, e1) = h(e1, e1) = 1
    sp = make_space(2)
    _, omega, big_omega = structure_tensors(sp)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    assert omega(e0, e1) == 1.0
    assert big_omega(e0, e1) == 1.0
    # antisymmetry and vanishing off the plane
    assert omega(e1, e0) == -1.0
    e2 = np.array([0.0, 0.0, 1.0, 0.0])
    assert omega(e0, e2) == 0.0
    assert omega(e2, e0) == 0.0


def test_invariant_validation_rejects_broken_frames():
    sp = make_space(2)
    good = dict(n=2, basis_map=np.eye(4), g=sp.g, J=sp.J, p_D=sp.p_D)
    bad_g = np.eye(4)
    bad_g[0, 1] = 0.5  # not symmetric
    with pytest.raises(ValueError):
        HermitianSpace(**{**good, "g": Tensor(4, (0, 2), bad_g)})
    with pytest.raises(ValueError):
        HermitianSpace(**{**good, "g": Tensor(4, (0, 2), -np.eye(4))})
    with pytest.raises(ValueError):
        HermitianSpace(**{**good, "J": Tensor(4, (1, 1), np.eye(4))})
    bad_p = np.zeros((4, 4))
    bad_p[0, 0] = 1.0  # rank 1, only half the plane
    with pytest.raises(ValueError):
        HermitianSpace(**{**good, "p_D": Tensor(4, (1, 1), bad_p)})
    with pytest.raises(ValueError):
        HermitianSpace(**{**good, "n": 1})
    with pytest.raises(ValueError):
        HermitianSpace(**{**good, "basis_map": np.zeros((4, 4))})
    with pytest.raises(ValueError, match="basis_map must be a d x d matrix"):
        HermitianSpace(**{**good, "basis_map": np.eye(3)})
    # J in the place of g: a (1,1) tensor, caught before its asymmetry
    with pytest.raises(ValueError, match=r"g must be a \(0,2\) tensor on R\^d"):
        HermitianSpace(**{**good, "g": sp.J})


def test_project_D_splits_vectors():
    sp = make_space(2)
    x = np.array([3.0, 4.0, 1.0, -2.0])
    xd, t = project_D(sp, x)
    assert np.allclose(xd, [3.0, 4.0, 0.0, 0.0])
    assert t == pytest.approx(5.0)
    # unit vector half in the plane
    u = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    _, tu = project_D(sp, u)
    assert tu == pytest.approx(1.0 / np.sqrt(2.0))
    with pytest.raises(ValueError):
        project_D(sp, np.zeros(3))


def test_random_adapted_change_is_deterministic():
    sp = make_space(3)
    a = random_adapted_change(sp, 12)
    b = random_adapted_change(sp, 12)
    assert np.array_equal(a.basis_map, b.basis_map)
    assert np.array_equal(a.g.entries, b.g.entries)
    c = random_adapted_change(sp, 13)
    assert not np.array_equal(a.basis_map, c.basis_map)


def test_random_adapted_change_preserves_all_invariants():
    # construction would raise if any invariant failed; check a few directly too
    for n in (2, 3, 4):
        sp = random_adapted_change(make_space(n), 99)
        d = 2 * n
        gm, jm, pm = sp.g.entries, sp.J.entries, sp.p_D.entries
        assert np.allclose(gm, np.eye(d), atol=1e-12)  # rotations keep g flat
        assert np.allclose(jm @ jm, -np.eye(d), atol=1e-12)
        assert np.allclose(pm @ pm, pm, atol=1e-12)
        assert np.trace(pm) == pytest.approx(2.0)
        assert np.allclose(jm @ pm, pm @ jm, atol=1e-12)


def test_adapted_change_composes_with_pullback():
    sp = make_space(2)
    moved = random_adapted_change(sp, 5)
    q = np.linalg.solve(sp.basis_map, moved.basis_map)
    assert np.allclose(moved.g.entries, pullback(sp.g, q).entries)
    assert np.allclose(moved.J.entries, pullback(sp.J, q).entries)
    assert np.allclose(moved.p_D.entries, pullback(sp.p_D, q).entries)


def test_holomorphic_diagonal_is_frame_independent():
    # the same geometric vector, expressed in two frames, sees the same value
    rng = np.random.default_rng(21)
    sp = make_space(3)
    moved = random_adapted_change(sp, 314)
    q = moved.basis_map  # canonical -> working components: x_work = q^{-1} x
    qinv = np.linalg.inv(q)
    r_can = combine(QCHCoefficients(1.3, -0.4, 0.25), sp)
    r_mov = combine(QCHCoefficients(1.3, -0.4, 0.25), moved)
    for _ in range(10):
        x = random_unit_vector(rng, 6)
        assert hol_sect(r_can, x) == pytest.approx(
            hol_sect(r_mov, qinv @ x), abs=1e-10
        )


def test_structure_tensors_on_adapted_frame_keep_their_meaning():
    sp = random_adapted_change(make_space(2), 8)
    h, omega, big_omega = structure_tensors(sp)
    gm, jm, pm = sp.g.entries, sp.J.entries, sp.p_D.entries
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.standard_normal((2, 4))
        assert h(x, y) == pytest.approx(float((pm @ x) @ gm @ (pm @ y)), abs=1e-12)
        assert omega(x, y) == pytest.approx(h(jm @ x, y), abs=1e-12)
        assert big_omega(x, y) == pytest.approx(float((jm @ x) @ gm @ y), abs=1e-12)
