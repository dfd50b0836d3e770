import numpy as np
import pytest

from qch import (
    Tensor,
    build_pi,
    build_psi,
    frobenius_inner,
    from_text,
    make_space,
    max_abs,
    parse_records,
    pullback,
    random_adapted_change,
    structure_tensors,
    to_text,
)

from helpers import canonical_matrices, loop_pi, loop_psi


def test_construction_and_shape_checks():
    t = Tensor(3, (0, 2), np.eye(3))
    assert t.dim == 3 and t.valence == (0, 2)
    with pytest.raises(ValueError):
        Tensor(3, (2, 1), np.zeros((3, 3, 3)))  # r must be 0 or 1
    with pytest.raises(ValueError):
        Tensor(3, (0, 2), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Tensor(0, (0, 1), np.zeros(0))
    with pytest.raises(ValueError):
        Tensor(2, (0, 2), np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_entries_are_immutable():
    t = Tensor(2, (0, 2), np.eye(2))
    with pytest.raises(ValueError):
        t.entries[0, 0] = 5.0
    with pytest.raises(AttributeError):
        t.dim = 4
    # the constructor copies its input: later mutation of the source is invisible
    src = np.eye(2)
    u = Tensor(2, (0, 2), src)
    src[0, 0] = 7.0
    assert u.entries[0, 0] == 1.0


def test_evaluate_contracts_in_order():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 3, 3))
    t = Tensor(3, (0, 3), arr)
    x, y, z = rng.standard_normal((3, 3))
    expected = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected += arr[i, j, k] * x[i] * y[j] * z[k]
    assert abs(t(x, y, z) - expected) < 1e-12
    assert isinstance(t(x, y, z), float)

    endo = Tensor(3, (1, 1), arr[0])
    out = endo(x)
    assert out.shape == (3,)
    assert np.allclose(out, arr[0] @ x)

    with pytest.raises(ValueError):
        t(x, y)
    with pytest.raises(ValueError):
        endo(np.zeros(4))


def test_arithmetic_is_entrywise():
    rng = np.random.default_rng(1)
    a = Tensor(2, (0, 2), rng.standard_normal((2, 2)))
    b = Tensor(2, (0, 2), rng.standard_normal((2, 2)))
    assert np.allclose((a + b).entries, a.entries + b.entries)
    assert np.allclose((a - b).entries, a.entries - b.entries)
    assert np.allclose((-a).entries, -a.entries)
    assert np.allclose((2.5 * a).entries, 2.5 * a.entries)
    assert np.allclose((a * 2.5).entries, 2.5 * a.entries)
    with pytest.raises(ValueError):
        a + Tensor(3, (0, 2), np.eye(3))
    with pytest.raises(ValueError):
        a + Tensor(2, (0, 1), np.zeros(2))


def test_zeros_factory():
    z = Tensor.zeros(4, (1, 2))
    assert z.entries.shape == (4, 4, 4)
    assert max_abs(z) == 0.0


def test_frobenius_inner_against_loop_oracle():
    # hand-built blocks on the four-dimensional stage
    g, J, p, h, omega, big_omega = canonical_matrices(2)
    pi_arr = loop_pi(g, big_omega)
    psi_arr = loop_psi(omega)
    expected = 0.0
    for idx in np.ndindex(*pi_arr.shape):
        expected += pi_arr[idx] * psi_arr[idx]
    assert expected == 4.0  # pinned by the loop oracle

    sp = make_space(2)
    got = frobenius_inner(build_pi(sp).tensor, build_psi(sp).tensor)
    assert got == pytest.approx(4.0, abs=1e-13)

    with pytest.raises(ValueError):
        frobenius_inner(Tensor.zeros(2, (0, 2)), Tensor.zeros(3, (0, 2)))


def test_max_abs_of_first_block_is_one():
    # the largest component of the first block sits on the plane itself
    sp = make_space(2)
    pi = build_pi(sp).tensor
    assert max_abs(pi) == 1.0
    assert abs(pi.entries[0, 1, 1, 0]) == 1.0
    distinct = sorted(set(np.round(np.abs(pi.entries), 12).ravel()))
    assert distinct == [0.0, 0.25, 0.5, 1.0]


def _general_stage():
    """g, J, p_D, omega, Omega and Psi in a random basis that is not orthonormal."""
    sp = make_space(2)
    _, omega, big_omega = structure_tensors(sp)
    basis = np.random.default_rng(3).standard_normal((4, 4)) + 4.0 * np.eye(4)
    tensors = (sp.g, sp.J, sp.p_D, omega, big_omega, build_psi(sp).tensor)
    return [pullback(t, basis).entries for t in tensors]


def _raise_first(g, t):
    """The endomorphism-valued form S with t(X, .., Y) = g(S(X, ..), Y)."""
    return np.einsum("al,...l->a...", np.linalg.inv(g), t)


def test_raise_first_identities():
    g, J, p_D, omega, big_omega, _ = _general_stage()
    assert not np.allclose(g, np.eye(4))
    # g itself raises to the identity, Omega to J and the plane form to J p_D
    assert np.allclose(_raise_first(g, g), np.eye(4))
    assert np.allclose(_raise_first(g, big_omega), J)
    assert np.allclose(_raise_first(g, omega), J @ p_D)


def test_raise_first_of_fourth_block_factors():
    g, J, p_D, omega, _, psi = _general_stage()
    # s[:, i, j, :] == -omega_ij J p_D for every i, j
    assert np.allclose(_raise_first(g, psi), -np.einsum("ij,ak->aijk", omega, J @ p_D))


def test_pullback_matches_matrix_formulas():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    two_form = Tensor(4, (0, 2), rng.standard_normal((4, 4)))
    assert np.allclose(pullback(two_form, b).entries, b.T @ two_form.entries @ b)
    endo = Tensor(4, (1, 1), rng.standard_normal((4, 4)))
    assert np.allclose(
        pullback(endo, b).entries, np.linalg.inv(b) @ endo.entries @ b
    )
    with pytest.raises(ValueError):
        pullback(two_form, np.eye(3))


def test_pullback_respects_evaluation():
    # components in the new basis evaluated on coordinates equal the original
    # tensor evaluated on the mapped vectors
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    t = Tensor(4, (0, 3), rng.standard_normal((4, 4, 4)))
    tb = pullback(t, b)
    x, y, z = rng.standard_normal((3, 4))
    assert tb(x, y, z) == pytest.approx(t(b @ x, b @ y, b @ z), rel=1e-12)


def test_text_round_trip_is_exact():
    rng = np.random.default_rng(6)
    t = Tensor(3, (1, 2), rng.standard_normal((3, 3, 3)) * 1e-7)
    again = from_text(to_text(t))
    assert again.valence == t.valence and again.dim == t.dim
    assert np.array_equal(again.entries, t.entries)  # bitwise, thanks to 17 digits

    named = to_text(t, "sample")
    assert named.startswith("name: sample\n")
    assert np.array_equal(from_text(named).entries, t.entries)


def test_text_entries_are_the_per_value_17_digit_strings():
    # the dump's bytes: signed zero, a subnormal and a huge value among a stage's blocks
    for block in random_adapted_change(make_space(2), 1).blocks:
        entries = block.entries.copy()
        entries.flat[:3] = -0.0, 5e-324, 2.5e300
        flat = " ".join(format(x, ".17g") for x in entries.ravel())
        assert to_text(Tensor(4, (0, 4), entries)).splitlines()[-1] == f"entries: {flat}"


def test_parse_records_handles_multiple_blocks():
    a = Tensor(2, (0, 2), np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(2, (1, 1), np.array([[0.0, -1.0], [1.0, 0.0]]))
    blob = to_text(a, "first") + "\n" + to_text(b, "second") + "\n\n"
    records = parse_records(blob)
    assert [name for name, _ in records] == ["first", "second"]
    assert np.array_equal(records[0][1].entries, a.entries)
    assert np.array_equal(records[1][1].entries, b.entries)


def test_parse_rejects_malformed_records():
    with pytest.raises(ValueError):
        from_text("dim: 2\nvalence: 0 2\n")  # no entries line
    with pytest.raises(ValueError):
        from_text("dim: 2\nvalence: 0 2\nentries: 1 2 3\n")  # wrong count
    with pytest.raises(ValueError):
        from_text("dim: 2\nvalence: 0 2\nentries: 1 2 3 nope\n")
