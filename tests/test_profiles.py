import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qch.profiles as profiles
from qch import (
    NumericBreakdownError,
    ab2,
    ab2_alternate,
    boundary_residuals,
    eval_profile,
    profile_report,
    solve_profile,
)

from helpers import scalar_bisection

PI = math.pi


def quadratic_residual(p, g1=None):
    """Right-endpoint condition residual 2 r(L) r''(L) + s, recomputed by hand."""
    if g1 is None:
        g1 = p.gamma1
    g0, L = p.gamma0, p.L
    r_end = p.r0 + g0 * L**3 / 6.0 + g1 * L**4 / 12.0
    rpp_end = g0 * L + 2.0 * (g1 * L - g0) * L - 3.0 * g1 * L**2
    return 2.0 * r_end * rpp_end + p.s


def test_reference_case_pins_both_parameters():
    # r0 = 1, L = pi, k = 2, n = 4  =>  s = 1, gamma0 = 1 / (2 pi)
    p = solve_profile(1.0, PI, 2, 4)
    assert p.s == 1.0
    assert p.gamma0 == pytest.approx(1.0 / (2.0 * PI), abs=1e-16)
    assert p.gamma1 == pytest.approx(-0.020125590860194935, abs=1e-15)
    assert abs(quadratic_residual(p)) < 1e-13


def test_rejected_root_would_pinch_the_radius():
    # the quadratic's other root fails r' >= 0: recompute both roots by hand
    p = solve_profile(1.0, PI, 2, 4)
    g0, L = p.gamma0, p.L
    a_ = p.r0 + g0 * L**3 / 6.0
    b_ = L**4 / 12.0
    c_ = g0 * L
    d_ = L**2
    coeffs = [2.0 * b_ * d_, 2.0 * (a_ * d_ + b_ * c_), 2.0 * a_ * c_ - p.s]
    roots = sorted(np.roots(coeffs))
    assert p.gamma1 == pytest.approx(roots[1], abs=1e-12)  # the shallow root
    assert g0 + roots[0] * L < 0.0  # the steep root loses monotonicity


def test_boundary_conditions_hold_to_machine_precision():
    p = solve_profile(1.0, PI, 2, 4)
    left = eval_profile(p, 0.0)
    right = eval_profile(p, p.L)
    assert abs(2.0 * left.r * left.r_second - p.s) < 1e-13
    assert abs(2.0 * right.r * right.r_second + p.s) < 1e-13


def test_samples_match_finite_differences():
    p = solve_profile(2.0, 3.0, 1, 3)
    hstep = 1e-4
    for t in np.linspace(0.2, 2.8, 9):
        plus = eval_profile(p, t + hstep)
        minus = eval_profile(p, t - hstep)
        mid = eval_profile(p, t)
        assert (plus.r - minus.r) / (2 * hstep) == pytest.approx(mid.r_prime, abs=1e-6)
        assert (plus.r_prime - minus.r_prime) / (2 * hstep) == pytest.approx(
            mid.r_second, abs=1e-6
        )
        assert (plus.f - minus.f) / (2 * hstep) == pytest.approx(mid.f_prime, abs=1e-6)


def test_radius_grows_and_warp_is_positive_inside():
    p = solve_profile(1.0, PI, 2, 4)
    ts = np.linspace(0.0, p.L, 200)
    sample = eval_profile(p, ts)
    assert np.all(sample.r >= p.r0 - 1e-15)
    assert sample.r[-1] > p.r0
    assert np.all(sample.r_prime[1:-1] > 0.0)
    assert sample.f[0] == 0.0 and abs(sample.f[-1]) < 1e-13
    assert np.all(sample.f[1:-1] > 0.0)


def test_scalar_and_array_sampling_agree():
    p = solve_profile(1.0, 2.0, 1, 2)
    ts = np.array([0.0, 0.7, 2.0])
    batch = eval_profile(p, ts)
    for i, t in enumerate(ts):
        single = eval_profile(p, float(t))
        assert isinstance(single.r, float)
        assert single.r == batch.r[i]
        assert single.f_prime == batch.f_prime[i]


def test_curvature_combination_endpoints():
    p = solve_profile(1.0, PI, 2, 4)
    assert ab2(p, 0.0) == pytest.approx(-2.0 * p.s / p.r0**2, abs=1e-12)
    r_end = eval_profile(p, p.L).r
    assert ab2(p, p.L) == pytest.approx(2.0 * p.s / r_end**2, abs=1e-12)
    assert ab2(p, 0.0) == pytest.approx(-2.0, abs=1e-13)  # s = 1, r0 = 1


def test_both_evaluation_forms_agree_inside_the_margin():
    p = solve_profile(1.0, PI, 2, 4)
    eps = p.L * 1e-3
    ts = np.linspace(eps, p.L - eps, 500)
    direct = ab2(p, ts)
    alternate = ab2_alternate(p, ts)
    assert np.max(np.abs(direct - alternate)) < 1e-10


def test_alternate_form_enforces_its_margin():
    p = solve_profile(1.0, PI, 2, 4)
    with pytest.raises(ValueError):
        ab2_alternate(p, 0.0)
    with pytest.raises(ValueError):
        ab2_alternate(p, p.L)
    with pytest.raises(ValueError):
        ab2_alternate(p, 0.5, eps=-1.0)
    # widening the margin makes previously valid points invalid
    assert ab2_alternate(p, 0.01) is not None
    with pytest.raises(ValueError):
        ab2_alternate(p, 0.01, eps=0.1)


def test_report_finds_the_single_sign_change():
    p = solve_profile(1.0, PI, 2, 4)
    rep = profile_report(p)
    assert len(rep.grid) == 1000
    assert rep.boundary_residuals[0] < 1e-13
    assert rep.boundary_residuals[1] < 1e-13
    assert len(rep.sign_change_points) == 1

    # independent root count: r'' is a downward-opening parabola in t
    g0, g1, L = p.gamma0, p.gamma1, p.L
    poly_roots = np.roots([-3.0 * g1, 2.0 * (g1 * L - g0), g0 * L])
    real = [r.real for r in poly_roots if abs(r.imag) < 1e-12 and 0 < r.real < L]
    assert len(real) == 1
    assert rep.sign_change_points[0] == pytest.approx(real[0], abs=1e-9)

    # the combination really crosses from negative to positive
    t0 = rep.sign_change_points[0]
    assert ab2(p, t0 - 0.05) < 0.0 < ab2(p, t0 + 0.05)


def test_report_works_on_a_coarse_grid():
    p = solve_profile(1.0, PI, 2, 4)
    rep = profile_report(p, grid_size=3)
    assert len(rep.sign_change_points) == 1
    fine = profile_report(p, grid_size=2000)
    assert rep.sign_change_points[0] == pytest.approx(
        fine.sign_change_points[0], abs=1e-9
    )


def test_solver_rejects_bad_parameters():
    for bad in [(-1.0, 1.0, 1, 2), (0.0, 1.0, 1, 2), (1.0, -2.0, 1, 2),
                (1.0, 0.0, 1, 2), (1.0, 1.0, 0, 2), (1.0, 1.0, 1.5, 2),
                (1.0, 1.0, 1, 1), (1.0, 1.0, 1, 2.5), (np.inf, 1.0, 1, 2),
                (1.0, 1.0, np.inf, 2), (1.0, 1.0, 1, np.inf), (1.0, 1.0, np.nan, 2)]:
        with pytest.raises(ValueError):
            solve_profile(*bad)


def test_eval_rejects_out_of_domain_input():
    p = solve_profile(1.0, 2.0, 1, 2)
    for grid_size in (2, 100.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="grid_size"):
            profile_report(p, grid_size=grid_size)
    # NaN lies in no interval: a usage error, not an all-NaN sample or a breakdown
    for evaluate in (eval_profile, ab2, ab2_alternate):
        for bad in (-0.1, 2.1, math.nan, np.array([0.5, 2.5]), np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="t must lie in"):
                evaluate(p, bad)


@settings(max_examples=60, deadline=None)
@given(
    r0=st.floats(0.25, 4.0),
    L=st.floats(0.5, 10.0),
    k=st.integers(1, 4),
    n=st.integers(2, 10),
)
def test_solver_always_finds_an_admissible_root(r0, L, k, n):
    p = solve_profile(r0, L, k, n)
    # monotonicity: the linear factor of r' stays nonnegative on [0, L]
    assert p.gamma0 > 0.0
    assert p.gamma0 + p.gamma1 * L >= -1e-12 * p.gamma0
    # both endpoint conditions, with a float bound scaled to the coefficients
    left = eval_profile(p, 0.0)
    assert abs(2.0 * left.r * left.r_second - p.s) <= 1e-13 * (1.0 + p.s)
    scale = 1.0 + p.gamma0**2 * L**4
    assert abs(quadratic_residual(p)) <= 1e-12 * scale
    # the combination starts negative and ends positive
    assert ab2(p, 0.0) < 0.0
    assert ab2(p, p.L) > 0.0


@settings(max_examples=30, deadline=None)
@given(r0=st.floats(0.5, 2.0), L=st.floats(1.0, 6.0))
def test_sign_change_location_is_stable_under_grid_refinement(r0, L):
    p = solve_profile(r0, L, 2, 4)
    coarse = profile_report(p, grid_size=101)
    fine = profile_report(p, grid_size=997)
    assert len(coarse.sign_change_points) == len(fine.sign_change_points) == 1
    assert coarse.sign_change_points[0] == pytest.approx(
        fine.sign_change_points[0], abs=1e-9
    )


def test_boundary_bound_is_rounding_scaled_and_still_catches_a_bad_profile():
    p = solve_profile(0.27588406258585685, 17.952562351447572, 3, 2)
    residuals, bounds = boundary_residuals(p)
    assert residuals[1] > 1e-12
    assert all(r <= b for r, b in zip(residuals, bounds))
    assert bounds[0] == 1e-12 and bounds[1] < 1e-10
    off = dataclasses.replace(p, gamma1=p.gamma1 + 1e-9)
    residuals, bounds = boundary_residuals(off)
    assert residuals[1] > bounds[1]
    assert profile_report(p).boundary_residuals == boundary_residuals(p)[0]


def test_a_bound_not_below_s_is_a_breakdown():
    # r(1) is about 1e8 and the terms of r'' about 1e9: they cancel, so the
    # rounding bound at L (1184) exceeds s = 1 and would pass a residual of s
    p = solve_profile(1e-9, 1.0, 1, 2)
    x = eval_profile(p, p.L)
    assert abs(2.0 * x.r * x.r_second + p.s) == p.s  # the right condition fails outright
    with pytest.raises(NumericBreakdownError, match="in boundary residuals"):
        boundary_residuals(p)
    # the report gives residuals only; its verdict is boundary_residuals'
    assert profile_report(p).boundary_residuals[1] == p.s


@settings(max_examples=200, deadline=None)
@given(
    r0=st.floats(0.25, 4.0),
    L=st.floats(0.5, 20.0),
    k=st.integers(1, 3),
    n=st.integers(2, 8),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_ab2_is_minus_four_r_second_over_r_bit_for_bit(r0, L, k, n, fractions):
    p = solve_profile(r0, L, k, n)
    # random points, and the report's grid, whose values start its bisections
    for ts in (np.minimum(np.array(fractions) * p.L, p.L), profile_report(p, 1000).grid):
        s = eval_profile(p, ts)
        values = ab2(p, ts)
        assert np.array_equal(values, -4.0 * s.r_second / s.r)
        for i, t in enumerate(ts.tolist()):
            one = eval_profile(p, t)
            assert ab2(p, t) == -4.0 * one.r_second / one.r
            assert ab2(p, t) == values[i]


# -- zero samples and the solver's boundaries ----------------------------------


@pytest.mark.parametrize("values, points", [
    ([-1.0, 0.0, 1.0, 2.0, 3.0], [0.25]),  # a zero between opposite signs
    ([-1.0, 0.0, 0.0, 1.0, 2.0], [0.25]),  # a run of zeros is one sign change
    ([1.0, 0.0, 1.0, 0.0, -1.0], [0.75]),  # a zero that touches is none
    ([0.0, -1.0, -2.0, -1.0, 0.0], []),  # nor are zeros at the ends
    ([-0.0, 0.0, -0.0, 0.0, 0.0], None),  # all zero: a breakdown
])
def test_a_zero_sample_counts_only_between_opposite_signs(monkeypatch, values, points):
    p = solve_profile(1.0, 1.0, 1, 2)
    monkeypatch.setattr(profiles, "ab2", lambda profile, t: np.array(values))
    if points is None:
        with pytest.raises(NumericBreakdownError, match="every a\\+b/2 sample is zero"):
            profile_report(p, grid_size=5)
    else:
        assert list(profile_report(p, grid_size=5).sign_change_points) == points


def test_huge_r0_underflows_to_a_breakdown_or_keeps_its_sign_change():
    # ab2 is about 1e-400 everywhere: zero in floating point
    with pytest.raises(NumericBreakdownError):
        profile_report(solve_profile(1e200, 1.0, 1, 2))
    # ab2 is about 1e-300, so the product of neighbouring samples underflows
    assert profile_report(solve_profile(1e150, 1.0, 1, 2)).sign_change_points == (0.5,)


def test_tiny_r0_overflows_to_a_breakdown():
    # a+b/2 is about -2 s / r0**2 = -1.3e309 at t = 0: past the float range
    p = solve_profile(10.0**-154.5, 1.0, 1, 3)
    with pytest.raises(NumericBreakdownError, match="in ab2"):
        profile_report(p, grid_size=101)
    with pytest.raises(NumericBreakdownError, match="in ab2"):
        ab2(p, 0.0)
    assert ab2(p, 0.5) > 0.0  # finite values away from the overflow are kept
    # the first form squares r'/r and overflows inside the margin too
    p = solve_profile(6.902873257532779e-103, 2891.641447751179, 1, 4)
    inner = np.linspace(p.L * 1e-3, p.L * (1.0 - 1e-3), 11)
    assert np.all(np.isfinite(ab2(p, inner)))
    with pytest.raises(NumericBreakdownError, match="in ab2_alternate"):
        ab2_alternate(p, inner)


def test_numpy_scalar_parameters_solve_like_python_floats():
    for r0 in (1.0, 1e300):
        assert solve_profile(np.float64(r0), np.float64(1.0), np.int64(1), np.int64(2)) == (
            solve_profile(r0, 1.0, 1, 2)
        )
    # g0**2 overflows: a named breakdown, not a numpy overflow warning
    with pytest.raises(NumericBreakdownError, match="in solve_profile"):
        solve_profile(np.float64(1e-300), np.float64(1.0), 1, 2)


@settings(max_examples=60, deadline=None)
@given(
    r0=st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan])),
    L=st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan])),
    k=st.one_of(st.integers(max_value=0), st.sampled_from([math.inf, math.nan, 2.5])),
    n=st.one_of(st.integers(max_value=1), st.sampled_from([math.inf, math.nan, 2.5])),
    which=st.integers(0, 3),
)
def test_solver_rejects_every_parameter_outside_its_domain(r0, L, k, n, which):
    args = [1.0, 1.0, 1, 2]
    args[which] = (r0, L, k, n)[which]
    with pytest.raises(ValueError):
        solve_profile(*args)
    if which >= 2:  # non-integral indices are rejected too
        args[which] = 2.5
        with pytest.raises(ValueError):
            solve_profile(*args)


@settings(max_examples=100, deadline=None)
@given(
    log_r0=st.floats(-300.0, 300.0),
    log_L=st.floats(-6.0, 6.0),
    k=st.integers(1, 4),
    n=st.integers(2, 10),
)
def test_any_admissible_input_gives_a_report_or_a_named_error(log_r0, log_L, k, n):
    r0, L = 10.0**log_r0, 10.0**log_L
    try:
        p = solve_profile(r0, L, k, n)
        rep = profile_report(p, grid_size=101)
    except NumericBreakdownError:
        return
    # r'' is a quadratic in t, so a+b/2 = -4 r''/r changes sign at most twice
    points = rep.sign_change_points
    assert len(points) <= 2
    assert all(0.0 <= t <= L for t in points)
    assert list(points) == sorted(points)
    if rep.ab2_values[0] < 0.0 < rep.ab2_values[-1]:
        # an odd number of changes between ends of opposite signs: exactly one
        assert len(points) == 1


def _reference_points(monkeypatch, p, grid_size):
    """The report's sign changes with each bisection the scalar reference loop,
    which evaluates ab2 at lo itself: the grid's value there must be that one."""

    def reference(profile, lo, hi, flo):
        assert flo == ab2(profile, lo)
        return scalar_bisection(ab2, profile, lo, hi)

    with monkeypatch.context() as m:
        m.setattr(profiles, "_bisect_sign_change", reference)
        return profile_report(p, grid_size).sign_change_points


def test_the_bisection_is_the_scalar_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(18)
    sample = [solve_profile(float(rng.uniform(0.25, 4.0)), float(rng.uniform(0.5, 20.0)),
                            int(rng.integers(1, 4)), int(rng.integers(2, 9))) for _ in range(200)]
    long = solve_profile(246.1193431145346, 145515.3435243633, 3, 4)
    # a midpoint lands on a zero of ab2, which ends the bisection there
    zero = solve_profile(0.23495349090607678, 1125.4067697295402, 1, 3)
    (t,) = profile_report(zero, 1000).sign_change_points
    assert ab2(zero, t) == 0.0
    cases = [(p, 1000) for p in (*sample, long, zero)] + [(long, 101)]
    for p, grid_size in cases:
        points = profile_report(p, grid_size).sign_change_points
        assert points, p
        assert points == _reference_points(monkeypatch, p, grid_size), p


def test_every_bisection_midpoint_is_ab2_there_bit_for_bit(monkeypatch):
    # the bisection evaluates ab2 in Python floats; a last-bit difference
    # rarely moves a sign change, so each midpoint value is compared itself
    rng = np.random.default_rng(19)
    terms, finite = profiles._terms, profiles._finite
    checked = 0
    for _ in range(100):
        p = solve_profile(float(rng.uniform(0.25, 4.0)), float(rng.uniform(0.5, 20.0)),
                          int(rng.integers(1, 4)), int(rng.integers(2, 9)))
        grid = np.linspace(0.0, p.L, 1000)
        values = ab2(p, grid)
        i = int(np.flatnonzero((values[:-1] < 0.0) & (values[1:] > 0.0))[0])
        seen = []
        with monkeypatch.context() as m:
            m.setattr(profiles, "_terms", lambda p, t, *powers: seen.append(t) or terms(p, t, *powers))
            m.setattr(profiles, "_finite",
                      lambda name, out: seen.append(finite(name, out)) or seen[-1])
            profiles._bisect_sign_change(p, float(grid[i]), float(grid[i + 1]), float(values[i]))
        assert len(seen) > 20
        for t, value in zip(seen[::2], seen[1::2]):
            assert value == ab2(p, t), (p, t)
        checked += len(seen) // 2
    assert checked > 2000


def test_bisection_stops_at_adjacent_floats_on_a_long_interval():
    # near L = 1.5e5 neighbouring floats are 2.9e-11 apart, above the 1e-12 tol
    p = solve_profile(246.1193431145346, 145515.3435243633, 3, 4)
    (t,) = profile_report(p, grid_size=101).sign_change_points
    assert ab2(p, t * (1.0 - 1e-12)) < 0.0 < ab2(p, t * (1.0 + 1e-12))


@pytest.mark.parametrize("e", [-300, -60, 80, 300, 39, 77])
def test_an_extreme_interval_length_is_a_named_breakdown(e):
    # q2 = L**6 / 6 underflows to zero for L below about 1e-53, q1 * q1
    # overflows to inf from about 1e39 and L**4 raises above about 1e77
    with pytest.raises(NumericBreakdownError, match="in solve_profile"):
        solve_profile(1.0, 10.0**e, 1, 2)


@pytest.mark.parametrize("r0, L", [(1e-270, 1e-38), (1e-300, 1.0), (1e-160, 1e3)])
def test_an_overflowed_discriminant_is_a_named_breakdown(r0, L):
    # q0 = g0**2 L**4 / 3 overflows to inf, so the discriminant is -inf or NaN;
    # it is positive in exact arithmetic, so no "no real root" verdict is left
    with pytest.raises(NumericBreakdownError, match="leaves the float range"):
        solve_profile(r0, L, 1, 2)


@pytest.mark.parametrize("r0, L", [(1e300, 1e10), (1e260, 1e48), (1e280, 1e28), (1e300, 1e51)])
def test_an_overflowed_left_coefficient_is_a_named_breakdown(r0, L):
    # 2 r0 L overflows to inf, so g0 = s / (2 r0 L) would be 0 and r' would
    # vanish identically; these solved once to gamma0 = gamma1 = 0
    with pytest.raises(NumericBreakdownError, match="in solve_profile"):
        solve_profile(r0, L, 1, 2)


def test_a_huge_finite_left_span_still_solves():
    # 2 r0 L = 2e307 is finite, so g0 = 5e-308 is a tiny positive slope
    assert solve_profile(1e300, 1e7, 1, 2).gamma0 == 5e-308


@pytest.mark.parametrize("e", [10, 11, 13, 14, 20, 21, 23, 24, 28, 31, 35, 38])
def test_a_long_interval_solves_on_the_admissibility_line(e):
    # m = 3 + 24 r0^2 / (s L^2) is 3 to within rounding, so the near root
    # x = g1 L / g0 of x^2 + m x + 2 is -1 to within rounding: these once
    # landed a few ulp past the line g0 + g1 L = 0 and had no admissible root
    p = solve_profile(1.0, 10.0**e, 1, 2)
    assert p.gamma0 + p.gamma1 * p.L >= 0.0
    assert p.gamma1 * p.L / p.gamma0 == pytest.approx(-1.0, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    log_r0=st.floats(-3.0, 3.0),
    log_L=st.floats(-3.0, 3.0),
    k=st.integers(1, 4),
    n=st.integers(2, 10),
)
def test_the_solver_takes_the_near_root_of_the_scaled_quadratic(log_r0, log_L, k, n):
    r0, L = 10.0**log_r0, 10.0**log_L
    p = solve_profile(r0, L, k, n)
    m = 3.0 + 24.0 * r0**2 / (p.s * L**2)
    far = -(m / 2.0 + math.sqrt(m * m / 4.0 - 2.0))
    near = 2.0 / far  # the roots multiply to 2
    assert -1.0 < near < 0.0 and far < -2.0
    assert p.gamma1 * L / p.gamma0 == pytest.approx(near, rel=1e-8, abs=1e-15)


@pytest.mark.parametrize("e, gamma0, gamma1", [
    (-6, 500000.0, -0.0416111555154302),
    (-5, 49999.99999999999, -0.041666111554633525),
    (-4, 5000.0, -0.04166666661458334),
    (-3, 500.0, -0.041666661402823005),
    (-2, 50.0, -0.04166614584129037),
    (-1, 5.0, -0.041614662769694756),
    (0, 0.5, -0.0371392089512238),
    (1, 0.05, -0.004149050746972318),
    (2, 0.005, -4.988057188894077e-05),
    (3, 0.0005, -4.999880005759585e-07),
    (4, 5e-05, -4.999998800000576e-09),
    (5, 5e-06, -4.999999988e-11),
    (6, 5e-07, -4.99999999988e-13),
])
def test_moderate_interval_lengths_solve_to_their_pinned_profiles(e, gamma0, gamma1):
    L = 10.0**e
    assert solve_profile(1.0, L, 1, 2) == profiles.Profile(
        r0=1.0, L=L, s=1.0, gamma0=gamma0, gamma1=gamma1, k=1, n=2)


def _bits(sample):
    return [float(v).hex() for v in np.atleast_1d(sample)]


def test_a_scalar_t_is_checked_against_the_exact_domain():
    p = solve_profile(1.0, 3.0, 1, 2)
    eps = p.L * 1e-3
    domains = [(eval_profile, 0.0, p.L), (ab2, 0.0, p.L), (ab2_alternate, eps, p.L - eps)]
    for evaluate, lo, hi in domains:
        evaluate(p, lo)
        evaluate(p, hi)  # both endpoints belong to the domain
        below, above = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
        for bad in (below, above, math.inf, -math.inf, math.nan):
            for t in (bad, np.float64(bad), np.array(bad), np.array([bad])):
                with pytest.raises(ValueError, match="t must lie in"):
                    evaluate(p, t)
        # a Python int, a numpy scalar and a 0-d array give the same bits
        values = [_bits(evaluate(p, t)) for t in (1, 1.0, np.float64(1.0), np.array(1.0))]
        assert values[1:] == values[:-1]
