"""End-to-end acceptance gates.

Each test prints exactly one PASS/FAIL line on the real stdout (bypassing
capture) so the gate outcomes are visible in any runner, then asserts.  The
bounds and runtimes are part of the contract under test, not suggestions.
"""

import json
import math
import time

import numpy as np
import pytest

from qch import (
    QCHCoefficients,
    ab2,
    ab2_alternate,
    build_phi,
    build_pi,
    build_psi,
    check_kahler_symmetries,
    combine,
    curv_dot,
    eval_profile,
    fit_coefficients,
    fused_sups,
    hol_sect,
    make_space,
    max_abs,
    product_curvature,
    profile_report,
    project_D,
    random_adapted_change,
    solve_profile,
)
from qch.cli import main as cli_main

from helpers import random_unit_vector


@pytest.fixture
def gate(capfd):
    """One visible PASS/FAIL line per criterion, printed past pytest's capture."""

    def _gate(label: str, ok: bool, detail: str):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"ACCEPT {label}: {status} ({detail})", flush=True)
        assert ok, f"{label}: {detail}"

    return _gate


def test_symmetry_suite_across_dimensions_and_seeds(gate):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    all_ok = True
    for n in (2, 3, 4):
        for seed in (0, 1, 2):
            space = random_adapted_change(make_space(n), seed)
            candidates = [build_pi(space), build_phi(space), build_psi(space)]
            for _ in range(20):
                a, b, c = rng.uniform(-5.0, 5.0, size=3)
                candidates.append(combine(QCHCoefficients(a, b, c), space))
            for r in candidates:
                rep = check_kahler_symmetries(r, tol=1e-12)
                scaled = max(rep.defects().values()) / (1.0 + max_abs(r.tensor))
                worst = max(worst, scaled)
                all_ok = all_ok and rep.passed
    elapsed = time.perf_counter() - started
    gate(
        "01 symmetry-suite",
        all_ok and elapsed < 1.0,
        f"worst scaled defect {worst:.2e}, {elapsed:.2f}s",
    )


def test_holomorphic_diagonal_on_random_unit_vectors(gate):
    started = time.perf_counter()
    space = random_adapted_change(make_space(3), 42)
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(200):
        if trial % 20 == 0:
            a, b, c = rng.uniform(-5.0, 5.0, size=3)
            r = combine(QCHCoefficients(a, b, c), space)
        x = random_unit_vector(rng, space.dim)
        _, t = project_D(space, x)
        expected = a + b * t**2 + c * t**4
        worst = max(worst, abs(hol_sect(r, x) - expected))
    elapsed = time.perf_counter() - started
    gate(
        "02 diagonal-values",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst defect {worst:.2e} over 200 vectors, {elapsed:.2f}s",
    )


def test_multiplication_table_with_guards(gate):
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        space = random_adapted_change(make_space(n), 42)
        pi, phi, psi = build_pi(space), build_phi(space), build_psi(space)
        zero_products = [
            curv_dot(pi, pi), curv_dot(phi, pi), curv_dot(psi, pi),
            curv_dot(psi, phi), curv_dot(psi, psi),
        ]
        for out in zero_products:
            worst = max(worst, max_abs(out))
        for target in (phi, psi):
            lhs = curv_dot(pi, target)
            rhs = curv_dot(phi, target)
            worst = max(worst, max_abs(lhs - 2.0 * rhs))
    # non-vacuousness: the doubled product is an O(1) object, not a zero test
    guard = max_abs(curv_dot(build_pi(make_space(2)), build_phi(make_space(2)).tensor))
    elapsed = time.perf_counter() - started
    gate(
        "03 multiplication-table",
        worst <= 1e-10 and guard > 1e-2 and elapsed < 10.0,
        f"worst defect {worst:.2e}, guard {guard:.3f}, {elapsed:.2f}s",
    )


def test_coupled_relations_under_the_same_sweep(gate):
    worst = 0.0
    for n in (2, 3, 4):
        space = random_adapted_change(make_space(n), 42)
        pi, phi, psi = build_pi(space), build_phi(space), build_psi(space)
        pairs = [
            (2.0 * curv_dot(phi, phi), curv_dot(phi, pi) + curv_dot(pi, phi)),
            (curv_dot(psi, psi), 0.0 * curv_dot(psi, psi)),
            (
                curv_dot(psi, pi) + curv_dot(pi, psi),
                2.0 * (curv_dot(phi, psi) + curv_dot(psi, phi)),
            ),
        ]
        for lhs, rhs in pairs:
            worst = max(worst, max_abs(lhs - rhs))
    gate("04 coupled-relations", worst <= 1e-10, f"worst defect {worst:.2e}")


def test_pseudosymmetry_with_wrong_factor_control(gate):
    started = time.perf_counter()
    space = random_adapted_change(make_space(3), 42)
    rng = np.random.default_rng(11)
    pi = build_pi(space)
    worst_rel = 0.0
    ok = True
    for _ in range(100):
        a, b, c = rng.uniform(-5.0, 5.0, size=3)
        r = combine(QCHCoefficients(a, b, c), space)
        rr = curv_dot(r, r)
        pir = curv_dot(pi, r)
        defect = max_abs(rr - (a + b / 2.0) * pir)
        bound = 1e-9 * (1.0 + max_abs(rr))
        worst_rel = max(worst_rel, defect / (1.0 + max_abs(rr)))
        ok = ok and defect <= bound
    wrong = combine(QCHCoefficients(0.0, 1.0, 0.0), space)
    control, _ = fused_sups([(wrong, wrong)], [(pi, wrong)], (1.0, 0.0 + 1.0))
    elapsed = time.perf_counter() - started
    gate(
        "05 pseudosymmetry",
        ok and control > 1e-3 and elapsed < 30.0,
        f"worst relative defect {worst_rel:.2e}, wrong-factor control {control:.2e}, {elapsed:.2f}s",
    )


def test_product_route_and_semisymmetry(gate):
    space = random_adapted_change(make_space(3), 42)
    rng = np.random.default_rng(13)
    worst_match = 0.0
    worst_flat = 0.0
    for _ in range(10):
        k, l = rng.uniform(-2.0, 2.0, size=2)
        prod = product_curvature(k, l, space)
        target = combine(QCHCoefficients(k, -2.0 * k, l + k), space)
        worst_match = max(worst_match, max_abs(prod.tensor - target.tensor))
        opposite = product_curvature(k, -k, space)
        worst_flat = max(worst_flat, max_abs(curv_dot(opposite, opposite)))
    for _ in range(5):
        d = rng.uniform(-2.0, 2.0)
        unit_block = product_curvature(1.0, d - 1.0, space)
        worst_flat = max(worst_flat, max_abs(curv_dot(unit_block, unit_block)))
    gate(
        "06 product-route",
        worst_match <= 1e-10 and worst_flat <= 1e-10,
        f"worst combination defect {worst_match:.2e}, worst self-action {worst_flat:.2e}",
    )


def test_coefficient_fitter_round_trip_and_certificate(gate):
    space = random_adapted_change(make_space(3), 42)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        a, b, c = rng.uniform(-5.0, 5.0, size=3)
        fitted, residual = fit_coefficients(combine(QCHCoefficients(a, b, c), space))
        worst = max(worst, abs(fitted.a - a), abs(fitted.b - b), abs(fitted.c - c), residual)

    # out-of-span certificate: a constant-type block on an orthogonal J-plane
    from qch import CurvatureTensor, Tensor
    from helpers import loop_pi

    sp = make_space(3)
    p1 = np.zeros((6, 6))
    p1[2, 2] = p1[3, 3] = 1.0
    h1 = p1.T @ sp.g.entries @ p1
    w1 = sp.J.entries.T @ h1
    alien = CurvatureTensor(Tensor(6, (0, 4), 0.01 * loop_pi(h1, w1)), sp)
    _, certificate = fit_coefficients(alien)
    gate(
        "07 coefficient-fitter",
        worst <= 1e-10 and certificate > 1e-3,
        f"worst round-trip error {worst:.2e}, out-of-span residual {certificate:.2e}",
    )


def _profile_grid():
    for r0 in (0.5, 1.0, 2.0):
        for L in (1.0, math.pi, 10.0):
            for k in (1, 2):
                for n in (2, 4):
                    yield r0, L, k, n


def test_profile_solver_over_the_parameter_grid(gate):
    started = time.perf_counter()
    worst_residual = 0.0
    worst_endpoint = 0.0
    solved = 0
    ok = True
    for r0, L, k, n in _profile_grid():
        p = solve_profile(r0, L, k, n)
        solved += 1
        left = eval_profile(p, 0.0)
        right = eval_profile(p, p.L)
        worst_residual = max(
            worst_residual,
            abs(2.0 * left.r * left.r_second - p.s),
            abs(2.0 * right.r * right.r_second + p.s),
        )
        interior = np.linspace(0.0, p.L, 1002)[1:-1]
        ok = ok and bool(np.all(eval_profile(p, interior).r_prime > 0.0))
        worst_endpoint = max(
            worst_endpoint,
            abs(ab2(p, 0.0) + 2.0 * p.s / p.r0**2),
            abs(ab2(p, p.L) - 2.0 * p.s / right.r**2),
        )
        ok = ok and len(profile_report(p).sign_change_points) >= 1
    elapsed = time.perf_counter() - started
    gate(
        "08 profile-solver",
        ok and solved == 36 and worst_residual <= 1e-12
        and worst_endpoint <= 1e-10 and elapsed < 1.0,
        f"{solved}/36 solved, worst residual {worst_residual:.2e}, "
        f"worst endpoint defect {worst_endpoint:.2e}, {elapsed:.2f}s",
    )


def test_alternate_curvature_form_agrees_on_every_profile(gate):
    worst = 0.0
    for r0, L, k, n in _profile_grid():
        p = solve_profile(r0, L, k, n)
        eps = p.L * 1e-3
        ts = np.linspace(eps, p.L - eps, 1000)
        worst = max(worst, float(np.max(np.abs(ab2(p, ts) - ab2_alternate(p, ts)))))
    gate("09 alternate-form", worst <= 1e-10, f"worst form disagreement {worst:.2e}")


def test_verification_reports_are_byte_identical(gate, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    args = ["verify", "all", "--n", "3", "--seed", "42", "--no-timestamp"]
    code1 = cli_main(args + ["--json", str(first)])
    code2 = cli_main(args + ["--json", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    gate(
        "10 determinism",
        code1 == 0 and code2 == 0 and identical and report["overall_pass"] is True,
        f"exit codes {code1}/{code2}, byte-identical={identical}",
    )
