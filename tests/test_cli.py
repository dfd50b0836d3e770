import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qch import cli, derivation, identities, profiles
from qch import (
    SUITES,
    UsageError,
    ab2,
    build_pi,
    make_space,
    parse_records,
    profile_report,
    random_adapted_change,
    run_suite,
    solve_profile,
    verify_theorem1,
)
from qch.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_verify_exit_codes(capsys):
    assert main(["verify", "table", "--n", "2"]) == 0
    assert main(["verify", "table", "--n", "1"]) == 2
    assert main(["verify", "table", "--n", "2", "--tol", "-1"]) == 2
    assert main(["verify", "nonsense"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_honest_failure_with_unreachable_tolerance(capsys):
    # machine noise is ~1e-16, so demanding 1e-18 must fail loudly, not pass
    code = main(["verify", "table", "--n", "2", "--tol", "1e-18"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_a_vacuous_theorem1_run_fails(tmp_path, capsys):
    # R.R of coefficients within 1e-6 is about 1e-12, below 10 * tol
    path = tmp_path / "t1.json"
    args = ["verify", "theorem1", "--n", "3", "--coeff-range", "1e-6", "--trials", "5"]
    assert main(args + ["--json", str(path)]) == 1
    assert "FAIL theorem1" in capsys.readouterr().out
    (check,) = json.loads(path.read_text())["results"]
    assert check["max_defect"] == "inf" and not check["passed"]


def test_profile_exit_codes(capsys):
    base = ["profile", "solve", "--r0", "1", "--L", "3.141592653589793",
            "--k", "2", "--n", "4"]
    assert main(base) == 0
    assert main(["profile", "solve", "--L", "1", "--k", "1", "--n", "2"]) == 2
    assert main(base[:2] + ["--r0", "-1", "--L", "1", "--k", "1", "--n", "2"]) == 2
    assert main(["profile", "report"] + base[2:] + ["--grid", "2"]) == 2
    assert main(["profile", "report"] + base[2:] + ["--eps", "0"]) == 2
    capsys.readouterr()


def test_human_readable_summary(capsys):
    main(["verify", "eq32", "--n", "2", "--seed", "1"])
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "3/3 checks passed" in out


def test_json_report_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "all", "--n", "2", "--seed", "42", "--no-timestamp"]
    assert main(args + ["--json", str(a)]) == 0
    assert main(args + ["--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_toggle(tmp_path, capsys):
    with_ts = tmp_path / "ts.json"
    without = tmp_path / "nots.json"
    base = ["verify", "table", "--n", "2"]
    main(base + ["--json", str(with_ts)])
    main(base + ["--json", str(without), "--no-timestamp"])
    capsys.readouterr()
    assert "timestamp" in json.loads(with_ts.read_text())
    assert "timestamp" not in json.loads(without.read_text())


def test_json_schema_and_lossless_floats(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["verify", "all", "--n", "2", "--seed", "7",
                 "--json", str(path), "--no-timestamp"]) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())
    assert report["schema_version"] == "1"
    assert report["command"] == "verify all"
    assert report["overall_pass"] is True
    assert report["seed"] == "7"
    assert len(report["results"]) == 15
    for entry in report["results"]:
        assert set(entry) == {"name", "n", "seed", "max_defect", "tolerance", "passed"}
        # every numeric field is a decimal string that round-trips exactly
        for key in ("max_defect", "tolerance"):
            value = float(entry[key])
            assert format(value, ".17g") == entry[key]
        assert isinstance(entry["passed"], bool)


def test_profile_json_report(tmp_path, capsys):
    path = tmp_path / "p.json"
    assert main(["profile", "report", "--r0", "1", "--L", "3.141592653589793",
                 "--k", "2", "--n", "4", "--grid", "64",
                 "--json", str(path), "--no-timestamp"]) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())
    assert report["overall_pass"] is True
    result = report["results"][0]
    assert float(result["gamma1"]) == pytest.approx(-0.020125590860194935, abs=1e-15)
    assert len(result["grid"]) == 64
    assert len(result["ab2_values"]) == 64
    assert len(result["sign_change_points"]) == 1


def test_csv_table(tmp_path, capsys):
    path = tmp_path / "t.csv"
    main(["profile", "report", "--r0", "1", "--L", "2", "--k", "1", "--n", "2",
          "--grid", "11", "--csv", str(path), "--no-timestamp"])
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == "t,ab2"
    assert len(lines) == 12
    p = solve_profile(1.0, 2.0, 1, 2)
    rep = profile_report(p, grid_size=11)
    assert lines[1:] == [f"{format(float(t), '.17g')},{format(float(v), '.17g')}"
                         for t, v in zip(rep.grid, rep.ab2_values)]
    for line in lines[1:]:
        t_str, v_str = line.split(",")
        assert float(v_str) == ab2(p, float(t_str))


def _assert_profile_golden(tmp_path, capsys, argv, golden):
    jpath, cpath = tmp_path / "p.json", tmp_path / "p.csv"
    assert main(["profile", "report", *argv, "--no-timestamp",
                 "--json", str(jpath), "--csv", str(cpath)]) == 0
    capsys.readouterr()
    assert jpath.read_bytes() == (DATA / f"{golden}.json").read_bytes()
    assert cpath.read_bytes() == (DATA / f"{golden}.csv").read_bytes()


def test_profile_report_files_match_the_golden_bytes(tmp_path, capsys):
    _assert_profile_golden(tmp_path, capsys, ["--r0", "1", "--L", "3.141592653589793",
                                              "--k", "2", "--n", "4", "--grid", "64"],
                           "profile_report")


def test_a_profile_report_at_the_default_grid_matches_the_golden_bytes(tmp_path, capsys):
    # the benchmark's grid of 1000, with one sign change to bisect
    _assert_profile_golden(tmp_path, capsys, ["--r0", "0.5", "--L", "19.5", "--k", "3",
                                              "--n", "2", "--grid", "1000"],
                           "profile_report_g1000")


def test_verify_report_matches_the_golden_bytes(tmp_path, capsys):
    path = tmp_path / "v.json"
    assert main(["verify", "all", "--n", "3", "--seed", "42", "--trials", "5",
                 "--no-timestamp", "--json", str(path)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == (DATA / "verify_all_n3.json").read_bytes()


def _assert_golden_on_every_core_count(monkeypatch, tmp_path, capsys, argv, golden):
    """Run ``argv`` on the cores available and on 1, 3 and 4 simulated ones
    (a sweep of several slabs runs on one worker or two): every report must
    be the golden bytes."""
    path = tmp_path / "v.json"
    for cores in (None, 1, 3, 4):
        if cores is not None:
            monkeypatch.setattr(derivation.os, "sched_getaffinity",
                                lambda pid: set(range(cores)))
        assert main([*argv, "--no-timestamp", "--json", str(path)]) == 0, cores
        capsys.readouterr()
        assert path.read_bytes() == (DATA / golden).read_bytes(), cores


def test_a_multi_slab_verify_report_matches_the_golden_bytes(monkeypatch, tmp_path, capsys):
    # d = 10: every relation row sweeps several pair-range slabs, each product
    # formed on two blocks of its first output pair that cover X1 <= X2
    _assert_golden_on_every_core_count(
        monkeypatch, tmp_path, capsys,
        ["verify", "all", "--n", "5", "--seed", "1", "--trials", "3"], "verify_all_n5.json")


def test_a_block_triangular_verify_report_matches_the_golden_bytes(monkeypatch, tmp_path, capsys):
    # d = 20: one pair a slab, each product formed on the two blocks over
    # X1 <= X2, whose matmuls stay on the full square's side of OpenBLAS's
    # small-matrix cut
    _assert_golden_on_every_core_count(
        monkeypatch, tmp_path, capsys,
        ["verify", "theorem1", "--n", "10", "--trials", "1", "--seed", "7"],
        "verify_theorem1_n10.json")


def test_a_negative_seed_is_a_usage_error(capsys):
    assert main(["verify", "table", "--n", "2", "--seed", "-1"]) == 2
    assert "usage error: seed must be an integer >= 0" in capsys.readouterr().err


def test_dump_round_trips_the_stage(tmp_path, capsys):
    path = tmp_path / "dump.txt"
    assert main(["verify", "table", "--n", "2", "--seed", "5",
                 "--dump", str(path)]) == 0
    capsys.readouterr()
    records = dict(parse_records(path.read_text()))
    assert sorted(records) == ["J", "Omega", "g", "h", "omega", "p_D", "phi", "pi", "psi"]
    space = random_adapted_change(make_space(2), 5)
    assert np.array_equal(records["g"].entries, space.g.entries)
    assert np.array_equal(records["pi"].entries, build_pi(space).tensor.entries)


def test_module_entry_point(tmp_path):
    # `python -m qch` exits with main's status: 0 on a pass, 2 on a usage
    # error, 1 on a numeric breakdown
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "qch", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))

    report = tmp_path / "r.json"
    proc = run("verify", "table", "--n", "2", "--json", str(report))
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
    assert json.loads(report.read_text())["overall_pass"] is True
    proc = run("verify", "table", "--n", "2", "--tol", "nan")
    assert proc.returncode == 2
    assert "usage error: tol must be finite and positive" in proc.stderr
    proc = run("profile", "solve", "--r0", "1e300", "--L", "1e10", "--k", "1", "--n", "2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: numeric breakdown")


@pytest.mark.parametrize("coeff_range", ["inf", "nan", "0"])
def test_coeff_range_must_be_finite_and_positive(coeff_range, capsys):
    with pytest.raises(ValueError, match="coeff_range"):
        verify_theorem1(make_space(2), trials=1, coeff_range=float(coeff_range))
    assert main(["verify", "theorem1", "--n", "2", "--coeff-range", coeff_range]) == 2
    assert "usage error" in capsys.readouterr().err


def test_a_coeff_range_whose_width_overflows_exits_2(capsys):
    assert main(["verify", "theorem1", "--n", "2", "--coeff-range", "1e308"]) == 2
    captured = capsys.readouterr()
    assert "usage error: coeff_range" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_only_a_usage_error_exits_2(monkeypatch, capsys):
    # a ValueError from a program defect (a numpy shape mismatch, say) is
    # not blamed on the arguments
    def defect(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "run_suite", defect)
    with pytest.raises(ValueError, match="broadcast"):
        main(["verify", "table", "--n", "2"])
    assert "usage error" not in capsys.readouterr().err
    with pytest.raises(UsageError, match="r0"):
        solve_profile(-1.0, 1.0, 1, 2)


@pytest.mark.parametrize("eps, grid", [("nan", "1000"), ("inf", "1000"), ("0.6", "1000"),
                                       ("0.45", "4")])
def test_profile_cross_check_is_never_skipped(eps, grid, monkeypatch, capsys):
    # each margin leaves no grid point for the alternate-form cross-check,
    # which is refused before the solve
    monkeypatch.setattr(cli, "solve_profile", lambda *a: pytest.fail("solve_profile ran"))
    args = ["profile", "report", "--r0", "1", "--L", "1", "--k", "1", "--n", "2"]
    assert main(args + ["--eps", eps, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


@pytest.mark.parametrize("grid, eps", [("6", "0.4"), ("4", "0.33333333333333337")])
def test_the_margin_is_closed_at_both_ends(grid, eps, capsys):
    # the one grid point in [eps, 1 - eps] is eps itself (0.4 of six points),
    # or 1 - eps (2/3 of four points): it takes the cross-check
    args = ["profile", "report", "--r0", "1", "--L", "1", "--k", "1", "--n", "2"]
    assert main(args + ["--grid", grid, "--eps", eps]) == 0
    capsys.readouterr()


def test_boundary_residual_bound_scales_with_rounding(capsys):
    # r(L) is about 100 here: the right residual, 1.3e-12, is rounding
    args = ["profile", "report", "--r0", "0.27588406258585685",
            "--L", "17.952562351447572", "--k", "3", "--n", "2"]
    assert main(args) == 0
    capsys.readouterr()


def test_an_underflowed_profile_is_a_breakdown_not_a_thousand_sign_changes(capsys):
    # for r0 = 1e200 every a+b/2 sample underflows to zero
    args = ["profile", "report", "--r0", "1e200", "--L", "1", "--k", "1", "--n", "2"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "numeric breakdown in profile report" in captured.err
    assert "sign changes" not in captured.out


@pytest.mark.parametrize("r0, L, where", [
    ("3.1622776601683793e-155", "1", "in ab2:"),  # a+b/2 itself overflows at t = 0
    ("6.902873257532779e-103", "2891.641447751179", "in ab2_alternate:"),
])
def test_an_overflowed_profile_is_a_named_breakdown(capsys, r0, L, where):
    args = ["profile", "report", "--r0", r0, "--L", L, "--k", "1", "--n", "4"]
    assert main(args) == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("action", ["solve", "report"])
def test_an_overflowed_left_coefficient_exits_with_a_named_breakdown(action, capsys):
    # 2 r0 L overflows, so g0 = s / (2 r0 L) would be 0
    assert main(["profile", action, "--r0", "1e300", "--L", "1e10", "--k", "1", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert "numeric breakdown in solve_profile" in captured.err
    assert "gamma0" not in captured.out


@pytest.mark.parametrize("action", ["solve", "report"])
def test_a_vacuous_boundary_bound_is_a_named_breakdown(action, tmp_path, capsys):
    # the terms of 2 r r'' at L cancel from about 1e9: the rounding bound,
    # 1184, exceeds s = 1, and the right residual is s itself
    args = ["profile", action, "--r0", "1e-9", "--L", "1", "--k", "1", "--n", "2",
            "--json", str(tmp_path / "p.json")]
    if action == "report":  # --csv is for the report only
        args += ["--csv", str(tmp_path / "p.csv")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert "numeric breakdown in boundary residuals" in captured.err
    assert "right=1.000e+00" in captured.out
    assert "sign changes" not in captured.out
    assert list(tmp_path.iterdir()) == []


def _results(capsys, tmp_path, *args):
    path = tmp_path / "r.json"
    assert main(["verify", *args, "--trials", "2", "--no-timestamp", "--json", str(path)]) == 0
    capsys.readouterr()
    return json.loads(path.read_text())["results"]


@pytest.mark.parametrize("n", ["2", "3"])
@pytest.mark.parametrize("seed", ["0", "5"])
def test_all_is_the_single_suites_in_order(n, seed, tmp_path, capsys):
    singles = [_results(capsys, tmp_path, suite, "--n", n, "--seed", seed)
               for suite in SUITES if suite != "all"]
    assert [len(r) for r in singles] == [7, 3, 1, 4]
    assert _results(capsys, tmp_path, "all", "--n", n, "--seed", seed) == sum(singles, [])


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("bad", [["--trials", "0"], ["--coeff-range", "nan"]])
def test_draw_settings_are_validated_for_every_suite(suite, bad, capsys):
    assert main(["verify", suite, "--n", "2", *bad]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("args, flag", [
    (["verify", "table", "--n", "2"], "--json"),
    (["verify", "table", "--n", "2"], "--dump"),
    (["profile", "report", "--r0", "1", "--L", "2", "--k", "1", "--n", "2"], "--json"),
    (["profile", "report", "--r0", "1", "--L", "2", "--k", "1", "--n", "2"], "--csv"),
])
@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_a_bad_output_path_is_a_usage_error_before_any_work(
        args, flag, where, tmp_path, monkeypatch, capsys):
    def refuse(*a, **kw):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(cli, "run_suite", refuse)
    monkeypatch.setattr(cli, "solve_profile", refuse)
    path = tmp_path / "missing" / "x" if where == "missing_dir" else tmp_path
    assert main(args + [flag, str(path)]) == 2
    assert f"usage error: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, flag", [
    (["verify", "table", "--n", "2", "--json", ""], "--json"),
    (["verify", "table", "--n", "2", "--dump", ""], "--dump"),
    (["profile", "report", "--r0", "1", "--L", "2", "--k", "1", "--n", "2", "--csv", ""], "--csv"),
    (["profile", "solve", "--r0", "1", "--L", "2", "--k", "1", "--n", "2", "--csv", "x.csv"],
     "--csv"),
])
def test_no_output_flag_is_silently_ignored(args, flag, tmp_path, monkeypatch, capsys):
    # an empty path writes nothing, and solve writes no table
    def refuse(*a, **kw):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(cli, "run_suite", refuse)
    monkeypatch.setattr(cli, "solve_profile", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert f"usage error: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("action", ["solve", "report"])
def test_the_endpoint_checks_are_evaluated_once(action, monkeypatch, capsys):
    calls = []
    real = profiles._endpoint_checks

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(profiles, "_endpoint_checks", counting)
    monkeypatch.setattr(cli, "_endpoint_checks", counting)
    assert main(["profile", action, "--r0", "1", "--L", "2", "--k", "1", "--n", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("args", [
    ["verify", "all", "--n", "2", "--dump"],
    ["profile", "report", "--r0", "1", "--L", "2", "--k", "1", "--n", "2",
     "--grid", "100000000000", "--csv"],
])
def test_a_run_that_does_not_fit_in_memory_is_refused(args, tmp_path, monkeypatch, capsys):
    def exhausted(*a, **kw):
        raise MemoryError

    monkeypatch.setattr(cli, "run_suite", exhausted)
    monkeypatch.setattr(cli.np, "linspace", exhausted)  # the report's grid, formed first
    monkeypatch.setattr(cli, "profile_report", exhausted)
    out = tmp_path / "out"
    assert main(args + [str(out), "--json", str(tmp_path / "r.json")]) == 2
    assert "does not fit in memory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_REPORT = ["profile", "report", "--r0", "1", "--L", "1", "--k", "1", "--n", "2"]


@pytest.mark.parametrize("args", [
    *(_REPORT + ["--grid", str(grid)] for grid in (sys.maxsize // 8 + 1, 2**62, 2**63 - 1, 10**21)),
    ["verify", "table", "--n", "16384"],
    ["verify", "table", "--n", str(10**19)],
    ["verify", "theorem1", "--n", "2", "--trials", str(sys.maxsize // 24 + 1)],
    ["verify", "theorem1", "--n", "2", "--trials", str(10**19)],
    ["verify", "theorem1", "--n", "2", "--trials", "3074457345618258603"],
])
def test_an_array_past_the_address_space_is_refused_before_any_work(
        args, tmp_path, monkeypatch, capsys):
    def no_work(*a, **kw):
        pytest.fail("work started")

    for module, name in [(cli.np, "linspace"), (cli, "solve_profile"), (identities, "make_space")]:
        monkeypatch.setattr(module, name, no_work)
    assert main(args + ["--json", str(tmp_path / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the run does not fit in memory\n"
    assert list(tmp_path.iterdir()) == []


def test_the_address_space_bounds_are_tight(monkeypatch):
    # the largest n, trials and grid whose arrays can be addressed pass to the work
    def no_work(*a, **kw):
        raise RuntimeError("work started")

    monkeypatch.setattr(identities, "make_space", no_work)
    monkeypatch.setattr(cli.np, "linspace", no_work)
    for n, trials in [(16383, 1), (2, sys.maxsize // 24)]:
        with pytest.raises(RuntimeError, match="work started"):
            run_suite([n], [0], trials=trials, suite="theorem1")
    with pytest.raises(RuntimeError, match="work started"):
        main(_REPORT + ["--grid", str(sys.maxsize // 8)])


class _Refusing:
    """A file opened for writing whose ``write`` the system refuses."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("args, flag", [
    (["verify", "table", "--n", "2"], "--json"),
    (["verify", "table", "--n", "2"], "--dump"),
    (["profile", "report", "--r0", "1", "--L", "3", "--k", "1", "--n", "2"], "--csv"),
    (["profile", "report", "--r0", "1", "--L", "3", "--k", "1", "--n", "2"], "--json"),
    (["profile", "solve", "--r0", "1", "--L", "3", "--k", "1", "--n", "2"], "--json"),
])
@pytest.mark.parametrize("refused", ["open", "write"])
def test_an_output_file_the_system_refuses_exits_2_with_one_line(
        args, flag, refused, tmp_path, monkeypatch, capsys):
    # the path passes the checks made before any work; opening it, or
    # writing it, fails afterwards
    path = str(tmp_path / "out")

    def failing(file, mode="r", *rest, **kwargs):
        assert file == path and mode == "w"
        if refused == "open":
            raise PermissionError(13, "Permission denied")
        return _Refusing()

    monkeypatch.setattr(cli, "open", failing, raising=False)
    assert main(args + [flag, path]) == 2
    captured = capsys.readouterr()
    reason = "Permission denied" if refused == "open" else "No space left on device"
    assert captured.err == f"error: cannot write {path}: {reason}\n"
    assert "Traceback" not in captured.err


def test_an_os_error_outside_the_output_files_is_not_caught(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(cli, "run_suite", broken)
    with pytest.raises(OSError, match="Input/output error"):
        main(["verify", "table", "--n", "2", "--json", os.devnull])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags, calls", [
    ([], 0), (["--json", "r.json"], 2), (["--csv", "t.csv"], 2),
    (["--json", "r.json", "--csv", "t.csv"], 2),
])
def test_profile_tables_are_formatted_only_for_a_file(flags, calls, tmp_path, monkeypatch,
                                                      capsys):
    formatted = []
    real = cli._fmt_all

    def counting(values):
        formatted.append(len(values))
        return real(values)

    monkeypatch.setattr(cli, "_fmt_all", counting)
    monkeypatch.chdir(tmp_path)
    args = ["profile", "report", "--r0", "1", "--L", "3", "--k", "1", "--n", "2", "--grid", "50"]
    assert main(args + flags) == 0
    capsys.readouterr()
    assert formatted == [50] * calls


@pytest.mark.parametrize("e", ["-300", "-60", "80", "300", "39"])
def test_an_extreme_interval_length_exits_with_a_named_breakdown(e, capsys):
    assert main(["profile", "solve", "--r0", "1", "--L", f"1e{e}", "--k", "1", "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert "numeric breakdown in solve_profile" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args, flags", [
    (["profile", "report", "--r0", "1", "--L", "2", "--k", "1", "--n", "2"], ("--json", "--csv")),
    (["verify", "table", "--n", "2"], ("--json", "--dump")),
])
@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_two_outputs_on_one_file_are_a_usage_error_before_any_work(
        args, flags, spelling, tmp_path, monkeypatch, capsys):
    def refuse(*a, **kw):
        raise AssertionError("work started before the output paths were checked")

    monkeypatch.setattr(cli, "run_suite", refuse)
    monkeypatch.setattr(cli, "solve_profile", refuse)
    first = str(tmp_path / "x")
    second = first if spelling == "same" else f"{tmp_path}/./x"
    assert main(args + [flags[0], first, flags[1], second]) == 2
    assert f"usage error: {flags[0]} and {flags[1]} name the same file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_text = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028😀a')),
    # the pieces of a .17g float, which the writer joins without escaping
    st.lists(st.sampled_from([*"0123456789.e+-", "inf", "nan"]), max_size=6).map("".join),
)
_json_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _text),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(_text, min_size=1, max_size=5),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(_text, children, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(tree=_json_trees)
def test_the_report_writer_is_json_dumps_with_indent(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("leaf", ['"', "\\", "\x7f", "é", "\n", "/", ""])
def test_a_string_list_that_needs_escaping_is_json_dumps_with_indent(leaf):
    for obj in (["1.5", f"a{leaf}b", "-0"], [leaf], {"grid": ["inf", leaf, "nan"]}):
        assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("args", [
    *(["verify", suite, "--n", "2", "--trials", "3"] for suite in SUITES),
    ["profile", "report", "--r0", "1", "--L", "3", "--k", "1", "--n", "2", "--grid", "50"],
    ["profile", "solve", "--r0", "1", "--L", "3", "--k", "1", "--n", "2"],
])
def test_every_report_is_written_as_json_dumps_with_indent(args, tmp_path, monkeypatch, capsys):
    written = []
    real = cli._json_text

    def capturing(obj, *rest):
        written.append(obj)
        return real(obj, *rest)

    monkeypatch.setattr(cli, "_json_text", capturing)
    path = tmp_path / "r.json"
    main(args + ["--json", str(path)])
    capsys.readouterr()
    report = written[0]  # the outermost call; the writer recurses through the module
    assert report["command"] == " ".join(args[:2])
    assert "timestamp" in report
    assert path.read_text() == json.dumps(report, indent=2) + "\n"

