import contextlib
import copy
import dataclasses
import errno
import functools
import hashlib
import inspect
import io
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import leadersync
import leadersync.cli
from leadersync import (Topology, build_H, errors, find_common_D,
                        load_scenario, scenario_text, synthesize,
                        worst_case_params)
from leadersync.cli import _map_exception, main

from conftest import STATIC, SWITCHING

UNREACHABLE = """\
name unreach
A 2  -0.38 0.72  -0.68 0.42
B 2 1  0.26 0.31
mu1 1.0
mu2 1.0
topology 2  0 1
T_low 0.001
T_high 0.01
grid_h 0.001
seed 7
horizon 1.0
x0 1.0 -1.0
x1 2.0 0.5
x2 -1.0 0.4
"""

UNSTABILIZABLE = """\
name unstab
A 2  1.0 0.0  0.0 1.0
B 2 1  0.0 0.0
mu1 1.0
mu2 1.0
topology 2  0 1  0 2
T_low 0.001
T_high 0.01
grid_h 0.001
seed 7
horizon 1.0
x0 1.0 -1.0
x1 2.0 0.5
x2 -1.0 0.4
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _overbound_path(tmp_path):
    sc = load_scenario(STATIC)
    sc = dataclasses.replace(sc, name="overbound", T_low=1.488,
                             T_high=1.488, out_traj=None, out_sched=None)
    path = tmp_path / "overbound.txt"
    path.write_text(scenario_text(sc))
    return str(path)


# ----------------------------------------------------------- synthesize

def test_synthesize_report_values(workdir, capsys):
    assert main(["synthesize", "--scenario", STATIC]) == 0
    out = capsys.readouterr().out
    assert "scenario static_demo" in out
    assert "T_bar 0.0185851" in out
    assert "K:\n  0.887356 1.21952" in out
    assert "care_residual" in out


def test_synthesize_writes_report_file(workdir, capsys):
    assert main(["synthesize", "--scenario", SWITCHING,
                 "--out", str(workdir)]) == 0
    out = capsys.readouterr().out
    report = (workdir / "switching_demo_synthesis.txt").read_text()
    assert report == out
    assert "T_bar 0.0166958" in report


# ------------------------------------------------------------- simulate

def test_simulate_writes_csv_and_summary(workdir, capsys):
    assert main(["simulate", "--scenario", STATIC]) == 0
    out = capsys.readouterr().out
    assert "wrote static_demo_trajectory.csv" in out
    assert "final error norms:" in out
    traj = (workdir / "static_demo_trajectory.csv").read_text()
    assert traj.startswith("t,x0_1,x0_2,")
    # a synthesized run carries the certificate column
    assert "nan" not in traj.splitlines()[1]
    sched = (workdir / "static_demo_schedule.csv").read_text()
    assert sched.startswith("s,t_s,T_s,mode\n0,0.0,")


def test_simulate_deterministic_bytes(workdir, capsys):
    assert main(["simulate", "--scenario", STATIC, "--out", "a"]) == 0
    assert main(["simulate", "--scenario", STATIC, "--out", "b"]) == 0
    capsys.readouterr()
    for fname in ("static_demo_trajectory.csv", "static_demo_schedule.csv"):
        assert (workdir / "a" / fname).read_bytes() == \
               (workdir / "b" / fname).read_bytes()


def test_simulate_seed_override_changes_schedule(workdir, capsys):
    assert main(["simulate", "--scenario", STATIC, "--out", "a"]) == 0
    assert main(["simulate", "--scenario", STATIC, "--out", "b",
                 "--seed", "8"]) == 0
    capsys.readouterr()
    assert (workdir / "a" / "static_demo_schedule.csv").read_bytes() != \
           (workdir / "b" / "static_demo_schedule.csv").read_bytes()


def test_seed_override_outside_64_bits_is_a_configuration_error(workdir,
                                                                capsys):
    path = workdir / "short.txt"
    path.write_text(Path(STATIC).read_text().replace("horizon 30.0",
                                                     "horizon 0.1"))
    for seed in (-1, 1 << 64):
        assert main(["simulate", "--scenario", str(path), "--out", "bad",
                     "--seed", str(seed)]) == 3
        err = capsys.readouterr().err
        assert "configuration error" in err and "unsigned 64-bit" in err
        assert not (workdir / "bad").exists()
    assert main(["simulate", "--scenario", str(path), "--out", "top",
                 "--seed", str((1 << 64) - 1)]) == 0
    assert (workdir / "top" / "static_demo_schedule.csv").exists()


def test_synthesize_has_no_seed_option(workdir, capsys):
    # a design draws no schedule, so a seed would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--scenario", STATIC, "--seed", "1"])
    assert exc.value.code == 3
    assert "--seed" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--seed" not in out and "--jobs" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--scenario", STATIC, "--no-such-option"],
    ["simulate", "--scenario", STATIC, "--seed", "abc"],
    ["enumerate", "--model", STATIC, "--followers", "two"],
    []])
def test_usage_errors_exit_3(workdir, capsys, argv):
    # exit 2 is a failed design assumption; a bad command line is a
    # configuration error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "usage: leadersync" in capsys.readouterr().err


def test_simulate_takes_the_error_norms_once(workdir, capsys, monkeypatch):
    # the summary and the CSV read one computation of the norms
    cls = leadersync.sim.SimulationResult
    norms, calls = cls.__dict__["error_norms"].func, []

    def counted(result):
        calls.append(result)
        return norms(result)

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, "error_norms")
    monkeypatch.setattr(cls, "error_norms", prop)
    assert main(["simulate", "--scenario", STATIC]) == 0
    assert len(calls) == 1
    rows = (workdir / "static_demo_trajectory.csv").read_text().splitlines()
    final = rows[-1].split(",")[-5:-1]
    assert "final error norms: " + " ".join(f"{float(v):.6g}" for v in final) \
        in capsys.readouterr().out


def test_simulate_over_bound_warns(workdir, capsys):
    path = _overbound_path(workdir)
    assert main(["simulate", "--scenario", path]) == 0
    err = capsys.readouterr().err
    assert "over-bound sampling" in err
    assert "T_bar" in err


def _star_scenario(tmp_path):
    """16 followers of 4 states each, all fed by the leader, sampled
    with gaps of up to 10000 grid steps: the transition table alone
    would hold a 64 x 64 block of doubles per step, about 330 MB."""
    lines = ["name huge_gap",
             "A 4  0 1 0 0  0 0 1 0  0 0 0 1  -1 -2 -3 -2",
             "B 4 1  0 0 0 1", "mu1 1.0", "mu2 1.0",
             "topology 16 " + " ".join(f"0 {i}" for i in range(1, 17)),
             "T_low 9.0", "T_high 10.0", "grid_h 0.001", "seed 7",
             "horizon 20.0", "output_dt 0.1", "x0 1 0 0 0"]
    lines += [f"x{i} 0 {i} 0 0" for i in range(1, 17)]
    path = tmp_path / "huge_gap.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_simulate_refuses_table_over_memory_budget(workdir, capsys):
    path = _star_scenario(workdir)
    tracemalloc.start()
    try:
        code = main(["simulate", "--scenario", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3
    assert "configuration error" in err
    assert "transition tables" in err and "MiB" in err
    # refused before the table was allocated
    assert peak < 32 * 2**20
    assert not (workdir / "huge_gap_trajectory.csv").exists()


def test_simulate_refuses_schedule_over_memory_budget(workdir, capsys):
    # 1e8 sampling gaps of one grid step: refused before any is drawn
    sc = dataclasses.replace(load_scenario(STATIC), name="long_run",
                             T_low=0.001, grid_h=0.001, horizon=1e5,
                             out_traj=None, out_sched=None)
    path = workdir / "long_run.txt"
    path.write_text(scenario_text(sc))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code = main(["simulate", "--scenario", str(path)])
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3
    assert "configuration error" in err
    assert "sampling instants" in err and "MiB" in err
    assert peak < 8 * 2**20
    assert elapsed < 10.0
    assert not (workdir / "long_run_trajectory.csv").exists()


def test_simulate_refuses_output_rows_before_drawing_schedule(workdir,
                                                              capsys):
    # 4M gaps of one grid step fit the schedule budget, but 4M output
    # rows do not: refused before a single instant is drawn
    text = Path(STATIC).read_text()
    text = text.replace("T_high 0.018", "T_high 0.001")
    text = text.replace("horizon 30.0", "horizon 4000.0")
    path = workdir / "long_rows.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        code = main(["simulate", "--scenario", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3
    assert "configuration error" in err
    assert "4000001 output rows" in err
    assert peak < 16 * 2**20
    assert not (workdir / "static_demo_trajectory.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_run_over_the_memory_budget_is_refused_before_the_design(
        workdir, capsys, monkeypatch, command):
    # 400 followers on a leader-fed ring with every gap 100 grid steps:
    # the table of any run holds 101 blocks of 802 x 802 (the followers'
    # errors and the leader), about 520 MB, so the design is not worth
    # computing
    lines = ["name wide_ring", "A 2  -0.38 0.72  -0.68 0.42",
             "B 2 1  0.26 0.31", "mu1 1.0", "mu2 1.0",
             "topology 400  0 1 " + " ".join(f"{i} {i + 1}"
                                           for i in range(1, 400)),
             "T_low 0.1", "T_high 0.1", "grid_h 0.001", "seed 7",
             "horizon 0.5", "x0 1 0"]
    lines += [f"x{i} 0 {i}" for i in range(1, 401)]
    path = workdir / "wide_ring.txt"
    path.write_text("\n".join(lines) + "\n")

    def no_design(sc):
        raise AssertionError("the design ran")

    monkeypatch.setattr(leadersync.cli, "_synthesize_for", no_design)
    assert main([command, "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "transition tables" in err and "101 steps of 802x802" in err


def test_output_dt_past_the_horizon_gives_the_same_csvs(workdir, capsys):
    # an output_dt whose grid step count passes int64 gives the rows of
    # any output_dt past the horizon: t = 0, the instants, the horizon
    text = Path(STATIC).read_text().replace("horizon 30.0", "horizon 0.1")
    for name, output_dt in (("huge", "1e300"), ("twice", "0.2")):
        path = workdir / f"{name}.txt"
        path.write_text(text + f"output_dt {output_dt}\n")
        assert main(["simulate", "--scenario", str(path), "--out",
                     name]) == 0
    capsys.readouterr()
    for csv in ("static_demo_trajectory.csv", "static_demo_schedule.csv"):
        assert (workdir / "huge" / csv).read_bytes() == \
            (workdir / "twice" / csv).read_bytes()


def test_times_beyond_the_grid_range_are_a_configuration_error(workdir,
                                                                 capsys):
    # 1e300 / 1e-10 overflows the float range: off the grid, not a numpy
    # warning (the test settings turn warnings into errors)
    text = Path(STATIC).read_text()
    for key, value in (("T_low", "1e300"), ("T_high", "1e300"),
                       ("grid_h", "1e-10"), ("horizon", "1e300")):
        text = "\n".join(f"{key} {value}" if ln.startswith(key + " ")
                         else ln for ln in text.splitlines()) + "\n"
    path = workdir / "huge_times.txt"
    path.write_text(text)
    assert main(["simulate", "--scenario", str(path)]) == 3
    assert "not a whole number of grid steps" in capsys.readouterr().err


# --------------------------------------------------------------- verify

def test_verify_passes_within_bound(workdir, capsys):
    assert main(["verify", "--scenario", STATIC]) == 0
    out = capsys.readouterr().out
    assert "verdict PASS" in out
    assert "interval-max violations 0" in out
    # no CSV unless --out is given
    assert not list(workdir.iterdir())


def test_verify_switching_passes(workdir, capsys):
    assert main(["verify", "--scenario", SWITCHING]) == 0
    assert "verdict PASS" in capsys.readouterr().out


def test_verify_flags_over_bound_run(workdir, capsys):
    path = _overbound_path(workdir)
    assert main(["verify", "--scenario", path, "--out", "v"]) == 1
    captured = capsys.readouterr()
    assert "verdict FAIL" in captured.out
    assert "bound infeasible" in captured.out
    assert "over-bound sampling" in captured.err
    assert (workdir / "v" / "overbound_trajectory.csv").exists()


@pytest.mark.parametrize("x0", ["1e160 -1e160", "1e308 -1e308"])
def test_verify_fails_when_V_leaves_the_float_range(workdir, capsys, x0):
    # the states are finite but V overflows: inf / inf ratios and
    # inf - inf excesses are NaN, which must not read as a vacuous pass
    text = Path(STATIC).read_text().replace("horizon 30.0", "horizon 0.1")
    text = "\n".join(f"x0 {x0}" if ln.startswith("x0 ") else ln
                     for ln in text.splitlines()) + "\n"
    path = workdir / "huge_leader.txt"
    path.write_text(text)
    assert main(["verify", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert "worst slack inf" in captured.out
    # an overflowed V is a ratio of inf, never the 0 of a vacuous run
    assert "worst ratio inf\n" in captured.out
    assert "verdict FAIL: interval 0 ratio inf exceeds threshold" in \
        captured.out
    assert "left the float range" in captured.err


def test_verify_names_interval_violations_when_the_ratios_pass(
        workdir, capsys, monkeypatch):
    # no shipped run reaches this verdict, so the report is stubbed:
    # every ratio within rho, but V rises inside two intervals
    trace = leadersync.cli.lyapunov_trace

    def stub(result, synth):
        return dataclasses.replace(trace(result, synth),
                                   interval_violations=2,
                                   worst_interval_slack=0.25)

    monkeypatch.setattr(leadersync.cli, "lyapunov_trace", stub)
    assert main(["verify", "--scenario", STATIC]) == 1
    out = capsys.readouterr().out
    assert "interval-max violations 2 (worst slack 0.25)\n" in out
    assert out.endswith(
        "verdict FAIL: 2 interval-max violations, worst slack 0.25\n")


def test_ladder_past_the_float_range_is_refused(workdir, capsys):
    # a subnormal mu2 is positive and finite but overflows alpha3; the
    # design that would certify nothing (T_bar 0, rho nan) is refused
    assert main(["enumerate", "--model", STATIC, "--followers", "2",
                 "--mu2", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: the parameter ladder left "
                            "the float range: alpha3 = inf\n")
    path = workdir / "tiny_mu2.txt"
    path.write_text(Path(STATIC).read_text().replace("mu2 1.0", "mu2 1e-320"))
    assert main(["verify", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert "alpha3 = inf" in captured.err


@pytest.mark.parametrize("command", ["synthesize", "verify"])
@pytest.mark.parametrize("D,err", [
    ("1e307 1e307 1e307 1e307", "the parameter ladder left the float "
                                "range: alpha3 = inf"),
    ("1e308 1e308 1e308 1e308", "S contains non-finite entries"),
    ("1e200 1 1 1", "D does not certify definiteness for every graph to "
                    "within rounding: lambda_min = 0.000e+00"),
], ids=["ladder", "margin", "rounding"])
def test_scaling_past_the_float_range_is_one_typed_line(workdir, capsys,
                                                        command, D, err):
    # 1e307 squares past the float range in the ladder, where ** on a
    # Python float raises OverflowError; 1e308 overflows D H itself,
    # which numpy would warn about (an error under the test settings);
    # beside 1e200 the margin of D H + H^T D is within rounding of 0
    path = workdir / "huge_D.txt"
    path.write_text(_short(Path(STATIC).read_text(), "huge_D") + f"D {D}\n")
    assert main([command, "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {err}\n"


def test_a_lyapunov_system_past_the_float_range_is_one_typed_line(
        workdir, capsys):
    # the Newton step's Kronecker system doubles the -1e308 of A to -inf;
    # it is refused by name, not later as an indefinite solution
    path = workdir / "huge_a.txt"
    path.write_text(Path(STATIC).read_text().replace(
        "A 2 -0.38 0.72 -0.68 0.42", "A 2 -0.38 -0.38 0.42 -1e308"))
    assert main(["synthesize", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure: ")
    assert "left the float range" in captured.err


HUGE_GAPS = """\
name huge_gaps
A 2  -1 0  0 -1
B 2 1  1 0
mu1 1.0
mu2 1.0
topology 2  0 1  0 2
T_low 1e150
T_high 1e155
grid_h 1e150
seed 7
horizon 1e156
output_dt 1e156
x0 1.0 -1.0
x1 2.0 0.5
x2 -1.0 0.4
"""


def test_verify_bound_past_the_float_range_is_infeasible(workdir, capsys):
    # T_high ** 2 overflows a Python float: the bound is reported as
    # infeasible with rho = inf, not as an OverflowError traceback
    path = workdir / "huge_gaps.txt"
    path.write_text(HUGE_GAPS)
    assert main(["verify", "--scenario", str(path)]) == 0
    captured = capsys.readouterr()
    assert "rho inf (threshold 1, bound infeasible)\n" in captured.out
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("warning: over-bound sampling: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", STATIC, "--seed", "1" * 5000],
    ["verify", "--scenario", STATIC, "--jobs", "1" * 5000],
    ["enumerate", "--model", STATIC, "--followers", "1" * 5000],
    ["enumerate", "--model", STATIC, "--followers", "2", "--mu1", "x" * 5000],
    ["enumerate", "--model", STATIC, "--followers", "2", "--mu2", "x" * 5000],
], ids=["seed", "jobs", "followers", "mu1", "mu2"])
def test_oversized_numeric_option_is_a_bounded_usage_error(workdir, capsys,
                                                           argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: leadersync") and len(err) < 400
    message = err.splitlines()[-1]
    option = argv[-2]
    if argv[-1][0] == "1":
        assert message.endswith(f"argument {option}: 111111111111... has "
                                f"5000 digits, too many to read")
    else:
        assert message.endswith(f"argument {option}: not a number: "
                                f"'xxxxxxxxxxxx...'")


def test_verify_batch_jobs(workdir, capsys):
    assert main(["verify", "--scenario", STATIC, SWITCHING,
                 "--out", "batch", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.index("scenario static_demo") < \
        out.index("scenario switching_demo")
    assert out.count("verdict PASS") == 2
    assert (workdir / "batch" / "static" /
            "static_demo_trajectory.csv").exists()
    assert (workdir / "batch" / "switching" /
            "switching_demo_trajectory.csv").exists()


def test_simulate_and_verify_write_the_same_csvs(workdir, capsys):
    paths = []
    for demo, src in (("static", STATIC), ("switching", SWITCHING)):
        path = workdir / f"{demo}.txt"
        path.write_text(_short(Path(src).read_text(), demo))
        paths.append(str(path))
    for command in ("simulate", "verify"):
        assert main([command, "--scenario", *paths, "--out", command]) == 0
    capsys.readouterr()
    written = sorted(p.relative_to(workdir / "simulate")
                     for p in (workdir / "simulate").rglob("*.csv"))
    assert len(written) == 4
    assert written == sorted(p.relative_to(workdir / "verify")
                             for p in (workdir / "verify").rglob("*.csv"))
    for rel in written:
        assert (workdir / "simulate" / rel).read_bytes() == \
            (workdir / "verify" / rel).read_bytes()


def test_batch_worst_code_wins(workdir, capsys):
    path = _overbound_path(workdir)
    assert main(["verify", "--scenario", STATIC, path]) == 1
    out = capsys.readouterr().out
    assert "verdict PASS" in out and "verdict FAIL" in out


def _short(text, name, seed=7):
    """A demo scenario cut to a 1 s horizon, renamed and reseeded."""
    rest = text.split("\n", 1)[1]
    return (f"name {name}\n" + rest.replace("horizon 30.0", "horizon 1.0")
            .replace("seed 7\n", f"seed {seed}\n")
            .replace("out_traj", "# out_traj").replace("out_sched",
                                                       "# out_sched"))


def _demo_batch(workdir):
    """The two demos at two seeds each, as four scenario files."""
    paths = []
    for demo, src in (("static", STATIC), ("switching", SWITCHING)):
        for seed in (7, 8):
            path = workdir / f"{demo}_s{seed}.txt"
            path.write_text(_short(Path(src).read_text(), path.stem, seed))
            paths.append(str(path))
    return paths


@pytest.fixture
def design_calls(monkeypatch):
    """The arguments of every synthesize and find_common_D call the CLI
    makes, and a copy of every design synthesize returns."""
    calls = {"synthesize": [], "find_common_D": [], "designs": []}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name].append(args)
            res = real(*args, **kwargs)
            if name == "synthesize":
                calls["designs"].append((res, copy.deepcopy(res)))
            return res
        monkeypatch.setattr(leadersync.cli, name, call)

    counted("synthesize", leadersync.cli.synthesize)
    counted("find_common_D", leadersync.cli.find_common_D)
    return calls


@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify"])
def test_batch_designs_each_distinct_design_once(workdir, capsys,
                                                 design_calls, command):
    paths = _demo_batch(workdir)
    argv = [command, "--scenario"] + paths + ["--out", "batch"]
    assert main(argv) == 0
    assert len(design_calls["synthesize"]) == 2
    assert len(design_calls["find_common_D"]) == 2
    batch = capsys.readouterr()
    assert batch.out.count("scenario ") == 4
    # nothing downstream writes into a shared design
    for res, before in design_calls["designs"]:
        for f in dataclasses.fields(res):
            assert np.array_equal(getattr(res, f.name),
                                  getattr(before, f.name))
    # the batch reads as its scenarios run one by one
    singles = []
    for path in paths:
        out = str(workdir / "single" / Path(path).stem)
        assert main([command, "--scenario", path, "--out", out]) == 0
        singles.append(capsys.readouterr())
    assert len(design_calls["synthesize"]) == 6
    if command != "simulate":  # simulate names its CSV paths
        assert batch.out == "".join(c.out for c in singles)
    assert batch.err == "".join(c.err for c in singles)
    for path in paths:
        stem = Path(path).stem
        for f in (workdir / "single" / stem).iterdir():
            assert (workdir / "batch" / stem / f.name).read_bytes() == \
                f.read_bytes()


def test_each_main_call_designs_again(workdir, capsys, design_calls):
    paths = _demo_batch(workdir)
    for _ in range(2):
        assert main(["verify", "--scenario"] + paths) == 0
    assert len(design_calls["synthesize"]) == 4


@pytest.fixture
def care_solves(monkeypatch):
    """The arguments of every Riccati solve a design makes."""
    solves = []
    real = leadersync.synthesis.solve_care

    def counted(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(leadersync.synthesis, "solve_care", counted)
    return solves


@pytest.mark.parametrize("command", ["synthesize", "verify"])
def test_designs_over_one_agent_model_share_one_riccati_solve(
        workdir, capsys, design_calls, care_solves, command):
    paths = _demo_batch(workdir)
    assert main([command, "--scenario"] + paths) == 0
    assert len(design_calls["synthesize"]) == 2
    assert len(care_solves) == 1
    (static, _), (switching, _) = design_calls["designs"]
    assert static.P is switching.P and not static.P.flags.writeable
    shared = capsys.readouterr()
    # another mu1 is another agent model
    Path(paths[2]).write_text(
        Path(paths[2]).read_text().replace("mu1 1.0", "mu1 2.0"))
    assert main([command, "--scenario"] + paths) == 0
    assert len(care_solves) == 3
    capsys.readouterr()
    # and nothing is kept from one main() call to the next
    Path(paths[2]).write_text(
        Path(paths[2]).read_text().replace("mu1 2.0", "mu1 1.0"))
    assert main([command, "--scenario"] + paths) == 0
    assert len(care_solves) == 4
    assert capsys.readouterr() == shared


def test_a_demo_batch_takes_one_spectrum_of_p_per_agent_model(
        workdir, capsys, monkeypatch):
    # the definiteness check of the Riccati solve gives the ladder its
    # extreme eigenvalues of P; counted at every binding of the function
    calls = []
    real = leadersync.numerics.linalg.sym_eig_extremes

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (leadersync.numerics.linalg, leadersync.synthesis):
        monkeypatch.setattr(module, "sym_eig_extremes", counted,
                            raising=False)
    assert main(["synthesize", "--scenario"] + _demo_batch(workdir)) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.count("scenario ") == 4


def test_the_demo_designs_build_no_quotient_scaling(workdir, capsys,
                                                    monkeypatch):
    # the identity certifies both demos, so no per-graph scaling is built
    calls = []
    real = leadersync.synthesis.construct_D

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(leadersync.synthesis, "construct_D", counted)
    assert main(["synthesize", "--scenario"] + _demo_batch(workdir)) == 0
    assert calls == []
    assert "D: 1 1 1 1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify"])
def test_an_unstabilizable_pair_fails_alike_in_a_batch(workdir, capsys,
                                                       care_solves, command):
    paths = []
    # the same agent model over two graphs: two designs
    for name, edges in (("u1", "0 1  0 2"), ("u2", "0 1  1 2")):
        path = workdir / f"{name}.txt"
        path.write_text(UNSTABILIZABLE.replace("0 1  0 2", edges))
        paths.append(str(path))
    assert main([command, "--scenario", paths[0]]) == 2
    single = capsys.readouterr()
    assert single.out == ""
    assert single.err.startswith("assumption failure: Assumption 1 ")
    assert main([command, "--scenario"] + paths) == 2
    batch = capsys.readouterr()
    assert batch.out == "" and batch.err == 2 * single.err
    # a failed solve is not kept, so each scenario solves and fails
    assert len(care_solves) == 3


def test_scenarios_that_differ_in_what_the_design_reads_are_designed_apart(
        workdir, capsys, design_calls):
    static = _short(Path(STATIC).read_text(), "base")
    D = find_common_D([build_H(t) for t in load_scenario(STATIC).topologies])
    switching = _short(Path(SWITCHING).read_text(), "modes")
    tops = [l for l in switching.splitlines() if l.startswith("topology")]
    variants = {
        "base": static,
        "copy": static.replace("x1 2.4 -1.6", "x1 0.0 0.0"),
        "mu1": static.replace("mu1 1.0", "mu1 2.0"),
        "D": static + "D " + " ".join(repr(float(d)) for d in D) + "\n",
        # leader -> 2 becomes 1 -> 2: every follower stays reachable
        "edge": static.replace("topology 4 0 1 0 2 ",
                               "topology 4 0 1 1 2 "),
        "modes": switching,
        "order": switching.replace(tops[0], "@").replace(tops[1], tops[0])
                          .replace("@", tops[1]),
    }
    paths = []
    for name, text in variants.items():
        path = workdir / f"{name}.txt"
        path.write_text(text)
        paths.append(str(path))
    assert main(["synthesize", "--scenario"] + paths) == 0
    # the copy differs only in an initial state, which no design reads
    assert len(design_calls["synthesize"]) == len(paths) - 1
    mu1s = [args[2] for args in design_calls["synthesize"]]
    assert mu1s == [1.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    assert design_calls["synthesize"][2][4] is not None
    orders = [args[5] for args in design_calls["synthesize"][4:]]
    assert [H.tobytes() for H in orders[0]] == \
        [H.tobytes() for H in orders[1][::-1]]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify"])
def test_a_failed_design_is_reported_for_each_scenario(workdir, capsys,
                                                       design_calls, command):
    paths = []
    for name in ("u1", "u2"):
        path = workdir / f"{name}.txt"
        path.write_text(UNREACHABLE)
        paths.append(str(path))
    assert main([command, "--scenario"] + paths) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("assumption failure: Assumption 2") == 2
    assert design_calls["synthesize"] == []


def test_a_fixed_gain_is_simulated_when_its_design_fails(workdir, capsys):
    # follower 4 has no path from the leader, so no design exists
    text = _short(Path(STATIC).read_text(), "fixed").replace(
        "topology 4 0 1 0 2 1 3 2 4 3 2 4 3", "topology 4 0 1 1 2 2 3")
    (workdir / "fixed.txt").write_text(text + "K 0.5 0.5\n")
    assert main(["simulate", "--scenario", "fixed.txt", "--out", "o"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "wrote o/fixed_trajectory.csv" in captured.out
    rows = (workdir / "o" / "fixed_trajectory.csv").read_text().splitlines()
    assert rows[0].endswith(",V") and len(rows) == 1002
    assert all(row.endswith(",nan") for row in rows[1:])
    # the certificate needs the design
    assert main(["verify", "--scenario", "fixed.txt", "--out", "v"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("assumption failure: Assumption 2 ")
    assert not (workdir / "v").exists()


def test_batch_refuses_to_write_one_file_twice(workdir, capsys):
    text = _short(Path(STATIC).read_text(), "static_demo")
    for d, seed in (("a", 7), ("b", 8)):
        (workdir / d).mkdir()
        (workdir / d / "static.txt").write_text(
            _short(Path(STATIC).read_text(), "static_demo", seed))
    batch = ["a/static.txt", "b/static.txt"]
    assert main(["simulate", "--scenario", *batch, "--out", "OUT"]) == 3
    captured = capsys.readouterr()
    traj = "OUT/static/static_demo_trajectory.csv"
    assert captured.out.count(f"wrote {traj}") == 1
    assert captured.err == (f"configuration error: {traj} was already "
                            f"written by an earlier scenario of this batch\n")
    assert main(["simulate", "--scenario", "a/static.txt", "--out",
                 "alone"]) == 0
    capsys.readouterr()
    for f in (workdir / "alone").iterdir():
        assert (workdir / "OUT" / "static" / f.name).read_bytes() == \
            f.read_bytes()
    for command, written in (("verify", traj),
                             ("synthesize",
                              "OUT/static/static_demo_synthesis.txt")):
        assert main([command, "--scenario", *batch, "--out", "OUT"]) == 3
        err = capsys.readouterr().err
        assert err == (f"configuration error: {written} was already "
                       f"written by an earlier scenario of this batch\n")
    # a path is the same file however it is spelt
    for stem in ("one", "two"):
        (workdir / f"{stem}.txt").write_text(
            text + "out_sched ../shared.csv\n")
    assert main(["verify", "--scenario", "one.txt", "two.txt", "--out",
                 "S"]) == 3
    assert capsys.readouterr().err == (
        "configuration error: S/two/../shared.csv was already written "
        "by an earlier scenario of this batch\n")
    # without --out each run writes its CSVs into the working directory
    assert main(["simulate", "--scenario", *batch]) == 3
    assert "static_demo_trajectory.csv was already written" in \
        capsys.readouterr().err


def test_scenario_whose_two_outputs_coincide_is_refused(workdir, capsys,
                                                        design_calls):
    path = workdir / "same.txt"
    path.write_text(_short(Path(STATIC).read_text(), "same")
                    + "out_traj run.csv\nout_sched ./run.csv\n")
    for command in ("simulate", "verify"):
        assert main([command, "--scenario", str(path), "--out", "o"]) == 3
        assert capsys.readouterr().err == (
            "configuration error: the trajectory and the schedule would "
            "both be written to o/./run.csv\n")
    assert not (workdir / "o").exists()
    assert design_calls["synthesize"] == []


@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify"])
def test_an_out_path_at_or_under_a_file_is_refused_before_the_design(
        workdir, capsys, design_calls, command):
    (workdir / "afile").write_text("x\n")
    paths = _demo_batch(workdir)[:2]
    before = sorted(workdir.rglob("*"))
    exists = os.strerror(errno.EEXIST)
    notdir = os.strerror(errno.ENOTDIR)
    cases = [([paths[0]], "afile",
              [f"[Errno {errno.EEXIST}] {exists}: 'afile'"]),
             ([paths[0]], "afile/sub/dir",
              [f"[Errno {errno.ENOTDIR}] {notdir}: 'afile/sub'"]),
             (paths, "afile",
              [f"[Errno {errno.ENOTDIR}] {notdir}: 'afile/{Path(p).stem}'"
               for p in paths])]
    for scenarios, out, errs in cases:
        assert main([command, "--scenario", *scenarios, "--out", out]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "".join(f"i/o error: {e}\n" for e in errs)
    assert design_calls["synthesize"] == []
    assert design_calls["find_common_D"] == []
    assert sorted(workdir.rglob("*")) == before


def _makedirs_outcome(call, path):
    """(class, errno, filename) of the OSError call(path) raises, or
    None."""
    try:
        call(path)
    except OSError as exc:
        return type(exc), exc.errno, exc.filename
    return None


@pytest.mark.parametrize("path", [
    "afile", "afile/sub", "afile/sub/dir", "dangling", "dangling/sub",
    "lfile", "lfile/sub", "ldir/new", "d", "new/sub", "afile/"])
def test_the_out_check_raises_what_makedirs_raises(tmp_path, monkeypatch,
                                                  path):
    def tree(root):
        root.mkdir()
        (root / "afile").write_text("x\n")
        (root / "d").mkdir()
        (root / "dangling").symlink_to(root / "nowhere")
        (root / "lfile").symlink_to(root / "afile")
        (root / "ldir").symlink_to(root / "d")
        return root

    checked = tree(tmp_path / "checked")
    made = tree(tmp_path / "made")
    before = sorted(checked.rglob("*"))
    monkeypatch.chdir(checked)
    got = _makedirs_outcome(leadersync.cli._check_makeable, path)
    assert sorted(checked.rglob("*")) == before
    monkeypatch.chdir(made)
    want = _makedirs_outcome(
        lambda p: os.makedirs(p, exist_ok=True), path)
    assert got == want


# -------------------------------------------------------- failure modes

def test_unreachable_names_assumption_2(workdir, capsys):
    path = workdir / "unreach.txt"
    path.write_text(UNREACHABLE)
    assert main(["synthesize", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Assumption 2" in err
    assert "reachable" in err


def test_unstabilizable_names_assumption_1(workdir, capsys):
    path = workdir / "unstab.txt"
    path.write_text(UNSTABILIZABLE)
    assert main(["synthesize", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Assumption 1" in err


# D = I makes D H + H^T D exactly singular on this graph, though
# eigvalsh may put its least eigenvalue a few ulps above 0
NOISE_FAMILY = """\
name noise
A 1  0.5
B 1 1  1.0
mu1 1.0
mu2 1.0
topology 4  4 1  1 2  3 2  1 3  4 3  1 4  2 4  0 4
T_low 0.001
T_high 0.002
grid_h 0.001
seed 7
horizon 1.0
x0 1.0
x1 1.0
x2 1.0
x3 1.0
x4 1.0
"""


def test_a_scaling_margin_within_rounding_is_passed_over(workdir, capsys):
    path = workdir / "noise.txt"
    path.write_text(NOISE_FAMILY)
    assert main(["synthesize", "--scenario", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "D: 1 0.243243 0.189189 0.555985" in lines
    assert "lam1 0.212634" in lines
    T_bar = [float(ln.split()[1]) for ln in lines if ln.startswith("T_bar ")]
    assert T_bar[0] > 1e-6


def test_parse_error_exits_3(workdir, capsys):
    path = workdir / "bad.txt"
    path.write_text(UNREACHABLE.replace("mu1 1.0", "mu1 huh"))
    assert main(["synthesize", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line 4" in err


def test_missing_file_exits_4(workdir, capsys):
    assert main(["simulate", "--scenario", "no_such_file.txt"]) == 4
    assert "i/o error" in capsys.readouterr().err


# ------------------------------------------------------------ enumerate

def test_enumerate_enumerates_once(workdir, capsys, monkeypatch):
    calls = []
    real = leadersync.graph.admissible_laplacians

    def counted(N):
        calls.append(N)
        return real(N)

    for module in (leadersync.cli, leadersync.synthesis):
        monkeypatch.setattr(module, "admissible_laplacians", counted)
    assert main(["enumerate", "--model", STATIC, "--followers", "2"]) == 0
    assert calls == [2]
    out = capsys.readouterr().out
    assert "admissible graphs 32\n" in out
    sc = load_scenario(STATIC)
    res = worst_case_params(sc.A, sc.B, 1.0, 1.0, 2)
    assert f"T_bar {res.T_bar:.6g}\n" in out



@pytest.mark.parametrize("followers, digest", [
    (1, "06e4282102eb2b45c2f69e355b2ee4a8ac15a9b7cf602fe7522d80d03a0503a5"),
    (2, "ac44c44d8cee2c1be24c103f6738a8050a43bf070ee56b6d5873319592f42eee"),
    (3, "9bf67fffcab9a3c35b2ce5906ac269f00daac0da2cf756c7d04b39be99e53447")])
def test_enumerate_output_is_pinned(workdir, capsys, followers, digest):
    # the largest norms over the stack are taken from the SVD of only
    # the graphs that can set them; the bytes are those of the SVD of
    # every graph
    assert main(["enumerate", "--model", STATIC,
                 "--followers", str(followers)]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == ""


def test_enumerate_single_follower_matches_static_design(workdir, capsys):
    assert main(["enumerate", "--model", STATIC, "--followers", "1"]) == 0
    out = capsys.readouterr().out
    assert "admissible graphs 2" in out
    H = build_H(Topology(1, frozenset([(0, 1)])))
    res = synthesize(np.array([[-0.38, 0.72], [-0.68, 0.42]]),
                     np.array([[0.26], [0.31]]), 1.0, 1.0,
                     np.array([1.0]), [H])
    assert ("T_bar %.6g" % res.T_bar) in out
    assert ("  %.6g %.6g" % (res.K[0, 0], res.K[0, 1])) in out


def test_enumerate_weight_overrides(workdir, capsys):
    assert main(["enumerate", "--model", STATIC, "--followers", "1",
                 "--mu1", "2.0", "--mu2", "0.5"]) == 0
    out = capsys.readouterr().out
    H = build_H(Topology(1, frozenset([(0, 1)])))
    res = synthesize(np.array([[-0.38, 0.72], [-0.68, 0.42]]),
                     np.array([[0.26], [0.31]]), 2.0, 0.5,
                     np.array([1.0]), [H])
    assert ("T_bar %.6g" % res.T_bar) in out


def test_enumerate_too_many_followers(workdir, capsys):
    assert main(["enumerate", "--model", STATIC, "--followers", "4"]) == 2
    assert "enumeration refused" in capsys.readouterr().err


def test_enumerate_overflowing_riccati_solution_is_one_typed_line(workdir,
                                                                 capsys):
    # the Riccati residual overflows, or the rounded solution is
    # indefinite; each is refused as a numerical failure, with no numpy
    # warning (an error under the test settings)
    for mu1, mu2, message in (
            ("1e-160", "1e-200", "the residual left the float range"),
            ("1e-300", "1e-10", "solution is not positive definite")):
        assert main(["enumerate", "--model", STATIC, "--followers", "2",
                     "--mu1", mu1, "--mu2", mu2]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: " + message)
        assert err.count("\n") == 1


@pytest.mark.parametrize("mu1", ["inf", "nan"])
def test_enumerate_non_finite_weight_is_a_configuration_error(workdir,
                                                              capsys, mu1):
    # refused before the Riccati solve; the test settings turn numpy
    # warnings into errors
    assert main(["enumerate", "--model", STATIC, "--followers", "2",
                 "--mu1", mu1]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err and "finite" in err
    assert "RuntimeWarning" not in err


def test_every_error_class_maps_to_its_exit_code():
    # the code the cli module docstring documents for each class; a
    # class added to or removed from leadersync.errors must be entered
    # here too
    want = {"LeaderSyncError": 2, "InvalidMatrix": 2, "NumericalOverflow": 2,
            "EigenFailure": 2, "LyapunovSingular": 2, "NotStabilizable": 2,
            "CareFailure": 2, "UnreachableGraph": 2,
            "DConstructionFailure": 2, "CommonDNotFound": 2,
            "EnumerationTooLarge": 2, "IncompleteTrace": 2,
            "InvalidTime": 3, "InvalidSchedule": 3, "ScenarioError": 3}
    found = {name: cls for name, cls in inspect.getmembers(errors,
                                                           inspect.isclass)
             if issubclass(cls, errors.LeaderSyncError)}
    assert sorted(found) == sorted(want)
    cases = [(cls, want[name]) for name, cls in found.items()]
    for cls, code in cases + [(ValueError, 3), (OSError, 4)]:
        assert _map_exception(cls("boom"))[0] == code, cls.__name__


# ------------------------------------------------------- public surface

def test_public_surface():
    assert sorted(leadersync.__all__) == sorted([
        "Topology", "SwitchingSignal", "build_H", "find_common_D",
        "synthesize", "worst_case_params",
        "gen_schedule", "simulate", "lyapunov_trace",
        "write_trajectory_csv", "write_schedule_csv",
        "load_scenario", "parse_scenario", "scenario_text", "main",
        "Scenario", "SynthesisResult", "SamplingSchedule",
        "SimulationResult", "ContractionReport", "LeaderSyncError"])
    for name in leadersync.__all__:
        assert getattr(leadersync, name) is not None


def test_readme_library_example():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "ls.lyapunov_trace(run, design)" in code
    exec(compile(code, "README.md", "exec"), {})


# ------------------------------------------------------------ subprocess

def test_the_parser_is_built_once_per_process():
    assert leadersync.cli._build_parser() is leadersync.cli._build_parser()


def test_a_reused_parser_prints_what_a_fresh_process_prints(
        workdir, capsys, monkeypatch, source_env):
    # a usage error, then valid commands, in one process: each prints
    # what it prints in a process of its own, the usage text wrapped at
    # the width set when it is printed, not when the parser was built
    leadersync.cli._build_parser()
    monkeypatch.setenv("COLUMNS", "50")
    source_env["COLUMNS"] = "50"
    for argv in (["enumerate", "--model", STATIC, "--followers", "two"],
                 ["enumerate", "--model", STATIC, "--followers", "2"],
                 ["synthesize", "--scenario", STATIC, "--bogus"],
                 ["synthesize", "--scenario", STATIC, SWITCHING]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "leadersync", *argv],
                              capture_output=True, text=True, cwd=workdir,
                              env=source_env, timeout=300)
        assert (code, captured.out, captured.err) == (
            proc.returncode, proc.stdout, proc.stderr), argv
    assert code == 0


def test_module_entry_point(tmp_path, source_env):
    proc = subprocess.run(
        [sys.executable, "-m", "leadersync", "synthesize",
         "--scenario", STATIC],
        capture_output=True, text=True, cwd=tmp_path, env=source_env,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "T_bar 0.0185851" in proc.stdout


def test_verify_leaves_numpy_ma_unimported(tmp_path, source_env):
    # numpy.ma costs about 11 ms to import, and no command needs it or
    # the other modules below: each would add its import to every run
    unused = ["numpy.ma", "numpy.polynomial", "numpy.random", "scipy"]
    commands = [["verify", "--scenario", STATIC],
                ["simulate", "--scenario", STATIC, "--out", "sim"],
                ["synthesize", "--scenario", STATIC],
                ["enumerate", "--model", STATIC, "--followers", "3"]]
    code = ("import sys\n"
            "from leadersync.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    code = main(argv)\n"
            f"    loaded = [m for m in {unused!r} if m in sys.modules]\n"
            "    print('exit', argv[0], code, loaded)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path, env=source_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "verdict PASS" in proc.stdout
    assert [ln for ln in proc.stdout.splitlines() if ln.startswith("exit ")] \
        == [f"exit {argv[0]} 0 []" for argv in commands]


def test_diverging_run_warns_once_without_numpy_warnings(tmp_path,
                                                         source_env):
    # gaps of 3 s, about 160 times T_bar: the states grow past 1e220,
    # so the error norms and V overflow before the horizon
    sc = dataclasses.replace(load_scenario(STATIC), name="diverge",
                             T_low=3.0, T_high=3.0, horizon=1200.0,
                             output_dt=3.0, out_traj=None, out_sched=None)
    path = tmp_path / "diverge.txt"
    path.write_text(scenario_text(sc))
    for command, want in (("simulate", 0), ("verify", 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "leadersync", command,
             "--scenario", str(path), "--out", str(tmp_path / command)],
            capture_output=True, text=True, cwd=tmp_path, env=source_env,
            timeout=300)
        assert proc.returncode == want, proc.stderr
        assert proc.stderr.count(
            "warning: the state left the float range at t = ") == 1
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "over-bound sampling" in proc.stderr
    assert "verdict FAIL" in proc.stdout


def test_verify_warns_once_when_only_V_leaves_the_float_range(workdir, capsys,
                                                             monkeypatch):
    # errors of about 1e154 are finite, but e' P e passes the float
    # range at t = 0; the run decays, so V is finite later
    base = load_scenario(STATIC)
    sc = dataclasses.replace(base, name="huge_v", horizon=0.5,
                             x0_followers=base.x0_followers * 1e154,
                             out_traj=None, out_sched=None)
    path = workdir / "huge_v.txt"
    path.write_text(scenario_text(sc))
    runs, simulate = [], leadersync.cli.simulate
    monkeypatch.setattr(leadersync.cli, "simulate",
                        lambda *a: runs.append(simulate(*a)) or runs[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--scenario", str(path)]) == 1
    [res] = runs
    assert np.isfinite(res.errors).all() and np.isfinite(res.leader).all()
    out, err = capsys.readouterr()
    assert err.splitlines().count(
        "warning: the state left the float range at t = 0") == 1
    assert err.count("float range") == 1
    assert "verdict FAIL" in out


# ----------------------------------------------------------------- fuzz

FUZZ_BASE = Path(SWITCHING).read_text().replace("horizon 30.0",
                                                "horizon 0.05")
FUZZ_TOKENS = ["0", "1", "-1", "2", "4", "0.5", "0.001", "0.02", "1e-300",
               "1e308", "-0.0", "nan", "inf", "x", "", "A", "B", "topology",
               "phase", "period", "output_dt", "K", "D", "x5", "horizon"]


@st.composite
def mutated_scenarios(draw):
    """The switching demo with a few tokens replaced, dropped or
    inserted and lines duplicated. Replacements and insertions go
    after the key, so most mutants parse and reach the numerics."""
    lines = [ln.split(" ") for ln in FUZZ_BASE.splitlines()]
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["replace", "replace", "drop", "insert",
                                   "dup"]),
                  st.integers(0, 10**6), st.integers(0, 10**6),
                  st.sampled_from(FUZZ_TOKENS)),
        min_size=1, max_size=3))
    for op, i, j, tok in ops:
        line = lines[i % len(lines)]
        if op == "dup":
            lines.insert(i % len(lines), list(line))
        elif op == "insert":
            line.insert(1 + j % (len(line) or 1), tok)
        elif op == "drop":
            if line:
                del line[j % len(line)]
        elif len(line) > 1:
            line[1 + j % (len(line) - 1)] = tok
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(text=mutated_scenarios())
def test_cli_never_raises_on_mutated_scenarios(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.txt"
    path.write_text(text)
    sink = io.StringIO()
    for argv in (["verify", "--scenario", str(path)],
                 ["enumerate", "--model", str(path), "--followers", "2"]):
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main(argv)
        assert isinstance(code, int) and 0 <= code <= 4, (argv, code)


# values at both ends of the float range, signed zeros and moderate ones
EXTREMES = ["1.5e+308", "-1.5e+308", "1e+308", "-1e+308", "5e+307",
            "1e-308", "1e-320", "0", "-0.0", "1e+154", "1e+200", "3", "-3",
            "1e-30", "1e+30"]
EXTREME_KEYS = ["A", "B", "mu1", "mu2", "x0", "x1", "K", "D", "grid_h",
                "T_low", "T_high", "horizon"]
# the static demo under a fixed gain, on its own grid and on a grid of
# 1 s, where an entry of A near the float limit reaches the exponential
# of the agent unscaled
EXTREME_BASES = [
    Path(STATIC).read_text().replace("horizon 30.0", "horizon 0.05")
    + "K 0.5 0.5\n"]
EXTREME_BASES.append(
    EXTREME_BASES[0].replace("T_low 0.001", "T_low 1.0")
    .replace("T_high 0.018", "T_high 2.0")
    .replace("grid_h 0.001", "grid_h 1.0")
    .replace("horizon 0.05", "horizon 4.0"))


def _extreme_scenario(rng, base):
    """base with one entry of each of 1-3 keys set to an extreme value;
    a D line is added when D is drawn."""
    lines = [ln.split() for ln in base.splitlines()]
    for key in rng.sample(EXTREME_KEYS, rng.randint(1, 3)):
        if key == "D":
            lines.append(["D", "1", "1", "1", "1"])
        line = next(ln for ln in lines if ln[0] == key)
        first = {"A": 2, "B": 3}.get(key, 1)  # after the dimensions
        line[rng.randrange(first, len(line))] = rng.choice(EXTREMES)
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


def test_cli_meets_extreme_values_with_an_exit_code(tmp_path, monkeypatch):
    # overflow, underflow and zero anywhere in a scenario end in an exit
    # code, with no traceback and no numpy warning; under a fixed gain
    # simulate runs even where the design fails
    monkeypatch.chdir(tmp_path)
    rng = random.Random(11)
    sink = io.StringIO()
    for k in range(200):
        path = tmp_path / f"extreme{k}.txt"
        path.write_text(_extreme_scenario(rng, EXTREME_BASES[k % 2]))
        for argv in (["synthesize", "--scenario", str(path)],
                     ["verify", "--scenario", str(path)],
                     ["simulate", "--scenario", str(path),
                      "--out", str(tmp_path / f"out{k}")],
                     ["enumerate", "--model", str(path), "--followers", "2"]):
            with warnings.catch_warnings(), \
                    contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                warnings.simplefilter("error")
                code = main(argv)
            assert isinstance(code, int) and 0 <= code <= 4, \
                (path.read_text(), argv, code)
