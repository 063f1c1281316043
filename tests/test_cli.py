import dataclasses
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from leadersync import Topology, build_H, synthesize, write_scenario
from leadersync.cli import main
from leadersync.demos import static_demo

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
STATIC = str(SCENARIO_DIR / "static.txt")
SWITCHING = str(SCENARIO_DIR / "switching.txt")

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
    sc = static_demo()
    sc = dataclasses.replace(sc, name="overbound", T_low=1.488,
                             T_high=1.488, out_traj=None, out_sched=None)
    path = tmp_path / "overbound.txt"
    write_scenario(sc, path)
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
    sc = dataclasses.replace(static_demo(), name="long_run", T_low=0.001,
                             grid_h=0.001, horizon=1e5, out_traj=None,
                             out_sched=None)
    path = workdir / "long_run.txt"
    write_scenario(sc, path)
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


def test_batch_worst_code_wins(workdir, capsys):
    path = _overbound_path(workdir)
    assert main(["verify", "--scenario", STATIC, path]) == 1
    out = capsys.readouterr().out
    assert "verdict PASS" in out and "verdict FAIL" in out


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

def test_enumerate_single_follower_matches_static_design(workdir, capsys):
    assert main(["enumerate", "--model", STATIC, "--followers", "1"]) == 0
    out = capsys.readouterr().out
    assert "admissible graphs 2" in out
    gl = build_H(Topology(1, frozenset([(0, 1)])))
    res = synthesize(np.array([[-0.38, 0.72], [-0.68, 0.42]]),
                     np.array([[0.26], [0.31]]), 1.0, 1.0,
                     np.array([1.0]), [gl])
    assert ("T_bar %.6g" % res.T_bar) in out
    assert ("  %.6g %.6g" % (res.K[0, 0], res.K[0, 1])) in out


def test_enumerate_weight_overrides(workdir, capsys):
    assert main(["enumerate", "--model", STATIC, "--followers", "1",
                 "--mu1", "2.0", "--mu2", "0.5"]) == 0
    out = capsys.readouterr().out
    gl = build_H(Topology(1, frozenset([(0, 1)])))
    res = synthesize(np.array([[-0.38, 0.72], [-0.68, 0.42]]),
                     np.array([[0.26], [0.31]]), 2.0, 0.5,
                     np.array([1.0]), [gl])
    assert ("T_bar %.6g" % res.T_bar) in out


def test_enumerate_too_many_followers(workdir, capsys):
    assert main(["enumerate", "--model", STATIC, "--followers", "4"]) == 2
    assert "enumeration refused" in capsys.readouterr().err


# ------------------------------------------------------------ subprocess

def test_module_entry_point(tmp_path, source_env):
    proc = subprocess.run(
        [sys.executable, "-m", "leadersync", "synthesize",
         "--scenario", STATIC],
        capture_output=True, text=True, cwd=tmp_path, env=source_env,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "T_bar 0.0185851" in proc.stdout
