import subprocess
import sys
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from leadersync import (SwitchingSignal, Topology, build_H, find_common_D,
                        gen_schedule, load_scenario, lyapunov_trace, simulate,
                        synthesize, write_trajectory_csv)
from leadersync import floattext
import leadersync.sim
from leadersync.floattext import format_rows

import oracles
from conftest import STATIC, SWITCHING


def _same_as_repr(values, cols):
    values = np.asarray(values, dtype=np.float64)
    block = values.reshape(-1, cols)
    assert format_rows(block) == oracles.repr_rows(block).encode()


# ------------------------------------------------------------ formatter

@st.composite
def float_blocks(draw):
    """A block of any doubles: NaN, infinities, zeros of both signs and
    subnormals among them."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 7))
    values = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True),
                           min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(block=float_blocks())
def test_format_rows_matches_repr(block):
    assert format_rows(block) == oracles.repr_rows(block).encode()


def test_format_rows_matches_repr_on_a_seeded_sweep():
    rng = np.random.default_rng(20201)
    tiny = np.arange(1, 10001, dtype=np.uint64)  # the first subnormals
    sweep = [
        rng.integers(0, 2 ** 64, 200000, dtype=np.uint64,
                     endpoint=False).view(np.float64),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        -np.ldexp(1.0, np.arange(-1074, 1024)),
        tiny.view(np.float64),
        (tiny << np.uint64(42)).view(np.float64),
        rng.integers(-2 ** 53, 2 ** 53, 50000).astype(np.float64),
        np.arange(-20000, 20000, dtype=np.float64),
        np.ldexp(rng.integers(1, 2 ** 53, 50000).astype(np.float64),
                 rng.integers(0, 971, 50000)),
        # decimal exponents at the edges of fixed notation, and their
        # neighbours
        np.nextafter(10.0 ** np.arange(-6, 18)[:, None],
                     [[-np.inf, 0.0, np.inf]]).reshape(-1),
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.3,
         1e16, 1e15, 9007199254740993.0, 123.0, 1e22, 1e23, 0.0001,
         0.00001],
    ]
    for values in sweep:
        values = np.asarray(values, dtype=np.float64)
        _same_as_repr(values, 2 if values.size % 2 == 0 else 1)


def test_format_rows_edge_shapes():
    assert format_rows(np.empty((0, 3))) == b""
    assert format_rows(np.empty((2, 0))) == b"\n\n"
    assert format_rows(np.array([[1.5]])) == b"1.5\n"
    # any float dtype and any memory layout
    block = np.arange(12, dtype=np.float32).reshape(3, 4) / 7
    assert format_rows(block.T) == oracles.repr_rows(
        block.T.astype(np.float64)).encode()


def test_format_rows_working_memory_within_its_bound():
    # the bounds simulate's memory budget counts for the formatter, on a
    # trajectory CSV's block of values
    floattext._tables.cache_clear()
    nv = leadersync.sim.CSV_BLOCK_VALUES
    tracemalloc.start()
    try:
        floattext._tables()
        tables = tracemalloc.get_traced_memory()[1]
        rng = np.random.default_rng(3)
        peaks = []
        for values in (rng.standard_normal(nv),
                       np.where(rng.random(nv) < 0.3, np.nan, -1e-300),
                       np.zeros(nv)):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            format_rows(values.reshape(-1, 16))
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert tables <= floattext.TABLE_BYTES
    assert max(peaks) <= floattext.WORK_BYTES_PER_VALUE * nv


def test_importing_the_cli_builds_no_tables(source_env):
    # the tables are built by the first block formatted, not at import
    code = ("import leadersync.cli, leadersync.floattext as f; "
            "print(f._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=source_env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


# ------------------------------------------------- the trajectory CSV

def _demo_run(path):
    sc = load_scenario(path)
    Hs = [build_H(t) for t in sc.topologies]
    synth = synthesize(sc.A, sc.B, sc.mu1, sc.mu2, find_common_D(Hs), Hs)
    sched = gen_schedule(sc.T_low, sc.T_high, sc.grid_h, sc.horizon, sc.seed)
    res = simulate(sc.A, sc.B, Hs, sc.signal, synth.K, sched, sc.x0_leader,
                   sc.x0_followers, sc.output_dt)
    return res, lyapunov_trace(res, synth).V


def _diverging_run():
    # an unstable agent under a large gain and long gaps: the states
    # pass the float range, to inf and then NaN
    A = np.array([[39.62, 0.72], [-0.68, 40.42]])
    B = np.array([[0.26], [0.31]])
    H = build_H(Topology(4, frozenset([(0, 1), (0, 2), (3, 2), (1, 3),
                                       (4, 3), (2, 4)])))
    x0f = np.array([[2.4, -1.6], [-1.4, 2.6], [1.8, -2.5], [-0.2, 1.3]])
    return simulate(A, B, [H], SwitchingSignal.static(),
                    [[300.0, 300.0]], gen_schedule(0.05, 0.05, 0.05, 20.0, 1),
                    np.array([1.2, -0.8]), x0f)


@pytest.mark.parametrize("path", [STATIC, SWITCHING])
def test_trajectory_csv_bytes_match_the_repr_writer(path, tmp_path):
    res, V = _demo_run(path)
    for v in (V, None):
        write_trajectory_csv(tmp_path / "new.csv", res, v)
        oracles.write_trajectory_csv_repr(tmp_path / "ref.csv", res, v)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()


def test_trajectory_csv_bytes_match_on_a_diverging_run(tmp_path):
    res = _diverging_run()
    states = np.concatenate([res.errors.reshape(-1), res.leader.reshape(-1)])
    assert np.isinf(states).any() and np.isnan(states).any()
    write_trajectory_csv(tmp_path / "new.csv", res)
    oracles.write_trajectory_csv_repr(tmp_path / "ref.csv", res)
    text = (tmp_path / "new.csv").read_bytes()
    assert text == (tmp_path / "ref.csv").read_bytes()
    assert b"inf" in text and b"-inf" in text


@pytest.mark.parametrize("extra", [-100, 1])
def test_trajectory_csv_checks_V_before_opening_the_file(extra, tmp_path):
    res, V = _demo_run(STATIC)
    rows = res.times.shape[0]
    bad = np.ones(rows + extra)
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError, match=f"{rows + extra}.*{rows}"):
        write_trajectory_csv(path, res, bad)
    assert not path.exists()
