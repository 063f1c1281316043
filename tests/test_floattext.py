from fractions import Fraction
import math
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
from conftest import STATIC, SWITCHING, ring_setup


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


def _block_shapes(nv, cols):
    """The shapes of cols columns whose size is nearest nv from below
    and from above."""
    return sorted({(rows, cols) for rows in (nv // cols, -(-nv // cols))
                   if rows})


_RUN_EDGE_SIZES = [511, 512, 513, 1025, 4096]


@pytest.mark.parametrize("cols", [1, 16, 86])
@pytest.mark.parametrize("nv", _RUN_EDGE_SIZES)
def test_format_rows_matches_repr_at_the_gather_run_edges(nv, cols):
    # full and partial runs of the gather, at one column and at the
    # widths of the demos' and the 16-follower ring's trajectory CSVs
    rng = np.random.default_rng(nv * 100 + cols)
    for shape in _block_shapes(nv, cols):
        size = shape[0] * shape[1]
        block = (rng.standard_normal(size)
                 * 10.0 ** rng.integers(-20, 20, size)).reshape(shape)
        assert format_rows(block) == oracles.repr_rows(block).encode()


# one value of each kind of template: the four specials, zeros of
# both signs, subnormals, integers near 1e16 in fixed and e notation,
# and 17-digit negatives with 3-digit exponents, which fill a value's
# 25-byte slot
_TEMPLATE_CLASSES = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.225073858507201e-308,
    9999999999999998.0, -9999999999999998.0, 1e16, 1.0000000000000002e16,
    -1.2345678901234567e-308, -1.7976931348623157e308]


@pytest.mark.parametrize("value", _TEMPLATE_CLASSES, ids=repr)
@pytest.mark.parametrize("cols", [16, 86])
def test_format_rows_puts_each_template_on_a_run_boundary(value, cols):
    # the value is the first and the last of every run of the gather,
    # and of the block
    run = floattext._GATHER_VALUES
    rows = -(-4096 // cols)
    block = np.random.default_rng(cols).standard_normal(rows * cols)
    edges = np.arange(0, block.size, run)
    block[np.concatenate([edges, edges[1:] - 1, [block.size - 1]])] = value
    block = block.reshape(rows, cols)
    assert format_rows(block) == oracles.repr_rows(block).encode()
    assert max(map(len, map(repr, _TEMPLATE_CLASSES))) + 1 == \
        floattext._WIDTH


def test_gather_index_holds_the_largest_offset_of_a_run():
    # each index of a run is a value's row offset plus a column of its
    # row, up to _GATHER_VALUES * _ROW - 1; past 1170 values per run
    # that passes int16, and take's clip mode would write wrong bytes
    tab = floattext._tables()
    assert tab.templates.dtype == floattext._INDEX
    assert 0 <= tab.templates.min() and tab.templates.max() < floattext._ROW
    assert floattext._GATHER_VALUES * floattext._ROW - 1 <= \
        np.iinfo(floattext._INDEX).max


# ------------------------------------ the float64 search and its range

def _float_range():
    """The biased exponents [lo, hi) of _shortest_float's range."""
    tab = floattext._tables()
    lo = int(tab.float_lo >> np.uint64(52))
    return lo, lo + int(tab.float_span >> np.uint64(52))


def _schubfach_k(q, irregular):
    """Schubfach's decimal exponent of a row, from its definition: the
    largest k with 10^k <= 2^q, or <= 3/4 2^q on an irregular row."""
    v = Fraction(3, 4) * Fraction(2) ** q if irregular else Fraction(2) ** q
    k = math.floor(math.log10(v))
    while Fraction(10) ** (k + 1) <= v:
        k += 1
    while Fraction(10) ** k > v:
        k -= 1
    return k


def _is_double(v):
    return Fraction(float(v)) == v


def _exact_row(bq, irregular):
    """A row's tables as Fractions, or None where the float64 search is
    not shown exact on it: 10^-k, T and the tables must be doubles; the
    53-bit budget must hold every value its decisions compare (each one
    below 16 on the grid unit/2, where unit = 2^(q - k) is the grid of
    X, or T/4 on an irregular row); and no end of the rounding interval
    may be a candidate on a row whose c can be odd."""
    q = bq - 1075
    k = _schubfach_k(q, irregular)
    T = Fraction(2) ** q * Fraction(10) ** -k
    unit = Fraction(2) ** (q - k)
    wl = T / 4 if irregular else T / 2
    values = (Fraction(10) ** -k, T, wl, 1 - T / 2, 10 - T / 2,
              16 - unit / 2)
    if k > 0 or not all(map(_is_double, values)):
        return None
    if not irregular and unit > 1:
        return None
    return values[0], wl, 1 - T / 2, 10 - T / 2, k + 15


def test_float_range_tables_are_exact_and_within_53_bits():
    # rebuilt with Fractions: the range is the run of exponents whose two
    # rows pass every exactness condition, with the rows next to it on
    # either side failing one, and each table entry is its exact value
    tab = floattext._tables()
    lo, hi = _float_range()
    assert (lo - 1023, hi - 1023) == (-18, 53)
    for bq in range(lo - 4, hi + 4):
        rows = [_exact_row(bq, irr) for irr in (0, 1)]
        assert all(rows) == (lo <= bq < hi), bq
        if not lo <= bq < hi:
            continue
        for irr, exact in enumerate(rows):
            r = 2 * (bq - lo) + irr
            p, wl, win, wpin, e = exact
            assert Fraction(float(tab.float_p[r])) == p
            ph, pl = float(tab.float_ph[r]), float(tab.float_pl[r])
            assert Fraction(ph) + Fraction(pl) == p
            # Veltkamp's halves: integers of 26 significant bits at
            # most, so their products with the halves of x are exact
            for half in (ph, pl):
                n = abs(int(half))
                assert n == abs(half)
                assert (n // (n & -n) if n else 0).bit_length() <= 26
            assert Fraction(float(tab.float_wl[r])) == wl
            assert Fraction(float(tab.float_win[r])) == win
            assert Fraction(float(tab.float_wpin[r])) == wpin
            assert tab.float_e[r] == e


def _row_values(bq, mantissas):
    bits = (np.uint64(bq) << np.uint64(52)) | np.asarray(mantissas,
                                                         dtype=np.uint64)
    return bits.view(np.float64)


def test_float_search_on_every_row_and_its_neighbours():
    # each row of the range and the rows next to it: the irregular one
    # (c = 2^52) and regular ones with c of either parity, at the ends
    # of the exponent and at random, both signs; one block per exponent
    # (wholly in or wholly outside the range) and all of them in one
    lo, hi = _float_range()
    rng = np.random.default_rng(30)
    edge = [0, 1, 2, 3, 4, 5, 2 ** 51 - 1, 2 ** 51, 2 ** 51 + 1,
            2 ** 52 - 2, 2 ** 52 - 1]
    blocks = []
    for bq in range(lo - 3, hi + 3):
        mantissas = np.concatenate([edge, rng.integers(0, 2 ** 52, 53)])
        values = _row_values(bq, mantissas)
        assert {int(m) & 1 for m in mantissas[1:]} == {0, 1}
        block = np.stack([values, -values[::-1]], axis=1)
        assert format_rows(block) == oracles.repr_rows(block).encode()
        blocks.append(block)
    block = np.concatenate(blocks)
    assert format_rows(block) == oracles.repr_rows(block).encode()


def test_float_search_on_the_powers_of_two():
    # the irregular rows: a power of two's lower neighbour is closer
    # than its upper one, and their neighbours on either side
    lo, hi = _float_range()
    powers = np.ldexp(1.0, np.arange(lo - 1023 - 3, hi - 1023 + 3))
    values = np.concatenate([np.nextafter(powers, 0.0), powers,
                             np.nextafter(powers, np.inf)])
    _same_as_repr(values, 1)
    _same_as_repr(-values, 3)


def test_float_search_on_the_rows_where_half_the_values_tie():
    # on the rows with q - k = -1, X = x 10^-k is a multiple of 1/2, so
    # half of the values sit exactly halfway between s and s + 1 and the
    # digit goes to the even one
    lo, hi = _float_range()
    rng = np.random.default_rng(31)
    tie_rows = [bq for bq in range(lo, hi)
                if bq - 1075 - _schubfach_k(bq - 1075, False) == -1]
    assert tie_rows
    ties = 0
    for bq in tie_rows:
        values = _row_values(bq, rng.integers(1, 2 ** 52, 2000))
        k = _schubfach_k(bq - 1075, False)
        ties += sum((Fraction(v) * Fraction(10) ** -k).denominator == 2
                    for v in values[:200].tolist())
        _same_as_repr(values, 8)
    assert ties > 50
    _same_as_repr([2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 2.0 ** 50 + 1.25,
                   2.0 ** 50 + 1.75, 2.0 ** 51 - 0.25, 2.0 ** 51 - 0.75], 2)


def test_float_search_at_the_16_and_17_digit_boundary():
    # s has 16 or 17 digits in the range: the largest doubles under a
    # power of ten, the power itself and the next double, over every
    # decade of the range and past its top (9999999999999998.0 < 2^53 <
    # 1e16); one value a block, so each takes the search of its range
    powers = 10.0 ** np.arange(-6, 18)
    values = np.concatenate([np.nextafter(powers, 0.0),
                             np.nextafter(np.nextafter(powers, 0.0), 0.0),
                             powers, np.nextafter(powers, np.inf),
                             [9999999999999998.0, 1e16, 0.9999999999999999,
                              9.999999999999998, 999999999999999.9,
                              2.0 ** 53 - 1, 2.0 ** 53]])
    for v in np.concatenate([values, -values]):
        _same_as_repr([v], 1)


def _log_uniform(rng, lo, hi, size):
    return np.exp2(rng.uniform(lo, hi, size)) * rng.choice([-1.0, 1.0], size)


@pytest.mark.parametrize("cols", [1, 16, 86])
def test_float_search_blocks_inside_outside_and_mixed(cols):
    lo, hi = _float_range()
    lo, hi = lo - 1023, hi - 1023
    rng = np.random.default_rng(32 + cols)
    size = 4096 // cols * cols
    inside = _log_uniform(rng, lo, hi, size)
    outside = np.concatenate([
        _log_uniform(rng, -1074, lo, size // 4),
        _log_uniform(rng, hi, 1024, size // 4),
        rng.integers(1, 2 ** 52, size // 4, dtype=np.uint64).view(np.float64),
        [0.0, -0.0, np.inf, -np.inf, np.nan] * (size // 20)])
    outside = rng.permutation(np.resize(outside, size))
    mixed = inside.copy()
    at = rng.choice(size, 7, replace=False)
    mixed[at] = [1e-300, -2.0 ** -19, 2.0 ** 53, 5e-324, 0.0, np.nan, -1e300]
    for values in (inside, outside, mixed):
        _same_as_repr(values, cols)


def test_shortest_takes_only_the_values_outside_the_range(monkeypatch):
    # no Schubfach for a block wholly in the range; a block with a few
    # values outside hands it just its finite ones (zeros, infinities and
    # NaNs are templates), however many they are
    calls = []
    shortest = floattext._shortest

    def counted(mag, tab):
        calls.append(mag.view(np.float64).copy())
        return shortest(mag, tab)
    monkeypatch.setattr(floattext, "_shortest", counted)
    rng = np.random.default_rng(33)
    block = _log_uniform(rng, -18, 53, 4096)
    _same_as_repr(block, 16)
    assert calls == []
    far = np.array([1e-300, -2.0 ** -19, 2.0 ** 53, -5e-324, 1e300])
    at = rng.choice(4096, 9, replace=False)
    block[at] = np.concatenate([far, [0.0, -0.0, np.inf, np.nan]])
    _same_as_repr(block, 16)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.abs(block[np.sort(at[:5])]))
    calls.clear()
    block[:1024] = 1e-20
    _same_as_repr(block, 16)
    assert [c.size for c in calls] == [1024 + np.count_nonzero(at[:5] >= 1024)]


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
    # trajectory CSV's block at the demos' width (16 columns) and at the
    # 16-follower ring's (86); the block's bytes stay within the 512 KiB
    # of 2048 values at 256 bytes each that it was first given
    floattext._tables.cache_clear()
    nv = leadersync.sim.CSV_BLOCK_VALUES
    assert floattext.WORK_BYTES_PER_VALUE * nv <= 256 * 2048
    tracemalloc.start()
    try:
        floattext._tables()
        tables = tracemalloc.get_traced_memory()[1]
        rng = np.random.default_rng(3)
        peaks = []
        for cols in (16, 86):
            size = nv // cols * cols
            # a block in _shortest_float's range with a few values
            # outside it, which _shortest takes gathered, and one with
            # every value outside and finite
            other = np.random.default_rng(cols)
            mixed = other.standard_normal(size)
            mixed[other.choice(size, 3, replace=False)] = [1e-300, 0.0, 1e300]
            outside = np.exp2(other.uniform(-1074, -19, size))
            for values in (rng.standard_normal(size),
                           np.where(rng.random(size) < 0.3, np.nan, -1e-300),
                           np.zeros(size), mixed, outside):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                format_rows(values.reshape(-1, cols))
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

def _demo_run(path, horizon=None):
    sc = load_scenario(path)
    Hs = [build_H(t) for t in sc.topologies]
    synth = synthesize(sc.A, sc.B, sc.mu1, sc.mu2, find_common_D(Hs), Hs)
    sched = gen_schedule(sc.T_low, sc.T_high, sc.grid_h,
                         horizon or sc.horizon, sc.seed)
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


def _ring_run():
    args, synth = ring_setup(0.5)
    res = simulate(*args)
    return res, lyapunov_trace(res, synth).V


def _short_demo_run():
    # the length of the benchmark's demos: 4001 rows
    return _demo_run(SWITCHING, 4.0)


@pytest.mark.parametrize("make_run", [_ring_run, _short_demo_run])
def test_trajectory_csv_bytes_match_past_one_block(make_run, tmp_path):
    # the 16-follower ring's 86 columns and a demo's 16, over several
    # blocks with a partial one last
    res, V = make_run()
    n_out, N, n = res.errors.shape
    rows = leadersync.sim.CSV_BLOCK_VALUES // (2 + (N + 1) * n + N)
    assert n_out > 3 * rows and n_out % rows
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
