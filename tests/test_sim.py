import dataclasses
import math
import tracemalloc
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from leadersync import (SamplingSchedule, SwitchingSignal, Topology, build_H,
                        find_common_D, gen_schedule, load_scenario,
                        lyapunov_trace, simulate, synthesize,
                        write_schedule_csv, write_trajectory_csv)
import leadersync.floattext
import leadersync.sim
from leadersync.errors import IncompleteTrace, InvalidMatrix, InvalidSchedule
from leadersync.sim import MASK64, _splitmix64

import oracles
from conftest import STATIC, SWITCHING, ring_setup

A2 = np.array([[-0.38, 0.72], [-0.68, 0.42]])
B2 = np.array([[0.26], [0.31]])
EDGES_1 = frozenset([(0, 1), (0, 2), (3, 2), (1, 3), (4, 3), (2, 4)])

H1 = build_H(Topology(4, EDGES_1))
X0F = np.array([[2.4, -1.6], [-1.4, 2.6], [1.8, -2.5], [-0.2, 1.3]])
X0L = np.array([1.2, -0.8])


def _schedule(instants, grid_h, horizon=None):
    inst = np.asarray(instants, dtype=float)
    gaps = np.diff(inst)
    return SamplingSchedule(
        instants=inst, T_low=float(gaps.min()), T_high=float(gaps.max()),
        grid_h=grid_h, seed=0,
        horizon=float(inst[-1]) if horizon is None else horizon)


def _synth_static():
    return synthesize(A2, B2, 1.0, 1.0, np.ones(4), [H1])


def _held_inputs(res, Hs, K):
    """The input held on each simulated interval, -(H_p kron K) times
    the error at the interval's opening row, as (intervals, N, m)."""
    K = np.asarray(K, dtype=float)
    n_open, N = res.modes.shape[0], res.errors.shape[1]
    x = res.errors[res.boundary_idx[:n_open]].reshape(n_open, -1)
    u = [-(np.kron(Hs[p], K) @ x[s]) for s, p in enumerate(res.modes)]
    return np.array(u).reshape(n_open, N, K.shape[0])


def _norms_of(errors):
    return leadersync.sim.SimulationResult(
        times=None, leader=None, errors=errors, instants=None, modes=None,
        boundary_idx=None, n_complete=0, schedule=None).error_norms


@pytest.mark.parametrize("n", range(1, 13))
def test_error_norms_sum_the_components_as_norm_does(n):
    # below 8 components numpy's norm sums the squares in order, as the
    # component sum does, so the bits agree; above, pairwise summation
    # may move the last places
    rng = np.random.default_rng(n)
    e = rng.standard_normal((300, 3, n)) \
        * 10.0 ** rng.uniform(-150, 150, (300, 3, 1))
    got, want = _norms_of(e), np.linalg.norm(e, axis=2)
    if n < 8:
        _same_bits(got, want)
    else:
        np.testing.assert_array_max_ulp(got, want, maxulp=4)


def test_error_norms_of_non_finite_rows_warn_nothing():
    e = np.array([[[3.0, 4.0], [1e200, 1e200]],
                  [[np.inf, 0.0], [np.nan, 1.0]],
                  [[-np.inf, np.inf], [0.0, 0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _norms_of(e)
    want = np.array([[5.0, np.inf], [np.inf, np.nan], [np.inf, 0.0]])
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------- SplitMix64

SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix_reference_stream():
    assert _splitmix64(0, 1, 3).tolist() == SPLITMIX_SEED0
    # output k depends on k alone, so a block may start anywhere
    assert _splitmix64(0, 2, 2).tolist() == SPLITMIX_SEED0[1:]
    r = oracles.SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == SPLITMIX_SEED0


def test_splitmix_determinism_and_seed_masking():
    assert np.array_equal(_splitmix64(42, 1, 10), _splitmix64(42, 1, 10))
    assert np.array_equal(_splitmix64(42 + (1 << 64), 1, 10),
                          _splitmix64(42, 1, 10))
    r = oracles.SplitMix64(MASK64)
    assert _splitmix64(MASK64, 1, 5).tolist() == \
        [r.next_u64() for _ in range(5)]


def test_splitmix_randint_bounds():
    r = oracles.SplitMix64(7)
    seen = set()
    for _ in range(400):
        v = r.randint(3, 9)
        assert 3 <= v <= 9
        seen.add(v)
    assert seen == set(range(3, 10))
    assert oracles.SplitMix64(1).randint(5, 5) == 5


# -------------------------------------------------------- gen_schedule

def test_gen_schedule_covers_and_respects_bounds():
    s = gen_schedule(0.001, 0.018, 0.001, 5.0, 7)
    assert s.instants[0] == 0.0
    assert s.instants[-1] >= 5.0
    assert s.instants[-2] < 5.0
    gaps = np.diff(s.instants)
    assert gaps.min() >= 0.001 - 1e-15
    assert gaps.max() <= 0.018 + 1e-15
    ticks = np.rint(s.instants / 0.001)
    assert np.allclose(ticks * 0.001, s.instants, rtol=0, atol=1e-12)


def test_gen_schedule_deterministic():
    a = gen_schedule(0.001, 0.018, 0.001, 2.0, 123)
    b = gen_schedule(0.001, 0.018, 0.001, 2.0, 123)
    assert np.array_equal(a.instants, b.instants)
    c = gen_schedule(0.001, 0.018, 0.001, 2.0, 124)
    assert not np.array_equal(a.instants, c.instants)


def test_gen_schedule_degenerate_is_periodic():
    s = gen_schedule(0.25, 0.25, 0.05, 1.0, 99)
    assert np.allclose(s.instants, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_gen_schedule_rejects_bad_arguments():
    with pytest.raises(InvalidSchedule):
        gen_schedule(0.0, 0.1, 0.01, 1.0, 0)
    with pytest.raises(InvalidSchedule):
        gen_schedule(0.2, 0.1, 0.01, 1.0, 0)
    with pytest.raises(InvalidSchedule):
        gen_schedule(0.1, 0.2, 0.0, 1.0, 0)
    with pytest.raises(InvalidSchedule):
        gen_schedule(0.1, 0.2, 0.01, -1.0, 0)
    with pytest.raises(InvalidSchedule):
        gen_schedule(0.015, 0.2, 0.01, 1.0, 0)
    # refused, not taken modulo 2^64 as another seed's stream
    for seed in (-1, 2**64 + 7):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            gen_schedule(0.1, 0.2, 0.01, 1.0, seed)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(grid_h=st.sampled_from([0.001, 0.004, 0.01, 0.05, 0.1]),
       lo=st.integers(1, 25), spread=st.integers(0, 40),
       horizon=st.floats(1e-4, 2.0), seed=st.integers(0, MASK64))
def test_gen_schedule_gap_bounds_property(grid_h, lo, spread, horizon, seed):
    hi = lo + spread
    T_low, T_high = lo * grid_h, hi * grid_h
    s = gen_schedule(T_low, T_high, grid_h, horizon, seed)
    inst = s.instants
    assert inst[0] == 0.0
    assert np.all(np.diff(inst) > 0.0)
    ticks = np.rint(inst / grid_h)
    assert np.array_equal(ticks * grid_h, inst)
    gaps = np.diff(ticks)
    assert gaps.min() >= lo and gaps.max() <= hi
    assert inst[-1] >= horizon
    assert inst[-2] < horizon
    again = gen_schedule(T_low, T_high, grid_h, horizon, seed)
    assert np.array_equal(again.instants, inst)
    assert again.seed == s.seed == seed


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(grid_h=st.sampled_from([0.001, 0.004, 0.01, 0.05, 0.1]),
       lo=st.integers(1, 25), spread=st.one_of(st.just(0), st.integers(0, 40)),
       horizon=st.one_of(st.floats(1e-4, 2.0), st.integers(1, 3000)),
       seed=st.one_of(st.sampled_from([0, MASK64]), st.integers(0, MASK64)))
def test_gen_schedule_matches_scalar_draw(grid_h, lo, spread, horizon, seed):
    # an integer horizon counts grid steps: the run ends on a tick, where
    # tick * grid_h equals the horizon exactly
    if isinstance(horizon, int):
        horizon = horizon * grid_h
    hi = lo + spread
    s = gen_schedule(lo * grid_h, hi * grid_h, grid_h, horizon, seed)
    want = oracles.schedule_instants(lo, hi, grid_h, horizon, seed)
    assert s.instants.tobytes() == want.tobytes()


def test_gen_schedule_draws_another_block_when_one_falls_short(monkeypatch):
    # seed 62 draws small gaps: the first block, 9 gaps sized from the
    # mean gap of 20.5 steps, ends before the horizon of 100 steps
    calls = []

    def counted(seed, first, count):
        calls.append((first, count))
        return _splitmix64(seed, first, count)

    monkeypatch.setattr(leadersync.sim, "_splitmix64", counted)
    s = gen_schedule(0.001, 0.04, 0.001, 0.1, 62)
    assert len(calls) >= 2
    assert calls[1][0] == calls[0][0] + calls[0][1]
    assert s.instants.tobytes() == \
        oracles.schedule_instants(1, 40, 0.001, 0.1, 62).tobytes()


def test_gen_schedule_peak_memory_within_its_per_instant_bound():
    tracemalloc.start()
    try:
        s = gen_schedule(0.001, 0.001, 0.001, 200.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.instants.size == 200001
    assert peak <= leadersync.sim._SCHEDULE_BYTES_PER_INSTANT * s.instants.size


def test_gen_schedule_rejects_gaps_below_the_grid_pitch():
    # 1e-13 s rounds to 0 grid steps of 1 ms; zero gaps never reach the
    # horizon
    with pytest.raises(InvalidSchedule, match="below the grid pitch"):
        gen_schedule(1e-13, 1e-13, 0.001, 1e-13, 0)


def test_gen_schedule_rejects_ticks_past_2_to_62():
    with pytest.raises(InvalidSchedule, match="2\\^62"):
        gen_schedule(0.001, 1e20, 0.001, 1.0, 7)


# ------------------------------------------------------------ simulate

def test_simulate_consensus_is_invariant():
    sched = _schedule([0.0, 0.3, 0.5, 0.9], 0.1)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(),
                   [[0.5, 0.5]], sched, X0L,
                   np.tile(X0L, (4, 1)))
    assert np.all(res.errors == 0.0)
    assert np.all(_held_inputs(res, [H1], [[0.5, 0.5]]) == 0.0)


def test_simulate_zero_gain_is_block_autonomous():
    sched = _schedule([0.0, 0.4, 1.0], 0.1)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(),
                   np.zeros((1, 2)), sched, X0L, X0F)
    E = oracles.expm_taylor(A2 * 1.0)
    for i in range(4):
        want = E @ (X0F[i] - X0L)
        assert np.allclose(res.errors[-1, i], want, rtol=1e-9, atol=1e-12)


def test_simulate_matches_held_input_oracle():
    K = np.array([[0.887356, 1.21952]])
    sched = _schedule([0.0, 0.3], 0.1)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), K, sched,
                   X0L, X0F)
    d = 8
    top = np.hstack([np.kron(np.eye(4), A2), -np.kron(H1, B2 @ K)])
    M = np.vstack([top, np.zeros((d, 2 * d))])
    x0 = (X0F - X0L[None, :]).reshape(-1)
    for k, t in enumerate(res.times):
        Ebig = oracles.expm_taylor(M * t)
        want = (Ebig[:d, :d] + Ebig[:d, d:]) @ x0
        assert np.allclose(res.errors[k].reshape(-1), want,
                           rtol=1e-9, atol=1e-12)
    assert np.allclose(_held_inputs(res, [H1], K)[0],
                       (-(np.kron(H1, K) @ x0)).reshape(4, 1))


def test_simulate_errors_ignore_leader_origin():
    sched = _schedule([0.0, 0.3, 0.7], 0.1)
    K = [[0.5, 0.4]]
    # dyadic states so the shifted subtraction cancels exactly
    lead = np.array([1.25, -0.75])
    foll = np.array([[2.5, -1.5], [-1.25, 2.75], [1.75, -2.5],
                     [-0.25, 1.25]])
    shift = np.array([3.0, -2.0])
    res_a = simulate(A2, B2, [H1], SwitchingSignal.static(), K, sched,
                     lead, foll)
    res_b = simulate(A2, B2, [H1], SwitchingSignal.static(), K, sched,
                     lead + shift, foll + shift[None, :])
    assert np.array_equal(res_a.errors, res_b.errors)
    assert not np.array_equal(res_a.leader, res_b.leader)


def test_simulate_bitwise_deterministic():
    sched = gen_schedule(0.001, 0.018, 0.001, 1.0, 7)
    K = [[0.887356, 1.21952]]
    a = simulate(A2, B2, [H1], SwitchingSignal.static(), K, sched, X0L, X0F)
    b = simulate(A2, B2, [H1], SwitchingSignal.static(), K, sched, X0L, X0F)
    Hs = [H1]
    for fa, fb in ((a.times, b.times), (a.errors, b.errors),
                   (a.leader, b.leader),
                   (_held_inputs(a, Hs, K), _held_inputs(b, Hs, K))):
        assert np.array_equal(fa, fb)


def test_simulate_table_matches_van_loan_oracle():
    # simulate's factored transition table against the grid stepped one
    # product at a time with the full 2d x 2d Van Loan blocks
    sched = gen_schedule(0.001, 0.018, 0.001, 0.5, 11)
    K = np.array([[0.887356, 1.21952]])
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), K, sched, X0L, X0F)

    h, d = sched.grid_h, 8
    ticks = np.rint(np.asarray(sched.instants) / h).astype(int)
    hor = int(round(sched.horizon / h))
    opens = ticks[ticks < hor]
    steps = np.minimum(np.append(opens[1:], hor), hor) - opens
    top = np.hstack([np.kron(np.eye(4), A2),
                     -np.kron(H1, B2 @ K)])
    E = oracles.expm_taylor(np.vstack([top, np.zeros((d, 2 * d))]), h)
    x0 = (X0F - X0L[None, :]).reshape(-1)
    err = oracles.propagate_grid(E[None, :d, :d], E[None, :d, d:],
                                 np.zeros(len(opens), dtype=int), steps, x0)

    got_ticks = np.rint(res.times / h).astype(int)
    x_max = np.max(np.abs(np.vstack([X0F, X0L])))
    np.testing.assert_allclose(res.errors.reshape(-1, d), err[got_ticks],
                               rtol=1e-10, atol=1e-12 * x_max)


def test_simulate_matches_step_by_step_oracle():
    # two event-switched modes, output every third grid step, and a
    # last interval cut by the horizon
    h = 0.01
    t_a = Topology(3, frozenset([(0, 1), (1, 2), (2, 3)]))
    t_b = Topology(3, frozenset([(0, 1), (0, 3), (3, 2), (1, 3)]))
    events = ((0.0, 0), (0.55, 1), (1.3, 0), (2.0, 1))
    sig = SwitchingSignal(mode_count=2, events=events)
    gaps = np.random.default_rng(5).integers(1, 13, size=40)
    gaps[-1] = 12
    ticks = np.concatenate([[0], np.cumsum(gaps)])
    hor = int(ticks[-1]) - 5
    sched = _schedule(ticks * h, h, horizon=hor * h)
    K = np.array([[0.887356, 1.21952]])
    x0f = np.array([[2.4, -1.6], [-1.4, 2.6], [1.8, -2.5]])
    Hs = [build_H(t) for t in (t_a, t_b)]
    # the Laplacians as a (G, N, N) stack; the other tests pass lists
    res = simulate(A2, B2, np.stack(Hs), sig, K, sched, X0L, x0f,
                   output_dt=3 * h)

    n_open = len(ticks) - 1
    assert res.modes.shape[0] == n_open
    assert res.n_complete == n_open - 1
    modes = [[m for t, m in events if t <= s * h][-1] for s in ticks[:-1]]
    assert list(res.modes) == modes
    steps = np.minimum(ticks[1:], hor) - ticks[:-1]

    d = 6
    Fs, Gs = np.empty((2, d, d)), np.empty((2, d, d))
    for p, H in enumerate(Hs):
        top = np.hstack([np.kron(np.eye(3), A2), -np.kron(H, B2 @ K)])
        E = oracles.expm_taylor(np.vstack([top, np.zeros((d, 2 * d))]), h)
        Fs[p], Gs[p] = E[:d, :d], E[:d, d:]
    x0 = (x0f - X0L[None, :]).reshape(-1)
    err = oracles.propagate_grid(Fs, Gs, modes, steps, x0)
    lead = oracles.propagate_linear(oracles.expm_taylor(A2, h), X0L, hor)

    want_ticks = sorted(set(range(0, hor + 1, 3)) | set(ticks[:-1]) | {hor})
    got_ticks = np.rint(res.times / h).astype(int)
    assert list(got_ticks) == want_ticks
    x_max = np.max(np.abs(np.vstack([x0f, X0L])))
    tol = dict(rtol=1e-10, atol=1e-12 * x_max)
    np.testing.assert_allclose(res.errors.reshape(-1, d), err[got_ticks],
                               **tol)
    np.testing.assert_allclose(res.leader, lead[got_ticks], **tol)
    held = _held_inputs(res, Hs, K)
    for s in range(n_open):
        want_u = -(np.kron(Hs[modes[s]], K) @ err[ticks[s]])
        np.testing.assert_allclose(held[s].reshape(-1), want_u, **tol)


@st.composite
def small_runs(draw):
    """A random small network run: dimensions, a seed for the matrices
    and states, lattice gaps, a horizon inside the last gap, a graph
    mode per interval and an output stride."""
    N, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 2))
    modes = draw(st.integers(1, 2))
    pair = st.tuples(st.integers(0, N), st.integers(1, N)).filter(
        lambda e: e[0] != e[1])
    tops = [Topology(N, frozenset(draw(st.lists(pair, max_size=2 * N))))
            for _ in range(modes)]
    gaps = draw(st.lists(st.integers(1, 8), min_size=1, max_size=10))
    cut = draw(st.integers(0, gaps[-1] - 1))
    mode_seq = draw(st.lists(st.integers(0, modes - 1), min_size=len(gaps),
                             max_size=len(gaps)))
    return dict(N=N, n=n, m=m, tops=tops, gaps=gaps, cut=cut,
                mode_seq=mode_seq, stride=draw(st.integers(1, 4)),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(run=small_runs())
def test_simulate_matches_van_loan_oracle_on_random_systems(run):
    N, n, m, h = run["N"], run["n"], run["m"], 0.05
    rng = np.random.default_rng(run["seed"])
    A, B = rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, m))
    K = rng.uniform(-1, 1, (m, n))
    x0l, x0f = rng.uniform(-3, 3, n), rng.uniform(-3, 3, (N, n))
    ticks = np.concatenate([[0], np.cumsum(run["gaps"])])
    hor = int(ticks[-1]) - run["cut"]
    modes = run["mode_seq"]
    sig = SwitchingSignal(mode_count=len(run["tops"]),
                          events=tuple(zip(ticks[:-1] * h, modes)))
    Hs = [build_H(t) for t in run["tops"]]
    res = simulate(A, B, Hs, sig, K, _schedule(ticks * h, h, horizon=hor * h),
                   x0l, x0f, output_dt=run["stride"] * h)
    assert list(res.modes) == modes

    # the full 2d x 2d Van Loan block of each mode, stepped on the grid
    d = N * n
    Fs, Gs = np.empty((len(Hs), d, d)), np.empty((len(Hs), d, d))
    for p, H in enumerate(Hs):
        top = np.hstack([np.kron(np.eye(N), A), -np.kron(H, B @ K)])
        E = oracles.expm_taylor(np.vstack([top, np.zeros((d, 2 * d))]), h)
        Fs[p], Gs[p] = E[:d, :d], E[:d, d:]
    steps = np.minimum(ticks[1:], hor) - ticks[:-1]
    err = oracles.propagate_grid(Fs, Gs, modes, steps,
                                 (x0f - x0l[None, :]).reshape(-1))
    lead = oracles.propagate_linear(oracles.expm_taylor(A, h), x0l, hor)

    got_ticks = np.rint(res.times / h).astype(int)
    want_ticks = sorted(set(range(0, hor + 1, run["stride"]))
                        | set(ticks[:-1].tolist()) | {hor})
    assert list(got_ticks) == want_ticks
    x_max = np.max(np.abs(np.vstack([x0f, x0l])))
    tol = dict(rtol=1e-10, atol=1e-12 * x_max)
    np.testing.assert_allclose(res.errors.reshape(-1, d), err[got_ticks],
                               **tol)
    np.testing.assert_allclose(res.leader, lead[got_ticks], **tol)
    held = _held_inputs(res, Hs, K)
    for s, p in enumerate(modes):
        want_u = -(np.kron(Hs[p], K) @ err[ticks[s]])
        np.testing.assert_allclose(held[s].reshape(-1), want_u, **tol)


def test_simulate_makes_one_expm_of_the_agent_size(monkeypatch):
    # the table comes from one (n + m) Van Loan exponential of the
    # agent, whatever the follower and mode counts
    sizes = []
    real = leadersync.sim.expm

    def counting(M, t=1.0):
        sizes.append(np.shape(M))
        return real(M, t)

    monkeypatch.setattr(leadersync.sim, "expm", counting)
    sched = _schedule([0.0, 0.3, 0.5, 0.9], 0.1)
    K = [[0.5, 0.4]]
    simulate(A2, B2, [H1], SwitchingSignal.static(), K, sched, X0L, X0F)
    assert sizes == [(3, 3)]
    sizes.clear()
    t_b = Topology(4, frozenset([(0, 1), (0, 2), (0, 3), (0, 4)]))
    sig = SwitchingSignal(mode_count=2, events=((0.0, 0), (0.4, 1)))
    res = simulate(A2, B2, [H1, build_H(t_b)], sig, K, sched, X0L, X0F)
    assert list(res.modes) == [0, 0, 1]
    assert sizes == [(3, 3)]


@st.composite
def table_cases(draw):
    """Dimensions, graph modes, a table length and a matrix seed for
    _transition_tables."""
    N, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 2))
    pair = st.tuples(st.integers(0, N), st.integers(1, N)).filter(
        lambda e: e[0] != e[1])
    tops = [Topology(N, frozenset(draw(st.lists(pair, max_size=2 * N))))
            for _ in range(draw(st.integers(1, 2)))]
    return dict(N=N, n=n, m=m, tops=tops, L=draw(st.integers(0, 6)),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(case=table_cases())
def test_transition_table_carries_the_leader_uncoupled(case):
    # z = [e_1; ...; e_N; x_0]: the leader's block of Phi[p, l] is E^l,
    # its coupling blocks are exact zeros, and the error blocks are
    # I kron E^l - H_p kron (Psi_l K)
    N, n, m, L, h = case["N"], case["n"], case["m"], case["L"], 0.05
    rng = np.random.default_rng(case["seed"])
    A, B = rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, m))
    K = rng.uniform(-1, 1, (m, n))
    Hs = np.stack([build_H(t) for t in case["tops"]])
    Phi = leadersync.sim._transition_tables(A, B, K, Hs, h, L)
    d, D = N * n, (N + 1) * n
    assert Phi.shape == (len(Hs), L + 1, D, D)

    vl = np.zeros((n + m, n + m))
    vl[:n, :n], vl[:n, n:] = A, B
    top = leadersync.sim.expm(vl, h)[:n]
    E, Gamma = top[:, :n], top[:, n:]
    El, Psi = np.eye(n), np.zeros((n, m))
    for l in range(L + 1):
        for p, H in enumerate(Hs):
            block = Phi[p, l]
            np.testing.assert_array_equal(block[d:, d:], El)
            assert np.all(block[d:, :d] == 0.0)
            assert np.all(block[:d, d:] == 0.0)
            want = np.kron(np.eye(N), El) - np.kron(H, Psi @ K)
            assert (np.max(np.abs(block[:d, :d] - want))
                    <= 1e-15 * np.max(np.abs(want)))
        El, Psi = E @ El, E @ Psi + Gamma


def test_check_memory_counts_the_table_simulate_builds(monkeypatch):
    # two modes on the switching demo's graphs: with no intervals and no
    # output rows, only the table term of _check_memory grows with the
    # mode count
    tables, counted = [], []
    build, check = (leadersync.sim._transition_tables,
                    leadersync.sim._check_memory)
    monkeypatch.setattr(leadersync.sim, "_transition_tables",
                        lambda *a: tables.append(build(*a)) or tables[-1])
    monkeypatch.setattr(leadersync.sim, "_check_memory",
                        lambda *a: counted.append(a) or check(*a))
    args, _ = _demo_setup(SWITCHING)
    res = simulate(*args)
    [(modes, L, N, n, _, _)] = counted
    [Phi] = tables
    assert modes == 2 and Phi.shape == (2, L + 1, (N + 1) * n, (N + 1) * n)
    assert (check(modes, L, N, n, 0, 0) - check(0, L, N, n, 0, 0)
            == Phi.nbytes)
    assert res.errors.flags.c_contiguous and res.leader.flags.c_contiguous


@pytest.mark.parametrize("part", ["leader", "errors"])
def test_a_part_past_the_float_range_leaves_the_other_exact(part):
    # the leader and the errors step by one table whose coupling blocks
    # are exact zeros, and an inf times zero is NaN: when one part
    # overflows, the other must still be what it is in a run without it.
    # One scalar follower, 300 gaps of 10 grid steps
    sched = _schedule(np.arange(301) * 0.01, 0.001)
    H = [np.ones((1, 1))]

    def run(A, K, lead, foll):
        return simulate([[A]], [[1.0]], H, SwitchingSignal.static(), [[K]],
                        sched, [lead], [[foll]])

    if part == "leader":
        # the leader grows by e^10 a second from 1e300, while K = 20
        # shrinks the errors by about 0.9 a gap
        bad = run(10.0, 20.0, 1e300, 3e300)
        ref = run(10.0, 20.0, 0.0, 3e300 - 1e300)
        kept, lost = "errors", "leader"
    else:
        # K = -1000 grows the errors about elevenfold a gap, while the
        # leader decays
        bad = run(-1.0, -1000.0, 1.0, 1e300)
        ref = run(-1.0, -1000.0, 1.0, 1.0)
        kept, lost = "leader", "errors"
    assert not np.isfinite(getattr(bad, lost)).all()
    np.testing.assert_array_equal(getattr(bad, kept), getattr(ref, kept))


@pytest.mark.parametrize("grid_h, itemsize", [(1e-3, 2), (1e-5, 4)])
def test_simulate_groups_rows_in_the_order_of_int64_keys(monkeypatch, grid_h,
                                                         itemsize):
    # one scalar follower sampled every 0.7 s: 699 and 69999 distinct
    # (mode, offset) keys, below and above the 2^16 that numpy sorts by
    # radix; the narrow keys give the stable order of the int64 ones
    argsort, sorts = np.argsort, []

    def recorded(a, *args, **kwargs):
        order = argsort(a, *args, **kwargs)
        if kwargs.get("kind") == "stable":
            sorts.append((a, order))
        return order

    monkeypatch.setattr(np, "argsort", recorded)
    H = build_H(Topology(1, frozenset([(0, 1)])))
    res = simulate([[-0.5]], [[1.0]], [H], SwitchingSignal.static(), [[0.3]],
                   gen_schedule(0.7, 0.7, grid_h, 0.7, 1), [1.0], [[2.0]])
    assert res.times.shape[0] == round(0.7 / grid_h) + 1
    [(key, order)] = sorts
    assert key.dtype.itemsize == itemsize
    assert np.unique(key).size == round(0.7 / grid_h) - 1
    assert np.array_equal(order, argsort(key.astype(np.int64), kind="stable"))


def _scattered_rows(A, B, Hs, K, schedule, x0l, x0f, modes, output_dt):
    """errors and leader of a run, filled as an earlier build filled
    them: each row's knot by a searchsorted of every row into the knots,
    the knot rows and each (mode, offset) group's opening states
    gathered by fancy indexing, one product per group, and a 2-D
    scatter per out array; a run that leaves the float range is
    stepped again with the errors and the leader apart."""
    h = schedule.grid_h
    ticks = np.rint(schedule.instants / h).astype(np.int64)
    hor = round(schedule.horizon / h)
    stride = 1 if output_dt is None else round(output_dt / h)
    n_open = int(np.searchsorted(ticks, hor, side="left"))
    starts = ticks[:n_open]
    steps = np.minimum(np.diff(ticks)[:n_open], hor - starts)
    Hs = np.array(Hs, dtype=float)
    N, n = Hs.shape[-1], len(x0l)
    d, D, L = N * n, (N + 1) * n, int(steps.max())
    out_ticks = np.unique(np.concatenate(
        (np.arange(0, hor + 1, stride), ticks[ticks <= hor], [hor])))
    knots = np.append(starts, hor)
    seg = np.searchsorted(knots, out_ticks, side="right") - 1
    offset = out_ticks - knots[seg]
    at_knot = offset == 0
    inner = np.flatnonzero(~at_knot)
    key = modes[seg[inner]] * (L + 1) + offset[inner]
    Phi = leadersync.sim._transition_tables(
        np.asarray(A, dtype=float), np.asarray(B, dtype=float),
        np.asarray(K, dtype=float), Hs, h, L).reshape(-1, D, D)
    Z = np.empty((n_open + 1, D))
    Z[0, :d] = (np.asarray(x0f) - np.asarray(x0l)[None, :]).reshape(-1)
    Z[0, d:] = x0l
    err, leader = np.empty((out_ticks.size, d)), np.empty((out_ticks.size, n))

    def fill(part, outs):
        table, states = Phi[:, part, part], Z[:, part]
        for s, k in enumerate(modes * (L + 1) + steps):
            table[k].dot(states[s], out=states[s + 1])
        for out, cols in outs:
            out[at_knot] = states[seg[at_knot], cols]
        for k in np.unique(key):
            rows = inner[key == k]
            prod = states[seg[rows]] @ table[k].T
            for out, cols in outs:
                out[rows] = prod[:, cols]

    with np.errstate(over="ignore", invalid="ignore"):
        fill(slice(None), ((err, slice(0, d)), (leader, slice(d, D))))
        if not np.isfinite(Z).all():
            fill(slice(0, d), ((err, slice(None)),))
            fill(slice(d, D), ((leader, slice(None)),))
    return err.reshape(-1, N, n), leader


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(run=small_runs())
def test_simulate_rows_equal_the_scattered_fill(run):
    # the record writes of simulate give the bits of a 2-D scatter, with
    # instants on and off the output stride, in one or two modes
    N, n, m, h = run["N"], run["n"], run["m"], 0.05
    rng = np.random.default_rng(run["seed"])
    A, B = rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, m))
    K = rng.uniform(-1, 1, (m, n))
    x0l, x0f = rng.uniform(-3, 3, n), rng.uniform(-3, 3, (N, n))
    ticks = np.concatenate([[0], np.cumsum(run["gaps"])])
    hor = int(ticks[-1]) - run["cut"]
    sig = SwitchingSignal(mode_count=len(run["tops"]),
                          events=tuple(zip(ticks[:-1] * h, run["mode_seq"])))
    Hs = [build_H(t) for t in run["tops"]]
    sched = _schedule(ticks * h, h, horizon=hor * h)
    for output_dt in (None, run["stride"] * h):
        res = simulate(A, B, Hs, sig, K, sched, x0l, x0f, output_dt=output_dt)
        err, leader = _scattered_rows(A, B, Hs, K, sched, x0l, x0f,
                                      res.modes, output_dt)
        _same_bits(res.errors, err)
        _same_bits(res.leader, leader)


@pytest.mark.parametrize("part", ["leader", "errors"])
def test_simulate_rows_equal_the_scattered_fill_past_the_float_range(part):
    # the fallback pass writes its rows as records too; gaps of 7 grid
    # steps and an output every 3 put rows inside the intervals
    sched = _schedule(np.arange(301) * 0.007, 0.001)
    H = [np.ones((1, 1))]
    a, k, lead, foll = ((10.0, 20.0, 1e300, 3e300) if part == "leader"
                        else (-1.0, -1000.0, 1.0, 1e300))
    res = simulate([[a]], [[1.0]], H, SwitchingSignal.static(), [[k]], sched,
                   [lead], [[foll]], output_dt=0.003)
    assert not np.isfinite(getattr(res, part)).all()
    err, leader = _scattered_rows([[a]], [[1.0]], H, [[k]], sched, [lead],
                                  [[foll]], res.modes, 0.003)
    _same_bits(res.errors, err)
    _same_bits(res.leader, leader)


def test_simulate_mode_chosen_at_interval_opening():
    t_a = Topology(2, frozenset([(0, 1), (1, 2)]))
    t_b = Topology(2, frozenset([(0, 1), (0, 2)]))
    sig = SwitchingSignal(mode_count=2, events=((0.0, 0), (0.5, 1)))
    sched = _schedule([0.0, 0.4, 0.8, 1.2], 0.1)
    K = np.array([[0.3, 0.2]])
    x0f = np.array([[1.0, 0.0], [0.0, 1.0]])
    H_a, H_b = build_H(t_a), build_H(t_b)
    res = simulate(A2, B2, [H_a, H_b], sig, K, sched, X0L, x0f)
    assert list(res.modes) == [0, 0, 1]
    # the third interval's held input must come from the second graph
    xs = res.errors[res.boundary_idx[2]].reshape(-1)
    held = _held_inputs(res, [H_a, H_b], K)
    assert np.allclose(held[2], (-(np.kron(H_b, K) @ xs)).reshape(2, 1))
    # and the state it drives to the interval's end follows that input
    top = np.hstack([np.kron(np.eye(2), A2), -np.kron(H_b, B2 @ K)])
    E = oracles.expm_taylor(np.vstack([top, np.zeros((4, 8))]), 0.4)
    want = (E[:4, :4] + E[:4, 4:]) @ xs
    assert np.allclose(res.errors[-1].reshape(-1), want,
                       rtol=1e-9, atol=1e-12)


def test_simulate_truncates_at_horizon():
    sched = _schedule([0.0, 0.4, 0.8, 1.2], 0.1, horizon=1.0)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(),
                   [[0.5, 0.5]], sched, X0L, X0F)
    assert np.allclose(res.instants, [0.0, 0.4, 0.8])
    assert res.n_complete == 2
    assert res.modes.shape[0] == 3
    assert _held_inputs(res, [H1], [[0.5, 0.5]]).shape == (3, 4, 1)
    assert res.times[-1] == 1.0
    assert np.array_equal(res.times[res.boundary_idx], res.instants)


def test_simulate_output_stride_keeps_boundaries():
    sched = _schedule([0.0, 0.3, 0.5, 0.9], 0.1)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(),
                   [[0.5, 0.5]], sched, X0L, X0F, output_dt=0.4)
    assert np.allclose(res.times, [0.0, 0.3, 0.4, 0.5, 0.8, 0.9])


def test_simulate_rejects_inconsistent_inputs():
    sched = _schedule([0.0, 0.3], 0.1)
    static = SwitchingSignal.static()
    with pytest.raises(ValueError):
        simulate(A2, B2, [H1, H1], static, [[0.5, 0.5]], sched, X0L, X0F)
    with pytest.raises(ValueError):
        simulate(A2, B2, [H1], static, [[0.5, 0.5, 0.1]], sched, X0L, X0F)
    with pytest.raises(ValueError):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]], sched, X0L, X0F[:3])
    with pytest.raises(ValueError):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]], sched,
                 np.array([1.0, 2.0, 3.0]), X0F)
    # the agent pair: A square, B with A's row count
    with pytest.raises(InvalidMatrix, match="A must be square"):
        simulate(A2[:, :1], B2, [H1], static, [[0.5, 0.5]], sched, X0L, X0F)
    with pytest.raises(ValueError, match="B must have 2 rows, got 3"):
        simulate(A2, np.vstack([B2, [[1.0]]]), [H1], static, [[0.5, 0.5]],
                 sched, X0L, X0F)
    with pytest.raises(ValueError):
        simulate(A2, B2, [H1, H1[:3, :3]],
                 SwitchingSignal(mode_count=2, events=((0.0, 0),)),
                 [[0.5, 0.5]], sched, X0L, X0F)


def test_simulate_rejects_off_grid_schedules():
    static = SwitchingSignal.static()
    with pytest.raises(InvalidSchedule):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]],
                 _schedule([0.0, 0.25], 0.1), X0L, X0F)
    with pytest.raises(InvalidSchedule):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]],
                 _schedule([0.0, 0.3], 0.1, horizon=0.25), X0L, X0F)
    with pytest.raises(InvalidSchedule):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]],
                 _schedule([0.0, 0.3], 0.1), X0L, X0F, output_dt=0.15)
    # window not covered by the schedule
    with pytest.raises(InvalidSchedule):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]],
                 _schedule([0.0, 0.3], 0.1, horizon=0.5), X0L, X0F)
    # must start at zero
    with pytest.raises(InvalidSchedule):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]],
                 _schedule([0.1, 0.3], 0.1), X0L, X0F)


def test_simulate_refuses_a_repeated_instant_and_a_sub_grid_pitch():
    static = SwitchingSignal.static()
    with pytest.raises(InvalidSchedule,
                       match="^sampling instants must strictly increase$"):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]],
                 _schedule([0.0, 0.3, 0.3, 0.6], 0.1, horizon=0.6),
                 X0L, X0F)
    sched = _schedule([0.0, 0.3], 0.1)
    with pytest.raises(InvalidSchedule,
                       match="^output_dt must be positive, got 0.0$"):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]], sched, X0L, X0F,
                 output_dt=0.0)
    # 1e-13 is within GRID_DIV_TOL of zero grid steps, so it snaps to 0
    with pytest.raises(InvalidSchedule,
                       match="^output_dt = 1e-13 is below the grid pitch$"):
        simulate(A2, B2, [H1], static, [[0.5, 0.5]], sched, X0L, X0F,
                 output_dt=1e-13)


def test_simulate_refuses_a_negative_horizon_and_a_non_positive_pitch():
    # each is refused before it is divided by; check_run_memory, which
    # sizes a run before its schedule is drawn, refuses them alike,
    # naming the horizon rather than the instants it would need
    static = SwitchingSignal.static()
    cases = [((0.1, -0.3), "^horizon must not be negative, got -0.3$"),
             ((0.1, -1.0), "^horizon must not be negative, got -1.0$"),
             ((0.1, math.nan), "^horizon must not be negative, got nan$"),
             ((0.1, math.inf), r"^horizon = inf is not a whole number of "
                               r"grid steps \(grid_h = 0.1\)$")]
    cases += [((h, 0.3), f"^grid_h must be positive, got {h}$")
              for h in (0.0, -0.1, math.nan)]
    for (grid_h, horizon), message in cases:
        sched = SamplingSchedule(instants=[0.0, 0.3], T_low=0.3, T_high=0.3,
                                 grid_h=grid_h, seed=0, horizon=horizon)
        with pytest.raises(InvalidSchedule, match=message):
            simulate(A2, B2, [H1], static, [[0.5, 0.5]], sched, X0L, X0F)
        with pytest.raises(InvalidSchedule, match=message):
            leadersync.sim.check_run_memory(1, 4, 2, 0.3, horizon, grid_h)
    # a zero horizon is one output row, the initial state
    res = simulate(A2, B2, [H1], static, [[0.5, 0.5]],
                   _schedule([0.0, 0.3], 0.1, horizon=0.0), X0L, X0F)
    assert res.times.tolist() == [0.0]


def test_simulate_refuses_gaps_outside_the_declared_window():
    # the static demo sampled every 0.05 s, 2.7 times T_bar, under a
    # declared window of [0.001, 0.001]: the certificate trace would
    # take rho from that window and pass the run
    args, synth = _demo_setup(STATIC)
    inst = np.arange(601) * 50 * 0.001
    for T_low, T_high in ((0.001, 0.001), (0.06, 0.1)):
        sched = SamplingSchedule(instants=inst, T_low=T_low, T_high=T_high,
                                 grid_h=0.001, seed=0, horizon=30.0)
        with pytest.raises(InvalidSchedule,
                           match=r"is outside \[T_low, T_high\]"):
            simulate(*args[:5], sched, *args[6:])
    # declared as the window the gaps lie in (floats an ulp off), the
    # run is simulated and its report reads the bound as infeasible
    sched = SamplingSchedule(instants=inst, T_low=0.05 - 1e-17,
                             T_high=0.05 + 1e-17, grid_h=0.001, seed=0,
                             horizon=30.0)
    rep = lyapunov_trace(simulate(*args[:5], sched, *args[6:]), synth)
    assert not rep.bound_feasible and rep.rho_threshold == 1.0


def _run_peak(args, synth, path, monkeypatch):
    """The tracemalloc peak of simulate(*args), its certificate trace
    and its trajectory CSV, with the formatter's tables built anew, and
    the bytes _check_memory counted for the run."""
    budgets = []
    check = leadersync.sim._check_memory
    monkeypatch.setattr(leadersync.sim, "_check_memory",
                        lambda *a: budgets.append(check(*a)) or budgets[-1])
    leadersync.floattext._tables.cache_clear()
    tracemalloc.start()
    try:
        res = simulate(*args)
        write_trajectory_csv(path, res, lyapunov_trace(res, synth).V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(leadersync.sim, "_check_memory", check)
    assert len(budgets) == 1
    return peak, budgets[0]


@pytest.mark.parametrize("path, output_dt", [(STATIC, None),
                                              (SWITCHING, None),
                                              (SWITCHING, 0.007)])
def test_simulate_and_csv_peak_memory_within_the_budget(path, output_dt,
                                                        tmp_path,
                                                        monkeypatch):
    args, synth = _demo_setup(path, output_dt)
    peak, budget = _run_peak(args, synth, tmp_path / "traj.csv", monkeypatch)
    assert peak <= budget


def test_run_memory_per_output_row_within_the_budget(tmp_path, monkeypatch):
    # 64 states and 16 followers: the error norms and V are computed from
    # squares as large as the states, which the fixed terms of a short
    # run hide, so the budget must grow at least as fast as the peak
    # between two runs past _GROUP_ROWS output rows
    peaks, budgets = zip(*(_run_peak(*ring_setup(horizon),
                                     tmp_path / "traj.csv", monkeypatch)
                           for horizon in (5.0, 8.0)))
    assert peaks[1] <= budgets[1]
    assert peaks[1] - peaks[0] <= budgets[1] - budgets[0]


def test_trajectory_csv_peak_memory_within_its_term(tmp_path, monkeypatch):
    # the writer's term of _check_memory, which is all it counts with no
    # table, recursion, interval or output row: 24 bytes per value of a
    # block of max(CSV_BLOCK_VALUES, columns) values (the block, the
    # followers' states and the buffer numpy allocates for their
    # broadcast sum), the formatter's working bytes per value and its
    # tables. The ring's 86 columns give blocks of 47 rows, whose
    # states take 24 KB
    args, synth = ring_setup(0.5)
    res = simulate(*args)
    V = lyapunov_trace(res, synth).V
    res.error_norms  # computed once per run and counted per output row
    _, N, n = res.errors.shape
    ft = leadersync.floattext

    def writer_peak():
        tracemalloc.start()
        try:
            write_trajectory_csv(tmp_path / "traj.csv", res, V)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def csv_term():
        return leadersync.sim._check_memory(0, -1, N, n, -1, 0)

    ft._tables.cache_clear()
    assert writer_peak() <= csv_term()
    # without the formatter's work and tables, the peak is the block,
    # the states and their buffer (with the file's buffer and the
    # header): about 93 KB, above the 16 bytes per value once counted
    monkeypatch.setattr(ft, "format_rows", lambda b: b"")
    monkeypatch.setattr(ft, "WORK_BYTES_PER_VALUE", 0)
    monkeypatch.setattr(ft, "TABLE_BYTES", 0)
    assert writer_peak() <= csv_term()


# --------------------------------------------------- leader_trajectory

def test_leader_trajectory_basics():
    out = oracles.leader_trajectory(A2, X0L, [0.0])
    assert np.allclose(out[0], X0L, rtol=0, atol=0)
    out = oracles.leader_trajectory(np.zeros((2, 2)), X0L, [0.0, 1.0, 5.0])
    assert np.allclose(out, np.tile(X0L, (3, 1)))
    ts = [0.0, 0.37, 1.4]
    out = oracles.leader_trajectory(A2, X0L, ts)
    for k, t in enumerate(ts):
        assert np.allclose(out[k], oracles.expm_taylor(A2 * t) @ X0L,
                           rtol=1e-10, atol=1e-14)


# ------------------------------------------------------ lyapunov_trace

def test_lyapunov_trace_consensus_is_vacuous():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.2, 3)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), synth.K, sched,
                   X0L, np.tile(X0L, (4, 1)))
    rep = lyapunov_trace(res, synth)
    assert np.all(rep.V == 0.0)
    assert np.all(np.isnan(rep.ratios))
    assert rep.worst_interval is None and rep.worst_ratio == 0.0
    assert rep.interval_violations == 0
    assert rep.passed


def test_lyapunov_trace_counts_non_finite_V_as_ratio_inf():
    # V overflows from the start: every interval is a ratio of inf, not
    # a NaN that would read as vacuous
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.2, 3)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), synth.K, sched,
                   np.array([1e160, -1e160]), X0F)
    rep = lyapunov_trace(res, synth)
    assert not np.isfinite(rep.V_samples).any()
    assert np.all(rep.ratios == math.inf)
    assert rep.worst_interval == 0 and rep.worst_ratio == math.inf
    assert not rep.ratios_ok and not rep.passed


def test_report_finds_the_worst_interval_once(monkeypatch):
    # passed, ratios_ok, worst_ratio and worst_interval all read the one
    # worst interval, which the report finds once
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.5, 5)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    rep = lyapunov_trace(res, synth)
    nanargmax, calls = np.nanargmax, []
    monkeypatch.setattr(np, "nanargmax",
                        lambda a, *args, **kw: calls.append(1)
                        or nanargmax(a, *args, **kw))
    for _ in range(2):
        assert rep.passed and rep.ratios_ok
        assert rep.worst_ratio == rep.ratios[rep.worst_interval]
    assert rep.worst_interval == int(nanargmax(rep.ratios))
    assert len(calls) == 1


def test_lyapunov_trace_contracts_within_bound():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 2.0, 7)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    rep = lyapunov_trace(res, synth)
    assert rep.bound_feasible
    assert rep.rho_threshold < 1.0
    assert np.all(np.diff(rep.V_samples) <= 1e-12)
    assert rep.interval_violations == 0
    assert rep.worst_ratio <= rep.rho_threshold
    assert rep.passed


def test_lyapunov_trace_reports_over_bound_run():
    synth = _synth_static()
    T = 1.488  # roughly eighty times the certified bound
    sched = gen_schedule(T, T, 0.001, 30.0, 0)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    rep = lyapunov_trace(res, synth)
    assert not rep.bound_feasible
    assert rep.rho_threshold == 1.0
    assert not rep.passed


def test_lyapunov_trace_rho_is_the_contraction_factor():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.5, 5)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    rep = lyapunov_trace(res, synth)
    cf = oracles.contraction_factor(synth.c1, synth.c2 * 0.018 ** 2, 0.001)
    assert rep.bound_feasible
    assert rep.rho == rep.rho_threshold == cf.rho


def _demo_setup(path, output_dt=None):
    """The arguments of simulate for a scenario file's run, with its
    output pitch replaced, and the design."""
    sc = load_scenario(path)
    Hs = [build_H(t) for t in sc.topologies]
    synth = synthesize(sc.A, sc.B, sc.mu1, sc.mu2, find_common_D(Hs), Hs)
    return (sc.A, sc.B, Hs, sc.signal, synth.K,
            gen_schedule(sc.T_low, sc.T_high, sc.grid_h, sc.horizon,
                         sc.seed),
            sc.x0_leader, sc.x0_followers, output_dt), synth


def _ring_run():
    args, synth = ring_setup(0.5)
    return simulate(*args), synth


def _switching_demo_run():
    args, synth = _demo_setup(SWITCHING)
    return simulate(*args), synth


@pytest.mark.parametrize("make_run", [_switching_demo_run, _ring_run])
def test_lyapunov_trace_V_is_the_kronecker_quadratic(make_run):
    res, synth = make_run()
    x = res.errors.reshape(res.errors.shape[0], -1)
    # the design's D, which is uniform on both runs, and one whose
    # entries all differ
    N = synth.D.shape[0]
    for D in (synth.D, np.linspace(0.5, 2.0, N)):
        W = np.kron(np.diag(D), synth.P)
        want = np.sum((x @ W) * x, axis=1)
        got = lyapunov_trace(res, dataclasses.replace(synth, D=D)).V
        assert np.all(want > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_lyapunov_trace_rejects_a_design_of_another_size():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.5, 5)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    for D in (np.ones(3), None):
        with pytest.raises(ValueError, match="4 entries"):
            lyapunov_trace(res, dataclasses.replace(synth, D=D))
    with pytest.raises(ValueError, match="^the design's P must be 2x2$"):
        lyapunov_trace(res, dataclasses.replace(synth, P=np.eye(3)))


def test_lyapunov_trace_rejects_sparse_outputs():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.5, 5)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    broken = dataclasses.replace(res, boundary_idx=res.boundary_idx[:-1])
    with pytest.raises(IncompleteTrace):
        lyapunov_trace(broken, synth)
    shifted = dataclasses.replace(
        res, instants=res.instants + 0.5)
    with pytest.raises(IncompleteTrace):
        lyapunov_trace(shifted, synth)
    repeated = res.boundary_idx.copy()
    repeated[1] = repeated[0]
    with pytest.raises(IncompleteTrace,
                       match="^boundary indices must strictly increase$"):
        lyapunov_trace(dataclasses.replace(res, boundary_idx=repeated),
                       synth)


# --------------------------------------------------------- CSV writers

def test_trajectory_csv_layout(tmp_path):
    sched = _schedule([0.0, 0.3, 0.5], 0.1)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(),
                   [[0.5, 0.5]], sched, X0L, X0F)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,x0_1,x0_2,x1_1,x1_2,x2_1,x2_2,x3_1,x3_2,"
                        "x4_1,x4_2,err_norm_1,err_norm_2,err_norm_3,"
                        "err_norm_4,V")
    assert len(lines) == 1 + res.times.shape[0]
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(v) for v in first[1:3]] == list(X0L)
    assert [float(v) for v in first[3:5]] == list(X0F[0])
    assert math.isnan(float(first[-1]))
    row = lines[2].split(",")
    k = 1
    assert [float(v) for v in row[1:3]] == list(res.leader[k])
    assert float(row[11]) == np.linalg.norm(res.errors[k, 0])


def test_trajectory_csv_carries_V(tmp_path):
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.2, 3)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    rep = lyapunov_trace(res, synth)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, res, V=rep.V)
    lines = path.read_text().splitlines()
    got = np.array([float(l.split(",")[-1]) for l in lines[1:]])
    assert np.array_equal(got, rep.V)


def test_schedule_csv_matches_per_row_reference(tmp_path):
    # each row formats the opening instant and the scheduled gap as the
    # shortest round-trip repr of the float64 values
    res, _ = _switching_demo_run()
    path = tmp_path / "sched.csv"
    write_schedule_csv(path, res)
    inst = res.schedule.instants
    want = "s,t_s,T_s,mode\n" + "".join(
        f"{s},{float(inst[s])!r},{float(inst[s + 1] - inst[s])!r},"
        f"{int(res.modes[s])}\n" for s in range(res.modes.shape[0]))
    assert path.read_text() == want
    assert set(res.modes.tolist()) == {0, 1}


def test_schedule_csv_layout(tmp_path):
    sched = _schedule([0.0, 0.4, 0.8, 1.2], 0.1, horizon=1.0)
    res = simulate(A2, B2, [H1], SwitchingSignal.static(),
                   [[0.5, 0.5]], sched, X0L, X0F)
    path = tmp_path / "sched.csv"
    write_schedule_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,t_s,T_s,mode"
    assert len(lines) == 1 + res.modes.shape[0]
    last = lines[-1].split(",")
    assert last[0] == "2"
    assert float(last[1]) == 0.8
    # the scheduled gap is recorded even when the run stops earlier
    assert float(last[2]) == pytest.approx(0.4)
    assert last[3] == "0"
