import dataclasses
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from leadersync import (IncompleteTrace, InvalidSchedule, SamplingSchedule,
                        SwitchingSignal, SystemModel, Topology, build_H,
                        contraction_factor, gen_schedule, leader_trajectory,
                        lyapunov_trace, simulate, synthesize,
                        write_schedule_csv, write_trajectory_csv)
from leadersync.numerics import kron
from leadersync.sim import MASK64, SplitMix64

import oracles

A2 = np.array([[-0.38, 0.72], [-0.68, 0.42]])
B2 = np.array([[0.26], [0.31]])
EDGES_1 = frozenset([(0, 1), (0, 2), (3, 2), (1, 3), (4, 3), (2, 4)])

MODEL = SystemModel(A=A2, B=B2)
TOP = Topology(4, EDGES_1)
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
    gl = build_H(TOP)
    return synthesize(A2, B2, 1.0, 1.0, np.ones(4), [gl])


# ---------------------------------------------------------- SplitMix64

def test_splitmix_reference_stream():
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix_determinism_and_seed_masking():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == \
           [b.next_u64() for _ in range(10)]
    wide = SplitMix64(42 + (1 << 64))
    c = SplitMix64(42)
    assert wide.next_u64() == c.next_u64()


def test_splitmix_randint_bounds():
    r = SplitMix64(7)
    seen = set()
    for _ in range(400):
        v = r.randint(3, 9)
        assert 3 <= v <= 9
        seen.add(v)
    assert seen == set(range(3, 10))
    assert SplitMix64(1).randint(5, 5) == 5


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


# ------------------------------------------------------------ simulate

def test_simulate_consensus_is_invariant():
    sched = _schedule([0.0, 0.3, 0.5, 0.9], 0.1)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(),
                   [[0.5, 0.5]], sched, X0L,
                   np.tile(X0L, (4, 1)))
    assert np.all(res.errors == 0.0)
    assert np.all(res.u_held == 0.0)
    assert np.allclose(res.followers, res.leader[:, None, :])


def test_simulate_zero_gain_is_block_autonomous():
    sched = _schedule([0.0, 0.4, 1.0], 0.1)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(),
                   np.zeros((1, 2)), sched, X0L, X0F)
    E = oracles.expm_taylor(A2 * 1.0)
    for i in range(4):
        want = E @ (X0F[i] - X0L)
        assert np.allclose(res.errors[-1, i], want, rtol=1e-9, atol=1e-12)


def test_simulate_matches_held_input_oracle():
    K = np.array([[0.887356, 1.21952]])
    H = build_H(TOP).H
    sched = _schedule([0.0, 0.3], 0.1)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(), K, sched,
                   X0L, X0F)
    d = 8
    top = np.hstack([kron(np.eye(4), A2), -kron(H, B2 @ K)])
    M = np.vstack([top, np.zeros((d, 2 * d))])
    x0 = (X0F - X0L[None, :]).reshape(-1)
    for k, t in enumerate(res.times):
        Ebig = oracles.expm_taylor(M * t)
        want = (Ebig[:d, :d] + Ebig[:d, d:]) @ x0
        assert np.allclose(res.errors[k].reshape(-1), want,
                           rtol=1e-9, atol=1e-12)
    assert np.allclose(res.u_held[0], (-(kron(H, K) @ x0)).reshape(4, 1))


def test_simulate_errors_ignore_leader_origin():
    sched = _schedule([0.0, 0.3, 0.7], 0.1)
    K = [[0.5, 0.4]]
    # dyadic states so the shifted subtraction cancels exactly
    lead = np.array([1.25, -0.75])
    foll = np.array([[2.5, -1.5], [-1.25, 2.75], [1.75, -2.5],
                     [-0.25, 1.25]])
    shift = np.array([3.0, -2.0])
    res_a = simulate(MODEL, [TOP], SwitchingSignal.static(), K, sched,
                     lead, foll)
    res_b = simulate(MODEL, [TOP], SwitchingSignal.static(), K, sched,
                     lead + shift, foll + shift[None, :])
    assert np.array_equal(res_a.errors, res_b.errors)
    assert not np.array_equal(res_a.followers, res_b.followers)


def test_simulate_bitwise_deterministic():
    sched = gen_schedule(0.001, 0.018, 0.001, 1.0, 7)
    K = [[0.887356, 1.21952]]
    a = simulate(MODEL, [TOP], SwitchingSignal.static(), K, sched, X0L, X0F)
    b = simulate(MODEL, [TOP], SwitchingSignal.static(), K, sched, X0L, X0F)
    for fa, fb in ((a.times, b.times), (a.errors, b.errors),
                   (a.leader, b.leader), (a.u_held, b.u_held)):
        assert np.array_equal(fa, fb)


def test_simulate_pure_path_matches_jit():
    # the pure path is the step-by-step loop of tests/oracles.py; the
    # default path is simulate's per-mode transition table
    sched = gen_schedule(0.001, 0.018, 0.001, 0.5, 11)
    K = np.array([[0.887356, 1.21952]])
    res = simulate(MODEL, [TOP], SwitchingSignal.static(), K, sched, X0L, X0F)

    h, d = sched.grid_h, 8
    ticks = np.rint(np.asarray(sched.instants) / h).astype(int)
    hor = int(round(sched.horizon / h))
    opens = ticks[ticks < hor]
    steps = np.minimum(np.append(opens[1:], hor), hor) - opens
    top = np.hstack([np.kron(np.eye(4), A2),
                     -np.kron(build_H(TOP).H, B2 @ K)])
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
    res = simulate(MODEL, [t_a, t_b], sig, K, sched, X0L, x0f,
                   output_dt=3 * h)

    n_open = len(ticks) - 1
    assert res.modes.shape[0] == n_open
    assert res.n_complete == n_open - 1
    modes = [[m for t, m in events if t <= s * h][-1] for s in ticks[:-1]]
    assert list(res.modes) == modes
    steps = np.minimum(ticks[1:], hor) - ticks[:-1]

    d = 6
    Hs = [build_H(t).H for t in (t_a, t_b)]
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
    for s in range(n_open):
        want_u = -(np.kron(Hs[modes[s]], K) @ err[ticks[s]])
        np.testing.assert_allclose(res.u_held[s].reshape(-1), want_u, **tol)


def test_simulate_mode_chosen_at_interval_opening():
    t_a = Topology(2, frozenset([(0, 1), (1, 2)]))
    t_b = Topology(2, frozenset([(0, 1), (0, 2)]))
    sig = SwitchingSignal(mode_count=2, events=((0.0, 0), (0.5, 1)))
    sched = _schedule([0.0, 0.4, 0.8, 1.2], 0.1)
    K = np.array([[0.3, 0.2]])
    x0f = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = simulate(SystemModel(A=A2, B=B2), [t_a, t_b], sig, K, sched,
                   X0L, x0f)
    assert list(res.modes) == [0, 0, 1]
    # the third interval's held input must come from the second graph
    H_b = build_H(t_b).H
    xs = res.errors[res.boundary_idx[2]].reshape(-1)
    assert np.allclose(res.u_held[2], (-(kron(H_b, K) @ xs)).reshape(2, 1))


def test_simulate_truncates_at_horizon():
    sched = _schedule([0.0, 0.4, 0.8, 1.2], 0.1, horizon=1.0)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(),
                   [[0.5, 0.5]], sched, X0L, X0F)
    assert np.allclose(res.instants, [0.0, 0.4, 0.8])
    assert res.n_complete == 2
    assert res.modes.shape[0] == 3
    assert res.u_held.shape[0] == 3
    assert res.times[-1] == 1.0
    assert np.array_equal(res.times[res.boundary_idx], res.instants)


def test_simulate_output_stride_keeps_boundaries():
    sched = _schedule([0.0, 0.3, 0.5, 0.9], 0.1)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(),
                   [[0.5, 0.5]], sched, X0L, X0F, output_dt=0.4)
    assert np.allclose(res.times, [0.0, 0.3, 0.4, 0.5, 0.8, 0.9])


def test_simulate_rejects_inconsistent_inputs():
    sched = _schedule([0.0, 0.3], 0.1)
    static = SwitchingSignal.static()
    with pytest.raises(ValueError):
        simulate(MODEL, [TOP, TOP], static, [[0.5, 0.5]], sched, X0L, X0F)
    with pytest.raises(ValueError):
        simulate(MODEL, [TOP], static, [[0.5, 0.5, 0.1]], sched, X0L, X0F)
    with pytest.raises(ValueError):
        simulate(MODEL, [TOP], static, [[0.5, 0.5]], sched, X0L, X0F[:3])
    with pytest.raises(ValueError):
        simulate(MODEL, [TOP], static, [[0.5, 0.5]], sched,
                 np.array([1.0, 2.0, 3.0]), X0F)


def test_simulate_rejects_off_grid_schedules():
    static = SwitchingSignal.static()
    with pytest.raises(InvalidSchedule):
        simulate(MODEL, [TOP], static, [[0.5, 0.5]],
                 _schedule([0.0, 0.25], 0.1), X0L, X0F)
    with pytest.raises(InvalidSchedule):
        simulate(MODEL, [TOP], static, [[0.5, 0.5]],
                 _schedule([0.0, 0.3], 0.1, horizon=0.25), X0L, X0F)
    with pytest.raises(InvalidSchedule):
        simulate(MODEL, [TOP], static, [[0.5, 0.5]],
                 _schedule([0.0, 0.3], 0.1), X0L, X0F, output_dt=0.15)
    # window not covered by the schedule
    with pytest.raises(InvalidSchedule):
        simulate(MODEL, [TOP], static, [[0.5, 0.5]],
                 _schedule([0.0, 0.3], 0.1, horizon=0.5), X0L, X0F)
    # must start at zero
    with pytest.raises(InvalidSchedule):
        simulate(MODEL, [TOP], static, [[0.5, 0.5]],
                 _schedule([0.1, 0.3], 0.1), X0L, X0F)


# --------------------------------------------------- leader_trajectory

def test_leader_trajectory_basics():
    out = leader_trajectory(A2, X0L, [0.0])
    assert np.allclose(out[0], X0L, rtol=0, atol=0)
    out = leader_trajectory(np.zeros((2, 2)), X0L, [0.0, 1.0, 5.0])
    assert np.allclose(out, np.tile(X0L, (3, 1)))
    ts = [0.0, 0.37, 1.4]
    out = leader_trajectory(A2, X0L, ts)
    for k, t in enumerate(ts):
        assert np.allclose(out[k], oracles.expm_taylor(A2 * t) @ X0L,
                           rtol=1e-10, atol=1e-14)


# ------------------------------------------------------ lyapunov_trace

def test_lyapunov_trace_consensus_is_vacuous():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.2, 3)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(), synth.K, sched,
                   X0L, np.tile(X0L, (4, 1)))
    rep = lyapunov_trace(res, synth.D, synth.P, synth)
    assert np.all(rep.V == 0.0)
    assert np.all(np.isnan(rep.ratios))
    assert rep.interval_violations == 0
    assert rep.passed


def test_lyapunov_trace_contracts_within_bound():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 2.0, 7)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    rep = lyapunov_trace(res, synth.D, synth.P, synth)
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
    res = simulate(MODEL, [TOP], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    rep = lyapunov_trace(res, synth.D, synth.P, synth)
    assert not rep.bound_feasible
    assert rep.rho_threshold == 1.0
    assert not rep.passed


def test_lyapunov_trace_rho_is_the_contraction_factor():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.5, 5)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    rep = lyapunov_trace(res, synth.D, synth.P, synth)
    cf = contraction_factor(synth.c1, synth.c2 * 0.018 ** 2, 0.001)
    assert rep.bound_feasible
    assert rep.rho == rep.rho_threshold == cf.rho


def test_lyapunov_trace_accepts_diagonal_matrix_D():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.5, 5)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    a = lyapunov_trace(res, synth.D, synth.P, synth)
    b = lyapunov_trace(res, np.diag(synth.D), synth.P, synth)
    assert np.array_equal(a.V, b.V)
    with pytest.raises(ValueError):
        lyapunov_trace(res, np.ones(3), synth.P, synth)


def test_lyapunov_trace_rejects_sparse_outputs():
    synth = _synth_static()
    sched = gen_schedule(0.001, 0.018, 0.001, 0.5, 5)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    broken = dataclasses.replace(res, boundary_idx=res.boundary_idx[:-1])
    with pytest.raises(IncompleteTrace):
        lyapunov_trace(broken, synth.D, synth.P, synth)
    shifted = dataclasses.replace(
        res, instants=res.instants + 0.5)
    with pytest.raises(IncompleteTrace):
        lyapunov_trace(shifted, synth.D, synth.P, synth)


# --------------------------------------------------------- CSV writers

def test_trajectory_csv_layout(tmp_path):
    sched = _schedule([0.0, 0.3, 0.5], 0.1)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(),
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
    res = simulate(MODEL, [TOP], SwitchingSignal.static(), synth.K, sched,
                   X0L, X0F)
    rep = lyapunov_trace(res, synth.D, synth.P, synth)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, res, V=rep.V)
    lines = path.read_text().splitlines()
    got = np.array([float(l.split(",")[-1]) for l in lines[1:]])
    assert np.array_equal(got, rep.V)


def test_schedule_csv_layout(tmp_path):
    sched = _schedule([0.0, 0.4, 0.8, 1.2], 0.1, horizon=1.0)
    res = simulate(MODEL, [TOP], SwitchingSignal.static(),
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
