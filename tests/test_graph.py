import itertools
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from leadersync.errors import InvalidTime
from leadersync.graph import (SwitchingSignal, Topology, _all_nonsingular_M,
                              build_H, leader_reachable, signal_mode)

import oracles

EDGES_1 = frozenset([(0, 1), (0, 2), (3, 2), (1, 3), (4, 3), (2, 4)])
EDGES_2 = frozenset([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(0, frozenset())
    with pytest.raises(ValueError):
        Topology(2, frozenset([(1, 1)]))
    with pytest.raises(ValueError):
        Topology(2, frozenset([(0, 3)]))
    with pytest.raises(ValueError):
        Topology(2, frozenset([(-1, 0)]))


def test_build_H_demo_graphs():
    H1 = build_H(Topology(4, EDGES_1))
    expected1 = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 2.0, -1.0, 0.0],
        [-1.0, 0.0, 2.0, -1.0],
        [0.0, -1.0, 0.0, 1.0]])
    assert np.array_equal(H1, expected1)

    H2 = build_H(Topology(4, EDGES_2))
    expected2 = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, -1.0, 2.0]])
    assert np.array_equal(H2, expected2)


def test_build_H_ignores_edges_into_leader():
    a = build_H(Topology(2, frozenset([(0, 1), (0, 2)])))
    b = build_H(Topology(2, frozenset([(0, 1), (0, 2), (1, 0), (2, 0)])))
    assert np.array_equal(a, b)


def test_build_H_counts_parallel_inputs():
    H = build_H(Topology(2, frozenset([(0, 1), (2, 1), (0, 2)])))
    assert H[0, 0] == 2.0
    assert H[0, 1] == -1.0
    assert H[1, 1] == 1.0


def _random_edges(N, rng, p):
    return {(j, i) for j in range(N + 1) for i in range(N + 1)
            if j != i and rng.random() < p}


def test_build_H_matches_edge_loop_oracle():
    rng = np.random.default_rng(203)
    for _ in range(300):
        N = int(rng.integers(1, 17))
        # edges into the leader included, which H must ignore
        edges = _random_edges(N, rng, float(rng.uniform(0.05, 0.6)))
        H = build_H(Topology(N, frozenset(edges)))
        want = oracles.grounded_laplacian(N, edges)
        assert H.dtype == np.float64 and H.shape == (N, N)
        assert H.tobytes() == want.tobytes()


def test_grounded_laplacian_immutable():
    H = build_H(Topology(2, frozenset([(0, 1), (1, 2)])))
    assert isinstance(H, np.ndarray)
    with pytest.raises(ValueError):
        H[0, 0] = 99.0


def test_leader_reachable_demo_and_counterexample():
    assert leader_reachable(Topology(4, EDGES_1))
    assert leader_reachable(Topology(4, EDGES_2))
    # follower 2 only feeds follower 1, nothing reaches it
    assert not leader_reachable(Topology(2, frozenset([(0, 1), (2, 1)])))
    assert not leader_reachable(Topology(1, frozenset()))


def test_leader_reachable_matches_closure_oracle():
    rng = np.random.default_rng(201)
    for _ in range(200):
        N = int(rng.integers(1, 7))
        edges = _random_edges(N, rng, 0.25)
        t = Topology(N, frozenset(edges))
        assert leader_reachable(t) == oracles.reachable_closure(N, edges)


def test_leader_reachable_on_a_16_follower_chain():
    # the leader feeds follower 1 only, so follower 16 is 16 edges away
    chain = {(0, 1)} | {(i, i + 1) for i in range(1, 16)}
    assert leader_reachable(Topology(16, frozenset(chain | {(16, 1)})))
    assert not leader_reachable(Topology(16, frozenset(chain - {(15, 16)})))
    assert not leader_reachable(
        Topology(16, frozenset(chain - {(8, 9)} | {(16, 0)})))


def test_nonsingular_M_iff_reachable():
    rng = np.random.default_rng(202)
    for _ in range(120):
        N = int(rng.integers(1, 7))
        t = Topology(N, frozenset(_random_edges(N, rng, 0.3)))
        assert _all_nonsingular_M(build_H(t)) == leader_reachable(t)


def test_nonsingular_M_rejects_generic_matrix():
    assert not _all_nonsingular_M(np.zeros((2, 2)))


def test_switching_signal_validation():
    with pytest.raises(ValueError):
        SwitchingSignal(mode_count=0, events=((0.0, 0),))
    with pytest.raises(ValueError):
        SwitchingSignal(mode_count=2)
    with pytest.raises(ValueError):
        SwitchingSignal(mode_count=2, period=1.0, phases=((0, 0.5), (1, 0.4)))
    with pytest.raises(ValueError):
        SwitchingSignal(mode_count=2, period=1.0, phases=((2, 1.0),))
    with pytest.raises(ValueError):
        SwitchingSignal(mode_count=2, events=((0.5, 0),))
    with pytest.raises(ValueError):
        SwitchingSignal(mode_count=2, events=((0.0, 0), (0.0, 1)))
    with pytest.raises(ValueError):
        SwitchingSignal(mode_count=1, period=1.0, phases=((0, 1.0),),
                        events=((0.0, 0),))
    for kwargs, message in (
            (dict(period=1.0), "^a periodic signal needs at least one phase$"),
            (dict(period=1.0, phases=((0, 1.0), (1, 0.0))),
             "^phase duration must be positive, got 0.0$"),
            (dict(events=((0.0, 0),), phases=((0, 1.0),)),
             "^an event signal cannot carry phases$"),
            (dict(events=((0.0, 0), (0.5, 2))), "^mode 2 is outside 0..1$")):
        with pytest.raises(ValueError, match=message):
            SwitchingSignal(mode_count=2, **kwargs)


def test_signal_mode_periodic_demo_pattern():
    sig = SwitchingSignal(mode_count=2, period=1.0,
                          phases=((0, 2.0 / 3.0), (1, 1.0 / 3.0)))
    assert signal_mode(sig, 0.0) == 0
    assert signal_mode(sig, 0.5) == 0
    assert signal_mode(sig, 0.7) == 1
    assert signal_mode(sig, 1.0) == 0
    assert signal_mode(sig, 1.9) == 1
    assert signal_mode(sig, 100.5) == 0


def test_signal_mode_periodic_boundary_shortfall():
    # phase sums can land one ulp short of the period
    sig = SwitchingSignal(mode_count=3, period=1.0,
                          phases=((0, 0.1), (1, 0.7), (2, 0.2)))
    t = math.nextafter(3.0, 0.0)
    assert signal_mode(sig, t) == 2


def test_signal_mode_events():
    sig = SwitchingSignal(mode_count=3,
                          events=((0.0, 1), (2.5, 0), (4.0, 2)))
    assert signal_mode(sig, 0.0) == 1
    assert signal_mode(sig, 2.4999) == 1
    assert signal_mode(sig, 2.5) == 0
    assert signal_mode(sig, 3.9) == 0
    assert signal_mode(sig, 4.0) == 2
    assert signal_mode(sig, 1e9) == 2


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(modes=st.lists(st.integers(0, 3), min_size=1, max_size=6),
       times=st.lists(st.floats(min_value=0.0, max_value=1e12,
                                exclude_min=True),
                      min_size=5, max_size=5, unique=True))
def test_signal_mode_events_are_right_continuous(modes, times):
    times = [0.0] + sorted(times)[:len(modes) - 1]
    sig = SwitchingSignal(mode_count=4, events=tuple(zip(times, modes)))
    assert signal_mode(sig, 0.0) == modes[0]
    for k in range(1, len(modes)):
        assert signal_mode(sig, times[k]) == modes[k]
        assert signal_mode(sig, np.nextafter(times[k], -np.inf)) == \
            modes[k - 1]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(phases=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 64)),
                       min_size=1, max_size=6),
       exponent=st.integers(-8, 8))
def test_signal_mode_periodic_is_right_continuous(phases, exponent):
    # durations k * 2^exponent, so every boundary is an exact float
    unit = 2.0 ** exponent
    durations = [k * unit for _, k in phases]
    sig = SwitchingSignal(mode_count=4, period=sum(durations),
                          phases=tuple((m, d) for (m, _), d in
                                       zip(phases, durations)))
    # the boundaries of the first three periods and the mode after each
    bounds = np.cumsum([0.0] + durations * 3).tolist()
    order = [m for m, _ in phases] * 4
    for j, t in enumerate(bounds):
        assert signal_mode(sig, t) == order[j]
        if j:
            assert signal_mode(sig, float(np.nextafter(t, -np.inf))) == \
                order[j - 1]


def _with_neighbours(edges):
    """Each edge time and its float neighbours on both sides, the
    nonnegative ones."""
    out = []
    for t in edges:
        out += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    return [t for t in out if t >= 0.0]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(phases=st.lists(st.tuples(st.integers(0, 3), st.floats(1e-3, 10.0)),
                       min_size=1, max_size=6),
       stretch=st.sampled_from([0.0, 1e-12, -1e-12]),
       events=st.lists(st.tuples(st.floats(1e-6, 1e3), st.integers(0, 3)),
                       min_size=1, max_size=6),
       extra=st.lists(st.floats(0.0, 1e4), max_size=8))
def test_signal_mode_array_matches_scalar(phases, stretch, events, extra):
    # a period one part in 1e12 past the phase sum leaves a shortfall
    # that falls to the last phase
    ends = list(itertools.accumulate(d for _, d in phases))
    period = ends[-1] * (1.0 + stretch)
    periodic = SwitchingSignal(mode_count=4, period=period,
                               phases=tuple(phases))
    p_times = _with_neighbours([k * period + e for k in range(4)
                                for e in [0.0] + ends]) + extra
    starts = [0.0] + list(itertools.accumulate(g for g, _ in events[1:]))
    evented = SwitchingSignal(mode_count=4, events=tuple(
        (t, m) for t, (_, m) in zip(starts, events)))
    e_times = _with_neighbours(starts) + extra
    for sig, times in ((periodic, p_times), (evented, e_times)):
        got = signal_mode(sig, np.array(times))
        assert got.dtype == np.int64 and got.shape == (len(times),)
        for k, t in enumerate(times):
            one = signal_mode(sig, t)
            assert type(one) is int
            assert got[k] == one == oracles.signal_mode_scan(sig, t)
        column = signal_mode(sig, np.array(times).reshape(-1, 1))
        assert np.array_equal(column[:, 0], got)


def test_signal_mode_negative_time():
    with pytest.raises(InvalidTime):
        signal_mode(SwitchingSignal.static(), -0.001)
    with pytest.raises(InvalidTime):
        signal_mode(SwitchingSignal.static(), np.array([0.0, 1.0, -0.001]))
    with pytest.raises(InvalidTime):
        signal_mode(SwitchingSignal.static(), math.nan)


def test_signal_mode_beyond_the_float_range_of_periods():
    # 2.0 / 1e-308 periods overflow the float range: no offset exists
    sig = SwitchingSignal(mode_count=1, period=1e-308, phases=((0, 1e-308),))
    assert signal_mode(sig, 1.0) == 0
    with pytest.raises(InvalidTime, match="float range of periods"):
        signal_mode(sig, 2.0)
    with pytest.raises(InvalidTime):
        signal_mode(sig, np.array([0.0, 1.0, 2.0]))


def test_static_signal_single_mode():
    sig = SwitchingSignal.static()
    assert sig.mode_count == 1
    for t in (0.0, 0.1, 57.3):
        assert signal_mode(sig, t) == 0
