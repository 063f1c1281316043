"""The paper's claim as a property over random systems.

For every stabilizable agent and every admissible family of graphs that
the design accepts, sampling gaps up to the designed bound T_bar keep
the certificate V = e' (D kron P) e contracting, so verify passes,
whether the gaps are random in [grid_h, T_bar] or all equal to T_bar.
The negative control shows that the check can fail: sampling
periodically at a gap where the error dynamics are unstable must fail
verify.
"""

import warnings

from hypothesis import HealthCheck, given, settings, strategies as st
import numpy as np
import scipy.linalg

from leadersync import (SwitchingSignal, Topology, build_H, find_common_D,
                        gen_schedule, lyapunov_trace, simulate, synthesize)
from leadersync.errors import CommonDNotFound

import oracles

# gaps the negative control scans, in multiples of T_bar
SCAN_GAPS = 400
# a spectral radius counts as above 1 past rounding only beyond this
UNSTABLE_MARGIN = 1e-6
# intervals of the periodic run at the unstable gap
CONTROL_INTERVALS = 200


@st.composite
def families(draw):
    """Dimensions of an agent and its network, a seed for the agent, the
    Riccati weights, the graphs and the initial states, and a schedule
    seed: n in 1-3, m in 1-min(n, 2), N in 2-4 followers, 1-2 graphs."""
    n = draw(st.integers(1, 3))
    return dict(n=n, m=draw(st.integers(1, min(n, 2))),
                N=draw(st.integers(2, 4)), graphs=draw(st.integers(1, 2)),
                seed=draw(st.integers(0, 2**32 - 1)),
                schedule_seed=draw(st.integers(0, 2**64 - 1)))


def _graph(N, rng):
    """A random digraph in which the leader reaches every follower: a
    random tree rooted at the leader plus each other edge with
    probability 1/4."""
    order = rng.permutation(np.arange(1, N + 1))
    edges = {(int(rng.choice(np.append(0, order[:k]))), int(i))
             for k, i in enumerate(order)}
    edges |= {(j, i) for j in range(N + 1) for i in range(1, N + 1)
              if j != i and rng.random() < 0.25}
    return Topology(N, frozenset(edges))


def _error_blocks(A, B, K, H, gap, count):
    """The maps of the followers' errors over gaps k gap, k = 1..count,
    of a held input on graph H: I kron E_k - H kron (Psi_k K), from one
    Van Loan exponential and the recursion E_k = E_1 E_{k-1},
    Psi_k = E_1 Psi_{k-1} + Psi_1."""
    n, m = B.shape
    vl = np.zeros((n + m, n + m))
    vl[:n, :n], vl[:n, n:] = A, B
    top = scipy.linalg.expm(vl * gap)[:n]
    E1, Psi1 = top[:, :n], top[:, n:]
    E, Psi = E1, Psi1
    blocks = []
    for _ in range(count):
        blocks.append(np.kron(np.eye(H.shape[0]), E) - np.kron(H, Psi @ K))
        E, Psi = E1 @ E, E1 @ Psi + Psi1
    return np.array(blocks)


@settings(derandomize=True, deadline=None, max_examples=40, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fam=families())
def test_designed_families_pass_verify_up_to_T_bar(fam):
    rng = np.random.default_rng(fam["seed"])
    n, N = fam["n"], fam["N"]
    A, B = oracles.random_stabilizable(n, fam["m"], rng)
    mu1, mu2 = 10.0 ** rng.uniform(-1.0, 1.0, 2)
    Hs = [build_H(_graph(N, rng)) for _ in range(fam["graphs"])]
    x0l, x0f = rng.uniform(-3, 3, n), rng.uniform(-3, 3, (N, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            synth = synthesize(A, B, mu1, mu2, find_common_D(Hs), Hs)
        except CommonDNotFound:
            return  # Assumption 3 fails: there is no design to check
        T = synth.T_bar
        h = T / 10
        signal = SwitchingSignal.static() if len(Hs) == 1 else \
            SwitchingSignal(mode_count=2, period=14 * T,
                            phases=((0, 7 * T), (1, 7 * T)))
        # random gaps in [grid_h, T_bar], then every gap T_bar
        for T_low in (h, 10 * h):
            sched = gen_schedule(T_low, 10 * h, h, 300 * T,
                                 fam["schedule_seed"])
            rep = lyapunov_trace(
                simulate(A, B, Hs, signal, synth.K, sched, x0l, x0f), synth)
            assert rep.passed, (T_low, rep.worst_ratio, rep.rho_threshold,
                                rep.interval_violations)

        # the first multiple of T_bar at which the first graph, held,
        # makes the sampled error dynamics unstable
        rho = np.abs(np.linalg.eigvals(
            _error_blocks(A, B, synth.K, Hs[0], T, SCAN_GAPS))).max(axis=1)
        unstable = np.flatnonzero(rho > 1.0 + UNSTABLE_MARGIN)
        if unstable.size == 0:
            return  # stable at every scanned gap
        gap = (unstable[0] + 1) * T
        sched = gen_schedule(gap, gap, gap, CONTROL_INTERVALS * gap, 0)
        rep = lyapunov_trace(
            simulate(A, B, Hs[:1], SwitchingSignal.static(), synth.K, sched,
                     x0l, x0f), synth)
        assert not rep.passed, (gap / T, rho[unstable[0]])
