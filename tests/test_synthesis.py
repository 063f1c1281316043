import dataclasses
import math

import numpy as np
import pytest

from leadersync import (SamplingSchedule, SwitchingSignal, Topology, build_H,
                        find_common_D, load_scenario, simulate, synthesize,
                        worst_case_params)
from leadersync import synthesis
from leadersync.errors import (CommonDNotFound, DConstructionFailure,
                               EnumerationTooLarge, InvalidMatrix,
                               LeaderSyncError, NotStabilizable,
                               NumericalOverflow)
from leadersync.graph import admissible_laplacians
from leadersync.numerics.linalg import spectral_norm
from leadersync.synthesis import (_definiteness_margin, _rho, _scalings,
                                  construct_D)

import oracles
from conftest import STATIC, SWITCHING
from oracles import ContractionInfeasible, contraction_factor

EDGES_1 = frozenset([(0, 1), (0, 2), (3, 2), (1, 3), (4, 3), (2, 4)])
EDGES_2 = frozenset([(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])

A_DEMO = np.array([[-0.38, 0.72], [-0.68, 0.42]])
B_DEMO = np.array([[0.26], [0.31]])

# identity scaling fails on this graph but the quotient construction works
EDGES_SKEW = frozenset([(0, 2), (0, 3), (1, 3), (2, 1), (2, 3), (2, 4),
                        (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])

# for this pair the identity and both per-graph scalings fail jointly
# while their geometric mean succeeds
EDGES_GEO_1 = frozenset([(0, 1), (0, 5), (1, 3), (2, 1), (2, 4), (3, 1),
                         (3, 5), (4, 1), (4, 2), (4, 5), (5, 1), (5, 2)])
EDGES_GEO_2 = frozenset([(0, 1), (0, 3), (1, 3), (1, 4), (2, 0), (2, 4),
                         (3, 2), (4, 1), (4, 3), (4, 5), (5, 1), (5, 3)])

# here even the geometric mean fails and only the ascent finds a scaling
EDGES_ASC_1 = frozenset([(0, 5), (1, 3), (1, 4), (2, 0), (2, 1), (2, 4),
                         (2, 5), (3, 5), (4, 2), (4, 3), (5, 0), (5, 4)])
EDGES_ASC_2 = frozenset([(0, 1), (0, 5), (2, 3), (2, 4), (3, 0), (3, 1),
                         (3, 2), (3, 5), (4, 3), (4, 5), (5, 2)])


def _uniform_schedule(T, count):
    instants = np.arange(count + 1, dtype=float) * T
    return SamplingSchedule(instants=instants, T_low=T, T_high=T,
                            grid_h=T, seed=0, horizon=float(instants[-1]))


# ------------------------------------------------------- construct_D

def test_construct_D_demo_graph_quotients():
    d = construct_D(build_H(Topology(4, EDGES_1)))
    assert np.allclose(d, [1.0, 3.0 / 7.0, 12.0 / 49.0, 3.0 / 8.0],
                       rtol=1e-13)


def test_construct_D_matches_independent_solves():
    rng = np.random.default_rng(301)
    for _ in range(30):
        N = int(rng.integers(2, 7))
        t = oracles.random_reachable_topology(N, rng)
        H = build_H(t)
        d = construct_D(H)
        w = oracles.solve_gauss(H, np.ones(N))
        z = oracles.solve_gauss(H.T, np.ones(N))
        expected = z / w
        expected = expected / expected.max()
        assert np.allclose(d, expected, rtol=1e-10)


def test_construct_D_certifies_definiteness():
    rng = np.random.default_rng(302)
    for _ in range(100):
        N = int(rng.integers(1, 7))
        t = oracles.random_reachable_topology(N, rng)
        H = build_H(t)
        d = construct_D(H)
        assert d.max() == 1.0
        assert d.min() > 0.0
        D = np.diag(d)
        S = D @ H + H.T @ D
        lo, _hi = oracles.sym_extremes_bisect(S)
        assert lo > 0.0


def test_construct_D_rejects_unreachable():
    with pytest.raises(DConstructionFailure):
        construct_D(build_H(Topology(2, frozenset([(0, 1)]))))


# ------------------------------------------------------ find_common_D

def test_find_common_D_prefers_identity():
    Hs = [build_H(Topology(4, EDGES_1)), build_H(Topology(4, EDGES_2))]
    assert np.array_equal(find_common_D(Hs), np.ones(4))


def test_find_common_D_quotient_stage():
    H = build_H(Topology(4, EDGES_SKEW))
    assert _definiteness_margin(np.ones(4), [H]) <= 0.0
    d = find_common_D([H])
    assert _definiteness_margin(d, [H]) > 0.0
    assert np.allclose(d, construct_D(H), rtol=1e-13)


def test_find_common_D_geometric_mean_stage():
    g1 = build_H(Topology(5, EDGES_GEO_1))
    g2 = build_H(Topology(5, EDGES_GEO_2))
    mats = [g1, g2]
    assert _definiteness_margin(np.ones(5), mats) <= 0.0
    assert _definiteness_margin(construct_D(g1), mats) <= 0.0
    assert _definiteness_margin(construct_D(g2), mats) <= 0.0
    d = find_common_D([g1, g2])
    assert _definiteness_margin(d, mats) > 0.0


def test_find_common_D_ascent_stage():
    g1 = build_H(Topology(5, EDGES_ASC_1))
    g2 = build_H(Topology(5, EDGES_ASC_2))
    mats = [g1, g2]
    d1, d2 = construct_D(g1), construct_D(g2)
    geo = np.exp(0.5 * (np.log(d1) + np.log(d2)))
    geo = geo / geo.max()
    for cand in (np.ones(5), d1, d2, geo):
        assert _definiteness_margin(cand, mats) <= 0.0
    d = find_common_D([g1, g2])
    assert _definiteness_margin(d, mats) > 0.0


# the bytes of D that each stage of the candidate order returns; the
# search's arithmetic is pinned, not only the margin of its result
D_HEX_IDENTITY = "000000000000f03f" * 4
D_HEX_QUOTIENT = ("1dc7711cc771bc3f000000000000f03f73e501c93a57ae3f"
                  "000000000000f03f")
D_HEX_GEO = ("388d22f45bfcd23f5ac6bd443720ec3fcf1d7a716aa3dd3f"
             "000000000000f03f5e41464b8037e23f")
D_HEX_ASCENT = ("e8a11f2561a5e03f000000000000f03f721d3e740f76d73f"
                "a46fc5b0df20e13f88d68af70b3bd53f")


@pytest.mark.parametrize("path", [STATIC, SWITCHING])
def test_find_common_D_bytes_on_the_demos(path):
    sc = load_scenario(path)
    d = find_common_D([build_H(t) for t in sc.topologies])
    assert d.tobytes().hex() == D_HEX_IDENTITY


@pytest.mark.parametrize("N,edge_sets,want", [
    (4, [EDGES_SKEW], D_HEX_QUOTIENT),
    (5, [EDGES_GEO_1, EDGES_GEO_2], D_HEX_GEO),
    (5, [EDGES_ASC_1, EDGES_ASC_2], D_HEX_ASCENT),
], ids=["quotient", "geometric_mean", "ascent"])
def test_find_common_D_bytes_at_each_stage(N, edge_sets, want):
    Hs = [build_H(Topology(N, e)) for e in edge_sets]
    assert find_common_D(Hs).tobytes().hex() == want
    # a (G, N, N) stack gives the same bytes as a list
    assert find_common_D(np.array(Hs)).tobytes().hex() == want


def test_find_common_D_ascent_margin_evaluations(monkeypatch):
    # two per-graph verifications in construct_D, four candidates, then
    # the ascent's start and 50 steps; a change in the count is a change
    # in the search path, even where D is unchanged
    calls = []
    margin = synthesis._definiteness_margin

    def counted(*args, **kwargs):
        calls.append(kwargs.get("grad", False))
        return margin(*args, **kwargs)

    monkeypatch.setattr(synthesis, "_definiteness_margin", counted)
    Hs = [build_H(Topology(5, EDGES_ASC_1)), build_H(Topology(5, EDGES_ASC_2))]
    find_common_D(Hs)
    assert len(calls) == 57
    assert calls.count(False) == 6


def test_find_common_D_bytes_on_the_ring():
    # the benchmark's 16-follower ring, every follower fed by the leader
    N = 16
    edges = [(0, i) for i in range(1, N + 1)]
    edges += [(i, i + 1) for i in range(1, N)] + [(N, 1)]
    d = find_common_D([build_H(Topology(N, frozenset(edges)))])
    assert d.tobytes().hex() == "000000000000f03f" * N


# D H + H^T D at D = I is exactly singular on this graph, an integer
# matrix of determinant 0, and eigvalsh may put its least eigenvalue a
# few ulps above 0
EDGES_NOISE = frozenset([(4, 1), (1, 2), (3, 2), (1, 3), (4, 3), (1, 4),
                         (2, 4), (0, 4)])


def test_a_margin_within_rounding_certifies_nothing():
    H = build_H(Topology(4, EDGES_NOISE))
    assert np.array_equal(H, [[1, 0, 0, -1], [-1, 2, -1, 0],
                              [-1, 0, 2, -1], [-1, -1, 0, 3]])
    assert oracles.det_cofactor(H + H.T) == 0.0
    # the floor is relative to ||S||, so no scale of H lifts the margin
    for scale in (1.0, 1e-150, 1e150):
        assert _definiteness_margin(np.ones(4), [scale * H]) <= 0.0
    d = find_common_D([H])
    assert np.array_equal(d, construct_D(H))
    assert math.isclose(_definiteness_margin(d, [H]), 0.2126, rel_tol=1e-3)
    A, B = [[0.5]], [[1.0]]
    assert synthesize(A, B, 1.0, 1.0, d, [H]).T_bar > 1e-6
    with pytest.raises(DConstructionFailure, match="does not certify"):
        synthesize(A, B, 1.0, 1.0, np.ones(4), [H])


def test_find_common_D_unsatisfiable():
    # a follower with no in-edges at all zeroes a diagonal entry of
    # D H + H^T D for every positive D
    H = build_H(Topology(2, frozenset([(0, 1)])))
    with pytest.raises(CommonDNotFound):
        find_common_D([H])


def test_find_common_D_requires_input():
    with pytest.raises(ValueError):
        find_common_D([])


def _margin_fd(f, u, eps=1e-5):
    """Central differences of f at u, one coordinate at a time."""
    fd = np.empty(u.shape[0])
    for i in range(u.shape[0]):
        step = np.zeros(u.shape[0])
        step[i] = eps
        fd[i] = (f(u + step) - f(u - step)) / (2.0 * eps)
    return fd


def test_margin_subgradient_matches_central_differences():
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 30:
        N = int(rng.integers(2, 7))
        mats = [build_H(oracles.random_reachable_topology(N, rng))
                for _ in range(int(rng.integers(1, 3)))]
        u = rng.uniform(-1.5, -0.01, N)
        k = int(rng.integers(N))
        u[k] = 0.0
        d = np.exp(u)
        # lam_min simple, and attained by one graph, with room to spare
        spectra = [np.linalg.eigvalsh(np.diag(d) @ H + H.T @ np.diag(d))
                   for H in mats]
        lows = sorted(float(w[0]) for w in spectra)
        if min(float(w[1] - w[0]) for w in spectra) < 1e-3 or \
                (len(lows) > 1 and lows[1] - lows[0] < 1e-3):
            continue
        margin, grad = _definiteness_margin(d, mats, grad=True)
        assert math.isclose(margin, lows[0], rel_tol=1e-12, abs_tol=1e-14)
        fd = _margin_fd(lambda x: _definiteness_margin(np.exp(x), mats), u)
        np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                   atol=1e-9 * np.max(np.abs(fd)))
        # the ascent's objective, taken at the projection max d = 1
        fd = _margin_fd(lambda x: _definiteness_margin(
            np.exp(x - np.max(x)), mats), u)
        grad[k] -= margin
        np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                   atol=1e-9 * np.max(np.abs(fd)))
        checked += 1


# --------------------------------------------------------- synthesize

def test_synthesize_scalar_ladder_by_hand():
    # A = 0, B = 1, unit weights, single self-sufficient follower:
    # P = 1, K = 1/2, and the interval bound works out to exactly 2
    res = synthesize(np.array([[0.0]]), np.array([[1.0]]), 1.0, 1.0,
                     np.array([1.0]),
                     [build_H(Topology(1, frozenset([(0, 1)])))])
    assert math.isclose(res.P[0, 0], 1.0, rel_tol=1e-12)
    assert math.isclose(res.lam1, 2.0, rel_tol=1e-12)
    assert math.isclose(res.alpha1, 0.5, rel_tol=1e-12)
    assert math.isclose(res.alpha2, 1.0, rel_tol=1e-12)
    assert math.isclose(res.alpha3, 0.5, rel_tol=1e-12)
    assert math.isclose(res.alpha4, 0.25, rel_tol=1e-12)
    assert math.isclose(res.c1, 0.5, rel_tol=1e-12)
    assert math.isclose(res.c2, 0.125, rel_tol=1e-12)
    assert math.isclose(res.T_bar, 2.0, rel_tol=1e-12)
    assert math.isclose(res.K[0, 0], 0.5, rel_tol=1e-12)


def test_synthesize_static_demo_values():
    H = build_H(Topology(4, EDGES_1))
    res = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(4), [H])
    assert np.allclose(res.P, [[7.21375344, -3.68967041],
                               [-3.68967041, 6.3387696]], atol=1e-7)
    assert np.allclose(res.K, [[0.887356, 1.21952]], atol=1e-5)
    assert math.isclose(res.T_bar, 0.018585, abs_tol=1e-5)
    assert res.D is not None


def test_synthesize_switching_demo_values():
    Hs = [build_H(Topology(4, EDGES_1)), build_H(Topology(4, EDGES_2))]
    res = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(4), Hs)
    assert np.allclose(res.K, [[0.948302, 1.30328]], atol=1e-5)
    assert math.isclose(res.T_bar, 0.016696, abs_tol=1e-5)


def test_synthesize_ladder_internal_consistency():
    rng = np.random.default_rng(311)
    for _ in range(10):
        N = int(rng.integers(2, 5))
        t = oracles.random_reachable_topology(N, rng)
        H = build_H(t)
        d = construct_D(H)
        A, B = oracles.random_stabilizable(int(rng.integers(1, 4)), 1, rng)
        res = synthesize(A, B, 1.0, 1.0, d, [H])
        assert res.T_bar == pytest.approx(math.sqrt(res.c1 / res.c2))
        assert res.alpha3 == pytest.approx(
            res.alpha2 ** 2 / (2.0 * res.d_m * res.mu2))
        assert res.c2 == pytest.approx(res.alpha3 * res.alpha4)
        assert np.allclose(res.K, res.alpha1 * (B.T @ res.P))
        assert res.T_bar > 0.0


def test_synthesize_rejects_uncertified_scaling():
    H = build_H(Topology(4, EDGES_SKEW))
    with pytest.raises(DConstructionFailure):
        synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(4), [H])


def test_synthesize_rejects_bad_inputs():
    H = build_H(Topology(4, EDGES_1))
    with pytest.raises(ValueError):
        synthesize(A_DEMO, B_DEMO, -1.0, 1.0, np.ones(4), [H])
    with pytest.raises(ValueError):
        synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(3), [H])
    with pytest.raises(ValueError):
        synthesize(A_DEMO, B_DEMO, 1.0, 1.0, -np.ones(4), [H])
    with pytest.raises(ValueError):
        synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(4), [])


@pytest.mark.parametrize("mu1", [math.inf, math.nan])
def test_design_entry_points_reject_non_finite_weights(mu1):
    H = build_H(Topology(4, EDGES_1))
    with pytest.raises(ValueError, match="finite"):
        synthesize(A_DEMO, B_DEMO, mu1, 1.0, np.ones(4), [H])
    with pytest.raises(ValueError, match="finite"):
        worst_case_params(A_DEMO, B_DEMO, mu1, 1.0, 2)


@pytest.mark.parametrize("mu2,match", [
    (1e-320, "float range: alpha3 = inf"),
    (1e-300, "T_bar underflowed to 0"),
])
def test_ladder_refuses_terms_past_the_float_range(mu2, match):
    # a subnormal weight is positive and finite, but alpha3 divides by
    # it; a tiny one gives finite terms and a T_bar that rounds to 0
    H = build_H(Topology(4, EDGES_1))
    with pytest.raises(NumericalOverflow, match=match):
        synthesize(A_DEMO, B_DEMO, 1.0, mu2, np.ones(4), [H])
    with pytest.raises(NumericalOverflow, match=match):
        worst_case_params(A_DEMO, B_DEMO, 1.0, mu2, 2)


def test_worst_case_weights_across_the_float_range_return_or_are_typed():
    # every pair of weights from subnormal to near the float maximum gives
    # a design or a typed error, never a numpy warning (the test settings
    # turn one into an error)
    grid = np.logspace(-320, 308, 18)
    returned = 0
    for mu1 in grid:
        for mu2 in grid:
            try:
                worst_case_params(A_DEMO, B_DEMO, mu1, mu2, 2)
            except LeaderSyncError:
                continue
            returned += 1
    assert returned > 0


def test_ladder_refuses_a_zero_input_matrix():
    # B = 0 with a stable A solves the Riccati equation, but c2 = 0
    # leaves no finite sampling bound
    with pytest.raises(NumericalOverflow, match="T_bar = inf"):
        worst_case_params(np.array([[-1.0]]), np.array([[0.0]]), 1.0, 1.0,
                          1)


def test_design_entry_points_take_arrays_and_stacks():
    Hs = [build_H(Topology(4, EDGES_1)), build_H(Topology(4, EDGES_2))]
    stack = np.stack(Hs)
    d = find_common_D(Hs)
    assert np.array_equal(find_common_D(stack), d)
    want = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, d, Hs)
    got = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, d, stack)
    assert got.T_bar == want.T_bar and np.array_equal(got.K, want.K)
    assert np.array_equal(construct_D(Hs[0].tolist()), construct_D(Hs[0]))
    wide = np.ones((2, 3))
    with pytest.raises(InvalidMatrix, match="H must be square"):
        construct_D(wide)
    with pytest.raises(InvalidMatrix, match="H must be square"):
        find_common_D([Hs[0], wide])
    with pytest.raises(InvalidMatrix, match="H must be square"):
        synthesize(A_DEMO, B_DEMO, 1.0, 1.0, d, [wide])


_STACK_READERS = {
    "find_common_D": find_common_D,
    "synthesize": lambda Hs: synthesize(A_DEMO, B_DEMO, 1.0, 1.0,
                                        np.ones(4), Hs),
    "simulate": lambda Hs: simulate(
        A_DEMO, B_DEMO, Hs, SwitchingSignal.static(), np.ones((1, 2)),
        _uniform_schedule(0.01, 10), [1.0, 0.0], np.ones((4, 2))),
}


@pytest.mark.parametrize("entry", sorted(_STACK_READERS))
@pytest.mark.parametrize("Hs,message", [
    ([np.eye(4), np.eye(3)], "all grounded Laplacians must share one size"),
    ([], "at least one grounded Laplacian is required"),
    (build_H(Topology(4, EDGES_1)),
     "Hs must be a list or a (G, N, N) stack of grounded Laplacians; an "
     "entry of shape (4,) is not a matrix"),
], ids=["mismatched", "empty", "one-matrix"])
def test_every_entry_point_reads_the_laplacian_stack_alike(entry, Hs,
                                                            message):
    with pytest.raises(ValueError) as exc:
        _STACK_READERS[entry](Hs)
    assert str(exc.value) == message


def test_designs_over_one_agent_model_share_its_terms(monkeypatch):
    solves = []
    real = synthesis.solve_care

    def counted(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(synthesis, "solve_care", counted)
    graphs = ([build_H(Topology(4, EDGES_1))],
              [build_H(Topology(4, EDGES_1)), build_H(Topology(4, EDGES_2))])
    alone = [synthesize(A_DEMO, B_DEMO, 1.0, 1.0, find_common_D(Hs), Hs)
             for Hs in graphs]
    assert len(solves) == 2
    agents = {}
    shared = [synthesize(A_DEMO, B_DEMO, 1.0, 1.0, find_common_D(Hs), Hs,
                         agents=agents) for Hs in graphs]
    assert len(solves) == 3 and len(agents) == 1
    # the same floats as designs that solve alone, and one read-only P
    for got, want in zip(shared, alone):
        for f in dataclasses.fields(want):
            assert np.array_equal(getattr(got, f.name),
                                  getattr(want, f.name)), f.name
    assert shared[0].P is shared[1].P
    for res in shared + alone:
        assert not res.P.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            res.P[0, 0] = 0.0
    # other weights are another agent model
    synthesize(A_DEMO, B_DEMO, 2.0, 1.0, np.ones(4), graphs[0], agents=agents)
    assert len(solves) == 4 and len(agents) == 2


@pytest.mark.parametrize("A, B, mu1, error", [
    (A_DEMO, B_DEMO, -1.0, ValueError),
    (np.eye(2), np.zeros((2, 1)), 1.0, NotStabilizable),
], ids=["weight", "unstabilizable"])
def test_an_agent_solve_that_raises_is_not_stored(A, B, mu1, error):
    agents = {}
    H = [build_H(Topology(4, EDGES_1))]
    for _ in range(2):
        with pytest.raises(error):
            synthesize(A, B, mu1, 1.0, np.ones(4), H, agents=agents)
    assert agents == {}


# -------------------------------------------------------- enumeration

def _bruteforce_topologies(N):
    return [Topology(N, e) for e in oracles.enumerate_bruteforce(N)]


def test_enumerate_single_follower():
    tops = _bruteforce_topologies(1)
    assert len(tops) == admissible_laplacians(1)[0] == 2
    Hs = {build_H(t).tobytes() for t in tops}
    assert len(Hs) == 1
    assert np.array_equal(build_H(tops[0]), [[1.0]])


def test_enumerate_two_followers_against_bruteforce():
    count, _ = admissible_laplacians(2)
    assert count == len(oracles.enumerate_bruteforce(2)) == 32


@pytest.mark.parametrize("N, count, distinct", [(1, 2, 1), (2, 32, 8),
                                                (3, 2432, 304)])
def test_enumeration_matches_closure_oracle(N, count, distinct):
    oracle = oracles.enumerate_bruteforce(N)
    assert len(oracle) == count
    got_count, Hs = admissible_laplacians(N)
    assert got_count == count
    assert Hs.shape == (distinct, N, N) and Hs.dtype == np.float64
    want = {oracles.grounded_laplacian(N, e).tobytes() for e in oracle}
    got = {H.tobytes() for H in Hs}
    assert len(want) == len(got) == distinct
    assert got == want


def test_enumerate_rejects_large_and_invalid():
    with pytest.raises(EnumerationTooLarge):
        admissible_laplacians(4)
    with pytest.raises(ValueError):
        admissible_laplacians(0)


def test_worst_case_single_follower_equals_static():
    res_w = worst_case_params(A_DEMO, B_DEMO, 1.0, 1.0, 1)
    H = build_H(Topology(1, frozenset([(0, 1)])))
    res_s = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.array([1.0]), [H])
    assert np.allclose(res_w.K, res_s.K, rtol=1e-12)
    assert math.isclose(res_w.T_bar, res_s.T_bar, rel_tol=1e-12)
    assert res_w.D is None


def _per_graph_worst_case(A, B, mu1, mu2, N):
    """worst_case_params one graph at a time: construct_D and synthesize
    on each distinct grounded Laplacian, extremes taken by min and max,
    norms from numpy.linalg."""
    distinct = {}
    for t in _bruteforce_topologies(N):
        H = build_H(t)
        distinct.setdefault(H.tobytes(), H)
    runs = []
    for H in distinct.values():
        d = construct_D(H)
        runs.append((H, d, synthesize(A, B, mu1, mu2, d, [H])))
    P = runs[0][2].P
    two = lambda M: np.linalg.norm(M, 2)
    lam1 = min(r.lam1 for _, _, r in runs)
    d_m = min(r.d_m for _, _, r in runs)
    d_M = max(r.d_M for _, _, r in runs)
    lamP = np.linalg.eigvalsh(P)
    lam_m, lam_M = d_m * lamP[0], d_M * lamP[-1]
    alpha1 = mu1 * d_M / lam1
    alpha2 = max(2.0 * alpha1 * two(np.diag(d) @ H) * two(P @ B @ B.T @ P)
                 for H, d, _ in runs)
    alpha3 = alpha2 ** 2 / (2.0 * d_m * mu2)
    alpha4 = max((two(A) + alpha1 * two(H) * two(B @ B.T @ P)) ** 2 / lam_m
                 for H, _, _ in runs)
    c1 = d_m * mu2 / (2.0 * lam_M)
    c2 = alpha3 * alpha4
    return dict(P=P, K=alpha1 * (B.T @ P), d_m=d_m, d_M=d_M, lam_m=lam_m,
                lam_M=lam_M, lam1=lam1, alpha1=alpha1, alpha2=alpha2,
                alpha3=alpha3, alpha4=alpha4, c1=c1, c2=c2,
                T_bar=math.sqrt(c1 / c2), mu1=mu1, mu2=mu2,
                care_residual=runs[0][2].care_residual)


# the ascent-pair benchmark model carries the demo matrices; the ring
# matrices add a second input
A_RING = np.array([[-0.38, 0.72, 0.05, 0.0], [-0.68, 0.42, 0.0, 0.0],
                   [0.0, 0.0, -0.38, 0.72], [0.0, 0.05, -0.68, 0.42]])
B_RING = np.array([[0.26, 0.0], [0.31, 0.0], [0.0, 0.26], [0.0, 0.31]])


def test_agent_norms_match_one_matrix_at_a_time():
    # one stacked spectral_norm call gives each norm bit for bit
    rng = np.random.default_rng(77)
    pairs = [(A_DEMO, B_DEMO), (A_RING, B_RING)]
    pairs += [oracles.random_stabilizable(int(rng.integers(1, 6)),
                                          int(rng.integers(1, 4)), rng)
              for _ in range(20)]
    for A, B in pairs:
        terms = synthesis._agent_terms(A, B, 1.0, 1.0)
        P = terms.care.P
        assert (terms.norm_A, terms.norm_PBBP, terms.norm_BBP) == (
            spectral_norm(A), spectral_norm(P @ B @ B.T @ P),
            spectral_norm(B @ B.T @ P))


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("A, B", [(A_DEMO, B_DEMO), (A_RING, B_RING)],
                         ids=["demo", "ring"])
def test_worst_case_stacked_matches_per_graph(A, B, N):
    res = worst_case_params(A, B, 1.0, 1.0, N)
    want = _per_graph_worst_case(A, B, 1.0, 1.0, N)
    assert res.D is None
    for key, value in want.items():
        np.testing.assert_allclose(getattr(res, key), value, rtol=1e-12,
                                   atol=0.0, err_msg=key)


def test_worst_case_takes_the_enumerated_stack():
    _, Hs = admissible_laplacians(2)
    got = worst_case_params(A_DEMO, B_DEMO, 1.0, 1.0, 2, Hs=Hs)
    want = worst_case_params(A_DEMO, B_DEMO, 1.0, 1.0, 2)
    for f in dataclasses.fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name))
    with pytest.raises(ValueError, match="stack of 3x3 grounded"):
        worst_case_params(A_DEMO, B_DEMO, 1.0, 1.0, 3, Hs=Hs)


def test_stacked_scalings_reject_a_bad_slice():
    good = build_H(Topology(2, frozenset([(0, 1), (1, 2)])))
    singular = build_H(Topology(2, frozenset([(0, 1)])))
    not_M = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert _scalings(np.stack([good, good]))[1] > 0.0
    for bad in (singular, not_M):
        with pytest.raises(DConstructionFailure, match="M-matrix"):
            _scalings(np.stack([good, bad, good]))


def test_worst_case_bound_covers_every_graph():
    res_w = worst_case_params(A_DEMO, B_DEMO, 1.0, 1.0, 2)
    for t in _bruteforce_topologies(2):
        H = build_H(t)
        d = construct_D(H)
        res = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, d, [H])
        assert res_w.T_bar <= res.T_bar + 1e-12


# ------------------------------------------------ contraction factor

def test_contraction_factor_hand_value():
    # beta1 = 2, beta2 = 1, h = ln 2: rho = 0.5 * 0.25 + 0.5 = 0.625
    assert math.isclose(_rho(2.0, 1.0, math.log(2.0)), 0.625, rel_tol=1e-12)


def test_contraction_factor_strictly_below_one():
    rng = np.random.default_rng(321)
    for _ in range(100):
        b1 = float(rng.uniform(0.1, 5.0))
        b2 = float(rng.uniform(0.0, 1.0)) * b1
        if b2 == 0.0:
            continue
        h = float(rng.uniform(0.01, 3.0))
        assert 0.0 < _rho(b1, b2, h) < 1.0


def test_contraction_factor_decreases_with_gap():
    prev = 1.0
    for h in (0.1, 0.5, 1.0, 2.0):
        rho = _rho(1.0, 0.3, h)
        assert rho < prev
        prev = rho


def test_contraction_factor_infeasible():
    # the oracle's input checks; _rho itself is unchecked
    with pytest.raises(ContractionInfeasible):
        contraction_factor(1.0, 1.0, 0.5)
    with pytest.raises(ContractionInfeasible):
        contraction_factor(1.0, 2.0, 0.5)
    with pytest.raises(ContractionInfeasible):
        contraction_factor(1.0, 0.5, 0.0)
    with pytest.raises(ContractionInfeasible):
        contraction_factor(-1.0, 0.5, 0.5)


# ------------------------------------------ comparison lemma checker

def test_comparison_lemma_uniform_schedules():
    rng = np.random.default_rng(331)
    for _ in range(50):
        b1 = float(rng.uniform(0.2, 4.0))
        b2 = b1 * float(rng.uniform(0.05, 0.95))
        T = float(rng.uniform(0.05, 1.0))
        sched = _uniform_schedule(T, 20)
        assert oracles.verify_comparison_lemma(b1, b2, sched,
                                               float(rng.uniform(0.1, 10.0)))


def test_comparison_lemma_vacuous_start():
    assert oracles.verify_comparison_lemma(1.0, 0.5,
                                           _uniform_schedule(0.1, 5), 0.0)


def test_comparison_lemma_rejects_bad_params():
    sched = _uniform_schedule(0.1, 5)
    with pytest.raises(ContractionInfeasible):
        oracles.verify_comparison_lemma(1.0, 1.5, sched, 1.0)
    with pytest.raises(ValueError):
        oracles.verify_comparison_lemma(1.0, 0.5, sched, -1.0)
