import math

import numpy as np
import pytest

from leadersync import (CommonDNotFound, ContractionInfeasible,
                        DConstructionFailure, EnumerationTooLarge,
                        SamplingSchedule, Topology, build_H, construct_D,
                        contraction_factor, enumerate_admissible,
                        find_common_D, leader_reachable, synthesize,
                        verify_comparison_lemma, worst_case_params)
from leadersync.synthesis import (_definiteness_margin, _scalings,
                                  admissible_laplacians)

import oracles

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
        H = build_H(t).H
        d = construct_D(build_H(t))
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
        gl = build_H(t)
        d = construct_D(gl)
        assert d.max() == 1.0
        assert d.min() > 0.0
        D = np.diag(d)
        S = D @ gl.H + gl.H.T @ D
        lo, _hi = oracles.sym_extremes_bisect(S)
        assert lo > 0.0


def test_construct_D_rejects_unreachable():
    with pytest.raises(DConstructionFailure):
        construct_D(build_H(Topology(2, frozenset([(0, 1)]))))


# ------------------------------------------------------ find_common_D

def test_find_common_D_prefers_identity():
    gls = [build_H(Topology(4, EDGES_1)), build_H(Topology(4, EDGES_2))]
    assert np.array_equal(find_common_D(gls), np.ones(4))


def test_find_common_D_quotient_stage():
    gl = build_H(Topology(4, EDGES_SKEW))
    assert _definiteness_margin(np.ones(4), [gl.H]) <= 0.0
    d = find_common_D([gl])
    assert _definiteness_margin(d, [gl.H]) > 0.0
    assert np.allclose(d, construct_D(gl), rtol=1e-13)


def test_find_common_D_geometric_mean_stage():
    g1 = build_H(Topology(5, EDGES_GEO_1))
    g2 = build_H(Topology(5, EDGES_GEO_2))
    mats = [g1.H, g2.H]
    assert _definiteness_margin(np.ones(5), mats) <= 0.0
    assert _definiteness_margin(construct_D(g1), mats) <= 0.0
    assert _definiteness_margin(construct_D(g2), mats) <= 0.0
    d = find_common_D([g1, g2])
    assert _definiteness_margin(d, mats) > 0.0


def test_find_common_D_ascent_stage():
    g1 = build_H(Topology(5, EDGES_ASC_1))
    g2 = build_H(Topology(5, EDGES_ASC_2))
    mats = [g1.H, g2.H]
    d1, d2 = construct_D(g1), construct_D(g2)
    geo = np.exp(0.5 * (np.log(d1) + np.log(d2)))
    geo = geo / geo.max()
    for cand in (np.ones(5), d1, d2, geo):
        assert _definiteness_margin(cand, mats) <= 0.0
    d = find_common_D([g1, g2])
    assert _definiteness_margin(d, mats) > 0.0


def test_find_common_D_unsatisfiable():
    # a follower with no in-edges at all zeroes a diagonal entry of
    # D H + H^T D for every positive D
    gl = build_H(Topology(2, frozenset([(0, 1)])))
    with pytest.raises(CommonDNotFound):
        find_common_D([gl])


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
        mats = [build_H(oracles.random_reachable_topology(N, rng)).H
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
    gl = build_H(Topology(4, EDGES_1))
    res = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(4), [gl])
    assert np.allclose(res.P, [[7.21375344, -3.68967041],
                               [-3.68967041, 6.3387696]], atol=1e-7)
    assert np.allclose(res.K, [[0.887356, 1.21952]], atol=1e-5)
    assert math.isclose(res.T_bar, 0.018585, abs_tol=1e-5)
    assert res.D is not None


def test_synthesize_switching_demo_values():
    gls = [build_H(Topology(4, EDGES_1)), build_H(Topology(4, EDGES_2))]
    res = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(4), gls)
    assert np.allclose(res.K, [[0.948302, 1.30328]], atol=1e-5)
    assert math.isclose(res.T_bar, 0.016696, abs_tol=1e-5)


def test_synthesize_ladder_internal_consistency():
    rng = np.random.default_rng(311)
    for _ in range(10):
        N = int(rng.integers(2, 5))
        t = oracles.random_reachable_topology(N, rng)
        gl = build_H(t)
        d = construct_D(gl)
        A, B = oracles.random_stabilizable(int(rng.integers(1, 4)), 1, rng)
        res = synthesize(A, B, 1.0, 1.0, d, [gl])
        assert res.T_bar == pytest.approx(math.sqrt(res.c1 / res.c2))
        assert res.alpha3 == pytest.approx(
            res.alpha2 ** 2 / (2.0 * res.d_m * res.mu2))
        assert res.c2 == pytest.approx(res.alpha3 * res.alpha4)
        assert np.allclose(res.K, res.alpha1 * (B.T @ res.P))
        assert res.T_bar > 0.0


def test_synthesize_rejects_uncertified_scaling():
    gl = build_H(Topology(4, EDGES_SKEW))
    with pytest.raises(DConstructionFailure):
        synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(4), [gl])


def test_synthesize_rejects_bad_inputs():
    gl = build_H(Topology(4, EDGES_1))
    with pytest.raises(ValueError):
        synthesize(A_DEMO, B_DEMO, -1.0, 1.0, np.ones(4), [gl])
    with pytest.raises(ValueError):
        synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(3), [gl])
    with pytest.raises(ValueError):
        synthesize(A_DEMO, B_DEMO, 1.0, 1.0, -np.ones(4), [gl])
    with pytest.raises(ValueError):
        synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.ones(4), [])


# -------------------------------------------------------- enumeration

def test_enumerate_single_follower():
    tops = enumerate_admissible(1)
    assert len(tops) == 2
    Hs = {build_H(t).H.tobytes() for t in tops}
    assert len(Hs) == 1
    assert np.array_equal(build_H(tops[0]).H, [[1.0]])


def test_enumerate_two_followers_against_bruteforce():
    tops = enumerate_admissible(2)
    count = len(oracles.enumerate_bruteforce(2))
    assert len(tops) == count == 32


@pytest.mark.parametrize("N, count, distinct", [(1, 2, 1), (2, 32, 8),
                                                (3, 2432, 304)])
def test_enumeration_matches_closure_oracle(N, count, distinct):
    oracle = oracles.enumerate_bruteforce(N)
    assert len(oracle) == count
    assert {t.edges for t in enumerate_admissible(N)} == set(oracle)
    got_count, Hs = admissible_laplacians(N)
    assert got_count == count
    assert Hs.shape == (distinct, N, N) and Hs.dtype == np.float64
    want = {build_H(Topology(N, e)).H.tobytes() for e in oracle}
    got = {H.tobytes() for H in Hs}
    assert len(want) == len(got) == distinct
    assert got == want


def test_enumerate_rejects_large_and_invalid():
    with pytest.raises(EnumerationTooLarge):
        enumerate_admissible(4)
    with pytest.raises(ValueError):
        enumerate_admissible(0)


def test_worst_case_single_follower_equals_static():
    res_w = worst_case_params(A_DEMO, B_DEMO, 1.0, 1.0, 1)
    gl = build_H(Topology(1, frozenset([(0, 1)])))
    res_s = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, np.array([1.0]), [gl])
    assert np.allclose(res_w.K, res_s.K, rtol=1e-12)
    assert math.isclose(res_w.T_bar, res_s.T_bar, rel_tol=1e-12)
    assert res_w.D is None


def _per_graph_worst_case(A, B, mu1, mu2, N):
    """worst_case_params one graph at a time: construct_D and synthesize
    on each distinct grounded Laplacian, extremes taken by min and max,
    norms from numpy.linalg."""
    distinct = {}
    for t in enumerate_admissible(N):
        gl = build_H(t)
        distinct.setdefault(gl.H.tobytes(), gl)
    runs = []
    for gl in distinct.values():
        d = construct_D(gl)
        runs.append((gl.H, d, synthesize(A, B, mu1, mu2, d, [gl])))
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


def test_stacked_scalings_reject_a_bad_slice():
    good = build_H(Topology(2, frozenset([(0, 1), (1, 2)]))).H
    singular = build_H(Topology(2, frozenset([(0, 1)]))).H
    not_M = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert _scalings(np.stack([good, good]))[1] > 0.0
    for bad in (singular, not_M):
        with pytest.raises(DConstructionFailure, match="M-matrix"):
            _scalings(np.stack([good, bad, good]))


def test_worst_case_bound_covers_every_graph():
    res_w = worst_case_params(A_DEMO, B_DEMO, 1.0, 1.0, 2)
    for t in enumerate_admissible(2):
        gl = build_H(t)
        d = construct_D(gl)
        res = synthesize(A_DEMO, B_DEMO, 1.0, 1.0, d, [gl])
        assert res_w.T_bar <= res.T_bar + 1e-12


# ------------------------------------------------ contraction factor

def test_contraction_factor_hand_value():
    # beta1 = 2, beta2 = 1, h = ln 2: rho = 0.5 * 0.25 + 0.5 = 0.625
    cp = contraction_factor(2.0, 1.0, math.log(2.0))
    assert math.isclose(cp.rho, 0.625, rel_tol=1e-12)


def test_contraction_factor_strictly_below_one():
    rng = np.random.default_rng(321)
    for _ in range(100):
        b1 = float(rng.uniform(0.1, 5.0))
        b2 = float(rng.uniform(0.0, 1.0)) * b1
        if b2 == 0.0:
            continue
        h = float(rng.uniform(0.01, 3.0))
        assert 0.0 < contraction_factor(b1, b2, h).rho < 1.0


def test_contraction_factor_decreases_with_gap():
    prev = 1.0
    for h in (0.1, 0.5, 1.0, 2.0):
        rho = contraction_factor(1.0, 0.3, h).rho
        assert rho < prev
        prev = rho


def test_contraction_factor_infeasible():
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
        assert verify_comparison_lemma(b1, b2, sched, float(rng.uniform(0.1, 10.0)))


def test_comparison_lemma_vacuous_start():
    assert verify_comparison_lemma(1.0, 0.5, _uniform_schedule(0.1, 5), 0.0)


def test_comparison_lemma_rejects_bad_params():
    sched = _uniform_schedule(0.1, 5)
    with pytest.raises(ContractionInfeasible):
        verify_comparison_lemma(1.0, 1.5, sched, 1.0)
    with pytest.raises(ValueError):
        verify_comparison_lemma(1.0, 0.5, sched, -1.0)
