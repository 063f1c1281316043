"""Diagonal scalings, the gain and sampling-bound parameter ladder, and
per-interval contraction utilities."""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (CommonDNotFound, ContractionInfeasible,
                     DConstructionFailure, EnumerationTooLarge)
from .graph import GroundedLaplacian, Topology, _all_nonsingular_M
from .numerics.linalg import (_as_matrix, _square, solve_care, spectral_norm,
                              sym_eig_extremes, sym_eig_min_vector)


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Feedback gain, sampling-interval bound, and every intermediate.

    D holds the diagonal scaling entries; it is None for the
    graph-independent worst-case design, where d_m and d_M aggregate
    the per-graph scalings instead.
    """

    P: np.ndarray
    D: np.ndarray | None
    K: np.ndarray
    d_m: float
    d_M: float
    lam_m: float
    lam_M: float
    lam1: float
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    c1: float
    c2: float
    T_bar: float
    mu1: float
    mu2: float
    care_residual: float


@dataclass(frozen=True)
class ContractionParams:
    """Feasible per-interval decay bound rho for minimum gap h."""

    beta1: float
    beta2: float
    h: float
    rho: float


def _definiteness_margin(d, mats, grad=False):
    """Smallest eigenvalue of D H + H^T D over a stack of matrices H.

    d is one scaling for every matrix, shape (N,), or one per matrix,
    shape (G, N). With grad and one d, also returns a subgradient of
    that margin with respect to u = log d at the graph attaining it:
    d lam_min / d u_i = 2 d_i v_i (H v)_i for the unit eigenvector v of
    lam_min, exact wherever lam_min is simple and attained by one graph.
    """
    Hs = np.asarray(mats, dtype=float)
    DH = np.asarray(d, dtype=float)[..., :, None] * Hs
    S = DH + DH.swapaxes(-1, -2)
    if not grad:
        return float(np.min(sym_eig_extremes(S).lambda_min))
    lams, vecs = sym_eig_min_vector(S)
    k = int(np.argmin(lams))
    return float(lams[k]), 2.0 * d * vecs[k] * (Hs[k] @ vecs[k])


def construct_D(gl: GroundedLaplacian) -> np.ndarray:
    """Positive diagonal scaling d with D H + H^T D positive definite.

    Quotient construction d_i = z_i / w_i from w = H^{-1} 1 and
    z = H^{-T} 1, rescaled so max d_i = 1, then verified definite.
    Valid for any nonsingular M-matrix: both solves are elementwise
    positive and the scaled sum is a symmetric M-matrix.
    """
    return _scalings(gl.H[None])[0][0]


def _scalings(Hs):
    """construct_D for each grounded Laplacian of a (G, N, N) stack,
    and the smallest definiteness margin over the stack. Any matrix
    that fails raises DConstructionFailure."""
    if not _all_nonsingular_M(Hs):
        raise DConstructionFailure("input is not a nonsingular M-matrix")
    ones = np.ones(Hs.shape[:-1] + (1,))
    w = np.linalg.solve(Hs, ones)[..., 0]
    z = np.linalg.solve(Hs.swapaxes(-1, -2), ones)[..., 0]
    if np.min(w) <= 0.0 or np.min(z) <= 0.0:
        raise DConstructionFailure("inverse row or column sums are not positive")
    d = z / w
    d = d / np.max(d, axis=-1, keepdims=True)
    margin = _definiteness_margin(d, Hs)
    if not margin > 0.0:
        raise DConstructionFailure(
            f"definiteness verification failed: lambda_min = {margin:.3e}")
    return d, margin


def find_common_D(gls) -> np.ndarray:
    """Positive diagonal scaling valid for every given grounded Laplacian.

    Candidate order: the identity, each per-matrix construct_D, their
    elementwise geometric mean, then 500 steps of projected gradient
    ascent on log d maximizing the normalized definiteness margin.
    The search is incomplete; exhausting it raises CommonDNotFound,
    which does not prove that no scaling exists.
    """
    gls = list(gls)
    if not gls:
        raise ValueError("at least one grounded Laplacian is required")
    mats = [g.H for g in gls]
    n = mats[0].shape[0]
    for H in mats:
        if H.shape != (n, n):
            raise ValueError("all grounded Laplacians must share one size")

    candidates = [np.ones(n)]
    per_graph = []
    for g in gls:
        try:
            per_graph.append(construct_D(g))
        except DConstructionFailure:
            continue
    candidates.extend(per_graph)
    if per_graph:
        geo = np.exp(np.mean(np.log(np.vstack(per_graph)), axis=0))
        candidates.append(geo / np.max(geo))
    for cand in candidates:
        if _definiteness_margin(cand, mats) > 0.0:
            return cand

    # projected ascent on u = log d, kept at max u = 0 after every step.
    # The objective is the margin at d = e^(u - max u); that projection
    # divides the margin by e^(max u), so its subgradient is the
    # helper's minus the margin at the argmax index of u
    u = np.log(candidates[-1])
    u -= np.max(u)
    best = np.exp(u)
    margin, grad = _definiteness_margin(best, mats, grad=True)
    best_margin = margin
    step = 0.25
    for _ in range(500):
        grad[np.argmax(u)] -= margin
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        u = u + step * grad / gnorm
        u -= np.max(u)
        margin, grad = _definiteness_margin(np.exp(u), mats, grad=True)
        if margin > best_margin:
            best_margin = margin
            best = np.exp(u)
        else:
            step *= 0.9
        if best_margin > 0.0:
            return best
    raise CommonDNotFound(
        "no common diagonal scaling found by the candidate list or the "
        "ascent search; one may still exist")


def _ladder(a, b, mu1, mu2, Hs, ds, lam1, D) -> SynthesisResult:
    """Gain, sampling bound and every intermediate over a (G, N, N)
    stack Hs of grounded Laplacians with the diagonal scalings ds that
    certify them: one (N,) scaling for all, or (G, N), one per graph.
    lam1 is the smallest margin lam_min(D H + H^T D) over the stack.
    Extremes are taken over the stack, so the bound holds for every
    graph in it. Norms are spectral throughout, and Kronecker factors
    use the product identity for their norms and extreme eigenvalues."""
    care = solve_care(a, b, mu1, mu2)
    P = care.P
    if not lam1 > 0.0:
        raise DConstructionFailure(
            f"D does not certify definiteness for every graph: "
            f"lambda_min = {lam1:.3e}")
    d_m = float(np.min(ds))
    d_M = float(np.max(ds))
    specP = sym_eig_extremes(P)
    lam_m = d_m * specP.lambda_min
    lam_M = d_M * specP.lambda_max

    norm_A = spectral_norm(a)
    norm_PBBP = spectral_norm(P @ b @ b.T @ P)
    norm_BBP = spectral_norm(b @ b.T @ P)
    # each term below grows with its graph's norm, so the largest
    # norm gives the largest term
    norm_DH = float(np.max(spectral_norm(ds[..., :, None] * Hs)))
    norm_H = float(np.max(spectral_norm(Hs)))
    alpha1 = mu1 * d_M / lam1
    alpha2 = 2.0 * alpha1 * norm_DH * norm_PBBP
    alpha3 = alpha2 * alpha2 / (2.0 * d_m * mu2)
    alpha4 = (norm_A + alpha1 * norm_H * norm_BBP) ** 2 / lam_m
    c1 = d_m * mu2 / (2.0 * lam_M)
    c2 = alpha3 * alpha4
    T_bar = math.sqrt(c1 / c2)
    K = alpha1 * (b.T @ P)
    return SynthesisResult(
        P=P, D=D, K=K, d_m=d_m, d_M=d_M, lam_m=lam_m, lam_M=lam_M,
        lam1=lam1, alpha1=alpha1, alpha2=alpha2, alpha3=alpha3,
        alpha4=alpha4, c1=c1, c2=c2, T_bar=T_bar, mu1=float(mu1),
        mu2=float(mu2), care_residual=care.residual_norm)


def synthesize(A, B, mu1, mu2, D, Hs) -> SynthesisResult:
    """Feedback gain K and maximum sampling interval T_bar.

    Evaluates the full parameter ladder for the given diagonal scaling
    over the listed grounded Laplacians; a static design is the
    single-element list.
    """
    if not (mu1 > 0.0 and mu2 > 0.0):
        raise ValueError(f"mu1 and mu2 must be positive, got {mu1}, {mu2}")
    a = _square(A, "A")
    b = _as_matrix(B, "B")
    Hs = list(Hs)
    if not Hs:
        raise ValueError("at least one grounded Laplacian is required")
    mats = np.array([g.H for g in Hs])
    N = mats.shape[-1]
    d = np.asarray(D, dtype=float).reshape(-1)
    if d.shape[0] != N:
        raise ValueError(f"D must have {N} entries, got {d.shape[0]}")
    if np.min(d) <= 0.0:
        raise ValueError("D entries must be strictly positive")
    return _ladder(a, b, mu1, mu2, mats, d, _definiteness_margin(d, mats), d)


ENUMERATION_CAP = 3


def _admissible_masks(N: int):
    """The N*N follower-target edges (j, i), i >= 1, in bit order, and
    the increasing bitmasks of the sets of them that leave every
    follower reachable from the leader. Edges into the leader neither
    reach build_H nor change reachability, so none is enumerated."""
    if N < 1:
        raise ValueError(f"follower count must be at least 1, got {N}")
    if N > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"enumeration supports at most {ENUMERATION_CAP} followers, got {N}")
    pairs = [(j, i) for i in range(1, N + 1) for j in range(N + 1) if j != i]
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    # out[j]: the nodes that node j sends to, as a bitmask per edge set
    out = np.zeros((N + 1, masks.size), dtype=np.int64)
    for k, (j, i) in enumerate(pairs):
        out[j] |= ((masks >> k) & 1) << i
    # integer closure from the leader; a path needs at most N edges and
    # each sweep over the nodes extends every path by at least one
    reach = np.ones_like(masks)
    for _ in range(N):
        for j in range(N + 1):
            reach |= np.where((reach >> j) & 1, out[j], 0)
    return pairs, masks[reach == (1 << (N + 1)) - 1]


def _edges(pairs, bits):
    return [p for k, p in enumerate(pairs) if (bits >> k) & 1]


def admissible_laplacians(N: int):
    """Number of admissible digraphs on N followers and the (G, N, N)
    stack of their distinct grounded Laplacians.

    A set of follower-target edges fixes H and H fixes the set, so G
    is the number of admissible sets. Each stands for 2^N digraphs, one
    per set of edges into the leader, so the count is G << N.
    """
    pairs, masks = _admissible_masks(N)
    Hs = np.zeros((masks.size, N, N), dtype=np.int64)
    for k, (j, i) in enumerate(pairs):
        bit = (masks >> k) & 1
        Hs[:, i - 1, i - 1] += bit
        if j:
            Hs[:, i - 1, j - 1] -= bit
    return masks.size << N, Hs.astype(float)


def enumerate_admissible(N: int):
    """Every digraph on one leader and N followers in which all
    followers are reachable from the leader: each admissible set of
    follower-target edges with each set of edges into the leader."""
    pairs, masks = _admissible_masks(N)
    into_leader = [(i, 0) for i in range(1, N + 1)]
    return [Topology(N, frozenset(_edges(pairs, m) + _edges(into_leader, lm)))
            for m in masks.tolist() for lm in range(1 << N)]


def worst_case_params(A, B, mu1, mu2, N: int) -> SynthesisResult:
    """Graph-independent gain and sampling bound.

    Runs the ladder once over the grounded Laplacians of every
    admissible digraph on N followers, each with its own quotient
    scaling, so the result is valid for all of them. The aggregation
    is conservative: the returned T_bar is at most every per-graph
    bound.
    """
    if not (mu1 > 0.0 and mu2 > 0.0):
        raise ValueError(f"mu1 and mu2 must be positive, got {mu1}, {mu2}")
    a = _square(A, "A")
    b = _as_matrix(B, "B")
    _, Hs = admissible_laplacians(N)
    ds, lam1 = _scalings(Hs)
    return _ladder(a, b, mu1, mu2, Hs, ds, lam1, None)


def _rho(beta1: float, beta2: float, h: float) -> float:
    """(1 - beta2/beta1) e^(-beta1 h) + beta2/beta1, unchecked."""
    ratio = beta2 / beta1
    return (1.0 - ratio) * math.exp(-beta1 * h) + ratio


def contraction_factor(beta1: float, beta2: float, h: float) -> ContractionParams:
    """Per-interval decay bound rho = (1 - beta2/beta1) e^(-beta1 h)
    + beta2/beta1, strictly below 1 whenever 0 < beta2 < beta1 and
    h > 0."""
    if not (beta1 > 0.0 and beta2 > 0.0):
        raise ContractionInfeasible(
            f"beta1 and beta2 must be positive, got {beta1}, {beta2}")
    if beta2 >= beta1:
        raise ContractionInfeasible(
            f"beta2 = {beta2} must be strictly below beta1 = {beta1}")
    if not h > 0.0:
        raise ContractionInfeasible(f"h must be positive, got {h}")
    return ContractionParams(beta1=float(beta1), beta2=float(beta2),
                             h=float(h), rho=float(_rho(beta1, beta2, h)))


def verify_comparison_lemma(beta1: float, beta2: float, schedule, W0: float,
                            rel_slack: float = 1e-12) -> bool:
    """Propagate the extremal held-term scalar system
    dW/dt = -beta1 W + beta2 W(t_s) across the schedule and check each
    per-interval ratio W(t_{s+1}) / W(t_s) against the closed-form
    decay factor. True iff every ratio matches within rel_slack."""
    if not (beta1 > 0.0 and beta2 > 0.0) or beta2 >= beta1:
        raise ContractionInfeasible(
            f"need 0 < beta2 < beta1, got beta1 = {beta1}, beta2 = {beta2}")
    if W0 < 0.0:
        raise ValueError(f"W0 must be nonnegative, got {W0}")
    if W0 == 0.0:
        return True
    gaps = np.diff(np.asarray(schedule.instants, dtype=float))
    W = float(W0)
    for T in gaps:
        rho_s = contraction_factor(beta1, beta2, float(T)).rho
        held = (beta2 / beta1) * W
        W_next = (W - held) * math.exp(-beta1 * float(T)) + held
        ratio = W_next / W
        if abs(ratio - rho_s) > rel_slack * rho_s:
            return False
        W = W_next
    return True
