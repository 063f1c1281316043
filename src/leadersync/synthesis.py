"""Diagonal scalings, the gain and sampling-bound parameter ladder, and
the per-interval contraction factor."""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (CommonDNotFound, DConstructionFailure, InvalidMatrix,
                     NumericalOverflow)
from .graph import _all_nonsingular_M, admissible_laplacians
from .numerics.linalg import (CareSolution, _as_matrix, _lapack, _square,
                              max_spectral_norm, solve_care, spectral_norm)


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Feedback gain, sampling-interval bound, and every intermediate.

    D holds the diagonal scaling entries; it is None for the
    graph-independent worst-case design, where d_m and d_M aggregate
    the per-graph scalings instead. P is read-only, since designs over
    one agent model may share it.
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


# a positive margin counts only above MARGIN_FLOOR N ||S||_2: ten
# machine epsilons per order of S
MARGIN_FLOOR = 10.0 * float(np.finfo(float).eps)


def _definiteness_margin(d, Hs, grad=False):
    """Smallest eigenvalue of D H + H^T D over a stack of matrices H,
    or 0.0 where it is positive but within rounding of 0.

    Hs is a (G, N, N) stack of finite square matrices, checked by the
    caller; d is one scaling for every matrix, shape (N,), or one per
    matrix, shape (G, N). With grad and one d, also returns a
    subgradient of that margin with respect to u = log d at the graph
    attaining it: d lam_min / d u_i = 2 d_i v_i (H v)_i for the unit
    eigenvector v of lam_min, exact wherever lam_min is simple and
    attained by one graph.

    S = DH + (DH)^T is symmetric by construction, since floating-point
    addition commutes, so it goes to LAPACK after one finiteness check
    and without the symmetry test of sym_eig_extremes. An S past the
    float range raises InvalidMatrix.

    The computed eigenvalues of S are those of S + E with ||E||_2 of
    order N eps ||S||_2 (Golub & Van Loan, Matrix Computations, 4th
    ed., 2013, Section 8.1), so a margin up to the floor
    MARGIN_FLOOR N ||S||_2 certifies nothing; it is returned as 0.0.
    A positive margin makes every S definite, so ||S||_2 is the largest
    eigenvalue already at hand; where that eigenvalue overflows, the
    floor does too, and the margin certifies nothing.
    """
    Hs = np.asarray(Hs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        DH = np.asarray(d, dtype=float)[..., :, None] * Hs
        S = DH + DH.swapaxes(-1, -2)
    if not np.isfinite(S).all():
        raise InvalidMatrix("S contains non-finite entries")
    if not grad:
        lams = _lapack(np.linalg.eigvalsh, S)
        return _above_floor(float(lams[..., 0].min()), lams)
    lams, vecs = _lapack(np.linalg.eigh, S)
    k = int(lams[:, 0].argmin())
    v = vecs[k, :, 0]
    return (_above_floor(float(lams[k, 0]), lams),
            2.0 * d * v * (Hs[k] @ v))


def _above_floor(margin, lams):
    """margin, or 0.0 when it is positive but not above the rounding
    floor of the eigenvalues lams (see _definiteness_margin)."""
    if margin > 0.0 and margin <= (MARGIN_FLOOR * lams.shape[-1]
                                   * float(lams[..., -1].max())):
        return 0.0
    return margin


def _laplacian_stack(Hs) -> np.ndarray:
    """Hs, a non-empty list of equal-size square matrices or a
    (G, N, N) stack of them, as one finite float stack. A single 2-D
    matrix is refused rather than read as a stack of its rows."""
    mats = []
    for H in Hs:
        if np.ndim(H) < 2:
            raise ValueError(
                f"Hs must be a list or a (G, N, N) stack of grounded "
                f"Laplacians; an entry of shape {np.shape(H)} is not a "
                f"matrix")
        mats.append(_square(H, "H"))
    if not mats:
        raise ValueError("at least one grounded Laplacian is required")
    if any(H.shape != mats[0].shape for H in mats):
        raise ValueError("all grounded Laplacians must share one size")
    return np.array(mats)


def construct_D(H) -> np.ndarray:
    """Positive diagonal scaling d with D H + H^T D positive definite.

    Quotient construction d_i = z_i / w_i from w = H^{-1} 1 and
    z = H^{-T} 1, rescaled so max d_i = 1, then verified definite.
    Valid for any nonsingular M-matrix: both solves are elementwise
    positive and the scaled sum is a symmetric M-matrix.
    """
    return _scalings(_square(H, "H")[None])[0][0]


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


def find_common_D(Hs) -> np.ndarray:
    """Positive diagonal scaling valid for every grounded Laplacian of
    a list or a (G, N, N) stack.

    Candidate order: the identity, each per-matrix construct_D, their
    elementwise geometric mean, then 500 steps of projected gradient
    ascent on log d maximizing the normalized definiteness margin. A
    candidate counts when its margin is above rounding (see
    _definiteness_margin). The search is incomplete; exhausting it
    raises CommonDNotFound, which does not prove that no scaling
    exists.
    """
    # checked once here, so the margin needs no checks of its own per step
    mats = _laplacian_stack(Hs)
    n = mats.shape[-1]

    # each candidate is built only once the ones before it have failed
    cand = np.ones(n)
    if _definiteness_margin(cand, mats) > 0.0:
        return cand
    per_graph = []
    for H in mats:
        try:
            cand = construct_D(H)
        except DConstructionFailure:
            continue
        if _definiteness_margin(cand, mats) > 0.0:
            return cand
        per_graph.append(cand)
    if per_graph:
        geo = np.exp(np.mean(np.log(np.vstack(per_graph)), axis=0))
        cand = geo / np.max(geo)
        if _definiteness_margin(cand, mats) > 0.0:
            return cand

    # projected ascent on u = log d from the last candidate, kept at
    # max u = 0 after every step. The objective is the margin at
    # d = e^(u - max u); that projection divides the margin by
    # e^(max u), so its subgradient is the helper's minus the margin
    # at the argmax index of u
    u = np.log(cand)
    u -= np.max(u)
    best = np.exp(u)
    margin, grad = _definiteness_margin(best, mats, grad=True)
    best_margin = margin
    step = 0.25
    for _ in range(500):
        grad[u.argmax()] -= margin
        gnorm = math.sqrt(grad @ grad)
        if gnorm == 0.0:
            break
        u = u + step * grad / gnorm
        u -= u.max()
        d = np.exp(u)
        margin, grad = _definiteness_margin(d, mats, grad=True)
        if margin > best_margin:
            best_margin = margin
            best = d
        else:
            step *= 0.9
        if best_margin > 0.0:
            return best
    raise CommonDNotFound(
        "no common diagonal scaling found by the candidate list or the "
        "ascent search; one may still exist")


@dataclass(frozen=True, eq=False)
class _AgentTerms:
    """The ladder's terms that depend on the agent model (A, B, mu1,
    mu2) alone: the Riccati solution, whose P is read-only so that
    designs may share it, and the spectral norms of A, P B B^T P and
    B B^T P."""

    care: CareSolution
    norm_A: float
    norm_PBBP: float
    norm_BBP: float


def _agent_key(a, b, mu1, mu2) -> tuple:
    """The key of the agent model (a, b, mu1, mu2) in an agents dict."""
    return (a.shape, a.tobytes(), b.shape, b.tobytes(), mu1, mu2)


def _agent_terms(a, b, mu1, mu2, agents=None) -> _AgentTerms:
    """The agent terms of (a, b, mu1, mu2). agents, when given, maps
    _agent_key to terms computed before: terms found there are
    returned as they are, and a solve that raises is not stored."""
    if agents is not None:
        key = _agent_key(a, b, mu1, mu2)
        if key in agents:
            return agents[key]
    care = solve_care(a, b, mu1, mu2)
    P = care.P
    norm_A, norm_PBBP, norm_BBP = spectral_norm(
        np.stack([a, P @ b @ b.T @ P, b @ b.T @ P])).tolist()
    terms = _AgentTerms(care=care, norm_A=norm_A, norm_PBBP=norm_PBBP,
                        norm_BBP=norm_BBP)
    if agents is not None:
        agents[key] = terms
    return terms


def _ladder(a, b, mu1, mu2, Hs, ds, lam1, agents=None) -> SynthesisResult:
    """Gain, sampling bound and every intermediate over a (G, N, N)
    stack Hs of grounded Laplacians with the diagonal scalings ds that
    certify them: one (N,) scaling for all, the result's D, or (G, N),
    one per graph (D None). lam1 is the smallest margin
    lam_min(D H + H^T D) over the stack, as _definiteness_margin gives
    it: 0.0 when it is within rounding of 0.
    Extremes are taken over the stack, so the bound holds for every
    graph in it. Norms are spectral throughout, and Kronecker factors
    use the product identity for their norms and extreme eigenvalues.
    The agent terms come first, from agents when it holds them (see
    _agent_terms); their Riccati solve checks the weights. A term
    that is not finite, or a T_bar that underflows to 0, raises
    NumericalOverflow: such a design certifies nothing."""
    agent = _agent_terms(a, b, mu1, mu2, agents)
    if not lam1 > 0.0:
        raise DConstructionFailure(
            f"D does not certify definiteness for every graph to within "
            f"rounding: lambda_min = {lam1:.3e}")
    d_m = float(np.min(ds))
    d_M = float(np.max(ds))
    P = agent.care.P
    lam_m = d_m * agent.care.spectrum.lambda_min
    lam_M = d_M * agent.care.spectrum.lambda_max

    # each term below grows with its graph's norm, so the largest
    # norm gives the largest term
    norm_DH = max_spectral_norm(ds[..., :, None] * Hs)
    norm_H = max_spectral_norm(Hs)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        alpha1 = mu1 * d_M / lam1
        alpha2 = 2.0 * alpha1 * norm_DH * agent.norm_PBBP
        alpha3 = alpha2 * alpha2 / (2.0 * d_m * mu2)
        closed = agent.norm_A + alpha1 * norm_H * agent.norm_BBP
        alpha4 = closed * closed / lam_m
        c1 = d_m * mu2 / (2.0 * lam_M)
        c2 = alpha3 * alpha4
    ladder = dict(d_m=d_m, d_M=d_M, lam_m=lam_m, lam_M=lam_M, alpha1=alpha1,
                  alpha2=alpha2, alpha3=alpha3, alpha4=alpha4, c1=c1, c2=c2,
                  T_bar=math.sqrt(c1 / c2) if c2 > 0.0 else math.inf)
    for key, value in ladder.items():
        if not math.isfinite(value):
            raise NumericalOverflow(
                f"the parameter ladder left the float range: {key} = {value}")
    if not ladder["T_bar"] > 0.0:
        raise NumericalOverflow("the sampling bound T_bar underflowed to 0")
    return SynthesisResult(
        P=P, D=ds if ds.ndim == 1 else None, K=alpha1 * (b.T @ P), lam1=lam1,
        mu1=float(mu1), mu2=float(mu2),
        care_residual=agent.care.residual_norm,
        **ladder)


def synthesize(A, B, mu1, mu2, D, Hs, *, agents=None) -> SynthesisResult:
    """Feedback gain K and maximum sampling interval T_bar.

    Evaluates the full parameter ladder for the given diagonal scaling
    over the grounded Laplacians of a list or a (G, N, N) stack; a
    static design is the single-element list. Weights that are not
    positive and finite raise ValueError; a ladder that leaves the
    float range raises NumericalOverflow.

    agents, a dict, lets designs over one agent model share its
    Riccati solution and the other terms that depend on (A, B, mu1,
    mu2) alone: the first design fills it and the next ones read it.
    The returned P is read-only either way.
    """
    a = _square(A, "A")
    b = _as_matrix(B, "B")
    mats = _laplacian_stack(Hs)
    N = mats.shape[-1]
    d = np.asarray(D, dtype=float).reshape(-1)
    if d.shape[0] != N:
        raise ValueError(f"D must have {N} entries, got {d.shape[0]}")
    if np.min(d) <= 0.0:
        raise ValueError("D entries must be strictly positive")
    return _ladder(a, b, mu1, mu2, mats, d, _definiteness_margin(d, mats),
                   agents)


def worst_case_params(A, B, mu1, mu2, N: int, *,
                      Hs=None) -> SynthesisResult:
    """Graph-independent gain and sampling bound.

    Runs the ladder once over the grounded Laplacians of every
    admissible digraph on N followers, each with its own quotient
    scaling, so the result is valid for all of them. The aggregation
    is conservative: the returned T_bar is at most every per-graph
    bound. Weights that are not positive and finite raise ValueError;
    a ladder that leaves the float range raises NumericalOverflow.

    Hs is the stack admissible_laplacians(N) returns, for a caller
    that has enumerated already; by default it is enumerated here.
    """
    a = _square(A, "A")
    b = _as_matrix(B, "B")
    if Hs is None:
        _, Hs = admissible_laplacians(N)
    elif np.shape(Hs)[1:] != (N, N):
        raise ValueError(f"Hs must be a stack of {N}x{N} grounded "
                         f"Laplacians, got shape {np.shape(Hs)}")
    Hs = np.asarray(Hs, dtype=float)
    ds, lam1 = _scalings(Hs)
    return _ladder(a, b, mu1, mu2, Hs, ds, lam1)


def _rho(beta1: float, beta2: float, h: float) -> float:
    """(1 - beta2/beta1) e^(-beta1 h) + beta2/beta1, unchecked."""
    ratio = beta2 / beta1
    return (1.0 - ratio) * math.exp(-beta1 * h) + ratio

