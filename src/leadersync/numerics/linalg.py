"""Matrix operations: eigenvalues, exponentials, Lyapunov and Riccati solvers.

Wrappers that validate inputs, enforce the tolerances below, and
raise typed errors. Eigenvalues, eigenvectors and singular values
come from LAPACK through ``numpy.linalg``; the exponential (scaling
and squaring with an order-7 Pade core) is numpy code here.
"""

from dataclasses import dataclass
import math

import numpy as np

from ..errors import (CareFailure, EigenFailure, InvalidMatrix, LyapunovSingular,
                      NotStabilizable, NumericalOverflow)

# symmetric eigenvalues
SYM_INPUT_TOL = 1e-12       # relative asymmetry tolerated on input

# singular values / rank
RANK_REL_TOL = 1e-9         # sigma > tol * sigma_max counts toward rank
NORM_PRUNE_SLACK = 1e-9     # rounding cover of max_spectral_norm's bound

# Lyapunov / Riccati
LYAP_RESIDUAL_TOL = 1e-10   # times (1 + ||Q||_F + 2 ||M||_F ||X||_F)
CARE_RESIDUAL_TOL = 1e-9    # times (1 + ||P||_F^2)

# stabilizability test
EIG_REAL_GUARD = 1e-12      # eigenvalues with Re >= -guard are treated as unstable


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Extreme eigenvalues of a symmetric matrix."""

    lambda_min: float
    lambda_max: float


@dataclass(frozen=True, eq=False)
class CareSolution:
    """Positive-definite Riccati solution, read-only, with its
    Frobenius residual and its extreme eigenvalues."""

    P: np.ndarray
    residual_norm: float
    spectrum: SymmetricSpectrum


def _as_matrix(M, name="matrix", stack=False):
    """M as a finite float matrix; a scalar or a vector becomes one
    column. With stack, a (..., rows, cols) stack of matrices is
    accepted too."""
    a = np.asarray(M, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    if (a.ndim > 2 and not stack) or a.size == 0:
        raise InvalidMatrix(f"{name} must be a 2-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return a


def _square(M, name="matrix"):
    a = _as_matrix(M, name)
    if a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    return a


def _symmetric(S, name="S"):
    """Symmetric part of S, which must be symmetric to within
    SYM_INPUT_TOL relative to its largest entry."""
    a = _square(S, name)
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYM_INPUT_TOL * float(np.max(np.abs(a))):
        raise InvalidMatrix(
            f"{name} is not symmetric: max asymmetry {asym:.3e}")
    return 0.5 * (a + a.T)


def _lapack(solver, a, **kwargs):
    """Run a numpy.linalg solver, reporting its failure as EigenFailure."""
    try:
        return solver(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"LAPACK {solver.__name__} failed: {exc}") from exc


def sym_eig_extremes(S):
    """Minimum and maximum eigenvalues of a symmetric matrix."""
    vals = _lapack(np.linalg.eigvalsh, _symmetric(S))
    return SymmetricSpectrum(float(vals[0]), float(vals[-1]))


def spectral_norm(M):
    """Largest singular value of a matrix, or of each matrix of a
    (..., rows, cols) stack."""
    top = singular_values(M)[..., 0]
    return float(top) if top.ndim == 0 else top


def max_spectral_norm(M):
    """The largest spectral norm over a (..., rows, cols) stack, equal
    bit for bit to float(np.max(spectral_norm(M))), but taking the SVD
    only of the slices that can set it.

    The SVD of the slice with the largest Frobenius norm gives a lower
    bound; a slice whose Frobenius norm times 1 + NORM_PRUNE_SLACK
    falls short of it cannot reach it, and one stacked spectral_norm
    call takes the others. The slack covers rounding: LAPACK's SVD is
    backward stable, its values being those of M + E with
    ||E||_2 <= p u ||M||_2 (u the unit roundoff, p a modest function of
    rows x cols), so by Weyl's inequality each computed value is within
    p u ||M||_2 <= p u ||M||_F of the exact one; the Frobenius norms,
    taken with the entries scaled by a power of two to at most 1 so
    that their squares neither overflow nor, for a slice that can reach
    the bound, underflow, are within (rows x cols + 2) u of theirs.
    With p <= rows x cols, the slack covers both for matrices of up to
    4e6 entries (2000 x 2000). A stack of one or two slices goes
    straight to one stacked spectral_norm call. A stack with a
    non-finite entry raises InvalidMatrix, as singular_values does."""
    a = _as_matrix(M, "M", stack=True)
    stack = a.reshape(-1, *a.shape[-2:])
    if stack.shape[0] <= 2:  # the bound's own SVD would save none
        return float(spectral_norm(stack).max())
    _, exp = math.frexp(float(np.abs(stack).max()))
    scaled = np.ldexp(stack, -exp)
    fro = np.sqrt(np.einsum("gij,gij->g", scaled, scaled))
    bound = math.ldexp(spectral_norm(stack[fro.argmax()]), -exp)
    keep = fro * (1.0 + NORM_PRUNE_SLACK) >= bound
    return float(spectral_norm(stack[keep]).max())


# order-7 Pade coefficients b0..b7 of e^x
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
          56.0, 1.0)


def expm(M, t=1.0):
    """Matrix exponential e^(M t) by scaling and squaring.

    M t is scaled by the least power of two that takes its 1-norm to
    at most 1/2, the order-7 Pade approximant is taken, and the result
    is squared back. A result past the float range raises
    NumericalOverflow.
    """
    overflow = "matrix exponential overflowed the float range"
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        a = _square(M, "M") * float(t)
        nrm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(nrm):
        raise NumericalOverflow(overflow)
    # the least s with nrm / 2^s <= 1/2, read off the binary exponent
    # of nrm = frac 2^exp (1/2 <= frac < 1): exact for every finite norm
    frac, exp = math.frexp(nrm)
    s_pow = max(0, exp + (frac > 0.5))
    A = np.ldexp(a, -s_pow)
    b0, b1, b2, b3, b4, b5, b6, b7 = _PADE7
    eye = np.eye(a.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (b7 * A6 + b5 * A4 + b3 * A2 + b1 * eye)
    V = b6 * A6 + b4 * A4 + b2 * A2 + b0 * eye
    E = np.linalg.solve(V - U, V + U)
    # an overflow is reported by the typed error, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s_pow):
            E = E @ E
    if not np.all(np.isfinite(E)):
        raise NumericalOverflow(overflow)
    return E


def eigenvalues(M):
    """All eigenvalues of a real square matrix, sorted by (real, imag)."""
    w = _lapack(np.linalg.eigvals, _square(M, "M")).astype(complex)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def singular_values(M):
    """All min(rows, cols) singular values of a real matrix, sorted
    descending, or of each matrix of a (..., rows, cols) stack."""
    return _lapack(np.linalg.svd, _as_matrix(M, "M", stack=True),
                   compute_uv=False)


def check_stabilizable(A, B):
    """True iff every eigenvalue of A with nonnegative real part is
    controllable through B (rank test on the pencil [A - lambda I, B])."""
    return _stabilizable(*_agent_pair(A, B))


def _agent_pair(A, B):
    """A as a finite square matrix and B as a finite matrix with as
    many rows."""
    a = _square(A, "A")
    b = _as_matrix(B, "B")
    if b.shape[0] != a.shape[0]:
        raise InvalidMatrix(f"B must have {a.shape[0]} rows, got {b.shape[0]}")
    return a, b


def _stabilizable(a, b):
    """check_stabilizable on a finite square a and a finite b with as
    many rows: one stacked SVD of the pencils of every eigenvalue with
    Re >= -EIG_REAL_GUARD. A pencil's n singular values come sorted
    descending, so it has full row rank when the least exceeds
    RANK_REL_TOL times the largest, which a zero pencil's does not."""
    n = a.shape[0]
    lams = _lapack(np.linalg.eigvals, a).astype(complex)
    lams = lams[lams.real >= -EIG_REAL_GUARD]
    pencils = np.empty((lams.size, n, n + b.shape[1]), dtype=complex)
    pencils[:, :, :n] = a - lams[:, None, None] * np.eye(n)
    pencils[:, :, n:] = b
    sig = _lapack(np.linalg.svd, pencils, compute_uv=False)
    return bool(np.all(sig[:, -1] > RANK_REL_TOL * sig[:, 0]))


def solve_lyapunov(M, Q):
    """Solve M^T X + X M + Q = 0 for symmetric X via vectorization.
    A Kronecker system or a solution past the float range raises
    LyapunovSingular."""
    m = _square(M, "M")
    q = _symmetric(Q, "Q")
    if q.shape != m.shape:
        raise InvalidMatrix(f"Q must match M, got {q.shape} vs {m.shape}")
    return _lyapunov(m, q)


def _kron_sum(mt):
    """kron(mt, I) + kron(I, mt) of a square mt, by broadcasting: entry
    (i n + j, k n + l) is mt[i, k] [j == l] + [i == k] mt[j, l], the
    same sums of the same terms as the np.kron form."""
    n = mt.shape[0]
    eye = np.eye(n)
    system = (mt[:, None, :, None] * eye[None, :, None, :]
              + eye[:, None, :, None] * mt[None, :, None, :])
    return system.reshape(n * n, n * n)


def _lyapunov(m, q):
    """solve_lyapunov on a finite square m and a symmetric q of its
    size."""
    n = m.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        system = _kron_sum(m.T)
    if not np.isfinite(system).all():
        raise LyapunovSingular(
            "vectorized Lyapunov system left the float range")
    try:
        x = np.linalg.solve(system, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise LyapunovSingular(f"vectorized Lyapunov system is singular: {exc}") from exc
    X = x.reshape(n, n)
    X = 0.5 * (X + X.T)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        res_norm = float(np.linalg.norm(m.T @ X + X @ m + q))
        # the backward-error bound: rounding leaves a residual of order
        # ||M^T X + X M||, so a large X may leave more than ||Q|| allows
        bound = (LYAP_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(q)))
                 + LYAP_RESIDUAL_TOL * 2.0 * float(np.linalg.norm(m)
                                                   * np.linalg.norm(X)))
    if not math.isfinite(res_norm):
        raise LyapunovSingular("Lyapunov solution left the float range")
    if res_norm > bound:
        raise LyapunovSingular(
            f"Lyapunov residual {res_norm:.3e} exceeds tolerance; "
            "an eigenvalue pair of M likely sums to zero")
    return X


def solve_care(A, B, mu1, mu2):
    """Solve P A + A^T P - mu1 P B B^T P + mu2 I = 0 for the unique
    positive-definite P.

    Invariant-subspace method (Laub 1979): one LAPACK eigendecomposition
    of the Hamiltonian, whose n eigenvectors [V1; V2] with eigenvalues
    of negative real part give P0 = V2 V1^{-1}, then one Newton
    (Kleinman) refinement step through the Lyapunov core, whose
    solution is symmetric by construction. Any other count of such
    eigenvalues, or a singular V1, raises CareFailure. The solution is
    validated: positive definiteness, residual bound, and a strictly
    stable closed-loop matrix A - mu1 B B^T P. Weights that are not
    positive and finite raise ValueError.
    """
    if not (0.0 < mu1 < math.inf and 0.0 < mu2 < math.inf):
        raise ValueError(
            f"mu1 and mu2 must be positive and finite, got {mu1}, {mu2}")
    a, b = _agent_pair(A, B)
    n = a.shape[0]
    if not _stabilizable(a, b):
        raise NotStabilizable(
            "(A, B) is not stabilizable: an uncontrollable mode has "
            "nonnegative real part")
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        R = mu1 * (b @ b.T)
        # the Hamiltonian [[A, -R], [-mu2 I, -A^T]], filled by blocks
        W = np.empty((2 * n, 2 * n))
        W[:n, :n] = a
        W[:n, n:] = -R
        W[n:, :n] = -mu2 * eye
        W[n:, n:] = -a.T
        w, V = _lapack(np.linalg.eig, W)
        stable = V[:, w.real < 0.0]
        if stable.shape[1] != n:
            raise CareFailure(
                f"the Hamiltonian has {stable.shape[1]} eigenvalues with "
                f"negative real part, not {n}")
        try:  # P0 = V2 V1^{-1}, solved as V1^T P0^T = V2^T
            P0 = np.linalg.solve(stable[:n].T, stable[n:].T).T.real
        except np.linalg.LinAlgError as exc:
            raise CareFailure(
                f"the stable eigenvectors give no solution: {exc}") from exc
        P0 = 0.5 * (P0 + P0.T)
        closed = a - R @ P0
        # symmetric in exact arithmetic; the product chain is not in floats
        Q_nk = mu2 * eye + P0 @ R @ P0
        Q_nk = 0.5 * (Q_nk + Q_nk.T)
    if not (np.isfinite(closed).all() and np.isfinite(Q_nk).all()):
        raise CareFailure("the stable-subspace solution left the float range")
    # both finite, Q_nk symmetric: the Lyapunov core takes them as they are
    try:
        P = _lyapunov(closed, Q_nk)
    except LyapunovSingular as exc:
        raise CareFailure(f"Newton refinement failed: {exc}") from exc
    P.flags.writeable = False  # designs over one agent model share it
    spectrum = sym_eig_extremes(P)
    if not spectrum.lambda_min > 0.0:
        raise CareFailure(
            f"solution is not positive definite: lambda_min = {spectrum.lambda_min:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        residual = P @ a + a.T @ P - mu1 * (P @ b @ b.T @ P) + mu2 * eye
        res_norm = float(np.linalg.norm(residual))
        p_norm = float(np.linalg.norm(P))
    if not math.isfinite(res_norm):
        raise CareFailure("the residual left the float range")
    if res_norm > CARE_RESIDUAL_TOL * (1.0 + p_norm * p_norm):
        raise CareFailure(f"residual {res_norm:.3e} exceeds tolerance")
    if not (eigenvalues(a - R @ P).real < 0.0).all():
        raise CareFailure("closed-loop matrix is not strictly stable")
    return CareSolution(P=P, residual_norm=res_norm, spectrum=spectrum)
