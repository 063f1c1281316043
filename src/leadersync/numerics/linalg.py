"""Matrix operations: eigenvalues, exponentials, Lyapunov and Riccati solvers.

Wrappers that validate inputs, enforce the tolerances in ``config``,
and raise typed errors. Eigenvalues and singular values come from
LAPACK through ``numpy.linalg``; the exponential (scaling and squaring
with an order-7 Pade core) and the matrix sign iteration are numpy
code here.
"""

from dataclasses import dataclass
import math

import numpy as np

from ..errors import (CareFailure, EigenFailure, InvalidMatrix, LyapunovSingular,
                      NotStabilizable, NumericalOverflow)
from . import config


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Extreme eigenvalues of a symmetric matrix: floats for one
    matrix, arrays over the leading axes for a stack of them."""

    lambda_min: float | np.ndarray
    lambda_max: float | np.ndarray


@dataclass(frozen=True, eq=False)
class CareSolution:
    """Positive-definite Riccati solution with its Frobenius residual."""

    P: np.ndarray
    residual_norm: float


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
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return a


def _square(M, name="matrix", stack=False):
    a = _as_matrix(M, name, stack)
    if a.shape[-2] != a.shape[-1]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    return a


def _symmetric(S):
    """Symmetric part of S, a matrix or a (..., n, n) stack of them.
    Each matrix must be symmetric to within config.SYM_INPUT_TOL
    relative to its own largest entry."""
    a = _square(S, "S", stack=True)
    at = a.swapaxes(-1, -2)
    asym = np.max(np.abs(a - at), axis=(-2, -1))
    bad = asym > config.SYM_INPUT_TOL * np.max(np.abs(a), axis=(-2, -1))
    if np.any(bad):
        raise InvalidMatrix(
            f"S is not symmetric: max asymmetry {np.max(asym[bad]):.3e}")
    return 0.5 * (a + at)


def _lapack(solver, a, **kwargs):
    """Run a numpy.linalg solver, reporting its failure as EigenFailure."""
    try:
        return solver(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"LAPACK {solver.__name__} failed: {exc}") from exc


def _per_matrix(x):
    """A float for one matrix, the array of values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def sym_eig_extremes(S):
    """Minimum and maximum eigenvalues of a symmetric matrix, or of
    each matrix of a (..., n, n) stack."""
    vals = _lapack(np.linalg.eigvalsh, _symmetric(S))
    return SymmetricSpectrum(_per_matrix(vals[..., 0]),
                             _per_matrix(vals[..., -1]))


def sym_eig_min_vector(S):
    """Smallest eigenvalue of a symmetric matrix and a unit eigenvector
    for it, or both for each matrix of a (..., n, n) stack."""
    vals, vecs = _lapack(np.linalg.eigh, _symmetric(S))
    return _per_matrix(vals[..., 0]), vecs[..., :, 0]


def spectral_norm(M):
    """Largest singular value of a matrix, or of each matrix of a
    (..., rows, cols) stack."""
    return _per_matrix(singular_values(M)[..., 0])


def kron(A, B):
    """Kronecker product with block (i, j) equal to a_ij * B."""
    return np.kron(_as_matrix(A, "A"), _as_matrix(B, "B"))


# order-7 Pade coefficients b0..b7 of e^x
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
          56.0, 1.0)


def expm(M, t=1.0):
    """Matrix exponential e^(M t) by scaling and squaring.

    M t is scaled so its 1-norm is at most config.EXPM_SCALED_NORM, the
    order-7 Pade approximant is taken, and the result is squared back.
    """
    overflow = "matrix exponential overflowed the float range"
    a = _square(M, "M") * float(t)
    nrm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(nrm):
        raise NumericalOverflow(overflow)
    s_pow = 0
    if nrm > config.EXPM_SCALED_NORM:
        s_pow = int(math.ceil(math.log2(nrm / config.EXPM_SCALED_NORM)))
    A = a / (2.0 ** s_pow)
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
    a = _square(A, "A")
    b = _as_matrix(B, "B")
    n = a.shape[0]
    if b.shape[0] != n:
        raise InvalidMatrix(f"B must have {n} rows, got {b.shape[0]}")
    eye = np.eye(n)
    for lam in eigenvalues(a):
        if lam.real < -config.EIG_REAL_GUARD:
            continue
        pencil = np.hstack([a - lam * eye, b])
        sig = _lapack(np.linalg.svd, pencil, compute_uv=False)
        smax = float(sig[0])
        if smax == 0.0:
            return False
        if int(np.sum(sig > config.RANK_REL_TOL * smax)) < n:
            return False
    return True


def solve_lyapunov(M, Q):
    """Solve M^T X + X M + Q = 0 for symmetric X via vectorization."""
    m = _square(M, "M")
    q = _square(Q, "Q")
    n = m.shape[0]
    if q.shape[0] != n:
        raise InvalidMatrix(f"Q must match M, got {q.shape} vs {m.shape}")
    asym = float(np.max(np.abs(q - q.T)))
    if asym > config.SYM_INPUT_TOL * max(1.0, float(np.max(np.abs(q)))):
        raise InvalidMatrix(f"Q is not symmetric: max asymmetry {asym:.3e}")
    q = 0.5 * (q + q.T)
    eye = np.eye(n)
    system = np.kron(m.T, eye) + np.kron(eye, m.T)
    try:
        x = np.linalg.solve(system, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise LyapunovSingular(f"vectorized Lyapunov system is singular: {exc}") from exc
    X = x.reshape(n, n)
    X = 0.5 * (X + X.T)
    residual = m.T @ X + X @ m + q
    res_norm = float(np.linalg.norm(residual))
    if res_norm > config.LYAP_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(q))):
        raise LyapunovSingular(
            f"Lyapunov residual {res_norm:.3e} exceeds tolerance; "
            "an eigenvalue pair of M likely sums to zero")
    return X


def _matrix_sign(W):
    """Matrix sign of W by Newton iteration with determinant scaling,
    stopped when the relative Frobenius change falls below
    config.SIGN_CONV_TOL. A singular or non-finite iterate, or no
    convergence within config.SIGN_MAX_ITER steps, raises CareFailure."""
    n = W.shape[0]
    X = W
    for _ in range(config.SIGN_MAX_ITER):
        ad = abs(np.linalg.det(X))
        if not math.isfinite(ad) or ad == 0.0:
            break
        g = ad ** (-1.0 / n)
        Xn = 0.5 * (g * X + (1.0 / g) * np.linalg.inv(X))
        den = np.linalg.norm(Xn)
        if not math.isfinite(den):
            break
        if np.linalg.norm(Xn - X) <= config.SIGN_CONV_TOL * den:
            return Xn
        X = Xn
    raise CareFailure("matrix sign iteration did not converge")


def solve_care(A, B, mu1, mu2):
    """Solve P A + A^T P - mu1 P B B^T P + mu2 I = 0 for the unique
    positive-definite P.

    Matrix sign function of the Hamiltonian pencil, a least-squares
    extraction of the stable subspace, and one Newton refinement step
    through the Lyapunov solver. The solution is validated: symmetry,
    positive definiteness, residual bound, and a strictly stable
    closed-loop matrix A - mu1 B B^T P.
    """
    if not (mu1 > 0.0 and mu2 > 0.0):
        raise ValueError(f"mu1 and mu2 must be positive, got {mu1}, {mu2}")
    a = _square(A, "A")
    b = _as_matrix(B, "B")
    n = a.shape[0]
    if b.shape[0] != n:
        raise InvalidMatrix(f"B must have {n} rows, got {b.shape[0]}")
    if not check_stabilizable(a, b):
        raise NotStabilizable(
            "(A, B) is not stabilizable: an uncontrollable mode has "
            "nonnegative real part")
    R = mu1 * (b @ b.T)
    eye = np.eye(n)
    W = np.block([[a, -R], [-mu2 * eye, -a.T]])
    S = _matrix_sign(W)
    lhs = np.vstack([S[:n, n:], S[n:, n:] + eye])
    rhs = -np.vstack([S[:n, :n] + eye, S[n:, :n]])
    P0, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    P0 = 0.5 * (P0 + P0.T)
    closed = a - R @ P0
    # symmetric in exact arithmetic; the product chain is not in floats
    Q_nk = mu2 * eye + P0 @ R @ P0
    Q_nk = 0.5 * (Q_nk + Q_nk.T)
    try:
        P_raw = solve_lyapunov(closed, Q_nk)
    except LyapunovSingular as exc:
        raise CareFailure(f"Newton refinement failed: {exc}") from exc
    asym = float(np.max(np.abs(P_raw - P_raw.T)))
    if asym > config.CARE_SYM_TOL:
        raise CareFailure(f"solution asymmetry {asym:.3e} exceeds tolerance")
    P = 0.5 * (P_raw + P_raw.T)
    spectrum = sym_eig_extremes(P)
    if not spectrum.lambda_min > 0.0:
        raise CareFailure(
            f"solution is not positive definite: lambda_min = {spectrum.lambda_min:.3e}")
    residual = P @ a + a.T @ P - mu1 * (P @ b @ b.T @ P) + mu2 * eye
    res_norm = float(np.linalg.norm(residual))
    p_norm = float(np.linalg.norm(P))
    if res_norm > config.CARE_RESIDUAL_TOL * (1.0 + p_norm * p_norm):
        raise CareFailure(f"residual {res_norm:.3e} exceeds tolerance")
    closed_eigs = eigenvalues(a - mu1 * (b @ b.T) @ P)
    if not np.all(closed_eigs.real < 0.0):
        raise CareFailure("closed-loop matrix is not strictly stable")
    return CareSolution(P=P, residual_norm=res_norm)
