"""Matrix operations: eigenvalues, exponentials, Lyapunov and Riccati solvers.

Wrappers that validate inputs, enforce the tolerances in ``config``,
and raise typed errors. Eigenvalues and singular values come from
LAPACK through ``numpy.linalg``; the exponential and the matrix sign
iteration are the numpy kernels in ``kernels``.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import (CareFailure, EigenFailure, InvalidMatrix, LyapunovSingular,
                      NotStabilizable, NumericalOverflow)
from . import config, kernels


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Extreme eigenvalues of a symmetric matrix."""

    lambda_min: float
    lambda_max: float


@dataclass(frozen=True, eq=False)
class CareSolution:
    """Positive-definite Riccati solution with its Frobenius residual."""

    P: np.ndarray
    residual_norm: float


def _as_matrix(M, name="matrix"):
    a = np.asarray(M, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidMatrix(f"{name} must be a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return a


def _square(M, name="matrix"):
    a = _as_matrix(M, name)
    if a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    return a


def _symmetric(S):
    """Symmetric part of S, which must be symmetric to within
    config.SYM_INPUT_TOL relative to its largest entry."""
    a = _square(S, "S")
    asym = float(np.max(np.abs(a - a.T)))
    scale = float(np.max(np.abs(a)))
    if asym > config.SYM_INPUT_TOL * scale:
        raise InvalidMatrix(f"S is not symmetric: max asymmetry {asym:.3e}")
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


def sym_eig_min_vector(S):
    """Smallest eigenvalue of a symmetric matrix and a unit eigenvector
    for it."""
    vals, vecs = _lapack(np.linalg.eigh, _symmetric(S))
    return float(vals[0]), vecs[:, 0]


def spectral_norm(M):
    """Largest singular value."""
    return float(singular_values(M)[0])


def kron(A, B):
    """Kronecker product with block (i, j) equal to a_ij * B."""
    return np.kron(_as_matrix(A, "A"), _as_matrix(B, "B"))


def expm(M, t=1.0):
    """Matrix exponential e^(M t) by scaling and squaring."""
    a = _square(M, "M")
    Mt = a * float(t)
    E, ok = kernels.expm_pade7(Mt, config.EXPM_SCALED_NORM)
    if not ok:
        raise NumericalOverflow("matrix exponential overflowed the float range")
    return E


def eigenvalues(M):
    """All eigenvalues of a real square matrix, sorted by (real, imag)."""
    w = _lapack(np.linalg.eigvals, _square(M, "M")).astype(complex)
    order = np.lexsort((w.imag, w.real))
    return w[order]


def singular_values(M):
    """All min(rows, cols) singular values of a real matrix, sorted
    descending."""
    return _lapack(np.linalg.svd, _as_matrix(M, "M"), compute_uv=False)


def check_stabilizable(A, B):
    """True iff every eigenvalue of A with nonnegative real part is
    controllable through B (rank test on the pencil [A - lambda I, B]).

    Complex eigenvalues are handled through the real 2x blowup
    [[Re, -Im], [Im, Re]], whose singular values come in duplicated
    pairs, so the complex rank is half the real one.
    """
    a = _square(A, "A")
    b = _as_matrix(B, "B")
    n = a.shape[0]
    if b.shape[0] != n:
        raise InvalidMatrix(f"B must have {n} rows, got {b.shape[0]}")
    eye = np.eye(n)
    for lam in eigenvalues(a):
        if lam.real < -config.EIG_REAL_GUARD:
            continue
        pencil = np.hstack([a - complex(lam) * eye, b.astype(complex)])
        blowup = np.vstack([
            np.hstack([pencil.real, -pencil.imag]),
            np.hstack([pencil.imag, pencil.real]),
        ])
        sig = singular_values(blowup)
        smax = float(sig[0])
        if smax == 0.0:
            return False
        rank_real = int(np.sum(sig > config.RANK_REL_TOL * smax))
        if rank_real // 2 < n:
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
    S, ok = kernels.matrix_sign_newton(W, config.SIGN_MAX_ITER,
                                       config.SIGN_CONV_TOL)
    if not ok:
        raise CareFailure("matrix sign iteration did not converge")
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
