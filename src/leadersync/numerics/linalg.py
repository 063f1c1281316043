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

# matrix exponential (scaling and squaring, order-7 Pade core)
EXPM_SCALED_NORM = 0.5      # scale so ||M|| / 2^s <= this

# Lyapunov / Riccati
LYAP_RESIDUAL_TOL = 1e-10   # times (1 + ||Q||_F + 2 ||M||_F ||X||_F)
CARE_RESIDUAL_TOL = 1e-9    # times (1 + ||P||_F^2)
CARE_SYM_TOL = 1e-10        # absolute asymmetry allowed in P

# stabilizability test
EIG_REAL_GUARD = 1e-12      # eigenvalues with Re >= -guard are treated as unstable


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Extreme eigenvalues of a symmetric matrix: floats for one
    matrix, arrays over the leading axes for a stack of them."""

    lambda_min: float | np.ndarray
    lambda_max: float | np.ndarray


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
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return a


def _square(M, name="matrix", stack=False):
    a = _as_matrix(M, name, stack)
    if a.shape[-2] != a.shape[-1]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    return a


def _symmetric(S, name="S"):
    """Symmetric part of S, a matrix or a (..., n, n) stack of them.
    Each matrix must be symmetric to within SYM_INPUT_TOL
    relative to its own largest entry."""
    a = _square(S, name, stack=True)
    at = a.swapaxes(-1, -2)
    asym = np.max(np.abs(a - at), axis=(-2, -1))
    bad = asym > SYM_INPUT_TOL * np.max(np.abs(a), axis=(-2, -1))
    if np.any(bad):
        raise InvalidMatrix(
            f"{name} is not symmetric: max asymmetry "
            f"{np.max(asym[bad]):.3e}")
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


def spectral_norm(M):
    """Largest singular value of a matrix, or of each matrix of a
    (..., rows, cols) stack."""
    return _per_matrix(singular_values(M)[..., 0])


# order-7 Pade coefficients b0..b7 of e^x
_PADE7 = (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0,
          56.0, 1.0)


def expm(M, t=1.0):
    """Matrix exponential e^(M t) by scaling and squaring.

    M t is scaled so its 1-norm is at most EXPM_SCALED_NORM, the
    order-7 Pade approximant is taken, and the result is squared back.
    """
    overflow = "matrix exponential overflowed the float range"
    a = _square(M, "M") * float(t)
    nrm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(nrm):
        raise NumericalOverflow(overflow)
    s_pow = 0
    if nrm > EXPM_SCALED_NORM:
        s_pow = int(math.ceil(math.log2(nrm / EXPM_SCALED_NORM)))
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
        if lam.real < -EIG_REAL_GUARD:
            continue
        pencil = np.hstack([a - lam * eye, b])
        sig = _lapack(np.linalg.svd, pencil, compute_uv=False)
        smax = float(sig[0])
        if smax == 0.0:
            return False
        if int(np.sum(sig > RANK_REL_TOL * smax)) < n:
            return False
    return True


def solve_lyapunov(M, Q):
    """Solve M^T X + X M + Q = 0 for symmetric X via vectorization."""
    m = _square(M, "M")
    q = _symmetric(Q, "Q")
    n = m.shape[0]
    if q.shape != m.shape:
        raise InvalidMatrix(f"Q must match M, got {q.shape} vs {m.shape}")
    eye = np.eye(n)
    system = np.kron(m.T, eye) + np.kron(eye, m.T)
    try:
        x = np.linalg.solve(system, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise LyapunovSingular(f"vectorized Lyapunov system is singular: {exc}") from exc
    X = x.reshape(n, n)
    X = 0.5 * (X + X.T)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        res_norm = float(np.linalg.norm(m.T @ X + X @ m + q))
        bound = LYAP_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(q)))
        if res_norm > bound:
            # the backward-error bound: rounding leaves a residual of
            # order ||M^T X + X M||, so a large X may leave more than
            # ||Q|| accounts for
            bound += LYAP_RESIDUAL_TOL * 2.0 * float(
                np.linalg.norm(m) * np.linalg.norm(X))
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
    (Kleinman) refinement step through the Lyapunov solver. Any other
    count of such eigenvalues, or a singular V1, raises CareFailure.
    The solution is validated: symmetry, positive definiteness,
    residual bound, and a strictly stable closed-loop matrix
    A - mu1 B B^T P. Weights that are not positive and finite raise
    ValueError.
    """
    if not (0.0 < mu1 < math.inf and 0.0 < mu2 < math.inf):
        raise ValueError(
            f"mu1 and mu2 must be positive and finite, got {mu1}, {mu2}")
    a = _square(A, "A")
    b = _as_matrix(B, "B")
    n = a.shape[0]
    if not check_stabilizable(a, b):  # which checks B's row count too
        raise NotStabilizable(
            "(A, B) is not stabilizable: an uncontrollable mode has "
            "nonnegative real part")
    R = mu1 * (b @ b.T)
    eye = np.eye(n)
    W = np.block([[a, -R], [-mu2 * eye, -a.T]])
    w, V = _lapack(np.linalg.eig, W)
    stable = V[:, w.real < 0.0]
    if stable.shape[1] != n:
        raise CareFailure(
            f"the Hamiltonian has {stable.shape[1]} eigenvalues with "
            f"negative real part, not {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
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
    try:
        P_raw = solve_lyapunov(closed, Q_nk)
    except LyapunovSingular as exc:
        raise CareFailure(f"Newton refinement failed: {exc}") from exc
    asym = float(np.max(np.abs(P_raw - P_raw.T)))
    if asym > CARE_SYM_TOL:
        raise CareFailure(f"solution asymmetry {asym:.3e} exceeds tolerance")
    P = 0.5 * (P_raw + P_raw.T)
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
    closed_eigs = eigenvalues(a - mu1 * (b @ b.T) @ P)
    if not np.all(closed_eigs.real < 0.0):
        raise CareFailure("closed-loop matrix is not strictly stable")
    return CareSolution(P=P, residual_norm=res_norm, spectrum=spectrum)
