"""Dense kernels over numpy arrays: the matrix exponential and the matrix
sign iteration. Eigenvalues and singular values come from LAPACK through
``numpy.linalg`` in ``linalg``.

Kernels never raise: each returns its result together with a success
flag, and the wrappers in ``linalg`` turn failures into typed errors.
"""

import math

import numpy as np


def expm_pade7(M, scaled_norm=0.5):
    """Matrix exponential by scaling and squaring with an order-7 Pade core.

    The input is scaled so its 1-norm is at most scaled_norm before the
    rational approximation, then squared back. Returns (result, finite
    flag); a False flag means the value overflowed.
    """
    n = M.shape[0]
    nrm = 0.0
    for j in range(n):
        s = 0.0
        for i in range(n):
            s += abs(M[i, j])
        if s > nrm:
            nrm = s
    if not math.isfinite(nrm):
        return np.eye(n), False
    s_pow = 0
    if nrm > scaled_norm:
        s_pow = int(math.ceil(math.log2(nrm / scaled_norm)))
    A = M / (2.0 ** s_pow)
    b0 = 17297280.0
    b1 = 8648640.0
    b2 = 1995840.0
    b3 = 277200.0
    b4 = 25200.0
    b5 = 1512.0
    b6 = 56.0
    b7 = 1.0
    eye = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (b7 * A6 + b5 * A4 + b3 * A2 + b1 * eye)
    V = b6 * A6 + b4 * A4 + b2 * A2 + b0 * eye
    E = np.linalg.solve(V - U, V + U)
    # an overflow is reported by the flag, not by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s_pow):
            E = E @ E
    return E, bool(np.all(np.isfinite(E)))


def matrix_sign_newton(W, max_iter=100, conv_tol=1e-12):
    """Matrix sign function by Newton iteration with determinant scaling.

    Returns (sign, converged flag). Iteration stops when the relative
    Frobenius change falls below conv_tol. A singular or non-finite
    iterate yields a False flag.
    """
    n = W.shape[0]
    X = W.copy()
    ok = False
    for _ in range(max_iter):
        d = np.linalg.det(X)
        ad = abs(d)
        if not math.isfinite(ad) or ad == 0.0:
            return X, False
        g = ad ** (-1.0 / n)
        Xi = np.linalg.inv(X)
        Xn = 0.5 * (g * X + (1.0 / g) * Xi)
        num = 0.0
        den = 0.0
        for i in range(n):
            for j in range(n):
                diff = Xn[i, j] - X[i, j]
                num += diff * diff
                den += Xn[i, j] * Xn[i, j]
        X = Xn
        if not math.isfinite(den):
            return X, False
        if math.sqrt(num) <= conv_tol * math.sqrt(den):
            ok = True
            break
    return X, ok
