"""Dense linear-algebra kernels over numpy arrays.

Kernels never raise: each returns its result together with a success
flag, and the wrappers in ``linalg`` turn failures into typed errors.
"""

import math

import numpy as np


def jacobi_eigvals(S, off_tol=1e-14, max_sweeps=100):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Returns (values sorted ascending, converged flag). Sweeping stops
    when the off-diagonal Frobenius norm falls below off_tol times the
    Frobenius norm of the input.
    """
    n = S.shape[0]
    a = S.copy()
    fro = 0.0
    for i in range(n):
        for j in range(n):
            fro += a[i, j] * a[i, j]
    fro = math.sqrt(fro)
    tol = off_tol * fro
    converged = False
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                off += 2.0 * a[i, j] * a[i, j]
        off = math.sqrt(off)
        if off <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1.0e150:
                    t = 0.5 / theta
                else:
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk - s * aqk
                    a[q, k] = s * apk + c * aqk
    vals = np.empty(n)
    for i in range(n):
        vals[i] = a[i, i]
    vals.sort()
    return vals, converged


def jacobi_singular_values(M, off_tol=1e-14, max_sweeps=60):
    """Singular values of a real matrix by one-sided Jacobi rotations.

    Columns are rotated pairwise until all normalized inner products
    fall below off_tol; the singular values are the resulting column
    norms, sorted descending. Returns (values, converged flag).
    """
    m = M.shape[0]
    n = M.shape[1]
    u = M.copy()
    converged = False
    for _ in range(max_sweeps):
        # columns this far below the largest are rotation noise around
        # zero singular values; rotating them never settles
        scale2 = 0.0
        for j in range(n):
            acc = 0.0
            for i in range(m):
                acc += u[i, j] * u[i, j]
            if acc > scale2:
                scale2 = acc
        small2 = scale2 * 1.0e-30
        if scale2 == 0.0:
            converged = True
            break
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = 0.0
                aqq = 0.0
                apq = 0.0
                for i in range(m):
                    app += u[i, p] * u[i, p]
                    aqq += u[i, q] * u[i, q]
                    apq += u[i, p] * u[i, q]
                if apq == 0.0 or app <= small2 or aqq <= small2:
                    continue
                denom = math.sqrt(app * aqq)
                if abs(apq) <= off_tol * denom:
                    continue
                theta = (aqq - app) / (2.0 * apq)
                if abs(theta) > 1.0e150:
                    t = 0.5 / theta
                else:
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for i in range(m):
                    uip = u[i, p]
                    uiq = u[i, q]
                    u[i, p] = c * uip - s * uiq
                    u[i, q] = s * uip + c * uiq
                rotated = True
        if not rotated:
            converged = True
            break
    sig = np.empty(n)
    for j in range(n):
        acc = 0.0
        for i in range(m):
            acc += u[i, j] * u[i, j]
        sig[j] = math.sqrt(acc)
    sig[::-1].sort()
    return sig, converged


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


def eig_qr(M, max_sweeps_per_n=100):
    """Eigenvalues of a real square matrix.

    Householder reduction to Hessenberg form, then shifted QR iteration
    in complex arithmetic with deflation. Returns (eigenvalues,
    converged flag); the total sweep budget is max_sweeps_per_n * n.
    """
    n = M.shape[0]
    eigs = np.zeros(n, dtype=np.complex128)
    if n == 1:
        eigs[0] = complex(M[0, 0], 0.0)
        return eigs, True
    H = M.copy()
    for k in range(n - 2):
        xnorm = 0.0
        for i in range(k + 1, n):
            xnorm += H[i, k] * H[i, k]
        xnorm = math.sqrt(xnorm)
        if xnorm == 0.0:
            continue
        alpha = -xnorm if H[k + 1, k] >= 0.0 else xnorm
        v = np.zeros(n)
        for i in range(k + 1, n):
            v[i] = H[i, k]
        v[k + 1] -= alpha
        vnorm2 = 0.0
        for i in range(k + 1, n):
            vnorm2 += v[i] * v[i]
        if vnorm2 == 0.0:
            continue
        for j in range(n):
            dot = 0.0
            for i in range(k + 1, n):
                dot += v[i] * H[i, j]
            f = 2.0 * dot / vnorm2
            for i in range(k + 1, n):
                H[i, j] -= f * v[i]
        for i in range(n):
            dot = 0.0
            for j in range(k + 1, n):
                dot += H[i, j] * v[j]
            f = 2.0 * dot / vnorm2
            for j in range(k + 1, n):
                H[i, j] -= f * v[j]
    A = H.astype(np.complex128)
    for i in range(2, n):
        for j in range(i - 1):
            A[i, j] = 0.0 + 0.0j
    budget = max_sweeps_per_n * n
    sweeps = 0
    hi = n - 1
    converged = True
    while hi >= 0:
        if hi == 0:
            eigs[0] = A[0, 0]
            break
        dcheck = abs(A[hi, hi - 1])
        dref = abs(A[hi, hi]) + abs(A[hi - 1, hi - 1])
        if dcheck <= 1e-14 * dref:
            eigs[hi] = A[hi, hi]
            hi -= 1
            continue
        if sweeps >= budget:
            converged = False
            break
        lo = hi
        while lo > 0:
            sd = abs(A[lo, lo - 1])
            sref = abs(A[lo, lo]) + abs(A[lo - 1, lo - 1])
            if sd <= 1e-14 * sref:
                break
            lo -= 1
        a11 = A[hi - 1, hi - 1]
        a12 = A[hi - 1, hi]
        a21 = A[hi, hi - 1]
        a22 = A[hi, hi]
        tr = a11 + a22
        dt = a11 * a22 - a12 * a21
        disc = np.sqrt(tr * tr * 0.25 - dt)
        mu1 = tr * 0.5 + disc
        mu2 = tr * 0.5 - disc
        mu = mu1 if abs(mu1 - a22) <= abs(mu2 - a22) else mu2
        if sweeps % 30 == 29:
            # exceptional shift to break rare symmetric stagnation
            mu = a22 + 0.75 * abs(a21)
        m = hi - lo + 1
        B = np.zeros((m, m), dtype=np.complex128)
        for i in range(m):
            for j in range(m):
                B[i, j] = A[lo + i, lo + j]
            B[i, i] -= mu
        Vv = np.zeros((m, m), dtype=np.complex128)
        vn2 = np.zeros(m)
        for k in range(m - 1):
            xn = 0.0
            for i in range(k, m):
                xn += B[i, k].real * B[i, k].real + B[i, k].imag * B[i, k].imag
            xn = math.sqrt(xn)
            if xn == 0.0:
                continue
            x0 = B[k, k]
            ax0 = abs(x0)
            if ax0 == 0.0:
                phase = 1.0 + 0.0j
            else:
                phase = x0 / ax0
            alpha_c = -phase * xn
            for i in range(k, m):
                Vv[k, i] = B[i, k]
            Vv[k, k] -= alpha_c
            v2 = 0.0
            for i in range(k, m):
                v2 += Vv[k, i].real * Vv[k, i].real + Vv[k, i].imag * Vv[k, i].imag
            if v2 == 0.0:
                continue
            vn2[k] = v2
            for j in range(k, m):
                dot = 0.0 + 0.0j
                for i in range(k, m):
                    dot += np.conj(Vv[k, i]) * B[i, j]
                f = 2.0 * dot / v2
                for i in range(k, m):
                    B[i, j] -= f * Vv[k, i]
        for k in range(m - 1):
            v2 = vn2[k]
            if v2 == 0.0:
                continue
            for i in range(m):
                dot = 0.0 + 0.0j
                for j in range(k, m):
                    dot += B[i, j] * Vv[k, j]
                f = 2.0 * dot / v2
                for j in range(k, m):
                    B[i, j] -= f * np.conj(Vv[k, j])
        for i in range(m):
            for j in range(m):
                A[lo + i, lo + j] = B[i, j]
            A[lo + i, lo + i] += mu
        for i in range(2, m):
            for j in range(i - 1):
                A[lo + i, lo + j] = 0.0 + 0.0j
        sweeps += 1
    return eigs, converged


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
