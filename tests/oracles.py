"""Independent reference implementations used to check the package.

Everything here is deliberately written with different algorithms from
the library under test: series expansions instead of rational
approximations, characteristic-polynomial bisection instead of
rotations, transitive closure instead of search, cofactor expansion
instead of factorizations.
"""

from dataclasses import dataclass
import math

import numpy as np


def expm_taylor(M, t=1.0, tol=1e-16):
    """Matrix exponential by scaled Taylor summation."""
    A = np.asarray(M, dtype=float) * t
    n = A.shape[0]
    nrm = float(np.max(np.sum(np.abs(A), axis=0)))
    s = 0
    if nrm > 0.25:
        s = int(math.ceil(math.log2(nrm / 0.25)))
    B = A / (2.0 ** s)
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ B / k
        E = E + term
        if float(np.max(np.abs(term))) < tol:
            break
    for _ in range(s):
        E = E @ E
    return E


def det_cofactor(M):
    """Determinant by recursive cofactor expansion (small n only).

    The expansion runs on rows of Python floats instead of numpy
    arrays, which only saves the indexing: every product and sum is the
    same IEEE double operation in the same order, so the result is bit
    for bit the one of the expansion on the array itself.
    """
    return _det_rows(np.asarray(M, dtype=float).tolist())


def _det_rows(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0.0
    rest = rows[1:]
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rest]
        total += ((-1.0) ** j) * rows[0][j] * _det_rows(minor)
    return total


def count_eigs_below(S, x, shift_eps=1e-12):
    """Eigenvalues of symmetric S strictly below x, by the sign
    variations of the leading principal minors of S - x I. A zero
    minor is broken by nudging x downward."""
    A = np.asarray(S, dtype=float) - x * np.eye(S.shape[0])
    n = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(S))))
    minors = [1.0]
    for k in range(1, n + 1):
        minors.append(det_cofactor(A[:k, :k]))
    if any(m == 0.0 for m in minors[1:]):
        return count_eigs_below(S, x - shift_eps * scale, shift_eps * 2)
    count = 0
    for a, b in zip(minors, minors[1:]):
        if (a > 0) != (b > 0):
            count += 1
    return count


def sym_extremes_bisect(S, tol=1e-10):
    """(lambda_min, lambda_max) of a symmetric matrix by inertia
    bisection on a Gershgorin bracket."""
    A = np.asarray(S, dtype=float)
    n = A.shape[0]
    radius = float(np.max(np.sum(np.abs(A), axis=1)))
    lo0, hi0 = -radius - 1.0, radius + 1.0

    def smallest_with(count):
        lo, hi = lo0, hi0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_eigs_below(A, mid) >= count:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return smallest_with(1), smallest_with(n)


def charpoly_coeffs(M):
    """Characteristic polynomial coefficients (monic, descending) by
    the Faddeev-LeVerrier recurrence."""
    A = np.asarray(M, dtype=float)
    n = A.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(A)
    for k in range(1, n + 1):
        Mk = A @ Mk + coeffs[-1] * np.eye(n)
        coeffs.append(-float(np.trace(A @ Mk)) / k)
    return np.array(coeffs)


def eigs_by_roots(M):
    """Eigenvalues as polynomial roots, sorted like the library."""
    roots = np.roots(charpoly_coeffs(M))
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def power_spectral_norm(M, iters=500, restarts=5, seed=0):
    """Largest singular value by power iteration on the Gram matrix."""
    A = np.asarray(M, dtype=float)
    G = A.T @ A
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(restarts):
        v = rng.standard_normal(G.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = G @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v = w / nw
        best = max(best, math.sqrt(float(v @ G @ v)))
    return best


def reachable_closure(N, edges):
    """Followers reachable from the leader by boolean Floyd-Warshall."""
    size = N + 1
    R = np.zeros((size, size), dtype=bool)
    for j, i in edges:
        R[j, i] = True
    for k in range(size):
        for a in range(size):
            if R[a, k]:
                R[a] |= R[k]
    return all(R[0, i] for i in range(1, size))


def grounded_laplacian(N, edges):
    """Grounded Laplacian by a loop over the edges: h_ii counts every
    in-edge (j, i) of follower i, the leader's included, and h_ij is
    -1 for each follower in-edge; edges into the leader are skipped."""
    H = np.zeros((N, N))
    for j, i in edges:
        if i == 0:
            continue
        H[i - 1, i - 1] += 1.0
        if j >= 1:
            H[i - 1, j - 1] -= 1.0
    return H


def enumerate_bruteforce(N):
    """Every edge set on one leader and N followers, edges into the
    leader included, in which all followers are reachable: a loop over
    all 2^(N(N+1)) sets, each checked by reachable_closure."""
    pairs = [(j, i) for j in range(N + 1) for i in range(N + 1) if j != i]
    found = []
    for bits in range(1 << len(pairs)):
        edges = frozenset(pairs[k] for k in range(len(pairs))
                          if (bits >> k) & 1)
        if reachable_closure(N, edges):
            found.append(edges)
    return found


def solve_gauss(A, b):
    """Linear solve by Gauss-Jordan elimination with partial pivoting."""
    M = np.hstack([np.asarray(A, dtype=float),
                   np.asarray(b, dtype=float).reshape(-1, 1)])
    n = M.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(M[col:, col])))
        if M[piv, col] == 0.0:
            raise ZeroDivisionError("singular system")
        M[[col, piv]] = M[[piv, col]]
        M[col] /= M[col, col]
        for r in range(n):
            if r != col:
                M[r] -= M[r, col] * M[col]
    return M[:, -1]


MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator with a fixed, documented update,
    one Python integer at a time.

    State advance adds 0x9E3779B97F4A7C15; output mixing is
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31, all modulo 2^64.
    """

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + self.GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] by modular reduction."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


def schedule_instants(lo, hi, grid_h, horizon, seed):
    """Sampling instants drawn one gap at a time: from tick 0, add
    SplitMix64(seed).randint(lo, hi) grid steps until the instant
    reaches the horizon."""
    rng = SplitMix64(seed)
    ticks = [0]
    while ticks[-1] * grid_h < horizon:
        ticks.append(ticks[-1] + rng.randint(lo, hi))
    return np.array(ticks, dtype=float) * grid_h


def signal_mode_scan(s, t):
    """Active mode of a SwitchingSignal at one time t >= 0 by a linear
    scan: the first phase whose accumulated end passes t's offset into
    the period (the last phase when float shortfall leaves none), or
    the last event at or before t."""
    if s.period is not None:
        tau = t - math.floor(t / s.period) * s.period
        acc = 0.0
        for mode, duration in s.phases:
            acc += duration
            if tau < acc:
                return mode
        return s.phases[-1][0]
    mode = s.events[0][1]
    for tm, m in s.events:
        if tm <= t:
            mode = m
        else:
            break
    return mode


def random_reachable_topology(N, rng, p=0.35):
    """Seeded random digraph on N followers with the leader able to
    reach every one of them (resampled until true)."""
    from leadersync import Topology

    while True:
        edges = set()
        for j in range(N + 1):
            for i in range(N + 1):
                if j != i and rng.random() < p:
                    edges.add((j, i))
        if reachable_closure(N, edges):
            return Topology(N, frozenset(edges))


def random_stabilizable(n, m, rng):
    """Random (A, B) pair guaranteed stabilizable: a controllable
    companion block driven through the last coordinate, mixed by a
    random similarity."""
    A = np.zeros((n, n))
    A[1:, :-1] = np.eye(n - 1)
    A[:, -1] = rng.standard_normal(n)
    B = np.zeros((n, m))
    B[-1, 0] = 1.0
    if m > 1:
        B[:, 1:] = 0.1 * rng.standard_normal((n, m - 1))
    T = rng.standard_normal((n, n))
    while abs(np.linalg.det(T)) < 0.1:
        T = rng.standard_normal((n, n))
    return T @ A @ np.linalg.inv(T), T @ B


def stabilizable_pbh(A, B, guard, rank_tol):
    """The PBH rank test one eigenvalue at a time, written out as the
    reference for the stacked test of
    leadersync.numerics.linalg.check_stabilizable: each eigenvalue
    lambda of A with Re lambda >= -guard must leave the pencil
    [A - lambda I, B] with n singular values above rank_tol times its
    largest."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    B = np.asarray(B, dtype=float).reshape(n, -1)
    eye = np.eye(n)
    for lam in np.linalg.eigvals(A).astype(complex):
        if lam.real < -guard:
            continue
        pencil = np.hstack([A - lam * eye, B])
        sig = np.linalg.svd(pencil, compute_uv=False)
        smax = float(sig[0])
        if smax == 0.0:
            return False
        if int(np.sum(sig > rank_tol * smax)) < n:
            return False
    return True


def propagate_grid(Fs, Gs, mode_idx, steps, xbar0):
    """Sampled closed loop advanced one grid step at a time.

    Fs, Gs hold the per-mode one-step transition blocks, shape
    (modes, d, d); mode_idx gives the mode of each interval and steps
    the grid steps it spans. The held input is frozen at each interval
    start. Returns the state at every grid point, shape
    (sum(steps) + 1, d).
    """
    out = [np.array(xbar0, dtype=float)]
    x = out[0]
    for p, count in zip(mode_idx, steps):
        gh = Gs[p] @ x
        for _ in range(count):
            x = Fs[p] @ x + gh
            out.append(x)
    return np.array(out)


def propagate_linear(E, x0, total):
    """States of x -> E x at every grid point, shape (total + 1, n)."""
    out = [np.array(x0, dtype=float)]
    for _ in range(total):
        out.append(E @ out[-1])
    return np.array(out)


def leader_trajectory(A, x0, times):
    """Leader states e^(A t) x0 at each requested time, one call of the
    package's expm per time."""
    from leadersync.numerics.linalg import expm

    x = np.asarray(x0, dtype=float).reshape(-1)
    return np.array([expm(A, float(t)) @ x for t in times])


class ContractionInfeasible(ValueError):
    """Contraction hypothesis (0 < beta2 < beta1, h > 0) is violated."""


@dataclass(frozen=True)
class ContractionParams:
    """Feasible per-interval decay bound rho for minimum gap h."""

    beta1: float
    beta2: float
    h: float
    rho: float


def contraction_factor(beta1, beta2, h):
    """The paper's per-interval decay bound
    rho = (1 - beta2/beta1) e^(-beta1 h) + beta2/beta1, strictly below 1
    whenever 0 < beta2 < beta1 and h > 0, written out as the reference
    for leadersync.synthesis._rho. Outside those hypotheses raises
    ContractionInfeasible."""
    if not (beta1 > 0.0 and beta2 > 0.0):
        raise ContractionInfeasible(
            f"beta1 and beta2 must be positive, got {beta1}, {beta2}")
    if beta2 >= beta1:
        raise ContractionInfeasible(
            f"beta2 = {beta2} must be strictly below beta1 = {beta1}")
    if not h > 0.0:
        raise ContractionInfeasible(f"h must be positive, got {h}")
    rho = (1.0 - beta2 / beta1) * math.exp(-beta1 * h) + beta2 / beta1
    return ContractionParams(beta1=float(beta1), beta2=float(beta2),
                             h=float(h), rho=float(rho))


def verify_comparison_lemma(beta1, beta2, schedule, W0, rel_slack=1e-12):
    """Propagate the extremal held-term scalar system
    dW/dt = -beta1 W + beta2 W(t_s) across the schedule and check each
    per-interval ratio W(t_{s+1}) / W(t_s) against contraction_factor.
    True iff every ratio matches within rel_slack."""
    if not (beta1 > 0.0 and beta2 > 0.0) or beta2 >= beta1:
        raise ContractionInfeasible(
            f"need 0 < beta2 < beta1, got beta1 = {beta1}, beta2 = {beta2}")
    if W0 < 0.0:
        raise ValueError(f"W0 must be nonnegative, got {W0}")
    if W0 == 0.0:
        return True
    W = float(W0)
    for T in np.diff(np.asarray(schedule.instants, dtype=float)):
        rho_s = contraction_factor(beta1, beta2, float(T)).rho
        held = (beta2 / beta1) * W
        W_next = (W - held) * math.exp(-beta1 * float(T)) + held
        if abs(W_next / W - rho_s) > rel_slack * rho_s:
            return False
        W = W_next
    return True


def repr_rows(block):
    """CSV text of a 2-D float block, each value as its repr: the bytes
    leadersync.floattext.format_rows must reproduce."""
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(block, dtype=float).tolist())


def write_trajectory_csv_repr(path, result, V=None):
    """The trajectory CSV as it was written a value at a time: 64 rows
    per block, each value through Python's repr. The reference for the
    bytes of leadersync.write_trajectory_csv."""
    n_out, N, n = result.errors.shape
    cols = ["t"]
    cols += [f"x0_{j}" for j in range(1, n + 1)]
    for i in range(1, N + 1):
        cols += [f"x{i}_{j}" for j in range(1, n + 1)]
    cols += [f"err_norm_{i}" for i in range(1, N + 1)]
    cols.append("V")
    vcol = (np.full(n_out, math.nan) if V is None
            else np.asarray(V, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        followers = (result.errors + result.leader[:, None, :]).reshape(
            n_out, N * n)
        norms = np.linalg.norm(result.errors, axis=2)
    with open(path, "w", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        for lo in range(0, n_out, 64):
            hi = lo + 64
            block = np.column_stack([result.times[lo:hi],
                                     result.leader[lo:hi], followers[lo:hi],
                                     norms[lo:hi], vcol[lo:hi]])
            f.write("".join([",".join(map(repr, row)) + "\n"
                             for row in block.tolist()]))
