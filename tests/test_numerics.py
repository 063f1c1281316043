import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leadersync.errors import (CareFailure, EigenFailure, InvalidMatrix,
                               LyapunovSingular, NotStabilizable,
                               NumericalOverflow)
from leadersync.graph import admissible_laplacians
from leadersync.numerics.linalg import (EIG_REAL_GUARD, RANK_REL_TOL,
                                        _kron_sum, check_stabilizable,
                                        eigenvalues, expm, max_spectral_norm,
                                        singular_values, solve_care,
                                        solve_lyapunov, spectral_norm,
                                        sym_eig_extremes)
from leadersync.synthesis import _scalings

import oracles


# ---------------------------------------------------------------- expm

def test_expm_identity_and_zero():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    E = expm(np.eye(2))
    assert np.allclose(E, math.e * np.eye(2), rtol=1e-14)


def test_expm_nilpotent_exact():
    # series terminates, so the result is polynomial and nearly exact
    M = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    expected = np.eye(3) + M + M @ M / 2.0
    assert np.allclose(expm(M), expected, atol=1e-15)


def test_expm_matches_taylor_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n)) * rng.uniform(0.1, 3.0)
        E = expm(M)
        T = oracles.expm_taylor(M)
        assert np.allclose(E, T, rtol=1e-9, atol=1e-12)


def test_expm_scaling_argument():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((4, 4))
    assert np.allclose(expm(M, 0.37), oracles.expm_taylor(M, 0.37),
                       rtol=1e-9, atol=1e-12)
    assert np.allclose(expm(M, 0.0), np.eye(4), atol=1e-15)


def test_expm_semigroup_property():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        s, t = rng.uniform(0.1, 2.0, 2)
        left = expm(M, s + t)
        right = expm(M, s) @ expm(M, t)
        assert np.allclose(left, right, rtol=1e-8, atol=1e-10)


def test_expm_determinant_identity():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        assert math.isclose(float(np.linalg.det(expm(M))),
                            math.exp(float(np.trace(M))), rel_tol=1e-8)


def test_expm_overflow_raises():
    # the typed error is the only report: no numpy warning escapes, when
    # the squaring overflows or when the 1-norm of M t already does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M, t in (([[2000.0, 0.0], [0.0, 2000.0]], 1.0),
                     ([[1e308, 0.0], [1e308, 0.0]], 1.0),
                     ([[10.0, 0.0], [0.0, 0.0]], 1e308),
                     ([[1.0, 0.0], [0.0, 0.0]], math.inf),
                     # norms whose scaling power 2^s is past the float range
                     ([[5e307]], 1.0), ([[1.5e308]], 1.0)):
            with pytest.raises(NumericalOverflow):
                expm(np.array(M), t)


def test_expm_of_the_most_negative_float_underflows_to_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(expm(np.array([[-1.5e308]])), [[0.0]])


def test_expm_rejects_nonsquare():
    with pytest.raises(InvalidMatrix):
        expm(np.ones((2, 3)))


# ------------------------------------------------- symmetric eigenvalues

def test_sym_eig_known_2x2():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    spec = sym_eig_extremes(S)
    assert math.isclose(spec.lambda_min, 1.0, abs_tol=1e-12)
    assert math.isclose(spec.lambda_max, 3.0, abs_tol=1e-12)


def test_sym_eig_matches_bisection_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        S = rng.standard_normal((n, n))
        S = S + S.T
        spec = sym_eig_extremes(S)
        lo, hi = oracles.sym_extremes_bisect(S)
        assert math.isclose(spec.lambda_min, lo, abs_tol=1e-7)
        assert math.isclose(spec.lambda_max, hi, abs_tol=1e-7)


def test_sym_eig_repeated_eigenvalues():
    # lambda = 1 has multiplicity 2; bisection counts through it
    Q, _ = np.linalg.qr(np.random.default_rng(22).standard_normal((3, 3)))
    S = Q @ np.diag([1.0, 1.0, 4.0]) @ Q.T
    spec = sym_eig_extremes(S)
    assert math.isclose(spec.lambda_min, 1.0, abs_tol=1e-10)
    assert math.isclose(spec.lambda_max, 4.0, abs_tol=1e-10)
    lo, hi = oracles.sym_extremes_bisect(S)
    assert math.isclose(lo, 1.0, abs_tol=1e-7)
    assert math.isclose(hi, 4.0, abs_tol=1e-7)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(InvalidMatrix):
        sym_eig_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eig_huge_scale_gap():
    # rotation angles reach the guarded asymptotic branch
    S = np.diag([1e150, 1.0, 1e-150])
    S[0, 1] = S[1, 0] = 1e-10
    spec = sym_eig_extremes(S)
    assert math.isclose(spec.lambda_max, 1e150, rel_tol=1e-12)


def test_sym_eig_extremes_takes_one_matrix():
    with pytest.raises(InvalidMatrix, match="2-D"):
        sym_eig_extremes(np.stack([np.eye(3), np.eye(3)]))


def test_stacked_wrappers_match_one_matrix_at_a_time():
    rng = np.random.default_rng(24)
    M = rng.standard_normal((7, 3, 5))
    norms = spectral_norm(M)
    sig = singular_values(M)
    assert sig.shape == (7, 3)
    for k in range(7):
        assert norms[k] == spectral_norm(M[k])
        assert np.array_equal(sig[k], singular_values(M[k]))


def test_stacked_wrappers_check_every_slice():
    good = np.eye(2)
    for bad in (np.array([[1.0, np.nan], [np.nan, 1.0]]),
                np.array([[1.0, np.inf], [np.inf, 1.0]])):
        with pytest.raises(InvalidMatrix, match="non-finite"):
            spectral_norm(np.stack([good, bad]))


def _stacked_max(M):
    return float(np.max(spectral_norm(M)))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_max_spectral_norm_is_the_stacked_max_on_admissible_graphs(N):
    # the two stacks the graph-independent design takes norms of
    _, Hs = admissible_laplacians(N)
    ds, _ = _scalings(Hs)
    for M in (Hs, ds[..., :, None] * Hs):
        assert max_spectral_norm(M) == _stacked_max(M)


def test_max_spectral_norm_is_the_stacked_max_on_near_ties():
    # slices within a few ulps of the one that sets the norm, at scales
    # whose squares would overflow or underflow unscaled
    rng = np.random.default_rng(25)
    for _ in range(300):
        G = int(rng.integers(2, 30))
        shape = (G, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        M = rng.standard_normal(shape) * 10.0 ** rng.uniform(-250, 250)
        top = int(rng.integers(G))
        ties = rng.integers(G, size=int(rng.integers(1, G + 1)))
        scale = 1.0 + 1e-14 * rng.integers(-2, 3, size=ties.size)
        M[ties] = M[top] * scale[:, None, None]
        assert max_spectral_norm(M) == _stacked_max(M)
    tiny = np.stack([1e-200 * np.eye(3), 1e-170 * np.eye(3)])
    assert max_spectral_norm(tiny) == _stacked_max(tiny) == 1e-170
    assert max_spectral_norm(np.eye(3)[None]) == 1.0
    assert max_spectral_norm(np.zeros((4, 2, 2))) == 0.0


def test_max_spectral_norm_takes_two_slices_in_one_svd_call(monkeypatch):
    # two slices within a few ulps of each other, in either order and at
    # scales whose squares would overflow or underflow unscaled; the
    # Frobenius bound could save no SVD, so there is one stacked call
    rng = np.random.default_rng(26)
    cases = []
    for _ in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        M = rng.standard_normal(shape) * 10.0 ** rng.uniform(-250, 250)
        tie = M * (1.0 + 1e-14 * int(rng.integers(-2, 3)))
        cases += [np.stack([M, tie]), np.stack([tie, M])]
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1)
                        or svd(*a, **k))
    for S in cases:
        calls.clear()
        assert max_spectral_norm(S) == _stacked_max(S)
        assert len(calls) == 2  # one here, one for the reference


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_spectral_norm_refuses_a_non_finite_slice_anywhere(bad):
    for k in range(4):
        M = np.stack([np.eye(2) * (j + 1.0) for j in range(4)])
        M[k, 1, 0] = bad
        with pytest.raises(InvalidMatrix, match="non-finite"):
            max_spectral_norm(M)


@pytest.mark.parametrize("wrapper, solver", [
    (sym_eig_extremes, "eigvalsh"), (eigenvalues, "eigvals"),
    (singular_values, "svd"), (spectral_norm, "svd"),
    (max_spectral_norm, "svd")])
def test_lapack_failure_is_typed(monkeypatch, wrapper, solver):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(EigenFailure, match="did not converge"):
        wrapper(np.eye(3))
    if wrapper in (singular_values, spectral_norm, max_spectral_norm):
        with pytest.raises(EigenFailure, match="did not converge"):
            wrapper(np.stack([np.eye(3), np.eye(3)]))


# ---------------------------------------------------- norms and kron

def test_spectral_norm_against_power_iteration():
    rng = np.random.default_rng(31)
    for _ in range(40):
        M = rng.standard_normal((int(rng.integers(1, 7)),
                                 int(rng.integers(1, 7))))
        assert math.isclose(spectral_norm(M), oracles.power_spectral_norm(M),
                            rel_tol=1e-8, abs_tol=1e-10)


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((3, 2))) == 0.0


def test_kron_norm_product_identity():
    rng = np.random.default_rng(32)
    for _ in range(40):
        H = rng.standard_normal((int(rng.integers(1, 5)),) * 2)
        M = rng.standard_normal((int(rng.integers(1, 5)),) * 2)
        lhs = spectral_norm(np.kron(H, M))
        rhs = spectral_norm(H) * spectral_norm(M)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


# ------------------------------------------------- general eigenvalues

def _match_multisets(got, want, tol):
    """Greedy nearest pairing; ties in the sort order must not fail."""
    remaining = list(want)
    for g in got:
        dists = [abs(g - w) for w in remaining]
        k = int(np.argmin(dists))
        if dists[k] > tol:
            return False
        remaining.pop(k)
    return True


def test_eigenvalues_match_charpoly_roots():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        got = eigenvalues(M)
        want = oracles.eigs_by_roots(M)
        assert _match_multisets(got, want, 1e-6 * max(1.0, float(np.max(np.abs(want)))))


def test_eigenvalues_rotation_pair():
    got = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(got, [-1j, 1j], atol=1e-12)


def test_eigenvalues_jordan_block():
    # defective: one eigenvalue of algebraic multiplicity 3
    J = np.diag([2.0, 2.0], k=1) + 0.5 * np.eye(3)
    got = eigenvalues(J)
    assert np.allclose(got, [0.5, 0.5, 0.5], atol=1e-4)


def test_eigenvalues_sorted_lexicographically():
    M = np.diag([3.0, -1.0, 2.0])
    got = eigenvalues(M)
    assert np.allclose(got, [-1.0, 2.0, 3.0], atol=1e-12)


def test_eigenvalues_beyond_sixteen():
    # Q diag(blocks) Q^-1 with eight real eigenvalues and eight complex
    # pairs, all at least 1 apart
    rng = np.random.default_rng(42)
    real = [-8.0, -6.0, -4.0, -2.0, 2.0, 4.0, 6.0, 8.0]
    pairs = [(-7.0, 1.5), (-5.0, 2.5), (-3.0, 3.5), (-1.0, 1.0),
             (1.0, 2.0), (3.0, 1.0), (5.0, 3.0), (7.0, 2.0)]
    blocks = np.zeros((24, 24))
    blocks[:8, :8] = np.diag(real)
    for k, (re, im) in enumerate(pairs):
        i = 8 + 2 * k
        blocks[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
    Q = rng.standard_normal((24, 24)) + 6.0 * np.eye(24)
    got = eigenvalues(Q @ blocks @ np.linalg.inv(Q))
    want = np.array(real + [complex(re, s * im) for re, im in pairs
                            for s in (-1.0, 1.0)])
    want = want[np.lexsort((want.imag, want.real))]
    assert got.shape == (24,)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


# --------------------------------------------------- singular values

def test_singular_values_diagonal():
    sig = singular_values(np.diag([3.0, -5.0, 0.0]))
    assert np.allclose(sig, [5.0, 3.0, 0.0], atol=1e-12)


def test_singular_values_match_gram_eigs():
    rng = np.random.default_rng(51)
    for _ in range(30):
        M = rng.standard_normal((int(rng.integers(1, 5)),
                                 int(rng.integers(1, 5))))
        sig = singular_values(M)
        gram = M.T @ M
        lo, hi = oracles.sym_extremes_bisect(gram)
        assert math.isclose(sig[0], math.sqrt(max(hi, 0.0)), abs_tol=1e-6)
        assert np.all(np.diff(sig) <= 1e-12)


def test_singular_values_wide_rank_deficient():
    M = np.zeros((2, 5))
    M[0, 0] = 2.0
    sig = singular_values(M)
    assert math.isclose(sig[0], 2.0, rel_tol=1e-12)
    assert np.allclose(sig[1:], 0.0, atol=1e-12)


# -------------------------------------------------- stabilizability

def test_stabilizable_controllable_pair():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    assert check_stabilizable(A, B)


def test_stabilizable_rejects_zero_input():
    assert not check_stabilizable(np.eye(2), np.zeros((2, 1)))


def test_stabilizable_uncontrollable_stable_mode():
    # unreachable mode at -5 is stable, so the pair still qualifies
    A = np.diag([1.0, -5.0])
    B = np.array([[1.0], [0.0]])
    assert check_stabilizable(A, B)


def test_stabilizable_uncontrollable_unstable_mode():
    A = np.diag([1.0, 2.0])
    B = np.array([[1.0], [0.0]])
    assert not check_stabilizable(A, B)


def test_stabilizable_complex_modes():
    # unstable spiral, input couples into both states
    A = np.array([[0.1, 1.0], [-1.0, 0.1]])
    B = np.array([[0.0], [1.0]])
    assert check_stabilizable(A, B)


def test_stabilizable_marginal_mode_counts_as_unstable():
    A = np.zeros((2, 2))
    B = np.zeros((2, 1))
    assert not check_stabilizable(A, B)


def test_stabilizable_dimension_mismatch():
    with pytest.raises(InvalidMatrix):
        check_stabilizable(np.eye(2), np.ones((3, 1)))


def test_stabilizable_random_pairs_true():
    rng = np.random.default_rng(61)
    for _ in range(20):
        A, B = oracles.random_stabilizable(int(rng.integers(2, 5)), 1, rng)
        assert check_stabilizable(A, B)


# ------------------------------------------------------- Lyapunov

def test_lyapunov_solution_residual_and_positivity():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        M = rng.standard_normal((n, n)) - (n + 2.0) * np.eye(n)
        Q = rng.standard_normal((n, n))
        Q = Q @ Q.T + np.eye(n)
        X = solve_lyapunov(M, Q)
        res = M.T @ X + X @ M + Q
        assert float(np.max(np.abs(res))) < 1e-9 * (1.0 + float(np.max(np.abs(Q))))
        assert sym_eig_extremes(X).lambda_min > 0.0


def test_lyapunov_known_scalar():
    X = solve_lyapunov(np.array([[-2.0]]), np.array([[8.0]]))
    assert math.isclose(X[0, 0], 2.0, rel_tol=1e-12)


def test_lyapunov_singular_pencil():
    # eigenvalues 1 and -1 sum to zero, so the operator is singular
    M = np.diag([1.0, -1.0])
    with pytest.raises(LyapunovSingular):
        solve_lyapunov(M, np.eye(2))


def test_lyapunov_refuses_a_system_past_the_float_range():
    # the Kronecker sum doubles the -1e308 on its diagonal to -inf
    M = np.diag([-1e308, -1.0])
    with pytest.raises(LyapunovSingular, match="left the float range"):
        solve_lyapunov(M, np.eye(2))


def test_lyapunov_rejects_a_q_of_another_size():
    with pytest.raises(InvalidMatrix,
                       match=r"^Q must match M, got \(3, 3\) vs \(2, 2\)$"):
        solve_lyapunov(-np.eye(2), np.eye(3))


def test_lyapunov_rejects_asymmetric_q():
    with pytest.raises(InvalidMatrix):
        solve_lyapunov(-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", range(1, 7))
def test_kron_sum_is_the_kron_form_bit_for_bit(n):
    # signed zeros included, and sums past the float range
    rng = np.random.default_rng(40 + n)
    eye = np.eye(n)
    for scale in (1.0, 1e-310, 1e308):
        M = rng.uniform(-1.7, 1.7, (n, n)) * scale
        M[rng.random((n, n)) < 0.3] = 0.0
        M[rng.random((n, n)) < 0.3] = -0.0
        with np.errstate(over="ignore"):
            want = np.kron(M, eye) + np.kron(eye, M)
            assert _kron_sum(M).tobytes() == want.tobytes()


# an eigenvalue pair sums to -5e-16: the system solves, but its
# residual is far past the backward-error bound
M_NEAR_SINGULAR = np.array([
    [-6.51755322338121, 7.70915512498187, 1.5398432976613101],
    [-5.124019145011241, 7.197023588786743, 1.6312148175555066],
    [2.111558440918134, -6.882535107620486, -2.3552507162085354]])


@pytest.mark.parametrize("M, Q, error, message", [
    (np.ones((2, 3)), np.eye(2), InvalidMatrix,
     r"^M must be square, got shape \(2, 3\)$"),
    (np.array([[np.nan]]), np.eye(1), InvalidMatrix,
     "^M contains non-finite entries$"),
    (-np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]]), InvalidMatrix,
     "^Q contains non-finite entries$"),
    (-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), InvalidMatrix,
     "^Q is not symmetric: max asymmetry 1.000e\\+00$"),
    (np.diag([-1e308, -1.0]), np.eye(2), LyapunovSingular,
     "^vectorized Lyapunov system left the float range$"),
    (np.diag([1.0, -1.0]), np.eye(2), LyapunovSingular,
     "^vectorized Lyapunov system is singular: "),
    (np.array([[-1e-170]]), np.array([[1e160]]), LyapunovSingular,
     "^Lyapunov solution left the float range$"),
    (M_NEAR_SINGULAR, np.eye(3), LyapunovSingular,
     "^Lyapunov residual .* exceeds tolerance; an eigenvalue pair of M "
     "likely sums to zero$"),
], ids=["square", "finite_m", "finite_q", "symmetric_q", "system_range",
        "singular", "solution_range", "residual"])
def test_lyapunov_keeps_each_refusal_message(M, Q, error, message):
    with pytest.raises(error, match=message):
        solve_lyapunov(M, Q)


def test_lyapunov_and_eigenvalues_share_one_symmetry_rule():
    # an asymmetry far below 1 but as large as the largest entry is
    # refused by both, however small the matrix's scale
    Q = np.array([[0.0, 1e-15], [0.0, 0.0]])
    with pytest.raises(InvalidMatrix, match="^S is not symmetric"):
        sym_eig_extremes(Q)
    with pytest.raises(InvalidMatrix, match="^Q is not symmetric"):
        solve_lyapunov(-np.eye(2), Q)


# ----------------------------------------------------------- CARE

def test_care_scalar_closed_form():
    a, b, m1, m2 = 0.7, 1.3, 2.0, 0.5
    sol = solve_care(np.array([[a]]), np.array([[b]]), m1, m2)
    expected = (a + math.sqrt(a * a + m1 * m2 * b * b)) / (m1 * b * b)
    assert math.isclose(sol.P[0, 0], expected, rel_tol=1e-12)


def _assert_care_solves(A, B, mu1, mu2, P):
    """P is a symmetric, positive-definite, stabilizing solution of the
    Riccati equation of (A, B, mu1, mu2), up to a scaled residual."""
    n = A.shape[0]
    res = P @ A + A.T @ P - mu1 * (P @ B @ B.T @ P) + mu2 * np.eye(n)
    assert float(np.linalg.norm(res)) < 1e-8 * (1.0 + float(np.linalg.norm(P)) ** 2)
    assert np.allclose(P, P.T, atol=1e-10)
    assert sym_eig_extremes(P).lambda_min > 0.0
    closed = A - mu1 * (B @ B.T @ P)
    assert np.max(eigenvalues(closed).real) < 0.0


def test_care_random_pairs():
    rng = np.random.default_rng(81)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        A, B = oracles.random_stabilizable(n, int(rng.integers(1, 3)), rng)
        mu1 = float(rng.uniform(0.5, 2.0))
        mu2 = float(rng.uniform(0.5, 2.0))
        sol = solve_care(A, B, mu1, mu2)
        _assert_care_solves(A, B, mu1, mu2, sol.P)
        assert not sol.P.flags.writeable
        spectrum = sym_eig_extremes(sol.P)
        assert (sol.spectrum.lambda_min, sol.spectrum.lambda_max) == \
            (spectrum.lambda_min, spectrum.lambda_max)


def _from_hex(rows):
    return np.array([[float.fromhex(x) for x in row] for row in rows])


def test_care_solution_bytes_of_the_shipped_agents():
    # the demo agent and the 16-follower ring's agent at mu1 = mu2 = 1:
    # a wider Lyapunov residual bound changes no accepted P
    A = np.array([[-0.38, 0.72], [-0.68, 0.42]])
    B = np.array([[0.26], [0.31]])
    assert solve_care(A, B, 1.0, 1.0).P.tobytes() == _from_hex(
        [["0x1.cdae22e5efa9cp+2", "-0x1.d8471eb0a59dcp+1"],
         ["-0x1.d8471eb0a59dcp+1", "0x1.95ae66b3f85b5p+2"]]).tobytes()
    A = np.array([[-0.38, 0.72, 0.05, 0.0], [-0.68, 0.42, 0.0, 0.0],
                  [0.0, 0.0, -0.38, 0.72], [0.0, 0.05, -0.68, 0.42]])
    B = np.array([[0.26, 0.0], [0.31, 0.0], [0.0, 0.26], [0.0, 0.31]])
    assert solve_care(A, B, 1.0, 1.0).P.tobytes() == _from_hex(
        [["0x1.d26f26a715a1ap+2", "-0x1.e2e1ecb982fd2p+1",
          "0x1.15edbadd4d30ap+0", "-0x1.5bef7ad398679p-4"],
         ["-0x1.e2e1ecb982fd2p+1", "0x1.9b5607b51c9e8p+2",
          "-0x1.c4fc543823f94p-1", "0x1.2e7f5c8c9eadcp-1"],
         ["0x1.15edbadd4d30ap+0", "-0x1.c4fc543823f94p-1",
          "0x1.d100e7653349bp+2", "-0x1.d4d56f930a2d6p+1"],
         ["-0x1.5bef7ad398679p-4", "0x1.2e7f5c8c9eadcp-1",
          "-0x1.d4d56f930a2d6p+1", "0x1.961469a197c71p+2"]]).tobytes()


def test_care_large_solution_passes_the_newton_step():
    # a pair from a seeded sweep of oracles.random_stabilizable (A scaled
    # by 0.1, mu1 = mu2 = 1e3): P reaches 2e7, and the Newton step's
    # Lyapunov residual is within the backward-error bound
    # LYAP_RESIDUAL_TOL (1 + ||Q|| + 2 ||M|| ||X||) but not within
    # LYAP_RESIDUAL_TOL (1 + ||Q||), which refused it
    A = _from_hex(
        [["-0x1.b980f74aeee8ap-5", "0x1.4d27d09414a99p-3",
          "-0x1.5bb7e2b6d07dcp-3"],
         ["-0x1.dcb8f39c36755p-8", "-0x1.0ff83a8d94478p-4",
          "0x1.a93d2c4893f07p-5"],
         ["0x1.29f9f6bdb4aa0p-3", "0x1.75f7bc1f6d5b1p-3",
          "0x1.f2474cc7b2a8fp-5"]])
    B = _from_hex([["-0x1.2e1a54d6c793dp+1"], ["0x1.b9bafb6efcb29p-2"],
                   ["0x1.908c1e5ed38e8p+0"]])
    sol = solve_care(A, B, 1e3, 1e3)
    _assert_care_solves(A, B, 1e3, 1e3, sol.P)
    assert sol.spectrum.lambda_max > 1e7


def test_care_large_weights_on_the_ring_agent():
    # the agent of the 16-follower ring benchmark: two coupled copies
    # of the demo agent, one input each
    A = np.array([[-0.38, 0.72, 0.05, 0.0], [-0.68, 0.42, 0.0, 0.0],
                  [0.0, 0.0, -0.38, 0.72], [0.0, 0.05, -0.68, 0.42]])
    B = np.array([[0.26, 0.0], [0.31, 0.0], [0.0, 0.26], [0.0, 0.31]])
    for mu1, mu2 in ((1e6, 1e6), (1e4, 1e8), (1e8, 1e4)):
        _assert_care_solves(A, B, mu1, mu2, solve_care(A, B, mu1, mu2).P)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       m=st.integers(1, 2), log_mu1=st.floats(-3.0, 3.0),
       log_mu2=st.floats(-3.0, 3.0))
def test_care_outcomes_are_typed(seed, n, m, log_mu1, log_mu2):
    # a solution that passes every check, or a typed refusal; never a
    # numpy warning or another exception
    A, B = oracles.random_stabilizable(n, m, np.random.default_rng(seed))
    mu1, mu2 = 10.0 ** log_mu1, 10.0 ** log_mu2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = solve_care(A, B, mu1, mu2)
        except (CareFailure, NotStabilizable):
            return
    _assert_care_solves(A, B, mu1, mu2, sol.P)


def test_care_not_stabilizable():
    with pytest.raises(NotStabilizable):
        solve_care(np.eye(2), np.zeros((2, 1)), 1.0, 1.0)


# a pair controllable in exact arithmetic but singular to within
# rounding (see the test below)
NEARLY_UNCONTROLLABLE = (
    _from_hex(
        [["0x1.0009da84c35c0p+3", "-0x1.fa059d2c31fa9p+5",
          "-0x1.7277b54fd679cp+5", "-0x1.12486be097995p+5",
          "-0x1.0791166880842p+5"],
         ["0x1.4dbfce962bc95p+3", "-0x1.cb0a895afb6abp+4",
          "-0x1.67a024edf6e34p+4", "-0x1.92bbadcdc5c9cp+4",
          "-0x1.74a0958ed0b8cp+4"],
         ["-0x1.2e94b4e334e29p+4", "0x1.fb7c294b9536bp+4",
          "0x1.522e86438fba6p+3", "0x1.2074d8885a17dp+5",
          "0x1.13a2c456b0c8cp+5"],
         ["-0x1.101fb91f40dd9p+1", "-0x1.8d85cabaade63p+3",
          "-0x1.2447ffbcc8b8bp+3", "-0x1.db0665fdc3c2ap+2",
          "-0x1.3f5a04e0737cdp+1"],
         ["0x1.e9c2ffb49c660p+2", "0x1.0af3260cbeeddp+2",
          "0x1.1638f39e749bap+4", "0x1.28e3ac5e0ae1ep+1",
          "-0x1.acf540d1f06c6p+2"]]),
    _from_hex([["0x1.8dce198dafce0p-5"], ["-0x1.9b8307dda8387p-2"],
               ["0x1.e9a09e82ee175p+0"], ["-0x1.1da6ab265f566p-8"],
               ["-0x1.11130fc711460p+0"]]))


def test_a_nearly_uncontrollable_pair_is_refused_as_not_stabilizable():
    # a pair from a seeded sweep of oracles.random_stabilizable with A
    # scaled by 10: controllable by construction (a companion block
    # under a similarity), but its controllability matrix is singular
    # to within rounding, and the rank test under RANK_REL_TOL refuses
    # it. The refusal is deliberate: at this conditioning the rank test
    # cannot tell the pair from an uncontrollable one
    A, B = NEARLY_UNCONTROLLABLE
    ctrb = np.hstack([np.linalg.matrix_power(A, j) @ B for j in range(5)])
    sig = singular_values(ctrb)
    assert sig[-1] / sig[0] < 1e-12
    assert not check_stabilizable(A, B)
    with pytest.raises(NotStabilizable):
        solve_care(A, B, 1.0, 1.0)


def _pbh_pair(seed, n, m, scale, kind):
    """A pair for the stacked PBH sweep: oracles.random_stabilizable
    with A scaled, the same with an unstable mode that B cannot reach
    mixed in by a similarity, or either with B = 0."""
    rng = np.random.default_rng(seed)
    A, B = oracles.random_stabilizable(n, m, rng)
    A = scale * A
    if kind == "uncontrollable":
        A = np.block([[A, np.zeros((n, 1))],
                      [np.zeros((1, n)), rng.uniform(0.0, 2.0, (1, 1))]])
        B = np.vstack([B, np.zeros((1, m))])
        T = rng.standard_normal((n + 1, n + 1)) + 3.0 * np.eye(n + 1)
        A, B = T @ A @ np.linalg.inv(T), T @ B
    elif kind == "zero_b":
        B = np.zeros_like(B)
    return A, B


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       m=st.integers(1, 3), scale=st.sampled_from([0.1, 1.0, 10.0]),
       kind=st.sampled_from(["stabilizable", "uncontrollable", "zero_b"]))
def test_stacked_pbh_test_matches_the_per_eigenvalue_reference(
        seed, n, m, scale, kind):
    A, B = _pbh_pair(seed, n, m, scale, kind)
    want = oracles.stabilizable_pbh(A, B, EIG_REAL_GUARD, RANK_REL_TOL)
    assert check_stabilizable(A, B) == want
    if kind == "uncontrollable":
        assert not want


def test_stacked_pbh_test_on_the_pinned_pairs():
    A, B = NEARLY_UNCONTROLLABLE
    assert oracles.stabilizable_pbh(A, B, EIG_REAL_GUARD, RANK_REL_TOL) \
        is check_stabilizable(A, B) is False
    # every eigenvalue stable: no pencil to stack
    assert check_stabilizable(-np.eye(3), np.zeros((3, 1))) is True
    # a single input through a repeated unstable mode
    assert check_stabilizable(np.eye(2), np.ones((2, 1))) is False
    assert check_stabilizable(np.eye(2), np.eye(2)) is True
    # marginal modes, at 0 and on the imaginary axis, that B cannot
    # reach count as unstable
    assert check_stabilizable(np.diag([0.0, 1.0]), [[0.0], [1.0]]) is False
    rotation = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert check_stabilizable(rotation, [[0.0], [0.0], [1.0]]) is False
    assert check_stabilizable(rotation, [[0.0], [1.0], [0.0]]) is True


def test_care_weights_past_the_float_range_fail_the_refinement():
    # the Newton step's Lyapunov solve overflows, or is within its
    # backward-error bound but leaves a Riccati residual past the
    # accuracy gate; the test settings turn a numpy warning into an error
    A = np.array([[-0.38, 0.72], [-0.68, 0.42]])
    B = np.array([[0.26], [0.31]])
    for mu1, mu2, message in (
            (1e300, 1.0, "^residual .* exceeds tolerance$"),
            (1e-200, 1e200, "^Newton refinement failed: Lyapunov solution "
                            "left the float range$")):
        with pytest.raises(CareFailure, match=message):
            solve_care(A, B, mu1, mu2)


def test_care_residual_past_the_float_range_is_refused():
    # at (1e-160, 1e-200) P reaches about 1e300, so the refinement's
    # residual overflows to inf; a bound of 1 + |P|^2, inf too, used to
    # let it through. At (1e-300, 1e-10) the rounded P is indefinite
    A = np.array([[-0.38, 0.72], [-0.68, 0.42]])
    B = np.array([[0.26], [0.31]])
    for mu1, mu2, message in (
            (1e-160, 1e-200, "^the residual left the float range$"),
            (1e-300, 1e-10, "^solution is not positive definite")):
        with pytest.raises(CareFailure, match=message):
            solve_care(A, B, mu1, mu2)


def test_care_rejects_bad_weights():
    A = np.array([[0.0]])
    B = np.array([[1.0]])
    with pytest.raises(ValueError):
        solve_care(A, B, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_care(A, B, 1.0, -1.0)
    for mu in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            solve_care(A, B, 1.0, mu)


_EIGVALS = np.linalg.eigvals


def _eigvals_after_the_first_call(monkeypatch, second):
    """np.linalg.eigvals as it is for its first call in solve_care (the
    stabilizability test) and replaced by second for the closed-loop
    check after it."""
    calls = []

    def eigvals(a):
        calls.append(a)
        return _EIGVALS(a) if len(calls) == 1 else second(a)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    return calls


def test_care_closed_loop_check_reads_lapack_alone(monkeypatch):
    # only the signs of the real parts are read: the check calls
    # LAPACK's eigvals on A - R P itself, not the sorted, complex
    # eigenvalues(); its failures keep their types and messages
    import leadersync.numerics.linalg as la
    A = np.array([[-0.38, 0.72], [-0.68, 0.42]])
    B = np.array([[0.26], [0.31]])
    ref = solve_care(A, B, 1.0, 1.0)

    def refuse(*args):
        raise AssertionError("eigenvalues() called")
    monkeypatch.setattr(la, "eigenvalues", refuse)
    calls = _eigvals_after_the_first_call(monkeypatch, _EIGVALS)
    assert solve_care(A, B, 1.0, 1.0).P.tobytes() == ref.P.tobytes()
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[1], A - (B @ B.T) @ ref.P)

    def fail(a):
        raise np.linalg.LinAlgError("did not converge")
    _eigvals_after_the_first_call(monkeypatch, fail)
    with pytest.raises(EigenFailure, match="^LAPACK eigvals failed: did "
                                           "not converge$"):
        solve_care(A, B, 1.0, 1.0)
    _eigvals_after_the_first_call(monkeypatch,
                                  lambda a: np.array([-1.0 + 2j, 0.0]))
    with pytest.raises(CareFailure, match="^closed-loop matrix is not "
                                          "strictly stable$"):
        solve_care(A, B, 1.0, 1.0)
