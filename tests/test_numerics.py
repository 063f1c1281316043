import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leadersync.errors import (CareFailure, EigenFailure, InvalidMatrix,
                               LyapunovSingular, NotStabilizable,
                               NumericalOverflow)
from leadersync.numerics.linalg import (check_stabilizable, eigenvalues, expm,
                                        singular_values, solve_care,
                                        solve_lyapunov, spectral_norm,
                                        sym_eig_extremes)

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
    # the typed error is the only report: no numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow):
            expm(np.array([[2000.0, 0.0], [0.0, 2000.0]]))


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


def test_stacked_wrappers_match_one_matrix_at_a_time():
    rng = np.random.default_rng(24)
    S = rng.standard_normal((7, 4, 4))
    S = S + S.swapaxes(1, 2)
    M = rng.standard_normal((7, 3, 5))
    spec = sym_eig_extremes(S)
    assert spec.lambda_min.shape == spec.lambda_max.shape == (7,)
    norms = spectral_norm(M)
    sig = singular_values(M)
    assert sig.shape == (7, 3)
    for k in range(7):
        one = sym_eig_extremes(S[k])
        assert isinstance(one.lambda_min, float)
        assert spec.lambda_min[k] == one.lambda_min
        assert spec.lambda_max[k] == one.lambda_max
        assert norms[k] == spectral_norm(M[k])
        assert np.array_equal(sig[k], singular_values(M[k]))


def test_stacked_wrappers_check_every_slice():
    good = np.eye(2)
    for bad in (np.array([[1.0, np.nan], [np.nan, 1.0]]),
                np.array([[1.0, np.inf], [np.inf, 1.0]])):
        with pytest.raises(InvalidMatrix, match="non-finite"):
            sym_eig_extremes(np.stack([good, bad]))
        with pytest.raises(InvalidMatrix, match="non-finite"):
            spectral_norm(np.stack([good, bad]))
    with pytest.raises(InvalidMatrix, match="not symmetric"):
        sym_eig_extremes(np.stack([good, [[1.0, 2.0], [0.0, 1.0]]]))
    # symmetry is judged against each matrix's own scale: this slice is
    # asymmetric for its size, though not beside a 1e6 neighbour
    skew = np.array([[1.0, 1e-9], [0.0, 1.0]])
    with pytest.raises(InvalidMatrix, match="not symmetric"):
        sym_eig_extremes(np.stack([1e6 * good, skew]))
    with pytest.raises(InvalidMatrix):
        sym_eig_extremes(np.zeros((0, 2, 2)))
    with pytest.raises(InvalidMatrix, match="square"):
        sym_eig_extremes(np.zeros((3, 2, 3)))


@pytest.mark.parametrize("wrapper, solver", [
    (sym_eig_extremes, "eigvalsh"), (eigenvalues, "eigvals"),
    (singular_values, "svd"), (spectral_norm, "svd")])
def test_lapack_failure_is_typed(monkeypatch, wrapper, solver):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(EigenFailure, match="did not converge"):
        wrapper(np.eye(3))
    if wrapper is not eigenvalues:
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


def test_lyapunov_rejects_asymmetric_q():
    with pytest.raises(InvalidMatrix):
        solve_lyapunov(-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


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
