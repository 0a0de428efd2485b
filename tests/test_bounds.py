import math

import numpy as np
import pytest

from permanental.bounds import (
    asymmetry_constant,
    diag_bound_scaled,
    diag_bound_sigma,
    diag_bound_simple,
    psi_star,
    sigma_matrix,
    sudakov_compare,
    unboundedness_statistic,
)
from permanental.errors import (
    AsymmetryTooLarge,
    HypothesisFailed,
    NotMMatrix,
    NotSymmetric,
    OutOfRange,
)
from permanental.linalg import MMatrixPair, invert, validate_m_matrix

from conftest import brownian_min_matrix, make_corpus

PAIR2 = validate_m_matrix([[2.0, -1.0], [-1.0, 2.0]])


def pair_of(K) -> MMatrixPair:
    """The validated pair of a kernel, at the scan's M-matrix tolerances."""
    return validate_m_matrix(invert(K), off_diag_tol=1e-10, inverse_tol=1e-10)


def scaled_brownian(n: int) -> np.ndarray:
    """D^{-1} B with D = diag(1..n): entries 1 on/above the diagonal, j/i below."""
    return np.diag(1.0 / np.arange(1, n + 1)) @ brownian_min_matrix(n)


# ---------------------------------------------------------------- sigma matrix


def test_sigma_matrix_brownian_increments():
    sm = sigma_matrix(brownian_min_matrix(4))
    idx = np.arange(1, 5)
    np.testing.assert_allclose(sm.sigma2, np.abs(idx[:, None] - idx[None, :]))
    assert sm.sigma_star2 == pytest.approx(1.0)
    assert not sm.negative_square


def test_sigma_matrix_constant_kernel_is_zero():
    sm = sigma_matrix(np.full((3, 3), 2.5))
    np.testing.assert_allclose(sm.sigma2, 0.0)


def test_sigma_matrix_scaled_brownian_minimum():
    for n in (3, 5, 8):
        sm = sigma_matrix(scaled_brownian(n))
        assert sm.sigma_star2 == pytest.approx(1.0 / n, rel=1e-12)
        assert set(sm.argmin) == {n - 1, n - 2}


# ---------------------------------------------------------------- simple bound


def test_diag_bound_simple_2x2():
    bounds = diag_bound_simple(PAIR2)
    np.testing.assert_allclose(bounds, [3.0, 3.0])
    assert (PAIR2.diag_a <= bounds).all()


def test_diag_bound_simple_brownian_hypothesis_fails():
    pair = validate_m_matrix(invert(brownian_min_matrix(4)))
    with pytest.raises(HypothesisFailed):
        diag_bound_simple(pair)


def test_diag_bound_simple_markov_corpus():
    held = 0
    for spec in make_corpus(50, (2, 3, 4, 5, 6), kill_min=0.5, seed0=2000):
        pair = spec.pair
        try:
            bounds = diag_bound_simple(pair)
        except HypothesisFailed:
            continue
        assert (pair.diag_a <= bounds * (1 + 1e-10)).all()
        held += 1
    assert held >= 40


# ---------------------------------------------------------------- sigma bound


def test_diag_bound_sigma_symmetric():
    bound = diag_bound_sigma(PAIR2, 0.0)
    sm = sigma_matrix(PAIR2.K)
    assert bound == pytest.approx(2.0 / sm.sigma_star2)
    assert (PAIR2.diag_a <= bound).all()


def test_diag_bound_sigma_tridiagonal_bridge_style():
    # symmetric constant-diagonal kernel with Brownian-bridge flavor
    K = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    pair = validate_m_matrix(invert(K))
    bound = diag_bound_sigma(pair, 0.0)
    assert (pair.diag_a <= bound).all()


def test_diag_bound_sigma_scaled_brownian_asymmetry_is_critical():
    # the scaled matrix has |K_ij - K_ji| = phi^2_ij exactly, so the minimal
    # feasible C is 1 and no admissible C < 1 exists
    K = scaled_brownian(5)
    pair = validate_m_matrix(invert(K))
    with pytest.raises(AsymmetryTooLarge) as err:
        diag_bound_sigma(pair, 0.9)
    assert err.value.min_feasible_c == pytest.approx(1.0, rel=1e-10)


def test_scaled_brownian_sudakov_bound_2n():
    # the 2/(phi*)^2 = 2n bound still dominates every diagonal entry
    for n in (3, 5, 8):
        K = scaled_brownian(n)
        pair = validate_m_matrix(invert(K))
        sm = sigma_matrix(K)
        assert sm.sudakov_bound == pytest.approx(2.0 * n, rel=1e-10)
        assert (pair.diag_a <= sm.sudakov_bound + 1e-10).all()
        assert pair.diag_a.max() == pytest.approx(2.0 * (n - 1), rel=1e-10)


# ---------------------------------------------------------------- scaled bound


def test_diag_bound_scaled_reduces_to_sigma_for_constant_diagonal():
    k_hat = float(PAIR2.K[0, 0])
    scaled = diag_bound_scaled(PAIR2, k_hat)
    plain = diag_bound_sigma(PAIR2, 0.0)
    np.testing.assert_allclose(scaled, plain)


def test_diag_bound_scaled_markov_kernel():
    found = 0
    for spec in make_corpus(20, (3, 4), kill_min=0.5, seed0=3000):
        pair = spec.pair
        if np.ptp(np.diag(pair.K)) < 1e-6:
            continue
        try:
            bounds = diag_bound_scaled(pair, float(np.diag(pair.K).max()))
        except (AsymmetryTooLarge, HypothesisFailed):
            continue
        assert (pair.diag_a <= bounds * (1 + 1e-10)).all()
        found += 1
    assert found >= 5


def test_column_check_refuses_one_point():
    pair = validate_m_matrix([[2.0]])
    for bound in (diag_bound_simple, lambda pr: diag_bound_scaled(pr, 1.0)):
        with pytest.raises(OutOfRange, match="at least 2 points"):
            bound(pair)


def test_diag_bound_scaled_symmetric_has_zero_asymmetry():
    assert asymmetry_constant(PAIR2.K) == 0.0


# ---------------------------------------------------------------- asymmetry


def test_asymmetry_constant_hand_kernel():
    K = np.array([[2.0, 1.5], [0.5, 2.0]])
    assert asymmetry_constant(K) == pytest.approx(0.5)


def test_asymmetry_constant_markov_normalized_below_one():
    for spec in make_corpus(30, (2, 3, 4, 5), kill_min=0.5, seed0=4000):
        c = asymmetry_constant(spec.pair.K, normalized=True)
        assert c <= 1.0 + 1e-10


def test_markov_kernels_column_dominated(corpus20):
    # u(s,t) <= u(t,t): every column is dominated by its diagonal entry
    for spec in corpus20:
        K = spec.pair.K
        assert (K <= np.diag(K)[None, :] + 1e-12).all()


# ---------------------------------------------------------------- psi star


def test_psi_star_2x2():
    assert psi_star(pair_of(PAIR2.K), p=1) == pytest.approx(2.0)


def test_psi_star_scaled_brownian_median_entry():
    n = 6
    value = psi_star(pair_of(scaled_brownian(n)), p=2)
    expected_diag = sorted([2.0 * i for i in range(1, n)] + [float(n)])
    assert value == pytest.approx(expected_diag[n // 2 - 1], rel=1e-10)


def test_psi_star_equally_spaced_brownian_kernel():
    delta, n = 1.0, 5
    pts = [j * delta / n for j in range(1, n + 1)]
    K = np.array([[min(s, t) for t in pts] for s in pts])
    got = psi_star(pair_of(K), p=1)
    expected = float(np.sort(np.diag(invert(K)))[-1])
    assert got == pytest.approx(expected, rel=1e-10)


def test_psi_star_permutation_invariant():
    rng = np.random.default_rng(8)
    for spec in make_corpus(3, (4,), kill_min=0.5, seed0=5000):
        K = spec.pair.K
        base = psi_star(pair_of(K), p=2)
        perm = rng.permutation(4)
        shuffled = K[np.ix_(perm, perm)]
        got = psi_star(pair_of(shuffled), p=2)
        assert got == pytest.approx(base, rel=1e-10)


def test_psi_star_propagates_not_m_matrix():
    K = np.array([[1.0, 0.9], [0.9, 1.0]]) * -1.0
    with pytest.raises((NotMMatrix, Exception)):
        psi_star(pair_of(K), p=1)


@pytest.mark.parametrize("p", [0, -1, 3])
def test_psi_star_refuses_p_outside_1_to_n(p):
    with pytest.raises(OutOfRange, match="p must be an integer from 1 to n = 2"):
        psi_star(PAIR2, p=p)


# ---------------------------------------------------------------- scans


@pytest.mark.parametrize("p", [0, 17])
def test_unboundedness_statistic_refuses_p_before_the_scan(p):
    calls = []

    def kernel(s, t):
        calls.append((s, t))
        return min(s, t)

    with pytest.raises(OutOfRange, match="p must be an integer from 1 to n = 16"):
        unboundedness_statistic(kernel, 0.5, [32, 16], p=p)
    assert calls == []


def test_unboundedness_statistic_brownian():
    rows = unboundedness_statistic(lambda s, t: min(s, t) + 0.5, 0.8, [4, 8, 16])
    for row in rows:
        n = row.n
        assert row.sigma_star2_log_n == pytest.approx(
            0.8 / n * math.log(n), rel=1e-9
        )
        if row.error is None:
            assert row.a_star > 0 and row.log_n_over_a_star > 0


def test_unboundedness_statistic_log_kernels_trend():
    def sigma_log(s, t):
        return 1.0 if s == t else 1.0 - 0.5 / math.log(1.0 / abs(s - t))

    def sigma_loglog(s, t):
        return 1.0 if s == t else 1.0 - 0.5 / math.log(math.log(1.0 / abs(s - t)))

    ns = [8, 32, 128, 512]
    log_rows = unboundedness_statistic(sigma_log, 0.01, ns)
    loglog_rows = unboundedness_statistic(sigma_loglog, 0.01, ns)
    log_vals = [r.sigma_star2_log_n for r in log_rows]
    loglog_vals = [r.sigma_star2_log_n for r in loglog_rows]
    # sigma^2 ~ 1/log(1/z): the product stays bounded; ~1/loglog diverges
    assert max(log_vals) / max(log_vals[0], 1e-12) < 3.0
    assert loglog_vals[-1] > loglog_vals[0] * 1.5


# ---------------------------------------------------------------- sudakov


def test_sudakov_identity_kernel_tie():
    pair = validate_m_matrix(np.eye(3))
    rep = sudakov_compare(pair)
    assert rep.max_diag_a == pytest.approx(1.0)
    assert rep.sudakov_bound == pytest.approx(1.0)
    assert rep.stronger == "tie"


def test_sudakov_brownian_tie():
    pair = validate_m_matrix(invert(brownian_min_matrix(4)))
    rep = sudakov_compare(pair)
    assert rep.max_diag_a == pytest.approx(2.0)
    assert rep.sudakov_bound == pytest.approx(2.0)
    assert rep.stronger == "tie"


def test_sudakov_constant_diagonal_pd_kernel():
    K = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.4], [0.2, 0.4, 1.0]])
    pair = validate_m_matrix(invert(K))
    rep = sudakov_compare(pair)
    # Lemma on constant-diagonal symmetric kernels: permanental wins or ties
    assert rep.max_diag_a <= rep.sudakov_bound * (1 + 1e-12)


def test_sudakov_rejects_asymmetric():
    pair = validate_m_matrix(invert(scaled_brownian(4)))
    with pytest.raises(NotSymmetric):
        sudakov_compare(pair)


def test_asymmetry_degenerate_sigma_raises():
    from permanental.errors import DegenerateSigma

    K = np.array([[1.0, 0.5], [1.5, 1.0]])  # sigma^2 = 0 with asymmetry 1
    with pytest.raises(DegenerateSigma):
        asymmetry_constant(K)


def test_diag_bound_sigma_rejects_varying_diagonal():
    from permanental.errors import NotConstantDiagonal

    pair = validate_m_matrix([[2.0, -1.0], [-1.0, 4.0]])
    with pytest.raises(NotConstantDiagonal):
        diag_bound_sigma(pair, 0.5)
