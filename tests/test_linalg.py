import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from permanental import markov
from permanental.errors import DimensionTooLarge, NotMMatrix, OutOfRange, SingularMatrix
from permanental.linalg import (
    PERMANENT_CAP,
    alpha_permanent,
    alpha_permanent_rel_err,
    invert,
    spectral_radius_nonneg,
    validate_m_matrix,
)

from conftest import block_expand, brownian_min_matrix, naive_alpha_permanent, naive_terms


# ---------------------------------------------------------------- oracles


def ryser_permanent(m: np.ndarray) -> float:
    """Ryser inclusion-exclusion permanent, independent of the package path."""
    n = m.shape[0]
    total = 0.0
    for subset in range(1, 1 << n):
        cols = [j for j in range(n) if subset >> j & 1]
        prod = float(np.prod(m[:, cols].sum(axis=1)))
        total += (-1.0) ** (n - len(cols)) * prod
    return total


def charpoly_radius(m: np.ndarray) -> float:
    """Perron root via Faddeev-LeVerrier coefficients and np.roots."""
    n = m.shape[0]
    coeffs = [1.0]
    mk = m.copy()
    for k in range(1, n + 1):
        c = -np.trace(mk) / k
        coeffs.append(float(c))
        if k < n:
            mk = m @ (mk + c * np.eye(n))
    roots = np.roots(coeffs)
    return float(np.abs(roots).max())


# ---------------------------------------------------------------- invert


def test_invert_diagonal():
    np.testing.assert_allclose(invert(np.diag([2.0, 3.0])), np.diag([0.5, 1 / 3]))


def test_invert_adjugate_2x2():
    got = invert([[2.0, -1.0], [-1.0, 2.0]])
    np.testing.assert_allclose(got, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-14)


def test_invert_brownian_min_is_tridiagonal():
    K = brownian_min_matrix(4)
    A = invert(K)
    expected = np.array(
        [
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ]
    )
    np.testing.assert_allclose(A, expected, atol=1e-12)


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert([[1.0, 1.0], [1.0, 1.0]])


def test_invert_residual_small():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6)) + 6 * np.eye(6)
    res = np.abs(m @ invert(m) - np.eye(6)).max()
    assert res < 1e-10


@pytest.mark.parametrize("n", [2, 16, 64, 256])
def test_invert_matches_scipy_inv(n):
    K = markov.green_kernel(markov.random_transient_chain(n, 0.5, n))
    for m in (K, invert(K)):
        want = scipy.linalg.inv(m)
        assert np.abs(invert(m) - want).max() <= 1e-12 * np.abs(want).max()


def pivot_rule_refuses(a: np.ndarray) -> bool:
    """The former singularity rule of ``invert``: a zero matrix, or a pivot of
    the partially pivoted LU factorization below 1e-13 ||A||_inf."""
    norm = np.abs(a).sum(axis=1).max()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, _ = scipy.linalg.lu_factor(a, check_finite=False)
    return norm == 0.0 or np.abs(np.diag(lu)).min() < 1e-13 * norm


def near_singular_m_matrices():
    """(eps, I - (1 - eps) P) for row-stochastic P, n = 1..11, eps from 1e-10
    down to 0: P dense or about half zero, with or without a diagonal."""
    eps_grid = [0.0] + [10.0 ** -k for k in np.arange(10.0, 16.01, 0.25)]
    for seed in range(20):
        g = np.random.default_rng(seed)
        for n in range(1, 12):
            P = g.random((n, n)) * (g.random((n, n)) < (0.5 if seed % 2 else 1.1))
            if n > 1 and seed % 4 < 2:
                np.fill_diagonal(P, 0.0)
            P[np.arange(n), (np.arange(n) + 1) % n] += 0.1  # no zero row
            P /= P.sum(axis=1, keepdims=True)
            for eps in eps_grid:
                yield eps, np.eye(n) - (1.0 - eps) * P


def test_condition_rule_refuses_what_the_pivot_rule_refused():
    refused = 0
    for eps, A in near_singular_m_matrices():
        if pivot_rule_refuses(A):
            refused += 1
            with pytest.raises(SingularMatrix, match="condition number"):
                invert(A)
            if (np.diag(A) > 0).all():
                with pytest.raises(NotMMatrix, match="^singular: condition number"):
                    validate_m_matrix(A)
        if eps >= 1e-11:
            invert(A)  # far enough from singular to be accepted
    assert refused > 1000


# ---------------------------------------------------------------- M-matrix


def test_validate_m_matrix_basic_split():
    pair = validate_m_matrix([[2.0, -1.0], [-1.0, 2.0]])
    np.testing.assert_allclose(pair.B, [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(pair.diag_a, [2.0, 2.0])
    np.testing.assert_allclose(pair.A, np.diag(pair.diag_a) - pair.B)
    assert np.abs(pair.A @ pair.K - np.eye(2)).max() < 1e-10


def test_validate_m_matrix_positive_offdiag():
    with pytest.raises(NotMMatrix, match="off-diagonal"):
        validate_m_matrix([[1.0, 1.0], [0.0, 1.0]])


def test_validate_m_matrix_negative_inverse():
    # Z-matrix whose inverse has negative entries
    with pytest.raises(NotMMatrix, match="inverse"):
        validate_m_matrix([[1.0, -3.0], [-3.0, 1.0]])


def test_validate_m_matrix_singular():
    with pytest.raises(NotMMatrix, match="singular"):
        validate_m_matrix([[1.0, -1.0], [-1.0, 1.0]])


def test_validate_m_matrix_inverts_the_form_it_was_given():
    K = scipy.linalg.block_diag(brownian_min_matrix(3), brownian_min_matrix(3))
    K[0, 5] = -1e-12  # rounding noise within the tolerance
    pair = validate_m_matrix(kernel=K)
    assert pair.K.tobytes() == np.maximum(K, 0.0).tobytes()
    want_a = invert(K)
    assert want_a[0, 5] > 0.0
    want_a[~np.eye(6, dtype=bool) & (want_a > 0.0)] = 0.0
    assert pair.A.tobytes() == want_a.tobytes()
    # an A-form input keeps its A and gets the clamped inverse of it
    a_pair = validate_m_matrix(pair.A)
    assert a_pair.A.tobytes() == pair.A.tobytes()
    assert a_pair.K.tobytes() == np.maximum(invert(pair.A), 0.0).tobytes()
    for name in ("diag_a", "B", "row_sums"):
        assert getattr(a_pair, name).tobytes() == getattr(pair, name).tobytes()


@pytest.mark.parametrize("kernel, error, text", [
    ([[1.0, 1.0], [1.0, 1.0]], SingularMatrix, "condition number inf above 1e+13 (inf-norm)"),
    ([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]], NotMMatrix,
     "positive off-diagonal entry A[0,2] = 0.25"),
    ([[-1 / 3, -2 / 3], [-2 / 3, -1 / 3]], NotMMatrix,
     "inverse entry K[0,1] = -0.666667 below -1e-10"),
])
def test_validate_m_matrix_refuses_a_kernel(kernel, error, text):
    with pytest.raises(error) as exc:
        validate_m_matrix(kernel=kernel)
    assert str(exc.value) == text


@pytest.mark.parametrize("given", [{}, {"a": np.eye(2), "kernel": np.eye(2)}])
def test_validate_m_matrix_takes_exactly_one_form(given):
    with pytest.raises(ValueError, match="exactly one of a and kernel"):
        validate_m_matrix(**given)


def test_validate_m_matrix_geometric_series_example():
    P = np.array([[0.0, 0.5], [0.5, 0.0]])
    pair = validate_m_matrix(np.eye(2) - P)
    np.testing.assert_allclose(pair.K, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-12)
    np.testing.assert_allclose(pair.row_sums, [0.5, 0.5])


def test_validated_kernel_nonnegative(corpus20):
    for spec in corpus20:
        assert spec.pair.K.min() >= 0.0
        n = spec.pair.n
        assert np.abs(spec.pair.A @ spec.pair.K - np.eye(n)).max() < 1e-10


# ---------------------------------------------------------------- alpha-permanent


def test_alpha_permanent_identity():
    assert alpha_permanent(np.eye(3), 2.0) == pytest.approx(8.0)


def test_alpha_permanent_ones_2x2():
    for alpha in (0.3, 1.0, 2.5):
        assert alpha_permanent(np.ones((2, 2)), alpha) == pytest.approx(alpha**2 + alpha)


def test_alpha_permanent_overflow_is_refused():
    # alpha^4 = 1e1200 overflows; so does a finite alpha on entries near the float limit
    with pytest.raises(OutOfRange, match="alpha = 1e\\+300"):
        alpha_permanent(np.eye(4) + 0.1, 1e300)
    with pytest.raises(OutOfRange, match="max \\|M\\| = 1e\\+200"):
        alpha_permanent(np.full((3, 3), 1e200), 1.0)


def test_alpha_permanent_random_vs_naive_oracle():
    rng = np.random.default_rng(7)
    m = rng.random((5, 5))
    for alpha in (0.5, 1.0, 2.0):
        assert alpha_permanent(m, alpha) == pytest.approx(
            naive_alpha_permanent(m, alpha), rel=1e-12
        )


@pytest.mark.parametrize("n", range(1, 9))
def test_alpha_permanent_within_reported_bound(n):
    rng = np.random.default_rng(200 + n)
    mixed = rng.normal(size=(n, n))
    # paper-style C(k): indices repeated k_i times
    repeated = block_expand(rng.random((3, 3)), rng.multinomial(n, [0.5, 0.3, 0.2]))
    for m in (mixed, repeated):
        cycles, prods = naive_terms(m)
        for alpha in (0.3, 1.0, 2.5):
            weights = alpha**cycles
            want = math.fsum(prods * weights)
            magnitude = math.fsum(np.abs(prods) * weights)
            got = alpha_permanent(m, alpha)
            bound = alpha_permanent_rel_err(m, alpha, got) * abs(got)
            # plus the oracle's own rounding: n + 1 per term, then one
            assert abs(got - want) <= bound + (n + 2) * 2.0**-53 * magnitude


def test_alpha_permanent_rel_err_of_a_zero_value():
    assert alpha_permanent_rel_err(np.zeros((2, 2)), 1.0, 0.0) == 0.0
    signed = [[1.0, 1.0], [1.0, -1.0]]
    assert alpha_permanent(signed, 1.0) == 0.0
    with pytest.raises(OutOfRange, match="absolute error of at most 1.11e-15"):
        alpha_permanent_rel_err(signed, 1.0, 0.0)


def test_alpha_permanent_cap():
    with pytest.raises(DimensionTooLarge, match="exceeds cap"):
        alpha_permanent(np.eye(PERMANENT_CAP + 1), 1.0)


def test_alpha_permanent_n13_is_answered():
    assert alpha_permanent(np.eye(13), 1.3) == pytest.approx(1.3**13, rel=1e-14)


def test_alpha_permanent_all_ones_at_cap():
    # perm_alpha of the all-ones matrix is the rising factorial alpha (alpha+1) ... (alpha+n-1)
    n, alpha = PERMANENT_CAP, 0.7
    ones = np.ones((n, n))
    got = alpha_permanent(ones, alpha)
    rel = alpha_permanent_rel_err(ones, alpha, got)
    assert rel <= 1e-9
    want = math.prod(alpha + j for j in range(n))
    assert abs(got - want) <= (rel + 2 * n * 2.0**-53) * want


def test_alpha_permanent_diagonal_closed_form():
    d = np.array([0.5, 2.0, 3.0, 1.5])
    alpha = 0.7
    assert alpha_permanent(np.diag(d), alpha) == pytest.approx(
        alpha ** len(d) * d.prod()
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_plain_permanent_matches_ryser(n):
    rng = np.random.default_rng(100 + n)
    m = rng.random((n, n))
    assert alpha_permanent(m, 1.0) == pytest.approx(ryser_permanent(m), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_alpha_permanent_nonnegative_for_nonneg_matrix(seed):
    rng = np.random.default_rng(seed)
    m = rng.random((4, 4))
    assert alpha_permanent(m, 0.5 + rng.random()) >= 0.0


# ---------------------------------------------------------------- block expand


def test_block_expand_paper_pattern():
    C = np.arange(1, 10, dtype=float).reshape(3, 3)
    got = block_expand(C, (0, 2, 3))
    c = {(i, j): C[i - 1, j - 1] for i in range(1, 4) for j in range(1, 4)}
    expected = np.array(
        [
            [c[2, 2], c[2, 2], c[2, 3], c[2, 3], c[2, 3]],
            [c[2, 2], c[2, 2], c[2, 3], c[2, 3], c[2, 3]],
            [c[3, 2], c[3, 2], c[3, 3], c[3, 3], c[3, 3]],
            [c[3, 2], c[3, 2], c[3, 3], c[3, 3], c[3, 3]],
            [c[3, 2], c[3, 2], c[3, 3], c[3, 3], c[3, 3]],
        ]
    )
    np.testing.assert_array_equal(got, expected)


def test_block_expand_all_ones_is_identity_map():
    rng = np.random.default_rng(5)
    C = rng.random((4, 4))
    np.testing.assert_array_equal(block_expand(C, (1, 1, 1, 1)), C)


def test_block_expand_single_index():
    C = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(block_expand(C, (2, 0)), [[1.0, 1.0], [1.0, 1.0]])


def test_block_permanent_invariant_under_within_block_permutation():
    rng = np.random.default_rng(11)
    C = rng.random((3, 3))
    k = (2, 0, 3)
    base = block_expand(C, k)
    val = alpha_permanent(base, 0.8)
    # swap the two copies of index 0 and reverse the three copies of index 2
    perm = [1, 0, 4, 3, 2]
    shuffled = base[np.ix_(perm, perm)]
    assert alpha_permanent(shuffled, 0.8) == pytest.approx(val, rel=1e-12)


# ---------------------------------------------------------------- Perron root


def test_spectral_radius_swap():
    assert spectral_radius_nonneg([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0)


def test_spectral_radius_zero():
    assert spectral_radius_nonneg(np.zeros((3, 3))) == 0.0


def test_spectral_radius_diagonal_reducible():
    assert spectral_radius_nonneg(np.diag([1.0, 2.0])) == pytest.approx(2.0)


def test_spectral_radius_substochastic_below_one():
    rng = np.random.default_rng(17)
    for _ in range(10):
        P = rng.random((4, 4))
        P = 0.9 * P / P.sum(axis=1, keepdims=True)
        assert spectral_radius_nonneg(P) < 1.0


@pytest.mark.parametrize("seed", range(6))
def test_spectral_radius_vs_charpoly_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    m = rng.random((n, n))
    assert spectral_radius_nonneg(m) == pytest.approx(charpoly_radius(m), rel=1e-9)


def test_markov_split_radius_below_one(corpus20):
    for spec in corpus20:
        bt = spec.pair.B / spec.pair.diag_a[:, None]
        assert spectral_radius_nonneg(bt) < 1.0


def test_spectral_radius_acyclic_is_exactly_zero():
    # a chain that never returns to a state: B~ is nilpotent, in any order
    assert spectral_radius_nonneg(0.5 * np.eye(3, k=1)) == 0.0
    rng = np.random.default_rng(23)
    perm = rng.permutation(5)
    upper = np.triu(rng.random((5, 5)), 1)
    assert spectral_radius_nonneg(upper[np.ix_(perm, perm)]) == 0.0


def test_spectral_radius_defective_not_below_perron_root():
    # two equal 2x2 blocks coupled one way: 0.4 is a double, defective root
    m = np.array([[0.0, 0.4, 0.0, 0.0], [0.4, 0.0, 0.3, 0.0],
                  [0.0, 0.0, 0.0, 0.4], [0.0, 0.0, 0.4, 0.0]])
    rho = spectral_radius_nonneg(m)
    assert rho >= 0.4 * (1.0 - 8 * 2.0**-53)
    assert rho == pytest.approx(0.4, rel=1e-7)
