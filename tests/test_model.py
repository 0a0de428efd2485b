import math

import numpy as np
import pytest

from permanental.errors import TruncationInfeasible
from permanental.linalg import alpha_permanent, block_expand
from permanental.model import (
    PermanentalSpec,
    compositions,
    direct_laplace,
    series_laplace_report,
    z_masses,
)

SPEC2 = PermanentalSpec.from_m_matrix([[2.0, -1.0], [-1.0, 2.0]], 1.0)


def binom(a: float, j: int) -> float:
    # binomial coefficient C(a + j - 1, j) for real a
    out = 1.0
    for i in range(j):
        out *= (a + i) / (i + 1)
    return out


# ---------------------------------------------------------------- direct form


def test_direct_laplace_diagonal_product_of_gamma_lts():
    spec = PermanentalSpec.from_kernel(np.diag([0.5, 1 / 3]), 1.0)
    assert direct_laplace(spec, [1.0, 1.0]) == pytest.approx(0.5)


def test_direct_laplace_at_zero_is_one():
    assert direct_laplace(SPEC2, [0.0, 0.0]) == pytest.approx(1.0)


def test_direct_laplace_2x2_example():
    assert direct_laplace(SPEC2, [1.0, 1.0]) == pytest.approx(3.0 / 8.0)


def test_direct_laplace_two_determinant_forms_agree(corpus20):
    rng = np.random.default_rng(0)
    for spec in corpus20[:8]:
        s = rng.random(spec.n)
        via_a = direct_laplace(spec, s)
        via_k = np.linalg.det(np.eye(spec.n) + spec.pair.K @ np.diag(s)) ** (
            -spec.alpha
        )
        assert via_a == pytest.approx(via_k, rel=1e-10)


def test_direct_laplace_monotone_in_each_coordinate():
    rng = np.random.default_rng(1)
    for spec in (SPEC2,):
        s = rng.random(2)
        base = direct_laplace(spec, s)
        for i in range(2):
            bumped = s.copy()
            bumped[i] += 0.5
            assert direct_laplace(spec, bumped) < base


def test_infinite_divisibility_factorizes():
    s = [0.7, 1.3]
    for a1, a2 in ((0.5, 0.5), (0.3, 1.4)):
        left = direct_laplace(
            PermanentalSpec(SPEC2.pair, a1 + a2), s
        )
        right = direct_laplace(PermanentalSpec(SPEC2.pair, a1), s) * direct_laplace(
            PermanentalSpec(SPEC2.pair, a2), s
        )
        assert left == pytest.approx(right, rel=1e-14)


# ---------------------------------------------------------------- Z masses


def test_z_mass_at_zero_index():
    # per-mass alias bias is bounded by the tail bound, so pin it down hard
    zd = z_masses(SPEC2, 1 - 1e-10)
    assert zd.masses[(0, 0)] == pytest.approx(0.75, rel=1e-9)


def test_z_mass_diagonal_concentrates_at_zero():
    spec = PermanentalSpec.from_m_matrix(np.diag([2.0, 3.0]), 1.5)
    zd = z_masses(spec, 0.9999)
    assert zd.covered_mass == pytest.approx(1.0, abs=1e-12)
    assert zd.tail_bound == 0.0
    assert zd.masses[(0, 0)] == pytest.approx(1.0, rel=1e-12)
    assert zd.max_order == 0


def test_z_mass_transposition_term():
    zd = z_masses(SPEC2, 1 - 1e-10)
    # |B(1,1)|_1 = 1: the transposition contributes alpha * b12 * b21
    assert zd.masses[(1, 1)] == pytest.approx(3.0 / 16.0, rel=1e-9)


def test_z_masses_match_two_dim_closed_form_to_order_20():
    # for n = 2 the only nonzero masses sit at k = (m, m) with
    # mass = pref * C(alpha+m-1, m) (b12 b21 / (a1 a2))^m
    alpha = 0.7
    spec = PermanentalSpec(SPEC2.pair, alpha)
    zd = z_masses(spec, 1 - 1e-10)
    assert zd.max_order >= 20
    pair = spec.pair
    rho2 = (pair.B[0, 1] * pair.B[1, 0]) / (pair.diag_a[0] * pair.diag_a[1])
    pref = (np.linalg.det(pair.A) / pair.diag_a.prod()) ** alpha
    for m in range(11):
        expected = pref * binom(alpha, m) * rho2**m
        assert zd.masses[(m, m)] == pytest.approx(expected, rel=1e-9)
        if m >= 1:
            assert zd.masses[(m, m - 1)] == pytest.approx(0.0, abs=1e-12)


def test_z_masses_match_block_permanent_oracle():
    rng = np.random.default_rng(9)
    P = rng.random((3, 3)) * 0.15
    A = np.eye(3) - P
    np.fill_diagonal(A, 1.0)
    spec = PermanentalSpec.from_m_matrix(A, 1.3)
    zd = z_masses(spec, 1 - 1e-8)
    pair = spec.pair
    bt = pair.B / pair.diag_a[:, None]
    pref = (np.linalg.det(pair.A) / pair.diag_a.prod()) ** spec.alpha
    for order in range(1, 6):
        for k in compositions(order, 3):
            block = block_expand(bt, k)
            expected = pref * alpha_permanent(block, spec.alpha) / np.prod(
                [math.factorial(ki) for ki in k]
            )
            assert zd.masses[k] == pytest.approx(expected, rel=1e-8, abs=1e-13)


def test_z_masses_normalization_certificate(corpus20):
    for spec in corpus20[:8]:
        zd = z_masses(spec, 1 - 1e-6)
        assert zd.covered_mass + zd.tail_bound >= 1 - 1e-10
        assert zd.covered_mass <= 1 + 1e-10


def test_z_masses_infeasible_when_radius_near_one():
    eps = 1e-9
    spec = PermanentalSpec.from_m_matrix([[1.0, -1.0], [-1.0, 1.0 + eps]], 1.0)
    with pytest.raises(TruncationInfeasible):
        z_masses(spec, 0.9)


# ---------------------------------------------------------------- series form


def test_series_matches_direct_on_2x2_example():
    got = series_laplace_report(SPEC2, [1.0, 1.0], rel_tol=1e-9).value
    assert got == pytest.approx(0.375, rel=1e-8)


def test_series_at_zero_is_one():
    assert series_laplace_report(SPEC2, [0.0, 0.0], rel_tol=1e-9).value == pytest.approx(
        1.0, rel=1e-8
    )


def test_series_matches_direct_markov_kernel():
    from permanental import markov

    chain = markov.random_transient_chain(3, 0.6, 71)
    spec = PermanentalSpec.from_kernel(markov.green_kernel(chain), 0.5)
    s = [1.0, 2.0, 3.0]
    sv = series_laplace_report(spec, s, rel_tol=1e-8)
    assert sv.value == pytest.approx(direct_laplace(spec, s), rel=1e-6)
    assert sv.rel_err <= 1e-8
    assert sv.orders_used > 0


def test_series_rel_tol_validation():
    with pytest.raises(ValueError):
        series_laplace_report(SPEC2, [1.0, 1.0], rel_tol=0.5).value


def test_series_oracle_grid(small_corpus):
    # three-point grid per coordinate, comparing the two evaluation routes
    for spec in small_corpus:
        for base in (0.0, 0.5, 2.0):
            s = np.full(spec.n, base)
            got = series_laplace_report(spec, s, rel_tol=1e-7).value
            want = direct_laplace(spec, s)
            assert got == pytest.approx(want, rel=2e-7)


def test_mean_identity_vs_laplace_gradient(small_corpus):
    # E X_i = alpha K_ii equals the negative gradient of the LT at zero
    for spec in small_corpus[:3]:
        h = 1e-6
        for i in range(spec.n):
            s = np.zeros(spec.n)
            s[i] = h
            fd = (1.0 - direct_laplace(spec, s)) / h
            assert fd == pytest.approx(spec.alpha * spec.pair.K[i, i], rel=1e-4)


def test_z_masses_eigenvalue_branch_matches_permanent_oracle():
    # spectral radius above sin(pi/n) forces the eigenvalue fallback in the
    # coefficient extraction; the masses must still match brute force
    rng = np.random.default_rng(31)
    P = rng.random((5, 5))
    np.fill_diagonal(P, 0.0)
    P = 0.65 * P / P.sum(axis=1, keepdims=True)
    spec = PermanentalSpec.from_m_matrix(np.eye(5) - P, 1.0)
    bt = spec.pair.B / spec.pair.diag_a[:, None]
    from permanental.linalg import spectral_radius_nonneg

    assert spectral_radius_nonneg(bt) > math.sin(0.999 * math.pi / 5)
    zd = z_masses(spec, 0.9)
    pref = (np.linalg.det(spec.pair.A) / spec.pair.diag_a.prod()) ** spec.alpha
    for order in range(1, 4):
        for k in compositions(order, 5):
            block = block_expand(bt, k)
            expected = pref * alpha_permanent(block, spec.alpha) / np.prod(
                [math.factorial(ki) for ki in k]
            )
            assert zd.masses[k] == pytest.approx(
                expected, rel=1e-7, abs=zd.tail_bound * 1e-3 + 1e-12
            )


# ---------------------------------------------------------------- acyclic and defective B~

# A chain that never returns to a state: B~ = 0.5 * superdiagonal is nilpotent.
ACYCLIC = PermanentalSpec.from_m_matrix(np.eye(3) - 0.5 * np.eye(3, k=1), 1.0)
# Two equal 2x2 blocks, the first feeding the second: B~ is reducible and its
# Perron root 0.4 is a double, defective eigenvalue.
DEFECTIVE = PermanentalSpec.from_m_matrix(
    [[1.0, -0.4, 0.0, 0.0], [-0.4, 1.0, -0.3, 0.0],
     [0.0, 0.0, 1.0, -0.4], [0.0, 0.0, -0.4, 1.0]], 0.7)


def _bt(spec):
    return spec.pair.B / spec.pair.diag_a[:, None]


def test_acyclic_spec_z_masses_and_series():
    # spectral_radius_nonneg is exactly 0 here (tests/test_linalg.py)
    zd = z_masses(ACYCLIC, 1 - 1e-9)
    assert zd.max_order == 0
    assert zd.tail_bound == 0.0
    assert zd.masses[(0, 0, 0)] == pytest.approx(1.0, abs=1e-15)
    for s in ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.3, 0.0, 5.0]):
        sv = series_laplace_report(ACYCLIC, s)
        assert sv.orders_used == 0
        assert sv.value == pytest.approx(direct_laplace(ACYCLIC, s), rel=1e-14)


def test_defective_spec_masses_match_block_permanent_oracle():
    zd = z_masses(DEFECTIVE, 1 - 1e-9)
    bt = _bt(DEFECTIVE)
    pref = (np.linalg.det(DEFECTIVE.pair.A) / DEFECTIVE.pair.diag_a.prod()) ** 0.7
    for order in range(1, 4):
        for k in compositions(order, 4):
            expected = pref * alpha_permanent(block_expand(bt, k), 0.7) / np.prod(
                [math.factorial(ki) for ki in k]
            )
            assert abs(zd.masses[k] - expected) <= zd.tail_bound + 1e-15


@pytest.mark.parametrize("s", [[0.0, 0.0, 0.0, 0.0], [0.3, 1.0, 0.3, 1.0]])
def test_defective_spec_series_within_rel_err(s):
    # equal shifts on both blocks keep the shifted B~ defective
    sv = series_laplace_report(DEFECTIVE, s)
    want = direct_laplace(DEFECTIVE, s)
    assert abs(sv.value - want) <= (sv.rel_err + 1e-14) * want


# ---------------------------------------------------------------- tail certificate


@pytest.mark.parametrize("n, rho, order", [(5, 0.1, 10), (6, 0.05, 7)])
def test_certified_order_at_fixed_perron_root(n, rho, order):
    # B~ = rho/(n-1) (J - I) has Perron root rho
    A = np.eye(n) - rho / (n - 1) * (np.ones((n, n)) - np.eye(n))
    assert z_masses(PermanentalSpec.from_m_matrix(A, 1.0), 1 - 1e-9).max_order == order


def test_tail_table_bounds_the_true_tail(corpus20):
    from permanental.linalg import spectral_radius_nonneg
    from permanental.model import _MAX_ORDER, _log_tail_bounds

    for spec in corpus20[:10]:
        bt = _bt(spec)
        table = _log_tail_bounds(bt, spec.alpha, spectral_radius_nonneg(bt), _MAX_ORDER)
        total = np.linalg.det(np.eye(spec.n) - bt) ** -spec.alpha
        # per-order sums from the log-derivative recursion
        c, traces, power = [1.0], [], np.eye(spec.n)
        for order in range(_MAX_ORDER + 1):
            tail = total - math.fsum(c)
            if tail <= 1e-10:
                break
            assert math.exp(table[order]) >= tail
            power = power @ bt
            traces.append(float(np.trace(power)))
            c.append(spec.alpha / (order + 1) * math.fsum(
                traces[r] * c[order - r] for r in range(order + 1)))
        assert order > 0
