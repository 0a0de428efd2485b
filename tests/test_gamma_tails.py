import math

import mpmath
import numpy as np
import pytest
import scipy.special

from permanental.errors import PreconditionViolated
from permanental.gamma_tails import (
    gamma_tail_exact,
    gamma_tail_rel_err,
    max_iid_lower,
    max_iid_tail,
    tail_bounds,
    tail_bounds_rel_err,
    unbounded_lambda_check,
)


def mp_tail(u: float, x: float) -> float:
    """High-precision regularized upper incomplete gamma oracle."""
    with mpmath.workdps(40):
        return float(mpmath.gammainc(u, x, mpmath.inf, regularized=True))


# ---------------------------------------------------------------- exact tail


def test_exponential_tail():
    for lam in (0.1, 1.0, 5.0, 30.0):
        assert gamma_tail_exact(1.0, 1.0, lam) == pytest.approx(
            math.exp(-lam), rel=1e-13
        )


def test_shape_two_tail_by_parts():
    for lam in (0.5, 2.0, 7.0):
        assert gamma_tail_exact(2.0, 1.0, lam) == pytest.approx(
            (1 + lam) * math.exp(-lam), rel=1e-13
        )


def test_half_shape_vs_high_precision_oracle():
    assert gamma_tail_exact(0.5, 1.0, 2.0) == pytest.approx(
        mp_tail(0.5, 2.0), rel=1e-12
    )


def test_grid_vs_scipy_oracle():
    for u in (0.3, 0.5, 1.0, 2.0, 5.0, 17.5):
        for x in (0.01, 0.5, u, u + 2, 4 * u + 10):
            want = float(scipy.special.gammaincc(u, x))
            assert gamma_tail_exact(u, 1.0, x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("u", [0.1, 0.5, 1.0, 1.7, 3.0, 10.0])
def test_rel_err_covers_high_precision_oracle(u):
    # straddles the series / continued-fraction switch at x = u + 1 and covers
    # x in [6, 15]; v = 0.3 makes x = v t round
    for x in (0.05, u + 1 - 1e-3, u + 1, u + 1 + 1e-3, 6.0, 9.5, 15.0, 4 * u + 30):
        for v in (1.0, 0.3):
            t = x / v
            with mpmath.workdps(40):
                want = float(mpmath.gammainc(u, mpmath.mpf(v) * t, mpmath.inf,
                                             regularized=True))
            rel = gamma_tail_rel_err(u, v, t)
            assert abs(gamma_tail_exact(u, v, t) - want) <= rel * want
            assert rel < 1e-12


def test_rel_err_of_underflowed_tail_is_one():
    assert gamma_tail_exact(1.0, 1.0, 800.0) == 0.0
    assert gamma_tail_rel_err(1.0, 1.0, 800.0) == 1.0
    assert gamma_tail_rel_err(2.0, 1.0, 0.0) == 0.0


def test_scale_invariance():
    lam = 3.7
    base = gamma_tail_exact(1.7, 1.0, lam)
    for v in (0.1, 1.0, 10.0):
        assert gamma_tail_exact(1.7, v, lam / v) == pytest.approx(base, rel=1e-13)


def test_tail_at_zero_is_one():
    assert gamma_tail_exact(2.3, 1.4, 0.0) == 1.0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        gamma_tail_exact(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gamma_tail_exact(1.0, 1.0, -1.0)


# ---------------------------------------------------------------- sandwich


def test_bounds_exponential_case():
    lower, upper = tail_bounds(1.0, 3.0)
    assert lower == pytest.approx((2 / 3) * math.exp(-3.0))
    assert upper == pytest.approx(2 * math.exp(-3.0))
    exact = gamma_tail_exact(1.0, 1.0, 3.0)
    assert lower <= exact <= upper


def test_bounds_shape_two_at_five():
    lower, upper = tail_bounds(2.0, 5.0)
    exact = gamma_tail_exact(2.0, 1.0, 5.0)
    assert exact == pytest.approx(6 * math.exp(-5.0), rel=1e-12)
    assert lower == pytest.approx((10 / 3) * math.exp(-5.0))
    assert upper == pytest.approx(10 * math.exp(-5.0))
    assert lower <= exact <= upper


def test_sandwich_on_precondition_grid():
    count = 0
    for u in (0.3, 0.5, 1.0, 2.0, 5.0):
        for lam in np.arange(2.0, 20.5, 0.5):
            if not lam > max(2 * (u - 1), 0):
                continue
            if u < 1 and not lam > 2 * (1 - u):
                continue
            lower, upper = tail_bounds(u, lam)
            exact = gamma_tail_exact(u, 1.0, lam)
            assert lower <= exact <= upper, (u, lam)
            count += 1
    assert count >= 150


def test_bounds_rel_err_covers_mpmath():
    worst = 0.0
    for u in np.linspace(0.5, 3.0, 26):
        for lam in np.linspace(6.0, 15.0, 37):
            u, lam = float(u), float(lam)
            lower, upper = tail_bounds(u, lam)
            rel = tail_bounds_rel_err(u, lam)
            with mpmath.workdps(40):
                core = mpmath.mpf(lam) ** (u - 1) * mpmath.exp(-lam) / mpmath.gamma(u)
                errs = [float(abs(v / (c * core) - 1)) for v, c in
                        ((lower, mpmath.mpf(2) / 3), (upper, 2))]
            assert max(errs) <= rel, (u, lam)
            worst = max(worst, rel)
    # a few dozen ulps, not the nominal 1e-14
    assert worst <= 1e-14


def test_upper_precondition_violation():
    with pytest.raises(PreconditionViolated) as err:
        tail_bounds(5.0, 7.0)  # needs lam > 8
    assert err.value.which == "upper"


def test_lower_precondition_violation():
    with pytest.raises(PreconditionViolated) as err:
        tail_bounds(1.0, 1.5)  # needs lam >= 2
    assert err.value.which == "lower"


def test_lower_small_shape_extra_condition():
    with pytest.raises(PreconditionViolated) as err:
        tail_bounds(0.4, 1.1)
    assert err.value.which in ("lower", "upper")


# ---------------------------------------------------------------- max of iid


def test_max_iid_lower_bound_value():
    assert max_iid_lower(10**6, 1.0, 0.5, 1.0) == pytest.approx(1 - math.e**-1)


def test_max_iid_lower_monte_carlo():
    n, eps = 10**6, 0.5
    bound = max_iid_lower(n, 1.0, eps, 1.0)
    threshold = (1 - eps) * math.log(n)
    rng = np.random.default_rng(12345)
    hits = 0
    reps = 200
    for _ in range(reps):
        # max of n iid exponentials: inverse-CDF of the max distribution
        u = rng.random()
        max_draw = -math.log(1 - u ** (1.0 / n))
        hits += max_draw >= threshold
    assert hits / reps >= bound - 3 * math.sqrt(bound * (1 - bound) / reps)


def test_max_iid_lower_precondition_failure():
    with pytest.raises(PreconditionViolated):
        max_iid_lower(10, 1.0, 0.01, 1.0)


def test_max_iid_exact_exponential_dominates_bound():
    n, eps, q = 10**6, 0.5, 1.0
    bound = max_iid_lower(n, 1.0, eps, q)
    exact = -math.expm1(n * math.log1p(-n ** -(1 - eps)))
    assert exact >= bound


# ---------------------------------------------------------------- log n check


def test_unbounded_lambda_exponential_closed_form():
    for n in (10, 100, 10**4, 10**8):
        got = unbounded_lambda_check(n, 1, 1.0)
        want = -math.expm1((n // 1) * math.log1p(-1.0 / n))
        assert got == pytest.approx(want, rel=1e-12)


def test_unbounded_lambda_trend_along_powers_of_two():
    # alpha = 1 converges to 1 - 1/e from above (n * tail = 1 exactly);
    # alpha = 2 has n * tail = 1 + log n, so it increases toward 1
    flat = [unbounded_lambda_check(2**j, 1, 1.0) for j in range(4, 20)]
    assert all(b <= a + 1e-13 for a, b in zip(flat, flat[1:]))
    assert flat[-1] == pytest.approx(1 - math.e**-1, abs=1e-4)
    rising = [unbounded_lambda_check(2**j, 1, 2.0) for j in range(6, 26)]
    assert all(b >= a - 1e-13 for a, b in zip(rising, rising[1:]))
    assert rising[-1] > 0.99


def test_unbounded_lambda_fractional_shape():
    got = unbounded_lambda_check(10**4, 2, 0.5)
    assert 0.0 < got < 1.0
    m = 10**4 // 2
    with mpmath.workdps(40):
        tail = float(
            mpmath.gammainc(0.5, math.log(10**4), mpmath.inf, regularized=True)
        )
    want = -math.expm1(m * math.log1p(-tail))
    assert got == pytest.approx(want, rel=1e-11)


def test_unbounded_lambda_tail_rounding_to_one():
    # Q(200, log 10) rounds to 1: 1 - (1 - tail)^m is 1, not log1p(-1)
    assert gamma_tail_exact(200.0, 1.0, math.log(10)) == 1.0
    assert unbounded_lambda_check(10, 1, 200.0) == 1.0


@pytest.mark.parametrize("m, tail", [(1, 0.3), (7, 1e-20), (1000, 0.01), (3, 1.0 - 2**-53)])
def test_max_iid_tail_matches_mpmath(m, tail):
    with mpmath.workdps(60):
        want = float(1 - (1 - mpmath.mpf(tail)) ** m)
    assert max_iid_tail(m, tail) == pytest.approx(want, rel=1e-14)
