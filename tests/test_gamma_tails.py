import math

import mpmath
import numpy as np
import pytest
import scipy.special

from permanental.errors import OutOfRange, PreconditionViolated
from permanental.gamma_tails import (
    gamma_tail_exact,
    gamma_tail_rel_err,
    max_iid_tail,
    tail_bounds,
    tail_bounds_rel_err,
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


@pytest.mark.parametrize("u", [3e4, 1e5, 1e6])
def test_large_shapes_match_scipy_within_rel_err(u):
    # near x = u the series needs about 9 sqrt(u) terms, the continued fraction fewer
    for x in (0.999 * u, u, u + 1.0 - 1e-3, u + 1.0, 1.001 * u):
        want = float(scipy.special.gammaincc(u, x))
        got = gamma_tail_exact(u, 1.0, x)
        assert abs(got - want) <= gamma_tail_rel_err(u, 1.0, x) * got


def test_shapes_past_the_term_budget_cap_are_refused():
    for x in (1e8, 2e8, 4e8):
        with pytest.raises(OutOfRange, match="shape u = 2e\\+08"):
            gamma_tail_exact(2e8, 1.0, x)


def test_scale_times_t_beyond_the_float_range():
    with pytest.raises(OutOfRange, match="v\\*t = 1e\\+200 \\* 1e\\+200 overflows"):
        gamma_tail_exact(2.0, 1e200, 1e200)
    # v t underflows to 0: P = x^u / Gamma(u + 1) from log x = log v + log t
    assert gamma_tail_exact(2.0, 1e-300, 1e-300) == 1.0
    for u in (1e-3, 0.1):
        want = 1.0 - float(mpmath.mpf("1e-600") ** u / mpmath.gamma(1 + u))
        got = gamma_tail_exact(u, 1e-300, 1e-300)
        assert abs(got - want) <= gamma_tail_rel_err(u, 1e-300, 1e-300) * want


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
    with pytest.raises(PreconditionViolated, match="^upper bound needs lam > 2"):
        tail_bounds(5.0, 7.0)  # needs lam > 8


def test_lower_precondition_violation():
    with pytest.raises(PreconditionViolated, match="^lower bound needs lam >= 2"):
        tail_bounds(1.0, 1.5)  # needs lam >= 2


def test_lower_small_shape_extra_condition():
    with pytest.raises(PreconditionViolated, match="^lower bound"):
        tail_bounds(0.4, 1.1)


# ---------------------------------------------------------------- max of iid


@pytest.mark.parametrize("m, tail", [(1, 0.3), (7, 1e-20), (1000, 0.01), (3, 1.0 - 2**-53),
                                     (10, 1.0)])
def test_max_iid_tail_matches_mpmath(m, tail):
    with mpmath.workdps(60):
        want = float(1 - (1 - mpmath.mpf(tail)) ** m)
    assert max_iid_tail(m, tail) == pytest.approx(want, rel=1e-14)
