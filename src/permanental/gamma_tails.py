"""Gamma tail probabilities, two-sided tail bounds, and the maximum of iid copies.

``gamma_tail_exact`` implements the regularized upper incomplete gamma with
the standard split: ascending series below x = u + 1, Lentz continued
fraction above it; ``gamma_tail_rel_err`` bounds its error from the stopping
rule, the rounding of the prefactor and, below u + 1, the cancellation in
1 - P; ``tail_bounds_rel_err`` bounds the rounding of ``tail_bounds``.
Everything here is a pure function.
"""

from __future__ import annotations

import math
import sys

from .errors import OutOfRange, PreconditionViolated

_TOL = 1e-15
_TINY = 1e-300
_U = 2.0**-53  # unit roundoff
_U_MAX = 1e8  # the largest shape whose term budget is granted


def _term_budget(u: float) -> int:
    """Terms allowed to the series and the continued fraction at shape u.

    Near x = u both need about sqrt(u) terms per factor e of their last
    term's decay (about 9 sqrt(u) for the series, under sqrt(u) for the
    continued fraction, measured up to u = 1e8); 1000 + 10 sqrt(u) covers
    both.  Shapes above _U_MAX are refused.
    """
    if u > _U_MAX:
        raise OutOfRange(f"shape u = {u:g} exceeds {_U_MAX:g}, beyond which the incomplete "
                         f"gamma sums get no term budget")
    return 1000 + 10 * math.ceil(math.sqrt(u))


def _lower_series(u: float, x: float) -> tuple[float, float]:
    """Sum S of the ascending series, P(u, x) = S x^u e^-x / Gamma(u), for
    x < u + 1, with a bound on its relative error."""
    delt = 1.0 / u
    total = delt
    for i in range(1, _term_budget(u) + 1):
        delt *= x / (u + i)
        total += delt
        if abs(delt) < abs(total) * _TOL:
            # later terms shrink by at least r per step; term i went through
            # 3i + 1 roundings and the running sum adds up to i more
            r = x / (u + i + 1)
            return total, delt * r / ((1.0 - r) * total) + (4 * i + 1) * _U
    raise RuntimeError(f"incomplete gamma series stalled at u={u}, x={x}")


def _upper_cf(u: float, x: float) -> tuple[float, float]:
    """Continued fraction h of Q(u, x) = h x^u e^-x / Gamma(u) by modified
    Lentz, with an estimate of its relative error: the last step's change
    plus ten roundings per step (coefficients, the two ratios, the update)."""
    b = x + 1.0 - u
    c = 1.0 / _TINY
    d = 1.0 / b if abs(b) > _TINY else 1.0 / _TINY
    h = d
    for i in range(1, _term_budget(u) + 1):
        an = -i * (i - u)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < _TOL:
            return h, abs(delt - 1.0) + 10 * i * _U
    raise RuntimeError(f"incomplete gamma continued fraction stalled at u={u}, x={x}")


def _tail(u: float, v: float, t: float) -> tuple[float, float]:
    """Q(u, v t) and a bound on its relative error.

    The error adds, to first order:
    * the series or continued-fraction error (stopping rule and rounding);
    * the rounding of exp(-x + u log x - lgamma u): log and the product
      (2 ulps of u log x), lgamma (4 ulps), the two sums (1 ulp of the sum
      of magnitudes each) give an absolute error in the exponent, and exp
      one more rounding;
    * on the series branch, 1 - P multiplies P's relative error by P/Q and
      rounds once;
    * x = v t rounds once, which moves Q by x |Q'(x)| u = (x^u e^-x / Gamma(u)) u.
    A tail that underflows to below the smallest normal float gets 1.  An x
    that underflows to 0 keeps log x = log v + log t, so P = x^u / Gamma(u + 1)
    to rounding; a v t that overflows is refused.
    """
    if not (0 < u < math.inf and 0 < v < math.inf):
        raise ValueError("shape and scale must be positive and finite")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if t == 0.0:
        return 1.0, 0.0
    x = v * t
    if x == math.inf:
        raise OutOfRange(f"v*t = {v:g} * {t:g} overflows the float range")
    u_log_x = u * (math.log(x) if x > 0.0 else math.log(v) + math.log(t))
    lg = math.lgamma(u)
    pref = math.exp(-x + u_log_x - lg)
    pref_err = _U * (2 * (x + abs(u_log_x) + abs(lg)) + 2 * abs(u_log_x) + 4 * abs(lg) + 1)
    if x < u + 1.0:
        series, err = _lower_series(u, x)
        p = series * pref
        q = 1.0 - p
        rel = p / q * (err + pref_err + 2 * _U) + _U
    else:
        frac, err = _upper_cf(u, x)
        q = frac * pref
        rel = err + pref_err + 2 * _U
    if q < sys.float_info.min:
        return q, 1.0
    return q, rel + pref / q * _U


def gamma_tail_exact(u: float, v: float, t: float) -> float:
    """P(xi_{u,v} >= t) for the gamma law with shape u and scale parameter v."""
    return _tail(u, v, t)[0]


def gamma_tail_rel_err(u: float, v: float, t: float) -> float:
    """Bound on the relative error of ``gamma_tail_exact(u, v, t)``."""
    return _tail(u, v, t)[1]


def tail_bounds(u: float, lam: float) -> tuple[float, float]:
    """Two-sided bounds on P(xi_{u,1} >= lam).

    Returns ((2/3) lam^{u-1} e^{-lam} / Gamma(u), 2 lam^{u-1} e^{-lam} / Gamma(u)).
    The upper bound needs lam > 2(u-1) v 0; the lower bound needs lam >= 2
    and additionally lam > 2(1-u) when u < 1.  Scale invariance
    P(xi_{u,v} >= lam/v) = P(xi_{u,1} >= lam) is the caller's business.
    """
    if u <= 0:
        raise ValueError("shape must be positive")
    upper_floor = max(2.0 * (u - 1.0), 0.0)
    if not lam > upper_floor:
        raise PreconditionViolated(
            f"upper bound needs lam > 2(u-1) v 0 = {upper_floor:g}; got {lam:g}"
        )
    if lam < 2.0:
        raise PreconditionViolated(f"lower bound needs lam >= 2; got {lam:g}")
    if u < 1.0 and not lam > 2.0 * (1.0 - u):
        raise PreconditionViolated(
            f"lower bound with u < 1 needs lam > 2(1-u) = {2 * (1 - u):g}"
        )
    core, _ = _bounds_core(u, lam)
    return (2.0 / 3.0) * core, 2.0 * core


def _bounds_core(u: float, lam: float) -> tuple[float, float]:
    """lam^(u-1) e^-lam / Gamma(u) and a bound on its relative error.

    The exponent a - lam - lgamma(u), a = (u - 1) log lam, carries an
    absolute error of one ulp of |a| each from u - 1, log and the product,
    one ulp of the sum of magnitudes from each of the two sums, and 4 ulps
    of |lgamma(u)|; exp turns it into a relative error and rounds once.
    """
    a = (u - 1.0) * math.log(lam)
    lg = math.lgamma(u)
    core = math.exp(a - lam - lg)
    return core, _U * (3 * abs(a) + 2 * (abs(a) + lam + abs(lg)) + 4 * abs(lg) + 1)


def tail_bounds_rel_err(u: float, lam: float) -> float:
    """Bound on the relative error of both ``tail_bounds(u, lam)``: that of
    their common factor, plus the rounding of 2/3 and of the product."""
    return _bounds_core(u, lam)[1] + 2 * _U


def max_iid_tail(m: int, tail: float) -> float:
    """P(max of m iid copies >= x) = 1 - (1 - tail)^m from one copy's tail
    P(xi >= x); a tail that rounds to 1 gives 1."""
    if tail >= 1.0:
        return 1.0
    return -math.expm1(m * math.log1p(-tail))
