"""Numerical potential densities for a family of asymmetric Levy processes.

The jump measure has density x^{-2} g(1/|x|) (p 1_{x>0} + q 1_{x<0}) with a
positive quasi-monotonic slowly varying profile g.  The exponent psi is
evaluated exactly for whole arrays of lam at once, in fixed-size blocks,
from a fixed composite rule on the jump integral: Gauss-Legendre panels in
w = log x on the sub-oscillatory head (lam x <= 1), and Filon-type panels
(Legendre coefficients of the jump density times the moments
2 i^k j_k(lam h)) on geometric x panels over the oscillatory part, so the
cost grows only like log lam.  Each panel's error is estimated from its
trailing Legendre coefficients.  The spectral functions
R(lam) = Re 1/(beta + psi) and I(lam) = Im 1/(beta + psi) are evaluated once
per model on a fixed table of 20-point Gauss-Legendre panels in lam up to
_LAM_EXACT_MAX, which keeps their Legendre coefficients.  The table gives
u(0), the Cor 1.4 integrals, and at each lag the exact range of the killed
potential density u(+-z) = R_part(z) +- H_part(z): Filon weights in lam (the
moments of the same Legendre polynomials against e^{i lam z}) times the
coefficients of R and I, plus one new panel that ends where the surrogate
lobes begin.  Those lobes are summed with Euler acceleration; the increment
metric is sigma^2(z) = 2 (u(0) - R_part(z)).

Because R decays only like 1/(lam log^c lam), every integral over
(0, infinity) is split at a finite boundary: exact evaluation below it and
an asymptotic surrogate above it, with the surrogate corrected by a fitted
1/log-lambda drift measured against the exact values.  The remaining 1-D
integrals (the antiderivative G of g(s)/s, the surrogate tail of R, the
surrogate lobes, the Thm 1.6 statistics and the profile checks) use the
same Gauss-Legendre panels as psi, in log w for the tails, which end where
a closed-form bound on the rest is negligible.  Reported error estimates include the fit
residual, the quadrature estimates of every panel (converged or not), the
bound on the part of a tail the panels leave out, and the psi error carried
through R and I.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotIntegrable, OutOfRange
from .oscillatory import euler_accelerate, lobe_boundaries

DEFAULT_CUT = math.e**2
_X_LO = 1e-12
_LAM_EXACT_MAX = 2e8
_N_EXACT_LOBES = 48
_N_FAR_LOBES = 512
# lags of a kernel that agree to this relative size share one bundle
_LAG_REL = 1e-12

# psi rule: Gauss-Legendre nodes per panel, lam values per block (bounds the
# node arrays at about _PSI_BLOCK * 40 panels * _N_LEG nodes), the upper
# log-y limit of the truncation bound, and the length in w of the plain
# tail of full-support profiles beyond x_cut
_N_LEG = 20
_PSI_BLOCK = 64
_OMEGA_RECUR = 20.0  # Filon moments by recurrence above this lam * half width
_W_HI_TAIL = 80.0
_W_PLAIN_TAIL = 50.0

# spectral table: the width of its uniform panels in periods 2 pi support_min
# of the ripple that the support cut puts into R (about 14 Gauss nodes per
# period), and their number
_RIPPLE_PERIODS = 1.38
_UNIFORM_PANELS = 64

# tail integrals in w = log lam: panel width in log w, the log of the largest
# w they reach (w = e^700 ~ 1e304), and the size, relative to the bound on
# the whole tail, below which the closed-form bound on the rest lets the
# panels stop
_T_STEP = 0.5
_T_MAX = 700.0
_REST_RTOL = 1e-17
# depth in v = log y of the check that g is integrable over (0, 1)
_V_LOW = 60.0


@dataclass(frozen=True)
class LogPowerProfile:
    """Slowly varying profile (log y)^gamma (log log y)^delta on (cut, inf)."""

    gamma: float
    delta: float
    cut: float = DEFAULT_CUT

    def __post_init__(self):
        if self.delta != 0.0 and self.cut <= math.e:
            raise OutOfRange("delta != 0 needs cut > e so log log y stays positive")
        if self.delta == 0.0 and self.cut <= 1.0:
            raise OutOfRange("cut must exceed 1 so log y stays positive")

    def __call__(self, y: float) -> float:
        if y <= self.cut:
            return 0.0
        ly = math.log(y)
        val = ly**self.gamma
        if self.delta != 0.0:
            val *= math.log(ly) ** self.delta
        return val

    def of_log(self, w):
        """g(e^w), elementwise; the w-space form used by tail integrands."""
        w = np.asarray(w, dtype=float)
        live = w > math.log(self.cut)
        safe = np.where(live, w, math.e)
        with np.errstate(over="ignore"):  # g = inf far out is its value there
            val = safe**self.gamma
            if self.delta != 0.0:
                val = val * np.log(safe) ** self.delta
        out = np.where(live, val, 0.0)
        return float(out) if out.ndim == 0 else out

    def inverse_tail_bound(self, w):
        """Upper bound on the integral of 1/g(e^s) over s > w >= log(cut),
        elementwise, in closed form (inf where none holds).

        With t = log s the integrand is e^{(1-gamma) t} t^{-delta}.  For
        gamma = 1 it integrates exactly; for gamma > 1 its log-derivative
        stays below -c = 1 - gamma - min(delta, 0)/t beyond t, so the
        integral is at most the integrand at t over c.
        """
        t = np.log(np.asarray(w, dtype=float))
        gam, dl = self.gamma, self.delta
        if gam < 1.0 or (gam == 1.0 and dl <= 1.0):
            return np.full(t.shape, math.inf)
        if gam == 1.0:
            return t ** (1.0 - dl) / (dl - 1.0)
        c = gam - 1.0 + min(dl, 0.0) / t
        value = np.exp((1.0 - gam) * t) * (t**-dl if dl != 0.0 else 1.0)
        return np.where(c > 0.0, value / np.maximum(c, 1e-300), math.inf)


@dataclass(frozen=True)
class LevyModel:
    """Killing rate beta, jump-sign weights (p, q), and the profile g.

    ``support_min`` is the point below which g vanishes (0 for full
    support); the Levy integrability condition integral from 0 to 1 of g
    is checked at construction when the support reaches below 1.
    """

    beta: float
    p: float
    q: float
    g: Callable[[float], float]
    support_min: float

    def __post_init__(self):
        if self.beta <= 0:
            raise OutOfRange("beta must be positive")
        if self.p < 0 or self.q < 0 or abs(self.p + self.q - 1.0) > 1e-12:
            raise OutOfRange("need p, q >= 0 with p + q = 1")
        if self.support_min < 1.0:
            # integral of g(y) dy = g(e^v) e^v dv on unit panels in v up to
            # v = 0; with full support down to v = -_V_LOW, where the lowest
            # panel must have died out against the total
            lo = math.log(self.support_min) if self.support_min > 0 else -_V_LOW
            edges = np.linspace(lo, 0.0, math.ceil(-lo) + 1)
            _, half, v = _legendre_panels(edges[:-1], edges[1:])
            pieces, _ = _legendre_integral(self.g_of_log(v) * np.exp(v), half)
            total = float(pieces.sum())
            if not math.isfinite(total) or (
                    self.support_min <= 0 and abs(pieces[0]) > 1e-6 * abs(total) + 1e-9):
                raise OutOfRange("integral of g over (0, 1) must be finite")

    @property
    def symmetric(self) -> bool:
        return self.p == self.q

    def g_of_log(self, w):
        """g(e^w), elementwise; a general profile is called once per point."""
        if isinstance(self.g, LogPowerProfile):
            return self.g.of_log(w)
        if np.ndim(w) == 0:
            return self.g(math.exp(w)) if w < 700 else self.g(math.inf)
        return np.array([self.g_of_log(v) for v in np.ravel(w)]).reshape(np.shape(w))


def log_power_model(
    beta: float, p: float, q: float, gamma: float, delta: float, cut: float = DEFAULT_CUT
) -> LevyModel:
    profile = LogPowerProfile(gamma=gamma, delta=delta, cut=cut)
    return LevyModel(beta=beta, p=p, q=q, g=profile, support_min=cut)


# ---------------------------------------------------------------- psi


def _sin_minus_lin(u: np.ndarray) -> np.ndarray:
    # sin(u) - u, by its Taylor series below 0.5 to avoid cancellation
    u2 = u * u
    series = -(u * u2) / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0 * (
        1.0 - u2 / 72.0 * (1.0 - u2 / 110.0 * (1.0 - u2 / 156.0)))))
    return np.where(u < 0.5, series, np.sin(u) - u)


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1] and the matrix taking values at them
    to Legendre coefficients (exact below degree _N_LEG)."""
    t, w = np.polynomial.legendre.leggauss(_N_LEG)
    vander = np.polynomial.legendre.legvander(t, _N_LEG - 1)
    return t, vander * w[:, None] * ((2.0 * np.arange(_N_LEG) + 1.0) / 2.0)


def _legendre_panels(lo: np.ndarray, hi: np.ndarray):
    """Mid points, half widths and Gauss-Legendre nodes (P, _N_LEG) of panels."""
    t, _ = _legendre_rule()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid, half, mid[:, None] + half[:, None] * t


def _legendre_integral(values: np.ndarray, half: np.ndarray):
    """Panel integrals of values (..., P, _N_LEG) at the Legendre nodes, with
    the two trailing Legendre coefficients as the error estimate."""
    coef = values @ _legendre_rule()[1]
    return 2.0 * half * coef[..., 0], 2.0 * half * (
        np.abs(coef[..., -1]) + np.abs(coef[..., -2]))


def _panels(edges: np.ndarray):
    """Owner row, lower and upper end of the non-empty panels between
    consecutive entries of each row of edges."""
    lo = np.minimum(edges[:, :-1], edges[:, 1:])
    hi = np.maximum(edges[:, :-1], edges[:, 1:])
    keep = hi > lo
    owner = np.broadcast_to(np.arange(edges.shape[0])[:, None], lo.shape)
    return owner[keep], lo[keep], hi[keep]


def _graded_edges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Edges from start towards stop with steps 1, 1, 2, 4, 4, 4, ...
    (clipped at stop), fine where the integrand is largest or least smooth."""
    span = float(np.max(np.abs(stop - start)))
    offsets = np.concatenate([[0.0, 1.0, 2.0], np.arange(4.0, span + 4.0, 4.0)])
    step = np.sign(stop - start)[:, None] * offsets
    return np.clip(start[:, None] + step, np.minimum(start, stop)[:, None],
                   np.maximum(start, stop)[:, None])


def _w_integrals(owner, lo, hi, integrand, n: int):
    """Per-row sums of Gauss-Legendre panel integrals in w of integrand(rows,
    w) (values of shape (m, P, _N_LEG)), with their error estimates."""
    _, half, w = _legendre_panels(lo, hi)
    val, err = _legendre_integral(integrand(owner, w), half)
    return (np.array([np.bincount(owner, v, minlength=n) for v in val]),
            np.bincount(owner, err.sum(axis=0), minlength=n))


class _Antiderivative:
    """G(w) = integral of g(e^u) du over (w_cut, w), elementwise, for the
    profile g_of_log; 0 at and below w_cut.

    The panels are geometric, ratio sqrt 2, in the distance from the nearest
    point below w_cut where the log-power profiles are singular (u = 1,
    where log u vanishes, else u = 0), and run to w = e^_T_MAX or to where
    the sum stops being finite (G = inf beyond).  Each panel keeps the
    Legendre coefficients of the antiderivative of its interpolant of g, so
    G at any w is the sum of the panels below plus its own panel's part:
    exact to rounding and smooth in w.
    """

    def __init__(self, g_of_log, w_cut: float):
        base = 1.0 if w_cut > 1.0 else (0.0 if w_cut > 0.0 else w_cut - 1.0)
        count = math.ceil(2.0 * math.log2((math.exp(_T_MAX) - base) / (w_cut - base)))
        edges = base + (w_cut - base) * 2.0 ** (0.5 * np.arange(count + 1.0))
        _, half, u = _legendre_panels(edges[:-1], edges[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            coef = g_of_log(u) @ _legendre_rule()[1]
            cum = np.concatenate([[0.0], np.cumsum(2.0 * half * coef[:, 0])])
        ok = np.isfinite(coef).all(axis=1) & np.isfinite(cum[1:])
        keep = ok.size if ok.all() else int(np.argmin(ok))
        self.w_cut = w_cut
        self.finite_to = math.inf if ok.all() else edges[keep]
        self.edges = edges[:keep + 1]
        self.half = half[:keep]
        self.cum = cum[:keep + 1]
        self.anti = np.polynomial.legendre.legint(coef[:keep], lbnd=-1, axis=1).T
        panel_err = 2.0 * half[:keep] * (np.abs(coef[:keep, -1]) + np.abs(coef[:keep, -2]))
        self.cum_err = np.concatenate([[0.0], np.cumsum(panel_err)])

    def with_error(self, w):
        """G(w) and its error estimate (the estimates of every panel below
        w and of w's own panel)."""
        w = np.asarray(w, dtype=float)
        flat = w.ravel()
        k = np.clip(np.searchsorted(self.edges, flat, side="right") - 1, 0, self.half.size - 1)
        x = np.clip((flat - self.edges[k]) / self.half[k] - 1.0, -1.0, 1.0)
        part = np.polynomial.legendre.legval(x, self.anti[:, k], tensor=False)
        value = np.where(flat > self.finite_to, math.inf, self.cum[k] + self.half[k] * part)
        value = np.where(flat > self.w_cut, value, 0.0).reshape(w.shape)
        err = np.where(flat > self.w_cut, self.cum_err[k + 1], 0.0).reshape(w.shape)
        if w.ndim == 0:
            return float(value), float(err)
        return value, err

    def __call__(self, w):
        return self.with_error(w)[0]


def _tail_integral(f, w0: float, rest, exact: bool = False) -> tuple[float, float]:
    """Integral of a positive f(w) over (w0, infinity) and its error, on
    Gauss-Legendre panels of width _T_STEP in t = log w.

    ``rest(w)`` is a closed-form bound on the integral over (w, infinity),
    elementwise.  The panels stop at the first edge where it falls below
    _REST_RTOL times its largest finite value, at w = e^_T_MAX, or before
    the first panel where f is not positive and finite (the profile
    overflowed there); the bound at the stop is added to the error, or to
    the value when ``exact`` says that rest(w) is the integral itself.
    """
    edges = np.append(np.arange(math.log(w0), _T_MAX, _T_STEP), _T_MAX)
    with np.errstate(over="ignore", divide="ignore"):
        bounds = rest(np.exp(edges))
        scale = np.max(bounds, where=np.isfinite(bounds), initial=0.0)
        below = np.flatnonzero(bounds <= _REST_RTOL * scale)
        stop = int(below[0]) if below.size else edges.size - 1
        _, half, t = _legendre_panels(edges[:stop], edges[1:stop + 1])
        w = np.exp(t)
        values = f(w) * w
    bad = np.flatnonzero(~((values > 0.0) & np.isfinite(values)).all(axis=1))
    if bad.size:
        stop = int(bad[0])
    val, err = _legendre_integral(values[:stop], half[:stop])
    if exact:
        return float(val.sum() + bounds[stop]), float(err.sum())
    return float(val.sum()), float(err.sum() + bounds[stop])


@functools.cache
def _moment_rule() -> tuple[np.ndarray, np.ndarray]:
    """A 48-point Gauss-Legendre rule and the weighted P_k (k < _N_LEG) at
    its nodes: exact for the moments below _OMEGA_RECUR to double precision."""
    tau, w = np.polynomial.legendre.leggauss(48)
    return tau, np.polynomial.legendre.legvander(tau, _N_LEG - 1) * w[:, None]


def _filon_moments(omega: np.ndarray) -> np.ndarray:
    """mu_k(omega) = integral over [-1, 1] of P_k(t) e^{i omega t} dt
    = 2 i^k j_k(omega) for k < _N_LEG, shape (P, _N_LEG).

    Upward recurrence of the spherical Bessel functions is stable for
    omega > k; below _OMEGA_RECUR the moments come from a fixed rule."""
    mu = np.empty((omega.size, _N_LEG), dtype=complex)
    low = omega < _OMEGA_RECUR
    tau, weighted = _moment_rule()
    phase = omega[low, None] * tau
    mu[low] = np.cos(phase) @ weighted + 1j * (np.sin(phase) @ weighted)
    om = omega[~low]
    j = np.empty((om.size, _N_LEG))
    s, c = np.sin(om), np.cos(om)
    j[:, 0] = s / om
    j[:, 1] = (s / om - c) / om
    for k in range(1, _N_LEG - 1):
        j[:, k + 1] = (2 * k + 1) / om * j[:, k] - j[:, k - 1]
    mu[~low] = 2.0 * j * (1j ** np.arange(_N_LEG))
    return mu


def _psi_block(model: LevyModel, lam: np.ndarray, hi_tail: float):
    """Re psi, the integral J of (sin(lam x) - lam x 1_{x<1}) against the
    jump density (Im psi = -(p - q) J), and the error bound, at lam > 0.

    The jump integral runs over [X_LO, x_cut] in three parts: the head
    x <= x1 = min(1/lam, x_cut) on graded log-x panels, the oscillatory
    part [x1, x_cut] on geometric x panels (split at x = 1 where the
    compensator stops) with Filon-type weights, and for full-support
    profiles the plain remainder beyond x_cut.  The cut below X_LO is
    bounded by (lam x)^2 / 2 against the jump density, i.e. by
    lam^2 / 2 times ``hi_tail``.
    """
    n = lam.size
    g_inv = model.g_of_log
    full = model.support_min <= 0
    x_cut = np.maximum(1e3, 3e3 / lam) if full else np.full(n, 1.0 / model.support_min)
    w_cut = np.log(x_cut)
    w1 = np.minimum(-np.log(lam), w_cut)
    re = np.zeros(n)
    im = np.zeros(n)
    err = 0.5 * lam * lam * hi_tail

    def head(rows, w):
        x = np.exp(w)
        u = lam[rows][:, None] * x
        gx = g_inv(-w) / x
        return np.stack([2.0 * np.sin(0.5 * u) ** 2 * gx, _sin_minus_lin(u) * gx])

    (head_re, head_im), e = _w_integrals(
        *_panels(_graded_edges(w1, np.full(n, math.log(_X_LO)))), head, n)
    re += head_re
    im += head_im
    err += e

    # geometric x panels (ratio <= 2) over [x1, x_cut], with x = 1 as an edge
    steps = np.arange(int(np.ceil(np.max(w_cut - w1) / math.log(2.0))) + 1) * math.log(2.0)
    split = np.where((w1 < 0.0) & (w_cut > 0.0), 0.0, w_cut)
    edges = np.sort(np.column_stack([np.minimum(w1[:, None] + steps, w_cut[:, None]),
                                     w_cut, split]), axis=1)
    rows, lo, hi = _panels(edges)
    if rows.size:
        mid, half, x = _legendre_panels(np.exp(lo), np.exp(hi))
        gx = g_inv(-np.log(x)) / x
        lam_p = lam[rows]
        coef = np.stack([gx / x, gx]) @ _legendre_rule()[1]
        tail = 2.0 * half * (np.abs(coef[..., -1]) + np.abs(coef[..., -2]))
        plain = 2.0 * half * coef[0, :, 0]
        # integral of f e^{i lam x} over the panel
        osc = half * np.exp(1j * lam_p * mid) * np.sum(
            coef[0] * _filon_moments(lam_p * half), axis=1)
        cos_part, sin_part = osc.real, osc.imag
        # the compensator lam x 1_{x < 1} of the imaginary part
        below_one = hi <= 0.0
        comp = np.where(below_one, 2.0 * half * coef[1, :, 0], 0.0)
        re += np.bincount(rows, plain - cos_part, minlength=n)
        im += np.bincount(rows, sin_part - lam_p * comp, minlength=n)
        # the plain, cos and sin parts each carry the truncated expansion
        err += np.bincount(rows, 3.0 * tail[0] + np.where(below_one, lam_p * tail[1], 0.0),
                           minlength=n)
    if full:
        # exact non-oscillatory remainder beyond x_cut; the trig remainders
        # are bounded by 2 f(x_cut) / lam each (integration by parts)
        (plain_tail,), e = _w_integrals(
            *_panels(_graded_edges(w_cut, w_cut + _W_PLAIN_TAIL)),
            lambda rows, w: (g_inv(-w) * np.exp(-w))[None], n)
        re += plain_tail
        err += e + 4.0 * g_inv(-w_cut) / (x_cut * x_cut * lam)
    return re, im, err


def psi_with_error(model: LevyModel, lam):
    """psi at lam (a number or an array) and a computed error bound;
    psi(-lam) = conj(psi(lam)) and psi(0) = 0.

    Arrays are evaluated in blocks of _PSI_BLOCK values, so memory does not
    grow with the batch; a number is a batch of one.
    """
    lam = np.asarray(lam, dtype=float)
    flat = lam.ravel()
    value = np.zeros(flat.size, dtype=complex)
    err = np.zeros(flat.size)
    live = np.flatnonzero(flat != 0.0)
    if live.size:
        w_lo = -math.log(_X_LO)
        # integral of g(1/x) over (0, X_LO), for the bound on the cut there
        (hi_tail,), hi_err = _w_integrals(
            *_panels(_graded_edges(np.array([w_lo]), np.array([_W_HI_TAIL]))),
            lambda rows, w: (model.g_of_log(w) * np.exp(-w))[None], 1)
        hi_tail = abs(hi_tail[0]) + hi_err[0]
        for start in range(0, live.size, _PSI_BLOCK):
            idx = live[start:start + _PSI_BLOCK]
            re, im_j, e = _psi_block(model, np.abs(flat[idx]), hi_tail)
            value.real[idx] = re
            value.imag[idx] = -(model.p - model.q) * im_j
            err[idx] = e
        value[flat < 0.0] = value[flat < 0.0].conj()
    if lam.ndim == 0:
        return complex(value[0]), float(err[0])
    return value.reshape(lam.shape), err.reshape(lam.shape)


# ---------------------------------------------------------------- spectral


class SpectralFns:
    """Evaluators for R = Re 1/(beta+psi) and I = Im 1/(beta+psi).

    ``resolvent`` takes a number or an array of lam and evaluates psi once
    for all of it.  The asymptotic surrogate replaces psi by its
    leading form (pi/2) lam g(lam) + i (p-q) lam G(lam); ``l1_tail``
    integrates the drift-corrected surrogate over (Lam, infinity).  The
    drift fit, the spectral table and u(0) are computed on first use.
    """

    def __init__(self, model: LevyModel):
        self.model = model
        self.beta = model.beta
        self._drift: dict[str, tuple[float, float, float]] | None = None
        self._table: _Panels | None = None
        self._u0: tuple[float, float] | None = None
        w_cut = math.log(model.support_min) if model.support_min > 0 else 0.0
        # G_log(w): integral of g(s)/s from the support edge to e^w, elementwise
        self.G_log = _Antiderivative(model.g_of_log, w_cut)
        self._certify_integrability()

    # -- exact evaluators ------------------------------------------------
    def resolvent(self, lam):
        """R and I at lam with the psi error carried through them:
        |d(1/(beta+psi))| <= |d psi| / |beta+psi|^2."""
        value, err = psi_with_error(self.model, lam)
        inv = 1.0 / (self.beta + value)
        i = 0.0 * inv.real if self.model.symmetric else inv.imag
        return inv.real, i, err * np.abs(inv) ** 2

    # -- asymptotic surrogate in w = log(lam) space ----------------------
    def _asym_parts(self, w):
        re = self.beta * np.exp(-w) + (math.pi / 2.0) * self.model.g_of_log(w)
        im = 0.0 if self.model.symmetric else (self.model.p - self.model.q) * self.G_log(w)
        return re, im

    def R_asym_w(self, w):
        """e^w * R_asym(e^w); the e^w factor cancels analytically.  Written
        as 1/(re + im^2/re), so that g = inf far out gives 0."""
        re, im = self._asym_parts(w)
        return 1.0 / (re + im * (im / re))

    def I_asym_w(self, w):
        re, im = self._asym_parts(w)
        return -im / (re * re + im * im)

    def R_asym(self, lam):
        return self.R_asym_w(np.log(lam)) / lam

    def I_asym(self, lam):
        return self.I_asym_w(np.log(lam)) / lam

    # -- drift correction: exact/asym ratio fitted as 1 + a/w + b/w^2 ----
    def drift(self, which: str) -> tuple[float, float, float]:
        """Fit coefficients (a, b) and the fit residual for R or I; both
        fits share one psi batch."""
        if self._drift is None:
            ws = np.linspace(math.log(_LAM_EXACT_MAX / 16.0), math.log(_LAM_EXACT_MAX), 5)
            lams = np.exp(ws)
            r, i, _ = self.resolvent(lams)
            self._drift = {"R": self._fit(ws, r, self.R_asym(lams)),
                           "I": self._fit(ws, i, self.I_asym(lams))}
        return self._drift[which]

    @staticmethod
    def _fit(ws, exact, asym) -> tuple[float, float, float]:
        if np.any(asym == 0.0):
            return 0.0, 0.0, 0.0
        rhs = exact / asym - 1.0
        design = np.vstack([1.0 / ws, 1.0 / ws**2]).T
        coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        resid = float(np.abs(design @ coef - rhs).max())
        return float(coef[0]), float(coef[1]), resid

    def R_far(self, lam):
        a, b, _ = self.drift("R")
        w = np.log(lam)
        return self.R_asym(lam) * (1.0 + a / w + b / w**2)

    def I_far(self, lam):
        a, b, _ = self.drift("I")
        w = np.log(lam)
        return self.I_asym(lam) * (1.0 + a / w + b / w**2)

    def l1_tail(self, lam: float) -> tuple[float, float]:
        """Integral of R over (lam, infinity) via the drift-corrected
        surrogate, with its error: the panel estimates, the fit residual
        and the bound on the range beyond the panels.

        For p = q with gamma = 1 that bound is the exact integral of
        2/(pi g), which R_asym_w equals far out, where the panels stop
        (g overflows near w = e^696 and the drift factor is 1 to rounding);
        the rest is then added to the value.
        """
        a, b, resid = self.drift("R")
        g = self.model.g
        exact = self.model.symmetric and isinstance(g, LogPowerProfile) and g.gamma == 1.0
        val, err = _tail_integral(
            lambda w: self.R_asym_w(w) * (1.0 + a / w + b / w**2), math.log(lam),
            lambda w: (1.0 + abs(a) / w + abs(b) / w**2) * self._surrogate_rest(w), exact)
        return val, err + resid * abs(val)

    def _surrogate_rest(self, w):
        """Closed-form bound on the integral of R_asym_w over (w, infinity).

        For p != q, R_asym_w <= re / im^2, and the integral of g/G^2 over
        (w, infinity) is at most 1/G(w).  For p = q, R_asym_w <= 2/(pi g),
        whose tail the log-power profile bounds; no bound is known for
        other profiles (inf).
        """
        m = self.model
        if not m.symmetric:
            big_g = self.G_log(w)
            return ((math.pi / 2.0) / big_g + self.beta * np.exp(-w) / big_g**2) / (m.p - m.q) ** 2
        if isinstance(m.g, LogPowerProfile):
            return (2.0 / math.pi) * m.g.inverse_tail_bound(w)
        return np.full(np.shape(w), math.inf)

    def table(self) -> _Panels:
        """R and I on the panels of ``_table_edges`` up to _LAM_EXACT_MAX,
        one psi batch on first use."""
        if self._table is None:
            self._table = _resolvent_panels(self, _table_edges(self.model.support_min))
        return self._table

    def u_zero(self) -> tuple[float, float]:
        """u(0) = (1/pi) integral of R over (0, infinity) and its error:
        the table's panel integrals, then ``l1_tail(_LAM_EXACT_MAX)``."""
        if self._u0 is None:
            t = self.table()
            tail, tail_err = self.l1_tail(_LAM_EXACT_MAX)
            value = (2.0 * t.half * t.coef[0, :, 0]).sum() + tail
            self._u0 = value / math.pi, (t.err[0].sum() + tail_err) / math.pi
        return self._u0

    # -- integrability certificate ---------------------------------------
    def _certify_integrability(self) -> None:
        m = self.model
        if isinstance(m.g, LogPowerProfile) and m.symmetric:
            # R ~ 2/(pi lam g): the w-integral of 1/g converges iff
            # gamma > 1, or gamma = 1 with delta > 1
            ok = m.g.gamma > 1.0 or (m.g.gamma == 1.0 and m.g.delta > 1.0)
            if not ok:
                raise NotIntegrable(
                    f"R is not integrable for p = q with gamma = {m.g.gamma}, "
                    f"delta = {m.g.delta} (needs gamma > 1)"
                )
            return
        if isinstance(m.g, LogPowerProfile):
            return  # p != q with gamma > -1: the surrogate tail integrates finitely
        # tabulated profile: the surrogate tail on a geometric ladder of w,
        # one panel per rung
        rungs = np.log(20.0 * 1.6 ** np.arange(13.0))
        _, half, t = _legendre_panels(rungs[:-1], rungs[1:])
        pieces, _ = _legendre_integral(self.R_asym_w(np.exp(t)) * np.exp(t), half)
        total = pieces.sum()
        if total > 0 and pieces[-1] > 0.25 * total:
            raise NotIntegrable("surrogate spectral tail does not Cauchy-converge")


@functools.lru_cache(maxsize=8)
def spectral(model: LevyModel) -> SpectralFns:
    """Spectral evaluators for the model; certified integrable R or NotIntegrable.

    The most recently used models keep their evaluators (drift fits,
    spectral tables and u(0) included)."""
    return SpectralFns(model)


# ---------------------------------------------------------------- quadrature


def _table_edges(support_min: float) -> np.ndarray:
    """Panel edges of a model's spectral table over [0, _LAM_EXACT_MAX]: [0, 1],
    ratio-2 panels up to w, _UNIFORM_PANELS panels of width w, then ratio-sqrt 2
    panels.  w = _RIPPLE_PERIODS ripple periods 2 pi support_min, at least 1:
    the uniform panels resolve the ripple where it matters, and beyond them
    it is small against R."""
    w = max(_RIPPLE_PERIODS * 2.0 * math.pi * support_min, 1.0)
    top = min(_UNIFORM_PANELS * w, _LAM_EXACT_MAX)
    return np.unique(np.concatenate([
        [0.0], np.geomspace(1.0, w, math.ceil(math.log2(w)) + 1),
        np.minimum(w * np.arange(1.0, _UNIFORM_PANELS + 1.0), top),
        np.geomspace(top, _LAM_EXACT_MAX, math.ceil(2.0 * math.log2(_LAM_EXACT_MAX / top)) + 1)]))


class _Panels(NamedTuple):
    """R and I on Gauss-Legendre panels in lam: the edges, mid points, half
    widths, Legendre coefficients (2, P, _N_LEG) of R (row 0) and I (row 1),
    and their integration errors (2, P): the trailing-coefficient estimate
    plus the psi error carried through R and I, integrated over the panel."""

    edges: np.ndarray
    mid: np.ndarray
    half: np.ndarray
    coef: np.ndarray
    err: np.ndarray


def _resolvent_panels(sf: SpectralFns, edges: np.ndarray) -> _Panels:
    """One psi batch over the Gauss-Legendre nodes of the panels between
    consecutive edges."""
    mid, half, lam = _legendre_panels(edges[:-1], edges[1:])
    r, i, e = sf.resolvent(lam)
    coef = np.stack([r, i, e]) @ _legendre_rule()[1]
    trailing = np.abs(coef[:2, :, -1]) + np.abs(coef[:2, :, -2])
    return _Panels(edges, mid, half, coef[:2], 2.0 * half * (trailing + coef[2, :, 0]))


def _filon(mid: np.ndarray, half: np.ndarray, coef: np.ndarray, z: float) -> complex:
    """Sum over panels of the integral of e^{i lam z} times the Legendre
    series coef (P, _N_LEG) of each panel: Filon weights in lam."""
    return complex(np.sum(half * np.exp(1j * z * mid)
                          * np.sum(coef * _filon_moments(z * half), axis=1)))


@dataclass(frozen=True)
class PotentialValues:
    """u(z), u(-z) with their even/odd parts, u(0) and the increment metric
    sigma^2(z) = 2 u(0) - u(z) - u(-z) = 2 (u(0) - r_part); ``abserr``
    bounds the error of every field."""

    z: float
    u_plus: float
    u_minus: float
    r_part: float
    h_part: float
    u_zero: float
    sigma2: float
    abserr: float


def _exact_lobe_count(z: float) -> int:
    if z <= 0:
        return 0
    return max(2, min(_N_EXACT_LOBES, int(_LAM_EXACT_MAX * z / math.pi) - 1))


def _trig_transform(sf: SpectralFns, z: float, kind: str) -> tuple[float, float]:
    """(1/pi) integral of cos(lam z) R (kind "cos") or sin(lam z) I ("sin")
    over (0, infinity) and its error.

    The exact range runs up to lam_split, the end of _exact_lobe_count(z)
    half-period lobes: the table's panels below lam_split and one new panel
    that ends there (ratio-sqrt 2 panels if lam_split lies past the table),
    all by Filon weights.  _N_FAR_LOBES drift-corrected surrogate lobes
    follow, summed with Euler acceleration.

    The surrogate is psi's leading form only on the profile's support, and
    its drift factor 1 + a/w + b/w^2 is an expansion in 1/w: a lag whose
    lam_split lies below the support cut or below e (w < 1) is refused."""
    row, trig, far, which = ((0, np.cos, sf.R_far, "R") if kind == "cos"
                             else (1, np.sin, sf.I_far, "I"))
    far_edges = lobe_boundaries(z, kind, _N_FAR_LOBES, start_index=_exact_lobe_count(z))
    split = far_edges[0]
    floor = max(sf.model.support_min, math.e)
    if split < floor:
        raise OutOfRange(f"lag z = {z:g} is too large: its surrogate lobes would start at "
                         f"lam = {split:.4g}, below {floor:.4g}, where the surrogate is no "
                         f"asymptotic form of R")
    table = sf.table()
    k = int(np.searchsorted(table.edges, split, side="right")) - 1
    lo = table.edges[k]
    new = _resolvent_panels(sf, np.array([lo, split]) if split <= _LAM_EXACT_MAX else
                            np.geomspace(lo, split, math.ceil(2.0 * math.log2(split / lo)) + 1))
    exact = (_filon(table.mid[:k], table.half[:k], table.coef[row, :k], z)
             + _filon(new.mid, new.half, new.coef[row], z))
    _, half, nodes = _legendre_panels(far_edges[:-1], far_edges[1:])
    far_terms, far_err = _legendre_integral(trig(nodes * z) * far(nodes), half)
    lobes, accel_err = euler_accelerate(far_terms)
    _, _, resid = sf.drift(which)
    err = (table.err[row, :k].sum() + new.err[row].sum() + far_err.sum() + accel_err
           + resid * abs(far_terms[0]) * 4.0)
    return ((exact.real if kind == "cos" else exact.imag) + lobes) / math.pi, err / math.pi


def potential_bundle(model: LevyModel, z: float) -> PotentialValues:
    """All potential quantities at lag z (its sign is dropped).

    u(0) is the model's (``SpectralFns.u_zero``); the lag integrates only
    cos(lam z) R and, for p != q, sin(lam z) I."""
    if not math.isfinite(z):
        raise OutOfRange(f"lag z = {z} is not finite")
    sf = spectral(model)
    z = abs(z)
    u0, u0_err = sf.u_zero()
    if z == 0.0:
        return PotentialValues(z=0.0, u_plus=u0, u_minus=u0, r_part=u0, h_part=0.0,
                               u_zero=u0, sigma2=0.0, abserr=u0_err)
    r_part, r_err = _trig_transform(sf, z, "cos")
    h_part, h_err = (0.0, 0.0) if model.symmetric else _trig_transform(sf, z, "sin")
    return PotentialValues(
        z=z,
        u_plus=r_part + h_part,
        u_minus=r_part - h_part,
        r_part=r_part,
        h_part=h_part,
        u_zero=u0,
        sigma2=max(2.0 * (u0 - r_part), 0.0),
        abserr=2.0 * (u0_err + r_err) + h_err,
    )


@dataclass(frozen=True)
class Thm15Row:
    z: float
    sigma2: float
    h_part: float
    ratio: float


@dataclass(frozen=True)
class Thm15Report:
    """Checks |H(z)| <= C sigma^2(z) with C < 1/2 on the grid, fits the
    minorant sigma^2(z) >= c (log 1/z)^(-a), and reports f(1/n) log n."""

    rows: list[Thm15Row]
    sup_ratio: float
    condition_met: bool
    minorant_c: float
    minorant_a: float
    divergence: list[tuple[float, float]]
    diverges: bool


def check_thm15(model: LevyModel, z_grid) -> Thm15Report:
    rows = []
    for z in z_grid:
        b = potential_bundle(model, z)
        rows.append(Thm15Row(z=abs(z), sigma2=b.sigma2, h_part=b.h_part,
                             ratio=abs(b.h_part) / b.sigma2 if b.sigma2 > 0 else 0.0))
    sup_ratio = max(r.ratio for r in rows)
    xs = np.array([math.log(math.log(1.0 / r.z)) for r in rows])
    ys = np.array([math.log(r.sigma2) for r in rows])
    design = np.vstack([xs - xs.mean(), np.ones_like(xs)]).T
    (slope, mean_level), *_ = np.linalg.lstsq(design, ys, rcond=None)
    a = -float(slope)
    c = math.exp(float(mean_level) + a * float(xs.mean()))
    divergence = []
    for n in (1e2, 1e4, 1e8, 1e16, 1e32):
        logn = math.log(n)
        divergence.append((n, c * logn ** (1.0 - a)))
    return Thm15Report(
        rows=rows,
        sup_ratio=sup_ratio,
        condition_met=sup_ratio < 0.5,
        minorant_c=c,
        minorant_a=a,
        divergence=divergence,
        diverges=a < 1.0,
    )


@dataclass(frozen=True)
class Cor14Row:
    z: float
    lhs: float
    tail_integral: float
    implied_c: float
    holds: bool


@dataclass(frozen=True)
class Cor14Report:
    rows: list[Cor14Row]
    monotone_verified: bool
    divergence: list[tuple[float, float]]


def check_cor14(model: LevyModel, z_grid, n_grid=(1e2, 1e3, 1e4, 1e5, 1e6)) -> Cor14Report:
    """|z| integral of lam |I| over (0, pi/|z|) against half the R tail from
    pi/(2|z|); the implied constant must be below 1 for the criterion.

    The integrals come from the spectral table: the panels below the upper
    end and the antiderivative of its own panel's interpolant (absolute
    values panel by panel).  Every R tail is the table's part up to
    _LAM_EXACT_MAX plus ``l1_tail(_LAM_EXACT_MAX)``."""
    sf = spectral(model)
    leg = np.polynomial.legendre
    edges, mid, half, coef, _ = sf.table()
    r_coef = coef[0]
    lam_i_coef = (mid[:, None] * np.pad(coef[1], ((0, 0), (0, 1)))
                  + half[:, None] * np.apply_along_axis(leg.legmulx, 1, coef[1]))

    def below(c, x):
        k = min(int(np.searchsorted(edges, x, side="right")) - 1, half.size - 1)
        part = half[k] * leg.legval((x - mid[k]) / half[k], leg.legint(c[k], lbnd=-1))
        return float(np.abs(2.0 * half[:k] * c[:k, 0]).sum() + abs(part))

    far_tail, _ = sf.l1_tail(_LAM_EXACT_MAX)
    r_total = below(r_coef, _LAM_EXACT_MAX)
    rows = []
    for z in z_grid:
        z = abs(z)
        if math.pi / z > _LAM_EXACT_MAX:
            raise OutOfRange(f"check_cor14 needs |z| >= pi / {_LAM_EXACT_MAX:g}, got {z:g}")
        lhs = z * below(lam_i_coef, math.pi / z)
        tail_integral = r_total - below(r_coef, math.pi / (2 * z)) + far_tail
        implied = 2.0 * lhs / tail_integral
        rows.append(Cor14Row(z=z, lhs=lhs, tail_integral=tail_integral,
                             implied_c=implied, holds=implied < 1.0))
    lams = np.geomspace(1e3, _LAM_EXACT_MAX, 25)
    r_vals, i_vals, _ = sf.resolvent(lams)
    i_vals = np.abs(i_vals)
    slack = 1e-9
    monotone = bool(
        (np.diff(r_vals) <= slack * r_vals[:-1]).all()
        and (model.symmetric or (np.diff(i_vals) <= slack * np.maximum(i_vals[:-1], 1e-300)).all())
    )
    divergence = []
    for n in n_grid:
        split = max(float(n), 1e3)
        if split < _LAM_EXACT_MAX:
            tail = r_total - below(r_coef, split) + far_tail
        else:
            tail, _ = sf.l1_tail(split)
        divergence.append((float(n), tail * math.log(n)))
    return Cor14Report(rows=rows, monotone_verified=monotone, divergence=divergence)


UNBOUNDED_THM = "unbounded-by-Thm1.6"
UNBOUNDED_DISCUSSION = "unbounded-per-paper-discussion"
BOUNDED_DISCUSSION = "bounded-per-paper-discussion"
INDETERMINATE = "indeterminate-by-this-paper"


def classify_example11(gamma: float, delta: float, p: float, q: float) -> str:
    """Boundedness verdict for the log-power jump family."""
    if p < 0 or q < 0 or abs(p + q - 1.0) > 1e-12:
        raise OutOfRange("need p, q >= 0 with p + q = 1")
    if p != q:
        if gamma <= -1.0:
            raise OutOfRange("p != q needs gamma > -1")
        pivot = 0.0
    else:
        if gamma <= 1.0:
            raise OutOfRange("p = q needs gamma > 1")
        pivot = 2.0
    if gamma < pivot:
        return UNBOUNDED_THM
    if gamma == pivot:
        if delta < 0:
            return UNBOUNDED_THM
        if delta <= 2:
            return UNBOUNDED_DISCUSSION
        return BOUNDED_DISCUSSION
    return INDETERMINATE


@dataclass(frozen=True)
class Thm16Row:
    n: float
    statistic: float
    log_n: float
    ratio: float
    err: float


def check_thm16_integrals(gamma: float, delta: float, p: float, q: float, n_grid, *,
                          cut: float = DEFAULT_CUT) -> list[Thm16Row]:
    """The integral criterion against log n on the grid, with the error of
    each statistic: the integral of g(s)/s up to n for p != q, or the
    reciprocal of the integral of 1/g(e^w) over w > log n for p = q; g is
    supported on (cut, inf)."""
    classify_example11(gamma, delta, p, q)  # validates the parameter ranges
    profile = LogPowerProfile(gamma=gamma, delta=delta, cut=cut)
    w_cut = math.log(profile.cut)
    big_g = _Antiderivative(profile.of_log, w_cut) if p != q else None
    rows = []
    for n in n_grid:
        w_n = math.log(float(n))
        if big_g is not None:
            stat, err = big_g.with_error(w_n)
        else:
            inv, inv_err = _tail_integral(lambda w: 1.0 / profile.of_log(w), max(w_n, w_cut),
                                          profile.inverse_tail_bound)
            stat, err = 1.0 / inv, inv_err / inv**2
        if not math.isfinite(err):
            raise OutOfRange(f"no error bound for the Thm 1.6 statistic at n = {n:g}")
        rows.append(Thm16Row(n=float(n), statistic=stat, log_n=w_n, ratio=stat / w_n, err=err))
    return rows


@dataclass(frozen=True)
class AsymmetryRow:
    z: float
    u_plus: float
    u_minus: float
    u_zero: float
    sigma2: float
    h_part: float
    rel_steep: float
    rel_shallow: float


def asymmetry_asymptotics(model: LevyModel, z_grid) -> list[AsymmetryRow]:
    """Checks u(+-z) ~ u(0) - (sigma^2/2)(1 -+ |p-q|) near zero.

    The side with the larger potential pairs with the (1 - |p-q|) factor;
    which of +z/-z that is depends on the sign of p - q, so the rows report
    the relation for the shallow and steep side of the pair.
    """
    rows = []
    dpq = abs(model.p - model.q)
    for z in z_grid:
        b = potential_bundle(model, z)
        u_hi = max(b.u_plus, b.u_minus)
        u_lo = min(b.u_plus, b.u_minus)
        shallow = (b.u_zero - u_hi) / ((b.sigma2 / 2.0) * (1.0 - dpq)) if dpq < 1 else math.nan
        steep = (b.u_zero - u_lo) / ((b.sigma2 / 2.0) * (1.0 + dpq))
        rows.append(
            AsymmetryRow(
                z=b.z, u_plus=b.u_plus, u_minus=b.u_minus, u_zero=b.u_zero,
                sigma2=b.sigma2, h_part=b.h_part, rel_steep=steep, rel_shallow=shallow,
            )
        )
    return rows


def kernel_matrix(model: LevyModel, points) -> tuple[np.ndarray, float]:
    """Stationary kernel K[i, j] = u(t_j - t_i) over the points, with the
    worst per-entry quadrature error estimate.

    One bundle serves every run of lags |t_j - t_i| that agree with their
    sorted neighbour to _LAG_REL relative: the smallest of the run.  An
    equally spaced grid thus gives an exactly Toeplitz kernel, although
    rounding makes its j*h lags differ in the last bits."""
    t = np.array(points, dtype=float)
    lag = t[None, :] - t[:, None]
    lags, index = np.unique(np.abs(lag), return_inverse=True)
    new = np.diff(lags, prepend=-math.inf) > _LAG_REL * lags
    bundles = [potential_bundle(model, float(z)) for z in lags[new]]
    run = (np.cumsum(new) - 1)[index].reshape(lag.shape)
    u_plus = np.array([b.u_plus for b in bundles])
    u_minus = np.array([b.u_minus for b in bundles])
    K = np.where(lag >= 0, u_plus[run], u_minus[run])
    return K, max((b.abserr for b in bundles), default=0.0)
