import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from permanental import levy
from permanental.errors import NotIntegrable, OutOfRange
from permanental.example11 import classify_example11
from permanental.linalg import invert, validate_m_matrix
from permanental.markov import validate_appendix_lemma

from conftest import check_cor14, flat_psi

# shared models so the spectral caches persist across tests in this module
ASYM = levy.log_power_model(1.0, 0.8, 0.2, -0.5, 0.0)   # p != q, g = (log)^(-1/2)
MILD = levy.log_power_model(1.0, 0.6, 0.4, -0.5, 0.0)
SYM2 = levy.log_power_model(1.0, 0.5, 0.5, 2.0, 0.0)    # p = q, g = (log)^2
LOGLOG = levy.log_power_model(1.0, 0.8, 0.2, 0.0, 3.0)  # g = (log log)^3
SYM1 = levy.log_power_model(1.0, 0.5, 0.5, 1.0, 2.0)    # p = q, g = log (log log)^2
SYM15 = levy.log_power_model(1.0, 0.5, 0.5, 1.5, 0.0)   # p = q, g = (log)^1.5
CUT12 = levy.log_power_model(1.0, 0.8, 0.2, -0.5, 0.0, cut=1.2)  # ASYM with support from 1.2


def panel_edge_lams(model):
    """lam on the edges of psi's scaled panels: either side of the support
    cut (where lam x_cut passes 1), the cut times 2^10 (the clipped
    oscillatory panel is empty or a sliver) and 1e12 e^-24 (the head ends
    on a graded offset, lam X_LO = e^-24)."""
    cut = model.g.cut
    return [cut * (1.0 - 1e-9), cut * (1.0 + 1e-9), cut * 2.0**10, 1e12 * math.exp(-24.0)]


def oracle_psi(model, lam, dps=20):
    """psi of a log-power model by an independent method: tanh-sinh in log x
    on the head x <= min(1/lam, x_cut), and on [1/lam, x_cut] the plain and
    compensator integrals plus the trig part by steepest descent,
    integral of f e^{i lam x} = (i/lam) [e^{i lam x} integral over t > 0 of
    f(x + i t/lam) e^{-t}] from x = x_cut to x = 1/lam (f is analytic in the
    upper half plane there).  Same truncation at X_LO as psi."""
    gam, dl = model.g.gamma, model.g.delta
    with mp.workdps(dps):
        lam = mp.mpf(lam)

        def g_inv(x):
            big = -mp.log(x)
            val = big**gam
            return val * mp.log(big) ** dl if dl else val

        def f(x):
            return g_inv(x) / x**2

        x_lo, x_cut = mp.mpf(1e-12), 1 / mp.mpf(model.g.cut)
        x1 = min(1 / lam, x_cut)
        head = mp.linspace(mp.log(x_lo), mp.log(x1), 8)
        re = mp.quad(lambda w: (1 - mp.cos(lam * mp.exp(w))) * f(mp.exp(w)) * mp.exp(w), head)
        im = mp.quad(lambda w: (mp.sin(lam * mp.exp(w)) - lam * mp.exp(w))
                     * f(mp.exp(w)) * mp.exp(w), head)
        if x1 < x_cut:
            body = mp.linspace(mp.log(x1), mp.log(x_cut), 8)
            plain = mp.quad(lambda w: f(mp.exp(w)) * mp.exp(w), body)
            comp = mp.quad(lambda w: g_inv(mp.exp(w)), body)

            def descent(x):
                return mp.exp(1j * lam * x) * mp.quad(
                    lambda t: f(x + 1j * t / lam) * mp.exp(-t), [0, 1, 10, 50, mp.inf])

            trig = (1j / lam) * (descent(x1) - descent(x_cut))
            re += plain - trig.real
            im += trig.imag - lam * comp
        return complex(float(re), float(-(model.p - model.q) * im))


def oracle_r_part(sf, z, n_half=60):
    """(1/pi) integral of cos(lam z) R(lam) over (0, inf) from exact R only:
    30-point Gauss-Legendre on the head and on every quarter period up to
    n_half half periods, the half-period partial sums extrapolated by the
    Levin u-transform (no lobe layout, surrogate or Euler averaging)."""
    t, w = np.polynomial.legendre.leggauss(30)

    def panels(edges):
        mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
        lam = mid[:, None] + half[:, None] * t
        return (np.cos(lam * z) * sf.resolvent(lam)[0]) @ w * half

    period = math.pi / z
    head = panels(np.concatenate([[0.0], np.geomspace(1.0, period, 12)])).sum()
    quarters = panels(period * np.arange(2, 2 * n_half + 3) / 2.0)
    partial = np.cumsum(np.concatenate([[head], quarters[0::2] + quarters[1::2]]))
    with mp.workdps(30):
        value, _ = mp.levin(method="levin", variant="u").update_psum(
            [mp.mpf(float(x)) for x in partial])
    return float(value) / math.pi


def oracle_l1_tail(sf, lam, dps=20):
    """Integral of the drift-corrected surrogate R over (lam, infinity) by
    tanh-sinh in t = log log lam, G in closed form (an integer delta when
    p != q): with s = log u and c = gamma + 1, the integral of
    e^{c s} s^delta is e^{c s} sum_k (-1)^k delta!/(delta-k)! s^(delta-k) / c^(k+1)."""
    m, (a, b, _) = sf.model, sf.drift["R"]
    gam, dl = m.g.gamma, m.g.delta
    with mp.workdps(dps):
        w_cut = mp.log(m.g.cut)

        def anti(u):
            s, c = mp.log(u), gam + 1
            return u**c * mp.fsum((-1) ** k * mp.factorial(dl) / mp.factorial(dl - k)
                                  * s ** (dl - k) / c ** (k + 1) for k in range(int(dl) + 1))

        def integrand(t):
            w = mp.exp(t)
            re = mp.pi / 2 * w**gam * (mp.log(w) ** dl if dl else 1)
            if w < 1e4:
                re += m.beta * mp.exp(-w)
            im = (m.p - m.q) * (anti(w) - anti(w_cut)) if m.p != m.q else 0
            return w * re / (re**2 + im**2) * (1 + a / w + b / w**2)

        t0 = mp.log(mp.log(lam))
        return float(sum(mp.quad(integrand, seg) for seg in (
            [t0, t0 + 2], [t0 + 2, t0 + 10], [t0 + 10, t0 + 50], [t0 + 50, mp.inf])))


def oracle_u_zero(sf):
    """u(0) = (1/pi) integral of R over (0, inf) from exact R up to 2e8 by
    30-point Gauss-Legendre: on [0, 1], width-32 panels to 2e4 (they resolve
    the 2 pi e^2 ripple of the support cut) and ratio-sqrt 2 panels to 2e8;
    then oracle_l1_tail beyond 2e8, where the drift fit was made."""
    t, w = np.polynomial.legendre.leggauss(30)
    edges = np.concatenate([[0.0], np.arange(1.0, 2e4, 32.0),
                            np.minimum(2e4 * 2.0 ** (0.5 * np.arange(28)), 2e8)])
    mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
    head = (sf.resolvent(mid[:, None] + half[:, None] * t)[0] @ w * half).sum()
    return (head + oracle_l1_tail(sf, 2e8)) / math.pi


# ---------------------------------------------------------------- psi


def test_psi_flat_profile_matches_closed_form():
    # g == 1 beyond the cut, symmetric and not
    lams = np.array([0.5, 3.0, 47.0, 1e3, 1e5, 2e8])
    for p in (0.5, 0.8):
        model = levy.log_power_model(1.0, p, 1.0 - p, 0.0, 0.0)
        values, errs = levy.psi_with_error(model, lams)
        for lam, value, err in zip(lams, values, errs):
            want = flat_psi(lam, model.p, model.q, model.g.cut)
            assert abs(value - want) <= 1e-14 * abs(want)
            assert abs(value - want) <= err


def test_psi_hermitian_symmetry():
    for lam in (0.7, 12.0, 3000.0):
        plus = levy.psi_with_error(ASYM, lam)[0]
        minus = levy.psi_with_error(ASYM, -lam)[0]
        assert minus == plus.conjugate()
    assert levy.psi_with_error(ASYM, 0.0)[0] == 0.0


def test_psi_log_profile_real_ratio_at_1e4():
    model = levy.log_power_model(1.0, 0.8, 0.2, 1.0, 0.0)  # g = log
    value = levy.psi_with_error(model, 1e4)[0]
    target = (math.pi / 2) * 1e4 * model.g.of_log(math.log(1e4))
    assert abs(value.real / target - 1.0) <= 0.10


def test_psi_log_profile_imag_ratio_at_1e4():
    model = levy.log_power_model(1.0, 0.8, 0.2, 1.0, 0.0)
    value = levy.psi_with_error(model, 1e4)[0]
    sf = levy.spectral(model)
    target = (0.8 - 0.2) * 1e4 * sf.G_log(math.log(1e4))
    assert abs(value.imag / target - 1.0) <= 0.10


def test_psi_symmetric_model_is_real():
    assert levy.psi_with_error(SYM2, 123.4)[0].imag == 0.0


@pytest.mark.parametrize("model", [ASYM, LOGLOG, SYM15, CUT12],
                         ids=["gamma-0.5", "delta3", "sym-g1.5", "asym-cut1.2"])
def test_psi_matches_independent_oracle(model):
    lams = np.array([0.5, 50.0, 1e3, 1e5, 2e8, *panel_edge_lams(model)])
    values, errs = levy.psi_with_error(model, lams)
    for lam, value, err in zip(lams, values, errs):
        want = oracle_psi(model, lam)
        assert abs(value - want) <= err
        # the rule itself is exact to rounding; err is dominated by the X_LO cut
        assert abs(value - want) <= 1e-13 * abs(want)


def test_psi_batch_matches_batches_of_one():
    lams = np.array([-3e4, -2.0, 0.0, 0.7, 7.0, 7.5, 123.4, 5e6, *panel_edge_lams(ASYM)])
    values, errs = levy.psi_with_error(ASYM, lams)
    for lam, value, err in zip(lams, values, errs):
        one, one_err = levy.psi_with_error(ASYM, lam)
        assert isinstance(one, complex) and isinstance(one_err, float)
        assert abs(value - one) <= 1e-13 * abs(one)
        # error estimates of rounding-level size may differ in their last bits
        assert abs(err - one_err) <= 1e-14 * abs(one) + 1e-6 * one_err


@pytest.mark.parametrize("model", [ASYM, SYM15])
def test_psi_memory_is_bounded_below_lam_1(model):
    # a block of lam below 1 banks no panel, so all its panels get their
    # weights in the block; batching them keeps the peak near one batch
    lams = np.geomspace(1e-6, 0.99, levy._PSI_BLOCK)
    levy.psi_with_error(model, lams[:2])  # the per-model and per-process caches
    tracemalloc.start()
    try:
        levy.psi_with_error(model, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_filon_moments_match_spherical_bessel():
    omega = np.concatenate([np.geomspace(1e-6, 1e8, 500), [19.999, 20.0, 20.001]])
    k = np.arange(levy._N_LEG)
    want = 2.0 * (1j ** k) * scipy.special.spherical_jn(k, omega[:, None])
    assert np.abs(levy._filon_moments(omega) - want).max() <= 1e-13


def test_filon_in_lambda_matches_closed_form():
    # integral of e^{i z lam} e^{-lam} over (0, 16) on width-1 panels, where
    # 20 Legendre coefficients resolve e^{-lam} to rounding; z * half runs
    # from 1e-6 to 1e4, across both ways of taking the moments
    edges = np.arange(17.0)
    mid, half, lam = levy._legendre_panels(edges[:-1], edges[1:])
    coef = np.exp(-lam) @ levy._legendre_rule()[1]
    for z in np.geomspace(2e-6, 2e4, 61):
        want = (1.0 - np.exp((1j * z - 1.0) * 16.0)) / (1.0 - 1j * z)
        assert abs(levy._filon(mid, half, coef, z) - want) <= 1e-13


# ---------------------------------------------------------------- spectral


def test_spectral_integrable_family_cases():
    levy.spectral(SYM2)  # gamma = 2 > 1: fine
    levy.spectral(ASYM)  # p != q: fine


def test_spectral_not_integrable_symmetric_small_gamma():
    with pytest.raises(NotIntegrable):
        levy.spectral(levy.log_power_model(1.0, 0.5, 0.5, 1.0, 0.0))


def test_spectral_r_positive_and_i_sign():
    sf = levy.spectral(ASYM)
    for lam in (0.1, 10.0, 1e4):
        assert sf.resolvent(lam)[0] > 0.0
        assert sf.resolvent(lam)[1] < 0.0  # p > q makes Im psi positive
    assert sf.resolvent(0.0)[0] == pytest.approx(1.0)
    assert sf.resolvent(0.0)[1] == 0.0


def test_spectral_cache_is_bounded():
    for k in range(levy.spectral.cache_info().maxsize + 3):
        levy.spectral(levy.log_power_model(1.0 + k, 0.8, 0.2, -0.5, 0.0))
    info = levy.spectral.cache_info()
    assert info.currsize <= info.maxsize == 8


def test_spectral_arrays_match_scalars():
    sf = levy.spectral(ASYM)
    lams = np.array([0.0, 0.3, 10.0, 1e4])
    r, i, _ = sf.resolvent(lams)
    assert r.shape == i.shape == lams.shape
    for k, lam in enumerate(lams):
        assert r[k] == pytest.approx(sf.resolvent(lam)[0], rel=1e-13)
        assert i[k] == pytest.approx(sf.resolvent(lam)[1], rel=1e-13, abs=1e-300)


def test_spectral_large_beta_limit():
    model = levy.log_power_model(1e8, 0.5, 0.5, 2.0, 0.0)
    sf = levy.spectral(model)
    for lam in (0.5, 5.0, 50.0):
        assert sf.resolvent(lam)[0] == pytest.approx(1e-8, rel=1e-4)


def test_spectral_tail_vs_asymptotic_formula():
    # integral of R over (1/z, inf) ~ (pi/2)/|p-q| * ell(1/z) at z = 1e-4
    sf = levy.spectral(ASYM)
    tail, err = sf.l1_tail(1e4)
    ell = 1.0 / (0.6 * sf.G_log(math.log(1e4)))
    pred = (math.pi / 2) / 0.6 * ell
    assert abs(tail / pred - 1.0) <= 0.15
    assert err < 0.05 * tail


def test_G_log_matches_closed_form():
    # delta = 0: G(w) = (w^(gamma+1) - w_cut^(gamma+1)) / (gamma+1) past w_cut = 2
    for gam in (-0.5, 0.7):
        sf = levy.spectral(levy.log_power_model(1.0, 0.8, 0.2, gam, 0.0))

        def closed(w):
            return (np.asarray(w) ** (gam + 1) - 2.0 ** (gam + 1)) / (gam + 1)

        for w in (2.5, 10.0, 41.9, 42.0, 43.0, 1e3, 1e5):
            assert sf.G_log(w) == pytest.approx(closed(w), rel=1e-13)
        grid = np.array([[43.0, 50.0, 1e3], [2.5, 1e4, 77.0]])  # 2-D, mostly past 42
        assert np.allclose(sf.G_log(grid), closed(grid), rtol=1e-13, atol=0.0)
        assert sf.G_log(np.array([[2.0], [1.0]])).tolist() == [[0.0], [0.0]]
        # just above the cut G grows like g(w_cut) (w - w_cut), with g(w_cut) > 0
        assert sf.G_log(2.0 + 1e-6) == pytest.approx(2.0**gam * 1e-6, rel=1e-6)


@pytest.mark.parametrize("model", [ASYM, SYM2, SYM1], ids=["asym", "sym2", "sym-g1-d2"])
def test_l1_tail_matches_mpmath(model):
    sf = levy.spectral(model)
    for lam in (1e3, 1e6):
        tail, err = sf.l1_tail(lam)
        want = oracle_l1_tail(sf, lam)
        assert abs(tail - want) <= err
        if model is SYM1:
            # gamma = 1: the rest beyond the panels is added in closed form
            assert abs(tail - want) <= 1e-12
            assert err <= 1e-5


@pytest.mark.parametrize("model", [ASYM, LOGLOG, SYM15], ids=["asym", "loglog", "sym-g1.5"])
def test_u_zero_matches_oracle_within_abserr(model):
    sf = levy.spectral(model)
    u0, err = sf.u_zero
    assert abs(u0 - oracle_u_zero(sf)) <= err


# ---------------------------------------------------------------- potentials


def test_potential_bundle_at_zero_lag():
    b = levy.potential_bundle(SYM2, 0.0)
    assert b.h_part == 0.0
    assert b.u_plus == b.u_minus == b.r_part == b.u_zero
    assert b.sigma2 == 0.0


def test_potential_bundle_symmetric_model_has_no_odd_part():
    b = levy.potential_bundle(SYM2, 1e-3)
    assert b.h_part == 0.0
    assert b.u_plus == b.u_minus


def test_potential_bundle_construction_identity():
    b = levy.potential_bundle(ASYM, 1e-3)
    assert b.u_plus + b.u_minus == pytest.approx(2 * b.r_part, rel=1e-14)
    assert b.u_plus - b.u_minus == pytest.approx(2 * b.h_part, rel=1e-12)


def test_sigma2_zero_at_origin_and_monotone_small_z():
    # at z = 1e-8 the exact range ends past the spectral table
    vals = [levy.potential_bundle(SYM2, z).sigma2 for z in (1e-8, 1e-5, 1e-4, 1e-3)]
    assert levy.potential_bundle(SYM2, 0.0).sigma2 == 0.0
    assert 0.0 < vals[0] < vals[1] < vals[2] < vals[3]


def test_sigma2_symmetric_vs_tail_integral_formula():
    # (6.5m): sigma^2(z) ~ (4/pi^2) integral of 1/(lam g) over (1/z, inf)
    value = levy.potential_bundle(SYM2, 1e-4).sigma2
    v1, _ = scipy.integrate.quad(
        lambda w: 1.0 / SYM2.g.of_log(w), math.log(1e4), 400, limit=500
    )
    v2, _ = scipy.integrate.quad(
        lambda w: 1.0 / SYM2.g.of_log(w), 400, np.inf, limit=500
    )
    pred = (4 / math.pi**2) * (v1 + v2)
    assert abs(value / pred - 1.0) <= 0.15


@pytest.mark.parametrize("model", [ASYM, LOGLOG, SYM15], ids=["asym", "loglog", "sym-g1.5"])
def test_potential_bundle_shares_the_model_u_zero(model):
    u0 = levy.potential_bundle(model, 0.0).u_zero
    for z in (1e-4, 0.3, 1.8):
        assert levy.potential_bundle(model, z).u_zero == u0


def test_sigma2_matches_oracle_within_abserr():
    sf = levy.spectral(ASYM)
    b = levy.potential_bundle(ASYM, 1e-3)
    want = 2.0 * (oracle_u_zero(sf) - oracle_r_part(sf, 1e-3))
    assert abs(b.sigma2 - want) <= b.abserr


@pytest.mark.parametrize("model, z", [(ASYM, 1e-3), (SYM2, 0.05)], ids=["asym", "sym"])
def test_potential_r_part_matches_levin_oracle(model, z):
    b = levy.potential_bundle(model, z)
    assert abs(b.r_part - oracle_r_part(levy.spectral(model), z)) <= b.abserr


# Bundles at the commit before the spectral table (Gauss-Kronrod panels with
# bisection, u(0) from panels to 1e6): (cut, p, gamma, z) ->
# (u_plus, u_minus, abserr).  The cut sets the period 2 pi cut of the ripple
# in R that the table's panel width follows.
_BUNDLES_BEFORE_TABLE = {
    (1.2, 0.8, -0.5, 0.0): (1.3597914262880866, 1.3597914262880866, 2.7738e-06),
    (1.2, 0.8, -0.5, 0.05): (0.5632344456213485, 0.9506332328800844, 5.6628e-06),
    (1.2, 0.8, -0.5, 0.3): (0.3824589221505626, 0.5130658887276702, 5.6861e-06),
    (1.2, 0.5, 1.5, 0.0): (0.8665172956682738, 0.8665172956682738, 2.6905e-06),
    (1.2, 0.5, 1.5, 0.05): (0.5956863104304126, 0.5956863104304126, 5.4054e-06),
    (1.2, 0.5, 1.5, 0.3): (0.4213068136372774, 0.4213068136372774, 5.4168e-06),
    (1.5, 0.8, -0.5, 0.0): (1.5884421034876641, 1.5884421034876641, 3.1474e-06),
    (1.5, 0.8, -0.5, 0.05): (0.6799229416056163, 1.0814031197220022, 6.3499e-06),
    (1.5, 0.8, -0.5, 0.3): (0.442921023805978, 0.5497755433524392, 6.3747e-06),
    (1.5, 0.5, 1.5, 0.0): (0.8701700641791797, 0.8701700641791797, 2.6905e-06),
    (1.5, 0.5, 1.5, 0.05): (0.5992995863374759, 0.5992995863374759, 5.4053e-06),
    (1.5, 0.5, 1.5, 0.3): (0.4240786395257248, 0.4240786395257248, 5.4168e-06),
    (20.0, 0.8, -0.5, 0.0): (5.603513488848166, 5.603513488848166, 4.9472e-06),
    (20.0, 0.8, -0.5, 0.05): (2.7299421849100542, 2.933194424726375, 1.0133e-05),
    (20.0, 0.8, -0.5, 0.3): (0.3148145769432698, 0.30510031953132916, 1.0294e-05),
    (20.0, 0.5, 1.5, 0.0): (1.2961280598772307, 1.2961280598772307, 2.6920e-06),
    (20.0, 0.5, 1.5, 0.05): (0.9904924032304464, 0.9904924032304464, 5.4085e-06),
    (20.0, 0.5, 1.5, 0.3): (0.5695503658130259, 0.5695503658130259, 5.4199e-06),
    (100.0, 0.8, -0.5, 0.0): (12.200314718961739, 12.200314718961739, 3.4209e-06),
    (100.0, 0.8, -0.5, 0.05): (3.6258210221458067, 3.7011736732718563, 7.2217e-06),
    (100.0, 0.8, -0.5, 0.3): (0.017110208641615932, 0.01511484403212512, 7.3916e-06),
    (100.0, 0.5, 1.5, 0.0): (2.094367881522008, 2.094367881522008, 2.6996e-06),
    (100.0, 0.5, 1.5, 0.05): (1.5912602757046914, 1.5912602757046914, 5.4252e-06),
    (100.0, 0.5, 1.5, 0.3): (0.6062190315670788, 0.6062190315670788, 5.4363e-06),
}


@pytest.mark.parametrize("cut", [1.2, 1.5, 20.0, 100.0])
@pytest.mark.parametrize("p, gamma", [(0.8, -0.5), (0.5, 1.5)], ids=["asym", "sym-g1.5"])
def test_table_panel_width_follows_the_support_cut(cut, p, gamma):
    model = levy.log_power_model(1.0, p, 1.0 - p, gamma, 0.0, cut=cut)
    for z in (0.0, 0.05, 0.3):
        u_plus, u_minus, before_err = _BUNDLES_BEFORE_TABLE[(cut, p, gamma, z)]
        b = levy.potential_bundle(model, z)
        assert b.abserr <= 1.5 * before_err
        assert abs(b.u_plus - u_plus) <= b.abserr + before_err
        assert abs(b.u_minus - u_minus) <= b.abserr + before_err


# (u_plus, u_minus, abserr), exact: the refusal of lags past the support cut
# leaves every lag that it answers unchanged
_KEPT_LAGS = {
    ("ASYM", 0.9): (0.03085971979020367, 0.02565741304050743, 8.697761353531462e-06),
    ("ASYM", 20.0): (0.0005955108329383538, 0.0012817248329664683, 9.25239619795628e-06),
    ("SYM15", 1.8): (0.04208388925089919, 0.04208388925089919, 5.339905301750392e-06),
    ("LOGLOG", 1.8): (0.005322986367982306, 0.004807613401851568, 1.1605607624121515e-06),
}


@pytest.mark.parametrize("name, z", sorted(_KEPT_LAGS))
def test_answered_lags_keep_their_values(name, z):
    b = levy.potential_bundle({"ASYM": ASYM, "SYM15": SYM15, "LOGLOG": LOGLOG}[name], z)
    assert (b.u_plus, b.u_minus, float(b.abserr)) == _KEPT_LAGS[(name, z)]


@pytest.mark.parametrize("z", [50.0, 100.0])
def test_lags_whose_surrogate_starts_below_the_cut_are_refused(z):
    # at z = 50 the surrogate lobes would start at lam = 3.05 < e^2, and
    # u_plus came out at -0.039 with abserr 8.4e-3
    with pytest.raises(OutOfRange):
        levy.potential_bundle(ASYM, z)


def test_refusal_starts_where_lam_split_passes_the_cut():
    edge = 97.0 * math.pi / (2.0 * ASYM.g.cut)  # lam_split of the cos lobes
    assert levy.potential_bundle(ASYM, edge * (1.0 - 1e-9)).u_plus > 0.0
    with pytest.raises(OutOfRange):
        levy.potential_bundle(ASYM, edge * (1.0 + 1e-9))


@pytest.mark.parametrize("z", [1e-20, 1e-50, 1e-100])
def test_vanishing_lags_are_refused_on_one_panel(monkeypatch, z):
    # lam_split lies far past the table: the last of its panels (20 psi
    # nodes) already carries an error bound above u(0), so none of the other
    # panels (about 625 at 1e-100) is built
    levy.spectral(ASYM).table
    built = []
    real = levy._resolvent_panels
    monkeypatch.setattr(levy, "_resolvent_panels",
                        lambda sf, edges: built.append(len(edges)) or real(sf, edges))
    with pytest.raises(OutOfRange, match=f"lag z = {z:g} is too small: its error bound"):
        levy.potential_bundle(ASYM, z)
    assert built == [2]


def test_lag_whose_bundle_error_reaches_u_zero_is_refused():
    # each panel passes, but the bundle's abserr (19.3) exceeds u(0) = 3.52
    with pytest.raises(OutOfRange, match=r"lag z = 1e-15 is too small: its error bound 19\.3 "
                                         r"reaches u\(0\) = 3\.5177"):
        levy.potential_bundle(ASYM, 1e-15)
    b = levy.potential_bundle(ASYM, 1e-14)
    assert b.abserr < b.u_zero


@pytest.mark.xfail(strict=True, reason=(
    "the drift-corrected surrogate that continues the lobes past lam = 508 is "
    "3.9% above exact R there; the Euler sum inherits about 3e-5 of it (2.8e-5 off "
    "the Levin oracle), which abserr (8.6e-6) does not count"))
def test_potential_r_part_oracle_at_large_lag():
    b = levy.potential_bundle(ASYM, 0.3)
    assert abs(b.r_part - oracle_r_part(levy.spectral(ASYM), 0.3)) <= b.abserr


# ---------------------------------------------------------------- theorems


def test_cor14_symmetric_trivially_holds():
    rep = check_cor14(SYM2, 1e-4)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.holds


def test_cor14_small_asymmetry_holds_near_2dpq():
    rep = check_cor14(MILD, 1e-4)
    assert rep.holds
    assert 0.4 * 0.8 <= rep.implied_c <= 1.0  # approaches 2|p-q| = 0.4 from above
    assert rep.monotone_verified


def test_cor14_large_asymmetry_fails():
    rep = check_cor14(ASYM, 1e-4)
    assert not rep.holds
    assert rep.implied_c > 1.0


# ---------------------------------------------------------------- classifier


def test_classifier_spec_examples():
    assert classify_example11(-0.5, 0.0, 0.8, 0.2) == "unbounded-by-Thm1.6"
    assert classify_example11(1.5, 0.0, 0.5, 0.5) == "unbounded-by-Thm1.6"
    assert classify_example11(0.0, 3.0, 0.8, 0.2) == "bounded-per-paper-discussion"


def test_classifier_out_of_range():
    with pytest.raises(OutOfRange):
        classify_example11(-1.5, 0.0, 0.8, 0.2)
    with pytest.raises(OutOfRange):
        classify_example11(0.5, 0.0, 0.5, 0.5)
    with pytest.raises(OutOfRange):
        classify_example11(1.0, 0.0, 0.7, 0.2)


# ---------------------------------------------------------------- thm 1.6


def test_thm16_asymmetric_sqrt_log_growth():
    rows = levy.check_thm16_integrals(ASYM, [1e2, 1e4, 1e8, 1e16])
    for row in rows:
        # closed form: 2 (sqrt(log n) - sqrt(2)) with the e^2 cut
        expected = 2 * (math.sqrt(row.log_n) - math.sqrt(2.0))
        assert row.statistic == pytest.approx(expected, rel=1e-8)
    # the cut offset makes the ratio hump at small n; it vanishes beyond
    deep = levy.check_thm16_integrals(ASYM, [1e4, 1e8, 1e16, 1e32])
    ratios = [r.ratio for r in deep]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_thm16_asymmetric_statistic_is_the_surrogates_g():
    # for p != q the statistic is G(log n) of the model's spectral evaluators
    sf = levy.spectral(ASYM)
    for row in levy.check_thm16_integrals(ASYM, [1e2, 1e8]):
        assert (row.statistic, row.err) == sf.G_log.with_error(row.log_n)


def test_thm16_symmetric_three_halves_vanishing_ratio():
    rows = levy.check_thm16_integrals(SYM15, [1e2, 1e4, 1e8, 1e16])
    ratios = [row.ratio for row in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    # statistic ~ C sqrt(log n): the normalized values stabilize
    normalized = [row.statistic / math.sqrt(row.log_n) for row in rows]
    assert abs(normalized[-1] / normalized[-2] - 1.0) < 0.1


def test_thm16_symmetric_statistic_within_error_of_closed_form():
    # delta = 0: 1/g(e^w) = w^-gamma integrates to w^(1-gamma)/(gamma-1), so
    # the statistic is (gamma-1) (log n)^(gamma-1).  At gamma = 1.03, w^gamma
    # overflows before w = e^700; the panels stop there, and the error holds
    # the closed-form bound on the rest.
    for gam in (1.03, 1.5):
        model = levy.log_power_model(1.0, 0.5, 0.5, gam, 0.0)
        for row in levy.check_thm16_integrals(model, [1e2, 1e8, 1e300]):
            exact = (gam - 1.0) * row.log_n ** (gam - 1.0)
            assert abs(row.statistic - exact) <= row.err + 1e-15 * exact
            assert row.err <= 2e-9 * exact


def test_thm16_symmetric_refuses_without_tail_bound():
    # gamma - 1 + delta / log w stays negative up to w = e^700: no closed-form
    # bound on the rest of the integral of 1/g, so no error and no statistic
    with pytest.raises(OutOfRange):
        levy.check_thm16_integrals(levy.log_power_model(1.0, 0.5, 0.5, 1.001, -2.0), [1e2])


def test_thm16_symmetric_log_squared_ratio_grows():
    model = levy.log_power_model(1.0, 0.5, 0.5, 2.0, 1.0)
    rows = levy.check_thm16_integrals(model, [1e2, 1e4, 1e8, 1e16])
    ratios = [row.ratio for row in rows]
    assert ratios[-1] > ratios[0]


# ---------------------------------------------------------------- kernels


def test_kernel_matrix_two_points_symmetric_model():
    K, err = levy.kernel_matrix(SYM2, [0.0, 5e-4])
    assert K[0, 1] == pytest.approx(K[1, 0], rel=1e-14)
    assert K[0, 0] == pytest.approx(K[1, 1], rel=1e-14)
    assert err < 1e-3


def test_kernel_matrix_constant_diagonal_and_m_inverse():
    pts = [j * 1e-3 / 4 for j in range(1, 5)]
    K, err = levy.kernel_matrix(SYM2, pts)
    assert np.ptp(np.diag(K)) == 0.0
    # at linalg.SIGN_TOL: the largest off-diagonal entry of A is 0.0 and the
    # smallest entry of K is 0.63, so no sign is near the tolerance
    pair = validate_m_matrix(invert(K))
    assert pair.n == 4
    rep = validate_appendix_lemma(K)
    assert rep.passed


def test_kernel_matrix_equally_spaced_grid_is_toeplitz():
    # j * 0.3 rounds to lags that differ in the last bits; they share bundles
    pts = [j * 0.3 for j in range(4)]
    assert len({abs(t - s) for s in pts for t in pts}) > 4
    K, _ = levy.kernel_matrix(ASYM, pts)
    for d in range(-3, 4):
        assert len(set(np.diag(K, d))) == 1
    b = levy.potential_bundle(ASYM, 0.3)
    assert K[0, 1] == pytest.approx(b.u_plus, rel=1e-12)
    assert K[1, 0] == pytest.approx(b.u_minus, rel=1e-12)


def test_kernel_matrix_costs_the_table_and_one_panel_per_lag(monkeypatch):
    nodes = []
    psi_with_error = levy.psi_with_error

    def counted(model, lam):
        nodes.append(np.size(lam))
        return psi_with_error(model, lam)

    monkeypatch.setattr(levy, "psi_with_error", counted)
    levy.spectral.cache_clear()  # the table is built inside the count
    levy.kernel_matrix(ASYM, [j * 0.05 for j in range(16)])
    table_nodes = levy.spectral(ASYM).table.half.size * levy._N_LEG
    # the table, the 5-point drift fit, one cos and one sin panel per lag
    assert sum(nodes) <= table_nodes + 5 + 15 * 2 * levy._N_LEG


def test_kernel_matrix_builds_G_only_for_asymmetric_models():
    # G enters psi's leading form only through (p - q); fresh models (beta = 2)
    # build their evaluators inside the call
    sym = levy.log_power_model(2.0, 0.5, 0.5, 1.5, 0.0)
    asym = levy.log_power_model(2.0, 0.8, 0.2, -0.5, 0.0)
    levy.kernel_matrix(sym, [0.0, 0.4])
    levy.kernel_matrix(asym, [0.0, 0.4])
    assert "G_log" not in vars(levy.spectral(sym))
    assert "G_log" in vars(levy.spectral(asym))


def test_sin_minus_lin_takes_the_series_only_below_one_half():
    u = np.array([[1e-3, 0.49], [0.5, 1e200]])
    got = levy._sin_minus_lin(u)  # the series would overflow at 1e200
    for x in (1e-3, 0.49):
        want = float(mp.sin(mp.mpf(x)) - mp.mpf(x))
        assert got[u == x][0] == pytest.approx(want, rel=1e-15)
    assert got[1].tolist() == (np.sin(u[1]) - u[1]).tolist()


def test_non_finite_spectral_values_are_refused_by_input():
    # g = (log y)^1e300 is inf on the whole support: psi and the table are not finite
    with pytest.raises(OutOfRange, match="gamma=1e\\+300"):
        levy.potential_bundle(levy.log_power_model(1.0, 0.8, 0.2, 1e300, 0.0), 0.3)
    # lam_split = 7.9e300, where psi's error bound is not finite
    with pytest.raises(OutOfRange, match="lag z = 1e-300"):
        levy.potential_bundle(ASYM, 1e-300)
    for p in (0.5, 0.8):
        with pytest.raises(OutOfRange, match="gamma = 1e\\+300"):
            levy.check_thm16_integrals(levy.log_power_model(1.0, p, 1.0 - p, 1e300, 0.0), [1e2])


def test_spectral_parity_even_odd():
    sf = levy.spectral(ASYM)
    for lam in (3.0, 250.0):
        assert sf.resolvent(-lam)[0] == pytest.approx(sf.resolvent(lam)[0], rel=1e-12)
        assert sf.resolvent(-lam)[1] == pytest.approx(-sf.resolvent(lam)[1], rel=1e-12)
