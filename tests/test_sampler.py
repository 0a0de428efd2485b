import collections
import math

import numpy as np
import pytest
import scipy.stats

from permanental import sampler
from permanental.errors import DimensionTooLarge, TruncationInfeasible
from permanental.gamma_tails import gamma_tail_exact
from permanental.model import PermanentalSpec, direct_laplace, z_masses
from permanental.sampler import RngStream, check_permanental_inequality, Moments, sample_chunks

from conftest import gather, laplace_means, make_corpus, oracle_chunks

SPEC2 = PermanentalSpec.from_m_matrix([[2.0, -1.0], [-1.0, 2.0]], 1.0)


# ---------------------------------------------------------------- gamma draws

# A diagonal A has B~ = 0, so Z = 0 and no loop soup draws precede the
# gammas: coordinate i is standard_gamma(alpha) / a_i from substream 0.


def _diagonal(alpha, scales):
    return PermanentalSpec.from_m_matrix(np.diag(scales), alpha)


def test_gamma_mean_exponential():
    draws = gather(sample_chunks(_diagonal(1.0, [1.0, 1.0]), 5 * 10**5, RngStream(11)))[0]
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert draws.mean() == pytest.approx(1.0, abs=4 * se)


def test_gamma_scaling_law_exact():
    a = 2.7
    at_scale = gather(sample_chunks(_diagonal(0.9, [a, 1.0]), 1000, RngStream(12)))[0]
    at_unit = gather(sample_chunks(_diagonal(0.9, [1.0, 1.0]), 1000, RngStream(12)))[0]
    np.testing.assert_array_equal(at_scale, at_unit / [a, 1.0])
    want = RngStream(12).generator(0).standard_gamma(0.9, size=(1000, 2)) / [a, 1.0]
    assert at_scale.tobytes() == want.tobytes()


def test_gamma_tail_frequency_vs_exact():
    draws = gather(sample_chunks(_diagonal(2.0, [1.0, 1.0]), 5 * 10**5, RngStream(13)))[0]
    hits = (draws >= 5.0).mean()
    want = gamma_tail_exact(2.0, 1.0, 5.0)
    assert want == pytest.approx(6 * math.exp(-5.0), rel=1e-12)
    se = math.sqrt(want * (1 - want) / draws.size)
    assert hits == pytest.approx(want, abs=4 * se)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
def test_spec_refuses_a_gamma_shape_that_is_not_positive(alpha):
    # every gamma shape the sampler draws is alpha or alpha + Z_i
    with pytest.raises(ValueError, match="alpha must be positive"):
        _diagonal(alpha, [1.0, 1.0])


# ---------------------------------------------------------------- Z draws


# Z specs: unit and non-unit diagonals, alpha 1, 0.5 and 2.3; the first row
# of ROWSUM's B~ = D^-1 B sums to 1.2 (its Perron root is 0.54)
ROWSUM = PermanentalSpec.from_m_matrix(
    np.diag([2.0, 1.0, 0.5]) @ (np.eye(3) - np.array([[0.0, 0.7, 0.5],
                                                     [0.2, 0.0, 0.1],
                                                     [0.1, 0.3, 0.0]])), 2.3)
Z_SPECS = (SPEC2, make_corpus(1, (3,), kill_min=0.1, seed0=1002, alphas=(0.5,))[0], ROWSUM)


def test_sample_z_diagonal_always_zero():
    spec = PermanentalSpec.from_m_matrix(np.diag([2.0, 3.0]), 1.0)
    _, _, z = gather(sample_chunks(spec, 1000, RngStream(21), with_coupling=True))
    assert (z == 0).all()


def test_sample_z_zero_mass_frequency():
    n_draws = 200_000
    for seed, spec in enumerate(Z_SPECS, 23):
        bt = spec.pair.B / spec.pair.diag_a[:, None]
        want = np.linalg.det(np.eye(spec.n) - bt) ** spec.alpha
        draws = gather(sample_chunks(spec, n_draws, RngStream(seed)))[2]
        freq = (draws.sum(axis=1) == 0).mean()
        se = math.sqrt(want * (1 - want) / n_draws)
        assert freq == pytest.approx(want, abs=4 * se)


def test_sample_z_histogram_chi_square():
    n_draws = 200_000
    for seed, spec in enumerate(Z_SPECS, 26):
        zd = z_masses(spec, 1 - 1e-9)
        draws = gather(sample_chunks(spec, n_draws, RngStream(seed)))[2]
        counts = collections.Counter(map(tuple, draws.tolist()))
        keys = [k for k, m in zd.masses.items() if m * n_draws >= 10]
        observed = [counts[k] for k in keys]
        expected = [zd.masses[k] * n_draws for k in keys]
        rest_obs = n_draws - sum(observed)
        rest_exp = n_draws - sum(expected)
        if rest_exp > 5:
            observed.append(rest_obs)
            expected.append(rest_exp)
        stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        p_value = scipy.stats.chi2.sf(stat, df=len(observed) - 1)
        assert p_value > 0.001, (spec.n, spec.alpha)


def test_walker_slices_keep_the_z_law(monkeypatch):
    # r_0 = 0.81: a chunk of 64 rows makes about 270 excursions from state 0,
    # walked in slices of at most 64 walkers
    monkeypatch.setattr(sampler, "_CHUNK", 64)
    monkeypatch.setattr(sampler, "_WALKERS", 64)
    spec = PermanentalSpec.from_m_matrix([[1.0, -0.9], [-0.9, 1.0]], 1.0)
    z = gather(sample_chunks(spec, 20_000, RngStream(39)))[2]
    want = spec.alpha * (spec.pair.diag_a * np.diag(spec.pair.K) - 1.0)
    se = z.std(ddof=1, axis=0) / math.sqrt(z.shape[0])
    assert np.all(np.abs(z.mean(axis=0) - want) <= 5 * se)
    zero = (z.sum(axis=1) == 0).mean()  # P(Z = 0) = det(I - B~) = 0.19
    assert zero == pytest.approx(0.19, abs=4 * math.sqrt(0.19 * 0.81 / z.shape[0]))


def test_eight_dimensional_spec_samples():
    spec = make_corpus(1, (8,), kill_min=0.5, seed0=4343)[0]
    with pytest.raises(DimensionTooLarge):  # past the Z enumeration's grid cap
        z_masses(spec, 1 - 1e-9)
    draws = gather(sample_chunks(spec, 20_000, RngStream(38)))[0]
    target = spec.alpha * np.diag(spec.pair.K)
    se = draws.std(ddof=1, axis=0) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - target) <= 5 * se)


# ---------------------------------------------------------------- batches


def test_coupled_batch_lower_bound_exact():
    for x, lower, _ in sample_chunks(SPEC2, 50_000, RngStream(31), with_coupling=True):
        assert float((x - lower).min()) >= 0.0


def test_batch_reproducibility_bitwise():
    a = gather(sample_chunks(SPEC2, 10_000, RngStream(32), with_coupling=True))
    b = gather(sample_chunks(SPEC2, 10_000, RngStream(32), with_coupling=True))
    for got, want in zip(a, b, strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("couple", [False, True], ids=["plain", "couple"])
def test_chunks_filled_in_place_match_concatenated_chunks(monkeypatch, couple):
    monkeypatch.setattr(sampler, "_CHUNK", 777)
    spec = make_corpus(1, (4,), kill_min=0.6, seed0=99)[0]
    want = gather(oracle_chunks(spec, 5000, RngStream(36, 2), with_coupling=couple))
    got = gather(sample_chunks(spec, 5000, RngStream(36, 2), with_coupling=couple))
    for a, b in zip(got, want, strict=True):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_diagonal_marginals_match_gamma_moments():
    alpha, scales = 1.5, np.array([2.0, 0.5])
    spec = PermanentalSpec.from_m_matrix(np.diag(scales), alpha)
    draws = gather(sample_chunks(spec, 400_000, RngStream(34)))[0]
    means = draws.mean(axis=0)
    vars_ = draws.var(ddof=1, axis=0)
    np.testing.assert_allclose(means, alpha / scales, rtol=0.02)
    np.testing.assert_allclose(vars_, alpha / scales**2, rtol=0.03)


def test_batch_mean_matches_alpha_kernel_diagonal():
    draws = gather(sample_chunks(SPEC2, 400_000, RngStream(35)))[0]
    target = SPEC2.alpha * np.diag(SPEC2.pair.K)
    se = draws.std(ddof=1, axis=0) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - target) <= 4 * se)


# ---------------------------------------------------------------- Laplace MC


def test_empirical_laplace_at_zero():
    [(val, se)] = laplace_means(sample_chunks(SPEC2, 1000, RngStream(41)), [[0.0, 0.0]])
    assert val == 1.0
    assert se == 0.0


def test_empirical_laplace_2x2_example():
    [(val, se)] = laplace_means(sample_chunks(SPEC2, 10**6, RngStream(42)), [[1.0, 1.0]])
    assert val == pytest.approx(0.375, abs=4 * se)


def test_empirical_laplace_markov_corpus_points():
    spec = make_corpus(1, (3,), kill_min=0.6, seed0=4242, alphas=(2.0,))[0]
    s_points = np.random.default_rng(44).random((5, 3)) * 2
    means = laplace_means(sample_chunks(spec, 200_000, RngStream(43)), s_points)
    good = sum(abs(val - direct_laplace(spec, s)) <= 4 * se
               for s, (val, se) in zip(s_points, means))
    assert good >= 4


def test_empirical_laplace_at_n32():
    # far past the Z enumeration: B~ has Perron root 0.9, and E sum Z is about 8
    q = np.random.default_rng(3232).random((32, 32)) + 0.05
    np.fill_diagonal(q, 0.0)
    spec = PermanentalSpec.from_m_matrix(np.eye(32) - q * (0.9 / max(abs(np.linalg.eigvals(q)))),
                                         1.0)
    s_points = np.random.default_rng(46).random((5, 32)) * 0.2
    means = laplace_means(sample_chunks(spec, 50_000, RngStream(45)), s_points)
    good = sum(abs(val - direct_laplace(spec, s)) <= 4 * se
               for s, (val, se) in zip(s_points, means))
    assert good >= 4


# ---------------------------------------------------------------- chunk stream


def test_chunks_arrive_in_order_one_substream_each(monkeypatch):
    monkeypatch.setattr(sampler, "_CHUNK", 300)
    spec = make_corpus(1, (3,), kill_min=0.6, seed0=98)[0]
    want = list(oracle_chunks(spec, 1000, RngStream(57), with_coupling=True))
    got = list(sample_chunks(spec, 1000, RngStream(57), with_coupling=True))
    assert [len(x) for x, _, _ in got] == [300, 300, 300, 100]
    for chunk, ref in zip(got, want, strict=True):
        for a, b in zip(chunk, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_spec_past_the_mean_visit_cap_is_refused_before_iteration():
    # E sum Z = 2 (K_ii - 1), about 2000: refused by the call itself, not on iteration
    spec = PermanentalSpec.from_m_matrix([[1.0, -0.9995], [-0.9995, 1.0]], 1.0)
    with pytest.raises(TruncationInfeasible, match="loop-soup steps .* exceeds cap 1000"):
        sample_chunks(spec, 10, RngStream(58))


def test_moments_of_one_chunk_are_numpy_mean_and_std():
    w = np.random.default_rng(47).random(12_345)
    acc = Moments()
    acc.add(w)
    assert acc.mean == np.mean(w)
    assert acc.se == np.std(w, ddof=1) / math.sqrt(w.size)


def test_moments_of_stacked_streams_are_the_moments_of_each():
    g = np.random.default_rng(46)
    chunks = [g.random((3, m)) for m in (16_384, 16_384, 5_001)]
    chunks[-1][2] = chunks[-1][2] > 0.5
    acc, each = Moments(), [Moments() for _ in range(3)]
    for chunk in chunks:
        acc.add(chunk)
        for row, one in zip(chunk, each):
            one.add(row)
    assert (acc.count, acc.mean.tolist(), acc.se.tolist()) == (
        each[0].count, [one.mean for one in each], [one.se for one in each])


def test_merged_laplace_moments_match_numpy_on_the_oracle_batch(monkeypatch):
    monkeypatch.setattr(sampler, "_CHUNK", 1000)
    spec = make_corpus(1, (4,), kill_min=0.6, seed0=99)[0]
    chunks = list(oracle_chunks(spec, 10_500, RngStream(48)))  # 11 chunks, the last one short
    draws = gather(chunks)[0]
    s_points = np.random.default_rng(49).random((5, 4)) * 2
    for s, (val, se) in zip(s_points, laplace_means(chunks, s_points), strict=True):
        w = np.exp(-(draws @ s))
        assert val == pytest.approx(np.mean(w), rel=1e-14, abs=0)
        assert se == pytest.approx(np.std(w, ddof=1) / math.sqrt(w.size), rel=1e-14, abs=0)


# ---------------------------------------------------------------- inequality


def _inequality(spec, n_draws, rng, **kw):
    """The inequality check on a fresh stream of n_draws draws."""
    return check_permanental_inequality(spec, sample_chunks(spec, n_draws, rng), rng, **kw)


def test_inequality_diagonal_is_equality():
    spec = PermanentalSpec.from_m_matrix(np.diag([2.0, 3.0]), 1.0)
    rep = _inequality(spec, 100_000, RngStream(51))
    assert abs(rep.diff_mean) <= 4 * rep.diff_se


def test_inequality_margin_2x2():
    rep = _inequality(SPEC2, 200_000, RngStream(52))
    assert rep.diff_mean >= -3 * rep.diff_se


def test_inequality_tail_rows():
    rep = _inequality(SPEC2, 200_000, RngStream(53), lambdas=(2.0,))
    for row in rep.tails:
        assert row.margin >= -3 * row.se
        assert 0.0 <= row.prob_iid_exact <= 1.0
    assert {row.p for row in rep.tails} == {1, 2}


def test_rearrangement_bound_on_corpus():
    for spec in make_corpus(3, (4,), kill_min=0.7, seed0=777):
        rep = _inequality(spec, 100_000, RngStream(54), lambdas=(0.5, 1.0, 2.0),
                          p_values=(1, 2))
        for row in rep.tails:
            assert row.margin >= -3 * row.se


def test_inequality_statistics_are_those_of_the_row_loop(monkeypatch):
    # the loop the check replaced: maxima along each row, one Moments per statistic
    monkeypatch.setattr(sampler, "_CHUNK", 1000)
    spec = make_corpus(1, (4,), kill_min=0.6, seed0=98)[0]
    chunks = list(sample_chunks(spec, 10_500, RngStream(56)))  # the last chunk short
    lambdas = (0.5, 1.0, 2.0)
    g = RngStream(56).generator(sampler._TAG_IID)
    scaled, iid, hits = Moments(), Moments(), [Moments() for _ in lambdas]
    for x, _, _ in chunks:
        scaled.add((x * spec.pair.diag_a).max(axis=1))
        iid.add(g.standard_gamma(spec.alpha, size=x.shape).max(axis=1))
        for lam, acc in zip(lambdas, hits):
            acc.add(x.max(axis=1) >= lam)
    rep = check_permanental_inequality(spec, chunks, RngStream(56), lambdas=lambdas,
                                       p_values=(1,))
    assert (rep.n_draws, rep.diff_mean, rep.diff_se) == (
        10_500, scaled.mean - iid.mean, math.hypot(scaled.se, iid.se))
    assert [(row.prob_perm, row.se) for row in rep.tails] == [(acc.mean, acc.se)
                                                              for acc in hits]


def test_minimum_draw_requirement():
    # a standard error needs two draws: an empty stream and one draw are refused
    for chunks in ([], sample_chunks(SPEC2, 1, RngStream(55))):
        with pytest.raises(ValueError, match="at least 2 draws"):
            check_permanental_inequality(SPEC2, chunks, RngStream(55))
    assert _inequality(SPEC2, 2, RngStream(55)).n_draws == 2
