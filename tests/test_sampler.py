import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from permanental import markov, sampler
from permanental.errors import TruncationInfeasible
from permanental.gamma_tails import gamma_tail_exact
from permanental.model import PermanentalSpec, direct_laplace, z_masses
from permanental.sampler import (
    RngStream,
    check_permanental_inequality,
    empirical_laplace,
    sample_gamma,
    sample_permanental,
    sample_z,
)

from conftest import make_corpus, oracle_sample

SPEC2 = PermanentalSpec.from_m_matrix([[2.0, -1.0], [-1.0, 2.0]], 1.0)


# ---------------------------------------------------------------- gamma draws


def test_gamma_mean_exponential():
    draws = sample_gamma(1.0, 1.0, RngStream(11), size=10**6)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert draws.mean() == pytest.approx(1.0, abs=4 * se)


def test_gamma_scaling_law_exact():
    a = 2.7
    at_scale = sample_gamma(0.9, a, RngStream(12), size=1000)
    at_unit = sample_gamma(0.9, 1.0, RngStream(12), size=1000)
    np.testing.assert_array_equal(at_scale, at_unit / a)


def test_gamma_tail_frequency_vs_exact():
    draws = sample_gamma(2.0, 1.0, RngStream(13), size=10**6)
    hits = (draws >= 5.0).mean()
    want = gamma_tail_exact(2.0, 1.0, 5.0)
    assert want == pytest.approx(6 * math.exp(-5.0), rel=1e-12)
    se = math.sqrt(want * (1 - want) / len(draws))
    assert hits == pytest.approx(want, abs=4 * se)


def test_gamma_invalid_shape():
    with pytest.raises(ValueError):
        sample_gamma(0.0, 1.0, RngStream(1))


# ---------------------------------------------------------------- Z draws


def test_sample_z_diagonal_always_zero():
    spec = PermanentalSpec.from_m_matrix(np.diag([2.0, 3.0]), 1.0)
    zd = z_masses(spec, 1 - 1e-9)
    draws = sample_z(zd, RngStream(21), size=1000)
    assert (draws == 0).all()


def test_sample_z_single_draw_is_tuple():
    zd = z_masses(SPEC2, 1 - 1e-9)
    k = sample_z(zd, RngStream(22))
    assert isinstance(k, tuple) and len(k) == 2


def test_sample_z_zero_mass_frequency():
    zd = z_masses(SPEC2, 1 - 1e-9)
    draws = sample_z(zd, RngStream(23), size=200_000)
    freq = (draws.sum(axis=1) == 0).mean()
    se = math.sqrt(0.75 * 0.25 / 200_000)
    assert freq == pytest.approx(0.75, abs=4 * se)


def test_sample_z_requires_resolved_tail():
    zd = z_masses(SPEC2, 0.99)
    with pytest.raises(TruncationInfeasible):
        sample_z(zd, RngStream(24), size=10)


def test_sample_z_histogram_chi_square():
    zd = z_masses(SPEC2, 1 - 1e-9)
    n_draws = 200_000
    draws = sample_z(zd, RngStream(25), size=n_draws)
    keys = [k for k in zd.index if zd.masses[k] * n_draws >= 10]
    observed = []
    expected = []
    for k in keys:
        observed.append(int(((draws == np.array(k)).all(axis=1)).sum()))
        expected.append(zd.masses[k] * n_draws)
    rest_obs = n_draws - sum(observed)
    rest_exp = n_draws - sum(expected)
    if rest_exp > 5:
        observed.append(rest_obs)
        expected.append(rest_exp)
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    p_value = scipy.stats.chi2.sf(stat, df=len(observed) - 1)
    assert p_value > 0.001


# ---------------------------------------------------------------- batches


def test_coupled_batch_lower_bound_exact():
    batch = sample_permanental(SPEC2, 50_000, RngStream(31), with_coupling=True)
    assert float((batch.draws - batch.coupled_lower).min()) >= 0.0


def test_batch_reproducibility_bitwise():
    a = sample_permanental(SPEC2, 10_000, RngStream(32), with_coupling=True)
    b = sample_permanental(SPEC2, 10_000, RngStream(32), with_coupling=True)
    np.testing.assert_array_equal(a.draws, b.draws)
    np.testing.assert_array_equal(a.coupled_lower, b.coupled_lower)
    np.testing.assert_array_equal(a.z_draws, b.z_draws)


def test_batch_worker_count_invariance():
    n = 600_000  # spans multiple chunks
    a = sample_permanental(SPEC2, n, RngStream(33), workers=1)
    b = sample_permanental(SPEC2, n, RngStream(33), workers=4)
    np.testing.assert_array_equal(a.draws, b.draws)


@pytest.mark.parametrize("couple", [False, True], ids=["plain", "couple"])
def test_chunks_filled_in_place_match_concatenated_chunks(monkeypatch, couple):
    monkeypatch.setattr(sampler, "_CHUNK", 777)
    spec = make_corpus(1, (4,), kill_min=0.6, seed0=99)[0]
    want = oracle_sample(spec, 5000, RngStream(36, 2), with_coupling=couple)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads fill their slices of shared arrays
    try:
        batches = [sample_permanental(spec, 5000, RngStream(36, 2), with_coupling=couple,
                                      workers=workers) for workers in (1, 4)]
    finally:
        sys.setswitchinterval(interval)
    for got in batches:
        for field in ("draws", "coupled_lower", "z_draws"):
            a, b = getattr(got, field), getattr(want, field)
            if b is None:
                assert a is None
            else:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sampler_peak_is_its_output_bytes():
    chain = markov.random_transient_chain(5, 0.5, 3)
    spec = PermanentalSpec.from_kernel(markov.green_kernel(chain), 1.0)
    tracemalloc.start()
    try:
        batch = sample_permanental(spec, 200_000, RngStream(37), with_coupling=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = batch.draws.nbytes + batch.coupled_lower.nbytes + batch.z_draws.nbytes
    assert peak <= 1.5 * out


def test_diagonal_marginals_match_gamma_moments():
    alpha, scales = 1.5, np.array([2.0, 0.5])
    spec = PermanentalSpec.from_m_matrix(np.diag(scales), alpha)
    batch = sample_permanental(spec, 400_000, RngStream(34))
    means = batch.draws.mean(axis=0)
    vars_ = batch.draws.var(ddof=1, axis=0)
    np.testing.assert_allclose(means, alpha / scales, rtol=0.02)
    np.testing.assert_allclose(vars_, alpha / scales**2, rtol=0.03)


def test_batch_mean_matches_alpha_kernel_diagonal():
    batch = sample_permanental(SPEC2, 400_000, RngStream(35))
    target = SPEC2.alpha * np.diag(SPEC2.pair.K)
    se = batch.draws.std(ddof=1, axis=0) / math.sqrt(batch.n_draws)
    assert np.all(np.abs(batch.draws.mean(axis=0) - target) <= 4 * se)


# ---------------------------------------------------------------- Laplace MC


def test_empirical_laplace_at_zero():
    batch = sample_permanental(SPEC2, 1000, RngStream(41))
    val, se = empirical_laplace(batch, [0.0, 0.0])
    assert val == 1.0
    assert se == 0.0


def test_empirical_laplace_2x2_example():
    batch = sample_permanental(SPEC2, 10**6, RngStream(42))
    val, se = empirical_laplace(batch, [1.0, 1.0])
    assert val == pytest.approx(0.375, abs=4 * se)


def test_empirical_laplace_markov_corpus_points():
    spec = make_corpus(1, (3,), kill_min=0.6, seed0=4242, alphas=(2.0,))[0]
    batch = sample_permanental(spec, 200_000, RngStream(43))
    rng = np.random.default_rng(44)
    good = 0
    for _ in range(5):
        s = rng.random(3) * 2
        val, se = empirical_laplace(batch, s)
        want = direct_laplace(spec, s)
        good += abs(val - want) <= 4 * se
    assert good >= 4


# ---------------------------------------------------------------- inequality


def test_inequality_diagonal_is_equality():
    spec = PermanentalSpec.from_m_matrix(np.diag([2.0, 3.0]), 1.0)
    rep = check_permanental_inequality(spec, 100_000, RngStream(51))
    assert abs(rep.diff_mean) <= 4 * rep.diff_se


def test_inequality_margin_2x2():
    rep = check_permanental_inequality(SPEC2, 200_000, RngStream(52))
    assert rep.diff_mean >= -3 * rep.diff_se


def test_inequality_tail_rows():
    rep = check_permanental_inequality(SPEC2, 200_000, RngStream(53), lambdas=(2.0,))
    for row in rep.tails:
        assert row.margin >= -3 * row.se
        assert 0.0 <= row.prob_iid_exact <= 1.0
    assert {row.p for row in rep.tails} == {1, 2}


def test_rearrangement_bound_on_corpus():
    for spec in make_corpus(3, (4,), kill_min=0.7, seed0=777):
        rep = check_permanental_inequality(
            spec, 100_000, RngStream(54), lambdas=(0.5, 1.0, 2.0), p_values=(1, 2)
        )
        for row in rep.tails:
            assert row.margin >= -3 * row.se


def test_minimum_draw_requirement():
    with pytest.raises(ValueError):
        check_permanental_inequality(SPEC2, 100, RngStream(55))
