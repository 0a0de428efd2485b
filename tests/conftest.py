"""Shared fixtures: the Markov-generated kernel corpus used across tests, the
brute-force alpha-permanent oracle and the concatenating sampler oracle."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from permanental import markov, sampler
from permanental.model import PermanentalSpec, _b_tilde


def make_corpus(count: int, n_values, kill_min: float = 0.75, seed0: int = 1000,
                alphas=(0.5, 1.0, 2.0)) -> list[PermanentalSpec]:
    """Deterministic corpus of validated specs from random transient chains."""
    specs = []
    i = 0
    while len(specs) < count:
        n = n_values[i % len(n_values)]
        alpha = alphas[i % len(alphas)]
        chain = markov.random_transient_chain(n, kill_min, seed0 + i)
        K = markov.green_kernel(chain)
        specs.append(PermanentalSpec.from_kernel(K, alpha))
        i += 1
    return specs


@pytest.fixture(scope="session")
def corpus20() -> list[PermanentalSpec]:
    return make_corpus(20, (2, 3, 4, 5))


@pytest.fixture(scope="session")
def small_corpus() -> list[PermanentalSpec]:
    return make_corpus(6, (2, 3, 4))


def brownian_min_matrix(n: int) -> np.ndarray:
    """Covariance of standard Brownian motion at integer times 1..n."""
    idx = np.arange(1, n + 1)
    return np.minimum.outer(idx, idx).astype(float)


def naive_terms(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cycle count and product prod m[i, pi(i)] of each of the n! permutations."""
    n = m.shape[0]
    cycles, prods = [], []
    for pi in itertools.permutations(range(n)):
        seen = [False] * n
        count = 0
        for i in range(n):
            if not seen[i]:
                count += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = pi[j]
        prod = 1.0
        for i in range(n):
            prod *= m[i, pi[i]]
        cycles.append(count)
        prods.append(prod)
    return np.array(cycles, dtype=float), np.array(prods)


def naive_alpha_permanent(m: np.ndarray, alpha: float) -> float:
    """Sum of alpha^cycles * prod over all permutations, correctly rounded sum
    of terms that carry at most n + 1 roundings each."""
    cycles, prods = naive_terms(m)
    return math.fsum(prods * alpha**cycles)


def oracle_sample(spec, n_draws, rng, with_coupling=False, workers=None) -> sampler.SampleBatch:
    """The sampler's draws by its former layout: each chunk of
    ``sampler._CHUNK`` rows draws arrays of its own from substream c, in the
    order loop-soup Z, lower gammas, upper gammas, and the chunks are
    concatenated.  ``workers`` is ignored (chunks run in order)."""
    bt = _b_tilde(spec.pair)
    laws = sampler._excursion_laws(bt)
    a = spec.pair.diag_a
    parts = []
    for c, start in enumerate(range(0, n_draws, sampler._CHUNK)):
        m = min(sampler._CHUNK, n_draws - start)
        g = rng.generator(c)
        z = np.zeros((m, spec.n), dtype=np.int64)
        sampler._add_soup_visits(z, bt, laws, spec.alpha, g)
        if with_coupling:
            lower = g.standard_gamma(spec.alpha, size=(m, spec.n)) / a
            x = lower + g.standard_gamma(z.astype(float)) / a
        else:
            lower = None
            x = g.standard_gamma(spec.alpha + z.astype(float)) / a
        parts.append((x, lower, z))
    return sampler.SampleBatch(
        spec=spec,
        draws=np.concatenate([p[0] for p in parts]),
        coupled_lower=np.concatenate([p[1] for p in parts]) if with_coupling else None,
        z_draws=np.concatenate([p[2] for p in parts]),
        seed=rng.seed,
        stream_id=rng.stream_id,
    )
