"""Shared fixtures: the Markov-generated kernel corpus used across tests, the
brute-force alpha-permanent oracle, the block matrix C(k) of the series
coefficients, the sampler's chunk oracle, the helpers that read a chunk
stream whole and the model-spec file writer."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from permanental import markov, matio, sampler
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


def block_expand(c, k) -> np.ndarray:
    """C(k): C with index i repeated k_i times, whose alpha-permanent over
    k! is the series coefficient of x^k."""
    idx = np.repeat(np.arange(len(k)), k)
    return np.asarray(c, dtype=float)[np.ix_(idx, idx)]


def oracle_chunks(spec, n_draws, rng, with_coupling=False):
    """The sampler's chunks by their former layout: each chunk of
    ``sampler._CHUNK`` rows draws arrays of its own from substream c, in the
    order loop-soup Z, lower gammas, upper gammas, and yields (X, L, Z)."""
    bt = _b_tilde(spec.pair)
    laws = sampler._excursion_laws(bt)
    a = spec.pair.diag_a
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
        yield x, lower, z


def gather(chunks):
    """The (X, L, Z) chunks of a draw stream concatenated into three arrays;
    L is None without coupling."""
    xs, lows, zs = zip(*chunks)
    lower = None if lows[0] is None else np.concatenate(lows)
    return np.concatenate(xs), lower, np.concatenate(zs)


def laplace_means(chunks, s_points) -> list[tuple[float, float]]:
    """Empirical E exp(-<s, X>) and its standard error at each s, merged over
    the chunks of one pass as ``mc-validate`` merges them."""
    s_points = [np.asarray(s, dtype=float) for s in s_points]
    moments = [sampler.Moments() for _ in s_points]
    for x, _, _ in chunks:
        for s, acc in zip(s_points, moments):
            acc.add(sampler._laplace_terms(x, s))
    return [(acc.mean, acc.se) for acc in moments]


def save_spec_file(path: str, alpha: float, kernel=None, a_matrix=None) -> None:
    """Write a model spec in the format ``matio.load_spec_file`` reads:
    ``alpha`` and exactly one of the kernel K or its inverse A."""
    if (kernel is None) == (a_matrix is None):
        raise ValueError("pass exactly one of kernel or a_matrix")
    obj: dict = {"alpha": float(alpha)}
    if kernel is not None:
        obj["kernel"] = matio.matrix_to_json_obj(kernel)
    else:
        obj["A"] = matio.matrix_to_json_obj(a_matrix)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")
