"""Shared fixtures: the Markov-generated kernel corpus used across tests, the
brute-force alpha-permanent oracle, the block matrix C(k) of the series
coefficients, the sampler's chunk oracle, the helpers that read a chunk
stream whole, the model-spec file writer, the minimal asymmetry constant of
a kernel, the paper's Cor 1.4 check and psi of the flat Levy profile in
closed form."""

from __future__ import annotations

import itertools
import json
import math
from typing import NamedTuple

import mpmath as mp
import numpy as np
import pytest

from permanental import bounds, levy, markov, matio, sampler
from permanental.linalg import as_square_matrix
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


def asymmetry_constant(k, normalized: bool = False) -> float:
    """Minimal C with |K_ij - K_ji| <= C sigma2_ij over i != j.

    With ``normalized`` the entries are first divided columnwise by the
    kernel diagonal (the ratio form used when the diagonal is not constant).
    """
    return bounds._min_asymmetry(*bounds._increments(as_square_matrix(k), normalized))


class Cor14(NamedTuple):
    lhs: float
    tail_integral: float
    implied_c: float
    holds: bool
    monotone_verified: bool


def check_cor14(model: levy.LevyModel, z: float) -> Cor14:
    """|z| integral of lam |I| over (0, pi/|z|) against half the R tail from
    pi/(2|z|); the implied constant must be below 1 for the criterion, and
    R and |I| must decrease on [1e3, _LAM_EXACT_MAX].

    The integrals come from the model's spectral table: the panels below the
    upper end and the antiderivative of its own panel's interpolant
    (absolute values panel by panel).  The R tail is the table's part up to
    _LAM_EXACT_MAX plus ``l1_tail(_LAM_EXACT_MAX)``."""
    sf = levy.spectral(model)
    leg = np.polynomial.legendre
    edges, mid, half, coef, _ = sf.table
    r_coef = coef[0]
    lam_i_coef = (mid[:, None] * np.pad(coef[1], ((0, 0), (0, 1)))
                  + half[:, None] * np.apply_along_axis(leg.legmulx, 1, coef[1]))

    def below(c, x):
        k = min(int(np.searchsorted(edges, x, side="right")) - 1, half.size - 1)
        part = half[k] * leg.legval((x - mid[k]) / half[k], leg.legint(c[k], lbnd=-1))
        return float(np.abs(2.0 * half[:k] * c[:k, 0]).sum() + abs(part))

    z = abs(z)
    assert math.pi / z <= levy._LAM_EXACT_MAX, "the range of lam |I| must lie in the table"
    far_tail, _ = sf.l1_tail(levy._LAM_EXACT_MAX)
    lhs = z * below(lam_i_coef, math.pi / z)
    tail_integral = below(r_coef, levy._LAM_EXACT_MAX) - below(r_coef, math.pi / (2 * z)) + far_tail
    implied = 2.0 * lhs / tail_integral
    r_vals, i_vals, _ = sf.resolvent(np.geomspace(1e3, levy._LAM_EXACT_MAX, 25))
    i_vals = np.abs(i_vals)
    slack = 1e-9
    monotone = bool(
        (np.diff(r_vals) <= slack * r_vals[:-1]).all()
        and (model.symmetric or (np.diff(i_vals) <= slack * np.maximum(i_vals[:-1], 1e-300)).all())
    )
    return Cor14(lhs=lhs, tail_integral=tail_integral, implied_c=implied,
                 holds=implied < 1.0, monotone_verified=monotone)


def flat_psi(lam: float, p: float, q: float, cut: float) -> complex:
    """psi of the profile g == 1 beyond cut in closed form, over the jump
    range [X_LO, 1/cut] that psi itself integrates: with u = lam x,
    Re psi = lam [F(u)] and J = lam [H(u)] from u = lam X_LO to lam/cut,
    where F = Si(u) - (1 - cos u)/u and H = Ci(u) - log u - sin(u)/u + 1 -
    gamma_E (both vanish at u = 0), and Im psi = -(p - q) J; evaluated by
    mpmath at 30 digits."""
    with mp.workdps(30):
        lam = mp.mpf(lam)

        def between(f):
            return f(lam / mp.mpf(cut)) - f(lam * mp.mpf(levy._X_LO))

        re = between(lambda u: mp.si(u) - (1 - mp.cos(u)) / u)
        j = between(lambda u: mp.ci(u) - mp.log(u) - mp.sin(u) / u + 1 - mp.euler)
        return complex(float(lam * re), float(-(p - q) * lam * j))
