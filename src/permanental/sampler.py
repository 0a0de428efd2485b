"""Exact simulation of alpha-permanental vectors and Monte Carlo validation.

Z is drawn as the visit counts of a Poisson loop soup of intensity alpha for
B~ = D^-1 B, whose pgf is det(I - B~)^alpha / det(I - S B~)^alpha (Le Jan,
*Markov paths, loops and fields*, LNM 2026, 2011).  Rooting each loop at its
smallest state x, the loops rooted at x make N_x ~ NegBin(alpha, 1 - r_x)
excursions from x on {x..n-1}, each the walk conditioned to return to x,
and every visit to y adds one to Z_y: E sum_i Z_i = alpha sum_i (a_ii K_ii - 1)
walker steps per draw.  The coordinates are then independent gammas with
shape alpha + Z_i and scale a_i; with coupling the gamma coordinate is
a_i^{-1} xi_{alpha,1} + xi_{Z_i, a_i}, so the coordinatewise lower bound
holds pathwise by construction (xi_{0,.} := 0).

Batches are sharded into fixed-size chunks, one substream per chunk.  The
output arrays are allocated once and each chunk writes its own rows in
place, so a batch costs its draw bytes plus one chunk of temporaries, and
results are bit-for-bit reproducible for a given (seed, stream_id)
regardless of the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationInfeasible
from .gamma_tails import gamma_tail_exact
from .model import PermanentalSpec, _as_s_vector, _b_tilde

_CHUNK = 262_144
_MAX_MEAN_VISITS = 1e3  # E sum_i Z_i, the mean walker steps per draw, refused above
# fixed substream tags so distinct draw purposes never share a stream
_TAG_IID = 1_000_003


@dataclass(frozen=True)
class RngStream:
    """Seed plus substream index; identical values reproduce draws bit-for-bit."""

    seed: int
    stream_id: int = 0

    def generator(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id, *extra])


def _generator(rng, *extra: int) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator(*extra)
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


def sample_gamma(u: float, v: float, rng, size=None):
    """Draw from the gamma law with shape u and scale parameter v.

    Constructed as standard_gamma(u) / v, so draws at (u, v) are exactly
    1/v times the draws at (u, 1) under the same stream.
    """
    if u <= 0 or v <= 0:
        raise ValueError("shape and scale must be positive")
    g = _generator(rng)
    return g.standard_gamma(u, size=size) / v


def _excursion_laws(bt: np.ndarray) -> list[tuple[int, float, np.ndarray]]:
    """(x, r_x, hit) for each root x of loops of positive weight: hit holds
    the weights of the paths on {x..n-1} that hit x, and r_x those of the
    excursions from x, read off G = (I - B~[x:, x:])^-1 as it grows by one
    border per root.  Weights are invariant under the diagonal similarity
    to the substochastic chain diag(h)^-1 B~ diag(h), h = K D 1, so r_x < 1.
    """
    n = bt.shape[0]
    green = np.zeros((0, 0))
    laws = []
    for x in range(n - 1, -1, -1):
        col = green @ bt[x + 1:, x]
        row = bt[x, x + 1:] @ green
        hit = np.concatenate(([1.0], col))  # G[x:, x] / G[x, x]
        r = float(bt[x, x:] @ hit)  # 1 - 1 / G[x, x]
        s = 1.0 - r
        green = np.block([[1.0, row], [col[:, None], np.outer(col, row) + s * green]]) / s
        if r > 0.0:
            laws.append((x, r, hit))
    return laws[::-1]


def _add_soup_visits(z: np.ndarray, bt: np.ndarray, laws, alpha: float,
                     g: np.random.Generator) -> None:
    """Add one loop soup's visit counts to each row of ``z``, roots in index
    order, walking at most _CHUNK excursions at a time.  A step from y goes
    to w with weight B~[y, w] hit[w]; row y of ``flat`` is y plus its
    cumulative law, so a key y + u picks a step by one search, and ``last``
    (a row's last positive column) catches keys rounded up to y + 1."""
    for x, r, hit in laws:
        counts = g.negative_binomial(alpha, 1.0 - r, size=z.shape[0])
        z[:, x] += counts
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total == 0:
            continue
        m = hit.size
        w = bt[x:, x:] * hit
        w[~(w.sum(axis=1) > 0.0), 0] = 1.0
        cum = np.cumsum(w, axis=1)
        flat = (cum / cum[:, -1:] + np.arange(m)[:, None]).ravel()
        last = m - 1 - np.argmax(w[:, ::-1] > 0.0, axis=1)
        for first in range(0, total, _CHUNK):
            owner = np.searchsorted(ends, np.arange(first, min(first + _CHUNK, total)),
                                    side="right")
            state = np.zeros(owner.size, dtype=np.int64)
            while owner.size:
                step = np.searchsorted(flat, state + g.random(state.size), side="right")
                step = np.minimum(step - state * m, last[state])
                away = step > 0
                owner, state = owner[away], step[away]
                np.add.at(z, (owner, state + x), 1)


@dataclass(frozen=True)
class SampleBatch:
    """Seeded batch of permanental draws with optional coupled lower bounds."""

    spec: PermanentalSpec
    draws: np.ndarray
    coupled_lower: np.ndarray | None
    z_draws: np.ndarray
    seed: int
    stream_id: int

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]


def sample_permanental(
    spec: PermanentalSpec,
    n_draws: int,
    rng: RngStream,
    with_coupling: bool = False,
    workers: int | None = None,
) -> SampleBatch:
    """Draw n_draws exact alpha-permanental vectors; a spec whose draw takes
    more than _MAX_MEAN_VISITS walker steps on average is refused."""
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    if not isinstance(rng, RngStream):
        raise TypeError("sample_permanental needs an RngStream for reproducibility")
    a = spec.pair.diag_a
    mean_visits = spec.alpha * float((a * np.diag(spec.pair.K) - 1.0).sum())
    if mean_visits > _MAX_MEAN_VISITS:
        raise TruncationInfeasible(f"a draw would take {mean_visits:.6g} loop-soup steps on "
                                   f"average; the sampler stops at {_MAX_MEAN_VISITS:g}")
    bt = _b_tilde(spec.pair)
    laws = _excursion_laws(bt)
    n = spec.n
    draws = np.empty((n_draws, n))
    coupled = np.empty((n_draws, n)) if with_coupling else None
    z_draws = np.zeros((n_draws, n), dtype=np.int64)
    bounds = [(c, start, min(start + _CHUNK, n_draws))
              for c, start in enumerate(range(0, n_draws, _CHUNK))]

    def run_chunk(args):
        c, start, stop = args
        g = rng.generator(c)
        z = z_draws[start:stop]
        _add_soup_visits(z, bt, laws, spec.alpha, g)
        x = draws[start:stop]
        if with_coupling:
            lower = coupled[start:stop]
            g.standard_gamma(spec.alpha, size=lower.shape, out=lower)
            lower /= a
            x[...] = z
        else:
            np.add(z, spec.alpha, out=x)
        # x holds the gamma shapes; each is read just before its draw replaces it
        g.standard_gamma(x, out=x)
        x /= a
        if with_coupling:
            x += lower

    if workers and workers > 1 and len(bounds) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, bounds))
    else:
        for b in bounds:
            run_chunk(b)

    return SampleBatch(
        spec=spec,
        draws=draws,
        coupled_lower=coupled,
        z_draws=z_draws,
        seed=rng.seed,
        stream_id=rng.stream_id,
    )


def empirical_laplace(batch: SampleBatch, s) -> tuple[float, float]:
    """Empirical E exp(-<s, X>) over the batch, with its standard error."""
    if batch.n_draws < 1:
        raise ValueError("empty batch")
    sv = _as_s_vector(s, batch.spec.n)
    w = np.exp(-(batch.draws @ sv))
    se = float(w.std(ddof=1) / math.sqrt(len(w))) if len(w) > 1 else 0.0
    return float(w.mean()), se


@dataclass(frozen=True)
class TailComparison:
    p: int
    lam: float
    prob_perm: float
    se: float
    prob_iid_exact: float
    margin: float


@dataclass(frozen=True)
class InequalityReport:
    """Monte Carlo margins for the increasing-functional comparison with
    iid gamma coordinates, plus exact rearranged tail comparisons."""

    n_draws: int
    diff_mean: float
    diff_se: float
    tails: list[TailComparison]


def check_permanental_inequality(
    spec: PermanentalSpec,
    n_draws: int,
    rng: RngStream,
    lambdas=(0.5, 1.0, 2.0, 4.0),
    p_values=(1, 2),
) -> InequalityReport:
    """Empirical check that E max(a_i X_i) dominates E max of iid xi_{alpha,1},
    and the rearranged tail version on a lambda grid."""
    if n_draws < 10_000:
        raise ValueError("needs at least 1e4 draws")
    batch = sample_permanental(spec, n_draws, rng)
    a = spec.pair.diag_a
    scaled_max = (batch.draws * a).max(axis=1)
    g = rng.generator(_TAG_IID)
    iid = g.standard_gamma(spec.alpha, size=(n_draws, spec.n))
    iid_max = iid.max(axis=1)
    diff = float(scaled_max.mean() - iid_max.mean())
    diff_se = float(
        math.hypot(
            scaled_max.std(ddof=1) / math.sqrt(n_draws),
            iid_max.std(ddof=1) / math.sqrt(n_draws),
        )
    )
    raw_max = batch.draws.max(axis=1)
    a_sorted = np.sort(a)
    tails = []
    for p in p_values:
        m = spec.n // p
        if m < 1:
            continue
        a_star = float(a_sorted[m - 1])
        for lam in lambdas:
            hits = raw_max >= lam
            prob = float(hits.mean())
            se = float(hits.std(ddof=1) / math.sqrt(n_draws))
            tail1 = gamma_tail_exact(spec.alpha, 1.0, a_star * lam)
            exact = -math.expm1(m * math.log1p(-min(tail1, 1.0 - 1e-16)))
            tails.append(
                TailComparison(
                    p=p,
                    lam=float(lam),
                    prob_perm=prob,
                    se=se,
                    prob_iid_exact=exact,
                    margin=prob - exact,
                )
            )
    return InequalityReport(n_draws=n_draws, diff_mean=diff, diff_se=diff_se, tails=tails)
