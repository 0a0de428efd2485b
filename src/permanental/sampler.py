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

Draws come from one source, ``sample_chunks``: chunk c holds the next
_CHUNK rows and is drawn from substream c when it is read, so a consumer
that reads the chunks in turn holds one chunk, whatever the draw count, and
results are bit-for-bit reproducible for a given (seed, stream_id).  Means
and standard errors over a stream are merged chunk by chunk (``Moments``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import TruncationInfeasible
from .gamma_tails import gamma_tail_exact, max_iid_tail
from .model import PermanentalSpec, _b_tilde

_CHUNK = 16_384  # rows per chunk, one substream each
_WALKERS = 262_144  # excursions walked at a time within a chunk
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
    order, walking at most _WALKERS excursions at a time.  A step from y goes
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
        for first in range(0, total, _WALKERS):
            owner = np.searchsorted(ends, np.arange(first, min(first + _WALKERS, total)),
                                    side="right")
            state = np.zeros(owner.size, dtype=np.int64)
            while owner.size:
                step = np.searchsorted(flat, state + g.random(state.size), side="right")
                step = np.minimum(step - state * m, last[state])
                away = step > 0
                owner, state = owner[away], step[away]
                np.add.at(z, (owner, state + x), 1)


def sample_chunks(
    spec: PermanentalSpec,
    n_draws: int,
    rng: RngStream,
    with_coupling: bool = False,
) -> Iterator[tuple[np.ndarray, np.ndarray | None, np.ndarray]]:
    """Draw n_draws exact alpha-permanental vectors as an iterator of chunks
    (X, L, Z), in chunk order; L is None without coupling.  Chunk c holds
    _CHUNK rows (the last one the rest) drawn from substream c, on the
    calling thread as it is read: loop-soup Z, then the lower gammas, then
    the upper gammas.  A spec whose draw takes more than _MAX_MEAN_VISITS
    walker steps on average is refused here, before any chunk is drawn."""
    if n_draws < 1:
        raise ValueError(f"the number of draws must be at least 1, got n = {n_draws}")
    if not isinstance(rng, RngStream):
        raise TypeError("the sampler needs an RngStream for reproducibility")
    a = spec.pair.diag_a
    mean_visits = spec.alpha * float((a * np.diag(spec.pair.K) - 1.0).sum())
    if mean_visits > _MAX_MEAN_VISITS:
        raise TruncationInfeasible(f"a draw would take {mean_visits:.6g} loop-soup steps on "
                                   f"average, which exceeds cap {_MAX_MEAN_VISITS:g}")
    bt = _b_tilde(spec.pair)
    laws = _excursion_laws(bt)
    n_chunks = -(-n_draws // _CHUNK)

    def run_chunk(c):
        g = rng.generator(c)
        z = np.zeros((min(_CHUNK, n_draws - c * _CHUNK), spec.n), dtype=np.int64)
        _add_soup_visits(z, bt, laws, spec.alpha, g)
        if with_coupling:
            lower = g.standard_gamma(spec.alpha, size=z.shape)
            lower /= a
            x = z.astype(float)
        else:
            lower = None
            x = z + spec.alpha
        # x holds the gamma shapes; each is read just before its draw replaces it
        g.standard_gamma(x, out=x)
        x /= a
        if with_coupling:
            x += lower
        return x, lower, z

    return map(run_chunk, range(n_chunks))


@dataclass
class Moments:
    """Count, mean and sum of squared deviations (M2) of a stream of values,
    or of k streams read side by side, merged one chunk at a time by the
    update of Chan, Golub and LeVeque.  A single chunk gives the bits of
    ``np.mean`` and ``np.std(ddof=1)`` of each stream."""

    count: int = 0
    mean: np.ndarray | float = 0.0
    m2: np.ndarray | float = 0.0

    def add(self, values: np.ndarray) -> None:
        """Merge a chunk: m values, or a (k, m) array of m values per stream."""
        m = values.shape[-1]
        mean = values.mean(axis=-1)
        d = values - mean[..., None]
        m2 = (d * d).sum(axis=-1)
        if self.count == 0:
            self.count, self.mean, self.m2 = m, mean, m2
            return
        total = self.count + m
        delta = mean - self.mean
        self.mean += delta * m / total
        self.m2 += m2 + delta * delta * self.count * m / total
        self.count = total

    @property
    def se(self) -> np.ndarray | float:
        """Standard error of the mean, from the ddof=1 standard deviation."""
        if self.count < 2:
            return 0.0
        return np.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)


def _laplace_terms(x: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """exp(-<s, X>) for each row of a chunk of draws."""
    return np.exp(-(x @ sv))


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
    chunks: Iterable[tuple[np.ndarray, np.ndarray | None, np.ndarray]],
    rng: RngStream,
    lambdas=(0.5, 1.0, 2.0, 4.0),
    p_values=(1, 2),
) -> InequalityReport:
    """Empirical check that E max(a_i X_i) dominates E max of iid xi_{alpha,1},
    and the rearranged tail version on a lambda grid, one chunk at a time.
    ``chunks`` are the (X, L, Z) triples of ``sample_chunks`` for ``spec``,
    of which only X is read; the iid side is drawn from rng's _TAG_IID
    substream."""
    a = spec.pair.diag_a[:, None]
    above = np.array(lambdas, dtype=float)[:, None]
    g = rng.generator(_TAG_IID)
    # one stream per statistic: max a_i X_i, the iid max, then 1{max X_i >= lam}
    stats = Moments()
    for x, _, _ in chunks:
        # coordinates as rows, so that each maximum runs over contiguous rows
        xt = np.ascontiguousarray(x.T)
        iid = np.ascontiguousarray(g.standard_gamma(spec.alpha, size=x.shape).T)
        stats.add(np.vstack([(xt * a).max(axis=0), iid.max(axis=0),
                             xt.max(axis=0) >= above]))
    if stats.count < 2:
        raise ValueError(f"a standard error needs at least 2 draws, got {stats.count}")
    (scaled_mean, iid_mean, *hit_means), (scaled_se, iid_se, *hit_ses) = (
        stats.mean.tolist(), stats.se.tolist())
    tails = []
    for p in p_values:
        m = spec.n // p
        if m < 1:
            continue
        a_star = bounds.psi_star(spec.pair, p)
        for lam, prob, se in zip(lambdas, hit_means, hit_ses):
            exact = max_iid_tail(m, gamma_tail_exact(spec.alpha, 1.0, a_star * lam))
            tails.append(TailComparison(p=p, lam=float(lam), prob_perm=prob, se=se,
                                        prob_iid_exact=exact, margin=prob - exact))
    return InequalityReport(n_draws=stats.count, diff_mean=scaled_mean - iid_mean,
                            diff_se=math.hypot(scaled_se, iid_se), tails=tails)
