"""Exact simulation of alpha-permanental vectors and Monte Carlo validation.

A draw first realizes the latent index vector Z by inverse CDF over its
enumerated masses, then independent gamma coordinates with shape
alpha + Z_i and scale a_i.  With coupling enabled the gamma coordinate is
built as a_i^{-1} xi_{alpha,1} + xi_{Z_i, a_i}, so the coordinatewise lower
bound holds pathwise by construction (xi_{0,.} := 0).

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
from .model import PermanentalSpec, ZDistribution, _as_s_vector, z_masses

_CHUNK = 262_144
_Z_TARGET = 1.0 - 1e-9
_MAX_ESCALATIONS = 5
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


def _z_lookup(zdist: ZDistribution, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse-CDF lookup of uniforms into ``out`` (a new int64 array if
    None); re-enumerates one order deeper when a uniform lands in the
    residual tail mass."""
    current = zdist
    for _ in range(_MAX_ESCALATIONS + 1):
        idx = np.searchsorted(current.cum, u, side="right")
        if idx.max() < len(current.index):
            # indices are checked above, so clip mode skips take's buffered copy
            return np.take(np.asarray(current.index, dtype=np.int64), idx, axis=0,
                           out=out, mode="clip")
        current = current.extended(1)
    raise TruncationInfeasible(
        f"a Z draw stayed in the tail after {_MAX_ESCALATIONS} re-enumerations"
    )


def sample_z(zdist: ZDistribution, rng, size=None):
    """Draw multi-indices from the enumerated Z distribution."""
    if zdist.covered_mass < 1.0 - 1e-9:
        raise TruncationInfeasible(
            f"resolve the tail first: covered mass {zdist.covered_mass} < 1 - 1e-9"
        )
    g = _generator(rng)
    m = 1 if size is None else int(size)
    karr = _z_lookup(zdist, g.random(m))
    if size is None:
        return tuple(int(x) for x in karr[0])
    return karr


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
    target_mass: float = _Z_TARGET,
    workers: int | None = None,
) -> SampleBatch:
    """Draw n_draws exact alpha-permanental vectors."""
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    if not isinstance(rng, RngStream):
        raise TypeError("sample_permanental needs an RngStream for reproducibility")
    zdist = z_masses(spec, target_mass)
    a = spec.pair.diag_a
    n = spec.n
    draws = np.empty((n_draws, n))
    coupled = np.empty((n_draws, n)) if with_coupling else None
    z_draws = np.empty((n_draws, n), dtype=np.int64)
    bounds = [(c, start, min(start + _CHUNK, n_draws))
              for c, start in enumerate(range(0, n_draws, _CHUNK))]

    def run_chunk(args):
        c, start, stop = args
        g = rng.generator(c)
        z = _z_lookup(zdist, g.random(stop - start), out=z_draws[start:stop])
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
