"""Dense real matrix algebra: alpha-permanents, M-matrix validation, Perron roots.

All operations are pure functions of their inputs.  Matrices are plain
``numpy`` arrays; ``as_square_matrix`` is the single entry point that
enforces squareness and finiteness.

``invert`` is numpy's LAPACK inverse with one singularity rule: a matrix
whose inf-norm condition number kappa = ||A|| ||A^-1|| exceeds
SINGULAR_COND = 1e13 (or that LAPACK finds exactly singular) is refused
with SingularMatrix, so no inverse whose relative error bound kappa u
exceeds about 1e-3 is returned.

``validate_m_matrix`` is the one K <-> A entry point.  It takes either the
M-matrix A or the kernel K = A^-1 (``kernel=``), inverts the one it was
given exactly once, and checks the signs of A, its diagonal and the signs
of K, every sign against the one tolerance SIGN_TOL.  A singular A is
reported as NotMMatrix("singular: ..."); a singular kernel raises
SingularMatrix from that inversion.

``alpha_permanent`` is a subset dynamic program, not an enumeration of the
n! permutations: Held-Karp cycle sums over the subsets that share a largest
element, then the set-partition recursion over subsets by direct sums
(O(3^n) time, O(2^n n) memory, up to n = PERMANENT_CAP).
``alpha_permanent_rel_err`` turns the longest rounding chain of that
summation order into a computed error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NotMMatrix, OutOfRange, SingularMatrix

# alpha_permanent beyond this n is refused: its time grows like 3^n, about
# 2 s per call at n = 18 and 6 s at n = 19 on a 2-vCPU x86-64 VM.
PERMANENT_CAP = 18

# The one tolerance of every M-matrix sign decision: off-diagonal entries of A
# in (0, SIGN_TOL] and entries of K in [-SIGN_TOL, 0) are rounding noise.  The
# inverse of the Brownian kernel min(s, t) on 256 points of (0, 0.1] carries
# 6.5e-12 of it.
SIGN_TOL = 1e-10
# invert refuses a matrix whose inf-norm condition number exceeds this
SINGULAR_COND = 1e13

# alpha_permanent's partition step sums 3^_LOW_BITS (R, U) pairs per vectorized step
_LOW_BITS = 10
_UNIT_ROUNDOFF = 2.0**-53


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a float64 square matrix with finite entries."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _inf_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=1).max())


def invert(m) -> np.ndarray:
    """Inverse from LAPACK's pivoted LU (``np.linalg.inv``).

    Raises SingularMatrix when LAPACK meets an exact zero pivot, when the
    inverse is not finite, or when the inf-norm condition number
    kappa = ||A|| ||A^-1|| exceeds SINGULAR_COND; the message carries kappa.
    """
    a = as_square_matrix(m)
    try:
        inv = np.linalg.inv(a)
        kappa = _inf_norm(a) * _inf_norm(inv)
    except np.linalg.LinAlgError:  # an exact zero pivot
        kappa = math.inf
    if not kappa <= SINGULAR_COND:  # inf or nan when the inverse is not finite
        raise SingularMatrix(
            f"condition number {kappa:.3e} above {SINGULAR_COND:.0e} (inf-norm)"
        )
    return inv


@dataclass(frozen=True)
class MMatrixPair:
    """Validated pair (A, K = A^-1) together with the D - B splitting of A.

    ``diag_a`` is the diagonal of A (D = diag(diag_a)), ``B = D - A`` the
    entrywise nonnegative off-diagonal part, and ``row_sums`` the row sums
    of A.
    """

    A: np.ndarray
    K: np.ndarray
    diag_a: np.ndarray
    B: np.ndarray
    row_sums: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]


def validate_m_matrix(a=None, *, kernel=None) -> MMatrixPair:
    """Validate that A, given as ``a`` or as its inverse ``kernel`` (exactly
    one), is a nonsingular M-matrix and return the split pair.

    The matrix given is the one inverted.  Off-diagonal entries of A in
    (0, SIGN_TOL] are treated as rounding noise and clamped to zero; entries
    of K in [-SIGN_TOL, 0) likewise, so a kernel's ``pair.K`` is the given K
    clamped at 0.
    """
    if (a is None) == (kernel is None):
        raise ValueError("validate_m_matrix takes exactly one of a and kernel")
    K = None if kernel is None else as_square_matrix(kernel)
    A = as_square_matrix(a) if K is None else invert(K)
    n = A.shape[0]
    if n == 0:
        raise NotMMatrix("empty matrix")
    off_mask = ~np.eye(n, dtype=bool)
    if n > 1:
        worst = float(A[off_mask].max())
        if worst > SIGN_TOL:
            i, j = np.unravel_index(np.argmax(np.where(off_mask, A, -np.inf)), A.shape)
            raise NotMMatrix(
                f"positive off-diagonal entry A[{i},{j}] = {A[i, j]:.6g}"
            )
        A[off_mask & (A > 0.0)] = 0.0
    diag_a = np.diag(A).copy()
    if (diag_a <= 0).any():
        i = int(np.argmin(diag_a))
        raise NotMMatrix(f"nonpositive diagonal entry A[{i},{i}] = {diag_a[i]:.6g}")
    if K is None:
        try:
            K = invert(A)
        except SingularMatrix as exc:
            raise NotMMatrix(f"singular: {exc}") from exc
    if K.min() < -SIGN_TOL:
        i, j = np.unravel_index(np.argmin(K), K.shape)
        raise NotMMatrix(
            f"inverse entry K[{i},{j}] = {K[i, j]:.6g} below -{SIGN_TOL:g}"
        )
    K = np.maximum(K, 0.0)
    B = 0.0 - A  # D - A off the diagonal (-A would turn a zero of A into -0.0)
    np.fill_diagonal(B, 0.0)
    return MMatrixPair(A=A, K=K, diag_a=diag_a, B=B, row_sums=A.sum(axis=1))


def _submask_pairs(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (r, u) of ``bits``-bit masks with u a submask of r (3^bits pairs)."""
    r = np.zeros(1, dtype=np.intp)
    u = r
    for b in range(bits):
        r = np.concatenate([r, r | 1 << b, r | 1 << b])
        u = np.concatenate([u, u, u | 1 << b])
    return r, u


def _cycle_sums(M: np.ndarray, a: int) -> np.ndarray:
    """C({a} | U) for every U of {0, ..., a-1}, indexed by the bit mask of U.

    C(T) sums prod M[i, pi(i)] over the cyclic permutations pi of T.  Held-Karp
    from the anchor a: paths[U, v] sums the products along the paths
    a -> ... -> v through exactly the vertices U, one popcount layer at a
    time; closing each path with M[v, a] gives C.
    """
    cyc = np.empty(1 << a)
    cyc[0] = M[a, a]
    if a == 0:
        return cyc
    v = np.arange(a)
    size = sum((np.arange(1 << a) >> b) & 1 for b in range(a))
    paths = np.zeros((1 << a, a))
    paths[1 << v, v] = M[a, :a]
    for p in range(1, a):
        prev = np.flatnonzero(size == p)
        reach = paths[prev] @ M[:a, :a]
        rows, cols = np.nonzero((prev[:, None] >> v) & 1 == 0)
        paths[prev[rows] | 1 << cols, cols] = reach[rows, cols]
    cyc[1:] = paths[1:] @ M[:a, a]
    return cyc


def _disjoint_sum(c: np.ndarray, g: np.ndarray, bits: int) -> np.ndarray:
    """h[R] = sum over U of R of c[U] g[R ^ U], for every ``bits``-bit mask R.

    Direct sums, no transforms: the low _LOW_BITS bits of all (R, U) pairs
    go through one bincount per pair of high parts.
    """
    lo = min(bits, _LOW_BITS)
    r_lo, u_lo = _submask_pairs(lo)
    w_lo = r_lo ^ u_lo
    c2 = c.reshape(-1, 1 << lo)
    g2 = g.reshape(-1, 1 << lo)
    h = np.zeros_like(c2)
    terms, other = np.empty(r_lo.size), np.empty(r_lo.size)
    r_hi, u_hi = _submask_pairs(bits - lo)
    for r, u in zip(r_hi.tolist(), u_hi.tolist()):
        c2[u].take(u_lo, out=terms)
        g2[r ^ u].take(w_lo, out=other)
        terms *= other
        h[r] += np.bincount(r_lo, weights=terms, minlength=1 << lo)
    return h.ravel()


def alpha_permanent(m, alpha: float) -> float:
    """Exact alpha-permanent: sum over permutations of alpha^cycles * prod M[i, pi(i)].

    Grouping permutations by the vertex sets of their cycles gives the
    set-partition recursion f(S) = alpha sum over T of S with max S in T of
    C(T) f(S \\ T), f(empty) = 1, perm = f({0..n-1}), with C from
    ``_cycle_sums``.  f is stored by bit mask; the sets with maximum a fill
    f[2^a : 2^(a+1)].  Cost O(2^n n^2) for the cycle sums and O(3^n) for the
    partition step; n is capped at PERMANENT_CAP, and a value that
    overflows is refused.  ``alpha_permanent_rel_err`` bounds the rounding
    error.
    """
    M = as_square_matrix(m)
    n = M.shape[0]
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if n > PERMANENT_CAP:
        raise DimensionTooLarge(
            f"alpha_permanent sums 3^(n-1) subset pairs; n = {n} exceeds cap {PERMANENT_CAP}"
        )
    f = np.ones(1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for a in range(n):
            f = np.concatenate([f, alpha * _disjoint_sum(_cycle_sums(M, a), f, a)])
    if not math.isfinite(f[-1]):
        raise OutOfRange(f"the alpha-permanent overflows the float range at alpha = {alpha:g}, "
                         f"max |M| = {float(np.abs(M).max()):g}")
    return float(f[-1])


def _rounding_depth(n: int) -> int:
    """Longest chain of roundings from an input to ``alpha_permanent``'s result.

    A sum of N terms, in any order, rounds each term at most N - 1 times;
    adding the exact zeros of absent path entries rounds nothing.
    * A Held-Karp path through p vertices is a sum of p - 1 extended paths,
      each one product: h(p) = h(p - 1) + 1 + (p - 2), h(1) = 0, so
      h(p) = p(p - 1)/2.  Closing it adds one product and a sum of p terms,
      so a cycle sum over t vertices has depth c(t) = t(t - 1)/2.
    * f(S) with |S| = s is a sum of 2^(s-1) products C(T) f(S \\ T), times
      alpha: d(s) = 2^(s-1) + 1 + max over 1 <= t <= s of c(t) + d(s - t),
      d(0) = 0.
    """
    depth = [0]
    for s in range(1, n + 1):
        depth.append((1 << (s - 1)) + 1
                     + max(t * (t - 1) // 2 + depth[s - t] for t in range(1, s + 1)))
    return depth[n]


def alpha_permanent_rel_err(m, alpha: float, value: float) -> float:
    """Bound on |value - perm_alpha(M)| / |value| for value = alpha_permanent(m, alpha).

    With d = ``_rounding_depth(n)`` and unit roundoff u, every monomial
    alpha^c prod M[i, pi(i)] reaches the result with a relative error of at
    most gamma_d = d u / (1 - d u), so the error is at most
    gamma_d perm_alpha(|M|) (barring underflow).  perm_alpha(|M|) is value
    itself when M has no negative entry, and one more ``alpha_permanent``
    call otherwise; its own rounding adds the factor 1 / (1 - gamma_d).
    A zero value of a matrix with negative entries has no relative bound
    and is refused with OutOfRange, whose message carries the absolute bound.
    """
    M = as_square_matrix(m)
    du = _rounding_depth(M.shape[0]) * _UNIT_ROUNDOFF
    gamma = du / (1.0 - du)
    magnitude = alpha_permanent(np.abs(M), alpha) if (M < 0).any() else value
    err = gamma / (1.0 - gamma) * magnitude
    if value == 0.0:
        if err:
            raise OutOfRange(f"the alpha-permanent evaluates to 0, with an absolute error of "
                             f"at most {err:.3g} and no relative error bound")
        return 0.0
    return err / abs(value)


def spectral_radius_nonneg(m) -> float:
    """Perron root of an entrywise nonnegative matrix: its largest eigenvalue modulus.

    LAPACK's balancing permutes triangular blocks out before the QR
    iteration, so an acyclic matrix (the chain never returns to a state)
    gets exactly 0.  To first order, rounding splits a defective Perron
    root into eigenvalues spread evenly around it, so the largest modulus
    falls below it by a few unit roundoffs at most, although each of them
    is only accurate to about sqrt(u).
    """
    M = as_square_matrix(m)
    if M.size == 0:
        return 0.0
    if M.min() < 0:
        raise ValueError("entrywise nonnegative matrix required")
    return float(np.abs(np.linalg.eigvals(M)).max())
