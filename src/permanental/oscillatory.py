"""Half-period lobe summation with Euler-type acceleration.

The Fourier-type integrals handled here have integrands decaying as slowly
as 1/(lam log^c lam), so naive truncation at any affordable cutoff is the
dominant error source.  Instead the axis is partitioned at the trig zeros,
each lobe is integrated with a vectorized Gauss-Kronrod-21 rule whose
embedded Gauss-10 sum gives the error estimate, and the alternating lobe
sums are accelerated by repeated averaging; the acceleration error is
estimated from the last two averaging depths.  Everything here is numpy
only; the non-oscillatory integrals of ``levy`` use its Gauss-Legendre
panels instead.
"""

from __future__ import annotations

import math

import numpy as np

# Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK qk21): the Kronrod
# abscissae from the endpoint inwards, their weights, and the weights of the
# embedded 10-point Gauss rule, whose nodes are every second Kronrod node.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077589089546340, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# full 21-node layout, ascending: Gauss weights sit on the odd positions
_GK_X = np.array([-x for x in _XGK[:10]] + list(_XGK[::-1]))
_GK_W = np.array(_WGK[:10] + _WGK[::-1])
_G10_W = np.zeros(21)
_G10_W[1:10:2] = _WG
_G10_W[11:20:2] = _WG[::-1]


def euler_accelerate(terms) -> tuple[float, float]:
    """Sum an (eventually) alternating series by repeated averaging.

    Returns (estimate, error_estimate); the estimate is the averaging depth
    whose final entry moved least relative to the previous depth.
    """
    t = np.asarray(terms, dtype=float)
    if t.size == 0:
        return 0.0, 0.0
    row = np.cumsum(t)
    best = float(row[-1])
    best_err = abs(float(t[-1]))
    prev_last = float(row[-1])
    for _ in range(min(t.size - 1, 80)):
        row = 0.5 * (row[:-1] + row[1:])
        last = float(row[-1])
        diff = abs(last - prev_last)
        if diff <= best_err:
            best_err = diff
            best = last
        prev_last = last
    return best, best_err


def lobe_boundaries(z: float, kind: str, count: int, start_index: int = 0) -> np.ndarray:
    """Boundaries of sign-constant half-period lobes of trig(lam*z).

    cos lobes run between odd multiples of pi/(2z); sin lobes between
    multiples of pi/z.  The first boundary is the head/lobe split.
    """
    if kind == "cos":
        return (2 * np.arange(start_index, start_index + count + 1) + 1) * math.pi / (2 * z)
    if kind == "sin":
        return (np.arange(start_index, start_index + count + 1) + 1) * math.pi / z
    raise ValueError(f"kind must be cos or sin, got {kind!r}")


def gk21_nodes(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod-21 nodes of the panels [a_j, b_j], shape (P, 21), and
    the panel half widths."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * _GK_X, half


def gk21_sums(values: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod-21 panel integrals of values (..., P, 21) taken at
    ``gk21_nodes``, with |Kronrod - Gauss-10| as their error estimates."""
    kronrod = (values @ _GK_W) * half
    gauss = (values @ _G10_W) * half
    return kronrod, np.abs(kronrod - gauss)
