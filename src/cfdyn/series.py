"""Shared numeric helpers: an exact Fibonacci table and the bound on its
reciprocal power sums, the one Euler-Maclaurin engine behind every
shifted power sum, and the (value, tail) pair every series returns."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError


class SeriesValue(NamedTuple):
    """A computed sum together with a bound on the truncation error.

    Unpacks like the plain ``(value, tail)`` pair."""

    value: float
    tail: float


_FIB = [1, 0]   # F_{-1}, F_0


def fibonacci(k: int) -> int:
    """F_k with the convention F_{-1} = 1, F_0 = 0."""
    if k < -1:
        raise DomainError("Fibonacci index must be >= -1")
    while len(_FIB) <= k + 1:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[k + 1]


def _fib_bound(p: float) -> float:
    """phi^p / (1 - phi^-p) >= sum_{j>=1} F_j^(-p) for p > 0, as F_j >=
    phi^(j-2); times u_1^(-p) it bounds sum_j u_j^(-p) when u_j >= F_j u_1."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return phi ** p / (1.0 - phi ** -p)


# 12 explicit summands, then B_{2k}/(2k)! for k = 1..7: six corrections
# and the first omitted one, the tail
_EXPLICIT = np.arange(12.0)
_BERNOULLI = np.array([1 / 12, -1 / 720, 1 / 30240, -1 / 1209600,
                       1 / 47900160, -691 / 1307674368000, 1 / 74724249600])
_EVEN = 2.0 * np.arange(7)


def _power(u, e):
    """u ** e for an array of exponents, rounded as numpy rounds a scalar
    exponent: at -1 that is the reciprocal, which rounds differently from
    numpy's general power."""
    if -1.0 in e.flat:  # for a few exponents, cheaper than a numpy reduction
        return np.where(e == -1.0, 1.0 / u, u ** e)
    return u ** e


def power_tail(a, b, p, start) -> SeriesValue:
    """sum_{i >= start} (a*i + b)^(-p) by Euler-Maclaurin: 12 explicit
    summands, the integral and six Bernoulli corrections.  The summand is
    completely monotone in i, so the remainder lies below the first
    omitted correction, returned as the tail (Olver, Asymptotics and
    Special Functions, 1974, 8.3).  a, b, p and start are scalars or numpy
    arrays, broadcast together to give elementwise sums, each the same
    bits as its scalar call; an infinite start gives 0.  At p = 1 the sum
    diverges; the integral term -log(u)/a then makes the value at start 0
    -(digamma(b/a) + log a)/a, and differences at one a converge."""
    u0 = a * start + b
    scalar = getattr(p, "ndim", 0) == 0 and getattr(u0, "ndim", 0) == 0
    # numpy's array and scalar powers round differently, so scalars are
    # summed as one-element arrays: a point's sum never depends on its batch
    a, u0, p = (np.array(v, dtype=float, ndmin=1)[..., None] for v in (a, u0, p))
    lo = p.min()
    if not (1 <= lo and p.max() < math.inf and a.min() > 0 and u0.min() > 0):
        raise DomainError("need a > 0, summands > 0 and a finite p >= 1")
    u = u0 + a * _EXPLICIT.size
    one = p == 1  # where the integral is -log(u)/a, not this quotient
    integral = _power(u, 1.0 - p) / (a * (p - 1.0 + one))
    if lo == 1:
        integral = np.where(one, -np.log(u) / a, integral)
    # the k-th correction: B_{2k}/(2k)! (p)_{2k-1} a^(2k-1) u^(1-p-2k)
    coeffs = _BERNOULLI * np.cumprod(p + np.arange(13.0), axis=-1)[..., ::2]
    corr = coeffs * (a * u ** (-p - 1.0)) * (a / u) ** _EVEN
    total = (np.add.reduce(_power(u0 + a * _EXPLICIT, -p), axis=-1)
             + np.add.reduce(corr[..., :-1], axis=-1)
             + (integral + 0.5 * _power(u, -p))[..., 0])
    tail = np.abs(corr[..., -1])
    return SeriesValue(total[0], tail[0]) if scalar else SeriesValue(total, tail)


def hurwitz_sum(z: float, a: float) -> SeriesValue:
    """sum_{k >= 0} (k + a)^(-z), the Hurwitz zeta function."""
    if not z > 1:
        raise DomainError("power sum diverges for exponent <= 1")
    return power_tail(1.0, a, z, 0)
