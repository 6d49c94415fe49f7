"""Shared numeric helpers: an exact Fibonacci table, Euler-Maclaurin
tails for power sums, and the (value, tail) pair that every series
evaluator in this package returns."""

from __future__ import annotations

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


def power_tail(a: float, b, p: float, start) -> SeriesValue:
    """Euler-Maclaurin estimate of sum_{i >= start} (a*i + b)^(-p).

    Requires a > 0, p > 1 and a positive first summand.  The summand is
    completely monotone in i, so the magnitude of the second-order
    correction also bounds the remainder; it is returned as the tail.
    b and start may be numpy arrays, giving elementwise estimates; an
    infinite start gives 0.
    """
    if a <= 0 or p <= 1:
        raise DomainError("need a > 0 and p > 1 for a convergent power tail")
    u = a * start + b
    if np.any(u <= 0):
        raise DomainError("first summand must be positive")
    integral = u ** (1.0 - p) / (a * (p - 1.0))
    half = 0.5 * u ** -p
    corr = a * p * u ** (-p - 1.0) / 12.0
    return SeriesValue(integral + half + corr, corr)


def hurwitz_sum(z: float, a: float, n_terms: int = 100_000) -> SeriesValue:
    """sum_{k >= 0} (k + a)^(-z): direct summation of n_terms plus the
    integral correction (n + a)^(1-z)/(z-1).

    The correction leaves an error below the first omitted term, which
    is reported as the tail."""
    if z <= 1:
        raise DomainError("power sum diverges for exponent <= 1")
    if a <= 0:
        raise DomainError("shift must be positive")
    if n_terms < 1:
        raise DomainError("need at least one explicit term")
    k = np.arange(n_terms, dtype=float)
    partial = float(np.sum((k + a) ** -z))
    u = n_terms + a
    return SeriesValue(partial + u ** (1.0 - z) / (z - 1.0), u ** -z)
