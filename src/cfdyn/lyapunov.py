"""Lyapunov-exponent estimators for the map family.

Two estimators: the direct orbit average of log-derivatives (any
parameter), and denominator growth of the expansion (classical map only).
Monte Carlo sampling draws exact dyadic rationals so orbits are computed
in integer arithmetic with no precision cliff; float iteration would shed
all information after a few dozen steps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ._lazy import lazy_import
from .cf import ContinuedFraction, _last_convergent, cf_from_rational
from .errors import (
    DerivativeUndefined,
    DomainError,
    PrecisionBudgetError,
    TruncationExhausted,
)
from .maps import GAUSS_ALPHA, _orbit_runs

np = lazy_import("numpy")

BITS_PER_STEP = 4  # digit entropy is ~1.7 bits/step a.e.; doubled for slack
BITS_MAX = 2 ** 22  # bits per Monte Carlo start: 10^6 steps need 4*10^6


class OrbitAverage(NamedTuple):
    value: float        # mean log-derivative over the steps actually run
    steps: int          # derivative evaluations behind the mean
    terminated: bool    # orbit reached the fixed point 0 before n steps


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    stderr: float
    n_samples: int
    n_steps: int
    method: str
    discarded: int = 0

    def __post_init__(self):
        if self.n_steps < 1 or self.n_samples < 1:
            raise DomainError("need at least one sample and one step")
        if self.stderr < 0 or not math.isfinite(self.value):
            raise DomainError("estimate fields out of range")


def lyapunov_orbit(alpha: ContinuedFraction, x: ContinuedFraction,
                   n: int) -> OrbitAverage:
    """Average log|T'| along the orbit of x, up to n steps.

    Orbits of rationals eventually land on 0, where the map is stopped;
    the partial average and a termination flag are returned for those.
    No state is kept: memory stays O(digits of x) whatever n is."""
    if n < 1:
        raise DomainError("n must be >= 1")
    total = 0.0
    steps = 0
    try:
        for cur, m, dlog in _orbit_runs(alpha, x, n):
            total += dlog
            steps += m
    except TruncationExhausted:
        raise TruncationExhausted(
            "orbit ran out of settled digits before finishing") from None
    if steps == 0:
        raise DerivativeUndefined("no derivative-carrying step was taken")
    # the walk ends early only where its last run hit 0
    return OrbitAverage(total / steps, steps, m == 0 or cur.is_zero())


def lyapunov_qn(x: ContinuedFraction, n: int) -> float:
    """2 log(q_n)/n from the exact n-th convergent denominator.

    This growth rate estimates the exponent of the classical map only."""
    if n < 1:
        raise DomainError("n must be >= 1")
    count, _, _, q_n, _ = _last_convergent(x.digits(), n)
    if count < n:
        raise TruncationExhausted(f"point has fewer than {n} digits")
    return 2.0 * math.log(q_n) / n


def monte_carlo_lyapunov(alpha: ContinuedFraction, n_samples: int,
                         n_steps: int, bits: int | None = None, seed: int = 0,
                         method: str = "deriv_sum") -> LyapunovEstimate:
    """Sample exact dyadic rationals, run the chosen estimator on each,
    and report mean with standard error.

    Samples whose orbit terminates before half the requested steps (or,
    for the growth method, whose expansion is shorter than n_steps) are
    redrawn and counted in `discarded`.  A start wider than BITS_MAX
    bits raises PrecisionBudgetError before the first draw, and a
    negative seed DomainError: random.Random would seed it as its
    absolute value, so it would repeat another seed's draws."""
    if n_samples < 1 or n_steps < 1:
        raise DomainError("need at least one sample and one step")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if bits is None:
        bits = BITS_PER_STEP * n_steps
    if bits < BITS_PER_STEP * n_steps:
        raise PrecisionBudgetError(
            f"{bits} bits cannot supply {n_steps} expansion steps; "
            f"need at least {BITS_PER_STEP * n_steps}")
    if bits > BITS_MAX:
        raise PrecisionBudgetError(
            f"{bits} bits per start is past BITS_MAX = {BITS_MAX}")
    method = method.strip().lower()
    if method not in ("deriv_sum", "qn_growth"):
        raise DomainError(f"unknown method {method!r}")
    if method == "qn_growth" and alpha != GAUSS_ALPHA:
        raise DomainError("denominator growth estimates the classical map only")

    values = []
    discarded = 0
    draws = 0
    max_draws = 10 * n_samples + 100
    while len(values) < n_samples:
        if draws >= max_draws:
            raise PrecisionBudgetError(
                f"discarded {discarded} of {draws} draws; the bit budget "
                "cannot sustain this many steps")
        rng = random.Random(seed * 1_000_003 + draws)
        draws += 1
        num = rng.getrandbits(bits)
        if num == 0:
            discarded += 1
            continue
        x = cf_from_rational(Fraction(num, 1 << bits))
        if method == "qn_growth":
            try:
                values.append(lyapunov_qn(x, n_steps))
            except TruncationExhausted:
                discarded += 1
            continue
        try:
            avg = lyapunov_orbit(alpha, x, n_steps)
        except (DerivativeUndefined, TruncationExhausted):
            discarded += 1
            continue
        if 2 * avg.steps < n_steps:
            discarded += 1
            continue
        values.append(avg.value)

    arr = np.asarray(values)
    mean = float(math.fsum(values) / n_samples)
    stderr = float(np.std(arr, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return LyapunovEstimate(mean, stderr, n_samples, n_steps, method, discarded)
