"""Independent reference computations for the benchmark's output checks.

Nothing here imports cfdyn: each oracle recomputes a quantity from plain
integer arithmetic or a known constant, so a check that compares the
program against it is not the program checking itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

GAUSS_LYAPUNOV = math.pi ** 2 / (6.0 * math.log(2.0))
RECIPROCAL_FIBONACCI = 3.35988566624317755317201130291892717968890513


def euclid_digits(p: int, q: int) -> list[int]:
    """Partial quotients of p/q in [0, 1], shortest expansion (last digit
    at least 2 unless the value is 1)."""
    digits = []
    while p:
        d, r = divmod(q, p)
        digits.append(d)
        p, q = r, p
    return digits


def gauss_orbit_log_sum(p: int, q: int, n: int) -> float:
    """Sum of log|G'| over n steps of the Gauss map x -> 1/x - floor(1/x)
    from x = p/q, in closed form.

    x_0 x_1 ... x_{n-1} = 1 / (q_n + q_{n-1} x_n), so the sum of
    -2 log x_k is 2 log(q_n + q_{n-1} x_n), with q_k the convergent
    denominators of the start's own expansion."""
    q_prev, q_cur = 0, 1
    for _ in range(n):
        if p == 0:
            raise ValueError(f"start has fewer than {n} partial quotients")
        d, r = divmod(q, p)
        q_prev, q_cur = q_cur, d * q_cur + q_prev
        p, q = r, p
    x_n = p / q
    return 2.0 * (math.log(q_cur) + math.log1p(q_prev / q_cur * x_n))


def golden_orbit_log_sum(p: int, q: int, n: int) -> tuple[float, int]:
    """(sum of log|T'|, steps taken) for the golden-parameter map from
    x = p/q, on exact rationals.

    One step applies x -> 1/x - 1 while x > 1/2, then x -> x/(1-x).  The
    orbit stops at 0 and at 1, where the map has no derivative.  Both
    moves are unimodular, so (p, q) stays in lowest terms."""
    total = 0.0
    steps = 0
    while steps < n:
        if p == 0 or p == q:
            break
        while 2 * p > q:        # x > 1/2: x -> 1/x - 1, |d/dx| = 1/x^2
            total += 2.0 * math.log(q / p)
            p, q = q - p, p
        if p == 0:
            break
        total += 2.0 * math.log(q / (q - p))  # x -> x/(1-x), 1/(1-x)^2
        p, q = p, q - p
        steps += 1
    return total, steps


def question_mark(x: Fraction) -> Fraction:
    """Minkowski's ?(x) on a rational in [0, 1] by the alternating series
    2 * sum_k (-1)^(k+1) 2^-(a_1 + ... + a_k)."""
    total = Fraction(0)
    expo = 0
    for k, a in enumerate(euclid_digits(x.numerator, x.denominator)):
        expo += a
        total += Fraction((-1) ** k, 1 << expo)
    return 2 * total


def digit_map(alpha: Fraction, x: Fraction) -> Fraction:
    """One step of the parameter-alpha digit-comparison map on rationals
    in their shortest expansions.

    At the first digit k where the expansions differ, the matched prefix
    is stripped; if x's digit is the larger one it is kept, reduced by
    alpha's digit.  An expansion that has ended counts as an infinite
    digit.  No difference, or x ending first, gives 0."""
    da = euclid_digits(alpha.numerator, alpha.denominator)
    dx = euclid_digits(x.numerator, x.denominator)
    for k in range(len(dx)):
        b = dx[k]
        a = da[k] if k < len(da) else math.inf
        if a == b:
            continue
        tail = dx[k + 1:] if b < a else [b - a] + dx[k + 1:]
        value = Fraction(0)
        for d in reversed(tail):
            value = 1 / (d + value)
        return value
    return Fraction(0)


def gauss_density(y: float) -> float:
    """The Gauss measure's density 1/((1+y) log 2)."""
    return 1.0 / ((1.0 + y) * math.log(2.0))
