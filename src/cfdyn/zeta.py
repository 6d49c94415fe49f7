"""Zeta-type series attached to the map family.

One argument convention is used throughout: exponent first, shift second,
hurwitz_zeta(z, a) = sum_{n>=0} (n+a)^(-z).  Branch-weighted sums are
expressed through the transfer machinery so their truncation tails come
from a single code path; at parameter 0 that sum is a Hurwitz sum and is
taken in closed form.  The Fibonacci sums fib_* are the other exception:
they sum the closed Fibonacci form by its own recurrence, which tests
check against the golden parameter's branch walk and `verify` against
the reciprocal Fibonacci constant.
"""

from __future__ import annotations

import math
import sys

from .cf import ZERO, ContinuedFraction
from .errors import DomainError
from .series import SeriesValue, _fib_bound, hurwitz_sum
from .transfer import apply_transfer


hurwitz_zeta = hurwitz_sum   # sum_{n>=0} (n+a)^(-z), certified tail


def zeta_alpha(alpha: ContinuedFraction, s: float, t: float,
               y: float) -> SeriesValue:
    """Branch sum  sum_b |b'(y)|^s b(y)^t  over the inverse branches of
    the parameter's map: the transfer operator applied to u^t.  At
    parameter 0 the branches are 1/(y+i), so the sum is the Hurwitz sum
    sum_{i>=1} (y+i)^(-2s-t), taken in closed form."""
    if not 0 < y <= 1:
        raise DomainError("y must lie in (0, 1]")
    if not (abs(t) < math.inf and 2.0 * s + t > 1.0):
        raise DomainError("branch sum needs a finite t and 2s+t > 1")
    if alpha == ZERO:
        return hurwitz_sum(2.0 * s + t, 1.0 + y)

    def power(u):
        return u ** t

    return apply_transfer(alpha, s, power, y)


_FIB_TERMS = 400  # summands before the tail bound takes over


def fib_hurwitz(s: float, t: float, y: float) -> SeriesValue:
    """sum_{k>=0} (F_k y + F_{k-1})^t / (F_{k+1} y + F_k)^(2s+t), with
    F_{-1} = 1.  The bases u_k = F_k y + F_{k-1} follow u_{k+1} = u_k +
    u_{k-1} from u_0 = 1, u_1 = y, and each summand is taken as
    exp(t log u_k - (2s+t) log u_{k+1}) so that no power overflows.
    Past the last summand k >= 1 the tail is max(1, 2^-t) u_{k+2}^(-2s)
    Phi(2s), Phi from series._fib_bound: from j = 2 on u_j <= u_{j+1} <=
    2 u_j, so summand j is at most max(1, 2^-t) u_{j+1}^(-2s)."""
    if s <= 0:
        raise DomainError("terms only decay for s > 0")
    if not y > 0:
        raise DomainError("y must be positive")
    power = 2.0 * s + t
    u_prev, u = 1.0, y
    log_prev = 0.0  # log u_0
    total = 0.0
    for _ in range(_FIB_TERMS):
        log_u = math.log(u)
        term = math.exp(t * log_prev - power * log_u)
        total += term
        u_prev, u, log_prev = u, u + u_prev, log_u
        if term < 1e-18 * total:
            break
    return SeriesValue(total, max(1.0, 2.0 ** -t) * u ** (-2.0 * s)
                       * _fib_bound(2.0 * s))  # u is u_{k+2} here


def fib_zeta(s: float) -> SeriesValue:
    """sum_{k>=1} F_k^(-s), through the two-variable series at y=1: that
    series starts at F_2, so the k=1 term contributes the extra 1."""
    inner = fib_hurwitz(s / 2.0, 0.0, 1.0)
    return SeriesValue(inner.value + 1.0, inner.tail)


def fib_functional_eq_residual(s: float, t: float, x: float) -> SeriesValue:
    """Both sides of the shift identity of the two-variable series,
    computed by independent summation:

        Z(s, t, 1 + 1/x) = x^(2s) Z(s, t, x) - x^(-t)

    (each summand at 1+1/x equals x^(2s) times the next summand at x, and
    the k=0 summand accounts for the x^(-t)).  Returns lhs - rhs with the
    combined truncation tail plus a rounding allowance: the truncation
    tails alone sit orders of magnitude below float accumulation noise,
    so the honest uncertainty is dominated by the magnitudes summed."""
    if x <= 0:
        raise DomainError("x must be positive")
    lhs = fib_hurwitz(s, t, 1.0 + 1.0 / x)
    rhs = fib_hurwitz(s, t, x)
    scale = x ** (2.0 * s)
    shift = x ** (-t)
    residual = lhs.value - (scale * rhs.value - shift)
    fuzz = 64.0 * sys.float_info.epsilon * (abs(lhs.value)
                                            + scale * abs(rhs.value) + shift)
    return SeriesValue(residual, lhs.tail + scale * rhs.tail + fuzz)
