"""A one-parameter family of interval maps acting on digit expansions.

Each member is indexed by the expansion of a parameter in [0, 1].  The
map compares the digit stream of its argument with the parameter's and
acts at the first disagreement:

* argument digit smaller (or the parameter's stream ends first): the
  matched prefix and the differing digit are stripped away,
* argument digit larger: the matched prefix is stripped and the
  differing digit is reduced by the parameter's digit,
* no disagreement (the argument equals the parameter, or its expansion
  is a prefix of it): the image is 0.

The parameter's digit stream is what matters, so the two expansions of
a rational parameter give genuinely different maps; both are useful.

Single steps, log-derivatives and orbits share one comparison,
`_compare`, which reads digits by index: the parameter's from its head
and one period, the point's from the list an orbit cursor edits (the
head, last digit first, then the period from a phase).  No digit stream
is built per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, cycle, islice, repeat
from typing import Iterator

from cfdyn.cf import (
    INF,
    ZERO,
    ContinuedFraction,
    _bare,
    _decision_horizon,
    _digit_sum_budget,
    _last_convergent,
    cf_value,
    drop_digits,
    replace_first_digit,
    same_digits,
)
from cfdyn.errors import (
    ConvergenceError,
    DerivativeUndefined,
    DomainError,
    TruncationExhausted,
)

GAUSS_ALPHA = ZERO
FIBONACCI_ALPHA = ContinuedFraction((), (1,))

_WINDOW = 40  # digits behind an orbit point's float, cf_value's default depth


def _compare(alpha: ContinuedFraction, rev: list, period: tuple, phase: int,
             exact: bool, cap: int) -> tuple:
    """Compare the parameter's digits with a point's, at most cap of them;
    this comparison is the definition of the map.

    The point is laid out as _Cursor holds it; a rational's digits past
    its head are INF.  Returns (case, k, b, a, c, d): case is "strip",
    "reduce" or "zero", k the index where it resolved, b and a the
    point's and the parameter's digits there, and (c, d) the bottom row
    of the inverse-branch matrix: |T'(x)| = (c*y + d)**2, y the image."""
    ah, ap = alpha.head, alpha.period
    na, h = len(ah), len(rev)
    qm1, q = 0, 1  # q_{k-2}, q_{k-1} of the shared prefix, starting at k = 1
    for i in range(cap):
        if i < na:
            a = ah[i]
        elif ap:
            a = ap[(i - na) % len(ap)]
        else:  # None past a truncated stream's settled digits
            a = INF if alpha.exact else None
        if i < h:
            b = rev[h - 1 - i]
        elif period:
            b = period[(phase + i - h) % len(period)]
        else:
            b = INF if exact else None
        if a is None or b is None:
            raise TruncationExhausted(f"digit {i + 1} is not settled")
        if b is INF:  # x has ended: it is the parameter or a prefix of it
            return "zero", i + 1, b, a, 0, 0
        if a == b:
            qm1, q = q, a * q + qm1
        elif a is INF or b < a:
            return "strip", i + 1, b, a, q, q * b + qm1
        else:
            return "reduce", i + 1, b, a, a * q + qm1, q
    # streams agree beyond the decision horizon for eventually periodic
    # sequences, hence agree everywhere
    return "zero", cap + 1, 0, 0, 0, 0


def _step(alpha: ContinuedFraction, x: ContinuedFraction) -> tuple:
    """(image, case, c, d) for one step from x, as _compare decides it."""
    cap = _decision_horizon(alpha, len(x.head), len(x.period))
    case, k, b, a, c, d = _compare(alpha, x.head[::-1], x.period, 0, x.exact, cap)
    if case == "zero":
        return ZERO, case, c, d
    if case == "strip":
        return drop_digits(x, k), case, c, d
    return replace_first_digit(drop_digits(x, k - 1), b - a), case, c, d


def t_alpha_step(alpha: ContinuedFraction, x: ContinuedFraction) -> ContinuedFraction:
    """One application of the map with the given parameter expansion."""
    return _step(alpha, x)[0]


def _log_deriv(c: int, d: int, y: float) -> float:
    """2*log(c*y + d), the log-derivative of a branch step with image y.

    log1p keeps its relative precision where the derivative is near 1,
    close to a neutral fixed point."""
    return 2.0 * math.log1p(c * y + (d - 1))


def log_deriv_at(alpha: ContinuedFraction, x: ContinuedFraction) -> float:
    """log|T'(x)|.

    Defined wherever the digit comparison resolves to a branch; raises
    DerivativeUndefined at 0, at the parameter itself, and at rationals
    whose expansion is a prefix of the parameter's.  It takes one step
    through the public path, so it is the reference that orbit averages
    are tested against."""
    image, case, c, d = _step(alpha, x)
    if case == "zero":
        raise DerivativeUndefined("the comparison never resolves at this point")
    return _log_deriv(c, d, cf_value(image)[0])


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


class _Cursor:
    """An orbit point that the map edits in place.

    `rev` is the remaining head, last digit first, so a step drops or
    rewrites only the leading digits it consumes and never copies the
    expansion; `phase` is where the period stream resumes once the head
    is used up.  Digit i is rev[h-1-i] while i < h = len(rev), then
    period[(phase + i - h) % len(period)]; _compare and drop read it so.

    The cursor also keeps a sliding convergent window: the product
    G = prod [[a_i, 1], [1, 0]] of its first w = min(_WINDOW, available)
    digits, stored as (p, p_prev, q, q_prev) with G = [[q, q_prev],
    [p, p_prev]] -- the integers _last_convergent gives for those digits,
    so p/q is cf_value's float.  Each edit updates G in a few exact steps
    instead of rebuilding it: a dropped digit a left-multiplies G by
    [[a, 1], [1, 0]]^-1 = [[0, 1], [1, -a]] and each digit entering the
    window at the far end right-multiplies it by [[b, 1], [1, 0]]; a new
    first digit is one shear of row 0 by row 1.  drop slides the window
    one digit at a time: the leaving digit is popped off rev (or read at
    the phase, which then advances) and the entering one is read by
    index.  A drop deeper than the window rebuilds it."""

    __slots__ = ("rev", "period", "phase", "exact", "w", "p", "pm1", "q", "qm1")

    def __init__(self, x: ContinuedFraction) -> None:
        self.rev = list(reversed(x.head))
        self.period = x.period
        self.phase = 0
        self.exact = x.exact
        self._rebuild()

    def _rebuild(self) -> None:
        self.w, self.p, self.pm1, self.q, self.qm1 = _last_convergent(
            self.digits(), _WINDOW)

    def digits(self) -> Iterator:
        """The digit stream, as ContinuedFraction.digits() gives it."""
        head = reversed(self.rev)
        if self.period:
            return chain(head, islice(cycle(self.period), self.phase, None))
        return chain(head, repeat(INF)) if self.exact else head

    def drop(self, j: int) -> None:
        rev, period, phase, w = self.rev, self.period, self.phase, self.w
        if j > w:  # deeper than the window: rebuild it
            h = len(rev)
            if j > h:  # only a periodic stream has digits past the head
                rev.clear()
                self.phase = (phase + j - h) % len(period)
            else:
                del rev[h - j:]
            self._rebuild()
            return
        p, pm1, q, qm1 = self.p, self.pm1, self.q, self.qm1
        while j:  # digit 0 leaves, then digit w enters as the new digit w-1
            if rev:
                a = rev.pop()
            else:
                a = period[phase]
                phase = (phase + 1) % len(period)
            q, qm1, p, pm1 = p, pm1, q - a * p, qm1 - a * pm1
            i = len(rev) - w
            if i < 0 and not period:  # past a rational's or a truncated head
                w -= 1
            else:
                b = rev[i] if i >= 0 else period[(phase - 1 - i) % len(period)]
                p, pm1, q, qm1 = b * p + pm1, p, b * q + qm1, q
            j -= 1
        self.w, self.phase, self.p, self.pm1, self.q, self.qm1 = \
            w, phase, p, pm1, q, qm1

    def set_first(self, digit: int) -> None:
        if self.rev:
            old = self.rev[-1]
            self.rev[-1] = digit
        else:  # the first digit comes from the period and joins the head
            old = self.period[self.phase]
            self.rev.append(digit)
            self.phase = (self.phase + 1) % len(self.period)
        self.q += (digit - old) * self.p
        self.qm1 += (digit - old) * self.pm1

    def value(self, lift: int = 0) -> float:
        """cf_value(self.state(lift))[0], from the window: raising the
        first digit by lift shears q to q + lift*p."""
        return self.p / (self.q + lift * self.p)

    def is_zero(self) -> bool:
        return self.exact and not self.rev and not self.period

    def state(self, lift: int = 0) -> ContinuedFraction:
        """The point as a ContinuedFraction, its first digit raised by
        lift."""
        head = list(reversed(self.rev))
        if lift:
            head[0] += lift
        if self.period:
            # the constructor re-applies the canonical pull-left rule
            return ContinuedFraction(
                head, self.period[self.phase:] + self.period[:self.phase])
        return _bare(tuple(head), (), self.exact)


def _orbit_runs(alpha: ContinuedFraction, x: ContinuedFraction,
                n: int) -> Iterator[tuple[_Cursor, int, float]]:
    """Iterate the map from x for up to n steps on one cursor.

    Yields (cursor, m, log-derivative sum) after each run of m steps.  A
    run is one step, or a whole stretch of depth-1 reduce steps: with
    first digit b above the parameter's first digit a, the next
    (b-1)//a steps each subtract a from the first digit and have
    derivative a*y + 1 at their image y = 1/(b - j*a + t), t the tail's
    value, so the m steps telescope to (b+t)/(b-m*a+t) = 1 + m*a*y_m.
    An answer of _compare that resolves at digit 1 depends on the
    point's first digit alone, so the walk keeps those answers by that
    digit and reuses them; deeper answers, and comparisons that raise,
    are made afresh each step.
    When the comparison never resolves, the point goes to 0 with no
    derivative: (cursor, 0, 0.0) is yielded and the walk ends; it also
    ends once the cursor is 0.  TruncationExhausted propagates when a
    truncated point runs out of settled digits."""
    cur = _Cursor(x)
    rev, period = cur.rev, cur.period  # the cursor edits rev in place
    horizon = _decision_horizon(alpha, 0, len(period))  # plus the head's length
    shallow = {}  # answers that resolved at digit 1, by that digit
    steps = 0
    while steps < n:
        lead = rev[-1] if rev else period[cur.phase] if period else None
        answer = shallow.get(lead)
        if answer is None:
            answer = _compare(alpha, rev, period, cur.phase, cur.exact,
                              horizon + len(rev))
            if answer[1] == 1 and lead is not None:
                shallow[lead] = answer
        case, k, b, a, c, d = answer
        if case == "zero":
            yield cur, 0, 0.0
            return
        if case == "reduce" and k == 1:
            m = min((b - 1) // a, n - steps)
            cur.set_first(b - m * a)
            dlog = _log_deriv(m * a, 1, cur.value())
        else:
            if case == "strip":
                cur.drop(k)
            else:
                cur.drop(k - 1)
                cur.set_first(b - a)
            m = 1
            dlog = _log_deriv(c, d, cur.value())
        steps += m
        yield cur, m, dlog
        if cur.is_zero():
            return


@dataclass
class OrbitRecord:
    states: list
    shadow: list
    log_deriv_sum: float
    deriv_steps: int
    hit_zero_at: int | None
    exhausted: bool

    @property
    def steps(self) -> int:
        return len(self.states) - 1


def orbit(alpha: ContinuedFraction, x: ContinuedFraction, n: int) -> OrbitRecord:
    """Iterate the map up to n times, keeping every state, its float
    value and the sum of log-derivatives.

    Stops early at 0 (which is fixed, with no derivative available
    there) or when a truncated argument runs out of settled digits."""
    if n < 0:
        raise DomainError("n must be >= 0")
    states = [x]
    shadow = [cf_value(x)[0]]
    total = 0.0
    dsteps = 0
    hit = None
    exhausted = False
    a = next(alpha.digits(), None)
    try:
        for cur, m, dlog in _orbit_runs(alpha, x, n):
            if m == 0:
                states.append(ZERO)
                shadow.append(0.0)
                hit = dsteps
                break
            # m > 1 only for a run of depth-1 reduce steps: its states
            # differ from the last one in the first digit, by multiples
            # of the parameter's first digit a
            for j in range(m - 1, -1, -1):
                lift = j * a if j else 0
                states.append(cur.state(lift))
                shadow.append(cur.value(lift))
            total += dlog
            dsteps += m
            if cur.is_zero():
                hit = dsteps - 1
    except TruncationExhausted:
        exhausted = True
    return OrbitRecord(states, shadow, total, dsteps, hit, exhausted)


def is_periodic_point(alpha: ContinuedFraction, x: ContinuedFraction, n: int = 1) -> bool:
    cur = x
    for _ in range(n):
        cur = t_alpha_step(alpha, cur)
    return same_digits(cur, x)


def fibonacci_fixed_point(k: int) -> ContinuedFraction:
    """The k-th fixed point of the golden-parameter map:
    [0; 1, (1 repeated k-1 times, then 2)]."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return ContinuedFraction((1,), (1,) * (k - 1) + (2,))


# ---------------------------------------------------------------------------
# The digit-rewrite involution
# ---------------------------------------------------------------------------


def _rewrite(digits, out: list, pending: int) -> int:
    """The flip involution's token rule, a run-length transducer: a digit
    n >= 2 settles the pending token, emits n - 2 ones and leaves a pending
    2; a 1 grows the pending token.  Settled tokens are appended to out and
    the pending one is returned.  It starts at 1, so the very first digit n
    emits n - 1 ones (a first 1 emits none)."""
    for n in digits:
        if n == 1:
            pending += 1
        else:
            out.append(pending)
            out += [1] * (n - 2)
            pending = 2
    return pending


def jimm(x: ContinuedFraction) -> ContinuedFraction:
    """The digit-rewrite involution.

    Rationals land on expansions with an all-ones tail; expansions with
    an all-ones tail land back on rationals (the pending token grows
    without bound and falls off the end); other periodic expansions stay
    periodic.  Truncated input propagates its settled prefix.  Only the
    last case needs the canonicalising constructor: a period (1,) follows
    a token >= 2.  The output has at most one digit per unit of the
    digit sum of the head and two periods, so past QMARK_BITS it raises
    PrecisionBudgetError before any output is built."""
    _digit_sum_budget(sum(x.head) + 2 * sum(x.period))
    out = []
    pending = _rewrite(x.head, out, 1)
    if x.is_truncated:
        return _bare(tuple(out), (), False)
    if x.is_rational:
        if pending > 1:  # the zero expansion leaves no token
            out.append(pending)
        return _bare(tuple(out), (1,))
    if x.period == (1,):
        return _bare(tuple(out))
    # generic periodic input: after one full cycle the pending token at
    # the cycle boundary is already in its steady state, so the tokens
    # settled during the second cycle are one full output period
    first = _rewrite(x.period, out, pending)
    start = len(out)
    if _rewrite(x.period, out, first) != first:
        raise ConvergenceError("rewrite cycle failed to stabilise")
    return ContinuedFraction(tuple(out[:start]), tuple(out[start:]))
