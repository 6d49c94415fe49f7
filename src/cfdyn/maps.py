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


@dataclass(frozen=True)
class StepDecision:
    """Where and how the digit comparison resolved.

    For strip/reduce, (c, d) is the bottom row of the inverse-branch
    matrix: |T'(x)| equals (c*y + d)**2 with y the image of x."""

    case: str  # "strip" | "reduce" | "zero"
    k: int = 0
    digit_x: float = 0
    digit_alpha: float = 0
    c: int = 0
    d: int = 0


def _decide(alpha: ContinuedFraction, dx: Iterator, cap: int) -> StepDecision:
    """Compare the parameter's digits with the stream dx, at most cap of
    them; this comparison is the definition of the map."""
    da = alpha.digits()
    qm1, q = 0, 1  # q_{k-2}, q_{k-1} of the shared prefix, starting at k = 1
    for k in range(1, cap + 1):
        a = next(da, None)
        b = next(dx, None)
        if a is None or b is None:
            raise TruncationExhausted(f"digit {k} is not settled")
        if a == b:
            if not isinstance(a, int):  # both streams ended: equal rationals
                return StepDecision("zero", k)
            qm1, q = q, a * q + qm1
            continue
        if not isinstance(b, int):  # x ends first: prefix of the parameter
            return StepDecision("zero", k)
        if not isinstance(a, int) or b < a:
            return StepDecision("strip", k, b, a, q, q * b + qm1)
        return StepDecision("reduce", k, b, a, a * q + qm1, q)
    # streams agree beyond the decision horizon for eventually periodic
    # sequences, hence agree everywhere
    return StepDecision("zero", cap + 1)


def _image(d: StepDecision, x: ContinuedFraction) -> ContinuedFraction:
    if d.case == "zero":
        return ZERO
    if d.case == "strip":
        return drop_digits(x, d.k)
    return replace_first_digit(drop_digits(x, d.k - 1), d.digit_x - d.digit_alpha)


def t_alpha_step(alpha: ContinuedFraction, x: ContinuedFraction) -> ContinuedFraction:
    """One application of the map with the given parameter expansion."""
    cap = _decision_horizon(alpha, len(x.head), len(x.period))
    return _image(_decide(alpha, x.digits(), cap), x)


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
    d = _decide(alpha, x.digits(), _decision_horizon(alpha, len(x.head), len(x.period)))
    if d.case == "zero":
        raise DerivativeUndefined("the comparison never resolves at this point")
    y, _ = cf_value(_image(d, x))
    return _log_deriv(d.c, d.d, y)


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


class _Cursor:
    """An orbit point that the map edits in place.

    `rev` is the remaining head, last digit first, so a step drops or
    rewrites only the leading digits it consumes and never copies the
    expansion; `phase` is where the period stream resumes once the head
    is used up.

    The cursor also keeps a sliding convergent window: the product
    G = prod [[a_i, 1], [1, 0]] of its first w = min(_WINDOW, available)
    digits, stored as (p, p_prev, q, q_prev) with G = [[q, q_prev],
    [p, p_prev]] -- the integers _last_convergent gives for those digits,
    so p/q is cf_value's float.  Each edit updates G in a few exact steps
    instead of rebuilding it: a dropped digit a left-multiplies G by
    [[a, 1], [1, 0]]^-1 = [[0, 1], [1, -a]] and each digit entering the
    window at the far end right-multiplies it by [[b, 1], [1, 0]]; a new
    first digit is one shear of row 0 by row 1.  A drop deeper than the
    window rebuilds it."""

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

    def _ahead(self, start: int, stop: int) -> list:
        """The stream's digits at positions start..stop-1."""
        h = len(self.rev)
        if stop <= h:
            return self.rev[h - stop:h - start][::-1]
        return list(islice(self.digits(), start, stop))

    def drop(self, j: int) -> None:
        w = self.w
        if j <= w:  # the dropped digits, and the ones that refill the window
            gone, new = self._ahead(0, j), self._ahead(w, w + j)
        extra = j - len(self.rev)
        if extra > 0:  # only a periodic stream has digits past the head
            self.rev.clear()
            self.phase = (self.phase + extra) % len(self.period)
        elif j:
            del self.rev[-j:]
        if j > w:
            self._rebuild()
            return
        p, pm1, q, qm1 = self.p, self.pm1, self.q, self.qm1
        for a in gone:
            q, qm1, p, pm1 = p, pm1, q - a * p, qm1 - a * pm1
        count, self.p, self.pm1, self.q, self.qm1 = _last_convergent(
            new, j, (p, pm1, q, qm1))
        self.w = w - j + count

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
    When the comparison never resolves, the point goes to 0 with no
    derivative: (cursor, 0, 0.0) is yielded and the walk ends; it also
    ends once the cursor is 0.  TruncationExhausted propagates when a
    truncated point runs out of settled digits."""
    cur = _Cursor(x)
    steps = 0
    while steps < n:
        d = _decide(alpha, cur.digits(),
                    _decision_horizon(alpha, len(cur.rev), len(cur.period)))
        if d.case == "zero":
            yield cur, 0, 0.0
            return
        if d.case == "reduce" and d.k == 1:
            m = min((d.digit_x - 1) // d.digit_alpha, n - steps)
            cur.set_first(d.digit_x - m * d.digit_alpha)
            dlog = _log_deriv(m * d.digit_alpha, 1, cur.value())
        else:
            if d.case == "strip":
                cur.drop(d.k)
            else:
                cur.drop(d.k - 1)
                cur.set_first(d.digit_x - d.digit_alpha)
            m = 1
            dlog = _log_deriv(d.c, d.d, cur.value())
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


class _RewriteEngine:
    """Token transducer behind the flip involution.

    Digit n emits the block (1 repeated n-2 times, then 2); the very
    first digit uses n-1 ones.  A block with a negative one-count merges
    into the pending token instead, growing it by one.  Tokens before
    the pending one are settled and never change afterwards."""

    def __init__(self) -> None:
        self.settled: list[int] = []
        self.pending: int | None = None
        self.first = True

    def feed(self, n: int) -> None:
        ones = n - 1 if self.first else n - 2
        self.first = False
        if ones < 0:
            # only reachable with a pending token: the first block never
            # has a negative one-count
            self.pending += 1
            return
        if self.pending is not None:
            self.settled.append(self.pending)
        self.settled.extend([1] * ones)
        self.pending = 2


def jimm(x: ContinuedFraction) -> ContinuedFraction:
    """The digit-rewrite involution.

    Rationals land on expansions with an all-ones tail; expansions with
    an all-ones tail land back on rationals (the pending token grows
    without bound and falls off the end); other periodic expansions stay
    periodic.  Truncated input propagates its settled prefix."""
    eng = _RewriteEngine()
    if x.is_truncated:
        for a in x.head:
            eng.feed(a)
        return ContinuedFraction(tuple(eng.settled), (), False)
    if x.is_rational:
        for a in x.head:
            eng.feed(a)
        tokens = eng.settled + ([eng.pending] if eng.pending is not None else [])
        return ContinuedFraction(tuple(tokens), (1,))
    if x.period == (1,):
        for a in x.head:
            eng.feed(a)
        return ContinuedFraction(tuple(eng.settled))
    # generic periodic input: after one full cycle the pending token at
    # the cycle boundary is already in its steady state, so the tokens
    # settled during the second cycle are one full output period
    for a in x.head:
        eng.feed(a)
    for a in x.period:
        eng.feed(a)
    s1, p1 = len(eng.settled), eng.pending
    for a in x.period:
        eng.feed(a)
    s2, p2 = len(eng.settled), eng.pending
    if p1 != p2:
        raise ConvergenceError("rewrite cycle failed to stabilise")
    return ContinuedFraction(tuple(eng.settled[:s1]), tuple(eng.settled[s1:s2]))
