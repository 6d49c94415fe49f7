"""Exact continued-fraction expansions and the arithmetic around them.

Every number handled here lives in the closed unit interval and is
represented by its digit sequence [0; a_1, a_2, ...] with integer digits
a_i >= 1.  Three tail behaviours are supported:

* rational: the digit list ends; the stream continues with an infinite
  digit (INF) forever,
* periodic: the digits eventually cycle, giving a quadratic irrational,
* truncated: a finite settled prefix of an otherwise unknown expansion.

Rationals in (0, 1) have two valid expansions.  The "minus" form ends in
a digit >= 2, the "plus" form ends in 1.  Both are first-class here: the
dynamics downstream genuinely distinguishes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

from cfdyn.errors import (
    DomainError,
    NonTerminatingError,
    PoleError,
    PrecisionBudgetError,
    TruncationExhausted,
)

INF = math.inf

# the largest digit sum an exact path takes: the digit sum of an
# expansion is the width of its ? numerator, the length of its binary word
# and a bound on the length of its jimm image.  Tests and fixtures reach
# 500, `cfdyn verify` 71, and the benchmark's rationals with denominators
# up to 2**20 at most 2**20 (a digit sum never exceeds the denominator)
QMARK_BITS = 1 << 22

# the most trial divisors _square_free_split takes, a few tenths of a second
SQUAREFREE_TRIALS = 1 << 20


# ---------------------------------------------------------------------------
# Mobius maps with unit determinant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MobiusMap:
    """Integer map y -> (a*y + b)/(c*y + d) with determinant +1 or -1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if det not in (1, -1):
            raise DomainError(f"Mobius map needs determinant +-1, got {det}")

    def apply(self, y):
        """Evaluate at y.  Exact for int and Fraction inputs."""
        if isinstance(y, int):
            y = Fraction(y)
        num = self.a * y + self.b
        den = self.c * y + self.d
        if den == 0:
            raise PoleError(self.pole())
        return num / den

    def pole(self):
        """The input where the map blows up, or None if there is none."""
        if self.c == 0:
            return None
        return Fraction(-self.d, self.c)


# ---------------------------------------------------------------------------
# Exact quadratic irrationals
# ---------------------------------------------------------------------------


def _square_free_split(n: int) -> tuple[int, int]:
    """n = f*f*m with m squarefree.  Returns (f, m); n must be >= 0.

    Trial division by i = 2, 3, ... takes out every prime factor up to i
    while i**3 <= the cofactor left; that cofactor then has at most two
    prime factors, so one isqrt test tells a square from a squarefree
    rest.  The cofactor is also tested for a square each time a prime
    leaves it, so one large square factor (12 p**2) is settled at once;
    a large cube (2 p**3) still needs trial divisors up to p.  Past
    SQUAREFREE_TRIALS divisors it raises PrecisionBudgetError."""
    if n == 0:
        return 1, 0
    f, m, rest, e = 1, 1, n, 1
    for i in range(2, SQUAREFREE_TRIALS + 2):
        if e:  # the cofactor changed since its last square test
            r = math.isqrt(rest)
            if r * r == rest:
                return f * r, m
        if i * i * i > rest:
            return f, m * rest
        e = 0
        while rest % i == 0:
            rest //= i
            e += 1
        f, m = f * i ** (e // 2), m * i ** (e % 2)
    raise PrecisionBudgetError(
        f"squarefree part of {n} needs more than {SQUAREFREE_TRIALS} trial divisors")


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact (p + q*sqrt(d)) / r with integer entries.

    Normal form: r > 0, d squarefree, q == 0 implies d == 0, and
    gcd(p, q, r) == 1.  Equality of normal forms is equality of values.
    """

    p: int
    q: int
    d: int
    r: int = 1

    def __post_init__(self) -> None:
        p, q, d, r = self.p, self.q, self.d, self.r
        for v in (p, q, d, r):
            if not isinstance(v, int) or isinstance(v, bool):
                raise DomainError(f"surd entries must be integers, got {v!r}")
        if r == 0:
            raise DomainError("zero denominator in surd")
        if d < 0:
            raise DomainError("negative discriminant")
        if q == 0 or d == 0:
            q, d = 0, 0
        else:
            f, m = _square_free_split(d)
            q, d = q * f, m
            if d == 1:
                p, q, d = p + q, 0, 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)

    @classmethod
    def positive_root(cls, a: int, b: int, c: int) -> "QuadraticSurd":
        """The positive root of a*t**2 + b*t + c = 0."""
        if a == 0:
            raise DomainError("leading coefficient must be nonzero")
        disc = b * b - 4 * a * c
        if disc < 0:
            raise DomainError("complex roots")
        for q in (1, -1):
            root = cls(-b, q, disc, 2 * a)
            if root.sign > 0:
                return root
        raise DomainError("no positive root")

    @property
    def sign(self) -> int:
        # sign of p + q*sqrt(d); the stored r is always positive
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        lhs, rhs = p * p, q * q * d
        if p > 0:  # q < 0
            return 1 if lhs > rhs else -1 if lhs < rhs else 0
        return 1 if rhs > lhs else -1 if rhs < lhs else 0

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q:
            raise DomainError("surd is irrational")
        return Fraction(self.p, self.r)

    def square(self) -> "QuadraticSurd":
        p, q, d, r = self.p, self.q, self.d, self.r
        return QuadraticSurd(p * p + q * q * d, 2 * p * q, d, r * r)

    def mobius(self, m: MobiusMap) -> "QuadraticSurd":
        """Exact image under a Mobius map, rationalised."""
        p, q, d, r = self.p, self.q, self.d, self.r
        u1, v1 = m.a * p + m.b * r, m.a * q
        u2, v2 = m.c * p + m.d * r, m.c * q
        norm = u2 * u2 - v2 * v2 * d
        if norm == 0:
            raise PoleError(m.pole())
        return QuadraticSurd(
            u1 * u2 - v1 * v2 * d,
            v1 * u2 - u1 * v2,
            d,
            norm,
        )

    def __float__(self) -> float:
        return (self.p + self.q * math.sqrt(self.d)) / self.r


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


def _minimal_cycle(period: tuple[int, ...]) -> tuple[int, ...]:
    m = len(period)
    for d in range(1, m + 1):
        if m % d == 0 and period == period[:d] * (m // d):
            return period[:d]
    return period


@dataclass(frozen=True)
class ContinuedFraction:
    """Digit expansion [0; a_1, a_2, ...] of a number in [0, 1].

    period == ()  and exact       -> rational, digits are exactly `head`
    period != ()                  -> eventually periodic (quadratic surd)
    period == ()  and not exact   -> truncated: `head` holds the settled
                                     digits of an unknown longer expansion

    Periodic forms are canonicalised on construction (minimal cycle, and
    the cycle pulled as far left as it goes), so equal digit streams
    compare equal as objects.
    """

    head: tuple[int, ...] = ()
    period: tuple[int, ...] = ()
    exact: bool = True

    def __post_init__(self) -> None:
        head = tuple(self.head)
        period = tuple(self.period)
        for a in head + period:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise DomainError(f"digits must be integers >= 1, got {a!r}")
        if period:
            if not self.exact:
                raise DomainError("a periodic expansion cannot be truncated")
            period = _minimal_cycle(period)
            while head and head[-1] == period[-1]:
                head = head[:-1]
                period = period[-1:] + period[:-1]
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "period", period)

    @property
    def is_rational(self) -> bool:
        return self.exact and not self.period

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    @property
    def is_truncated(self) -> bool:
        return not self.exact

    def digits(self) -> Iterator[float]:
        """The digit stream.  Rational tails yield INF forever, periodic
        tails cycle, truncated streams stop at the settled end."""
        yield from self.head
        if self.period:
            while True:
                yield from self.period
        elif self.exact:
            while True:
                yield INF

    def settled(self) -> int | None:
        """How many leading digits are certain; None means all of them."""
        return len(self.head) if self.is_truncated else None

    def __float__(self) -> float:
        return cf_value(self)[0]

    def __str__(self) -> str:
        return cf_to_text(self)


ZERO = ContinuedFraction()
ONE = ContinuedFraction((1,))


def _euclid_quotients(u: int, v: int) -> list[int]:
    """The quotients of Euclid's algorithm on u >= v >= 0.

    Lehmer's method (Knuth, TAOCP vol. 2, section 4.5.2, Algorithm L):
    while v is wider than 62 bits, Euclid runs on u', the leading 62 bits
    of u, and v', the same bits of v.  A quotient is accepted only while
    both ends of its error bracket, (u' + A)//(v' + C) and
    (u' + B)//(v' + D), agree; the cofactors (A, B; C, D) then move the
    full integers once for the whole batch.  If no quotient is certain
    (B == 0), one full divmod is taken.  Plain Euclid finishes below
    2**62.  62 bits is not a setting: on 8000- and 16000-bit starts,
    30- and 126-bit windows measured about as fast, 254 and 510 bits
    slower."""
    out = []
    while v.bit_length() > 62:
        shift = u.bit_length() - 62
        uh, vh = u >> shift, v >> shift
        a, b, c, d = 1, 0, 0, 1
        while vh + c and vh + d:
            qt = (uh + a) // (vh + c)
            if qt != (uh + b) // (vh + d):
                break
            out.append(qt)
            a, b, c, d = c, d, a - qt * c, b - qt * d
            uh, vh = vh, uh - qt * vh
        if b:
            u, v = a * u + b * v, c * u + d * v
        else:
            qt, r = divmod(u, v)
            out.append(qt)
            u, v = v, r
    while v:
        qt, r = divmod(u, v)
        out.append(qt)
        u, v = v, r
    return out


def cf_from_rational(value, den=None, variant: str = "minus") -> ContinuedFraction:
    """Digit expansion of a rational in [0, 1].

    variant "minus": last digit >= 2 where the number allows it.
    variant "plus":  last digit 1 (the other expansion of the same number).

    The digits of p/q are the quotients of Euclid's algorithm on (q, p),
    found by Lehmer's leading-digit method (see _euclid_quotients): the
    full-width integers move once per batch of quotients (about 16 for a
    random dyadic start) rather than once per digit.
    """
    fr = Fraction(value, den) if den is not None else Fraction(value)
    if not 0 <= fr <= 1:
        raise DomainError(f"value {fr} outside [0, 1]")
    if variant not in ("minus", "plus"):
        raise DomainError(f"unknown variant {variant!r}")
    digits = _euclid_quotients(fr.denominator, fr.numerator)
    if variant == "plus" and digits and digits[-1] >= 2:
        digits[-1] -= 1
        digits.append(1)
    # Euclid's quotients are integers >= 1 and a rational has no period to
    # canonicalise
    return _bare(tuple(digits))


def cf_to_rational(x: ContinuedFraction) -> Fraction:
    """Exact value of a rational expansion."""
    if x.is_truncated:
        raise TruncationExhausted("truncated expansion has no exact value")
    if x.is_periodic:
        raise NonTerminatingError("periodic expansion is irrational; use periodic_value")
    _, p, _, q, _ = _last_convergent(x.head, len(x.head))
    return Fraction(p, q)


def _convergent_rows(digit_iter, depth: int) -> Iterator[tuple[int, int, int, int]]:
    """(p_k, p_{k-1}, q_k, q_{k-1}) for k = 1..depth, one at a time,
    stopping at a rational's end or a truncated stream's settled horizon."""
    pm1, qm1 = 1, 0
    p, q = 0, 1
    for a in islice(digit_iter, depth):
        if not isinstance(a, int):  # INF tail of a rational
            return
        p, pm1 = a * p + pm1, p
        q, qm1 = a * q + qm1, q
        yield p, pm1, q, qm1


def _last_convergent(digit_iter, depth: int) -> tuple[int, int, int, int, int]:
    """(count, p, p_prev, q, q_prev): the last of the first `depth` rows of
    _convergent_rows and how many there are, (0, 0, 1, 1, 0) when the
    stream yields no digit."""
    count, row = 0, (0, 1, 1, 0)
    for count, row in enumerate(_convergent_rows(digit_iter, depth), start=1):
        pass
    return (count, *row)


def convergents(x: ContinuedFraction, depth: int = 40) -> list[MobiusMap]:
    """Convergent matrices M_k = (p_k, p_{k-1}; q_k, q_{k-1}) for k >= 1.

    M_k sends z to the value of the expansion whose first k digits are
    x's and whose tail after them has value 1/z.  det M_k == (-1)**(k+1).
    A list shorter than `depth` means the digit stream ended first.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    return [MobiusMap(*row) for row in _convergent_rows(x.digits(), depth)]


def cf_value(x: ContinuedFraction, depth: int = 40) -> tuple[float, float]:
    """Float value, from at most `depth` leading digits, with a certified
    absolute error bound."""
    if depth < 1:
        raise DomainError("depth must be >= 1")
    count, p, _, q, qm1 = _last_convergent(x.digits(), depth)
    if x.is_rational and count == len(x.head):
        return p / q, 0.0
    # the tail keeps the number inside the cylinder of the consumed digits
    return p / q, 1 / (q * (q + qm1))


def periodic_value(x: ContinuedFraction) -> QuadraticSurd:
    """Exact value of an eventually periodic expansion."""
    if not x.is_periodic:
        raise DomainError("periodic_value needs a periodic expansion")
    _, pm, pm1, qm, qm1 = _last_convergent(x.period, len(x.period))
    # t = [0; cycle repeated]: the tail seen from the start of the cycle
    t = QuadraticSurd.positive_root(qm1, qm - pm1, -pm)
    if not x.head:
        return t
    _, hp, hp1, hq, hq1 = _last_convergent(x.head, len(x.head))
    # x = M_head(1/t); fold the inversion into the matrix
    return t.mobius(MobiusMap(hp1, hp, hq1, hq))


# ---------------------------------------------------------------------------
# Digit surgery used by the interval maps
# ---------------------------------------------------------------------------


def _bare(head: tuple[int, ...], period: tuple[int, ...] = (),
          exact: bool = True) -> ContinuedFraction:
    """Construct without re-validating every digit.

    Orbit iteration slices multi-thousand-digit heads once per step; the
    per-digit checks of the public constructor turn that into quadratic
    work.  Callers guarantee the tuples come from an already-canonical
    expansion and that the slice stays canonical (the pull-left rule only
    looks at the head's last digit, which slicing from the front keeps)."""
    cf = object.__new__(ContinuedFraction)
    object.__setattr__(cf, "head", head)
    object.__setattr__(cf, "period", period)
    object.__setattr__(cf, "exact", exact)
    return cf


def drop_digits(x: ContinuedFraction, j: int) -> ContinuedFraction:
    """The tail expansion after removing the first j digits."""
    if j < 0:
        raise DomainError("cannot drop a negative number of digits")
    if j == 0:
        return x
    if x.is_periodic:
        if j <= len(x.head):
            return _bare(x.head[j:], x.period)
        r = (j - len(x.head)) % len(x.period)
        return _bare((), x.period[r:] + x.period[:r])
    if x.is_truncated:
        if j < len(x.head):
            return _bare(x.head[j:], (), False)
        if j == len(x.head):
            return _bare((), (), False)
        raise TruncationExhausted(f"only {len(x.head)} digits are settled")
    if j < len(x.head):
        return _bare(x.head[j:])
    if j == len(x.head):
        return ZERO
    raise DomainError(f"expansion has only {len(x.head)} digits")


def replace_first_digit(x: ContinuedFraction, d: int) -> ContinuedFraction:
    """Same expansion with its first digit replaced by d."""
    if not isinstance(d, int) or d < 1:
        raise DomainError(f"replacement digit must be an integer >= 1, got {d!r}")
    if x.head:
        if x.period and len(x.head) == 1:
            # the new digit becomes the head's last; the pull-left rule
            # may fire, so go through the canonicalising constructor
            return ContinuedFraction((d,), x.period, x.exact)
        return _bare((d,) + x.head[1:], x.period, x.exact)
    if x.is_periodic:
        return ContinuedFraction((d,), x.period[1:] + x.period[:1])
    if x.is_truncated:
        raise TruncationExhausted("no settled first digit to replace")
    raise DomainError("the zero expansion has no first digit")


def same_digits(a: ContinuedFraction, b: ContinuedFraction) -> bool:
    """Exact digit-stream equality.

    Canonical construction makes this plain equality for exact operands.
    With a truncated operand the answer may be undecidable, in which case
    TruncationExhausted is raised; a settled disagreement still returns
    False.
    """
    if not a.is_truncated and not b.is_truncated:
        return a == b
    try:
        agrees_on_settled(a, b)
    except DomainError:
        return False
    raise TruncationExhausted("streams agree on all settled digits")


def _decision_horizon(a: ContinuedFraction, head_len: int, period_len: int) -> int:
    """Digits to compare before two eventually periodic streams, a's and
    one with this head and period length, are known to agree everywhere."""
    cap = len(a.head) + head_len + 2
    if a.period or period_len:
        cap += 2 * math.lcm(max(len(a.period), 1), max(period_len, 1))
    return cap


def agrees_on_settled(a: ContinuedFraction, b: ContinuedFraction) -> int:
    """Count of leading digits certified equal.

    Stops at the first truncated horizon.  Raises DomainError on a
    certified mismatch.  For two exact streams the count is capped at the
    decision horizon for eventual-periodic equality.
    """
    cap = _decision_horizon(a, len(b.head), len(b.period))
    count = 0
    for va, vb in zip(islice(a.digits(), cap), b.digits()):
        if va != vb:
            raise DomainError(f"digit {count + 1} differs: {va} vs {vb}")
        count += 1
    return count


# ---------------------------------------------------------------------------
# Complement 1 - x
# ---------------------------------------------------------------------------


def cf_complement(x: ContinuedFraction) -> ContinuedFraction:
    """Digit expansion of 1 - x.

    The rewrite is local: [0; 1, a_2, ...] -> [0; a_2 + 1, ...] and
    [0; a_1, ...] -> [0; 1, a_1 - 1, ...] for a_1 >= 2.  At a rational it
    swaps the minus and plus endings, so 1/2 = [0; 2] goes to [0; 1, 1].
    That raw form is the one the maps' complement symmetry needs: the
    map at parameter 1 - alpha sends 1 - x where the map at alpha sends x.
    A periodic x lends the rule up to two digits of its period; a
    truncated x whose settled digits end before a_2 is known leaves none.
    """
    head, period = x.head, x.period
    if period and len(head) < 2:
        k = 2 - len(head)
        head, period = head + (period * 2)[:k], period[k:] + period[:k]
    if not head:  # 1 - 0 = [0; 1]; nothing settled stays so
        return ONE if x.exact else x
    if head[0] == 1:
        out = (head[1] + 1,) + head[2:] if len(head) > 1 else ()
    else:
        out = (1, head[0] - 1) + head[1:]
    return ContinuedFraction(out, period, x.exact)


# ---------------------------------------------------------------------------
# Minkowski question-mark
# ---------------------------------------------------------------------------


def _digit_sum_budget(total: int) -> int:
    """total, the digit sum of an expansion: the width of its ? numerator,
    the length of its binary word and a bound on its jimm image's length.
    Checked before any shift, string or list is built: past QMARK_BITS it
    raises PrecisionBudgetError."""
    if total > QMARK_BITS:
        raise PrecisionBudgetError(
            f"digit sum {total} is more than QMARK_BITS = {QMARK_BITS}")
    return total


def _qmark_numerator(digits, num: int = 0, sign: int = 1) -> tuple[int, int]:
    """Feed digits into ?'s partial sum: num / 2**(digits fed so far) is
    half the sum and sign that of its next term; one shift and add per
    digit.  minkowski_q and qmark_pushforward share it."""
    for a in digits:
        num = (num << a) + sign
        sign = -sign
    return num, sign


def minkowski_q(x: ContinuedFraction) -> Fraction:
    """Exact question-mark value of a rational or periodic expansion.

    ?(x) = 2 * sum_j (-1)**(j+1) * 2**-(a_1 + ... + a_j), summed in
    closed form over the cycle for periodic x.  The value is independent
    of which expansion variant of a rational is supplied.

    The partial sums are kept as integer numerators over 2**(a_1 + ... +
    a_j) by _qmark_numerator, and one Fraction is built at the end.  With
    N_h / 2**E the head's sum and N / 2**(E + S) the sum through one cycle
    of length L and digit sum S, the geometric series over the cycles
    gives (N - (-1)**L * N_h) / (2**E * (2**S - (-1)**L)).  E + S past
    QMARK_BITS raises PrecisionBudgetError.
    """
    if x.is_truncated:
        raise TruncationExhausted("question-mark needs the full expansion")
    expo = sum(x.head)
    _digit_sum_budget(expo + sum(x.period))
    num, sign = _qmark_numerator(x.head)
    if not x.period:
        return Fraction(2 * num, 1 << expo)
    head_num = num
    num, _ = _qmark_numerator(x.period, num, sign)
    turn = (-1) ** len(x.period)
    return Fraction(2 * (num - turn * head_num),
                    (1 << expo) * ((1 << sum(x.period)) - turn))


# ---------------------------------------------------------------------------
# Binary (question-mark bit) strings
# ---------------------------------------------------------------------------


def _normalise_runs(runs) -> tuple[tuple[int, int], ...]:
    out: list[list[int]] = []
    for bit, n in runs:
        if bit not in (0, 1):
            raise DomainError(f"run symbol must be 0 or 1, got {bit!r}")
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"run length must be a non-negative integer, got {n!r}")
        if n == 0:
            continue
        if out and out[-1][0] == bit:
            out[-1][1] += n
        else:
            out.append([bit, n])
    return tuple((b, n) for b, n in out)


@dataclass(frozen=True)
class SternBrocotString:
    """Run-length encoded binary word: the bits of a question-mark value.

    inf_tail marks a word that continues past the encoded runs.
    """

    runs: tuple[tuple[int, int], ...] = ()
    inf_tail: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", _normalise_runs(self.runs))

    def bits(self) -> str:
        """The word as a string of 0s and 1s; a word longer than QMARK_BITS
        raises PrecisionBudgetError before anything is built."""
        _digit_sum_budget(len(self))
        return "".join(str(b) * n for b, n in self.runs)

    def __len__(self) -> int:
        return sum(n for _, n in self.runs)

    def value(self) -> Fraction:
        """The dyadic rational 0.bits, for complete words only."""
        if self.inf_tail:
            raise TruncationExhausted("word continues past the encoded runs")
        n = len(self)
        if n == 0:
            return Fraction(0)
        return Fraction(int(self.bits(), 2), 1 << n)

    def __str__(self) -> str:
        return self.bits() + ("..." if self.inf_tail else "")


def _runs_from_digits(digits: list[int]) -> list[tuple[int, int]]:
    runs = []
    bit = 0
    for i, a in enumerate(digits):
        runs.append((bit, a - 1 if i == 0 else a))
        bit ^= 1
    return runs


def to_binary_string(x: ContinuedFraction, unroll: int | None = None) -> SternBrocotString:
    """The binary word of ?(x).

    Complete (inf_tail False) for rational x.  Periodic x must be
    unrolled to a chosen digit count; truncated x encodes its settled
    digits.  Both of those come back with inf_tail True.
    """
    if x.is_rational:
        if not x.head:
            return SternBrocotString()
        if x.head == (1,):
            raise DomainError("the word of 1 is the infinite word 111...")
        runs = _runs_from_digits(list(x.head))
        bit, n = runs[-1]
        runs[-1] = (bit, n - 1)
        runs.append((1, 1))
        return SternBrocotString(tuple(runs), False)
    if x.is_periodic:
        if unroll is None:
            raise DomainError("periodic expansion: pass unroll=<digit count>")
        digits = list(islice(x.digits(), unroll))
    else:
        digits = list(x.head)
    return SternBrocotString(tuple(_runs_from_digits(digits)), True)


def from_binary_string(word: SternBrocotString, variant: str = "minus") -> ContinuedFraction:
    """Inverse of to_binary_string.

    A complete word names a rational, returned in the requested variant.
    A word with inf_tail names the settled prefix of an expansion and
    comes back truncated (its last digit is a lower bound for the true
    one, since the final run might continue).
    """
    runs = list(word.runs)
    if word.inf_tail:
        if not runs:
            return ContinuedFraction((), (), False)
        digits = _digits_from_runs(runs)
        return ContinuedFraction(tuple(digits), (), False)
    while runs and runs[-1][0] == 0:  # trailing zeros carry no value
        runs.pop()
    if not runs:
        return ZERO
    digits = _digits_from_runs(runs)
    return cf_from_rational(cf_to_rational(ContinuedFraction(tuple(digits))), variant=variant)


def _digits_from_runs(runs: list[tuple[int, int]]) -> list[int]:
    if runs[0][0] == 1:
        runs = [(0, 0)] + runs
    digits = []
    for i, (bit, n) in enumerate(runs):
        if bit != i % 2:
            raise DomainError("runs must alternate symbols")
        digits.append(n + 1 if i == 0 else n)
    return digits


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


def cf_to_text(x: ContinuedFraction) -> str:
    parts = [str(a) for a in x.head]
    if x.period:
        parts.append("(" + ",".join(str(a) for a in x.period) + ")")
    if x.is_truncated:
        parts.append("...")
    return "[0;" + ",".join(parts) + "]"


def _parse_digit_list(text: str, context: str) -> tuple[int, ...]:
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        try:
            v = int(piece)
        except ValueError:
            raise DomainError(f"bad digit {piece!r} in {context}") from None
        if v < 1:
            raise DomainError(f"digits must be >= 1, got {v} in {context}")
        out.append(v)
    return tuple(out)


def cf_from_text(text: str) -> ContinuedFraction:
    """Parse the forms produced by cf_to_text.

    Examples: "[0;2,2]", "[0;1,(1,2)]", "[0;(2)]", "[0;2,2,...]",
    "[0;]", "[0;...]".
    """
    s = text.strip().replace(" ", "")
    if not (s.startswith("[0;") and s.endswith("]")):
        raise DomainError(f"expected an '[0;...]' expansion, got {text!r}")
    inner = s[3:-1]
    exact = True
    if inner.endswith("..."):
        exact = False
        inner = inner[:-3]
        if inner.endswith(","):
            inner = inner[:-1]
    head_s, period_s = inner, ""
    if "(" in inner:
        if not exact:
            raise DomainError("an expansion cannot be both periodic and truncated")
        i = inner.index("(")
        if not inner.endswith(")"):
            raise DomainError(f"period must close the expansion in {text!r}")
        head_s, period_s = inner[:i], inner[i + 1:-1]
        if head_s.endswith(","):
            head_s = head_s[:-1]
        elif head_s:
            raise DomainError(f"expected ',' before '(' in {text!r}")
        if not period_s:
            raise DomainError(f"empty period in {text!r}")
    head = _parse_digit_list(head_s, text)
    period = _parse_digit_list(period_s, text)
    return ContinuedFraction(head, period, exact)
