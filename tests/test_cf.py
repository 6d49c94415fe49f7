"""Digit arithmetic checked against independent oracles.

The question-mark oracle below walks the Stern-Brocot tree by mediant
bisection and never touches the package's series formula, so agreement
is meaningful.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cfdyn.cf import (
    INF,
    ONE,
    QMARK_BITS,
    ZERO,
    ContinuedFraction,
    MobiusMap,
    QuadraticSurd,
    SternBrocotString,
    _square_free_split,
    agrees_on_settled,
    cf_complement,
    cf_from_rational,
    cf_from_text,
    cf_to_rational,
    cf_to_text,
    cf_value,
    convergents,
    drop_digits,
    from_binary_string,
    minkowski_q,
    periodic_value,
    replace_first_digit,
    same_digits,
    to_binary_string,
)
from cfdyn.errors import (
    DomainError,
    PoleError,
    PrecisionBudgetError,
    TruncationExhausted,
)

CF = ContinuedFraction

GOLDEN = CF((), (1,))          # (sqrt(5) - 1) / 2
SQRT2M1 = CF((), (2,))         # sqrt(2) - 1

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=500)
fractions_below_1 = st.fractions(
    min_value=0, max_value=Fraction(499, 500), max_denominator=500
)
fractions_open = st.fractions(
    min_value=Fraction(1, 499), max_value=Fraction(498, 499), max_denominator=500
)


def qmark_bisection(fr: Fraction) -> Fraction:
    """?(p/q) by mediant bisection of the Stern-Brocot tree."""
    if fr == 0:
        return Fraction(0)
    if fr == 1:
        return Fraction(1)
    lo, hi = Fraction(0), Fraction(1)
    lo_q, hi_q = Fraction(0), Fraction(1)
    while True:
        med = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        med_q = (lo_q + hi_q) / 2
        if med == fr:
            return med_q
        if fr < med:
            hi, hi_q = med, med_q
        else:
            lo, lo_q = med, med_q


class TestFromRational:
    def test_goldens(self):
        assert cf_from_rational(2, 5).head == (2, 2)
        assert cf_from_rational(1, 3).head == (3,)
        assert cf_from_rational(7, 10).head == (1, 2, 3)
        assert cf_from_rational(0, 7) == ZERO
        assert cf_from_rational(1, 1) == ONE
        assert cf_from_rational(Fraction(1, 2)).head == (2,)

    def test_plus_variant(self):
        assert cf_from_rational(2, 5, variant="plus").head == (2, 1, 1)
        assert cf_from_rational(1, 3, variant="plus").head == (2, 1)
        assert cf_from_rational(1, 1, variant="plus") == ONE
        assert cf_from_rational(0, 1, variant="plus") == ZERO

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            cf_from_rational(3, 2)
        with pytest.raises(DomainError):
            cf_from_rational(-1, 5)
        with pytest.raises(DomainError):
            cf_from_rational(1, 2, variant="middle")

    @given(fractions_01)
    def test_round_trip_minus(self, fr):
        x = cf_from_rational(fr)
        assert cf_to_rational(x) == fr
        # canonical minus form: last digit >= 2 except for the number 1
        if len(x.head) >= 2 or x.head == ():
            assert not x.head or x.head[-1] >= 2
        elif x.head != (1,):
            assert x.head[-1] >= 2

    @given(fractions_01)
    def test_round_trip_plus(self, fr):
        x = cf_from_rational(fr, variant="plus")
        assert cf_to_rational(x) == fr
        if fr not in (0, 1):
            assert x.head[-1] == 1 or x.head == (1,)

    @given(fractions_01)
    def test_variants_same_question_mark(self, fr):
        a = cf_from_rational(fr)
        b = cf_from_rational(fr, variant="plus")
        assert minkowski_q(a) == minkowski_q(b)


def plain_euclid(p: int, q: int) -> list:
    """Schoolbook Euclid: the quotients of q / p, one divmod each."""
    out = []
    while p:
        d, r = divmod(q, p)
        out.append(d)
        p, q = r, p
    return out


class TestLehmerExpansion:
    """cf_from_rational runs Lehmer's leading-digit Euclid above 2**62;
    its digits must be schoolbook Euclid's, and its object the validating
    constructor's."""

    @staticmethod
    def check(p, q):
        want = plain_euclid(p, q)
        for variant in ("minus", "plus"):
            got = cf_from_rational(Fraction(p, q), variant=variant)
            digits = list(want)
            if variant == "plus" and digits and digits[-1] >= 2:
                digits[-1:] = [digits[-1] - 1, 1]
            assert list(got.head) == digits
            assert got == CF(tuple(digits))
            assert all(type(a) is int for a in got.head)

    @pytest.mark.parametrize("b", [1, 61, 62, 63, 64, 65, 124, 8000, 16000])
    def test_dyadic_around_the_window(self, b):
        rng = random.Random(b)
        nums = {1, (1 << b) - 1, (1 << (b - 1)) + 1 if b > 1 else 1}
        nums.update(rng.getrandbits(b) | 1 for _ in range(4))
        for p in sorted(nums):
            self.check(p, 1 << b)

    @given(st.integers(1, 10 ** 40).flatmap(
        lambda q: st.tuples(st.integers(0, q), st.just(q))))
    def test_random_rationals(self, pq):
        p, q = pq
        g = math.gcd(p, q)
        self.check(p // g, q // g)

    def test_fibonacci_ratios(self):
        # consecutive Fibonacci numbers have all quotients 1: the most
        # Euclid steps per bit, and the tightest quotient brackets
        a, b = 0, 1
        for n in range(1, 3001):
            a, b = b, a + b
            if n < 100 or n % 29 == 0 or n > 2990:
                self.check(a, b)

    def test_ends_of_the_interval(self):
        for variant in ("minus", "plus"):
            assert cf_from_rational(0, 1 << 100, variant=variant) == ZERO
            assert cf_from_rational((1 << 100) + 7, (1 << 100) + 7,
                                    variant=variant) == ONE
        self.check(0, 1)
        self.check(1, 1)


class TestCanonicalForm:
    def test_cycle_is_minimised(self):
        assert CF((), (2, 2)).period == (2,)
        assert CF((), (1, 2, 1, 2)).period == (1, 2)

    def test_cycle_pulled_left(self):
        assert CF((1,), (2, 1)) == CF((), (1, 2))
        assert CF((1, 1), (1,)) == CF((), (1,))

    def test_validation(self):
        with pytest.raises(DomainError):
            CF((0,))
        with pytest.raises(DomainError):
            CF((2, -1))
        with pytest.raises(DomainError):
            CF((1,), (2,), exact=False)

    def test_properties(self):
        assert ZERO.is_rational and not ZERO.is_periodic
        assert GOLDEN.is_periodic
        assert CF((3,), exact=False).is_truncated
        assert CF((3,), exact=False).settled() == 1
        assert GOLDEN.settled() is None


class TestConvergents:
    def test_golden_case(self):
        m = convergents(cf_from_rational(2, 5))
        assert [(v.a, v.b, v.c, v.d) for v in m] == [(1, 0, 2, 1), (2, 1, 5, 2)]

    @given(fractions_open)
    def test_determinant_alternates(self, fr):
        for k, m in enumerate(convergents(cf_from_rational(fr)), start=1):
            assert m.a * m.d - m.b * m.c == (-1) ** (k + 1)

    @given(fractions_open)
    def test_matrix_rebuilds_value(self, fr):
        x = cf_from_rational(fr)
        ms = convergents(x)
        for k in range(1, len(x.head)):
            tail = cf_to_rational(drop_digits(x, k))
            assert ms[k - 1].apply(1 / tail) == fr

    def test_period_never_ends(self):
        assert len(convergents(GOLDEN, depth=25)) == 25


class TestValue:
    def test_rational_exact(self):
        v, err = cf_value(cf_from_rational(2, 5))
        assert v == 0.4 and err == 0.0

    def test_zero(self):
        assert cf_value(ZERO) == (0.0, 0.0)

    @pytest.mark.parametrize("depth", [0, -2])
    def test_rejects_depth_below_one(self, depth):
        # no digit read is no value: not 0 with a certified error of 0
        with pytest.raises(DomainError):
            cf_value(cf_from_rational(2, 7), depth)

    def test_golden_ratio(self):
        v, err = cf_value(GOLDEN)
        assert abs(v - (math.sqrt(5) - 1) / 2) <= err + 1e-15

    def test_truncated_bound_is_cylinder_width(self):
        v, err = cf_value(CF((2,), exact=False))
        # settled prefix [0;2]: the number is somewhere in (1/3, 1/2]
        assert v == 0.5 and abs(err - 1 / 6) < 1e-15

    def test_bound_shrinks_with_depth(self):
        errs = [cf_value(SQRT2M1, depth=d)[1] for d in (5, 10, 20)]
        assert errs[0] > errs[1] > errs[2]

    @given(st.integers(2, 40))
    def test_bound_honest_for_golden(self, depth):
        v, err = cf_value(GOLDEN, depth=depth)
        assert abs(v - (math.sqrt(5) - 1) / 2) <= err + 1e-15


class TestPeriodicValue:
    def test_sqrt2(self):
        t = periodic_value(SQRT2M1)
        assert t == QuadraticSurd(-1, 1, 2)
        assert abs(float(t) - (math.sqrt(2) - 1)) < 1e-14

    def test_golden(self):
        assert periodic_value(GOLDEN) == QuadraticSurd(-1, 1, 5, 2)

    def test_with_head(self):
        # [0; 1, (1, 2)] squares to 1/3
        t = periodic_value(CF((1,), (1, 2)))
        assert t == QuadraticSurd(0, 1, 3, 3)
        assert t.square().as_fraction() == Fraction(1, 3)

    def test_inverse_of_sqrt2(self):
        # [0; 1, (2)] is 1/sqrt(2)
        t = periodic_value(CF((1,), (2,)))
        assert t.square().as_fraction() == Fraction(1, 2)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
           st.lists(st.integers(1, 6), min_size=0, max_size=3))
    def test_matches_float_value(self, period, head):
        x = CF(tuple(head), tuple(period))
        v, err = cf_value(x, depth=45)
        assert abs(float(periodic_value(x)) - v) <= err + 1e-12

    def test_rejects_rational(self):
        with pytest.raises(DomainError):
            periodic_value(cf_from_rational(2, 5))

    def test_long_period_settles_quickly(self):
        # period 1..13 leaves a discriminant of about 1.9e20, whose
        # squarefree part full trial division up to its root never reached
        x = CF((), tuple(range(1, 14)))
        start = time.perf_counter()
        t = periodic_value(x)
        assert time.perf_counter() - start < 1.0
        v, err = cf_value(x, depth=45)
        assert abs(float(t) - v) <= err + 1e-12


class TestQuadraticSurd:
    def test_normal_form(self):
        assert QuadraticSurd(2, 2, 8, 4) == QuadraticSurd(1, 2, 2, 2)
        assert QuadraticSurd(1, 3, 9, 2) == QuadraticSurd(10, 0, 0, 2)
        assert QuadraticSurd(1, 0, 5, -2) == QuadraticSurd(-1, 0, 0, 2)

    def test_signs(self):
        assert QuadraticSurd(-1, 1, 2).sign == 1
        assert QuadraticSurd(-3, 2, 2).sign == -1
        assert QuadraticSurd(3, -2, 2).sign == 1

    def test_positive_root(self):
        t = QuadraticSurd.positive_root(1, 1, -1)
        assert t == QuadraticSurd(-1, 1, 5, 2) and t.sign == 1

    def test_mobius_image(self):
        t = QuadraticSurd(-1, 1, 2)  # sqrt(2) - 1
        img = t.mobius(MobiusMap(0, 1, 1, 1))  # 1/(1 + t) = 1/sqrt(2)
        assert img.square().as_fraction() == Fraction(1, 2)

    def test_squarefree_split_matches_factorisation(self):
        def split(n):
            f, m, p = 1, 1, 2
            while n > 1:
                e = 0
                while n % p == 0:
                    n, e = n // p, e + 1
                f, m, p = f * p ** (e // 2), m * p ** (e % 2), p + 1
            return f, m

        for n in range(1, 3000):
            assert _square_free_split(n) == split(n), n
        # what trial division leaves is a prime, a prime's square or two
        # distinct primes, all past the last divisor tried
        p, q = 1000003, 998244353
        assert _square_free_split(12 * p * p) == (2 * p, 3)
        assert _square_free_split(7 * p * q) == (1, 7 * p * q)
        assert _square_free_split(4 * p * q) == (2, p * q)
        assert _square_free_split(9 * p) == (3, p)

    def test_product_of_two_large_primes_hits_the_trial_budget(self):
        # two primes near 2**50: the cofactor's cube root is past the
        # SQUAREFREE_TRIALS divisors, and nothing smaller divides it
        p, q = 1125899906842597, 1125899906842589
        start = time.perf_counter()
        with pytest.raises(PrecisionBudgetError):
            QuadraticSurd(0, 1, p * q)
        assert time.perf_counter() - start < 1.0

    def test_mobius_matches_fraction_arithmetic(self):
        t = QuadraticSurd(3, 0, 0, 7)
        img = t.mobius(MobiusMap(2, 1, 1, 1))
        assert img.as_fraction() == (2 * Fraction(3, 7) + 1) / (Fraction(3, 7) + 1)


class TestComplement:
    def test_goldens(self):
        assert cf_complement(cf_from_rational(1, 2)).head == (1, 1)
        assert cf_complement(cf_from_rational(2, 5)).head == (1, 1, 2)
        assert cf_complement(ZERO) == ONE
        assert cf_complement(ONE) == ZERO
        assert cf_complement(GOLDEN) == CF((2,), (1,))
        assert cf_complement(SQRT2M1) == CF((1, 1), (2,))

    def test_raw_rule_swaps_variant(self):
        assert cf_complement(cf_from_rational(1, 2)).head == (1, 1)
        assert cf_complement(CF((1, 1))).head == (2,)

    def test_truncated(self):
        assert cf_complement(CF((3, 2), exact=False)).head == (1, 2, 2)
        assert cf_complement(CF((1, 4), exact=False)).head == (5,)
        assert cf_complement(CF((1,), exact=False)) == CF((), (), False)
        assert cf_complement(CF((), (), False)) == CF((), (), False)

    @given(fractions_01)
    def test_exact_value(self, fr):
        x = cf_from_rational(fr)
        assert cf_to_rational(cf_complement(x)) == 1 - fr

    @given(fractions_01)
    def test_involution_both_variants(self, fr):
        for variant in ("minus", "plus"):
            x = cf_from_rational(fr, variant=variant)
            assert cf_complement(cf_complement(x)) == x

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.lists(st.integers(1, 5), min_size=0, max_size=3))
    def test_involution_periodic(self, period, head):
        x = CF(tuple(head), tuple(period))
        assert cf_complement(cf_complement(x)) == x

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.lists(st.integers(1, 5), min_size=0, max_size=3))
    def test_question_mark_symmetry_periodic(self, period, head):
        x = CF(tuple(head), tuple(period))
        assert minkowski_q(cf_complement(x)) == 1 - minkowski_q(x)

    @given(fractions_01)
    def test_question_mark_symmetry_rational(self, fr):
        x = cf_from_rational(fr)
        assert minkowski_q(cf_complement(x)) == 1 - minkowski_q(x)


class TestMinkowski:
    def test_goldens(self):
        assert minkowski_q(cf_from_rational(1, 3)) == Fraction(1, 4)
        assert minkowski_q(cf_from_rational(2, 5)) == Fraction(3, 8)
        assert minkowski_q(cf_from_rational(1, 2)) == Fraction(1, 2)
        assert minkowski_q(ZERO) == 0
        assert minkowski_q(ONE) == 1
        assert minkowski_q(GOLDEN) == Fraction(2, 3)
        assert minkowski_q(SQRT2M1) == Fraction(2, 5)

    @given(fractions_01)
    def test_against_bisection_oracle(self, fr):
        assert minkowski_q(cf_from_rational(fr)) == qmark_bisection(fr)

    @given(fractions_01)
    def test_rational_goes_to_dyadic(self, fr):
        q = minkowski_q(cf_from_rational(fr)).denominator
        assert q & (q - 1) == 0

    def test_monotone_on_sample(self):
        pts = sorted(Fraction(p, 64) for p in range(65))
        vals = [minkowski_q(cf_from_rational(p)) for p in pts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_truncated_rejected(self):
        with pytest.raises(TruncationExhausted):
            minkowski_q(CF((2,), exact=False))

    def test_digit_sum_past_the_budget_raises(self):
        # the float 0.3 is 5404319552844595/2**54, whose ? would need a
        # shift by its fourth digit's 9e14 bits; a cycle counts too
        x = cf_from_rational(0.3)
        assert x.head == (3, 2, 1, 900719925474098, 2)
        with pytest.raises(PrecisionBudgetError):
            minkowski_q(x)
        with pytest.raises(PrecisionBudgetError):
            minkowski_q(CF((1,), (QMARK_BITS,)))
        # a digit sum of exactly the budget is still computed
        assert (minkowski_q(cf_from_rational(1, QMARK_BITS))
                == Fraction(2, 1 << QMARK_BITS))

    @given(st.one_of(
        st.builds(cf_from_rational, fractions_01,
                  variant=st.sampled_from(["minus", "plus"])),
        st.builds(lambda h, p: CF(tuple(h), tuple(p)),
                  st.lists(st.integers(1, 30), max_size=5),
                  st.lists(st.integers(1, 30), min_size=1, max_size=5))))
    def test_matches_term_by_term_sum(self, x):
        want = qmark_series(x)
        got = minkowski_q(x)
        assert got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def qmark_series(x):
    """?(x) summed one Fraction per digit, the cycle closed by its
    geometric ratio: the series definition, term by term."""
    total, expo, sign = Fraction(0), 0, 1
    for a in x.head:
        expo += a
        total += Fraction(sign, 1 << expo)
        sign = -sign
    if x.period:
        first = Fraction(0)
        for b in x.period:
            expo += b
            first += Fraction(sign, 1 << expo)
            sign = -sign
        total += first / (1 - Fraction((-1) ** len(x.period), 1 << sum(x.period)))
    return 2 * total


class TestBinaryString:
    def test_goldens(self):
        assert to_binary_string(cf_from_rational(2, 5)).bits() == "011"
        assert to_binary_string(cf_from_rational(1, 2)).bits() == "1"
        assert to_binary_string(cf_from_rational(1, 3)).bits() == "01"
        assert to_binary_string(cf_from_rational(3, 5)).bits() == "101"
        assert to_binary_string(ZERO).bits() == ""

    def test_variants_agree(self):
        a = to_binary_string(cf_from_rational(2, 5))
        b = to_binary_string(cf_from_rational(2, 5, variant="plus"))
        assert a == b

    def test_golden_word(self):
        w = to_binary_string(GOLDEN, unroll=9)
        assert w.inf_tail and w.bits() == "10101010"

    def test_periodic_needs_unroll(self):
        with pytest.raises(DomainError):
            to_binary_string(GOLDEN)

    def test_one_has_no_finite_word(self):
        # ?(1) = 0.111... in binary; finite words cover [0, 1) only
        with pytest.raises(DomainError):
            to_binary_string(ONE)

    @given(fractions_below_1)
    def test_word_value_is_question_mark(self, fr):
        x = cf_from_rational(fr)
        assert to_binary_string(x).value() == minkowski_q(x)

    @given(fractions_below_1)
    def test_round_trip(self, fr):
        for variant in ("minus", "plus"):
            x = cf_from_rational(fr, variant=variant)
            assert from_binary_string(to_binary_string(x), variant=variant) == x

    def test_truncated_round_trip(self):
        x = CF((2, 3, 1), exact=False)
        w = to_binary_string(x)
        assert w.inf_tail
        assert from_binary_string(w) == x

    def test_word_past_the_budget_raises(self):
        # the word of the float 0.3 is as long as its digit sum, about
        # 9e14 bits: every method that builds the string checks first
        w = to_binary_string(cf_from_rational(0.3))
        assert len(w) == 900719925474105 > QMARK_BITS
        for build in (w.bits, w.value, w.__str__):
            with pytest.raises(PrecisionBudgetError):
                build()

    def test_trailing_zeros_ignored(self):
        w = SternBrocotString(((0, 1), (1, 2), (0, 3)))
        assert from_binary_string(w) == cf_from_rational(2, 5)


class TestDigitSurgery:
    def test_drop(self):
        x = cf_from_rational(7, 10)  # [0; 1, 2, 3]
        assert drop_digits(x, 1).head == (2, 3)
        assert drop_digits(x, 3) == ZERO
        with pytest.raises(DomainError):
            drop_digits(x, 4)

    def test_drop_periodic_rotates(self):
        x = CF((1,), (1, 2))
        assert drop_digits(x, 2) == CF((), (2, 1))
        assert drop_digits(x, 4) == CF((), (2, 1))
        assert drop_digits(GOLDEN, 7) == GOLDEN

    def test_drop_truncated(self):
        x = CF((5, 4), exact=False)
        assert drop_digits(x, 2) == CF((), (), False)
        with pytest.raises(TruncationExhausted):
            drop_digits(x, 3)

    def test_replace_first(self):
        assert replace_first_digit(cf_from_rational(2, 5), 7).head == (7, 2)
        assert replace_first_digit(GOLDEN, 3) == CF((3,), (1,))
        assert replace_first_digit(CF((1,), (1, 2)), 9) == CF((9,), (1, 2))
        with pytest.raises(DomainError):
            replace_first_digit(ZERO, 2)
        with pytest.raises(DomainError):
            replace_first_digit(GOLDEN, 0)

    def test_replace_first_pure_periodic_phase(self):
        # [0; (2, 3)] with first digit swapped to 5 is [0; 5, (3, 2)]
        assert replace_first_digit(CF((), (2, 3)), 5) == CF((5,), (3, 2))


def _shares_a_prefix(draw_kind):
    """A digit expansion of any kind: its head is a shared prefix plus
    its own digits, so two draws often agree for a while."""
    def build(kind, head, period):
        if kind == "rational":
            return CF(tuple(head))
        if kind == "truncated":
            return CF(tuple(head), exact=False)
        return CF(tuple(head), tuple(period))
    return st.builds(build, draw_kind, st.lists(st.integers(1, 3), max_size=6),
                     st.lists(st.integers(1, 3), min_size=1, max_size=3))


def reference_agrees(a, b):
    """agrees_on_settled by one digit of each stream at a time: the count
    of equal leading digits up to the first truncated end or the
    decision horizon, or the DomainError text of the first mismatch."""
    cap = len(a.head) + len(b.head) + 2
    if a.period or b.period:
        cap += 2 * math.lcm(max(len(a.period), 1), max(len(b.period), 1))
    da, db = a.digits(), b.digits()
    count = 0
    while count < cap:
        va, vb = next(da, None), next(db, None)
        if va is None or vb is None:
            return count
        if va != vb:
            return f"digit {count + 1} differs: {va} vs {vb}"
        count += 1
    return count


class TestAgreesOnSettled:
    kinds = st.sampled_from(["rational", "truncated", "periodic"])

    @given(st.lists(st.integers(1, 3), max_size=8), _shares_a_prefix(kinds),
           _shares_a_prefix(kinds))
    def test_matches_digit_by_digit_reference(self, prefix, a, b):
        a = CF(tuple(prefix) + a.head, a.period, a.exact)
        b = CF(tuple(prefix) + b.head, b.period, b.exact)
        want = reference_agrees(a, b)
        if isinstance(want, str):
            with pytest.raises(DomainError) as err:
                agrees_on_settled(a, b)
            assert str(err.value) == want
        else:
            assert agrees_on_settled(a, b) == want

    def test_count_stops_at_the_cap(self):
        # equal exact streams agree everywhere: the count is the horizon,
        # both heads plus 2, plus twice the periods' lcm
        assert agrees_on_settled(GOLDEN, CF((1, 1), (1,))) == 2 + 2 * 1
        assert agrees_on_settled(CF((2, 3)), CF((2, 3))) == 2 + 2 + 2
        assert agrees_on_settled(CF((), (1, 2)), CF((), (1, 2))) == 2 + 2 * 2


class TestSameDigits:
    def test_exact(self):
        assert same_digits(GOLDEN, CF((1, 1), (1,)))
        assert not same_digits(cf_from_rational(1, 2), CF((1, 1)))
        assert not same_digits(GOLDEN, CF((), (2,)))

    def test_truncated(self):
        assert not same_digits(CF((2, 3), exact=False), cf_from_rational(2, 5))
        with pytest.raises(TruncationExhausted):
            same_digits(CF((2, 2), exact=False), cf_from_rational(2, 5))

    def test_agrees_on_settled(self):
        assert agrees_on_settled(CF((2, 2), exact=False), cf_from_rational(2, 5)) == 2
        with pytest.raises(DomainError):
            agrees_on_settled(CF((2, 3), exact=False), cf_from_rational(2, 5))
        assert agrees_on_settled(GOLDEN, GOLDEN) > 0


class TestText:
    @pytest.mark.parametrize("text", [
        "[0;2,2]", "[0;1,(1,2)]", "[0;(2)]", "[0;2,2,...]", "[0;]", "[0;...]",
        "[0;1]", "[0;(1)]",
    ])
    def test_round_trip(self, text):
        assert cf_to_text(cf_from_text(text)) == text

    def test_whitespace_tolerated(self):
        assert cf_from_text(" [0; 1, (1, 2)] ") == CF((1,), (1, 2))

    @pytest.mark.parametrize("bad", [
        "[1;2]", "[0;0]", "[0;2,(1,]", "[0;(1),3]", "[0;x]", "0;2", "[0;()]",
        "[0;(1),...]", "[0;2(1)]",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(DomainError):
            cf_from_text(bad)

    def test_str_dunder(self):
        assert str(CF((1,), (2,))) == "[0;1,(2)]"


class TestMobiusMap:
    def test_pole(self):
        m = MobiusMap(0, 1, 1, -2)
        with pytest.raises(PoleError):
            m.apply(Fraction(2))
        assert m.pole() == 2

    def test_determinant_guard(self):
        with pytest.raises(DomainError):
            MobiusMap(2, 0, 0, 1)
