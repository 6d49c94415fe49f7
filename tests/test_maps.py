"""Interval-map family: digit mechanics against closed-form oracles.

The parameter-0 member is the classical shift 1/x - floor(1/x), which
gives an exact rational oracle.  The complement symmetry and the flip
involution give digit-exact cross-checks for every other member tested.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cfdyn.cf import (
    INF,
    ONE,
    ZERO,
    ContinuedFraction,
    _decision_horizon,
    _last_convergent,
    cf_complement,
    cf_from_rational,
    cf_to_rational,
    cf_value,
    drop_digits,
    replace_first_digit,
)
from cfdyn.errors import DerivativeUndefined, DomainError, TruncationExhausted
from cfdyn.maps import (
    _WINDOW,
    FIBONACCI_ALPHA,
    GAUSS_ALPHA,
    _compare,
    _Cursor,
    fibonacci_fixed_point,
    is_periodic_point,
    jimm,
    log_deriv_at,
    orbit,
    t_alpha_step,
)

CF = ContinuedFraction
GOLDEN = FIBONACCI_ALPHA
SQRT2M1 = CF((), (2,))
ALPHA_ONE = ONE

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=300)
variants = st.sampled_from(["minus", "plus"])
periodics = st.builds(
    lambda h, p: CF(tuple(h), tuple(p)),
    st.lists(st.integers(1, 5), min_size=0, max_size=3),
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
)
truncated = st.builds(
    lambda h: CF(tuple(h), exact=False),
    st.lists(st.integers(1, 5), min_size=0, max_size=6),
)
# every kind jimm tells apart: rationals in both variants, all-ones tails,
# other periodic expansions, and truncated ones, with digits up to 12
long_heads = st.lists(st.integers(1, 12), max_size=40)
exact_points = st.one_of(
    st.builds(lambda fr, v: cf_from_rational(fr, variant=v), fractions_01,
              variants),
    st.builds(lambda h: CF(tuple(h)), long_heads),
    st.builds(lambda h: CF(tuple(h), (1,)), long_heads),
    st.builds(lambda h, p: CF(tuple(h), tuple(p)), long_heads,
              st.lists(st.integers(1, 12), min_size=1, max_size=6)),
)
any_points = st.one_of(exact_points,
                       st.builds(lambda h: CF(tuple(h), exact=False), long_heads))


def gauss_map(fr: Fraction, variant: str = "minus") -> Fraction:
    """1/x - floor(1/x), except at x = 1/a written in its plus form
    [0;a-1,1]: that expansion is the point just right of 1/a, whose image
    is the right-hand limit 1 rather than 0."""
    inv = 1 / fr
    if variant == "plus" and inv.denominator == 1 and inv > 1:
        return Fraction(1)
    return inv - math.floor(inv)


class TestGaussMember:
    def test_shift_golden(self):
        assert t_alpha_step(GAUSS_ALPHA, cf_from_rational(2, 5)).head == (2,)
        assert t_alpha_step(GAUSS_ALPHA, GOLDEN) == GOLDEN
        assert t_alpha_step(GAUSS_ALPHA, ZERO) == ZERO
        assert t_alpha_step(GAUSS_ALPHA, ONE) == ZERO

    @given(fractions_01, variants)
    @example(Fraction(1, 2), "plus")
    def test_matches_classical_formula(self, fr, variant):
        if fr == 0:
            return
        x = cf_from_rational(fr, variant=variant)
        image = t_alpha_step(GAUSS_ALPHA, x)
        assert cf_to_rational(image) == gauss_map(fr, variant)

    @given(periodics)
    def test_periodic_is_digit_shift(self, x):
        image = t_alpha_step(GAUSS_ALPHA, x)
        stream = x.digits()
        next(stream)
        expected = [next(stream) for _ in range(12)]
        got = image.digits()
        assert [next(got) for _ in range(12)] == expected


class TestParameterOneMember:
    def test_reduce_branch(self):
        # [0;3] -> [0;2]: the first digit shrinks by the parameter's 1
        assert t_alpha_step(ALPHA_ONE, cf_from_rational(1, 3)).head == (2,)

    def test_strip_branch(self):
        # first digits agree, the parameter then ends: two digits drop
        assert t_alpha_step(ALPHA_ONE, CF((1, 5, 2))).head == (2,)

    @given(fractions_01)
    def test_against_piecewise_formula(self, fr):
        if fr in (0, 1):
            return
        x = cf_from_rational(fr)
        image = cf_to_rational(t_alpha_step(ALPHA_ONE, x))
        if fr <= Fraction(1, 2):
            assert image == fr / (1 - fr)
        else:
            assert image == gauss_map(gauss_map(fr))

    def test_fixed_point_of_comparison(self):
        assert t_alpha_step(ALPHA_ONE, ONE) == ZERO


class TestRationalParameterVariants:
    def test_the_two_half_maps_differ(self):
        minus = cf_from_rational(1, 2)            # [0;2]
        plus = cf_from_rational(1, 2, "plus")     # [0;1,1]
        x = cf_from_rational(1, 3)                # [0;3]
        assert t_alpha_step(minus, x) == ONE
        assert t_alpha_step(plus, x).head == (2,)


class TestComplementSymmetry:
    """T with parameter (1 - alpha) at (1 - x) equals T_alpha at x; the
    complement's digit rule swaps the two endings of a rational."""

    @given(fractions_01, variants, fractions_01, variants)
    def test_rational_parameters(self, fa, va, fx, vx):
        alpha = cf_from_rational(fa, variant=va)
        x = cf_from_rational(fx, variant=vx)
        lhs = t_alpha_step(cf_complement(alpha), cf_complement(x))
        assert lhs == t_alpha_step(alpha, x)

    @given(periodics, fractions_01, variants)
    def test_periodic_parameters(self, alpha, fx, vx):
        x = cf_from_rational(fx, variant=vx)
        lhs = t_alpha_step(cf_complement(alpha), cf_complement(x))
        assert lhs == t_alpha_step(alpha, x)

    @given(periodics, periodics)
    def test_periodic_both(self, alpha, x):
        lhs = t_alpha_step(cf_complement(alpha), cf_complement(x))
        assert lhs == t_alpha_step(alpha, x)


class TestFibonacciMember:
    def test_fixed_points_exact(self):
        for k in range(1, 7):
            x = fibonacci_fixed_point(k)
            assert t_alpha_step(FIBONACCI_ALPHA, x) == x
            assert is_periodic_point(FIBONACCI_ALPHA, x, 1)

    def test_half_goes_to_one(self):
        assert t_alpha_step(FIBONACCI_ALPHA, cf_from_rational(1, 2)) == ONE

    def test_prefix_rationals_go_to_zero(self):
        assert t_alpha_step(FIBONACCI_ALPHA, ONE) == ZERO
        assert t_alpha_step(FIBONACCI_ALPHA, CF((1, 1, 1))) == ZERO
        assert t_alpha_step(FIBONACCI_ALPHA, GOLDEN) == ZERO


class TestDerivative:
    def test_gauss_at_half(self):
        assert log_deriv_at(GAUSS_ALPHA, cf_from_rational(1, 2)) == pytest.approx(
            math.log(4), abs=1e-12
        )

    @given(fractions_01)
    def test_gauss_matches_inverse_square(self, fr):
        if fr == 0:
            return
        x = cf_from_rational(fr)
        assert log_deriv_at(GAUSS_ALPHA, x) == pytest.approx(
            -2 * math.log(float(fr)), abs=1e-9
        )

    def test_fibonacci_at_half(self):
        # the golden-parameter map sends 1/2 to 1 with |T'| = 4
        assert log_deriv_at(FIBONACCI_ALPHA, cf_from_rational(1, 2)) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_undefined_points(self):
        with pytest.raises(DerivativeUndefined):
            log_deriv_at(GAUSS_ALPHA, ZERO)
        with pytest.raises(DerivativeUndefined):
            log_deriv_at(FIBONACCI_ALPHA, GOLDEN)
        with pytest.raises(DerivativeUndefined):
            log_deriv_at(FIBONACCI_ALPHA, ONE)

    def test_indifferent_fixed_point_of_golden_member(self):
        # near 0 the golden-parameter map has derivative approaching 1
        x = cf_from_rational(1, 500)
        assert log_deriv_at(FIBONACCI_ALPHA, x) < 0.01

    def test_relative_precision_near_derivative_one(self):
        # 2*log(1 + y) at y ~ 1e-12 loses all but four digits to rounding
        n = 10 ** 12
        # golden parameter at 1/n: reduce to 1/(n-1), |T'| = (1 + y)**2
        got = log_deriv_at(FIBONACCI_ALPHA, cf_from_rational(1, n))
        assert got == pytest.approx(2 * math.log1p(1 / (n - 1)), rel=1e-15, abs=0)
        # classical parameter at [0;1,n]: strip to 1/n, |T'| = (1 + y)**2
        got = log_deriv_at(GAUSS_ALPHA, CF((1, n)))
        assert got == pytest.approx(2 * math.log1p(1 / n), rel=1e-15, abs=0)


class TestOrbit:
    def test_golden_member_traps_half(self):
        rec = orbit(FIBONACCI_ALPHA, cf_from_rational(1, 2), 10)
        assert [s.head for s in rec.states] == [(2,), (1,), ()]
        assert rec.hit_zero_at == 1
        assert rec.deriv_steps == 1
        assert rec.log_deriv_sum == pytest.approx(math.log(4), abs=1e-12)

    def test_gauss_on_quadratic_fixed_point(self):
        rec = orbit(GAUSS_ALPHA, SQRT2M1, 5)
        assert all(s == SQRT2M1 for s in rec.states)
        assert rec.hit_zero_at is None
        assert rec.deriv_steps == 5
        assert rec.log_deriv_sum == pytest.approx(
            10 * math.log(1 + math.sqrt(2)), rel=1e-9
        )

    def test_truncated_input_stops(self):
        rec = orbit(GAUSS_ALPHA, CF((4, 4), exact=False), 10)
        assert rec.exhausted and rec.steps == 2

    @given(st.sampled_from([GOLDEN, SQRT2M1, CF((3,), (1, 2)), CF((2, 3))]),
           st.one_of(st.builds(cf_from_rational, fractions_01,
                               variant=variants), periodics),
           st.integers(0, 40))
    # 1/7 under the golden parameter: six depth-1 reduce steps in one run
    @example(GOLDEN, cf_from_rational(1, 7), 10)
    def test_states_are_single_steps(self, alpha, x, n):
        rec = orbit(alpha, x, n)
        cur = x
        for state, value in zip(rec.states[1:], rec.shadow[1:]):
            cur = t_alpha_step(alpha, cur)
            assert state == cur
            assert value == cf_value(cur)[0]

    def test_shadow_tracks_values(self):
        rec = orbit(GAUSS_ALPHA, cf_from_rational(5, 13), 10)
        assert rec.shadow[0] == pytest.approx(5 / 13)
        assert rec.states[-1] == ZERO


def reference_jimm(x):
    """The flip involution by the per-digit token rule, fed one digit at a
    time: digit n emits n - 2 ones and then a pending 2, the very first
    digit n - 1 ones; a block with a negative one-count grows the pending
    token instead.  A rational keeps its pending token before a (1)
    tail, an all-ones tail drops it, and a periodic input is fed its head
    and two cycles, the second cycle's tokens being the period."""
    settled, pending = [], None

    def feed(digits):
        nonlocal pending
        for n in digits:
            ones = n - 1 if pending is None else n - 2
            if ones < 0:
                pending += 1
                continue
            if pending is not None:
                settled.append(pending)
            settled.extend([1] * ones)
            pending = 2

    feed(x.head)
    if x.is_truncated:
        return CF(tuple(settled), (), False)
    if x.is_rational:
        return CF(tuple(settled) + ((pending,) if pending else ()), (1,))
    if x.period == (1,):
        return CF(tuple(settled))
    feed(x.period)
    start, first = len(settled), pending
    feed(x.period)
    assert pending == first
    return CF(tuple(settled[:start]), tuple(settled[start:]))


class TestJimm:
    @given(any_points)
    @example(ZERO)
    @example(GOLDEN)
    @example(CF((1,), exact=False))
    @example(CF((), (1, 2)))
    def test_matches_reference_transducer(self, x):
        got = jimm(x)
        assert got == reference_jimm(x)
        # the result is canonical: rebuilding it through the validating
        # constructor changes nothing
        assert got == CF(got.head, got.period, got.exact)

    @given(exact_points)
    def test_involution_on_exact_points(self, x):
        assert jimm(jimm(x)) == x

    def test_goldens(self):
        assert jimm(ZERO) == GOLDEN
        assert jimm(GOLDEN) == ZERO
        assert jimm(ONE) == CF((2,), (1,))
        assert jimm(cf_from_rational(1, 2)) == CF((1, 2), (1,))
        assert jimm(SQRT2M1) == CF((1,), (2,))
        assert jimm(CF((1,), (1, 2))) == CF((), (3,))

    def test_block_example(self):
        assert jimm(ContinuedFraction((2, 3))) == ContinuedFraction((1, 2, 1, 2), (1,))

    @given(fractions_01, variants)
    def test_involution_on_rationals(self, fr, variant):
        x = cf_from_rational(fr, variant=variant)
        assert jimm(jimm(x)) == x

    @given(periodics)
    def test_involution_on_periodics(self, x):
        assert jimm(jimm(x)) == x

    @given(periodics)
    def test_periodic_value_consistency(self, x):
        # the image's float value must sit inside its own certificate
        v, err = cf_value(jimm(x), depth=50)
        assert 0.0 <= v <= 1.0 and err < 1e-6

    def test_truncated_keeps_settled_prefix(self):
        full = jimm(ContinuedFraction((2, 3, 4, 2, 5)))
        part = jimm(ContinuedFraction((2, 3, 4, 2, 5), exact=False))
        assert part.is_truncated
        assert part.head == full.head[: len(part.head)]
        assert len(part.head) >= 5


class TestConjugacy:
    """Flipping, applying the parameter-0 member, and flipping back is
    the golden-parameter member."""

    @given(fractions_01, variants)
    def test_on_rationals(self, fr, variant):
        x = cf_from_rational(fr, variant=variant)
        lhs = jimm(t_alpha_step(GAUSS_ALPHA, jimm(x)))
        assert lhs == t_alpha_step(FIBONACCI_ALPHA, x)

    @given(periodics)
    def test_on_periodics(self, x):
        # the golden point itself is the one convention mismatch: both
        # members trap their own parameter at 0, but the conjugation
        # chain returns it unchanged
        if x == GOLDEN:
            return
        lhs = jimm(t_alpha_step(GAUSS_ALPHA, jimm(x)))
        assert lhs == t_alpha_step(FIBONACCI_ALPHA, x)


class TestArgumentChecks:
    def test_orbit_rejects_negative(self):
        with pytest.raises(DomainError):
            orbit(GAUSS_ALPHA, ZERO, -1)

    def test_fixed_point_index(self):
        with pytest.raises(DomainError):
            fibonacci_fixed_point(0)

    def test_truncated_comparison_raises(self):
        with pytest.raises(TruncationExhausted):
            t_alpha_step(GAUSS_ALPHA, CF((), (), False))


# ---------------------------------------------------------------------------
# The digit comparison and the orbit cursor, against plain digit streams
# ---------------------------------------------------------------------------


def reference_compare(alpha, x):
    """The map's comparison on two digits() generators: (case, k, b, a,
    c, d), with the index k where it resolved and the bottom row (c, d)
    of the inverse-branch matrix; TruncationExhausted names the digit."""
    da, dx = alpha.digits(), x.digits()
    cap = _decision_horizon(alpha, len(x.head), len(x.period))
    qm1, q = 0, 1
    for k in range(1, cap + 1):
        a, b = next(da, None), next(dx, None)
        if a is None or b is None:
            raise TruncationExhausted(f"digit {k} is not settled")
        if a == b:
            if not isinstance(a, int):  # both streams ended
                return "zero", k, b, a, 0, 0
            qm1, q = q, a * q + qm1
        elif not isinstance(b, int):  # x ended first
            return "zero", k, b, a, 0, 0
        elif not isinstance(a, int) or b < a:
            return "strip", k, b, a, q, q * b + qm1
        else:
            return "reduce", k, b, a, a * q + qm1, q
    return "zero", cap + 1, 0, 0, 0, 0


def reference_image(x, decision):
    case, k, b, a = decision[:4]
    if case == "zero":
        return ZERO
    if case == "strip":
        return drop_digits(x, k)
    return replace_first_digit(drop_digits(x, k - 1), b - a)


def compare_point(alpha, x):
    """_compare on x laid out as an orbit cursor holds it."""
    cap = _decision_horizon(alpha, len(x.head), len(x.period))
    return _compare(alpha, x.head[::-1], x.period, 0, x.exact, cap)


def outcome(fn, *args):
    """fn's result, or the message of the TruncationExhausted it raised."""
    try:
        return fn(*args)
    except TruncationExhausted as exc:
        return ("raised", str(exc))


COMPARED_PARAMETERS = [
    GAUSS_ALPHA, cf_from_rational(1, 2), cf_from_rational(1, 2, "plus"),
    GOLDEN, SQRT2M1, CF((), (1, 2)), CF((3,), (1, 2)),
    CF((2, 1, 3), exact=False),
]


class TestComparison:
    """The index-reading comparison against the generator-based one."""

    @staticmethod
    def agree(alpha, x):
        want = outcome(reference_compare, alpha, x)
        assert outcome(compare_point, alpha, x) == want
        image = want if want[0] == "raised" else \
            outcome(reference_image, x, want)
        assert outcome(t_alpha_step, alpha, x) == image

    @pytest.mark.parametrize("alpha", COMPARED_PARAMETERS, ids=str)
    @given(st.one_of(st.builds(cf_from_rational, fractions_01,
                               variant=variants), periodics, truncated))
    def test_points(self, alpha, x):
        self.agree(alpha, x)

    def test_parameter_zero_resolves_at_first_digit(self):
        assert compare_point(GAUSS_ALPHA, CF((7, 2))) == \
            ("strip", 1, 7, INF, 1, 7)

    def test_equal_rationals_are_zero(self):
        half = cf_from_rational(1, 2)
        assert compare_point(half, half)[:2] == ("zero", 2)
        assert compare_point(GAUSS_ALPHA, ZERO)[:2] == ("zero", 1)
        self.agree(half, half)

    def test_prefix_of_parameter_is_zero(self):
        assert compare_point(CF((3,), (1, 2)), CF((3, 1)))[:2] == ("zero", 3)
        assert compare_point(GOLDEN, CF((1, 1)))[:2] == ("zero", 3)
        self.agree(CF((3,), (1, 2)), CF((3, 1)))

    def test_periodic_agreement_past_horizon_is_zero(self):
        alpha = CF((3,), (1, 2))
        cap = _decision_horizon(alpha, 1, 2)
        assert compare_point(alpha, alpha)[:2] == ("zero", cap + 1)
        self.agree(alpha, alpha)

    def test_truncation_raised_at_the_same_digit(self):
        alpha = CF((2, 1, 3), exact=False)
        assert outcome(compare_point, alpha, CF((2, 1, 3, 4))) == \
            ("raised", "digit 4 is not settled")
        assert outcome(compare_point, GOLDEN, CF((1, 1), exact=False)) == \
            ("raised", "digit 3 is not settled")
        self.agree(alpha, CF((2, 1, 3, 4)))


class TestCursorEdits:
    """drop and set_first called directly, in orders an orbit need not
    take (test_lyapunov checks the window after orbit runs): after every
    edit the window equals a rebuild of the first _WINDOW digits, and the
    comparison over the cursor's list agrees with the generator-based one
    on the point it holds."""

    @staticmethod
    def check(cur, alpha=GOLDEN):
        assert (cur.w, cur.p, cur.pm1, cur.q, cur.qm1) == \
            _last_convergent(cur.digits(), _WINDOW)
        x = cur.state()
        cap = _decision_horizon(alpha, len(cur.rev), len(cur.period))
        assert outcome(_compare, alpha, cur.rev, cur.period, cur.phase,
                       cur.exact, cap) == outcome(reference_compare, alpha, x)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_edits(self, seed):
        rng = random.Random(seed)
        digits = [rng.randint(1, 9) for _ in range(rng.randint(0, 90))]
        period = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        x = rng.choice([CF(tuple(digits)), CF(tuple(digits), exact=False),
                        CF(tuple(digits[:rng.randint(0, 8)]), period)])
        cur = _Cursor(x)
        self.check(cur)
        for _ in range(120):
            left = len(cur.rev) if not cur.period else 10 ** 6
            if left and rng.random() < 0.4:
                cur.set_first(rng.randint(1, 9))
            else:
                cur.drop(min(left, rng.choice((0, 1, 1, 2, 3, 7, 39, 40, 41,
                                               55))))
            self.check(cur)
            if not cur.period and not cur.rev:
                break

    def test_drop_deeper_than_window(self):
        cur = _Cursor(CF(tuple(range(1, 100))))
        cur.drop(_WINDOW + 5)
        self.check(cur)
        assert cur.rev[-1] == _WINDOW + 6

    def test_drop_crossing_into_period(self):
        cur = _Cursor(CF((5, 7, 2), (1, 3, 2, 4)))
        cur.drop(5)
        self.check(cur)
        assert (cur.rev, cur.phase) == ([], 2)

    def test_set_first_on_empty_head(self):
        cur = _Cursor(CF((), (2, 3)))
        cur.drop(1)
        assert cur.rev == [] and cur.phase == 1
        cur.set_first(7)
        self.check(cur)
        assert (cur.rev, cur.phase) == ([7], 0)

    def test_rational_head_ends_inside_window(self):
        cur = _Cursor(CF(tuple(range(1, 31))))
        assert cur.w == 30
        for j in (1, 3, 10):
            cur.drop(j)
            self.check(cur)
        assert cur.w == 16
        cur.set_first(4)
        cur.drop(16)
        self.check(cur)
        assert cur.is_zero() and cur.w == 0
