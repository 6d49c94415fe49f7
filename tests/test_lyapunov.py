"""Tests for the Lyapunov estimators."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cfdyn.cf import (
    ZERO,
    ContinuedFraction,
    _last_convergent,
    cf_from_rational,
    cf_value,
)
from cfdyn.errors import (
    DerivativeUndefined,
    DomainError,
    PrecisionBudgetError,
    TruncationExhausted,
)
from cfdyn.maps import (
    FIBONACCI_ALPHA,
    GAUSS_ALPHA,
    _orbit_runs,
    fibonacci_fixed_point,
    log_deriv_at,
    orbit,
    t_alpha_step,
)
from cfdyn.series import fibonacci
from cfdyn import lyapunov as ly, maps

PHI = (1.0 + math.sqrt(5.0)) / 2.0
CF = ContinuedFraction
variants = st.sampled_from(["minus", "plus"])

# the parameter's first digit a sets the length of the depth-1 reduce runs
# that lyapunov_orbit takes in one step; rationals in (1/5, 1] give a = 1..4
parameters = st.one_of(
    st.sampled_from([GAUSS_ALPHA, FIBONACCI_ALPHA, CF((), (2,)),
                     CF((3,), (1, 2))]),
    st.builds(cf_from_rational,
              st.fractions(Fraction(1, 5), 1, max_denominator=60)
              .filter(lambda f: f > Fraction(1, 5)),
              variant=variants),
)
# denominators up to 1000 keep the reference's own rounding (a step of
# derivative 1 + 1/b loses ~b*1e-16 of its size) far below the tolerance
starts = st.one_of(
    st.builds(cf_from_rational, st.fractions(0, 1, max_denominator=1000),
              variant=variants),
    st.builds(lambda h, p: CF(tuple(h), tuple(p)),
              st.lists(st.integers(1, 12), max_size=4),
              st.lists(st.integers(1, 6), min_size=1, max_size=4)),
    st.builds(lambda h: CF(tuple(h), exact=False),
              st.lists(st.integers(1, 40), max_size=12)),
)


def quad_rate(k: int) -> float:
    # exponent at the period-1 point [0,(k)] of the classical map
    return 2.0 * math.log((k + math.sqrt(k * k + 4.0)) / 2.0)


class TestOrbitAverage:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_period_one_closed_forms(self, k):
        x = ContinuedFraction((), (k,))
        got = ly.lyapunov_orbit(GAUSS_ALPHA, x, 12)
        assert abs(got.value - quad_rate(k)) < 1e-12
        assert got.steps == 12
        assert not got.terminated

    def test_golden_point_under_gauss(self):
        x = ContinuedFraction((), (1,))
        got = ly.lyapunov_orbit(GAUSS_ALPHA, x, 8)
        assert abs(got.value - 2.0 * math.log(PHI)) < 1e-12

    def test_fibonacci_fixed_point_constant_in_n(self):
        x = fibonacci_fixed_point(1)
        vals = [ly.lyapunov_orbit(FIBONACCI_ALPHA, x, n).value for n in (1, 5, 9)]
        assert max(vals) - min(vals) < 1e-12

    def test_rational_orbit_terminates_with_partial_average(self):
        got = ly.lyapunov_orbit(GAUSS_ALPHA, cf_from_rational(7, 24), 50)
        assert got.terminated
        assert 1 <= got.steps < 50
        assert math.isfinite(got.value)

    def test_truncated_input_raises(self):
        stub = ContinuedFraction((2, 2, 2), exact=False)
        with pytest.raises(TruncationExhausted):
            ly.lyapunov_orbit(GAUSS_ALPHA, stub, 30)

    def test_rejects_zero_steps(self):
        with pytest.raises(DomainError):
            ly.lyapunov_orbit(GAUSS_ALPHA, ContinuedFraction((), (1,)), 0)


def stepwise_average(alpha, x, n):
    """lyapunov_orbit rebuilt from public single steps, one at a time."""
    total, steps, cur = 0.0, 0, x
    terminated = False
    while steps < n:
        try:
            total += log_deriv_at(alpha, cur)
        except DerivativeUndefined:  # the point goes to 0, no derivative
            terminated = True
            break
        cur = t_alpha_step(alpha, cur)
        steps += 1
        if cur == ZERO:
            terminated = True
            break
    if steps == 0:
        raise DerivativeUndefined("no derivative-carrying step was taken")
    return ly.OrbitAverage(total / steps, steps, terminated)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DerivativeUndefined, TruncationExhausted) as exc:
        return type(exc)


def _examples(cases):
    """One decorator applying @example for each (alpha, x, n) case."""
    def apply(test):
        for case in reversed(cases):
            test = example(*case)(test)
        return test
    return apply


# Cases for the walk's reuse of _compare answers that resolve at digit 1,
# kept by the point's first digit: below, equal to and above a large first
# digit of the parameter; a truncated parameter, whose comparisons raise
# and so are never kept; first digits taken from the period; and heads at
# the edge of the 40-digit window.
SEVEN = CF((7,), (2,))
REUSE_EXAMPLES = _examples([
    (SEVEN, CF((3, 5, 7, 9, 7, 2)), 300),
    (SEVEN, CF((7, 2, 2, 1, 7, 3)), 300),
    (SEVEN, CF((7, 3, 30, 7, 8)), 300),
    (SEVEN, CF((20, 1, 4, 15, 6)), 300),
    (SEVEN, CF((2, 9), (7, 1, 16)), 300),
    (SEVEN, CF((), (9, 7, 2)), 300),
    (SEVEN, CF((), (7, 2)), 40),
    (CF((), exact=False), CF((3, 5)), 10),
    (CF((2,), exact=False), CF((5, 1, 9, 3)), 50),
    (CF((2,), exact=False), CF((1, 6, 3)), 50),
    (GAUSS_ALPHA, CF((), (3, 1)), 30),
    (FIBONACCI_ALPHA, CF((), (5, 1, 1)), 60),
    (GAUSS_ALPHA, CF(tuple(range(1, 41))), 300),
    (GAUSS_ALPHA, CF(tuple(range(1, 42))), 300),
    (SEVEN, CF((8,) * 40), 300),
    (SEVEN, CF((3, 8) * 20 + (9,)), 300),
    (GAUSS_ALPHA, CF((2,) * 40, (1, 3)), 100),
    (GAUSS_ALPHA, CF((4,) * 41, exact=False), 100),
])


class TestAgainstStepwiseReference:
    @given(parameters, starts, st.integers(1, 300))
    @example(FIBONACCI_ALPHA, cf_from_rational(1, 10), 3)  # run cut by n
    # (2) against 6: 6 -> 4 -> 2 reduces, then 2 == a, decided by digit 2
    @example(CF((), (2,)), CF((6, 3)), 300)
    # (2) against 7: 7 -> 5 -> 3 -> 1 reduces, then 1 < a strips
    @example(CF((), (2,)), CF((7, 3)), 300)
    @REUSE_EXAMPLES
    def test_matches_single_steps(self, alpha, x, n):
        want = outcome(stepwise_average, alpha, x, n)
        got = outcome(ly.lyapunov_orbit, alpha, x, n)
        if isinstance(want, type):
            assert got is want
            return
        assert (got.steps, got.terminated) == (want.steps, want.terminated)
        if alpha == GAUSS_ALPHA:  # no reduce steps: the same floats
            assert got.value.hex() == want.value.hex()
        else:
            assert abs(got.value - want.value) <= 1e-12 * abs(want.value)

    def test_only_answers_at_digit_one_are_reused(self, monkeypatch):
        firsts = []

        def spy(alpha, rev, period, phase, exact, cap):
            firsts.append(rev[-1] if rev else period[phase])
            return compare(alpha, rev, period, phase, exact, cap)

        compare = maps._compare
        monkeypatch.setattr(maps, "_compare", spy)
        # parameter 0 resolves every step at digit 1: one call per value
        x = CF((3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5), (2, 7))
        assert ly.lyapunov_orbit(GAUSS_ALPHA, x, 200).steps == 200
        assert sorted(firsts) == [1, 2, 3, 4, 5, 6, 7, 9]
        # [0;(7,2)] under [0;7,(2)]: a first digit 7 resolves at digit 3
        # on every visit, the strips of 5 and 2 at digit 1 once each
        firsts.clear()
        ly.lyapunov_orbit(SEVEN, CF((), (7, 2)), 30)
        assert sorted(firsts) == [2, 5] + [7] * 10

    def test_golden_orbit_memory_is_bounded_by_digits(self):
        # a 16000-bit start has about 9400 digits; keeping every state of
        # the orbit, as orbit() does, peaks near 280 MB
        num = random.Random(1).getrandbits(16000) | 1
        x = cf_from_rational(Fraction(num, 1 << 16000))
        tracemalloc.start()
        try:
            got = ly.lyapunov_orbit(FIBONACCI_ALPHA, x, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.steps == 4000
        assert peak < 8 * 2 ** 20


class TestCursorWindow:
    """The cursor's sliding convergent window against a rebuild from its
    digit stream, after every run of steps."""

    @given(parameters, starts, st.integers(1, 300))
    # a head of 45 digits: its end enters the window after 5 drops
    @example(GAUSS_ALPHA, CF(tuple(range(1, 46))), 300)
    # a 41-digit rational under (2): strips at depth 1, then reduce runs
    @example(CF((), (2,)), CF((3,) * 40 + (5,)), 300)
    # drops that cross from the head into the period
    @example(GAUSS_ALPHA, CF((5, 3), (2, 7, 1)), 40)
    @example(CF((), (2,)), CF((2, 2, 1), (4, 3)), 40)
    # a reduce run on an empty head: set_first takes a period digit
    @example(FIBONACCI_ALPHA, CF((), (3, 1)), 20)
    @example(FIBONACCI_ALPHA, CF((), (4,)), 20)
    # strips at depth 4, and at depth 51, deeper than the window
    @example(CF((), (2,)), CF((2, 2, 2, 1, 5, 6)), 10)
    @example(CF((), (2,)), CF((2,) * 50 + (1, 3) * 30), 10)
    @example(CF((), (2,)), CF((2,) * 50 + (1,), (3, 1)), 10)
    # truncated: the window ends where the settled digits do
    @example(GAUSS_ALPHA, CF(tuple(range(1, 60)), exact=False), 300)
    @example(FIBONACCI_ALPHA, cf_from_rational(1, 10), 3)
    @REUSE_EXAMPLES
    def test_window_matches_rebuild(self, alpha, x, n):
        try:
            for cur, _, _ in _orbit_runs(alpha, x, n):
                count, p, pm1, q, qm1 = _last_convergent(cur.digits(), 40)
                assert (cur.w, cur.p, cur.pm1, cur.q, cur.qm1) == \
                    (count, p, pm1, q, qm1)
                assert cur.value() == p / q
        except TruncationExhausted:
            pass

    @given(parameters, starts, st.integers(1, 300))
    # 1/10 under (1): one run of nine telescoped reduce steps
    @example(FIBONACCI_ALPHA, cf_from_rational(1, 10), 300)
    @example(FIBONACCI_ALPHA, CF((), (9, 1)), 40)
    @example(CF((), (2,)), CF((7, 3)), 300)
    def test_shadows_are_cf_values(self, alpha, x, n):
        rec = orbit(alpha, x, n)
        assert len(rec.shadow) == len(rec.states)
        for state, value in zip(rec.states, rec.shadow):
            assert value.hex() == cf_value(state)[0].hex()


class TestDenominatorGrowth:
    def test_golden_growth_is_binet(self):
        x = ContinuedFraction((), (1,))
        got = ly.lyapunov_qn(x, 30)
        assert got == pytest.approx(2.0 * math.log(fibonacci(31)) / 30.0, abs=1e-15)
        assert abs(got - 2.0 * math.log(PHI)) < 0.05

    def test_pell_growth(self):
        x = ContinuedFraction((), (2,))
        assert abs(ly.lyapunov_qn(x, 30) - quad_rate(2)) < 0.05

    def test_agrees_with_orbit_average_as_n_grows(self):
        x = ContinuedFraction((), (2,))
        gaps = [abs(ly.lyapunov_qn(x, n) - ly.lyapunov_orbit(GAUSS_ALPHA, x, n).value)
                for n in (10, 40, 160)]
        assert gaps[2] < gaps[0]
        assert gaps[2] < 0.01

    def test_short_expansion_raises(self):
        with pytest.raises(TruncationExhausted):
            ly.lyapunov_qn(cf_from_rational(7, 24), 50)


class TestMonteCarlo:
    def test_gauss_constant_small_run(self):
        est = ly.monte_carlo_lyapunov(GAUSS_ALPHA, 12, 300, seed=5)
        target = math.pi ** 2 / (6.0 * math.log(2.0))
        assert abs(est.value - target) <= max(0.05 * target, 4.0 * est.stderr)

    def test_golden_parameter_average_collapses(self):
        # The golden-parameter map has a neutral fixed point at 0
        # (first branch y/(1+y), derivative 1 there) and preserves the
        # infinite density 1/(y(1+y)), so time averages of log|T'| at
        # Lebesgue-random points sink toward 0 instead of settling at
        # 2*log(phi).  Pin the qualitative behaviour: small, positive,
        # and well below the golden constant already at modest depth.
        est = ly.monte_carlo_lyapunov(FIBONACCI_ALPHA, 12, 600, seed=5)
        assert 0.0 < est.value < 0.7
        assert est.stderr < 0.25

    def test_gauss_exponent_at_jimm_images(self):
        # Jimm images have almost all partial quotients equal to 1, so
        # the classical-map exponent evaluated there approaches
        # 2*log(phi) even though the points are Lebesgue-atypical.
        import random
        from fractions import Fraction

        from cfdyn.maps import jimm

        rng = random.Random(11)
        vals = []
        for _ in range(8):
            num = rng.getrandbits(64)
            x = cf_from_rational(Fraction(num, 1 << 64))
            got = ly.lyapunov_orbit(GAUSS_ALPHA, jimm(x), 400)
            vals.append(got.value)
        mean = sum(vals) / len(vals)
        assert abs(mean - 2.0 * math.log(PHI)) < 0.1

    def test_seed_determinism(self):
        a = ly.monte_carlo_lyapunov(GAUSS_ALPHA, 6, 120, seed=11)
        b = ly.monte_carlo_lyapunov(GAUSS_ALPHA, 6, 120, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        a = ly.monte_carlo_lyapunov(GAUSS_ALPHA, 6, 120, seed=11)
        b = ly.monte_carlo_lyapunov(GAUSS_ALPHA, 6, 120, seed=12)
        assert a.value != b.value

    def test_growth_method_agrees(self):
        direct = ly.monte_carlo_lyapunov(GAUSS_ALPHA, 10, 250, seed=3)
        growth = ly.monte_carlo_lyapunov(GAUSS_ALPHA, 10, 250, seed=3,
                                         method="qn_growth")
        band = 3.0 * (direct.stderr + growth.stderr)
        assert abs(direct.value - growth.value) <= band
        assert growth.method == "qn_growth"

    def test_growth_method_is_classical_only(self):
        with pytest.raises(DomainError):
            ly.monte_carlo_lyapunov(FIBONACCI_ALPHA, 4, 100, method="qn_growth")

    def test_insufficient_bits_rejected(self):
        with pytest.raises(PrecisionBudgetError):
            ly.monte_carlo_lyapunov(GAUSS_ALPHA, 4, 100, bits=200)

    def test_bits_past_the_cap_rejected_before_any_draw(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("drew a start past the cap")

        monkeypatch.setattr(ly.random, "Random", no_draws)
        with pytest.raises(PrecisionBudgetError, match="BITS_MAX"):
            ly.monte_carlo_lyapunov(GAUSS_ALPHA, 1, 100, bits=ly.BITS_MAX + 1)
        with pytest.raises(PrecisionBudgetError, match="BITS_MAX"):
            ly.monte_carlo_lyapunov(GAUSS_ALPHA, 1, ly.BITS_MAX // 4 + 1)
        # the cap itself is allowed through to the draws
        with pytest.raises(AssertionError, match="drew"):
            ly.monte_carlo_lyapunov(GAUSS_ALPHA, 1, 100, bits=ly.BITS_MAX)

    def test_negative_seed_rejected(self):
        # random.Random(-1) is random.Random(1): seed -1 used to repeat
        # seed 1's first draw, value for value
        with pytest.raises(DomainError):
            ly.monte_carlo_lyapunov(GAUSS_ALPHA, 1, 200, seed=-1)
        assert ly.monte_carlo_lyapunov(GAUSS_ALPHA, 1, 200, seed=1).value \
            == 2.4773409698849007

    def test_degenerate_single_step(self):
        est = ly.monte_carlo_lyapunov(GAUSS_ALPHA, 1, 1, seed=2)
        assert est.stderr == 0.0
        assert est.n_samples == 1
        assert math.isfinite(est.value)

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            ly.monte_carlo_lyapunov(GAUSS_ALPHA, 2, 10, method="qr")
