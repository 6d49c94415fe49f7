"""Tests for the zeta-series module."""

import math

import numpy as np
import pytest

from cfdyn.cf import ContinuedFraction, ZERO
from cfdyn.errors import DomainError
from cfdyn.series import fibonacci, hurwitz_sum
from cfdyn.transfer import apply_transfer
from cfdyn import verify
from cfdyn import zeta as zt

GOLDEN = ContinuedFraction((), (1,))

# sum_{k>=1} 1/F_k (OEIS A079586)
RECIPROCAL_FIBONACCI = 3.359885666243177553


def big_integer_fib_sum(s, t, y, terms=200, bits=256):
    """The two-variable series from exact Fibonacci integers, for integer
    t and 2s: each summand (F_k a + F_{k-1} b)^t b^(2s) / (F_{k+1} a +
    F_k b)^(2s+t), y = a/b, is rounded down to a multiple of 2^-bits."""
    a, b = y.as_integer_ratio()
    p, q = int(2 * s), int(t)
    assert p == 2 * s and q == t
    total = 0
    for k in range(terms):
        num = (fibonacci(k) * a + fibonacci(k - 1) * b) ** q * b ** p
        den = (fibonacci(k + 1) * a + fibonacci(k) * b) ** (p + q)
        total += (num << bits) // den
    return math.ldexp(total, -bits)


class TestHurwitz:
    def test_basel(self):
        got = zt.hurwitz_zeta(2.0, 1.0)
        assert abs(got.value - math.pi ** 2 / 6.0) < 1e-10

    def test_shifted_basel(self):
        got = zt.hurwitz_zeta(2.0, 2.0)
        assert abs(got.value - (math.pi ** 2 / 6.0 - 1.0)) < 1e-10

    def test_fourth_power(self):
        got = zt.hurwitz_zeta(4.0, 1.0)
        assert abs(got.value - math.pi ** 4 / 90.0) < 1e-12

    def test_shift_identity(self):
        for z in (1.5, 2.0, 3.0):
            for a in (0.4, 1.0, 2.7):
                left = zt.hurwitz_zeta(z, a)
                right = zt.hurwitz_zeta(z, a + 1.0)
                assert abs(left.value - right.value - a ** (-z)) \
                    <= left.tail + right.tail + 1e-13

    def test_rejects_divergent(self):
        with pytest.raises(DomainError):
            zt.hurwitz_zeta(1.0, 1.0)
        with pytest.raises(DomainError):
            zt.hurwitz_zeta(2.0, 0.0)


class TestZetaAlpha:
    def test_reduces_to_hurwitz_for_zero_parameter(self):
        # the closed form at parameter 0 against the branch walk it replaces
        eps = np.finfo(float).eps
        for s in (1.0, 1.5, 2.0):
            for t in (0.0, 0.5, 1.0):
                for y in (0.3, 0.7, 1.0):
                    branch = apply_transfer(ZERO, s, lambda u: u ** t, y)
                    closed = zt.zeta_alpha(ZERO, s, t, y)
                    assert abs(branch.value - closed.value) \
                        <= branch.tail + closed.tail \
                        + 16 * eps * (branch.value + closed.value)

    @pytest.mark.parametrize("t", [-0.5, -0.9])
    def test_zero_parameter_negative_t(self, t):
        # u^t is infinite at the family limit 0, which once left the whole
        # dropped mass out of the sum.  sum_{i>=1} (y+i)^-p is bracketed by
        # its first n terms plus the integrals of the rest from n+1 and n
        s, y, n = 1.0, 0.5, 10 ** 6
        p = 2.0 * s + t
        head = float(np.sum((y + np.arange(1, n + 1, dtype=float)) ** -p))
        lo = head + (y + n + 1) ** (1.0 - p) / (p - 1.0)
        hi = head + (y + n) ** (1.0 - p) / (p - 1.0)
        got = zt.zeta_alpha(ZERO, s, t, y)
        slack = got.tail + 64 * np.finfo(float).eps * hi
        assert math.isfinite(got.tail)
        assert lo - slack <= got.value <= hi + slack

    def test_weighted_image_sum(self):
        # t=1 over the zero parameter collapses to a pure cube sum
        got = zt.zeta_alpha(ZERO, 1.0, 1.0, 1.0)
        want = hurwitz_sum(3.0, 2.0)
        assert abs(got.value - want.value) <= got.tail + want.tail + 1e-12

    def test_golden_parameter_matches_fib_series(self):
        # the golden branch sum is the series without its k=0 summand
        for s in (1.0, 1.5):
            for t in (0.0, 0.5, 1.0):
                for y in (0.5, 1.0):
                    branch = zt.zeta_alpha(GOLDEN, s, t, y)
                    series = zt.fib_hurwitz(s, t, y)
                    want = series.value - y ** (-2.0 * s - t)
                    assert abs(branch.value - want) \
                        <= branch.tail + series.tail + 1e-12

    def test_rejects_bad_point(self):
        with pytest.raises(DomainError):
            zt.zeta_alpha(ZERO, 1.0, 0.0, 1.5)
        with pytest.raises(DomainError):
            zt.zeta_alpha(ZERO, 1.0, 0.0, 0.0)

    def test_rejects_divergent_exponents(self):
        with pytest.raises(DomainError):
            zt.zeta_alpha(ZERO, 0.6, -0.5, 0.5)


class TestFibHurwitz:
    def test_leading_term_is_pure_power(self):
        # k=0 summand is y^(-2s-t); at huge s it dominates
        got = zt.fib_hurwitz(8.0, 1.0, 0.5)
        assert got.value == pytest.approx(0.5 ** (-17.0), rel=1e-6)

    def test_monotone_decreasing_in_y(self):
        a = zt.fib_hurwitz(1.0, 0.0, 0.5)
        b = zt.fib_hurwitz(1.0, 0.0, 1.0)
        assert a.value > b.value > 0

    def test_matches_direct_fibonacci_sum(self):
        # at y=1 the series is sum 1/F_{k+2}^(2s)
        direct = sum(1.0 / fibonacci(k) ** 2 for k in range(2, 60))
        got = zt.fib_hurwitz(1.0, 0.0, 1.0)
        assert abs(got.value - direct) < 1e-12

    def test_matches_big_integer_sum(self):
        for s in (0.5, 1.0, 1.5, 2.0):
            for t in (0.0, 1.0, 2.0):
                for y in (0.25, 0.8, 1.0, 3.0):
                    got = zt.fib_hurwitz(s, t, y)
                    want = big_integer_fib_sum(s, t, y)
                    assert abs(got.value - want) \
                        <= got.tail + 8 * math.ulp(want), (s, t, y)

    def test_monotone_in_truncation_with_honest_tails(self, monkeypatch):
        vals = []
        for n in (6, 9, 12, 24):
            monkeypatch.setattr(zt, "_FIB_TERMS", n)
            vals.append(zt.fib_hurwitz(1.0, 0.5, 0.8))
        for a, b in zip(vals, vals[1:]):
            assert a.value <= b.value <= a.value + a.tail

    def test_slow_decay_has_a_finite_covering_tail(self):
        # at s = 0.05 the summands F_{k+2}^-0.1 shrink by phi^-0.1 ~ 0.95
        # a step, so the summand cap stops far above the rounding floor
        got = zt.fib_hurwitz(0.05, 0.0, 1.0)
        longer = math.fsum(math.exp(-0.1 * math.log(fibonacci(k + 2)))
                           for k in range(3000))
        assert math.isfinite(got.tail)
        assert got.value <= longer <= got.value + got.tail

    def test_rejects_divergent(self):
        with pytest.raises(DomainError):
            zt.fib_hurwitz(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            zt.fib_hurwitz(1.0, 0.0, 0.0)


class TestFibZeta:
    def test_reciprocal_fibonacci_constant(self):
        got = zt.fib_zeta(1.0)
        assert abs(got.value - 3.359885666243) < 1e-9

    def test_stable_under_doubled_truncation(self, monkeypatch):
        # 40 summands stop short of the rounding floor, so the tail counts
        monkeypatch.setattr(zt, "_FIB_TERMS", 40)
        a = zt.fib_zeta(1.0)
        monkeypatch.setattr(zt, "_FIB_TERMS", 80)
        b = zt.fib_zeta(1.0)
        assert 0 < abs(a.value - b.value) <= a.tail

    def test_verify_row_checks_the_constant(self):
        row, = [r for r in verify.suite_zeta() if r.name == "fib-zeta-constant"]
        assert row.passed
        assert row.measure <= 4 * math.ulp(RECIPROCAL_FIBONACCI)

    def test_direct_sum_cross_check(self):
        direct = sum(1.0 / fibonacci(k) ** 3 for k in range(1, 60))
        assert abs(zt.fib_zeta(3.0).value - direct) < 1e-12


class TestFunctionalEquation:
    def test_residual_within_tails_small_grid(self):
        for s in (1.0, 2.0, 3.0):
            for t in (0.0, 1.0, 2.0):
                for x in (0.5, 1.0, 2.0):
                    got = zt.fib_functional_eq_residual(s, t, x)
                    assert abs(got.value) <= got.tail + 1e-11

    def test_index_identity_at_one(self):
        # at x=1 the identity is a pure reindexing
        got = zt.fib_functional_eq_residual(1.0, 0.0, 1.0)
        assert abs(got.value) <= 2.0 * got.tail + 1e-12

    def test_rejects_bad_x(self):
        with pytest.raises(DomainError):
            zt.fib_functional_eq_residual(1.0, 0.0, 0.0)
