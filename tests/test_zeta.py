"""Tests for the zeta-series module."""

import math

import pytest

from cfdyn.cf import ContinuedFraction, ZERO
from cfdyn.errors import DomainError
from cfdyn.series import fibonacci, hurwitz_sum
from cfdyn import zeta as zt

GOLDEN = ContinuedFraction((), (1,))


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
        for s in (1.0, 1.5, 2.0):
            for y in (0.3, 0.7, 1.0):
                branch = zt.zeta_alpha(ZERO, s, 0.0, y)
                shifted = zt.hurwitz_zeta(2.0 * s, y + 1.0)
                assert abs(branch.value - shifted.value) < 1e-10

    def test_weighted_image_sum(self):
        # t=1 over the zero parameter collapses to a pure cube sum
        got = zt.zeta_alpha(ZERO, 1.0, 1.0, 1.0)
        want = hurwitz_sum(3.0, 2.0)
        assert abs(got.value - want.value) <= got.tail + want.tail + 1e-12

    def test_golden_parameter_matches_fib_series(self):
        for s in (1.0, 1.5):
            for y in (0.5, 1.0):
                branch = zt.zeta_alpha(GOLDEN, s, 0.0, y)
                series = zt.fib_hurwitz(s, 0.0, y)
                want = series.value - y ** (-2.0 * s)
                assert abs(branch.value - want) <= branch.tail + series.tail + 1e-12

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

    def test_monotone_in_truncation_with_honest_tails(self):
        vals = [zt.fib_hurwitz(1.0, 0.5, 0.8, n) for n in (6, 9, 12, 24)]
        for a, b in zip(vals, vals[1:]):
            assert a.value <= b.value <= a.value + a.tail

    def test_rejects_divergent(self):
        with pytest.raises(DomainError):
            zt.fib_hurwitz(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            zt.fib_hurwitz(1.0, 0.0, 0.0)


class TestFibZeta:
    def test_reciprocal_fibonacci_constant(self):
        got = zt.fib_zeta(1.0)
        assert abs(got.value - 3.359885666243) < 1e-9

    def test_stable_under_doubled_truncation(self):
        a = zt.fib_zeta(1.0, 400)
        b = zt.fib_zeta(1.0, 800)
        assert abs(a.value - b.value) <= 1e-9

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
