"""Tests for the Euler-Maclaurin power sums, against independent constants.

Every float check allows the reported tail plus a few ulp of the value
and nothing else."""

import math

import numpy as np
import pytest

from cfdyn.errors import DomainError
from cfdyn.series import hurwitz_sum, power_tail

EPS = np.finfo(float).eps
EULER_GAMMA = 0.57721566490153286061
APERY = 1.2020569031595942854


def assert_within(got, want, ulps=4):
    assert abs(got.value - want) <= got.tail + ulps * EPS * abs(want)


class TestZetaValues:
    @pytest.mark.parametrize("p,want", [(2.0, math.pi ** 2 / 6.0),
                                        (3.0, APERY),
                                        (4.0, math.pi ** 4 / 90.0)],
                             ids=["zeta2", "zeta3", "zeta4"])
    def test_riemann_zeta(self, p, want):
        assert_within(power_tail(1.0, 1.0, p, 0), want)
        # the same sum over the even integers, with a step of 2
        assert_within(power_tail(2.0, 2.0, p, 0), want / 2.0 ** p)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_duplication(self, p):
        # zeta(p, 1/2) = (2^p - 1) zeta(p, 1): odd terms of 2^p zeta(p)
        half, one = hurwitz_sum(p, 0.5), hurwitz_sum(p, 1.0)
        scale = 2.0 ** p - 1.0
        gap = abs(half.value - scale * one.value)
        assert gap <= half.tail + scale * one.tail + 4 * EPS * half.value


class TestDigamma:
    # at p = 1 the value is -(digamma(b/a) + log a)/a
    def test_digamma_one(self):
        assert_within(power_tail(1.0, 1.0, 1, 0), EULER_GAMMA)

    def test_digamma_half(self):
        assert_within(power_tail(1.0, 0.5, 1, 0),
                      EULER_GAMMA + 2.0 * math.log(2.0))

    def test_difference(self):
        # digamma(1) - digamma(1/2) = 2 log 2, with a step of 2
        lo, hi = power_tail(2.0, 1.0, 1, 0), power_tail(2.0, 2.0, 1, 0)
        want = math.log(2.0)   # (digamma(1) - digamma(1/2)) / 2
        assert abs(lo.value - hi.value - want) <= lo.tail + hi.tail + 4 * EPS * want


class TestShape:
    def test_scalar_and_array_agree_bitwise(self):
        rng = np.random.default_rng(5)
        b = rng.uniform(0.01, 5.0, 64)
        start = rng.integers(0, 300, 64).astype(float)
        for p in (1.0, 1.2, 2.0, 3.5):
            batch = power_tail(3.0, b, p, start)
            one = [power_tail(3.0, float(bi), p, float(si))
                   for bi, si in zip(b, start)]
            assert batch.value.tolist() == [v.value for v in one]
            assert batch.tail.tolist() == [v.tail for v in one]

    def test_vector_exponent_matches_scalar_calls_bitwise(self):
        # p broadcasts like a, b and start; p = 1 and 2 are where numpy's
        # scalar power takes the reciprocal
        rng = np.random.default_rng(7)
        b = rng.uniform(0.01, 5.0, (16, 1))
        start = np.append(rng.integers(0, 300, 15).astype(float), np.inf)[:, None]
        p = np.array([1.0, 1.2, 2.0, 2.5, 3.0, 4.0])
        batch = power_tail(3.0, b, p, start)
        assert batch.value.shape == (16, 6)
        for i in range(16):
            for j, pj in enumerate(p):
                one = power_tail(3.0, float(b[i, 0]), float(pj), float(start[i, 0]))
                assert batch.value[i, j] == one.value
                assert batch.tail[i, j] == one.tail

    def test_infinite_start_is_zero(self):
        got = power_tail(2.0, np.array([[0.5], [3.0]]), 2.5,
                         np.array([[1.0, np.inf], [np.inf, 4.0]]))
        assert got.value[0, 1] == 0.0 and got.value[1, 0] == 0.0
        assert got.tail[0, 1] == 0.0 and got.tail[1, 0] == 0.0
        assert got.value[0, 0] > 0.0 and got.value[1, 1] > 0.0


class TestDomain:
    @pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
    def test_rejects_exponent(self, p):
        with pytest.raises(DomainError):
            power_tail(1.0, 1.0, p, 0)

    def test_rejects_nonpositive_summand(self):
        with pytest.raises(DomainError):
            power_tail(1.0, np.array([1.0, -2.0]), 2.0, 0)
        with pytest.raises(DomainError):
            power_tail(0.0, 1.0, 2.0, 0)

    @pytest.mark.parametrize("z", [1.0, math.nan, math.inf])
    def test_hurwitz_rejects_exponent(self, z):
        with pytest.raises(DomainError):
            hurwitz_sum(z, 1.0)
