"""Tests for the transfer-operator module."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfdyn.cf import (
    ContinuedFraction,
    MobiusMap,
    ONE,
    ZERO,
    cf_from_rational,
    cf_to_rational,
    minkowski_q,
)
from cfdyn.errors import (
    ConvergenceError,
    DomainError,
    PrecisionBudgetError,
    TruncationExhausted,
)
from cfdyn.maps import t_alpha_step
from cfdyn.series import hurwitz_sum, power_tail
from cfdyn import transfer as tr
from cfdyn import verify

GOLDEN = ContinuedFraction((), (1,))
PELL = ContinuedFraction((), (2,))
LOG2 = math.log(2.0)


def level_branches(lv, m):
    """(kind, map) of one level's first m members, y -> (p (y + i) +
    pp)/(q (y + i) + qq), then its boundary branch y -> (pk y + p)/(qk y +
    q) when its digit is finite."""
    rows = [("interior", MobiusMap(lv.p, lv.p * i + lv.pp, lv.q, lv.q * i + lv.qq))
            for i in range(1, m + 1)]
    if lv.digit != math.inf:
        rows.append(("boundary", MobiusMap(lv.pk, lv.p, lv.qk, lv.q)))
    return rows


def walk_branches(alpha, depth=8, inner=40):
    """(kind, depth, map) rows of the shared level table over its first
    `depth` levels with `inner` members per family, each level's interior
    members before its boundary branch: the branch order apply_transfer
    and qmark_pushforward sum in."""
    return [(kind, k, b)
            for k, lv in enumerate(tr._levels(alpha).levels[:depth], start=1)
            for kind, b in level_branches(lv, min(lv.digit - 1, inner))]


def spy_reach(monkeypatch):
    """Patch tr._reach so that each pass over the levels it returns
    appends the number of levels that pass took.  The last entry is then
    the depth at which the latest walk stopped: the summing loop of
    apply_transfer, the only pass of gkw_matrix."""
    passes = []
    reach = tr._reach

    class Levels(list):
        def __iter__(self):
            passes.append(0)
            for lv in super().__iter__():
                passes[-1] += 1
                yield lv

    def spy(levels, s, cap):
        reached, *rest = reach(levels, s, cap)
        return (Levels(reached), *rest)

    monkeypatch.setattr(tr, "_reach", spy)
    return passes


def reference_pushforward(alpha, y):
    """qmark_pushforward in Fractions, one branch map at a time: the
    question-mark masses |?(b(y)) - ?(b(0))| and |?(b(1)) - ?(b(0))|
    through minkowski_q, over 64 levels of 64 members, stopping after
    the first level where less than 1e-15 is left uncovered."""
    def qmark(fr):
        return minkowski_q(cf_from_rational(fr))

    value = covered = Fraction(0)
    for lv in tr._levels(alpha).levels[:64]:
        for _, b in level_branches(lv, min(lv.digit - 1, 64)):
            at0 = qmark(b.apply(0))
            value += abs(qmark(b.apply(y)) - at0)
            covered += abs(qmark(b.apply(1)) - at0)
        if 1 - covered < Fraction(1, 10 ** 15):
            break
    return value, 1 - covered


def periodic_level_sums(period, s, psi, y, depth=200):
    """Level sums of the branch series of the purely periodic parameter
    [0; (period)], from its convergents, each level's terms added by
    math.fsum: level k holds the members [0; a_1..a_{k-1}, i + y] for
    i < a_k and the boundary branch [0; a_1..a_{k-1}, a_k + 1/y]."""
    p, pp, q, qq = 0, 1, 1, 0  # convergents of depths 0 and -1
    sums = []
    for a in itertools.islice(itertools.cycle(period), depth):
        terms = []
        for i in range(1, a):
            den = q * (y + i) + qq
            terms.append(den ** (-2.0 * s) * psi((p * (y + i) + pp) / den))
        pk, qk = a * p + pp, a * q + qq
        den = qk * y + q
        terms.append(den ** (-2.0 * s) * psi((pk * y + p) / den))
        sums.append(math.fsum(terms))
        p, pp, q, qq = pk, p, qk, q
    return sums


def matrix_rows(alpha, depth=8, inner=40):
    return [(kind, depth, (b.a, b.b, b.c, b.d))
            for kind, depth, b in walk_branches(alpha, depth, inner)]


class TestBranches:
    def test_gauss_is_one_infinite_family(self):
        assert matrix_rows(ZERO, inner=5) == [
            ("interior", 1, (0, 1, 1, i)) for i in range(1, 6)]
        lv, = tr._levels(ZERO).levels
        m, lumped = min(lv.digit - 1, 5), lv.digit - 1 > 5
        assert (lv.digit, m, lumped) == (math.inf, 5, True)

    def test_alpha_one_boundary_then_family(self):
        rows = [(kind, mat) for kind, _, mat in matrix_rows(ONE, inner=3)]
        assert rows[0] == ("boundary", (1, 0, 1, 1))
        assert rows[1:] == [("interior", (1, i, 1, i + 1)) for i in (1, 2, 3)]

    def test_golden_is_all_boundaries(self):
        rows = [(kind, mat) for kind, _, mat in matrix_rows(GOLDEN, depth=5)]
        fib = [1, 1, 2, 3, 5, 8]  # F_1..F_6
        want = [("boundary", (fib[k], fib[k - 1] if k else 0, fib[k + 1], fib[k]))
                for k in range(5)]
        assert rows == want

    def test_pell_rows(self):
        assert matrix_rows(PELL, depth=3) == [
            ("interior", 1, (0, 1, 1, 1)), ("boundary", 1, (1, 0, 2, 1)),
            ("interior", 2, (1, 1, 2, 3)), ("boundary", 2, (2, 1, 5, 2)),
            ("interior", 3, (2, 3, 5, 7)), ("boundary", 3, (5, 2, 12, 5)),
        ]

    def test_every_branch_is_a_section_of_the_map(self):
        # applying the forward map to any branch image must return y
        y = Fraction(3, 10)
        for alpha in (ZERO, ONE, GOLDEN, PELL, tr.HALF_MINUS, tr.HALF_PLUS):
            for _, _, b in walk_branches(alpha, depth=4, inner=4):
                x = cf_from_rational(b.apply(y))
                assert cf_to_rational(t_alpha_step(alpha, x)) == y

    def test_rational_parameter_is_one_family_past_its_depth(self):
        # [0;2] = one interior + one boundary at depth 1, then a single
        # infinite interior family at depth 2 and nothing deeper
        branches = walk_branches(tr.HALF_MINUS, inner=25)
        assert sum(kind == "boundary" for kind, _, _ in branches) == 1
        assert max(depth for _, depth, _ in branches) == 2
        assert sum(depth == 2 for _, depth, _ in branches) == 25
        data = tr._levels(tr.HALF_MINUS)
        assert data.levels[-1].digit == math.inf and not data.exhausted
        lumped = [lv.digit - 1 > 25 for lv in data.levels]
        assert lumped == [False, True]

    def test_truncated_parameter_raises_after_yielding(self):
        # the walk covers the three settled levels, one interior and one
        # boundary branch each, and the data reports the missing digits;
        # the operators then raise rather than return a short sum
        stub = ContinuedFraction((2, 2, 2), exact=False)
        assert len(walk_branches(stub)) == 6
        assert tr._levels(stub).exhausted
        with pytest.raises(TruncationExhausted):
            tr.apply_transfer(stub, 1.0, lambda u: 1.0, 0.5)
        with pytest.raises(TruncationExhausted):
            tr.qmark_pushforward(stub, Fraction(1, 2))
        with pytest.raises(TruncationExhausted):
            tr.gkw_matrix(stub, 1.0, 16)

    def test_truncated_parameter_ok_when_weight_stopped(self):
        # 40 settled ones: the last level weighs 1/q^2 ~ 1e-16, below
        # TAIL_TOL, so the missing digits cannot matter; 30 leave ~1e-12
        stub = ContinuedFraction((1,) * 40, exact=False)
        assert tr._levels(stub).exhausted
        got = tr.apply_transfer(stub, 1.0, lambda u: 1.0, 0.5)
        assert math.isfinite(got.value) and math.isfinite(got.tail)
        with pytest.raises(TruncationExhausted):
            tr.apply_transfer(ContinuedFraction((1,) * 30, exact=False),
                              1.0, lambda u: 1.0, 0.5)

    @pytest.mark.parametrize("op", ["gkw_matrix", "apply_transfer"])
    def test_truncation_boundary_is_the_stop_depth(self, op, monkeypatch):
        # K settled ones against the golden parameter, whose walk at s = 1
        # stops at depth D: every K < D raises, and every K >= D, the stop
        # on the last settled level included, gives the golden result bit
        # for bit
        def run(alpha):
            if op == "gkw_matrix":
                return tr.gkw_matrix(alpha, 1.0, 64).tobytes()
            got = tr.apply_transfer(alpha, 1.0, lambda u: 1.0 / (1.0 + u), 0.5)
            return got.value, got.tail

        passes = spy_reach(monkeypatch)
        want = run(GOLDEN)
        stop = passes[-1]
        for K in range(stop - 3, stop + 4):
            stub = ContinuedFraction((1,) * K, exact=False)
            if K < stop:
                with pytest.raises(TruncationExhausted):
                    run(stub)
            else:
                assert run(stub) == want, K

    def test_image_intervals_disjoint_and_tiling(self):
        # branch images of (0,1) must not overlap, and their total length
        # must grow toward 1 as the budget grows
        def covered(alpha, depth, inner):
            ivals = []
            for _, _, b in walk_branches(alpha, depth, inner):
                lo = Fraction(b.b, b.d)
                hi = Fraction(b.a + b.b, b.c + b.d)
                ivals.append((min(lo, hi), max(lo, hi)))
            ivals.sort()
            for (a0, b0), (a1, b1) in zip(ivals, ivals[1:]):
                assert b0 <= a1
            return sum(b - a for a, b in ivals)

        for alpha in (ZERO, ONE, PELL, tr.HALF_PLUS):
            shallow = covered(alpha, 3, 8)
            deep = covered(alpha, 6, 64)
            assert shallow < deep < 1


class TestApply:
    def test_alpha_one_inverse_density(self):
        got = tr.apply_transfer(ONE, 1.0, lambda u: 1.0 / u, 0.3)
        assert abs(got.value - 10.0 / 3.0) <= got.tail + 1e-9

    def test_gauss_density_fixed(self):
        psi = tr.closed_form_density("gauss")
        got = tr.apply_transfer(ZERO, 1.0, psi, 0.5)
        assert abs(got.value - psi(0.5)) <= got.tail + 1e-9

    def test_golden_density_fixed(self):
        psi = tr.closed_form_density("fibonacci")
        got = tr.apply_transfer(GOLDEN, 1.0, psi, 0.42)
        assert abs(got.value - psi(0.42)) <= got.tail + 1e-9

    def test_k_series_two_fixed(self):
        psi = tr.closed_form_density("k_series", K=2)
        got = tr.apply_transfer(PELL, 1.0, psi, 0.5)
        assert abs(got.value - psi(0.5)) <= got.tail + 1e-8

    def test_diverges_below_half(self):
        with pytest.raises(DomainError):
            tr.apply_transfer(ZERO, 0.4, lambda u: 1.0, 0.5)

    def test_rejects_nonpositive_point(self):
        with pytest.raises(DomainError):
            tr.apply_transfer(ZERO, 1.0, lambda u: 1.0, 0.0)

    @pytest.mark.parametrize("alpha", [ZERO, ONE, GOLDEN, tr.HALF_MINUS],
                             ids=["0", "1", "(1)", "1/2"])
    def test_scalar_psi_matches_ones_like(self, alpha):
        # psi is called on arrays of branch images; a constant that comes
        # back as one Python float must broadcast to the same sum
        scalar = tr.apply_transfer(alpha, 1.0, lambda u: 1.0, 0.5)
        array = tr.apply_transfer(alpha, 1.0, np.ones_like, 0.5)
        assert scalar == array

    def test_truncated_parameter_raises(self):
        stub = ContinuedFraction((2, 2), exact=False)
        with pytest.raises(TruncationExhausted):
            tr.apply_transfer(stub, 1.0, lambda u: 1.0, 0.5)

    def test_point_above_one_allowed(self):
        # images stay inside (0,1), so evaluation beyond 1 is meaningful
        got = tr.apply_transfer(tr.HALF_MINUS, 1.0, lambda u: 1.0, 1.7)
        assert got.value > 0

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    def test_linearity(self, a, b):
        f = lambda u: 1.0 / (1.0 + u)
        g = lambda u: u * u
        combo = lambda u: a / (1.0 + u) + b * u * u
        lhs = tr.apply_transfer(ZERO, 1.0, combo, 0.4)
        rhs = (a * tr.apply_transfer(ZERO, 1.0, f, 0.4).value
               + b * tr.apply_transfer(ZERO, 1.0, g, 0.4).value)
        assert lhs.value == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("period", [(1, 2), (2, 1), (1,), (2,), (1, 3),
                                        (1, 1, 2), (3, 1, 1, 1, 40)],
                             ids=lambda p: ",".join(map(str, p)))
    def test_depth_tail_covers_dropped_levels(self, period, monkeypatch):
        # the levels past the one where the sum stopped, summed to depth
        # 200 here, must sit under the reported tail for psi monotone on
        # the parameter's cylinders
        passes = spy_reach(monkeypatch)
        alpha = ContinuedFraction((), period)
        psis = (lambda u: 1.0, lambda u: 1.0 / (u * (1.0 + u)),
                lambda u: u ** -0.5)
        for s in (0.75, 1.0):
            for y in (0.3, 0.9):
                for psi in psis:
                    got = tr.apply_transfer(alpha, s, psi, y)
                    sums = periodic_level_sums(period, s, psi, y)
                    dropped = math.fsum(sums[passes[-1]:])
                    assert dropped <= got.tail, (s, y, dropped, got.tail)

    @pytest.mark.parametrize("s", [0.51, 0.75, 1.0, 1.5, 3.0])
    def test_depth_weight_covers_the_hurwitz_bound(self, s):
        # the integral cap on zeta(2s, 1+y) must lie above the Hurwitz sum
        # plus its own tail, at y = 0 (the grid's cap) and beyond
        phi, p = (1.0 + math.sqrt(5.0)) / 2.0, 2.0 * s
        fib = phi ** p / (1.0 - phi ** -p)
        for y in (0.0, 0.05, 0.5, 1.0, 5.0):
            zeta = hurwitz_sum(p, 1.0 + y)
            assert tr._depth_weight(s, y) >= (1.0 + zeta.value + zeta.tail) * fib, (s, y)

    @pytest.mark.parametrize("alpha", [GOLDEN, PELL, ContinuedFraction((), (1, 2))],
                             ids=["(1)", "(2)", "(1,2)"])
    def test_depth_tail_is_below_the_stop(self, alpha):
        # with no lumped family the whole tail is the depth tail, the
        # scale times the last level's weight: below TAIL_TOL by the stop
        psis = (lambda u: 1.0, lambda u: 1.0 / (u * (1.0 + u)),
                lambda u: 1.0 / (1.0 + u))
        for s in (0.75, 1.0, 1.5):
            for y in (0.05, 0.3, 0.9, 1.7):
                for psi in psis:
                    got = tr.apply_transfer(alpha, s, psi, y)
                    assert 0.0 < got.tail < tr.TAIL_TOL, (s, y, got.tail)

    def test_non_finite_psi_at_an_end_gives_infinite_tail(self):
        # 1/(1-u) blows up at 1, an end of the depth-1 cylinder [1/2, 1] of
        # (1); 1/u at 0, the family limit of parameter 0.  Neither tail can
        # be certified, while every branch image keeps the sums finite
        golden = tr.apply_transfer(GOLDEN, 1.0, lambda u: 1.0 / (1.0 - u), 0.5)
        zero = tr.apply_transfer(ZERO, 1.0, lambda u: 1.0 / u, 0.5)
        for got in (golden, zero):
            assert math.isfinite(got.value) and got.tail == math.inf

    def test_explicit_members_and_family_tail_add_up(self):
        # parameter 0 is one infinite family, member i the image 1/(y+i)
        # with weight (y+i)^-2: the batched sum must agree with one numpy
        # pass over the first INNER_MAX members plus the family tail terms
        psi = tr.closed_form_density("gauss")
        lv, = tr._levels(ZERO).levels
        m = tr.INNER_MAX
        z = 0.5 + np.arange(1, m + 1, dtype=float)
        terms = z ** -2.0 * psi(1.0 / z)
        probes = (psi(0.0), psi(1.0 / (0.5 + m + 1)),
                  psi(1.0 / z[2 * m // 3 - 1]), psi(1.0 / z[m // 2 - 1]))
        sums = power_tail(1.0, 0.5, 2.0 + np.arange(3.0),
                          np.array([[m + 1.0], [math.inf]]))
        correction, bound = tr._family_tail_terms(lv, 0.5, m, probes, sums)
        want = float(np.sum(terms)) + correction
        got = tr.apply_transfer(ZERO, 1.0, psi, 0.5)
        eps = np.finfo(float).eps
        assert got.tail == bound
        assert abs(got.value - want) <= 8 * eps * (float(np.sum(np.abs(terms)))
                                                   + abs(correction))

    @pytest.mark.parametrize("s", [0.75, 1.0, 1.5])
    def test_quadratic_psi_leaves_only_rounding(self, s):
        # psi quadratic in the offset from each family limit sits on both
        # quadratics of the bracket, so the tail term is exact and the sums
        # are Hurwitz sums: at 0, (y+i)^-2s psi(1/(y+i)); at 1, the boundary
        # branch y/(1+y) and the members 1 - 1/(y+1+i)
        a, b, c = 0.7, -1.3, 2.1
        psi = lambda u: a + u * (b + u * c)
        eps = np.finfo(float).eps
        for y in (0.3, 0.9):
            zeta = [hurwitz_sum(2.0 * s + k, 1.0 + y) for k in range(3)]
            zero = a * zeta[0].value + b * zeta[1].value + c * zeta[2].value
            zeta = [hurwitz_sum(2.0 * s + k, 2.0 + y) for k in range(3)]
            one = ((1.0 + y) ** (-2.0 * s) * psi(y / (1.0 + y))
                   + (a + b + c) * zeta[0].value - (b + 2.0 * c) * zeta[1].value
                   + c * zeta[2].value)
            for alpha, want in ((ZERO, zero), (ONE, one)):
                got = tr.apply_transfer(alpha, s, psi, y)
                assert got.tail < 1e-15 * abs(want)
                assert abs(got.value - want) <= got.tail + 16 * eps * abs(want)

    @pytest.mark.parametrize("alpha", [ZERO, ONE, tr.HALF_MINUS,
                                       ContinuedFraction((5000,))],
                             ids=["0", "1", "1/2", "[0;5000]"])
    def test_family_tails_cover_brute_force_sums(self, alpha):
        # against every family summed over 4e6 explicit members plus a
        # first-order remainder, whose error is below 1e-16 here; psi''' keeps
        # one sign on [0, 1] for each psi, as the bracket assumes.  The
        # [0;5000] family at depth 1 is finite and longer than INNER_MAX
        psis = ((lambda u: 1.0 / (1.0 + u), lambda u: -1.0 / (1.0 + u) ** 2),
                (lambda u: (1.0 + u) ** -3, lambda u: -3.0 * (1.0 + u) ** -4),
                (np.exp, np.exp))
        eps = np.finfo(float).eps
        for s in (0.75, 1.0):
            for y in (0.3, 0.9):
                wants = brute_branch_sums(alpha, s, psis, y)
                for (psi, _), want in zip(psis, wants):
                    got = tr.apply_transfer(alpha, s, psi, y)
                    gap = abs(got.value - want)
                    assert gap <= got.tail + 4 * eps * abs(want), (s, y, gap)

    @pytest.mark.parametrize("alpha", [ZERO, ONE, tr.HALF_MINUS, GOLDEN, PELL,
                                       ContinuedFraction((5000,)),
                                       ContinuedFraction((), (1, 2))],
                             ids=["0", "1", "1/2", "(1)", "(2)", "[0;5000]",
                                  "(1,2)"])
    def test_psi_called_at_most_twice(self, alpha):
        # once on the ends of the depth-1 cylinder, once on every image
        calls = []
        density = tr.closed_form_density("gauss")

        def psi(u):
            calls.append(np.shape(u))
            return density(u)

        tr.apply_transfer(alpha, 1.0, psi, 0.4)
        assert len(calls) <= 2

    def test_infinite_scale_stops_on_the_psi_free_weight(self):
        # psi blows up at 1/1000, an end of the depth-1 cylinder of (1000),
        # so the depth tail is infinite; the walk must still stop, before
        # the convergent denominators pass the float range
        got = tr.apply_transfer(ContinuedFraction((), (1000,)), 1.0,
                                lambda u: 1 / (u - 1 / 1000), 0.5)
        assert math.isfinite(got.value) and got.tail == math.inf

    def test_no_warnings_leak(self):
        # psi runs on images past the level where the walk stops, and on
        # points where it is infinite: numpy must not warn about either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for suite in verify.SUITES.values():
                suite()
            tr.apply_transfer(ContinuedFraction((), (1000,)), 1.0,
                              lambda u: 1 / (u - 1 / 1000), 0.5)

    @pytest.mark.parametrize("digit", [2049, 2050, 2051, tr.FINITE_MAX + 2,
                                       tr.FINITE_MAX + 3])
    def test_finite_family_past_inner_max(self, digit):
        # a finite family is summed member by member up to FINITE_MAX + 1
        # members; a longer one drops two or more, so its bracket's ends
        # differ.  psi = 1/u is steep next to the family's far end, where a
        # quadratic bracket is wide; the last level's family is infinite
        alpha = ContinuedFraction((digit,))
        psi, dpsi = (lambda u: 1.0 / u), (lambda u: -1.0 / u ** 2)
        in_full = digit - 1 <= tr.FINITE_MAX + 1
        eps = np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (0.75, 1.0):
                for y in (0.3, 0.9):
                    want, = brute_branch_sums(alpha, s, [(psi, dpsi)], y)
                    got = tr.apply_transfer(alpha, s, psi, y)
                    gap = abs(got.value - want)
                    assert gap <= got.tail + 8 * eps * abs(want), (s, y, gap)
                    assert got.tail < (1e-12 if in_full else 1e-9) * abs(want)

    def test_periodic_digit_past_inner_max(self):
        # every level of (2050) holds a finite family one member longer
        # than INNER_MAX; the levels past depth 6 add less than 1e-25
        psi = lambda u: 1.0 / u
        eps = np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (0.75, 1.0):
                for y in (0.3, 0.9):
                    want = math.fsum(periodic_level_sums((2050,), s, psi, y, 6))
                    got = tr.apply_transfer(ContinuedFraction((), (2050,)), s,
                                            psi, y)
                    assert abs(got.value - want) <= got.tail + 8 * eps * want
                    assert got.tail < 1e-12 * want

    def test_peak_memory_bounded(self):
        # psi runs on one array of at most INNER_MAX members per reached
        # level of an infinite family, plus the boundary branches and probes
        psi = tr.closed_form_density("gauss")
        tr.apply_transfer(ZERO, 1.0, psi, 0.5)  # fill the level cache
        tracemalloc.start()
        try:
            tr.apply_transfer(ZERO, 1.0, psi, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


def brute_branch_sums(alpha, s, psis, y, members=4_000_000, chunk=1 << 18):
    """The branch sum of each (psi, dpsi) pair at the rational parameter
    alpha, walked to its last level: every family's first `members`
    members one by one, and the rest of an infinite family as
    psi(L) S_0 + dpsi(L) (-det/q) S_1, L = p/q and S_k the power sums of
    exponent 2s + k from member `members` + 1 (power_tail)."""
    parts = [[] for _ in psis]
    for lv in tr._levels(alpha).levels:
        count = min(lv.digit - 1, members)
        for lo in range(1, count + 1, chunk):
            z = y + np.arange(lo, min(lo + chunk, count + 1), dtype=float)
            den = lv.q * z + lv.qq
            weights, images = den ** (-2.0 * s), (lv.p * z + lv.pp) / den
            for part, (psi, _) in zip(parts, psis):
                part.append(float(np.sum(weights * psi(images))))
        if lv.digit == math.inf:
            rest = power_tail(lv.q, lv.q * y + lv.qq, 2.0 * s + np.arange(2.0),
                              members + 1)
            step = -(lv.p * lv.qq - lv.pp * lv.q) / lv.q
            for part, (psi, dpsi) in zip(parts, psis):
                part.append(float(psi(lv.p / lv.q) * rest.value[0]
                                  + dpsi(lv.p / lv.q) * step * rest.value[1]))
        else:
            den = lv.qk * y + lv.q
            for part, (psi, _) in zip(parts, psis):
                part.append(den ** (-2.0 * s)
                            * float(psi((lv.pk * y + lv.p) / den)))
    return [math.fsum(part) for part in parts]


def brute_matrix_rows(alpha, s, n, rows, members=4_000_000, chunk=1 << 18):
    """Rows of the grid matrix with each family's first `members` members
    split one by one and the weight of the rest (power_tail) placed at
    the family limit p/q."""
    ys = np.linspace(0.0, 1.0, n + 1)
    out = np.zeros((len(rows), n + 1))

    def put(r, w, x):
        t = np.atleast_1d(x) * n
        idx = np.minimum(t.astype(int), n - 1)
        frac = t - idx
        out[r] += np.bincount(idx, w * (1.0 - frac), minlength=n + 1)
        out[r] += np.bincount(idx + 1, w * frac, minlength=n + 1)

    for r, y in enumerate(ys[rows]):
        for lv in tr._levels(alpha).levels:
            if lv.q ** (-2.0 * s) < 1e-14:
                break
            count = min(lv.digit - 1, members)
            for lo in range(1, count + 1, chunk):
                z = y + np.arange(lo, min(lo + chunk, count + 1), dtype=float)
                den = lv.q * z + lv.qq
                put(r, den ** (-2.0 * s), (lv.p * z + lv.pp) / den)
            if lv.digit == math.inf:
                rest = power_tail(lv.q, lv.q * y + lv.qq, 2.0 * s, members + 1)
                put(r, rest.value, lv.p / lv.q)
            else:
                den = lv.qk * y + lv.q
                put(r, den ** (-2.0 * s), (lv.pk * y + lv.p) / den)
    return out


class TestMatrix:
    def test_rejects_small_grid(self):
        with pytest.raises(DomainError):
            tr.gkw_matrix(ZERO, 1.0, 8)

    @pytest.mark.parametrize("alpha", [
        ZERO, tr.HALF_MINUS, cf_from_rational(Fraction(1, 3)),
        cf_from_rational(Fraction(1, 7)), cf_from_rational(Fraction(1, 1000)),
        GOLDEN,
    ], ids=["0", "1/2", "1/3", "1/7", "1/1000", "(1)"])
    def test_matches_brute_force_rows(self, alpha):
        # every member lands in its own cell: against 4e6 explicit members
        # per family; the remainder, placed at the limit, weighs 2.5e-7
        # and lies within 2.5e-7 of it, which moves an entry by ~1e-12
        n, rows = 16, [0, 5, 8, 16]
        got = tr.gkw_matrix(alpha, 1.0, n)[rows]
        want = brute_matrix_rows(alpha, 1.0, n, rows)
        assert np.max(np.abs(got - want)) < 5e-12

    def test_truncated_parameter_raises(self):
        # the missing digits would carry about 1 % of each row's mass
        stub = ContinuedFraction((3, 1, 2), (), False)
        with pytest.raises(TruncationExhausted):
            tr.gkw_matrix(stub, 1.0, 16)

    @pytest.mark.parametrize("s", [1.0, 1.5])
    @pytest.mark.parametrize("alpha,kind", [(ONE, "alpha1"),
                                            (tr.HALF_MINUS, "half")],
                             ids=["one", "half"])
    def test_row_sums_are_closed_form_images(self, alpha, kind, s):
        # hat weights conserve each branch's weight, so a row sums to the
        # operator applied to 1 at its node
        n = 64
        m = tr.gkw_matrix(alpha, s, n)
        for j in range(1, n + 1):
            want = tr.hurwitz_image(kind, s, j / n)
            assert abs(m[j].sum() - want.value) <= want.tail + 1e-12

    @pytest.mark.parametrize("s", [0.75, 1.0])
    @pytest.mark.parametrize("period", [(1,), (2,), (1, 2), (2, 1)],
                             ids=lambda p: ",".join(map(str, p)))
    def test_row_sums_drop_at_most_tail_tol(self, period, s):
        # hats conserve each branch's weight, so a row sums to every
        # branch weight the matrix keeps; these families are all finite
        n = 32
        m = tr.gkw_matrix(ContinuedFraction((), period), s, n)
        for j in range(n + 1):
            want = math.fsum(periodic_level_sums(period, s, lambda u: 1.0, j / n))
            assert abs(want - m[j].sum()) <= tr.TAIL_TOL, j

    def test_gauss_row_sums_are_shifted_power_sums(self):
        n = 32
        m = tr.gkw_matrix(ZERO, 1.0, n)
        ys = np.linspace(0.0, 1.0, n + 1)
        for j in (0, 7, 16, 32):
            want = hurwitz_sum(2.0, 1.0 + ys[j]).value
            assert m[j].sum() == pytest.approx(want, abs=1e-9)

    def test_matrix_agrees_with_pointwise_apply(self):
        n = 64
        m = tr.gkw_matrix(ONE, 1.0, n)
        nodes = np.linspace(0.0, 1.0, n + 1)
        v = np.zeros(n + 1)
        v[1:] = 1.0 / nodes[1:]
        got = m @ v
        # interior nodes away from the 1/y blowup; hat interpolation of
        # 1/y is only first-order accurate so the tolerance is loose
        for j in range(int(0.2 * n), int(0.9 * n) + 1):
            want = tr.apply_transfer(ONE, 1.0, lambda u: 1.0 / u, nodes[j])
            assert abs(got[j] - want.value) < 0.02

    def test_eigenvalue_drift_small_between_grids(self):
        lam16, _ = tr.leading_eigen(tr.gkw_matrix(ZERO, 1.0, 16))
        lam256, _ = tr.leading_eigen(tr.gkw_matrix(ZERO, 1.0, 256))
        assert abs(lam16 - lam256) < 1e-3


class TestEigen:
    def test_identity_matrix(self):
        lam, dens = tr.leading_eigen(np.eye(17))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(dens.values, 1.0)

    def test_gauss_leading_pair(self):
        lam, dens = tr.leading_eigen(tr.gkw_matrix(ZERO, 1.0, 64))
        assert abs(lam - 1.0) < 1e-4
        target = 1.0 / ((1.0 + dens.nodes) * LOG2)
        assert np.max(np.abs(dens.values - target)) < 1e-3

    def test_golden_eigenvector_shape(self):
        # invariant function 1/(y(y+1)) is non-integrable at 0; compare
        # shapes on [0.2, 1] after matching the midpoint value
        lam, dens = tr.leading_eigen(tr.gkw_matrix(GOLDEN, 1.0, 128))
        ys = dens.nodes[26:]
        target = 1.0 / (ys * (ys + 1.0))
        scale = dens(0.5) / (1.0 / (0.5 * 1.5))
        assert np.max(np.abs(dens.values[26:] / scale - target) / target) < 0.05

    def test_rejects_negative_entries(self):
        m = np.eye(4)
        m[2, 1] = -0.5
        with pytest.raises(DomainError):
            tr.leading_eigen(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            tr.leading_eigen(np.ones((3, 4)))

    @pytest.mark.parametrize("size", [0, 1])
    def test_rejects_below_two_by_two(self, size):
        with pytest.raises(DomainError):
            tr.leading_eigen(np.full((size, size), 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(4)
        m[1, 3] = bad
        with pytest.raises(DomainError):
            tr.leading_eigen(m)

    def test_non_settling_reports_last_iterate(self):
        # the 2-cycle's uniform start is already its Perron vector
        lam, dens = tr.leading_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == 1.0
        assert list(dens.values) == [1.0, 1.0]
        # reducible: the bracket stays [1, 2] while v tends to (1, 0)
        with pytest.raises(ConvergenceError) as exc:
            tr.leading_eigen(np.diag([2.0, 1.0]))
        assert exc.value.last is not None

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("alpha", [ZERO, tr.HALF_MINUS, GOLDEN, PELL],
                             ids=["0", "1/2", "(1)", "(2)"])
    def test_matches_dense_solver(self, alpha, n):
        m = tr.gkw_matrix(alpha, 1.0, n)
        lam, dens = tr.leading_eigen(m)
        dense = float(np.max(np.linalg.eigvals(m).real))
        assert abs(lam - dense) <= 1e-13 * dense
        ratios = (m @ dens.values) / dens.values
        eps = np.finfo(float).eps
        assert ratios.max() - ratios.min() <= 16 * eps * lam


class TestGridDensity:
    def test_needs_matching_length(self):
        with pytest.raises(DomainError):
            tr.GridDensity(8, np.ones(8))

    def test_interpolates(self):
        d = tr.GridDensity(4, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert d(0.125) == pytest.approx(0.5)

    def test_csv_roundtrip(self):
        d = tr.GridDensity(4, np.linspace(1.0, 2.0, 5))
        text = d.csv_text()
        assert text.endswith("\r\n")
        rows = text.split("\r\n")[:-1]
        assert rows[0] == "y,value"
        assert len(rows) == 6
        assert [float(r.split(",")[1]) for r in rows[1:]] == list(d.values)


class TestDensities:
    def test_gauss_at_zero(self):
        g = tr.closed_form_density("gauss")
        assert g(0.0) == pytest.approx(1.0 / LOG2)

    def test_k_series_one_collapses(self):
        k1 = tr.closed_form_density("k_series", K=1)
        for y in np.linspace(0.05, 0.95, 19):
            assert abs(k1(float(y)) - 1.0 / (y * (y + 1.0))) < 2e-13

    def test_k_series_one_at_half(self):
        assert tr.closed_form_density("k_series", K=1)(0.5) == pytest.approx(4.0 / 3.0)

    def test_vectorized(self):
        k2 = tr.closed_form_density("k_series", K=2)
        arr = k2(np.array([0.25, 0.5]))
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(k2(0.25))

    def test_rejects_bad_kind(self):
        with pytest.raises(DomainError):
            tr.closed_form_density("cauchy")
        with pytest.raises(DomainError):
            tr.closed_form_density("k_series")
        with pytest.raises(DomainError):
            tr.closed_form_density("k_series", K=0)


class TestDensityRows:
    def test_golden_row_names_its_largest_gap(self):
        # the row reports the point closest to its bound, which with a
        # bound scaled by the values is not where the largest gap is
        psi = tr.closed_form_density("fibonacci")
        gaps = [(abs(tr.apply_transfer(GOLDEN, 1.0, psi, y).value - psi(y)), y)
                for y in np.linspace(0.05, 0.95, 20).tolist()]
        gap, y = max(gaps, key=lambda row: row[0])
        row, = [r for r in verify.suite_densities() if r.name == "density-golden"]
        assert f"largest gap {gap:.3g} at y={y:.2f}" in row.detail


class TestResiduals:
    def test_master_constant_golden_value(self):
        assert tr.residual_master(lambda u: 1, 1, 1, 1) == Fraction(-1, 2)

    def test_fib_threeterm_constant_golden_value(self):
        assert tr.residual_fib_threeterm(lambda u: 1, 1, 1, 1) == Fraction(-1, 4)

    def test_k_minus_constant_golden_value(self):
        assert tr.residual_k_minus(lambda u: 1, 1, 2, 1) == Fraction(1, 4)

    def test_k_minus_needs_k_at_least_two(self):
        with pytest.raises(DomainError):
            tr.residual_k_minus(lambda u: 1, 1, 1, 1)

    def test_master_exact_zero_on_inverse(self):
        f = lambda u: 1 / u
        for y in (Fraction(3, 7), Fraction(1, 2), Fraction(8, 5)):
            assert tr.residual_master(f, 1, 1, y) == 0

    def test_kernel_exact_zero_on_inverse(self):
        f = lambda u: 1 / u
        for y in (Fraction(3, 7), Fraction(2, 9)):
            assert tr.residual_kernel_eta(f, 1, y) == 0

    def test_lewis_zero_on_inverse(self):
        assert tr.residual_lewis(lambda u: 1 / u, 1, Fraction(2, 5)) == 0

    def test_master_vanishes_on_densities(self):
        for which, kw in (("gauss", {}), ("alpha_one", {}), ("fibonacci", {}),
                          ("k_series", dict(K=2)), ("k_series", dict(K=3))):
            psi = tr.closed_form_density(which, **kw)
            worst = max(abs(tr.residual_master(psi, 1, 1.0, y))
                        for y in (0.2, 0.4, 0.6, 0.8))
            assert worst < 1e-12

    def test_master_vanishes_on_periodic_odd(self):
        f = lambda u: math.sin(2.0 * math.pi * u)
        worst = max(abs(tr.residual_master(f, 1, 1.0, Fraction(k, 16)))
                    for k in range(3, 13))
        assert worst < 1e-12

    def test_b_vanishes_on_gauss(self):
        psi = tr.closed_form_density("gauss")
        assert max(abs(tr.residual_b(psi, 1, 1.0, y))
                   for y in (0.2, 0.5, 0.8)) < 1e-14

    def test_integer_point_promoted_to_exact(self):
        # int y must not trip float power semantics
        assert tr.residual_kernel_eta(lambda u: 1 / u, 1, 2) == 0


class TestEquivalences:
    def test_alpha_one_to_gauss_on_inverse(self):
        lhs, rhs = tr.transfer_equivalences("alpha1-to-gauss",
                                            lambda u: 1.0 / u, 1.0, 0.5)
        assert abs(lhs.value - 2.0) <= lhs.tail + 1e-9
        assert abs(lhs.value - rhs.value) <= lhs.tail + rhs.tail + 1e-9

    def test_half_plus_to_minus_quadratic(self):
        psi = lambda u: u * u
        lhs, rhs = tr.transfer_equivalences("half-plus-to-minus", psi, 1.0, 0.37)
        assert abs(lhs.value - rhs.value) <= lhs.tail + rhs.tail + 1e-9

    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                                        (0.5, -1.0, 2.0, 0.25)])
    def test_polynomials(self, coeffs):
        c0, c1, c2, c3 = coeffs
        psi = lambda u: c0 + u * (c1 + u * (c2 + u * c3))
        for kind in ("alpha1-to-gauss", "half-plus-to-minus"):
            lhs, rhs = tr.transfer_equivalences(kind, psi, 1.0, 0.61)
            assert abs(lhs.value - rhs.value) <= lhs.tail + rhs.tail + 1e-9

    def test_tails_far_below_a_wrong_conjugation(self):
        psi = tr.closed_form_density("gauss")
        lhs, rhs = tr.transfer_equivalences("alpha1-to-gauss", psi, 1.0, 0.3)
        assert lhs.tail + rhs.tail < 1e-10

    def test_underscore_alias(self):
        a = tr.transfer_equivalences("alpha1_to_gauss", lambda u: 1.0, 1.0, 0.5)
        b = tr.transfer_equivalences("alpha1-to-gauss", lambda u: 1.0, 1.0, 0.5)
        assert a[0].value == b[0].value

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            tr.transfer_equivalences("gauss-to-farey", lambda u: 1.0, 1.0, 0.5)


class TestHurwitzImage:
    def test_matches_branch_sum_alpha_one(self):
        for s in (1.0, 1.5):
            img = tr.hurwitz_image("alpha1", s, 0.37)
            branch = tr.apply_transfer(ONE, s, np.ones_like, 0.37)
            assert abs(img.value - branch.value) <= 1e-9

    def test_matches_branch_sum_half(self):
        for s in (1.0, 1.5):
            img = tr.hurwitz_image("half", s, 0.37)
            branch = tr.apply_transfer(tr.HALF_MINUS, s, np.ones_like, 0.37)
            assert abs(img.value - branch.value) <= 1e-9

    def test_rejects_divergent_exponent(self):
        with pytest.raises(DomainError):
            tr.hurwitz_image("alpha1", 0.5, 0.3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            tr.hurwitz_image("golden", 1.0, 0.3)


class TestQmarkPushforward:
    @pytest.mark.parametrize("alpha", [ZERO, GOLDEN, tr.HALF_MINUS])
    def test_law_is_question_mark(self, alpha):
        for y in (Fraction(1, 2), Fraction(3, 8), Fraction(1)):
            got = tr.qmark_pushforward(alpha, y)
            want = minkowski_q(cf_from_rational(y))
            assert abs(got.value - want) <= got.tail

    def test_total_mass_exact_at_one(self):
        got = tr.qmark_pushforward(ZERO, Fraction(1))
        assert got.value + got.tail == 1

    def test_results_are_exact_rationals(self):
        got = tr.qmark_pushforward(tr.HALF_MINUS, Fraction(2, 7))
        assert isinstance(got.value, Fraction)
        assert isinstance(got.tail, Fraction)

    def test_rejects_point_outside_unit_interval(self):
        with pytest.raises(DomainError):
            tr.qmark_pushforward(ZERO, Fraction(3, 2))

    @pytest.mark.parametrize("alpha", [ZERO, GOLDEN, tr.HALF_MINUS])
    def test_point_past_the_budget_raises(self, alpha):
        # the float 0.3 expands to [0;3,2,1,900719925474098,2], and every
        # branch image of it keeps that digit
        with pytest.raises(PrecisionBudgetError):
            tr.qmark_pushforward(alpha, 0.3)

    @settings(max_examples=30, deadline=None)
    @given(st.fractions(0, 1, max_denominator=60),
           st.sampled_from([ZERO, GOLDEN, ONE, PELL, tr.HALF_MINUS, tr.HALF_PLUS,
                            ContinuedFraction((3, 2)), ContinuedFraction((), (1, 2))]))
    def test_matches_branch_by_branch_fractions(self, y, alpha):
        got = tr.qmark_pushforward(alpha, y)
        assert (got.value, got.tail) == reference_pushforward(alpha, y)

    def test_suite_points_span_the_unit_interval(self):
        # evenly spaced through the 323 rationals with denominator <= 32,
        # not the 200 smallest of them
        pts = verify._sorted_rationals(200)
        assert len(pts) == 200
        assert all(a < b for a, b in zip(pts, pts[1:]))
        assert pts[0] < 0.05 and pts[-1] > 0.95
