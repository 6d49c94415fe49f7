"""Transfer operators attached to the map family.

Every parameter alpha induces a weighted sum over the inverse branches of
its map; this module walks those branches level by level (exact integer
Mobius data), applies the operator pointwise with a certified truncation
tail, discretizes it on a uniform grid for eigenpair extraction, and
carries the closed-form invariant densities plus residual checkers for
the functional equations those densities satisfy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from .cf import (
    INF,
    ContinuedFraction,
    MobiusMap,
    ONE,
    ZERO,
    _convergent_rows,
    cf_from_rational,
    minkowski_q,
)
from .errors import ConvergenceError, DomainError, TruncationExhausted
from .series import SeriesValue, _fib_bound, hurwitz_sum, power_tail

LOG2 = math.log(2.0)

HALF_MINUS = ContinuedFraction((2,))
HALF_PLUS = ContinuedFraction((1, 1))

# summation budgets: comparison depths walked, members per family summed
# one by one (pointwise sums; gkw_matrix sums every member), and the stop
# of every depth walk: the bound q_K^(-2s) (1 + zeta(2s, 1+y)) Phi(2s) on
# all branches past level K, times sup|psi| for psi monotone, below TAIL_TOL
DEPTH_MAX = 200
INNER_MAX = 200_000
TAIL_TOL = 1e-14


# ---------------------------------------------------------------------------
# the inverse-branch walk


@dataclass(frozen=True)
class _Level:
    """Convergent data of the parameter at one comparison depth.

    p/q rows follow the usual recurrence; ``digit`` is the parameter's
    digit at this depth, infinite when its expansion has ended."""

    depth: int
    digit: float
    p: int    # numerator convergent, depth-1
    pp: int   # numerator convergent, depth-2
    q: int
    qq: int
    pk: Optional[int]  # depth-k convergents; None past a finite expansion
    qk: Optional[int]

    def interior_map(self, i: int) -> MobiusMap:
        return MobiusMap(self.p, self.p * i + self.pp, self.q, self.q * i + self.qq)

    def boundary_map(self) -> MobiusMap:
        return MobiusMap(self.pk, self.p, self.qk, self.q)


@dataclass(frozen=True)
class _LevelData:
    levels: tuple
    exhausted: bool   # truncated parameter ran out of digits


@functools.lru_cache(maxsize=256)
def _levels(alpha: ContinuedFraction) -> _LevelData:
    rows = _convergent_rows(alpha.digits(), DEPTH_MAX)
    # level k needs the rows of depths k-1 and k; depth 0 is (0, 1; 1, 0)
    before = [(0, 1, 1, 0)] + rows
    levels = [_Level(k, (qk - qq) // q, p, pp, q, qq, pk, qk)
              for k, ((pk, _, qk, _), (p, pp, q, qq))
              in enumerate(zip(rows, before), start=1)]
    ended = len(rows) < DEPTH_MAX
    complete = ended and alpha.is_rational
    if complete:
        levels.append(_Level(len(rows) + 1, INF, *before[-1], None, None))
    return _LevelData(tuple(levels), ended and not complete)


def _walk(levels, inner_max: int) -> Iterator[tuple]:
    """(level, m, lumped) in depth order.  A level's branches are its
    interior family members 1..m, summed one by one, then its boundary
    branch when the digit is finite; ``lumped`` says the family goes on
    past m.  Callers break out of the walk by their own stop rules."""
    for lv in levels:
        count = lv.digit - 1  # inf stays inf
        m = min(count, inner_max)
        yield lv, m, count > m


def _require_settled(data: _LevelData) -> None:
    """Raise for a truncated parameter: its walk ran out of levels."""
    if data.exhausted:
        raise TruncationExhausted(
            "parameter expansion has too few settled digits for this tolerance")


def _depth_weight(s: float, y: float) -> float:
    """(1 + zeta(2s, 1+y)) Phi(2s), times q_K^(-2s) the most all branches
    past level K weigh: level k's member i weighs <= q_{k-1}^(-2s)
    (y+i)^(-2s), its boundary <= q_{k-1}^(-2s), and q_{K+j-1} >= F_j q_K."""
    zeta = hurwitz_sum(2.0 * s, 1.0 + y)
    return (1.0 + zeta.value + zeta.tail) * _fib_bound(2.0 * s)


def _ends(psi: Callable, a: float, b: float) -> tuple:
    """(psi(a), psi(b)), or two infinities unless both are finite."""
    try:
        ends = float(psi(a)), float(psi(b))
    except ZeroDivisionError:
        ends = math.inf, math.inf
    return ends if all(map(math.isfinite, ends)) else (math.inf, math.inf)


# ---------------------------------------------------------------------------
# pointwise application


def _family_tail_terms(psi: Callable, lv: _Level, y: float,
                       m: int, s: float) -> tuple:
    """(correction, bound) for the family members beyond index m.

    Their images run from b_{m+1} to the family limit p/q, so psi(limit)
    times their weight W is added to the sum.  For psi monotone on that
    segment, the bound is W |psi(b_{m+1}) - psi(limit)| plus W's own tail
    times the larger |psi| at the two ends.  A non-finite psi at either
    end gives no correction and an infinite bound."""
    # dropped weight: members m+1.. up to the family's end, if it has one
    (head, cut), tails = power_tail(lv.q, lv.q * y + lv.qq, 2.0 * s,
                                    np.array([m + 1.0, lv.digit]))
    weight, werr = max(head - cut, 0.0), float(np.sum(tails))
    z = y + m + 1
    at_limit, at_first = _ends(psi, lv.p / lv.q,
                               (lv.p * z + lv.pp) / (lv.q * z + lv.qq))
    if at_limit == math.inf:
        return 0.0, math.inf
    return (weight * at_limit, weight * abs(at_first - at_limit)
            + werr * max(abs(at_limit), abs(at_first)))


# family members per numpy pass: each temporary holds 128 KB and stays in
# cache, where one pass over INNER_MAX members makes 1.6 MB temporaries
# whose time grows faster than the member count
_BLOCK = 16_384


def apply_transfer(alpha: ContinuedFraction, s: float, psi: Callable,
                   y: float) -> SeriesValue:
    """Weighted branch sum  sum_b |b'(y)|^s psi(b(y))  with a truncation
    tail, certified for psi monotone where the dropped images lie.

    Each infinite family's first INNER_MAX members are summed one by one,
    in blocks of _BLOCK members added in order; _family_tail_terms takes
    the rest.  The walk stops after the first level K at which the depth
    tail, q_K^(-2s) (1 + zeta(2s, 1+y)) Phi(2s) times the larger |psi| at
    the ends of the parameter's depth-1 cylinder (which holds every deeper
    image), is below TAIL_TOL * max(1, |sum|); a truncated parameter whose
    settled levels run out first raises TruncationExhausted.

    psi is called on float arrays of branch images and on single floats,
    so it must be numpy-elementwise; a constant may come back as a scalar.
    y is normally in (0,1) but any positive y is accepted: every branch
    image stays inside (0,1), which is what lets grid eigenfunctions be
    extended past 1 through this very sum."""
    if not 0.5 < s < math.inf:
        raise DomainError("branch series needs a finite s > 1/2")
    if not y > 0:
        raise DomainError("evaluation point must be positive")
    data = _levels(alpha)
    total = tail = depth_tail = 0.0
    scale = None  # sup|psi| on the depth-1 cylinder times _depth_weight
    for lv, m, lumped in _walk(data.levels, INNER_MAX):
        level_sum = 0.0
        for start in range(1, m + 1, _BLOCK):
            z = y + np.arange(start, min(start + _BLOCK, m + 1), dtype=float)
            den = lv.q * z + lv.qq
            weights = den ** (-2.0 * s)
            values = np.asarray(psi((lv.p * z + lv.pp) / den), dtype=float)
            level_sum += float(np.sum(weights * values))
        if lumped:
            correction, bound = _family_tail_terms(psi, lv, y, m, s)
            level_sum += correction
            tail += bound
        if lv.digit == INF:  # a rational's last level: nothing lies deeper
            return SeriesValue(total + level_sum, tail)
        den0 = lv.qk * y + lv.q
        level_sum += den0 ** (-2.0 * s) * float(psi((lv.pk * y + lv.p) / den0))
        total += level_sum
        if scale is None:
            ends = _ends(psi, lv.pk / lv.qk, (lv.pk + lv.p) / (lv.qk + lv.q))
            scale = max(map(abs, ends)) * _depth_weight(s, y)
        depth_tail = scale * lv.qk ** (-2.0 * s)
        if depth_tail < TAIL_TOL * max(1.0, abs(total)):
            break
    else:
        _require_settled(data)
    return SeriesValue(total, tail + depth_tail)


# ---------------------------------------------------------------------------
# grid discretization


_HEAD = 256  # family members split one by one; later ones go cell by cell


def gkw_matrix(alpha: ContinuedFraction, s: float, n: int) -> np.ndarray:
    """Collocation matrix of the operator on piecewise-linear hats over
    the uniform grid j/n: row j expresses (L psi)(y_j), with each branch
    image's weight split linearly between its two neighbouring nodes.
    A family's first _HEAD members are split one by one; the rest, to its
    end or to infinity, are grouped by the cell their images fall in.  The
    walk stops once q_K^(-2s) _depth_weight(s, 0), which bounds what every
    row drops as hats are <= 1, is below TAIL_TOL."""
    if n < 16:
        raise DomainError("grid size must be >= 16")
    if not 0.5 < s < math.inf:
        raise DomainError("branch series needs a finite s > 1/2")
    data = _levels(alpha)
    deeper = _depth_weight(s, 0.0)
    ys = np.linspace(0.0, 1.0, n + 1)[:, None]
    offsets = np.arange(n + 1)[:, None] * (n + 1)  # flat index of each row
    flat, mass = [], []

    def split(cells, lower, upper) -> None:
        flat.append(np.stack((offsets + cells, offsets + cells + 1), axis=-1).ravel())
        mass.append(np.stack((lower, upper), axis=-1).ravel())

    def scatter(weights, images) -> None:
        t = images * n
        idx = np.minimum(t.astype(int), n - 1)
        frac = t - idx
        split(idx, weights * (1.0 - frac), weights * frac)

    for lv in data.levels:
        count = lv.digit - 1  # inf stays inf
        if count >= 1:
            z = ys + np.arange(1.0, min(count, _HEAD) + 1)
            den = lv.q * z + lv.qq
            scatter(den ** (-2.0 * s), (lv.p * z + lv.pp) / den)
        if count > _HEAD:
            # members i >= a weigh u^(-2s), u = q(y+i)+qq > qH, and their
            # images lie within 1/(qu) of p/q.  Image >= k/n holds for i >=
            # cross (A > 0), i <= cross (A < 0), all or no i (A = 0: p/q = k/n)
            a, lim, gap = _HEAD + 1.0, lv.p / lv.q, 1.0 / (lv.q * lv.q * _HEAD)
            k = np.arange(int(n * (lim - gap)) - 1, int(n * (lim + gap)) + 3)
            A, B = n * lv.p - k * lv.q, n * lv.pp - k * lv.qq
            cross = -B / np.where(A == 0, 1, A) - ys
            lo = np.where(A > 0, np.maximum(a, np.ceil(cross)), a)
            lo[:, (k >= n) | ((A == 0) & (B < 0))] = np.inf
            hi = np.where(A < 0, np.minimum(count, np.floor(cross)), count)
            b, hi = lv.q * ys + lv.qq, np.maximum(hi, lo - 1.0)
            # per cell: weight and weight times image, (p u^(-2s) - det u^(-2s-1))/q
            w, w1 = (np.diff(power_tail(lv.q, b, e, hi + 1.0).value
                             - power_tail(lv.q, b, e, lo).value, axis=1)
                     for e in (2.0 * s, 2.0 * s + 1.0))
            wx = (lv.p * w - (lv.p * lv.qq - lv.pp * lv.q) * w1) / lv.q
            w = np.maximum(w, 0.0)
            lower = np.clip((k[:-1] + 1) * w - n * wx, 0.0, w)
            split(np.clip(k[:-1], 0, n - 1), lower, w - lower)
        if lv.digit != INF:
            den = lv.qk * ys + lv.q
            scatter(den ** (-2.0 * s), (lv.pk * ys + lv.p) / den)
            if lv.qk ** (-2.0 * s) * deeper < TAIL_TOL:
                break
    else:
        _require_settled(data)
    return np.bincount(np.concatenate(flat), np.concatenate(mass),
                       minlength=(n + 1) ** 2).reshape(n + 1, n + 1)


@dataclass(eq=False)
class GridDensity:
    """Piecewise-linear function on the uniform grid over [0, 1]."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n + 1,):
            raise DomainError("need n+1 samples for a size-n grid")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid samples must be finite")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    def __call__(self, y):
        return np.interp(y, self.nodes, self.values)

    def csv_text(self) -> str:
        """CSV of the samples: a "y,value" header, then one CRLF-ended row
        per node with both numbers at full float precision."""
        rows = ["y,value"] + [f"{y:.17g},{v:.17g}"
                              for y, v in zip(self.nodes, self.values)]
        return "\r\n".join(rows) + "\r\n"


_POWER_STEPS = 32  # plain power steps before the first shifted solve
_MAX_STEPS = 64     # steps of either kind before the bracket counts as stuck


def leading_eigen(m: np.ndarray) -> tuple:
    """Perron pair of a non-negative matrix by shifted inverse iteration
    with a Collatz-Wielandt bracket.

    Each step maps the unit-L1 iterate v to w = M v.  The ratios w_i / v_i
    over v's support bracket the Perron root: min <= rho <= max (Collatz
    1942; Wielandt 1950).  The first _POWER_STEPS steps take v <- w / |w|;
    after that, v <- (hi I - M)^-1 v with hi the bracket's top, which makes
    rho the eigenvalue nearest the shift and keeps v non-negative (Noda
    1971).  The loop stops once hi - lo <= 8 eps hi, or, after a shifted
    solve, once hi - lo <= 64 eps hi and that solve did not halve the
    width: the ratios then sit on their rounding floor, which large grids
    hold above 8 ulp.  It returns lambda = sum(w), a point of the bracket,
    with v renormalized to unit trapezoid mass.  A singular shifted
    system, a zero or negative entry of v whose image is positive, or a
    bracket still open after _MAX_STEPS steps raises ConvergenceError
    with last = (hi, v)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("need a square matrix")
    if m.shape[0] < 2:
        raise DomainError("need at least a 2x2 matrix")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    if np.any(m < 0):
        raise DomainError("matrix must be entrywise nonnegative")
    size = m.shape[0]
    v = np.full(size, 1.0 / size)
    shifted = np.empty_like(m)
    eps = np.finfo(float).eps
    width = math.inf
    for step in range(_MAX_STEPS):
        w = m @ v
        lam = float(np.sum(w))  # v has unit L1 mass and everything is >= 0
        support = v > 0
        if np.any(w[~support] > 0):
            raise ConvergenceError("iterate vanishes where its image does not",
                                   last=(math.inf, v))
        ratios = w[support] / v[support]
        lo, hi = float(ratios.min()), float(ratios.max())
        before, width = width, hi - lo
        floored = (step > _POWER_STEPS and width <= 64.0 * eps * hi
                   and 2.0 * width > before)
        if width <= 8.0 * eps * hi or floored:
            n = size - 1
            return lam, GridDensity(n, v / float(np.trapezoid(v, dx=1.0 / n)))
        if step < _POWER_STEPS:
            v = w / lam
            continue
        np.negative(m, out=shifted)
        shifted.flat[::size + 1] += hi
        try:
            u = np.linalg.solve(shifted, v)
            total = float(np.sum(u))  # negative when rounding put hi below rho
        except np.linalg.LinAlgError:
            total = 0.0
        if total == 0.0 or not math.isfinite(total):
            raise ConvergenceError(f"shifted system singular at {hi!r}",
                                   last=(hi, v))
        v = u / total
    raise ConvergenceError(
        f"eigenvalue bracket [{lo!r}, {hi!r}] still open after {_MAX_STEPS} steps",
        last=(hi, v))


# ---------------------------------------------------------------------------
# closed-form invariant densities


def _k_series_fn(K: int) -> Callable:
    def fn(y):
        # by partial fractions each half is a difference of two p = 1 sums
        y = np.asarray(y, dtype=float)
        one = np.ones_like(y)
        sums = power_tail(K * np.stack((y, y, one, one)),
                          np.stack((one, 1.0 + y, K + y, K + 1.0 + y)), 1, 0).value
        return (sums[0] - sums[1]) / y - (sums[2] - sums[3])

    return fn


def closed_form_density(which: str, K: Optional[int] = None) -> Callable:
    """The known invariant densities, as numpy-elementwise functions on
    (0, inf).

    kinds: "gauss" 1/((1+y) log 2); "alpha_one" 1/y; "fibonacci"
    1/(y(y+1)); "k_series" the density of the constant-digit-K parameter,
    sum_{i>=0} 1/((1+Kiy)(1+(Ki+1)y)) - 1/((y+Ki+K)(y+Ki+K+1)) =
    (D((1+y)/(Ky)) - D(1/(Ky)))/(K y^2) - (D((y+K+1)/K) - D((y+K)/K))/K,
    D the digamma function, each difference being two p = 1 power sums
    (K=1 gives the fibonacci one).  Their remainder, about 1e-16, is left
    to the verify rows' rounding allowance."""
    kind = which.strip().lower()
    if kind == "gauss":
        return lambda y: 1.0 / ((1.0 + y) * LOG2)
    if kind == "alpha_one":
        return lambda y: 1.0 / y
    if kind == "fibonacci":
        return lambda y: 1.0 / (y * (y + 1.0))
    if kind == "k_series":
        if K is None or K < 1:
            raise DomainError("k_series needs K >= 1")
        return _k_series_fn(K)
    raise DomainError(f"unknown density kind {which!r}")


# ---------------------------------------------------------------------------
# residual checkers
#
# All checkers evaluate their combination verbatim in the arithmetic of the
# inputs: handing them Fraction points, integer s and an exact psi yields
# exact rational residuals.


def _exactify(y):
    return Fraction(y) if isinstance(y, int) else y


def residual_master(psi, s, lam, y):
    """The master equation shared by eigenfunctions of every member's
    operator; identically zero for 1-periodic odd functions."""
    y = _exactify(y)
    return (psi(y) - psi(1 + y)
            + y ** (-2 * s) * (psi(1 / y) - psi(1 + 1 / y))
            - (1 + y) ** (-2 * s) * (psi(y / (1 + y)) + psi(1 / (1 + y))) / lam)


def residual_lewis(psi, s, y):
    """Three-term period-function equation."""
    y = _exactify(y)
    return psi(y) - psi(1 + y) - (1 + y) ** (-2 * s) * psi(y / (1 + y))


def residual_b(psi, s, lam, y):
    """Companion three-term equation; at lam=1 it is the fixed-point
    equation of the classical operator's analytic eigenfunctions."""
    y = _exactify(y)
    return psi(y) - psi(1 + y) - (1 + y) ** (-2 * s) * psi(1 / (1 + y)) / lam


def residual_fib_threeterm(psi, s, lam, y):
    """Three-term equation tied to the golden-parameter member."""
    y = _exactify(y)
    return (psi(y) - y ** (-2 * s) * psi((y + 1) / y)
            - (y + 1) ** (-2 * s) * psi(y / (y + 1)) / lam)


def residual_k_minus(psi, s, K, y):
    """Five-point identity satisfied by fixed functions of the member at
    parameter 1/K with the short expansion, K >= 2."""
    if K < 2:
        raise DomainError("the identity needs an integer K >= 2")
    y = _exactify(y)
    return psi(y + 1) - (psi(y)
                         - (1 + y) ** (-2 * s) * psi(1 / (1 + y))
                         + (K + y) ** (-2 * s) * psi(1 / (K + y))
                         - (K * y + 1) ** (-2 * s) * psi(y / (K * y + 1)))


def residual_kernel_eta(eta, s, y):
    """Kernel equation with the exact solution eta(y) = 1/y at s = 1."""
    y = _exactify(y)
    return (y ** (-2 * s) * eta(1 / y) - eta(y + 1)
            - y ** (-2 * s) * eta(1 + 1 / y))


# ---------------------------------------------------------------------------
# cross-member identities


def transfer_equivalences(kind: str, psi: Callable, s: float, y: float):
    """Both sides of a member-to-member conjugation identity.

    "alpha1-to-gauss": the parameter-one operator on psi against the
    classical operator on psi(1-.);  "half-plus-to-minus": the two
    expansions of one half against each other, again via psi(1-.).
    Returns (lhs, rhs) as SeriesValue pairs so the caller can compare
    within the two reported tails."""
    flipped = lambda u: psi(1 - u)
    name = kind.strip().lower().replace("_", "-")
    if name == "alpha1-to-gauss":
        left, right = ONE, ZERO
    elif name == "half-plus-to-minus":
        left, right = HALF_PLUS, HALF_MINUS
    else:
        raise DomainError(f"unknown equivalence kind {kind!r}")
    return apply_transfer(left, s, psi, y), apply_transfer(right, s, flipped, y)


def hurwitz_image(kind: str, s: float, y: float) -> SeriesValue:
    """Closed shifted-power-sum form of the operator applied to the
    constant function 1, for the two rational parameters that admit one."""
    if not y > 0:
        raise DomainError("evaluation point must be positive")
    name = kind.strip().lower()
    if name == "alpha1":
        return hurwitz_sum(2.0 * s, 1.0 + y)
    if name == "half":
        h1 = hurwitz_sum(2.0 * s, 2.0 * y + 1.0)
        h2 = hurwitz_sum(2.0 * s, y + 1.0)
        scale = 2.0 ** (-2.0 * s)
        return SeriesValue((1.0 + y) ** (-2.0 * s) + h1.value - scale * h2.value,
                           h1.tail + scale * h2.tail)
    raise DomainError(f"unknown image kind {kind!r}")


# ---------------------------------------------------------------------------
# pushforward of the singular law


def qmark_pushforward(alpha: ContinuedFraction, y) -> SeriesValue:
    """Distribution function of the branch-image law at y, accumulated as
    exact question-mark masses of branch image intervals.

    Returns exact Fractions: the partial sum and the mass of the branches
    not enumerated (the two add up to the exact law when y = 1)."""
    yq = Fraction(y)
    if not 0 <= yq <= 1:
        raise DomainError("y must lie in [0, 1]")
    data = _levels(alpha)

    def qmark_of(fr: Fraction) -> Fraction:
        return minkowski_q(cf_from_rational(fr))

    value = covered = Fraction(0)
    # exactness budget: 64 levels and 64 members per family
    for lv, cap, _ in _walk(data.levels[:64], 64):
        members = [lv.interior_map(i) for i in range(1, cap + 1)]
        if lv.digit != INF:
            members.append(lv.boundary_map())
        for mb in members:
            at0 = qmark_of(Fraction(mb.b, mb.d))
            at1 = qmark_of(Fraction(mb.a + mb.b, mb.c + mb.d))
            aty = qmark_of(mb.apply(yq))
            value += abs(aty - at0)
            covered += abs(at1 - at0)
        if 1 - covered < Fraction(1, 10 ** 15):
            break
    else:
        if data.exhausted and float(1 - covered) > TAIL_TOL:
            raise TruncationExhausted(
                "parameter expansion has too few settled digits to cover the law")
    return SeriesValue(value, 1 - covered)
