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
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .cf import (
    INF,
    ContinuedFraction,
    ONE,
    ZERO,
    _convergent_rows,
    _digit_sum_budget,
    _euclid_quotients,
    _qmark_numerator,
)
from .errors import ConvergenceError, DomainError, TruncationExhausted
from .series import SeriesValue, _fib_bound, hurwitz_sum, power_tail

LOG2 = math.log(2.0)

HALF_MINUS = ContinuedFraction((2,))
HALF_PLUS = ContinuedFraction((1, 1))

# summation budgets: comparison depths walked; members summed one by one
# in pointwise sums, INNER_MAX of an infinite family and a finite one in
# full up to FINITE_MAX + 1 members, else its first FINITE_MAX (gkw_matrix
# sums every member; the rest of a family is bracketed by quadratics,
# certified for psi''' of one sign); and the stop of every depth walk
# (_reach): the bound q_K^(-2s) _depth_weight(s, y) on all branches
# past level K, times sup|psi| for psi monotone, below TAIL_TOL
DEPTH_MAX = 200
INNER_MAX = 2048
FINITE_MAX = 200_000
TAIL_TOL = 1e-14


# ---------------------------------------------------------------------------
# the inverse-branch walk


@dataclass(frozen=True)
class _Level:
    """Convergent data of the parameter at one comparison depth, the
    level's index in _LevelData.levels plus one.

    p/q rows follow the usual recurrence; ``digit`` is the parameter's
    digit at this depth, infinite when its expansion has ended."""

    digit: float
    p: int    # numerator convergent, depth-1
    pp: int   # numerator convergent, depth-2
    q: int
    qq: int
    pk: Optional[int]  # depth-k convergents; None past a finite expansion
    qk: Optional[int]


@dataclass(frozen=True, eq=False)
class _LevelData:
    levels: tuple
    exhausted: bool   # truncated parameter ran out of digits
    table: np.ndarray  # p, pp, q, qq, pk, qk of each level as floats


def _float(n) -> float:
    """n as a float: infinite past the float range, nan for None."""
    try:
        return math.nan if n is None else float(n)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=256)
def _levels(alpha: ContinuedFraction) -> _LevelData:
    # level k needs the rows of depths k-1 and k; depth 0 is (0, 1; 1, 0)
    rows = [(0, 1, 1, 0), *_convergent_rows(alpha.digits(), DEPTH_MAX)]
    levels = [_Level((qk - qq) // q, p, pp, q, qq, pk, qk)
              for (p, pp, q, qq), (pk, _, qk, _) in itertools.pairwise(rows)]
    ended = len(levels) < DEPTH_MAX
    complete = ended and alpha.is_rational
    if complete:
        levels.append(_Level(INF, *rows[-1], None, None))
    table = np.array([[_float(n) for n in (lv.p, lv.pp, lv.q, lv.qq, lv.pk, lv.qk)]
                      for lv in levels]).reshape(-1, 6)
    return _LevelData(tuple(levels), ended and not complete, table)


def _reach(data: _LevelData, s: float, cap: float) -> list:
    """The levels of the walk's reach: through a rational's last level, or
    through the first level K whose weight q_K^(-2s) times cap is below
    TAIL_TOL, the one depth stop of every walk.  A truncated parameter
    whose settled levels run out before that stop raises
    TruncationExhausted.  A level's branches are its family members
    1..digit-1, then its boundary branch when the digit is finite."""
    reached = []
    for lv in data.levels:
        reached.append(lv)
        if lv.digit == INF or lv.qk ** (-2.0 * s) * cap < TAIL_TOL:
            return reached
    if data.exhausted:
        raise TruncationExhausted(
            "parameter expansion has too few settled digits for this tolerance")
    return reached


def _depth_weight(s: float, y: float) -> float:
    """(1 + a^(-2s) + a^(1-2s)/(2s-1)) Phi(2s), a = 1 + y, times q_K^(-2s)
    the most all branches past level K weigh: level k's member i weighs
    <= q_{k-1}^(-2s) (y+i)^(-2s), its boundary <= q_{k-1}^(-2s), and
    q_{K+j-1} >= F_j q_K.  a^(-2s) + a^(1-2s)/(2s-1) >= zeta(2s, a), as
    the terms past the first lie under the integral of t^(-2s) from a."""
    a, p = 1.0 + y, 2.0 * s
    return (1.0 + (a ** -p + a ** (1.0 - p) / (p - 1.0))) * _fib_bound(p)


def _sup_at_ends(psi: Callable, a: float, b: float) -> float:
    """max(|psi(a)|, |psi(b)|) from one call of psi, or infinity unless
    both are finite."""
    with np.errstate(all="ignore"):
        ends = np.abs(np.asarray(psi(np.array([a, b])), dtype=float))
    return float(ends.max()) if np.all(np.isfinite(ends)) else math.inf


# ---------------------------------------------------------------------------
# pointwise application


def _family_tail_terms(lv: _Level, y: float, m: int, f, sums) -> tuple:
    """(correction, bound) for the family members beyond index m.

    Member i weighs u^(-2s) and has the image p/q - det/(q u), u = q(y+i)
    + qq and det = p qq - pp q, so along the family psi is a function F of
    x = 1/u.  The dropped members fill [x0, x1], x1 = 1/u_{m+1}, where x0
    is 0 (the limit p/q) for an infinite family and the last member's x
    for a finite one.  f holds psi at x0, at x1 and at the images of
    members 2m/3 and m/2, x2 ~ 3 x1 / 2 and x3 ~ 2 x1.  A quadratic
    through three nodes misses F by F'''(xi)/6 times the product of x
    minus each node, so for F''' of one sign on [x0, x3] the quadratics P
    through (x0, x1, x2) and Q through (x1, x2, x3) bracket F on [x0, x1].
    Both sum in closed form, as sum_i u_i^(-2s) x_i^k is the power sum S_k
    of exponent 2s + k; ``sums`` is the power_tail pair over k = 0, 1, 2
    from member m+1 and from the family's end.  The correction sums P, the
    interpolant.  The bound is the bracket's width, Q - P = kappa (x - x1)
    (x - x2) summed, plus the power sums' own tails times the coefficients
    of P and of Q - P.

    The assumption is psi''' of one sign from the family's far end to
    member m/2's image; a quadratic psi there leaves only rounding and the
    power sums' tails.  A non-finite psi at any of the four points gives
    no correction and an infinite bound."""
    if not all(map(math.isfinite, f)):
        return 0.0, math.inf
    (head, cut), tails = sums
    weight, werr = np.maximum(head - cut, 0.0), np.sum(tails, axis=0)
    x0, x1, x2, x3 = (1.0 / (lv.q * (y + i) + lv.qq)
                      for i in (lv.digit - 1, m + 1, 2 * m // 3, m // 2))
    f0, f1, f2, f3 = f
    d01, d12 = (f1 - f0) / (x1 - x0), (f2 - f1) / (x2 - x1)
    lower = (d12 - d01) / (x2 - x0)  # F[x0, x1, x2], P's leading coefficient
    kappa = ((f3 - f2) / (x3 - x2) - d12) / (x3 - x1) - lower
    coeffs = np.array([f0 - d01 * x0 + lower * x0 * x1,
                       d01 - lower * (x0 + x1), lower])
    spread = abs(kappa) * np.array([x1 * x2, -(x1 + x2), 1.0])
    width = max(float(spread @ weight), 0.0)
    return (float(coeffs @ weight),
            width + float((np.abs(coeffs) + np.abs(spread)) @ werr))


def _explicit(count) -> int:
    """Members summed one by one of a family of ``count``: INNER_MAX of an
    infinite family, a finite one in full up to FINITE_MAX + 1 members and
    else its first FINITE_MAX, so a finite family is lumped only when it
    drops two members or more and its dropped segment has two ends."""
    if count == INF:
        return INNER_MAX
    return count if count <= FINITE_MAX + 1 else FINITE_MAX


def _images(levels, table, counts: list, offsets: list, y: float) -> tuple:
    """(images, den, den0, families) for one call of psi: the images of
    each level's first ``counts`` members, whose denominators are den, of
    the boundary branches of the finite levels (den0), then per family
    not summed in full its far end and member m+1; a float past an
    infinite family's end is its limit p/q.  table holds the levels'
    convergents as floats; families holds (level, m, offset of its first
    member)."""
    p, pp, q, qq = table[:len(levels), :4].T
    z = y + (np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts) + 1.0)
    den = np.repeat(q, counts) * z + np.repeat(qq, counts)
    ends = table[:len(levels) - (levels[-1].digit == INF)]
    den0 = ends[:, 5] * y + ends[:, 2]
    families = [(lv, m, at) for lv, m, at in zip(levels, counts, offsets)
                if lv.digit - 1 > m]
    probes = [(lv.p * t + lv.pp) / (lv.q * t + lv.qq) if t < INF else lv.p / lv.q
              for lv, m, _ in families for t in (y + lv.digit - 1, y + m + 1)]
    images = np.concatenate(((np.repeat(p, counts) * z + np.repeat(pp, counts)) / den,
                             (ends[:, 4] * y + ends[:, 0]) / den0, probes))
    return images, den, den0, families


def _family_tails(families, s: float, y: float, probes, members):
    """Each lumped family's (correction, bound), in level order, from one
    power_tail call over its power sums of exponents 2s, 2s+1 and 2s+2
    from member m+1 and from its end.  The call waits for the first
    next(), so a sum that lumps no family makes none."""
    sums = power_tail(*np.array(
        [(lv.q, lv.q * y + lv.qq, 2.0 * s + k, start) for lv, m, _ in families
         for start in (m + 1.0, lv.digit) for k in range(3)]).T)
    for (lv, m, at), ends, *pair in zip(families, probes.reshape(-1, 2),
                                        sums.value.reshape(-1, 2, 3),
                                        sums.tail.reshape(-1, 2, 3)):
        f = (*ends, members[at + 2 * m // 3 - 1], members[at + m // 2 - 1])
        yield _family_tail_terms(lv, y, m, f, pair)


def apply_transfer(alpha: ContinuedFraction, s: float, psi: Callable,
                   y: float) -> SeriesValue:
    """Weighted branch sum  sum_b |b'(y)|^s psi(b(y))  with a truncation
    tail, certified for psi monotone on the parameter's depth-1 cylinder
    and psi''' of one sign near each family limit (_family_tail_terms).

    psi is called once on the two ends of the depth-1 cylinder, then once
    on one float array that holds the image of every branch summed, so it
    must be numpy-elementwise; a constant may come back as a scalar.  Both
    calls run with numpy's floating-point warnings off, as psi may be
    infinite at a cylinder end or a family limit.

    An infinite family's first INNER_MAX members are summed one by one,
    and all of a finite family, or its first FINITE_MAX when it has more
    than FINITE_MAX + 1 (_explicit); _family_tail_terms takes the rest.
    Every level _reach takes is summed, with the scale _depth_weight(s, y)
    times the larger |psi| at the ends of the depth-1 cylinder (which
    holds every deeper image) as its cap; the depth tail is that scale
    times q_K^(-2s) of the last level K, below TAIL_TOL by the stop.  An
    infinite |psi| there leaves the tail infinite, and the walk stops on
    the psi-free weight instead.  A truncated parameter whose settled
    levels run out before the stop raises TruncationExhausted.

    y is normally in (0,1) but any positive y is accepted: every branch
    image stays inside (0,1), which is what lets grid eigenfunctions be
    extended past 1 through this very sum."""
    if not 0.5 < s < math.inf:
        raise DomainError("branch series needs a finite s > 1/2")
    if not y > 0:
        raise DomainError("evaluation point must be positive")
    data = _levels(alpha)
    first = data.levels[0]
    sup = 0.0 if first.digit == INF else _sup_at_ends(
        psi, first.pk / first.qk, (first.pk + first.p) / (first.qk + first.q))
    weight = _depth_weight(s, y)
    scale = weight * sup
    levels = _reach(data, s, scale if scale < math.inf else weight)
    counts = [_explicit(lv.digit - 1) for lv in levels]
    offsets = list(itertools.accumulate(counts, initial=0))
    images, den, den0, families = _images(levels, data.table, counts, offsets, y)
    with np.errstate(all="ignore"):
        values = np.broadcast_to(np.asarray(psi(images), dtype=float), images.shape)
    members, bounds, probes = np.split(values,
                                       offsets[-1] + np.array([0, len(den0)]))
    terms = den ** (-2.0 * s) * members
    boundary = [d ** (-2.0 * s) * v for d, v in zip(den0.tolist(), bounds.tolist())]
    family_terms = _family_tails(families, s, y, probes, members)

    total = tail = 0.0
    for k, (lv, m) in enumerate(zip(levels, counts)):
        level_sum = float(np.sum(terms[offsets[k]:offsets[k + 1]])) if m else 0.0
        if m < lv.digit - 1:
            correction, bound = next(family_terms)
            level_sum += correction
            tail += bound
        if lv.digit == INF:  # a rational's last level: nothing lies deeper
            return SeriesValue(total + level_sum, tail)
        total += level_sum + boundary[k]
    return SeriesValue(total, tail + scale * levels[-1].qk ** (-2.0 * s))


# ---------------------------------------------------------------------------
# grid discretization


_HEAD = 256  # family members split one by one; later ones go cell by cell


def gkw_matrix(alpha: ContinuedFraction, s: float, n: int) -> np.ndarray:
    """Collocation matrix of the operator on piecewise-linear hats over
    the uniform grid j/n: row j expresses (L psi)(y_j), with each branch
    image's weight split linearly between its two neighbouring nodes.
    A family's first _HEAD members are split one by one; the rest, to its
    end or to infinity, are grouped by the cell their images fall in.  The
    walk is _reach's with the _depth_weight at y = 0 as cap, which bounds
    what every row drops as hats are <= 1."""
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

    for lv in _reach(data, s, deeper):
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


def _qmark_dyadic(num: int, den: int) -> tuple[int, int]:
    """?(num/den) as (N, E) with ?(num/den) = N / 2**E, 0 <= num <= den:
    Euclid's quotients are the expansion, whatever gcd(num, den) is.  E
    past QMARK_BITS raises PrecisionBudgetError."""
    digits = _euclid_quotients(den, num)
    bits = _digit_sum_budget(sum(digits))
    return _qmark_numerator(digits)[0] << 1, bits


def qmark_pushforward(alpha: ContinuedFraction, y) -> SeriesValue:
    """Distribution function of the branch-image law at y, accumulated as
    exact question-mark masses of branch image intervals.

    Returns exact Fractions: the partial sum and the mass of the branches
    not enumerated (the two add up to the exact law when y = 1).

    With y = yn/yd, member i of the level (p, pp; q, qq) sends y to (p u
    + pp yd)/(q u + qq yd), u = yn + i yd, over [e_i, e_(i+1)], e_i = (p i
    + pp)/(q i + qq), each endpoint taken once; the boundary branch sends
    y to (pk yn + p yd)/(qk yn + q yd) over [p/q, (pk + p)/(qk + q)].  A
    map of determinant +-1 (checked per level) moves ? in the direction
    of its sign, so the masses are signed sums of dyadic ? values, kept
    as integer numerators over one power of two."""
    yq = Fraction(y)
    if not 0 <= yq <= 1:
        raise DomainError("y must lie in [0, 1]")
    yn, yd = yq.numerator, yq.denominator
    data = _levels(alpha)
    value = covered = top = 0
    # exactness budget: 64 levels and 64 members per family
    for lv in data.levels[:64]:
        cap = min(lv.digit - 1, 64)  # inf - 1 stays inf
        p, pp, q, qq, pk, qk = lv.p, lv.pp, lv.q, lv.qq, lv.pk, lv.qk
        # a rational's last level has no boundary branch
        det, bdet = p * qq - pp * q, (1 if pk is None else pk * q - p * qk)
        if abs(det) != 1 or abs(bdet) != 1:
            raise DomainError(f"Mobius maps need determinant +-1, got {det}, {bdet}")
        # (sign, endpoint pairs, image pairs) of the family and the boundary
        groups = [(det, [(p * i + pp, q * i + qq) for i in range(1, cap + 2)],
                   [(p * u + pp * yd, q * u + qq * yd)
                    for u in range(yn + yd, yn + (cap + 1) * yd, yd)])] if cap else []
        if lv.digit != INF:
            groups.append((bdet, [(p, q), (pk + p, qk + q)],
                           [(pk * yn + p * yd, qk * yn + q * yd)]))
        for sign, ends, images in groups:
            ends = [_qmark_dyadic(*pair) for pair in ends]
            images = [_qmark_dyadic(*pair) for pair in images]
            level = max(e for _, e in ends + images)
            if level > top:
                value, covered = value << level - top, covered << level - top
                top = level
            ends = [n << top - e for n, e in ends]
            value += sign * (sum(n << top - e for n, e in images) - sum(ends[:-1]))
            covered += sign * (ends[-1] - ends[0])
        if ((1 << top) - covered) * 10 ** 15 < 1 << top:
            break
    else:
        if data.exhausted and ((1 << top) - covered) / (1 << top) > TAIL_TOL:
            raise TruncationExhausted(
                "parameter expansion has too few settled digits to cover the law")
    return SeriesValue(Fraction(value, 1 << top),
                       Fraction((1 << top) - covered, 1 << top))
