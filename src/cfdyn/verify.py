"""Invariant suites behind the `verify` subcommand and the acceptance tests.

Each suite returns a list of CheckResult rows.  A row passes when its
measured residual sits at or below its bound.  Float rows bound it by the
truncation tails their evaluations report plus a rounding allowance of a
few dozen ulp, most adding the suite's ``tol`` too, so a pass at ``tol``
0 certifies agreement, not luck.  k-minus-discretized is bounded by its
grid's refinement distance.  No row is bounded by ``tol`` alone: the
functional equations on closed forms with rational values are checked in
exact arithmetic with bound 0, and the rest carry the rounding allowance
of the terms the equation combines.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

from .cf import (ContinuedFraction, ONE, agrees_on_settled, cf_complement,
                 cf_from_rational, from_binary_string, minkowski_q,
                 to_binary_string)
from .errors import DomainError, TruncationExhausted
from .maps import (FIBONACCI_ALPHA, GAUSS_ALPHA, is_periodic_point, jimm,
                   t_alpha_step)
from .transfer import (HALF_MINUS, apply_transfer, closed_form_density,
                       gkw_matrix, hurwitz_image, leading_eigen,
                       qmark_pushforward, residual_b, residual_fib_threeterm,
                       residual_k_minus, residual_kernel_eta, residual_lewis,
                       residual_master, transfer_equivalences)
from .zeta import fib_functional_eq_residual, fib_zeta, hurwitz_zeta

EPS = float(np.finfo(float).eps)

# sum_{k>=1} 1/F_k (OEIS A079586; irrational by Andre-Jeannin, 1989)
_RECIPROCAL_FIBONACCI = 3.359885666243177553

DENSITY_PAIRS = (
    ("classical", GAUSS_ALPHA, "gauss", None),
    ("parameter-one", ONE, "alpha_one", None),
    ("golden", FIBONACCI_ALPHA, "fibonacci", None),
    ("series-k2", ContinuedFraction((), (2,)), "k_series", 2),
    ("series-k3", ContinuedFraction((), (3,)), "k_series", 3),
)


@dataclass(frozen=True)
class CheckResult:
    """One verified statement: measured residual against its bound."""

    name: str
    measure: float
    bound: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _check(name: str, measure, bound, detail: str = "") -> CheckResult:
    m, b = float(measure), float(bound)
    return CheckResult(name, m, b, m <= b, detail)


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)


def _rounding(*values) -> float:
    """Allowance for float rounding in computing and comparing values."""
    return 64.0 * EPS * sum(abs(v) for v in values)


def _worst(name: str, rows, detail: str) -> CheckResult:
    """Check on the (gap, bound, where) row whose gap most exceeds its
    bound, the first one on ties.  With bounds that scale with the values
    compared, the largest gap can sit in another row, so the detail names
    both."""
    gap, bound, where = max(rows, key=lambda row: float(row[0] - row[1]))
    top, _, at = max(rows, key=lambda row: row[0])
    return _check(name, gap, bound,
                  f"{detail}; tightest at {where}; largest gap "
                  f"{float(top):.3g} at {at}")


# ---------------------------------------------------------------------------
# densities: closed-form fixed functions of the weight-1 operator


_DENSITY_POINTS = 20


def suite_densities(tol: Optional[float] = None) -> list[CheckResult]:
    base = 1e-8 if tol is None else tol
    out = []
    for label, alpha, which, k in DENSITY_PAIRS:
        psi = closed_form_density(which, K=k)
        rows = []
        for y in np.linspace(0.05, 0.95, _DENSITY_POINTS).tolist():
            got, want = apply_transfer(alpha, 1.0, psi, y), float(psi(y))
            rows.append((abs(got.value - want),
                         base + got.tail + _rounding(got.value, want),
                         f"y={y:.2f}"))
        out.append(_worst(f"density-{label}", rows,
                          f"{_DENSITY_POINTS} points in [0.05,0.95]"))
    return out


# ---------------------------------------------------------------------------
# equations: functional-equation residuals


def _discretized_half_eigen():
    # the eigenfunction is singular at 0, so the refinement distance is
    # measured on the window the five-point identity actually touches
    lam64, d64 = leading_eigen(gkw_matrix(HALF_MINUS, 1.0, 64))
    lam128, d128 = leading_eigen(gkw_matrix(HALF_MINUS, 1.0, 128))
    window = (d128.nodes >= 0.1) & (d128.nodes <= 0.9)
    sup = float(np.max(np.abs(d64(d128.nodes[window]) - d128.values[window])))
    disc = max(abs(lam64 - 1.0), sup)
    return d64, disc


def suite_equations(tol: Optional[float] = None) -> list[CheckResult]:
    base = 1e-12 if tol is None else tol
    fifths = [Fraction(k, 5) for k in range(1, 5)]
    points = (Fraction(3, 7), Fraction(2, 9), Fraction(1, 2))

    def exact(name, residual, ys, detail) -> CheckResult:
        return _check(name, max(abs(residual(y)) for y in ys), 0.0,
                      f"{detail}, exact arithmetic")

    def rounded(name, psi, ys, detail) -> CheckResult:
        rows = []
        for y in ys:  # the allowance covers the six terms the equation adds
            w, v = y ** -2, (1 + y) ** -2
            terms = (psi(y), psi(1 + y), w * psi(1 / y), w * psi(1 + 1 / y),
                     v * psi(y / (1 + y)), v * psi(1 / (1 + y)))
            rows.append((abs(residual_master(psi, 1, 1.0, y)),
                         base + _rounding(*terms), f"y={y}"))
        return _worst(name, rows, f"{detail}; bound = tol + rounding allowance")

    out = [rounded("master-sine", lambda u: math.sin(2.0 * math.pi * u),
                   [Fraction(k, 16) for k in range(3, 13)],
                   "sin(2 pi y) at the ten points k/16, k=3..12")]
    # the densities with rational values (the classical one times log 2)
    gauss, inv, golden = (lambda u: 1 / (1 + u), lambda u: 1 / u,
                          lambda u: 1 / (u * (u + 1)))
    detail = "closed-form density, s=1, unit eigenvalue"
    for label, psi in (("classical", gauss), ("parameter-one", inv),
                       ("golden", golden)):
        out.append(exact(f"master-{label}", partial(residual_master, psi, 1, 1),
                         fifths, f"{detail}, at k/5"))
    out += [rounded(f"master-series-k{K}", closed_form_density("k_series", K=K),
                    (0.2, 0.4, 0.6, 0.8), detail) for K in (2, 3)]
    out.append(exact("lewis-classical-density", partial(residual_b, gauss, 1, 1),
                     fifths, "companion three-term form on the classical "
                     "density at k/5"))
    out.append(exact("kernel-eta-exact", partial(residual_kernel_eta, inv, 1),
                     points, "eta(y)=1/y at rational points"))

    grid, disc = _discretized_half_eigen()

    def extended(u):
        u = float(u)
        if u <= 1.0:
            return float(grid(u))
        return apply_transfer(HALF_MINUS, 1.0, grid, u).value

    worst = max(abs(residual_k_minus(extended, 1, 2, y))
                for y in (0.2, 0.4, 0.6, 0.8))
    out.append(_check("k-minus-discretized", worst, 10.0 * disc,
                      f"five-point identity on the grid eigenfunction; "
                      f"discretization error {disc:.2e}"))

    out.append(exact("lewis-exact", partial(residual_lewis, inv, 1), points,
                     "psi(y)=1/y at rational points"))
    out.append(exact("fib-threeterm-exact",
                     partial(residual_fib_threeterm, golden, 1, 1), points,
                     "psi(y)=1/(y(y+1)) at rational points"))
    return out


# ---------------------------------------------------------------------------
# conjugacy: the digit-rewrite involution intertwines the members


_CONJUGACY_SAMPLES, _CONJUGACY_DEPTH, _CONJUGACY_SEED = 500, 30, 9


def suite_conjugacy() -> list[CheckResult]:
    depth = _CONJUGACY_DEPTH
    rng = random.Random(_CONJUGACY_SEED)
    fail_round = fail_twine = skipped = 0
    min_settled = depth
    for _ in range(_CONJUGACY_SAMPLES):
        digits = tuple(rng.randint(1, 8) for _ in range(depth))
        x = ContinuedFraction(digits, (), False)
        try:
            back = jimm(jimm(x))
            min_settled = min(min_settled, agrees_on_settled(back, x))
        except DomainError:
            fail_round += 1
        except TruncationExhausted:
            skipped += 1
        try:
            lhs = jimm(t_alpha_step(GAUSS_ALPHA, jimm(x)))
            rhs = t_alpha_step(FIBONACCI_ALPHA, x)
            min_settled = min(min_settled, agrees_on_settled(lhs, rhs))
        except DomainError:
            fail_twine += 1
        except TruncationExhausted:
            skipped += 1
    return [
        _check("conjugacy-involution", fail_round, 0,
               f"{_CONJUGACY_SAMPLES} truncated depth-{depth} expansions"),
        _check("conjugacy-intertwine", fail_twine, 0,
               "rewrite-map-rewrite against the golden-parameter step"),
        _check("conjugacy-settled-floor", depth - min_settled, 12,
               f"weakest sample certified {min_settled} digits; "
               f"{skipped} undecidable comparisons"),
        _complement_conjugacy(),
        _complement_operators(),
    ]


def _complement_conjugacy() -> CheckResult:
    # both endings of every rational: the raw complement swaps them
    xs = {cf_from_rational(Fraction(p, q), variant=v)
          for q in range(1, 41) for p in range(q + 1) for v in ("minus", "plus")}
    bad = sum(t_alpha_step(ONE, x) != t_alpha_step(GAUSS_ALPHA, cf_complement(x))
              for x in xs)
    return _check("complement-conjugacy", bad, 0,
                  f"T_1(x) = T_0(1-x) exactly on {len(xs)} rational "
                  "expansions with denominator <= 40")


def _complement_operators() -> CheckResult:
    psi = closed_form_density("gauss")
    rows = []
    for kind in ("alpha1-to-gauss", "half-plus-to-minus"):
        for y in (0.3, 0.7):
            lhs, rhs = transfer_equivalences(kind, psi, 1.0, y)
            rows.append((abs(lhs.value - rhs.value),
                         lhs.tail + rhs.tail + 1e-12, f"{kind}, y={y}"))
    return _worst("complement-operators", rows,
                  "both operator conjugations on the classical density at "
                  "y=0.3, 0.7; bound = tails + 1e-12")


# ---------------------------------------------------------------------------
# qmark: the singular law shared by every member


def _sorted_rationals(count: int) -> list[Fraction]:
    """count <= 323 of the reduced p/q in (0, 1), q <= 32, evenly spaced."""
    pool = sorted({Fraction(p, q) for q in range(2, 33)
                   for p in range(1, q) if math.gcd(p, q) == 1})
    return [pool[i * len(pool) // count] for i in range(count)]


def suite_qmark() -> list[CheckResult]:
    out = []
    want = {Fraction(1, 2): Fraction(1, 2), Fraction(1, 3): Fraction(1, 4),
            Fraction(2, 5): Fraction(3, 8)}
    bad = sum(minkowski_q(cf_from_rational(x)) != v for x, v in want.items())
    out.append(_check("qmark-dyadic-values", bad, 0,
                      "?(1/2)=1/2, ?(1/3)=1/4, ?(2/5)=3/8 exactly"))

    pts = _sorted_rationals(200)
    vals = [minkowski_q(cf_from_rational(x)) for x in pts]
    bad = sum(b <= a for a, b in zip(vals, vals[1:]))
    out.append(_check("qmark-monotone", bad, 0,
                      f"strictly increasing on {len(pts)} sorted rationals"))

    bad = sum(minkowski_q(cf_from_rational(x))
              + minkowski_q(cf_from_rational(1 - x)) != 1
              for x in pts[::4])
    out.append(_check("qmark-reflection", bad, 0,
                      "?(x) + ?(1-x) = 1 exactly on 50 rationals"))

    rows = []
    for label, alpha in (("classical", GAUSS_ALPHA),
                         ("golden", FIBONACCI_ALPHA),
                         ("half-minus", HALF_MINUS)):
        for y in (Fraction(1, 3), Fraction(2, 5), Fraction(5, 8), Fraction(1)):
            got = qmark_pushforward(alpha, y)
            gap = abs(got.value - minkowski_q(cf_from_rational(y)))
            rows.append((gap, got.tail, f"{label}, y={y}"))
    out.append(_worst("qmark-pushforward", rows,
                      "three parameters, four points"))

    bad = 0
    for x, v in zip(pts, vals):
        cx = cf_from_rational(x)
        word = to_binary_string(cx)
        bad += word.value() != v or from_binary_string(word) != cx
    out.append(_check("qmark-binary-word", bad, 0,
                      f"the word of x spells ?(x) and decodes back to x on "
                      f"{len(pts)} rationals"))
    return out


# ---------------------------------------------------------------------------
# zeta: shifted power sums and the two-variable series


def suite_zeta(tol: Optional[float] = None) -> list[CheckResult]:
    base = 1e-9 if tol is None else tol
    out = []

    rows = []
    for z, a in ((1.5, 0.7), (2.0, 1.0), (3.0, 0.5), (2.5, 2.0)):
        lhs, rhs = hurwitz_zeta(z, a), hurwitz_zeta(z, a + 1.0)
        rows.append((abs(lhs.value - rhs.value - a ** (-z)),
                     lhs.tail + rhs.tail + 32.0 * EPS * (abs(lhs.value)
                                                         + abs(rhs.value)
                                                         + a ** (-z)),
                     f"z={z}, a={a}"))
    out.append(_worst("hurwitz-shift", rows,
                      "difference at consecutive shifts equals a^(-z); "
                      "bound = tails + rounding allowance"))

    got, want = fib_zeta(1.0), _RECIPROCAL_FIBONACCI
    out.append(_check("fib-zeta-constant", abs(got.value - want),
                      base + got.tail + _rounding(got.value, want),
                      f"value {got.value:.12f} against the reciprocal "
                      "Fibonacci constant"))

    rows = []
    for s in np.linspace(1.0, 3.0, 5):
        for t in np.linspace(0.0, 2.0, 5):
            for x in np.linspace(0.5, 2.0, 5):
                r = fib_functional_eq_residual(float(s), float(t), float(x))
                rows.append((abs(r.value), r.tail, f"s={s}, t={t}, x={x}"))
    out.append(_worst("fib-functional-eq", rows,
                      "125-point grid over s in [1,3], t in [0,2], "
                      "x in [1/2,2]"))

    rows = []
    for kind, alpha in (("alpha1", ONE), ("half", HALF_MINUS)):
        for s in (1.0, 1.5):
            for y in (0.3, 0.7, 1.0):
                img = hurwitz_image(kind, s, y)
                branch = apply_transfer(alpha, s, np.ones_like, y)
                rows.append((abs(img.value - branch.value),
                             base + img.tail + branch.tail
                             + _rounding(img.value, branch.value),
                             f"{kind}, s={s}, y={y}"))
    out.append(_worst("image-identities", rows,
                      "closed forms against direct branch sums, two "
                      "parameters; bound = tails + rounding allowance"))
    return out


# ---------------------------------------------------------------------------
# helper suites reused by the acceptance tests (not CLI-exposed)


def suite_matrix() -> list[CheckResult]:
    target = closed_form_density("gauss")
    lam_err, sup_err = {}, {}
    for n in (32, 64, 128, 256):
        lam, dens = leading_eigen(gkw_matrix(GAUSS_ALPHA, 1.0, n))
        lam_err[n] = abs(lam - 1.0)
        sup_err[n] = float(np.max(np.abs(dens.values - target(dens.nodes))))
    steps = ((64, 32), (128, 64), (256, 128))
    growths = (sum(lam_err[a] > lam_err[b] for a, b in steps)
               + sum(sup_err[a] > sup_err[b] for a, b in steps))
    return [
        _check("matrix-eigenvalue-128", lam_err[128], 1e-4,
               "leading eigenvalue against 1"),
        _check("matrix-density-128", sup_err[128], 5e-3,
               "sup distance to the closed-form density"),
        _check("matrix-monotone", growths, 0,
               "refinements that failed to shrink both error measures, "
               "n=32,64,128,256"),
    ]


def suite_fixed_points() -> list[CheckResult]:
    from .cf import periodic_value
    from .maps import fibonacci_fixed_point
    from .series import fibonacci

    bad_fix = bad_val = 0
    for k in range(1, 7):
        x = fibonacci_fixed_point(k)
        if not is_periodic_point(FIBONACCI_ALPHA, x):
            bad_fix += 1
        want = Fraction(fibonacci(k), fibonacci(k + 2))
        sq = periodic_value(x).square()
        if not (sq.is_rational and sq.as_fraction() == want):
            bad_val += 1
    return [
        _check("golden-fixed-points", bad_fix, 0,
               "period-k points are exactly fixed, k=1..6"),
        _check("golden-fixed-values", bad_val, 0,
               "squared values equal F_k/F_{k+2} in exact integers"),
    ]


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "densities": suite_densities,
    "equations": suite_equations,
    "conjugacy": suite_conjugacy,
    "qmark": suite_qmark,
    "zeta": suite_zeta,
}
