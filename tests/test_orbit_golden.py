"""Orbit outputs pinned bit for bit against a stored fixture.

`tests/golden/orbit_values.json` holds, for a seeded set of starts at
nine parameters, the `.hex()` of every `lyapunov_orbit` mean with its
step count and termination flag (or the exception it raised), a digest
of each `orbit` record (states, shadows, log-derivative sum), digests of
`cf_from_rational` digits for large dyadic starts, two small
`monte_carlo_lyapunov` means, and the two means of acceptance criterion
5 (classical 50 x 2000 and golden 50 x 4000, seed 7).  Any change to the
orbit or expansion code that moves a single float bit or digit fails
here.

Regenerate (only when a change is meant to move these numbers) with

    PYTHONPATH=src python3 tests/test_orbit_golden.py
"""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from cfdyn.cf import ContinuedFraction, cf_from_rational, cf_to_text
from cfdyn.errors import DerivativeUndefined, TruncationExhausted
from cfdyn.lyapunov import lyapunov_orbit, monte_carlo_lyapunov
from cfdyn.maps import FIBONACCI_ALPHA, GAUSS_ALPHA, orbit

CF = ContinuedFraction
FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "orbit_values.json")

PARAMETERS = {
    "0": GAUSS_ALPHA,
    "(1)": FIBONACCI_ALPHA,
    "1/2-": cf_from_rational(1, 2),
    "1/2+": cf_from_rational(1, 2, variant="plus"),
    "(2)": CF((), (2,)),
    "(1,2)": CF((), (1, 2)),
    "7/19": cf_from_rational(7, 19),
    "[0;3,(1,2)]": CF((3,), (1, 2)),
    "1": cf_from_rational(1),
}
STEPS = (1, 7, 300)


def starts() -> list:
    """A seeded mix of rational (small, and dyadic up to 600 bits, in both
    variants), periodic and truncated starts, plus a few hand-picked
    telescoping runs."""
    rng = random.Random(20)
    out = [cf_from_rational(1, 10), CF((6, 3)), CF((7, 3)), CF((40, 2)),
           CF((), (9, 1)), CF((1,), exact=False)]
    for i in range(14):
        variant = ("minus", "plus")[i % 2]
        if i < 6:
            q = rng.randint(2, 1000)
            fr = Fraction(rng.randint(1, q - 1), q)
        else:
            bits = rng.choice((64, 200, 600))
            fr = Fraction(rng.getrandbits(bits) | 1, 1 << bits)
        out.append(cf_from_rational(fr, variant=variant))
    for _ in range(10):
        head = [rng.randint(1, 12) for _ in range(rng.randint(0, 4))]
        period = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        out.append(CF(tuple(head), tuple(period)))
    for _ in range(10):
        head = [rng.randint(1, 40) for _ in range(rng.randint(0, 60))]
        out.append(CF(tuple(head), exact=False))
    return out


def _digest(parts) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _lyapunov_record(alpha, x, n):
    try:
        got = lyapunov_orbit(alpha, x, n)
    except (DerivativeUndefined, TruncationExhausted) as exc:
        return type(exc).__name__
    return [got.value.hex(), got.steps, got.terminated]


def _orbit_record(alpha, x, n):
    rec = orbit(alpha, x, n)
    return [_digest(cf_to_text(s) for s in rec.states),
            _digest(v.hex() for v in rec.shadow),
            rec.log_deriv_sum.hex(), rec.deriv_steps, rec.hit_zero_at,
            rec.exhausted]


def compute() -> dict:
    xs = starts()
    lyap, orbits = {}, {}
    for name, alpha in PARAMETERS.items():
        for i, x in enumerate(xs):
            for n in STEPS:
                key = f"{name}|{i}|{n}"
                lyap[key] = _lyapunov_record(alpha, x, n)
                orbits[key] = _orbit_record(alpha, x, n)
    rng = random.Random(21)
    expansions = {}
    for bits in (61, 62, 63, 64, 65, 200, 8000, 16000):
        num = rng.getrandbits(bits) | 1
        for variant in ("minus", "plus"):
            x = cf_from_rational(Fraction(num, 1 << bits), variant=variant)
            expansions[f"{bits}|{variant}"] = [
                len(x.head), _digest(map(str, x.head))]
    means = {
        "0": monte_carlo_lyapunov(GAUSS_ALPHA, 6, 200, seed=4).value.hex(),
        "(1)": monte_carlo_lyapunov(FIBONACCI_ALPHA, 6, 200, seed=4).value.hex(),
    }
    # the estimates test_criterion_5_lyapunov_constants compares with the
    # exponents; pinned here so they are held bit for bit on their own
    criterion_5 = {
        "0": monte_carlo_lyapunov(GAUSS_ALPHA, 50, 2000, seed=7).value.hex(),
        "(1)": monte_carlo_lyapunov(FIBONACCI_ALPHA, 50, 4000, seed=7).value.hex(),
    }
    return {"starts": [cf_to_text(x) for x in xs], "lyapunov_orbit": lyap,
            "orbit": orbits, "cf_from_rational": expansions,
            "monte_carlo_means": means, "criterion_5_means": criterion_5}


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return compute()


def test_starts_unchanged(pinned, current):
    assert current["starts"] == pinned["starts"]


@pytest.mark.parametrize("section", ["lyapunov_orbit", "orbit",
                                     "cf_from_rational", "monte_carlo_means",
                                     "criterion_5_means"])
def test_bit_identical(pinned, current, section):
    want, got = pinned[section], current[section]
    assert got.keys() == want.keys()
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, f"{len(moved)} moved, first {moved[:3]}: " + \
        ", ".join(f"{got[k]} != {want[k]}" for k in moved[:3])


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(compute(), fh, indent=0, sort_keys=True)
        fh.write("\n")
