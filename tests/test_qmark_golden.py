"""`qmark_pushforward` pinned exactly against a stored fixture.

`tests/golden/qmark_pushforward.json` holds, for nine parameters and six
points, the exact value and tail that `qmark_pushforward` returns, each
as a "p/q" string.  The parameters cover an infinite family (0), only
boundary branches ((1)), both expansions of a rational, finite families
of several sizes and two periodic parameters; the points are both ends,
three rationals and one float.  Any change to the pushforward that moves
a single numerator or denominator fails here.

Regenerate (only when a change is meant to move these numbers) with

    PYTHONPATH=src python3 tests/test_qmark_golden.py
"""

import json
import os
from fractions import Fraction

import pytest

from cfdyn.cf import ContinuedFraction, cf_from_rational, cf_to_text
from cfdyn.transfer import qmark_pushforward

CF = ContinuedFraction
FIXTURE = os.path.join(os.path.dirname(__file__), "golden",
                       "qmark_pushforward.json")

PARAMETERS = {
    "0": CF(),
    "(1)": CF((), (1,)),
    "1/2-": cf_from_rational(1, 2),
    "1/2+": cf_from_rational(1, 2, variant="plus"),
    "1/3": cf_from_rational(1, 3),
    "2/7": cf_from_rational(2, 7),
    "(2)": CF((), (2,)),
    "(1,2)": CF((), (1, 2)),
    "1": cf_from_rational(1),
}
# rationals as "p/q" text; the float, e - 2, is passed to qmark_pushforward
# as is.  A float is an exact dyadic rational whose expansion can hold a
# huge digit (0.3 has 900719925474098), and ? of it then needs that many
# bits; this one's 36 digits sum to 127.
POINTS = ("0", "1/3", "2/5", "5/8", "1", 0.7182818284590451)


def compute() -> dict:
    out = {}
    for name, alpha in PARAMETERS.items():
        for y in POINTS:
            got = qmark_pushforward(alpha, Fraction(y) if isinstance(y, str) else y)
            out[f"{name}|{y}"] = {"alpha": cf_to_text(alpha),
                                  "value": str(got.value), "tail": str(got.tail)}
    return out


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_every_entry_is_exact(pinned):
    got = compute()
    assert got.keys() == pinned.keys()
    moved = [k for k in pinned if got[k] != pinned[k]]
    assert not moved, f"{len(moved)} moved, first {moved[:3]}: " + \
        ", ".join(f"{got[k]} != {pinned[k]}" for k in moved[:3])


def test_fixture_values_are_exact_fractions(pinned):
    # each entry parses back to a Fraction, and the pair is a partial law
    for entry in pinned.values():
        value, tail = Fraction(entry["value"]), Fraction(entry["tail"])
        assert 0 <= value <= 1 - tail and 0 <= tail <= 1


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(compute(), fh, indent=0, sort_keys=True)
        fh.write("\n")
