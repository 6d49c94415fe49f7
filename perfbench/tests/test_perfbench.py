"""Tests of the benchmark's own parts: the independent oracles, the span
tracer, and that the output checks reject a wrong answer.

    python3 -m pytest perfbench/tests -q
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_euclid_digits_are_the_shortest_expansion():
    assert oracles.euclid_digits(2, 5) == [2, 2]
    assert oracles.euclid_digits(5, 13) == [2, 1, 1, 2]
    assert oracles.euclid_digits(1, 1) == [1]
    assert oracles.euclid_digits(0, 1) == []


def test_gauss_closed_form_matches_stepwise_sum():
    x = Fraction(355, 1013)
    total, y = 0.0, x
    for _ in range(5):
        total += -2.0 * math.log(y)
        y = 1 / y - math.floor(1 / y)
    got = oracles.gauss_orbit_log_sum(x.numerator, x.denominator, 5)
    assert abs(got - total) < 1e-12


def test_golden_orbit_by_hand():
    # 2/5 -> 2/3 (x/(1-x)), then 2/3 -> 1/2 -> 1; the orbit stops at 1
    total, steps = oracles.golden_orbit_log_sum(2, 5, 10)
    assert steps == 2
    assert abs(total - 2.0 * math.log(5.0)) < 1e-12


def test_question_mark_known_values():
    assert oracles.question_mark(Fraction(1, 2)) == Fraction(1, 2)
    assert oracles.question_mark(Fraction(1, 3)) == Fraction(1, 4)
    assert oracles.question_mark(Fraction(2, 5)) == Fraction(3, 8)
    for x in (Fraction(3, 7), Fraction(11, 30)):
        assert oracles.question_mark(x) + oracles.question_mark(1 - x) == 1


def test_digit_map_by_hand():
    # parameter 0 is the Gauss map
    assert oracles.digit_map(Fraction(0), Fraction(5, 13)) == Fraction(3, 5)
    # parameter [0;2]: 1/3 = [0;3] keeps 3-2; 2/5 = [0;2,2] is stripped
    assert oracles.digit_map(Fraction(1, 2), Fraction(1, 3)) == 1
    assert oracles.digit_map(Fraction(1, 2), Fraction(2, 5)) == 0
    assert oracles.digit_map(Fraction(1, 2), Fraction(1, 2)) == 0


def test_half_turn_symmetry_is_an_identity_of_the_map():
    rng = random.Random(5)
    for _ in range(300):
        a = Fraction(2 * rng.randrange(256) + 1, 512)
        x = Fraction(2 * rng.randrange(256) + 1, 512)
        assert oracles.digit_map(1 - a, 1 - x) == oracles.digit_map(a, x)


def _fresh_modules():
    import importlib
    names = ("cf", "maps", "lyapunov", "transfer", "series", "zeta",
             "verify", "cli")
    mods = {"cfdyn": importlib.import_module("cfdyn")}
    for name in names:
        mods[name] = importlib.import_module(f"cfdyn.{name}")
    return mods


def test_tracer_records_spans_and_restores_the_program():
    mods = _fresh_modules()
    original = mods["maps"].t_alpha_step
    tracer = spans.Tracer(mods)
    tracer.install()
    try:
        assert mods["cli"].t_alpha_step is not original
        mods["cli"].heatmap_values(16, 1)
    finally:
        tracer.uninstall()
    assert mods["cli"].t_alpha_step is original
    assert mods["maps"].t_alpha_step is original
    calls, total, own = tracer.stats["maps.t_alpha_step"]
    assert calls == 256 and 0 < own <= total
    assert tracer.stats["cli.heatmap_values"][0] == 1
    assert tracer.edges[("cli.heatmap_values", "maps.t_alpha_step")][0] == 256
    assert tracer.edges[("benchmark", "cli.heatmap_values")][0] == 1
    assert tracer.quantities["cf.cf_from_rational.digits"] > 0
    metrics = tracer.per_round(1)
    assert metrics["maps.t_alpha_step.calls"] == (256, "count")


def test_orbit_check_rejects_a_wrong_sum():
    import argparse
    m = argparse.Namespace(**_fresh_modules())
    work = workloads.McOrbits()
    x = Fraction(0x9E3779B97F4A7C15F39CC0605CEDC835, 1 << 128)
    inputs = {"starts": [("0", m.cli.parse_point("0"), 20, x),
                         ("(1)", m.cli.parse_point("(1)"), 20, x)]}
    outputs = {key: call() for key, call, _ in work.operations(inputs, m)}
    assert work.check(inputs, outputs, m) == []
    bad = outputs["(1)#1"]._replace(value=outputs["(1)#1"].value * (1 + 1e-7))
    assert work.check(inputs, {**outputs, "(1)#1": bad}, m) != []
