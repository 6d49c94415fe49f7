"""Smoke tests of the runnable studies under `scripts/`."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest

from cfdyn import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    """Run scripts/<name> with the package on its path; the finished
    process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env, capture_output=True, text=True, timeout=300)


def test_render_figures_matches_heatmap_command(tmp_path):
    # the script calls cli.heatmap_values itself; its heatmap files must
    # be the bytes `cfdyn heatmap` writes for the same grid and iterate
    figures = tmp_path / "figures"
    done = run_script("render_figures.py", "--grid", "16", "--density-grid",
                      "16", "--out-dir", str(figures))
    assert done.returncode == 0, done.stderr
    for k in (1, 3):
        base = tmp_path / f"cli-k{k}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["heatmap", "--grid", "16", "--iter", str(k),
                             "--out", str(base) + ".pgm"])
        assert code == 0
        for ext in ("pgm", "csv"):
            script_file = figures / f"map_iterate_k{k}.{ext}"
            assert (script_file.read_bytes()
                    == (tmp_path / f"cli-k{k}.{ext}").read_bytes())
    assert (figures / "density_classical.csv").exists()
    assert (figures / "density_golden.csv").exists()


def test_spectrum_study_prints_one_row_per_size():
    done = run_script("spectrum_study.py", "--sizes", "16", "32")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[0] == "n"
    assert [row.split()[0] for row in rows] == ["16", "32"]


def test_lyapunov_decay_prints_one_row_per_step_count():
    done = run_script("lyapunov_decay.py", "--samples", "2", "--steps", "50", "100")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["steps", "mean"]
    assert [row.split()[0] for row in rows] == ["50", "100"]


def test_bench_pairs_runs_both_sides_and_summarises():
    # the same checkout on both sides: one pair of short runs
    done = run_script("bench_pairs.py", ROOT, ROOT, "--workload", "mc-orbits",
                      "--seeds", "3", "--seconds", "0.5")
    assert done.returncode == 0, done.stderr
    *pairs, summary = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(p["seed"], p["first"]) for p in pairs] == [(3, "parent")]
    for side in ("parent", "change"):
        assert pairs[0][side]["correct"] and pairs[0][side]["failed"] == 0
    assert summary["pairs"] == 1
    assert sorted(summary["metrics"]) == ["peak_rss_mb", "setup_s", "solve_s"]
    solve = summary["metrics"]["solve_s"]
    assert solve["parent_median"] == pairs[0]["parent"]["solve_s"]
    assert solve["parent_iqr"] == 0.0
    assert solve["lower_in"] in ("0 of 1", "1 of 1")
    assert solve["relative_change"] == (
        (solve["change_median"] - solve["parent_median"]) / solve["parent_median"])
    assert solve["past_bound"] == (solve["relative_change"] > 0.25)
    assert solve["claim_met"] is False  # one pair claims nothing


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPECS = {"peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
         "rate": {"name": "rate", "better": "higher", "bound": 0.1}}


def pairs_of(parent, change, metric="peak_rss_mb", correct=None):
    """Synthetic pairs of one metric; pair i is correct unless
    `correct[i]` is False."""
    correct = correct or [True] * len(parent)
    return [{"parent": {"correct": ok, "failed": 0, metric: x},
             "change": {"correct": ok, "failed": 0, metric: y}}
            for x, y, ok in zip(parent, change, correct)]


PARENT = [35.9, 35.8, 36.0, 35.9, 35.7, 36.1, 35.9, 35.8, 36.0, 35.9]


@pytest.mark.parametrize("change, met", [
    ([23.8] * 10, True),
    ([23.8] * 9 + [35.9], True),           # nine wins and one tie
    ([23.8] * 8 + [36.5, 36.5], False),    # eight wins of ten
    ([x - 0.05 for x in PARENT], False),   # always lower, gap inside the IQR
])
def test_bench_pairs_claim_needs_nine_tenths_and_a_gap_past_the_iqr(change, met):
    got = load_bench_pairs().summarise(pairs_of(PARENT, change), SPECS)
    assert got["peak_rss_mb"]["claim_met"] is met
    assert got["peak_rss_mb"]["past_bound"] is False


def test_bench_pairs_claim_needs_ten_pairs_and_counts_failed_ones():
    bench_pairs = load_bench_pairs()
    nine = bench_pairs.summarise(pairs_of(PARENT[:9], [23.8] * 9), SPECS)
    assert nine["peak_rss_mb"]["claim_met"] is False
    # failed pairs are left out of the medians but not out of the count
    failed = pairs_of(PARENT, [23.8] * 10, correct=[False, False] + [True] * 8)
    summary = bench_pairs.summarise(failed, SPECS)["peak_rss_mb"]
    assert summary["lower_in"] == "8 of 8" and summary["claim_met"] is False


@pytest.mark.parametrize("metric, parent, change, relative, past", [
    ("peak_rss_mb", 50.0, 54.0, 0.08, False),
    ("peak_rss_mb", 50.0, 56.0, 0.12, True),
    ("peak_rss_mb", 50.0, 40.0, -0.2, False),
    ("rate", 50.0, 46.0, -0.08, False),
    ("rate", 50.0, 44.0, -0.12, True),
    ("rate", 50.0, 60.0, 0.2, False),
    ("unlisted", 50.0, 60.0, 0.2, None),
])
def test_bench_pairs_flags_a_change_past_the_bound(metric, parent, change,
                                                   relative, past):
    got = load_bench_pairs().summarise(
        pairs_of([parent] * 3, [change] * 3, metric), SPECS)[metric]
    assert got["relative_change"] == pytest.approx(relative)
    assert got["past_bound"] is past


def test_bench_pairs_higher_better_claim():
    parent = [100.0 + i for i in range(10)]
    got = load_bench_pairs().summarise(
        pairs_of(parent, [x + 20 for x in parent], "rate"), SPECS)["rate"]
    assert got["lower_in"] == "0 of 10" and got["claim_met"] is True
