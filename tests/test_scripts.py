"""Smoke tests of the runnable studies under `scripts/`."""

import contextlib
import io
import json
import os
import subprocess
import sys

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
