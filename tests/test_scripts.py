"""Smoke tests of the runnable studies under `scripts/`."""

import contextlib
import io
import os
import subprocess
import sys

from cfdyn import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_render_figures_matches_heatmap_command(tmp_path):
    # the script calls cli.heatmap_values itself; its heatmap files must
    # be the bytes `cfdyn heatmap` writes for the same grid and iterate
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    figures = tmp_path / "figures"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "render_figures.py"),
         "--grid", "16", "--density-grid", "16", "--out-dir", str(figures)],
        env=env, capture_output=True, text=True, timeout=300)
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
