"""Tests for the command-line surface."""

import json
import math
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cfdyn import cli
from cfdyn.cf import ContinuedFraction, ZERO, cf_from_rational, cf_value
from cfdyn.errors import DomainError, PrecisionBudgetError
from cfdyn.maps import t_alpha_step

GOLDEN_CSV = os.path.join(os.path.dirname(__file__), "golden",
                          "heatmap_n16_k1.csv")


class TestParsePoint:
    def test_zero_and_one(self):
        assert cli.parse_point("0") == ZERO
        assert cli.parse_point("1") == ContinuedFraction((1,))

    def test_bracket_text(self):
        assert cli.parse_point("[0;2,2]") == ContinuedFraction((2, 2))
        assert cli.parse_point("[0;1,(2)]") == ContinuedFraction((1,), (2,))

    def test_bare_period(self):
        assert cli.parse_point("(2)") == ContinuedFraction((), (2,))
        assert cli.parse_point("(1,2)") == ContinuedFraction((), (1, 2))

    def test_rational_variants(self):
        assert cli.parse_point("2/5") == cf_from_rational(Fraction(2, 5))
        assert cli.parse_point("1/2+") == cf_from_rational(
            Fraction(1, 2), variant="plus")
        assert cli.parse_point("1/2-") == cli.parse_point("1/2")

    def test_periodic_prefix_form(self):
        assert cli.parse_point("periodic:1,2:(3)") == ContinuedFraction(
            (1, 2), (3,))
        assert cli.parse_point("periodic:(3)") == ContinuedFraction((), (3,))

    @pytest.mark.parametrize("bad", ["", "x", "3/0", "[1;2]", "(0)", "5//3"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(DomainError):
            cli.parse_point(bad)


class TestCfCommand:
    def test_value_and_convergents(self, capsys):
        assert cli.main(["cf", "--x", "2/7", "--depth", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[0;3,2] 0.2857142857142857", "1 1/3 0.3333333333333333",
            "2 2/7 0.2857142857142857"]

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_depth_below_one_exit_code(self, depth, capsys):
        assert cli.main(["cf", "--x", "2/7", "--depth", depth]) == 2
        assert "depth" in capsys.readouterr().err


class TestMapEval:
    def test_classical_shift(self, capsys):
        assert cli.main(["map-eval", "--alpha", "0", "--x", "2/5"]) == 0
        assert capsys.readouterr().out == "[0;2] 0.5\n"

    def test_golden_parameter(self, capsys):
        code = cli.main(["map-eval", "--alpha", "(1)", "--x", "[0;1,1,3,2]"])
        assert code == 0
        assert capsys.readouterr().out == "[0;2,2] 0.4\n"

    def test_parameter_maps_to_zero(self, capsys):
        assert cli.main(["map-eval", "--alpha", "1/2+", "--x", "1/2+"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_parse_failure_exit_code(self, capsys):
        assert cli.main(["map-eval", "--alpha", "0", "--x", "nope"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_truncation_exit_code(self, capsys):
        code = cli.main(["map-eval", "--alpha", "0",
                         "--x", "[0;4,...]", "--iter", "3"])
        assert code == 3

    def test_negative_iter_exit_code(self, capsys):
        # as `cfdyn orbit --iter -1` does
        assert cli.main(["map-eval", "--alpha", "0", "--x", "2/5",
                         "--iter", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--iter" in err


class TestOrbitCommand:
    def test_prints_states(self, capsys):
        assert cli.main(["orbit", "--alpha", "0", "--x", "5/13",
                         "--iter", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "0 [0;2,1,1,2] 0.38461538461538464"
        assert lines[-1] == "4 0 0.0"


class TestQmarkCommand:
    def test_exact_value(self, capsys):
        assert cli.main(["qmark", "--x", "2/5"]) == 0
        assert capsys.readouterr().out == "3/8\n"

    def test_pushforward(self, capsys):
        assert cli.main(["qmark", "--x", "1/2", "--alpha", "(1)"]) == 0
        value, label, tail = capsys.readouterr().out.split()
        assert label == "uncovered"
        assert abs(float(Fraction(value)) - 0.5) <= float(Fraction(tail))

    @pytest.mark.parametrize("extra", [[], ["--alpha", "0"]])
    def test_point_past_the_budget_is_a_domain_error(self, capsys, extra):
        # the float 0.3 as a fraction: its digit 900719925474098 would need
        # that many bits
        argv = ["qmark", "--x", "5404319552844595/18014398509481984", *extra]
        assert cli.main(argv) == 2
        assert "QMARK_BITS" in capsys.readouterr().err


# A child interpreter with 1 GiB of address space: a path with no size
# budget fails there with a MemoryError traceback instead of taking the
# machine's memory.  It runs `body` with `cli` imported, then reports on
# stderr how long `body` took and exits with `code`.
_LIMITED_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cfdyn import cli
start = time.perf_counter()
{body}
sys.stderr.write(f"elapsed {{time.perf_counter() - start}}\\n")
sys.exit(code)
"""


def _run_limited(body):
    """(exit code, stderr, seconds `body` took) of a limited child."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _LIMITED_CHILD.format(body=body)],
                          env=env, capture_output=True, text=True, timeout=60)
    _, seen, took = done.stderr.rpartition("elapsed ")
    return done.returncode, done.stderr, float(took) if seen else math.inf


class TestJimmCommand:
    def test_digit_sum_past_the_budget_is_refused_in_a_small_child(self):
        # the float 0.3: its digit 900719925474098 would make jimm emit
        # that many ones, about 7 PB
        code, err, took = _run_limited(
            "from cfdyn.cf import cf_from_rational\n"
            "from cfdyn.errors import PrecisionBudgetError\n"
            "from cfdyn.maps import jimm\n"
            "try:\n"
            "    jimm(cf_from_rational(0.3))\n"
            "    code = 1\n"
            "except PrecisionBudgetError:\n"
            "    code = 2")
        assert (code, took < 1.0) == (2, True), err
        code, err, took = _run_limited(
            'code = cli.main(["jimm", "--x", '
            '"5404319552844595/18014398509481984"])')
        assert (code, took < 1.0) == (2, True), err
        assert "QMARK_BITS" in err and "Traceback" not in err

    def test_periodic_rewrite(self, capsys):
        assert cli.main(["jimm", "--x", "(2)"]) == 0
        assert capsys.readouterr().out == "[0;1,(2)]\n"

    def test_golden_to_zero(self, capsys):
        assert cli.main(["jimm", "--x", "(1)"]) == 0
        assert capsys.readouterr().out == "0\n"


class TestZetaCommand:
    def test_csv_row(self, capsys):
        assert cli.main(["zeta", "--alpha", "0", "--s", "1.5"]) == 0
        out = capsys.readouterr().out
        lines = out.split("\r\n")
        assert lines[0] == "alpha,s,t,y,value,tail"
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert abs(float(fields[4]) - 0.2020569031595942) < 1e-12

    def test_domain_error_exit(self, capsys):
        assert cli.main(["zeta", "--alpha", "0", "--s", "0.2"]) == 2

    @pytest.mark.parametrize("argv", [["--s", "nan"], ["--s", "inf"],
                                      ["--s", "1.5", "--t", "nan"],
                                      ["--s", "1.5", "--t", "inf"]],
                             ids=["s-nan", "s-inf", "t-nan", "t-inf"])
    def test_non_finite_exponent_exit(self, argv, capsys):
        assert cli.main(["zeta", "--alpha", "0"] + argv) == 2
        assert capsys.readouterr().out == ""


class TestSpectrumCommand:
    def test_classical_report(self, capsys, tmp_path):
        out = tmp_path / "dens.csv"
        code = cli.main(["spectrum", "--alpha", "0", "--s", "1",
                         "--grid", "32", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        lam = float(text.splitlines()[0].split()[1])
        assert abs(lam - 1.0) < 1e-3
        assert "classical closed form" in text
        assert out.read_text().startswith("y,value")

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_exponent_exit(self, s, capsys):
        argv = ["spectrum", "--alpha", "0", "--s", s, "--grid", "16"]
        assert cli.main(argv) == 2

    def test_neutral_parameter_large_grid(self, capsys):
        # the spectral gap closes at (1); the bracket still closes at 512
        code = cli.main(["spectrum", "--alpha", "(1)", "--grid", "512"])
        assert code == 0
        assert capsys.readouterr().out.startswith("lambda 1.000")

    def test_neutral_parameter_settles_at_rounding_floor(self, capsys):
        # at 2048 the bracket stays a few ulp above 8 ulp of the root
        code = cli.main(["spectrum", "--alpha", "(1)", "--grid", "2048"])
        assert code == 0
        assert capsys.readouterr().out.startswith("lambda 1.0002468812890433\n")


class TestLyapunovCommand:
    def test_json_contract(self, capsys):
        code = cli.main(["lyapunov", "--alpha", "0", "--samples", "3",
                         "--steps", "120", "--seed", "7"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["alpha", "method", "mean", "stderr",
                                 "n_samples", "n_steps", "bits", "seed",
                                 "discarded_samples"]
        assert payload["alpha"] == "0"
        assert payload["bits"] == 480
        assert payload["n_steps"] == 120

    def test_golden_parameter_default_steps(self, capsys):
        code = cli.main(["lyapunov", "--alpha", "(1)", "--samples", "1",
                         "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_steps"] == 4000

    def test_insufficient_bits_exit(self, capsys):
        code = cli.main(["lyapunov", "--alpha", "0", "--samples", "2",
                         "--steps", "100", "--bits", "10"])
        assert code == 2

    def test_zero_bits_rejected_not_defaulted(self, capsys):
        code = cli.main(["lyapunov", "--alpha", "0", "--samples", "2",
                         "--steps", "100", "--bits", "0"])
        assert code == 2
        assert capsys.readouterr().out == ""


class TestVerifyCommand:
    def test_single_suite_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--suite", "qmark", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert {c["name"] for c in report["suites"]["qmark"]} >= {
            "qmark-dyadic-values", "qmark-monotone", "qmark-pushforward",
            "qmark-binary-word"}

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
    def test_bad_tolerance_exit_code(self, tol, capsys, tmp_path):
        # rejected before any suite runs: exit 2, not a verification failure
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--suite", "zeta", f"--tol={tol}",
                         "--out", str(out)])
        assert code == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_tolerance_runs(self, capsys):
        code = cli.main(["verify", "--suite", "zeta", "--tol", "0"])
        report = json.loads(capsys.readouterr().out)
        assert code == (0 if report["passed"] else 1)

    def test_density_rows_reach_second_order_accuracy(self, capsys, tmp_path):
        # the classical and parameter-one densities are exact fixed points:
        # their rows measure only the family tails and rounding
        out = tmp_path / "densities.json"
        code = cli.main(["verify", "--suite", "densities", "--tol", "0",
                         "--out", str(out)])
        report = json.loads(out.read_text())
        rows = {c["name"]: c for c in report["suites"]["densities"]}
        assert code == 0
        assert rows["density-classical"]["measure"] < 1e-13
        assert rows["density-parameter-one"]["measure"] < 1e-13

    def test_whole_report_passes_at_zero_tolerance(self, capsys):
        # every float row carries its own tails and rounding allowance and
        # every other row is exact, so no row leans on the fixed tolerance
        code = cli.main(["verify", "--tol", "0"])
        report = json.loads(capsys.readouterr().out)
        failed = [c["name"] for rows in report["suites"].values()
                  for c in rows if not c["passed"]]
        assert (code, failed) == (0, [])


def _exact_heatmap(n, k, variant):
    """The grid point by point on exact expansions: the reference the
    suffix-table engine must reproduce bit for bit."""
    grid = [cf_from_rational(Fraction(2 * j + 1, 2 * n), variant=variant)
            for j in range(n)]
    vals = np.empty((n, n))
    for i, alpha in enumerate(grid):
        for j, y in enumerate(grid):
            for _ in range(k):
                y = t_alpha_step(alpha, y)
            vals[i, j] = cf_value(y)[0]
    return vals


def _heatmap_files(tmp_path, jobs):
    """The PGM and CSV bytes that `cfdyn heatmap --jobs <jobs>` writes."""
    base = tmp_path / f"jobs-{jobs}"
    code = cli.main(["heatmap", "--grid", "16", "--iter", "2",
                     "--jobs", jobs, "--out", str(base)])
    assert code == 0
    return [(tmp_path / f"jobs-{jobs}.{ext}").read_bytes()
            for ext in ("pgm", "csv")]


def _reference_csv(values, n):
    """The heatmap CSV with every cell formatted on its own: the text
    `cli.heatmap_csv` must reproduce byte for byte."""
    coords = [f"{(2 * i + 1) / (2 * n):.17g}" for i in range(n)]
    rows = ["alpha,x,value"]
    for a, row in zip(coords, values):
        rows.append("\r\n".join(f"{a},{x},{v:.17g}"
                                 for x, v in zip(coords, row.tolist())))
    return "\r\n".join(rows) + "\r\n"


def _crafted_grid(n, seed):
    """An n-by-n grid drawn from a few values that stress `.17g` text:
    0.1 prints as 0.10000000000000001, unlike its repr; 5e-324 is the
    smallest subnormal; 0.0 and 1.0 are the ends of the range."""
    pool = [0.0, 1.0, 0.1, 1 / 3, 5e-324, 2 / 3, 0.5, 1 - 2 ** -53]
    rng = np.random.default_rng(seed)
    return np.array(pool)[rng.integers(len(pool), size=(n, n))]


_rng = random.Random(20170)
_ORACLE_GRIDS = [(_rng.randint(16, 40), k) for k in range(1, 6)]


class TestHeatmap:
    def test_values_symmetry_and_range(self):
        vals = cli.heatmap_values(16, 1)
        assert vals.shape == (16, 16)
        assert np.all((0.0 <= vals) & (vals < 1.0))
        assert np.array_equal(vals, vals[::-1, ::-1])

    def test_parallel_columns_identical(self, tmp_path):
        assert _heatmap_files(tmp_path, "1") == _heatmap_files(tmp_path, "2")

    def test_pgm_layout(self):
        vals = cli.heatmap_values(16, 1)
        blob = cli.heatmap_pgm(vals)
        assert blob.startswith(b"P5\n16 16\n255\n")
        assert len(blob) == len(b"P5\n16 16\n255\n") + 256
        body = blob[len(b"P5\n16 16\n255\n"):]
        # top-left pixel is column 0 at the highest x node
        assert body[0] == min(255, int(255.0 * vals[0, 15] + 0.5))

    def test_golden_csv_byte_exact(self):
        vals = cli.heatmap_values(16, 1)
        with open(GOLDEN_CSV, "rb") as fh:
            assert cli.heatmap_csv(vals, 16).encode() == fh.read()

    @pytest.mark.parametrize("n, seed", [(16, 0), (17, 1), (40, 2)])
    def test_csv_matches_per_cell_formatting(self, n, seed):
        vals = _crafted_grid(n, seed)
        text = cli.heatmap_csv(vals, n)
        assert text == _reference_csv(vals, n)
        assert ",0.10000000000000001\r\n" in text

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    @pytest.mark.parametrize("k", [1, 2, 3, 40])
    def test_values_hold_no_negative_zero(self, k, variant):
        # heatmap_csv keys its text on float equality, which would print
        # -0.0 as 0 after a 0.0; the map's values are p/q with p >= 0
        vals = cli.heatmap_values(64, k, variant)
        assert not np.signbit(vals).any()
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    @pytest.mark.parametrize("shape, n", [((16, 16), 32), ((16, 16), 8),
                                          ((16, 32), 16), ((256,), 16)])
    def test_csv_rejects_values_of_another_shape(self, shape, n):
        with pytest.raises(DomainError, match="grid"):
            cli.heatmap_csv(np.zeros(shape), n)

    def test_cli_writes_both_files(self, tmp_path):
        out = tmp_path / "img.pgm"
        code = cli.main(["heatmap", "--grid", "16", "--iter", "1",
                         "--out", str(out)])
        assert code == 0
        assert (tmp_path / "img.pgm").exists()
        assert (tmp_path / "img.csv").exists()

    @pytest.mark.parametrize("mask", [0o022, 0o077], ids=["022", "077"])
    def test_output_files_get_the_umask_mode(self, mask, tmp_path):
        # the temp file behind each atomic write takes the umask, as open()
        old = os.umask(mask)
        try:
            code = cli.main(["heatmap", "--grid", "16", "--iter", "1",
                             "--out", str(tmp_path / "img.pgm")])
            zeta = cli.main(["zeta", "--alpha", "0", "--s", "2",
                             "--out", str(tmp_path / "zeta.csv")])
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        assert (code, zeta) == (0, 0)
        modes = {name: os.stat(tmp_path / name).st_mode & 0o777
                 for name in ("img.pgm", "img.csv", "zeta.csv", "plain.txt")}
        assert modes == dict.fromkeys(modes, 0o666 & ~mask)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(modes)

    def test_jobs_below_one_rejected(self, tmp_path):
        code = cli.main(["heatmap", "--grid", "16", "--iter", "1",
                         "--jobs", "0", "--out", str(tmp_path / "x.pgm")])
        assert code == 2
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("blocked", ["csv", "pgm"])
    def test_failed_write_leaves_no_partial_output(self, blocked, tmp_path):
        # one output path is a directory, so its rename fails; the other
        # file must not appear, and an older PGM must survive unchanged
        (tmp_path / f"p.{blocked}").mkdir()
        if blocked == "csv":
            (tmp_path / "p.pgm").write_bytes(b"old picture")
        before = sorted(p.name for p in tmp_path.iterdir())
        code = cli.main(["heatmap", "--grid", "16", "--iter", "1",
                         "--out", str(tmp_path / "p.pgm")])
        assert code == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert not any((tmp_path / f"p.{blocked}").iterdir())
        if blocked == "csv":
            assert (tmp_path / "p.pgm").read_bytes() == b"old picture"

    def test_jobs_start_no_process(self, tmp_path):
        assert not hasattr(cli, "ProcessPoolExecutor")
        assert (_heatmap_files(tmp_path, str(10 ** 9))
                == _heatmap_files(tmp_path, "1"))

    def test_wrong_digit_rule_is_caught(self, monkeypatch):
        # a step that always strips the first digit, never reduces,
        # differs from the map inside the 16-by-16 subgrid that every call
        # recomputes
        def strip_only(table, alpha, f, o):
            x = np.arange(f.shape[1])
            return (np.where(f > 0, table.digits[x, o], 0),
                    np.minimum(o + 1, table.width - 1))

        monkeypatch.setattr(cli._SuffixTable, "step", strip_only,
                            raising=True)
        with pytest.raises(RuntimeError, match="digit-array heatmap"):
            cli.heatmap_values(64, 1)

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    @pytest.mark.parametrize("n", [16, 17, 40])
    def test_range_minimum_lcp_matches_brute_force(self, n, variant):
        grid = cli._grid_digits(n, variant)
        table = cli._SuffixTable(grid)
        w = grid.shape[1]
        padded = np.concatenate([grid, np.zeros_like(grid)], axis=1)
        suffixes = np.array([padded[r, o:o + w]
                             for r in range(n) for o in range(w)])
        differ = suffixes[:, None, :] != suffixes[None, :, :]
        brute = np.where(differ.any(axis=2), differ.argmax(axis=2), w)
        pos = table.pos.ravel()
        got = table.lcp(pos[:, None], pos[None, :])
        assert np.array_equal(got, brute)
        # positions follow the lexicographic order of the suffixes
        ranked = suffixes[np.argsort(pos)]
        assert all(tuple(a) <= tuple(b) for a, b in zip(ranked, ranked[1:]))

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    @pytest.mark.parametrize("n, k", _ORACLE_GRIDS)
    def test_matches_exact_point_loop(self, n, k, variant):
        # the plus variant's expansions end in 1, at parameters and points
        # alike, and its reduce steps leave that trailing 1 in place
        ref = _exact_heatmap(n, k, variant)
        got = cli.heatmap_values(n, k, variant)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_huge_iterate_count_reaches_zero(self):
        # each step lowers the digit sum, at most 2n on this grid, and 0
        # is fixed, so a million steps cost no more than 32
        vals = cli.heatmap_values(16, 10 ** 6)
        assert not vals.any()
        assert np.array_equal(vals, cli.heatmap_values(16, 32))

    def test_memory_stays_in_blocks(self):
        # one unblocked (512, 512, L) int64 array would be about 27 MB
        tracemalloc.start()
        try:
            vals = cli.heatmap_values(512, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vals.nbytes + 8 * 2 ** 20

    def test_grid_past_the_cap_rejected(self, tmp_path):
        with pytest.raises(PrecisionBudgetError, match="GRID_MAX"):
            cli.heatmap_values(cli.GRID_MAX + 1, 1)
        code = cli.main(["heatmap", "--grid", str(cli.GRID_MAX + 1),
                         "--iter", "1", "--out", str(tmp_path / "x.pgm")])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_small_grid_rejected(self, tmp_path):
        code = cli.main(["heatmap", "--grid", "8", "--iter", "1",
                         "--out", str(tmp_path / "x.pgm")])
        assert code == 2
        assert not (tmp_path / "x.pgm").exists()

    def test_variant_changes_values(self):
        # One step from a dyadic midpoint never lands on a branch boundary
        # (the boundaries have odd denominator), so k=1 grids agree; by the
        # second step some orbits hit a boundary exactly and the two digit
        # conventions resolve it to opposite sides.
        assert np.array_equal(cli.heatmap_values(16, 1, "minus"),
                              cli.heatmap_values(16, 1, "plus"))
        minus = cli.heatmap_values(16, 2, "minus")
        plus = cli.heatmap_values(16, 2, "plus")
        assert not np.array_equal(minus, plus)


class TestAtomicWrite:
    def test_text_is_written_in_bounded_chunks(self, tmp_path):
        # a 3 MB text must not be held a second time as one bytes object
        text = "".join(f"{i},{i / 7:.17g}\r\n" for i in range(130_000))
        assert len(text) > 3_000_000 and text.isascii()
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            cli._atomic_write((str(path), text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == text.encode()
        assert peak < len(text) // 8
        assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


def readme_cli_lines():
    """(argv, expected output or None) of each command the README's CLI
    block documents.  A `cfdyn ...` line's comment, continued on the
    comment-only lines below it, may give its output as `-> text` (less
    any parenthesised note), or list other values of its last option as
    `also: a, b; omit --option ...`, each a command of its own, as is the
    line without that option."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        if line.startswith("cfdyn "):
            command, _, comment = line.partition("#")
            lines.append([shlex.split(command)[1:], comment.strip()])
        elif line.strip().startswith("#"):
            lines[-1][1] += " " + line.strip()[1:].strip()
    rows = []
    for argv, comment in lines:
        want = comment[3:].split(" (")[0] if comment.startswith("-> ") else None
        rows.append((argv, want))
        if comment.startswith("also:"):
            values, _, rest = comment[5:].partition(";")
            rows += [(argv[:-1] + [v.strip()], None) for v in values.split(",")]
            if rest.split()[:2] == ["omit", argv[-2]]:
                rows.append((argv[:-2], None))
    return rows


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every documented command exits 0 in a scratch directory, and prints
    # the output its comment promises
    monkeypatch.chdir(tmp_path)
    rows = readme_cli_lines()
    assert [want for _, want in rows if want] == ["[0;2] 0.5", "[0;2,2] 0.4", "3/8"]
    for argv, want in rows:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        out = capsys.readouterr().out
        assert code == 0, argv
        if want is not None:
            assert out.strip() == want, argv
