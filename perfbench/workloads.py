"""The benchmark's four workloads.

A workload turns a seed into inputs, lists one round of operations on
them, and checks the outputs of a round against the independent
computations in `oracles`.  Every operation calls cfdyn through module
attributes looked up at call time (`m.lyapunov.lyapunov_orbit`), so the
tracer's wrappers see the call whenever they are installed.

Each operation is a (key, call, post) triple: `call` is the timed
program work; `post` turns its result into the kept output outside the
timed region (reading the files a CLI call wrote, for instance).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import tracemalloc
from fractions import Fraction
from pathlib import Path

import oracles

BITS_PER_STEP = 4  # as `cfdyn lyapunov` and `monte_carlo_lyapunov` use


def _same(x):
    return x


class McOrbits:
    """Lyapunov orbit averages from seeded dyadic starts: maps and cf step
    code on rationals with thousands of digits, no transfer code."""

    name = "mc-orbits"
    # (parameter text, steps, starts per round): the two parameters take
    # comparable shares of a round
    RUNS = (("0", 2000, 12), ("(1)", 4000, 3))

    def make_inputs(self, seed: int, m) -> dict:
        rng = random.Random(seed)
        starts = []
        for text, steps, count in self.RUNS:
            alpha = m.cli.parse_point(text)
            bits = BITS_PER_STEP * steps
            for _ in range(count):
                num = 0
                while num == 0:
                    num = rng.getrandbits(bits)
                starts.append((text, alpha, steps, Fraction(num, 1 << bits)))
        rng.shuffle(starts)
        return {"starts": starts}

    def operations(self, inputs: dict, m) -> list:
        def op(alpha, steps, x):
            return lambda: m.lyapunov.lyapunov_orbit(
                alpha, m.cf.cf_from_rational(x), steps)

        return [(f"{text}#{i}", op(alpha, steps, x), _same)
                for i, (text, alpha, steps, x) in enumerate(inputs["starts"])]

    def view(self, out):
        return [repr(out.value), out.steps, out.terminated]

    def check(self, inputs: dict, outputs: dict, m) -> list[str]:
        problems = []
        gauss_means = []
        for i, (text, _, steps, x) in enumerate(inputs["starts"]):
            out = outputs.get(f"{text}#{i}")
            if out is None:
                continue
            if out.steps != steps or out.terminated:
                problems.append(f"{text}#{i}: {out.steps} steps, "
                                f"terminated={out.terminated}")
                continue
            got = out.value * out.steps
            if text == "0":
                want = oracles.gauss_orbit_log_sum(x.numerator, x.denominator,
                                                   steps)
                gauss_means.append(out.value)
            else:
                want, taken = oracles.golden_orbit_log_sum(
                    x.numerator, x.denominator, steps)
                if taken != steps:
                    problems.append(f"{text}#{i}: exact orbit took {taken} "
                                    f"steps, program {out.steps}")
            if abs(got - want) > 1e-9 * abs(want):
                problems.append(f"{text}#{i}: orbit sum {got!r}, "
                                f"independent {want!r}")
        # the golden mean is deliberately not compared with 2 log(phi):
        # its orbit averages decay like C/log n (see the top-level README)
        if len(gauss_means) >= 2:
            mean = statistics.fmean(gauss_means)
            stderr = statistics.stdev(gauss_means) / math.sqrt(len(gauss_means))
            tol = max(0.02 * oracles.GAUSS_LYAPUNOV, 3.0 * stderr)
            if abs(mean - oracles.GAUSS_LYAPUNOV) > tol:
                problems.append(f"Gauss mean {mean:.6f} is more than "
                                f"{tol:.4f} from pi^2/(6 log 2)")
        return problems

    def memory_probe(self, inputs: dict, m) -> dict:
        """tracemalloc peak of one maps.orbit call, for the first start of
        each parameter; run apart from the timed rounds, whose times the
        allocation hooks would roughly double."""
        peak = 0
        seen = set()
        for text, alpha, steps, x in inputs["starts"]:
            if text in seen:
                continue
            seen.add(text)
            start = m.cf.cf_from_rational(x)
            tracemalloc.start()
            try:
                m.maps.orbit(alpha, start, steps)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return {"maps.orbit.peak_mb": (peak / 2 ** 20, "MB")}


class GridSpectra:
    """gkw_matrix then leading_eigen at s=1: transfer's grid path and
    power_tail, on infinite (0, 1/2) and finite ((1), (2)) families."""

    name = "grid-spectra"
    PARAMS = ("0", "1/2", "(1)", "(2)")
    SIZES = (64, 128, 256)

    def make_inputs(self, seed: int, m) -> dict:
        cases = [(text, m.cli.parse_point(text), n)
                 for text in self.PARAMS for n in self.SIZES]
        random.Random(seed).shuffle(cases)
        return {"cases": cases}

    def operations(self, inputs: dict, m) -> list:
        def op(alpha, n):
            return lambda: m.transfer.leading_eigen(
                m.transfer.gkw_matrix(alpha, 1.0, n))

        return [(f"{text}@{n}", op(alpha, n), _same)
                for text, alpha, n in inputs["cases"]]

    def view(self, out):
        lam, dens = out
        return [repr(lam), hashlib.sha256(dens.values.tobytes()).hexdigest()]

    def check(self, inputs: dict, outputs: dict, m) -> list[str]:
        problems = []
        for text in self.PARAMS:
            gaps = {}
            for n in self.SIZES:
                out = outputs.get(f"{text}@{n}")
                if out is None:
                    continue
                lam, dens = out
                vals = [float(v) for v in dens.values]
                if len(vals) != n + 1 or not all(math.isfinite(v) and v >= 0
                                                 for v in vals):
                    problems.append(f"{text}@{n}: eigenvector not finite "
                                    "and non-negative on n+1 nodes")
                    continue
                mass = (sum(vals) - 0.5 * (vals[0] + vals[-1])) / n
                if abs(mass - 1.0) > 1e-12:
                    problems.append(f"{text}@{n}: trapezoid mass {mass!r}")
                gaps[n] = abs(lam - 1.0)
                if text == "0":
                    # hat collocation is second order: error ~ 3.3/n^2 here
                    sup = max(abs(v - oracles.gauss_density(j / n))
                              for j, v in enumerate(vals))
                    if sup > 8.0 / n ** 2:
                        problems.append(f"0@{n}: eigenvector is {sup:.3e} "
                                        "from 1/((1+y) log 2)")
            sizes = sorted(gaps)
            for a, b in zip(sizes, sizes[1:]):
                if not gaps[b] < gaps[a]:
                    problems.append(f"{text}: |lambda-1| {gaps[b]:.3e} at "
                                    f"n={b} did not shrink from {gaps[a]:.3e}")
        return problems


class VerifyAll:
    """The five `cfdyn verify` suites at their defaults: pointwise
    apply_transfer, exact qmark_pushforward, zeta, hurwitz_sum, jimm."""

    name = "verify-all"
    QMARK_SAMPLE = 64

    def make_inputs(self, seed: int, m) -> dict:
        rng = random.Random(seed)
        suites = list(m.verify.SUITES)
        rng.shuffle(suites)
        rationals = []
        for _ in range(self.QMARK_SAMPLE):
            q = rng.randint(2, 1 << 20)
            rationals.append(Fraction(rng.randint(1, q - 1), q))
        return {"suites": suites, "rationals": rationals}

    def operations(self, inputs: dict, m) -> list:
        def op(name):
            return lambda: getattr(m.verify, f"suite_{name}")()

        return [(name, op(name), _same) for name in inputs["suites"]]

    def view(self, out):
        return [c.as_dict() for c in out]

    def check(self, inputs: dict, outputs: dict, m) -> list[str]:
        problems = []
        for name, rows in outputs.items():
            if rows is None:
                continue
            for c in rows:
                if not (c.passed and c.measure <= c.bound):
                    problems.append(f"{name}/{c.name}: measure {c.measure!r} "
                                    f"over bound {c.bound!r}")
        for x in inputs["rationals"]:
            got = m.cf.minkowski_q(m.cf.cf_from_rational(x))
            if got != oracles.question_mark(x):
                problems.append(f"?({x}) = {got}, alternating series "
                                f"gives {oracles.question_mark(x)}")
        fz = m.zeta.fib_zeta(1.0)
        if abs(fz.value - oracles.RECIPROCAL_FIBONACCI) > fz.tail + 1e-12:
            problems.append(f"sum 1/F_k = {fz.value!r} (tail {fz.tail:.1e}), "
                            "reciprocal Fibonacci constant "
                            f"{oracles.RECIPROCAL_FIBONACCI!r}")
        return problems


class Heatmap256:
    """`cfdyn heatmap --grid 256 --jobs 1` at --iter 1 and 3: ~262k short
    t_alpha_step calls and the CLI's PGM and CSV rendering."""

    name = "heatmap-256"
    GRID = 256
    ITERS = (1, 3)
    CELL_SAMPLE = 256

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def make_inputs(self, seed: int, m) -> dict:
        # the order stays fixed: running k=3 first raised peak RSS by
        # 2.8 MB, which would make peak_rss_mb depend on the seed
        rng = random.Random(seed)
        cells = [(rng.randrange(self.GRID), rng.randrange(self.GRID))
                 for _ in range(self.CELL_SAMPLE)]
        return {"iters": self.ITERS, "cells": cells}

    def operations(self, inputs: dict, m) -> list:
        self.out_dir.mkdir(parents=True, exist_ok=True)

        def op(k):
            base = str(self.out_dir / f"heatmap-k{k}")
            argv = ["heatmap", "--grid", str(self.GRID), "--iter", str(k),
                    "--jobs", "1", "--out", base + ".pgm"]

            def call():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = m.cli.main(argv)
                return code, buf.getvalue()

            def post(result):
                code, printed = result
                return {"code": code, "printed": printed,
                        "pgm": Path(base + ".pgm").read_bytes(),
                        "csv": Path(base + ".csv").read_bytes().decode()}

            return call, post

        return [(f"k{k}", *op(k)) for k in inputs["iters"]]

    def view(self, out):
        return [out["code"], out["printed"],
                hashlib.sha256(out["pgm"]).hexdigest(),
                hashlib.sha256(out["csv"].encode()).hexdigest()]

    def check(self, inputs: dict, outputs: dict, m) -> list[str]:
        n = self.GRID
        problems = []
        for k in self.ITERS:
            out = outputs.get(f"k{k}")
            if out is None:
                continue
            if out["code"] != 0:
                problems.append(f"k={k}: exit code {out['code']}")
                continue
            header = f"P5\n{n} {n}\n255\n".encode()
            pgm = out["pgm"]
            rows = out["csv"].split("\r\n")
            if not pgm.startswith(header) or len(pgm) != len(header) + n * n:
                problems.append(f"k={k}: PGM is not a {n}x{n} 8-bit image")
                continue
            if rows[0] != "alpha,x,value" or rows[-1] != "" \
                    or len(rows) != n * n + 2:
                problems.append(f"k={k}: CSV is not {n * n} rows with header")
                continue
            vals = [[0.0] * n for _ in range(n)]
            off_grid = off_pixel = 0
            for r, row in enumerate(rows[1:-1]):
                i, j = divmod(r, n)
                a, x, v = (float(f) for f in row.split(","))
                off_grid += (a != (2 * i + 1) / (2 * n)
                             or x != (2 * j + 1) / (2 * n))
                vals[i][j] = v
                # PGM rows run top-down from x near 1; columns follow alpha
                pix = pgm[len(header) + (n - 1 - j) * n + i]
                off_pixel += pix != min(255, int(255.0 * v + 0.5))
            if off_grid or off_pixel:
                problems.append(f"k={k}: {off_grid} CSV rows off the grid, "
                                f"{off_pixel} PGM pixels not round(255*value)")
            if k == 1:
                # T_{1-alpha}(1-x) = T_alpha(x): the k=1 picture is
                # symmetric under the half-turn about its centre
                bad = sum(vals[i][j] != vals[n - 1 - i][n - 1 - j]
                          for i in range(n) for j in range(n))
                if bad:
                    problems.append(f"k=1: {bad} cells break the half-turn "
                                    "symmetry")
            for i, j in inputs["cells"]:
                alpha = Fraction(2 * i + 1, 2 * n)
                y = Fraction(2 * j + 1, 2 * n)
                for _ in range(k):
                    y = oracles.digit_map(alpha, y)
                if abs(vals[i][j] - float(y)) > 1e-15:
                    problems.append(f"k={k}: cell ({i},{j}) is {vals[i][j]!r}, "
                                    f"digit comparison gives {float(y)!r}")
        return problems


WORKLOADS = (McOrbits, GridSpectra, VerifyAll, Heatmap256)
NAMES = tuple(w.name for w in WORKLOADS)


def make(name: str, out_dir: Path):
    """The workload called `name`; the heatmap writes its files under
    `out_dir`."""
    cls = WORKLOADS[NAMES.index(name)]
    return cls(out_dir) if cls is Heatmap256 else cls()


def digest(views: list) -> str:
    return hashlib.sha256(json.dumps(views, sort_keys=True).encode()
                          ).hexdigest()
