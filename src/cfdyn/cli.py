"""Command-line surface: map evaluation, rendering, and verification.

Exit codes: 0 success, 1 verification failure, 2 argument or parse
problem, 3 truncation exhausted, 4 I/O failure, 5 convergence failure.
Output files are written atomically (temp file + rename) so a failed run
never leaves a partial artifact behind.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from ._lazy import lazy_import
from .cf import (ContinuedFraction, ZERO, cf_from_rational, cf_from_text,
                 cf_to_rational, cf_to_text, cf_value, convergents,
                 minkowski_q)
from .errors import (ConvergenceError, DomainError, PrecisionBudgetError,
                     TruncationExhausted)
from .maps import FIBONACCI_ALPHA, jimm, orbit, t_alpha_step
from .lyapunov import BITS_PER_STEP, monte_carlo_lyapunov
from .transfer import (closed_form_density, gkw_matrix, leading_eigen,
                       qmark_pushforward)
from .verify import DENSITY_PAIRS, SUITES, all_passed
from .zeta import zeta_alpha

np = lazy_import("numpy")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_TRUNCATED = 3
EXIT_IO = 4
EXIT_CONVERGENCE = 5

_RATIONAL = re.compile(r"(\d+)\s*/\s*(\d+)\s*([+-]?)")


def parse_point(text: str) -> ContinuedFraction:
    """Parse the expansion grammar shared by --alpha and --x.

    Accepted forms: "0" and "1"; "[0;a,b,(p,q)]" bracket text; "(k,...)"
    for a purely periodic expansion; "p/q", "p/q+", "p/q-" rationals
    (long and short expansion variants, minus when unmarked); and
    "periodic:a,b:(p,q)" as a bracket-free periodic spelling.
    """
    t = text.strip()
    if t == "0":
        return ZERO
    if t == "1":
        return cf_from_rational(Fraction(1))
    if t.startswith("[0;"):
        return cf_from_text(t)
    if t.startswith("periodic:"):
        body = t[len("periodic:"):]
        head_s, sep, per_s = body.rpartition(":")
        if not sep:
            head_s, per_s = "", body
        per_s = per_s.strip()
        if not (per_s.startswith("(") and per_s.endswith(")")):
            raise DomainError(f"expected a (...) period in {text!r}")
        return cf_from_text(f"[0;{head_s + ',' if head_s else ''}{per_s}]")
    if t.startswith("(") and t.endswith(")"):
        return cf_from_text(f"[0;{t}]")
    m = _RATIONAL.fullmatch(t)
    if m:
        p, q, suffix = int(m.group(1)), int(m.group(2)), m.group(3)
        variant = "plus" if suffix == "+" else "minus"
        if q == 0:
            raise DomainError("zero denominator")
        return cf_from_rational(Fraction(p, q), variant=variant)
    raise DomainError(f"cannot parse expansion {text!r}")


def point_text(x: ContinuedFraction) -> str:
    return "0" if x == ZERO else cf_to_text(x)


# characters of a text encoded and written at a time, so a large text is
# never held a second time as one bytes object
_WRITE_CHUNK = 1 << 16


def _atomic_write(*files: tuple[str, bytes | str | Iterable[str]]) -> None:
    """Write each (path, data) pair through a temp file in the path's
    directory, then rename the temp files into place in the order given.

    Every temp file is written before the first rename, and a failed
    rename, or a failure while an iterable is read, unlinks the files
    this call already put in place, so a failed call leaves none of its
    outputs and no temp file behind.  A temp file is created with mode
    0o666 less the umask, the mode a plain open(path, "w") gives, and the
    rename keeps it.  A str, or each str an iterable yields, is written
    as UTF-8, _WRITE_CHUNK characters at a time."""
    staged, placed = [], []
    try:
        for path, data in files:
            directory = os.path.dirname(os.path.abspath(path)) or "."
            tmp = os.path.join(directory, f".tmp-cfdyn-{os.urandom(8).hex()}")
            flags = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
                     | getattr(os, "O_BINARY", 0))
            fd = os.open(tmp, flags, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                if isinstance(data, bytes):
                    fh.write(data)
                else:
                    for text in [data] if isinstance(data, str) else data:
                        for i in range(0, len(text), _WRITE_CHUNK):
                            fh.write(text[i:i + _WRITE_CHUNK].encode())
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        leftovers = [tmp for tmp, path in staged[len(placed):]] + placed
        for name in leftovers:
            try:
                os.unlink(name)
            except OSError:
                pass
        raise


# ---------------------------------------------------------------------------
# heatmap rendering


# (parameter, point) cells stepped as one block, so the state arrays'
# memory stays bounded at any grid size
_BLOCK_CELLS = 8192

# side of the subgrid that every heatmap recomputes through the exact map;
# it covers the whole of the smallest (16-by-16) grid
_CHECK_SIDE = 16

# the largest heatmap side: a grid holds side**2 cells, and its CSV text
# about 40 bytes per cell
GRID_MAX = 2048


def _grid_digits(n: int, variant: str) -> np.ndarray:
    """Digits of the midpoints (2j+1)/2n, row j, from `cf_from_rational`.

    Digits are >= 1, so 0 marks the end of a row; every row ends in at
    least one 0 column."""
    rows = [cf_from_rational(2 * j + 1, 2 * n, variant=variant).head
            for j in range(n)]
    width = 1 + max(map(len, rows))
    return np.array([row + (0,) * (width - len(row)) for row in rows], np.int32)


class _SuffixTable:
    """Every suffix of every row of a `_grid_digits` array, with an index
    of their longest common prefixes.

    Suffix (r, o) is row r from digit o on, zero-padded to the row width.
    `length[r, o]` is its digit count and `P[r, o]`/`Q[r, o]` the exact
    [0; suffix] from the backward recurrence.  `pos[r, o]` is its position
    in the lexicographic order of all suffixes (duplicates keep one
    position each).  The longest common prefix of two suffixes is the
    minimum of the adjacent LCPs between their positions (Manber & Myers,
    SIAM J. Comput. 22, 1993), read in O(1) from a sparse table of range
    minima (Bender & Farach-Colton, LATIN 2000)."""

    def __init__(self, grid: np.ndarray) -> None:
        n, w = grid.shape
        self.digits, self.width = grid, w
        padded = np.concatenate([grid, np.zeros_like(grid)], axis=1)
        offsets = np.arange(w)
        suffixes = padded[:, offsets[:, None] + offsets].reshape(n * w, w)
        order = np.lexsort(suffixes.T[::-1])
        rank = np.empty(n * w, np.int32)
        rank[order] = np.arange(n * w, dtype=np.int32)
        self.pos = rank.reshape(n, w)
        self.length = np.maximum(
            np.count_nonzero(grid, axis=1)[:, None] - offsets, 0)

        p, q = np.zeros(n, np.int64), np.ones(n, np.int64)
        self.P, self.Q = np.empty((n, w), np.int64), np.empty((n, w), np.int64)
        for o in range(w - 1, -1, -1):
            d = grid[:, o]
            live = d > 0
            p, q = np.where(live, q, 0), np.where(live, d * q + p, 1)
            self.P[:, o], self.Q[:, o] = p, q

        # lcp[j] is the LCP of the suffixes at positions j and j + 1, and
        # row h of the sparse table the minimum of 2^h adjacent entries
        ranked = suffixes[order]
        differ = ranked[1:] != ranked[:-1]
        lcp = np.where(differ.any(axis=1), differ.argmax(axis=1), w)
        levels, span = [lcp.astype(np.int32)], 1
        while 2 * span <= len(lcp):
            levels.append(np.minimum(levels[-1][:-span], levels[-1][span:]))
            span *= 2
        # one column per position, so u == v at the last one stays in range
        self.rmq = np.full((len(levels), n * w), w, np.int32)
        for h, level in enumerate(levels):
            self.rmq[h, :len(level)] = level
        # floor(log2 m) for every range length m >= 1
        self.log2 = (np.frexp(np.arange(n * w))[1] - 1).astype(np.int32)

    def lcp(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Longest common prefix of the zero-padded suffixes at positions
        u and v; `width` when they are equal."""
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        h = self.log2[np.maximum(hi - lo, 1)]
        got = np.minimum(self.rmq[h, lo], self.rmq[h, hi - (1 << h)])
        return np.where(u == v, self.width, got)

    def step(self, alpha: np.ndarray, f: np.ndarray, o: np.ndarray):
        """One map step of the states (f, o) under the parameter rows
        alpha (a column of row indices); column x holds the point of row x.

        A state is the point [0; f, suffix (x, o)], or 0 where f is 0.  The
        rule is `t_alpha_step`'s digit comparison: at the first index i
        where the state and the parameter differ or the state has ended,
        the state ending gives 0, the parameter ending or a smaller digit
        of the state drops i+1 digits, and a larger digit b against a
        drops i digits and sets the new first digit to b-a.  Parameter
        digits past the first are the suffix (alpha, 1), so i is 0 where f
        differs from the parameter's first digit and otherwise 1 + min(LCP,
        length of the state's suffix).  o is always 1 or more, so i stays
        inside the parameter's row."""
        w = self.width
        row = np.arange(f.shape[1]) * w  # flat index of each point's row
        at = row + o
        head = self.digits[alpha, 0]
        common = np.minimum(self.lcp(self.pos[alpha, 1], self.pos.take(at)),
                            self.length.take(at))
        i = np.where(f == head, 1 + common, 0)
        a = self.digits.take(alpha * w + i)
        b = np.where(i == 0, f, self.digits.take(at + i - 1))
        reduce = (b > a) & (a > 0)
        # o + i is the offset of the state's digit i+1; the last column is
        # 0 in every row, so clipping there reaches the empty suffix
        nxt = np.minimum(o + i, w - 1)
        f = np.where(b == 0, 0, np.where(reduce, b - a, self.digits.take(row + nxt)))
        return f, np.minimum(nxt + 1 - reduce, w - 1)

    def values(self, f: np.ndarray, o: np.ndarray) -> np.ndarray:
        """Values Q / (f Q + P) of the states, 0.0 where f is 0."""
        at = np.arange(f.shape[1]) * self.width + o
        q, live = self.Q.take(at), f > 0
        return np.where(live, q, 0) / np.where(live, f * q + self.P.take(at), 1)


def _check_cells(values: np.ndarray, n: int, k: int, variant: str) -> None:
    """Recompute a _CHECK_SIDE-square subgrid, both ends included, with
    the exact map (`cf_from_rational`, `t_alpha_step` up to k times or
    until 0, `cf_value`) and raise if a digit-array value differs in
    any bit."""
    idx = np.linspace(0, n - 1, _CHECK_SIDE).round().astype(np.int64).tolist()
    points = {j: cf_from_rational(Fraction(2 * j + 1, 2 * n), variant=variant)
              for j in idx}
    for i in idx:
        for j in idx:
            y = points[j]
            for _ in range(k):
                y = t_alpha_step(points[i], y)
                if y == ZERO:
                    break
            exact = cf_value(y)[0]
            if exact != values[i, j]:
                raise RuntimeError(
                    f"digit-array heatmap gives {values[i, j]!r} at cell "
                    f"({i}, {j}) of grid {n}, k={k}; the map gives {exact!r}")


def heatmap_values(n: int, k: int, variant: str = "minus") -> np.ndarray:
    """T^k values on the n-by-n midpoint grid; entry [i, j] is the value
    at alpha = (2i+1)/2n, x = (2j+1)/2n, both exact dyadic expansions.

    Every iterate of a grid point is a suffix of its own digit row with
    at most the first digit rewritten, so a cell's state is two small
    integers: f, the first digit (0 for the point 0), and o, the offset
    of the remaining digits in the point's row of the `_SuffixTable`.  A
    step compares the state with the parameter through one O(1)
    range-minimum LCP query, then strips or reduces by the map's rule.
    Blocks of parameter rows step all n points at once and stop once
    every state in the block is 0, which each reaches within its digit
    sum.  The value Q / (f Q + P), with P/Q = [0; remaining digits], is
    the coprime pair that `cf_value` divides, both below 2^53, so every
    value is the same correctly rounded float.  A 16-by-16 subgrid (the
    whole grid at n = 16) is then recomputed point by point through
    `t_alpha_step` and must agree bit for bit.  A side past GRID_MAX
    raises PrecisionBudgetError before anything is allocated."""
    if n < 16:
        raise DomainError("grid size must be >= 16")
    if n > GRID_MAX:
        raise PrecisionBudgetError(
            f"grid size {n} is more than GRID_MAX = {GRID_MAX}")
    if k < 1:
        raise DomainError("iterate count must be >= 1")
    if variant not in ("minus", "plus"):
        raise DomainError(f"unknown variant {variant!r}")
    table = _SuffixTable(_grid_digits(n, variant))
    block = max(1, _BLOCK_CELLS // n)
    values = np.empty((n, n))
    for start in range(0, n, block):
        alpha = np.arange(start, min(start + block, n))[:, None]
        f = np.broadcast_to(table.digits[:, 0], (len(alpha), n))
        o = np.ones_like(f)
        for _ in range(k):
            if not f.any():
                break
            f, o = table.step(alpha, f, o)
        values[start:start + block] = table.values(f, o)
    _check_cells(values, n, k, variant)
    return values


def heatmap_pgm(values: np.ndarray) -> bytes:
    """8-bit PGM: columns follow the parameter, rows run top-down from
    x near 1 to x near 0, intensity round(255 * value)."""
    n = values.shape[0]
    pixels = np.minimum(255, (255.0 * values + 0.5).astype(np.int64))
    return (f"P5\n{n} {n}\n255\n".encode()
            + pixels.T[::-1].astype(np.uint8).tobytes())


def heatmap_csv(values: np.ndarray, n: int) -> Iterator[str]:
    """CSV text of an n-by-n `heatmap_values` grid, as the header and
    then one piece per alpha; `"".join` gives the whole text.

    A header `alpha,x,value`, then one row per cell: rows follow alpha
    and, within one alpha, x varies fastest.  Coordinates are the
    midpoints (2i+1)/2n and every number is printed as `.17g`; lines end
    in CRLF, the last one too.  The shape is checked here, at the call;
    the pieces are built as they are read, so the whole text is never
    held at once.  A grid holds far fewer distinct (x, value) pairs than
    cells (2990 of 65 536 at n = 256, k = 1), so each column keeps a dict
    from value to its "x,value" text, formatted once, and one join over
    a list of each cell's shared pieces builds an alpha's piece with no
    string per row.  Values are keyed on float equality, under which
    -0.0 and 0.0 are one key; the map's values are p/q with p >= 0 and
    never -0.0."""
    if values.shape != (n, n):
        raise DomainError(f"values of shape {values.shape} are not a "
                          f"{n}-by-{n} grid")
    return _csv_pieces(values, n)


def _csv_pieces(values: np.ndarray, n: int) -> Iterator[str]:
    """The pieces `heatmap_csv` returns."""
    yield "alpha,x,value\r\n"
    coords = [f"{(2 * i + 1) / (2 * n):.17g}" for i in range(n)]
    columns = [{} for _ in range(n)]
    # each cell's "alpha," prefix, its text and CRLF
    parts = ["\r\n"] * (3 * n)
    for a, row in zip(coords, values):
        parts[0::3] = [a + ","] * n
        parts[1::3] = [text.get(v) or text.setdefault(v, f"{x},{v:.17g}")
                       for text, x, v in zip(columns, coords, row.tolist())]
        yield "".join(parts)


# ---------------------------------------------------------------------------
# subcommands


def cmd_cf(args) -> int:
    x = parse_point(args.x)
    v, err = cf_value(x, depth=40 if args.depth is None else args.depth)
    print(f"{point_text(x)} {v!r}")
    if args.depth is not None:
        for idx, m in enumerate(convergents(x, args.depth), start=1):
            print(f"{idx} {m.a}/{m.c} {m.a / m.c!r}")
    return EXIT_OK


def cmd_map_eval(args) -> int:
    if args.iter < 0:
        raise DomainError("--iter must be >= 0")
    alpha = parse_point(args.alpha)
    y = parse_point(args.x)
    for _ in range(args.iter):
        y = t_alpha_step(alpha, y)
    if y == ZERO:
        print("0")
    else:
        print(f"{cf_to_text(y)} {cf_value(y)[0]!r}")
    return EXIT_OK


def cmd_orbit(args) -> int:
    alpha = parse_point(args.alpha)
    x = parse_point(args.x)
    rec = orbit(alpha, x, args.iter)
    for i, (state, value) in enumerate(zip(rec.states, rec.shadow)):
        print(f"{i} {point_text(state)} {value!r}")
    if rec.exhausted:
        print(f"# stopped: only {rec.steps} steps settled", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_jimm(args) -> int:
    x = parse_point(args.x)
    print(point_text(jimm(x)))
    return EXIT_OK


def cmd_qmark(args) -> int:
    x = parse_point(args.x)
    if args.alpha is not None:
        got = qmark_pushforward(parse_point(args.alpha), cf_to_rational(x))
        print(f"{got.value} uncovered {got.tail}")
    else:
        print(minkowski_q(x))
    return EXIT_OK


def cmd_heatmap(args) -> int:
    if args.out is None:
        raise DomainError("heatmap needs --out")
    if args.jobs < 1:
        raise DomainError("need at least one job")
    base = args.out[:-4] if args.out.endswith(".pgm") else args.out
    values = heatmap_values(args.grid, args.iter, args.variant)
    # the CSV is renamed first: a failed PGM rename then removes it again
    _atomic_write((base + ".csv", heatmap_csv(values, args.grid)),
                  (base + ".pgm", heatmap_pgm(values)))
    print(f"wrote {base}.pgm and {base}.csv")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    alpha = parse_point(args.alpha)
    lam, dens = leading_eigen(gkw_matrix(alpha, args.s, args.grid))
    print(f"lambda {lam!r}")
    closed = _matching_density(alpha, args.s)
    if closed is not None:
        label, psi = closed
        nodes = dens.nodes
        window = nodes >= (0.1 if label != "classical" else 0.0)
        ref = np.array([float(psi(float(y))) for y in nodes[window]])
        mine = dens.values[window]
        if label == "classical":
            scale = 1.0  # both sides carry unit mass already
        else:
            # non-integrable densities are compared as shapes
            scale = float(np.dot(mine, ref) / np.dot(ref, ref))
        sup = float(np.max(np.abs(mine - scale * ref)))
        print(f"sup-distance {sup!r} against the {label} closed form")
    if args.out:
        _atomic_write((args.out, dens.csv_text()))
        print(f"wrote {args.out}")
    return EXIT_OK


def _matching_density(alpha: ContinuedFraction, s: float):
    if s != 1.0:
        return None
    for label, known, which, k in DENSITY_PAIRS:
        if alpha == known:
            return label, closed_form_density(which, K=k)
    return None


def cmd_verify(args) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise DomainError("--tol must be a finite number >= 0")
    names = [args.suite] if args.suite else list(SUITES)
    report = {"suites": {}, "passed": True}
    for name in names:
        if name in ("densities", "equations", "zeta") and args.tol is not None:
            checks = SUITES[name](tol=args.tol)
        else:
            checks = SUITES[name]()
        report["suites"][name] = [c.as_dict() for c in checks]
        report["passed"] = report["passed"] and all_passed(checks)
    text = json.dumps(report, indent=2)
    if args.out:
        _atomic_write((args.out, text + "\n"))
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def cmd_lyapunov(args) -> int:
    alpha = parse_point(args.alpha)
    steps = args.steps
    if steps is None:
        # the golden-parameter member mixes slowly; double the default
        steps = 4000 if alpha == FIBONACCI_ALPHA else 2000
    bits = BITS_PER_STEP * steps if args.bits is None else args.bits
    est = monte_carlo_lyapunov(alpha, args.samples, steps, bits=bits,
                               seed=args.seed, method=args.method)
    payload = {
        "alpha": point_text(alpha),
        "method": est.method,
        "mean": est.value,
        "stderr": est.stderr,
        "n_samples": est.n_samples,
        "n_steps": est.n_steps,
        "bits": bits,
        "seed": args.seed,
        "discarded_samples": est.discarded,
    }
    text = json.dumps(payload)
    if args.out:
        _atomic_write((args.out, text + "\n"))
    print(text)
    return EXIT_OK


def cmd_zeta(args) -> int:
    import csv

    alpha = parse_point(args.alpha)
    got = zeta_alpha(alpha, args.s, args.t, args.y)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["alpha", "s", "t", "y", "value", "tail"])
    writer.writerow([point_text(alpha), f"{args.s:.17g}", f"{args.t:.17g}",
                     f"{args.y:.17g}", f"{got.value:.17g}", f"{got.tail:.17g}"])
    text = buf.getvalue()
    if args.out:
        _atomic_write((args.out, text))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cfdyn",
        description="Interval-map family toolkit: evaluation, spectra, "
                    "rendering, verification.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="print an expansion and its value")
    p.add_argument("--x", required=True)
    p.add_argument("--depth", type=int, default=None,
                   help="also print this many convergents")
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("map-eval", help="apply the map n times")
    p.add_argument("--alpha", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--iter", type=int, default=1)
    p.set_defaults(fn=cmd_map_eval)

    p = sub.add_parser("orbit", help="print an orbit with shadow values")
    p.add_argument("--alpha", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--iter", type=int, default=10)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("heatmap", help="render T^k on a dyadic grid")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--iter", type=int, default=1)
    p.add_argument("--variant", choices=("minus", "plus"), default="minus")
    p.add_argument("--out", required=True, help="output base or .pgm path")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; the grid is computed "
                        "in one process")
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("jimm", help="apply the digit-rewrite involution")
    p.add_argument("--x", required=True)
    p.set_defaults(fn=cmd_jimm)

    p = sub.add_parser("qmark", help="singular-law values and pushforwards")
    p.add_argument("--x", required=True)
    p.add_argument("--alpha", default=None,
                   help="accumulate the branch-image law instead")
    p.set_defaults(fn=cmd_qmark)

    p = sub.add_parser("spectrum", help="leading eigenpair of the grid operator")
    p.add_argument("--alpha", required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--out", default=None, help="density CSV path")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=sorted(SUITES), default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="override the fixed part of the bounds")
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lyapunov", help="Monte Carlo exponent estimate")
    p.add_argument("--alpha", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--steps", type=int, default=None,
                   help="default 2000, or 4000 for the golden parameter")
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("deriv_sum", "qn_growth"),
                   default="deriv_sum")
    p.add_argument("--out", default=None, help="also write the JSON here")
    p.set_defaults(fn=cmd_lyapunov)

    p = sub.add_parser("zeta", help="branch-weighted power sum as CSV")
    p.add_argument("--alpha", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--y", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_zeta)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, PrecisionBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TruncationExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATED
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
