"""Span tracing at cfdyn's module boundaries, from outside the package.

`Tracer.install` replaces each traced public function, wherever a cfdyn
module holds it as a global name, with a wrapper that records a span:
its name, start, end and the span that called it.  Calls made through
those names are caught whether they cross a module boundary
(`lyapunov` -> `maps.orbit`) or stay inside one (`cli.cmd_heatmap` ->
`cli.heatmap_values`).  `uninstall` puts the original functions back, so
untraced rounds run the program exactly as shipped.

A heatmap round makes over a million traced calls, so spans are folded
into per-function and per-edge totals as they close; only the first
`RAW_SPANS` are kept verbatim for the trace file.
"""

from __future__ import annotations

import functools
import time

RAW_SPANS = 20_000

# module -> public functions to wrap; metric names are "<module>.<function>"
TRACED = {
    "cf": ("cf_from_rational", "cf_value", "drop_digits",
           "replace_first_digit", "minkowski_q"),
    "maps": ("orbit", "t_alpha_step", "jimm"),
    "lyapunov": ("lyapunov_orbit",),
    "transfer": ("gkw_matrix", "leading_eigen", "apply_transfer",
                 "qmark_pushforward"),
    "series": ("power_tail", "hurwitz_sum"),
    "zeta": ("hurwitz_zeta", "fib_hurwitz"),
    "verify": ("suite_densities", "suite_equations", "suite_conjugacy",
               "suite_qmark", "suite_zeta"),
    "cli": ("heatmap_values", "heatmap_pgm", "heatmap_csv"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# quantities read off a traced call's result: name -> (span, fold, reader)
QUANTITIES = {
    "maps.orbit.steps": ("maps.orbit", "sum", lambda r: r.steps),
    "cf.cf_from_rational.digits": ("cf.cf_from_rational", "sum",
                                   lambda r: len(r.head)),
    "transfer.apply_transfer.tail_max": ("transfer.apply_transfer", "max",
                                         lambda r: r.tail),
}

ROOT = "benchmark"


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # cfdyn module objects by short name
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.edges: dict = {}
        self.quantities = {name: 0 for name in QUANTITIES}
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._patched: list = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        edges, stack, spans = self.edges, self._stack, self.spans
        readers = [(q, fold, read) for q, (span, fold, read)
                   in QUANTITIES.items() if span == name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [name, 0.0, self._next_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                key = (parent[0] if parent else ROOT, name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
                if len(spans) < RAW_SPANS:
                    spans.append((frame[2], parent[2] if parent else 0,
                                  name, start, end))
            for q, fold, read in readers:
                v = read(result)
                if fold == "sum":
                    self.quantities[q] += v
                else:
                    self.quantities[q] = max(self.quantities[q], v)
            return result

        return traced

    def install(self) -> None:
        originals = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                original = getattr(self.modules[mod], fn)
                originals[id(original)] = (original,
                                           self._wrap(f"{mod}.{fn}", original))
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def per_round(self, rounds: int) -> dict:
        """Per-layer metrics averaged over `rounds` traced rounds."""
        def share(v):
            return v // rounds if isinstance(v, int) and v % rounds == 0 \
                else v / rounds

        out = {}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = (share(calls), "count")
            out[f"{name}.total_s"] = (total / rounds, "s")
            out[f"{name}.self_s"] = (own / rounds, "s")
        for q, (_, fold, _) in QUANTITIES.items():
            v = self.quantities[q]
            out[q] = (share(v) if fold == "sum" else v,
                      "count" if fold == "sum" else "1")
        return out

    def dump(self) -> dict:
        return {
            "functions": {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, (c, t, s) in self.stats.items() if c},
            "edges": [{"parent": p, "child": c, "calls": n, "total_s": t}
                      for (p, c), (n, t) in sorted(self.edges.items())],
            "spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                      for i, p, n, s, e in self.spans],
        }
