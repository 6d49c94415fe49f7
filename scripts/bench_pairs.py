"""Alternating benchmark pairs between two checkouts.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload mc-orbits --seeds 11-20

For each seed of the inclusive range N-M, the script runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in
each directory, with that directory's own harness and sources, one run
at a time.  The side that runs first flips with each seed, because the
machine's speed drifts over tens of seconds and only pairs run side by
side compare.

Each finished pair is printed as one JSON line.  The last line is the
summary: for every end-to-end metric, both sides' medians, the parent's
(first directory's) quartiles and interquartile range, and in how many
pairs the change (second directory) read lower.  Against the metric's
entry in the parent's `BENCHMARK.json` it also gives:

- `relative_change`: (change median - parent median) / parent median;
- `past_bound`: that change is worse, in the metric's `better`
  direction, by more than the metric's `bound`;
- `claim_met`: a gain may be claimed.  At least ten pairs ran, the
  change read better in at least nine tenths of all pairs (ties and
  failed pairs count for neither), and its median is better than the
  parent's by more than the parent's interquartile range.

The exit code is 1 if a run failed or reported `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    """'N-M' (inclusive) or 'N' as a list of seeds."""
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N-M, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one run in the checkout at root, or an error."""
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        return {"correct": False, "error": done.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def end_to_end_specs(root: Path) -> dict:
    """The end-to-end metric entries of root's BENCHMARK.json, by name."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def summarise(pairs: list[dict], specs: dict) -> dict:
    """Per metric: medians, the parent's quartiles and interquartile
    range, the pairs where the change read lower, and the relative
    change, bound and claim checks against `specs` (see the module
    docstring).  A metric with no spec is taken as lower-better with no
    bound; its `past_bound`, like any relative change to a zero parent
    median, is None."""
    ok = [p for p in pairs if p["parent"]["correct"] and p["change"]["correct"]]
    metrics = [k for k in ok[0]["parent"] if k not in ("correct", "failed")] \
        if ok else []
    out = {}
    for name in metrics:
        spec = specs.get(name, {})
        sign = -1 if spec.get("better") == "higher" else 1  # > 0: worse
        a = [p["parent"][name] for p in ok]
        b = [p["change"][name] for p in ok]
        q1, q3 = quartiles(a)
        lower = sum(y < x for x, y in zip(a, b))
        better = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        parent, change = statistics.median(a), statistics.median(b)
        relative = (change - parent) / parent if parent else None
        past_bound = (None if relative is None or "bound" not in spec
                      else sign * relative > spec["bound"])
        out[name] = {
            "parent_median": parent,
            "change_median": change,
            "parent_quartiles": [q1, q3],
            "parent_iqr": q3 - q1,
            "lower_in": f"{lower} of {len(ok)}",
            "relative_change": relative,
            "past_bound": past_bound,
            "claim_met": (len(pairs) >= 10 and better >= 0.9 * len(pairs)
                          and sign * (parent - change) > q3 - q1),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout run as the baseline")
    ap.add_argument("change", type=Path, help="checkout run as the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="inclusive range N-M, or one seed N")
    ap.add_argument("--seconds", type=float, default=28.0,
                    help="run length of each run (default 28)")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, root in sides.items():
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{name} directory {root} has no perfbench/run.py")
    if not (sides["parent"] / "BENCHMARK.json").is_file():
        ap.error(f"parent directory {sides['parent']} has no BENCHMARK.json")
    specs = end_to_end_specs(sides["parent"])

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "first": order[0]}
        for name in order:
            pair[name] = run_once(sides[name], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(json.dumps(pair), flush=True)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "pairs": len(pairs),
                      "metrics": summarise(pairs, specs)}))
    bad = any(not p[s]["correct"] or p[s].get("failed")
              for p in pairs for s in sides)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
