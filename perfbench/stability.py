"""Check that the benchmark is steady: two sets of runs of one commit.

    python3 perfbench/stability.py

Runs `run.py` once per seed, one run at a time, in two sets of ten runs
for every workload (set k uses seeds k*1000+1 ... k*1000+10), with the
command and run length named in BENCHMARK.json.  For each workload and
end-to-end metric it prints each set's median, quartiles and spread
(quartile distance over median), then whether the sets agree: both
spreads within the metric's bound, set 2's median within the bound of
set 1's in either direction, and the same share of failed operations in
both sets.  Exits 1 when any of that fails.  A summary goes to
perfbench/results/stability.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for k in range(1, SETS + 1):
            results = [one_run(spec, workload, k * 1000 + r)
                       for r in range(1, RUNS + 1)]
            sets.append(results)
            print(f"{workload}: set {k} done", file=sys.stderr, flush=True)
        shares = {(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))
                  for s in sets}
        fail_share = {f / a for f, a in shares}
        correct = all(r["correct"] for s in sets for r in s)
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [summary([r["metrics"][name]["value"] for r in s])
                       for s in sets]
            base = per_set[0]["median"]
            ok = all(abs(p["median"] / base - 1) <= bound
                     and p["spread"] <= bound for p in per_set)
            rows[name] = {"bound": bound, "sets": per_set, "agree": ok}
            steady = steady and ok
            for k, p in enumerate(per_set, start=1):
                print(f"{workload:13s} {name:12s} set {k}: median "
                      f"{p['median']:.6g} {metric['unit']}  quartiles "
                      f"[{p['q1']:.6g}, {p['q3']:.6g}]  spread "
                      f"{p['spread']:.4f} (bound {bound})")
            print(f"{workload:13s} {name:12s} agree: {ok}")
        same_share = len(fail_share) == 1
        steady = steady and same_share and correct
        print(f"{workload:13s} failed share per set: {sorted(fail_share)}  "
              f"all correct: {correct}")
        report[workload] = {"metrics": rows, "fail_share_equal": same_share,
                            "correct": correct}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "stability.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(f"steady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
