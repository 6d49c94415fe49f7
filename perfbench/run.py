"""Run one cfdyn benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload mc-orbits --seed 1 --seconds 28 --trace 0

Run from anywhere; the program is imported from the checkout's `src/`.
The run repeats whole rounds of the workload's fixed batch of
operations for about `--seconds` seconds, in this one process and one
thread.  Before the rounds it times `SETUPS` cold set-ups, each in
a fresh interpreter started one at a time (`--setup-only`), from the
moment it is started until cfdyn is imported and the workload's inputs
are generated; then it sets up once itself.  The outputs of the first
round are checked against independent computations; later rounds must
reproduce them.

`--trace 0` reports the end-to-end metrics: setup_s (median cold set-up),
solve_s and peak_rss_mb.  solve_s is the batch's wall time, summed over
its operations from each operation's median over the rounds, so that a
burst of load from outside the process moves one sample of one
operation, not a whole round.  `--trace 1` alternates untraced and
traced rounds and reports the per-layer metrics, per round, with the
tracing overhead.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; a fuller record and the
trace go to perfbench/results/.
"""

from __future__ import annotations

import os

# one thread: no BLAS pool behind numpy's matrix products
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUPS = 5
MODULES = ("cf", "maps", "lyapunov", "transfer", "series", "zeta", "verify",
           "cli")

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


def set_up(workload, seed: int):
    """(cfdyn modules by short name, inputs): cfdyn and all its modules
    imported, then the workload's inputs generated."""
    m = argparse.Namespace(cfdyn=importlib.import_module("cfdyn"))
    for name in MODULES:
        setattr(m, name, importlib.import_module(f"cfdyn.{name}"))
    return m, workload.make_inputs(seed, m)


def cold_set_up(args) -> float:
    """Seconds from starting a fresh interpreter on this script until it
    has set up; the child reports when it got there on CLOCK_MONOTONIC,
    which all processes share."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def run_round(ops: list, errors: list) -> tuple[dict, dict, int]:
    """(seconds by key, outputs by key, failed count)."""
    times = {}
    outputs = {}
    failed = 0
    for key, call, post in ops:
        start = time.perf_counter()
        try:
            result = call()
        except Exception:  # one failed operation must not end the run
            times[key] = time.perf_counter() - start
            failed += 1
            outputs[key] = None
            if len(errors) < 5:
                errors.append(f"{key}: {traceback.format_exc()}")
            continue
        times[key] = time.perf_counter() - start
        outputs[key] = post(result)
    return times, outputs, failed


def batch_seconds(rounds: list) -> float:
    """Sum over operations of each one's median time over `rounds`."""
    return sum(statistics.median(r[key] for r in rounds) for key in rounds[0])


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the CLOCK_MONOTONIC time and exit "
                         "(the timed child of a run)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "cfdyn" / "__init__.py").is_file():
        print(f"error: no cfdyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out_dir = RESULTS / f"heatmap-{os.getpid()}"
    workload = workloads.make(args.workload, out_dir)
    if args.setup_only:
        set_up(workload, args.seed)
        print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
        return 0
    try:
        return measure(workload, args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(workload, args, out_dir: Path) -> int:
    setups = [cold_set_up(args) for _ in range(SETUPS)]
    m, inputs = set_up(workload, args.seed)
    ops = workload.operations(inputs, m)

    tracer = spans.Tracer(vars(m)) if args.trace else None
    errors: list = []
    plain, traced = [], []
    attempted = failed = 0
    first = None
    mismatched = 0
    began = time.perf_counter()
    while True:
        # traced runs alternate plain and traced rounds, plain first
        tracing_now = tracer is not None and len(plain) > len(traced)
        if tracing_now:
            tracer.install()
        try:
            times, outputs, nfail = run_round(ops, errors)
        finally:
            if tracing_now:
                tracer.uninstall()
        (traced if tracing_now else plain).append(times)
        attempted += len(ops)
        failed += nfail
        views = {k: (None if v is None else workload.view(v))
                 for k, v in outputs.items()}
        if first is None:
            first = (outputs, views)
        elif views != first[1]:
            mismatched += 1
        elapsed = time.perf_counter() - began
        longest = max(sum(r.values()) for r in plain + traced)
        if elapsed + longest > args.seconds and (tracer is None or traced):
            break

    # read before checking, so the checks' own memory is not counted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.check(inputs, first[0], m)
    if mismatched:
        problems.append(f"{mismatched} later rounds gave other outputs than "
                        "the first")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (batch_seconds(plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.per_round(len(traced))
        metrics["maps.orbit.peak_mb"] = (0.0, "MB")
        if hasattr(workload, "memory_probe"):
            metrics.update(workload.memory_probe(inputs, m))
        metrics["trace.solve_s"] = (batch_seconds(traced), "s")
        metrics["trace.overhead_s"] = (batch_seconds(traced)
                                       - batch_seconds(plain), "s")

    import numpy
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__,
                "cpu_count": os.cpu_count(),
                "git_sha": git_sha()},
        "setup_samples_s": setups,
        "round_s": [sum(r.values()) for r in plain],
        "op_s": plain,
        "traced_round_s": [sum(r.values()) for r in traced],
        "ops_per_round": len(ops),
        "problems": problems,
        "errors": errors,
        # for reference only: later changes may rightly move float digits
        "output_digest": workloads.digest(sorted(first[1].items())),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        Path(f"{stem}.trace.json").write_text(json.dumps(tracer.dump()))
    for line in problems[:20] + errors:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
