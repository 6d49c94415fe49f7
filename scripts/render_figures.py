"""Render the parameter-vs-point heatmaps and leading-density profiles.

Produces, under --out-dir, through the `cfdyn` commands that write each
file atomically:
  map_iterate_k1.{pgm,csv}   first-iterate intensity map (mirror-symmetric)
  map_iterate_k3.{pgm,csv}   third-iterate intensity map
  density_classical.csv      discretized leading density at the zero parameter
  density_golden.csv         same at the golden parameter
"""

import argparse
import os
import sys

from cfdyn import cli


def run(argv) -> None:
    """cfdyn with these arguments; a failed command ends the script with
    its exit code."""
    code = cli.main(argv)
    if code:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=256)
    ap.add_argument("--density-grid", type=int, default=128)
    ap.add_argument("--out-dir", default="figures")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for k in (1, 3):
        base = os.path.join(args.out_dir, "map_iterate_k%d" % k)
        run(["heatmap", "--grid", str(args.grid), "--iter", str(k),
             "--out", base + ".pgm"])

    for label, alpha in (("classical", "0"), ("golden", "(1)")):
        path = os.path.join(args.out_dir, "density_%s.csv" % label)
        run(["spectrum", "--alpha", alpha, "--grid", str(args.density_grid),
             "--out", path])


if __name__ == "__main__":
    main()
