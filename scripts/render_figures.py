"""Render the parameter-vs-point heatmaps and leading-density profiles.

Produces, under --out-dir:
  map_iterate_k1.{pgm,csv}   first-iterate intensity map (mirror-symmetric)
  map_iterate_k3.{pgm,csv}   third-iterate intensity map
  density_classical.csv      discretized leading density at the zero parameter
  density_golden.csv         same at the golden parameter
"""

import argparse
import os

from cfdyn import cli
from cfdyn.maps import FIBONACCI_ALPHA, GAUSS_ALPHA
from cfdyn.transfer import gkw_matrix, leading_eigen


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=256)
    ap.add_argument("--density-grid", type=int, default=128)
    ap.add_argument("--out-dir", default="figures")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for k in (1, 3):
        values = cli.heatmap_values(args.grid, k)
        base = os.path.join(args.out_dir, "map_iterate_k%d" % k)
        with open(base + ".pgm", "wb") as fh:
            fh.write(cli.heatmap_pgm(values))
        with open(base + ".csv", "w", newline="") as fh:
            fh.write(cli.heatmap_csv(values, args.grid))
        print("wrote %s.pgm and .csv" % base)

    pairs = (("classical", GAUSS_ALPHA), ("golden", FIBONACCI_ALPHA))
    for label, alpha in pairs:
        matrix = gkw_matrix(alpha, 1.0, args.density_grid)
        lam, density = leading_eigen(matrix)
        path = os.path.join(args.out_dir, "density_%s.csv" % label)
        with open(path, "w", newline="") as fh:
            fh.write(density.csv_text())
        print("wrote %s (leading eigenvalue %.12f)" % (path, lam))


if __name__ == "__main__":
    main()
