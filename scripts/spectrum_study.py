"""Refinement study for the discretized transfer operator at s=1.

Tabulates, for the classical parameter, the leading-eigenvalue error and
the sup-distance between the computed eigenvector and the closed-form
invariant density as the collocation grid is refined. Both columns should
shrink at each step.
"""

import argparse

import numpy as np

from cfdyn.maps import GAUSS_ALPHA
from cfdyn.transfer import closed_form_density, gkw_matrix, leading_eigen


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[32, 64, 128, 256, 512, 1024])
    args = ap.parse_args()

    reference = closed_form_density("gauss")
    print("%6s  %14s  %14s" % ("n", "|lambda - 1|", "sup-error"))
    for n in args.sizes:
        lam, density = leading_eigen(gkw_matrix(GAUSS_ALPHA, 1.0, n))
        sup = float(np.max(np.abs(density.values - reference(density.nodes))))
        print("%6d  %14.5e  %14.5e" % (n, abs(lam - 1.0), sup))


if __name__ == "__main__":
    main()
