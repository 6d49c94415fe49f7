"""Orbit-average decay study at the golden parameter.

The first branch of the golden-parameter map fixes 0 with unit derivative,
and the invariant density 1/(y(1+y)) carries infinite mass near 0, so
almost every orbit spends ever longer stretches crawling away from the
neutral point: the time average of log|T'| drains toward 0 roughly like
C/log n rather than settling at a positive constant. This script tabulates
the Monte Carlo mean against the step count to exhibit that decay; the
final column should stay roughly flat once n is large.
"""

import argparse
import math

from cfdyn.lyapunov import monte_carlo_lyapunov
from cfdyn.maps import FIBONACCI_ALPHA


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--steps", type=int, nargs="+",
                    default=[250, 500, 1000, 2000, 4000, 8000, 16000])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print("%8s  %10s  %10s  %14s" % ("steps", "mean", "stderr",
                                     "mean * log(n)"))
    for n in args.steps:
        est = monte_carlo_lyapunov(FIBONACCI_ALPHA, args.samples, n,
                                   seed=args.seed)
        print("%8d  %10.4f  %10.4f  %14.4f"
              % (n, est.value, est.stderr, est.value * math.log(n)))


if __name__ == "__main__":
    main()
