"""Observable-distance decay of growing product families toward the point space.

Computes the observable distance from each space in a family to the
one-point space, a closed form with no search, and reports the distance
sequence with its trend verdict.
Growing hamming cubes are the default family; a biased product alphabet is
available for contrast.

Usage:
    python3 scripts/obs_convergence.py --dims 2 4 6 8 10
    python3 scripts/obs_convergence.py --family product --base 0.2 0.8 --dims 2 4 6
"""

import argparse

import numpy as np

from mmlab.generators import hamming_cube, product_space
from mmlab.observable import levy_convergence_test


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=("cube", "product"), default="cube")
    ap.add_argument("--base", type=float, nargs="+", default=[0.5, 0.5])
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 4, 6, 8, 10])
    args = ap.parse_args()

    if args.family == "cube":
        spaces = [hamming_cube(n) for n in args.dims]
    else:
        spaces = [product_space(args.base, n) for n in args.dims]

    res = levy_convergence_test(spaces)
    for n, d in zip(args.dims, res.dists):
        print(f"n={n:2d}  upper={d:.6f}")
    print(f"trend non-increasing within slack {res.slack}:",
          res.decreasing_trend)
    print("deltas:", np.round(np.diff(res.dists), 6).tolist())


if __name__ == "__main__":
    main()
