"""Exact concentration curves for hamming cubes, plus the gaussian decay fit.

Writes one CSV per dimension (consumable by `mmlab fit` / `mmlab levy`) and
prints the fitted decay law.  Harper's closed form makes each value a
binomial sum, so n up to the 24 cap is cheap.

Usage:
    python3 scripts/cube_curves.py --min-n 4 --max-n 12 --out-dir curves/
"""

import argparse
import json
import pathlib

import numpy as np

from mmlab.concentration import gaussian_fit, hamming_cube_curve


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--eps-start", type=float, default=0.1)
    ap.add_argument("--eps-stop", type=float, default=0.5)
    ap.add_argument("--eps-count", type=int, default=5)
    ap.add_argument("--out-dir", default="cube_curves")
    args = ap.parse_args()

    grid = np.linspace(args.eps_start, args.eps_stop, args.eps_count)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    indexed = []
    for n in range(args.min_n, args.max_n + 1):
        curve = hamming_cube_curve(n, grid)
        path = out / f"cube_{n:02d}.csv"
        path.write_text(curve.to_csv_text(), encoding="utf-8")
        indexed.append((n, curve))
        print(f"n={n:2d}  alpha: {np.round(curve.alpha, 6).tolist()}")

    fit = gaussian_fit(indexed)
    print(json.dumps({"c1": fit.c1, "c2": fit.c2, "residual": fit.residual},
                     sort_keys=True))
    print(f"wrote {len(indexed)} curves to {out}/")


if __name__ == "__main__":
    main()
