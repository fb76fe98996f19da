"""Recompute the frozen constants in toeplitz_forge.constants.

Runs the exact/extended-precision sweeps over the calibration domains and
prints a block ready to paste into constants.py. Takes a few minutes.
"""

import argparse
import sys
import time
from pathlib import Path

# this checkout's package, from any working directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from toeplitz_forge.combinatorics import calibrate_easy_sum, calibrate_hard_sum
from toeplitz_forge import function_spaces as fs
from toeplitz_forge.series import PowerSeries


def random_poly_symbol(rng, domain, r, R, m, K=4, degree=2, order=4):
    coeffs = []
    for _ in range(K + 1):
        s = PowerSeries.zero(1, order)
        s.coeffs[: degree + 1] = rng.uniform(-1.0, 1.0, degree + 1)
        coeffs.append(s)
    return fs.make_symbol(coeffs, domain, r=r, R=R, m=m)


def calibrate_product_c0(batch=300, seed=20240501) -> float:
    """Worst ratio ||a*b|| / (||a|| ||b||) over random polynomial symbols."""
    rng = np.random.default_rng(seed)
    domain = fs.Domain.interval(-0.5, 0.5)
    worst = 0.0
    for _ in range(batch):
        a = random_poly_symbol(rng, domain, r=2.0, R=2.0, m=4)
        b = random_poly_symbol(rng, domain, r=2.0, R=2.0, m=4)
        if a.constant < 1e-9 or b.constant < 1e-9:
            continue
        prod = fs.cauchy_product(a, b)
        worst = max(worst, prod.constant / (a.constant * b.constant))
    return 2.0 * worst  # safety factor against unsampled corners


def random_sphere_symbol(rng, K=2, order=6):
    from toeplitz_forge import covariant_calculus as cc
    from toeplitz_forge.geometry import SphereModel

    terms = []
    for _ in range(K + 1):
        tk = {}
        for e3 in range(3):
            if rng.uniform() < 0.7:
                tk[(0, 0, e3)] = complex(rng.uniform(-1.0, 1.0))
        terms.append(tk or {(0, 0, 0): 0.0})
    return cc.symbol_from_poly(SphereModel(), terms, order=order)


def calibrate_sharp_class(batch=12, seed=20240502) -> float:
    """Worst two-class product ratio over random sphere symbol pairs.

    ratio = ||f#g||_{2r,2R,m} / (||f||_{r,R,m} ||g||_{2r,2R,m}) across
    several (r, R, m) regimes; the frozen constant gets a 1.05 margin.
    """
    from toeplitz_forge import covariant_calculus as cc

    rng = np.random.default_rng(seed)
    grids = [(1.0, 3.0, 2), (1.0, 3.0, 4), (1.3, 6.6, 3)]
    worst = 0.0
    for _ in range(batch):
        f = random_sphere_symbol(rng)
        g = random_sphere_symbol(rng)
        if f.norm_estimate() < 1e-6 or g.norm_estimate() < 1e-6:
            continue
        for row in cc.class_stability_check(f, g, 2, grids):
            if row["norm_f"] > 1e-9 and row["norm_g"] > 1e-9:
                worst = max(worst, row["ratio"])
    return 1.05 * worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ell-max", type=int, default=200)
    parser.add_argument("--m-max", type=int, default=24)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--d-max", type=int, default=2)
    parser.add_argument("--product-batch", type=int, default=300)
    args = parser.parse_args()

    t0 = time.time()
    print(f"PRODUCT_C0 = {calibrate_product_c0(args.product_batch)!r}")
    print(f"  # product C0 done at {time.time() - t0:.1f}s", file=sys.stderr)
    print(f"SHARP_CLASS_C = {calibrate_sharp_class()!r}")
    print(f"  # sharp class done at {time.time() - t0:.1f}s", file=sys.stderr)
    print()
    print("EASY_SUM_C = {")
    for d in range(args.d_max + 1):
        c = calibrate_easy_sum(d, j_max=args.ell_max, m_max=args.m_max)
        print(f"    {d}: {c!r},")
        print(f"  # d={d} done at {time.time() - t0:.1f}s", file=sys.stderr)
    print("}")

    print()
    print("HARD_SUM_C = {")
    for n in range(2, args.n_max + 1):
        for d in range(args.d_max + 1):
            c = calibrate_hard_sum(n, d, ell_max=args.ell_max, m_max=args.m_max)
            print(f"    ({n}, {d}): {c!r},")
            print(f"  # (n,d)=({n},{d}) done at {time.time() - t0:.1f}s", file=sys.stderr)
    print("}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
