#!/usr/bin/env python3
"""How close the built-in triangle operations come to their equicontinuity bound.

For every t-norm T >= W, which covers min, product and Lukasiewicz,
``d_L(star(D, F), F) <= d_L(D, H0)``, so the uniform-continuity modulus is
eta(eps) = eps (see ``pmspace.equicontinuity_bound``).  For each operation
and each eps this draws seeded pairs (D, F) from grid and float data, pulls
D within eps of the unit step at 0 by joining a bump (r, 1 - r) with r < eps,
and reports the worst excess ``d_L(star(D, F), F) - d_L(D, H0)`` of each
cell.  An excess of a few ulps is float rounding, in the operation and in the
Levy certificate; the bound itself, with that certificate's slack, is
asserted by tests/test_lipschitz.py::TestModulusTheorem.

Usage: python scripts/modulus_sweep.py [--seed 1] [--samples 200]
"""

import argparse
import math
import random

from pmspace import (
    STAR_LUKA,
    STAR_MIN,
    STAR_PROD,
    levy_distance,
    levy_to_h0,
    make_step_cdf,
    pointwise_sup,
    random_step_cdf,
)


def worst_excess(star, eps: float, rng: random.Random, samples: int) -> float:
    worst = -math.inf
    for i in range(samples):
        grid = i % 2 == 0
        D, F = random_step_cdf(rng, grid=grid), random_step_cdf(rng, grid=grid)
        r = eps * rng.uniform(0.1, 0.9)
        D = pointwise_sup([D, make_step_cdf([(r, 1.0 - r)])])
        worst = max(worst, levy_distance(star(D, F), F) - levy_to_h0(D))
    return worst


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--samples", type=int, default=200)
    args = ap.parse_args()

    stars = [("min", STAR_MIN), ("prod", STAR_PROD), ("luka", STAR_LUKA)]
    eps_grid = (0.5, 0.2, 0.1, 0.05, 0.02)
    print("worst excess d_L(star(D, F), F) - d_L(D, H0)")
    print(f"{'star':<6}" + "".join(f"eps={e:<9}" for e in eps_grid))
    for name, star in stars:
        row = [f"{name:<6}"]
        for eps in eps_grid:
            rng = random.Random(f"modulus:{args.seed}:{name}:{eps}")
            row.append(f"{worst_excess(star, eps, rng, args.samples):<13.3g}")
        print("".join(row))
    print(f"(each cell backed by {args.samples} pairs)")


if __name__ == "__main__":
    main()
