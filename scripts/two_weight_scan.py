#!/usr/bin/env python3
"""Scan which second weights admit a given Appell matrix of the exponential
calculus: rescalings (case I), binomial-series weights (case II), and random
weights (expected non-members).

Usage: python scripts/two_weight_scan.py [--order N] [--h H] [--seed S]
"""

import argparse
import random

from riordanlab import Field, Series, Weight, classify_membership, exp_case_weights
from riordanlab.sampling import weight as random_weight


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=12)
    ap.add_argument("--h", default="1", help="shift of the exponential alpha")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    field = Field()
    base = Weight.exponential(field, args.order, 1)
    alpha = Series.exp(field, args.order, args.h)
    rng = random.Random(args.seed)

    from riordanlab.errors import ForbiddenLambda

    candidates = [(f"rescale by {lam}", base.rescale(lam)) for lam in (2, 3, "1/2")]
    for sigma in ("1", "1/2"):
        for lam in ("1/2", "5/3", "-2"):
            name = f"(1 + {sigma} t)^(({lam})/({sigma}))"
            try:
                candidates.append((name, exp_case_weights(field, args.order, lam, sigma)))
            except ForbiddenLambda as exc:
                print(f"  skipped {name}: {exc}")
    candidates.extend((f"random #{i}", random_weight(field, args.order, rng)) for i in range(4))

    print(f"alpha = e^({args.h} y), base weight exponential, order {args.order}")
    for name, w2 in candidates:
        rep = classify_membership(alpha, base, w2)
        label = rep.case if rep.member else "-"
        print(f"  {'member' if rep.member else 'not   '}  case {label:>5}  <- {name}")


if __name__ == "__main__":
    main()
