"""Randomized scan of the comparison identities relating f and g values
of grid fillings, over a configurable (r, N) range.

Exhaustive small ranges are covered by the test suite; this script is
for pushing the same identities to larger random samples.

Usage: python scripts/identity_scan.py [--samples 200] [--r-max 6]
       [--n-max 7] [--seed 0]
"""

import argparse
import random
import time

from torhom.fillings import verify_lemma53
from torhom.recursion import MemoTable


def run(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    memo = MemoTable()
    failures = 0
    checked = 0
    t0 = time.perf_counter()
    for _ in range(args.samples):
        r = rng.randint(1, args.r_max)
        n = rng.randint(0, args.n_max)
        sigma = tuple(rng.randint(0, r) for _ in range(n))
        for check in verify_lemma53(r, sigma, memo):
            checked += 1
            if not check.passed:
                failures += 1
                print(f"FAIL {check.name} at r={r} sigma={sigma}")
    elapsed = time.perf_counter() - t0
    print(f"{checked} identities over {args.samples} sigma samples, "
          f"{failures} failures, {elapsed:.1f}s, "
          f"memo entries={len(memo)}")
    return 1 if failures else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--r-max", type=int, default=6)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    raise SystemExit(run(parser.parse_args()))


if __name__ == "__main__":
    main()
