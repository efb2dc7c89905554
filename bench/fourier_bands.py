"""Measure the strata of the fourier-tate workload.

Draws functions from FourierTate's unstratified generator, prints the
quantiles of its band key that cut it into equal-probability bands
(``FourierTate.BAND_EDGES``), then, on a fresh
sample, each band's share of the draws and the canonical term counts the
library gives each band.  Run from the repository root:

    PYTHONPATH=src python3 bench/fourier_bands.py --draws 100000 --terms 6000
"""

from __future__ import annotations

import argparse
import statistics
from collections import Counter

from workloads import FourierTate, _elementary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bands", type=int, default=20)
    ap.add_argument("--draws", type=int, default=100_000, help="sample for the band edges")
    ap.add_argument("--terms", type=int, default=3000, help="sample for shares and term counts")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    gen = FourierTate(args.seed)
    keys = sorted(gen._key(gen._function()) for _ in range(args.draws))
    edges = [round(q, 3) for q in statistics.quantiles(keys, n=args.bands)]
    print("band edges:", edges)

    check = FourierTate(args.seed + 1)
    bounds = [float("-inf"), *edges, float("inf")]
    by_band: dict[int, list[int]] = {b: [] for b in range(len(edges) + 1)}
    histogram: Counter = Counter()
    for _ in range(args.terms):
        spec = check._function()
        key = check._key(spec)
        band = next(b for b in by_band if bounds[b] <= key < bounds[b + 1])
        terms = sum(len(f.terms) for f in _elementary(spec).prime_factors.values())
        by_band[band].append(terms)
        histogram[terms] += 1
    print(f"unstratified draws: {args.terms}; canonical terms per function:")
    counts = [t for band in by_band.values() for t in band]
    print("  deciles", statistics.quantiles(counts, n=10), "max", max(counts))
    for lo in range(1, max(counts) + 1, 5):
        n = sum(histogram[t] for t in range(lo, lo + 5))
        print(f"  {lo:>2}-{lo + 4:<2} {n / args.terms:6.3f}")
    print("band  share  terms: min median max")
    for band, terms in by_band.items():
        print(f"{band:>4}  {len(terms) / args.terms:5.3f}  "
              f"{min(terms):>3} {statistics.median(terms):>5} {max(terms):>4}")


if __name__ == "__main__":
    main()
