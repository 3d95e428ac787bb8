"""Wide sweep: binom_k_range against binom_k at every size of a range.

Usage: ``PYTHONPATH=src python tests/sweep_k_table.py [--seed S] [--ranges R]``.
Pytest does not collect this file; it takes about a minute on one core.

Over a grid of (epsilon, delta) and R random ranges [n_lo, n_max] per level,
with n_max up to 2e5, it compares ``binom_k_range(n_lo, n_max, rp)`` with
``binom_k(np.arange(n_lo, n_max + 1), rp)`` entry for entry.  It prints the
number of ranges that differ and the ratio of ``betainc`` evaluations the
two made, and exits 1 if any range differs.
"""

import argparse
import sys
from itertools import product

import numpy as np
from scipy import special

from pacshift import RiskParams, binom_k, binom_k_range

EPSILONS = (0.01, 0.05, 0.1, 0.2, 0.5)
# Calibration levels of the K=100 and K=3 benchmarks at delta = 5e-4, then others.
DELTAS = (1e-9, 5e-4 / 10101, 5e-4 / 13, 0.05, 0.5)
N_CAP = 200_000


class BetaincCounter:
    """Counts betainc evaluations, one per broadcast entry, while installed."""

    def __init__(self):
        self.count = 0
        self._betainc = special.betainc

    def __call__(self, *args):
        self.count += np.broadcast(*args).size
        return self._betainc(*args)

    def __enter__(self):
        special.betainc = self
        return self

    def __exit__(self, *exc):
        special.betainc = self._betainc


def ranges(rng, count):
    """Random [n_lo, n_max] with log-uniform widths, from 0 up to N_CAP."""
    for _ in range(count):
        width = int(10 ** rng.uniform(0, np.log10(N_CAP)))
        n_lo = int(rng.integers(0, N_CAP - width + 1))
        yield n_lo, n_lo + width


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ranges", type=int, default=10, help="random ranges per (eps, delta)")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)

    cases = [(RiskParams(0.5, 0.5), 0, 1000)]  # every odd size an exact tie
    for eps, delta in product(EPSILONS, DELTAS):
        rp = RiskParams(eps, delta)
        cases += [(rp, n_lo, n_max) for n_lo, n_max in ranges(rng, args.ranges)]

    mismatches, by_size, by_count = 0, 0, 0
    for rp, n_lo, n_max in cases:
        with BetaincCounter() as calls:
            reference = binom_k(np.arange(n_lo, n_max + 1), rp)
        by_size += calls.count
        with BetaincCounter() as calls:
            table = binom_k_range(n_lo, n_max, rp)
        by_count += calls.count
        if not np.array_equal(table, reference):
            mismatches += 1
            first = int(np.argmax(table != reference))
            print(f"MISMATCH eps={rp.epsilon} delta={rp.delta} [{n_lo}, {n_max}]: "
                  f"N={n_lo + first} gives {table[first]}, binom_k {reference[first]}")
    print(f"{len(cases)} ranges, {mismatches} mismatches; betainc evaluations "
          f"{by_size} per size, {by_count} per error count, ratio {by_size / by_count:.1f}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
