"""Wide sweep: psw_threshold against the full-table oracle, bit for bit.

Usage: ``PYTHONPATH=src python tests/sweep_psw.py [--seed S] [--instances N]``.
Pytest does not collect this file; it takes about a minute on one core.

It compares ``psw_threshold`` with ``tests/oracles.py::psw_full_table``,
a DP over every exact total size with k(N) from an exact integer walk, on
N random instances (K 2-5, m log-uniform up to 1500; v uniform or in
quarters, scores raw or rounded to tenths, some labels with a zero-width
box) and on 50 instances of every kind in ``AWKWARD_PSW``.  It prints the
number of instances whose tau bits differ, and exits 1 if any do.
"""

import argparse
import math
import sys

import numpy as np

from pacshift import AcceptanceRandomness, RiskParams, ScoreTable, WeightBox, psw_threshold

from oracles import psw_full_table
from test_predsets import AWKWARD_PSW, awkward_instance

M_CAP = 1500
PER_AWKWARD_KIND = 50


def random_instance(rng):
    """A PS-W instance with K 2-5 and up to M_CAP rows, ties and zero-width boxes in some."""
    K = int(rng.integers(2, 6))
    m = int(10 ** rng.uniform(np.log10(4), np.log10(M_CAP)))
    labels = rng.choice(K, size=m, p=rng.dirichlet(np.ones(K)))
    scores = rng.dirichlet(np.ones(K), size=m)
    if rng.random() < 0.3:
        scores = np.round(scores, 1)
    v = rng.integers(0, 5, size=m) / 4 if rng.random() < 0.3 else rng.uniform(size=m)
    lo = rng.uniform(-0.3, 1.0, size=K)
    hi = np.maximum(lo, 0.1) + rng.uniform(0.0, 1.5, size=K)
    if rng.random() < 0.3:
        narrow = rng.random(K) < 0.5
        lo[narrow] = hi[narrow] = rng.uniform(0.1, 1.0, size=np.count_nonzero(narrow))
    rp = RiskParams(float(rng.uniform(0.05, 0.5)), float(10 ** rng.uniform(-4, -0.3)))
    return ScoreTable(scores, labels), AcceptanceRandomness(v), WeightBox(lo, hi), rp


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=5000, help="random instances")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)

    cases = [(f"random {i}", random_instance(rng)) for i in range(args.instances)]
    cases += [(f"{kind} {i}", awkward_instance(rng, kind))
              for kind in AWKWARD_PSW for i in range(PER_AWKWARD_KIND)]

    mismatches, calibrated = 0, 0
    for name, (src, v, box, rp) in cases:
        tau = float(psw_threshold(src, v, box, rp).tau)
        reference = float(psw_full_table(src, v, box, rp))
        calibrated += math.isfinite(tau)
        if tau.hex() != reference.hex():
            mismatches += 1
            print(f"MISMATCH {name}: K={src.k} m={src.n} psw_threshold {tau.hex()}, "
                  f"psw_full_table {reference.hex()}")
    print(f"{len(cases)} instances ({calibrated} calibrated, {len(cases) - calibrated} "
          f"full sets), {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
