#!/usr/bin/env python3
"""Census of connected Moebius-graph classes by edge count.

Prints, for each e, the number of isomorphism classes split by
orientability and face count, plus the exact class-sum check
sum N**f / |Aut| == labelled pairing sum on a sample profile.  Exits 4
(the CLI's verification-failure code) when that check fails.
"""

import argparse
import sys
import time
from collections import Counter
from fractions import Fraction

from mobex import catalog
from mobex.cli import EXIT_VERIFY
from mobex.npoly import NPoly
from mobex.series import iter_monomials


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-edges", type=int, default=4)
    args = parser.parse_args()

    for e in range(1, args.max_edges + 1):
        started = time.time()
        by_f = Counter()
        orientable = 0
        total = 0
        for profile in iter_monomials(2 * e):
            if sum(profile) != 2 * e:
                continue
            for entry in catalog.enumerate_graphs(list(profile)):
                total += 1
                by_f[entry.topology.f] += 1
                orientable += entry.topology.natural == 1
        print("e=%d: %5d classes (%d orientable)  faces %s  [%.1fs]"
              % (e, total, orientable,
                 dict(sorted(by_f.items())), time.time() - started))

    sample = {3: 2}
    lhs = catalog.labeled_pairing_sum(sample)
    rhs = NPoly.zero()
    for entry in catalog.enumerate_graphs(sample, connected_only=False):
        rhs = rhs + NPoly.N(entry.topology.f) * Fraction(1, entry.aut_moebius)
    print("pairing-sum check on %r: %s == %s -> %s"
          % (sample, lhs, rhs, lhs == rhs))
    return 0 if lhs == rhs else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
