#!/usr/bin/env python3
"""Census of connected Moebius-graph classes by edge count.

Prints, for each e, the number of isomorphism classes split by
orientability and face count, plus the exact class-sum check
sum N**f / |Aut| == labelled pairing sum on every profile it builds.
Prints the first profile that fails and exits 4 (the CLI's
verification-failure code).
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

    checked_profiles = []
    for e in range(1, args.max_edges + 1):
        started = time.time()
        by_f = Counter()
        orientable = 0
        total = 0
        for profile in iter_monomials(2 * e):
            if sum(profile) != 2 * e:
                continue
            checked_profiles.append(profile)
            for entry in catalog.enumerate_graphs(list(profile)):
                total += 1
                by_f[entry.topology.f] += 1
                orientable += entry.topology.natural == 1
        print("e=%d: %5d classes (%d orientable)  faces %s  [%.1fs]"
              % (e, total, orientable,
                 dict(sorted(by_f.items())), time.time() - started))

    for profile in checked_profiles:
        lhs = catalog.labeled_pairing_sum(list(profile))
        rhs = NPoly.zero()
        for entry in catalog.enumerate_graphs(list(profile), connected_only=False):
            rhs = rhs + NPoly.N(entry.topology.f) * Fraction(1, entry.aut_moebius)
        if lhs != rhs:
            print("pairing-sum check on %r: %s == %s -> False" % (profile, lhs, rhs))
            return EXIT_VERIFY
    print("pairing-sum check on %d profiles with <= %d half-edges -> True"
          % (len(checked_profiles), 2 * args.max_edges))
    return 0


if __name__ == "__main__":
    sys.exit(main())
