#!/usr/bin/env python3
"""Tables of Penner-model coefficients and the extended duality gap.

Shows K(z, N, alpha) for a few alpha, the matching graph-side sums at
order z, and verifies I(z, N, r) == I(z, -rN, 1/r) numerically symbol by
symbol.  Exits 4 (the CLI's verification-failure code) if the graph sum
differs from the closed form or a duality gap is not zero.
"""

import argparse
import sys
from fractions import Fraction

from mobex.cli import EXIT_VERIFY
from mobex.penner import (I_series, K_series, extended_duality_gap,
                          gse_penner_zseries, real_moduli_euler)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=6)
    args = parser.parse_args()

    for alpha in (1, 2, 3):
        zs = K_series(args.order, alpha)
        print("K(z, N, %d):" % alpha)
        for m in sorted(zs.coeffs):
            print("  z^%d: %s" % (m, zs.coeffs[m]))

    graph_side = gse_penner_zseries(6).coefficient(1)
    closed_form = K_series(1, 2).coefficient(1)
    print("graph sum at order z (quaternionic couplings):", graph_side)
    print("closed form at order z:                        ", closed_form)
    failed = graph_side != closed_form

    for r in (1, 2, 3, 4, Fraction(1, 2)):
        gap = extended_duality_gap(min(args.order, 8), r)
        print("duality gap at r=%s: %s" % (r, "0" if not gap.coeffs else gap.coeffs))
        failed = failed or bool(gap.coeffs)

    print("real-moduli Euler characteristics:")
    for q, n in ((0, 2), (0, 3), (1, 1), (1, 2), (2, 1)):
        print("  (q=%d, n=%d): %s" % (q, n, real_moduli_euler(q, n)))
    return EXIT_VERIFY if failed else 0


if __name__ == "__main__":
    sys.exit(main())
