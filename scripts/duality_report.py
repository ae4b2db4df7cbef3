#!/usr/bin/env python3
"""Term-by-term view of the alpha <-> 1/alpha duality.

Prints every monomial of the manifestly invariant expansion together with
its image under alpha -> 1/alpha, N -> -alpha N, confirming the fixed-point
property graph class by graph class, and the three-ensemble reduction.
Exits 4 (the CLI's verification-failure code) if a monomial differs from
its image.
"""

import argparse
import sys
from fractions import Fraction

from mobex.cli import EXIT_VERIFY
from mobex.series import apply_duality, expand_logZ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=6)
    args = parser.parse_args()

    inv = expand_logZ("invariant", args.max_degree)
    dual = apply_duality(inv)
    print("invariant-form monomials at degree <= %d: %d" % (args.max_degree, len(inv.terms)))
    for key in sorted(inv.terms):
        mark = "==" if inv.terms[key] == dual.terms.get(key) else "!="
        print("  t%s: %s %s dual" % ("".join("_%d" % j for j in key),
                                     inv.terms[key], mark))
    self_dual = inv == dual
    print("self-dual:", self_dual)

    for alpha, name in ((Fraction(1, 2), "orthogonal"), (Fraction(1), "unitary"),
                        (Fraction(2), "symplectic")):
        reduced = inv.reduce_root(alpha)
        print("%s reduction (alpha=%s): %d nonzero monomials"
              % (name, alpha, len(reduced.terms)))
    return 0 if self_dual else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
