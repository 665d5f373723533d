#!/usr/bin/env python3
"""Tabulate |A(K(X))| = |K(A(X))| = |O(O(X))| over all small spaces.

The three sizes agree on every finite T0 space; this script prints the
common value next to the base space, with the upper sets of O(X) counted
independently of the constructions.
"""

import sys

from powerspace.core import count_upper_sets, enumerate_spaces
from powerspace.powerspaces import Powers


def main() -> int:
    print(f"{'space':<22} {'|A(K)|':>7} {'|K(A)|':>7} {'|O(O)|':>7} {'split':>7}")
    for space in enumerate_spaces(4):
        pw = Powers(space)
        ak, ka, oo = pw.AK.space.n, pw.KA.space.n, pw.OO.space.n
        oracle = count_upper_sets(pw.O.space)
        label = f"n={space.n} {space.fingerprint}"
        print(f"{label:<22} {ak:>7} {ka:>7} {oo:>7} {oracle:>7}")
        if not ak == ka == oo == oracle:
            print("  disagreement!", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
