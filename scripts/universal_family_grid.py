#!/usr/bin/env python3
"""Classify the two-parameter monodromy family on a grid around the
triple-coincidence point (b1, b2) = (1, 1), from its parameters
(monodromy.universal_class), and print an ASCII label map.
"""

import argparse
import collections

from ellpar import monodromy as mo
from ellpar.jaclattice import CurveSpec

GLYPH = {"T1": ".", "T21": "2", "T22": "d", "T31": "3", "T32": "x", "T33": "#"}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tau", type=complex, default=0.3 + 1.1j)
    parser.add_argument("--size", type=int, default=31, help="grid points per axis")
    parser.add_argument("--radius", type=float, default=0.3,
                        help="half-width of the grid around (1, 1)")
    parser.add_argument("--kind", choices=("generic", "decomposable"), default="generic")
    args = parser.parse_args()

    curve = CurveSpec(args.tau)
    n = args.size
    counts = collections.Counter()
    rows = []
    for i in range(n):
        row = []
        b2 = 1 + args.radius * (2 * i / (n - 1) - 1)
        for j in range(n):
            b1 = 1 + args.radius * (2 * j / (n - 1) - 1)
            try:
                label = mo.universal_class(b1, b2, args.kind, curve).label
            except ValueError:
                label = "?"
            counts[label] += 1
            row.append(GLYPH.get(label, "?"))
        rows.append("".join(row))

    print(f"tau = {curve.tau}, kind = {args.kind}, grid {n}x{n}, radius {args.radius}")
    legend = "  ".join(f"{g}={lab}" for lab, g in GLYPH.items())
    print(legend)
    for row in reversed(rows):
        print(row)
    print("label counts:", dict(counts.most_common()))


if __name__ == "__main__":
    main()
