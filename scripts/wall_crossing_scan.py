#!/usr/bin/env python3
"""Scan random flags for a generic-graded class and tabulate stability verdicts
in both weight chambers and on the wall, plus the Ugen/Sigma locus labels.
"""

import argparse
import collections
from fractions import Fraction

import numpy as np

from ellpar import bundles as bd
from ellpar import jaclattice as jl
from ellpar import parabolic as pa
from ellpar.jaclattice import CurveSpec
from ellpar.weierstrass import PlanePoint, line_through_points


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tau", type=complex, default=0.3 + 1.1j)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--special-fraction", type=float, default=0.3,
                        help="fraction of flags forced onto a special incidence stratum")
    args = parser.parse_args()

    curve = CurveSpec(args.tau)
    z1 = jl.canon((Fraction(1, 5), Fraction(0)), curve)
    z2 = jl.canon((Fraction(0), Fraction(1, 7)), curve)
    cls = bd.classify_triple(z1, z2, jl.neg(jl.add(z1, z2)))

    rng = np.random.RandomState(args.seed)
    verdicts = collections.Counter()
    loci = collections.Counter()

    for k in range(args.samples):
        p = PlanePoint.of(*(rng.randn(3) + 1j * rng.randn(3)))
        if k < args.special_fraction * args.samples:
            # force the flag point onto a configuration line
            p = PlanePoint.of(p.x, p.y, 0)
        q = PlanePoint.of(*(rng.randn(3) + 1j * rng.randn(3)))
        flag = pa.Flag(p, line_through_points(p, q))
        trio = tuple(pa.stability(cls, flag, w).status
                     for w in (pa.PROBE_MINUS, pa.PROBE_PLUS, pa.PROBE_WALL))
        verdicts[trio] += 1
        loci[pa.locus(cls, flag)] += 1

    print(f"tau = {curve.tau}, samples = {args.samples}")
    print("(Pminus, Pplus, Wall) verdict triples:")
    for trio, n in verdicts.most_common():
        print(f"  {trio}: {n}")
    print("locus labels:")
    for label, n in loci.most_common():
        print(f"  {label}: {n}")


if __name__ == "__main__":
    main()
