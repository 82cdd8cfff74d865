#!/usr/bin/env python3
"""Sweep random dual-plane lines and tabulate Sigma fiber counts.

Chords (three distinct contact points) should always report 3, tangents at
non-flex points 2, and flex tangents 1.
"""

import argparse
import collections

import numpy as np

from ellpar import jaclattice as jl
from ellpar import modspace as ms
from ellpar import weierstrass as we
from ellpar.jaclattice import CurveSpec


def random_point(curve, rng):
    return jl.canon(complex(rng.rand() + rng.rand() * curve.tau), curve)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tau", type=complex, default=0.3 + 1.1j,
                        help="lattice parameter (e.g. '0.3+1.1j')")
    parser.add_argument("--chords", type=int, default=200)
    parser.add_argument("--tangents", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    curve = CurveSpec(args.tau)
    rng = np.random.RandomState(args.seed)
    counts = {"chord": collections.Counter(),
              "tangent": collections.Counter(),
              "flex": collections.Counter()}

    done = 0
    while done < args.chords:
        z1, z2 = random_point(curve, rng), random_point(curve, rng)
        z3 = jl.neg(jl.add(z1, z2))
        if jl.equal(z1, z2, tol=1e-3) or jl.equal(z2, z3, tol=1e-3) \
                or jl.equal(z1, z3, tol=1e-3):
            continue
        line = we.line_through(z1, z2, z3, curve)
        counts["chord"][ms.sigma_cover_count(line, curve)] += 1
        done += 1

    done = 0
    origin = jl.zero(curve)
    while done < args.tangents:
        z = random_point(curve, rng)
        if jl.equal(jl.mul(3, z), origin, tol=1e-3) or jl.equal(jl.mul(2, z), origin, tol=1e-3):
            continue
        counts["tangent"][ms.sigma_cover_count(we.tangent_line(z, curve), curve)] += 1
        done += 1

    for z in jl.torsion_points(3, curve):
        counts["flex"][ms.sigma_cover_count(we.tangent_line(z, curve), curve)] += 1

    print(f"tau = {curve.tau}")
    for kind, ctr in counts.items():
        dist = ", ".join(f"count {k}: {v}" for k, v in sorted(ctr.items()))
        print(f"  {kind:8s} -> {dist}")


if __name__ == "__main__":
    main()
