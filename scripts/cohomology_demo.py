"""Weighted simplicial cohomology at a glance.

Sweeps the edge-weight holonomy of a triangulated loop and of two product
complexes, printing how the Betti numbers collapse the moment the total
holonomy leaves zero.  Finishes with a Hodge split of a random cochain and a
canonical-primitive recovery, the two solver paths the library exposes.

    python3 scripts/cohomology_demo.py --segments 8
"""

import argparse
import sys

import numpy as np

from lcslab.cohomology import (
    Cochain,
    apply_coboundary,
    betti,
    circle,
    green_primitive,
    hodge_decompose,
    product_complex,
    simplex_boundary,
)


def norm(c: Cochain) -> float:
    return float(np.linalg.norm(c.values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--segments", type=int, default=6, help="edges in the loop")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    n = args.segments

    print("loop holonomy sweep")
    for h in (0.0, 0.25, float(np.log(2.0))):
        print(f"  holonomy {h:6.3f} -> betti {betti(circle(n, holonomy=h))}")

    print("\nproducts")
    loop = circle(3)
    for label, K in (
        ("torus, untwisted", product_complex(loop, loop)),
        ("torus, one factor twisted", product_complex(circle(3, holonomy=0.8), loop)),
        ("loop x sphere boundary", product_complex(loop, simplex_boundary(4))),
        (
            "loop x sphere boundary, twisted",
            product_complex(circle(3, holonomy=1.1), simplex_boundary(4)),
        ),
    ):
        counts = [len(K.simplices(k)) for k in range(K.top + 1)]
        print(f"  {label:<32} simplices {counts}  betti {betti(K)}")

    rng = np.random.default_rng(args.seed)
    K = product_complex(loop, loop)
    c = Cochain(1, rng.standard_normal(len(K.simplices(1))))
    harmonic, exact, coexact = hodge_decompose(K, c)
    recon = np.abs(harmonic.values + exact.values + coexact.values - c.values).max()
    print("\nhodge split of a random 1-cochain on the torus")
    print(f"  |exact| {norm(exact):.4f}  |coexact| {norm(coexact):.4f}  |harmonic| {norm(harmonic):.4f}")
    print(f"  reconstruction residual {recon:.2e}")

    ring = circle(n, holonomy=0.9)
    target = apply_coboundary(K=ring, c=Cochain(0, rng.standard_normal(n)))
    psi = green_primitive(ring, target)
    res = np.abs(apply_coboundary(ring, psi).values - target.values).max()
    print("\ncanonical primitive on the twisted loop")
    print(f"  residual of delta(psi) - target: {res:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
