"""Weighted simplicial cohomology at a glance.

Sweeps the edge-weight holonomy of a triangulated loop and of two product
complexes, printing how the Betti numbers collapse the moment the total
holonomy leaves zero.

    python3 scripts/cohomology_demo.py --segments 8
"""

import argparse
import sys

import numpy as np

from lcslab.cohomology import betti, circle, product_complex, simplex_boundary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--segments", type=int, default=6, help="edges in the loop")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
