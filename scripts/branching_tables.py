#!/usr/bin/env python3
"""Print label and branching tables for one parameter choice.

    python scripts/branching_tables.py --e 4 --n 5
    python scripts/branching_tables.py --e inf --n 6 --dot lattice.gv
"""

import argparse
import sys

from dnbranch.core import INF, classify_regime, format_bipartition
from dnbranch.crystal import build_lattice
from dnbranch.dmod import branching_graph, equivalence_classes, format_label, image_function
from dnbranch.io import emit_dot
from dnbranch.oracle import bipartition_dimension


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--e", default="4", help="quantum characteristic (integer >= 2 or 'inf')")
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--dot", help="also write the lattice in DOT form to this file")
    args = parser.parse_args()
    e = INF if args.e == "inf" else int(args.e)

    params = classify_regime(args.n, e)
    lattice = build_lattice(args.n, params)
    print(f"regime {params.regime}, l={params.l}, {lattice.vertex_count()} vertices")
    h = image_function(lattice.h)
    for m, level in enumerate(lattice.levels):
        fixed = sum(1 for bp in level if h(bp) == bp)
        print(f"  level {m}: {len(level)} vertices, {fixed} fixed points")

    labels = equivalence_classes(lattice.levels[args.n], params, lattice)
    print(f"\n{len(labels)} simple-module labels at level {args.n}:")
    for label in labels:
        print(f"  {format_label(label)}")

    if args.n >= 2:
        print("\nsocle decompositions one level down:")
        for entry in branching_graph(args.n, params, lattice):
            summands = " + ".join(format_label(s) for s in entry.summands)
            print(f"  {format_label(entry.source)} -> {summands}")

    print("\nlargest standard-filling counts at this level:")
    by_dim = sorted(lattice.levels[args.n], key=bipartition_dimension, reverse=True)
    for bp in by_dim[:5]:
        print(f"  {format_bipartition(bp)}: {bipartition_dimension(bp)}")

    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(emit_dot(lattice))
        print(f"\nwrote {args.dot}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
