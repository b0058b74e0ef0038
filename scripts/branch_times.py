#!/usr/bin/env python3
"""In-process times of full-level ``branch`` and of seeded point queries.

    python scripts/branch_times.py [--repeat K] [--queries Q] [--seed S] [E,N ...]

For each point, ``branch --e E --n N --format json`` runs through
``dnbranch.cli.main`` with stdout discarded, and the best of ``--repeat``
runs is printed in ms. Then ``--queries`` labels per point, drawn with
``--seed`` from level N, go through ``involution`` and
``branch --bipartition``; the best of ``--repeat`` passes over the whole set
is printed in ms per query, and ``--queries 0`` skips them. The component
word memo is cleared before every run and every pass, so each one starts cold.
Interpreter start-up and import are not counted. The default points are
(4,16), (6,16), (8,16), (inf,14) and (3,16).
"""

import argparse
import contextlib
import random
import sys
import time

from dnbranch.cli import main as cli_main
from dnbranch.core import INF, classify_regime, format_bipartition
from dnbranch.crystal import _word_side, iter_levels


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _cold_ms(argvs) -> float:
    """Time of one pass over ``argvs``, in ms, from a cleared component memo."""
    _word_side.cache_clear()
    start = time.perf_counter()
    with contextlib.redirect_stdout(_Discard()):
        for argv in argvs:
            if cli_main(argv) != 0:
                raise SystemExit(f"error: {' '.join(argv)} failed")
    return 1000 * (time.perf_counter() - start)


def _query_labels(e: str, n: int, count: int, rng: random.Random) -> list[str]:
    params = classify_regime(n, INF if e == "inf" else int(e))
    for level, children, _ in iter_levels(n, params):
        del children
    return [format_bipartition(bp) for bp in rng.sample(level, min(count, len(level)))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("points", nargs="*", default=["4,16", "6,16", "8,16", "inf,14", "3,16"], help="E,N pairs")
    parser.add_argument("--repeat", type=int, default=5, help="runs per measurement; the best is shown")
    parser.add_argument("--queries", type=int, default=20, help="labels drawn per point")
    parser.add_argument("--seed", type=int, default=0, help="seed of the label draw")
    args = parser.parse_args()
    repeat = max(args.repeat, 1)
    points = [(e, int(n)) for e, n in (point.split(",") for point in args.points)]

    print(f"branch --format json, best of {repeat}, cold component memo")
    print(f"{'point':>8}  {'ms':>8}")
    for e, n in points:
        argv = ["branch", "--e", e, "--n", str(n), "--format", "json"]
        print(f"{e + ',' + str(n):>8}  {min(_cold_ms([argv]) for _ in range(repeat)):8.2f}", flush=True)

    rng = random.Random(args.seed)
    queries = [
        (e, n, label) for e, n in points for label in _query_labels(e, n, args.queries, rng)
    ]
    if not queries:
        return 0
    print(f"point queries: {len(queries)} labels, seed {args.seed}, best of {repeat} passes")
    for command in ("involution", "branch"):
        argvs = [
            [command, "--e", e, "--n", str(n), f"--bipartition={label}"] for e, n, label in queries
        ]
        best = min(_cold_ms(argvs) for _ in range(repeat))
        print(f"  {command:10}  {best / len(argvs):8.3f} ms per query", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
