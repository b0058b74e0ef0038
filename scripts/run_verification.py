#!/usr/bin/env python3
"""Run the full brute-force verification battery over a parameter grid.

Exits non-zero if any suite fails, so it doubles as a slow sanity gate:

    python scripts/run_verification.py --max-n 8
"""

import argparse
import sys

from dnbranch.core import INF, classify_regime
from dnbranch.oracle import (
    verify_clifford_socle,
    verify_h_path_independence,
    verify_level1_calibration,
    verify_regime_a_decoupling,
    verify_semisimple_branching,
    verify_uniqueness_and_distinctness,
)


def show(report):
    e_text = "inf" if report.e == INF else report.e
    print(
        f"{report.suite:26s} e={e_text!s:>4} regime={report.regime} n={report.n}: "
        f"{report.status} ({report.cases} cases, {report.elapsed:.2f}s)"
    )
    for item, expected, got in report.failures[:10]:
        print(f"    {item}: expected {expected}, got {got}")
    return report.passed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    ok = True
    for e in (2, 3, 4):
        ok &= show(verify_level1_calibration(args.max_n + 2, e))
    for l in (2, 3, INF):
        ok &= show(verify_regime_a_decoupling(args.max_n, l))
    for e in (2, 4, 6):
        ok &= show(verify_h_path_independence(args.max_n, classify_regime(args.max_n, e)))
    for e in (2, 4, 6, INF):
        ok &= show(verify_uniqueness_and_distinctness(args.max_n, classify_regime(args.max_n, e)))
    for n, e in ((min(args.max_n, 7), INF), (5, 16), (4, 9)):
        ok &= show(verify_semisimple_branching(n, classify_regime(n, e)))
    for e in (2, 3, 4, 6, INF):
        ok &= show(verify_clifford_socle(args.max_n, classify_regime(args.max_n, e)))
    print("all suites passed" if ok else "SOME SUITES FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
