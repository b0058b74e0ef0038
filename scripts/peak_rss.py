#!/usr/bin/env python3
"""Max RSS of every full-level command and format at the given points.

    python scripts/peak_rss.py [--repeat K] [E,N ...]

Each run starts ``python -m dnbranch.cli <command> --e E --n N --format F``
with ``posix_spawn``, stdout to ``/dev/null``, and reads its max RSS with
``os.wait4``, so the figure is the child's own and not this process's. The
best of ``--repeat`` runs is printed, in MB. The first line is the floor:
the max RSS of ``/bin/true`` read the same way. The default points are
(8,16), (inf,14) and (6,20).
"""

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every full-level command with the formats it writes
COMMANDS = [
    ("lattice", ("text", "json", "dot")),
    ("labels", ("text", "json")),
    ("branch", ("text", "json", "dot")),
]


def max_rss_mb(argv: list[str], env: dict) -> float:
    """Max RSS of one run of ``argv``, in MB; raises if it exits non-zero."""
    with open(os.devnull, "wb") as sink:
        pid = os.posix_spawn(
            argv[0], argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, sink.fileno(), 1)]
        )
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"error: {' '.join(argv)} failed with status {status}")
    return usage.ru_maxrss / 1024  # kB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("points", nargs="*", default=["8,16", "inf,14", "6,20"], help="E,N pairs")
    parser.add_argument("--repeat", type=int, default=3, help="runs per cell; the best is shown")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def best(argv):
        return min(max_rss_mb(argv, env) for _ in range(max(args.repeat, 1)))

    print(f"floor /bin/true: {best(['/bin/true']):.2f} MB")
    print(f"{'point':>8}  {'command':8} {'format':6} {'max RSS MB':>10}")
    for point in args.points:
        e, n = point.split(",")
        for command, formats in COMMANDS:
            for fmt in formats:
                argv = [sys.executable, "-m", "dnbranch.cli", command, "--e", e, "--n", n, "--format", fmt]
                print(f"{point:>8}  {command:8} {fmt:6} {best(argv):10.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
