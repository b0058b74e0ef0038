#!/usr/bin/env python3
"""Wall time, in-process run time and own peak RSS of each CLI call, per call.

    python scripts/layer_grid.py [--repeat K] ["CALL ARGV" ...]

Every call runs once per round in a fresh child of this interpreter that
takes ``cli.run``'s steps: import ``dnbranch.cli``, collector off,
``parse_args``, ``_dispatch``, flush, ``os._exit``, with stdout discarded.
Before ``os._exit`` the child writes to file descriptor 3 its own run time
(``parse_args`` to the flush, so neither interpreter start-up nor import)
and its ``VmHWM`` from ``/proc/self/status``: a new address space after
``exec``, so the call's own peak.  This process times the whole spawn.
The first round is not timed: it fills a private bytecode directory that
every child reads.  Each of ``--repeat`` later rounds runs the floor,
``python -c "import os; os._exit(0)"`` (start-up without the teardown
``cli.run`` skips too), then every call once, in turn, so a drift in host
speed hits all of them alike.

Printed: one JSON object with the interpreter version, the repeat count,
the floor's wall time and, per call, its argv, exit code and the min,
median and interquartile range of ``wall_ms``, ``run_ms`` and ``vmhwm_mb``.
Positional calls, one quoted argv each (``"lattice --e 8 --n 16 --format
dot"``), replace the default grid.  A call that exits non-zero stops the
script with exit code 1.  Linux only.
"""

import argparse
import json
import os
import platform
import shlex
import statistics
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FLOOR = ["-c", "import os; os._exit(0)"]
CHILD = """
import gc, os, sys, time
from dnbranch.cli import _dispatch, parse_args
gc.disable()
start = time.perf_counter()
code = _dispatch(parse_args(sys.argv[1:]))
sys.stderr.flush()
run_ms = 1000 * (time.perf_counter() - start)
with open("/proc/self/status") as status:
    kb = next(line for line in status if line.startswith("VmHWM:")).split()[1]
os.write(3, f"{run_ms} {int(kb) / 1024}".encode())
os._exit(code)
"""

# table points in both regimes; perfbench's suite sizes, then three suites at (8,16); its query points
TABLE_POINTS = [("4", 16), ("6", 16), ("8", 16), ("8", 20), ("2", 20), ("inf", 14), ("3", 16)]
SUITES = [
    ("path-independence", "4", 9), ("uniqueness-distinctness", "6", 12),
    ("regime-a-decoupling", "3", 14), ("level1-calibration", "4", 20),
    ("semisimple-branching", "inf", 8), ("uniqueness-distinctness", "inf", 12),
    ("path-independence", "8", 16), ("uniqueness-distinctness", "8", 16), ("clifford-socle", "8", 16),
]
QUERY_POINTS = [("4", 16), ("4", 12), ("6", 14), ("6", 10), ("inf", 12), ("inf", 9), ("3", 14), ("3", 10)]


def default_grid() -> list[list[str]]:
    """The table commands, the suites, two queries per query point, a regime-B
    query on a 2 500-row column and one ``dims``."""
    from dnbranch.core import INF, classify_regime, format_bipartition
    from dnbranch.crystal import iter_levels

    grid = [
        [command, "--e", e, "--n", str(n), "--format", "json"]
        for e, n in TABLE_POINTS for command in ("lattice", "labels", "branch")
    ]
    grid += [["verify", "--suite", suite, "--e", e, "--n", str(n)] for suite, e, n in SUITES]
    for e, n in QUERY_POINTS:
        for level, _, _ in iter_levels(n, classify_regime(n, INF if e == "inf" else int(e))):
            pass
        head = ["--e", e, "--n", str(n), f"--bipartition={format_bipartition(level[len(level) // 2])}"]
        grid += [["involution", *head], ["branch", *head, "--format", "json"]]
    column = ",".join(["1"] * 2500)
    grid.append(["branch", "--e", "4", "--n", "2500", f"--bipartition=-|{column}", "--format", "json"])
    return grid + [["dims", "--bipartition=2,1|3,2,2,2,1,1,1,1"]]


def spawn(argv: list[str], env: dict, sink: int) -> tuple[int, float, list[float]]:
    """Exit code, wall ms and the numbers the child wrote to fd 3 of one run."""
    read, write = os.pipe()
    with open(read, "rb") as report:
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, env, file_actions=[
                (os.POSIX_SPAWN_DUP2, sink, 1), (os.POSIX_SPAWN_DUP2, write, 3),
            ])
        finally:
            os.close(write)  # the child holds its own copy
        _, status = os.waitpid(pid, 0)
        wall_ms = 1000 * (time.perf_counter() - start)
        numbers = [float(word) for word in report.read().split()]
    return os.waitstatus_to_exitcode(status), wall_ms, numbers


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"min": round(min(values), 3), "median": round(median, 3), "iqr": round(q3 - q1, 3)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("calls", nargs="*", help="one quoted CLI argv per call; replaces the grid")
    parser.add_argument("--repeat", type=int, default=5, help="timed rounds per call")
    args = parser.parse_args()
    if not sys.platform.startswith("linux"):
        raise SystemExit("error: the peak is read from /proc/self/status, which only Linux has")
    calls = [shlex.split(call) for call in args.calls] or default_grid()
    repeat = max(args.repeat, 1)
    floor: list[float] = []
    rows = [{"argv": argv, "exit": 0, "wall_ms": [], "run_ms": [], "vmhwm_mb": []} for argv in calls]
    with tempfile.TemporaryDirectory() as pycache, open(os.devnull, "wb") as sink:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # every child would compile from source
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        for round_ in range(repeat + 1):
            floor_ms = spawn([sys.executable, *FLOOR], env, sink.fileno())[1]
            if round_:  # the first round fills the bytecode directory
                floor.append(floor_ms)
            for row in rows:
                code, wall_ms, numbers = spawn([sys.executable, "-c", CHILD, *row["argv"]], env, sink.fileno())
                if code != 0:
                    raise SystemExit(f"error: {shlex.join(row['argv'])} exited {code}")
                if round_:
                    row["wall_ms"].append(wall_ms)
                    row["run_ms"].append(numbers[0])
                    row["vmhwm_mb"].append(numbers[1])
    for row in rows:
        for key in ("wall_ms", "run_ms", "vmhwm_mb"):
            row[key] = summary(row[key])
    print(json.dumps({
        "python": platform.python_version(), "repeat": repeat, "floor_ms": summary(floor), "calls": rows,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
