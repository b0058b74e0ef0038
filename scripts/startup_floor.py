#!/usr/bin/env python3
"""Wall time of each kind of CLI call next to the interpreter's floor.

    python scripts/startup_floor.py [--rounds K]

The floor is ``python -c "import os; os._exit(0)"``: start-up without the
interpreter teardown that ``cli.run`` skips too, so it is what a call would
cost if the package did nothing (``python -c pass`` also pays the teardown,
about 2.6 ms on a 2-core x86 host).  Every run uses this interpreter and one
private bytecode directory, warmed by an untimed first round.  Each round
runs the floor and every call once, in turn, so a drift in host speed hits
all of them alike.  Printed: the median of ``--rounds`` rounds per call, in
ms, and its excess over the floor's median.
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FLOOR = ["-c", "import os; os._exit(0)"]
CALLS = {
    "dims": ["dims", "--bipartition=2,1|3,2,2,2,1,1,1,1"],
    "involution": ["involution", "--e", "4", "--n", "16", "--bipartition=2,1|3,2,2,2,1,1,1,1"],
    "branch": ["branch", "--e", "4", "--n", "16", "--bipartition=2,1|3,2,2,2,1,1,1,1", "--format", "json"],
    "labels": ["labels", "--e", "6", "--n", "16"],
    "verify": ["verify", "--suite", "uniqueness-distinctness", "--e", "inf", "--n", "12"],
}


def wall_ms(argv: list[str], env: dict) -> float:
    """Wall time of one run of ``argv``, stdout discarded; raises if it fails."""
    with open(os.devnull, "wb") as sink:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, sink.fileno(), 1)])
        _, status = os.waitpid(pid, 0)
        elapsed = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"error: {' '.join(argv)} failed with status {status}")
    return elapsed * 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds; the median is shown")
    args = parser.parse_args()
    runs = {"floor": [sys.executable, *FLOOR]}
    runs.update((kind, [sys.executable, "-m", "dnbranch.cli", *argv]) for kind, argv in CALLS.items())
    times = {kind: [] for kind in runs}
    with tempfile.TemporaryDirectory() as pycache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # every call would compile from source
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        for round_ in range(max(args.rounds, 1) + 1):
            for kind, argv in runs.items():
                ms = wall_ms(argv, env)
                if round_:  # the first round fills the bytecode directory
                    times[kind].append(ms)
    floor = statistics.median(times.pop("floor"))
    print(f"median of {len(times['dims'])} rounds, ms")
    print(f"{'floor os._exit':16} {floor:8.2f}")
    for kind, values in times.items():
        median = statistics.median(values)
        print(f"{kind:16} {median:8.2f} {median - floor:+8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
