#!/usr/bin/env python3
"""Peak RSS of every full-level command and format at the given points.

    python scripts/peak_rss.py [--repeat K] [E,N ...]

Each run starts a fresh ``python -c`` child that calls
``dnbranch.cli.main([<command>, "--e", E, "--n", N, "--format", F])`` with
stdout to ``/dev/null`` and then writes its own ``VmHWM`` from
``/proc/self/status`` to stderr.  ``exec`` gives the child a new address
space, so that is the command's own peak.  The ``ru_maxrss`` that
``os.wait4`` reports is not: it carries this process's peak across ``exec``,
so a floor read that way (``/bin/true``) is only this process's own size and
is not printed.  Every child reads its bytecode from one private
directory, filled by an untimed import first, so no peak includes
compiling the package.  The best of ``--repeat`` runs is printed, in MB.
Linux only.  The default points are (8,16), (inf,14) and (6,20).
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every full-level command with the formats it writes
COMMANDS = [
    ("lattice", ("text", "json", "dot")),
    ("labels", ("text", "json")),
    ("branch", ("text", "json", "dot")),
]

# the child: run the command, then report its own peak in kB
CHILD = """
import sys
from dnbranch.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""


def peak_mb(argv: list[str], env: dict) -> float:
    """Peak RSS of one run of the command ``argv``, in MB; raises if it fails."""
    result = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if result.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} failed with status {result.returncode}")
    return int(result.stderr.split()[-1]) / 1024  # kB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("points", nargs="*", default=["8,16", "inf,14", "6,20"], help="E,N pairs")
    parser.add_argument("--repeat", type=int, default=3, help="runs per cell; the best is shown")
    args = parser.parse_args()
    if not sys.platform.startswith("linux"):
        raise SystemExit("error: the peak is read from /proc/self/status, which only Linux has")
    print(f"{'point':>8}  {'command':8} {'format':6} {'peak MB':>10}")
    with tempfile.TemporaryDirectory() as pycache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # every child would compile from source
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", "import json, dnbranch.cli"], env=env, check=True)
        for point in args.points:
            e, n = point.split(",")
            for command, formats in COMMANDS:
                for fmt in formats:
                    argv = [command, "--e", e, "--n", n, "--format", fmt]
                    best = min(peak_mb(argv, env) for _ in range(max(args.repeat, 1)))
                    print(f"{point:>8}  {command:8} {fmt:6} {best:10.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
