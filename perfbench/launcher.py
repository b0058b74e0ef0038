"""Starts the benchmark's invocations, one at a time, and times them.

The benchmark starts this process while it is still small and sends it one
JSON request per line; it answers one JSON line per request.  A child's
max-RSS counts the memory image it was forked from, so spawning from this
small process keeps ``peak_rss_mb`` the program's own.

Request:  {"cmd": [...], "env": {...}, "cwd": "...", "stdout": path,
           "stderr": path, "timeout": seconds}
Reply:    {"code": int, "wall": s, "rss_kb": int, "speed": [before, after]}

``speed`` holds the time of a fixed pure-Python job run right before and
right after the child (the probe after one child is the probe before the
next); it tracks how fast this host runs Python at that moment, which on a
shared machine varies by tens of percent.
"""

import json
import os
import subprocess
import sys
import threading
import time


def speed_probe() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(60_000):
        key = (i % 701, i % 13)
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - start


def serve() -> None:
    before = speed_probe()
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        after = speed_probe()
        reply = {"code": proc.returncode, "wall": wall, "rss_kb": usage.ru_maxrss,
                 "speed": [before, after]}
        before = after
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
