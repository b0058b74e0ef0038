"""How a command-line process ends: ``cli.run`` around the in-process ``main``.

``run`` turns the cyclic collector off and ends with ``os._exit``, so these
tests check, in child processes with a buffered stdout, that no output or
error line is lost that way, and that the program leaves no cycle whose
memory only the collector would free.
"""

import ast
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dnbranch.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _env():
    # an unbuffered stdout would write every line at once and hide what a
    # buffered one leaves for the end of the process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _spawn(argv, stdout, prelude=""):
    """Run ``argv`` through the process entry, ``python -m dnbranch.cli``,
    or through ``cli.run`` after ``prelude`` when one is given."""
    if prelude:
        command = ["-c", f"import sys; import dnbranch.cli as cli\n{prelude}\nsys.argv[1:] = {argv!r}; cli.run()"]
    else:
        command = ["-m", "dnbranch.cli", *argv]
    return subprocess.run(
        [sys.executable, *command],
        env=_env(), stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


WRITE_FAILURES = [
    ["dims", "--bipartition=2,1|1,1"],
    ["involution", "--e", "4", "--n", "5", "--bipartition=1|2,2"],
    ["labels", "--e", "4", "--n", "5"],
    # large enough to fail while it writes, not only at the end
    ["lattice", "--e", "4", "--n", "14"],
]


@pytest.mark.parametrize("argv", WRITE_FAILURES, ids=lambda argv: argv[0])
def test_write_failure_is_an_error_line_with_exit_1(argv):
    read, write = os.pipe()
    os.close(read)  # a pipe with no reader
    try:
        result = _spawn(argv, write)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, "error: [Errno 32] Broken pipe\n")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "w") as full:
        result = _spawn(argv, full)
    assert (result.returncode, result.stderr) == (1, "error: [Errno 28] No space left on device\n")


def _drop_elapsed(text):
    document = json.loads(text)
    del document["data"]["elapsed"]
    return document


SAME_OUTPUT = [
    ["lattice", "--e", "6", "--n", "12", "--format", "json"],
    ["lattice", "--e", "6", "--n", "12", "--format", "text"],
    ["lattice", "--e", "6", "--n", "12", "--format", "dot"],
    ["branch", "--e", "4", "--n", "12", "--format", "json"],
    ["verify", "--suite", "path-independence", "--e", "4", "--n", "9", "--format", "json"],
    ["dims", "--bipartition=2,1|1,1"],
]


@pytest.mark.parametrize("argv", SAME_OUTPUT, ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
def test_process_entry_writes_what_main_writes(tmp_path, argv):
    target = tmp_path / "stdout"
    with open(target, "w") as out:  # a regular file: stdout is block buffered
        result = _spawn(argv, out)
    expected = _in_process(argv)
    got = (result.returncode, target.read_text(), result.stderr)
    if argv[0] == "verify":
        expected = expected[0], _drop_elapsed(expected[1]), expected[2]
        got = got[0], _drop_elapsed(got[1]), got[2]
    assert got == expected
    assert got[0] == 0 and got[1]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["dims", "--bipartition=2,x"], 2, "error: expected"),
        (["involution", "--e", "4", "--n", "3", "--bipartition=3|-"], 3, "error: 3|- is not a Kleshchev"),
        (["dims"], 2, "usage: dnbranch dims"),  # the parser's SystemExit leaves main
    ],
)
def test_process_entry_keeps_error_lines_and_codes(tmp_path, argv, code, message):
    with open(tmp_path / "stdout", "w") as out:
        result = _spawn(argv, out)
    assert result.returncode == code
    assert result.stderr.startswith(message)
    assert (tmp_path / "stdout").read_text() == ""


def test_budget_stop_keeps_its_written_prefix(tmp_path):
    # a vertex budget that level 6 exceeds: levels 0..5 are written first
    prelude = (
        "import functools\n"
        "cli.iter_levels = functools.partial(cli.iter_levels, max_vertices=60)"
    )
    with open(tmp_path / "stdout", "w") as out:
        result = _spawn(["lattice", "--e", "4", "--n", "8", "--format", "text"], out, prelude)
    written = (tmp_path / "stdout").read_text()
    assert result.returncode == 1
    assert re.fullmatch(r"error: lattice exceeds the vertex budget of 60\n", result.stderr)
    whole = _in_process(["lattice", "--e", "4", "--n", "8", "--format", "text"])[1]
    assert "level 5:" in written and "level 6:" not in written
    assert whole.startswith(written)


# every command, and every suite, at a small and a larger n
GC_COMMANDS = [
    ["lattice", "--format", "json"],
    ["lattice", "--format", "text"],
    ["lattice", "--format", "dot"],
    ["labels", "--format", "json"],
    ["labels"],
    ["branch", "--format", "json"],
    ["branch", "--format", "dot"],
    ["branch"],
    ["branch", "--bipartition={}"],
    ["involution", "--bipartition={}"],
    ["dims", "--bipartition={}"],
    ["verify", "--suite", "path-independence"],
    ["verify", "--suite", "uniqueness-distinctness"],
    ["verify", "--suite", "regime-a-decoupling"],
    ["verify", "--suite", "level1-calibration"],
    ["verify", "--suite", "semisimple-branching"],
]
# a Kleshchev bipartition of each size at both e
GC_POINTS = {5: "1|2,2", 9: "2,1|2,2,1,1"}
# ranks 5 and 9 are semisimple only at e = inf
GC_CASES = [
    (e, command)
    for e in ("4", "inf")
    for command in GC_COMMANDS
    if e == "inf" or "semisimple-branching" not in command
]


@pytest.mark.parametrize(
    "e, command", GC_CASES, ids=lambda value: "-".join(value[:3]) if isinstance(value, list) else value
)
def test_no_command_leaves_cycles_that_grow_with_n(e, command):
    unreachable = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n, bp in GC_POINTS.items():
            argv = [arg.format(bp) for arg in command]
            if argv[0] != "dims":
                argv += ["--e", e, "--n", str(n)]
            gc.collect()
            assert _in_process(argv)[0] == 0
            unreachable.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    assert unreachable == [0, 0]


def test_process_entry_starts_each_command_with_no_cycles():
    # the parser leaves no cycles, so the collector being off holds no memory
    prelude = (
        "import gc\n"
        "dispatch = cli._dispatch\n"
        "cli._dispatch = lambda args: print(gc.isenabled(), gc.collect(), file=sys.stderr) or dispatch(args)"
    )
    result = _spawn(["dims", "--bipartition=2,1|1,1"], subprocess.PIPE, prelude)
    assert (result.returncode, result.stdout, result.stderr) == (0, "20\n", "False 0\n")


def test_both_launchers_call_one_entry():
    # pyproject.toml is read as text: tomllib is not in Python 3.10
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
    target = re.search(r'^dnbranch = "dnbranch\.cli:(\w+)"$', scripts, re.M).group(1)
    tree = ast.parse((ROOT / "src" / "dnbranch" / "cli.py").read_text())
    guard = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    assert [ast.unparse(statement) for statement in guard.body] == [f"{target}()"]
