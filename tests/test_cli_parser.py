"""The command-line parser against the argparse parser it replaced.

``build_parser`` is the argparse parser the CLI used before its table-driven
parser, kept here as the reference.  For every argv the two must exit with
the same code (2 for a usage error, 0 for help) or accept it, and for every
accepted argv they must read the same values.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from dnbranch import cli
from dnbranch.cli import (
    _SUITES,
    _e_value,
    _size_at_least,
    cmd_branch,
    cmd_dims,
    cmd_involution,
    cmd_labels,
    cmd_lattice,
    cmd_verify,
    main,
)

ROOT = Path(__file__).resolve().parent.parent

_DASH_HELP = "a value starting with '-' must be attached: --bipartition=-|2,1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnbranch",
        description=(
            "Kleshchev bipartitions, good-node crystal operators, the label "
            "involution and socle branching for type-D Hecke algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json"), least_n=0):
        p.add_argument("--e", type=_e_value, required=True, help="quantum characteristic, an integer >= 2 or 'inf'")
        p.add_argument("--n", type=_size_at_least(least_n), required=True, help=f"total size, at least {least_n}")
        if formats:
            p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("lattice", help="print the good lattice up to level n")
    common(p, formats=("text", "json", "dot"))
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("labels", help="print the simple-module labels at level n")
    common(p)
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("branch", help="print socle decompositions of restrictions")
    common(p, formats=("text", "json", "dot"), least_n=2)
    p.add_argument("--bipartition", help="restrict a single label instead of the whole level; " + _DASH_HELP)
    p.add_argument("--sign", choices=["+", "-"], help="sign for an involution-fixed bipartition")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("involution", help="involution image, fixedness and symmetry data")
    common(p, formats=())
    p.add_argument("--bipartition", required=True, help=_DASH_HELP)
    p.set_defaults(func=cmd_involution)

    p = sub.add_parser("dims", help="number of standard fillings of a bipartition")
    p.add_argument("--bipartition", required=True, help=_DASH_HELP)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="run a brute-force verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _outcome(parse, argv):
    """``(exit code or None, parsed values or None, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values = vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    return None, values, out.getvalue(), err.getvalue()


def assert_same_reading(argv):
    code, values, out, err = _outcome(cli.parse_args, argv)
    expected = _outcome(build_parser().parse_args, argv)[:2]
    assert (code, values) == expected, argv
    if code == 2:
        usage, error = err.split("\n", 2)[:2]
        assert out == "" and usage.startswith("usage: dnbranch"), (argv, err)
        assert error.startswith("dnbranch") and ": error: " in error, (argv, err)
    elif code == 0:
        assert out.startswith("usage: dnbranch") and err == "", argv


FIXED = [
    # accepted, with separate, attached and prefixed values
    ["lattice", "--e", "4", "--n", "3"],
    ["lattice", "--e=inf", "--n=3", "--format=dot"],
    ["labels", "--n", "5", "--e", "6", "--form", "json"],
    ["branch", "--e", "4", "--n", "5", "--bip", "2|1,1,1", "--si", "+"],
    ["branch", "--e", "4", "--n", "5", "--bipartition=-|2,1,1,1", "--s=-"],
    ["verify", "--s", "level1-calibration", "--e", "3", "--n", "6"],
    ["dims", "--bipartition", "2,1|1,1"],
    # '-' alone, negative numbers and words with a space are values
    ["branch", "--e", "4", "--n", "5", "--bipartition", "2|1,1,1", "--sign", "-"],
    ["lattice", "--e", "-4", "--n", "3"],
    ["lattice", "--e", "4", "--n", "-1"],
    ["lattice", "--e", "4", "--n", "-1.5"],
    ["lattice", "--e", "4", "--n", "-.5"],
    ["lattice", "--e", "4", "--n", "-1\n"],
    ["involution", "--e", "4", "--n", "3", "--bipartition", "-|2 1"],
    ["dims", "--bipartition", "- |1"],
    ["dims", "--bipartition", "-1"],
    # any other word starting with '-' is an option
    ["dims", "--bipartition", "-|2,1"],
    ["dims", "--bipartition", "-1x"],
    ["dims", "--bipartition", "--"],
    # repeated options: the last wins, but each is converted
    ["lattice", "--e", "4", "--n", "3", "--e", "6", "--format", "json", "--format", "text"],
    ["lattice", "--e", "x", "--n", "3", "--e", "6"],
    # ambiguous and unknown prefixes
    ["lattice", "--e", "4", "--n", "3", "--=x"],
    ["lattice", "--e", "4", "--n", "3", "--bip", "1|1"],
    ["lattice", "--e", "4", "--n", "3", "--bogus"],
    ["lattice", "--e", "4", "--n", "3", "-x"],
    ["lattice", "--e", "4", "--n", "3", "7"],
    # help wins over errors that come after it, not over those before it
    ["-h"],
    ["--he", "junk"],
    ["--bogus", "-h"],
    ["lattice", "-h"],
    ["lattice", "--bogus", "-h", "--e", "x"],
    ["lattice", "--e", "x", "-h"],
    ["lattice", "--e", "-h"],
    ["lattice", "-h", "--=x"],
    ["dims", "-hh"],
    ["dims", "-hx"],
    ["dims", "-h=h"],
    ["dims", "-h="],
    ["dims", "--help=x"],
    ["-hh", "lattice"],
    ["-hx", "lattice"],
    # no command, an unknown one, and '--'
    [],
    ["junk"],
    ["-"],
    ["--bogus"],
    ["--e", "4", "lattice"],
    ["--"],
    ["--", "lattice", "--e", "4", "--n", "3"],
    ["lattice", "--e", "4", "--n", "3", "--"],
    ["lattice", "--e", "4", "--", "--n", "3"],
    ["lattice", "--e", "--", "4", "--n", "3"],
    ["--bogus", "lattice", "--e", "4", "--n", "3"],
]


@pytest.mark.parametrize("argv", FIXED, ids=repr)
def test_fixed_argv_reads_as_argparse_reads_it(argv):
    assert_same_reading(argv)


# words for generated argvs: every flag, its prefixes, and values that are
# accepted (drawn three times in four), rejected, look like options or look
# like values
_GOOD = {
    "--e": ["4", "inf", "2", "6", "-4", " 4"],
    "--n": ["3", "5", "0", "2", "+2"],
    "--format": ["text", "json", "dot"],
    "--bipartition": ["2,1|1,1", "1|2", "-", "-1", "-.5", "-|2 1", "- |1", "a b", ""],
    "--sign": ["+", "-"],
    "--suite": sorted(_SUITES),
}
_BAD = {
    "--e": ["x", "", "1.5", "-1e3"],
    "--n": ["-1", "x", "-1.5", "-1\n", " 2", "1"],
    "--format": ["yaml", "-", "", "j"],
    "--bipartition": ["-|2,1", "-|-", "--x", "-1x", "--"],
    "--sign": ["0", "-1", "--", "+-"],
    "--suite": ["nonsense", "-", "path"],
}
# each command's required options, then its others
_OPTIONS = {
    "lattice": (["--e", "--n"], ["--format"]),
    "labels": (["--e", "--n"], ["--format"]),
    "branch": (["--e", "--n"], ["--format", "--bipartition", "--sign"]),
    "involution": (["--e", "--n", "--bipartition"], []),
    "dims": (["--bipartition"], []),
    "verify": (["--suite", "--e", "--n"], ["--format"]),
}
_NOISE = [
    "-h", "--help", "--he", "-hh", "-hx", "-h=h", "-h=", "--help=x", "--=x", "--", "-",
    "--bogus", "-x", "-e4", "7", "-7", "--no-cache", "a b", "-x y", "--e 4", "", "---", "-h 1",
]
_COMMANDS = sorted(_OPTIONS) * 4 + ["junk", "-", "--", "-1", "a b", ""]


@st.composite
def _option(draw, flag=None):
    flag = flag or draw(st.sampled_from(sorted(_GOOD)))
    value = draw(st.sampled_from(_GOOD[flag] if draw(st.integers(0, 3)) else _BAD[flag]))
    name = flag[: draw(st.integers(3, len(flag)))] if draw(st.integers(0, 3)) == 0 else flag
    form = draw(st.integers(0, 9))
    if form == 0:
        return [name]  # the value is missing
    if form < 4 and value != "--":
        # argparse drops an attached '--' from the value: see the test below
        return [f"{name}={value}"]
    return [name, value]


@st.composite
def _argvs(draw):
    head = draw(st.lists(st.sampled_from(_NOISE), max_size=2)) if draw(st.integers(0, 4)) == 0 else []
    command = draw(st.sampled_from(_COMMANDS))
    required, others = _OPTIONS.get(command, ([], []))
    # each required option is left out one time in eight
    pieces = [draw(_option(flag)) for flag in required if draw(st.integers(0, 7))]
    # more options: three times in four from the command's own
    flags = st.sampled_from(required + others) if required and draw(st.integers(0, 3)) else st.none()
    pieces += draw(st.lists(flags.flatmap(_option), max_size=2))
    if draw(st.integers(0, 3)) == 0:
        pieces += draw(st.lists(st.sampled_from(_NOISE).map(lambda word: [word]), min_size=1, max_size=2))
    words = [word for piece in draw(st.permutations(pieces)) for word in piece]
    return head + [command] + words


@given(argv=_argvs())
@settings(max_examples=500, deadline=None)
def test_generated_argv_reads_as_argparse_reads_it(argv):
    assert_same_reading(argv)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--suite=--", "--e", "4", "--n", "5"], "--suite"),
        (["lattice", "--e", "4", "--n=--"], "--n"),
        (["lattice", "--e", "4", "--n", "3", "--format=--"], "--format"),
        (["branch", "--e", "4", "--n", "5", "--bipartition=1|1,1,1,1", "--sign=--"], "--sign"),
    ],
)
def test_attached_double_dash_is_a_rejected_value(capsys, argv, flag):
    # argparse stores an empty list for an attached '--', which verify and
    # every --n crashed on; here it is the value '--', which no option takes
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err


def _spawn(*argv):
    return subprocess.run(
        [sys.executable, "-m", "dnbranch.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", [None, *_OPTIONS])
def test_help_names_every_option_on_stdout(command):
    result = _spawn(*([command] if command else []), "-h")
    assert (result.returncode, result.stderr) == (0, "")
    usage, *rest = result.stdout.splitlines()
    assert usage.startswith(f"usage: dnbranch {command or ''}".rstrip() + " [-h]")
    if command is None:
        expected = list(_subparsers(build_parser()))
    else:
        expected = list(_subparsers(build_parser())[command]._option_string_actions)
    named = {word.strip(",") for line in rest for word in line.split()}
    assert [word for word in expected if word not in named] == []


def test_no_command_is_a_usage_error():
    result = _spawn()
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: dnbranch [-h] ")
    assert result.stderr.endswith("dnbranch: error: the following arguments are required: command\n")
