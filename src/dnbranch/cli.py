"""Command line front end: lattice | labels | branch | involution | dims |
verify, with the options of the ``COMMANDS`` table, read as argparse read
them: ``--opt value`` or ``--opt=value``, a unique prefix of a flag, the
last of a repeated option wins, and ``-h`` anywhere prints help.  A value
given apart that starts with ``-`` must be ``-`` alone, a negative number
or hold a space; any other such word is an option.

Exit codes: 0 success or suite pass, 1 runtime or suite failure, 2 usage
error, 3 domain error (input bipartition not Kleshchev at the given
parameters).  A failed write to stdout, a closed pipe or a full disk, is
a runtime failure, as are a budget stop and an engine invariant error.
The derived regime is echoed in every text header so it is always
visible which side of the parameter split applies.
``labels`` and ``branch`` take a level from ``dmod.top_level`` and a lone
socle from ``dmod.lone_socle``, as the document readers of ``io`` do.

``main(argv)`` runs one command in the calling process and returns its
exit code; the tests and the tracer call it.  ``run()`` is the process
entry of both ``python -m dnbranch.cli`` and the ``dnbranch`` script: it
runs the command as ``main`` does with the cyclic collector off, and ends
the process with ``os._exit``, so a run pays neither for collection passes
over data that holds no cycles nor for tearing the interpreter down.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace

from . import io as dio
from .core import (
    CrystalParams,
    INF,
    REGIME_B,
    classify_regime,
    format_bipartition,
    format_node,
    parse_bipartition,
)
from .crystal import iter_levels
from .dmod import (
    _lone_images,
    _special_cell,
    equivalence_classes,
    format_label,
    level_socles,
    lone_socle,
    residue_counts,
    top_level,
)
from .errors import (
    DnBranchError,
    InvalidEError,
    NotKleshchevError,
    NotSemisimpleError,
    ParseError,
    SignError,
)
from .oracle import (
    VerificationReport,
    bipartition_dimension,
    verify_clifford_socle,
    verify_h_path_independence,
    verify_level1_calibration,
    verify_regime_a_decoupling,
    verify_semisimple_branching,
    verify_uniqueness_and_distinctness,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class _BadValue(ValueError):
    """A command-line value its option does not take; the message says why."""


def _e_value(text: str):
    if text == "inf":
        return INF
    try:
        return int(text)
    except ValueError:
        raise _BadValue(f"expected an integer or 'inf', got {text!r}")


def _size_at_least(least: int):
    """Argument type for ``--n``: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise _BadValue(f"expected an integer, got {text!r}")
        if n < least:
            raise _BadValue(f"must be at least {least}, got {n}")
        return n

    return parse


def _header(params: CrystalParams | VerificationReport, n: int) -> str:
    e_text = "inf" if params.e == INF else str(int(params.e))
    l_text = "inf" if params.l == INF else str(int(params.l))
    return f"# e={e_text} regime={params.regime} l={l_text} n={n}"


# ---------------------------------------------------------------------------
# commands


def _level_pairs(n: int, params: CrystalParams):
    """``(vertices, children)`` of each streamed level, holding none once passed."""
    for vertices, children, _ in iter_levels(n, params):
        yield vertices, children
        del vertices, children


def cmd_lattice(args) -> int:
    params = classify_regime(args.n, args.e)
    levels = _level_pairs(args.n, params)
    write = sys.stdout.write
    if args.format == "json":
        dio.write_lattice_json(params, levels, write)
    elif args.format == "dot":
        dio.write_lattice_dot(levels, write)
    else:
        write(_header(params, args.n) + "\n")
        dio.write_lattice_text(levels, write)
    return EXIT_OK


def cmd_labels(args) -> int:
    params = classify_regime(args.n, args.e)
    level, image_of = top_level(args.n, params)[:2]  # free the table below
    labels = equivalence_classes(level, params, image_of=image_of)
    if args.format == "json":
        print(dio.serialize_json(dio.labels_document(params, args.n, labels)), end="")
    else:
        print(_header(params, args.n))
        for label in labels:
            print(format_label(label))
    return EXIT_OK


def cmd_branch(args) -> int:
    params = classify_regime(args.n, args.e)
    if args.bipartition is None:
        # each label's socle is computed as it is written, from its parents
        entries = level_socles(*top_level(args.n, params, parents=True))
    else:
        # a single label needs no lattice: its memoised peel gives h of it and its removals
        try:
            entries = [lone_socle(parse_bipartition(args.bipartition, args.n), params, args.sign)]
        except SignError:  # a usage error; the engine's FixedPointError is not
            message = f"{args.bipartition!r} is not an involution fixed point, so --sign does not apply"
            print(f"error: {message}", file=sys.stderr)
            return EXIT_USAGE
    write = sys.stdout.write
    if args.format == "json":
        dio.write_branching_json(params, args.n, entries, write)
    elif args.format == "dot":
        dio.write_branching_dot(entries, write)
    else:
        write(_header(params, args.n) + "\n")
        for entry in entries:
            summands = "".join([f"  {format_label(s)}\n" for s in entry.summands])
            write(f"source: {format_label(entry.source)}\n{summands}")
    return EXIT_OK


def cmd_involution(args) -> int:
    params = classify_regime(args.n, args.e)
    bp = parse_bipartition(args.bipartition, args.n)
    image, image_below = _lone_images(bp, params)
    special = _special_cell(bp, params, image_below)
    counts = residue_counts(bp, params)
    print(_header(params, args.n))
    print(f"bipartition: {format_bipartition(bp)}")
    print(f"h: {format_bipartition(image)}")
    print(f"fixed: {'yes' if image == bp else 'no'}")
    print(
        "almost-symmetric: "
        + (f"yes, special node {format_node(special)}" if special else "no")
    )
    print("residues: " + " ".join(f"{k}:{v}" for k, v in counts.items()))
    if params.regime == REGIME_B:
        l = int(params.l)
        e = int(params.e)
        balanced = all(counts[k] == counts[(k + l) % e] for k in counts)
        print(f"balanced: {'yes' if balanced else 'no'}")
    return EXIT_OK


def _decimal(value: int) -> str:
    """Exact decimal text of ``value``, however many digits it has."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters before 3.10.7 have no digit limit
        return str(value)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_dims(args) -> int:
    bp = parse_bipartition(args.bipartition)
    print(_decimal(bipartition_dimension(bp)))
    return EXIT_OK


_SUITES = {
    "clifford-socle": lambda args: verify_clifford_socle(args.n, classify_regime(args.n, args.e)),
    "path-independence": lambda args: verify_h_path_independence(
        args.n, classify_regime(args.n, args.e)
    ),
    "semisimple-branching": lambda args: verify_semisimple_branching(
        args.n, classify_regime(args.n, args.e)
    ),
    "uniqueness-distinctness": lambda args: verify_uniqueness_and_distinctness(
        args.n, classify_regime(args.n, args.e)
    ),
    # these two read --e as the engine parameter l, chosen freely
    "regime-a-decoupling": lambda args: verify_regime_a_decoupling(args.n, args.e),
    "level1-calibration": lambda args: verify_level1_calibration(args.n, args.e),
}


def cmd_verify(args) -> int:
    report = _SUITES[args.suite](args)
    if args.format == "json":
        print(dio.serialize_json(dio.report_document(report)), end="")
    else:
        print(f"suite: {report.suite}")
        print(_header(report, report.n))
        print(f"cases: {report.cases}")
        print(f"failures: {len(report.failures)}")
        for item, expected, got in report.failures[:50]:
            print(f"  {item}: expected {expected}, got {got}")
        print(f"status: {report.status}")
        print(f"elapsed: {report.elapsed:.2f}s")
    return EXIT_OK if report.passed else EXIT_FAILURE


# ---------------------------------------------------------------------------
# parser: one table gives each command's function, help and options, and each
# option its converter or tuple of choices, its default (or _REQUIRED), its help


_REQUIRED = object()
_HELP = ("-h", "--help")
_DASH_HELP = "a value starting with '-' must be attached: --bipartition=-|2,1"
_E = {"--e": (_e_value, _REQUIRED, "quantum characteristic, an integer >= 2 or 'inf'")}
_N = {"--n": (_size_at_least(0), _REQUIRED, "total size, at least 0")}
_FORMAT = {"--format": (("text", "json"), "text", "output format")}
_DOT = {"--format": (("text", "json", "dot"), "text", "output format")}
_BIPARTITION = {"--bipartition": (str, _REQUIRED, _DASH_HELP)}
COMMANDS = {
    "lattice": (cmd_lattice, "print the good lattice up to level n", {**_E, **_N, **_DOT}),
    "labels": (cmd_labels, "print the simple-module labels at level n", {**_E, **_N, **_FORMAT}),
    "branch": (cmd_branch, "print socle decompositions of restrictions", {
        **_E, "--n": (_size_at_least(2), _REQUIRED, "total size, at least 2"), **_DOT,
        "--bipartition": (str, None, "restrict a single label instead of the whole level; " + _DASH_HELP),
        "--sign": (("+", "-"), None, "sign for an involution-fixed bipartition"),
    }),
    "involution": (cmd_involution, "involution image, fixedness and symmetry data", {**_E, **_N, **_BIPARTITION}),
    "dims": (cmd_dims, "number of standard fillings of a bipartition", _BIPARTITION),
    "verify": (cmd_verify, "run a brute-force verification suite", {
        "--suite": (tuple(sorted(_SUITES)), _REQUIRED, "the suite to run"), **_E, **_N, **_FORMAT,
    }),
}


def _usage(command):
    """The usage line of ``command``, or of the program for ``None``, and its help rows."""
    if command is None:
        return "usage: dnbranch [-h] {" + ",".join(COMMANDS) + "} ...\n", [(c, v[1]) for c, v in COMMANDS.items()]
    words, rows = [], [("-h, --help", "show this help and exit")]
    for flag, (convert, default, text) in COMMANDS[command][2].items():
        word = f"{flag} " + ("{" + ",".join(convert) + "}" if isinstance(convert, tuple) else flag[2:].upper())
        words.append(word if default is _REQUIRED else f"[{word}]")
        rows.append((word, text))
    return f"usage: dnbranch {command} [-h] {' '.join(words)}\n", rows


def _exit(command, error=None):
    """Exit 2 with the usage line and ``error`` on stderr, or 0 with help on stdout."""
    usage, rows = _usage(command)
    if error:
        sys.stderr.write(f"{usage}{'dnbranch ' + command if command else 'dnbranch'}: error: {error}\n")
        raise SystemExit(EXIT_USAGE)
    sys.stdout.write(usage + "".join([f"  {left:<12} {right}\n" for left, right in rows]))
    raise SystemExit(EXIT_OK)


def _read_word(command, word: str, flags):
    """argparse's reading of ``word`` among ``flags``: ``None`` for a value,
    else ``(flag, attached value or None)``, flag ``None`` for an unknown option."""
    if word[:1] != "-" or word == "-":
        return None
    name, attached = word.split("=", 1) if "=" in word else (word, None)
    if name in flags:
        return name, attached
    if word[1] == "-":  # a unique prefix of a long flag
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            _exit(command, f"ambiguous option: {word} could match {', '.join(matches)}")
        if matches:
            return matches[0], attached
    elif word[1] == "h":  # -h with more letters attached
        return "-h", word[2:]
    # argparse's negative number, or a word with a space, is a value
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word else (None, None)


def _parse_options(command, words: list, extras: list):
    """The namespace of ``command`` from the words after it, or, for ``None``,
    the program's options before the command; unknown words go to ``extras``."""
    func, _, options = COMMANDS.get(command, (None, None, {}))
    # "--" and every word after it are no options, and "--" is no value
    cut = words.index("--") if "--" in words else len(words)
    read = [_read_word(command, w, [*_HELP, *options]) for w in words[:cut]] + [()] * (len(words) - cut)
    # a required option is _REQUIRED until it is given
    args = SimpleNamespace(command=command, func=func, **{flag[2:]: opt[1] for flag, opt in options.items()})
    for word, reading in (pairs := zip(words, read)):
        if not reading or reading[0] is None:
            extras.append(word)
            continue
        flag, value = reading
        if flag in _HELP:  # an attached value is an error, unless more h's: -hh
            bad = value is not None and (flag != "-h" or not value or value.strip("h"))
            _exit(command, bad and f"argument -h/--help: ignored explicit argument {value!r}")
        if value is None:
            value, reading = next(pairs, (None, ()))
            if reading is not None:
                _exit(command, f"argument {flag}: expected one argument")
        convert = options[flag][0]
        if isinstance(convert, tuple) and value not in convert:
            _exit(command, f"argument {flag}: invalid choice: {value!r}")
        try:
            setattr(args, flag[2:], value if isinstance(convert, tuple) else convert(value))
        except _BadValue as exc:
            _exit(command, f"argument {flag}: {exc}")
    missing = [flag for flag in options if getattr(args, flag[2:]) is _REQUIRED]
    if missing:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    return args


def parse_args(argv):
    """The namespace of a command line, read as argparse reads it; a usage
    error exits 2 and help exits 0."""
    # the command is the first word that is no option of the program's
    i = next((i for i, word in enumerate(argv) if word == "--" or _read_word(None, word, _HELP) is None), len(argv))
    extras = []
    _parse_options(None, argv[:i], extras)
    if argv[i:] in ([], ["--"]):
        _exit(None, "the following arguments are required: command")
    if argv[i] not in COMMANDS:
        _exit(None, f"argument command: invalid choice: {argv[i]!r}")
    args = _parse_options(argv[i], argv[i + 1:], extras)
    if extras:
        _exit(argv[i], f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one command in this process and return its exit code."""
    return _dispatch(parse_args(sys.argv[1:] if argv is None else list(argv)))


def _dispatch(args) -> int:
    """Run a parsed command; its failures become ``error:`` lines and exit codes.

    Stdout is flushed on every return, so a write failure is an ``error:``
    line with exit 1 and nothing is left for the interpreter to write; so is
    every package error but the usage and domain ones.
    """
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()
    except (ParseError, InvalidEError, NotSemisimpleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotKleshchevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (DnBranchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def run() -> None:
    """Process entry of ``python -m dnbranch.cli`` and the ``dnbranch`` script.

    ``main`` without its collection passes and interpreter teardown: the
    parser and the commands hold only acyclic data and write only through
    the flushed standard streams, so no memory waits for a collector that
    is off.  A ``SystemExit`` from the parser (a usage error or help) or an
    exception from the command ends the process the normal way.
    """
    gc.disable()
    code = _dispatch(parse_args(sys.argv[1:]))
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
