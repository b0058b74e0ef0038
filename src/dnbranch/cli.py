"""Command line front end.

Commands: lattice | labels | branch | involution | dims | verify.
Exit codes: 0 success or suite pass, 1 runtime or suite failure, 2 usage
error, 3 domain error (input bipartition not Kleshchev at the given
parameters).  A failed write to stdout, a closed pipe or a full disk, is
a runtime failure.  The derived regime is echoed in every text header so
it is always visible which side of the parameter split applies.

``main(argv)`` runs one command in the calling process and returns its
exit code; the tests and the tracer call it.  ``run()`` is the process
entry of both ``python -m dnbranch.cli`` and the ``dnbranch`` script: it
runs the command as ``main`` does with the cyclic collector off, and ends
the process with ``os._exit``, so a run pays neither for collection passes
over data that holds no cycles nor for tearing the interpreter down.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import io as dio
from .core import (
    CrystalParams,
    INF,
    REGIME_B,
    bipartition_size,
    classify_regime,
    format_bipartition,
    format_node,
    hat,
    parse_bipartition,
)
from .crystal import iter_levels
from .dmod import (
    SPLIT,
    UNSPLIT,
    IrreducibleLabel,
    _lone_images,
    almost_symmetric,
    equivalence_classes,
    format_label,
    level_socles,
    residue_counts,
    socle_restriction,
)
from .errors import (
    InvalidEError,
    NotKleshchevError,
    NotSemisimpleError,
    ParseError,
    ResourceLimitError,
)
from .oracle import (
    VerificationReport,
    bipartition_dimension,
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


def _e_value(text: str):
    if text == "inf":
        return INF
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}")


def _size_at_least(least: int):
    """Argument type for ``--n``: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


def _header(params: CrystalParams | VerificationReport, n: int) -> str:
    e_text = "inf" if params.e == INF else str(int(params.e))
    l_text = "inf" if params.l == INF else str(int(params.l))
    return f"# e={e_text} regime={params.regime} l={l_text} n={n}"


def _parse_bipartition_arg(text: str, n: int):
    bp = parse_bipartition(text)
    if bipartition_size(bp) != n:
        raise ParseError(
            f"bipartition {text!r} has size {bipartition_size(bp)}, expected n={n}"
        )
    return bp


# ---------------------------------------------------------------------------
# commands


def _top_level(n: int, params: CrystalParams):
    """Level ``n`` with ``h`` on it and on level ``n - 1``, each as a function.

    Streamed two levels at a time.  The level ``n - 1`` table is kept from
    its own yield, which costs no more than the stream: it holds that table
    while level ``n`` grows.  No edges are kept.
    """
    below = None
    for level, children, h in iter_levels(n, params):
        del children  # no edges are needed: hold none while the next level grows
        if bipartition_size(level[0]) == n - 1:
            below = h
    return level, _as_function(h), _as_function(below)


def _as_function(table):
    """``h`` on a level: its table in regime B, the swap in regime A."""
    return hat if table is None else table.__getitem__


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
    level, image_of = _top_level(args.n, params)[:2]  # free the table below
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
        # each label's socle is computed as it is written
        level, image_of, image_below = _top_level(args.n, params)
        entries = level_socles(level, params, image_of, image_below)
    else:
        # a single label needs no lattice: its peel and one per further removal give h
        bp = _parse_bipartition_arg(args.bipartition, args.n)
        image, image_below = _lone_images(bp, params)
        fixed = image == bp
        if args.sign is not None and not fixed:
            print(
                f"error: {args.bipartition!r} is not an involution fixed point, "
                "so --sign does not apply",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if fixed:
            sign = args.sign if args.sign is not None else "+"
            label = IrreducibleLabel(SPLIT, bp, sign)
        else:
            label = IrreducibleLabel(UNSPLIT, min(bp, image))
        entries = [socle_restriction(label, params, image_below=image_below)]
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
    bp = _parse_bipartition_arg(args.bipartition, args.n)
    image, image_below = _lone_images(bp, params)
    special = almost_symmetric(bp, params, image_below=image_below)
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
# parser


# argparse reads a separate value starting with "-" as an option
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


def main(argv=None) -> int:
    """Run one command in this process and return its exit code."""
    return _dispatch(build_parser().parse_args(argv))


def _dispatch(args) -> int:
    """Run a parsed command; its failures become ``error:`` lines and exit codes.

    Stdout is flushed on every return, so a write failure is an ``error:``
    line with exit 1 and nothing is left for the interpreter to write.
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
    except (ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def run() -> None:
    """Process entry of ``python -m dnbranch.cli`` and the ``dnbranch`` script.

    ``main`` without its collection passes and interpreter teardown: the
    commands hold only acyclic data and write only through the flushed
    standard streams.  The only cycles are the parser and the help
    formatters argparse makes while building it; they are collected once,
    from the young generation, before the command runs, so no memory waits
    for a collector that is off.  An exception leaving the parser,
    argparse's ``SystemExit`` among them, or the command ends the process
    the normal way.
    """
    gc.disable()
    args = build_parser().parse_args()
    gc.collect(0)
    code = _dispatch(args)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
