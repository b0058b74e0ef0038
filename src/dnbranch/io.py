"""Canonical JSON serialization, DOT export and the streamed lattice writers.

Documents share the top-level shape
``{"schema": "dnbranch/1", "e": ..., "regime": ..., "l": ..., "kind": ...,
"data": ...}`` with ``kind`` one of ``lattice``, ``labels``, ``branching``
or ``report``.  Bipartitions are stored in the core text form, an infinite
``e``/``l`` as the string ``"inf"``, and regime-A steps as
``[component, residue]`` pairs.  Serialization is canonical: keys sorted,
no insignificant whitespace, one trailing newline, so semantically equal
documents are byte identical.

Documents are written as text, not as JSON trees: each text is formatted
from memoised component, step and summand texts, and joined.  Every
full-level output has one writer, which takes a ``write`` function and
writes as its input arrives, in pieces of bounded size:

* ``write_lattice_json``, ``write_lattice_text`` and ``write_lattice_dot``
  read each level's vertices and children index straight from
  ``crystal.iter_levels`` or from ``Lattice.index``, through
  ``_lattice_texts``, which keeps no table of vertex texts.  Until the end
  they hold only what the format puts last: the vertex texts (JSON) or the
  edge lines (text, DOT), ``_CHUNK`` vertices or parents to a piece;
* ``write_branching_json`` writes entry by entry and keeps none, and
  ``write_branching_dot`` keeps only the label names and edge lines, since
  the sorted names come first.

``serialize_json`` and ``emit_dot`` collect these pieces into one string.
A verify report is formatted too, its strings escaped as ``json.dumps``
escapes them (``_json_value``), so no document is written through
``json``; only reading one (``parse_json``) imports it.
Only the one label writer knows the label format.  Every document is read
by one comparison: decoded, then written again, it must be its own
canonical text.  A report is decoded from its payload; every other kind is
regrown at its parameters and ``n``, under a vertex budget of the
document's length in bytes.  A one-entry branching document (``branch
--bipartition``) is read as ``dmod.lone_socle`` of its source.  Regime-B
growth lists no alphabet of over ``crystal.MAX_RESIDUE_ALPHABET`` residues,
so a small document cannot ask for a large build.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import attrgetter

from .core import (
    CrystalParams,
    INF,
    REGIME_A,
    Record,
    _Memo,
    classify_regime,
    format_partition,
    parse_bipartition,
    regime_a_params,
)
from .crystal import Lattice, build_lattice
from .dmod import SPLIT, equivalence_classes, format_label, level_socles, lone_socle, top_level
from .errors import ParseError, ResourceLimitError, SchemaMismatchError
from .oracle import VerificationReport

SCHEMA = "dnbranch/1"

KIND_LATTICE = "lattice"
KIND_LABELS = "labels"
KIND_BRANCHING = "branching"
KIND_REPORT = "report"


class Document(Record):
    """A typed payload together with the crystal parameters it was made at."""

    __slots__ = ("params", "kind", "data")

    def __init__(self, params: CrystalParams, kind: str, data: object) -> None:
        self.params = params
        self.kind = kind
        self.data = data


# ---------------------------------------------------------------------------
# encoding helpers


def _extended_text(value) -> str:
    return '"inf"' if value == INF else str(int(value))


def _size_from_json(value, what: str, least: int = 0) -> int:
    if isinstance(value, int) and not isinstance(value, bool) and value >= least:
        return value
    raise SchemaMismatchError(f"{what} {value!r} is not a size of at least {least}")


def _step_text(step) -> str:
    return f"[{step[0]},{step[1]}]" if isinstance(step, tuple) else str(step)


def _params(e, regime: str) -> CrystalParams:
    """The crystal parameters of a document at ``e`` in ``regime``.

    Regime A is ``regime_a_params(e)``.  Any other regime is read as
    ``classify_regime`` at every large ``n``, which is regime B exactly at
    a finite even ``e``; a document whose regime is not that one does not
    round-trip.  Either raises ``InvalidEError`` unless ``e`` is an integer
    ``>= 2`` or ``INF``.
    """
    return regime_a_params(e) if regime == REGIME_A else classify_regime(INF, e)


# ---------------------------------------------------------------------------
# payload encoders


# parents per edge piece and vertices per vertex piece of a lattice document
_CHUNK = 256


def _chunks(items):
    """``items`` in consecutive lists of ``_CHUNK`` (the last may be shorter)."""
    items = iter(items)
    while chunk := list(islice(items, _CHUNK)):
        yield chunk


def _envelope(params: CrystalParams, kind: str) -> tuple[str, str]:
    """The canonical text before and after a document's ``data`` value.

    ``data`` sorts first among the top-level keys, so the head is
    ``{"data":`` and the tail holds the other keys and the newline.
    """
    return '{"data":', (
        f',"e":{_extended_text(params.e)},"kind":"{kind}","l":{_extended_text(params.l)},'
        f'"regime":"{params.regime}","schema":"{SCHEMA}"}}\n'
    )


def _write_joined(write, pieces) -> None:
    """Write ``",".join(pieces)`` through ``write``, one piece at a time."""
    comma = ""
    for piece in pieces:
        write(comma + piece)
        comma = ","


def _lattice_texts(levels, vertex, step, edge, sep: str):
    """Each level's vertex texts, in order, and its edge texts in pieces.

    ``levels`` yields each level's ``(vertices, children, ...)`` for levels
    0..n, ``children`` indexing its edges by parent, then step: the triples
    of ``iter_levels`` as it yields them, or ``zip(levels, index)`` of a
    ``Lattice``.  ``vertex(left, right)`` makes a vertex's text from its two
    memoised component texts, and ``edge(parent, step, left, right)`` an
    edge's from its parent's text, its step's memoised text ``step(step)``
    and its child's component texts; both are f-strings, compiled once.  A
    parent's text is made once, with its edges, and no table of vertex texts
    is kept.  A piece joins with ``sep`` the edges of ``_CHUNK`` parents;
    the texts and pieces are made as they are read, before the next level
    is asked for.
    """
    parts = _Memo(format_partition)
    steps = _Memo(step)
    for vertices, children, *_ in levels:
        pieces = (
            sep.join(
                [
                    edge(parent, steps[s], parts[left], parts[right])
                    for (above_left, above_right), step_children in chunk
                    # one text per parent, bound inside the piece's one comprehension
                    for parent in (vertex(parts[above_left], parts[above_right]),)
                    for s, (left, right) in step_children.items()
                ]
            )
            for chunk in _chunks(children.items())
        )
        yield (vertex(parts[left], parts[right]) for left, right in vertices), pieces
        del vertices, children, _, pieces


def write_lattice_json(params: CrystalParams, levels, write) -> None:
    """Write the canonical lattice document through ``write``, in bounded pieces.

    ``levels`` is as ``_lattice_texts`` takes it.  The payload's keys sort as
    ``edges``, ``levels``, ``n``, so each level's edges are written as the
    level arrives, ``_CHUNK`` parents to a piece, and its vertex strings are
    kept for the closing ``levels`` array, joined ``_CHUNK`` to a piece.  A
    vertex's JSON string is an f-string of its component texts: digits,
    ``,``, ``|`` and ``-`` need no escaping.
    """
    head, tail = _envelope(params, KIND_LATTICE)
    write(head + '{"edges":[')
    vertex_pieces = []
    for texts, edge_pieces in _lattice_texts(
        levels,
        lambda left, right: f'"{left}|{right}"',
        _step_text,
        lambda parent, step, left, right: f'[{parent},{step},"{left}|{right}"]',
        ",",
    ):
        write(",[" if vertex_pieces else "[")
        _write_joined(write, filter(None, edge_pieces))  # a parent may have no edge
        write("]")
        vertex_pieces.append(list(map(",".join, _chunks(texts))))
    write('],"levels":[')
    for m, pieces in enumerate(vertex_pieces):
        write(",[" if m else "[")
        _write_joined(write, pieces)
        write("]")
    write(f'],"n":{len(vertex_pieces) - 1}}}{tail}')


def _lattice_from_data(params: CrystalParams, data, budget: int) -> Lattice:
    """The lattice built at a payload's parameters and ``n``, under a vertex
    ``budget``.  ``parse_json`` then checks every vertex, edge and step by
    comparing the build's document with the payload's text."""
    return build_lattice(data["n"], params, budget)


_label_fields = attrgetter("kind", "rep", "sign")


def _label_writer():
    """Canonical text of a label from its ``_label_fields``,
    ``{"kind":…,"rep":…[,"sign":…]}``, made from memoised component texts."""
    parts = _Memo(format_partition)

    def label_text(fields) -> str:
        kind, (left, right), sign = fields
        signed = f',"sign":"{sign}"' if kind == SPLIT else ""
        return f'{{"kind":"{kind}","rep":"{parts[left]}|{parts[right]}"{signed}}}'

    return label_text


def _labels_json(payload) -> str:
    labels = ",".join(map(_label_writer(), map(_label_fields, payload["labels"])))
    return f'{{"labels":[{labels}],"n":{payload["n"]}}}'


def _labels_from_data(params: CrystalParams, data, budget: int):
    """The labels of level ``n`` at a payload's parameters, regrown under a
    vertex ``budget``; the payload's own labels are only compared."""
    n = _size_from_json(data["n"], "label size")
    level, image_of = top_level(n, params, max_vertices=budget)[:2]
    return {"n": n, "labels": equivalence_classes(level, params, image_of=image_of)}


def write_branching_json(params: CrystalParams, n: int, entries, write) -> None:
    """Write the canonical branching document through ``write``, entry by entry.

    ``entries`` yields the ``SocleDecomposition`` of each label in label
    order; none is kept once written.  Each source is written once, so only
    the summand texts, which repeat, are memoised.
    """
    head, tail = _envelope(params, KIND_BRANCHING)
    label = _label_writer()
    summands = _Memo(label)
    write(head + '{"entries":[')
    _write_joined(
        write,
        (
            f'{{"source":{label(_label_fields(entry.source))},'
            f'"summands":[{",".join([summands[_label_fields(s)] for s in entry.summands])}]}}'
            for entry in entries
        ),
    )
    write(f'],"n":{n}}}{tail}')


def _branching_from_data(params: CrystalParams, data, budget: int):
    """The socles of a payload, asked again: of a one-entry payload's source
    alone (a level of one label writes that same entry), else of level ``n``
    regrown under a vertex ``budget``."""
    n = _size_from_json(data["n"], "branching size", 2)  # as ``branch --n`` reads it
    if len(data["entries"]) != 1:
        entries = level_socles(*top_level(n, params, parents=True, max_vertices=budget))
        return {"n": n, "entries": list(entries)}
    source = data["entries"][0]["source"]
    bp = parse_bipartition(source["rep"], n)
    return {"n": n, "entries": [lone_socle(bp, params, source.get("sign"))]}


def _char_escape(code: int) -> str:
    """A character's text in a JSON string, as ``json.dumps`` writes it:
    printable ASCII as itself, any other code point ``\\uXXXX``, a pair of
    surrogates above the basic plane."""
    if 0x20 <= code < 0x7F:
        return chr(code)
    if code > 0xFFFF:
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


# ``str.translate`` table of JSON string escapes, filled as characters are met
_ESCAPES = _Memo(_char_escape)
_ESCAPES.update(
    str.maketrans(
        {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    )
)


def _json_value(value) -> str:
    """``json.dumps`` of a string, a bool, an int or a float."""
    if isinstance(value, str):
        return f'"{value.translate(_ESCAPES)}"'
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value != value:
        return "NaN"
    if value == INF or value == -INF:
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _report_json(report: VerificationReport) -> str:
    """The canonical ``data`` text of a report, keys in sorted order; each
    failure is a list of three strings."""
    failures = ",".join(
        [f"[{','.join(map(_json_value, failure))}]" for failure in report.failures]
    )
    return (
        f'{{"cases":{_json_value(report.cases)},"elapsed":{_json_value(report.elapsed)},'
        f'"failures":[{failures}],"n":{_json_value(report.n)},'
        f'"status":{_json_value(report.status)},"suite":{_json_value(report.suite)},'
        f'"truncated":{_json_value(report.truncated)}}}'
    )


def _report_from_data(params: CrystalParams, data, budget: int) -> VerificationReport:
    """The report of a payload.  Its texts, ``elapsed`` and ``truncated``
    are checked here, since the writer would write any other value back."""
    suite, elapsed, truncated = data["suite"], data["elapsed"], data["truncated"]
    failures = [(given, expected, got) for given, expected, got in data["failures"]]
    if not (
        all(isinstance(text, str) for text in (suite, *chain.from_iterable(failures)))
        and isinstance(elapsed, (int, float))
        and not isinstance(elapsed, bool)
        and isinstance(truncated, bool)
    ):
        raise SchemaMismatchError("malformed report payload")
    return VerificationReport(
        suite=suite,
        e=params.e,
        regime=params.regime,
        l=params.l,
        n=_size_from_json(data["n"], "report size"),
        cases=_size_from_json(data["cases"], "case count"),
        failures=failures,
        elapsed=elapsed,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# documents


def lattice_document(lattice: Lattice) -> Document:
    return Document(lattice.params, KIND_LATTICE, lattice)

def labels_document(params: CrystalParams, n: int, labels) -> Document:
    return Document(params, KIND_LABELS, {"n": n, "labels": list(labels)})

def branching_document(params: CrystalParams, n: int, entries) -> Document:
    return Document(params, KIND_BRANCHING, {"n": n, "entries": list(entries)})

def report_document(report: VerificationReport) -> Document:
    return Document(_params(report.e, report.regime), KIND_REPORT, report)


def serialize_json(doc: Document) -> str:
    """Canonical text of a document: sorted keys, compact, newline terminated."""
    chunks: list[str] = []
    if doc.kind == KIND_LATTICE:
        lattice = doc.data
        write_lattice_json(doc.params, zip(lattice.levels, lattice.index), chunks.append)
        return "".join(chunks)
    if doc.kind == KIND_BRANCHING:
        write_branching_json(doc.params, doc.data["n"], doc.data["entries"], chunks.append)
        return "".join(chunks)
    if doc.kind == KIND_LABELS:
        data = _labels_json(doc.data)
    elif doc.kind == KIND_REPORT:
        data = _report_json(doc.data)
    else:
        raise ValueError(f"unknown document kind {doc.kind!r}")
    head, tail = _envelope(doc.params, doc.kind)
    return head + data + tail


# the payload reader of each kind: ``(params, data, vertex budget)`` to ``Document.data``
_READERS = {
    KIND_LATTICE: _lattice_from_data,
    KIND_LABELS: _labels_from_data,
    KIND_BRANCHING: _branching_from_data,
    KIND_REPORT: _report_from_data,
}


def parse_json(text: str) -> Document:
    """Parse a canonical document: decoded and written again, it must be its
    own canonical text.

    The header's ``e`` and ``regime`` fix the parameters, ``l`` among them,
    and the kind's reader decodes the payload.  ``serialize_json`` of the
    result must equal the input rewritten with sorted keys and no
    whitespace, so a missing or extra key, a wrong ``l`` or a value in
    another spelling or JSON type (``true`` or ``1.0`` for ``1``) is a
    mismatch.  Text, not values, is compared, since ``true == 1``.  Any
    failure to decode or write is a ``SchemaMismatchError``.
    """
    import json
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema != SCHEMA:
        raise SchemaMismatchError(f"expected schema {SCHEMA!r}, got {schema!r}")
    try:
        kind = obj["kind"]
        params = _params(INF if obj["e"] == "inf" else obj["e"], obj["regime"])
        # a true document, ASCII, holds several bytes per vertex it regrows
        doc = Document(params, kind, _READERS[kind](params, obj["data"], len(text)))
        canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode(obj) + "\n"
        same = serialize_json(doc) == canonical
    except SchemaMismatchError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, ResourceLimitError) as exc:
        raise SchemaMismatchError(f"malformed document: {exc}") from exc
    if not same:
        raise SchemaMismatchError(
            f"the {kind} document does not round-trip"
            " (a lattice one: not the good lattice at its parameters)"
        )
    return doc


# ---------------------------------------------------------------------------
# DOT export


def step_label(step) -> str:
    return f"{step[0]}:{step[1]}" if isinstance(step, tuple) else str(step)


def _write_lattice_lines(levels, write, vertex, vertex_lines, edge) -> None:
    """Write each level's vertex lines as the level arrives, then every edge line.

    ``vertex`` and ``edge`` make texts as ``_lattice_texts`` takes them, with
    ``step_label`` for step texts; ``vertex_lines(m, texts)`` is the text of level
    ``m`` from its vertex texts.  Only the edge lines are kept until the
    end, in pieces of ``_CHUNK`` parents.
    """
    edge_pieces = []
    for m, (texts, pieces) in enumerate(_lattice_texts(levels, vertex, step_label, edge, "")):
        write(vertex_lines(m, texts))
        edge_pieces.extend(pieces)
    for piece in edge_pieces:
        write(piece)


def write_lattice_text(levels, write) -> None:
    """The lattice as ``level m: v ...`` lines, then ``edge: p --s--> c`` lines."""
    _write_lattice_lines(
        levels,
        write,
        lambda left, right: f"{left}|{right}",
        lambda m, texts: f"level {m}: {' '.join(texts)}\n",
        lambda parent, step, left, right: f"edge: {parent} --{step}--> {left}|{right}\n",
    )


def write_lattice_dot(levels, write) -> None:
    """The lattice in the DOT language: every vertex, then every labeled edge."""
    write("digraph good_lattice {\n  rankdir=BT;\n")
    _write_lattice_lines(
        levels,
        write,
        lambda left, right: f'"{left}|{right}"',
        lambda m, texts: "".join([f"  {text};\n" for text in texts]),
        lambda parent, step, left, right: f'  {parent} -> "{left}|{right}" [label="{step}"];\n',
    )
    write("}\n")


def write_branching_dot(entries, write) -> None:
    """Branching edges, summand to source, in the DOT language.

    ``entries`` is read once; only the label names and the edge lines are
    kept, because the names, sorted, come before every edge.
    """
    names = _Memo(format_label)
    edges = []
    for entry in entries:
        source = names[entry.source]
        edges.extend([f'  "{names[summand]}" -> "{source}";\n' for summand in entry.summands])
    write("digraph branching {\n  rankdir=BT;\n")
    for chunk in _chunks(sorted(names.values())):
        write("".join([f'  "{name}";\n' for name in chunk]))
    for chunk in _chunks(edges):
        write("".join(chunk))
    write("}\n")


def emit_dot(obj) -> str:
    """Render a lattice or a branching graph in the DOT language."""
    chunks: list[str] = []
    if isinstance(obj, Lattice):
        write_lattice_dot(zip(obj.levels, obj.index), chunks.append)
    else:
        write_branching_dot(obj, chunks.append)
    return "".join(chunks)
