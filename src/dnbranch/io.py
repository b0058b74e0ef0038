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
  read each level's ``(vertices, children)`` as ``crystal.iter_levels``
  yields it or ``Lattice.index`` holds it, through ``_lattice_texts``, which
  keeps no table of vertex texts.  Until the end they hold only what the
  format puts last: the vertex texts (JSON) or the edge lines (text, DOT),
  ``_CHUNK`` vertices or parents to a piece;
* ``write_branching_json`` writes entry by entry and keeps none, and
  ``write_branching_dot`` keeps only the label names and edge lines, since
  the sorted names come first.

``serialize_json`` and ``emit_dot`` collect these pieces into one string.
Labels and branching documents share one label writer.  A lattice
document is read by one comparison: rewritten canonically, it must be the
document of the lattice built at its parameters, under a budget of its own
vertex count.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter

from .core import (
    CrystalParams,
    INF,
    REGIME_A,
    REGIME_B,
    Record,
    format_partition,
    parse_bipartition,
)
from .crystal import Lattice, build_lattice
from .dmod import IrreducibleLabel, SPLIT, SocleDecomposition, UNSPLIT, format_label
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


def _extended_from_json(value):
    if value == "inf":
        return INF
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SchemaMismatchError(f"expected an integer or 'inf', got {value!r}")


def _size_from_json(value, what: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise SchemaMismatchError(f"{what} {value!r} is not a size")


def _step_text(step) -> str:
    return f"[{step[0]},{step[1]}]" if isinstance(step, tuple) else str(step)


def _label_from_json(value) -> IrreducibleLabel:
    if not isinstance(value, dict) or "kind" not in value or "rep" not in value:
        raise SchemaMismatchError(f"malformed label {value!r}")
    kind, text = value["kind"], value["rep"]
    if not isinstance(text, str):
        raise SchemaMismatchError(f"label rep {text!r} is not a string")
    try:
        rep = parse_bipartition(text)
    except ParseError as exc:
        raise SchemaMismatchError(f"malformed label rep: {exc}") from exc
    if kind == UNSPLIT:
        return IrreducibleLabel(UNSPLIT, rep)
    if kind == SPLIT:
        if value.get("sign") not in ("+", "-"):
            raise SchemaMismatchError(f"split label needs a sign: {value!r}")
        return IrreducibleLabel(SPLIT, rep, value["sign"])
    raise SchemaMismatchError(f"unknown label kind {kind!r}")


def _params_from_header(obj) -> CrystalParams:
    """The crystal parameters of a header, if some command can make them.

    Those are the parameters of ``classify_regime`` and ``regime_a_params``:
    regime B needs a finite even ``e >= 2`` with ``l = e // 2``, and regime
    A needs ``l = e`` with ``e`` an integer ``>= 2`` or ``inf``.
    """
    e = _extended_from_json(obj["e"])
    l = _extended_from_json(obj["l"])
    regime = obj["regime"]
    if regime == REGIME_B:
        if e == INF or e < 2 or e % 2 or l != e // 2:
            raise SchemaMismatchError(f"no regime-B parameters have e={e!r}, l={l!r}")
        return CrystalParams(e=e, regime=REGIME_B, l=l, multicharge=(0, l))
    if regime == REGIME_A:
        if l != e or e < 2:
            raise SchemaMismatchError(f"no regime-A parameters have e={e!r}, l={l!r}")
        return CrystalParams(e=e, regime=REGIME_A, l=l)
    raise SchemaMismatchError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# payload encoders


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# parents per edge piece and vertices per vertex piece of a lattice document
_CHUNK = 256


def _chunks(items, size: int = _CHUNK):
    """``items`` in consecutive lists of ``size`` (the last may be shorter)."""
    items = iter(items)
    while chunk := list(islice(items, size)):
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


def _lattice_texts(levels, vertex: str, step, edge: str, sep: str):
    """Each level's vertex texts, in order, and its edge texts in pieces.

    ``levels`` yields each level's ``(vertices, children)`` for levels 0..n,
    ``children`` indexing its edges by parent, then step, as ``iter_levels``
    yields it.  The format ``vertex`` takes two memoised component texts and
    ``edge`` a parent's, step's and child's texts; each distinct step fills
    its text, ``step(step)``, into an edge format of its own.  A parent's
    text is made once, with its edges, and no table of vertex texts is kept.
    A piece joins with ``sep`` the edges of ``_CHUNK`` parents; the texts
    and pieces are made as they are read, before the next level is asked for.
    """
    parts = _Memo(format_partition)
    edges = _Memo(lambda s: edge.format("{}", step(s), vertex).format)
    vertex_text = vertex.format
    for vertices, children in levels:
        pieces = (
            sep.join(
                [
                    edges[s](parent, parts[c[0]], parts[c[1]])
                    for (left, right), steps in chunk
                    # one text per parent, bound inside the piece's one comprehension
                    for parent in (vertex_text(parts[left], parts[right]),)
                    for s, c in steps.items()
                ]
            )
            for chunk in _chunks(children.items())
        )
        yield (vertex_text(parts[left], parts[right]) for left, right in vertices), pieces
        del vertices, children, pieces


def write_lattice_json(params: CrystalParams, levels, write) -> None:
    """Write the canonical lattice document through ``write``, in bounded pieces.

    ``levels`` is as ``_lattice_texts`` takes it.  The payload's keys sort as
    ``edges``, ``levels``, ``n``, so each level's edges are written as the
    level arrives, ``_CHUNK`` parents to a piece, and its vertex strings are
    kept for the closing ``levels`` array, joined ``_CHUNK`` to a piece.  A
    vertex's JSON string is formatted straight from its component texts:
    digits, ``,``, ``|`` and ``-`` need no escaping.
    """
    head, tail = _envelope(params, KIND_LATTICE)
    write(head + '{"edges":[')
    vertex_pieces = []
    for texts, edge_pieces in _lattice_texts(
        levels, '"{}|{}"', _step_text, "[{},{},{}]", ","
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


def _lattice_from_data(params: CrystalParams, data) -> Lattice:
    """The lattice of a payload, which must be the one built at its ``n``.

    Only the shape is read first: ``n`` a size and ``levels`` a list of
    lists.  The lattice is built under a budget of the vertex texts the
    payload lists, so a small document cannot ask for a large build.  Then
    one comparison checks every vertex, edge and step: the payload's
    ``edges``, ``levels`` and ``n``, as canonical text, must make the
    build's canonical document.  Text, not values, is compared, since ``true``
    or ``1.0`` equals ``1`` as a value but is no integer.
    """
    import json
    try:
        n = _size_from_json(data["n"], "level count")
        levels = data["levels"]
        if not isinstance(levels, list) or not all(isinstance(level, list) for level in levels):
            raise SchemaMismatchError("lattice levels are not a list of lists")
        fields = {"edges": data["edges"], "levels": levels, "n": n}
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatchError(f"malformed lattice payload: {exc}") from exc
    try:
        lattice = build_lattice(n, params, sum(map(len, levels)))
    except ResourceLimitError:
        pass  # the payload lacks some vertex of the lattice
    else:
        head, tail = _envelope(params, KIND_LATTICE)
        given = head + json.dumps(fields, sort_keys=True, separators=(",", ":")) + tail
        if given == serialize_json(lattice_document(lattice)):
            return lattice
    raise SchemaMismatchError("lattice payload is not the good lattice at its parameters")


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


def _labels_from_data(data):
    try:
        return {
            "n": _size_from_json(data["n"], "label size"),
            "labels": [_label_from_json(v) for v in data["labels"]],
        }
    except (KeyError, TypeError) as exc:
        raise SchemaMismatchError(f"malformed labels payload: {exc}") from exc


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


def _branching_from_data(data):
    try:
        entries = [
            SocleDecomposition(
                _label_from_json(entry["source"]),
                tuple(_label_from_json(s) for s in entry["summands"]),
            )
            for entry in data["entries"]
        ]
        return {"n": _size_from_json(data["n"], "branching size"), "entries": entries}
    except (KeyError, TypeError) as exc:
        raise SchemaMismatchError(f"malformed branching payload: {exc}") from exc


def _report_data(report: VerificationReport):
    return {
        "suite": report.suite,
        "n": report.n,
        "cases": report.cases,
        "failures": [list(f) for f in report.failures],
        "elapsed": report.elapsed,
        "truncated": report.truncated,
        "status": report.status,
    }


def _report_from_data(params: CrystalParams, data) -> VerificationReport:
    try:
        suite, failures = data["suite"], data["failures"]
        elapsed, truncated = data["elapsed"], data["truncated"]
        n = _size_from_json(data["n"], "report size")
        cases = _size_from_json(data["cases"], "case count")
    except (KeyError, TypeError) as exc:
        raise SchemaMismatchError(f"malformed report payload: {exc}") from exc
    if not (
        isinstance(suite, str)
        and isinstance(failures, list)
        and all(
            isinstance(f, list) and len(f) == 3 and all(isinstance(x, str) for x in f)
            for f in failures
        )
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
        n=n,
        cases=cases,
        failures=[tuple(f) for f in failures],
        elapsed=float(elapsed),
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
    params = CrystalParams(
        e=report.e,
        regime=report.regime,
        l=report.l,
        multicharge=(0, int(report.l)) if report.regime == REGIME_B else (0, 0),
    )
    return Document(params, KIND_REPORT, report)


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
        import json  # only a report needs it: the other writers format their ASCII fields
        data = json.dumps(_report_data(doc.data), sort_keys=True, separators=(",", ":"))
    else:
        raise ValueError(f"unknown document kind {doc.kind!r}")
    head, tail = _envelope(doc.params, doc.kind)
    return head + data + tail


def parse_json(text: str) -> Document:
    """Parse a canonical document, rejecting unknown schemas and shapes."""
    import json
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("schema") != SCHEMA:
        raise SchemaMismatchError(
            f"expected schema {SCHEMA!r}, got {obj.get('schema')!r}"
            if isinstance(obj, dict)
            else "top level is not an object"
        )
    for key in ("e", "regime", "l", "kind", "data"):
        if key not in obj:
            raise SchemaMismatchError(f"missing key {key!r}")
    params, kind, data = _params_from_header(obj), obj["kind"], obj["data"]
    if kind == KIND_LATTICE:
        return Document(params, kind, _lattice_from_data(params, data))
    if kind == KIND_LABELS:
        return Document(params, kind, _labels_from_data(data))
    if kind == KIND_BRANCHING:
        return Document(params, kind, _branching_from_data(data))
    if kind == KIND_REPORT:
        return Document(params, kind, _report_from_data(params, data))
    raise SchemaMismatchError(f"unknown document kind {kind!r}")


# ---------------------------------------------------------------------------
# DOT export


def step_label(step) -> str:
    return f"{step[0]}:{step[1]}" if isinstance(step, tuple) else str(step)


def _write_lattice_lines(levels, write, vertex, vertex_lines, edge) -> None:
    """Write each level's vertex lines as the level arrives, then every edge line.

    ``vertex`` and ``edge`` make texts as ``_lattice_texts`` takes them, with
    ``step_label`` for steps; ``vertex_lines(m, texts)`` is the text of level
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
        "{}|{}",
        lambda m, texts: f"level {m}: {' '.join(texts)}\n",
        "edge: {} --{}--> {}\n",
    )


def write_lattice_dot(levels, write) -> None:
    """The lattice in the DOT language: every vertex, then every labeled edge."""
    write("digraph good_lattice {\n  rankdir=BT;\n")
    _write_lattice_lines(
        levels,
        write,
        '"{}|{}"',
        lambda m, texts: "".join([f"  {text};\n" for text in texts]),
        '  {0} -> {2} [label="{1}"];\n',
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
