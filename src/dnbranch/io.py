"""Canonical JSON serialization and DOT export.

Documents share the top-level shape
``{"schema": "dnbranch/1", "e": ..., "regime": ..., "l": ..., "kind": ...,
"data": ...}`` with ``kind`` one of ``lattice``, ``labels``, ``branching``
or ``report``.  Bipartitions are stored in the core text form, an infinite
``e``/``l`` as the string ``"inf"``, and regime-A steps as
``[component, residue]`` pairs.  Serialization is canonical: keys sorted,
no insignificant whitespace, one trailing newline, so semantically equal
documents are byte identical.

Documents are written as text, not as JSON trees: each vertex, step and
label text is formatted once and joined.  Lattice documents have one
encoder, ``write_lattice_json``, which writes each level's edges as
``crystal.iter_levels`` yields the level, keeping only the vertex texts, and
which ``serialize_json`` runs over a built lattice; labels and branching
documents share one label writer.
"""

from __future__ import annotations

import json

from .core import (
    CrystalParams,
    INF,
    REGIME_A,
    REGIME_B,
    Record,
    format_partition,
    parse_bipartition,
)
from .crystal import Lattice
from .dmod import IrreducibleLabel, SPLIT, SocleDecomposition, UNSPLIT, format_label
from .errors import ParseError, SchemaMismatchError, ShiftReplayError
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


def _extended_to_json(value):
    return "inf" if value == INF else int(value)


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


def _step_to_json(step):
    return list(step) if isinstance(step, tuple) else step

def _step_from_json(value, regime: str):
    if regime == REGIME_A:
        if isinstance(value, list) and len(value) == 2:
            component, i = value
            if isinstance(component, int) and isinstance(i, int):
                return (component, i)
    elif isinstance(value, int):
        return value
    raise SchemaMismatchError(f"malformed regime-{regime} step {value!r}")


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


def _level_texts(level, parts: _Memo) -> dict:
    """Text form of each vertex of a level; ``parts`` memoises component texts."""
    return {bp: f"{parts[bp[0]]}|{parts[bp[1]]}" for bp in level}


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _envelope(params: CrystalParams, kind: str) -> tuple[str, str]:
    """The canonical text before and after a document's ``data`` value.

    ``data`` sorts first among the top-level keys, so the head is
    ``{"data":`` and the tail holds the other keys and the newline.
    """
    head, tail = _dumps(
        {
            "schema": SCHEMA,
            "e": _extended_to_json(params.e),
            "regime": params.regime,
            "l": _extended_to_json(params.l),
            "kind": kind,
            "data": 0,
        }
    ).split("0", 1)
    return head, tail + "\n"


def write_lattice_json(params: CrystalParams, levels, write) -> None:
    """Write the canonical lattice document through ``write``, level by level.

    ``levels`` yields each level's ``(vertices, edges)`` as ``Lattice`` holds
    them, for levels 0..n in order (``crystal.edges_of`` flattens a children
    index into such edges).  The payload's keys sort as ``edges``, ``levels``,
    ``n``, so each level's edges are encoded as the level arrives; only the
    vertex texts are kept, for ``levels``, with those of the level below for
    the edges' parents.  Vertex and step JSON texts are made once each.
    """
    head, tail = _envelope(params, KIND_LATTICE)
    write(head + '{"edges":[')
    parts = _Memo(format_partition)
    steps = _Memo(lambda step: _dumps(_step_to_json(step)))
    level_texts = []
    below: dict = {}
    for m, (vertices, edges) in enumerate(levels):
        # a string's JSON needs no key order or separators: plain dumps is canonical
        texts = {bp: json.dumps(text) for bp, text in _level_texts(vertices, parts).items()}
        joined = ",".join([f"[{below[p]},{steps[s]},{texts[c]}]" for p, s, c in edges])
        write(f"{',' if m else ''}[{joined}]")
        level_texts.append(f"[{','.join(texts.values())}]")
        below = texts
    write(f'],"levels":[{",".join(level_texts)}],"n":{len(level_texts) - 1}}}{tail}')


def _lattice_from_data(params: CrystalParams, data) -> Lattice:
    """The lattice of a payload.

    The level counts are checked first and every vertex text goes through
    ``parse_bipartition``.  Edge endpoints are looked up by their text, so
    an endpoint that is not a listed vertex is a schema mismatch; the
    ``Lattice`` constructor checks the rest of the structure.
    """
    try:
        n = _size_from_json(data["n"], "level count")
        level_texts = data["levels"]
        edge_lists = data["edges"]
        if len(level_texts) != n + 1 or len(edge_lists) != n + 1:
            raise SchemaMismatchError("lattice payload has inconsistent level count")
        vertices = {}
        levels = []
        for level in level_texts:
            parsed = []
            for text in level:
                if not isinstance(text, str):
                    raise SchemaMismatchError(f"vertex {text!r} is not a string")
                bp = vertices[text] = parse_bipartition(text)
                parsed.append(bp)
            levels.append(parsed)
        regime = params.regime
        edges = [
            [
                (vertices[p], _step_from_json(s, regime), vertices[c])
                for p, s, c in level_edges
            ]
            for level_edges in edge_lists
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatchError(f"malformed lattice payload: {exc}") from exc
    try:
        return Lattice(params, levels, edges)
    except ShiftReplayError as exc:
        raise SchemaMismatchError(f"lattice payload is inconsistent: {exc}") from exc


def _label_writer():
    """Canonical text of a label, ``{"kind":…,"rep":…[,"sign":…]}``, made once
    per distinct label from memoised component texts."""
    parts = _Memo(format_partition)

    def label_text(key) -> str:
        kind, (left, right), sign = key
        signed = f',"sign":{json.dumps(sign)}' if kind == SPLIT else ""
        rep = json.dumps(f"{parts[left]}|{parts[right]}")
        return f'{{"kind":{json.dumps(kind)},"rep":{rep}{signed}}}'

    texts = _Memo(label_text)
    return lambda label: texts[label.kind, label.rep, label.sign]


def _labels_json(payload) -> str:
    labels = ",".join(map(_label_writer(), payload["labels"]))
    return f'{{"labels":[{labels}],"n":{_dumps(payload["n"])}}}'


def _labels_from_data(data):
    try:
        return {
            "n": _size_from_json(data["n"], "label size"),
            "labels": [_label_from_json(v) for v in data["labels"]],
        }
    except (KeyError, TypeError) as exc:
        raise SchemaMismatchError(f"malformed labels payload: {exc}") from exc


def _branching_json(payload) -> str:
    label = _label_writer()
    entries = ",".join(
        [
            f'{{"source":{label(entry.source)},'
            f'"summands":[{",".join(map(label, entry.summands))}]}}'
            for entry in payload["entries"]
        ]
    )
    return f'{{"entries":[{entries}],"n":{_dumps(payload["n"])}}}'


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
    if doc.kind == KIND_LATTICE:
        chunks: list[str] = []
        lattice = doc.data
        write_lattice_json(doc.params, zip(lattice.levels, lattice.edges), chunks.append)
        return "".join(chunks)
    if doc.kind == KIND_LABELS:
        data = _labels_json(doc.data)
    elif doc.kind == KIND_BRANCHING:
        data = _branching_json(doc.data)
    elif doc.kind == KIND_REPORT:
        data = _dumps(_report_data(doc.data))
    else:
        raise ValueError(f"unknown document kind {doc.kind!r}")
    head, tail = _envelope(doc.params, doc.kind)
    return head + data + tail


def parse_json(text: str) -> Document:
    """Parse a canonical document, rejecting unknown schemas and shapes."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.colno) from exc
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


def emit_dot(obj) -> str:
    """Render a lattice or a branching graph in the DOT language."""
    lines = []
    if isinstance(obj, Lattice):
        lines.append("digraph good_lattice {")
        lines.append("  rankdir=BT;")
        parts = _Memo(format_partition)
        text = {}
        for level in obj.levels:
            text.update(_level_texts(level, parts))
        for name in text.values():
            lines.append(f'  "{name}";')
        for level_edges in obj.edges:
            for parent, step, child in level_edges:
                lines.append(
                    f'  "{text[parent]}" -> "{text[child]}" [label="{step_label(step)}"];'
                )
        lines.append("}")
    else:
        entries = list(obj)
        lines.append("digraph branching {")
        lines.append("  rankdir=BT;")
        names = []
        for entry in entries:
            names.append(format_label(entry.source))
            names.extend(format_label(s) for s in entry.summands)
        for name in sorted(set(names)):
            lines.append(f'  "{name}";')
        for entry in entries:
            for summand in entry.summands:
                lines.append(
                    f'  "{format_label(summand)}" -> "{format_label(entry.source)}";'
                )
        lines.append("}")
    return "\n".join(lines) + "\n"
