import json
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import parent_pairs
from dnbranch import io as dio
from dnbranch.core import INF, classify_regime, regime_a_params
from dnbranch.crystal import build_lattice
from dnbranch.dmod import branching_graph, equivalence_classes, lone_socle, unsplit_class
from dnbranch.errors import ParseError, SchemaMismatchError
from dnbranch.oracle import (
    VerificationReport,
    verify_level1_calibration,
    verify_uniqueness_and_distinctness,
)


@pytest.fixture(scope="module")
def b4_n5():
    params = classify_regime(5, 4)
    return params, build_lattice(5, params)


def test_lattice_round_trip_is_byte_identical(b4_n5):
    params, lattice = b4_n5
    text = dio.serialize_json(dio.lattice_document(lattice))
    doc = dio.parse_json(text)
    assert doc.kind == dio.KIND_LATTICE
    assert doc.params == params
    assert doc.data == lattice
    assert dio.serialize_json(doc) == text


def test_labels_round_trip(b4_n5):
    params, lattice = b4_n5
    labels = equivalence_classes(lattice.levels[5], params, lattice)
    doc = dio.labels_document(params, 5, labels)
    text = dio.serialize_json(doc)
    parsed = dio.parse_json(text)
    assert parsed == doc
    assert dio.serialize_json(parsed) == text


def test_branching_round_trip_infinite_modulus():
    params = classify_regime(5, INF)
    lattice = build_lattice(5, params)
    entries = [
        e
        for e in branching_graph(5, params, lattice)
        if e.source == unsplit_class(((2, 1), (1, 1)), params, lattice)
    ]
    doc = dio.branching_document(params, 5, entries)
    text = dio.serialize_json(doc)
    assert dio.parse_json(text) == doc
    assert dio.serialize_json(dio.parse_json(text)) == text
    assert '"inf"' in text


def test_report_round_trip():
    report = verify_level1_calibration(4, 3)
    doc = dio.report_document(report)
    text = dio.serialize_json(doc)
    parsed = dio.parse_json(text)
    assert parsed.data == report
    assert dio.serialize_json(parsed) == text


# failure texts a report writer must escape as ``json.dumps`` does: quotes,
# backslashes, controls (with and without short escapes), DEL, non-ASCII in
# the basic plane and astral characters, which JSON writes as surrogate pairs
AWKWARD_TEXTS = [
    'say "equal" \\ twice',
    "\x00\x01\x1f \n\r\t\b\f",
    "del \x7f, then ~",
    "h(λ) ≠ λ, é, \u2028",
    "astral \U0001d11e \U0001f600",
    "",
]


# elapsed as a run gives it, as an int, and as a parsed document may hold it
@pytest.mark.parametrize("elapsed", [0.0, 3, 0.1 + 0.2, 12345.678901234567, 5e-324, INF, -INF])
@pytest.mark.parametrize("failures", [0, 2])
def test_report_text_is_json_dumps_without_json(monkeypatch, elapsed, failures):
    triples = [tuple(AWKWARD_TEXTS[:3]), tuple(AWKWARD_TEXTS[3:])][:failures]
    report = VerificationReport(
        "uniqueness-distinctness", 4, "B", 2, 7, cases=12, failures=triples, elapsed=elapsed
    )
    data = {
        "suite": report.suite,
        "n": 7,
        "cases": 12,
        "failures": [list(triple) for triple in triples],
        "elapsed": elapsed,
        "truncated": False,
        "status": report.status,
    }
    whole = {"data": data, "e": 4, "kind": "report", "l": 2, "regime": "B", "schema": dio.SCHEMA}
    expected = json.dumps(whole, sort_keys=True, separators=(",", ":")) + "\n"

    def no_dumps(*args, **kwargs):
        raise AssertionError("a report is written without json.dumps")

    monkeypatch.setattr(json, "dumps", no_dumps)
    text = dio.serialize_json(dio.report_document(report))
    assert text == expected
    assert text.isascii()
    assert dio.parse_json(text).data == report


def test_parse_rejections():
    with pytest.raises(SchemaMismatchError):
        dio.parse_json("{}")
    with pytest.raises(SchemaMismatchError):
        dio.parse_json('{"schema":"dnbranch/0","e":4,"regime":"B","l":2,"kind":"labels","data":{}}')
    with pytest.raises(ParseError) as err:
        dio.parse_json("{not json")
    assert err.value.position is not None
    with pytest.raises(SchemaMismatchError):
        dio.parse_json('{"schema":"dnbranch/1","e":4,"regime":"B","l":2,"kind":"mystery","data":{}}')
    with pytest.raises(SchemaMismatchError):
        dio.parse_json('{"schema":"dnbranch/1","e":4,"regime":"B","l":2,"kind":"labels"}')


def _payload(kind):
    """The parsed JSON of a small labels, branching or report document."""
    params = classify_regime(3, 4)
    lattice = build_lattice(3, params)
    if kind == "labels":
        doc = dio.labels_document(params, 3, equivalence_classes(lattice.levels[3], params, lattice))
    elif kind == "branching":
        doc = dio.branching_document(params, 3, branching_graph(3, params, lattice))
    else:
        report = verify_level1_calibration(4, 3)
        report.failures.append(("input", "expected", "got"))
        doc = dio.report_document(report)
    return json.loads(dio.serialize_json(doc))


# (document kind, path of keys and indices into the payload, doctored value)
PAYLOAD_FAULTS = [
    ("labels", ("n",), "x"),
    ("labels", ("n",), 3.7),
    ("labels", ("n",), -1),
    ("labels", ("n",), True),
    ("labels", ("labels", 0, "rep"), 5),
    ("labels", ("labels", 0, "rep"), "1|2|3"),
    # no writer makes these: an extra key, a sign on an unsplit label, a rep
    # that parses but is not written so
    ("labels", ("extra",), 0),
    ("labels", ("labels", 0, "extra"), 0),
    ("labels", ("labels", 0, "sign"), "+"),
    ("labels", ("labels", 3, "rep"), "+1|1,1"),
    ("labels", ("labels", 3, "rep"), " 1|1,1"),
    ("labels", ("labels", 3, "rep"), "1|1, 1"),
    ("labels", ("labels", 0, "kind"), "other"),
    ("branching", ("n",), "x"),
    ("branching", ("n",), 3.0),
    ("branching", ("entries", 0, "source", "rep"), 5),
    ("branching", ("entries", 0, "summands", 0, "rep"), "x"),
    ("branching", ("entries", 3, "summands", 0, "sign"), "x"),
    ("branching", ("entries", 3, "summands", 0, "kind"), "other"),
    ("report", ("n",), "x"),
    ("report", ("n",), 3.7),
    ("report", ("cases",), "x"),
    ("report", ("cases",), -2),
    ("report", ("cases",), True),
    ("report", ("suite",), 5),
    ("report", ("elapsed",), "x"),
    ("report", ("elapsed",), False),
    ("report", ("truncated",), "no"),
    ("report", ("failures",), "x"),
    ("report", ("failures", 0), ["input", "expected"]),
    ("report", ("failures", 0, 1), 7),
]


@pytest.mark.parametrize(
    "kind, path, value",
    PAYLOAD_FAULTS,
    ids=[f"{kind}-{'.'.join(map(str, path))}={value!r}" for kind, path, value in PAYLOAD_FAULTS],
)
def test_payload_faults_are_schema_mismatches(kind, path, value):
    doc = _payload(kind)
    dio.parse_json(json.dumps(doc))
    target = doc["data"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SchemaMismatchError):
        dio.parse_json(json.dumps(doc))


# Documents well formed but untrue at (4,3): the labels or socles of another
# level, or a point document (one entry, as ``branch --bipartition`` writes
# it) that no command writes.  Each is read by regrowing, so each is a mismatch.


def _one_foreign_label(data):
    data["labels"] = [{"kind": "split", "rep": "9,9|-", "sign": "+"}]


def _first_label_only(data):
    del data["labels"][1:]


def _labels_reversed(data):
    data["labels"].reverse()


def _summands_of_the_next_entry(data):
    data["entries"][0]["summands"] = data["entries"][1]["summands"]


def _point_of(data):
    """The payload cut to its first entry: the point document of that source."""
    del data["entries"][1:]


def _signed_unsplit_point(data):
    _point_of(data)
    data["entries"][0]["source"].update(kind="split", sign="+")


def _point_of_another_size(data):
    _point_of(data)
    data["n"] = 4


def _branching_at_level_1(data):
    data["n"] = 1
    data["entries"] = [
        {"source": {"kind": "unsplit", "rep": "-|1"}, "summands": [{"kind": "unsplit", "rep": "-|-"}]}
    ]


CONTENT_FAULTS = [
    ("labels", _one_foreign_label),
    ("labels", _first_label_only),
    ("labels", _labels_reversed),
    ("branching", _summands_of_the_next_entry),
    ("branching", _signed_unsplit_point),
    ("branching", _point_of_another_size),
    ("branching", _branching_at_level_1),
]


@pytest.mark.parametrize(
    "kind, doctor", CONTENT_FAULTS, ids=[doctor.__name__.strip("_") for _, doctor in CONTENT_FAULTS]
)
def test_untrue_content_is_a_schema_mismatch(kind, doctor):
    doc = _payload(kind)
    doctor(doc["data"])
    with pytest.raises(SchemaMismatchError):
        dio.parse_json(json.dumps(doc))


@pytest.mark.parametrize("sign", ["x", None])
def test_a_point_document_of_a_fixed_point_needs_its_sign(sign):
    # what branch --bipartition=2,1|2,1 --sign - writes, its source sign doctored
    params = classify_regime(6, INF)
    entries = [lone_socle(((2, 1), (2, 1)), params, "-")]
    doc = json.loads(dio.serialize_json(dio.branching_document(params, 6, entries)))
    dio.parse_json(json.dumps(doc))
    source = doc["data"]["entries"][0]["source"]
    if sign is None:
        del source["sign"]
    else:
        source["sign"] = sign
    with pytest.raises(SchemaMismatchError):
        dio.parse_json(json.dumps(doc))


def test_a_short_document_claiming_a_large_level_is_a_mismatch_at_once():
    # the regrowth's vertex budget is the document's 98 bytes
    text = (
        '{"data":{"labels":[],"n":1000000},"e":4,"kind":"labels","l":2,'
        '"regime":"B","schema":"dnbranch/1"}\n'
    )
    assert len(text) == 98
    start = time.perf_counter()
    with pytest.raises(SchemaMismatchError, match="vertex budget of 98"):
        dio.parse_json(text)
    assert time.perf_counter() - start < 0.1


def test_dot_single_vertex_lattice():
    params = classify_regime(0, 4)
    lattice = build_lattice(0, params)
    dot = dio.emit_dot(lattice)
    assert '"-|-";' in dot
    assert "->" not in dot


def test_dot_counts_match_brute_force():
    # six vertices and six covering edges at l=2, n=2 (the middle vertex
    # has two parents)
    lattice = build_lattice(2, regime_a_params(2))
    dot = dio.emit_dot(lattice)
    vertex_lines = [line for line in dot.splitlines() if line.endswith('";')]
    edge_lines = [line for line in dot.splitlines() if "->" in line]
    assert len(vertex_lines) == 6
    assert len(edge_lines) == 6
    parents = parent_pairs(lattice, ((1,), (1,)))
    assert len(parents) == 2


def test_dot_edge_labels_regime_b():
    params = classify_regime(2, 4)
    lattice = build_lattice(2, params)
    dot = dio.emit_dot(lattice)
    for line in dot.splitlines():
        if "->" in line:
            assert 'label="' in line


def test_dot_branching(b4_n5):
    params, lattice = b4_n5
    entries = branching_graph(5, params, lattice)
    dot = dio.emit_dot(entries)
    assert dot.startswith("digraph branching")
    assert "label=" not in dot
    # the almost symmetric vertex at level 5 contributes a split pair
    assert '"D+(1|2,1)"' in dot and '"D-(1|2,1)"' in dot


def _missing_endpoint(data):
    data["edges"][2][0][2] = "5|-"


def _shifted_step_label(data):
    data["edges"][3][0][1] = (data["edges"][3][0][1] + 1) % 4


def _regime_a_step(data):
    data["edges"][1][0][1] = [1, 0]


def _step_out_of_range(data):
    # the last step of its parent, so the edges stay sorted
    data["edges"][2][2][1] = 4


def _non_string_vertex(data):
    data["levels"][1][0] = 7


def _non_integer_level_count(data):
    data["n"] = "5"


def _missing_level(data):
    del data["levels"][5]


def _reversed_level(data):
    data["levels"][3].reverse()


def _duplicate_vertex(data):
    data["levels"][3].append(data["levels"][3][0])


def _reversed_edges(data):
    data["edges"][3].reverse()


def _duplicate_edge(data):
    data["edges"][3].insert(0, data["edges"][3][0])


def _vertex_in_lower_level(data):
    data["levels"][4].append(data["levels"][5].pop())


@pytest.mark.parametrize(
    "doctor",
    [
        _missing_endpoint,
        _shifted_step_label,
        _regime_a_step,
        _step_out_of_range,
        _non_string_vertex,
        _non_integer_level_count,
        _missing_level,
        _reversed_level,
        _duplicate_vertex,
        _reversed_edges,
        _duplicate_edge,
        _vertex_in_lower_level,
    ],
)
def test_lattice_payload_faults_are_schema_mismatches(b4_n5, doctor):
    _, lattice = b4_n5
    doc = json.loads(dio.serialize_json(dio.lattice_document(lattice)))
    doctor(doc["data"])
    with pytest.raises(SchemaMismatchError):
        dio.parse_json(json.dumps(doc))


@pytest.mark.parametrize(
    "e, n, dropped",
    [
        # a shift mirror pair (regime B) and a component-swap mirror pair (regime A)
        (4, 6, [(3, ["-|1,1", 3, "-|2,1"]), (3, ["1,1|-", 1, "2,1|-"])]),
        (3, 4, [(3, ["-|1,1", [1, 0], "1|1,1"]), (3, ["1,1|-", [2, 0], "1,1|1"])]),
    ],
)
def test_an_edge_dropped_with_its_mirror_is_a_mismatch(e, n, dropped):
    # every edge left has its mirror, so only the comparison with the build sees it
    doc = json.loads(dio.serialize_json(dio.lattice_document(build_lattice(n, classify_regime(n, e)))))
    for m, edge in dropped:
        doc["data"]["edges"][m].remove(edge)
    with pytest.raises(SchemaMismatchError, match="not the good lattice"):
        dio.parse_json(json.dumps(doc))


def test_regime_b_header_with_infinite_l_is_a_miss(b4_n5):
    _, lattice = b4_n5
    text = dio.serialize_json(dio.lattice_document(lattice))
    with pytest.raises(SchemaMismatchError):
        dio.parse_json(text.replace('"l":2', '"l":"inf"'))


def test_a_regime_b_alphabet_over_the_limit_is_read_without_a_build():
    # growth would list all 2 * 10**7 residues before it met the vertex budget
    text = (
        '{"data":{"edges":[[]],"levels":[["-|-"]],"n":1},"e":20000000,"kind":"lattice",'
        '"l":10000000,"regime":"B","schema":"dnbranch/1"}\n'
    )
    with pytest.raises(SchemaMismatchError, match="residue alphabet"):
        dio.parse_json(text)


@pytest.mark.parametrize("e, n", [(4, 8), (6, 9), (3, 8), (INF, 7)])
def test_cache_round_trip_rebuilds_the_index(e, n):
    # a parsed lattice document rebuilds the same index as the build
    params = classify_regime(n, e)
    built = build_lattice(n, params)
    loaded = dio.parse_json(dio.serialize_json(dio.lattice_document(built))).data
    assert loaded == built
    assert loaded.h == built.h
    for level in built.levels:
        for bp in level:
            assert parent_pairs(loaded, bp) == parent_pairs(built, bp)


def test_lattice_header_with_l_zero_is_a_miss():
    # at l = 0 the shift table would make h the identity
    params = classify_regime(3, 4)
    text = dio.serialize_json(dio.lattice_document(build_lattice(3, params)))
    assert dio.parse_json(text).params == params
    with pytest.raises(SchemaMismatchError):
        dio.parse_json(text.replace('"l":2', '"l":0'))


@pytest.mark.parametrize("e, regime, l", [(5, "B", 2), (6, "B", 2), (1, "A", 1), (0, "A", 7)])
def test_headers_no_command_makes_are_misses(e, regime, l):
    doc = _payload("labels")
    dio.parse_json(json.dumps(doc))
    doc.update(e=e, regime=regime, l=l)
    with pytest.raises(SchemaMismatchError):
        dio.parse_json(json.dumps(doc))


_DOCTOR_SCRIPT = '''
import json

from dnbranch import io as dio
from dnbranch.core import classify_regime
from dnbranch.crystal import build_lattice
from dnbranch.errors import SchemaMismatchError


def doctorings(data, params):
    """``(name, payload)`` for each way a lattice payload can leave canonical form."""
    levels, edges = data["levels"], data["edges"]
    modulus = params.e if params.regime == "B" else params.l
    first = edges[3][0]
    second = next(edge for edge in edges[3] if edge[0] == first[0] and edge != first)
    last = [edge for edge in edges[3] if edge[0] == first[0]][-1]

    def level(m, vertices):
        return dict(data, levels=levels[:m] + [vertices] + levels[m + 1:])

    def level_edges(m, new):
        return dict(data, edges=edges[:m] + [new] + edges[m + 1:])

    def replaced(edge, parent, step, child):
        return level_edges(3, [[parent, step, child] if e is edge else e for e in edges[3]])

    def moved(step, by):
        return step + by if isinstance(step, int) else [step[0], step[1] + by]

    def wrapped(step, by):
        return (step + by) % modulus if isinstance(step, int) else [step[0], (step[1] + by) % modulus]

    yield "unsorted level", level(3, levels[3][::-1])
    yield "wrong size", level(3, levels[3] + ["4|-"])
    yield "stray child", replaced(first, first[0], first[1], "9|-")
    yield "stray parent", replaced(first, "9|-", first[1], first[2])
    yield "child one level down", replaced(second, second[0], second[1], levels[2][0])
    yield "unsorted edges", level_edges(3, edges[3][::-1])
    yield "duplicate edge", level_edges(3, [first] + edges[3])
    yield "unreached vertex", level(4, levels[4] + ["4|-"])
    # the steps stay sorted and name the same residue
    yield "step out of range", replaced(last, last[0], moved(last[1], modulus), last[2])
    yield "negative step", replaced(first, first[0], moved(first[1], -modulus), first[2])
    yield "empty off-level parent", level_edges(3, [[levels[3][0]]] + edges[3])
    # the first step of the parent's edges that it lacks
    taken = [edge[1] for edge in edges[3] if edge[0] == first[0]]
    free = next(s for s in (wrapped(first[1], k) for k in range(1, modulus)) if s not in taken)
    yield "relabelled step", replaced(first, first[0], free, first[2])
    yield "missing edge list", dict(data, edges=edges[:-1])
    yield "extra edge list", dict(data, edges=edges + [[]])


for e in (4, 3):
    params = classify_regime(5, e)
    doc = json.loads(dio.serialize_json(dio.lattice_document(build_lattice(5, params))))
    for name, data in doctorings(doc["data"], params):
        try:
            dio.parse_json(json.dumps(dict(doc, data=data)))
        except SchemaMismatchError:
            print(e, name, "raised")
'''

DOCTORINGS = [
    "unsorted level", "wrong size", "stray child", "stray parent",
    "child one level down", "unsorted edges", "duplicate edge", "unreached vertex",
    "step out of range", "negative step", "empty off-level parent", "relabelled step",
    "missing edge list", "extra edge list",
]


def test_doctored_lattice_documents_are_mismatches(capsys):
    # regime B at e = 4, regime A at e = 3
    exec(_DOCTOR_SCRIPT, {})
    assert capsys.readouterr().out.splitlines() == [
        f"{e} {name} raised" for e in (4, 3) for name in DOCTORINGS
    ]


def test_doctored_lattice_documents_are_mismatches_under_optimization():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-O", "-c", 'assert False, "asserts are stripped"\n' + _DOCTOR_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"{e} {name} raised" for e in (4, 3) for name in DOCTORINGS
    ]


@pytest.mark.parametrize("e", [4, 3])
def test_every_relabelled_step_is_a_mismatch(e):
    # regime B: the h recurrence would see it; regime A: the swap mirror would
    params = classify_regime(5, e)
    doc = json.loads(dio.serialize_json(dio.lattice_document(build_lattice(5, params))))
    for level_edges in doc["data"]["edges"]:
        for edge in level_edges:
            step = edge[1]
            edge[1] = (step + 1) % e if isinstance(step, int) else [step[0], (step[1] + 1) % e]
            with pytest.raises(SchemaMismatchError, match="not the good lattice"):
                dio.parse_json(json.dumps(doc))
            edge[1] = step
    assert dio.parse_json(json.dumps(doc)).params == params


def _documents():
    """Canonical texts of a lattice, labels, branching and report document at
    n = 4, in regime B (e = 4) and regime A (e = 3)."""
    texts = []
    for e in (4, 3):
        params = classify_regime(4, e)
        lattice = build_lattice(4, params)
        report = verify_uniqueness_and_distinctness(4, params)
        report.failures.append(("input", "expected", "got"))
        for doc in (
            dio.lattice_document(lattice),
            dio.labels_document(params, 4, equivalence_classes(lattice.levels[4], params, lattice)),
            dio.branching_document(params, 4, branching_graph(4, params, lattice)),
            dio.report_document(report),
        ):
            texts.append(dio.serialize_json(doc))
    return texts


DOCUMENTS = _documents()

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, path=()):
    """The path of keys and indices to every value in a JSON tree, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    """The value at ``path`` in a JSON tree."""
    for key in path:
        doc = doc[key]
    return doc


def _retyped(value):
    """The same content as another JSON type."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, (float, list, dict)) or value is None:
        return json.dumps(value)
    return [value]


@st.composite
def _mutations(draw):
    """A canonical document and one field of it changed, retyped, deleted,
    reordered, duplicated or given a new key."""
    text = draw(st.sampled_from(DOCUMENTS))
    doc = json.loads(text)
    # a depth first, so a payload's few top fields are drawn as often as its many leaves
    paths = list(_paths(doc))[1:]
    depth = draw(st.integers(1, max(map(len, paths))))
    path = draw(st.sampled_from([path for path in paths if len(path) == depth]))
    parent = _at(doc, path[:-1])
    key = path[-1]
    value = parent[key]
    kinds = ["value", "type", "delete"] + (["reorder", "duplicate"] if isinstance(value, list) and value else [])
    kinds += ["add"] if isinstance(value, dict) else []
    kind = draw(st.sampled_from(kinds))
    if kind == "value":
        parent[key] = draw(_JSON_VALUES.filter(lambda new: new != value))
    elif kind == "type":
        parent[key] = _retyped(value)
    elif kind == "delete":
        del parent[key]
    elif kind == "reorder":
        parent[key] = draw(st.permutations(value))
    elif kind == "add":
        value[draw(st.text(max_size=5).filter(lambda new: new not in value))] = draw(_JSON_VALUES)
    else:
        k = draw(st.integers(0, len(value) - 1))
        value.insert(k, value[k])
    return json.dumps(doc)


DOCUMENT_IDS = [f"{k}-{r}" for r in "BA" for k in ("lattice", "labels", "branching", "report")]


@pytest.mark.parametrize("text", DOCUMENTS, ids=DOCUMENT_IDS)
def test_unmutated_documents_round_trip(text):
    assert dio.serialize_json(dio.parse_json(text)) == text


@pytest.mark.parametrize("text", DOCUMENTS, ids=DOCUMENT_IDS)
def test_a_key_added_to_any_object_is_a_mismatch(text):
    doc = json.loads(text)
    objects = [path for path in _paths(doc) if isinstance(_at(doc, path), dict)]
    assert len(objects) > 1
    for path in objects:
        _at(doc, path)["extra"] = 0
        with pytest.raises(SchemaMismatchError):
            dio.parse_json(json.dumps(doc))
        del _at(doc, path)["extra"]


@settings(max_examples=300, deadline=None)
@given(_mutations())
def test_mutated_documents_raise_only_schema_or_parse_errors(text):
    try:
        dio.parse_json(text)
    except (SchemaMismatchError, ParseError):
        pass


@pytest.mark.parametrize("text", ["[" * 100_000, '{"n":' + "1" * 5000 + "}"])
def test_json_the_decoder_refuses_is_a_parse_error(text):
    # nesting too deep for the decoder, an integer too long for int()
    with pytest.raises(ParseError):
        dio.parse_json(text)
