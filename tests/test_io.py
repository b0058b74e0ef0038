import json

import pytest

from dnbranch import io as dio
from dnbranch.core import INF, classify_regime, regime_a_params
from dnbranch.crystal import build_lattice
from dnbranch.dmod import branching_graph, equivalence_classes, unsplit_class
from dnbranch.errors import ParseError, SchemaMismatchError
from dnbranch.oracle import verify_level1_calibration


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
    ("branching", ("n",), "x"),
    ("branching", ("n",), 3.0),
    ("branching", ("entries", 0, "source", "rep"), 5),
    ("branching", ("entries", 0, "summands", 0, "rep"), "x"),
    ("report", ("n",), "x"),
    ("report", ("n",), 3.7),
    ("report", ("cases",), "x"),
    ("report", ("cases",), -2),
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
    parents = lattice.parents(((1,), (1,)))
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


def test_regime_b_header_with_infinite_l_is_a_miss(b4_n5):
    _, lattice = b4_n5
    text = dio.serialize_json(dio.lattice_document(lattice))
    with pytest.raises(SchemaMismatchError):
        dio.parse_json(text.replace('"l":2', '"l":"inf"'))


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
            assert loaded.children(bp) == built.children(bp)
            assert loaded.parents(bp) == built.parents(bp)


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
