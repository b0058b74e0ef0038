"""Full-level commands stream the lattice level by level (``crystal.iter_levels``)."""

import contextlib
import functools
import io
import json
import os
import tracemalloc

import pytest

import dnbranch.dmod as dmod
from dnbranch import io as dio
from dnbranch.cli import main
from dnbranch.core import INF, classify_regime, format_bipartition
from dnbranch.crystal import build_lattice, edges_of, iter_levels
from dnbranch.dmod import branching_graph, equivalence_classes, format_label
from dnbranch.errors import ParseError, ResourceLimitError

# the perfbench grid, both regimes
POINTS = [(4, 16), (6, 16), (8, 16), (2, 20), (3, 16), (INF, 14)]


def _e_text(e) -> str:
    return "inf" if e == INF else str(e)


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _header(params, n) -> str:
    l_text = "inf" if params.l == INF else str(int(params.l))
    return f"# e={_e_text(params.e)} regime={params.regime} l={l_text} n={n}\n"


def _assert_same(got: str, expected: str) -> None:
    # a plain flag: pytest's diff of two megabyte documents takes minutes
    same = got == expected
    assert same, f"documents differ from character {len(os.path.commonprefix([got, expected]))}"


@pytest.mark.parametrize("e, n", POINTS)
def test_streamed_outputs_match_the_built_lattice(e, n):
    params = classify_regime(n, e)
    lattice = build_lattice(n, params)
    common = ["--e", _e_text(e), "--n", str(n), "--format"]

    # the streamed lattice document passes every constructor check on the way back
    text = _run(["lattice", *common, "json"])
    assert dio.parse_json(text).data == lattice
    _assert_same(text, dio.serialize_json(dio.lattice_document(lattice)))

    labels = equivalence_classes(lattice.levels[n], params, lattice)
    _assert_same(
        _run(["labels", *common, "json"]),
        dio.serialize_json(dio.labels_document(params, n, labels)),
    )
    _assert_same(
        _run(["labels", *common, "text"]),
        _header(params, n) + "".join(format_label(label) + "\n" for label in labels),
    )

    entries = branching_graph(n, params, lattice)
    assert [entry.source for entry in entries] == labels
    _assert_same(
        _run(["branch", *common, "json"]),
        dio.serialize_json(dio.branching_document(params, n, entries)),
    )
    _assert_same(_run(["branch", *common, "dot"]), dio.emit_dot(entries))
    _assert_same(
        _run(["branch", *common, "text"]),
        _header(params, n)
        + "".join(
            f"source: {format_label(entry.source)}\n"
            + "".join(f"  {format_label(s)}\n" for s in entry.summands)
            for entry in entries
        ),
    )


# the canonical form, pinned by an encoder that builds JSON trees
def _tree_document(params, kind, data) -> str:
    """A document as ``json.dumps`` writes the whole tree, canonically."""
    header = {
        "schema": "dnbranch/1",
        "e": "inf" if params.e == INF else params.e,
        "regime": params.regime,
        "l": "inf" if params.l == INF else params.l,
        "kind": kind,
        "data": data,
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"


def _label_tree(label):
    out = {"kind": label.kind, "rep": format_bipartition(label.rep)}
    if label.kind == "split":
        out["sign"] = label.sign
    return out


@pytest.mark.parametrize("e, n", POINTS)
def test_documents_match_an_independent_tree_encoder(e, n):
    params = classify_regime(n, e)
    lattice = build_lattice(n, params)
    argv = ["--e", _e_text(e), "--n", str(n), "--format", "json"]

    lattice_tree = {
        "n": n,
        "levels": [[format_bipartition(bp) for bp in level] for level in lattice.levels],
        "edges": [
            [
                [format_bipartition(p), list(s) if isinstance(s, tuple) else s, format_bipartition(c)]
                for p, s, c in level_edges
            ]
            for level_edges in lattice.edges
        ],
    }
    text = _run(["lattice", *argv])
    _assert_same(text, _tree_document(params, "lattice", lattice_tree))
    assert '"-|-"' in text  # the empty component
    if params.regime == "A":
        assert ',[1,0],"1|-"]' in text and ',[2,0],"-|1"]' in text

    labels = equivalence_classes(lattice.levels[n], params, lattice)
    labels_tree = {"n": n, "labels": [_label_tree(label) for label in labels]}
    _assert_same(_run(["labels", *argv]), _tree_document(params, "labels", labels_tree))

    entries = branching_graph(n, params, lattice)
    branching_tree = {
        "n": n,
        "entries": [
            {
                "source": _label_tree(entry.source),
                "summands": [_label_tree(s) for s in entry.summands],
            }
            for entry in entries
        ],
    }
    text = _run(["branch", *argv])
    _assert_same(text, _tree_document(params, "branching", branching_tree))
    if (e, n) != (2, 20):  # at e = 2 no label of level 20 or 19 is split
        assert '"sign":"+"' in text and '"sign":"-"' in text


@pytest.mark.parametrize("e, n", [(4, 9), (INF, 8), (3, 9)])
def test_stream_yields_the_levels_edges_and_h_of_the_lattice(e, n):
    params = classify_regime(n, e)
    lattice = build_lattice(n, params)
    levels = list(iter_levels(n, params))
    assert [vertices for vertices, _, _ in levels] == list(lattice.levels)
    # the children index flattens, level by level, to the lattice's sorted edges
    assert [edges_of(children) for _, children, _ in levels] == list(lattice.edges)
    below = ()
    for vertices, children, _ in levels:
        # a parent for every vertex of the level below, in order, each with steps ascending
        assert tuple(children) == below
        for steps in children.values():
            assert list(steps) == sorted(steps)
        below = vertices
    # the built lattice holds the same index as the stream, parents and steps in order
    for index, (_, children, _) in zip(lattice.index, levels):
        assert [(p, list(s.items())) for p, s in index.items()] == [
            (p, list(s.items())) for p, s in children.items()
        ]
    for vertices, _, h in levels:
        if lattice.h is None:
            assert h is None
        else:
            assert h == {bp: lattice.h[bp] for bp in vertices}


def test_stream_enforces_the_vertex_budget_level_by_level():
    params = classify_regime(8, 4)
    sizes = [len(level) for level in build_lattice(8, params).levels]
    budget = sum(sizes[:6])  # levels 0..5 fit, level 6 does not
    seen = []
    with pytest.raises(ResourceLimitError, match=f"vertex budget of {budget}"):
        for vertices, _, _ in iter_levels(8, params, max_vertices=budget):
            seen.append(len(vertices))
    assert seen == sizes[:6]
    with pytest.raises(ResourceLimitError, match=f"vertex budget of {budget}"):
        build_lattice(8, params, max_vertices=budget)
    assert len(list(iter_levels(8, params, max_vertices=sum(sizes)))) == 9


@pytest.mark.parametrize("e, n", [(4, 10), (INF, 8)])
def test_full_level_reads_h_once_per_vertex_and_once_per_label(monkeypatch, e, n):
    params = classify_regime(n, e)
    lattice = build_lattice(n, params)
    lookups = []

    def forbidden(*args, **kwargs):
        raise AssertionError("a full level went through involution")

    class CountingTable(dict):
        def __getitem__(self, bp):
            lookups.append(bp)
            return super().__getitem__(bp)

    def counting_hat(bp):
        lookups.append(bp)
        return (bp[1], bp[0])

    monkeypatch.setattr(dmod, "involution", forbidden)
    monkeypatch.setattr(dmod, "hat", counting_hat)
    if lattice.h is not None:
        lattice.h = CountingTable(lattice.h)
    entries = branching_graph(n, params, lattice)
    assert len(lookups) == len(lattice.levels[n]) + len(entries)
    assert entries and len(set(lookups)) == len(lattice.levels[n])


def _peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _cli(argv):
    with contextlib.redirect_stdout(_Discard()):
        assert main(argv) == 0


def _parent_style_encode(n, params):
    # the whole lattice, then its whole JSON tree, then the text
    lattice = build_lattice(n, params)
    text = {bp: format_bipartition(bp) for level in lattice.levels for bp in level}
    data = {
        "n": n,
        "levels": [[text[bp] for bp in level] for level in lattice.levels],
        "edges": [
            [[text[p], list(s) if isinstance(s, tuple) else s, text[c]] for p, s, c in level]
            for level in lattice.edges
        ],
    }
    json.dumps({"data": data}, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("e, n", [(6, 12), (INF, 10)])
def test_streamed_commands_hold_less_than_the_built_lattice(e, n):
    params = classify_regime(n, e)
    argv = ["--e", _e_text(e), "--n", str(n), "--format", "json"]
    _cli(["lattice", *argv])  # fill the component memo, so no side pays for it
    labels = _peak_mb(lambda: _cli(["labels", *argv]))
    build = _peak_mb(lambda: build_lattice(n, params))
    assert labels < build
    streamed = _peak_mb(lambda: _cli(["lattice", *argv]))
    whole = _peak_mb(lambda: _parent_style_encode(n, params))
    assert streamed <= 0.75 * whole


def test_budget_stop_leaves_a_truncated_document_and_exit_1(monkeypatch):
    import dnbranch.cli as cli

    params = classify_regime(8, 4)
    lattice = build_lattice(8, params)
    budget = sum(map(len, lattice.levels[:6]))  # level 6 is over budget
    monkeypatch.setattr(cli, "iter_levels", functools.partial(iter_levels, max_vertices=budget))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["lattice", "--e", "4", "--n", "8", "--format", "json"]) == 1
    assert err.getvalue() == f"error: lattice exceeds the vertex budget of {budget}\n"
    # stdout holds the edges of levels 0..5: a prefix of the whole document
    text = out.getvalue()
    head = '{"data":{"edges":'
    assert text.startswith(head)
    assert [len(level) for level in json.loads(text[len(head):] + "]")] == [
        len(level_edges) for level_edges in lattice.edges[:6]
    ]
    assert dio.serialize_json(dio.lattice_document(lattice)).startswith(text)
    with pytest.raises(ParseError):
        dio.parse_json(text)
