"""Full-level commands stream the lattice level by level (``crystal.iter_levels``)."""

import ast
import contextlib
import functools
import io
import json
import os
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from conftest import lattice_edges
import dnbranch.dmod as dmod
from dnbranch import io as dio
from dnbranch.cli import main
from dnbranch.core import INF, bipartition_size, classify_regime, format_bipartition, remove_node
from dnbranch.crystal import build_lattice, good_nodes, iter_levels
from dnbranch.dmod import branching_graph, equivalence_classes, format_label, level_socles
from dnbranch.errors import ParseError, ResourceLimitError
from dnbranch.oracle import (
    verify_clifford_socle,
    verify_h_path_independence,
    verify_uniqueness_and_distinctness,
)

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

    # the streamed lattice document reads back, by one comparison with the build
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
            for level_edges in lattice_edges(lattice)
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


# test-local text, DOT and branching references, written from a built lattice
def _step_text(step) -> str:
    return f"{step[0]}:{step[1]}" if isinstance(step, tuple) else str(step)


def _lattice_text(lattice, params, n) -> str:
    lines = [_header(params, n)]
    for m, level in enumerate(lattice.levels):
        lines.append(f"level {m}: {' '.join(map(format_bipartition, level))}\n")
    for level_edges in lattice_edges(lattice):
        for p, s, c in level_edges:
            lines.append(f"edge: {format_bipartition(p)} --{_step_text(s)}--> {format_bipartition(c)}\n")
    return "".join(lines)


def _lattice_dot(lattice) -> str:
    lines = ["digraph good_lattice {", "  rankdir=BT;"]
    lines += [f'  "{format_bipartition(bp)}";' for level in lattice.levels for bp in level]
    lines += [
        f'  "{format_bipartition(p)}" -> "{format_bipartition(c)}" [label="{_step_text(s)}"];'
        for level_edges in lattice_edges(lattice)
        for p, s, c in level_edges
    ]
    return "\n".join(lines + ["}"]) + "\n"


def _branching_text(entries, params, n) -> str:
    return _header(params, n) + "".join(
        f"source: {format_label(entry.source)}\n"
        + "".join(f"  {format_label(s)}\n" for s in entry.summands)
        for entry in entries
    )


def _branching_dot(entries) -> str:
    names = {format_label(entry.source) for entry in entries}
    names |= {format_label(s) for entry in entries for s in entry.summands}
    lines = ["digraph branching {", "  rankdir=BT;"] + [f'  "{name}";' for name in sorted(names)]
    lines += [
        f'  "{format_label(s)}" -> "{format_label(entry.source)}";'
        for entry in entries
        for s in entry.summands
    ]
    return "\n".join(lines + ["}"]) + "\n"


def _branching_tree(entries, params, n) -> str:
    tree = {
        "n": n,
        "entries": [
            {"source": _label_tree(e.source), "summands": [_label_tree(s) for s in e.summands]}
            for e in entries
        ],
    }
    return _tree_document(params, "branching", tree)


@pytest.mark.parametrize("e, n", POINTS)
def test_streamed_writers_match_test_local_references(e, n):
    params = classify_regime(n, e)
    lattice = build_lattice(n, params)
    entries = branching_graph(n, params, lattice)
    common = ["--e", _e_text(e), "--n", str(n), "--format"]
    _assert_same(_run(["lattice", *common, "text"]), _lattice_text(lattice, params, n))
    _assert_same(_run(["lattice", *common, "dot"]), _lattice_dot(lattice))
    _assert_same(_run(["branch", *common, "text"]), _branching_text(entries, params, n))
    _assert_same(_run(["branch", *common, "json"]), _branching_tree(entries, params, n))
    _assert_same(_run(["branch", *common, "dot"]), _branching_dot(entries))


@pytest.mark.parametrize("e, n", [(4, 9), (INF, 8), (3, 9)])
def test_stream_yields_the_levels_edges_and_h_of_the_lattice(e, n):
    params = classify_regime(n, e)
    lattice = build_lattice(n, params)
    levels = list(iter_levels(n, params))
    assert [vertices for vertices, _, _ in levels] == list(lattice.levels)
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


@pytest.mark.parametrize("e, n", [(4, 10), (INF, 8), (3, 9)])
def test_every_child_is_its_levels_own_vertex(e, n):
    # one tuple per vertex: the index and h hold the level's own objects
    params = classify_regime(n, e)
    streamed = list(iter_levels(n, params))
    lattice = build_lattice(n, params)
    for m, (vertices, children, h) in enumerate(streamed):
        for level, index in ((vertices, children), (lattice.levels[m], lattice.index[m])):
            own = {bp: bp for bp in level}
            for steps in index.values():
                assert all(child is own[child] for child in steps.values())
        if h is not None:
            own = {bp: bp for bp in vertices}
            assert all(bp is own[bp] and image is own[image] for bp, image in h.items())


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
    # each vertex of level n once, in order, and once per good removal of each
    # label, one level down: the removals come from the edges, so they are
    # compared with the word path's good cells as a multiset, label by label
    vertices = lattice.levels[n]
    assert entries and [bp for bp in lookups if bipartition_size(bp) == n] == list(vertices)
    read = iter([bp for bp in lookups if bipartition_size(bp) == n - 1])
    for entry in entries:
        removals = [remove_node(entry.source.rep, node) for node, _ in good_nodes(entry.source.rep, params)]
        assert sorted(islice(read, len(removals))) == sorted(removals)
    assert next(read, None) is None


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
            for level in lattice_edges(lattice)
        ],
    }
    json.dumps({"data": data}, sort_keys=True, separators=(",", ":"))


# Peak traced memory of each full-level writer over that of ``labels``, which
# holds only the stream and its labels.  Each bound is the larger ratio measured
# at the two points below plus 25%: branch JSON 1.28, branch text 1.03, lattice
# JSON 2.45, lattice text 3.10, lattice DOT 3.35.  A writer that keeps a whole
# level's output, every decomposition or the whole lattice goes over.
PEAK_OVER_LABELS = {
    ("branch", "json"): 1.6,
    ("branch", "text"): 1.3,
    ("lattice", "json"): 3.1,
    ("lattice", "text"): 3.9,
    ("lattice", "dot"): 4.2,
}


@pytest.mark.parametrize("e, n", [(6, 12), (INF, 10)])
def test_streamed_commands_hold_less_than_the_built_lattice(e, n):
    params = classify_regime(n, e)
    argv = ["--e", _e_text(e), "--n", str(n), "--format"]
    _cli(["lattice", *argv, "json"])  # fill the component memo, so no side pays for it
    labels = _peak_mb(lambda: _cli(["labels", *argv, "json"]))
    build = _peak_mb(lambda: build_lattice(n, params))
    assert labels < build
    streamed = _peak_mb(lambda: _cli(["lattice", *argv, "json"]))
    whole = _peak_mb(lambda: _parent_style_encode(n, params))
    assert streamed <= 0.75 * whole
    ratios = {
        (command, fmt): _peak_mb(lambda: _cli([command, *argv, fmt])) / labels
        for command, fmt in PEAK_OVER_LABELS
    }
    over = {key: round(ratio, 2) for key, ratio in ratios.items() if ratio > PEAK_OVER_LABELS[key]}
    assert not over, f"peaks over the labels peak {labels:.3f} MB: {over}"


def _drain(levels) -> None:
    for vertices, children, h in levels:
        del vertices, children, h  # hold no level while the next grows


# Peak traced memory of the lattice JSON writer over that of the stream it
# reads, drained by a loop that keeps nothing.  Each bound is the ratio
# measured at its point plus 25%: 1.66 at (6,12) and 2.56 at (inf,10), where
# one piece's list of edge texts weighs most.  The writer keeps only the
# vertex texts that the document puts last; a table of each level's vertex
# texts, kept until the level above is written, reads 2.28 at (6,12).
LATTICE_JSON_OVER_STREAM = {(6, 12): 2.1, (INF, 10): 3.2}


@pytest.mark.parametrize("e, n", LATTICE_JSON_OVER_STREAM)
def test_lattice_json_keeps_no_table_of_vertex_texts(e, n):
    params = classify_regime(n, e)
    discard = _Discard().write
    dio.write_lattice_json(params, iter_levels(n, params), discard)  # fill the memo
    stream = _peak_mb(lambda: _drain(iter_levels(n, params)))
    written = _peak_mb(lambda: dio.write_lattice_json(params, iter_levels(n, params), discard))
    assert written / stream <= LATTICE_JSON_OVER_STREAM[e, n], round(written / stream, 2)


# Peak traced memory of each streamed suite over that of ``build_lattice``,
# after one run of each fills every memo.  Each bound is the ratio measured at
# its point plus 25%: path-independence 0.35 and 0.47, uniqueness-distinctness
# 0.33 and 0.43, clifford-socle 0.66 and 0.58.  A suite driver that keeps
# every level's edges goes over.
SUITE_PEAK_OVER_BUILD = {
    (6, 12): {"path-independence": 0.44, "uniqueness-distinctness": 0.41, "clifford-socle": 0.83},
    (INF, 10): {"path-independence": 0.59, "uniqueness-distinctness": 0.54, "clifford-socle": 0.73},
}


@pytest.mark.parametrize("e, n", SUITE_PEAK_OVER_BUILD)
def test_streamed_suites_hold_less_than_the_built_lattice(e, n):
    params = classify_regime(n, e)
    suites = {
        "path-independence": verify_h_path_independence,
        "uniqueness-distinctness": verify_uniqueness_and_distinctness,
        "clifford-socle": verify_clifford_socle,
    }
    for suite in suites.values():
        assert suite(n, params).passed  # fill the memos, so no side pays for them
    build = _peak_mb(lambda: build_lattice(n, params))
    ratios = {name: _peak_mb(lambda: suite(n, params)) / build for name, suite in suites.items()}
    bounds = SUITE_PEAK_OVER_BUILD[e, n]
    over = {name: round(ratio, 2) for name, ratio in ratios.items() if ratio > bounds[name]}
    assert not over, f"peaks over the build peak {build:.3f} MB: {over}"


def _json_pieces(e, n) -> tuple[list, list]:
    """The pieces each JSON writer passes to ``write`` for a full level."""
    params = classify_regime(n, e)
    lattice_pieces, branching_pieces = [], []
    dio.write_lattice_json(params, iter_levels(n, params), lattice_pieces.append)
    level, image_of, image_below, parents = dmod.top_level(n, params, parents=True)
    entries = level_socles(level, image_of, image_below, parents)
    dio.write_branching_json(params, n, entries, branching_pieces.append)
    return lattice_pieces, branching_pieces


def test_json_writers_write_pieces_that_do_not_grow_with_the_level():
    # a piece holds a fixed count of parents or vertices, or one entry, so from
    # n = 12 to 16 it grows only as one vertex text does (measured 1.30x and
    # 1.27x), while each document grows 6.1x and 4.7x
    for small, large in zip(_json_pieces(6, 12), _json_pieces(6, 16)):
        assert len("".join(large)) >= 4 * len("".join(small))
        assert max(map(len, large)) <= 1.5 * max(map(len, small))


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
        len(level_edges) for level_edges in lattice_edges(lattice)[:6]
    ]
    assert dio.serialize_json(dio.lattice_document(lattice)).startswith(text)
    with pytest.raises(ParseError):
        dio.parse_json(text)


@pytest.mark.parametrize("fmt", ["text", "dot"])
def test_budget_stop_in_text_and_dot_leaves_a_prefix_and_exit_1(monkeypatch, fmt):
    import dnbranch.cli as cli

    argv = ["lattice", "--e", "4", "--n", "8", "--format", fmt]
    whole = _run(argv)
    budget = sum(map(len, build_lattice(8, classify_regime(8, 4)).levels[:6]))
    monkeypatch.setattr(cli, "iter_levels", functools.partial(iter_levels, max_vertices=budget))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert err.getvalue() == f"error: lattice exceeds the vertex budget of {budget}\n"
    # stdout holds the opening lines and the vertex lines of levels 0..5, no edge:
    # a strict prefix of the whole output
    opening = 2 if fmt == "dot" else 1
    vertex_lines = budget if fmt == "dot" else 6  # DOT names one vertex a line
    lines = whole.splitlines(keepends=True)
    assert out.getvalue() == "".join(lines[: opening + vertex_lines])
    assert len(out.getvalue()) < len(whole)


def _call_sites(name: str) -> list[tuple[str, str]]:
    """``(module, innermost enclosing function)`` of every call of ``name`` in
    the package, by its bare or attribute name."""
    package = Path(__file__).resolve().parent.parent / "src" / "dnbranch"
    sites = []

    def visit(tree, module, enclosing):
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    sites.append((module, enclosing))
            inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else enclosing
            visit(node, module, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sites


def test_every_lattice_is_grown_and_checked_on_the_one_level_path():
    # a second grower or validator beside the stream would show up here
    assert _call_sites("_grow") == [("crystal", "iter_levels")]
    assert _call_sites("_next_images") == [("crystal", "iter_levels")]
    assert _call_sites("Lattice") == [("crystal", "build_lattice")]
    # every verify suite streams; only the lattice-document check builds a
    # whole lattice
    assert _call_sites("build_lattice") == [("io", "_lattice_from_data")]
    assert _call_sites("iter_levels") != []  # the search sees calls
    # no code of the package reads a flat edge view (``Lattice.edges``)
    package = Path(__file__).resolve().parent.parent / "src" / "dnbranch"
    nodes = [
        (path.stem, node)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
    ]
    reads = [module for module, node in nodes if isinstance(node, ast.Attribute) and node.attr == "edges"]
    assert reads == []
    # nor defines a flattener, a second regime-A check or a peel path only tests read
    defined = {node.name for _, node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "iter_levels" in defined  # the search sees definitions
    assert defined.isdisjoint({"edges_of", "_swap_closed", "peel_path"})


def test_lone_h_has_one_route():
    # the peel and shifted replay of ``dmod.involution`` is the only
    # lattice-free route to h: no other dmod function replays with good_child,
    # and no path replay, shift helper or peel memo is left beside it
    package = Path(__file__).resolve().parent.parent / "src" / "dnbranch"
    dmod_tree = ast.parse((package / "dmod.py").read_text())
    callers = [
        getattr(statement, "name", "<module>")
        for statement in dmod_tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call)
        and "good_child" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert callers == ["involution"]
    names = {
        name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for name in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
        )
    }
    assert names.isdisjoint({"replay_path", "shift_path", "_shifted_replay", "member_images"})
