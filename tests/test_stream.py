"""Full-level commands stream the lattice level by level (``crystal.iter_levels``)."""

import contextlib
import io
import json
import tracemalloc

import pytest

import dnbranch.dmod as dmod
from dnbranch import io as dio
from dnbranch.cli import main
from dnbranch.core import INF, classify_regime, format_bipartition
from dnbranch.crystal import build_lattice, iter_levels
from dnbranch.dmod import branching_graph, equivalence_classes, format_label
from dnbranch.errors import ResourceLimitError

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


@pytest.mark.parametrize("e, n", POINTS)
def test_streamed_outputs_match_the_built_lattice(e, n):
    params = classify_regime(n, e)
    lattice = build_lattice(n, params)
    common = ["--e", _e_text(e), "--n", str(n), "--format"]

    # the streamed lattice document passes every constructor check on the way back
    text = _run(["lattice", *common, "json"])
    assert dio.parse_json(text).data == lattice
    assert text == dio.serialize_json(dio.lattice_document(lattice))

    labels = equivalence_classes(lattice.levels[n], params, lattice)
    assert _run(["labels", *common, "json"]) == dio.serialize_json(
        dio.labels_document(params, n, labels)
    )
    assert _run(["labels", *common, "text"]) == _header(params, n) + "".join(
        format_label(label) + "\n" for label in labels
    )

    entries = branching_graph(n, params, lattice)
    assert [entry.source for entry in entries] == labels
    assert _run(["branch", *common, "json"]) == dio.serialize_json(
        dio.branching_document(params, n, entries)
    )
    assert _run(["branch", *common, "dot"]) == dio.emit_dot(entries)
    assert _run(["branch", *common, "text"]) == _header(params, n) + "".join(
        f"source: {format_label(entry.source)}\n"
        + "".join(f"  {format_label(s)}\n" for s in entry.summands)
        for entry in entries
    )


@pytest.mark.parametrize("e, n", [(4, 9), (INF, 8), (3, 9)])
def test_stream_yields_the_levels_edges_and_h_of_the_lattice(e, n):
    params = classify_regime(n, e)
    lattice = build_lattice(n, params)
    levels = list(iter_levels(n, params))
    assert [vertices for vertices, _, _ in levels] == list(lattice.levels)
    assert [edges for _, edges, _ in levels] == list(lattice.edges)
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
