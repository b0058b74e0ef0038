import hashlib
import json
import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings

from conftest import (
    bipartitions,
    count_standard_bitableaux,
    enumerate_bipartitions,
    is_l_restricted,
    lattice_edges,
    parent_pairs,
    restricted_bipartitions,
)
from dnbranch.core import (
    EMPTY_BIPARTITION,
    INF,
    classify_regime,
    format_bipartition,
    format_partition,
    hat,
    regime_a_params,
    remove_node,
    removable_nodes,
)
from dnbranch.cli import main
from dnbranch.crystal import build_lattice, iter_levels, partition_crystal_levels
from dnbranch.dmod import (
    SPLIT,
    UNSPLIT,
    IrreducibleLabel,
    SocleDecomposition,
    format_label,
    involution,
    level_socles,
)
from dnbranch.errors import NotSemisimpleError, ResourceLimitError
from dnbranch.oracle import (
    bipartition_dimension,
    enumerate_partitions,
    restricted_partitions,
    standard_tableaux_count,
    verify_clifford_socle,
    verify_h_path_independence,
    verify_level1_calibration,
    verify_regime_a_decoupling,
    verify_semisimple_branching,
    verify_uniqueness_and_distinctness,
)


def test_enumerate_partitions():
    assert list(enumerate_partitions(0)) == [()]
    assert set(enumerate_partitions(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert len(list(enumerate_partitions(8))) == 22
    assert len(list(enumerate_bipartitions(4))) == 20


def _lattice_paths(bp, lattice):
    """Every step sequence from the empty bipartition to ``bp`` in ``lattice``."""
    if bp == EMPTY_BIPARTITION:
        return [()]
    return [
        path + (step,)
        for parent, step in parent_pairs(lattice, bp)
        for path in _lattice_paths(parent, lattice)
    ]


def test_all_paths_examples():
    params = classify_regime(4, 4)
    lattice = build_lattice(4, params)
    assert _lattice_paths(EMPTY_BIPARTITION, lattice) == [()]
    assert sorted(_lattice_paths(((1,), (1,)), lattice)) == [(0, 2), (2, 0)]


def test_all_paths_unique_in_decoupled_regime():
    params = regime_a_params(2)
    lattice = build_lattice(2, params)
    paths = _lattice_paths(((1, 1), ()), lattice)
    assert paths == [((1, 0), (1, 1))]


def test_bipartition_dimension_examples():
    assert bipartition_dimension(((2,), ())) == 1
    assert bipartition_dimension(((1,), (1,))) == 2
    assert bipartition_dimension(((2, 1), (1, 1))) == 20
    assert bipartition_dimension(((2, 1), (2, 1))) == 80
    assert bipartition_dimension(EMPTY_BIPARTITION) == 1


def test_dimension_against_explicit_enumeration():
    for n in range(7):
        for bp in enumerate_bipartitions(n):
            assert bipartition_dimension(bp) == count_standard_bitableaux(bp)


def test_dimension_satisfies_the_removal_recurrence():
    for n in range(1, 8):
        for bp in enumerate_bipartitions(n):
            total = sum(
                bipartition_dimension(remove_node(bp, node))
                for node in removable_nodes(bp)
            )
            assert bipartition_dimension(bp) == total


def _per_cell_hook_count(parts) -> int:
    """The hook formula dividing ``n!`` once per cell: the reference for the one division."""
    numerator = factorial(sum(parts))
    for i, p in enumerate(parts):
        for j in range(p):
            numerator //= p - j + sum(q > j for q in parts) - i - 1
    return numerator


def test_tableaux_count_matches_the_per_cell_hook_formula():
    rng = random.Random(35)
    shapes = [(5000,), ()]
    for _ in range(300):
        parts, left = [], rng.randint(1, 40)
        while left:
            parts.append(rng.randint(1, left))
            left -= parts[-1]
        shapes.append(tuple(sorted(parts, reverse=True)))
    for parts in shapes:
        assert standard_tableaux_count(parts) == _per_cell_hook_count(parts), parts


def test_path_independence_suites():
    for e, n in ((4, 6), (6, 5), (6, 12), (8, 12)):
        report = verify_h_path_independence(n, classify_regime(n, e))
        assert report.passed and report.cases > 0 and not report.failures


def test_path_independence_vacuous_in_regime_a():
    report = verify_h_path_independence(4, classify_regime(4, INF))
    assert report.passed


def test_path_independence_catches_a_wrong_involution(monkeypatch):
    # an involution that swaps two orbits at level 3 still squares to the
    # identity, so only the edge check can see it
    import dnbranch.oracle as oracle

    a, b = ((3,), ()), ((2,), (1,))
    twist = {a: hat(b), hat(b): a, b: hat(a), hat(a): b}
    monkeypatch.setattr(oracle, "image_function", lambda table: lambda bp: twist.get(bp, hat(bp)))
    report = verify_h_path_independence(4, classify_regime(4, INF))
    assert report.failures and all(item.startswith("edge ") for item, _, _ in report.failures)


@pytest.mark.parametrize("e, n, cases", [(4, 7, 391), (6, 7, 568), (2, 10, 307)])
def test_path_independence_case_counts(e, n, cases):
    # one case per vertex and per edge
    report = verify_h_path_independence(n, classify_regime(n, e))
    assert report.passed and report.cases == cases


def _patch_h(monkeypatch, twist):
    """Make the suite read ``h`` from the stream's tables, except on ``twist``."""
    import dnbranch.oracle as oracle

    monkeypatch.setattr(
        oracle, "image_function", lambda table: lambda bp: twist.get(bp, table[bp])
    )


def test_path_independence_catches_a_wrong_involution_in_regime_b(monkeypatch):
    params = classify_regime(5, 4)
    lattice = build_lattice(5, params)
    h = lattice.h
    moved = [bp for bp in lattice.levels[3] if h[bp] != bp]
    a = moved[0]
    b = next(bp for bp in moved if bp not in (a, h[a]))
    _patch_h(monkeypatch, {a: h[b], h[b]: a, b: h[a], h[a]: b})
    report = verify_h_path_independence(5, params)
    assert len(report.failures) == 14
    assert all(item.startswith("edge ") for item, _, _ in report.failures)


def test_path_independence_reports_an_image_off_its_level(monkeypatch, capsys):
    # h maps one vertex to a bipartition of its size that is not a vertex:
    # a fail report naming it, and a clean exit 1, not a KeyError
    params = classify_regime(5, 4)
    lattice = build_lattice(5, params)
    stray = next(bp for bp in enumerate_bipartitions(3) if bp not in lattice)
    moved = lattice.levels[3][0]
    _patch_h(monkeypatch, {moved: stray})
    report = verify_h_path_independence(5, params)
    assert report.status == "fail"
    assert (format_bipartition(moved), "an h image on level 3", format_bipartition(stray)) in (
        report.failures
    )
    capsys.readouterr()
    assert main(["verify", "--suite", "path-independence", "--e", "4", "--n", "5"]) == 1
    out, err = capsys.readouterr()
    assert "status: fail" in out and f"  {format_bipartition(moved)}: " in out
    assert "Traceback" not in err


def _naive_path_independence(n, params, cap, f_tilde):
    """The path-independence checks as naive loops over a built lattice:
    ``f_tilde`` at every node of the path tree, each vertex visited at most
    ``cap`` times, and at every edge. Returns ``(failures, truncated)``."""
    lattice = build_lattice(n, params)
    failures, truncated = [], False
    images = {bp: involution(bp, params, lattice) for level in lattice.levels for bp in level}
    assert all(images[images[bp]] == bp for bp in images)
    reached = {}

    def walk(vertex, endpoint, path):
        nonlocal truncated
        reached[vertex] = reached.get(vertex, 0) + 1
        if reached[vertex] > cap:
            truncated = True
            return
        if endpoint != images[vertex]:
            got = "replay failed" if endpoint is None else format_bipartition(endpoint)
            item = f"{format_bipartition(vertex)} path {path}"
            failures.append((item, format_bipartition(images[vertex]), got))
        above = len(path) + 1
        for step, child in (lattice.index[above].get(vertex, {}) if above <= n else {}).items():
            shifted = (step + params.l) % params.e
            nxt = None if endpoint is None else f_tilde(endpoint, shifted, params)
            walk(child, nxt, path + [step])

    walk(EMPTY_BIPARTITION, EMPTY_BIPARTITION, [])
    for level_edges in lattice_edges(lattice):
        for parent, step, child in level_edges:
            shifted = (step + params.l) % params.e
            got = f_tilde(images[parent], shifted, params)
            if got != images[child]:
                failures.append(
                    (
                        f"edge {format_bipartition(parent)} --{step}--> "
                        f"{format_bipartition(child)} shifted to {shifted}",
                        format_bipartition(images[child]),
                        "no good addable cell" if got is None else format_bipartition(got),
                    )
                )
    return failures, truncated


@pytest.mark.parametrize("cap", [100_000, 2])
@pytest.mark.parametrize("wrong", ["none", "other"])
def test_path_replay_memo_hides_no_failure(monkeypatch, cap, wrong):
    # one (image, shifted step) replays wrongly: the streamed suite, which
    # keeps no replay memo and no cap, reports exactly the naive edge
    # failures, whether the naive path walk runs whole or is capped; the
    # walk fails too, and the suite replays each edge once
    import dnbranch.oracle as oracle

    params = classify_regime(7, 4)
    lattice = build_lattice(7, params)
    parent, step, child = lattice_edges(lattice)[4][1]
    bad = (lattice.h[parent], (step + params.l) % params.e)
    real = oracle.f_tilde

    def doctored(bp, step, params):
        if (bp, step) == bad:
            return None if wrong == "none" else lattice.h[parent]
        return real(bp, step, params)

    naive_calls = []

    def naive_f_tilde(bp, step, params):
        naive_calls.append((bp, step))
        return doctored(bp, step, params)

    naive, truncated = _naive_path_independence(7, params, cap, naive_f_tilde)
    calls = []

    def counting(bp, step, params):
        calls.append((bp, step))
        return doctored(bp, step, params)

    monkeypatch.setattr(oracle, "f_tilde", counting)
    report = verify_h_path_independence(7, params)
    assert report.failures == [f for f in naive if f[0].startswith("edge ")]
    assert report.failures and sum(1 for item, _, _ in naive if " path [" in item) > 1
    assert truncated == (cap == 2) and not report.truncated and report.status == "fail"
    edges = [edge for level_edges in lattice_edges(lattice) for edge in level_edges]
    assert len(calls) == len(set(calls)) == len(edges)
    assert set(calls) <= set(naive_calls) and len(naive_calls) > len(calls)
    assert report.cases == lattice.vertex_count() + len(edges)


def test_semisimple_branching_suite():
    report = verify_semisimple_branching(7, classify_regime(7, INF))
    assert report.passed
    report = verify_semisimple_branching(5, classify_regime(5, 16))
    assert report.passed
    with pytest.raises(NotSemisimpleError):
        verify_semisimple_branching(5, classify_regime(5, 4))


def test_semisimple_branching_small_case():
    report = verify_semisimple_branching(2, classify_regime(2, INF))
    assert report.passed and report.cases == 4


def test_semisimple_branching_reports_a_dropped_summand(monkeypatch):
    # one summand of one socle at level 5 goes missing: that label alone fails,
    # short by the dimension of the summand
    import dnbranch.oracle as oracle

    params = classify_regime(6, INF)
    whole = verify_semisimple_branching(6, params)
    dropped = []

    def doctored(level, *args):
        for socle in level_socles(level, *args):
            if not dropped and socle.source.n == 5 and len(socle.summands) > 1:
                dropped.append(socle)
                socle = SocleDecomposition(socle.source, socle.summands[1:])
            yield socle

    monkeypatch.setattr(oracle, "level_socles", doctored)
    report = verify_semisimple_branching(6, params)
    (socle,) = dropped
    expected = oracle._label_dimension(socle.source)
    found = expected - oracle._label_dimension(socle.summands[0])
    assert report.failures == [(format_label(socle.source), str(expected), str(found))]
    assert report.status == "fail" and report.cases == whole.cases


def test_uniqueness_and_distinctness_suites():
    for e, n in ((4, 8), (INF, 7), (2, 4)):
        report = verify_uniqueness_and_distinctness(n, classify_regime(n, e))
        assert report.passed, report.failures[:3]


def _fixed_points_moved_to_the_swap(bp, image):
    return image if image != bp else hat(bp)


def _swap_fixed_points_pinned(bp, image):
    return bp if image == hat(bp) else image


def _doctored_tables(doctor):
    """``iter_levels`` with every ``h`` table it yields mapped through ``doctor``."""

    def levels(n, params):
        for vertices, children, table in iter_levels(n, params):
            yield vertices, children, {bp: doctor(bp, image) for bp, image in table.items()}

    return levels


# cases, failure count and SHA-256 of the failure list, recorded before the
# two pair loops of the suite were folded into one, when the suite read ``h``
# through ``involution``; the doctored involutions reach both the
# almost-symmetric branch and the plain one
NO_FAILURES = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
UNIQUENESS_RECORD = [
    (4, 8, None, 860, 0, NO_FAILURES),
    (6, 9, None, 2771, 0, NO_FAILURES),
    (INF, 8, None, 3121, 0, NO_FAILURES),
    (4, 8, ("iter_levels", _doctored_tables(_fixed_points_moved_to_the_swap)), 884, 8,
     "ce512d5d10e0992c51fd6e2fd449685c65ce778e89084b09c74ad2fdcbd17a6c"),
    (6, 9, ("iter_levels", _doctored_tables(_fixed_points_moved_to_the_swap)), 2823, 8,
     "0e3b482321f542ba1f29da69209eaf688db90e6d80b01be54fb65b253cb08ae7"),
    (4, 8, ("iter_levels", _doctored_tables(_swap_fixed_points_pinned)), 734, 29,
     "2b3cf941b832cc7d493988704ccad91bea140d1b5a035a5cb41f96a99e7a593d"),
    (6, 9, ("iter_levels", _doctored_tables(_swap_fixed_points_pinned)), 1993, 129,
     "a99caffc4d8a677712db924209702ae50fac0cb112ff1cc6c1adca1e4f2d2b91"),
    # regime A compares against the swap itself; the identity in its place
    # makes every removal its own partner
    (INF, 8, ("hat", lambda bp: bp), 3121, 1004,
     "3dd24ed6c045ae4094928245965b7b18a45c64232dfc90cebfd0c5602b10c65a"),
]


@pytest.mark.parametrize("e, n, patch, cases, count, digest", UNIQUENESS_RECORD)
def test_uniqueness_and_distinctness_matches_the_record(
    monkeypatch, e, n, patch, cases, count, digest
):
    import dnbranch.oracle as oracle

    if patch is not None:
        monkeypatch.setattr(oracle, *patch)
    report = verify_uniqueness_and_distinctness(n, classify_regime(n, e))
    assert (report.cases, len(report.failures)) == (cases, count)
    assert hashlib.sha256(repr(report.failures).encode()).hexdigest() == digest


def test_regime_a_decoupling_suites():
    for l in (2, 3):
        report = verify_regime_a_decoupling(8, l)
        assert report.passed, report.failures[:3]
    report = verify_regime_a_decoupling(6, INF)
    assert report.passed
    # with an infinite modulus every level is the full set of bipartitions
    lattice = build_lattice(6, regime_a_params(INF))
    for m in range(7):
        assert set(lattice.levels[m]) == set(enumerate_bipartitions(m))


@pytest.mark.parametrize("l", [2, 3, 5, INF])
def test_restricted_bipartitions_match_the_whole_filter(l):
    for n in range(9):
        assert restricted_bipartitions(n, l) == {
            bp
            for bp in enumerate_bipartitions(n)
            if is_l_restricted(bp[0], l) and is_l_restricted(bp[1], l)
        }


@pytest.mark.parametrize("l", [2, 3, 4, INF])
def test_restricted_partitions_are_the_filter(l):
    for m in range(15):
        assert list(restricted_partitions(m, l)) == [
            p for p in enumerate_partitions(m) if is_l_restricted(p, l)
        ]


def test_level1_calibration_suite():
    for e in (2, 3, 4):
        report = verify_level1_calibration(10, e)
        assert report.passed


def test_level1_calibration_stops_at_the_vertex_budget(monkeypatch, capsys):
    # levels 0..3 of the partition crystal at e = inf hold 1 + 1 + 2 + 3 partitions
    import dnbranch.crystal as crystal

    monkeypatch.setattr(crystal, "DEFAULT_VERTEX_BUDGET", 7)
    assert len(partition_crystal_levels(3, INF)) == 4
    with pytest.raises(ResourceLimitError, match="^lattice exceeds the vertex budget of 7$"):
        partition_crystal_levels(4, INF)
    capsys.readouterr()
    assert main(["verify", "--suite", "level1-calibration", "--e", "inf", "--n", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lattice exceeds the vertex budget of 7\n"


@given(bipartitions(max_size=8))
@settings(max_examples=40)
def test_dimension_positive_and_split_halves_are_integral(bp):
    dim = bipartition_dimension(bp)
    assert dim >= 1
    if bp[0] == bp[1] and bp[0]:
        assert dim % 2 == 0


@pytest.mark.parametrize("l, n, doctored", [(3, 10, (2, 1)), (INF, 8, (1,)), (2, 9, (2, 1))])
def test_regime_a_reference_is_compared_at_every_vertex(monkeypatch, l, n, doctored):
    import dnbranch.oracle as oracle

    naive = oracle._reference_good_removables
    calls = []

    def reference(parts, l):
        calls.append(parts)
        return [] if parts == doctored else naive(parts, l)

    monkeypatch.setattr(oracle, "_reference_good_removables", reference)
    report = verify_regime_a_decoupling(n, l)
    # brute force: the pairs of l-restricted partitions of total size <= n,
    # and those with the doctored partition as a component
    restricted = [
        p for m in range(n + 1) for p in enumerate_partitions(m) if is_l_restricted(p, l)
    ]
    pairs = [(a, b) for a in restricted for b in restricted if sum(a) + sum(b) <= n]
    hit = [
        f"{format_partition(a)}|{format_partition(b)}" for a, b in pairs if doctored in (a, b)
    ]
    assert naive(doctored, l)  # the doctored partition has good cells to lose
    assert report.cases == n + 1 + len(pairs)
    assert sorted(f[0] for f in report.failures) == sorted(hit)
    assert sorted(calls) == sorted(restricted)  # the scan runs once per partition


# the perfbench workload points, both regimes
CLIFFORD_SUITE_POINTS = [(4, 16), (6, 16), (2, 20), (INF, 14), (3, 16)]


@pytest.mark.parametrize("e, n", CLIFFORD_SUITE_POINTS)
def test_clifford_socle_suite_passes(e, n):
    report = verify_clifford_socle(n, classify_regime(n, e))
    assert report.passed, report.failures[:3]


def test_clifford_socle_suite_runs_from_the_command_line(capsys):
    for e in ("4", "inf"):
        assert main(["verify", "--suite", "clifford-socle", "--e", e, "--n", "7"]) == 0
        assert "status: pass" in capsys.readouterr().out


def _drop_an_edge_with_its_mirror(grow, lattice):
    """``_grow`` whose top level loses one edge together with its ``h``
    mirror (the step swapped in regime A, shifted by ``l`` in regime B), the
    first such pair whose loss leaves every vertex a parent: so the edges
    left are closed under ``h`` and the level passes ``_next_images``."""
    n, e, l = lattice.n, lattice.params.e, lattice.params.l
    image = hat if lattice.h is None else lattice.h.__getitem__

    def mirror(step):
        return (3 - step[0], step[1]) if lattice.h is None else (step + l) % e

    def doctored(*args):
        levels = list(grow(*args))
        children = {p: dict(steps) for p, steps in levels[n][1].items()}
        parents = Counter(c for steps in children.values() for c in steps.values())
        parent, step = next(
            (p, s)
            for p, steps in children.items()
            for s, c in steps.items()
            if all(parents[v] > k for v, k in Counter([c, image(c)]).items())
        )
        del children[parent][step], children[image(parent)][mirror(step)]
        levels[n] = (levels[n][0], children)
        return iter(levels)

    return doctored


@pytest.mark.parametrize("e", [4, INF])
def test_clifford_socle_fails_an_edge_lost_with_its_h_mirror(monkeypatch, capsys, e):
    # the level check, path-independence and uniqueness-distinctness read
    # only the edges present; clifford-socle takes the good removals from
    # the definitional reference, so it sees the lost pair
    import dnbranch.crystal as crystal

    n = 8
    lattice = build_lattice(n, classify_regime(n, e))
    monkeypatch.setattr(crystal, "_grow", _drop_an_edge_with_its_mirror(crystal._grow, lattice))
    levels = list(iter_levels(n, lattice.params))  # passes the level check
    assert sum(map(len, levels[n][1].values())) == sum(map(len, lattice.index[n].values())) - 2
    capsys.readouterr()
    argv = ["verify", "--suite", "clifford-socle", "--e", "inf" if e == INF else str(e)]
    assert main([*argv, "--n", str(n), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)["data"]
    assert report["status"] == "fail" and len(report["failures"]) >= 1
    assert err == ""


def _doctored_socles(doctor):
    """``level_socles`` whose first socle at level 7 that ``doctor`` changes
    is changed; the changed source goes into ``doctored``."""
    doctored = []

    def socles(level, *args):
        for socle in level_socles(level, *args):
            if not doctored and socle.source.n == 7:
                summands = doctor(socle.summands)
                if summands != socle.summands:
                    doctored.append(socle.source)
                    socle = SocleDecomposition(socle.source, summands)
            yield socle

    return socles, doctored


def _split_first_unsplit_summand(summands):
    for k, s in enumerate(summands):
        if s.kind == UNSPLIT:
            return (*summands[:k], IrreducibleLabel(SPLIT, s.rep, "+"), *summands[k + 1:])
    return summands


def _drop_the_split_pair(summands):
    return tuple(s for s in summands if s.kind != SPLIT)


@pytest.mark.parametrize("doctor", [_split_first_unsplit_summand, _drop_the_split_pair])
@pytest.mark.parametrize("e", [4, INF])
def test_clifford_socle_suite_fails_a_doctored_socle(monkeypatch, e, doctor):
    import dnbranch.oracle as oracle

    params = classify_regime(8, e)
    whole = verify_clifford_socle(8, params)
    socles, doctored = _doctored_socles(doctor)
    monkeypatch.setattr(oracle, "level_socles", socles)
    report = verify_clifford_socle(8, params)
    (source,) = doctored
    assert [f[0] for f in report.failures] == [format_bipartition(source.rep)]
    assert report.status == "fail" and report.cases == whole.cases
