"""Point queries (``involution``, ``branch --bipartition``) without a lattice."""

import contextlib
import hashlib
import io

import pytest

from conftest import enumerate_bipartitions, fold_steps, peel_path
from dnbranch.cli import main
from dnbranch.core import (
    INF,
    classify_regime,
    format_bipartition,
    hat,
    parse_bipartition,
    remove_node,
)
from dnbranch.crystal import build_lattice, good_child, good_nodes, peel
from dnbranch.dmod import (
    _good_removals,
    _image_below,
    _lone_images,
    almost_symmetric,
    equivalence_classes,
    involution,
    socle_restriction,
)
from dnbranch.errors import NotKleshchevError, ShiftReplayError

# every bipartition of size n, member or not, at each of these points
GRID = [(4, 7), (6, 7), (INF, 6), (3, 7), (2, 8)]

# SHA-256 of the point-command transcript over GRID, recorded while the
# program still had a lattice cache, which point commands never read
GRID_DIGEST = "873508c19226a1f64830a024266c9c7ad26a7ed61c129f68350577ace13c62eb"


def _point_argvs(e_text: str, n: int, text: str):
    common = ["--e", e_text, "--n", str(n), f"--bipartition={text}"]
    return [
        ["involution"] + common,
        ["branch"] + common,
        ["branch", "--format", "json", "--sign", "-"] + common,
        ["branch", "--format", "dot"] + common,
    ]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def grid_transcript_digest() -> str:
    """Digest of argv, exit code, stdout and stderr of every point command."""
    digest = hashlib.sha256()
    for e, n in GRID:
        e_text = "inf" if e == INF else str(e)
        for bp in enumerate_bipartitions(n):
            for argv in _point_argvs(e_text, n, format_bipartition(bp)):
                code, out, err = _run(argv)
                digest.update(repr((argv, code, out, err)).encode())
    return digest.hexdigest()


def test_point_commands_match_recorded_grid_digest():
    assert grid_transcript_digest() == GRID_DIGEST


# (e, n) lattices whose every vertex, and every bipartition up to size n, is
# checked; e = 2, 4, 6 are regime B and e = 3, inf regime A at these sizes
LATTICES = [(2, 8), (3, 8), (4, 8), (6, 8), (INF, 8)]


@pytest.fixture(scope="module", params=LATTICES, ids=lambda p: f"e{p[0]}-n{p[1]}")
def lattice(request):
    e, n = request.param
    params = classify_regime(n, e)
    return params, build_lattice(n, params)


def test_peel_succeeds_exactly_on_lattice_vertices(lattice):
    params, lat = lattice
    members = 0
    for m in range(lat.n + 1):
        for bp in enumerate_bipartitions(m):
            if bp in lat:
                members += 1
                assert fold_steps(peel_path(bp, params), params) == bp
            else:
                with pytest.raises(NotKleshchevError) as exc:
                    peel_path(bp, params)
                assert str(exc.value) == (
                    f"{format_bipartition(bp)} is not a Kleshchev bipartition "
                    "at these parameters"
                )
    assert members == lat.vertex_count()


def test_involution_without_lattice_matches_the_table(lattice):
    params, lat = lattice
    for level in lat.levels:
        for bp in level:
            expected = hat(bp) if lat.h is None else lat.h[bp]
            assert involution(bp, params) == expected


def test_socle_without_lattice_matches_the_lattice(lattice):
    params, lat = lattice
    for m in range(2, lat.n + 1):
        for label in equivalence_classes(lat.levels[m], params, lat):
            assert socle_restriction(label, params) == socle_restriction(
                label, params, lat
            )
            assert almost_symmetric(label.rep, params) == almost_symmetric(
                label.rep, params, lat
            )


def test_removal_images_without_lattice_match_the_table(lattice):
    # h of each good removal comes, without a lattice, from the label's
    # memoised peel, and from the table with one
    params, lat = lattice
    table = hat if lat.h is None else lat.h.__getitem__
    for level in lat.levels:
        for bp in level:
            for given in (None, lat):
                image_below = _image_below(bp, params, given)
                for child, image in _good_removals(bp, params, image_below):
                    assert image == table(child)
            # a lone query's h below serves the removals of h(bp) too, which
            # branch reads when h(bp) is the label's representative
            image, image_below = _lone_images(bp, params)
            assert image == table(bp)
            for child, image in _good_removals(image, params, image_below):
                assert image == table(child)


def _count_peels(monkeypatch) -> list:
    import dnbranch.dmod as dmod

    calls = []

    def counting_peel(bp, params, known):
        calls.append(bp)
        return peel(bp, params, known)

    monkeypatch.setattr(dmod, "peel", counting_peel)
    return calls


QUERY_LABEL = "2,1|3,2,2,2,1,1,1,1"


@pytest.mark.parametrize("command", ["involution", "branch"])
def test_point_query_peels_once(monkeypatch, command):
    # regime B: one peel checks the label, and its replay gives h of the
    # removal at its smallest good step, so only the other good removal is
    # peeled for its h; the removals of h(label) are images already known
    calls = _count_peels(monkeypatch)
    argv = [command, "--e", "4", "--n", "16", f"--bipartition={QUERY_LABEL}"]
    assert _run(argv)[0] == 0
    bp = parse_bipartition(QUERY_LABEL)
    assert len(good_nodes(bp, classify_regime(16, 4))) == 2
    assert len(calls) == 2


@pytest.mark.parametrize("command", ["involution", "branch"])
def test_regime_a_point_query_peels_once(monkeypatch, command):
    # regime A: h of a removal is the swap, so the label's check is the one peel
    calls = _count_peels(monkeypatch)
    assert _run([command, "--e", "3", "--n", "16", f"--bipartition={QUERY_LABEL}"])[0] == 0
    assert calls == [parse_bipartition(QUERY_LABEL)]


def _record_replays(monkeypatch) -> list:
    """The ``(image, step)`` pairs that ``dmod`` gives to ``good_child``, the
    shifted replay's one step, in call order."""
    import dnbranch.dmod as dmod

    calls = []

    def recording(bp, step, params):
        calls.append((bp, step))
        return good_child(bp, step, params)

    monkeypatch.setattr(dmod, "good_child", recording)
    return calls


def test_broken_removal_replay_is_a_shift_replay_error(monkeypatch):
    # the label's own shifted replay holds and every other replay breaks, so
    # the error can come only from h of a removal the label's replay does
    # not pass through
    import dnbranch.dmod as dmod

    params = classify_regime(6, 4)
    lam = ((1, 1), (2, 2))
    label = equivalence_classes([lam], params)[0]
    good = good_nodes(lam, params)
    assert len(good) == 2
    removals = {format_bipartition(remove_node(lam, node)) for node, _ in good[1:]}
    with monkeypatch.context() as recording:
        calls = _record_replays(recording)
        involution(lam, params)
    label_replay = set(calls)

    def replay_the_label_only(bp, step, params):
        return good_child(bp, step, params) if (bp, step) in label_replay else None

    monkeypatch.setattr(dmod, "good_child", replay_the_label_only)
    for query in (lambda: almost_symmetric(lam, params), lambda: socle_restriction(label, params)):
        with pytest.raises(ShiftReplayError) as exc:
            query()
        assert str(exc.value) in {f"the shifted canonical path of {mu} breaks" for mu in removals}


@pytest.mark.parametrize("e", [4, 6])
def test_lone_query_replays_no_step_twice(monkeypatch, e):
    # h(bp), h of every good removal of bp and of every good removal of h(bp):
    # each (image, step) pair reaches good_child at most once in one query
    calls = _record_replays(monkeypatch)
    params = classify_regime(8, e)
    queries = 0
    for level in build_lattice(8, params).levels:
        for bp in level:
            calls.clear()
            image, image_below = _lone_images(bp, params)
            for start in (bp, image):
                _good_removals(start, params, image_below)
            assert len(calls) == len(set(calls)), format_bipartition(bp)
            queries += bool(calls)
    assert queries > 100


def test_non_members_are_rejected_without_lattice():
    params = classify_regime(3, 2)
    lat = build_lattice(3, params)
    bp = ((1, 1), ())
    assert bp not in lat
    for query in (involution, almost_symmetric):
        with pytest.raises(NotKleshchevError):
            query(bp, params)


def _point_commands(e="4", n="6", member="2,1|2,1", stranger="4|1,1"):
    common = ["--e", e, "--n", n]
    return [
        ["involution", *common, f"--bipartition={member}"],
        ["involution", *common, f"--bipartition={stranger}"],
        ["branch", *common, f"--bipartition={member}", "--format", "json"],
        ["branch", *common, f"--bipartition={stranger}"],
    ]


def test_point_commands_leave_the_cache_alone(monkeypatch):
    # a point query builds no lattice
    import dnbranch.crystal as crystal

    def forbidden(*args, **kwargs):
        raise AssertionError("a point query built a lattice")

    # every level stream, whichever module consumes it, grows its levels here
    monkeypatch.setattr(crystal, "_grow", forbidden)
    codes = [_run(argv)[0] for argv in _point_commands()]
    assert codes == [0, 3, 0, 3]


def test_point_commands_ignore_a_corrupted_cache(tmp_path, monkeypatch):
    # a corrupted file under the former cache's name and directories changes
    # no output and draws no warning, on point and full-level commands alike
    import warnings

    commands = _point_commands() + [["labels", "--e", "4", "--n", "6"]]
    expected = [_run(argv) for argv in commands]
    cache_files = [
        tmp_path / "cache" / "lattice-e4-B.json",
        tmp_path / "home" / ".cache" / "dnbranch" / "lattice-e4-B.json",
    ]
    for cache_file in cache_files:
        cache_file.parent.mkdir(parents=True)
        cache_file.write_text("{ not json")
    monkeypatch.setenv("DNBRANCH_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [_run(argv) for argv in commands] == expected
    assert [code for code, _, _ in expected] == [0, 3, 0, 3, 0]
    assert [cache_file.read_text() for cache_file in cache_files] == ["{ not json"] * 2


def test_non_member_is_a_domain_error_under_optimisation():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for command in ("involution", "branch"):
        result = subprocess.run(
            [sys.executable, "-O", "-m", "dnbranch.cli", command,
             "--e", "4", "--n", "6", "--bipartition=4|1,1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout) == (3, "")
        assert "Kleshchev" in result.stderr


@pytest.mark.parametrize("e, n", [(4, 10), (6, 10), (INF, 8), (3, 9)])
def test_full_level_branch_equals_every_point_query(e, n):
    # full-level branch reads each label's good removals off the edges into
    # level n, a point query reads them off the component words
    e_text = "inf" if e == INF else str(e)
    common = ["branch", "--e", e_text, "--n", str(n)]
    code, full, _ = _run(common)
    header, *entries = full.split("source: ")
    assert code == 0 and entries
    signs = {"+": 0, "-": 0}
    for entry in entries:
        label = entry[: entry.index("\n")]
        rep = label[label.index("(") + 1 : -1]
        sign = label[1] if label[1] in signs else None
        argv = [*common, f"--bipartition={rep}"] + (["--sign", sign] if sign else [])
        assert _run(argv) == (0, f"{header}source: {entry}", ""), label
        if sign:
            signs[sign] += 1
    # split labels, both signs of each, exactly at the even levels
    assert signs["+"] == signs["-"] and (signs["+"] > 0) == (n % 2 == 0)
