"""Point queries (``involution``, ``branch --bipartition``) without a lattice."""

import contextlib
import hashlib
import io

import pytest

from dnbranch.cli import main
from dnbranch.core import EMPTY_BIPARTITION, INF, classify_regime, format_bipartition, hat
from dnbranch.crystal import build_lattice, peel_path, replay_path
from dnbranch.dmod import (
    _good_removals,
    almost_symmetric,
    equivalence_classes,
    involution,
    socle_restriction,
)
from dnbranch.errors import NotKleshchevError, ShiftReplayError
from dnbranch.oracle import enumerate_bipartitions

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
                assert replay_path(peel_path(bp, params), params) == bp
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
    # h of each good removal is read off h of the vertex along the shifted
    # step, whether that image comes from a peel or from the lattice
    params, lat = lattice
    for level in lat.levels:
        for bp in level:
            for given in (None, lat):
                for _, child, image in _good_removals(bp, params, given):
                    assert image == (hat(child) if lat.h is None else lat.h[child])


@pytest.mark.parametrize("command", ["involution", "branch"])
def test_point_query_peels_once(monkeypatch, command):
    import dnbranch.dmod as dmod

    calls = []

    def counting_peel(bp, params):
        calls.append(bp)
        return peel_path(bp, params)

    monkeypatch.setattr(dmod, "peel_path", counting_peel)
    argv = [command, "--e", "4", "--n", "16", "--bipartition=2,1|3,2,2,2,1,1,1,1"]
    assert _run(argv)[0] == 0
    assert len(calls) == 1


def test_missing_twin_cell_is_a_shift_replay_error(monkeypatch):
    import dnbranch.dmod as dmod

    monkeypatch.setattr(dmod, "involution", lambda bp, params, lattice=None: EMPTY_BIPARTITION)
    with pytest.raises(ShiftReplayError):
        almost_symmetric(((2, 1), (2, 1)), classify_regime(6, 4))


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
    import dnbranch.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("a point query built a lattice")

    monkeypatch.setattr(cli, "build_lattice", forbidden)
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
