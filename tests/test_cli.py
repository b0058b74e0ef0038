import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from dnbranch import io as dio
from dnbranch.cli import main
from dnbranch.errors import SchemaMismatchError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_dot_contains_example_vertex(capsys):
    code, out, _ = run(capsys, "lattice", "--e", "4", "--n", "5", "--format", "dot")
    assert code == 0
    assert '"1|2,2"' in out
    assert '"2|1,1,1"' in out


def test_lattice_text_level_counts(capsys):
    code, out, _ = run(capsys, "lattice", "--e", "inf", "--n", "2", "--format", "text")
    assert code == 0
    level2 = next(line for line in out.splitlines() if line.startswith("level 2:"))
    assert len(level2.split()[2:]) == 5
    assert "# e=inf regime=A l=inf n=2" in out


def test_lattice_invalid_e(capsys):
    code, _, err = run(capsys, "lattice", "--e", "1", "--n", "3")
    assert code == 2
    assert "quantum characteristic" in err


def test_lattice_json_round_trips(capsys):
    code, out, _ = run(capsys, "lattice", "--e", "4", "--n", "3", "--format", "json")
    assert code == 0
    doc = dio.parse_json(out)
    assert doc.kind == dio.KIND_LATTICE
    assert dio.serialize_json(doc) == out


# points of both regimes; (2,12) and (inf,9) have no fixed point at level n
ROUND_TRIP_POINTS = [("4", "10"), ("6", "10"), ("2", "12"), ("inf", "9"), ("3", "10")]


@pytest.mark.parametrize("e, n", ROUND_TRIP_POINTS)
def test_every_json_output_round_trips(capsys, e, n):
    # the full-level documents, and branch --bipartition at an unsplit label
    # and, where the level has one, at a fixed point with --sign -
    common = ["--e", e, "--n", n, "--format", "json"]
    labels = json.loads(run(capsys, "labels", *common)[1])["data"]["labels"]
    unsplit = next(label["rep"] for label in labels if label["kind"] == "unsplit")
    fixed = [label["rep"] for label in labels if label["kind"] == "split"][:1]
    argvs = [["lattice"], ["labels"], ["branch"], ["branch", f"--bipartition={unsplit}"]]
    argvs += [["branch", f"--bipartition={rep}", "--sign", "-"] for rep in fixed]
    for argv in argvs:
        code, out, _ = run(capsys, *argv, *common)
        assert code == 0, argv
        assert dio.serialize_json(dio.parse_json(out)) == out, argv


def test_labels_text(capsys):
    code, out, _ = run(capsys, "labels", "--e", "inf", "--n", "2")
    assert code == 0
    lines = out.splitlines()[1:]
    assert lines == ["D(-|1,1)", "D(-|2)", "D+(1|1)", "D-(1|1)"]


def test_labels_json_round_trips(capsys):
    code, out, _ = run(capsys, "labels", "--e", "inf", "--n", "2", "--format", "json")
    assert code == 0
    doc = dio.parse_json(out)
    assert doc.kind == dio.KIND_LABELS
    assert dio.serialize_json(doc) == out
    assert len(doc.data["labels"]) == 4


def test_branch_single_bipartition(capsys):
    code, out, _ = run(
        capsys, "branch", "--e", "inf", "--n", "5", "--bipartition", "2,1|1,1"
    )
    assert code == 0
    assert "source: D(1,1|2,1)" in out
    body = {line.strip() for line in out.splitlines() if line.startswith("  ")}
    assert body == {"D(1|2,1)", "D+(1,1|1,1)", "D-(1,1|1,1)", "D(1,1|2)"}


def test_branch_split_label_with_sign(capsys):
    code, out, _ = run(
        capsys,
        "branch", "--e", "inf", "--n", "6", "--bipartition", "2,1|2,1", "--sign", "+",
    )
    assert code == 0
    body = {line.strip() for line in out.splitlines() if line.startswith("  ")}
    assert body == {"D(1,1|2,1)", "D(2|2,1)"}


def test_branch_regime_b_example(capsys):
    code, out, _ = run(
        capsys, "branch", "--e", "4", "--n", "5", "--bipartition", "2|1,1,1"
    )
    assert code == 0
    body = [line.strip() for line in out.splitlines() if line.startswith("  ")]
    assert len(body) == 2
    assert all(line.startswith("D(") for line in body)


def test_branch_sign_on_non_fixed_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "branch", "--e", "inf", "--n", "5", "--bipartition", "2,1|1,1", "--sign", "+",
    )
    assert code == 2
    assert "fixed point" in err


def test_sign_on_a_moved_bipartition_is_this_usage_error(capsys):
    code, out, err = run(capsys, "branch", "--e", "4", "--n", "5", "--bipartition=2,1|1,1", "--sign", "+")
    assert (code, out) == (2, "")
    assert err == "error: '2,1|1,1' is not an involution fixed point, so --sign does not apply\n"


def test_sign_without_a_bipartition_is_a_usage_error(capsys):
    # a whole level has no one label for the sign to pick, so it is refused, not ignored
    code, out, err = run(capsys, "branch", "--e", "4", "--n", "3", "--sign", "-")
    assert (code, out, err) == (2, "", "error: --sign applies only with --bipartition\n")


@pytest.mark.parametrize(
    "point",
    [["--n", "5", "--bipartition=2,1|1,1"], ["--n", "4", "--bipartition=1|2,1", "--sign", "-"]],
    ids=["unsplit", "fixed"],
)
def test_a_fixed_point_error_in_a_point_socle_is_exit_1(capsys, monkeypatch, point):
    # the engine's FixedPointError is an invariant failure, not the usage error of --sign
    import dnbranch.dmod as dmod
    from dnbranch.errors import FixedPointError

    def broken(label, removals, unsplit=None):
        raise FixedPointError("1|1 is a fixed point, not unsplit")

    monkeypatch.setattr(dmod, "_socle", broken)
    code, out, err = run(capsys, "branch", "--e", "4", *point)
    assert (code, out) == (1, "")
    assert err == "error: 1|1 is a fixed point, not unsplit\n"


def test_branch_non_kleshchev_is_domain_error(capsys):
    code, _, err = run(
        capsys, "branch", "--e", "2", "--n", "2", "--bipartition", "1,1|-"
    )
    assert code == 3
    assert "Kleshchev" in err


def test_branch_whole_level_json(capsys):
    code, out, _ = run(capsys, "branch", "--e", "4", "--n", "4", "--format", "json")
    assert code == 0
    doc = dio.parse_json(out)
    assert doc.kind == dio.KIND_BRANCHING
    assert dio.serialize_json(doc) == out


def test_involution_fixed_point(capsys):
    code, out, _ = run(
        capsys, "involution", "--e", "4", "--n", "4", "--bipartition", "1|2,1"
    )
    assert code == 0
    assert "fixed: yes" in out
    assert "balanced: yes" in out
    assert "h: 1|2,1" in out


def test_involution_almost_symmetric_output(capsys):
    code, out, _ = run(
        capsys, "involution", "--e", "4", "--n", "5", "--bipartition", "1|2,2"
    )
    assert code == 0
    assert "almost-symmetric: yes, special node (2,2,2)" in out
    assert "fixed: no" in out


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--bipartition", "2,1|1,1")
    assert code == 0
    assert out.strip() == "20"


def test_dims_prints_every_digit_of_a_large_count(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    # about 4 800 digits, past the interpreter's default int-to-str limit
    code, out, err = run(capsys, "dims", "--bipartition=8000|8000")
    assert (code, err) == (0, "")
    assert get_limit() == limit
    digits = out.strip()
    assert digits.isdigit()
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == math.comb(16000, 8000)


def test_dims_parse_error_position(capsys):
    code, _, err = run(capsys, "dims", "--bipartition", "2,x|1")
    assert code == 2
    assert "column 3" in err


def test_verify_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "path-independence", "--e", "4", "--n", "5"
    )
    assert code == 0
    assert "status: pass" in out


def test_verify_json_report(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "level1-calibration", "--e", "3", "--n", "6",
        "--format", "json",
    )
    assert code == 0
    doc = dio.parse_json(out)
    assert doc.kind == dio.KIND_REPORT
    assert doc.data.passed


def test_verify_semisimple_rejects_bad_params(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "semisimple-branching", "--e", "4", "--n", "5"
    )
    assert code == 2
    assert "not semisimple" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense", "--e", "4", "--n", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_branch_fixed_point_without_sign(capsys):
    # both signs restrict identically, so one table is printed
    code, out, _ = run(
        capsys, "branch", "--e", "inf", "--n", "6", "--bipartition", "2,1|2,1"
    )
    assert code == 0
    assert "source: D+(2,1|2,1)" in out
    body = {line.strip() for line in out.splitlines() if line.startswith("  ")}
    assert body == {"D(1,1|2,1)", "D(2|2,1)"}


def test_resource_limit_maps_to_exit_1(capsys, monkeypatch):
    import dnbranch.cli as cli
    from dnbranch.errors import ResourceLimitError

    def explode(*args, **kwargs):
        raise ResourceLimitError("budget exceeded")

    monkeypatch.setattr(cli, "iter_levels", explode)
    code, _, err = run(capsys, "lattice", "--e", "4", "--n", "3")
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "clifford-socle", "--e", "4", "--n", "6"],
        ["verify", "--suite", "semisimple-branching", "--e", "inf", "--n", "6"],
        ["branch", "--e", "4", "--n", "6"],
    ],
    ids=["clifford-socle", "semisimple-branching", "branch"],
)
def test_engine_invariant_error_maps_to_exit_1(capsys, monkeypatch, argv):
    # a socle that breaks an engine invariant ends the run with one error
    # line naming the label, not a traceback
    import dnbranch.dmod as dmod
    from dnbranch.errors import InvariantError

    labels = []

    def broken(label, removals, unsplit=None):
        labels.append(dmod.format_label(label))
        raise InvariantError(f"socle of {labels[-1]} is not multiplicity free")

    monkeypatch.setattr(dmod, "_socle", broken)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: socle of {labels[0]} is not multiplicity free\n"


def test_broken_shifted_replay_in_a_point_query_maps_to_exit_1(capsys, monkeypatch):
    import dnbranch.dmod as dmod

    monkeypatch.setattr(dmod, "good_child", lambda bp, step, params: None)
    code, out, err = run(capsys, "involution", "--e", "4", "--n", "3", "--bipartition=2|1")
    assert (code, out) == (1, "")
    assert err == "error: the shifted canonical path of 2|1 breaks\n"


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_residue_alphabet_is_a_resource_limit():
    # a run that lists every residue fails under the 1 GiB cap instead of
    # taking the test run's memory with it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "dnbranch.cli", "involution",
         "--e", "99999999999999999999", "--n", "3", "--bipartition=1|1,1"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_residue_alphabet_limit_is_inclusive(capsys):
    from dnbranch.crystal import MAX_RESIDUE_ALPHABET

    # at n = 3 any e > 6 is regime A with one residue per letter of Z/eZ
    top = MAX_RESIDUE_ALPHABET
    code, out, _ = run(capsys, "involution", "--e", str(top), "--n", "3", "--bipartition=1|1,1")
    assert code == 0
    residues = next(line for line in out.splitlines() if line.startswith("residues: "))
    assert len(residues.split()) == 1 + top
    code, out, err = run(capsys, "involution", "--e", str(top + 1), "--n", "3", "--bipartition=1|1,1")
    assert (code, out) == (1, "")
    assert "residue alphabet" in err


# a lone label of the regime-B point below, and of one under the alphabet limit
POINT = "--bipartition=-|10002"
UNDER = "--bipartition=-|2002"
OVER = "error: the residue alphabet of 20002 letters exceeds the limit of 10000\n"


@pytest.mark.parametrize(
    "argv, e, n, code, message",
    [
        (["lattice"], "20002", "10002", 1, OVER),
        (["labels"], "20002", "10002", 1, OVER),
        (["branch"], "20002", "10002", 1, OVER),
        (["branch", POINT], "20002", "10002", 1, OVER),
        (["involution", POINT], "20002", "10002", 1, OVER),
        (["branch", UNDER], "4002", "2002", 0, ""),
        (["involution", UNDER], "4002", "2002", 0, ""),
    ],
    ids=["lattice", "labels", "branch", "branch-point", "involution", "branch-point-4002", "involution-4002"],
)
def test_regime_b_alphabet_over_the_limit_ends_a_full_level_command(capsys, argv, e, n, code, message):
    # e // 2 < n puts e = 20002 in regime B, whose growth would list every
    # residue; every regime-B command keeps that one alphabet limit.  Under
    # it, a lone label's peel and shifted replay read only the residues with
    # a marked cell, so they take no longer at e = 4002
    start = time.perf_counter()
    assert run(capsys, *argv, "--e", e, "--n", n)[::2] == (code, message)
    assert time.perf_counter() - start < 1


def test_bipartition_size_mismatch_is_usage_error(capsys):
    code, _, err = run(
        capsys, "branch", "--e", "inf", "--n", "4", "--bipartition", "2,1|1,1"
    )
    assert code == 2
    assert "size" in err


def test_no_cache_is_an_unknown_argument(capsys):
    for argv in (
        ["lattice", "--e", "4", "--n", "3"],
        ["involution", "--e", "4", "--n", "3", "--bipartition=1|2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-cache"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-cache" in capsys.readouterr().err


def test_commands_write_no_files(tmp_path):
    homes = {name: tmp_path / name for name in ("HOME", "TMPDIR", "DNBRANCH_CACHE")}
    for path in homes.values():
        path.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.update({name: str(path) for name, path in homes.items()})
    env.pop("PYTHONPYCACHEPREFIX", None)
    for argv in (
        ["lattice", "--e", "4", "--n", "5", "--format", "json"],
        ["labels", "--e", "3", "--n", "5"],
        ["branch", "--e", "4", "--n", "5", "--format", "json"],
        ["involution", "--e", "4", "--n", "5", "--bipartition=1|2,2"],
        ["dims", "--bipartition=2,1|1,1"],
        ["verify", "--suite", "path-independence", "--e", "4", "--n", "5"],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "dnbranch.cli", *argv],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, (argv, result.stderr)
    assert {name: list(path.iterdir()) for name, path in homes.items()} == {
        name: [] for name in homes
    }


def test_output_is_byte_stable(capsys):
    first = run(capsys, "branch", "--e", "4", "--n", "5", "--format", "json")
    second = run(capsys, "branch", "--e", "4", "--n", "5", "--format", "json")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "--e", "4", "--n", "-1"],
        ["labels", "--e", "inf", "--n", "-3"],
        ["involution", "--e", "4", "--n", "-2", "--bipartition=-|-"],
        ["branch", "--e", "4", "--n", "0"],
        ["branch", "--e", "4", "--n", "1", "--bipartition", "1|-"],
        ["verify", "--suite", "level1-calibration", "--e", "4", "--n", "-2"],
    ],
)
def test_out_of_range_n_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument --n" in capsys.readouterr().err


def test_bipartition_starting_with_dash_is_attached(capsys):
    code, out, _ = run(capsys, "involution", "--e", "inf", "--n", "3", "--bipartition=-|2,1")
    assert code == 0
    assert "h: 2,1|-" in out


def _plant_doctored_cache(capsys, tmp_path, monkeypatch, e, n, doctor):
    """Put a doctored lattice document where the former lattice cache kept it.

    The file goes under both former cache directories, ``$DNBRANCH_CACHE``
    and ``~/.cache/dnbranch``, with the name the cache gave it.  parse_json
    must reject the document.
    """
    code, text, _ = run(capsys, "lattice", "--e", e, "--n", n, "--format", "json")
    assert code == 0
    params = dio.parse_json(text).data.params
    doc = json.loads(text)
    doctor(doc["data"])
    doctored = json.dumps(doc)
    with pytest.raises(SchemaMismatchError):
        dio.parse_json(doctored)
    paths = []
    for directory in (tmp_path / "cache", tmp_path / "home" / ".cache" / "dnbranch"):
        directory.mkdir(parents=True)
        paths.append(directory / f"lattice-e{e}-{params.regime}.json")
        paths[-1].write_text(doctored)
    monkeypatch.setenv("DNBRANCH_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    return doctored, paths


def _assert_doctored_cache_is_a_miss(capsys, tmp_path, monkeypatch, argv, doctor):
    # the command builds its lattice: the planted file is neither read nor touched
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    e, n = argv[argv.index("--e") + 1], argv[argv.index("--n") + 1]
    doctored, paths = _plant_doctored_cache(capsys, tmp_path, monkeypatch, e, n, doctor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")
    assert [path.read_text() for path in paths] == [doctored, doctored]


def _missing_endpoint(data):
    data["edges"][3][0][2] = "9|9"  # an edge naming a missing vertex


def _wrong_step_label(data):
    component, i = data["edges"][3][0][1]
    data["edges"][3][0][1] = [component, (i + 1) % 3]


def test_doctored_cache_is_a_miss(capsys, tmp_path, monkeypatch):
    argv = ("branch", "--e", "4", "--n", "5", "--format", "json")
    _assert_doctored_cache_is_a_miss(capsys, tmp_path, monkeypatch, argv, _missing_endpoint)


def test_doctored_regime_a_cache_is_a_miss(capsys, tmp_path, monkeypatch):
    argv = ("lattice", "--e", "3", "--n", "4", "--format", "json")
    _assert_doctored_cache_is_a_miss(capsys, tmp_path, monkeypatch, argv, _wrong_step_label)


def _reverse_level_3(data):
    data["levels"][3].reverse()


def _duplicate_level_3_edge(data):
    data["edges"][3].insert(0, data["edges"][3][0])


@pytest.mark.parametrize("doctor", [_reverse_level_3, _duplicate_level_3_edge])
def test_cache_out_of_canonical_form_is_a_miss(capsys, tmp_path, monkeypatch, doctor):
    argv = ("lattice", "--e", "4", "--n", "5", "--format", "json")
    _assert_doctored_cache_is_a_miss(capsys, tmp_path, monkeypatch, argv, doctor)


@pytest.mark.parametrize(
    "suite, n",
    [("semisimple-branching", "0"), ("semisimple-branching", "1"), ("uniqueness-distinctness", "0")],
)
def test_verify_without_cases_is_inconclusive(capsys, suite, n):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--e", "inf", "--n", n)
    assert code == 1
    assert "cases: 0" in out
    assert "status: inconclusive" in out


# SHA-256 of the JSON documents, recorded before the one-pass signature sweep
GOLDEN = {
    ("lattice", "4", "8"): "eecc7000559e3244c12bc80084a32820c525d9bd5e1090059bd1ca3ebcb93f8d",
    ("branch", "4", "8"): "c32fd205658506974f24e7b8f593c50302bb89b0519b1d2c0510c2c27d2fdb86",
    ("lattice", "6", "9"): "41759b832d468b81d5d9632aca7a6546e3da1717ef8c71ea4bff602c4259558f",
    ("branch", "6", "9"): "1300dc605fed6b6ee75f634561a41bb4f380d30b753a58e712fa21c526d03959",
    ("lattice", "3", "8"): "c2613bbd28e5646e970ade6d5fc6615bbb172d9bada9bfe9b6c23b21e1f4880a",
    ("branch", "3", "8"): "0841d36ea47d619f41ecfb68a7ffec335f123536c02a6f7af459dd1f59101d23",
    ("lattice", "inf", "7"): "0c5ba807bb67baafaa928a6100a1e02ffacb5275ae6bb3bba7e6b843d44524ae",
    ("branch", "inf", "7"): "fc046daa6bff91cd8571f6ca1e2731cb6e3fcdebb851a7aacdc576e5ff27faad",
}


@pytest.mark.parametrize("command, e, n", sorted(GOLDEN))
def test_json_documents_match_golden_digests(capsys, command, e, n):
    code, out, _ = run(capsys, command, "--e", e, "--n", n, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(command, e, n)]


# SHA-256 of the JSON documents at points where regime-B signatures cancel
# across the two components, recorded before the component-word build
GOLDEN_WIDE = {
    ("lattice", "8", "10"): "0e446c488811f6badd3a7520425d3722717ca72cfd1986ee7f433cc2e2d0b2b1",
    ("labels", "8", "10"): "3c62df1a19464e8ee664d4f22f1503ae12cc5879e92860b461d8d63fc7b03f67",
    ("branch", "8", "10"): "432daa3224fa0dd16264d634958c60bfe1a260d3c6318149e0b7366abc351d62",
    ("lattice", "6", "12"): "22fbc0da445c3cccbcf271eec49ec58b9fba22b7445d8af25c39afe0c2051380",
    ("labels", "6", "12"): "2d9810dd2242e9fad5cc3853867507f5bc264097acd6fd0a27c00062480b76bc",
    ("branch", "6", "12"): "863cd60143d3c200090f4cf44636f49378c18ab1e02e1447a57f264db08a903d",
    ("lattice", "4", "12"): "ba6fdd2596f3381d8e9aea097156c6fc068b618239216e99d2c51604568c552e",
    ("labels", "4", "12"): "d2fb6bd65eec47f3e2c6d918ea0b13907cfcafd2c9b48b32a115f004fa623254",
    ("branch", "4", "12"): "b37304b37c268c670fb808f3a79e81d8a871d3fa6ff0e7ea35299528ea5713a0",
    ("lattice", "2", "14"): "6b1db18465329854f1d44aa61a34936f4e5898db7766a02c0b3ed0916b549916",
    ("labels", "2", "14"): "7652f3d9ef328aa61ae6e5ba2c51e62dc3882fc9935d59daacf43c6eca16db3c",
    ("branch", "2", "14"): "0e460ba491aa1f01c4c942eb3f94b65760d2df3187d0a480c2039ed0b47ed0cc",
    ("lattice", "3", "12"): "d040dca82cc89d70fa17ff253739e5ff3cdc4dfda177fed2ddb902ed285914b6",
    ("labels", "3", "12"): "fbe3c16937788eaba8095e2c80ee3266940d7ed6ffc7e11f01a4da0ac6503262",
    ("branch", "3", "12"): "c45766f104e2f30b67628a2198f790f059fd628175711ea7d2646c5a01de68bd",
    ("lattice", "inf", "11"): "1ad281453685b2e9f6b4efe11c7c04942afbe4a0c690b63bade06b1057c63c49",
    ("labels", "inf", "11"): "fb7dc2ab947c41d5c988cd776e01d6a5f6e1ebd2b0926aff2814aa02f39216aa",
    ("branch", "inf", "11"): "4319e373eed403d9c461445f0d95d1ed62bb287f92a6dc9e71a8dc04576d68ce",
}


@pytest.mark.parametrize("command, e, n", sorted(GOLDEN_WIDE))
def test_json_documents_match_wide_golden_digests(capsys, command, e, n):
    code, out, _ = run(capsys, command, "--e", e, "--n", n, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_WIDE[(command, e, n)]


# argv drawn from the real subcommands and flags plus junk; sizes stay at
# most 6 and bipartition texts short, so every call is quick
_VALUES = {
    "--e": st.sampled_from(["4", "3", "2", "6", "inf"] * 3 + ["1", "0", "-4", "x"]),
    "--n": st.sampled_from([str(k) for k in range(2, 7)] * 3 + ["0", "1", "-1", "x", ""]),
    "--format": st.sampled_from(["text", "json", "dot", "yaml"]),
    "--suite": st.sampled_from(
        [
            "path-independence",
            "semisimple-branching",
            "uniqueness-distinctness",
            "regime-a-decoupling",
            "level1-calibration",
            "nonsense",
        ]
    ),
    "--bipartition": st.one_of(
        st.sampled_from(
            ["1|1", "2|-", "1,1|-", "2,1|-", "-|3", "2,1|1", "1|2,2", "3|2", "1,1,1|1,1", "2,1|2,1", "3,3|-"]
        ),
        st.sampled_from(["-|-", "1,2|-", "|", "1|1|1", "-|2,1", "0|1"]),
        st.text(alphabet="0123,|-+x ", max_size=5),
    ),
    "--sign": st.sampled_from(["+", "-", "0"]),
}
_REQUIRED = {
    "lattice": ("--e", "--n"),
    "labels": ("--e", "--n"),
    "branch": ("--e", "--n"),
    "involution": ("--e", "--n", "--bipartition"),
    "dims": ("--bipartition",),
    "verify": ("--suite", "--e", "--n"),
    "junk": (),
}
_EXTRA = st.sampled_from(
    ["--format", "--no-cache", "--bipartition", "--sign"] * 3 + sorted(_VALUES) + ["-h", "--bogus", "7"]
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    # each required flag is left out one time in eight
    flags = [flag for flag in _REQUIRED[command] if draw(st.integers(0, 7))]
    flags += draw(st.lists(_EXTRA, max_size=2))
    argv = [command]
    for flag in flags:
        if flag in _VALUES:
            # attached, so a value starting with '-' stays a value
            argv.append(f"{flag}={draw(_VALUES[flag])}")
        else:
            argv.append(flag)
    return argv


@given(argv=_argvs())
@settings(max_examples=50, deadline=None)
def test_cli_exit_codes_on_arbitrary_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
