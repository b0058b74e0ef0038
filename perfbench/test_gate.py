"""Tests of the benchmark's correctness gate.

Run with ``python -m pytest perfbench``.  Documents come from the real CLI at
small sizes, so the doctored cases differ from a passing output only in the
defect they plant.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gate

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli_json(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               DNBRANCH_CACHE=str(tmp_path_factory.mktemp("cache")))

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "dnbranch.cli", *argv, "--format", "json"],
                              cwd=ROOT, env=env, capture_output=True, check=True)
        return json.loads(done.stdout)

    return run


@pytest.fixture(scope="module")
def regime_b(cli_json):
    model = gate.Model(cli_json("lattice", "--e", "4", "--n", "6"))
    return model, cli_json("branch", "--e", "4", "--n", "6"), cli_json("labels", "--e", "4", "--n", "6")


def test_real_outputs_pass(regime_b, cli_json):
    model, branching, labels = regime_b
    assert model.failures == []
    assert gate.check_branching(branching, model, 6) == []
    assert gate.check_labels(labels, model, 6) == []
    assert gate.Model(cli_json("lattice", "--e", "3", "--n", "6")).failures == []


def test_duplicated_summand_is_flagged(regime_b):
    model, branching, _ = regime_b
    doctored = copy.deepcopy(branching)
    entry = doctored["data"]["entries"][0]
    entry["summands"].append(entry["summands"][0])
    fails = gate.check_branching(doctored, model, 6)
    assert any("not multiplicity free" in f for f in fails)
    # the invariant alone, without the lattice, also catches it
    assert any("not multiplicity free" in f for f in gate.check_socle(entry, 6))


def test_lone_split_label_is_flagged(regime_b):
    model, _, labels = regime_b
    doctored = copy.deepcopy(labels)
    split = [k for k, lbl in enumerate(doctored["data"]["labels"]) if lbl.get("sign") == "-"]
    assert split, "e=4, n=6 should have fixed points"
    del doctored["data"]["labels"][split[0]]
    assert any("no - partner" in f for f in gate.check_labels(doctored, model, 6))


def test_broken_residue_balance_is_flagged(regime_b):
    model, _, _ = regime_b
    counts = {bp: gate.residue_counts(bp, 4, "B") for bp in model.levels[6]}
    bp = next(bp for bp, c in counts.items() if c[0] != c[2])
    # a doctored output that claims h fixes an unbalanced vertex
    text = "\n".join([model.header(6), f"bipartition: {bp}", f"h: {bp}"])
    assert any("residue balance" in f for f in gate.check_involution(text, model, bp, 6))


def test_regime_a_counts_and_dimensions():
    # pairs of partitions (OEIS A000712) and pairs of 2-restricted partitions
    assert gate.regime_a_level_sizes(6, "inf") == [1, 2, 5, 10, 20, 36, 65]
    assert gate.regime_a_level_sizes(4, 2) == [1, 2, 3, 6, 9]
    assert gate.dimension("2,1|1,1") == 20
    assert gate.dimension("-|-") == 1
