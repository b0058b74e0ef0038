import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dnbranch.core import (
    EMPTY_BIPARTITION,
    INF,
    REGIME_B,
    Node,
    classify_regime,
    format_bipartition,
    hat,
    parse_bipartition,
)
from dnbranch.crystal import build_lattice, e_tilde, f_tilde, good_removable
from dnbranch.dmod import (
    SPLIT,
    UNSPLIT,
    IrreducibleLabel,
    almost_symmetric,
    branching_graph,
    equivalence_classes,
    format_label,
    involution,
    level_socles,
    residue_counts,
    socle_restriction,
    unsplit_class,
)
from dnbranch.errors import MultipleSpecialNodesError, NotKleshchevError


def unsplit(text):
    return IrreducibleLabel(UNSPLIT, parse_bipartition(text))


def split(text, sign):
    return IrreducibleLabel(SPLIT, parse_bipartition(text), sign)


def test_involution_regime_a_is_component_swap(lattice_inf_n6):
    params, lattice = lattice_inf_n6
    assert involution(((2,), (1,)), params, lattice) == ((1,), (2,))
    assert involution(EMPTY_BIPARTITION, params, lattice) == EMPTY_BIPARTITION
    for level in lattice.levels:
        for bp in level:
            assert involution(bp, params, lattice) == hat(bp)


def test_involution_fixed_point_regime_b():
    params = classify_regime(4, 4)
    lattice = build_lattice(4, params)
    fixed = parse_bipartition("1|2,1")
    assert involution(fixed, params, lattice) == fixed


def test_involution_is_an_involution_exhaustively(lattice_e4_n6):
    params, lattice = lattice_e4_n6
    for level in lattice.levels:
        for bp in level:
            image = involution(bp, params, lattice)
            assert image in lattice
            assert involution(image, params, lattice) == bp


def test_involution_rejects_non_members():
    params = classify_regime(3, 2)
    lattice = build_lattice(3, params)
    with pytest.raises(NotKleshchevError):
        involution(((1, 1), ()), params, lattice)


def test_fixed_points_only_at_even_levels(lattice_e4_n6):
    params, lattice = lattice_e4_n6
    for m, level in enumerate(lattice.levels):
        for bp in level:
            if involution(bp, params, lattice) == bp and m > 0:
                assert m % 2 == 0


def test_fixed_points_regime_a_have_equal_components(lattice_inf_n6):
    params, lattice = lattice_inf_n6
    for level in lattice.levels:
        for bp in level:
            assert (involution(bp, params, lattice) == bp) == (bp[0] == bp[1])


def test_residue_balance_at_fixed_points():
    for e in (4, 6):
        params = classify_regime(8, e)
        lattice = build_lattice(8, params)
        l = params.l
        found = 0
        for level in lattice.levels[1:]:
            for bp in level:
                if involution(bp, params, lattice) != bp:
                    continue
                found += 1
                counts = residue_counts(bp, params)
                for k in range(e):
                    assert counts[k] == counts[(k + l) % e]
        assert found > 0


def test_residue_counts_examples():
    params = classify_regime(4, 4)
    assert residue_counts(parse_bipartition("1|2,1"), params) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert residue_counts(EMPTY_BIPARTITION, params) == {0: 0, 1: 0, 2: 0, 3: 0}
    # at n = 2 the even characteristic 4 still classifies as regime A
    params2 = classify_regime(2, 4)
    assert params2.regime == "A"
    assert residue_counts(parse_bipartition("1|1"), params2) == {0: 2, 1: 0, 2: 0, 3: 0}


def test_residue_counts_fixed_pair_regime_b():
    # ((1),(1)) as a level-2 vertex of the e=4 crystal is involution fixed
    params = classify_regime(4, 4)
    counts = residue_counts(parse_bipartition("1|1"), params)
    assert counts == {0: 1, 1: 0, 2: 1, 3: 0}
    lattice = build_lattice(4, params)
    assert involution(parse_bipartition("1|1"), params, lattice) == parse_bipartition("1|1")


def test_equivalence_classes_level2(lattice_inf_n6):
    params, lattice = lattice_inf_n6
    labels = equivalence_classes(lattice.levels[2], params, lattice)
    kinds = [label.kind for label in labels]
    assert kinds.count(UNSPLIT) == 2
    assert kinds.count(SPLIT) == 2
    assert labels == sorted(labels, key=lambda l: (l.rep, l.kind, l.sign or ""))


def test_no_split_labels_at_odd_levels(lattice_e4_n6, lattice_inf_n6):
    for params, lattice in (lattice_e4_n6, lattice_inf_n6):
        for m in (1, 3, 5):
            labels = equivalence_classes(lattice.levels[m], params, lattice)
            assert all(label.kind == UNSPLIT for label in labels)


def test_level0_and_level1_labels(lattice_inf_n6):
    params, lattice = lattice_inf_n6
    assert equivalence_classes(lattice.levels[0], params, lattice) == [
        IrreducibleLabel(UNSPLIT, EMPTY_BIPARTITION)
    ]
    assert equivalence_classes(lattice.levels[1], params, lattice) == [
        IrreducibleLabel(UNSPLIT, ((), (1,)))
    ]


def test_unsplit_reps_are_orbit_minima(lattice_e4_n6):
    params, lattice = lattice_e4_n6
    for m in range(2, 7):
        for label in equivalence_classes(lattice.levels[m], params, lattice):
            if label.kind == UNSPLIT:
                partner = involution(label.rep, params, lattice)
                assert label.rep != partner and label.rep < partner
            else:
                assert involution(label.rep, params, lattice) == label.rep


def test_unsplit_class_rejects_fixed_points_under_optimization():
    script = (
        "from dnbranch.core import classify_regime, parse_bipartition\n"
        "from dnbranch.crystal import build_lattice\n"
        "from dnbranch.dmod import unsplit_class\n"
        "from dnbranch.errors import FixedPointError\n"
        "assert False, 'asserts are stripped'\n"
        "params = classify_regime(4, 4)\n"
        "try:\n"
        "    unsplit_class(parse_bipartition('1|2,1'), params, build_lattice(4, params))\n"
        "except FixedPointError:\n"
        "    print('raised')\n"
    )
    _assert_raised_under_optimisation(script)


def _assert_raised_under_optimisation(script: str) -> None:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised\n"


def test_almost_symmetric_examples_infinite_modulus(lattice_inf_n6):
    params, lattice = lattice_inf_n6
    assert almost_symmetric(parse_bipartition("2,1|1,1"), params, lattice) == Node(1, 1, 2)
    assert almost_symmetric(parse_bipartition("2|1,1,1"), params, lattice) is None


def test_almost_symmetric_examples_regime_b():
    params = classify_regime(5, 4)
    lattice = build_lattice(5, params)
    assert almost_symmetric(parse_bipartition("1|2,2"), params, lattice) == Node(2, 2, 2)
    assert almost_symmetric(parse_bipartition("2|1,1,1"), params, lattice) is None


def test_socle_restriction_almost_symmetric(lattice_inf_n6):
    params, lattice = lattice_inf_n6
    label = unsplit_class(parse_bipartition("2,1|1,1"), params, lattice)
    decomposition = socle_restriction(label, params, lattice)
    assert set(decomposition.summands) == {
        split("1,1|1,1", "+"),
        split("1,1|1,1", "-"),
        unsplit_class(parse_bipartition("2|1,1"), params, lattice),
        unsplit_class(parse_bipartition("2,1|1"), params, lattice),
    }
    assert len(decomposition.summands) == 4


def test_socle_restriction_not_almost_symmetric(lattice_inf_n6):
    params, lattice = lattice_inf_n6
    label = unsplit_class(parse_bipartition("2|1,1,1"), params, lattice)
    decomposition = socle_restriction(label, params, lattice)
    assert set(decomposition.summands) == {
        unsplit_class(parse_bipartition("1|1,1,1"), params, lattice),
        unsplit_class(parse_bipartition("2|1,1"), params, lattice),
    }


def test_socle_restriction_split_label(lattice_inf_n6):
    params, lattice = lattice_inf_n6
    plus = socle_restriction(split("2,1|2,1", "+"), params, lattice)
    minus = socle_restriction(split("2,1|2,1", "-"), params, lattice)
    expected = {
        unsplit_class(parse_bipartition("2,1|2"), params, lattice),
        unsplit_class(parse_bipartition("2,1|1,1"), params, lattice),
    }
    assert set(plus.summands) == expected
    assert plus.summands == minus.summands


def test_socle_restriction_regime_b_examples():
    params = classify_regime(5, 4)
    lattice = build_lattice(5, params)
    lam = socle_restriction(
        unsplit_class(parse_bipartition("1|2,2"), params, lattice), params, lattice
    )
    assert set(lam.summands) == {split("1|2,1", "+"), split("1|2,1", "-")}
    mu = socle_restriction(
        unsplit_class(parse_bipartition("2|1,1,1"), params, lattice), params, lattice
    )
    assert all(s.kind == UNSPLIT for s in mu.summands)
    assert set(mu.summands) == {
        unsplit_class(parse_bipartition("1|1,1,1"), params, lattice),
        unsplit_class(parse_bipartition("2|1,1"), params, lattice),
    }
    assert [format_label(s) for s in mu.summands] == ["D(1|1,1,1)", "D(1,1|2)"]


def test_socle_is_independent_of_orbit_representative(lattice_e4_n6, lattice_inf_n6):
    for params, lattice in (lattice_e4_n6, lattice_inf_n6):
        for m in range(2, 7):
            for bp in lattice.levels[m]:
                partner = involution(bp, params, lattice)
                if partner == bp:
                    continue
                label = unsplit_class(bp, params, lattice)
                assert label == unsplit_class(partner, params, lattice)


def test_socles_are_multiplicity_free_and_sign_symmetric(lattice_e4_n6, lattice_inf_n6):
    for params, lattice in (lattice_e4_n6, lattice_inf_n6):
        for m in range(2, 7):
            entries = branching_graph(m, params, lattice)
            by_rep = {}
            for entry in entries:
                assert len(set(entry.summands)) == len(entry.summands)
                if entry.source.kind == SPLIT:
                    key = entry.source.rep
                    by_rep.setdefault(key, []).append(entry.summands)
            for summand_lists in by_rep.values():
                assert len(summand_lists) == 2
                assert summand_lists[0] == summand_lists[1]


def test_branching_graph_level2(lattice_inf_n6):
    params, lattice = lattice_inf_n6
    entries = branching_graph(2, params, lattice)
    assert len(entries) == 4
    for entry in entries:
        assert len(entry.summands) >= 1
        for summand in entry.summands:
            assert summand.n == 1
            assert summand == IrreducibleLabel(UNSPLIT, ((), (1,)))


def test_format_label():
    assert format_label(unsplit("1,1|2,1")) == "D(1,1|2,1)"
    assert format_label(split("1|2,1", "+")) == "D+(1|2,1)"
    assert format_label(split("1|2,1", "-")) == "D-(1|2,1)"


# The paper's route from type B to type D, checked with no code of the socle
# logic.  In type B the socle of the restriction of D^lam is the sum of
# D^(lam - A) over the good removable cells A, and a type-B simple D^mu
# restricts to type D as D(mu) when h(mu) != mu and as D(mu,+) + D(mu,-) when
# h(mu) = mu.  The socle commutes with that index-2 restriction, so an
# unsplit label's socle, and the two socles of a split pair together, are the
# multiset of Res(lam - A).  The good removals are the lattice's parent edges.
CLIFFORD_POINTS = [(4, 10), (6, 10), (2, 12), (8, 10), (INF, 8), (3, 9)]


def _h(mu, params):
    """``h`` by the definitional scan, sharing no code with the engine's ``h``.

    Regime A swaps the components.  Regime B peels ``mu`` with ``e_tilde``,
    taking the smallest step that has a good removable cell, then replays
    the peeled steps, each shifted by ``l``, with ``f_tilde``.
    """
    if params.regime != REGIME_B:
        return hat(mu)
    steps = []
    while mu != EMPTY_BIPARTITION:
        step = next(i for i in range(params.e) if good_removable(mu, i, params) is not None)
        steps.append(step)
        mu = e_tilde(mu, step, params)
    image = EMPTY_BIPARTITION
    for step in reversed(steps):
        image = f_tilde(image, (step + params.l) % params.e, params)
    return image


def _type_d_restriction(mu, params):
    image = _h(mu, params)
    if image == mu:
        return [IrreducibleLabel(SPLIT, mu, "+"), IrreducibleLabel(SPLIT, mu, "-")]
    return [IrreducibleLabel(UNSPLIT, min(mu, image))]


@pytest.mark.parametrize("e, n", CLIFFORD_POINTS)
def test_socles_satisfy_the_clifford_identity(e, n):
    # every level from 2, so even e is checked in both regimes
    for m in range(2, n + 1):
        params = classify_regime(m, e)
        lattice = build_lattice(m, params)
        # the two signs of a split label share a representative, so they merge
        engine: dict = {}
        for entry in branching_graph(m, params, lattice):
            engine.setdefault(entry.source.rep, Counter()).update(entry.summands)
        level = lattice.levels[m]
        assert engine.keys() == {min(lam, _h(lam, params)) for lam in level}
        for lam, socle in engine.items():
            expected = Counter()
            for mu, _ in lattice.parents(lam):
                expected.update(_type_d_restriction(mu, params))
            assert socle == expected, (m, format_bipartition(lam))


# The paper's two socle invariants, broken by a doctored h one level down.  The
# label is unsplit at (inf, 3) and has two good removals; both checks raise,
# not assert, so they hold under ``python -O`` too.
DOCTORED_LABEL = ((1,), (1, 1))
DOCTORED_REMOVALS = (((), (1, 1)), ((1,), (1,)))


def test_fixed_images_of_two_removals_are_two_special_nodes():
    params = classify_regime(3, INF)
    (socle,) = level_socles([DOCTORED_LABEL], params, hat, hat)  # the true h
    assert socle.source == IrreducibleLabel(UNSPLIT, DOCTORED_LABEL)
    assert {summand.rep for summand in socle.summands} == set(DOCTORED_REMOVALS)
    with pytest.raises(MultipleSpecialNodesError):
        list(level_socles([DOCTORED_LABEL], params, hat, lambda mu: mu))


def test_swapped_removals_are_a_duplicate_summand_under_optimisation():
    # the two removals map to each other, so both give the same unsplit label
    script = (
        "from dnbranch.core import INF, classify_regime, hat\n"
        "from dnbranch.dmod import level_socles\n"
        "from dnbranch.errors import InvariantError\n"
        "assert False, 'asserts are stripped'\n"
        f"mu1, mu2 = {DOCTORED_REMOVALS!r}\n"
        "swap = {mu1: mu2, mu2: mu1}\n"
        "try:\n"
        f"    list(level_socles([{DOCTORED_LABEL!r}], classify_regime(3, INF), hat, swap.get))\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    _assert_raised_under_optimisation(script)
