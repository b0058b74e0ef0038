import pytest
from hypothesis import given

from conftest import bipartitions, is_l_restricted, partitions
from dnbranch.core import (
    INF,
    Node,
    REGIME_A,
    REGIME_B,
    add_node,
    addable_nodes,
    bipartition_size,
    classify_regime,
    format_bipartition,
    hat,
    is_semisimple,
    parse_bipartition,
    remove_node,
    removable_nodes,
    residue,
)
from dnbranch.errors import InvalidEError, NotRemovableError, ParseError


def test_residue_regime_b_offsets():
    params = classify_regime(5, 4)
    assert residue(Node(2, 2, 2), params) == 2
    assert residue(Node(1, 1, 1), params) == 0
    assert residue(Node(2, 1, 1), params) == 2


def test_residue_regime_a_unreduced():
    params = classify_regime(5, INF)
    assert residue(Node(1, 3, 1), params) == -2
    assert residue(Node(2, 3, 1), params) == -2
    params3 = classify_regime(2, 3)
    assert params3.regime == REGIME_A
    assert residue(Node(2, 3, 1), params3) == 1


def test_is_l_restricted():
    assert not is_l_restricted((3,), 2)
    assert is_l_restricted((2, 1), 2)
    assert is_l_restricted((100, 3), INF)
    assert not is_l_restricted((2, 2), 2)  # last part minus zero counts


def test_hat():
    assert hat(((2,), (1,))) == ((1,), (2,))
    assert hat(((1, 1), (1, 1))) == ((1, 1), (1, 1))
    assert hat(((2, 1), ())) == ((), (2, 1))


def test_removable_nodes():
    assert removable_nodes(((2, 1), (1,))) == [Node(1, 1, 2), Node(1, 2, 1), Node(2, 1, 1)]
    assert removable_nodes(((), ())) == []
    assert removable_nodes(((2, 2), ())) == [Node(1, 2, 2)]


def test_addable_nodes():
    assert addable_nodes(((1,), ())) == [Node(1, 1, 2), Node(1, 2, 1), Node(2, 1, 1)]
    assert addable_nodes(((), ())) == [Node(1, 1, 1), Node(2, 1, 1)]
    assert addable_nodes(((2, 1), ())) == [
        Node(1, 1, 3),
        Node(1, 2, 2),
        Node(1, 3, 1),
        Node(2, 1, 1),
    ]


def test_remove_node_examples():
    assert remove_node(((2, 1), (1, 1)), Node(1, 1, 2)) == ((1, 1), (1, 1))
    assert remove_node(((1,), (2, 2)), Node(2, 2, 2)) == ((1,), (2, 1))
    assert remove_node(((1,), ()), Node(1, 1, 1)) == ((), ())


def test_remove_node_rejects_non_removable():
    with pytest.raises(NotRemovableError):
        remove_node(((2, 2), ()), Node(1, 1, 2))
    with pytest.raises(NotRemovableError):
        remove_node(((1,), ()), Node(2, 1, 1))


@given(bipartitions(max_size=10))
def test_remove_then_add_is_identity(bp):
    for node in removable_nodes(bp):
        assert add_node(remove_node(bp, node), node) == bp
    for node in addable_nodes(bp):
        assert remove_node(add_node(bp, node), node) == bp


@given(bipartitions(max_size=10))
def test_hat_is_involution_and_maps_removables(bp):
    assert hat(hat(bp)) == bp
    flipped = {
        Node(3 - node.component, node.row, node.col) for node in removable_nodes(bp)
    }
    assert flipped == set(removable_nodes(hat(bp)))


@given(bipartitions(max_size=10))
def test_node_lists_strictly_increase(bp):
    for nodes in (removable_nodes(bp), addable_nodes(bp)):
        keys = [(node.component, node.row) for node in nodes]
        assert keys == sorted(set(keys))


def test_classify_regime():
    assert classify_regime(5, INF).regime == REGIME_A
    assert classify_regime(5, INF).l == INF
    params = classify_regime(5, 4)
    assert (params.regime, params.l, params.multicharge) == (REGIME_B, 2, (0, 2))
    assert classify_regime(3, 8).regime == REGIME_A
    assert classify_regime(3, 8).l == 8
    assert classify_regime(7, 7).regime == REGIME_A
    for bad in (0, 1, -4):
        with pytest.raises(InvalidEError):
            classify_regime(3, bad)


def test_semisimplicity():
    assert is_semisimple(5, INF)
    assert not is_semisimple(5, 4)
    assert is_semisimple(3, 7)
    assert not is_semisimple(5, 5)  # 1 + q + ... + q**4 vanishes
    assert is_semisimple(4, 9)
    assert not is_semisimple(5, 8)  # 1 + q**4 vanishes


def test_regime_b_residue_shift_between_components():
    params = classify_regime(6, 4)
    for row in range(1, 5):
        for col in range(1, 5):
            delta = residue(Node(2, row, col), params) - residue(Node(1, row, col), params)
            assert delta % params.e == params.l


def test_text_form():
    assert format_bipartition(((2, 1), (1, 1))) == "2,1|1,1"
    assert format_bipartition(((), (2, 2))) == "-|2,2"
    assert format_bipartition(((), ())) == "-|-"
    assert parse_bipartition("2,1|1,1") == ((2, 1), (1, 1))
    assert parse_bipartition("-|2,2") == ((), (2, 2))
    assert parse_bipartition("-|-") == ((), ())


@pytest.mark.parametrize(
    "text, position",
    [
        ("2,1", 1),
        ("1,2|-", 3),
        ("2,x|1", 3),
        ("|1", 1),
        ("1|0", 3),
        ("1|2||", 1),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse_bipartition(text)
    assert err.value.position == position


@given(bipartitions(max_size=10))
def test_text_round_trip(bp):
    assert parse_bipartition(format_bipartition(bp)) == bp
    assert bipartition_size(bp) == sum(bp[0]) + sum(bp[1])
