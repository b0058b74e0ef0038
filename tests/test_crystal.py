import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    bipartitions,
    edges_of,
    enumerate_bipartitions,
    fold_steps,
    is_l_restricted,
    lattice_edges,
    parent_pairs,
    partitions,
    peel_path,
)
from dnbranch.core import (
    ADDABLE,
    EMPTY_BIPARTITION,
    INF,
    REGIME_B,
    REMOVABLE,
    Node,
    bipartition_size,
    classify_regime,
    format_bipartition,
    hat,
    regime_a_params,
    remove_node,
)
from dnbranch.crystal import (
    MAX_RESIDUE_ALPHABET,
    _good_removable_side,
    _word_side,
    build_lattice,
    component_word,
    good_child,
    good_nodes,
    iter_levels,
    partition_crystal_levels,
)
from dnbranch.dmod import involution
from dnbranch.errors import NotKleshchevError, ResourceLimitError, ShiftReplayError
from dnbranch.oracle import enumerate_partitions
from dnbranch.reference import (
    _reduce,
    e_tilde,
    f_tilde,
    good_addable,
    good_removable,
    i_signature,
    reference_h,
)


def test_partition_signature_examples():
    sig = i_signature(((1,), ()), 1, regime_a_params(2), component=1)
    assert sig.entries == ((Node(1, 1, 2), ADDABLE), (Node(1, 2, 1), ADDABLE))
    assert sig.reduced == sig.entries
    assert (sig.phi, sig.eps) == (2, 0)

    sig = i_signature(((1, 1), ()), 1, regime_a_params(2), component=1)
    assert sig.entries == ((Node(1, 1, 2), ADDABLE), (Node(1, 2, 1), REMOVABLE))
    assert sig.reduced == sig.entries
    assert (sig.phi, sig.eps) == (1, 1)


def test_signature_of_empty_bipartition():
    params = classify_regime(5, 4)
    for i in range(4):
        sig = i_signature(EMPTY_BIPARTITION, i, params)
        expected = {0: [Node(1, 1, 1)], 2: [Node(2, 1, 1)]}.get(i, [])
        assert [node for node, _ in sig.entries] == expected
        assert all(mark == ADDABLE for _, mark in sig.entries)


def test_signature_cancellation():
    # removable in component 1 directly before an addable in component 2
    params = classify_regime(4, 4)
    sig = i_signature(((1,), (1, 1)), 0, params)
    assert [(n, m) for n, m in sig.entries] == [
        (Node(1, 1, 1), REMOVABLE),
        (Node(2, 3, 1), ADDABLE),
    ]
    assert sig.reduced == ()
    assert (sig.eps, sig.phi) == (0, 0)


def test_signature_requires_component_in_regime_a():
    params = classify_regime(3, INF)
    with pytest.raises(ValueError):
        i_signature(((1,), ()), 0, params)
    sig = i_signature(((1,), ()), 0, params, component=1)
    assert sig.eps == 1


def test_good_nodes_partition_level():
    assert good_addable(((1,), ()), (1, 1), regime_a_params(2)) == Node(1, 2, 1)
    assert good_removable(((1, 1), ()), (1, 1), regime_a_params(2)) == Node(1, 2, 1)
    assert good_removable(((), ()), (1, 0), regime_a_params(2)) is None


def test_good_nodes_examples():
    params = classify_regime(5, INF)
    assert good_removable(EMPTY_BIPARTITION, (1, 0), params) is None
    # with an infinite modulus every removable cell is good
    for bp in [((2, 1), (1, 1)), ((3, 1), (2,)), ((2, 2), (1, 1, 1))]:
        nodes = {node for node, _ in good_nodes(bp, params)}
        from dnbranch.core import removable_nodes

        assert nodes == set(removable_nodes(bp))
    assert len(good_nodes(((2, 1), (1, 1)), params)) == 3


def test_good_nodes_example_regime_b():
    params = classify_regime(5, 4)
    nodes = good_nodes(((1,), (2, 2)), params)
    assert nodes == [(Node(2, 2, 2), 2)]


def test_crystal_operators_are_mutually_inverse_exhaustively(lattice_e4_n6):
    params, lattice = lattice_e4_n6
    for level in lattice.levels:
        for bp in level:
            for i in range(4):
                up = f_tilde(bp, i, params)
                if up is not None:
                    assert e_tilde(up, i, params) == bp
                down = e_tilde(bp, i, params)
                if down is not None:
                    assert f_tilde(down, i, params) == bp


def test_eps_phi_bookkeeping(lattice_e4_n6):
    params, lattice = lattice_e4_n6
    for level in lattice.levels[:-1]:
        for bp in level:
            for i in range(4):
                before = i_signature(bp, i, params)
                up = f_tilde(bp, i, params)
                if up is None:
                    assert before.phi == 0
                    continue
                after = i_signature(up, i, params)
                assert after.eps == before.eps + 1
                assert after.phi == before.phi - 1


def test_build_lattice_levels_regime_a():
    params = classify_regime(2, INF)
    lattice = build_lattice(2, params)
    assert len(lattice.levels[2]) == 5

    params2 = regime_a_params(2)
    lattice2 = build_lattice(2, params2)
    assert set(lattice2.levels[2]) == {((1, 1), ()), ((1,), (1,)), ((), (1, 1))}


def test_build_lattice_example_vertices_regime_b():
    params = classify_regime(5, 4)
    lattice = build_lattice(5, params)
    assert ((1,), (2, 2)) in lattice
    assert ((2,), (1, 1, 1)) in lattice
    assert ((1,), (2, 2)) in lattice.levels[5]


def test_build_lattice_is_deterministic():
    params = classify_regime(5, 4)
    first = build_lattice(5, params)
    second = build_lattice(5, params)
    assert first == second
    assert first.levels == second.levels and lattice_edges(first) == lattice_edges(second)


def test_build_lattice_vertex_budget():
    params = classify_regime(6, INF)
    with pytest.raises(ResourceLimitError):
        build_lattice(6, params, max_vertices=10)


def test_regime_b_growth_lists_no_alphabet_over_the_limit():
    # regime B lists every residue of Z/eZ per parent; at the limit growth
    # runs into the vertex budget, above it it stops before level 0
    top = MAX_RESIDUE_ALPHABET
    with pytest.raises(ResourceLimitError, match="vertex budget"):
        build_lattice(top // 2 + 1, classify_regime(top // 2 + 1, top), max_vertices=10)
    levels = iter_levels(top // 2 + 2, classify_regime(top // 2 + 2, top + 2))
    with pytest.raises(ResourceLimitError, match="residue alphabet"):
        next(levels)


def test_canonical_path_examples():
    params = classify_regime(5, 4)
    lattice = build_lattice(5, params)
    for bp, path in [
        (EMPTY_BIPARTITION, ()),
        (((1,), ()), (0,)),
        (((), (1,)), (2,)),
        (((1,), (2, 2)), (2, 0, 3, 1, 2)),
    ]:
        assert bp in lattice
        assert peel_path(bp, params) == path


def test_canonical_path_rejects_non_members():
    params = classify_regime(3, 2)
    lattice = build_lattice(3, params)
    assert ((1, 1), ()) not in lattice
    with pytest.raises(NotKleshchevError):
        peel_path(((1, 1), ()), params)
    with pytest.raises(NotKleshchevError):
        involution(((1, 1), ()), params, lattice)
    # above the lattice's top level
    with pytest.raises(ValueError, match="lattice only covers sizes up to 3, got size 12"):
        involution(((4, 4), (4,)), params, lattice)


def test_replay_inverts_canonical_path(lattice_e4_n6):
    params, lattice = lattice_e4_n6
    for level in lattice.levels:
        for bp in level:
            assert fold_steps(peel_path(bp, params), params) == bp


def test_shift_symmetry_on_canonical_paths(lattice_e4_n6):
    params, lattice = lattice_e4_n6
    for level in lattice.levels:
        for bp in level:
            shifted = [(step + params.l) % params.e for step in peel_path(bp, params)]
            assert fold_steps(shifted, params) is not None


@pytest.mark.parametrize("e", [2, 4, 6])
def test_h_table_equals_canonical_path_replay(e):
    params = classify_regime(8, e)
    lattice = build_lattice(8, params)
    assert len(lattice.h) == lattice.vertex_count()
    for level in lattice.levels:
        for bp in level:
            assert lattice.h[bp] == reference_h(bp, params)


def test_h_table_absent_in_regime_a():
    assert build_lattice(4, classify_regime(4, INF)).h is None


def _relabel(children, parent, step, e):
    """The index with edge ``(parent, step)`` moved to the next step ``parent`` lacks."""
    steps = dict(children[parent])
    if isinstance(step, int):
        moves = [(step + k) % e for k in range(1, e)]
    else:
        moves = [(step[0], (step[1] + k) % e) for k in range(1, e)]
    target = next((s for s in moves if s not in steps), None)
    if target is None:
        return None
    steps[target] = steps.pop(step)
    doctored = dict(children)
    doctored[parent] = dict(sorted(steps.items()))
    return doctored


def _first_unmirrored(children):
    """The message for the first edge, in index order, whose component-swap
    mirror is not in ``children``, edge by edge; ``None`` when every one is."""
    for parent, steps in children.items():
        for (component, i), child in steps.items():
            if children.get(hat(parent), {}).get((3 - component, i)) != hat(child):
                return (
                    f"edge {format_bipartition(parent)} --{component}:{i}--> "
                    f"{format_bipartition(child)} has no component-swap mirror"
                )
    return None


def _swap_doctorings(children, level):
    """Changes ``(parent, steps)`` to a regime-A index, each to apply alone:
    one edge dropped, added, or sent to another child, or (``steps`` is
    ``None``) one parent dropped with its edges."""
    for parent, steps in children.items():
        for step in steps:
            yield parent, {s: c for s, c in steps.items() if s != step}
            moved = next(v for v in level if v != steps[step])
            yield parent, {**steps, step: moved}
        spare = next((1, i) for i in range(len(steps) + 1) if (1, i) not in steps)
        yield parent, {**steps, spare: level[0]}
        yield parent, None


def _doctored(children, *changes):
    """``children`` with each ``(parent, steps)`` change made, in place in index order."""
    doctored = dict(children)
    for parent, steps in changes:
        if steps is None:
            del doctored[parent]
        else:
            doctored[parent] = steps
    return doctored


def _assert_swap_check_as_plain_loop(params, doctored) -> bool:
    """Whether ``_next_images`` rejects ``doctored``, after asserting that it
    does exactly where the plain loop finds an unmirrored edge, naming it."""
    import dnbranch.crystal as crystal

    expected = _first_unmirrored(doctored)
    if expected is None:
        assert crystal._next_images(params, doctored, None) is None
        return False
    with pytest.raises(ShiftReplayError) as caught:
        crystal._next_images(params, doctored, None)
    assert str(caught.value) == expected
    return True


@pytest.mark.parametrize("e, n", [(INF, 5), (3, 6)])
def test_swap_check_names_the_first_edge_with_no_mirror(e, n):
    # the regime-A check skips a parent whose mirror has closed it; when it
    # fails, the message names the edge a plain edge-by-edge loop finds first
    import dnbranch.crystal as crystal

    params = classify_regime(n, e)
    checked = paired = 0
    for level, children in crystal._grow(n, params, 10**6):
        assert crystal._next_images(params, children, None) is None
        changes = list(_swap_doctorings(children, level))
        for change in changes:
            checked += _assert_swap_check_as_plain_loop(params, _doctored(children, change))
        # two changes on different parents: a parent and its mirror, or a
        # parent and the next in index order, so a skip or a later parent's
        # failure must give way to an earlier parent's
        after = dict(zip(children, list(children)[1:]))
        for first in changes:
            partners = {hat(first[0]), after.get(first[0])} - {first[0]}
            for second in changes:
                if second[0] in partners:
                    paired += _assert_swap_check_as_plain_loop(
                        params, _doctored(children, first, second)
                    )
    assert checked > 100
    assert paired > 100


@pytest.mark.parametrize("e", [4, 3])
def test_stream_and_build_catch_a_doctored_step_with_one_message(monkeypatch, e):
    # regime B at e = 4, regime A at e = 3: the generator's per-level check
    # sees the relabelled edge, and build_lattice, which collects the
    # stream, fails with the same message
    import dnbranch.crystal as crystal

    params = classify_regime(5, e)
    grown = list(crystal._grow(5, params, 10**6))
    doctorings = 0
    for m in range(1, 6):
        children = grown[m][1]
        for parent, step, _ in edges_of(children):
            doctored = _relabel(children, parent, step, e)
            if doctored is None:
                continue
            levels = [(v, doctored if k == m else index) for k, (v, index) in enumerate(grown)]
            monkeypatch.setattr(crystal, "_grow", lambda n, params, max_vertices: iter(levels))
            with pytest.raises(ShiftReplayError) as streamed:
                for _ in iter_levels(5, params):
                    pass
            with pytest.raises(ShiftReplayError) as built:
                build_lattice(5, params)
            assert str(streamed.value) == str(built.value)
            doctorings += 1
    assert doctorings >= len(edges_of(grown[5][1]))


@pytest.mark.parametrize("e", [4, 3])
def test_index_follows_the_edges(e):
    params = classify_regime(6, e)
    lattice = build_lattice(6, params)
    parents = {bp: [] for level in lattice.levels for bp in level}
    for level_edges in lattice_edges(lattice):
        for parent, step, child in level_edges:
            parents[child].append((parent, step))
    for bp in parents:
        assert parent_pairs(lattice, bp) == tuple(parents[bp])


def test_parents_examples():
    # 1|1 at e=4 is reached along steps 0 then 2 and along 2 then 0
    params = classify_regime(4, 4)
    lattice = build_lattice(4, params)
    assert parent_pairs(lattice, EMPTY_BIPARTITION) == ()
    assert parent_pairs(lattice, ((1,), (1,))) == ((((), (1,)), 0), (((1,), ()), 2))
    # at l=2 the only path to 1,1|- adds (1,0) then (1,1)
    lattice = build_lattice(2, regime_a_params(2))
    assert parent_pairs(lattice, ((1, 1), ())) == ((((1,), ()), (1, 1)),)
    assert parent_pairs(lattice, ((1,), ())) == ((EMPTY_BIPARTITION, (1, 0)),)


def test_peel_success_equals_membership():
    # greedy good peeling succeeds exactly on lattice vertices
    params = classify_regime(5, 4)
    lattice = build_lattice(5, params)
    for m in range(6):
        for bp in enumerate_bipartitions(m):
            current = bp
            while current != EMPTY_BIPARTITION:
                good = good_nodes(current, params)
                if not good:
                    break
                current = remove_node(current, good[0][0])
            assert (current == EMPTY_BIPARTITION) == (bp in lattice)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_level1_calibration(e):
    levels = partition_crystal_levels(10, e)
    for m in range(11):
        expected = {p for p in enumerate_partitions(m) if is_l_restricted(p, e)}
        assert set(levels[m]) == expected


def test_regime_a_good_nodes_decouple():
    params = regime_a_params(2)
    lattice = build_lattice(6, params)
    for level in lattice.levels:
        for bp in level:
            for node, (component, res) in good_nodes(bp, params):
                assert node.component == component
                single = good_removable((bp[component - 1], ()), (1, res), params)
                assert single is not None
                assert (single.row, single.col) == (node.row, node.col)


@given(partitions(max_size=9))
@settings(max_examples=60)
def test_reduced_signature_shape(parts):
    for e in (2, 3):
        for i in range(e):
            sig = i_signature((parts, ()), i, regime_a_params(e), component=1)
            marks = [mark for _, mark in sig.reduced]
            assert marks == sorted(marks)  # "A" sorts before "R"
            assert sig.eps == marks.count(REMOVABLE)
            assert sig.phi == marks.count(ADDABLE)


def test_good_picks_leftmost_removable_rightmost_addable():
    # residue-0 word of (2,2,1) at l=2 is A(1,3) R(2,2) R(3,1)
    sig = i_signature(((2, 2, 1), ()), 0, regime_a_params(2), component=1)
    assert [(n.row, n.col, m) for n, m in sig.entries] == [
        (1, 3, ADDABLE),
        (2, 2, REMOVABLE),
        (3, 1, REMOVABLE),
    ]
    assert good_removable(((2, 2, 1), ()), (1, 0), regime_a_params(2)) == Node(1, 2, 2)
    assert good_addable(((2, 2, 1), ()), (1, 0), regime_a_params(2)) == Node(1, 1, 3)
    # the residue-1 word is A(3,2) A(4,1); the rightmost addable wins
    assert good_addable(((2, 2, 1), ()), (1, 1), regime_a_params(2)) == Node(1, 4, 1)


def _alphabet(params, size):
    """Every step that can mark a cell of a bipartition of at most ``size``."""
    if params.regime == REGIME_B:
        return list(range(params.e))
    residues = range(-size - 1, size + 2) if params.l == INF else range(params.l)
    return [(component, i) for component in (1, 2) for i in residues]


def _assert_sweep_agrees(bp, params):
    nodes = good_nodes(bp, params)
    steps = [step for _, step in nodes]
    assert steps == sorted(set(steps))  # one cell per step, ascending: the peel takes the first
    assert all(type(node) is Node for node, _ in nodes)
    found = {step: node for node, step in nodes}
    # every step that can mark a cell, read from the memo and by the definitional scan
    for step in _alphabet(params, bipartition_size(bp)):
        removable = good_removable(bp, step, params)
        assert found.get(step) == removable
        if params.regime == REGIME_B:  # the lone shifted replay's good addition
            assert good_child(bp, step, params) == f_tilde(bp, step, params)


@pytest.mark.parametrize(
    "params",
    [regime_a_params(e) for e in (2, 3, 4, 6, INF)] + [classify_regime(8, e) for e in (2, 4, 6)],
    ids=lambda p: f"{p.regime}-e{p.e}",
)
def test_good_cells_agree_with_per_step_scan(params):
    lattice = build_lattice(8, params)
    for level in lattice.levels:
        for bp in level:
            _assert_sweep_agrees(bp, params)


@given(bipartitions(max_size=7))
@settings(max_examples=60)
def test_good_cells_agree_off_the_lattice(bp):
    for params in (regime_a_params(3), regime_a_params(INF), classify_regime(8, 4)):
        _assert_sweep_agrees(bp, params)


def _regenerate(n, params):
    """Levels and edges from the empty bipartition by ``f_tilde`` over the alphabet."""
    levels = [[EMPTY_BIPARTITION]]
    edges = [[]]
    for m in range(n):
        level_edges = [
            (parent, step, child)
            for parent in levels[-1]
            for step in _alphabet(params, m)
            if (child := f_tilde(parent, step, params)) is not None
        ]
        levels.append(sorted({child for _, _, child in level_edges}))
        edges.append(sorted(level_edges))
    return levels, edges


@pytest.mark.parametrize("e", [2, 3, 4, 6, 8, INF])
def test_lattice_regenerates_from_definitional_operators(e):
    # f_tilde sorts every marked cell of the bipartition and never reads the
    # component-word memo
    n = 9
    params = classify_regime(n, e)
    lattice = build_lattice(n, params)
    levels, edges = _regenerate(n, params)
    assert [list(level) for level in lattice.levels] == levels
    assert [list(level_edges) for level_edges in lattice_edges(lattice)] == edges
    if params.regime == REGIME_B:
        h = {EMPTY_BIPARTITION: EMPTY_BIPARTITION}
        for level_edges in edges:
            for parent, step, child in level_edges:
                image = f_tilde(h[parent], (step + params.l) % params.e, params)
                assert h.setdefault(child, image) == image
        assert lattice.h == h
    else:
        assert lattice.h is None
        for level_edges in edges:
            for parent, (component, i), child in level_edges:
                assert f_tilde(hat(parent), (3 - component, i), params) == hat(child)


def _summary(entries):
    reduced = _reduce(entries)
    a = sum(mark == ADDABLE for _, mark in reduced)
    last_a = reduced[a - 1][0] if a else None
    first_r = reduced[a][0] if a < len(reduced) else None
    return a, len(reduced) - a, last_a, first_r


@given(st.lists(st.sampled_from([ADDABLE, REMOVABLE]), max_size=16), st.data())
@settings(max_examples=200)
def test_tensor_rule_agrees_with_the_concatenated_word(marks, data):
    word = list(enumerate(marks))
    cut = data.draw(st.integers(min_value=0, max_value=len(word)))
    a1, r1, last_a1, first_r1 = _summary(word[:cut])
    a2, r2, last_a2, first_r2 = _summary(word[cut:])
    _, _, last_a, first_r = _summary(word)
    side = 2 if a2 > r1 else 1 if a1 else 0  # the rule as _grow applies it
    assert (None, last_a1, last_a2)[side] == last_a
    side = _good_removable_side(r1, a2, r2)
    assert (None, first_r1, first_r2)[side] == first_r


def test_component_word_memo_serves_every_repeat():
    # one memo: regime B holds one entry per (partition, offset), regime A
    # one per partition, shared by both components
    for e, n in [(6, 10), (3, 10), (INF, 9)]:
        params = classify_regime(n, e)
        _word_side.cache_clear()
        lattice = build_lattice(n, params)
        parents = [bp for level in lattice.levels[:-1] for bp in level]
        if params.regime == REGIME_B:
            distinct = {(bp[0], 0) for bp in parents} | {(bp[1], params.l) for bp in parents}
        else:
            distinct = {parts for bp in parents for parts in bp}
        assert _word_side.cache_info().currsize == len(distinct)
        misses = _word_side.cache_info().misses
        build_lattice(n, params)
        assert _word_side.cache_info().misses == misses
    assert not hasattr(component_word, "cache_info")
