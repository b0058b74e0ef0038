"""Shared hypothesis strategies, small fixtures and test-only references."""

import hypothesis.strategies as st
import pytest

from dnbranch.core import (
    EMPTY_BIPARTITION,
    INF,
    bipartition_size,
    classify_regime,
    remove_node,
    removable_nodes,
)
from dnbranch.crystal import build_lattice, peel
from dnbranch.oracle import _restricted_pairs, enumerate_partitions, restricted_partitions
from dnbranch.reference import f_tilde


@st.composite
def partitions(draw, max_size=8):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = n
    while remaining:
        p = draw(st.integers(min_value=1, max_value=remaining))
        parts.append(p)
        remaining -= p
    return tuple(sorted(parts, reverse=True))


@st.composite
def bipartitions(draw, max_size=8):
    return (draw(partitions(max_size)), draw(partitions(max_size)))


@pytest.fixture(scope="session")
def lattice_e4_n6():
    params = classify_regime(6, 4)
    return params, build_lattice(6, params)


@pytest.fixture(scope="session")
def lattice_inf_n6():
    from dnbranch.core import INF

    params = classify_regime(6, INF)
    return params, build_lattice(6, params)


def parent_pairs(lattice, bp):
    """``(parent, step)`` pairs of the edges into ``bp``, in edge order, read
    off ``lattice.index``."""
    into = lattice.index[sum(bp[0]) + sum(bp[1])]
    return tuple(
        (parent, step)
        for parent, steps in into.items()
        for step, child in steps.items()
        if child == bp
    )


def fold_steps(steps, params):
    """``f_tilde`` folded along ``steps`` from the empty bipartition;
    ``None`` once a step has no good addable cell."""
    current = EMPTY_BIPARTITION
    for step in steps:
        current = f_tilde(current, step, params)
        if current is None:
            return None
    return current


def edges_of(children):
    """The ``(parent, step, child)`` edges of a children index, in index order."""
    return tuple([(p, step, c) for p, steps in children.items() for step, c in steps.items()])


def lattice_edges(lattice):
    """Each level's flat edges, read off ``lattice.index``."""
    return tuple(map(edges_of, lattice.index))


# brute-force references that only the tests read


def peel_path(bp, params):
    """Addition-order step sequence of the canonical peel of ``bp`` to the
    empty bipartition; ``peel`` with its membership check."""
    return tuple(peel(bp, params))


def is_l_restricted(parts, l):
    """True when every consecutive difference (last part included) is < ``l``."""
    if l == INF:
        return True
    return all(
        parts[i] - (parts[i + 1] if i + 1 < len(parts) else 0) < l
        for i in range(len(parts))
    )


def enumerate_bipartitions(n):
    """All bipartitions of ``n``, right-hand partitions listed once per size."""
    for k in range(n + 1):
        rights = list(enumerate_partitions(n - k))
        for left in enumerate_partitions(k):
            for right in rights:
                yield (left, right)


def restricted_bipartitions(n, l):
    """Bipartitions of ``n`` whose components are ``l``-restricted."""
    return _restricted_pairs([list(restricted_partitions(k, l)) for k in range(n + 1)], n)


def count_standard_bitableaux(bp):
    """Explicit enumeration of standard fillings, one removal chain at a time.

    Exponential on purpose; used only to cross-check the closed formula on
    small diagrams.
    """
    if bipartition_size(bp) == 0:
        return 1
    return sum(
        count_standard_bitableaux(remove_node(bp, node))
        for node in removable_nodes(bp)
    )
