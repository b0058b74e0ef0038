"""Shared hypothesis strategies and small fixtures."""

import hypothesis.strategies as st
import pytest

from dnbranch.core import EMPTY_BIPARTITION, classify_regime
from dnbranch.crystal import build_lattice, f_tilde


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
