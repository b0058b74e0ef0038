"""Label involution, irreducible-module labels and socle branching.

Simple modules of the rank-``n`` type-D algebra are labeled either by the
two-element orbit of a Kleshchev bipartition under the involution ``h``
(kind ``unsplit``), or by a fixed point of ``h`` together with a sign
(kind ``split``).  ``h`` is the component swap in regime A.  In regime B it
maps the endpoint of any residue path to the endpoint of the same path
shifted by ``l``; the lattice reads it off its edges once (``h(c)`` is the
child of ``h(p)`` along the shifted step of each edge ``(p, i, c)``).  A
single combinatorial ``h`` serves every base field of characteristic != 2.

The socle of the restriction to rank ``n - 1`` is always a multiplicity
free sum read off from the good removable cells:

* unsplit label, almost symmetric with special cell ``A``: the two split
  labels on the fixed removal plus one unsplit label per other good cell;
* unsplit label, not almost symmetric: one unsplit label per good cell;
* split label (either sign): one unsplit label per orbit of good removals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    Bipartition,
    CrystalParams,
    INF,
    Node,
    REGIME_A,
    REGIME_B,
    bipartition_size,
    format_bipartition,
    hat,
    nodes_of,
    remove_node,
    residue,
)
from .crystal import Lattice, good_nodes, require_member
from .errors import FixedPointError, InvariantError, MultipleSpecialNodesError

UNSPLIT = "unsplit"
SPLIT = "split"

_SIGN_ORDER = {"+": 0, "-": 1}


@dataclass(frozen=True)
class IrreducibleLabel:
    """Label of a simple module at level ``n = |rep|``.

    ``unsplit``: ``rep`` is the smaller element of its two-element orbit
    under ``h`` (the size-0 label is the single degenerate exception).
    ``split``: ``rep`` is a fixed point of ``h`` and ``sign`` is ``+`` or
    ``-``.
    """

    kind: str
    rep: Bipartition
    sign: str | None = None

    @property
    def n(self) -> int:
        return bipartition_size(self.rep)


def label_sort_key(label: IrreducibleLabel):
    return (label.rep, 0 if label.kind == UNSPLIT else 1, _SIGN_ORDER.get(label.sign, 0))


def format_label(label: IrreducibleLabel) -> str:
    sign = label.sign if label.kind == SPLIT else ""
    return f"D{sign}({format_bipartition(label.rep)})"


@dataclass(frozen=True)
class SocleDecomposition:
    """Socle of the restriction of ``source``, as a sorted duplicate-free sum."""

    source: IrreducibleLabel
    summands: tuple[IrreducibleLabel, ...]


def involution(bp: Bipartition, params: CrystalParams, lattice: Lattice) -> Bipartition:
    """The label involution ``h``.

    Regime A swaps the components.  Regime B reads the lattice's table,
    built from its edges: ``h(c)`` is the child of ``h(p)`` along step
    ``(i + l) mod e`` for every edge ``(p, i, c)``.
    """
    if params != lattice.params:
        raise ValueError("params do not match the lattice they came with")
    require_member(bp, lattice)
    if params.regime == REGIME_A:
        return hat(bp)
    return lattice.h[bp]


def equivalence_classes(
    level, params: CrystalParams, lattice: Lattice
) -> list[IrreducibleLabel]:
    """Labels of the simple modules indexed by a full lattice level.

    One unsplit label per two-element orbit, a ``+``/``-`` pair per fixed
    point.  The empty bipartition at level 0 gets a single degenerate
    unsplit label.  Output is sorted by representative.
    """
    labels = []
    for bp in sorted(level):
        partner = involution(bp, params, lattice)
        if bp < partner:
            labels.append(IrreducibleLabel(UNSPLIT, bp))
        elif bp == partner:
            if bipartition_size(bp) == 0:
                labels.append(IrreducibleLabel(UNSPLIT, bp))
            else:
                labels.append(IrreducibleLabel(SPLIT, bp, "+"))
                labels.append(IrreducibleLabel(SPLIT, bp, "-"))
    return labels


def unsplit_class(bp: Bipartition, params: CrystalParams, lattice: Lattice) -> IrreducibleLabel:
    """Unsplit label of the orbit of ``bp``, which must not be ``h``-fixed."""
    partner = involution(bp, params, lattice)
    if partner == bp:
        raise FixedPointError(f"{format_bipartition(bp)} is a fixed point, not unsplit")
    return IrreducibleLabel(UNSPLIT, min(bp, partner))


def _special_cell(
    bp: Bipartition, good: list[Node], params: CrystalParams, lattice: Lattice
) -> Node | None:
    """The unique cell of ``good`` whose removal from ``bp`` is ``h``-fixed."""
    special = []
    for node in good:
        child = remove_node(bp, node)
        if child == involution(child, params, lattice):
            special.append(node)
    if len(special) > 1:
        raise MultipleSpecialNodesError(
            f"{format_bipartition(bp)} has {len(special)} special nodes"
        )
    return special[0] if special else None


def almost_symmetric(
    bp: Bipartition, params: CrystalParams, lattice: Lattice
) -> Node | None:
    """The unique good cell whose removal is ``h``-fixed, if one exists."""
    require_member(bp, lattice)
    return _special_cell(bp, [node for node, _ in good_nodes(bp, params)], params, lattice)


def socle_restriction(
    label: IrreducibleLabel, params: CrystalParams, lattice: Lattice
) -> SocleDecomposition:
    """Socle of the restriction of ``label`` one level down."""
    n = label.n
    if n < 2:
        raise ValueError("restriction decompositions need level n >= 2")
    lam = label.rep
    good = [node for node, _ in good_nodes(lam, params)]
    summands: list[IrreducibleLabel]
    if label.kind == SPLIT:
        # one unsplit label per orbit of good removals; identical for both signs
        classes = {
            unsplit_class(remove_node(lam, node), params, lattice) for node in good
        }
        summands = sorted(classes, key=label_sort_key)
    else:
        require_member(lam, lattice)
        special = _special_cell(lam, good, params, lattice)
        summands = []
        if special is not None:
            fixed_child = remove_node(lam, special)
            summands.append(IrreducibleLabel(SPLIT, fixed_child, "+"))
            summands.append(IrreducibleLabel(SPLIT, fixed_child, "-"))
        for node in good:
            if node == special:
                continue
            summands.append(unsplit_class(remove_node(lam, node), params, lattice))
        summands.sort(key=label_sort_key)
        if len(set(summands)) != len(summands):
            raise InvariantError(f"socle of {format_label(label)} is not multiplicity free")
    return SocleDecomposition(label, tuple(summands))


def residue_counts(bp: Bipartition, params: CrystalParams) -> dict[int, int]:
    """Number of cells per residue; finite alphabets include explicit zeros."""
    counts = Counter(residue(node, params) for node in nodes_of(bp))
    modulus = params.e if params.regime == REGIME_B else params.l
    if modulus != INF:
        for k in range(int(modulus)):
            counts.setdefault(k, 0)
    return dict(sorted(counts.items()))


def branching_graph(
    n: int, params: CrystalParams, lattice: Lattice
) -> list[SocleDecomposition]:
    """Socle decompositions of every label at level ``n``, in label order."""
    if n < 2:
        raise ValueError("branching needs level n >= 2")
    if n > lattice.n:
        raise ValueError(f"lattice only covers sizes up to {lattice.n}")
    labels = equivalence_classes(lattice.levels[n], params, lattice)
    return [socle_restriction(label, params, lattice) for label in labels]
