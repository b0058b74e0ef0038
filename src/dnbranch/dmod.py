"""Label involution, irreducible-module labels and socle branching.

Simple modules of the rank-``n`` type-D algebra are labeled either by the
two-element orbit of a Kleshchev bipartition under the involution ``h``
(kind ``unsplit``), or by a fixed point of ``h`` together with a sign
(kind ``split``).  ``h`` is the component swap in regime A.  In regime B it
maps the endpoint of any residue path to the endpoint of the same path
shifted by ``l``; the lattice reads it off its edges once (``h(c)`` is the
child of ``h(p)`` along the shifted step of each edge ``(p, i, c)``), and
a single label without a lattice replays its own canonical peel shifted by
``l``.  The socle engine needs ``h`` only of each good removal
``mu = lambda - A``, one level down, and reads it from whatever gives ``h``
there: the swap in regime A; in regime B a table on level ``n - 1``, the
lattice's or the one the level stream has just built; and for a single
label without a lattice, its own replay for the removal at its smallest
good step and ``mu``'s own peel for any other.  A single combinatorial
``h`` serves every base field of characteristic != 2.

The socle of the restriction to rank ``n - 1`` is always a multiplicity
free sum read off from the good removable cells:

* unsplit label, almost symmetric with special cell ``A``: the two split
  labels on the fixed removal plus one unsplit label per other good cell;
* unsplit label, not almost symmetric: one unsplit label per good cell;
* split label (either sign): one unsplit label per orbit of good removals.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .core import (
    Bipartition,
    CrystalParams,
    Frozen,
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
from .crystal import (
    MAX_RESIDUE_ALPHABET,
    Lattice,
    _not_kleshchev,
    f_tilde,
    good_nodes,
    peel_path,
    replay_path,
    shift_path,
)
from .errors import (
    FixedPointError,
    InvariantError,
    MultipleSpecialNodesError,
    ResourceLimitError,
    ShiftReplayError,
)

UNSPLIT = "unsplit"
SPLIT = "split"

_SIGN_ORDER = {"+": 0, "-": 1}


class IrreducibleLabel(Frozen):
    """Label of a simple module at level ``n = |rep|``.

    ``unsplit``: ``rep`` is the smaller element of its two-element orbit
    under ``h`` (the size-0 label is the single degenerate exception).
    ``split``: ``rep`` is a fixed point of ``h`` and ``sign`` is ``+`` or
    ``-``.
    """

    __slots__ = ("kind", "rep", "sign")

    def __init__(self, kind: str, rep: Bipartition, sign: str | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "sign", sign)

    @property
    def n(self) -> int:
        return bipartition_size(self.rep)


def label_sort_key(label: IrreducibleLabel):
    return (label.rep, 0 if label.kind == UNSPLIT else 1, _SIGN_ORDER.get(label.sign, 0))


def format_label(label: IrreducibleLabel) -> str:
    sign = label.sign if label.kind == SPLIT else ""
    return f"D{sign}({format_bipartition(label.rep)})"


class SocleDecomposition(Frozen):
    """Socle of the restriction of ``source``, as a sorted duplicate-free sum."""

    __slots__ = ("source", "summands")

    def __init__(self, source: IrreducibleLabel, summands: tuple[IrreducibleLabel, ...]) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "summands", summands)


def involution(
    bp: Bipartition, params: CrystalParams, lattice: Lattice | None = None
) -> Bipartition:
    """The label involution ``h``.

    Regime A swaps the components.  In regime B, with a lattice, ``h`` is
    its table, built from its edges: ``h(c)`` is the child of ``h(p)`` along
    step ``(i + l) mod e`` for every edge ``(p, i, c)``.  Without one, the
    canonical peel of ``bp`` is replayed from the empty bipartition with
    every residue shifted by ``l``.  Either way this is the membership
    check: ``NotKleshchevError`` unless ``bp`` is Kleshchev, and with a
    lattice ``ValueError`` when ``bp`` lies above its top level.
    """
    if lattice is None:
        path = peel_path(bp, params)
        return hat(bp) if params.regime == REGIME_A else _shifted_replay(bp, path, params)[1]
    if params != lattice.params:
        raise ValueError("params do not match the lattice they came with")
    m = bipartition_size(bp)
    if m > lattice.n:
        raise ValueError(f"lattice only covers sizes up to {lattice.n}, got size {m}")
    # a vertex's level is its size, so membership is the whole check
    if bp not in lattice:
        raise _not_kleshchev(bp)
    if params.regime == REGIME_A:
        return hat(bp)
    return lattice.h[bp]


def equivalence_classes(
    level, params: CrystalParams, lattice: Lattice | None = None, image_of=None
) -> list[IrreducibleLabel]:
    """Labels of the simple modules indexed by a full lattice level.

    One unsplit label per two-element orbit, a ``+``/``-`` pair per fixed
    point.  The empty bipartition at level 0 gets a single degenerate
    unsplit label.  Output is sorted by representative.  Each vertex goes
    through ``involution``, its membership check, unless ``image_of`` gives
    ``h`` on the level.
    """
    labels = []
    for bp in sorted(level):
        partner = involution(bp, params, lattice) if image_of is None else image_of(bp)
        if bp < partner:
            labels.append(IrreducibleLabel(UNSPLIT, bp))
        elif bp == partner:
            if bipartition_size(bp) == 0:
                labels.append(IrreducibleLabel(UNSPLIT, bp))
            else:
                labels.append(IrreducibleLabel(SPLIT, bp, "+"))
                labels.append(IrreducibleLabel(SPLIT, bp, "-"))
    return labels


def _orbit_label(bp: Bipartition, partner: Bipartition) -> IrreducibleLabel:
    if partner == bp:
        raise FixedPointError(f"{format_bipartition(bp)} is a fixed point, not unsplit")
    return IrreducibleLabel(UNSPLIT, min(bp, partner))


def unsplit_class(
    bp: Bipartition, params: CrystalParams, lattice: Lattice | None = None
) -> IrreducibleLabel:
    """Unsplit label of the orbit of ``bp``, which must not be ``h``-fixed."""
    return _orbit_label(bp, involution(bp, params, lattice))


def _good_removals(bp: Bipartition, params: CrystalParams, image_of) -> list:
    """``(cell, removal, h of the removal)`` for every good removable cell.

    ``image_of`` gives ``h`` one level below ``bp``: the swap in regime A, a
    table on that level, or a peel of each removal for a lone label.
    """
    removals = []
    for node, _ in good_nodes(bp, params):
        child = remove_node(bp, node)
        removals.append((node, child, image_of(child)))
    return removals


def _shifted_replay(bp: Bipartition, path, params: CrystalParams):
    """``bp``'s canonical peel ``path`` replayed with every step shifted by ``l``.

    Returns the replay one step before its end and ``h(bp)``, its end.
    """
    path = shift_path(path, params)
    before = replay_path(path[:-1], params)
    image = before if not path or before is None else f_tilde(before, path[-1], params)
    if image is None:
        raise ShiftReplayError(f"the shifted canonical path of {format_bipartition(bp)} breaks")
    return before, image


def _lone_images(bp: Bipartition, params: CrystalParams):
    """``h(bp)`` and ``h`` one level below a lone ``bp``, from one peel, its membership check.

    In regime B the peel's first stage removes the good cell of ``bp``'s
    smallest step and the rest is that removal's peel, so the shifted replay
    passes the removal's ``h`` one step before ``h(bp)``; the two are each
    other's image.  Other removals are peeled.
    """
    path = peel_path(bp, params)
    if params.regime == REGIME_A:
        return hat(bp), hat
    before, image = _shifted_replay(bp, path, params)
    # the removal at the smallest good step; the empty bipartition has none
    first = remove_node(bp, good_nodes(bp, params)[0][0]) if path else image
    known = {first: before, before: first}
    return image, lambda mu: known[mu] if mu in known else involution(mu, params)


def _image_below(bp: Bipartition, params: CrystalParams, lattice: Lattice | None):
    """``h`` one level below a lone member ``bp``: the lattice's table or
    ``_lone_images``, after the membership check."""
    if lattice is None:
        return _lone_images(bp, params)[1]
    involution(bp, params, lattice)
    return hat if params.regime == REGIME_A else lattice.h.__getitem__


def _special_cell(bp: Bipartition, removals) -> Node | None:
    """The unique cell of ``removals`` whose removal from ``bp`` is ``h``-fixed."""
    special = [node for node, child, image in removals if child == image]
    if len(special) > 1:
        raise MultipleSpecialNodesError(
            f"{format_bipartition(bp)} has {len(special)} special nodes"
        )
    return special[0] if special else None


def almost_symmetric(
    bp: Bipartition, params: CrystalParams, lattice: Lattice | None = None
) -> Node | None:
    """The unique good cell whose removal is ``h``-fixed, if one exists."""
    return _special_cell(bp, _good_removals(bp, params, _image_below(bp, params, lattice)))


def _socle(label: IrreducibleLabel, removals) -> SocleDecomposition:
    """The socle of ``label`` from the good removals of its representative."""
    summands: list[IrreducibleLabel]
    if label.kind == SPLIT:
        # one unsplit label per orbit of good removals; identical for both signs
        classes = {_orbit_label(child, image) for _, child, image in removals}
        summands = sorted(classes, key=label_sort_key)
    else:
        special = _special_cell(label.rep, removals)
        summands = []
        for node, child, image in removals:
            if node == special:
                summands.append(IrreducibleLabel(SPLIT, child, "+"))
                summands.append(IrreducibleLabel(SPLIT, child, "-"))
            else:
                summands.append(_orbit_label(child, image))
        summands.sort(key=label_sort_key)
        if len(set(summands)) != len(summands):
            raise InvariantError(f"socle of {format_label(label)} is not multiplicity free")
    return SocleDecomposition(label, tuple(summands))


def socle_restriction(
    label: IrreducibleLabel, params: CrystalParams, lattice: Lattice | None = None
) -> SocleDecomposition:
    """Socle of the restriction of ``label`` one level down.

    The membership check of the label's representative is made here, with
    ``lattice`` when one is given.
    """
    if label.n < 2:
        raise ValueError("restriction decompositions need level n >= 2")
    lam = label.rep
    return _socle(label, _good_removals(lam, params, _image_below(lam, params, lattice)))


def residue_counts(bp: Bipartition, params: CrystalParams) -> dict[int, int]:
    """Number of cells per residue; finite alphabets include explicit zeros.

    Raises ``ResourceLimitError`` when a finite alphabet has more than
    ``MAX_RESIDUE_ALPHABET`` residues, before listing any of them.
    """
    counts = Counter(residue(node, params) for node in nodes_of(bp))
    modulus = params.e if params.regime == REGIME_B else params.l
    if modulus != INF:
        if modulus > MAX_RESIDUE_ALPHABET:
            raise ResourceLimitError(
                f"the residue alphabet of {modulus} letters exceeds the limit "
                f"of {MAX_RESIDUE_ALPHABET}"
            )
        for k in range(int(modulus)):
            counts.setdefault(k, 0)
    return dict(sorted(counts.items()))


def level_socles(
    level, params: CrystalParams, image_of, image_below
) -> Iterator[SocleDecomposition]:
    """Socle decompositions of every label of a full level, in label order.

    Each is made when it is asked for, so a writer need hold only one.
    ``image_of`` gives ``h`` on the level and ``image_below`` on the level
    below, where the good removals lie; no membership check is made.
    """
    for label in equivalence_classes(level, params, image_of=image_of):
        yield _socle(label, _good_removals(label.rep, params, image_below))


def branching_graph(
    n: int, params: CrystalParams, lattice: Lattice
) -> list[SocleDecomposition]:
    """Socle decompositions of every label at level ``n``, in label order."""
    if n < 2:
        raise ValueError("branching needs level n >= 2")
    if n > lattice.n:
        raise ValueError(f"lattice only covers sizes up to {lattice.n}")
    if params != lattice.params:
        raise ValueError("params do not match the lattice they came with")
    image_of = hat if lattice.h is None else lattice.h.__getitem__
    return list(level_socles(lattice.levels[n], params, image_of, image_of))
