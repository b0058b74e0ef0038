"""Label involution, irreducible-module labels and socle branching.

Simple modules of the rank-``n`` type-D algebra are labeled either by the
two-element orbit of a Kleshchev bipartition under the involution ``h``
(kind ``unsplit``), or by a fixed point of ``h`` together with a sign
(kind ``split``).  ``h`` is the component swap in regime A.  In regime B it
maps the endpoint of any residue path to the endpoint of the same path
shifted by ``l``; the lattice reads it off its edges once (``h(c)`` is the
child of ``h(p)`` along the shifted step of each edge ``(p, i, c)``), and
a single label without a lattice from one memoised peel (``member_images``).
A single combinatorial ``h`` serves every base field of characteristic != 2.

The socle engine reads each label's good removals ``mu = lambda - A`` and
``h`` of each, one level down.  A full level takes the removals off its
edges: ``lambda = f_i mu`` exactly when ``mu = e_i lambda``, so the good
removals of a vertex are its parents, which ``parents_index`` reads off the
level's children index.  ``h`` of a removal is then a lookup in the table
of level ``n - 1`` (the lattice's, or the one the level stream has just
built) or the swap in regime A.  A single label without a lattice finds its
good cells through ``good_nodes`` and reads ``h`` of each from the peel
that gave the label's own (``lone_socle``).  Both feed ``_socle`` the same
``(mu, h(mu))`` pairs; a removal is special when ``mu = h(mu)``.  The level
producer ``top_level`` and ``lone_socle`` serve ``cli`` and ``io`` alike.

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
from functools import partial

from .core import (
    Bipartition,
    CrystalParams,
    EMPTY_BIPARTITION,
    Frozen,
    INF,
    Node,
    REGIME_A,
    REGIME_B,
    _Memo,
    bipartition_size,
    format_bipartition,
    hat,
    nodes_of,
    remove_node,
    residue,
)
from .crystal import (
    DEFAULT_VERTEX_BUDGET,
    Lattice,
    _not_kleshchev,
    check_alphabet,
    good_child,
    good_nodes,
    iter_levels,
    peel,
)
from .errors import (
    FixedPointError,
    InvariantError,
    MultipleSpecialNodesError,
    ShiftReplayError,
    SignError,
)

UNSPLIT = "unsplit"
SPLIT = "split"


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


def format_label(label: IrreducibleLabel) -> str:
    sign = label.sign if label.kind == SPLIT else ""
    return f"D{sign}({format_bipartition(label.rep)})"


class SocleDecomposition(Frozen):
    """Socle of the restriction of ``source``, as a sorted duplicate-free sum."""

    __slots__ = ("source", "summands")

    def __init__(self, source: IrreducibleLabel, summands: tuple[IrreducibleLabel, ...]) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "summands", summands)


def image_function(table):
    """``h`` on a level: the swap for no ``table`` (regime A), else a lookup in it."""
    return hat if table is None else table.__getitem__


def involution(
    bp: Bipartition, params: CrystalParams, lattice: Lattice | None = None
) -> Bipartition:
    """The label involution ``h``: the swap in regime A; in regime B the
    lattice's table, built from its edges (``h(c)`` is the child of ``h(p)``
    along step ``(i + l) mod e`` for every edge ``(p, i, c)``), or without
    one the canonical peel of ``bp`` replayed with every residue shifted by
    ``l`` (by ``good_child``, not ``reference``).  ``member_images`` makes
    the membership check and raises as it does.
    """
    return member_images(bp, params, lattice)(bp)


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
    if image_of is None:
        image_of = lambda bp: involution(bp, params, lattice)
    return list(_labels(sorted(level), image_of))


def _labels(level, image_of) -> Iterator[IrreducibleLabel]:
    """The labels of a sorted ``level``, in order, one at a time; ``image_of`` gives ``h``."""
    for bp in level:
        partner = image_of(bp)
        if bp < partner:
            yield IrreducibleLabel(UNSPLIT, bp)
        elif bp == partner:
            if bipartition_size(bp) == 0:
                yield IrreducibleLabel(UNSPLIT, bp)
            else:
                yield IrreducibleLabel(SPLIT, bp, "+")
                yield IrreducibleLabel(SPLIT, bp, "-")


def _orbit_rep(bp: Bipartition, partner: Bipartition) -> Bipartition:
    """The representative of the two-element orbit ``{bp, partner}``."""
    if partner == bp:
        raise FixedPointError(f"{format_bipartition(bp)} is a fixed point, not unsplit")
    return min(bp, partner)


def unsplit_class(
    bp: Bipartition, params: CrystalParams, lattice: Lattice | None = None
) -> IrreducibleLabel:
    """Unsplit label of the orbit of ``bp``, which must not be ``h``-fixed."""
    return IrreducibleLabel(UNSPLIT, _orbit_rep(bp, involution(bp, params, lattice)))


def _good_removals(bp: Bipartition, params: CrystalParams, image_of) -> list:
    """``(removal, h of the removal)`` for every good removable cell of
    ``bp``, found through its component words (``good_nodes``).

    ``image_of`` gives ``h`` one level below ``bp``: the swap in regime A, a
    table on that level, or the memoised peel of a lone label.
    """
    removals = []
    for node, _ in good_nodes(bp, params):
        child = remove_node(bp, node)
        removals.append((child, image_of(child)))
    return removals


def member_images(bp: Bipartition, params: CrystalParams, lattice: Lattice | None = None):
    """``h`` on the level of ``bp`` and on every level below, after the
    check that ``bp`` is a member: ``NotKleshchevError`` unless it is
    Kleshchev.

    With a lattice, ``h`` is its table, and a ``bp`` above its top level, or
    other params, is a ``ValueError``.  Without one, regime A swaps the
    components, and ``bp`` is a member exactly when both are ``l``-restricted:
    every difference of consecutive parts, and the last part, is below ``l``.
    In regime B ``h`` comes from one memoised peel, and the peel of ``bp``
    (``crystal.peel``) is its membership check.  A bipartition's canonical
    peel stops at its first stage whose image is known, from ``{∅: ∅}``, and
    its stages are replayed from that image by ``good_child``, with every
    step shifted by ``l``.  Each stage records its image and, ``h`` being
    an involution, the image's image, so a removal on a peel already made,
    or the image of one, is a lookup.  The alphabet is checked first
    (``check_alphabet``), as every regime-B command checks it.  The regime-A
    check costs time linear in the rows of ``bp``; the regime-B peel and
    replay read every row at each stage (``good_nodes``, ``good_child``),
    so they cost time quadratic in them.
    """
    if lattice is not None:
        if params != lattice.params:
            raise ValueError("params do not match the lattice they came with")
        m = bipartition_size(bp)
        if m > lattice.n:
            raise ValueError(f"lattice only covers sizes up to {lattice.n}, got size {m}")
        # a vertex's level is its size, so membership is the whole check
        if bp not in lattice:
            raise _not_kleshchev(bp)
        return image_function(lattice.h)
    if params.regime == REGIME_A:
        l = params.l
        if l != INF and any(a - b >= l for parts in bp for a, b in zip(parts, parts[1:] + (0,))):
            raise _not_kleshchev(bp)
        return hat
    e, l = params.e, params.l
    check_alphabet(e)
    known = {EMPTY_BIPARTITION: EMPTY_BIPARTITION}

    def image_of(mu: Bipartition) -> Bipartition:
        if mu in known:
            return known[mu]
        base, stages = peel(mu, params, known)
        image = known[base]
        for stage, step in reversed(stages):
            image = good_child(image, (step + l) % e, params)
            if image is None:
                raise ShiftReplayError(
                    f"the shifted canonical path of {format_bipartition(mu)} breaks"
                )
            known[stage] = image
            known[image] = stage
        return image

    image_of(bp)  # the peel of bp is its membership check
    return image_of


def special_cell(bp: Bipartition, params: CrystalParams, image_of) -> Node | None:
    """The unique good cell whose removal from ``bp`` is ``h``-fixed, if one
    exists; ``image_of`` gives ``h`` one level below ``bp``."""
    special = [
        node for node, _ in good_nodes(bp, params)
        if (child := remove_node(bp, node)) == image_of(child)
    ]
    if len(special) > 1:
        raise MultipleSpecialNodesError(
            f"{format_bipartition(bp)} has {len(special)} special nodes"
        )
    return special[0] if special else None


def almost_symmetric(
    bp: Bipartition, params: CrystalParams, lattice: Lattice | None = None
) -> Node | None:
    """The unique good cell whose removal is ``h``-fixed, if one exists."""
    return special_cell(bp, params, member_images(bp, params, lattice))


def _socle(label: IrreducibleLabel, removals, unsplit=None) -> SocleDecomposition:
    """The socle of ``label`` from the ``(mu, h(mu))`` pairs of the good
    removals ``mu`` of its representative.

    ``unsplit``, a ``_Memo`` of unsplit labels by representative, lends
    the unsplit summands, so a caller that makes many socles makes each
    summand label once.  The summands are sorted by representative, a split
    pair ``+`` first.  Raises ``FixedPointError`` at the first ``h``-fixed
    removal of a split label, naming it, and for an unsplit label
    ``MultipleSpecialNodesError`` when two removals are ``h``-fixed, then
    ``InvariantError`` when the socle is not multiplicity free, each naming
    the label.
    """
    if unsplit is None:
        unsplit = _Memo(partial(IrreducibleLabel, UNSPLIT))
    split = label.kind == SPLIT
    reps, special = [], []
    for mu, image in removals:
        if mu == image:
            if split:
                raise FixedPointError(f"{format_bipartition(mu)} is a fixed point, not unsplit")
            special.append(mu)
        reps.append(min(mu, image))
    if len(special) > 1:
        raise MultipleSpecialNodesError(f"{format_label(label)} has {len(special)} special nodes")
    distinct = set(reps)
    # a split label has one summand per orbit of good removals, the same for both signs
    if not split and len(distinct) != len(reps):
        raise InvariantError(f"socle of {format_label(label)} is not multiplicity free")
    # no unsplit rep is fixed, so sorting by rep puts a special removal's pair in its place
    summands = []
    for rep in sorted(distinct):
        if rep in special:
            summands += (IrreducibleLabel(SPLIT, rep, "+"), IrreducibleLabel(SPLIT, rep, "-"))
        else:
            summands.append(unsplit[rep])
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
    return _socle(label, _good_removals(lam, params, member_images(lam, params, lattice)))


def lone_socle(bp: Bipartition, params: CrystalParams, sign: str | None = None) -> SocleDecomposition:
    """The socle of the label of a lone ``bp``, from ``member_images``: split
    with ``sign`` (``+`` by default) at a fixed point of ``h``, else unsplit
    on ``min(bp, h(bp))``, where a ``sign`` raises ``SignError`` first."""
    if sign not in (None, "+", "-"):
        raise ValueError(f"sign {sign!r} is neither '+' nor '-'")
    image_of = member_images(bp, params)
    image = image_of(bp)
    if image == bp:
        label = IrreducibleLabel(SPLIT, bp, "+" if sign is None else sign)
    elif sign is not None:
        raise SignError(f"{format_bipartition(bp)} is not an involution fixed point")
    else:
        label = IrreducibleLabel(UNSPLIT, min(bp, image))
    return _socle(label, _good_removals(label.rep, params, image_of))


def residue_counts(bp: Bipartition, params: CrystalParams) -> dict[int, int]:
    """Number of cells per residue; finite alphabets include explicit zeros.

    Raises ``ResourceLimitError`` when a finite alphabet has more than
    ``MAX_RESIDUE_ALPHABET`` residues, before listing any of them.
    """
    counts = Counter(residue(node, params) for node in nodes_of(bp))
    modulus = params.e if params.regime == REGIME_B else params.l
    check_alphabet(modulus)
    if modulus != INF:
        for k in range(int(modulus)):
            counts.setdefault(k, 0)
    return dict(sorted(counts.items()))


def parents_index(children: dict) -> dict:
    """``{child: (parent, ...)}`` of a children index ``{parent: {step: child}}``.

    A child's parents are its good removals: ``c = f_i p`` exactly when
    ``p = e_i c``.  ``children`` is emptied as it is read, last parent
    first, so the index and its inverse are never both whole.
    """
    parents: dict = {}
    known = parents.get
    while children:
        parent, steps = children.popitem()
        for child in steps.values():
            parents[child] = known(child, ()) + (parent,)  # a tuple holds no spare room
    return parents


def top_level(n: int, params: CrystalParams, parents: bool = False, max_vertices=DEFAULT_VERTEX_BUDGET):
    """Level ``n``, ``h`` on it and on level ``n - 1``, each as a function,
    and, if ``parents``, the parents of each vertex of level ``n``, else ``None``.

    Streamed under ``max_vertices``, holding no edges below level ``n``;
    level ``n``'s checked children index is kept only for ``parents``.
    """
    below = top = None
    for level, children, h in iter_levels(n, params, max_vertices):
        if bipartition_size(level[0]) < n:
            below = h
        elif parents:
            top = children
        del children  # hold no edges below level n while the next level grows
    return level, image_function(h), image_function(below), parents_index(top) if parents else None


def level_socles(level, image_of, image_below, parents) -> Iterator[SocleDecomposition]:
    """Socle decompositions of every label of a full level, in label order.

    ``level`` is in canonical order, as the stream and ``Lattice`` hold it.
    Each socle is made when it is asked for, so a writer need hold only one.
    ``image_of`` gives ``h`` on the level and ``image_below`` on the level
    below; ``parents``, as ``parents_index`` makes it from the edges into
    the level, gives each vertex's good removals.  Each unsplit summand
    label is made once for the level.  No membership check is made.
    """
    unsplit = _Memo(partial(IrreducibleLabel, UNSPLIT))
    for label in _labels(level, image_of):
        yield _socle(label, [(mu, image_below(mu)) for mu in parents[label.rep]], unsplit)


def branching_graph(
    n: int, params: CrystalParams, lattice: Lattice
) -> list[SocleDecomposition]:
    """Socle decompositions of every label at level ``n``, in label order,
    with the good removals read off the lattice's edges into level ``n``."""
    if n < 2:
        raise ValueError("branching needs level n >= 2")
    if n > lattice.n:
        raise ValueError(f"lattice only covers sizes up to {lattice.n}")
    if params != lattice.params:
        raise ValueError("params do not match the lattice they came with")
    image_of = image_function(lattice.h)
    parents = parents_index(dict(lattice.index[n]))  # a copy: the lattice keeps its index
    return list(level_socles(lattice.levels[n], image_of, image_of, parents))
