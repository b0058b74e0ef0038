"""Component words, lattice generation and the peel: the engine's crystal.

The signature rule is spelled out in ``reference``, whose per-step scan
applies it literally; no engine module calls that scan, and this module
only re-exports its names.  In regime B the whole bipartition carries one
signature per residue in ``Z/eZ``.  In regime A the rule is applied to each
component separately, so crystal operators are indexed by a *step*
``(component, residue)`` instead of a bare residue.  Lattice edge labels and
path entries use the same step encoding.

The engine reads the rule through component words.  A component's marked
cells of one residue depend only on its partition, its residue offset (``0``
for component 1; ``l`` for component 2 in regime B, ``0`` in regime A) and
the modulus.  ``component_word`` reduces them to a summary per residue: the
reduced word ``A^a R^r``, its last ``A`` and first ``R`` cells, and the
partition with that last ``A`` added.  ``_word_side``, the one memo, lays
the summaries out for growth once per distinct partition (and offset, in
regime B).  The regime decides only how the two component words of a
bipartition combine:

* regime A: the steps are the union of the two components' steps ``(c, i)``;
* regime B: residue ``i`` reads ``A^a1 R^r1 A^a2 R^r2``, component 1 first,
  and ``R^r1 A^a2`` cancels in ``min(r1, a2)`` pairs (Kashiwara's
  tensor-product rule).  The good addable cell is component 2's last ``A``
  if ``a2 > r1``, else component 1's last ``A`` if ``a1 > 0``; the good
  removable cell is component 1's first ``R`` if ``r1 > a2``, else
  component 2's first ``R`` if ``r2 > 0``.

``good_nodes`` (the peel and a lone label's socle) reads good removable cells
off the memoised words in regime A and off the sparse words in regime B, so a
lone label's work does not grow with ``e``.  Growth applies the rule for good
addable cells inline, and ``good_child`` for a lone label's shifted replay.

``iter_levels`` is the engine's one level generator: each level with its
edges and, in regime B, ``h`` on it, holding only the level below, so a
consumer that keeps no level holds at most two.  Each vertex is one tuple:
``_grow`` dedupes a level's children through one dict, so the children
index, the level and ``h`` hold the same objects.  The stream releases what
it has passed: ``_grow`` drops that dict once a level is sorted, and
``iter_levels`` drops a level's vertices and index once they are yielded,
before the next level grows.  A consumer keeps that bound only if it does
the same, so each one (``dmod.top_level``, the lattice writers of ``io``
and the streamed suites' driver) deletes what it passed:
a generator expression keeps its loop variable, and ``enumerate`` or
``zip`` its last item, while the next level grows.  A level's only edge
structure, there and in ``Lattice``, is its children index.
``_next_images`` is the one per-level check of the engine's output.  A
``Lattice`` is the stream collected (``build_lattice``), so every lattice,
streamed or built, is grown and checked on one path.

``peel`` peels a single bipartition by its smallest good step down to
the first stage a caller knows (the empty one at the latest), so its
membership and, in ``dmod``, ``h`` of a lone label need no lattice.
"""

from __future__ import annotations

from functools import cache

from . import reference
from .core import (
    ADDABLE,
    Bipartition,
    CrystalParams,
    EMPTY_BIPARTITION,
    INF,
    Node,
    Partition,
    REGIME_A,
    REGIME_B,
    REMOVABLE,
    format_bipartition,
    hat,
    regime_a_params,
    remove_node,
)
from .errors import NotKleshchevError, ResourceLimitError, ShiftReplayError

# the definitional crystal, importable from here too; nothing here calls it
Signature = reference.Signature
i_signature = reference.i_signature
good_removable = reference.good_removable
good_addable = reference.good_addable
e_tilde = reference.e_tilde
f_tilde = reference.f_tilde

# residue (regime B) or (component, residue) (regime A)
Step = int | tuple[int, int]

DEFAULT_VERTEX_BUDGET = 5_000_000
# most residues a finite alphabet may have where every residue is listed
MAX_RESIDUE_ALPHABET = 10_000


def check_alphabet(modulus: int | float) -> None:
    """Raise ``ResourceLimitError`` before a finite alphabet of over
    ``MAX_RESIDUE_ALPHABET`` residues is listed."""
    if modulus != INF and modulus > MAX_RESIDUE_ALPHABET:
        raise ResourceLimitError(
            f"the residue alphabet of {modulus} letters exceeds the limit of {MAX_RESIDUE_ALPHABET}"
        )


# the summary of a residue with no marked cell
_NO_WORD = (0, 0, None, None, None)


# The tensor-product rule.  A step's word is ``A^a1 R^r1 A^a2 R^r2``, component
# 1 read first; its ``R^r1 A^a2`` cancels in ``min(r1, a2)`` pairs, the last
# ``R``s of component 1 against the first ``A``s of component 2.


def _good_removable_side(r1: int, a2: int, r2: int) -> int:
    """Component of the good removable cell (the first surviving ``R``), or 0."""
    return 1 if r1 > a2 else 2 if r2 else 0


def component_word(parts: Partition, offset: int, modulus: int | float) -> dict[int, tuple]:
    """Reduced signature word of one component, per residue.

    Each row contributes its removable cell, then its addable cell, so the
    marked cells come out in reading order without sorting; the cell in
    row ``r``, column ``c`` has residue ``c - r + offset``, reduced mod
    ``modulus`` when it is finite.  Every residue with a marked cell maps to
    ``(a, r, last_a, first_r, child)``: the reduced word is ``A^a R^r``,
    ``last_a`` and ``first_r`` are the ``(row, col)`` of its last ``A`` and
    first ``R`` (``None`` when absent), and ``child`` is ``parts`` with
    ``last_a`` added.  Residues come in ascending order.
    """
    finite = modulus != INF
    rows = len(parts)
    buckets: dict = {}
    marked = []
    above = 0
    for row, length in enumerate(parts, start=1):
        if row == rows or parts[row] < length:
            marked.append((row, length, REMOVABLE))
        if row == 1 or above > length:
            marked.append((row, length + 1, ADDABLE))
        above = length
    marked.append((rows + 1, 1, ADDABLE))
    for row, col, kind in marked:
        res = col - row + offset
        if finite:
            res %= modulus
        buckets.setdefault(res, []).append(((row, col), kind))

    word = {}
    for res in sorted(buckets):
        # reduce as the cells come: an A cancels the last surviving R, else survives
        a, last_a, removable = 0, None, []
        for cell, kind in buckets[res]:
            if kind is REMOVABLE:
                removable.append(cell)
            elif removable:
                removable.pop()
            else:
                a, last_a = a + 1, cell
        child = None
        if a:
            row, col = last_a
            child = parts[: row - 1] + (col,) + parts[row:]
        word[res] = (a, len(removable), last_a, removable[0] if removable else None, child)
    return word


@cache
def _word_side(parts: Partition, offset: int, modulus: int | float, regime: str) -> tuple:
    """``component_word`` laid out for one regime: the engine's one word memo.

    Regime B, for ``_grow`` only: one summary per residue of ``Z/eZ``, the
    empty word where no cell is marked.  Regime A: a ``(step 1, step 2,
    summary)`` triple per marked residue ``i``, with the steps ``(1, i)`` and
    ``(2, i)``, so both components share one entry per partition.
    """
    word = component_word(parts, offset, modulus)
    if regime == REGIME_B:
        return tuple(word.get(i, _NO_WORD) for i in range(modulus))
    return tuple(((1, i), (2, i), summary) for i, summary in word.items())


def good_nodes(bp: Bipartition, params: CrystalParams) -> list[tuple[Node, Step]]:
    """All good removable cells with their steps, in ascending step order.

    At most one cell per residue class (regime B) or per
    (component, residue) pair (regime A); no good addable cell is built.
    Regime B reads only the marked residues of unmemoised component words.
    """
    nodes = []
    if params.regime == REGIME_B:
        words1 = component_word(bp[0], 0, params.e)
        words2 = component_word(bp[1], params.multicharge[1], params.e)
        for step in sorted(words1.keys() | words2.keys()):
            word1, word2 = words1.get(step, _NO_WORD), words2.get(step, _NO_WORD)
            side = _good_removable_side(word1[1], word2[0], word2[1])
            if side:
                nodes.append((Node(side, *(word1 if side == 1 else word2)[3]), step))
        return nodes
    for step, _, word in _word_side(bp[0], 0, params.l, REGIME_A):
        if word[1]:
            nodes.append((Node(1, *word[3]), step))
    for _, step, word in _word_side(bp[1], 0, params.l, REGIME_A):
        if word[1]:
            nodes.append((Node(2, *word[3]), step))
    return nodes


def good_child(bp: Bipartition, i: int, params: CrystalParams) -> Bipartition | None:
    """``bp`` with the good addable cell of residue ``i`` added, ``None``
    when there is none, in regime B: the rule ``_grow`` applies inline, on
    sparse component words, unmemoised as in ``good_nodes``: a lone replay
    meets each image once."""
    left, right = bp
    word1 = component_word(left, 0, params.e).get(i, _NO_WORD)
    word2 = component_word(right, params.multicharge[1], params.e).get(i, _NO_WORD)
    if word2[0] > word1[1]:
        return left, word2[4]
    return (word1[4], right) if word1[0] else None


# ---------------------------------------------------------------------------
# lattice


def _next_images(params: CrystalParams, children: dict, images: dict | None) -> dict | None:
    """Check one level's edges against ``h`` and return ``h`` on that level.

    ``children`` indexes the edges into the level by parent, then step, and
    ``images`` is ``h`` on the level below.  Regime B builds the level's
    table by the edge recurrence; regime A, where ``h`` is the component
    swap, checks each edge's swap mirror and returns ``None``.  A regime-A
    parent whose edges all have mirrors, and whose mirror has as many edges,
    closes its mirror, which is then skipped.  Raises ``ShiftReplayError``,
    naming the first edge in index order that fails.
    """
    no_children = {}
    if params.regime == REGIME_A:
        closed = set()
        for parent, steps in children.items():
            if parent in closed:
                continue
            mirror = hat(parent)
            mirror_steps = children.get(mirror, no_children)
            for (component, i), child in steps.items():
                if mirror_steps.get((3 - component, i)) != (child[1], child[0]):
                    raise ShiftReplayError(
                        f"edge {format_bipartition(parent)} --{component}:{i}--> "
                        f"{format_bipartition(child)} has no component-swap mirror"
                    )
            if len(mirror_steps) == len(steps):
                # the step map (c, i) -> (3 - c, i) is injective, so the
                # mirror's edges are exactly the mirrors of these
                closed.add(mirror)
        return None
    e = params.e
    shifted = [(i + params.l) % e for i in range(e)]
    level_images = {}
    for parent, steps in children.items():
        image_parent = images.get(parent)
        if image_parent is None:
            raise ShiftReplayError(f"{format_bipartition(parent)} has no h image")
        image_steps = children.get(image_parent, no_children)
        for step, child in steps.items():
            target = shifted[step]
            image = image_steps.get(target)
            if image is None:
                raise ShiftReplayError(
                    f"{format_bipartition(image_parent)} has no step {target}, "
                    f"the shift of edge {format_bipartition(parent)} --{step}--> "
                    f"{format_bipartition(child)}"
                )
            if level_images.setdefault(child, image) != image:
                raise ShiftReplayError(
                    f"edges into {format_bipartition(child)} give two h images"
                )
    return level_images


class Lattice:
    """Levels 0..n of the good lattice with labeled covering edges: the
    level stream, collected.

    Construction takes each level's ``(vertices, children, h)`` as
    ``iter_levels`` yields it, checked there, and checks nothing itself
    (``build_lattice``).  ``levels[m]`` is the tuple of reachable
    bipartitions of ``m`` in the canonical total order.
    ``index[m]``, the only edge structure, is the children index ``{parent:
    {step: child}}`` of the edges from level ``m - 1`` to level ``m``, so the
    edges leaving ``bp`` are ``index[|bp| + 1].get(bp, {})``, and
    ``dmod.parents_index`` inverts a copy of it.
    Two builds at equal parameters compare equal.

    In regime B, ``h`` maps every vertex to its image under the label
    involution, the per-level tables of the stream merged.  In regime A,
    where the involution is the component swap, ``h`` is ``None``.
    """

    def __init__(self, params: CrystalParams, levels):
        self.params = params
        self.levels, self.index, tables = zip(*levels)
        self.h = None
        if params.regime == REGIME_B:
            self.h = {}
            for table in tables:
                self.h.update(table)
        self._vertices = dict.fromkeys(bp for level in self.levels for bp in level)

    @property
    def n(self) -> int:
        return len(self.levels) - 1

    def __contains__(self, bp: Bipartition) -> bool:
        return bp in self._vertices

    def vertex_count(self) -> int:
        return len(self._vertices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.params == other.params
            and self.levels == other.levels
            and self.index == other.index
        )

    def __repr__(self) -> str:
        return (
            f"Lattice(e={self.params.e}, regime={self.params.regime}, "
            f"n={self.n}, vertices={self.vertex_count()})"
        )


def _grow(n: int, params: CrystalParams, max_vertices: int):
    """Yield ``(vertices, children)`` for levels 0..n, unchecked.

    Breadth-first good additions from the empty bipartition: each child is
    the memoised child of the component word that the tensor-product rule
    picks (component 2's last ``A`` unless ``R^r1`` cancels it), beside the
    other component, and is the level's own vertex object, whichever edge
    reaches it first.  ``children``, the level's only edge structure, indexes
    its edges from the level below by parent, then step: parents go in
    canonical order and each parent's steps ascend.  In regime B both
    component words are indexed by residue, and the left one is looked up
    once per run of parents with the same left component, which the sorted
    level makes adjacent.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    regime_b, e, l, shift = params.regime == REGIME_B, params.e, params.l, params.multicharge[1]
    if regime_b:
        check_alphabet(e)  # every residue of Z/eZ is listed per parent
    level = (EMPTY_BIPARTITION,)
    yield level, {}
    total = 1
    residues = range(e) if regime_b else None
    for _ in range(n):
        children = {}
        seen = {}
        vertex = seen.setdefault
        last_left = None
        for parent in level:
            steps = children[parent] = {}
            left, right = parent
            if regime_b:
                if left != last_left:  # the level is sorted: parents sharing a left are adjacent
                    last_left, words1 = left, _word_side(left, 0, e, REGIME_B)
                words2 = _word_side(right, shift, e, REGIME_B)
                for i in residues:
                    word1, word2 = words1[i], words2[i]
                    if word2[0] > word1[1]:
                        child = left, word2[4]
                        steps[i] = vertex(child, child)
                    elif word1[0]:
                        child = word1[4], right
                        steps[i] = vertex(child, child)
            else:
                for step, _, word in _word_side(left, 0, l, REGIME_A):
                    if word[0]:
                        child = word[4], right
                        steps[step] = vertex(child, child)
                for _, step, word in _word_side(right, 0, l, REGIME_A):
                    if word[0]:
                        child = left, word[4]
                        steps[step] = vertex(child, child)
        level = tuple(sorted(seen))
        del seen, vertex  # the sorted level holds the vertices: free the dict before the yield
        total += len(level)
        if total > max_vertices:
            raise _over_budget(max_vertices)
        yield level, children


def _over_budget(max_vertices: int) -> ResourceLimitError:
    return ResourceLimitError(f"lattice exceeds the vertex budget of {max_vertices}")


def iter_levels(n: int, params: CrystalParams, max_vertices: int = DEFAULT_VERTEX_BUDGET):
    """Yield ``(vertices, children, h)`` for levels 0..n of the good lattice.

    Vertices come in canonical order; ``children`` indexes the edges from
    the level below as ``_grow`` builds it.  ``h`` is the involution on the
    level, a table in regime B and ``None`` in regime A.  Each level passes
    ``_next_images``.  Raises ``ResourceLimitError`` once the levels hold
    over ``max_vertices``, and in regime B before level 0 when ``e`` is
    over ``MAX_RESIDUE_ALPHABET``.
    """
    levels = _grow(n, params, max_vertices)
    # h on level 0, as _next_images gives it: the empty bipartition is fixed
    images = {EMPTY_BIPARTITION: EMPTY_BIPARTITION} if params.regime == REGIME_B else None
    yield *next(levels), images
    for vertices, children in levels:
        images = _next_images(params, children, images)
        yield vertices, children, images
        # the consumer has passed this level: hold none of it while the next grows
        del vertices, children


def build_lattice(
    n: int, params: CrystalParams, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> Lattice:
    """The ``Lattice`` of the levels ``iter_levels`` yields."""
    return Lattice(params, iter_levels(n, params, max_vertices))


def _not_kleshchev(bp: Bipartition) -> NotKleshchevError:
    return NotKleshchevError(
        f"{format_bipartition(bp)} is not a Kleshchev bipartition at these parameters"
    )


def peel(bp: Bipartition, params: CrystalParams, known) -> tuple[Bipartition, list]:
    """The canonical peel of ``bp`` down to its first stage in ``known``.

    Peels by the smallest step with a good removable cell at every stage.
    Returns the stage it stops at and the ``(stage, step)`` pairs above it,
    ``bp`` first, where ``step`` removes a good cell of ``stage``.  ``known``
    must hold the empty bipartition.  In regime B this is also the
    membership test, with no lattice: the empty bipartition is the only
    highest-weight vertex of the crystal the lattice spans, and ``e_tilde``
    undoes ``f_tilde``, so the peel reaches it exactly from lattice vertices.
    Raises ``NotKleshchevError``, with the message of ``dmod.involution``'s
    lattice check, when the peel strands above it.  Each stage reads the
    words of every row of both components (``good_nodes``), so in regime B a
    peel costs time quadratic in the rows of ``bp``.
    """
    stages = []
    current = bp
    while current not in known:
        good = good_nodes(current, params)
        if not good:
            raise _not_kleshchev(bp)
        node, step = good[0]
        stages.append((current, step))
        current = remove_node(current, node)
    return current, stages


# ---------------------------------------------------------------------------
# single-partition mode (calibration)


def partition_crystal_levels(n: int, l: int | float) -> list[tuple[Partition, ...]]:
    """Levels of the single-partition crystal generated by good additions, in the vertex budget."""
    modulus = regime_a_params(l).l
    levels: list[tuple[Partition, ...]] = [((),)]
    for _ in range(n):
        seen = set()
        for parts in levels[-1]:
            for a, _, _, _, child in component_word(parts, 0, modulus).values():
                if a:
                    seen.add(child)
        levels.append(tuple(sorted(seen)))
        if sum(map(len, levels)) > DEFAULT_VERTEX_BUDGET:
            raise _over_budget(DEFAULT_VERTEX_BUDGET)
    return levels
