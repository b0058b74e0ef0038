"""The definitional crystal, which the engine never calls.

The signature rule, applied here literally to the marked cells of one step:

* list the addable and removable cells of a fixed residue in reading order,
  component 1 before component 2, rows top to bottom;
* repeatedly delete a removable entry immediately followed by an addable
  one; the survivors always look like ``A...A R...R``;
* the good removable cell is the leftmost surviving ``R``, the good addable
  cell the rightmost surviving ``A``.

This module imports only ``core`` and ``errors``, and no engine module
(``crystal``, ``dmod``, ``io``, ``cli``) calls it, so a suite or test that
compares the engine with it compares the engine with the definitions.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import (
    ADDABLE,
    Bipartition,
    CrystalParams,
    EMPTY_BIPARTITION,
    Frozen,
    INF,
    Node,
    Partition,
    REGIME_A,
    REGIME_B,
    REMOVABLE,
    add_node,
    addable_nodes,
    format_bipartition,
    hat,
    remove_node,
    removable_nodes,
    residue,
)
from .errors import InvariantError, NotKleshchevError, ShiftReplayError


class Signature(Frozen):
    """Residue word of marked cells, before and after cancellation.

    ``reduced`` never has a removable entry directly before an addable one;
    ``eps`` counts surviving removable cells, ``phi`` surviving addable ones.
    """

    __slots__ = ("residue", "entries", "reduced", "eps", "phi")

    def __init__(
        self,
        residue: int,
        entries: tuple[tuple[Node, str], ...],
        reduced: tuple[tuple[Node, str], ...],
        eps: int,
        phi: int,
    ) -> None:
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "phi", phi)


def _reduce(entries: Iterable[tuple[Node, str]]) -> tuple[tuple[Node, str], ...]:
    stack: list[tuple[Node, str]] = []
    for entry in entries:
        if entry[1] == ADDABLE and stack and stack[-1][1] == REMOVABLE:
            stack.pop()
        else:
            stack.append(entry)
    for k in range(len(stack) - 1):
        if stack[k][1] == REMOVABLE and stack[k + 1][1] == ADDABLE:
            raise InvariantError("reduced signature is not of the shape A...A R...R")
    return tuple(stack)


def i_signature(
    bp: Bipartition, i: int, params: CrystalParams, component: int | None = None
) -> Signature:
    """Signature of residue ``i``.

    Regime B reads the whole bipartition; regime A requires ``component``
    because the rule there never mixes the two components.
    """
    if params.regime == REGIME_A:
        if component not in (1, 2):
            raise ValueError("regime A signatures are computed per component")
        components = (component,)
    else:
        components = (1, 2) if component is None else (component,)
    marked = [(node, REMOVABLE) for node in removable_nodes(bp)] + [
        (node, ADDABLE) for node in addable_nodes(bp)
    ]
    entries = tuple(
        sorted(
            (
                (node, mark)
                for node, mark in marked
                if node.component in components and residue(node, params) == i
            ),
            key=lambda entry: (entry[0].component, entry[0].row, entry[0].col),
        )
    )
    reduced = _reduce(entries)
    eps = sum(1 for _, mark in reduced if mark == REMOVABLE)
    return Signature(i, entries, reduced, eps=eps, phi=len(reduced) - eps)


def _signature_for_step(bp: Bipartition, step, params: CrystalParams) -> Signature:
    if params.regime == REGIME_B:
        if not isinstance(step, int):
            raise ValueError(f"regime B steps are residues, got {step!r}")
        return i_signature(bp, step, params)
    component, i = step
    return i_signature(bp, i, params, component=component)


def good_removable(bp: Bipartition, step, params: CrystalParams) -> Node | None:
    """Leftmost surviving removable cell of the step's signature, if any."""
    for node, mark in _signature_for_step(bp, step, params).reduced:
        if mark == REMOVABLE:
            return node
    return None


def good_addable(bp: Bipartition, step, params: CrystalParams) -> Node | None:
    """Rightmost surviving addable cell of the step's signature, if any."""
    best = None
    for node, mark in _signature_for_step(bp, step, params).reduced:
        if mark == ADDABLE:
            best = node
    return best


def e_tilde(bp: Bipartition, step, params: CrystalParams) -> Bipartition | None:
    """Remove the good removable cell of ``step``; ``None`` when absent."""
    node = good_removable(bp, step, params)
    return None if node is None else remove_node(bp, node)


def f_tilde(bp: Bipartition, step, params: CrystalParams) -> Bipartition | None:
    """Add the good addable cell of ``step``; ``None`` when absent."""
    node = good_addable(bp, step, params)
    return None if node is None else add_node(bp, node)


def reference_alphabet(bp: Bipartition, params: CrystalParams):
    """Every step whose signature can mark a cell of ``bp``: the ``e``
    residues in regime B, and in regime A ``(component, residue)`` of each
    removable or addable cell, ascending."""
    if params.regime == REGIME_B:
        return range(params.e)
    cells = removable_nodes(bp) + addable_nodes(bp)
    return sorted({(node.component, residue(node, params)) for node in cells})


def reference_good_removals(bp: Bipartition, params: CrystalParams) -> list[Bipartition]:
    """``bp - A`` for every good removable cell ``A``: ``e_tilde`` on each
    step of the alphabet, in step order."""
    return [
        mu for step in reference_alphabet(bp, params)
        if (mu := e_tilde(bp, step, params)) is not None
    ]


def reference_h(bp: Bipartition, params: CrystalParams, known=None) -> Bipartition:
    """``h(bp)`` by the definitional peel and shifted replay.

    Regime A swaps the components.  Regime B peels ``bp`` with ``e_tilde``,
    each time at the smallest step with a good removable cell, down to the
    empty bipartition or to one whose image ``known`` holds (a dict of
    values this function made), then replays the peeled steps from that
    image, each shifted by ``l``, with ``f_tilde``.
    """
    if params.regime != REGIME_B:
        return hat(bp)
    known = {} if known is None else known
    start, steps = bp, []
    while bp not in known and bp != EMPTY_BIPARTITION:
        step = next(
            (i for i in range(params.e) if good_removable(bp, i, params) is not None), None
        )
        if step is None:
            raise NotKleshchevError(f"the peel of {format_bipartition(start)} strands")
        steps.append(step)
        bp = e_tilde(bp, step, params)
    image = known.get(bp, EMPTY_BIPARTITION)
    for step in reversed(steps):
        image = f_tilde(image, (step + params.l) % params.e, params)
        if image is None:
            raise ShiftReplayError(f"the shifted peel of {format_bipartition(start)} breaks")
    return image


def reference_restriction(mu: Bipartition, image: Bipartition) -> list[tuple]:
    """Res of the type-B simple ``D^mu`` to type D, whose ``h(mu)`` is
    ``image``, as ``(kind, rep, sign)`` labels: ``D(mu)`` when ``mu`` is not
    fixed, else ``D(mu,+)`` and ``D(mu,-)``."""
    if mu == image:
        return [("split", mu, "+"), ("split", mu, "-")]
    return [("unsplit", min(mu, image), None)]


def _reference_good_removables(parts: Partition, l: int | float):
    """Good removable cells of one partition, recomputed from scratch.

    Deliberately separate from the crystal engine: collects marked cells row
    by row, buckets them by residue, and cancels pairs by rescanning the
    whole word instead of using a stack.  Returns ``(residue, (row, col))``
    pairs sorted by residue.
    """
    marked = []
    rows = len(parts)
    for row in range(1, rows + 1):
        below = parts[row] if row < rows else 0
        if parts[row - 1] > below:
            marked.append((row, parts[row - 1], "R"))
    for row in range(1, rows + 2):
        if row == 1:
            col = parts[0] + 1 if rows else 1
        elif row <= rows:
            if parts[row - 1] >= parts[row - 2]:
                continue
            col = parts[row - 1] + 1
        else:
            if rows == 0:
                continue
            col = 1
        marked.append((row, col, "A"))
    marked.sort()
    words: dict = {}
    for row, col, mark in marked:
        res = col - row if l == INF else (col - row) % l
        words.setdefault(res, []).append((row, col, mark))
    out = []
    for res in sorted(words):
        word = list(words[res])
        changed = True
        while changed:
            changed = False
            for k in range(len(word) - 1):
                if word[k][2] == "R" and word[k + 1][2] == "A":
                    del word[k : k + 2]
                    changed = True
                    break
        for row, col, mark in word:
            if mark == "R":
                out.append((res, (row, col)))
                break
    return out
