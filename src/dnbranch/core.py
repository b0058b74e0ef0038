"""Partitions, bipartitions, diagram geometry, residues and crystal parameters.

Conventions shared by the whole package:

* a partition is a tuple of weakly decreasing positive integers; ``()`` is
  the empty partition;
* a bipartition is a pair ``(comp1, comp2)`` of partitions whose text form
  writes parts comma separated, components joined by ``|`` and an empty
  component as ``-`` (``"2,1|1,1"``, ``"-|2,2"``, ``"-|-"``);
* a node is a cell address ``(component, row, col)``, everything 1-based;
* the quantum characteristic ``e`` is an integer >= 2 or ``INF``;
* the canonical total order on bipartitions is plain tuple comparison, i.e.
  lexicographic on ``(comp1, comp2)`` with shorter prefixes first.

All values are immutable and all functions are pure, so everything here is
safe to share between threads.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterator, NamedTuple

from .errors import InvalidEError, NotRemovableError, ParseError

INF = math.inf

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]

EMPTY_BIPARTITION: Bipartition = ((), ())

REGIME_A = "A"
REGIME_B = "B"

# the marks of a signature word's cells
ADDABLE = "A"
REMOVABLE = "R"


class Node(NamedTuple):
    """Cell address inside a bipartition diagram."""

    component: int
    row: int
    col: int


class Record:
    """Base of the package's value classes, whose fields are their ``__slots__``.

    Two records are equal when they are of the same class and their fields
    are equal, and a record shows as ``Name(field=value, ...)``.  A record
    can be changed and so has no hash; :class:`Frozen` makes it immutable
    and hashable.  A subclass declares at least two fields, in the order of
    its ``__init__`` parameters.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """An immutable, hashable :class:`Record`.

    ``__init__`` sets each field once with ``object.__setattr__``; any
    later assignment raises ``AttributeError``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return (self.__class__, self._values(self))


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class CrystalParams(Frozen):
    """Crystal parameters derived from the quantum characteristic ``e``.

    Regime ``"B"``: ``e`` is finite and even, ``l = e // 2``, and the two
    components carry residue offsets ``(0, l)`` so the whole bipartition
    lives over the single alphabet ``Z/eZ``.

    Regime ``"A"``: ``l = e`` (possibly ``INF``); residues are computed per
    component as ``col - row`` reduced mod ``l``, with no cross-component
    offset, and crystal operators act on each component independently.
    """

    __slots__ = ("e", "regime", "l", "multicharge")

    def __init__(
        self, e: int | float, regime: str, l: int | float, multicharge: tuple[int, int] = (0, 0)
    ) -> None:
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "multicharge", multicharge)


def _check_e(e: int | float) -> None:
    if e == INF:
        return
    if not isinstance(e, int) or isinstance(e, bool) or e < 2:
        raise InvalidEError(
            f"quantum characteristic must be an integer >= 2 or INF, got {e!r}"
        )


def classify_regime(n: int, e: int | float) -> CrystalParams:
    """Derive the crystal parameters governing bipartitions of ``n``.

    ``e`` infinite or odd always gives regime A with ``l = e``.  An even
    ``e`` gives regime B with ``l = e // 2`` once ``e // 2 < n``; for
    ``e // 2 >= n`` no factor ``1 + q**i`` with ``i <= n - 1`` can vanish,
    so the parameters stay in regime A.
    """
    _check_e(e)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if e != INF and e % 2 == 0 and e // 2 < n:
        half = e // 2
        return CrystalParams(e=e, regime=REGIME_B, l=half, multicharge=(0, half))
    return CrystalParams(e=e, regime=REGIME_A, l=e)


def regime_a_params(l: int | float) -> CrystalParams:
    """Componentwise crystal parameters with a directly prescribed ``l``.

    Calibration and cross-check suites pick ``l`` freely instead of deriving
    it from a quantum characteristic via :func:`classify_regime`.
    """
    _check_e(l)
    return CrystalParams(e=l, regime=REGIME_A, l=l)


def residue(node: Node, params: CrystalParams) -> int:
    """Residue of a cell.

    Regime B: ``(col - row + offset) % e`` with component offsets ``(0, l)``.
    Regime A: ``col - row`` reduced mod ``l`` inside the cell's own
    component, or the bare integer content when ``l`` is infinite.
    """
    content = node.col - node.row
    if params.regime == REGIME_B:
        return (content + params.multicharge[node.component - 1]) % params.e
    if params.l == INF:
        return content
    return content % params.l


# ---------------------------------------------------------------------------
# partitions


def _partition_removables(parts: Partition) -> list[tuple[int, int]]:
    out = []
    for r in range(1, len(parts) + 1):
        below = parts[r] if r < len(parts) else 0
        if parts[r - 1] > below:
            out.append((r, parts[r - 1]))
    return out


def _partition_addables(parts: Partition) -> list[tuple[int, int]]:
    if not parts:
        return [(1, 1)]
    out = [(1, parts[0] + 1)]
    for r in range(2, len(parts) + 1):
        if parts[r - 1] < parts[r - 2]:
            out.append((r, parts[r - 1] + 1))
    out.append((len(parts) + 1, 1))
    return out


# ---------------------------------------------------------------------------
# bipartitions


def bipartition_size(bp: Bipartition) -> int:
    return sum(bp[0]) + sum(bp[1])


def hat(bp: Bipartition) -> Bipartition:
    """Swap the two components; an involution on bipartitions."""
    return (bp[1], bp[0])


def nodes_of(bp: Bipartition) -> Iterator[Node]:
    """All cells of the diagram, component 1 first, rows top to bottom."""
    for component in (1, 2):
        parts = bp[component - 1]
        for row, length in enumerate(parts, start=1):
            for col in range(1, length + 1):
                yield Node(component, row, col)


def removable_nodes(bp: Bipartition) -> list[Node]:
    """Cells whose removal leaves a diagram, ordered by (component, row)."""
    return [
        Node(component, row, col)
        for component in (1, 2)
        for row, col in _partition_removables(bp[component - 1])
    ]


def addable_nodes(bp: Bipartition) -> list[Node]:
    """Concave corner positions where a cell fits, ordered by (component, row)."""
    return [
        Node(component, row, col)
        for component in (1, 2)
        for row, col in _partition_addables(bp[component - 1])
    ]


def remove_node(bp: Bipartition, node: Node) -> Bipartition:
    """Diagram with ``node`` removed; raises ``NotRemovableError`` otherwise."""
    parts = bp[node.component - 1]
    r = node.row
    ok = (
        1 <= r <= len(parts)
        and parts[r - 1] == node.col
        and (r == len(parts) or parts[r] < node.col)
    )
    if not ok:
        raise NotRemovableError(
            f"{node} is not a removable node of {format_bipartition(bp)}"
        )
    new = parts[: r - 1] + ((node.col - 1,) if node.col > 1 else ()) + parts[r:]
    return (new, bp[1]) if node.component == 1 else (bp[0], new)


def add_node(bp: Bipartition, node: Node) -> Bipartition:
    """Diagram with a cell added at ``node``; the position must be addable."""
    parts = bp[node.component - 1]
    r = node.row
    if r == len(parts) + 1 and node.col == 1:
        new = parts + (1,)
    elif (
        1 <= r <= len(parts)
        and node.col == parts[r - 1] + 1
        and (r == 1 or parts[r - 2] >= node.col)
    ):
        new = parts[: r - 1] + (node.col,) + parts[r:]
    else:
        raise ValueError(f"{node} is not an addable position of {format_bipartition(bp)}")
    return (new, bp[1]) if node.component == 1 else (bp[0], new)


# ---------------------------------------------------------------------------
# semisimplicity criteria

# With char K != 2 assumed globally, a factor 1 + q**i vanishes exactly when
# e is even and i is congruent to e/2 mod e, and 1 + q + ... + q**(i-1)
# vanishes exactly when e is finite and divides i.


def is_semisimple(n: int, e: int | float) -> bool:
    """Semisimplicity of the rank-``n`` type-B and type-D algebras at ``e``.

    Away from characteristic 2 the two criteria coincide.
    """
    _check_e(e)
    if e == INF:
        return True
    if e <= n:
        return False
    if e % 2 == 0 and e // 2 <= n - 1:
        return False
    return True


# ---------------------------------------------------------------------------
# text form


def format_partition(parts: Partition) -> str:
    return ",".join(str(p) for p in parts) if parts else "-"


def format_bipartition(bp: Bipartition) -> str:
    return f"{format_partition(bp[0])}|{format_partition(bp[1])}"


def format_node(node: Node) -> str:
    return f"({node.component},{node.row},{node.col})"


def _parse_parts(text: str, offset: int) -> Partition:
    if text == "-":
        return ()
    if not text:
        raise ParseError("empty component (write '-' for an empty partition)", offset)
    parts = []
    col = offset
    for token in text.split(","):
        if not token.strip() or not token.strip().lstrip("+").isdigit():
            raise ParseError(f"expected a positive integer part, got {token!r}", col)
        value = int(token)
        if value < 1:
            raise ParseError(f"parts must be >= 1, got {value}", col)
        if parts and value > parts[-1]:
            raise ParseError("parts must be weakly decreasing", col)
        parts.append(value)
        col += len(token) + 1
    return tuple(parts)


def parse_bipartition(text: str, size: int | None = None) -> Bipartition:
    """Parse the ``"2,1|1,1"`` text form, of ``size`` cells if one is given;
    errors carry a column position, but for a wrong size."""
    if text.count("|") != 1:
        raise ParseError("expected exactly one '|' between components", 1)
    left, right = text.split("|")
    bp = (_parse_parts(left, 1), _parse_parts(right, len(left) + 2))
    if size is not None and bipartition_size(bp) != size:
        raise ParseError(f"bipartition {text!r} has size {bipartition_size(bp)}, expected n={size}")
    return bp
