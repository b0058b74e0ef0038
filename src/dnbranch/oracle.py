"""Brute-force verifiers and exact dimension counts.

The suites read the engine's levels, edges, ``h``, ``good_nodes`` and socles
as the things under test, and compare them with what is computed apart from
it: exact integer dimension counts, generated restricted partitions, and
the definitional crystal of ``reference``, which no engine module calls.  A
suite computes each fact it compares once per run; what it compares, its
cases and its failures are those of naive loops.  The streamed suites share
one driver (``_streamed_suite``) and give it only their per-level check.
"""

from __future__ import annotations

import time
from collections import Counter
from math import comb, factorial

from .core import (
    Bipartition,
    CrystalParams,
    EMPTY_BIPARTITION,
    Partition,
    REGIME_A,
    REGIME_B,
    Record,
    bipartition_size,
    format_bipartition,
    format_node,
    hat,
    is_semisimple,
    regime_a_params,
    remove_node,
    removable_nodes,
)
from .crystal import good_nodes, iter_levels, partition_crystal_levels
from .dmod import (
    SPLIT,
    IrreducibleLabel,
    format_label,
    image_function,
    level_socles,
    parents_index,
)
from .errors import InvariantError, NotSemisimpleError
from .reference import (
    _reference_good_removables,
    f_tilde,
    reference_good_removals,
    reference_h,
    reference_restriction,
)


class VerificationReport(Record):
    """Outcome of one verification suite.

    ``failures`` holds ``(input, expected, got)`` text triples; a truncated
    run or one that checked no case is inconclusive rather than passing.
    Every suite checks its cases in full, so none sets ``truncated``; the
    report format keeps it.
    """

    __slots__ = ("suite", "e", "regime", "l", "n", "cases", "failures", "elapsed", "truncated")

    def __init__(
        self,
        suite: str,
        e: int | float,
        regime: str,
        l: int | float,
        n: int,
        cases: int = 0,
        failures: list[tuple[str, str, str]] | None = None,
        elapsed: float = 0.0,
        truncated: bool = False,
    ) -> None:
        self.suite = suite
        self.e = e
        self.regime = regime
        self.l = l
        self.n = n
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed
        self.truncated = truncated

    @property
    def status(self) -> str:
        if self.failures:
            return "fail"
        if self.truncated or self.cases == 0:
            return "inconclusive"
        return "pass"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _new_report(suite: str, params: CrystalParams, n: int) -> VerificationReport:
    return VerificationReport(suite, params.e, params.regime, params.l, n)


# ---------------------------------------------------------------------------
# enumeration helpers


def enumerate_partitions(n: int, max_part: int | None = None):
    """All partitions of ``n`` with parts bounded by ``max_part``."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in enumerate_partitions(n - first, first):
            yield (first,) + rest


def restricted_partitions(n: int, l: int | float):
    """The ``l``-restricted partitions of ``n``, in the order of
    ``enumerate_partitions``, generated without the others.

    Parts are chosen largest first.  After a part ``p`` the next lies in
    ``max(1, p - l + 1)..p``, and the last must be below ``l``, so a prefix
    is cut as soon as its next part has no room.
    """
    return _restricted_tails(n, n, 1, l)


def _restricted_tails(rest: int, top: int, low: int, l: int | float):
    """Restricted tails of sum ``rest`` whose first part lies in ``low..top``."""
    if rest == 0:
        if top < l:
            yield ()
        return
    for part in range(min(rest, top), low - 1, -1):
        for tail in _restricted_tails(rest - part, part, max(1, part - l + 1), l):
            yield (part,) + tail


def _restricted_pairs(restricted: list, n: int) -> set[Bipartition]:
    """Bipartitions of ``n`` from ``restricted[k]``, the restricted
    partitions of each ``k <= n``."""
    return {(a, b) for k in range(n + 1) for a in restricted[k] for b in restricted[n - k]}


# ---------------------------------------------------------------------------
# dimensions


def standard_tableaux_count(parts: Partition) -> int:
    """Number of standard fillings of one partition, by the hook formula."""
    if not parts:
        return 1
    conjugate = [0] * parts[0]
    for p in parts:
        for j in range(p):
            conjugate[j] += 1
    numerator = factorial(sum(parts))
    for i, p in enumerate(parts):
        for j in range(p):
            numerator //= p - j + conjugate[j] - i - 1
    return numerator


def bipartition_dimension(bp: Bipartition) -> int:
    """Number of standard fillings of a bipartition, in exact integers."""
    n = bipartition_size(bp)
    return (
        comb(n, sum(bp[0]))
        * standard_tableaux_count(bp[0])
        * standard_tableaux_count(bp[1])
    )


def _label_dimension(label) -> int:
    dim = bipartition_dimension(label.rep)
    if label.kind == SPLIT:
        if dim % 2:
            raise InvariantError(f"{format_label(label)} has odd dimension {dim}")
        return dim // 2
    return dim


# ---------------------------------------------------------------------------
# suites


def _streamed_suite(suite: str, n: int, params: CrystalParams, check, parents=False):
    """The report of ``suite``: ``check(report, level, edges, h, h_below)``
    on each level of ``iter_levels``, with ``h`` on it and the level below
    and the edges into it, the children index or with ``parents`` its
    inverse.  What ``check`` makes of a level goes when it returns, and the
    edges go here, before the next level grows.
    """
    report = _new_report(suite, params, n)
    start = time.perf_counter()
    below = None
    for level, edges, table in iter_levels(n, params):
        if parents:
            edges = parents_index(edges)  # empties the children index
        check(report, level, edges, image_function(table), image_function(below))
        below = table
        del edges
    report.elapsed = time.perf_counter() - start
    return report


def _shifted_step(step, params: CrystalParams):
    """The step an edge's ``h`` image takes: residue ``+ l`` in regime B,
    the other component in regime A."""
    if params.regime == REGIME_B:
        return (step + params.l) % params.e
    component, i = step
    return (3 - component, i)


def verify_h_path_independence(n: int, params: CrystalParams) -> VerificationReport:
    """``h`` is an involution that commutes with the shifted crystal operators.

    Complete and linear in the edges, one streamed level at a time, with
    ``h`` on the level and the one below read from the stream's tables (the
    swap in regime A): ``h(v)`` lies on ``v``'s level and ``h(h(v)) = v`` for
    every vertex, and for every edge ``(p, i, c)`` into the level,
    ``f_tilde`` along the shifted step takes ``h(p)`` to ``h(c)``.  By
    induction on path length, every path replayed shifted from the empty
    bipartition then ends at the ``h`` image of its end, so no path is
    walked.  ``h`` is a bijection on each level, so no two edges replay the
    same ``(h(p), step)``.  One case per vertex and per edge.
    """

    def check(report, level, children, h, h_below):
        on_level = set(level)
        for bp in level:
            image = h(bp)
            report.cases += 1
            if image not in on_level:
                report.failures.append(
                    (
                        format_bipartition(bp),
                        f"an h image on level {bipartition_size(bp)}",
                        format_bipartition(image),
                    )
                )
            elif (back := h(image)) != bp:
                report.failures.append(
                    (format_bipartition(bp), format_bipartition(bp), format_bipartition(back))
                )
        for parent, steps in children.items():
            image_parent = h_below(parent)
            for step, child in steps.items():
                shifted = _shifted_step(step, params)
                got = f_tilde(image_parent, shifted, params)
                report.cases += 1
                if got != h(child):
                    report.failures.append(
                        (
                            f"edge {format_bipartition(parent)} --{step}--> "
                            f"{format_bipartition(child)} shifted to {shifted}",
                            format_bipartition(h(child)),
                            "no good addable cell" if got is None else format_bipartition(got),
                        )
                    )

    return _streamed_suite("path-independence", n, params, check)


def verify_semisimple_branching(n: int, params: CrystalParams) -> VerificationReport:
    """In the semisimple range the socle is the whole restriction, so the
    summand dimensions must add up to the dimension of the restricted module."""
    if not is_semisimple(n, params.e):
        raise NotSemisimpleError(
            f"rank {n} at characteristic {params.e} is not semisimple"
        )

    def check(report, level, parents, h, h_below):
        if bipartition_size(level[0]) < 2:
            return
        for socle in level_socles(level, h, h_below, parents):
            expected = _label_dimension(socle.source)
            total = sum(map(_label_dimension, socle.summands))
            report.cases += 1
            if total != expected:
                report.failures.append((format_label(socle.source), str(expected), str(total)))

    return _streamed_suite("semisimple-branching", n, params, check, parents=True)


def _multiset_text(labels: Counter) -> str:
    return " ".join(format_label(IrreducibleLabel(*label)) for label in sorted(labels.elements()))


def verify_clifford_socle(n: int, params: CrystalParams) -> VerificationReport:
    """Every socle of levels 2..n against the Clifford identity, counted
    with multiplicity.

    In type B the socle of the restriction of ``D^lam`` is the sum of
    ``D^(lam - A)`` over the good removable cells ``A``, and ``D^mu``
    restricts to type D as ``reference_restriction`` gives.  The socle
    commutes with that index-2 restriction, so an unsplit label's socle,
    and the two socles of a split pair together, must be the multiset of
    ``Res(lam - A)``; since a label's socle is multiplicity free, so is
    that multiset.  The engine's side is full-level ``branch``'s
    (``level_socles`` on the streamed parents and ``h`` tables); the other
    takes the cells ``A`` from ``reference_good_removals`` and ``h`` from
    ``reference_h``, level by level from the one below.  One case per
    representative, after a check that both sides have the same ones.
    """
    known = None  # reference_h on the level below

    def check(report, level, parents, h, h_below):
        nonlocal known
        images = {bp: reference_h(bp, params, known) for bp in level}
        if bipartition_size(level[0]) >= 2:
            engine: dict = {}
            for socle in level_socles(level, h, h_below, parents):
                # the two signs of a split label share a representative, so they merge
                engine.setdefault(socle.source.rep, Counter()).update(
                    (s.kind, s.rep, s.sign) for s in socle.summands
                )
            reps = {min(bp, image) for bp, image in images.items()}
            report.cases += 1
            if engine.keys() != reps:
                report.failures.append(
                    (
                        f"level {bipartition_size(level[0])} representatives",
                        str(sorted(map(format_bipartition, reps - engine.keys()))),
                        str(sorted(map(format_bipartition, engine.keys() - reps))),
                    )
                )
            for lam in sorted(reps & engine.keys()):
                expected = Counter()
                for mu in reference_good_removals(lam, params):
                    expected.update(reference_restriction(mu, known[mu]))
                report.cases += 1
                if engine[lam] != expected:
                    report.failures.append(
                        (
                            format_bipartition(lam),
                            _multiset_text(expected),
                            _multiset_text(engine[lam]),
                        )
                    )
        known = images

    return _streamed_suite("clifford-socle", n, params, check, parents=True)


def verify_uniqueness_and_distinctness(n: int, params: CrystalParams) -> VerificationReport:
    """Special-node uniqueness and pairwise distinctness of removals.

    For every lattice vertex: at most one good cell has an involution-fixed
    removal; an almost symmetric vertex is never itself fixed, and its other
    removals are pairwise inequivalent (checked against all removable cells
    in regime A, against good cells in regime B); a non-almost-symmetric,
    non-fixed vertex has pairwise inequivalent good removals.

    The levels are streamed, and a vertex's good removals are its parents
    in the edges into its level (``parents_index``: ``lam = f_i mu`` exactly
    when ``mu = e_i lam``), as full-level ``branch`` reads them; ``h`` is read
    on each level and the one below from the stream's tables.  Only the
    regime-A pool of an almost symmetric vertex, every removable cell, is
    made from cells.  The ordered pairs count as cases and are compared, in
    order, only when some removal equals some partner image; then the
    vertex's cells are found (``_collisions``) to name them.
    """
    regime_a = params.regime == REGIME_A

    def check(report, level, parents, h, h_below):
        if level[0] == EMPTY_BIPARTITION:
            return
        # removals below a merely-removable cell can leave the lattice, where
        # only the regime-A component swap still makes sense
        image = hat if regime_a else h_below
        for bp in level:
            removals = parents[bp]
            special = [mu for mu in removals if mu == h_below(mu)]
            report.cases += 1
            if len(special) > 1:
                report.failures.append(
                    (format_bipartition(bp), "at most one special node", str(len(special)))
                )
                continue
            if special:
                if bp == h(bp):
                    report.failures.append(
                        (format_bipartition(bp), "almost symmetric implies not fixed", "fixed")
                    )
                if regime_a:
                    removals = [remove_node(bp, c) for c in removable_nodes(bp)]
                partners = [image(mu) for mu in removals if mu not in special]
            elif bp != h(bp):
                partners = list(map(image, removals))
            else:
                continue
            report.cases += len(removals) * len(partners)
            if not set(removals).isdisjoint(partners):
                report.failures.extend(_collisions(bp, params, special, image))

    return _streamed_suite("uniqueness-distinctness", n, params, check, parents=True)


def _collisions(bp: Bipartition, params: CrystalParams, special: list, image) -> list:
    """The failures of a vertex some of whose removals equal partner images,
    naming its cells: for each cell ``b`` of the pool (every removable cell
    of a regime-A almost symmetric vertex, else the good cells, in
    ``good_nodes`` order), each cell ``c`` whose removal is not ``special``
    and whose partner image is the removal at ``b``."""
    if special and params.regime == REGIME_A:
        pool = removable_nodes(bp)
    else:
        pool = [node for node, _ in good_nodes(bp, params)]
    removal = {c: remove_node(bp, c) for c in pool}
    partners = {c: image(mu) for c, mu in removal.items() if mu not in special}
    return [
        (
            format_bipartition(bp),
            f"removal at {format_node(b)} differs from partner of {format_node(c)}",
            "equal",
        )
        for b in pool
        for c, partner in partners.items()
        if removal[b] == partner
    ]


def verify_regime_a_decoupling(n: int, l: int | float) -> VerificationReport:
    """Componentwise engine against restricted pairs and a naive signature scan.

    Level ``m`` of the regime-A lattice must be exactly the pairs of
    ``l``-restricted partitions of total size ``m``, and the engine's good
    cells must match the union of the per-component recomputation, which
    runs once per distinct partition.  The restricted partitions of each
    size are generated once and kept across levels.
    """
    params = regime_a_params(l)
    references: dict = {}
    restricted = []  # the restricted partitions of each size so far, made once

    def check(report, level, *_):
        m = bipartition_size(level[0])
        restricted.append(list(restricted_partitions(m, l)))
        got = set(level)
        expected = _restricted_pairs(restricted, m)
        report.cases += 1
        if got != expected:
            report.failures.append(
                (
                    f"level {m}",
                    f"{len(expected)} restricted pairs",
                    f"{len(got)} vertices, differing by "
                    f"{sorted(map(format_bipartition, got ^ expected))}",
                )
            )
            return
        for bp in level:
            engine = {
                (node.component, step[1], node.row, node.col)
                for node, step in good_nodes(bp, params)
            }
            for parts in bp:
                if parts not in references:
                    references[parts] = _reference_good_removables(parts, l)
            reference = {
                (component, res, row, col)
                for component in (1, 2)
                for res, (row, col) in references[bp[component - 1]]
            }
            report.cases += 1
            if engine != reference:
                report.failures.append(
                    (format_bipartition(bp), str(sorted(reference)), str(sorted(engine)))
                )

    return _streamed_suite("regime-a-decoupling", n, params, check)


def verify_level1_calibration(n: int, e: int | float) -> VerificationReport:
    """Single-partition crystal levels against the restricted partitions,
    generated as such, so the reference side makes no other partition."""
    params = regime_a_params(e)
    report = _new_report("level1-calibration", params, n)
    start = time.perf_counter()
    levels = partition_crystal_levels(n, e)
    for m in range(n + 1):
        got = set(levels[m])
        expected = set(restricted_partitions(m, e))
        report.cases += 1
        if got != expected:
            report.failures.append(
                (f"level {m}", str(sorted(expected)), str(sorted(got)))
            )
    report.elapsed = time.perf_counter() - start
    return report
