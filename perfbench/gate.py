"""Correctness gate for the benchmark.

Every check here is written from the definitions in the README and shares no
code with ``dnbranch``: bipartitions are handled as text and plain tuples,
``h`` is rebuilt from the lattice edges by the shift recurrence
(``h(empty) = empty`` and, for an edge ``(p, i, c)``, ``h(c)`` is the child of
``h(p)`` along the shifted step), and labels and socles are derived from that
table and the parent edges.  A check returns a list of failure strings; an
empty list means the output passed.
"""

from __future__ import annotations

import json
from functools import lru_cache

EMPTY = "-|-"


# ---------------------------------------------------------------------------
# bipartitions as text


def parse_bp(text: str) -> tuple:
    left, right = text.split("|")
    return tuple(
        () if comp == "-" else tuple(int(p) for p in comp.split(","))
        for comp in (left, right)
    )


def format_bp(bp) -> str:
    return "|".join(",".join(map(str, comp)) if comp else "-" for comp in bp)


def size(text: str) -> int:
    return sum(map(sum, parse_bp(text)))


def residue_counts(text: str, e, regime: str) -> dict:
    """Cells per residue, as the ``residues:`` line of ``involution`` prints them.

    Regime B uses offsets ``(0, l)`` mod ``e``; regime A reduces each
    component's contents mod ``l = e`` (bare contents when ``e`` is ``inf``).
    Finite alphabets list every residue, zeros included.
    """
    l = None if e == "inf" else (e // 2 if regime == "B" else e)
    counts: dict = {}
    for comp, parts in enumerate(parse_bp(text)):
        offset = l if regime == "B" and comp == 1 else 0
        for row, length in enumerate(parts, start=1):
            for col in range(1, length + 1):
                r = col - row + offset
                if regime == "B":
                    r %= e
                elif l is not None:
                    r %= l
                counts[r] = counts.get(r, 0) + 1
    if l is not None:
        for r in range(e if regime == "B" else l):
            counts.setdefault(r, 0)
    return dict(sorted(counts.items()))


def _restricted_partition_counts(n: int, l) -> list[int]:
    """``out[k]`` = number of ``l``-restricted partitions of ``k``.

    Counted through their conjugates, the partitions in which no part occurs
    ``l`` or more times.
    """
    out = [1] + [0] * n
    for part in range(1, n + 1):
        new = out[:]
        for k in range(n + 1):
            limit = n if l == "inf" else l - 1
            for mult in range(1, limit + 1):
                if k - mult * part < 0:
                    break
                new[k] += out[k - mult * part]
        out = new
    return out


def regime_a_level_sizes(n: int, l) -> list[int]:
    """Number of pairs of ``l``-restricted partitions of total size ``m``."""
    r = _restricted_partition_counts(n, l)
    return [sum(r[k] * r[m - k] for k in range(m + 1)) for m in range(n + 1)]


@lru_cache(maxsize=None)
def _fillings(bp: tuple) -> int:
    """Standard fillings by peeling removable corners (not the hook formula)."""
    total = 0
    for c, parts in enumerate(bp):
        for r, length in enumerate(parts):
            if r + 1 == len(parts) or parts[r + 1] < length:
                shrunk = parts[:r] + ((length - 1,) if length > 1 else ()) + parts[r + 1:]
                total += _fillings((shrunk, bp[1]) if c == 0 else (bp[0], shrunk))
    return total or 1


def dimension(text: str) -> int:
    return _fillings(parse_bp(text))


# ---------------------------------------------------------------------------
# the reference model of one lattice document


class Model:
    """``h``, parents and labels derived from a ``lattice`` JSON document."""

    def __init__(self, doc: dict):
        self.e = doc["e"]
        self.regime = doc["regime"]
        data = doc["data"]
        self.n = data["n"]
        self.levels = data["levels"]
        self.level_of = {bp: m for m, level in enumerate(self.levels) for bp in level}
        self.parents: dict = {}
        child_of: dict = {}
        for level_edges in data["edges"]:
            for parent, step, child in level_edges:
                key = tuple(step) if isinstance(step, list) else step
                child_of[(parent, key)] = child
                self.parents.setdefault(child, []).append(parent)
        self.failures: list[str] = []
        self.h = {EMPTY: EMPTY}
        for level_edges in data["edges"]:
            for parent, step, child in level_edges:
                image = child_of.get((self.h.get(parent), self._shift(step)))
                if image is None:
                    self.failures.append(f"shifted edge of {parent} --{step}--> {child} missing")
                elif self.h.setdefault(child, image) != image:
                    self.failures.append(f"h({child}) depends on the path")
        for bp, image in self.h.items():
            if self.h.get(image) != bp:
                self.failures.append(f"h is not an involution at {bp}")
        if self.regime == "A":
            sizes = regime_a_level_sizes(self.n, self.e)
            got = [len(level) for level in self.levels]
            if got != sizes:
                self.failures.append(f"regime-A level sizes {got} != restricted pairs {sizes}")

    def _shift(self, step):
        if self.regime == "A":
            return (3 - step[0], step[1])
        return (step + self.e // 2) % self.e

    def header(self, n: int) -> str:
        l = "inf" if self.e == "inf" else (self.e // 2 if self.regime == "B" else self.e)
        return f"# e={self.e} regime={self.regime} l={l} n={n}"

    def labels(self, m: int) -> list[dict]:
        out = []
        for bp in sorted(self.levels[m], key=parse_bp):
            partner = self.h[bp]
            if bp == partner and m > 0:
                out += [_split(bp, "+"), _split(bp, "-")]
            elif bp == partner or parse_bp(bp) < parse_bp(partner):
                out.append(_unsplit(bp))
        return out

    def unsplit_class(self, bp: str) -> dict:
        return _unsplit(min(bp, self.h[bp], key=parse_bp))

    def socle(self, label: dict) -> list[dict]:
        """Summands of the restriction, from the parent edges of the rep."""
        rep = label["rep"]
        parents = self.parents.get(rep, [])
        if label["kind"] == "split":
            reps = {self.unsplit_class(p)["rep"] for p in parents}
            return sorted(map(_unsplit, reps), key=label_key)
        fixed = [p for p in parents if self.h[p] == p]
        out = [s for p in fixed for s in (_split(p, "+"), _split(p, "-"))]
        out += [self.unsplit_class(p) for p in parents if p not in fixed]
        return sorted(out, key=label_key)

    def branch_source(self, bp: str) -> dict:
        return _split(bp, "+") if self.h[bp] == bp else self.unsplit_class(bp)


def _unsplit(bp: str) -> dict:
    return {"kind": "unsplit", "rep": bp}


def _split(bp: str, sign: str) -> dict:
    return {"kind": "split", "rep": bp, "sign": sign}


def label_key(label: dict):
    return (parse_bp(label["rep"]), label["kind"] == "split", label.get("sign") == "-")


# ---------------------------------------------------------------------------
# checks of program output


def _header_failures(doc: dict, model: Model, kind: str, n: int) -> list[str]:
    want_l = "inf" if model.e == "inf" else (model.e // 2 if model.regime == "B" else model.e)
    got = (doc.get("schema"), doc.get("kind"), doc.get("e"), doc.get("regime"), doc.get("l"))
    want = ("dnbranch/1", kind, model.e, model.regime, want_l)
    fails = [] if got == want else [f"header {got} != {want}"]
    if doc.get("data", {}).get("n") != n:
        fails.append(f"n {doc.get('data', {}).get('n')} != {n}")
    return fails


def check_labels(doc: dict, model: Model, n: int) -> list[str]:
    fails = _header_failures(doc, model, "labels", n)
    labels = doc["data"]["labels"]
    for k, label in enumerate(labels):
        if label["kind"] == "split" and label["sign"] == "+":
            pair = labels[k + 1] if k + 1 < len(labels) else {}
            if (pair.get("rep"), pair.get("sign")) != (label["rep"], "-"):
                fails.append(f"split label {label['rep']} has no - partner")
        elif label["kind"] == "split" and (k == 0 or labels[k - 1].get("sign") != "+"):
            fails.append(f"split label {label['rep']} has no + partner")
    if labels != model.labels(n):
        fails.append("labels differ from the edge-derived h table")
    return fails


def check_socle(entry: dict, n: int, model: Model | None = None) -> list[str]:
    """Multiplicity free, summands of size ``n - 1``, and, given the lattice,
    exactly the summands the parent edges predict."""
    fails = []
    source = entry["source"]
    summands = entry["summands"]
    keys = [json.dumps(s, sort_keys=True) for s in summands]
    if len(set(keys)) != len(keys):
        fails.append(f"socle of {source['rep']} is not multiplicity free")
    for s in summands:
        if size(s["rep"]) != n - 1:
            fails.append(f"summand {s['rep']} of {source['rep']} has size != {n - 1}")
    if model is not None and summands != model.socle(source):
        fails.append(f"socle of {source['rep']} differs from the parent edges")
    return fails


def check_branching(doc: dict, model: Model, n: int, full: bool = True) -> list[str]:
    fails = _header_failures(doc, model, "branching", n)
    entries = doc["data"]["entries"]
    if full and [entry["source"] for entry in entries] != model.labels(n):
        fails.append("branching sources differ from the level's labels")
    for entry in entries:
        fails += check_socle(entry, n, model)
    return fails


def check_report(doc: dict, suite: str) -> list[str]:
    data = doc.get("data", {})
    if (doc.get("kind"), data.get("suite")) != ("report", suite):
        return [f"not a {suite} report"]
    fails = []
    if data.get("status") != "pass":
        fails.append(f"{suite} status {data.get('status')!r}")
    if data.get("truncated") is not False:
        fails.append(f"{suite} truncated")
    if not data.get("cases"):
        fails.append(f"{suite} ran no cases")
    return fails


def check_involution(text: str, model: Model, bp: str, n: int) -> list[str]:
    lines = text.splitlines()
    fields = dict(line.split(": ", 1) for line in lines[1:] if ": " in line)
    image = model.h[bp]
    counts = residue_counts(bp, model.e, model.regime)
    want = {
        "bipartition": bp,
        "h": image,
        "fixed": "yes" if image == bp else "no",
        "residues": " ".join(f"{k}:{v}" for k, v in counts.items()),
    }
    fails = [] if lines and lines[0] == model.header(n) else [f"header {lines[:1]}"]
    fails += [f"{k}: {fields.get(k)!r} != {v!r}" for k, v in want.items() if fields.get(k) != v]
    special = any(model.h[p] == p for p in model.parents.get(bp, []))
    if fields.get("almost-symmetric", "").startswith("yes") != special:
        fails.append(f"almost-symmetric {fields.get('almost-symmetric')!r}")
    printed = fields.get("h", "")  # the program's image, checked on its own
    if model.regime == "B":
        l, e = model.e // 2, model.e
        shifted = residue_counts(printed, e, "B")
        if any(shifted[k] != counts[(k + l) % e] for k in counts):
            fails.append(f"h({bp}) = {printed} breaks the residue balance under the shift by {l}")
        balanced = all(counts[k] == counts[(k + l) % e] for k in counts)
        if fields.get("balanced") != ("yes" if balanced else "no"):
            fails.append(f"balanced {fields.get('balanced')!r}")
    elif printed != format_bp(parse_bp(bp)[::-1]):
        fails.append(f"regime-A h({bp}) = {printed} is not the component swap")
    return fails
