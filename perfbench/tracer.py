"""Traced child process for the benchmark's per-layer run.

    python3 perfbench/tracer.py SPANS_FILE -- <dnbranch arguments>
    python3 perfbench/tracer.py --probe E N

The first form imports ``dnbranch.cli``, wraps the public functions listed in
``BOUNDARIES`` wherever a ``dnbranch`` module holds a reference to them, runs
``dnbranch.cli.main(argv)`` in this process and exits with its code.  Stdout
is the program's own.  Spans ``[name, start, end, parent, counts]`` are kept
in memory and written to SPANS_FILE when the call returns.  Functions called
millions of times, such as the signature rule, are deliberately not wrapped.

The second form measures what a span cannot: peak Python allocation of one
``build_lattice`` under ``tracemalloc``, and a timed sweep of ``i_signature``
over every (vertex, residue of a marked cell) of that lattice.  It prints
one JSON object.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


def _lattice_counts(lattice):
    return {
        "vertices": sum(len(level) for level in lattice.levels),
        "edges": sum(len(level_edges) for level_edges in lattice.edges),
    }


def _label_counts(labels):
    return {"labels": len(labels), "split": sum(lbl.kind == "split" for lbl in labels)}


def _report_counts(report):
    return {"cases": report.cases, "truncated": int(report.truncated)}


# (module, function, span name, counts taken from the return value)
BOUNDARIES = [
    ("crystal", "build_lattice", "crystal.build", _lattice_counts),
    ("crystal", "canonical_path", "crystal.canonical_path", None),
    ("crystal", "replay_path", "crystal.replay_path", None),
    ("dmod", "involution", "dmod.involution", None),
    ("dmod", "equivalence_classes", "dmod.labels", _label_counts),
    ("dmod", "socle_restriction", "dmod.socle", None),
    ("dmod", "branching_graph", "dmod.branching", None),
    ("io", "serialize_json", "io.encode", lambda text: {"bytes": len(text)}),
    ("io", "parse_json", "io.decode", None),
    ("io", "cache_load", "io.cache_load", lambda lattice: {"hit": int(lattice is not None)}),
    ("io", "cache_store", "io.cache_store", None),
    ("oracle", "bipartition_dimension", "oracle.dims", None),
    ("oracle", "verify_h_path_independence", "oracle.path-independence", _report_counts),
    ("oracle", "verify_semisimple_branching", "oracle.semisimple-branching", _report_counts),
    ("oracle", "verify_uniqueness_and_distinctness", "oracle.uniqueness-distinctness", _report_counts),
    ("oracle", "verify_regime_a_decoupling", "oracle.regime-a-decoupling", _report_counts),
    ("oracle", "verify_level1_calibration", "oracle.level1-calibration", _report_counts),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, clock(), None, self.stack[-1] if self.stack else -1, None])
        self.stack.append(index)
        return index

    def close(self, index: int, counts=None) -> None:
        self.spans[index][2] = clock()
        self.stack.pop()
        self.spans[index][4] = counts

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, counter(out) if counter else None)
            return out

        return traced

    def install(self) -> list[str]:
        """Wrap every boundary function; return the names that were not found."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dnbranch"]
        missing = []
        for module, function, name, counter in BOUNDARIES:
            fn = getattr(sys.modules.get(f"dnbranch.{module}"), function, None)
            if fn is None:
                missing.append(f"{module}.{function}")
                continue
            traced = self.wrap(name, fn, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, traced)
        return missing


def run_traced(spans_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    index = tracer.open("cli.import")
    import dnbranch.cli

    tracer.close(index)
    missing = tracer.install()
    index = tracer.open("cli.main")
    try:
        code = dnbranch.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.close(index)
        sys.stdout.flush()
    with open(spans_file, "w") as handle:
        json.dump({"spans": tracer.spans, "missing": missing}, handle)
    return code


def _marked_steps(bp, params) -> set:
    """Steps of the addable and removable cells, from the diagram alone."""
    steps = set()
    for comp, parts in enumerate(bp):
        rows = len(parts)
        cells = [(rows + 1, 1)]
        for row, length in enumerate(parts, start=1):
            below = parts[row] if row < rows else 0
            if length > below:
                cells.append((row, length))  # removable
            if row == 1 or parts[row - 2] > length:
                cells.append((row, length + 1))  # addable
        for row, col in cells:
            content = col - row
            if params.regime == "B":
                steps.add(((content + params.multicharge[comp]) % params.e, None))
            else:
                steps.add((content if params.l == float("inf") else content % params.l, comp + 1))
    return steps


def probe(e_text: str, n: int) -> dict:
    import tracemalloc

    from dnbranch.core import INF, classify_regime
    from dnbranch.crystal import build_lattice, i_signature

    params = classify_regime(n, INF if e_text == "inf" else int(e_text))
    tracemalloc.start()
    lattice = build_lattice(n, params)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    work = [
        (bp, i, comp)
        for level in lattice.levels
        for bp in level
        for i, comp in sorted(_marked_steps(bp, params), key=str)
    ]
    start = clock()
    for bp, i, comp in work:
        i_signature(bp, i, params, comp)
    sweep = clock() - start
    return {
        "peak_alloc_mb": peak / 2**20,
        "sweep_s": sweep,
        "vertices": sum(len(level) for level in lattice.levels),
        "evaluations": len(work),
    }


if __name__ == "__main__":
    if sys.argv[1] == "--probe":
        print(json.dumps(probe(sys.argv[2], int(sys.argv[3]))))
    else:
        sys.exit(run_traced(sys.argv[1], sys.argv[3:]))
