"""Benchmark of the dnbranch command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # summary table
    python3 perfbench/run.py --record-digests                # re-record outputs

One closed-loop client runs ``python -m dnbranch.cli`` with
``PYTHONPATH=src`` as a subprocess, strictly one invocation at a time, and
checks every output (``gate.py``).  Each run gets private ``HOME``,
``DNBRANCH_CACHE`` and bytecode directories under ``.perfbench/`` and
removes them at the end.  Times are wall times scaled by the launcher's
speed probe (``launcher.py``), because this kind of shared host drifts in
speed by tens of percent.  The last stdout line is the result object; the
line before it holds the full report, including the metrics that apply to
only some workloads.

Workloads (see README.md for why each exists and what it should show):

* ``tables-B`` / ``tables-A``: sessions of ``lattice``, ``labels`` and
  full-level ``branch`` (JSON), each session on its own initially empty
  lattice cache, plus ``verify`` suites.  A pass runs every session and
  suite once, in an order drawn from the seed; passes repeat while another
  fits in ``--seconds``.
* ``queries``: single-label ``involution``, ``branch`` and ``dims`` requests
  drawn from the seed against a lattice cache filled during set-up, about
  one in ten of them a non-Kleshchev input that must exit 3.  A block holds
  each (point, command) pair once; blocks repeat while another fits.

``--trace 1`` runs one untraced and one traced pass of the same inputs.  The
traced pass runs each invocation through ``tracer.py``, which calls
``dnbranch.cli.main`` in-process with spans at module boundaries; the spans
are written to ``.perfbench/spans-<workload>-<seed>.json`` at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of bytecode
import gate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench"
DIGESTS = BENCH / "digests.json"

TABLE_SESSIONS = {
    "tables-B": [(4, 16), (6, 16), (2, 20)],
    "tables-A": [("inf", 14), (3, 16)],
}
TABLE_SUITES = {
    "tables-B": [("path-independence", 4, 9), ("uniqueness-distinctness", 6, 12)],
    "tables-A": [
        ("regime-a-decoupling", 3, 14),
        ("level1-calibration", 4, 20),
        ("semisimple-branching", "inf", 8),
        ("uniqueness-distinctness", "inf", 12),
    ],
}
# (e, n) query points, mixed n under each e; the cache is filled at the larger n
QUERY_POINTS = [(4, 16), (4, 12), (6, 14), (6, 10), ("inf", 12), ("inf", 9), (3, 14), (3, 10)]
BAD_PER_BLOCK = 3  # non-Kleshchev inputs among the 27 queries of a block
SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 50)
CALL_TIMEOUT_S = 150
WARMUP = ["dims", "--bipartition", "2,1|1,1"]

SPEED_REF_S = 0.025
UNITS: dict = {}  # metric name -> unit, read from BENCHMARK.json


# ---------------------------------------------------------------------------
# running the program


@dataclass
class Result:
    code: int
    out: bytes
    wall: float
    rss_mb: float
    speed: float  # mean time of the launcher's speed probe around the call
    spans: list = field(default_factory=list)

    @property
    def time(self) -> float:
        """Wall time scaled to a host on which the speed probe takes ``SPEED_REF_S``."""
        return self.wall * SPEED_REF_S / self.speed


class Runner:
    """Runs one invocation at a time, through ``launcher.py``, in a private directory."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.dirs = 0
        self.fresh_env()
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def fresh_dir(self, name: str) -> Path:
        self.dirs += 1
        path = self.tmp / f"{name}-{self.dirs}"
        path.mkdir(parents=True)
        return path

    def fresh_env(self) -> None:
        """New HOME and bytecode cache, so the next invocation starts cold."""
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": "src",
            "PYTHONPYCACHEPREFIX": str(self.fresh_dir("pycache")),
            "HOME": str(self.fresh_dir("home")),
            "TMPDIR": str(self.fresh_dir("tmp")),
            "LC_ALL": "C.UTF-8",
        }

    def run(self, argv: list[str], cache: Path, traced: bool = False) -> Result:
        """One ``dnbranch`` invocation, directly or through ``tracer.py``."""
        spans_path = self.tmp / "spans.json"
        if traced:
            result = self.launch([sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *argv], cache)
            if spans_path.exists():
                result.spans = json.loads(spans_path.read_text())["spans"]
                spans_path.unlink()
            return result
        return self.launch([sys.executable, "-m", "dnbranch.cli", *argv], cache)

    def launch(self, cmd: list[str], cache: Path) -> Result:
        out_path = self.tmp / "stdout"
        request = {
            "cmd": cmd, "cwd": str(ROOT), "env": dict(self.env, DNBRANCH_CACHE=str(cache)),
            "stdout": str(out_path), "stderr": str(self.tmp / "stderr"), "timeout": CALL_TIMEOUT_S,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return Result(reply["code"], out_path.read_bytes(), reply["wall"], reply["rss_kb"] / 1024,
                      statistics.fmean(reply["speed"]))

    def stderr_tail(self) -> str:
        return (self.tmp / "stderr").read_text(errors="replace")[-500:]


# ---------------------------------------------------------------------------
# invocations and their checks


@dataclass
class Call:
    kind: str
    argv: list[str]
    expect_code: int = 0
    deterministic: bool = True
    check: object = None  # stdout bytes -> list of failure strings

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _json_doc(out: bytes):
    try:
        return json.loads(out), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _checked_json(check):
    def run(out: bytes) -> list[str]:
        doc, fails = _json_doc(out)
        return fails if doc is None else check(doc)

    return run


class Models:
    """Reference models of lattice documents, shared across passes by digest."""

    def __init__(self):
        self.by_digest: dict = {}

    def get(self, out: bytes) -> gate.Model:
        digest = hashlib.sha256(out).hexdigest()
        if digest not in self.by_digest:
            self.by_digest[digest] = gate.Model(json.loads(out))
        return self.by_digest[digest]


def lattice_call(e, n, models: Models, holder: dict) -> Call:
    """``lattice --format json``; its model is kept in ``holder`` for later calls."""

    def check(out: bytes) -> list[str]:
        doc, fails = _json_doc(out)
        if doc is None:
            return fails
        model = holder["model"] = models.get(out)
        return list(model.failures) + (
            [] if doc.get("data", {}).get("n") == n else [f"lattice n != {n}"]
        )

    return Call("lattice", ["lattice", "--e", str(e), "--n", str(n), "--format", "json"], check=check)


def session_calls(e, n, models: Models) -> list[Call]:
    holder: dict = {}

    def with_model(check):
        def run(doc):
            model = holder.get("model")
            return ["no lattice model for this session"] if model is None else check(doc, model, n)

        return _checked_json(run)

    return [
        lattice_call(e, n, models, holder),
        Call("labels", ["labels", "--e", str(e), "--n", str(n), "--format", "json"],
             check=with_model(gate.check_labels)),
        Call("branch", ["branch", "--e", str(e), "--n", str(n), "--format", "json"],
             check=with_model(gate.check_branching)),
    ]


def suite_call(suite, e, n) -> Call:
    argv = ["verify", "--suite", suite, "--e", str(e), "--n", str(n), "--format", "json"]
    return Call("verify", argv, deterministic=False,
                check=_checked_json(lambda doc: gate.check_report(doc, suite)))


def _random_partition(k: int, rng: random.Random) -> tuple:
    parts = []
    while k:
        parts.append(rng.randint(1, min(k, parts[-1] if parts else k)))
        k -= parts[-1]
    return tuple(parts)


def random_bipartition(n: int, rng: random.Random) -> str:
    k = rng.randint(0, n)
    return gate.format_bp((_random_partition(k, rng), _random_partition(n - k, rng)))


def query_block(rng: random.Random, models: dict) -> list[Call]:
    """One of each (point, command), plus non-Kleshchev inputs, shuffled."""
    calls = []
    for e, n in QUERY_POINTS:
        model = models[e]
        level = model.levels[n]
        head = ["--e", str(e), "--n", str(n)]
        bp = rng.choice(level)
        calls.append(Call("involution", ["involution", *head, f"--bipartition={bp}"], deterministic=False,
                          check=lambda out, m=model, bp=bp, n=n: gate.check_involution(out.decode(), m, bp, n)))
        bp = rng.choice(level)
        calls.append(Call("branch", ["branch", *head, f"--bipartition={bp}", "--format", "json"],
                          deterministic=False, check=_checked_json(
                              lambda doc, m=model, bp=bp, n=n: _check_one_branch(doc, m, bp, n))))
        bp = random_bipartition(n, rng)
        want = f"{gate.dimension(bp)}\n".encode()
        calls.append(Call("dims", ["dims", f"--bipartition={bp}"], deterministic=False,
                          check=lambda out, want=want: [] if out == want else [f"dims {out!r} != {want!r}"]))
    finite = [(e, n) for e, n in QUERY_POINTS if e != "inf"]
    for k, (e, n) in enumerate(rng.sample(finite, BAD_PER_BLOCK)):
        members = models[e].level_of
        bp = random_bipartition(n, rng)
        while bp in members:
            bp = random_bipartition(n, rng)
        command = ("involution", "branch")[k % 2]
        calls.append(Call(command, [command, "--e", str(e), "--n", str(n), f"--bipartition={bp}"],
                          expect_code=3, deterministic=False,
                          check=lambda out: [] if not out else ["output on a non-Kleshchev input"]))
    rng.shuffle(calls)
    return calls


def _check_one_branch(doc, model: gate.Model, bp: str, n: int) -> list[str]:
    fails = gate.check_branching(doc, model, n, full=False)
    sources = [entry["source"] for entry in doc["data"]["entries"]]
    if sources != [model.branch_source(bp)]:
        fails.append(f"branch source {sources} for {bp}")
    return fails


def fill_points() -> dict:
    """Largest n per e among the query points: where set-up fills the cache."""
    out: dict = {}
    for e, n in QUERY_POINTS:
        out[e] = max(n, out.get(e, 0))
    return out


# ---------------------------------------------------------------------------
# the benchmark run


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def comparable_stdout(call: Call, out: bytes) -> bytes:
    """Stdout with run-dependent fields removed, for traced/untraced comparison."""
    if call.kind != "verify":
        return out
    doc = json.loads(out)
    doc["data"].pop("elapsed", None)
    return json.dumps(doc, sort_keys=True).encode()


class Bench:
    def __init__(self, workload: str, seed: int, runner: Runner):
        self.workload = workload
        self.rng = random.Random(seed)
        self.runner = runner
        self.digests = load_digests()
        self.models = Models()
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.calls: list[tuple[Call, Result]] = []

    # -- one invocation ---------------------------------------------------

    def invoke(self, call: Call, cache: Path, traced: bool = False, timed: bool = True) -> Result:
        result = self.runner.run(call.argv, cache, traced)
        fails = []
        if result.code != call.expect_code:
            fails.append(f"exit {result.code}, expected {call.expect_code}")
        else:
            if call.deterministic:
                want = self.digests.get(call.key)
                got = hashlib.sha256(result.out).hexdigest()
                if want != got:
                    fails.append("no recorded digest" if want is None else "stdout digest mismatch")
            if call.check is not None:
                try:
                    fails += call.check(result.out)
                except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                    fails.append(f"malformed output: {exc!r}")
        if timed:
            self.attempted += 1
            self.calls.append((call, result))
        if fails:
            self.failed += 1
            self.failures += [f"{call.key}: {f}" for f in fails[:3]]
        return result

    # -- set-up -------------------------------------------------------------

    def setup(self, repeats: int) -> list[float]:
        """Cold start-up and, for ``queries``, the cache fill; timed per repeat."""
        times = []
        for _ in range(repeats):
            self.runner.fresh_env()
            self.cache = self.runner.fresh_dir("cache")
            wall = self.invoke(Call("dims", WARMUP, deterministic=False,
                                    check=lambda out: [] if out == b"20\n" else ["warm-up dims"]),
                               self.cache, timed=False).time
            if self.workload == "queries":
                self.query_models = {}
                for e, n in fill_points().items():
                    holder: dict = {}
                    result = self.invoke(lattice_call(e, n, self.models, holder), self.cache, timed=False)
                    wall += result.time
                    self.query_models[e] = holder.get("model")
            times.append(wall)
        if self.failed:
            raise SystemExit(f"set-up failed: {self.failures[:5]}")
        return times

    # -- passes ---------------------------------------------------------------

    def make_pass(self) -> list[list[Call]]:
        """Units of calls; each unit gets its own empty lattice cache."""
        if self.workload == "queries":
            return [[call] for call in query_block(self.rng, self.query_models)]
        units = [session_calls(e, n, self.models) for e, n in TABLE_SESSIONS[self.workload]]
        units += [[suite_call(*spec)] for spec in TABLE_SUITES[self.workload]]
        self.rng.shuffle(units)
        return units

    def run_pass(self, units, traced: bool = False) -> list[tuple[Call, Result]]:
        done = []
        for unit in units:
            cache = self.cache if self.workload == "queries" else self.runner.fresh_dir("cache")
            for call in unit:
                done.append((call, self.invoke(call, cache, traced)))
        return done


def _pass_sums(done) -> dict:
    sums: dict = {"total": 0.0, "wall": 0.0}
    for call, result in done:
        sums[call.kind] = sums.get(call.kind, 0.0) + result.time
        sums["total"] += result.time
        sums["wall"] += result.wall
    return sums


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        rank = max(1, -(-len(ordered) * pct // 100))  # nearest rank
        if len(ordered) - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return None


def measure(bench: Bench, seconds: float, setup_times: list[float]) -> tuple[dict, dict]:
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) + statistics.median(p["wall"] for p in passes) <= seconds:
        passes.append(_pass_sums(bench.run_pass(bench.make_pass())))

    def per_pass(kind):
        return statistics.median(p.get(kind, 0.0) for p in passes)

    metrics = {
        "setup_s": statistics.median(setup_times),
        "total_s": per_pass("total"),
        "peak_rss_mb": max(result.rss_mb for _, result in bench.calls),
    }
    report = {name: [value, UNITS[name]] for name, value in metrics.items()}
    for kind in sorted({call.kind for call, _ in bench.calls}):
        report[f"{kind}_s"] = [per_pass(kind), "s", "per pass"]
    times = [result.time for _, result in bench.calls]
    if bench.workload == "queries":
        report["query_p50_s"] = [statistics.median(times), "s", f"of {len(times)} queries"]
        found = tail(times)
        if found:
            report["query_tail_s"] = [found[1], "s", f"p{found[0]:g} of {len(times)} queries"]
    report["wall_total_s"] = [per_pass("wall"), "s", "per pass, not speed-scaled"]
    report["error_rate"] = [bench.failed / bench.attempted, "ratio", f"{bench.failed} of {bench.attempted}"]
    info = {"passes": len(passes), "calls": len(times),
            "speed_probe_s": statistics.median(result.speed for _, result in bench.calls)}
    return metrics, {"report": report, **info}


# ---------------------------------------------------------------------------
# traced run


def _self_times(spans) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(traced, untraced_s: float, probes: list[dict]) -> dict:
    incl: dict = {}
    own: dict = {}
    calls: dict = {}
    counts: dict = {}
    spans_total = 0
    for _, result in traced:
        spans_total += len(result.spans)
        scale = SPEED_REF_S / result.speed
        for (name, start, end, _, c), self_s in zip(result.spans, _self_times(result.spans)):
            incl[name] = incl.get(name, 0.0) + (end - start) * scale
            own[name] = own.get(name, 0.0) + self_s * scale
            calls[name] = calls.get(name, 0) + 1
            for key, value in (c or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    traced_s = sum(result.time for _, result in traced)
    hits = counts.get("io.cache_load.hit", 0)
    lookups = calls.get("io.cache_load", 0)
    vertices = sum(p["vertices"] for p in probes)
    labels = counts.get("dmod.labels.labels", 0)
    split = counts.get("dmod.labels.split", 0)
    return {
        "cli.import_s": incl.get("cli.import", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "crystal.build_s": incl.get("crystal.build", 0.0),
        "crystal.build_calls": calls.get("crystal.build", 0),
        "crystal.signature_us_per_vertex": 1e6 * sum(p["sweep_s"] for p in probes) / vertices if vertices else 0.0,
        "crystal.canonical_path_s": incl.get("crystal.canonical_path", 0.0),
        "crystal.replay_path_s": incl.get("crystal.replay_path", 0.0),
        "crystal.vertices": counts.get("crystal.build.vertices", 0),
        "crystal.edges": counts.get("crystal.build.edges", 0),
        "crystal.peak_alloc_mb": max((p["peak_alloc_mb"] for p in probes), default=0.0),
        "dmod.involution_s": incl.get("dmod.involution", 0.0),
        "dmod.involution_calls": calls.get("dmod.involution", 0),
        "dmod.labels_s": incl.get("dmod.labels", 0.0),
        "dmod.socle_s": own.get("dmod.socle", 0.0),
        "dmod.labels": labels,
        "dmod.split_labels": split,
        "dmod.fixed_points": split // 2,
        "io.encode_s": incl.get("io.encode", 0.0),
        "io.doc_bytes": counts.get("io.encode.bytes", 0),
        "io.decode_s": incl.get("io.decode", 0.0),
        "io.cache_load_s": incl.get("io.cache_load", 0.0),
        "io.cache_store_s": incl.get("io.cache_store", 0.0),
        "io.cache_hits": hits,
        "io.cache_misses": lookups - hits,
        "io.cache_lookups": lookups,
        "io.cache_hit_ratio": hits / lookups if lookups else 0.0,
        **{f"oracle.{suite}_s": incl.get(f"oracle.{suite}", 0.0) for suite in (
            "path-independence", "semisimple-branching", "uniqueness-distinctness",
            "regime-a-decoupling", "level1-calibration")},
        "oracle.cases": sum(v for k, v in counts.items() if k.startswith("oracle.") and k.endswith(".cases")),
        "oracle.truncated": sum(v for k, v in counts.items() if k.startswith("oracle.") and k.endswith(".truncated")),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.spans": spans_total,
    }


def probe_points(workload: str) -> list:
    if workload == "queries":
        return list(fill_points().items())
    return TABLE_SESSIONS[workload]


def run_probe(bench: Bench, e, n) -> dict:
    cmd = [sys.executable, str(BENCH / "tracer.py"), "--probe", str(e), str(n)]
    result = bench.runner.launch(cmd, bench.runner.fresh_dir("cache"))
    if result.code != 0:
        raise RuntimeError(bench.runner.stderr_tail())
    probe = json.loads(result.out)
    probe["sweep_s"] *= SPEED_REF_S / result.speed
    return probe


def trace(bench: Bench, spans_file: Path) -> dict:
    units = bench.make_pass()
    untraced = bench.run_pass(units)
    traced = bench.run_pass(units, traced=True)
    for (call, plain), (_, with_spans) in zip(untraced, traced):
        if plain.code == with_spans.code == call.expect_code and \
                comparable_stdout(call, plain.out) != comparable_stdout(call, with_spans.out):
            bench.failed += 1
            bench.failures.append(f"{call.key}: stdout differs with tracing on")
    probes, absent = [], {}
    for e, n in probe_points(bench.workload):
        try:
            probes.append(run_probe(bench, e, n))
        except (RuntimeError, ValueError) as exc:
            absent[f"probe {e},{n}"] = str(exc)
    spans = [
        {"inv": inv, "call": call.key, "name": name, "start": start, "end": end, "parent": parent, "counts": counts}
        for inv, (call, result) in enumerate(traced)
        for name, start, end, parent, counts in result.spans
    ]
    spans_file.write_text(json.dumps(spans))
    untraced_s = sum(result.time for _, result in untraced)
    return {"metrics": layer_metrics(traced, untraced_s, probes), "absent": absent}


# ---------------------------------------------------------------------------
# entry points


def environment_info() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool, runner: Runner) -> dict:
    bench = Bench(workload, seed, runner)
    setup_times = bench.setup(1 if traced else SETUP_REPEATS)
    info: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced)}
    if traced:
        traced_out = trace(bench, WORK / f"spans-{workload}-{seed}.json")
        metrics = traced_out["metrics"]
        info["absent"] = traced_out["absent"]
    else:
        metrics, extra = measure(bench, seconds, setup_times)
        info.update(extra)
    info.update(environment_info())
    info["failures"] = bench.failures[:10]
    return {
        "info": info,
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        },
    }


def record_digests(runner: Runner) -> None:
    """Run every deterministic invocation once and store its stdout digest."""
    calls = [call for pts in TABLE_SESSIONS.values() for e, n in pts for call in session_calls(e, n, Models())]
    calls += [lattice_call(e, n, Models(), {}) for e, n in fill_points().items()]
    digests = {}
    for call in calls:
        result = runner.run(call.argv, runner.fresh_dir("cache"))
        if result.code != 0:
            raise SystemExit(f"{call.key} exited {result.code}")
        digests[call.key] = hashlib.sha256(result.out).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def summary(seed: int, seconds: float, runner: Runner) -> int:
    """Every end-to-end metric of every workload, by name and unit."""
    ok = True
    for workload in ("tables-B", "tables-A", "queries"):
        out = run_workload(workload, seed, seconds, False, runner)
        ok = ok and out["result"]["correct"]
        print(f"{workload}:")
        for name, (value, unit, *note) in out["info"]["report"].items():
            print(f"  {name:<16} {value:12.4f} {unit:<6} {' '.join(note)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["tables-B", "tables-A", "queries", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "dnbranch" / "cli.py").is_file():
        print(f"error: no dnbranch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    UNITS.update({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"run-{os.getpid()}"
    runner = Runner(tmp)
    try:
        if args.record_digests:
            record_digests(runner)
            return 0
        if args.workload == "all":
            return summary(args.seed, args.seconds, runner)
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), runner)
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)
    for failure in out["info"]["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps({"info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
