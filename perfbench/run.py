"""treewedge benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root (the script changes to it).  Workloads:

  oracle    the wedge-oracle suite at the default RunConfig, via run_suite
  symbolic  the other seven suites at the default RunConfig
  queries   a seeded stream of one-off CLI queries through cli.main, in process

``--seed`` is the RunConfig seed of the suites and the seed of the query
stream.  A run repeats passes over the workload's inputs for ``--seconds``
(at least ``MIN_PASSES``), checking every output, and reports the median
pass.  After each pass, and at the end until there are ``SETUP_REPS``, it
times fresh interpreters that import what the workload imports and build
its first structure, and reports their median.  With ``--trace 1`` it skips
the set-up timing, makes one traced pass after the untraced ones, runs the
coherent scaling probes, and reports per-module metrics instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import queries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("oracle", "symbolic", "queries")
ORACLE_SUITES = ("wedge-oracle",)
SYMBOLIC_SUITES = (
    "coherence",
    "delta-x",
    "tree-closure",
    "wedge-safe",
    "sorgenfrey",
    "forcing-ccc",
    "forcing-density",
)
MIN_PASSES = 3
SETUP_PER_PASS = 3
SETUP_REPS = 21

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
{build}
print(time.perf_counter() - t0)
"""
# Each child imports what its workload imports and builds the workload's
# first structure: the wedge-oracle suite's first tree, the first Workspace
# of the symbolic suites, or the context of the first query.
SETUP_BUILD = {
    "oracle": "from treewedge.suites import run_suite\nfrom treewedge.trees import ExplicitTree\nExplicitTree.complete(2, 2)",
    "symbolic": "from treewedge.suites import RunConfig, Workspace\nWorkspace(RunConfig(seed={seed}))",
    "queries": "from treewedge.cli import QueryContext\nfrom treewedge.suites import RunConfig\nQueryContext(RunConfig())",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter's first import of treewedge to the
    workload's first structure."""
    code = SETUP_CHILD.format(build=SETUP_BUILD[workload].format(seed=seed))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up child failed: {out.stderr.strip()}")
    return float(out.stdout.strip())


# --- passes ------------------------------------------------------------------------

class SuitePasses:
    """Suite workloads: one pass runs each suite once.  A pass is the
    request whose latency is timed; an operation checked is one suite
    property.  Every report must pass and be byte-identical to the first
    pass's report of the same suite."""

    def __init__(self, names, seed):
        from treewedge.suites import RunConfig

        self.names = names
        self.config = RunConfig(seed=seed)
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def run_pass(self) -> tuple[float, list[float]]:
        from treewedge import suites

        t0 = time.perf_counter()
        reports = [suites.run_suite(name, self.config) for name in self.names]
        wall = time.perf_counter() - t0
        for name, report in zip(self.names, reports):
            self.check(name, report)
        return wall, [wall]

    def check(self, name, report):
        text = json.dumps(report, sort_keys=True, indent=2)
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.attempted += len(report["properties"])
        for prop in report["properties"]:
            if not prop["passed"]:
                self.failures.append(f"{name}::{prop['name']} failed")
        if self.reference.setdefault(name, digest) != digest:
            self.failures.append(f"{name}: report bytes differ between passes")


class QueryPasses:
    """The queries workload: one pass runs the seeded stream once; an
    operation is one query."""

    def __init__(self, seed):
        self.stream = queries.make_stream(seed, queries.load_pool())
        self.attempted = 0
        self.undecided = 0
        self.failures = []

    def run_pass(self) -> tuple[float, list[float]]:
        from treewedge import cli

        results = []
        t0 = time.perf_counter()
        for query, _ in self.stream:
            results.append(queries.run_query(cli.main, query))
        wall = time.perf_counter() - t0
        for (query, golden), (_, code, out, _, error) in zip(self.stream, results):
            verdict = queries.check(query, code, out, error, golden)
            self.attempted += 1
            if verdict == "undecided":
                self.undecided += 1
            elif verdict != "ok":
                self.failures.append(f"{query!r}: {verdict}")
        return wall, [r[0] for r in results]


def make_passes(workload: str, seed: int):
    if workload == "oracle":
        return SuitePasses(ORACLE_SUITES, seed)
    if workload == "symbolic":
        return SuitePasses(SYMBOLIC_SUITES, seed)
    return QueryPasses(seed)


def measure(passes, seconds: float, after_pass) -> tuple[list[float], list[float]]:
    walls, op_times = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, ops = passes.run_pass()
        walls.append(wall)
        op_times.extend(ops)
        after_pass()
    return walls, op_times


# --- scaling probes ------------------------------------------------------------------

PROBE_CAP_S = 1.0
DELTA_LADDER_N = (8, 16, 32, 64, 128)
EVAL_SUCCESSOR_M = (1024, 2048, 4096, 8192, 16384, 32768, 65536)
PROBE_MIN_S = 0.05


def probe_point(call) -> float:
    """Median seconds of ``call()``, repeated until PROBE_MIN_S is spent."""
    times = []
    while sum(times) < PROBE_MIN_S or len(times) < 3:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
        if times[-1] > PROBE_CAP_S:
            break
    return statistics.median(times)


def loglog_slope(points) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den if den else 0.0


def scaling_probes() -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Doubling series for the two known super-linear coherent paths, each
    point on a fresh CoherentSystem.  A series stops after the first point
    over PROBE_CAP_S.  Cost grows with size, so each skipped point reads the
    time of the last measured point, a lower bound; ``.points`` counts the
    measured points, over which the slope is fitted."""
    from treewedge.coherent import CoherentSystem
    from treewedge.ordinal import parse_cnf

    series = {
        "coherent.delta_e_ladder": [
            (n, lambda n=n: CoherentSystem().delta_e(parse_cnf(f"w*{n}"), parse_cnf("w^2"))) for n in DELTA_LADDER_N
        ],
        "coherent.eval_e_successor": [
            (m, lambda m=m: CoherentSystem().eval_e(parse_cnf(f"w+{m}"), parse_cnf("3"))) for m in EVAL_SUCCESSOR_M
        ],
    }
    out, notes = {}, []
    for name, points in series.items():
        measured = []
        for size, call in points:
            cut = measured and measured[-1][1] > PROBE_CAP_S
            if not cut:
                measured.append((size, probe_point(call)))
            out[f"{name}.p{size}_s"] = (measured[-1][1], "s")
        out[f"{name}.points"] = (len(measured), "count")
        out[f"{name}.slope"] = (loglog_slope(measured), "ratio")
        notes.append(f"{name}: slope fitted over {len(measured)} of {len(points)} points")
    return out, notes


# --- reporting ------------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (0 < p < 100) of a non-empty list."""
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def emit(correct, attempted, failed, metrics, counts, notes):
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}{n}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    passes = make_passes(args.workload, args.seed)
    setup = []
    if args.trace:
        walls, op_times = measure(passes, args.seconds, lambda: None)
    else:
        # Set-up children run between passes, so that their median samples
        # the host's speed over the whole run.  The first child compiles
        # bytecode and is not counted.
        setup_seconds(args.workload, args.seed)

        def time_setup(count):
            for _ in range(count):
                setup.append(setup_seconds(args.workload, args.seed))

        walls, op_times = measure(passes, args.seconds, lambda: time_setup(SETUP_PER_PASS))
        time_setup(SETUP_REPS - len(setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shown = " ".join(f"{w:.3f}" for w in walls)
    notes = [f"workload {args.workload} seed {args.seed}: {len(walls)} passes of {shown} s"]
    counts = {}
    if args.trace:
        from tracing import BYPASS, Tracer

        tracer = Tracer().install()
        try:
            traced_wall, _ = passes.run_pass()
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        probes, probe_notes = scaling_probes()
        metrics.update(probes)
        notes.extend(probe_notes)
        for name in BYPASS[args.workload]:
            if metrics[name][0] != 0:
                passes.failures.append(f"bypass broken: {name} = {metrics[name][0]} on {args.workload}")
    else:
        ms = [t * 1000 for t in op_times]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "query_p50_ms": (percentile(ms, 50), "ms"),
            "query_p99_ms": (percentile(ms, 99), "ms"),
        }
        counts = {"setup_s": len(setup), "wall_s": len(walls), "query_p50_ms": len(ms), "query_p99_ms": len(ms)}
    undecided = getattr(passes, "undecided", 0)
    failed = len(passes.failures)
    notes.append(
        f"operations {passes.attempted}: {failed} failed, {undecided} undecided; "
        f"fail_frac (failed + undecided) / attempted = {(failed + undecided) / passes.attempted:.6g}"
    )
    notes.extend(f"FAIL {f}" for f in passes.failures[:20])
    emit(failed == 0, passes.attempted, failed, metrics, counts, notes)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            status = 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treewedge" / "__init__.py").is_file():
        print(f"error: no treewedge sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing must not vary between runs: set iteration order
        # steers some call paths, and the traced counts must repeat exactly
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
