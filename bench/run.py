#!/usr/bin/env python3
"""Query benchmark for catbound.

    python3 bench/run.py --workload nested --seed 1 --trace 0

Run from the root of a checkout; the program is imported from ./src.
One client issues queries in a closed loop, each an in-process
``catbound.cli.main(argv)`` call (stdout captured, only its size kept
beyond what the check reads) or a call into the Python API.  Every
output is checked against a hand-derived value (see workloads.py).

The timed phase runs whole passes over the workload's query list until
--seconds (by default run_seconds of BENCHMARK.json) have elapsed, so
every run sees the same query mix; the end-to-end metrics use the three
fastest timings of each query.  Set-up (import, input generation,
writing the model files, warm-up) is done once in this process and, in
an untraced run, once in each of eight child processes, run one at a
time between passes at even steps through the timed phase; the median
is reported.  The process runs with a fixed PYTHONHASHSEED, restarting
itself to set it.

The chain workload's probes run after the timed phase.  They are timed
and reported on their own lines, and are not operations of the run:
they do not enter `attempted` or `failed`.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes under span-recording wrappers (tracing.py), and
prints the per-layer metrics of the traced passes and the tracing
overhead; traced numbers never enter the end-to-end metrics.  The last
line of stdout is one JSON object with the metrics; the lines before it
give every metric with its unit, sample count and direction.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import workloads
from tracing import Tracer

CHILD_SETUPS = 8            # set-ups measured in child processes, spread
                            # through the timed phase
# String hashing is seeded per process, and the program's cost depends on
# the iteration order of its sets of names: the cat[Am] bound of a
# 200-link chain costs up to a quarter more under some hash seeds than
# under others.  One fixed hash seed keeps that out of the run-to-run
# spread.
HASH_SEED = "0"
MIN_QUERIES = 100           # timings kept per run, so that ten lie beyond p90
# Per query, only its KEEP fastest timings enter the end-to-end metrics.
# Other load on a shared machine slows every query by up to half for
# seconds at a time; a query's fastest timings leave most of that out,
# the more so the more passes a run makes.  Every workload has at least
# 36 queries, so three per query keep at least 100.
KEEP = 3
HEAD = 4096                 # stdout characters kept for a head-only check
TRACED_RECURSION_LIMIT = 4000     # the default limit plus room for wrapper frames


class Sink:
    'Stands in for sys.stdout / sys.stderr: counts bytes, keeps a head.'

    def __init__(self, keep: Optional[int]) -> None:
        self.size = 0
        self.parts: List[str] = []
        self.room = keep                    # None keeps everything

    def write(self, s: str) -> int:
        self.size += len(s) if s.isascii() else len(s.encode("utf-8"))
        if self.room is None:
            self.parts.append(s)
        elif self.room > 0:
            self.parts.append(s[:self.room])
            self.room -= len(s)
        return len(s)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


class Runner:
    'Runs one query against the imported program and checks its output.'

    def __init__(self, workdir: Path) -> None:
        import catbound.cli
        import catbound.dsl
        import catbound.engine
        import catbound.model
        self.cli, self.dsl = catbound.cli, catbound.dsl
        self.engine, self.model = catbound.engine, catbound.model
        self.workdir = workdir

    def run(self, q: workloads.Query) -> Tuple[float, Optional[str], int]:
        """Returns (seconds, problem or None, stdout bytes).

        Module attributes are looked up per call, so wrappers installed
        by the tracer are the ones called.
        """
        path = self.workdir / q.file
        if q.api is not None:
            return self._run_api(q, path)
        out, err = Sink(None if q.full else HEAD), Sink(HEAD)
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            code = self.cli.main(list(q.argv) + [str(path)])
        except (Exception, SystemExit) as exc:
            took = time.perf_counter() - start
            sys.stdout, sys.stderr = saved
            return took, f"raised {type(exc).__name__}: {str(exc)[:200]}", out.size
        took = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
        if code != q.exit:
            return took, f"exit {code}, expected {q.exit}: {err.text()[:300]}", out.size
        return took, q.check(out.text()), out.size

    def _run_api(self, q, path: Path):
        invariant, target, family = q.api
        dsl, engine = self.dsl, self.engine
        start = time.perf_counter()
        try:
            u, diags = dsl.load_text(path.read_text(encoding="utf-8"),
                                     dsl.load_prelude())
            if diags:
                took = time.perf_counter() - start
                return took, f"diagnostics: {diags[:3]}", 0
            ev = engine.Evaluator(u)
            ref = self.model.Ref(target)
            if invariant == "cat":
                r = ev.bound_cat(ref, u.families[family])
            else:
                r = getattr(ev, f"bound_{invariant}")(ref)
            replayed = engine.replay(r.trace)
        except Exception as exc:
            took = time.perf_counter() - start
            return took, f"raised {type(exc).__name__}: {str(exc)[:200]}", 0
        took = time.perf_counter() - start
        return took, q.check((r.value.to_json(), replayed.to_json())), 0


class Tally:
    'Attempted and failed operations, with the first few problems.'

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, q: workloads.Query, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.append(f"{q.label} {' '.join(q.argv)} {q.file}: {problem}")


def setup(name: str, seed: int, root: Path, workdir: Path):
    'Import, generate, write the model files, warm up.  Returns (runner, workload, seconds).'
    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    runner = Runner(workdir)
    if name == "fixtures":
        w = workloads.fixtures(seed, root / "tests" / "fixtures")
    else:
        w = workloads.WORKLOADS[name](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, text in w.files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    for q in w.warmup():
        runner.run(q)
    return runner, w, time.perf_counter() - start


def child_setup(args, root: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=root, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(runner: Runner, queries, tally: Tally, tracer: Optional[Tracer] = None,
             per_query: Optional[list] = None) -> List[float]:
    'Runs each query once; returns their times in order.'
    times = []
    for q in queries:
        took, problem, size = runner.run(q)
        times.append(took)
        tally.record(q, problem)
        if tracer is not None:
            per_query.append((size,) + tracer.end_query())
    return times


def timed_phase(runner: Runner, queries, seconds: float, tally: Tally,
                setup_child: Callable[[], float]) -> Tuple[List[List[float]], int, List[float]]:
    """Whole passes over `queries` until `seconds` have elapsed and
    MIN_QUERIES timings will be kept.  Between passes, runs the child
    set-ups that are due, CHILD_SETUPS of them at even steps through
    `seconds`, so that they meet the same spells of other load on the
    machine as the queries.  Returns the times of each query, the
    passes and the set-up times."""
    timings: List[List[float]] = [[] for _ in queries]
    due = [seconds * (i + 0.5) / CHILD_SETUPS for i in range(CHILD_SETUPS)]
    setups: List[float] = []
    passes = 0
    start = time.perf_counter()
    while min(passes, KEEP) * len(queries) < MIN_QUERIES or time.perf_counter() - start < seconds:
        for kept, took in zip(timings, run_pass(runner, queries, tally)):
            kept.append(took)
        passes += 1
        while len(setups) < len(due) and time.perf_counter() - start >= due[len(setups)]:
            setups.append(setup_child())
    return timings, passes, setups


def fastest(timings: List[List[float]]) -> List[float]:
    'Per query, its KEEP fastest timings.'
    kept: List[float] = []
    for times in timings:
        kept += sorted(times)[:KEEP]
    return kept


def traced_phase(runner: Runner, queries, seconds: float, tally: Tally, tracer: Tracer):
    """Pairs of passes, one untraced and one traced, until `seconds` have
    elapsed; alternating them keeps drift out of the overhead.

    Returns untraced and traced latencies, pairs, and per traced query
    (stdout bytes, distinct and expanded trace nodes).
    """
    untraced: List[float] = []
    traced: List[float] = []
    per_query: list = []
    pairs = 0
    start = time.perf_counter()
    limit = sys.getrecursionlimit()
    while pairs == 0 or time.perf_counter() - start < seconds:
        untraced += run_pass(runner, queries, tally)
        tracer.install()
        sys.setrecursionlimit(TRACED_RECURSION_LIMIT)   # room for the wrapper frames
        try:
            traced += run_pass(runner, queries, tally, tracer, per_query)
        finally:
            sys.setrecursionlimit(limit)
            tracer.uninstall()
        pairs += 1
    return untraced, traced, pairs, per_query


def percentile(values: List[float], p: int) -> float:
    'p-th percentile, p in 1..99, as statistics.quantiles(n=100) gives it.'
    return statistics.quantiles(values, n=100)[p - 1]


def end_to_end(latencies, setups, tally) -> Dict[str, Tuple[float, str, int, str]]:
    'The latency metrics and throughput come from the kept timings.'
    n = len(latencies)
    return {
        "query_ms.p50": (percentile(latencies, 50) * 1e3, "ms", n, "lower"),
        "query_ms.p90": (percentile(latencies, 90) * 1e3, "ms", n, "lower"),
        "queries_per_s": (n / sum(latencies), "1/s", n, "higher"),
        "setup_s": (statistics.median(setups), "s", len(setups), "lower"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1, "lower"),
        "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio",
                          tally.attempted, "higher"),
    }


# per-layer metrics that every workload exercises, and so print in the JSON;
# the workload-specific timings (replay, balls, curvature, stabilizers,
# certificates) are zero on some workloads and print in the report only
REPORT_ONLY = ("engine.replay_ms", "develop.ball_ms", "develop.curvature_ms",
               "develop.stabilizer_check_ms", "apps.certify_ms")


def per_layer(t: Tracer, per_query, traced: List[float], untraced: List[float]
              ) -> Dict[str, Tuple[float, str, int, str]]:
    n = len(per_query)

    def ms(group):
        return t.inclusive[group] * 1e3 / n

    def calls(*names):
        return sum(t.calls[x] for x in names)

    memo_gets = calls("facts.MemoTable.get")
    mul = calls("develop.AmalgamContext.mul")
    parse_s = t.inclusive["dsl.parse"]
    bound_calls = calls(*(f"engine.Evaluator.bound_{i}" for i in ("cat", "gd", "cd", "tc")))
    out = {
        "dsl.prelude_ms": (ms("dsl.prelude"), "ms/query", n, "lower"),
        "dsl.parse_ms": (ms("dsl.parse"), "ms/query", n, "lower"),
        "dsl.build_ms": (t.self_time["dsl.build"] * 1e3 / n, "ms/query", n, "lower"),
        "dsl.tokens_per_s": (t.tokens / parse_s if parse_s else 0.0, "tokens/s",
                             t.tokens, "higher"),
        "cli.self_ms": (t.self_time["cli.main"] * 1e3 / n, "ms/query", n, "lower"),
        "cli.output_bytes": (sum(s for s, _, _ in per_query) / n, "bytes/query", n,
                             "lower"),
        "model.validate_ms": (ms("model.validate"), "ms/query", n, "lower"),
        "model.table_verify_ms": (ms("model.table_verify"), "ms/query", n, "lower"),
        "model.resolve_calls": (calls("model.Universe.resolve",
                                      "model.Universe.resolve_chain") / n,
                                "calls/query", n, "lower"),
        "facts.membership_calls": (calls("facts.membership_with_reason") / n,
                                   "calls/query", n, "lower"),
        "facts.membership_ms": (ms("facts.membership"), "ms/query", n, "lower"),
        "facts.provably_calls": (calls("facts.provably_trivial", "facts.provably_nontrivial",
                                       "facts.provably_infinite") / n,
                                 "calls/query", n, "lower"),
        "engine.bound_calls": (bound_calls / n, "calls/query", n, "lower"),
        "engine.memo_hit_ratio": (t.memo_hits / memo_gets if memo_gets else 0.0,
                                  "ratio", memo_gets, "higher"),
        "engine.eval_ms": (ms("engine.eval"), "ms/query", n, "lower"),
        "engine.trace_nodes_distinct": (sum(d for _, d, _ in per_query) / n,
                                        "nodes/query", n, "lower"),
        "engine.trace_nodes_expanded": (sum(e for _, _, e in per_query) / n,
                                        "nodes/query", n, "lower"),
        "engine.to_json_ms": (ms("engine.to_json"), "ms/query", n, "lower"),
        "engine.assumptions_ms": (ms("engine.assumptions"), "ms/query", n, "lower"),
        "engine.replay_ms": (ms("engine.replay"), "ms/query", n, "lower"),
        "develop.ball_ms": (ms("develop.ball"), "ms/query", n, "lower"),
        "develop.ball_cells": (t.ball_cells / n, "cells/query", n, "lower"),
        "develop.amalgam_mul_calls": (mul / n, "calls/query", n, "lower"),
        "develop.mul_per_cell": (mul / t.tree_cells if t.tree_cells else 0.0,
                                 "calls/cell", t.tree_cells, "lower"),
        "develop.curvature_ms": (ms("develop.curvature"), "ms/query", n, "lower"),
        "develop.stabilizer_check_ms": (ms("develop.stabilizers"), "ms/query", n,
                                        "lower"),
        "apps.certify_ms": (ms("apps.certify"), "ms/query", n, "lower"),
        "apps.evaluators_built": (calls("engine.Evaluator.__init__") / n,
                                  "calls/query", n, "lower"),
        "trace.overhead_ms": ((statistics.fmean(traced) - statistics.fmean(untraced)) * 1e3,
                              "ms/query", len(traced), "lower"),
    }
    return out


def print_metrics(metrics, note: str = "") -> None:
    for name, (value, unit, samples, better) in metrics.items():
        print(f"{name:30s} {value:16.6f} {unit:12s} n={samples:<9d} "
              f"{better} is better{note if name in REPORT_ONLY else ''}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="length of the timed phase; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "catbound" / "__init__.py").is_file():
        print(f"error: {root} holds no src/catbound; run from a catbound checkout",
              file=sys.stderr)
        return 2
    scratch = root / ".bench_work"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            _, _, took = setup(args.workload, args.seed, root, workdir)
            print(took)
            return 0
        if args.seconds is None:
            bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
            args.seconds = bench["run_seconds"]
        runner, w, took = setup(args.workload, args.seed, root, workdir)
        return measure(args, root, runner, w, took, scratch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()                 # only when nothing else is left there
        except OSError:
            pass


def measure(args, root: Path, runner: Runner, w: workloads.Workload,
            own_setup: float, scratch: Path) -> int:
    tally = Tally()
    tracer = Tracer() if args.trace else None
    setups = [own_setup]
    if tracer is None:
        timings, passes, child_setups = timed_phase(
            runner, w.queries, args.seconds, tally, lambda: child_setup(args, root))
        setups += child_setups
        latencies = fastest(timings)
    else:
        latencies, traced, passes, per_query = traced_phase(
            runner, w.queries, args.seconds, tally, tracer)
    probes = []
    for q in w.probes:
        took, problem, _ = runner.run(q)
        probes.append((q, took * 1e3, problem))

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# closed loop, one client; {passes} {'pairs of passes' if tracer else 'passes'}"
          f" of {len(w.queries)} queries; set-up samples {[round(s, 4) for s in setups]}")
    for q, ms, problem in probes:
        print(f"# probe {' '.join(q.argv)} {q.file}: {ms:.1f} ms, "
              f"{problem or 'ok'} (not an operation of the run)")
    if probes:
        print(f"# probes failed: {sum(p is not None for _, _, p in probes)} of {len(probes)}")
    print(f"# failed_ratio {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for p in tally.problems:
        print(f"# problem: {p}")

    if tracer is None:
        print(f"# timings kept, the {KEEP} fastest of each query: {len(latencies)} "
              f"of {sum(map(len, timings))}")
        reported = end_to_end(latencies, setups, tally)
        print_metrics(reported)
    else:
        scratch.joinpath("spans").mkdir(parents=True, exist_ok=True)
        spans_file = scratch / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_file)
        metrics = per_layer(tracer, per_query, traced, latencies)
        print(f"# {len(tracer.spans)} spans written to {spans_file}; "
              f"per-query means over {len(traced)} traced queries")
        print(f"# tracing overhead: p50 {percentile(latencies, 50) * 1e3:.3f} ms untraced, "
              f"{percentile(traced, 50) * 1e3:.3f} ms traced")
        print(f"# memo hits {tracer.memo_hits} of {int(metrics['engine.memo_hit_ratio'][2])}"
              f" lookups")
        print_metrics(metrics, "  (report only)")
        reported = {k: v for k, v in metrics.items() if k not in REPORT_ONLY}

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                 + sys.argv[1:])
    sys.exit(main())
