#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them.

    python3 bench/compare.py collect OUT [--seeds 1-10] [--trace 0]
    python3 bench/compare.py OLD [NEW]

``collect`` runs bench/run.py once per workload of BENCHMARK.json and
per seed, for BENCHMARK.json's run_seconds, from the current directory
(a catbound checkout), and saves each run's stdout as
OUT/<workload>-seed<n>-trace<t>.out.

Given one directory, the report shows per workload and metric the
median, the quartiles (statistics.quantiles(n=4)) and the spread,
(q3 - q1) / median, against the metric's bound in BENCHMARK.json, and
flags every spread wider than its bound.  Given two, it adds the change
of the median and a verdict: ``agree`` when both spreads are within the
bound and the medians differ by no more than the bound, ``better`` or
``worse`` when they differ by more, and ``unresolved`` when a spread is
wider than the bound, unless every run of one set beats every run of
the other.

Each workload also gets a row for its outputs: a run whose outputs were
not all correct, or a new set with more failed operations than the old,
is ``worse`` whatever the metrics say.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent


def spec() -> Dict[str, dict]:
    'Metric name -> {"better", "bound" (None for per-layer), "unit"}.'
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for m in bench["end_to_end"]:
        out[m["name"]] = {"better": m["better"], "bound": m["bound"], "unit": m["unit"]}
    for m in bench["per_layer"]:
        out[m["name"]] = {"better": m["better"], "bound": None, "unit": m["unit"]}
    return out


def load_runs(directory: Path):
    """From saved stdout files: workload -> metric -> values, one per run,
    and workload -> [(file name, correct, failed, attempted)]."""
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    outcomes: Dict[str, List[Tuple[str, bool, int, int]]] = defaultdict(list)
    for path in sorted(directory.glob("*.out")):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        header = dict(kv.split("=", 1) for kv in lines[0].lstrip("# ").split())
        result = json.loads(lines[-1])
        workload = header["workload"]
        for name, metric in result["metrics"].items():
            runs[workload][name].append(metric["value"])
        outcomes[workload].append((path.name, result["correct"], result["failed"],
                                   result["attempted"]))
    return runs, outcomes


def outputs_row(old, new) -> Tuple[str, bool]:
    """One line on the outputs of a workload's runs, and whether it is bad:
    a run with incorrect outputs, or more failed operations per run in
    `new`.  Per run, because a faster program attempts more queries in a
    run of the same length."""
    wrong = [f for f, correct, _, _ in old + (new or []) if not correct]
    failed_old = statistics.fmean(r[2] for r in old)
    line = (f"  outputs: {failed_old:g} failed per run, "
            f"{sum(r[2] for r in old)} of {sum(r[3] for r in old)} in {len(old)} runs")
    bad = bool(wrong)
    if new:
        failed_new = statistics.fmean(r[2] for r in new)
        line += (f"; new: {failed_new:g} per run, "
                 f"{sum(r[2] for r in new)} of {sum(r[3] for r in new)} in {len(new)} runs")
        if failed_new > failed_old:
            line += "  worse (more failed operations)"
            bad = True
    if wrong:
        line += f"  worse (incorrect outputs in {', '.join(wrong)})"
    return line, bad


def summary(values: List[float]):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(old: List[float], new: List[float], better: str, bound: float) -> str:
    m_old, _, _, s_old = summary(old)
    m_new, _, _, s_new = summary(new)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (m_new - m_old) / m_old
    if s_old > bound or s_new > bound:
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "better"
        if all(sign * (n - o) > 0 for n in new for o in old):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "agree"


def report(old: Path, new: Optional[Path]) -> int:
    metrics = spec()
    a, a_outcomes = load_runs(old)
    b, b_outcomes = load_runs(new) if new else (None, None)
    bad = 0
    for workload in sorted(a):
        print(f"== {workload}")
        line, wrong = outputs_row(a_outcomes[workload], (b_outcomes or {}).get(workload))
        print(line)
        bad += wrong
        for name, values in a[workload].items():
            info = metrics.get(name, {"better": "?", "bound": None, "unit": "?"})
            med, q1, q3, spread = summary(values)
            bound = info["bound"]
            line = (f"  {name:28s} {info['unit']:12s} median {med:14.6f}  "
                    f"q1 {q1:14.6f}  q3 {q3:14.6f}  spread {spread:7.4f}  n={len(values)}")
            if bound is not None:
                line += f"  bound {bound:.3f}"
                if b is None and spread > bound:
                    line += "  SPREAD OVER BOUND"
                    bad += 1
            if b is not None and name in b.get(workload, {}):
                other = b[workload][name]
                n_med, n_q1, n_q3, n_spread = summary(other)
                change = f"{(n_med - med) / med:+.4f}" if med else "n/a"
                line += (f"\n  {'new':>41s} {n_med:14.6f}  q1 {n_q1:14.6f}  q3 {n_q3:14.6f}"
                         f"  spread {n_spread:7.4f}  n={len(other)}  change {change}")
                if bound is not None:
                    v = verdict(values, other, info["better"], bound)
                    line += f"  {v}"
                    bad += v in ("worse", "unresolved")
            print(line)
    return 1 if bad else 0


def collect(out: Path, seeds: List[int], trace: int) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        for w in (w["name"] for w in bench["workloads"]):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            (out / f"{w}-seed{seed}-trace{trace}.out").write_text(proc.stdout, encoding="utf-8")
            print(f"{w} seed {seed}: {proc.stdout.strip().splitlines()[-1][:160]}")
    return 0


def seed_range(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "collect":
        ap = argparse.ArgumentParser(prog="compare.py collect")
        ap.add_argument("out", type=Path)
        ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = ap.parse_args(argv[1:])
        return collect(args.out, args.seeds, args.trace)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path, nargs="?")
    args = ap.parse_args(argv)
    return report(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
