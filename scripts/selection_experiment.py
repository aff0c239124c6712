#!/usr/bin/env python3
"""How much does the greedy arm choice of the complex rule buy?

Generates random stratified complexes over palettes of opaque atoms
with declared bounds (tests/gencw.py), then compares three answers per
instance: the all-max endpoint, the all-sum endpoint, and the engine's
bound, which takes the smaller arm at each dimension.  Also times the
engine against a full scan of all 2^n arm choices, evaluated by the
fixed-choice recursion in tests/oracles.py, to confirm they agree.

Run from the root of a checkout: PYTHONPATH=src python
scripts/selection_experiment.py.
"""

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from catbound.engine import Evaluator
from catbound.facts import AM
from catbound.model import Ref

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from gencw import random_instance  # noqa: E402
from oracles import ladder_value  # noqa: E402


@dataclass
class Config:
    instances: int = 2000
    max_n: int = 10
    max_orbits: int = 4
    seed: int = 7


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=Config.instances)
    ap.add_argument("--max-n", type=int, default=Config.max_n)
    ap.add_argument("--max-orbits", type=int, default=Config.max_orbits)
    ap.add_argument("--seed", type=int, default=Config.seed)
    args = ap.parse_args()
    cfg = Config(args.instances, args.max_n, args.max_orbits, args.seed)
    rng = random.Random(cfg.seed)

    max_wins = sum_wins = mixed_strict = ties = 0
    gaps = []
    t_opt = t_scan = 0.0
    mismatches = 0

    for _ in range(cfg.instances):
        u, x, _ = random_instance(rng, cfg.max_n, cfg.max_orbits)
        ev = Evaluator(u)

        t0 = time.perf_counter()
        best = ev.bound_cat(Ref(x.name), AM).value
        t_opt += time.perf_counter() - t0

        t0 = time.perf_counter()
        scan_best = min(
            ladder_value(ev, x, AM,
                         frozenset(i + 1 for i in range(x.n) if mask & (1 << i)))
            for mask in range(1 << x.n))
        t_scan += time.perf_counter() - t0
        if scan_best != best:
            mismatches += 1

        vmax = ladder_value(ev, x, AM, frozenset(range(1, x.n + 1)))
        vsum = ladder_value(ev, x, AM, frozenset())
        lo = min(vmax, vsum)
        if vmax == vsum == best:
            ties += 1
        elif vmax == best:
            max_wins += 1
        elif vsum == best:
            sum_wins += 1
        else:
            mixed_strict += 1
        if best.v is not None and lo.v is not None:
            gaps.append(lo.v - best.v)
        elif lo.v is None and best.v is not None:
            gaps.append(None)       # a mixed choice rescued a finite bound

    print(f"instances          {cfg.instances}  (max n = {cfg.max_n}, "
          f"seed = {cfg.seed})")
    print(f"endpoints tie      {ties}")
    print(f"max endpoint wins  {max_wins}")
    print(f"sum endpoint wins  {sum_wins}")
    print(f"mixed strictly beats both  {mixed_strict}")
    finite_gaps = [g for g in gaps if g is not None]
    rescued = sum(1 for g in gaps if g is None)
    if finite_gaps:
        print(f"mean gap over best endpoint  "
              f"{sum(finite_gaps) / len(finite_gaps):.3f}")
    print(f"finite bound where both endpoints blow up  {rescued}")
    print(f"engine {t_opt:.2f}s vs exhaustive scan {t_scan:.2f}s")
    print(f"engine/scan disagreements  {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
