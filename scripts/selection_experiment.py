#!/usr/bin/env python3
"""How much does optimizing the per-dimension rule choice buy?

Generates random stratified complexes over palettes of opaque atoms
with declared bounds, then compares three answers per instance: the
all-max endpoint, the all-sum endpoint, and the optimized mixed
selection.  Also times the ladder optimizer against a full scan of
all 2^n selections to confirm they agree.
"""

import argparse
import random
import time
from dataclasses import dataclass

from catbound.engine import Evaluator
from catbound.extnat import INF, ExtNat
from catbound.facts import AM, FactSheet
from catbound.model import GcwDescription, Ref, Universe


@dataclass
class Config:
    instances: int = 2000
    max_n: int = 10
    max_orbits: int = 4
    seed: int = 7


def random_instance(rng, cfg):
    u = Universe()
    names = []
    for i in range(rng.randint(1, 5)):
        name = f"A{i}"
        s = FactSheet(name=name)
        if rng.random() < 0.25:
            s.gd_ub = INF
            s.cat_ub["Am"] = INF if rng.random() < 0.5 \
                else ExtNat(rng.randint(0, 4))
        else:
            gd = rng.randint(0, 6)
            s.gd_ub = ExtNat(gd)
            s.cat_ub["Am"] = ExtNat(rng.randint(0, gd))
        u.sheets[name] = s
        names.append(name)
    n = rng.randint(1, cfg.max_n)
    dims = tuple(
        tuple(Ref(rng.choice(names))
              for _ in range(rng.randint(0, cfg.max_orbits)))
        for _ in range(n + 1))
    return u, GcwDescription("X", dims, True)


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
        u, x = random_instance(rng, cfg)
        ev = Evaluator(u)

        t0 = time.perf_counter()
        sel, best = ev.optimize_selection(x, AM)
        t_opt += time.perf_counter() - t0

        t0 = time.perf_counter()
        scan_best = min(
            ev.eval_recursion(x, AM,
                              frozenset(i + 1 for i in range(x.n)
                                        if mask & (1 << i)))
            for mask in range(1 << x.n))
        t_scan += time.perf_counter() - t0
        if scan_best != best:
            mismatches += 1

        vmax = ev.eval_recursion(x, AM, range(1, x.n + 1))
        vsum = ev.eval_recursion(x, AM, ())
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
            gaps.append(None)       # mixed selection rescued a finite bound

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
    print(f"optimizer {t_opt:.2f}s vs exhaustive scan {t_scan:.2f}s")
    print(f"optimizer/scan disagreements  {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
