"""Random stratified-complex instances plus an independent integer
oracle for the descent recursion.

The oracle mirrors the recursion on plain ints with None standing for
infinity; it shares no code with the engine.
"""

import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from catbound.extnat import INF, ExtNat
from catbound.facts import FactSheet
from catbound.model import GcwDescription, Ref, Universe

Val = Optional[int]          # None = unbounded


def random_instance(rng: random.Random, max_n: int = 6, max_orbits: int = 4):
    """Universe of opaque atoms with declared bounds, one stratified
    complex X over them, declared in the universe with its
    contractibility asserted, and the (cat, gd) table the oracle
    reads."""
    u = Universe()
    pool: List[Tuple[str, Val, Val]] = []
    for i in range(rng.randint(1, 5)):
        name = f"A{i}"
        s = FactSheet(name=name)
        if rng.random() < 0.25:
            gd: Val = None
            cat: Val = None if rng.random() < 0.5 else rng.randint(0, 4)
        else:
            gd = rng.randint(0, 6)
            cat = rng.randint(0, gd)
        s.gd_ub = INF if gd is None else ExtNat(gd)
        s.cat_ub["Am"] = INF if cat is None else ExtNat(cat)
        u.sheets[name] = s
        pool.append((name, cat, gd))
    n = rng.randint(1, max_n)
    dims = tuple(
        tuple(Ref(rng.choice(pool)[0])
              for _ in range(rng.randint(0, max_orbits)))
        for _ in range(n + 1))
    x = u.gcws["X"] = GcwDescription("X", dims, True)
    values: Dict[str, Tuple[Val, Val]] = {nm: (c, g) for nm, c, g in pool}
    return u, x, values


# -- None-aware arithmetic, deliberately separate from ExtNat -------------

def _add(a: Val, b: int) -> Val:
    return None if a is None else a + b


def _max(a: Val, b: Val) -> Val:
    if a is None or b is None:
        return None
    return max(a, b)


def _plus(a: Val, b: Val) -> Val:
    if a is None or b is None:
        return None
    return a + b


def _sup(xs) -> Val:
    best: Val = 0
    for x in xs:
        best = _max(best, x)
    return best


def _le(a: Val, b: Val) -> bool:
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


def oracle_recursion(x: GcwDescription,
                     values: Dict[str, Tuple[Val, Val]],
                     selection: FrozenSet[int]) -> Val:
    def cat(ref: Ref) -> Val:
        c, g = values[ref.name]
        # a declared dimension bound also caps the category
        if c is None:
            return g
        if g is None:
            return c
        return min(c, g)

    def gd(ref: Ref) -> Val:
        return values[ref.name][1]

    d = _sup(cat(r) for r in x.dims[0])
    for i in range(1, len(x.dims)):
        row = x.dims[i]
        if i in selection:
            d = _max(d, _sup(_add(gd(r), i) for r in row))
        else:
            d = _plus(d, _sup(_add(cat(r), 1) for r in row))
    return d


def oracle_exhaustive(x: GcwDescription,
                      values: Dict[str, Tuple[Val, Val]]) -> Val:
    n = len(x.dims) - 1
    best: Val = None
    for mask in range(1 << n):
        sel = frozenset(i + 1 for i in range(n) if mask & (1 << i))
        v = oracle_recursion(x, values, sel)
        if best is None or (v is not None and v < best):
            best = v
    return best
