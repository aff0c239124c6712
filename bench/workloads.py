"""Inputs, queries and expected outputs of the benchmark workloads.

Each workload is a function ``seed -> Workload``.  It returns the model
files to write (name -> .catb text), the queries of one pass, and for
``chain`` a fixed handful of probes.  The program under test sees only
those files and the argv of each query.

Every expected value below is derived by hand, either from PAPER.md or
from a closed form written next to its generator; none comes from
running catbound.  Every input is fixed per workload except for its
names and the order of its queries, which the seed picks, so runs with
different seeds do the same work.  The names to pick from have equal
lengths, because names fill the traces, so their length changes what a
JSON trace costs to print.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# A check gets the query's output and returns None, or what is wrong.
# CLI queries pass captured stdout; API queries pass (value, replayed).
Check = Callable[[object], Optional[str]]


@dataclass
class Query:
    label: str                          # query kind, e.g. "tc/json"
    check: Check
    argv: Tuple[str, ...] = ()          # catbound argv, model file appended
    file: Optional[str] = None          # model file name, relative to the work dir
    api: Optional[Tuple[str, str, Optional[str]]] = None  # (invariant, target, family)
    exit: int = 0
    full: bool = False                  # the check reads all of stdout, not its head
    size: int = 0                       # input size, for picking warm-up queries


@dataclass
class Workload:
    files: Dict[str, str]
    queries: List[Query]
    probes: List[Query] = field(default_factory=list)

    def warmup(self) -> List[Query]:
        'The smallest query of each kind.'
        best: Dict[str, Query] = {}
        for q in self.queries:
            if q.label not in best or q.size < best[q.label].size:
                best[q.label] = q
        return list(best.values())


# -- checks ---------------------------------------------------------------

def lines_check(*expected: str) -> Check:
    'stdout starts with exactly these lines.'
    return prefix_check("".join(line + "\n" for line in expected))


def prefix_check(prefix: str) -> Check:
    def check(out):
        if not out.startswith(prefix):
            return f"expected output starting {prefix!r}, got {out[:len(prefix) + 40]!r}"
        return None
    return check


_TOP_FIELD = re.compile(r'^  "(\w+)": (.*?),?$', re.M)


def json_head(out: str) -> Dict[str, object]:
    """Top-level scalar fields of indented JSON output, read from its head.

    Bound and certificate payloads put their scalars first, so the head
    of a multi-megabyte trace is enough to check the value.
    """
    fields: Dict[str, object] = {}
    for key, raw in _TOP_FIELD.findall(out):
        try:
            fields[key] = json.loads(raw)
        except ValueError:
            pass                        # an opening [ or {: not a scalar
    return fields


def fields_check(**expected) -> Check:
    def check(out):
        got = json_head(out)
        wrong = {k: got.get(k, "<missing>") for k, v in expected.items()
                 if got.get(k, "<missing>") != v}
        if wrong:
            return f"expected {expected!r}, got {wrong!r}"
        return None
    return check


def bound_checks(invariant: str, family: Optional[str], value) -> Tuple[Check, Check]:
    'Text and JSON checks of one bound; value is an int or "inf".'
    label = f"cat[{family}]" if invariant == "cat" else invariant
    return (lines_check(f"{label} <= {value}"),
            fields_check(invariant=invariant, family=family, value=value))


def api_check(value) -> Check:
    'An API result must have the value and replay to it.'
    def check(out):
        got, replayed = out
        if got != value or replayed != value:
            return f"expected {value!r}, got {got!r} replaying to {replayed!r}"
        return None
    return check


def biregular_levels(p: int, q: int, radius: int) -> List[int]:
    """Vertices per level of the (p, q)-biregular tree, rooted on the p side.

    The root has p neighbours; past it, vertices alternate between
    q - 1 and p - 1 further neighbours.
    """
    counts = [1]
    for level in range(1, radius + 1):
        if level == 1:
            counts.append(p)
        else:
            counts.append(counts[-1] * ((q - 1) if level % 2 == 0 else (p - 1)))
    return counts


# Every ball here is truncated: tree balls continue past their radius and
# polygon stars past their frontier cells.

def develop_json_check(levels: Optional[List[int]], dims: List[int],
                       orders: Dict[str, int]) -> Check:
    """Parse the whole ball and compare cell counts per dimension, vertex
    counts per level (tree balls), stabilizer orders and the flags."""
    def check(out):
        ball = json.loads(out)
        cells = ball["cells"]
        got_dims = [sum(1 for c in cells if c["dim"] == d) for d in range(len(dims))]
        problems = []
        if got_dims != dims or len(cells) != sum(dims):
            problems.append(f"cells per dim {got_dims}, expected {dims}")
        if levels is not None:
            got_levels = [sum(1 for c in cells if c["dim"] == 0 and c["level"] == lv)
                          for lv in range(len(levels))]
            if got_levels != levels:
                problems.append(f"vertices per level {got_levels}, expected {levels}")
        for kind, order in orders.items():
            got = {c["stab_order"] for c in cells if c["kind"] == kind}
            if got != {order}:
                problems.append(f"{kind} stabilizer orders {sorted(got)}, expected [{order}]")
        if ball["complete"] is not False or ball["stabilizers_consistent"] is not True:
            problems.append("wrong complete / stabilizers_consistent flags")
        return "; ".join(problems) or None
    return check


def develop_text_check(name: str, radius: int, dims: List[int],
                       orders: Dict[str, int]) -> Check:
    counts = ", ".join(f"dim {d}: {n}" for d, n in enumerate(dims))
    head = [f"ball around the base cell of {name}, radius {radius}"
            f" (truncated at the frontier)",
            f"cells: {counts}"]
    head += [f"stabilizer orders, {kind}: [{orders[kind]}]" for kind in sorted(orders)]
    return lines_check(*head)


def _both_formats(label: str, argv: Tuple[str, ...], file: str, size: int,
                  text: Check, js: Check, exit: int = 0,
                  full_json: bool = False) -> List[Query]:
    return [Query(f"{label}/text", text, argv, file, exit=exit, size=size),
            Query(f"{label}/json", js, argv + ("--format", "json"), file,
                  exit=exit, full=full_json, size=size)]


def bound_argv(target: str, invariant: str, family: Optional[str]) -> Tuple[str, ...]:
    if invariant == "tc":
        return ("tc", "--target", target)
    return ("bound", "--target", target) + (
        ("--family", family) if family else ("--invariant", invariant))


def _validate_queries(file: str, size: int, groups: int, homs: int,
                      setups: int) -> List[Query]:
    ok = lines_check(f"ok: {groups} groups, {homs} homomorphisms, "
                     f"3 families, {setups} setups")
    return _both_formats("validate", ("validate",), file, size, ok,
                         fields_check(ok=True))


# The standard prelude declares One, Z, Z2..Z6, F2 and F3.
PRELUDE_GROUPS = 9


# -- fixtures -------------------------------------------------------------

def fixtures(seed: int, fixture_dir: Path) -> Workload:
    """The invocations of scripts/run_fixtures.py, in text and JSON.

    Expected values are the headline numbers of PAPER.md where it gives
    them, otherwise hand derivations noted inline.
    """
    names = ("examples", "square_coxeter", "z4_polygon", "double_max",
             "double_sum", "branched_five")
    files = {f"{n}.catb": (fixture_dir / f"{n}.catb").read_text(encoding="utf-8")
             for n in names}
    ex, sq, bad = "examples.catb", "square_coxeter.catb", "z4_polygon.catb"
    q: List[Query] = []
    # groups = prelude + declared group names (amalgams and polygons count)
    for file, groups, homs, setups in ((ex, 12, 2, 0), (sq, 12, 3, 0),
                                       (bad, 11, 2, 0), ("double_max.catb", 10, 0, 1),
                                       ("double_sum.catb", 11, 0, 1),
                                       ("branched_five.catb", 11, 0, 1)):
        q += _validate_queries(file, 0, groups, homs, setups)
    # ZZ = F2 has cd 1; Am46 is an amalgam of finite groups; FC from PAPER.md;
    # FC = F2 *_Z F2 acts on a tree with Z edge stabilizers, so gd <= 1 + 1
    for target, inv, fam, value in (("ZZ", "cat", "Tr", 1), ("Am46", "cat", "Fin", 1),
                                    ("FC", "cat", "Am", 2), ("FC", "gd", None, 2),
                                    ("ZZ", "tc", None, 2)):
        q += _both_formats(f"bound-{inv}", bound_argv(target, inv, fam), ex, 0,
                           *bound_checks(inv, fam, value))
    # Am46 = Z4 *[Z2] Z6: the (2, 3)-biregular tree, 11 vertices to radius 3
    levels = biregular_levels(2, 3, 3)
    orders = {"edge": 2, "vertex-left": 4, "vertex-right": 6}
    dims = [sum(levels), sum(levels) - 1]
    q += _both_formats("develop-tree", ("develop", "--target", "Am46", "--radius", "3"),
                       ex, 0, develop_text_check("Am46", 3, dims, orders),
                       develop_json_check(levels, dims, orders), full_json=True)
    # SQ: square, V4 corners, Z2 edges, trivial face, link holds (m = 2 below)
    dims = polygon_star_dims(4, 2, [True] * 4)
    orders = polygon_star_orders(2)
    q += _both_formats("develop-polygon", ("develop", "--target", "SQ", "--radius", "1"),
                       sq, 0, develop_text_check("SQ", 1, dims, orders),
                       develop_json_check(None, dims, orders), full_json=True)
    q += _both_formats("curvature", ("check-curvature", "--target", "SQ"), sq, 0,
                       lines_check("link condition holds for SQ"),
                       fields_check(target="SQ", holds=True))
    # BAD: both edges enter each Z4 corner through {0, 2}
    q += _both_formats("curvature", ("check-curvature", "--target", "BAD"), bad, 0,
                       prefix_check("link condition fails for BAD at vertex 0: "
                                    "intersection {0, 2} ("),
                       fields_check(target="BAD", holds=False, vertex=0))
    # all three certificates land on n - 1 = 3 (PAPER.md, fixture comments)
    for file, target in (("double_max.catb", "DblMax"), ("double_sum.catb", "DblSum"),
                         ("branched_five.catb", "BrFive")):
        q += _both_formats("certify", ("certify", "--target", target), file, 0,
                           lines_check("conclusion: volume_vanishes", "category bound: 3"),
                           fields_check(conclusion="volume_vanishes", value=3))
    random.Random(seed).shuffle(q)
    return Workload(files, q)


# -- nested ---------------------------------------------------------------

# Depth 4 at most: a depth-5 tc in JSON takes a third of a second, and a
# pass that long leaves a run too few passes for steady fastest timings.
NESTED_DEPTHS = (2, 3, 4)


def nested_model(rng: random.Random, prefix: str, depth: int) -> str:
    """Graphs of groups nested `depth` deep over an infinite cyclic base.

    Level i is a path of copies of level i - 1, glued along level i - 1
    itself.  Level 1 has three vertices, every other level two.  The
    base is Z at even depths and a declared group with the invariants of
    Z at odd depths, so both ways of reaching the base are exercised;
    `rng` picks only vertex names.

    Closed forms (k = depth >= 2): the tree rule gives gd = k + 1; each
    category bound is reached by gog-max at k + 1 (gog-sum gives
    2k + 1); cd goes through cat[Tr] and is k + 1; tc is 2k + 2, from
    the edge-pair term gd(N x N) + 2 with gd(N_{k-1} x N_{k-1}) = 2k.
    """
    lines = []
    base = f"{prefix}Base"
    if depth % 2 == 0:
        lines.append(f"group {base} = Z;")
    else:
        lines.append(f"group {base} {{ gd <= 1; cd <= 1; tc <= 1; "
                     f"amenable = yes; finite = no; }}")
    prev = base
    for level in range(1, depth + 1):
        name = f"{prefix}{level}"
        width = 3 if level == 1 else 2
        vids = [f"{rng.choice('uvw')}{j}" for j in range(width)]
        lines.append(f"graph {name} {{")
        lines += [f"  vertex {v} = {prev};" for v in vids]
        for a, b in zip(vids, vids[1:]):
            lines.append(f"  edge {a} - {b} : {prev};")
        lines.append("}")
        prev = name
    return "\n".join(lines) + "\n"


def nested(seed: int) -> Workload:
    rng = random.Random(seed)
    files: Dict[str, str] = {}
    q: List[Query] = []
    for k in NESTED_DEPTHS:
        prefix = rng.choice(("Na", "Nb", "Gx", "Lv")) + f"d{k}x"
        file = f"nested{k}.catb"
        files[file] = nested_model(rng, prefix, k)
        target = f"{prefix}{k}"
        for inv, fam, value in (("cat", "Tr", k + 1), ("cat", "Fin", k + 1),
                                ("cat", "Am", k + 1), ("gd", None, k + 1),
                                ("cd", None, k + 1), ("tc", None, 2 * k + 2)):
            label = f"{inv}{'-' + fam if fam else ''}"
            q += _both_formats(label, bound_argv(target, inv, fam), file, k,
                               *bound_checks(inv, fam, value))
            q.append(Query(f"{label}/api", api_check(value), file=file,
                           api=(inv, target, fam), size=k))
    rng.shuffle(q)
    return Workload(files, q)


# -- chain ----------------------------------------------------------------

# geometric steps, so query costs spread evenly and no percentile sits on
# a gap between two clusters.  The cat[Am] bound grows about as the cube
# of the length; stopping at 63 links keeps a pass near a third of a
# second, so a run makes enough passes for each query's fastest timings
# to be steady.
CHAIN_LENGTHS = (16, 20, 25, 32, 40, 50, 63)
CHAIN_JSON_MAX = 40         # a JSON trace costs several times the text one
PROBE_LENGTHS = (300, 400)


def chain_model(prefix: str, links: int) -> str:
    """G0 = Z and Gi = G(i-1) *[One] Z, the free group of rank i + 1.

    Closed forms for i >= 1: gd = 1 (tree rule, trivial edge groups),
    and cat over Am, Fin and Tr is 1 (gog-max: vertex category at most
    1 against a trivial edge group shifted to 1).  The side order stays
    fixed: swapping it changes the cost of cat[Fin] several-fold.
    """
    lines = [f"group {prefix}0 = Z;"]
    lines += [f"amalgam {prefix}{i} = {prefix}{i - 1} *[One] Z;"
              for i in range(1, links + 1)]
    return "\n".join(lines) + "\n"


def _chain_queries(file: str, target: str, links: int, json_too: bool,
                   kinds) -> List[Query]:
    q: List[Query] = []
    for inv, fam in kinds:
        if inv == "validate":
            pair = _validate_queries(file, links, PRELUDE_GROUPS + links + 1, 0, 0)
        else:
            pair = _both_formats(f"bound-{inv}{'-' + fam if fam else ''}",
                                 bound_argv(target, inv, fam), file, links,
                                 *bound_checks(inv, fam, 1))
        q += pair if json_too else pair[:1]
    return q


def chain(seed: int) -> Workload:
    rng = random.Random(seed)
    files: Dict[str, str] = {}
    q: List[Query] = []
    for links in CHAIN_LENGTHS:
        prefix = rng.choice(("Ga", "Ch", "Fr", "Cb")) + f"l{links}x"
        file = f"chain{links}.catb"
        files[file] = chain_model(prefix, links)
        q += _chain_queries(file, f"{prefix}{links}", links, links <= CHAIN_JSON_MAX,
                            (("validate", None), ("cat", "Am"), ("cat", "Fin"),
                             ("gd", None)))
    rng.shuffle(q)
    # probes past the recursion limit: the same inputs for every seed
    probes: List[Query] = []
    for links in PROBE_LENGTHS:
        file = f"probe{links}.catb"
        files[file] = chain_model("P", links)
        probes += _chain_queries(file, f"P{links}", links, False,
                                 (("validate", None), ("gd", None)))
    return Workload(files, q, probes)


# -- develop --------------------------------------------------------------

# (a, b, radius): Z(2a) *[Z2] Z(2b), the (a, b)-biregular tree
BALLS = ((2, 3, 2), (2, 3, 4), (3, 3, 3), (3, 4, 4), (4, 5, 3), (4, 5, 4))
POLYGON_ORDERS = (3, 4, 5, 6, 7, 8)
# the polygons that meet the link condition: one of each d = 4, 5, 6
POLYGONS_HOLDING = (3, 5, 7)


def ball_model(name: str, a: int, b: int) -> str:
    return (f"group {name}L = cyclic({2 * a});\n"
            f"group {name}R = cyclic({2 * b});\n"
            f"hom {name}l : Z2 -> {name}L {{ 1 -> {a}; }}\n"
            f"hom {name}r : Z2 -> {name}R {{ 1 -> {b}; }}\n"
            f"amalgam {name} = {name}L *[Z2] {name}R with ({name}l, {name}r);\n")


# images of the generator of Zm in product(Zm, Zm), whose element (x, y)
# has index x*m + y: first factor, second factor, diagonal.  The three
# subgroups meet pairwise in the identity only.
def _subgroup_images(m: int) -> Dict[str, int]:
    return {"A": m, "B": 1, "D": m + 1}


def polygon_model(name: str, m: int, maps: List[Tuple[str, str]]) -> str:
    d = len(maps)
    img = _subgroup_images(m)
    lines = [f"group {name}E = cyclic({m});",
             f"group {name}V = product({name}E, {name}E);",
             f"group {name}F = cyclic(1);",
             f"hom {name}f : {name}F -> {name}E {{ 0 -> 0; }}"]
    lines += [f"hom {name}{t} : {name}E -> {name}V {{ 1 -> {v}; }}"
              for t, v in img.items()]
    pairs = ", ".join(f"({name}{o}, {name}{i})" for o, i in maps)
    lines.append(f"polygon {name} {{ d = {d}; vertex = {name}V; edge = {name}E; "
                 f"face = {name}F; edge_maps = [{pairs}]; "
                 f"face_maps = [{', '.join([name + 'f'] * d)}]; }}")
    return "\n".join(lines) + "\n"


def polygon_star_dims(d: int, m: int, holds_at: List[bool]) -> List[int]:
    """Cells of the radius-1 star of a d-gon with corner groups Zm x Zm,
    edge groups Zm embedded as order-m subgroups, trivial face group.

    Per corner: m - 1 further edges for each adjacent edge image (its
    non-identity cosets), and one corner face per element outside both
    images: (m - 1)^2 when they meet trivially, m^2 - m when they
    coincide.  Per base edge: m - 1 faces across it.
    """
    corners = sum((m - 1) ** 2 if ok else m * m - m for ok in holds_at)
    return [d, d + 2 * d * (m - 1), 1 + d * (m - 1) + corners]


def polygon_star_orders(m: int) -> Dict[str, int]:
    return {"edge": m, "face": 1, "vertex": m * m}


def develop(seed: int) -> Workload:
    """Tree balls of fixed sizes, and one d-gon per m with d = 4 + m mod 3.
    The gluing maps are fixed per m; the seed picks names and query order."""
    rng = random.Random(seed)
    files: Dict[str, str] = {}
    q: List[Query] = []
    for a, b, r in BALLS:
        name = f"{rng.choice(('Tr', 'Am', 'Bs'))}{a}{b}r{r}"
        file = f"{name}.catb"
        files[file] = ball_model(name, a, b)
        levels = biregular_levels(a, b, r)
        dims = [sum(levels), sum(levels) - 1]
        orders = {"edge": 2, "vertex-left": 2 * a, "vertex-right": 2 * b}
        q += _both_formats("develop-tree", ("develop", "--target", name, "--radius", str(r)),
                           file, len(levels) * a * b,
                           develop_text_check(name, r, dims, orders),
                           develop_json_check(levels, dims, orders),
                           full_json=True)
    for m in POLYGON_ORDERS:
        d = 4 + m % 3
        name = f"{rng.choice(('Pa', 'Qu', 'Po'))}{m}g{d}"
        file = f"{name}.catb"
        maps, bad_vertex = polygon_maps(random.Random(m), d, m in POLYGONS_HOLDING)
        files[file] = polygon_model(name, m, maps)
        holds_at = [maps[i - 1][1] != maps[i][0] for i in range(d)]
        dims = polygon_star_dims(d, m, holds_at)
        orders = polygon_star_orders(m)
        q += _both_formats("develop-polygon", ("develop", "--target", name, "--radius", "1"),
                           file, m, develop_text_check(name, 1, dims, orders),
                           develop_json_check(None, dims, orders),
                           full_json=True)
        if bad_vertex is None:
            text = lines_check(f"link condition holds for {name}")
            js = fields_check(target=name, holds=True)
        else:
            t = maps[bad_vertex][0]
            step = _subgroup_images(m)[t]
            witness = sorted(x * step % (m * m) for x in range(m))
            text = prefix_check(f"link condition fails for {name} at vertex {bad_vertex}: "
                                f"intersection {{{', '.join(map(str, witness))}}} (")
            js = fields_check(target=name, holds=False, vertex=bad_vertex)
        q += _both_formats("curvature", ("check-curvature", "--target", name), file, m,
                           text, js)
        # finite edge groups have infinite gd, so the polygon rule (when the
        # link condition admits it) and the no-rule fallback both give inf
        # and exit 2; the root rule tells them apart
        rule = "polygon-max" if bad_vertex is None else "no-rule"
        q += _both_formats("bound-polygon", bound_argv(name, "cat", "Fin"),
                           file, m, prefix_check(f"cat[Fin] <= inf\ntrace:\n  {rule} = inf  ("),
                           fields_check(invariant="cat", family="Fin", value="inf"),
                           exit=2)
    rng.shuffle(q)
    return Workload(files, q)


def polygon_maps(rng: random.Random, d: int, holds: bool
                 ) -> Tuple[List[Tuple[str, str]], Optional[int]]:
    """Gluing maps per edge (outgoing type, incoming type).  The link
    condition holds at corner i iff edge i - 1 arrives and edge i leaves
    through different subgroups.  Returns the first failing corner."""
    maps = [(rng.choice("ABD"), "") for _ in range(d)]
    for i in range(d):
        nxt = maps[(i + 1) % d][0]
        maps[i] = (maps[i][0], rng.choice([t for t in "ABD" if t != nxt]))
    bad = None
    if not holds:
        bad = rng.randrange(d)
        prev = (bad - 1) % d
        maps[prev] = (maps[prev][0], maps[bad][0])
    return maps, bad


WORKLOADS = {
    "fixtures": fixtures,
    "nested": nested,
    "chain": chain,
    "develop": develop,
}
