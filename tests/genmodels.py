"""Generated declaration models.

random_model() emits declarations in the parser's normal form, so
serialize-then-parse must reproduce them exactly.  Names need not
resolve: round-tripping is purely syntactic.  nested_text() writes a
model whose derivations share subderivations many times over.
"""

import random
from typing import List, Optional, Tuple

from catbound.apps import (BoundaryComponent, BranchedSetup, DoubleSetup,
                           GluingSetup, Piece)
from catbound.dsl import (AmalgamDecl, CyclicCtor, FactEntry, GroupDecl,
                          HomDecl, ProductCtor, SourceModel, TableCtor)
from catbound.extnat import INF, ExtNat
from catbound.facts import Family, FamilyKind, Tri
from catbound.model import (DirectProduct, Edge, FreeProduct, GcwDescription,
                            GraphOfGroups, PolygonOfGroups, Ref, TrivialGroup)

_TRIS = ("yes", "no", "unknown")


class _Names:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, prefix: str = "G") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"


def random_expr(rng: random.Random, depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return Ref(rng.choice(["A", "B", "C", "Zed", "Q9"]))
    if roll < 0.55:
        return TrivialGroup()
    # chains have at least two operands, so singleton compounds are not
    # parser normal form
    factors = tuple(random_expr(rng, depth - 1)
                    for _ in range(rng.randint(2, 3)))
    if roll < 0.8:
        return DirectProduct(factors)
    return FreeProduct(factors)


def random_extnat(rng: random.Random) -> ExtNat:
    if rng.random() < 0.15:
        return INF
    return ExtNat(rng.randint(0, 9))


def random_fact(rng: random.Random) -> FactEntry:
    roll = rng.randint(0, 4)
    by = rng.choice([None, "a reason", 'quoted "deep" reason'])
    if roll == 0:
        return FactEntry("bound", rng.choice(("gd", "cd", "tc")),
                         value=random_extnat(rng), by=by)
    if roll == 1:
        return FactEntry("cat", rng.choice(("Am", "Fin", "Tr", "Nice")),
                         value=random_extnat(rng), by=by)
    if roll == 2:
        return FactEntry("flag", rng.choice(("amenable", "finite")),
                         tri=rng.choice(_TRIS))
    if roll == 3:
        return FactEntry("flag", "trivial", tri="yes")
    return FactEntry("member", rng.choice(("Am", "Fin", "Nice")),
                     tri=rng.choice(("yes", "no")))


def random_group(rng: random.Random, names: _Names) -> GroupDecl:
    name = names.fresh()
    roll = rng.randint(0, 4)
    if roll == 0:
        rhs = None
    elif roll == 1:
        rhs = random_expr(rng)
    elif roll == 2:
        rhs = CyclicCtor(rng.randint(1, 12))
    elif roll == 3:
        rhs = ProductCtor(tuple(names.fresh("P")
                                for _ in range(rng.randint(1, 3))))
    else:
        rhs = TableCtor(((0, 1), (1, 0)))
    facts = tuple(random_fact(rng) for _ in range(rng.randint(0, 3)))
    return GroupDecl(name, rhs, facts)


def random_amalgam(rng: random.Random, names: _Names) -> AmalgamDecl:
    maps: Optional[Tuple[str, str]] = None
    if rng.random() < 0.5:
        maps = (names.fresh("h"), names.fresh("h"))
    side = lambda: rng.choice([Ref("A"), TrivialGroup(),
                               DirectProduct((Ref("A"), Ref("B")))])
    return AmalgamDecl(names.fresh(), side(), random_expr(rng, 1), side(), maps)


def random_family(rng: random.Random, names: _Names) -> Family:
    name = names.fresh("Fam")
    if rng.random() < 0.6:
        return Family(name, rng.choice((FamilyKind.TRIVIAL, FamilyKind.FINITE,
                                        FamilyKind.AMENABLE)))
    req = tuple((flag, Tri(rng.choice(_TRIS)))
                for flag in rng.sample(("amenable", "finite", "trivial"),
                                       rng.randint(1, 2)))
    return Family(name, FamilyKind.CUSTOM, req)


def random_hom(rng: random.Random, names: _Names) -> HomDecl:
    pairs = tuple((rng.randint(0, 9), rng.randint(0, 9))
                  for _ in range(rng.randint(1, 3)))
    return HomDecl(names.fresh("h"), names.fresh(), names.fresh(), pairs)


def random_graph(rng: random.Random, names: _Names) -> GraphOfGroups:
    ids = [f"v{i}" for i in range(rng.randint(1, 3))]
    vertices = tuple((vid, random_expr(rng, 1)) for vid in ids)
    edges = tuple(
        Edge(rng.choice(ids), rng.choice(ids), random_expr(rng, 1),
             (names.fresh("h"), names.fresh("h"))
             if rng.random() < 0.4 else None)
        for _ in range(rng.randint(0, 2)))
    return GraphOfGroups(names.fresh(), vertices, edges)


def random_polygon(rng: random.Random, names: _Names) -> PolygonOfGroups:
    d = rng.randint(3, 6)
    uniform = rng.random() < 0.5
    if uniform:
        v = random_expr(rng, 1)
        vertices = (v,) * d
        e = random_expr(rng, 1)
        edges = (e,) * d
    else:
        vertices = tuple(random_expr(rng, 1) for _ in range(d))
        edges = tuple(random_expr(rng, 1) for _ in range(d))
    edge_maps = None
    face_maps = None
    if rng.random() < 0.5:
        edge_maps = tuple((names.fresh("h"), names.fresh("h")) for _ in range(d))
        face_maps = tuple(names.fresh("h") for _ in range(d))
    return PolygonOfGroups(names.fresh(), d, vertices, edges,
                           random_expr(rng, 0), edge_maps, face_maps)


def random_gcw(rng: random.Random, names: _Names) -> GcwDescription:
    top = rng.randint(0, 3)
    dims: List[tuple] = [tuple(random_expr(rng, 1)
                               for _ in range(rng.randint(0, 3)))
                         for _ in range(top + 1)]
    # the top dimension must be inhabited or it would not be the top
    if not dims[-1]:
        dims[-1] = (random_expr(rng, 1),)
    return GcwDescription(names.fresh(), tuple(dims), rng.random() < 0.6)


def random_boundary(rng: random.Random, i: int) -> BoundaryComponent:
    return BoundaryComponent(f"s{i}", random_expr(rng, 1),
                        rng.random() < 0.6,
                        random_extnat(rng) if rng.random() < 0.4 else None)


def random_gluing(rng: random.Random, names: _Names) -> GluingSetup:
    pieces = []
    for i in range(rng.randint(1, 3)):
        bounds = tuple(random_boundary(rng, j)
                       for j in range(rng.randint(0, 2)))
        pieces.append(Piece(
            f"m{i}", random_expr(rng, 1),
            random_extnat(rng) if rng.random() < 0.4 else None, bounds))
    pairs = []
    slots = [(p.id, b.id) for p in pieces for b in p.boundaries]
    rng.shuffle(slots)
    while len(slots) >= 2 and rng.random() < 0.6:
        pairs.append((slots.pop(), slots.pop()))
    return GluingSetup(names.fresh("Set"), rng.randint(2, 6), tuple(pieces),
                      tuple(pairs), rng.random() < 0.7)


def random_double(rng: random.Random, names: _Names) -> DoubleSetup:
    bounds = tuple(random_boundary(rng, j) for j in range(rng.randint(1, 3)))
    # the parser names a double's one piece "M"
    return DoubleSetup(names.fresh("Set"), rng.randint(2, 6),
                       Piece("M", random_expr(rng, 1),
                             random_extnat(rng) if rng.random() < 0.4 else None,
                             bounds))


def random_branched(rng: random.Random, names: _Names) -> BranchedSetup:
    wall_embeds = None
    core_embeds = None
    if rng.random() < 0.4:
        wall_embeds = (names.fresh("h"), names.fresh("h"))
    if rng.random() < 0.4:
        core_embeds = names.fresh("h")
    return BranchedSetup(names.fresh("Set"), rng.randint(3, 6),
                         rng.randint(1, 6), random_expr(rng, 1),
                         random_expr(rng, 1), random_expr(rng, 0),
                         rng.random() < 0.6, rng.random() < 0.6,
                         wall_embeds, core_embeds)


_MAKERS = (random_group, random_amalgam, random_family, random_hom,
           random_graph, random_polygon, random_gcw, random_gluing,
           random_double, random_branched)


def random_model(rng: random.Random) -> SourceModel:
    names = _Names()
    decls = tuple(rng.choice(_MAKERS)(rng, names)
                  for _ in range(rng.randint(1, 6)))
    return SourceModel(decls)


def nested_text(depth: int, width: int) -> str:
    """Graphs of groups N1..N<depth> over B0 = Z.

    Level i is a path of `width` vertices, each a copy of level i - 1,
    with edge groups B0.  Every bound on N<depth> cites the bound on
    N<depth - 1> once per vertex, so its trace as a tree has about
    width ** depth nodes; shared, it grows linearly in depth.
    """
    lines = ["group B0 = Z;"]
    prev = "B0"
    for level in range(1, depth + 1):
        vids = [f"v{j}" for j in range(width)]
        lines.append(f"graph N{level} {{")
        lines += [f"  vertex {v} = {prev};" for v in vids]
        lines += [f"  edge {a} - {b} : B0;" for a, b in zip(vids, vids[1:])]
        lines.append("}")
        prev = f"N{level}"
    return "\n".join(lines) + "\n"
