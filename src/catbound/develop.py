"""Developments of concrete group data.

Everything here works on multiplication tables: coset enumeration,
the normal form of an amalgam of two concrete finite groups over a
common concrete edge group (Serre, Trees, I.1), finite balls of its
Bass-Serre tree at a cost of O(stabilizer order x level) per cell, the
radius-1 star of a polygon development, the link condition at polygon
vertices, and stabilizer bookkeeping checks.  The injections come from
model.edge_injections and model.polygon_charts, the checks validate()
runs; a problem they report is a ValueError here.

Scope restrictions (deliberate, desk scale):

  * balls of the tree are built only for single-vertex graphs and for
    two-vertex one-edge graphs with concrete groups and maps;
  * polygon developments are built only out to radius 1 (the closed
    star of the base face), with frontier cells recorded partially;
  * a tree ball's radius is at most RADIUS_LIMIT, and no ball holds
    more than CELL_LIMIT cells.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .model import (ConcreteFiniteGroup, GraphOfGroups, Homomorphism,
                    PolygonCharts, PolygonOfGroups, Ref, Universe,
                    edge_injections, polygon_charts)


# guards against oversized input
RADIUS_LIMIT = 4
CELL_LIMIT = 10_000


# -- amalgam normal forms -------------------------------------------------

Syllable = Tuple[int, int]
# AmalgamElement(c, word) runs a Python-level __new__; `step`, which
# builds every element of a ball, calls the C constructor directly
_new = tuple.__new__


class AmalgamElement(NamedTuple):
    """Normal form t_1 ⋯ t_k · c in an amalgam over C (Serre, Trees, I.1).

    The word holds (side, t) syllables with alternating sides, each t a
    non-identity representative of a left coset t·im(C) in its side
    group; c is an element of the edge group, carried on the right.
    A named tuple, so the hashing and equality that coset keys and
    stabilizer sets lean on make no Python-level call.
    """

    c: int
    word: Tuple[Syllable, ...]


class AmalgamContext:
    """Exact arithmetic in G_0 *_C G_1 from multiplication tables.

    Each side group comes with an injective homomorphism from the edge
    group.  By the normal form theorem every element has exactly one
    normal form, so equality of group elements is equality of values;
    that is what keys the cosets and makes the stabilizer sets of the
    tree ball exact.  All arithmetic folds `step`, the right
    multiplication by one side element, which changes only the last
    syllable.
    """

    def __init__(self, sides: Tuple[ConcreteFiniteGroup, ConcreteFiniteGroup],
                 edge: ConcreteFiniteGroup,
                 embeddings: Tuple[Homomorphism, Homomorphism]) -> None:
        for s, emb in zip(sides, embeddings):
            if not emb.injective:
                raise ValueError("edge group must embed injectively in both sides")
            if len(emb.images) != edge.order:
                raise ValueError("embedding does not cover the edge group")
        self.sides = sides
        self.edge = edge
        self.embeddings = embeddings
        self._tables = tuple(g.table for g in sides)
        self._images = tuple(emb.images for emb in embeddings)
        self._inverse = tuple(tuple(row.index(g.identity) for row in g.table)
                              for g in sides)
        self._edge_inverse = tuple(row.index(edge.identity) for row in edge.table)
        # factor y = t·i(c) with t the representative of the coset y·im(C),
        # stored as (c, (side, t)); the image coset itself, represented
        # by the identity, stores (c, None)
        self._factor: List[List[Tuple[int, Optional[Syllable]]]] = []
        for k, g in enumerate(sides):
            table: List = [None] * g.order
            for x in range(g.order):
                if table[x] is not None:
                    continue
                coset = [g.mul(x, img) for img in self._images[k]]
                rep = g.identity if g.identity in coset else min(coset)
                syllable = None if rep == g.identity else (k, rep)
                for y in coset:
                    c = self._images[k].index(g.mul(self._inverse[k][rep], y))
                    table[y] = (c, syllable)
            self._factor.append(table)

    @property
    def identity(self) -> AmalgamElement:
        return AmalgamElement(self.edge.identity, ())

    def step(self, g: AmalgamElement, side: int, a: int) -> AmalgamElement:
        'g · a for a in side group `side`: three table lookups at most.'
        table = self._tables[side]
        x = table[self._images[side][g.c]][a]
        word = g.word
        if word and word[-1][0] == side:
            x = table[word[-1][1]][x]
            word = word[:-1]
        c, syllable = self._factor[side][x]
        return _new(AmalgamElement, (c, word + (syllable,) if syllable else word))

    def embed_side(self, side: int, a: int) -> AmalgamElement:
        return self.step(self.identity, side, a)

    def embed_edge(self, c: int) -> AmalgamElement:
        return AmalgamElement(c, ())

    def mul(self, a: AmalgamElement, b: AmalgamElement) -> AmalgamElement:
        for side, t in b.word:
            a = self.step(a, side, t)
        return self.step(a, 0, self._images[0][b.c])

    def inv(self, a: AmalgamElement) -> AmalgamElement:
        g = self.embed_edge(self._edge_inverse[a.c])
        for side, t in reversed(a.word):
            g = self.step(g, side, self._inverse[side][t])
        return g

    def conjugates(self, word: Tuple[Syllable, ...], side: int,
                   members: Sequence[int]) -> FrozenSet[AmalgamElement]:
        """w·m·w⁻¹ for the word w and each m of side group `side`.

        Each conjugate costs len(word) + 1 steps.
        """
        step = self.step
        w = AmalgamElement(self.edge.identity, word)
        back = [(s, self._inverse[s][t]) for s, t in reversed(word)]
        out = set()
        for m in members:
            g = step(w, side, m)
            for s, t in back:
                g = step(g, s, t)
            out.add(g)
        return frozenset(out)


# -- development balls ----------------------------------------------------

@dataclass
class BallCell:
    id: int
    dim: int
    kind: str                     # vertex-left/vertex-right/edge for trees;
                                  # vertex/edge/face for polygons
    level: int
    stab_order: int
    stabilizer: Optional[FrozenSet] = None
    incident: Tuple[int, ...] = ()
    chart: Optional[int] = None   # polygon cells: vertex chart owning the
                                  # stabilizer coordinates


@dataclass
class DevelopmentBall:
    name: str
    radius: int
    cells: List[BallCell] = field(default_factory=list)
    complete: bool = True

    def of_dim(self, d: int) -> List[BallCell]:
        return [c for c in self.cells if c.dim == d]


def bass_serre_ball(u: Universe, graph: GraphOfGroups, radius: int) -> DevelopmentBall:
    """Ball of the tree acted on by the fundamental group of `graph`.

    Handles a single vertex with no edges, or exactly two vertices
    joined by one edge with concrete groups and concrete injections.
    """
    if radius < 0 or radius > RADIUS_LIMIT:
        raise ValueError(f"radius must lie in 0..{RADIUS_LIMIT}")
    if len(graph.edges) == 0 and len(graph.vertices) == 1:
        vid, ve = graph.vertices[0]
        g = u.concretes.get(ve.name) if isinstance(ve, Ref) else None
        if g is None:
            raise ValueError(f"graph {graph.name}: vertex {vid} must name a concrete group")
        ball = DevelopmentBall(graph.name, radius)
        ball.cells.append(BallCell(0, 0, "vertex-left", 0, g.order,
                                   frozenset(range(g.order))))
        return ball
    if len(graph.vertices) != 2 or len(graph.edges) != 1:
        raise ValueError(
            "concrete development handles only two vertex groups joined "
            "by a single edge")
    edge = graph.edges[0]
    if edge.maps is None:
        raise ValueError("concrete development needs concrete edge injections")
    if edge.v == edge.w:
        raise ValueError("concrete development does not handle loop edges")
    embeddings, problems = edge_injections(u, graph, edge)
    if problems:
        raise ValueError(f"graph {graph.name} edge 0: " + "; ".join(problems))
    if edge.v != graph.vertices[0][0]:
        embeddings.reverse()        # the root, on side 0, is the first vertex
    sides = tuple(u.concretes[h.target] for h in embeddings)
    eg = u.concretes[embeddings[0].source]
    ctx = AmalgamContext(sides, eg, tuple(embeddings))
    step, conjugates = ctx.step, ctx.conjugates

    ball = DevelopmentBall(graph.name, radius)
    side_kinds = ("vertex-left", "vertex-right")
    # by uniqueness of normal forms, g·G_s is keyed by s and the word of g
    # without a trailing side-s syllable, and g·C by the word of g
    seen_vertices: Dict[Tuple[int, Tuple[Syllable, ...]], int] = {}
    seen_edges: Set[Tuple[Syllable, ...]] = set()
    cells = ball.cells

    def add_vertex(word: Tuple[Syllable, ...], side: int, level: int) -> int:
        if word and word[-1][0] == side:
            word = word[:-1]
        cid = seen_vertices.get((side, word))
        if cid is not None:
            return cid
        if len(cells) >= CELL_LIMIT:
            raise ValueError(f"cell limit {CELL_LIMIT} exceeded")
        cid = len(cells)
        n = sides[side].order
        cells.append(BallCell(cid, 0, side_kinds[side], level, n,
                              conjugates(word, side, range(n))))
        seen_vertices[(side, word)] = cid
        return cid

    queue: deque = deque()
    root = ctx.identity
    queue.append((root, 0, add_vertex(root.word, 0, 0), 0))
    edge_members = embeddings[0].images
    while queue:
        g, side, cid, level = queue.popleft()
        if level == radius:
            # unexpanded frontier: the tree continues past every vertex
            ball.complete = False
            continue
        other = 1 - side
        for a in range(sides[side].order):
            ga = step(g, side, a)
            if ga.word in seen_edges:
                continue
            seen_edges.add(ga.word)
            wid = add_vertex(ga.word, other, level + 1)
            if len(cells) >= CELL_LIMIT:
                raise ValueError(f"cell limit {CELL_LIMIT} exceeded")
            eid = len(cells)
            cells.append(BallCell(eid, 1, "edge", level, eg.order,
                                  conjugates(ga.word, 0, edge_members),
                                  incident=(cid, wid)))
            queue.append((ga, other, wid, level + 1))
    return ball


# -- polygon development, radius 1 ----------------------------------------

def _charts(u: Universe, p: PolygonOfGroups) -> PolygonCharts:
    charts, problems = polygon_charts(u, p)
    if charts is None:
        raise ValueError(f"polygon {p.name}: " + "; ".join(problems))
    return charts


def polygon_ball(u: Universe, p: PolygonOfGroups, radius: int = 1) -> DevelopmentBall:
    """The closed star of the base face in the development.

    Radius 0 lists just the base face with its boundary; radius 1 adds
    every face and edge meeting a base vertex.  Cells past the star are
    not represented, so their incidences stay partial.
    """
    if radius not in (0, 1):
        raise ValueError("polygon developments are built to radius 1 only")
    charts = _charts(u, p)
    d = p.d
    ball = DevelopmentBall(p.name, radius)
    cells = ball.cells
    vertex_ids: List[int] = []
    for i in range(d):
        g = charts.groups[i]
        cells.append(BallCell(len(cells), 0, "vertex", 0, g.order,
                              frozenset(range(g.order)), chart=i))
        vertex_ids.append(cells[-1].id)
    edge_ids: List[int] = []
    for i in range(d):
        cells.append(BallCell(len(cells), 1, "edge", 0,
                              charts.edge_groups[i].order,
                              charts.outgoing[i],
                              incident=(vertex_ids[i], vertex_ids[(i + 1) % d]),
                              chart=i))
        edge_ids.append(cells[-1].id)
    face_order = charts.face_group.order
    cells.append(BallCell(len(cells), 2, "face", 0, face_order,
                          charts.face_image[0],
                          incident=tuple(vertex_ids) + tuple(edge_ids),
                          chart=0))
    if radius == 0:
        ball.complete = False
        return ball

    def check_limit() -> None:
        if len(cells) >= CELL_LIMIT:
            raise ValueError(f"cell limit {CELL_LIMIT} exceeded")

    frontier = False
    # faces sharing a base edge: one per nontrivial coset of the face
    # image inside the edge image, glued across the two adjacent charts
    for i in range(d):
        g = charts.groups[i]
        shared = sorted(charts.outgoing[i])
        face_cosets = _cosets_within(g, shared, charts.face_image[i])
        for coset in face_cosets:
            if g.identity in coset:
                continue
            check_limit()
            cells.append(BallCell(
                len(cells), 2, "face", 1, face_order, None,
                incident=(edge_ids[i], vertex_ids[i], vertex_ids[(i + 1) % d]),
                chart=i))
            frontier = True
    # corner faces: cosets through neither adjacent base edge
    for i in range(d):
        g = charts.groups[i]
        reachable = charts.incoming[i] | charts.outgoing[i]
        face_cosets = _cosets_within(g, range(g.order), charts.face_image[i])
        for coset in face_cosets:
            if coset & reachable:
                continue
            check_limit()
            cells.append(BallCell(len(cells), 2, "face", 1, face_order, None,
                                  incident=(vertex_ids[i],), chart=i))
            frontier = True
    # edges at a base vertex other than the two base edges
    for i in range(d):
        g = charts.groups[i]
        for image, order in ((charts.incoming[i], charts.edge_groups[(i - 1) % d].order),
                             (charts.outgoing[i], charts.edge_groups[i].order)):
            for coset in _cosets_within(g, range(g.order), image):
                if g.identity in coset:
                    continue
                check_limit()
                cells.append(BallCell(len(cells), 1, "edge", 1, order, None,
                                      incident=(vertex_ids[i],), chart=i))
                frontier = True
    ball.complete = not frontier
    return ball


def _cosets_within(g: ConcreteFiniteGroup, ambient, sub: FrozenSet[int]
                   ) -> List[FrozenSet[int]]:
    'Left cosets x·sub for x ranging over ambient, deduplicated.'
    out: List[FrozenSet[int]] = []
    seen: Set[int] = set()
    for x in sorted(ambient):
        if x in seen:
            continue
        coset = frozenset(g.mul(x, s) for s in sub)
        seen.update(coset)
        out.append(coset)
    return out


# -- the link condition ---------------------------------------------------

@dataclass(frozen=True)
class CurvatureReport:
    holds: bool
    vertex: Optional[int] = None
    witness: Optional[Tuple[int, ...]] = None
    detail: str = ""


def check_curvature(u: Universe, p: PolygonOfGroups) -> CurvatureReport:
    """At each vertex: the two adjacent edge images must meet exactly in
    the face image.  Fails with the offending vertex and the actual
    intersection as witness."""
    charts = _charts(u, p)
    for i in range(p.d):
        inter = charts.incoming[i] & charts.outgoing[i]
        if inter != charts.face_image[i]:
            return CurvatureReport(
                False, i, tuple(sorted(inter)),
                f"at vertex {i} the edge images intersect in "
                f"{sorted(inter)} but the face image is "
                f"{sorted(charts.face_image[i])}")
    return CurvatureReport(True, detail="edge images meet exactly in the face image")


# -- stabilizer bookkeeping -----------------------------------------------

@dataclass
class StabilizerReport:
    ok: bool
    problems: List[str]
    orders: Dict[str, List[int]]


def verify_stabilizers(ball: DevelopmentBall) -> StabilizerReport:
    """Check recorded stabilizers against each other.

    Tree balls: every stabilizer set has the recorded order, and each
    edge stabilizer equals the intersection of its endpoint stabilizers.
    Polygon balls: base-cell containments within each vertex chart.
    """
    problems: List[str] = []
    orders: Dict[str, Set[int]] = {}
    by_id = {c.id: c for c in ball.cells}
    for c in ball.cells:
        orders.setdefault(c.kind, set()).add(c.stab_order)
        if c.stabilizer is not None and len(c.stabilizer) != c.stab_order:
            problems.append(
                f"cell {c.id} ({c.kind}): stabilizer set has "
                f"{len(c.stabilizer)} elements, order recorded {c.stab_order}")
    is_tree = all(c.dim <= 1 for c in ball.cells)
    if is_tree:
        for c in ball.cells:
            if c.dim != 1 or c.stabilizer is None:
                continue
            ends = [by_id[i] for i in c.incident if i in by_id]
            if len(ends) != 2:
                continue
            sv, sw = ends[0].stabilizer, ends[1].stabilizer
            if sv is not None and sw is not None and c.stabilizer != (sv & sw):
                problems.append(
                    f"edge {c.id}: stabilizer is not the intersection of "
                    f"its endpoint stabilizers")
    else:
        for c in ball.cells:
            if c.stabilizer is None or c.level != 0:
                continue
            for i in c.incident:
                lower = by_id.get(i)
                if (lower is None or lower.stabilizer is None
                        or lower.chart != c.chart):
                    continue
                if not c.stabilizer <= lower.stabilizer:
                    problems.append(
                        f"cell {c.id} ({c.kind}): stabilizer not contained "
                        f"in that of incident cell {i}")
    return StabilizerReport(not problems, problems,
                            {k: sorted(v) for k, v in orders.items()})


# -- dispatch -------------------------------------------------------------

def develop_target(u: Universe, name: str, radius: Optional[int] = None) -> DevelopmentBall:
    'Radius None means 2 for a graph of groups and 1 for a polygon.'
    try:
        kind, payload = u.resolve(Ref(name))
    except (KeyError, ValueError) as exc:
        raise ValueError(exc.args[0]) from None
    if kind == "graph":
        return bass_serre_ball(u, payload, 2 if radius is None else radius)
    if kind == "polygon":
        return polygon_ball(u, payload, 1 if radius is None else radius)
    raise ValueError(f"{name!r} is not a graph or polygon of groups")
