"""Reference implementations that tests compare the package against.

Each oracle computes its answer a second, slower way, reading only the
public data of the model and sharing no helper with the code it checks.
"""

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from catbound.apps import DoubleSetup, GluingSetup, Piece
from catbound.develop import BallCell, CurvatureReport, DevelopmentBall
from catbound.engine import BoundResult, DerivationNode, Evaluator
from catbound.extnat import ExtNat, ext_max, supremum
from catbound.facts import AM, FactSheet, Family, FamilyKind, Tri
from catbound.model import (ConcreteFiniteGroup, Diagnostic, DirectProduct, Edge,
                            FreeProduct, GcwDescription, GraphOfGroups, GroupExpr,
                            PolygonOfGroups, Ref, TrivialGroup, Universe, expr_key)


def brute_force_curvature(u: Universe, p: PolygonOfGroups) -> CurvatureReport:
    """The link condition by elementwise scans with list membership, no
    set algebra: at each vertex the two adjacent edge images must meet
    exactly in the face image."""
    if not p.concrete_maps:
        raise ValueError(f"polygon {p.name!r} has no concrete maps")
    d = p.d
    face_group = u.concretes[p.face_group.name]
    for i in range(d):
        g = u.concretes[p.vertex_groups[i].name]
        prev_edge = u.concretes[p.edge_groups[(i - 1) % d].name]
        next_edge = u.concretes[p.edge_groups[i].name]
        h_in = u.homs[p.edge_maps[(i - 1) % d][1]]
        h_out = u.homs[p.edge_maps[i][0]]
        h_face = u.homs[p.face_maps[i]]
        im_in: List[int] = []
        for x in range(prev_edge.order):
            v = h_in.images[x]
            if v not in im_in:
                im_in.append(v)
        im_out: List[int] = []
        for x in range(next_edge.order):
            v = h_out.images[x]
            if v not in im_out:
                im_out.append(v)
        inter: List[int] = []
        for y in range(g.order):
            if y in im_in and y in im_out and y not in inter:
                inter.append(y)
        fimg: List[int] = []
        for z in range(face_group.order):
            v = h_out.images[h_face.images[z]]
            if v not in fimg:
                fimg.append(v)
        if sorted(inter) != sorted(fimg):
            return CurvatureReport(False, i, tuple(sorted(inter)),
                                   f"vertex {i}: intersection {sorted(inter)} "
                                   f"differs from face image {sorted(fimg)}")
    return CurvatureReport(True, detail="verified elementwise")


def tree_defect(ball: DevelopmentBall) -> int:
    'Independent cycles of the 1-skeleton: E - V + number of components.'
    vertices = [c.id for c in ball.of_dim(0)]
    parent = {v: v for v in vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = 0
    for c in ball.of_dim(1):
        ends = [i for i in c.incident if i in parent]
        if len(ends) == 2:
            edges += 1
            ra, rb = find(ends[0]), find(ends[1])
            if ra != rb:
                parent[ra] = rb
    components = len({find(v) for v in vertices})
    return edges - len(vertices) + components


# -- the left-carry amalgam arithmetic that develop.AmalgamContext replaced


@dataclass(frozen=True)
class LeftCarryElement:
    """Normal form c · t_1 ⋯ t_k in an amalgam over C: c in the edge
    group, then alternating-side syllables, each a non-identity
    representative of a right coset im(C)·x of its side group."""

    c: int
    word: Tuple[Tuple[int, int], ...]


class LeftCarryAmalgam:
    """G_0 *_C G_1 by rewriting raw syllable lists to a fixpoint, then
    carrying the edge-group part of each syllable leftward."""

    def __init__(self, sides, edge, embeddings) -> None:
        self.sides = sides
        self.edge = edge
        self.embeddings = embeddings
        self._image = tuple(frozenset(emb.images) for emb in embeddings)
        self._preimage = tuple({img: c for c, img in enumerate(emb.images)}
                               for emb in embeddings)
        # factor x = i(c)·t with t the representative of the coset im(C)·x;
        # the image coset itself is represented by the identity
        self._factor: List[Dict[int, Tuple[int, int]]] = []
        for k, g in enumerate(sides):
            table: Dict[int, Tuple[int, int]] = {}
            for x in range(g.order):
                if x in table:
                    continue
                coset = sorted(g.mul(emb_img, x) for emb_img in self._image[k])
                rep = g.identity if g.identity in coset else min(coset)
                for y in coset:
                    c_img = g.mul(y, inv(g, rep))
                    table[y] = (self._preimage[k][c_img], rep)
            self._factor.append(table)

    @property
    def identity(self) -> LeftCarryElement:
        return LeftCarryElement(self.edge.identity, ())

    def embed_side(self, side: int, a: int) -> LeftCarryElement:
        return self._canonical([(side, a)])

    def embed_edge(self, c: int) -> LeftCarryElement:
        return LeftCarryElement(c, ())

    def _syllables(self, g: LeftCarryElement) -> List[Tuple[int, int]]:
        'Expand the normal form into raw (side, element) syllables.'
        if not g.word:
            if g.c == self.edge.identity:
                return []
            return [(0, self.embeddings[0].images[g.c])]
        (s0, t0), rest = g.word[0], list(g.word[1:])
        head = self.sides[s0].mul(self.embeddings[s0].images[g.c], t0)
        return [(s0, head)] + rest

    def _canonical(self, raw: Sequence[Tuple[int, int]]) -> LeftCarryElement:
        word = [list(t) for t in raw]
        # reduce to a fixpoint: drop identities, merge same-side
        # neighbours, transport interior edge-image syllables leftward
        changed = True
        while changed:
            changed = False
            j = 0
            while j < len(word):
                side, a = word[j]
                g = self.sides[side]
                if a == g.identity:
                    del word[j]
                    changed = True
                    continue
                if j > 0 and word[j - 1][0] == side:
                    word[j - 1][1] = g.mul(word[j - 1][1], a)
                    del word[j]
                    # re-examine the merged syllable
                    j -= 1
                    changed = True
                    continue
                if j > 0 and a in self._image[side]:
                    c = self._preimage[side][a]
                    pside = word[j - 1][0]
                    pg = self.sides[pside]
                    word[j - 1][1] = pg.mul(word[j - 1][1],
                                            self.embeddings[pside].images[c])
                    del word[j]
                    changed = True
                    continue
                j += 1
        # leftward transport of the edge-group part of each syllable
        carry = self.edge.identity
        out: List[Tuple[int, int]] = []
        for side, a in reversed(word):
            g = self.sides[side]
            x = g.mul(a, self.embeddings[side].images[carry])
            carry, t = self._factor[side][x]
            if t != g.identity:
                out.insert(0, (side, t))
        return LeftCarryElement(carry, tuple(out))

    def mul(self, a: LeftCarryElement, b: LeftCarryElement) -> LeftCarryElement:
        return self._canonical(self._syllables(a) + self._syllables(b))

    def inv(self, a: LeftCarryElement) -> LeftCarryElement:
        raw: List[Tuple[int, int]] = []
        for side, t in reversed(a.word):
            raw.append((side, inv(self.sides[side], t)))
        raw.append((0, self.embeddings[0].images[inv(self.edge, a.c)]))
        return self._canonical(raw)


def left_carry_context(u: Universe, graph: GraphOfGroups) -> LeftCarryAmalgam:
    'The amalgam of a two-vertex, one-edge graph with concrete maps.'
    (v0, e0), (v1, e1) = graph.vertices
    (edge,) = graph.edges
    embeddings = {edge.v: u.homs[edge.maps[0]], edge.w: u.homs[edge.maps[1]]}
    return LeftCarryAmalgam(
        (u.concretes[e0.name], u.concretes[e1.name]),
        u.concretes[edge.group.name], (embeddings[v0], embeddings[v1]))


def coset_set_ball(u: Universe, graph: GraphOfGroups,
                   radius: int) -> DevelopmentBall:
    """Ball of the Bass-Serre tree, each vertex g·G_s and edge g·C
    deduplicated by its full coset, multiplied out as a set, and each
    stabilizer the set g·G·g⁻¹ by two multiplications per member."""
    ctx = left_carry_context(u, graph)
    sides, eg = ctx.sides, ctx.edge
    ball = DevelopmentBall(graph.name, radius)
    kind_of_side = ("vertex-left", "vertex-right")
    seen_vertices: Dict[frozenset, int] = {}
    seen_edges: set = set()
    cells = ball.cells

    def vertex_coset(g: LeftCarryElement, side: int) -> frozenset:
        return frozenset(ctx.mul(g, ctx.embed_side(side, a))
                         for a in range(sides[side].order))

    def edge_coset(g: LeftCarryElement) -> frozenset:
        return frozenset(ctx.mul(g, ctx.embed_edge(c)) for c in range(eg.order))

    def stab_set(g: LeftCarryElement, members) -> frozenset:
        gi = ctx.inv(g)
        return frozenset(ctx.mul(ctx.mul(g, m), gi) for m in members)

    def add_vertex(g: LeftCarryElement, side: int, level: int) -> int:
        coset = vertex_coset(g, side)
        if coset in seen_vertices:
            return seen_vertices[coset]
        cid = len(cells)
        members = [ctx.embed_side(side, a) for a in range(sides[side].order)]
        cells.append(BallCell(cid, 0, kind_of_side[side], level,
                              sides[side].order, stab_set(g, members)))
        seen_vertices[coset] = cid
        return cid

    root = ctx.identity
    queue = deque([(root, 0, add_vertex(root, 0, 0), 0)])
    edge_members = [ctx.embed_edge(c) for c in range(eg.order)]
    while queue:
        g, side, cid, level = queue.popleft()
        if level == radius:
            ball.complete = False
            continue
        other = 1 - side
        for a in range(sides[side].order):
            ga = ctx.mul(g, ctx.embed_side(side, a))
            ec = edge_coset(ga)
            if ec in seen_edges:
                continue
            seen_edges.add(ec)
            wid = add_vertex(ga, other, level + 1)
            cells.append(BallCell(len(cells), 1, "edge", level, eg.order,
                                  stab_set(ga, edge_members),
                                  incident=(cid, wid)))
            queue.append((ga, other, wid, level + 1))
    return ball


# -- the combination rules that the complex rule replaced ----------------
#
# Each takes its sub-bounds from the evaluator and recombines them by the
# retired closed formula; the carriers are read off the model directly.


def tree_groups(u: Universe, e: GroupExpr) -> Tuple[List[GroupExpr], List[GroupExpr]]:
    'Vertex and edge groups of the tree a graph of groups or free product acts on.'
    kind, payload = u.resolve(e)
    if kind == "free":
        return list(payload.factors), [TrivialGroup()] * (len(payload.factors) - 1)
    if kind == "graph":
        return [g for _, g in payload.vertices], [edge.group for edge in payload.edges]
    raise ValueError(f"{expr_key(e)} is not a graph of groups or free product")


def gog_sum(ev: Evaluator, e: GroupExpr, fam: Family) -> ExtNat:
    'Vertex category plus shifted edge category.'
    vertices, edges = tree_groups(ev.universe, e)
    return (supremum(ev.bound_cat(g, fam).value for g in vertices)
            + supremum(ev.bound_cat(g, fam).value + 1 for g in edges))


def gog_max(ev: Evaluator, e: GroupExpr, fam: Family) -> ExtNat:
    'Vertex category against shifted edge dimension.'
    vertices, edges = tree_groups(ev.universe, e)
    return ext_max(supremum(ev.bound_cat(g, fam).value for g in vertices),
                   supremum(ev.bound_gd(g).value + 1 for g in edges))


def gd_tree(ev: Evaluator, e: GroupExpr) -> ExtNat:
    'Dimension from the action on the tree.'
    vertices, edges = tree_groups(ev.universe, e)
    return ext_max(supremum(ev.bound_gd(g).value for g in vertices),
                   supremum(ev.bound_gd(g).value + 1 for g in edges))


def tc_gog(ev: Evaluator, e: GroupExpr) -> ExtNat:
    'Complexity from the square of the tree, term by term.'
    vertices, edges = tree_groups(ev.universe, e)

    def pair(a: GroupExpr, b: GroupExpr) -> GroupExpr:
        return DirectProduct((a, b))

    return supremum([
        supremum(ev.bound_tc(g).value for g in vertices),
        supremum(ev.bound_cd(pair(vertices[i], vertices[j])).value
                 for i in range(len(vertices)) for j in range(i + 1, len(vertices))),
        supremum(ev.bound_gd(pair(v, w)).value + 1 for v in vertices for w in edges),
        supremum(ev.bound_gd(pair(edges[i], edges[j])).value + 2
                 for i in range(len(edges)) for j in range(i, len(edges))),
    ])


def polygon_max(ev: Evaluator, p: PolygonOfGroups, fam: Family) -> ExtNat:
    'Vertex category against shifted edge and face dimension.'
    return supremum([
        supremum(ev.bound_cat(g, fam).value for g in p.vertex_groups),
        supremum(ev.bound_gd(g).value + 1 for g in p.edge_groups),
        ev.bound_gd(p.face_group).value + 2,
    ])


# -- the per-dimension recursion with a fixed arm choice -------------------


def ladder_value(ev: Evaluator, x: GcwDescription, fam: Family,
                 selection: FrozenSet[int]) -> ExtNat:
    'The d_i recursion taking the max arm at the dimensions in selection, the sum arm elsewhere.'
    d = supremum(ev.bound_cat(g, fam).value for g in x.dims[0])
    for i in range(1, len(x.dims)):
        if i in selection:
            d = ext_max(d, supremum(ev.bound_gd(g).value + i for g in x.dims[i]))
        else:
            d = d + supremum(ev.bound_cat(g, fam).value + 1 for g in x.dims[i])
    return d


def max_arm_dims(trace: DerivationNode) -> FrozenSet[int]:
    """The dimensions at which a ladder trace took the max arm, read by
    walking its d_i premises down to rec-base."""
    arms: List[bool] = []
    node = trace
    while node.rule != "rec-base":
        assert node.rule in ("rec-max", "rec-sum"), node.rule
        arms.append(node.rule == "rec-max")
        node = node.premises[0]
    top = len(arms)
    return frozenset(top - k for k, took_max in enumerate(arms) if took_max)


def max_combination(ev: Evaluator, x: GcwDescription, fam: Family) -> ExtNat:
    'Closed form for the all-max ladder: no recursion, one sup.'
    base = supremum(ev.bound_cat(g, fam).value for g in x.dims[0])
    shifted = supremum(ev.bound_gd(g).value + i
                       for i in range(1, x.n + 1) for g in x.dims[i])
    return ext_max(base, shifted)


def sum_combination(ev: Evaluator, x: GcwDescription, fam: Family) -> ExtNat:
    'Closed form for the all-sum ladder.'
    total = supremum(ev.bound_cat(g, fam).value for g in x.dims[0])
    for i in range(1, x.n + 1):
        total = total + supremum(ev.bound_cat(g, fam).value + 1
                                 for g in x.dims[i])
    return total


def dag_size(root: DerivationNode) -> Tuple[int, int]:
    """Distinct nodes of a derivation (by identity) and the premise
    citations among them, by a plain worklist over node ids."""
    seen = {id(root)}
    todo = [root]
    edges = 0
    while todo:
        node = todo.pop()
        edges += len(node.premises)
        for p in node.premises:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen), edges


# -- the two certificate routes that certify_gluing merged ---------------


def _space_cell(ev: Evaluator, group: GroupExpr,
                declared: Optional[ExtNat]) -> DerivationNode:
    'The smaller of a space-level declaration and the engine bound.'
    r = ev.bound_cat(group, AM)
    if declared is not None and declared < r.value:
        return DerivationNode("space-declared",
                              "declared space-level category bound", declared)
    return r.trace


def _boundary_of(s: GluingSetup, pid: str, bid: str):
    piece = next(p for p in s.pieces if p.id == pid)
    return next(b for b in piece.boundaries if b.id == bid)


def gluing_sum_bound(u: Universe, s: GluingSetup) -> BoundResult:
    """The retired additive route's bound: the sup over the pieces plus
    the sup over the paired interfaces, each shifted by one.

    With no pairings the interface term is an empty supremum, 0.
    """
    ev = Evaluator(u)
    pieces = [_space_cell(ev, p.group, p.cat_space) for p in s.pieces]
    interfaces = []
    for (pa, ba), _ in s.pairings:
        b = _boundary_of(s, pa, ba)
        node = _space_cell(ev, b.group, b.cat_space)
        one = DerivationNode("const", "interface shift", ExtNat(1))
        interfaces.append(DerivationNode("plus", "interface shifted by one",
                                         node.value + 1, (), (node, one)))
    over_pieces = DerivationNode("sup", "over pieces",
                                 supremum(n.value for n in pieces), (),
                                 tuple(pieces))
    over_interfaces = DerivationNode("sup", "over paired interfaces",
                                     supremum(n.value for n in interfaces), (),
                                     tuple(interfaces))
    root = DerivationNode("gluing-sum",
                          "pieces plus shifted interfaces, tree of spaces",
                          over_pieces.value + over_interfaces.value, (),
                          (over_pieces, over_interfaces))
    return BoundResult("cat", AM.name, root.value, root)


def additive_route(u: Universe, s: GluingSetup) -> Tuple[str, Optional[ExtNat]]:
    """The retired additive route: connectedness and gluing_sum_bound at
    most n - 1; vanishing for a closed gluing, a bound otherwise."""
    value = gluing_sum_bound(u, s).value
    if not (s.connected and value <= ExtNat(s.n - 1)):
        return "inconclusive", None
    paired = {end for pairing in s.pairings for end in pairing}
    closed = all((p.id, b.id) in paired for p in s.pieces for b in p.boundaries)
    return ("volume_vanishes" if closed else "cat_bound"), value


def graph_route(u: Universe, s: GluingSetup) -> Tuple[str, Optional[ExtNat]]:
    """certify_gluing before it took the additive bound too: the bound
    on the graph of groups under connectedness and (i)-(iii), vanishing
    under the all-boundary scope."""
    n = s.n
    graph = GraphOfGroups(
        f"{s.name}@oracle", tuple((p.id, p.group) for p in s.pieces),
        tuple(Edge(pa, pb, _boundary_of(s, pa, ba).group, None)
              for (pa, ba), (pb, _) in s.pairings))
    with_graph = u.overlay()
    with_graph.graphs[graph.name] = graph
    ev = Evaluator(with_graph)
    ok = s.connected
    for (pa, ba), (pb, bb) in s.pairings:
        plus, minus = _boundary_of(s, pa, ba), _boundary_of(s, pb, bb)
        ok = (ok and plus.pi1_injective and minus.pi1_injective
              and ev.bound_gd(plus.group).value <= ExtNat(n - 2))
    ok = ok and all(_space_cell(ev, p.group, p.cat_space).value <= ExtNat(n - 1)
                    for p in s.pieces)
    cat = ev.bound_cat(Ref(graph.name), AM).value
    if not (ok and cat <= ExtNat(n - 1)):
        return "inconclusive", None
    scope = all(b.pi1_injective and ev.bound_gd(b.group).value <= ExtNat(n - 2)
                for p in s.pieces for b in p.boundaries)
    return ("volume_vanishes" if scope else "cat_bound"), cat


def best_old_route(u: Universe, s) -> Tuple[str, Optional[ExtNat]]:
    """The better of graph_route and additive_route on a gluing, or on a
    double's two-copy gluing: the higher conclusion, then the smaller
    value, ties to graph_route."""
    if isinstance(s, DoubleSetup):
        copies = tuple(Piece(c, s.piece.group, s.piece.cat_space, s.piece.boundaries)
                       for c in ("copyA", "copyB"))
        s = GluingSetup(s.name, s.n, copies,
                        tuple((("copyA", b.id), ("copyB", b.id))
                              for b in s.piece.boundaries), True)
    rank = {"volume_vanishes": 2, "cat_bound": 1, "inconclusive": 0}
    graph, additive = graph_route(u, s), additive_route(u, s)
    if rank[additive[0]] > rank[graph[0]] or (
            additive[0] == graph[0] != "inconclusive" and additive[1] < graph[1]):
        return additive
    return graph


# -- concrete group arithmetic the package does not need ------------------


def inv(g: ConcreteFiniteGroup, a: int) -> int:
    'The inverse of element a, by a scan of its row.'
    for b in range(g.order):
        if g.table[a][b] == g.identity:
            return b
    raise ValueError(f"element {a} has no inverse")


def generated_subgroup(g: ConcreteFiniteGroup, elems: Iterable[int]) -> FrozenSet[int]:
    'The subgroup generated by elems, by closing under multiplication.'
    seen: Set[int] = {g.identity}
    frontier = list(set(elems) | {g.identity})
    seen.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen):
                for c in (g.table[a][b], g.table[b][a]):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(seen)


# -- the cubic associativity scan that Light's test fronts -----------------


def full_scan_verify(g: ConcreteFiniteGroup, loc: str = "table") -> List[Diagnostic]:
    'ConcreteFiniteGroup.verify with associativity checked on every triple.'
    out: List[Diagnostic] = []
    n = g.order
    for i, row in enumerate(g.table):
        if len(row) != n:
            out.append(Diagnostic(loc, f"row {i} has length {len(row)}, expected {n}"))
            return out
        for j, v in enumerate(row):
            if not 0 <= v < n:
                out.append(Diagnostic(loc, f"entry ({i},{j}) = {v} out of range"))
                return out
    e = g.identity
    if not 0 <= e < n:
        return [Diagnostic(loc, f"identity index {e} out of range")]
    for i in range(n):
        if g.table[e][i] != i or g.table[i][e] != i:
            out.append(Diagnostic(loc, f"index {e} is not an identity (fails at {i})"))
            break
    for i in range(n):
        if e not in g.table[i]:
            out.append(Diagnostic(loc, f"element {i} has no inverse"))
            break
    checked = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if g.table[g.table[a][b]][c] != g.table[a][g.table[b][c]]:
                    out.append(Diagnostic(loc, f"associativity fails at ({a},{b},{c})"))
                    checked += 1
                    if checked >= 3:
                        return out
    return out


# -- the character-by-character tokenizer that dsl.tokenize replaced ------

_PUNCT2 = ("<=", "->")
_PUNCT1 = "{}()[];:,=-.*<>"
_DIGITS = "0123456789"      # str.isdigit() also admits '²' and other scripts


@dataclass(frozen=True)
class Token:
    kind: str        # name | int | string | op | error | eof
    value: str
    line: int
    col: int

    @property
    def loc(self) -> str:
        return f"{self.line}:{self.col}"


def tokenize(text: str) -> List[Token]:
    'Total: malformed input produces error tokens, never an exception.'
    out: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("name", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            out.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            buf: List[str] = []
            closed = False
            while j < n:
                if text[j] == "\\" and j + 1 < n and text[j + 1] in '"\\':
                    buf.append(text[j + 1])
                    j += 2
                    continue
                if text[j] == '"':
                    closed = True
                    j += 1
                    break
                if text[j] == "\n":
                    break
                buf.append(text[j])
                j += 1
            if closed:
                out.append(Token("string", "".join(buf), start_line, start_col))
            else:
                out.append(Token("error", "unterminated string", start_line, start_col))
            col += j - i
            i = j
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            out.append(Token("op", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            out.append(Token("op", c, start_line, start_col))
            i += 1
            col += 1
            continue
        out.append(Token("error", f"stray character {c!r}", start_line, start_col))
        i += 1
        col += 1
    out.append(Token("eof", "", line, col))
    return out


# -- the recursive membership rules that facts.FactMemo memoizes ----------
#
# As the package had them before their answers were memoized: each call
# re-derives everything below it, and each chaser threads the set of
# expressions on its own call path instead of reading a memo.

def _sheet(u: Universe, name) -> Optional[FactSheet]:
    return u.sheets.get(name)


def _order(u: Universe, name) -> Optional[int]:
    g = u.concretes.get(name)
    return g.order if g is not None else None


# Each chaser threads the set of expressions already on its own call
# path.  A revisit means the derivation would need itself, which no
# well-founded argument allows, so the conservative answer stands.
# Definition cycles are rejected at load time; this keeps hand-built
# universes from overflowing the stack.

def provably_trivial(u: Universe, e: GroupExpr,
                     _seen: frozenset = frozenset()) -> bool:
    key = expr_key(e)
    if key in _seen:
        return False
    _seen = _seen | {key}
    kind, payload = u.resolve(e)
    if kind == "trivial":
        return True
    if kind == "atom":
        s = _sheet(u, payload)
        if s is not None and s.trivial:
            return True
        return _order(u, payload) == 1
    if kind in ("product", "free"):
        return all(provably_trivial(u, f, _seen) for f in payload.factors)
    return False


def provably_nontrivial(u: Universe, e: GroupExpr,
                        _seen: frozenset = frozenset()) -> bool:
    key = expr_key(e)
    if key in _seen:
        return False
    _seen = _seen | {key}
    kind, payload = u.resolve(e)
    if kind == "atom":
        s = _sheet(u, payload)
        if s is not None and s.finite is Tri.NO:
            return True
        o = _order(u, payload)
        return o is not None and o > 1
    if kind in ("product", "free"):
        return any(provably_nontrivial(u, f, _seen) for f in payload.factors)
    if kind == "graph":
        if len(payload.edges) >= len(payload.vertices) > 0:
            return True  # a cycle in the underlying graph gives a free quotient
        return any(provably_nontrivial(u, g, _seen)
                   for _, g in payload.vertices)
    return False


def provably_infinite(u: Universe, e: GroupExpr,
                      _seen: frozenset = frozenset()) -> bool:
    key = expr_key(e)
    if key in _seen:
        return False
    _seen = _seen | {key}
    kind, payload = u.resolve(e)
    if kind == "atom":
        s = _sheet(u, payload)
        return s is not None and s.finite is Tri.NO
    if kind == "product":
        return any(provably_infinite(u, f, _seen) for f in payload.factors)
    if kind == "free":
        if any(provably_infinite(u, f, _seen) for f in payload.factors):
            return True
        nontrivial = sum(1 for f in payload.factors if provably_nontrivial(u, f))
        return nontrivial >= 2
    if kind == "graph":
        if len(payload.edges) >= len(payload.vertices) > 0:
            return True
        return any(provably_infinite(u, g, _seen) for _, g in payload.vertices)
    return False


def _provably_order_at_least_3(u: Universe, e: GroupExpr,
                               _seen: frozenset = frozenset()) -> bool:
    key = expr_key(e)
    if key in _seen:
        return False
    _seen = _seen | {key}
    if provably_infinite(u, e):
        return True
    kind, payload = u.resolve(e)
    if kind == "atom":
        o = _order(u, payload)
        return o is not None and o >= 3
    if kind == "product":
        if any(_provably_order_at_least_3(u, f, _seen) for f in payload.factors):
            return True
        nontrivial = sum(1 for f in payload.factors if provably_nontrivial(u, f))
        return nontrivial >= 2
    if kind == "free":
        live = [f for f in payload.factors if not provably_trivial(u, f)]
        if len(live) == 1:
            return _provably_order_at_least_3(u, live[0], _seen)
    return False


def membership(u: Universe, e: GroupExpr, fam: Family,
               _seen: frozenset = frozenset()) -> Tri:
    return membership_with_reason(u, e, fam, _seen)[0]


def membership_with_reason(u: Universe, e: GroupExpr, fam: Family,
                           _seen: frozenset = frozenset()) -> Tuple[Tri, str]:
    'Verdict plus a short derivation note for traces.'
    key = (fam.name, expr_key(e))
    if key in _seen:
        return Tri.UNKNOWN, "circular definition"
    _seen = _seen | {key}
    if provably_trivial(u, e):
        return Tri.YES, "trivial group, member of every family"

    kind, payload = u.resolve(e)

    if fam.kind is FamilyKind.TRIVIAL:
        if provably_nontrivial(u, e):
            return Tri.NO, "provably nontrivial"
        return Tri.UNKNOWN, "triviality not derivable"

    if fam.kind is FamilyKind.FINITE:
        if provably_infinite(u, e):
            return Tri.NO, "provably infinite"
        if kind == "atom":
            s = _sheet(u, payload)
            if s is not None and s.finite is Tri.YES:
                return Tri.YES, s.cite("finite")
            return Tri.UNKNOWN, "finiteness not declared"
        if kind == "product":
            verdicts = [membership_with_reason(u, f, fam, _seen)
                        for f in payload.factors]
            if all(v is Tri.YES for v, _ in verdicts):
                return Tri.YES, "direct product of finite members"
            return Tri.UNKNOWN, "finiteness not derivable"
        if kind == "free":
            return _free_delegate(u, payload, fam, _seen)
        if kind == "graph":
            return _single_vertex_delegate(u, payload, fam, _seen)
        return Tri.UNKNOWN, "finiteness not derivable"

    if fam.kind is FamilyKind.AMENABLE:
        return _amenable_membership(u, kind, payload, fam, _seen)

    return _custom_membership(u, kind, payload, fam, _seen)


def _free_delegate(u: Universe, fp: FreeProduct, fam: Family,
                   seen: frozenset) -> Tuple[Tri, str]:
    'A free product with at most one nontrivial factor is that factor.'
    live = [f for f in fp.factors if not provably_trivial(u, f)]
    if len(live) == 1:
        return membership_with_reason(u, live[0], fam, seen)
    return Tri.UNKNOWN, "free product not reducible"


def _single_vertex_delegate(u: Universe, graph, fam: Family,
                            seen: frozenset) -> Tuple[Tri, str]:
    if len(graph.vertices) == 1 and not graph.edges:
        return membership_with_reason(u, graph.vertices[0][1], fam, seen)
    return Tri.UNKNOWN, "not derivable for this graph of groups"


def _amenable_membership(u: Universe, kind: str, payload, fam: Family,
                         seen: frozenset) -> Tuple[Tri, str]:
    if kind == "atom":
        s = _sheet(u, payload)
        if s is not None and s.amenable is not Tri.UNKNOWN:
            return s.amenable, s.cite("amenable")
        return Tri.UNKNOWN, "amenability not declared"
    if kind == "product":
        verdicts = [membership_with_reason(u, f, fam, seen)
                    for f in payload.factors]
        if any(v is Tri.NO for v, _ in verdicts):
            return Tri.NO, "contains a non-amenable factor"
        if all(v is Tri.YES for v, _ in verdicts):
            return Tri.YES, "direct product of amenable groups"
        return Tri.UNKNOWN, "amenability not derivable"
    if kind == "free":
        for f in payload.factors:
            if membership(u, f, fam, seen) is Tri.NO:
                return Tri.NO, "contains a non-amenable free factor"
        live = [f for f in payload.factors if not provably_trivial(u, f)]
        if len(live) == 1:
            return membership_with_reason(u, live[0], fam, seen)
        nontrivial = sum(1 for f in payload.factors if provably_nontrivial(u, f))
        if nontrivial >= 2 and any(_provably_order_at_least_3(u, f)
                                   for f in payload.factors):
            return Tri.NO, "free product of nontrivial groups, one of order > 2"
        return Tri.UNKNOWN, "amenability not derivable"
    if kind == "graph":
        for _, g in payload.vertices:
            if membership(u, g, fam, seen) is Tri.NO:
                return Tri.NO, "contains a non-amenable vertex group"
        return _single_vertex_delegate(u, payload, fam, seen)
    return Tri.UNKNOWN, "amenability not derivable"


def _custom_membership(u: Universe, kind: str, payload, fam: Family,
                       seen: frozenset) -> Tuple[Tri, str]:
    if kind == "atom":
        s = _sheet(u, payload)
        if s is None:
            return Tri.UNKNOWN, "no facts declared"
        asserted = s.member.get(fam.name)
        if asserted in (Tri.YES, Tri.NO):
            return asserted, s.cite(f"member[{fam.name}]")
        if fam.requires:
            flags = {"amenable": s.amenable, "finite": s.finite,
                     "trivial": Tri.YES if s.trivial else Tri.UNKNOWN}
            got = [flags.get(key, Tri.UNKNOWN) for key, _ in fam.requires]
            if all(g is want for g, (_, want) in zip(got, fam.requires)):
                return Tri.YES, "flag oracle satisfied"
        return Tri.UNKNOWN, "membership not asserted"
    if kind in ("product", "free"):
        for f in payload.factors:
            if membership(u, f, fam, seen) is Tri.NO:
                return Tri.NO, "contains a non-member piece"
        if kind == "free":
            return _free_delegate(u, payload, fam, seen)
        return Tri.UNKNOWN, "membership not derivable"
    if kind == "graph":
        for _, g in payload.vertices:
            if membership(u, g, fam, seen) is Tri.NO:
                return Tri.NO, "contains a non-member vertex group"
        return _single_vertex_delegate(u, payload, fam, seen)
    return Tri.UNKNOWN, "membership not derivable"
