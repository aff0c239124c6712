"""Structural side of the calculator: group expressions and their carriers.

A group enters the system in one of three ways.  As a named atom backed
by a fact sheet, as a finite group given by its multiplication table, or
as a combination of other groups: direct product, free product, graph of
groups, polygon of groups, or a cell-complex description listing orbit
stabilizers per dimension.  Everything is referenced by name inside a
Universe, and validate() reports structural defects as diagnostics
instead of raising.  Concrete incidence maps (a graph edge's, a
polygon's) are checked in one place, resolve_maps(): validate() reports
its problems, and the developments read the homs and charts it returns.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .extnat import Record, _set


class Diagnostic(Record):
    __slots__ = ("loc", "message")

    def __init__(self, loc: str, message: str) -> None:
        _set(self, "loc", loc)
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"{self.loc}: {self.message}"


# ---------------------------------------------------------------------------
# concrete finite groups

class ConcreteFiniteGroup(Record):
    """A finite group as a full multiplication table over element indices.

    table[i][j] is the index of (element i) * (element j).  `verified`
    records that the group axioms hold: cyclic_group() and
    product_group() build groups by construction, and table_group()
    runs verify() on a table read from user input, so validate() need
    not run it again.  It is not an argument, so a group made any other
    way, extnat.replace() included, starts unverified.
    """

    __slots__ = ("table", "identity", "verified")
    _fields = ("table", "identity")

    def __init__(self, table: Tuple[Tuple[int, ...], ...], identity: int) -> None:
        _set(self, "table", table)
        _set(self, "identity", identity)
        _set(self, "verified", False)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def verify(self, loc: str = "table") -> List[Diagnostic]:
        out: List[Diagnostic] = []
        n = self.order
        for i, row in enumerate(self.table):
            if len(row) != n:
                out.append(Diagnostic(loc, f"row {i} has length {len(row)}, expected {n}"))
                return out
            for j, v in enumerate(row):
                if not 0 <= v < n:
                    out.append(Diagnostic(loc, f"entry ({i},{j}) = {v} out of range"))
                    return out
        e = self.identity
        if not 0 <= e < n:
            return [Diagnostic(loc, f"identity index {e} out of range")]
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                out.append(Diagnostic(loc, f"index {e} is not an identity (fails at {i})"))
                break
        for i in range(n):
            if e not in self.table[i]:
                out.append(Diagnostic(loc, f"element {i} has no inverse"))
                break
        if not out and self._light_associative():
            return out
        # name the first failing triples, as a scan of every triple finds them
        checked = 0
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        out.append(Diagnostic(
                            loc, f"associativity fails at ({a},{b},{c})"))
                        checked += 1
                        if checked >= 3:
                            return out
        return out

    def _light_associative(self) -> bool:
        """Light's test: (x s) y = x (s y) for every s of a generating set.

        The elements s that pass are closed under multiplication, so a
        passing generating set makes the whole table associative.  The
        set is greedy: each element not yet reached from the identity by
        right multiplication with the chosen ones joins it, so the
        closure is the whole table.  Needs a two-sided identity and
        entries in range.
        """
        t = self.table
        gens: List[int] = []
        reached = {self.identity}
        for g in range(len(t)):
            if g in reached:
                continue
            gens.append(g)
            todo = [t[a][g] for a in reached]
            while todo:
                a = todo.pop()
                if a not in reached:
                    reached.add(a)
                    todo.extend(t[a][s] for s in gens)
        for s in gens:
            right = t[s]
            for row in t:
                if t[row[s]] != tuple(map(row.__getitem__, right)):
                    return False
        return True


def cyclic_group(n: int) -> ConcreteFiniteGroup:
    if n < 1:
        raise ValueError("cyclic(n) needs n >= 1")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return _verified(ConcreteFiniteGroup(table, 0))


def product_group(factors: Sequence[ConcreteFiniteGroup]) -> ConcreteFiniteGroup:
    if not factors:
        raise ValueError("product(...) needs at least one factor")
    index_tuples = list(itertools.product(*[range(g.order) for g in factors]))
    pos = {t: i for i, t in enumerate(index_tuples)}
    table = tuple(
        tuple(pos[tuple(g.table[a[k]][b[k]] for k, g in enumerate(factors))]
              for b in index_tuples)
        for a in index_tuples)
    return _verified(ConcreteFiniteGroup(table, pos[tuple(g.identity for g in factors)]))


def table_group(rows: Sequence[Sequence[int]]) -> ConcreteFiniteGroup:
    """Group from an explicit multiplication table.

    The identity is located by scanning; a table without one, or one
    failing the group axioms, raises ValueError.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty multiplication table")
    table = tuple(tuple(int(v) for v in row) for row in rows)
    identity = None
    for e in range(n):
        if len(table[e]) == n and all(
                len(table[i]) == n and table[e][i] == i and table[i][e] == i
                for i in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("multiplication table has no identity element")
    g = ConcreteFiniteGroup(table, identity)
    problems = g.verify()
    if problems:
        raise ValueError("; ".join(d.message for d in problems))
    return _verified(g)


def _verified(g: ConcreteFiniteGroup) -> ConcreteFiniteGroup:
    _set(g, "verified", True)
    return g


class Homomorphism(Record):
    """A verified map between two named concrete groups, as a full image table.

    `verified_on` holds the (source, target) groups verify() passed
    against when hom_from_generator_images() built the map, so
    validate() need not run it again while the names still denote those
    groups; like ConcreteFiniteGroup.verified it is not an argument, so
    extnat.replace() gives an unverified copy.
    """

    __slots__ = ("name", "source", "target", "images", "verified_on")
    _fields = ("name", "source", "target", "images")

    def __init__(self, name: str, source: str, target: str,
                 images: Tuple[int, ...]) -> None:
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "images", images)
        _set(self, "verified_on", None)

    @property
    def injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def image_set(self) -> frozenset:
        return frozenset(self.images)

    def verify(self, src: ConcreteFiniteGroup, tgt: ConcreteFiniteGroup,
               loc: str = "hom") -> List[Diagnostic]:
        out: List[Diagnostic] = []
        if len(self.images) != src.order:
            return [Diagnostic(loc, f"image table length {len(self.images)} != source order {src.order}")]
        for v in self.images:
            if not 0 <= v < tgt.order:
                return [Diagnostic(loc, f"image {v} out of range for target")]
        for a in range(src.order):
            for b in range(src.order):
                if self.images[src.table[a][b]] != tgt.table[self.images[a]][self.images[b]]:
                    out.append(Diagnostic(loc, f"not a homomorphism at ({a},{b})"))
                    return out
        return out


def hom_from_generator_images(name: str, source: str, target: str,
                              src: ConcreteFiniteGroup, tgt: ConcreteFiniteGroup,
                              pairs: Sequence[Tuple[int, int]]) -> Union[Homomorphism, Diagnostic]:
    """Extend generator images to the whole source group by closure.

    Returns a Diagnostic when the listed elements do not generate the
    source or the images are inconsistent with the multiplication.
    """
    loc = f"hom {name}"
    images: Dict[int, int] = {src.identity: tgt.identity}
    for s, t in pairs:
        if not 0 <= s < src.order:
            return Diagnostic(loc, f"source element {s} out of range")
        if not 0 <= t < tgt.order:
            return Diagnostic(loc, f"target element {t} out of range")
        if images.get(s, t) != t:
            return Diagnostic(loc, f"conflicting images for element {s}")
        images[s] = t
    frontier = list(images)
    while frontier:
        nxt = []
        for a in frontier:
            for s, t in list(images.items()):
                for c, ic in ((src.table[a][s], tgt.table[images[a]][t]),
                              (src.table[s][a], tgt.table[t][images[a]])):
                    known = images.get(c)
                    if known is None:
                        images[c] = ic
                        nxt.append(c)
                    elif known != ic:
                        return Diagnostic(loc, "generator images are inconsistent")
        frontier = nxt
    if len(images) != src.order:
        return Diagnostic(loc, "listed elements do not generate the source group")
    hom = Homomorphism(name, source, target, tuple(images[i] for i in range(src.order)))
    errs = hom.verify(src, tgt, loc)
    if errs:
        return errs[0]
    _set(hom, "verified_on", (src, tgt))
    return hom


# ---------------------------------------------------------------------------
# group expressions

# Each expression computes its key (see expr_key) when it is made and
# keeps it outside its fields, so equality and hashing compare the
# fields alone; the trivial group's key is a constant.

class Ref(Record):
    'Reference to any named declaration (atom, definition, graph, ...).'

    __slots__ = ("name", "key")
    _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "key", "@" + name)


class TrivialGroup(Record):
    __slots__ = ()
    key = "1"


class DirectProduct(Record):
    __slots__ = ("factors", "key")
    _fields = ("factors",)

    def __init__(self, factors: Tuple["GroupExpr", ...]) -> None:
        _set(self, "factors", factors)
        _set(self, "key", "x(" + ",".join([f.key for f in factors]) + ")")


class FreeProduct(Record):
    __slots__ = ("factors", "key")
    _fields = ("factors",)

    def __init__(self, factors: Tuple["GroupExpr", ...]) -> None:
        _set(self, "factors", factors)
        _set(self, "key", "*(" + ",".join([f.key for f in factors]) + ")")


GroupExpr = Union[Ref, TrivialGroup, DirectProduct, FreeProduct]

TRIVIAL = TrivialGroup()


def expr_key(e: GroupExpr) -> str:
    """Stable structural key, used for memo tables and deterministic
    output: equal expressions, and only they, have equal keys.  It is
    the expression's `key`, computed when the expression is made."""
    try:
        return e.key
    except AttributeError:
        raise TypeError(f"not a group expression: {e!r}") from None


def expr_refs(e: GroupExpr) -> List[str]:
    if isinstance(e, Ref):
        return [e.name]
    if isinstance(e, (DirectProduct, FreeProduct)):
        out: List[str] = []
        for f in e.factors:
            out.extend(expr_refs(f))
        return out
    return []


def free_group_expr(rank: int) -> GroupExpr:
    'free(k) is spelled out as a free product of k copies of the atom Z.'
    if rank < 0:
        raise ValueError("free(k) needs k >= 0")
    if rank == 0:
        return TRIVIAL
    if rank == 1:
        return Ref("Z")
    return FreeProduct(tuple(Ref("Z") for _ in range(rank)))


# ---------------------------------------------------------------------------
# combination carriers

class Edge(Record):
    __slots__ = ("v", "w", "group", "maps")

    def __init__(self, v: str, w: str, group: GroupExpr,
                 maps: Optional[Tuple[str, str]] = None) -> None:
        _set(self, "v", v)
        _set(self, "w", w)
        _set(self, "group", group)
        _set(self, "maps", maps)    # hom names into G_v, G_w; None = asserted


class GraphOfGroups(Record):
    __slots__ = ("name", "vertices", "edges", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, vertices: Tuple[Tuple[str, GroupExpr], ...],
                 edges: Tuple[Edge, ...], loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        _set(self, "loc", loc)

    def vertex_ids(self) -> List[str]:
        return [k for k, _ in self.vertices]


class PolygonOfGroups(Record):
    """A d-gon with groups on vertices, edges and the face.

    Edge i joins vertex i to vertex i+1 (mod d).  edge_maps[i], when
    concrete, names the homs from edge group i into vertex group i and
    vertex group i+1; face_maps[i] names the hom from the face group
    into edge group i.
    """

    __slots__ = ("name", "d", "vertex_groups", "edge_groups", "face_group",
                 "edge_maps", "face_maps", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, d: int, vertex_groups: Tuple[GroupExpr, ...],
                 edge_groups: Tuple[GroupExpr, ...], face_group: GroupExpr,
                 edge_maps: Optional[Tuple[Tuple[str, str], ...]] = None,
                 face_maps: Optional[Tuple[str, ...]] = None, loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "d", d)
        _set(self, "vertex_groups", vertex_groups)
        _set(self, "edge_groups", edge_groups)
        _set(self, "face_group", face_group)
        _set(self, "edge_maps", edge_maps)
        _set(self, "face_maps", face_maps)
        _set(self, "loc", loc)

    @property
    def concrete_maps(self) -> bool:
        return self.edge_maps is not None and self.face_maps is not None


class GcwDescription(Record):
    'Orbit stabilizers of a finite-dimensional cocompact complex, per dimension.'

    __slots__ = ("name", "dims", "contractible", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, dims: Tuple[Tuple[GroupExpr, ...], ...],
                 contractible: bool = False, loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "dims", dims)
        _set(self, "contractible", contractible)
        _set(self, "loc", loc)

    @property
    def n(self) -> int:
        return len(self.dims) - 1

    def cells(self) -> List[Tuple[int, GroupExpr]]:
        return [(d, g) for d, row in enumerate(self.dims) for g in row]


# ---------------------------------------------------------------------------
# the universe of declarations

# the tables of a Universe; validate() checks all but the families
GROUP_TABLES = ("sheets", "defs", "concretes", "graphs", "polygons", "gcws")
TABLES = GROUP_TABLES + ("homs", "setups", "families")


class Universe:
    """Symbol table for one loaded model.

    Group-like declarations share one namespace; homs, families and the
    application setups each get their own.  An atom may carry both a
    fact sheet and a concrete realization under the same name.

    `validated` is a snapshot of every table of this universe, or of
    the nearest one it was overlaid from, as they stood when it passed
    validate(), or None if none has; dsl.load_text keys its kept loads
    by it, and validate() closes copies of the fact sheets it holds.  A
    snapshot's own `validated` is None.
    """

    def __init__(self) -> None:
        self.sheets: Dict[str, object] = {}        # name -> facts.FactSheet
        self.defs: Dict[str, GroupExpr] = {}
        self.concretes: Dict[str, ConcreteFiniteGroup] = {}
        self.graphs: Dict[str, GraphOfGroups] = {}
        self.polygons: Dict[str, PolygonOfGroups] = {}
        self.gcws: Dict[str, GcwDescription] = {}
        self.homs: Dict[str, Homomorphism] = {}
        self.families: Dict[str, object] = {}      # name -> facts.Family
        self.setups: Dict[str, object] = {}        # name -> apps setup
        self.validated: Optional[Universe] = None

    # -- declaration ------------------------------------------------------

    def group_names(self) -> Set[str]:
        return set().union(*(getattr(self, attr) for attr in GROUP_TABLES))

    def declares(self, name: str) -> bool:
        """Whether a group-like declaration holds the name; resolve() says
        which.  The GROUP_TABLES, spelled out: this runs once per name a
        load checks."""
        return (name in self.sheets or name in self.defs or name in self.concretes
                or name in self.graphs or name in self.polygons or name in self.gcws)

    def overlay(self) -> "Universe":
        """A new universe over copies of every table, so declarations
        added to it leave this one unchanged.  Declared objects are
        shared, not copied."""
        u = Universe()
        for attr in TABLES:
            getattr(u, attr).update(getattr(self, attr))
        u.validated = self.validated
        return u

    def drop_group(self, name: str) -> None:
        'Used when a later declaration shadows a prelude name.'
        for attr in GROUP_TABLES:
            getattr(self, attr).pop(name, None)

    # -- resolution -------------------------------------------------------

    def resolve(self, e: GroupExpr) -> Tuple[str, object]:
        'resolve_chain without the chain.'
        kind, payload, _ = self.resolve_chain(e)
        return kind, payload

    def resolve_chain(self, e: GroupExpr) -> Tuple[str, object, Tuple[str, ...]]:
        """Classify an expression: ('trivial'|'product'|'free'|kind, payload),
        plus the named definitions chased on the way.

        The chain lists every Ref name passed through, outermost first,
        including a terminal atom.  Fact sheets declared on any chain
        name apply to the expression.  A circular chain raises
        ValueError (validate() reports such chains as diagnostics
        beforehand).
        """
        chain: List[str] = []
        seen: Set[str] = set()
        while True:
            if isinstance(e, TrivialGroup):
                return "trivial", e, tuple(chain)
            if isinstance(e, DirectProduct):
                return "product", e, tuple(chain)
            if isinstance(e, FreeProduct):
                return "free", e, tuple(chain)
            if not isinstance(e, Ref):
                raise TypeError(f"not a group expression: {e!r}")
            name = e.name
            if name in seen:
                raise ValueError(f"circular definition through {name!r}")
            seen.add(name)
            chain.append(name)
            if name in self.defs:
                e = self.defs[name]
                continue
            if name in self.graphs:
                return "graph", self.graphs[name], tuple(chain)
            if name in self.polygons:
                return "polygon", self.polygons[name], tuple(chain)
            if name in self.gcws:
                return "gcw", self.gcws[name], tuple(chain)
            if name in self.sheets or name in self.concretes:
                return "atom", name, tuple(chain)
            raise KeyError(f"unresolved group name {name!r}")

    def dependencies(self, name: str) -> List[str]:
        out: List[str] = []
        if name in self.defs:
            out.extend(expr_refs(self.defs[name]))
        if name in self.graphs:
            g = self.graphs[name]
            for _, ge in g.vertices:
                out.extend(expr_refs(ge))
            for e in g.edges:
                out.extend(expr_refs(e.group))
        if name in self.polygons:
            p = self.polygons[name]
            for ge in p.vertex_groups + p.edge_groups + (p.face_group,):
                out.extend(expr_refs(ge))
        if name in self.gcws:
            for _, ge in self.gcws[name].cells():
                out.extend(expr_refs(ge))
        return out


# ---------------------------------------------------------------------------
# concrete incidence maps

def resolve_maps(u: Universe, cells: Sequence[Tuple[str, Optional[GroupExpr]]],
                 maps: Sequence[Tuple[str, int, int]]
                 ) -> Tuple[List[Optional[Homomorphism]], List[str]]:
    """The homs a carrier's incidence maps name, checked against its cells.

    A cell is (what it is, its group), a map (hom name, source cell,
    target cell).  Every cell must name a concrete group, or no hom is
    looked up and every hom reads None.  Each hom must exist, map the
    source cell's group to the target cell's, fit them (one image per
    source element, each in the target) and be injective.  Returns the
    homs, None for one that fails before injectivity, and the problems.
    """
    names = [e.name if isinstance(e, Ref) and e.name in u.concretes else None
             for _, e in cells]
    problems = [f"{what} must name a concrete group when maps are given"
                for (what, _), name in zip(cells, names) if name is None]
    if problems:
        return [None] * len(maps), problems
    groups = [u.concretes[name] for name in names]
    homs: List[Optional[Homomorphism]] = []
    for hname, s, t in maps:
        h = u.homs.get(hname)
        if h is None:
            problems.append(f"unknown hom {hname!r}")
        elif (h.source, h.target) != (names[s], names[t]):
            problems.append(f"hom {hname!r} should map {names[s]} -> {names[t]}")
            h = None
        elif h.verified_on != (groups[s], groups[t]) and (
                len(h.images) != groups[s].order
                or not all(0 <= v < groups[t].order for v in h.images)):
            problems.append(f"hom {hname!r} does not fit {names[s]} -> {names[t]}")
            h = None
        elif not h.injective:
            problems.append(f"hom {hname!r} must be injective")
        homs.append(h)
    return homs, problems


def edge_injections(u: Universe, g: GraphOfGroups, e: Edge
                    ) -> Tuple[List[Optional[Homomorphism]], List[str]]:
    'resolve_maps for the maps of edge e of g, into the groups at e.v and at e.w.'
    ends = dict(g.vertices)
    return resolve_maps(u, [("edge group", e.group), (f"vertex {e.v}", ends.get(e.v)),
                            (f"vertex {e.w}", ends.get(e.w))],
                        [(e.maps[0], 0, 1), (e.maps[1], 0, 2)])


class PolygonCharts(Record):
    """Concrete images of a polygon's groups inside each vertex group:
    chart i holds, inside G_i, the images of the incoming edge group
    E_{i-1}, of the outgoing edge group E_i and of the face group."""

    __slots__ = ("groups", "edge_groups", "face_group", "incoming", "outgoing",
                 "face_image")

    def __init__(self, groups: Tuple[ConcreteFiniteGroup, ...],
                 edge_groups: Tuple[ConcreteFiniteGroup, ...],
                 face_group: ConcreteFiniteGroup, incoming: Tuple[frozenset, ...],
                 outgoing: Tuple[frozenset, ...],
                 face_image: Tuple[frozenset, ...]) -> None:
        _set(self, "groups", groups)
        _set(self, "edge_groups", edge_groups)
        _set(self, "face_group", face_group)
        _set(self, "incoming", incoming)
        _set(self, "outgoing", outgoing)
        _set(self, "face_image", face_image)


def polygon_charts(u: Universe, p: PolygonOfGroups
                   ) -> Tuple[Optional[PolygonCharts], List[str]]:
    """The charts of a polygon with concrete maps, or None and the
    problems: those of resolve_maps, and each vertex the face reaches
    one way through the incoming edge, another through the outgoing one."""
    if not p.concrete_maps:
        return None, ["no concrete maps are given"]
    d = p.d
    cells = ([(f"vertex {i}", g) for i, g in enumerate(p.vertex_groups)]
             + [(f"edge {i}", g) for i, g in enumerate(p.edge_groups)]
             + [("face", p.face_group)])
    # per edge i: its maps into vertices i and i + 1, then the face's into it
    homs, problems = resolve_maps(u, cells, [
        m for i, (into_v, into_w) in enumerate(p.edge_maps)
        for m in ((into_v, d + i, i), (into_w, d + i, (i + 1) % d),
                  (p.face_maps[i], 2 * d, d + i))])
    face_image = []
    for i in range(d):
        j = (i - 1) % d
        routes = (homs[3 * j + 1], homs[3 * j + 2]), (homs[3 * i], homs[3 * i + 2])
        if None not in routes[0] + routes[1]:
            via_in, via_out = (tuple(to_v.images[x] for x in face.images)
                               for to_v, face in routes)
            if via_in != via_out:
                problems.append(f"face maps do not commute with incidence at vertex {i}")
            face_image.append(frozenset(via_out))
    if problems:
        return None, problems
    c = u.concretes
    return PolygonCharts(
        tuple(c[g.name] for g in p.vertex_groups),
        tuple(c[g.name] for g in p.edge_groups), c[p.face_group.name],
        tuple(homs[3 * ((i - 1) % d) + 1].image_set() for i in range(d)),
        tuple(homs[3 * i].image_set() for i in range(d)), tuple(face_image)), []


def _polygon_arity(p: PolygonOfGroups) -> Optional[str]:
    'A list of the wrong length, or None; validate() checks nothing else of such a polygon.'
    if len(p.vertex_groups) != p.d or len(p.edge_groups) != p.d:
        return f"polygon {p.name!r} needs exactly {p.d} vertex and edge entries"
    if p.edge_maps is not None and len(p.edge_maps) != p.d:
        return f"polygon {p.name!r} needs {p.d} edge map pairs"
    if p.face_maps is not None and len(p.face_maps) != p.d:
        return f"polygon {p.name!r} needs {p.d} face maps"
    return None


def _connected(vertex_ids: List[str], edges: Sequence[Edge]) -> bool:
    if not vertex_ids:
        return False
    seen = {vertex_ids[0]}
    frontier = [vertex_ids[0]]
    while frontier:
        v = frontier.pop()
        for e in edges:
            for a, b in ((e.v, e.w), (e.w, e.v)):
                if a == v and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return seen == set(vertex_ids)


def validate(u: Universe) -> List[Diagnostic]:
    """Every check of every declaration of `u`, as a diagnostic list,
    each problem once, in the order first found; fact sheets are
    checked in the facts module and setups by apps.build_setup.
    dsl.build_universe only builds.

    A table group or hom that passed verify() when it was built (see
    its `verified` or `verified_on`) is not verified again, and a fact
    sheet shared with `u.validated` is closed on a copy (see
    facts.sheet_diagnostics).  A universe that passes records a
    snapshot of its tables, families included, in `u.validated`.
    """
    out: List[Diagnostic] = []

    for name in sorted(u.concretes):
        g = u.concretes[name]
        if not g.verified:
            out.extend(g.verify(f"group {name}"))

    for name in sorted(u.homs):
        h = u.homs[name]
        loc = f"hom {name}"
        src = u.concretes.get(h.source)
        tgt = u.concretes.get(h.target)
        if src is None:
            out.append(Diagnostic(loc, f"source {h.source!r} is not a concrete group"))
        if tgt is None:
            out.append(Diagnostic(loc, f"target {h.target!r} is not a concrete group"))
        if src is not None and tgt is not None and h.verified_on != (src, tgt):
            out.extend(h.verify(src, tgt, loc))

    def check_expr(e: GroupExpr, loc: str) -> None:
        if isinstance(e, (DirectProduct, FreeProduct)):
            if not e.factors:
                out.append(Diagnostic(loc, "empty product expression"))
            for f in e.factors:
                check_expr(f, loc)
        elif isinstance(e, Ref) and not u.declares(e.name):
            out.append(Diagnostic(loc, f"unresolved group name {e.name!r}"))

    for name in sorted(u.defs):
        check_expr(u.defs[name], f"group {name}")

    for name in sorted(u.graphs):
        g = u.graphs[name]
        loc = f"graph {name}"
        ids = g.vertex_ids()
        if len(set(ids)) != len(ids):
            out.extend(Diagnostic(g.loc or loc, f"duplicate vertex id {vid!r}")
                       for vid, n in Counter(ids).items() if n > 1)
        if not ids:
            out.append(Diagnostic(g.loc or loc, "graph needs at least one vertex"))
        for _, ge in g.vertices:
            check_expr(ge, loc)
        for i, e in enumerate(g.edges):
            eloc = f"{loc} edge {i}"
            unknown = [end for end in (e.v, e.w) if end not in ids]
            out.extend(Diagnostic(eloc, f"unknown endpoint {end!r}") for end in unknown)
            check_expr(e.group, eloc)
            if e.maps is not None and not unknown:
                out.extend(Diagnostic(eloc, m) for m in edge_injections(u, g, e)[1])
        if ids and not _connected(ids, g.edges):
            out.append(Diagnostic(g.loc or loc, "underlying graph is not connected"))

    for name in sorted(u.polygons):
        p = u.polygons[name]
        loc = f"polygon {name}"
        problem = _polygon_arity(p)
        if problem:
            out.append(Diagnostic(p.loc or loc, problem))
            continue
        if p.d < 3:
            out.append(Diagnostic(loc, f"d = {p.d}, but a polygon needs d >= 3"))
        for ge in p.vertex_groups + p.edge_groups + (p.face_group,):
            check_expr(ge, loc)
        if (p.edge_maps is None) != (p.face_maps is None):
            out.append(Diagnostic(loc, "give all incidence maps or none"))
        elif p.concrete_maps:
            out.extend(Diagnostic(loc, m) for m in polygon_charts(u, p)[1])

    for name in sorted(u.gcws):
        x = u.gcws[name]
        loc = f"gcw {name}"
        if not x.dims:
            out.append(Diagnostic(loc, "needs at least dimension 0"))
            continue
        if x.contractible and not x.dims[0]:
            out.append(Diagnostic(loc, "contractible complex needs a 0-cell"))
        for _, ge in x.cells():
            check_expr(ge, loc)

    out.extend(_cycle_diagnostics(u))

    # fact-sheet closure and consistency lives with the fact logic
    from .facts import sheet_diagnostics
    for name in sorted(u.sheets):
        out.extend(sheet_diagnostics(u, name))

    from .apps import build_setup
    for name in sorted(u.setups):
        out.extend(build_setup(u, u.setups[name]))

    out = list(dict.fromkeys(out))
    if not out:
        u.validated = Universe()
        for attr in TABLES:
            getattr(u.validated, attr).update(getattr(u, attr))
    return out


def _cycle_diagnostics(u: Universe) -> List[Diagnostic]:
    """Each definition cycle met by a depth-first walk from the declared
    names in sorted order, reported where the walk closes it.  The walk
    keeps its own stack, so a chain of any length fits."""
    out: List[Diagnostic] = []
    state: Dict[str, int] = {}  # 1 = on the path, 2 = done
    for root in sorted(u.group_names()):
        if root in state:
            continue
        path = [root]
        state[root] = 1
        pending = [iter(u.dependencies(root))]
        while pending:
            for dep in pending[-1]:
                mark = state.get(dep)
                if mark == 1:
                    cycle = path[path.index(dep):] + [dep]
                    out.append(Diagnostic(
                        f"group {dep}", "circular definition: " + " -> ".join(cycle)))
                elif mark is None:
                    state[dep] = 1
                    path.append(dep)
                    pending.append(iter(u.dependencies(dep)))
                    break
            else:
                state[path.pop()] = 2
                pending.pop()
    return out
