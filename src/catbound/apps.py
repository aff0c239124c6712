"""Certificate pipelines for glued spaces.

Three kinds of setup are translated into group-level instances:

  * gluing: pieces with boundary components, some paired off;
  * double: two copies of one piece glued along every boundary
    component;
  * branched: d copies of one piece arranged cyclically around a
    common core, modeled as a d-gon of groups.

Each certify function checks the hypotheses it can (engine bounds where
computable, recorded assertions otherwise), derives an amenable-category
bound, and emits a Certificate.  Conclusions, strongest first:
volume_vanishes, cat_bound, inconclusive.  A certificate never claims
nonvanishing, and volume_vanishes requires a category bound strictly
below the dimension with no failed hypothesis.

The two vanishing scopes (paired interfaces only vs every boundary
component) are checked and reported separately in the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .engine import BoundResult, DerivationNode, Evaluator, _leaf, _sumnode, _supnode
from .extnat import ExtNat
from .facts import AM
from .model import (Diagnostic, Edge, GraphOfGroups, GroupExpr,
                    PolygonOfGroups, Ref, Universe)


@dataclass(frozen=True)
class BoundaryComponent:
    id: str
    group: GroupExpr
    pi1_injective: bool
    cat_space: Optional[ExtNat] = None


@dataclass(frozen=True)
class Piece:
    id: str
    group: GroupExpr
    cat_space: Optional[ExtNat] = None
    boundaries: Tuple[BoundaryComponent, ...] = ()


Pairing = Tuple[Tuple[str, str], Tuple[str, str]]


@dataclass(frozen=True)
class GluingSetup:
    name: str
    n: int
    pieces: Tuple[Piece, ...]
    pairings: Tuple[Pairing, ...]
    connected: bool
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class DoubleSetup:
    name: str
    n: int
    piece: Piece
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class BranchedSetup:
    name: str
    n: int
    d: int
    piece: GroupExpr
    wall: GroupExpr
    core: GroupExpr
    assume_pi1: bool
    assume_intersection: bool
    wall_embeds: Optional[Tuple[str, str]] = None
    core_embeds: Optional[str] = None
    loc: str = field(compare=False, default="")


@dataclass
class LedgerItem:
    item: str
    status: str                 # verified | asserted | failed
    detail: str = ""

    def to_json(self) -> dict:
        return {"item": self.item, "status": self.status, "detail": self.detail}


@dataclass
class Certificate:
    conclusion: str             # volume_vanishes | cat_bound | inconclusive
    value: Optional[ExtNat]
    ledger: List[LedgerItem] = field(default_factory=list)
    trace: Optional[DerivationNode] = None

    def failed_items(self) -> List[LedgerItem]:
        return [x for x in self.ledger if x.status == "failed"]

    def to_json(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "value": self.value.to_json() if self.value is not None else None,
            "ledger": [x.to_json() for x in self.ledger],
            "trace": self.trace.to_json() if self.trace is not None else None,
        }

    def to_text(self) -> str:
        lines = [f"conclusion: {self.conclusion}"]
        if self.value is not None:
            lines.append(f"category bound: {self.value}")
        lines.append("hypotheses:")
        for x in self.ledger:
            detail = f"  ({x.detail})" if x.detail else ""
            lines.append(f"  [{x.status}] {x.item}{detail}")
        return "\n".join(lines)


class PreconditionError(ValueError):
    'A setup violates a hard precondition of the theorem it invokes.'


# -- checking parsed setups -----------------------------------------------

Setup = Union[GluingSetup, DoubleSetup, BranchedSetup]


def build_setup(u: Universe, setup: Setup) -> Tuple[Optional[Setup], List[Diagnostic]]:
    """Check a parsed setup against the preconditions of its kind.

    Returns the setup, or None when it has problems, with the
    diagnostics.  Group names are checked by the caller, once every
    declaration is registered.
    """
    if isinstance(setup, GluingSetup):
        diags = _gluing_diagnostics(setup)
    elif isinstance(setup, DoubleSetup):
        diags = _check_ids([b.id for b in setup.piece.boundaries], setup.loc, "boundary")
        if setup.n < 1:
            diags.append(Diagnostic(setup.loc, "dimension n must be at least 1"))
        if not setup.piece.boundaries:
            diags.append(Diagnostic(setup.loc, "a double needs at least one boundary component"))
    elif isinstance(setup, BranchedSetup):
        diags = []
        if setup.n < 3:
            diags.append(Diagnostic(setup.loc, "branched setups need n >= 3"))
        if setup.d < 1:
            diags.append(Diagnostic(setup.loc, "the number of copies d must be at least 1"))
        for hname in (setup.wall_embeds or ()) + ((setup.core_embeds,) if setup.core_embeds else ()):
            if hname not in u.homs:
                diags.append(Diagnostic(setup.loc, f"unknown homomorphism {hname!r}"))
    else:
        raise TypeError(f"not a setup: {setup!r}")
    return (None if diags else setup), diags


def _gluing_diagnostics(s: GluingSetup) -> List[Diagnostic]:
    diags = _check_ids([p.id for p in s.pieces], s.loc, "piece")
    for p in s.pieces:
        diags.extend(_check_ids([b.id for b in p.boundaries], s.loc,
                                f"boundary of {p.id}"))
    if s.n < 1:
        diags.append(Diagnostic(s.loc, "dimension n must be at least 1"))
    by_id = {p.id: p for p in s.pieces}
    used: set = set()
    for (pa, ba), (pb, bb) in s.pairings:
        for pid, bid in ((pa, ba), (pb, bb)):
            piece = by_id.get(pid)
            if piece is None:
                diags.append(Diagnostic(s.loc, f"pairing names unknown piece {pid!r}"))
                continue
            if all(b.id != bid for b in piece.boundaries):
                diags.append(Diagnostic(
                    s.loc, f"pairing names unknown boundary {pid}.{bid}"))
                continue
            if (pid, bid) in used:
                diags.append(Diagnostic(
                    s.loc, f"boundary {pid}.{bid} used in more than one pairing"))
            used.add((pid, bid))
    return diags


def _check_ids(ids: List[str], loc: str, what: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    seen: set = set()
    for i in ids:
        if i in seen:
            out.append(Diagnostic(loc, f"duplicate {what} id {i!r}"))
        seen.add(i)
    return out


# -- translation ----------------------------------------------------------

def gluing_to_gog(s: GluingSetup) -> GraphOfGroups:
    'Pieces become vertices; each pairing an edge with the + side group.'
    by_id = {p.id: p for p in s.pieces}
    edges = []
    for (pa, ba), (pb, bb) in s.pairings:
        plus = by_id.get(pa)
        if plus is None:
            raise ValueError(f"pairing names unknown piece {pa!r}")
        if pb not in by_id:
            raise ValueError(f"pairing names unknown piece {pb!r}")
        boundary = next((b for b in plus.boundaries if b.id == ba), None)
        if boundary is None:
            raise ValueError(f"pairing names unknown boundary {pa}.{ba}")
        edges.append(Edge(pa, pb, boundary.group, None))
    return GraphOfGroups(f"{s.name}@gog",
                         tuple((p.id, p.group) for p in s.pieces),
                         tuple(edges))


def double_to_gluing(s: DoubleSetup) -> GluingSetup:
    left = Piece("copyA", s.piece.group, s.piece.cat_space, s.piece.boundaries)
    right = Piece("copyB", s.piece.group, s.piece.cat_space, s.piece.boundaries)
    pairings = tuple((("copyA", b.id), ("copyB", b.id))
                     for b in s.piece.boundaries)
    return GluingSetup(f"{s.name}@double", s.n, (left, right), pairings, True)


# -- certificates ---------------------------------------------------------

def certify_gluing(u: Universe, s: GluingSetup) -> Certificate:
    """Category bound through the graph of groups, then the vanishing
    criteria.  Paired-interface hypotheses and the all-boundary scope
    are ledgered separately."""
    n = s.n
    gog = gluing_to_gog(s)
    with_gog = u.overlay()
    with_gog.graphs[gog.name] = gog
    ev = Evaluator(with_gog)
    ledger: List[LedgerItem] = []
    by_id = {p.id: p for p in s.pieces}

    ledger.append(LedgerItem(
        "connectedness of the glued space",
        "asserted" if s.connected else "failed",
        "" if s.connected else "not asserted"))
    for j, ((pa, ba), (pb, bb)) in enumerate(s.pairings):
        plus = _boundary(by_id, pa, ba)
        minus = _boundary(by_id, pb, bb)
        ok = plus.pi1_injective and minus.pi1_injective
        ledger.append(LedgerItem(
            f"(i) pairing {j} [{pa}.{ba} ~ {pb}.{bb}]: interface "
            "pi1-injective on both sides",
            "asserted" if ok else "failed",
            "" if ok else "injectivity not asserted"))
        gd = ev.bound_gd(plus.group)
        good = gd.value <= ExtNat(n - 2)
        ledger.append(LedgerItem(
            f"(ii) pairing {j}: gd of the interface group at most {n - 2}",
            "verified" if good else "failed",
            f"gd bound {gd.value}"))
    for p in s.pieces:
        value, _, status = _space_cat(ev, p.group, p.cat_space)
        good = value <= ExtNat(n - 1)
        ledger.append(LedgerItem(
            f"(iii) piece {p.id}: amenable category at most {n - 1}",
            status if good else "failed",
            f"category bound {value}"))

    cat = ev.bound_cat(Ref(gog.name), AM)
    established = (cat.value <= ExtNat(n - 1)
                   and not any(x.status == "failed" for x in ledger))

    # the all-components scope: needed for vanishing, paired or not
    scope_ok = True
    for p in s.pieces:
        for b in p.boundaries:
            inj = b.pi1_injective
            ledger.append(LedgerItem(
                f"boundary scope: {p.id}.{b.id} pi1-injective",
                "asserted" if inj else "failed",
                "" if inj else "injectivity not asserted"))
            gd = ev.bound_gd(b.group)
            good = gd.value <= ExtNat(n - 2)
            ledger.append(LedgerItem(
                f"boundary scope: gd of {p.id}.{b.id} at most {n - 2}",
                "verified" if good else "failed",
                f"gd bound {gd.value}"))
            scope_ok = scope_ok and inj and good

    if established and scope_ok:
        return Certificate("volume_vanishes", cat.value, ledger, cat.trace)
    if established:
        return Certificate("cat_bound", cat.value, ledger, cat.trace)
    return Certificate("inconclusive", None, ledger, cat.trace)


def _boundary(by_id: Dict[str, Piece], pid: str, bid: str) -> BoundaryComponent:
    piece = by_id.get(pid)
    if piece is None:
        raise ValueError(f"pairing names unknown piece {pid!r}")
    b = next((x for x in piece.boundaries if x.id == bid), None)
    if b is None:
        raise ValueError(f"pairing names unknown boundary {pid}.{bid}")
    return b


def _space_cat(ev: Evaluator, group: GroupExpr, declared: Optional[ExtNat]
               ) -> Tuple[ExtNat, DerivationNode, str]:
    """Space-level amenable category: a declared bound against the
    engine bound on the fundamental group, whichever is smaller."""
    r = ev.bound_cat(group, AM)
    if declared is not None and declared < r.value:
        node = _leaf("space-declared", "declared space-level category bound",
                     declared)
        return declared, node, "asserted"
    return r.value, r.trace, "verified" if r.value.is_finite else "failed"


def gluing_sum_bound(u: Universe, s: GluingSetup) -> BoundResult:
    """Additive category bound: pieces plus shifted interfaces.

    With no pairings the interface term is an empty supremum, 0.
    """
    ev = Evaluator(u)
    by_id = {p.id: p for p in s.pieces}
    piece_nodes = [_space_cat(ev, p.group, p.cat_space)[1] for p in s.pieces]
    interface_nodes = []
    for (pa, ba), _ in s.pairings:
        b = _boundary(by_id, pa, ba)
        value, node, _ = _space_cat(ev, b.group, b.cat_space)
        interface_nodes.append(_sumnode(
            "plus", "interface shifted by one",
            [node, _leaf("const", "interface shift", ExtNat(1))]))
    root = _sumnode("gluing-sum",
                    "pieces plus shifted interfaces, tree of spaces",
                    [_supnode("sup", "over pieces", piece_nodes),
                     _supnode("sup", "over paired interfaces", interface_nodes)])
    return BoundResult("cat", AM.name, root.value, root)


def certify_double(u: Universe, s: DoubleSetup) -> Certificate:
    """Both routes on the induced two-copy gluing; the better one wins.

    When neither route concludes, both ledgers are merged with route
    tags so the failing hypothesis is named.
    """
    glue = double_to_gluing(s)
    max_route = certify_gluing(u, glue)

    sum_bound = gluing_sum_bound(u, glue)
    sum_ledger = [LedgerItem(
        f"additive bound at most {s.n - 1}",
        "verified" if sum_bound.value <= ExtNat(s.n - 1) else "failed",
        f"bound {sum_bound.value}")]
    if sum_bound.value <= ExtNat(s.n - 1):
        # the double is closed, so a category bound below n suffices
        sum_route = Certificate("volume_vanishes", sum_bound.value,
                                sum_ledger, sum_bound.trace)
    else:
        sum_route = Certificate("inconclusive", None, sum_ledger,
                                sum_bound.trace)

    rank = {"volume_vanishes": 2, "cat_bound": 1, "inconclusive": 0}
    if rank[max_route.conclusion] >= rank[sum_route.conclusion]:
        best, other = max_route, sum_route
    else:
        best, other = sum_route, max_route
    if best.conclusion != "inconclusive":
        return best
    merged = [LedgerItem(f"max route: {x.item}", x.status, x.detail)
              for x in max_route.ledger]
    merged += [LedgerItem(f"sum route: {x.item}", x.status, x.detail)
               for x in sum_route.ledger]
    return Certificate("inconclusive", None, merged, best.trace)


def certify_branched(u: Universe, s: BranchedSetup) -> Certificate:
    """d copies around a core, bounded through a d-gon of groups.

    Refuses d <= 3 outright: the polygon route requires at least four
    sides.
    """
    if s.d <= 3:
        raise PreconditionError(
            f"branched setup {s.name!r} has d = {s.d}; the polygon bound "
            "requires d >= 4")
    n = s.n
    concrete_check = s.wall_embeds is not None and s.core_embeds is not None
    edge_maps = tuple(s.wall_embeds for _ in range(s.d)) if concrete_check else None
    face_maps = tuple(s.core_embeds for _ in range(s.d)) if concrete_check else None
    polygon = PolygonOfGroups(f"{s.name}@polygon", s.d,
                              tuple(s.piece for _ in range(s.d)),
                              tuple(s.wall for _ in range(s.d)),
                              s.core, edge_maps, face_maps)
    with_polygon = u.overlay()
    with_polygon.polygons[polygon.name] = polygon
    ev = Evaluator(with_polygon)
    ledger: List[LedgerItem] = []

    ledger.append(LedgerItem(
        "(i) wall pi1-injective in the adjacent pieces",
        "asserted" if s.assume_pi1 else "failed",
        "" if s.assume_pi1 else "not asserted"))
    if concrete_check:
        from .develop import check_curvature
        report = check_curvature(ev.universe, polygon)
        ledger.append(LedgerItem(
            "(ii) adjacent copies meet exactly in the core",
            "verified" if report.holds else "failed",
            report.detail))
    else:
        ledger.append(LedgerItem(
            "(ii) adjacent copies meet exactly in the core",
            "asserted" if s.assume_intersection else "failed",
            "" if s.assume_intersection else "not asserted"))
    gd_core = ev.bound_gd(s.core)
    ok = gd_core.value <= ExtNat(n - 3)
    ledger.append(LedgerItem(
        f"(iii) gd of the core group at most {n - 3}",
        "verified" if ok else "failed", f"gd bound {gd_core.value}"))
    gd_wall = ev.bound_gd(s.wall)
    ok = gd_wall.value <= ExtNat(n - 2)
    ledger.append(LedgerItem(
        f"(iv) gd of the wall group at most {n - 2}",
        "verified" if ok else "failed", f"gd bound {gd_wall.value}"))
    cat_piece = ev.bound_cat(s.piece, AM)
    ok = cat_piece.value <= ExtNat(n - 1)
    ledger.append(LedgerItem(
        f"(v) amenable category of the piece group at most {n - 1}",
        "verified" if ok else "failed", f"category bound {cat_piece.value}"))

    cat = ev.bound_cat(Ref(polygon.name), AM)
    established = (cat.value <= ExtNat(n - 1)
                   and not any(x.status == "failed" for x in ledger))
    if established:
        return Certificate("volume_vanishes", cat.value, ledger, cat.trace)
    return Certificate("inconclusive", None, ledger, cat.trace)
