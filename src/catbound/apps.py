"""Certificate pipelines for glued spaces.

Three kinds of setup are translated into group-level instances:

  * gluing: pieces with boundary components, some paired off, read
    over the gluing's tree (pieces are 0-cells, paired interfaces
    1-cells);
  * double: the closed gluing of two copies of one piece along every
    boundary component;
  * branched: d copies of one piece arranged cyclically around a
    common core, modeled as a d-gon of groups.

Each certify function checks the hypotheses it can (engine bounds where
computable, recorded assertions otherwise), derives an amenable-category
bound, and emits a Certificate.  Conclusions, strongest first:
volume_vanishes, cat_bound, inconclusive.  A certificate never claims
nonvanishing, and volume_vanishes requires a category bound strictly
below the dimension with no failed hypothesis and no failed scope item.
A gluing takes the better of the engine's bound on its graph of
groups and the ladder's sum arm over its tree with space-level
declarations (certify_gluing).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .engine import DerivationNode, Evaluator, _leaf, _rec_base, _rec_sum
from .extnat import ExtNat, MutableRecord, Record, _set
from .facts import AM
from .model import (Diagnostic, Edge, GraphOfGroups, GroupExpr,
                    PolygonOfGroups, Ref, Universe, expr_key, expr_refs,
                    polygon_charts)


class BoundaryComponent(Record):
    __slots__ = ("id", "group", "pi1_injective", "cat_space")

    def __init__(self, id: str, group: GroupExpr, pi1_injective: bool,
                 cat_space: Optional[ExtNat] = None) -> None:
        _set(self, "id", id)
        _set(self, "group", group)
        _set(self, "pi1_injective", pi1_injective)
        _set(self, "cat_space", cat_space)


class Piece(Record):
    __slots__ = ("id", "group", "cat_space", "boundaries")

    def __init__(self, id: str, group: GroupExpr, cat_space: Optional[ExtNat] = None,
                 boundaries: Tuple[BoundaryComponent, ...] = ()) -> None:
        _set(self, "id", id)
        _set(self, "group", group)
        _set(self, "cat_space", cat_space)
        _set(self, "boundaries", boundaries)


Pairing = Tuple[Tuple[str, str], Tuple[str, str]]


class GluingSetup(Record):
    __slots__ = ("name", "n", "pieces", "pairings", "connected", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, n: int, pieces: Tuple[Piece, ...],
                 pairings: Tuple[Pairing, ...], connected: bool, loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "n", n)
        _set(self, "pieces", pieces)
        _set(self, "pairings", pairings)
        _set(self, "connected", connected)
        _set(self, "loc", loc)


class DoubleSetup(Record):
    __slots__ = ("name", "n", "piece", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, n: int, piece: Piece, loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "n", n)
        _set(self, "piece", piece)
        _set(self, "loc", loc)


class BranchedSetup(Record):
    __slots__ = ("name", "n", "d", "piece", "wall", "core", "assume_pi1",
                 "assume_intersection", "wall_embeds", "core_embeds", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, n: int, d: int, piece: GroupExpr, wall: GroupExpr,
                 core: GroupExpr, assume_pi1: bool, assume_intersection: bool,
                 wall_embeds: Optional[Tuple[str, str]] = None,
                 core_embeds: Optional[str] = None, loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "n", n)
        _set(self, "d", d)
        _set(self, "piece", piece)
        _set(self, "wall", wall)
        _set(self, "core", core)
        _set(self, "assume_pi1", assume_pi1)
        _set(self, "assume_intersection", assume_intersection)
        _set(self, "wall_embeds", wall_embeds)
        _set(self, "core_embeds", core_embeds)
        _set(self, "loc", loc)


class LedgerItem(MutableRecord):
    __slots__ = ("item", "status", "detail")

    def __init__(self, item: str, status: str, detail: str = "") -> None:
        self.item = item
        self.status = status        # verified | asserted | failed
        self.detail = detail

    def to_json(self) -> dict:
        return {"item": self.item, "status": self.status, "detail": self.detail}


class Certificate(MutableRecord):
    __slots__ = ("conclusion", "value", "ledger", "trace")

    def __init__(self, conclusion: str, value: Optional[ExtNat],
                 ledger: Optional[List[LedgerItem]] = None,
                 trace: Optional[DerivationNode] = None) -> None:
        self.conclusion = conclusion    # volume_vanishes | cat_bound | inconclusive
        self.value = value
        self.ledger = [] if ledger is None else ledger
        self.trace = trace

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


def build_setup(u: Universe, setup: Setup) -> List[Diagnostic]:
    """The problems of a registered setup: the preconditions of its
    kind, its embeddings and its unresolved group names.  model.validate
    runs it on each setup a load adds, or on every setup when the load
    replaces or drops anything.
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
        unknown = [hname for hname in setup_homs(setup) if hname not in u.homs]
        diags += [Diagnostic(setup.loc, f"unknown homomorphism {hname!r}") for hname in unknown]
        if setup.wall_embeds and setup.core_embeds and not unknown:
            # every copy has the same maps, so the one-copy polygon checks them
            _, problems = polygon_charts(u, _branched_polygon(setup, 1))
            diags += [Diagnostic(setup.loc, f"embed: {m}") for m in problems]
    else:
        raise TypeError(f"not a setup: {setup!r}")
    for what, e in setup_groups(setup):
        diags += [Diagnostic(setup.loc, f"{what}: unresolved group name {name!r}")
                  for name in expr_refs(e) if not u.declares(name)]
    return diags


def setup_groups(s: Setup) -> List[Tuple[str, GroupExpr]]:
    'The group expressions a setup names, each with its role.'
    if isinstance(s, GluingSetup):
        out: List[Tuple[str, GroupExpr]] = []
        for p in s.pieces:
            out.append((f"piece {p.id}", p.group))
            out += [(f"boundary {p.id}.{b.id}", b.group) for b in p.boundaries]
        return out
    if isinstance(s, DoubleSetup):
        return [("group", s.piece.group)] + [(f"boundary {b.id}", b.group)
                                             for b in s.piece.boundaries]
    return [("piece", s.piece), ("wall", s.wall), ("core", s.core)]


def setup_homs(s: Setup) -> Tuple[str, ...]:
    'The homs a branched setup embeds its wall and core by; none for other kinds.'
    if not isinstance(s, BranchedSetup):
        return ()
    return (s.wall_embeds or ()) + ((s.core_embeds,) if s.core_embeds else ())


def _branched_polygon(s: BranchedSetup, d: int) -> PolygonOfGroups:
    'd copies of the piece around the core; the maps only when both are given.'
    maps = (((s.wall_embeds,) * d, (s.core_embeds,) * d)
            if s.wall_embeds and s.core_embeds else (None, None))
    return PolygonOfGroups(f"{s.name}@polygon", d, (s.piece,) * d, (s.wall,) * d,
                           s.core, *maps)


def _gluing_diagnostics(s: GluingSetup) -> List[Diagnostic]:
    diags = _check_ids([p.id for p in s.pieces], s.loc, "piece")
    for p in s.pieces:
        diags.extend(_check_ids([b.id for b in p.boundaries], s.loc,
                                f"boundary of {p.id}"))
    if s.n < 1:
        diags.append(Diagnostic(s.loc, "dimension n must be at least 1"))
    if not s.pieces:
        diags.append(Diagnostic(s.loc, "a gluing needs at least one piece"))
    pieces = {p.id for p in s.pieces}
    bounds = {(p.id, b.id): b.group for p in s.pieces for b in p.boundaries}
    used: set = set()
    for (pa, ba), (pb, bb) in s.pairings:
        for pid, bid in ((pa, ba), (pb, bb)):
            if pid not in pieces:
                diags.append(Diagnostic(s.loc, f"pairing names unknown piece {pid!r}"))
                continue
            if (pid, bid) not in bounds:
                diags.append(Diagnostic(
                    s.loc, f"pairing names unknown boundary {pid}.{bid}"))
                continue
            if (pid, bid) in used:
                diags.append(Diagnostic(
                    s.loc, f"boundary {pid}.{bid} used in more than one pairing"))
            used.add((pid, bid))
        if len({expr_key(bounds[end]) for end in ((pa, ba), (pb, bb)) if end in bounds}) == 2:
            diags.append(Diagnostic(s.loc, f"pairing {pa}.{ba} - {pb}.{bb} joins "
                                    "boundaries with different groups"))
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
    ends = _boundaries(s)
    for pid, bid in (end for pairing in s.pairings for end in pairing):
        if (pid, bid) not in ends:
            raise ValueError(f"pairing names unknown boundary {pid}.{bid}")
    return GraphOfGroups(f"{s.name}@gog",
                         tuple((p.id, p.group) for p in s.pieces),
                         tuple(Edge(pa, pb, ends[pa, ba].group, None)
                               for (pa, ba), (pb, _) in s.pairings))


def _boundaries(s: GluingSetup) -> Dict[Tuple[str, str], BoundaryComponent]:
    'Each boundary component by (piece id, boundary id).'
    return {(p.id, b.id): b for p in s.pieces for b in p.boundaries}


def double_to_gluing(s: DoubleSetup) -> GluingSetup:
    copies = tuple(Piece(c, s.piece.group, s.piece.cat_space, s.piece.boundaries)
                   for c in ("copyA", "copyB"))
    pairings = tuple((("copyA", b.id), ("copyB", b.id))
                     for b in s.piece.boundaries)
    return GluingSetup(f"{s.name}@double", s.n, copies, pairings, True)


# -- certificates ---------------------------------------------------------

def certify_gluing(u: Universe, s: GluingSetup) -> Certificate:
    """The better of two bounds over the gluing's tree, whose 0-cells
    are the pieces and whose 1-cells are the paired interfaces.

    The group-level bound is the engine's bound on the graph of groups:
    it needs connectedness and (i)-(iii), and vanishing needs the
    all-boundary scope.  The additive bound is the ladder's sum arm
    with each cell read at the space level: it needs connectedness
    only, and vanishing needs a closed gluing.  The higher conclusion
    wins, then the smaller value, ties to the group-level bound, and
    the ledger is the winner's.  When neither concludes, it lists the
    items of both.
    """
    gog = gluing_to_gog(s)
    with_gog = u.overlay()
    with_gog.graphs[gog.name] = gog
    ev = Evaluator(with_gog)
    ends = _boundaries(s)
    connected = LedgerItem(
        "connectedness of the glued space",
        "asserted" if s.connected else "failed",
        "" if s.connected else "not asserted")
    group = _group_bound(ev, s, gog.name, ends, connected)
    additive = _additive_bound(ev, s, ends, connected)
    if _RANK[additive.conclusion] > _RANK[group.conclusion] or (
            additive.conclusion == group.conclusion != "inconclusive"
            and additive.value < group.value):
        return additive
    if group.conclusion != "inconclusive":
        return group
    return Certificate("inconclusive", None, group.ledger + [
        x for x in additive.ledger if x is not connected], group.trace)


_RANK = {"volume_vanishes": 2, "cat_bound": 1, "inconclusive": 0}


def certify_double(u: Universe, s: DoubleSetup) -> Certificate:
    'The certificate of the closed two-copy gluing.'
    return certify_gluing(u, double_to_gluing(s))


def _group_bound(ev: Evaluator, s: GluingSetup, graph: str,
                 ends: Dict[Tuple[str, str], BoundaryComponent],
                 connected: LedgerItem) -> Certificate:
    'The category bound of the graph of groups, under (i)-(iii).'
    n = s.n
    hypotheses = [connected]
    for j, ((pa, ba), (pb, bb)) in enumerate(s.pairings):
        plus, minus = ends[pa, ba], ends[pb, bb]
        ok = plus.pi1_injective and minus.pi1_injective
        hypotheses.append(LedgerItem(
            f"(i) pairing {j} [{pa}.{ba} ~ {pb}.{bb}]: interface "
            "pi1-injective on both sides",
            "asserted" if ok else "failed",
            "" if ok else "injectivity not asserted"))
        hypotheses.append(_at_most(f"(ii) pairing {j}: gd of the interface group",
                                   n - 2, "gd bound", ev.bound_gd(plus.group).value))
    for p in s.pieces:
        cell = _space_cat(ev, p.group, p.cat_space)
        hypotheses.append(_at_most(
            f"(iii) piece {p.id}: amenable category", n - 1, "category bound",
            cell.value, "asserted" if cell.rule == "space-declared" else "verified"))

    # the all-components scope: needed for vanishing, paired or not
    scope: List[LedgerItem] = []
    for p in s.pieces:
        for b in p.boundaries:
            inj = b.pi1_injective
            scope.append(LedgerItem(
                f"boundary scope: {p.id}.{b.id} pi1-injective",
                "asserted" if inj else "failed",
                "" if inj else "injectivity not asserted"))
            scope.append(_at_most(f"boundary scope: gd of {p.id}.{b.id}", n - 2,
                                  "gd bound", ev.bound_gd(b.group).value))
    return _conclude(n, hypotheses, scope, ev.bound_cat(Ref(graph), AM).trace)


def _additive_bound(ev: Evaluator, s: GluingSetup,
                    ends: Dict[Tuple[str, str], BoundaryComponent],
                    connected: LedgerItem) -> Certificate:
    """The sum arm of the ladder over the gluing's tree, each cell the
    smaller of its engine bound and its space-level declaration.

    With no pairings the 1-cell term is an empty supremum, 0.
    """
    n = s.n
    base = _rec_base([_space_cat(ev, p.group, p.cat_space) for p in s.pieces])
    root = _rec_sum(base, 1, [_space_cat(ev, ends[plus].group, ends[plus].cat_space)
                              for plus, _ in s.pairings])
    paired = {end for pairing in s.pairings for end in pairing}
    unpaired = [f"{pid}.{bid}" for pid, bid in ends if (pid, bid) not in paired]
    hypotheses = [connected, _at_most("additive bound", n - 1, "bound", root.value)]
    scope = [LedgerItem(
        "boundary scope: every boundary component paired",
        "failed" if unpaired else "verified",
        f"unpaired: {', '.join(unpaired)}" if unpaired else "")]
    return _conclude(n, hypotheses, scope, root)


def _at_most(item: str, limit: int, what: str, value: ExtNat,
             holds: str = "verified") -> LedgerItem:
    """The ledger item "<item> at most <limit>": `holds` when value is
    at most limit, failed otherwise, with "<what> <value>" as detail."""
    return LedgerItem(f"{item} at most {limit}",
                      holds if value <= ExtNat(limit) else "failed", f"{what} {value}")


def _conclude(n: int, hypotheses: List[LedgerItem], scope: List[LedgerItem],
              trace: DerivationNode) -> Certificate:
    """A bound below n with no failed hypothesis is established: it
    concludes volume_vanishes when no scope item failed either, and
    cat_bound otherwise."""
    ledger = hypotheses + scope
    if not (trace.value <= ExtNat(n - 1)
            and not any(x.status == "failed" for x in hypotheses)):
        return Certificate("inconclusive", None, ledger, trace)
    vanishes = not any(x.status == "failed" for x in scope)
    return Certificate("volume_vanishes" if vanishes else "cat_bound",
                       trace.value, ledger, trace)


def _space_cat(ev: Evaluator, group: GroupExpr,
               declared: Optional[ExtNat]) -> DerivationNode:
    """Space-level amenable category: a declared bound against the
    engine bound on the fundamental group, whichever is smaller."""
    r = ev.bound_cat(group, AM)
    if declared is not None and declared < r.value:
        return _leaf("space-declared", "declared space-level category bound",
                     declared)
    return r.trace


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
    polygon = _branched_polygon(s, s.d)
    with_polygon = u.overlay()
    with_polygon.polygons[polygon.name] = polygon
    ev = Evaluator(with_polygon)
    ledger: List[LedgerItem] = []

    ledger.append(LedgerItem(
        "(i) wall pi1-injective in the adjacent pieces",
        "asserted" if s.assume_pi1 else "failed",
        "" if s.assume_pi1 else "not asserted"))
    if polygon.concrete_maps:
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
    ledger.append(_at_most("(iii) gd of the core group", n - 3, "gd bound",
                           ev.bound_gd(s.core).value))
    ledger.append(_at_most("(iv) gd of the wall group", n - 2, "gd bound",
                           ev.bound_gd(s.wall).value))
    ledger.append(_at_most("(v) amenable category of the piece group", n - 1,
                           "category bound", ev.bound_cat(s.piece, AM).value))

    return _conclude(n, ledger, [], ev.bound_cat(Ref(polygon.name), AM).trace)
