"""Fact sheets, families of subgroups, and derivable membership.

A fact sheet records what is declared about a named atom: upper bounds
for geometric/cohomological dimension and topological complexity,
per-family category bounds, and three-valued structural flags.  A
family is one of the three built-in predicates (trivial, finite,
amenable) or an opaque custom predicate; all are conjugation- and
subgroup-closed by contract.

membership() answers "does this group lie in the family" with yes, no
or unknown, using only declared flags plus a fixed list of closure
rules:

  * the trivial group lies in every family;
  * finite groups are amenable;
  * direct products of amenable groups are amenable;
  * a free product of two or more nontrivial groups is infinite, and is
    non-amenable as soon as one factor has more than two elements (the
    infinite dihedral case is left unknown);
  * subgroups inherit exclusion: a piece that is provably outside the
    family drags every group containing it outside too.

"yes" and "no" are only reported when derivable; everything else stays
unknown.  Inconsistent declarations are load-time errors.

A FactMemo answers membership and the provably_* questions once per
(question, family, expression key), and resolves each expression and
builds its complex view once, for as long as it lives; each Evaluator
owns one for its own lifetime, and the universe must not change
meanwhile.  The module functions
membership(u, e, fam), membership_with_reason(u, e, fam) and
provably_*(u, e) ask a fresh memo, so each call stands alone.
"""

from __future__ import annotations

import enum
from math import inf, prod
from typing import Dict, List, Optional, Tuple

from .extnat import INF, ZERO, ExtNat, MutableRecord, Record, _set, replace
from .model import TRIVIAL, Diagnostic, GcwDescription, GroupExpr, Universe, expr_key


class Tri(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class FamilyKind(enum.Enum):
    TRIVIAL = "trivial"
    FINITE = "finite"
    AMENABLE = "amenable"
    CUSTOM = "custom"


class Family(Record):
    """A conjugation- and subgroup-closed predicate on subgroups.

    Custom families may carry a flag oracle: a conjunction of required
    fact-sheet flag values.  With an empty oracle, membership comes only
    from per-atom assertions on fact sheets.
    """

    __slots__ = ("name", "kind", "requires", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, kind: FamilyKind,
                 requires: Tuple[Tuple[str, Tri], ...] = (), loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "requires", requires)
        _set(self, "loc", loc)


TR = Family("Tr", FamilyKind.TRIVIAL)
FIN = Family("Fin", FamilyKind.FINITE)
AM = Family("Am", FamilyKind.AMENABLE)


def builtin_families() -> Dict[str, Family]:
    return {f.name: f for f in (TR, FIN, AM)}


class FactSheet(MutableRecord):
    """Declared knowledge about one named atom.  Mutated only during load.
    Each sheet gets its own dicts where none are given."""

    __slots__ = ("name", "gd_ub", "cd_ub", "tc_ub", "cat_ub", "amenable", "finite",
                 "trivial", "member", "provenance", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, gd_ub: ExtNat = INF, cd_ub: ExtNat = INF,
                 tc_ub: ExtNat = INF, cat_ub: Optional[Dict[str, ExtNat]] = None,
                 amenable: Tri = Tri.UNKNOWN, finite: Tri = Tri.UNKNOWN,
                 trivial: bool = False, member: Optional[Dict[str, Tri]] = None,
                 provenance: Optional[Dict[str, str]] = None, loc: str = "") -> None:
        self.name = name
        self.gd_ub = gd_ub
        self.cd_ub = cd_ub
        self.tc_ub = tc_ub
        self.cat_ub = {} if cat_ub is None else cat_ub
        self.amenable = amenable
        self.finite = finite
        self.trivial = trivial
        self.member = {} if member is None else member
        self.provenance = {} if provenance is None else provenance
        self.loc = loc      # of the declaration

    def cite(self, key: str) -> str:
        return self.provenance.get(key, "declared")


def close_sheet(sheet: FactSheet, order: Optional[int]) -> List[str]:
    """Propagate forced facts and collect inconsistencies.

    order is the size of the concrete realization if one exists.
    Returns human-readable error strings; an empty list means the sheet
    is consistent after closure.
    """
    errs: List[str] = []

    if order is not None:
        if sheet.finite is Tri.NO:
            errs.append("declared infinite but carries a finite multiplication table")
        if sheet.finite is Tri.UNKNOWN:
            sheet.provenance.setdefault("finite", "realized by a multiplication table")
        sheet.finite = Tri.YES
        if order == 1 and not sheet.trivial:
            sheet.trivial = True
            sheet.provenance.setdefault("trivial", "order-one multiplication table")
        if order > 1 and sheet.trivial:
            errs.append(f"declared trivial but has order {order}")

    if sheet.trivial:
        if sheet.amenable is Tri.NO:
            errs.append("declared trivial and non-amenable")
        if sheet.finite is Tri.NO:
            errs.append("declared trivial and infinite")
        sheet.amenable = Tri.YES
        sheet.finite = Tri.YES
        for key in ("gd", "cd", "tc"):
            sheet.provenance.setdefault(key, "trivial group")
        sheet.gd_ub = ZERO
        sheet.cd_ub = ZERO
        sheet.tc_ub = ZERO

    if sheet.finite is Tri.YES and sheet.amenable is Tri.NO:
        errs.append("declared finite and non-amenable")
    if sheet.finite is Tri.YES and sheet.amenable is Tri.UNKNOWN:
        sheet.amenable = Tri.YES
        sheet.provenance.setdefault("amenable", "finite groups are amenable")

    nontrivial = (order is not None and order > 1) or sheet.finite is Tri.NO
    if sheet.finite is Tri.YES and nontrivial and not sheet.trivial:
        if sheet.gd_ub.is_finite or sheet.cd_ub.is_finite:
            errs.append("nontrivial finite groups have infinite geometric and "
                        "cohomological dimension")
        else:
            sheet.provenance.setdefault("gd", "nontrivial finite group")
            sheet.provenance.setdefault("cd", "nontrivial finite group")

    return errs


def sheet_diagnostics(u: Universe, name: str) -> List[Diagnostic]:
    """Check the families one sheet names, and close it; each problem is
    reported at its declaration.

    A sheet that the snapshot `u.validated` also holds is shared with
    the universe that passed, such as a kept prelude or model, which
    must not see this universe's tables: it is replaced in `u` by a
    copy, and the copy is closed.  So checking a universe over a kept
    one leaves the kept sheets as they were."""
    sheet = u.sheets[name]
    if u.validated is not None and u.validated.sheets.get(name) is sheet:
        sheet = u.sheets[name] = replace(sheet, cat_ub=dict(sheet.cat_ub),
                                         member=dict(sheet.member),
                                         provenance=dict(sheet.provenance))
    order = u.concretes[name].order if name in u.concretes else None
    loc = sheet.loc or f"group {name}"
    unknown = [f"unknown family {fam!r}" for fam in (*sheet.cat_ub, *sheet.member)
               if fam not in u.families]
    return [Diagnostic(loc, msg) for msg in unknown + close_sheet(sheet, order)]


# ---------------------------------------------------------------------------
# provable attributes and membership, memoized

def _memoized(conservative):
    """A FactMemo method answered once per (method, family, expr_key).

    While its own answer is being computed, a key reads as
    `conservative`: a derivation that would need itself is not
    well-founded, so the cautious answer stands.  A computation that
    raises leaves no answer behind, so the next ask raises again.
    """

    def decorate(compute):
        chaser = compute.__name__

        def ask(self: "FactMemo", e: GroupExpr, *fam: Family):
            key = (chaser, fam[0].name if fam else None, expr_key(e))
            answers = self._answers
            hit = answers.get(key)
            if hit is not None:
                return hit
            answers[key] = conservative
            try:
                answer = answers[key] = compute(self, e, *fam)
            except BaseException:
                del answers[key]
                raise
            return answer

        ask.__name__ = chaser
        ask.__qualname__ = compute.__qualname__
        ask.__doc__ = compute.__doc__
        return ask

    return decorate


# a contractible complex as its cell stabilizers, and the assumptions
# its contractibility rests on
ComplexView = Tuple[GcwDescription, Tuple[str, ...]]


def _complex_view(u: Universe, key: str, kind: str, payload) -> Optional[ComplexView]:
    'FactMemo.complex_view of an expression with key `key` resolving to (kind, payload).'
    if kind == "graph" and payload.vertices:       # no vertex, no tree
        dims = (tuple(g for _, g in payload.vertices),
                tuple(edge.group for edge in payload.edges))
        return GcwDescription(payload.name, dims, True), ()
    if kind == "free":
        dims = (payload.factors, (TRIVIAL,) * (len(payload.factors) - 1))
        return GcwDescription(key, dims, True), ()
    if kind == "polygon":
        if payload.d < 4:
            return None
        assumptions: Tuple[str, ...] = ()
        if payload.concrete_maps:
            from .develop import check_curvature
            if not check_curvature(u, payload).holds:
                return None
        else:
            assumptions = (f"link condition asserted for {payload.name}",)
        dims = (payload.vertex_groups, payload.edge_groups, (payload.face_group,))
        return GcwDescription(payload.name, dims, True), assumptions
    if kind == "gcw" and payload.contractible:
        return payload, (f"contractibility asserted for {payload.name}",)
    return None


class FactMemo:
    """The fact-layer questions about one universe, each answered once.

    membership_with_reason(), provably_trivial() and _order_floor(),
    which the other provably_* questions read, are answered once per
    (chaser, family, expr_key), and resolve_chain() and complex_view()
    once per expr_key, for as long as the memo lives; an Evaluator
    keeps one for its own lifetime.  The universe must not change while
    a memo over it is in use.

    A key whose answer is being computed reads as the conservative one
    (not provable; order floor 1; membership UNKNOWN by "circular
    definition").  So a hand-built universe whose expressions contain
    themselves, such as a graph with itself as a vertex group, still
    gets an answer; a validated universe has no such circle, and there
    every answer is that of the plain recursive rules.
    """

    def __init__(self, universe: Universe) -> None:
        self.universe = universe
        self._chains: Dict[str, Tuple[str, object, Tuple[str, ...]]] = {}
        self._views: Dict[str, Optional[ComplexView]] = {}
        # (chaser, family name or None, expr_key) -> answer
        self._answers: Dict[Tuple[str, Optional[str], str], object] = {}

    def resolve_chain(self, e: GroupExpr) -> Tuple[str, object, Tuple[str, ...]]:
        'Universe.resolve_chain, once per expr_key; errors are raised every time.'
        key = expr_key(e)
        hit = self._chains.get(key)
        if hit is None:
            hit = self._chains[key] = self.universe.resolve_chain(e)
        return hit

    def resolve(self, e: GroupExpr) -> Tuple[str, object]:
        kind, payload, _ = self.resolve_chain(e)
        return kind, payload

    def complex_view(self, e: GroupExpr) -> Optional[ComplexView]:
        """A contractible complex that e acts on, once per expr_key: its
        cell stabilizers per dimension, one group per orbit of cells,
        and the assumptions its contractibility rests on; None when the
        model gives none.  The engine's rule inventory lists the
        carriers: graphs of groups, free products, polygons with
        d >= 4 and asserted gcws.
        """
        key = expr_key(e)
        views = self._views
        if key in views:
            return views[key]
        view = views[key] = _complex_view(self.universe, key, *self.resolve(e))
        return view

    def _sheet(self, name) -> Optional[FactSheet]:
        return self.universe.sheets.get(name)

    def _order(self, name) -> Optional[int]:
        g = self.universe.concretes.get(name)
        return g.order if g is not None else None

    # -- provable structural attributes -----------------------------------

    @_memoized(False)
    def provably_trivial(self, e: GroupExpr) -> bool:
        kind, payload = self.resolve(e)
        if kind == "trivial":
            return True
        if kind == "atom":
            s = self._sheet(payload)
            if s is not None and s.trivial:
                return True
            return self._order(payload) == 1
        if kind in ("product", "free"):
            return all(self.provably_trivial(f) for f in payload.factors)
        return False

    def provably_nontrivial(self, e: GroupExpr) -> bool:
        return self._order_floor(e) >= 2

    def provably_infinite(self, e: GroupExpr) -> bool:
        return self._order_floor(e) == inf

    def provably_order_at_least_3(self, e: GroupExpr) -> bool:
        return self._order_floor(e) >= 3

    @_memoized(1)
    def _order_floor(self, e: GroupExpr) -> float:
        """1, 2, 3 or inf: the order of e is provably at least this.

        A product's order is the product of its factors'.  A graph with
        a cycle has a free quotient, a free product of two nontrivial
        groups is infinite, and a free product with one live factor is
        that factor.  Otherwise a graph or free product is nontrivial
        when a piece is, and reaches 3 only when infinite.  A graph with
        no vertex denotes no group and gets floor 1.
        """
        kind, payload = self.resolve(e)
        if kind == "atom":
            s = self._sheet(payload)
            if s is not None and s.finite is Tri.NO:
                return inf
            return min(self._order(payload) or 1, 3)
        if kind == "product":
            order = prod(map(self._order_floor, payload.factors))
            return order if order == inf else min(order, 3)
        if kind == "free":
            floors = [self._order_floor(f) for f in payload.factors]
            if inf in floors or sum(f >= 2 for f in floors) >= 2:
                return inf
            floor = min(max(floors, default=1), 2)
            live = [f for f in payload.factors if not self.provably_trivial(f)]
            return max(floor, self._order_floor(live[0])) if len(live) == 1 else floor
        if kind == "graph":
            floors = [self._order_floor(g) for _, g in payload.vertices]
            if inf in floors or len(payload.edges) >= len(payload.vertices) > 0:
                return inf
            return min(max(floors, default=1), 2)
        return 1

    # -- membership -------------------------------------------------------

    def membership(self, e: GroupExpr, fam: Family) -> Tri:
        return self.membership_with_reason(e, fam)[0]

    @_memoized((Tri.UNKNOWN, "circular definition"))
    def membership_with_reason(self, e: GroupExpr, fam: Family) -> Tuple[Tri, str]:
        """Verdict plus a short derivation note for traces.

        One walk for every family kind: a piece outside the family puts
        the group outside it (for the amenable and custom families; a
        finite one is outside when provably infinite), a free product
        with one nontrivial factor or a one-vertex graph is that piece,
        and a product of members is a member where the family is closed
        under products (finite, amenable), after every factor is asked.
        """
        if self.provably_trivial(e):
            return Tri.YES, "trivial group, member of every family"
        kind, payload = self.resolve(e)
        fk = fam.kind
        if fk is FamilyKind.TRIVIAL:
            if self.provably_nontrivial(e):
                return Tri.NO, "provably nontrivial"
            return Tri.UNKNOWN, "triviality not derivable"
        if fk is FamilyKind.FINITE and self.provably_infinite(e):
            return Tri.NO, "provably infinite"
        if kind == "atom":
            return self._atom_membership(payload, fam)
        undecided = _UNDECIDED[fk]
        if kind not in ("product", "free", "graph"):
            return Tri.UNKNOWN, undecided
        pieces = payload.factors if kind != "graph" else [g for _, g in payload.vertices]
        outside = _OUTSIDE[fk].get(kind)
        if kind == "product" and fk in _PRODUCT_OF_MEMBERS:
            verdicts = [self.membership_with_reason(f, fam)[0] for f in pieces]
            if outside and Tri.NO in verdicts:
                return Tri.NO, outside
            if all(v is Tri.YES for v in verdicts):
                return Tri.YES, _PRODUCT_OF_MEMBERS[fk]
            return Tri.UNKNOWN, undecided
        if outside and any(self.membership_with_reason(f, fam)[0] is Tri.NO
                           for f in pieces):
            return Tri.NO, outside
        if kind == "product":
            return Tri.UNKNOWN, undecided
        if kind == "graph":
            if len(pieces) == 1 and not payload.edges:
                return self.membership_with_reason(pieces[0], fam)
            return Tri.UNKNOWN, "not derivable for this graph of groups"
        live = [f for f in pieces if not self.provably_trivial(f)]
        if len(live) == 1:
            return self.membership_with_reason(live[0], fam)
        if fk is not FamilyKind.AMENABLE:
            return Tri.UNKNOWN, "free product not reducible"
        nontrivial = sum(1 for f in pieces if self.provably_nontrivial(f))
        if nontrivial >= 2 and any(self.provably_order_at_least_3(f) for f in pieces):
            return Tri.NO, "free product of nontrivial groups, one of order > 2"
        return Tri.UNKNOWN, undecided

    def _atom_membership(self, name: str, fam: Family) -> Tuple[Tri, str]:
        'What the fact sheet of atom `name` declares about membership in fam.'
        s = self._sheet(name)
        custom = fam.kind is FamilyKind.CUSTOM
        if custom:
            if s is None:
                return Tri.UNKNOWN, "no facts declared"
            flag, declared = f"member[{fam.name}]", s.member.get(fam.name)
        else:
            flag = "finite" if fam.kind is FamilyKind.FINITE else "amenable"
            declared = getattr(s, flag) if s is not None else None
        if declared in (Tri.YES, Tri.NO):
            return declared, s.cite(flag)
        if custom and fam.requires:
            flags = {"amenable": s.amenable, "finite": s.finite,
                     "trivial": Tri.YES if s.trivial else Tri.UNKNOWN}
            got = [flags.get(key, Tri.UNKNOWN) for key, _ in fam.requires]
            if all(g is want for g, (_, want) in zip(got, fam.requires)):
                return Tri.YES, "flag oracle satisfied"
        return Tri.UNKNOWN, _UNDECLARED[fam.kind]


# membership reasons by family kind: a group whose membership nothing
# decides; an atom whose sheet declares none; a product of members (for
# the kinds closed under products); a group with a piece outside, by
# the kind of group (none for a finite family: its reason is "provably
# infinite")
_UNDECIDED = {FamilyKind.FINITE: "finiteness not derivable",
              FamilyKind.AMENABLE: "amenability not derivable",
              FamilyKind.CUSTOM: "membership not derivable"}
_UNDECLARED = {FamilyKind.FINITE: "finiteness not declared",
               FamilyKind.AMENABLE: "amenability not declared",
               FamilyKind.CUSTOM: "membership not asserted"}
_PRODUCT_OF_MEMBERS = {FamilyKind.FINITE: "direct product of finite members",
                       FamilyKind.AMENABLE: "direct product of amenable groups"}
_OUTSIDE = {
    FamilyKind.FINITE: {},
    FamilyKind.AMENABLE: {"product": "contains a non-amenable factor",
                          "free": "contains a non-amenable free factor",
                          "graph": "contains a non-amenable vertex group"},
    FamilyKind.CUSTOM: {"product": "contains a non-member piece",
                        "free": "contains a non-member piece",
                        "graph": "contains a non-member vertex group"},
}


# The module-level questions, each over a fresh memo.

def provably_trivial(u: Universe, e: GroupExpr) -> bool:
    return FactMemo(u).provably_trivial(e)


def provably_nontrivial(u: Universe, e: GroupExpr) -> bool:
    return FactMemo(u).provably_nontrivial(e)


def provably_infinite(u: Universe, e: GroupExpr) -> bool:
    return FactMemo(u).provably_infinite(e)


def membership(u: Universe, e: GroupExpr, fam: Family) -> Tri:
    return FactMemo(u).membership(e, fam)


def membership_with_reason(u: Universe, e: GroupExpr, fam: Family) -> Tuple[Tri, str]:
    'Verdict plus a short derivation note for traces.'
    return FactMemo(u).membership_with_reason(e, fam)


# ---------------------------------------------------------------------------
# the memo table

class MemoTable:
    """Cache of engine results keyed by (invariant, expr_key, family name).

    `results` maps each key to its BoundResult.  Each Evaluator owns
    one.  While a key's bound is being computed, it maps to the
    engine's in-progress mark, which the result then replaces; a
    computation that raises removes its key again.
    """

    def __init__(self) -> None:
        self.results: Dict[Tuple[str, str, Optional[str]], object] = {}

    def get(self, invariant: str, e: GroupExpr, fam_name: Optional[str]):
        return self.results.get((invariant, expr_key(e), fam_name))

    def __len__(self) -> int:
        return len(self.results)
