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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .extnat import INF, ZERO, ExtNat
from .model import Diagnostic, FreeProduct, GroupExpr, Universe, expr_key


class Tri(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class FamilyKind(enum.Enum):
    TRIVIAL = "trivial"
    FINITE = "finite"
    AMENABLE = "amenable"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Family:
    """A conjugation- and subgroup-closed predicate on subgroups.

    Custom families may carry a flag oracle: a conjunction of required
    fact-sheet flag values.  With an empty oracle, membership comes only
    from per-atom assertions on fact sheets.
    """

    name: str
    kind: FamilyKind
    requires: Tuple[Tuple[str, Tri], ...] = ()
    loc: str = field(compare=False, default="")


TR = Family("Tr", FamilyKind.TRIVIAL)
FIN = Family("Fin", FamilyKind.FINITE)
AM = Family("Am", FamilyKind.AMENABLE)


def builtin_families() -> Dict[str, Family]:
    return {f.name: f for f in (TR, FIN, AM)}


@dataclass
class FactSheet:
    'Declared knowledge about one named atom.  Mutated only during load.'

    name: str
    gd_ub: ExtNat = INF
    cd_ub: ExtNat = INF
    tc_ub: ExtNat = INF
    cat_ub: Dict[str, ExtNat] = field(default_factory=dict)
    amenable: Tri = Tri.UNKNOWN
    finite: Tri = Tri.UNKNOWN
    trivial: bool = False
    member: Dict[str, Tri] = field(default_factory=dict)
    provenance: Dict[str, str] = field(default_factory=dict)
    loc: str = field(compare=False, default="")    # of the declaration

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
    'Close one sheet; each problem is reported at its declaration.'
    sheet = u.sheets[name]
    order = u.concretes[name].order if name in u.concretes else None
    loc = sheet.loc or f"group {name}"
    return [Diagnostic(loc, msg) for msg in close_sheet(sheet, order)]


# ---------------------------------------------------------------------------
# provable structural attributes

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
        if len(payload.edges) >= len(payload.vertices):
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
        if len(payload.edges) >= len(payload.vertices):
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


# ---------------------------------------------------------------------------
# membership

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


# ---------------------------------------------------------------------------
# the memo table

class MemoTable:
    """Cache of engine results keyed by (invariant, expression, family).

    Single-writer contract: the evaluator that owns the table is the
    only writer; concurrent readers are safe because entries are only
    ever added, never replaced.
    """

    def __init__(self) -> None:
        self._store: Dict[Tuple[str, str, Optional[str]], object] = {}

    def get(self, invariant: str, e: GroupExpr, fam_name: Optional[str]):
        return self._store.get((invariant, expr_key(e), fam_name))

    def put(self, invariant: str, e: GroupExpr, fam_name: Optional[str], result) -> None:
        self._store.setdefault((invariant, expr_key(e), fam_name), result)

    def __len__(self) -> int:
        return len(self._store)
