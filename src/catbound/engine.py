"""Inference engine: certified upper bounds with derivation traces.

Four invariants are bounded: the family-relative category of a group
(cat), geometric dimension (gd), cohomological dimension (cd), and
topological complexity (tc).  Every bound is the minimum over the rule
instances that apply to the expression, and the winning rule's
derivation is kept as nodes that can be replayed.  A rule's value is
computed once, in one place: _node() applies the rule's REPLAY kind to
its premises' values, by the same _combine() that replay() uses; only
leaves carry a value of their own.  Memoized results are shared, so a
derivation is a DAG, and every consumer (nodes(), to_json(),
replay(), BoundResult.assumptions()) visits each distinct node once.
Node equality is identity, which is how they tell shared nodes apart.

An Evaluator memoizes twice, by key, in tables of its own: bound
results per (invariant, expression, family) in its MemoTable, and, in
its facts.FactMemo, membership and the provably_* questions per
(question, family, expression), and the resolution and complex view of
each expression.  Both last as long as the evaluator and neither sees
later changes to the universe, so the universe must not change while
an evaluator uses it; a kept load (dsl.load_text) is frozen and cannot,
and a caller who wants a changed one evaluates an overlay of it with a
new evaluator.  Both follow one in-progress rule: a key being
computed reads as its conservative answer, which for a bound is the
no-rule leaf at infinity citing "circular definition", and a
computation that raises leaves its key unanswered.  So a hand-built
universe whose expressions contain themselves gets a sound answer; a
validated universe has no such circle.

Rule inventory for cat, by rule id:

  member-zero   members of the family have category 0
  declared      a fact-sheet entry for this family
  cd-bound      cat is at most cohomological dimension (every family
                contains the trivial subgroups)
  gd-bound      likewise via geometric dimension
  one-step      a graph of groups or free product whose vertex groups
                all lie in the family has category at most 1
  rec-*         the complex rule: the per-dimension recursion over the
                cell stabilizers of a contractible complex the group
                acts on (rec-base, then rec-max or rec-sum per
                dimension), with the greedy choice of arm

The complex is FactMemo.complex_view of the expression, by carrier:

  graph of groups   the Bass-Serre tree: vertex groups in dim 0, edge
                    groups in dim 1; no assumption
  free product      the same, with trivial joins as the edge groups
  d-gon, d >= 4     vertex, edge and face groups in dims 0, 1, 2.  Under
                    the link condition the development is CAT(0), hence
                    contractible (Gersten-Stallings; Bridson-Haefliger
                    II.12).  Concrete maps must pass check_curvature;
                    without maps, "link condition asserted"
  gcw               itself, if contractible = assert; "contractibility
                    asserted"

gd-cells (gd) and tc-gcw (tc) read the same view.  The recursion: d_0
is the sup of the category of the 0-cell stabilizers; at dimension i
either

    d_i = max(d_{i-1}, sup(gd(stab) + i))     "max arm"
    d_i = d_{i-1} + sup(cat(stab) + 1)        "sum arm"

and d_n bounds the category.  Both update maps are nondecreasing in
d_{i-1}, which is why taking the smaller arm at each dimension is
optimal over all 2^n arm choices.

apps.certify_gluing builds the same nodes, rec-base and one rec-sum,
over a gluing's tree, where a cell may be a space-declared leaf.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .extnat import INF, ZERO, ExtNat, _Frozen, supremum
from .facts import TR, FactMemo, Family, MemoTable, Tri
from .model import DirectProduct, GcwDescription, GroupExpr, Universe, expr_key

_set = object.__setattr__


class DerivationNode(_Frozen):
    """One rule application: its value, citation, assumptions and premises.

    Equality is identity: two nodes are the same derivation step only
    if they are the same object, which is how every consumer (nodes(),
    to_json(), replay()) tells shared premises apart.
    """

    __slots__ = ("rule", "cite", "value", "assumptions", "premises")

    rule: str
    cite: str
    value: ExtNat
    assumptions: Tuple[str, ...]
    premises: Tuple["DerivationNode", ...]

    def __init__(self, rule: str, cite: str, value: ExtNat,
                 assumptions: Tuple[str, ...] = (),
                 premises: Tuple["DerivationNode", ...] = ()) -> None:
        _set(self, "rule", rule)
        _set(self, "cite", cite)
        _set(self, "value", value)
        _set(self, "assumptions", assumptions)
        _set(self, "premises", premises)

    def nodes(self) -> List["DerivationNode"]:
        """The distinct nodes of this derivation, each once by identity.

        Post-order: every premise comes before the nodes that cite it,
        premises in first-visit order, this node last.  Iterative, so a
        deep derivation costs no Python recursion.
        """
        order: List[DerivationNode] = []
        seen = {id(self)}
        stack = [(self, iter(self.premises))]
        while stack:
            node, todo = stack[-1]
            for p in todo:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p.premises)))
                    break
            else:
                stack.pop()
                order.append(node)
        return order

    def to_json(self) -> dict:
        """The derivation as a node table in the order of nodes().

        Premises are indices into the table, always below their node's
        own index; the root is the last entry.
        """
        return _node_table(self.nodes())


def _node_table(order: List[DerivationNode]) -> dict:
    'DerivationNode.to_json of the nodes() list `order`.'
    index = {id(n): i for i, n in enumerate(order)}
    return {
        "nodes": [{
            "rule": n.rule,
            "cite": n.cite,
            "value": n.value.to_json(),
            "assumptions": list(n.assumptions),
            "premises": [index[id(p)] for p in n.premises],
        } for n in order],
        "root": len(order) - 1,
    }


def _assumptions(order: List[DerivationNode]) -> List[str]:
    'BoundResult.assumptions of the nodes() list `order` of its trace.'
    return sorted({a for node in order for a in node.assumptions})


# how each rule recomputes its value from its premises when replayed
REPLAY: Dict[str, str] = {
    "declared": "leaf", "member-zero": "leaf", "one-step": "leaf",
    "cd-bound": "leaf", "gd-bound": "leaf", "tc-declared": "leaf",
    "trivial": "leaf", "const": "leaf", "no-rule": "leaf",
    "space-declared": "leaf",
    "tc-gcw": "max", "cat-tr-as-cd": "max", "rec-max": "max",
    "product-gd": "sum", "cd-product": "sum",
    "plus": "sum", "rec-sum": "sum",
    "sup": "sup", "rec-base": "sup", "gd-cells": "sup",
}


def replay(node: DerivationNode) -> ExtNat:
    'Recompute the value bottom-up, once per distinct node; leaves stand as recorded.'
    values: Dict[int, ExtNat] = {}
    for n in node.nodes():
        kind = REPLAY[n.rule]
        values[id(n)] = (n.value if kind == "leaf"
                         else _combine(kind, [values[id(p)] for p in n.premises]))
    return values[id(node)]


def _combine(kind: str, values: Sequence[ExtNat]) -> ExtNat:
    'The value a non-leaf rule of replay kind `kind` gives its premises\' values.'
    if kind == "sum":
        total = ZERO
        for v in values:
            total = total + v
        return total
    if kind == "max" and not values:
        raise ValueError("a max rule needs at least one premise")
    if kind in ("sup", "max"):
        return supremum(values)
    raise ValueError(f"no replay semantics for kind {kind!r}")


class BoundResult(_Frozen):
    """A bound with the derivation of the rule instance that attains it.

    Equality is identity: memoized results, like their trace nodes, are
    shared, never compared by value.
    """

    __slots__ = ("invariant", "family", "value", "trace")

    invariant: str               # "cat" | "gd" | "cd" | "tc"
    family: Optional[str]
    value: ExtNat
    trace: DerivationNode

    def __init__(self, invariant: str, family: Optional[str], value: ExtNat,
                 trace: DerivationNode) -> None:
        _set(self, "invariant", invariant)
        _set(self, "family", family)
        _set(self, "value", value)
        _set(self, "trace", trace)

    def assumptions(self, order: Optional[List[DerivationNode]] = None) -> List[str]:
        'Sorted and distinct; `order` is `trace.nodes()`, if the caller has it.'
        return _assumptions(self.trace.nodes() if order is None else order)

    def to_json(self) -> dict:
        order = self.trace.nodes()
        return {
            "invariant": self.invariant,
            "family": self.family,
            "value": self.value.to_json(),
            "assumptions": _assumptions(order),
            "trace": _node_table(order),
        }


def _leaf(rule: str, cite: str, value: ExtNat,
          assumptions: Tuple[str, ...] = ()) -> DerivationNode:
    return DerivationNode(rule, cite, value, assumptions, ())


def _node(rule: str, cite: str, premises: Sequence[DerivationNode],
          assumptions: Tuple[str, ...] = ()) -> DerivationNode:
    'A non-leaf node, its value computed from its premises as replay() does.'
    premises = tuple(premises)
    value = _combine(REPLAY[rule], [p.value for p in premises])
    return DerivationNode(rule, cite, value, assumptions, premises)


def _shift(inner: DerivationNode, k: int, what: str) -> DerivationNode:
    'inner plus k, cited as "<what> shifted by <k>"; inner itself when k is 0.'
    if k == 0:
        return inner
    return _node("plus", f"{what} shifted by {k}",
                 [inner, _leaf("const", what, ExtNat(k))])


def _rec_base(cells: Sequence[DerivationNode],
              assumptions: Tuple[str, ...] = ()) -> DerivationNode:
    'd_0 of the complex rule: the sup over the 0-cell stabilizers.'
    return _node("rec-base", "category of 0-cell stabilizers", cells, assumptions)


def _rec_sum(d: DerivationNode, i: int, cells: Sequence[DerivationNode]) -> DerivationNode:
    'The sum arm at dimension i: d_{i-1} plus the sup of the i-cells shifted by 1.'
    shifted = _node("sup", f"shifted category of {i}-cell stabilizers",
                    [_shift(c, 1, f"{i}-cell") for c in cells])
    return _node("rec-sum", f"dimension {i}, sum arm", [d, shifted])


# the mark of a key whose bound is being computed.  A rule that needs
# that bound within its own computation reads the no-rule leaf at
# infinity: a derivation that would need itself is not well-founded,
# so only the bound that needs nothing stands.  Rules read its value
# and trace only; the key's own result replaces the mark.
_IN_PROGRESS = BoundResult("", None, INF, _leaf("no-rule", "circular definition", INF))


def _memoized_bound(invariant: str,
                    candidates: Callable[..., List[DerivationNode]]):
    """The entry point bound_<invariant>(e, *fam) of the Evaluator.

    Memo lookup, then the first of the rule instances listed by
    candidates(evaluator, e, *fam) that attains the least value
    (no-rule at infinity when none applies).  The key reads as
    _IN_PROGRESS while it is being computed, and is forgotten when the
    computation raises, so the next ask raises again.  Built once per
    invariant, instead of four methods calling one shared method, so
    that a nested evaluation costs no extra stack frame per level.
    """

    def bound(self: Evaluator, e: GroupExpr, *fam: Family) -> BoundResult:
        fam_name = fam[0].name if fam else None
        key = (invariant, expr_key(e), fam_name)
        results = self.memo.results
        hit = results.get(key)
        if hit is not None:
            return hit
        results[key] = _IN_PROGRESS
        try:
            nodes = (candidates(self, e, *fam)
                     or [_leaf("no-rule", "no applicable rule", INF)])
        except BaseException:
            del results[key]
            raise
        winner = min(nodes, key=lambda node: node.value)
        result = results[key] = BoundResult(invariant, fam_name, winner.value, winner)
        return result

    bound.__name__ = f"bound_{invariant}"
    bound.__qualname__ = f"Evaluator.bound_{invariant}"
    return bound


class Evaluator:
    """Bound computation against one universe, memoized for its lifetime.

    The entry points are bound_cat(e, fam), bound_gd(e), bound_cd(e)
    and bound_tc(e), each returning a BoundResult.  Results are
    memoized by (invariant, expression, family) in this evaluator's own
    MemoTable `memo`, so a repeated query returns the same object.
    `facts` is its own FactMemo: membership and the provably_*
    questions it asks, and the resolution of each expression, are
    answered once per key.  Neither memo notices a change to the
    universe, so the universe must not change while an evaluator uses
    it (a frozen one cannot; change an overlay and use a new
    evaluator).  Evaluation is deterministic: rules are tried in a
    fixed order and the first rule attaining the minimum supplies the
    reported derivation.  A bound that needs itself reads infinity where it
    does (see _memoized_bound).
    """

    def __init__(self, universe: Universe) -> None:
        self.universe = universe
        self.memo = MemoTable()
        self.facts = FactMemo(universe)

    # -- cat --------------------------------------------------------------

    def cat_candidates(self, e: GroupExpr, fam: Family) -> List[DerivationNode]:
        'All applicable rule instances, in evaluation order.'
        u = self.universe
        facts = self.facts
        out: List[DerivationNode] = []
        verdict, reason = facts.membership_with_reason(e, fam)
        if verdict is Tri.YES:
            out.append(_leaf("member-zero", reason, ZERO))
        kind, _, chain = facts.resolve_chain(e)
        for nm in chain:
            sheet = u.sheets.get(nm)
            if sheet is None:
                continue
            declared = sheet.cat_ub.get(fam.name)
            if declared is not None:
                out.append(_leaf("declared", sheet.cite(f"cat[{fam.name}]"), declared))
            if sheet.cd_ub.is_finite:
                out.append(_leaf(
                    "cd-bound",
                    "category never exceeds cohomological dimension: " + sheet.cite("cd"),
                    sheet.cd_ub))
            if sheet.gd_ub.is_finite:
                out.append(_leaf(
                    "gd-bound",
                    "category never exceeds geometric dimension: " + sheet.cite("gd"),
                    sheet.gd_ub))
        view = facts.complex_view(e)
        if view is not None:
            x, assumptions = view
            out.append(self._cw_ladder(x, fam, assumptions))
            # on a tree the edge groups embed in the vertex groups, so they
            # lie in the (subgroup-closed) family too, derivable or not
            if kind in ("free", "graph") and all(
                    facts.membership(g, fam) is Tri.YES for g in x.dims[0]):
                out.append(_leaf(
                    "one-step",
                    "fundamental group of a graph of groups with vertex groups "
                    "in the family", ExtNat(1)))
        return out

    bound_cat = _memoized_bound("cat", cat_candidates)

    def _cw_ladder(self, x: GcwDescription, fam: Family,
                   assumptions: Tuple[str, ...]) -> DerivationNode:
        """The d_i recursion over the cell stabilizers of x, taking the
        smaller arm at each dimension, ties to the max arm.

        Its start, rec-base, carries the assumptions.
        """
        d = _rec_base([self.bound_cat(g, fam).trace for g in x.dims[0]], assumptions)
        for i in range(1, x.n + 1):
            row = x.dims[i]
            gd_sup = _node("sup", f"shifted dimension of {i}-cell stabilizers",
                           [_shift(self.bound_gd(g).trace, i, f"{i}-cell")
                            for g in row])
            max_arm = _node("rec-max", f"dimension {i}, max arm", [d, gd_sup])
            sum_arm = _rec_sum(d, i, [self.bound_cat(g, fam).trace for g in row])
            d = max_arm if max_arm.value <= sum_arm.value else sum_arm
        return d

    # -- gd ---------------------------------------------------------------

    def _gd_candidates(self, e: GroupExpr) -> List[DerivationNode]:
        u = self.universe
        out: List[DerivationNode] = []
        kind, payload, chain = self.facts.resolve_chain(e)
        for nm in chain:
            sheet = u.sheets.get(nm)
            if sheet is None:
                continue
            if sheet.gd_ub.is_finite or (kind == "atom" and nm == payload):
                out.append(_leaf("declared", sheet.cite("gd"), sheet.gd_ub))
        if kind == "trivial":
            out.append(_leaf("trivial", "a point classifies the trivial group", ZERO))
        elif kind == "product":
            factors = [self.bound_gd(f).trace for f in payload.factors]
            out.append(_node("product-gd",
                             "dimension is subadditive under direct products",
                             factors))
        view = self.facts.complex_view(e)
        if view is not None:
            x, assumptions = view
            cells = [_shift(self.bound_gd(g).trace, d, f"{d}-cell") for d, g in x.cells()]
            out.append(_node("gd-cells", "dimension from cell stabilizers", cells,
                             assumptions))
        return out

    bound_gd = _memoized_bound("gd", _gd_candidates)

    # -- cd ---------------------------------------------------------------

    def _cd_candidates(self, e: GroupExpr) -> List[DerivationNode]:
        u = self.universe
        out: List[DerivationNode] = []
        kind, payload, chain = self.facts.resolve_chain(e)
        for nm in chain:
            sheet = u.sheets.get(nm)
            if sheet is None:
                continue
            if sheet.cd_ub.is_finite or (kind == "atom" and nm == payload):
                out.append(_leaf("declared", sheet.cite("cd"), sheet.cd_ub))
            if sheet.gd_ub.is_finite:
                out.append(_leaf("gd-bound",
                                 "bounded by geometric dimension: " + sheet.cite("gd"),
                                 sheet.gd_ub))
        if kind == "trivial":
            out.append(_leaf("trivial", "trivial group", ZERO))
            return out
        if kind == "atom":
            return out
        if kind == "product":
            factors = [self.bound_cd(f).trace for f in payload.factors]
            out.append(_node("cd-product",
                             "subadditive under direct products", factors))
        cat = self.bound_cat(e, TR)
        out.append(_node("cat-tr-as-cd",
                         "category over the trivial family is cohomological dimension",
                         [cat.trace]))
        return out

    bound_cd = _memoized_bound("cd", _cd_candidates)

    # -- tc ---------------------------------------------------------------

    def _tc_candidates(self, e: GroupExpr) -> List[DerivationNode]:
        u = self.universe
        out: List[DerivationNode] = []
        kind, payload, chain = self.facts.resolve_chain(e)
        for nm in chain:
            sheet = u.sheets.get(nm)
            if sheet is None:
                continue
            if sheet.tc_ub.is_finite or (kind == "atom" and nm == payload):
                out.append(_leaf("tc-declared", sheet.cite("tc"), sheet.tc_ub))
        if kind == "trivial":
            out.append(_leaf("trivial", "one rule moves a point", ZERO))
            return out
        view = self.facts.complex_view(e)
        if view is not None:
            out.append(self._tc_gcw(*view))
        return out

    bound_tc = _memoized_bound("tc", _tc_candidates)

    def _tc_gcw(self, x: GcwDescription, assumptions: Tuple[str, ...]) -> DerivationNode:
        'Complexity of the square of the complex, term by term.'
        cells = x.cells()
        zero = [(i, g) for i, (d, g) in enumerate(cells) if d == 0]
        tc_nodes = [self.bound_tc(g).trace for _, g in zero]
        pair_nodes = [self.bound_cd(DirectProduct((zero[a][1], zero[b][1]))).trace
                      for a in range(len(zero))
                      for b in range(a + 1, len(zero))]
        mixed = []
        for a, (da, ga) in enumerate(cells):
            for b in range(a, len(cells)):
                db, gb = cells[b]
                if max(da, db) < 1:
                    continue
                mixed.append(_shift(self.bound_gd(DirectProduct((ga, gb))).trace,
                                    da + db, f"cells of dimension {da} and {db}"))
        terms = [
            _node("sup", "complexity over 0-cell stabilizers", tc_nodes),
            _node("sup", "dimension of distinct 0-cell stabilizer pairs", pair_nodes),
            _node("sup", "stabilizer pairs meeting positive dimension, shifted",
                  mixed),
        ]
        return _node("tc-gcw",
                     "complexity bound from the square of the complex", terms,
                     assumptions)
