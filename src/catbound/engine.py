"""Inference engine: certified upper bounds with derivation traces.

Four invariants are bounded: the family-relative category of a group
(cat), geometric dimension (gd), cohomological dimension (cd), and
topological complexity (tc).  Every bound is the minimum over the rule
instances that apply to the expression, and the winning rule's
derivation is kept as nodes that can be replayed.  Memoized results
are shared, so a derivation is a DAG, and every consumer (nodes(),
to_json(), replay(), BoundResult.assumptions()) visits each distinct
node once.  Node equality is identity, which is how they tell shared
nodes apart.

An Evaluator memoizes twice, by key: bound results per (invariant,
expression, family) in its MemoTable, and, in its own facts.FactMemo,
membership and the provably_* questions per (question, family,
expression) and the resolution of each expression.  Both last as long
as the evaluator (the MemoTable longer, if it is shared), neither sees
later changes to the universe, so the universe must not change while
an evaluator uses it.

Rule inventory for cat, by rule id:

  member-zero   members of the family have category 0
  declared      a fact-sheet entry for this family
  cd-bound      cat is at most cohomological dimension (every family
                contains the trivial subgroups)
  gd-bound      likewise via geometric dimension
  gog-sum       graph of groups: vertex category plus shifted edge
                category
  gog-max       graph of groups: vertex category against shifted edge
                dimension
  one-step      a graph of groups whose vertex groups all lie in the
                family has category at most 1
  polygon-max   d-gon of groups, d >= 4, under the link condition
                (edge groups around a vertex meet exactly in the face
                group)
  cw-greedy     per-dimension recursion over the cell stabilizers of a
                contractible complex, with a greedily optimized choice
                of arm at each dimension

The recursion behind cw-greedy: d_0 is the sup of the category of the
0-cell stabilizers; at dimension i either

    d_i = max(d_{i-1}, sup(gd(stab) + i))     "max arm", i in I
    d_i = d_{i-1} + sup(cat(stab) + 1)        "sum arm", i not in I

and d_n bounds the category.  Both update maps are nondecreasing in
d_{i-1}, which is why the greedy arm choice is globally optimal.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from .extnat import INF, ZERO, ExtNat, supremum
from .facts import TR, FactMemo, Family, MemoTable, Tri
from .model import (DirectProduct, GcwDescription, GraphOfGroups, GroupExpr,
                    PolygonOfGroups, TrivialGroup, Universe, expr_key)

_set = object.__setattr__


class _Frozen:
    """Fields in __slots__ that cannot be reassigned, with the repr, copy
    and pickle behaviour of a frozen dataclass."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


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
    "gog-max": "max", "gd-tree": "max", "polygon-max": "max",
    "tc-gog": "max", "tc-gcw": "max", "cw-greedy": "max",
    "cat-tr-as-cd": "max", "rec-max": "max",
    "gog-sum": "sum", "product-gd": "sum", "cd-product": "sum",
    "plus": "sum", "rec-sum": "sum", "gluing-sum": "sum",
    "sup": "sup", "rec-base": "sup", "gd-cells": "sup",
}


def replay(node: DerivationNode) -> ExtNat:
    'Recompute the value bottom-up, once per distinct node; leaves stand as recorded.'
    values: Dict[int, ExtNat] = {}
    for n in node.nodes():
        values[id(n)] = _replay_step(n, [values[id(p)] for p in n.premises])
    return values[id(node)]


def _replay_step(node: DerivationNode, vals: List[ExtNat]) -> ExtNat:
    'The value of one node from the replayed values of its premises.'
    kind = REPLAY[node.rule]
    if kind == "leaf":
        return node.value
    if kind == "sum":
        total = ZERO
        for v in vals:
            total = total + v
        return total
    if kind == "sup":
        return supremum(vals)
    if kind == "max":
        if not vals:
            raise ValueError(f"rule {node.rule} needs at least one premise")
        return supremum(vals)
    raise ValueError(f"no replay semantics for rule {node.rule!r}")


class BoundResult(_Frozen):
    'A bound with the derivation of the rule instance that attains it.'

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

    def _fields(self) -> tuple:
        return (self.invariant, self.family, self.value, self.trace)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

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


def _supnode(rule: str, cite: str, premises: Sequence[DerivationNode],
             assumptions: Tuple[str, ...] = ()) -> DerivationNode:
    value = supremum(p.value for p in premises)
    return DerivationNode(rule, cite, value, assumptions, tuple(premises))


def _sumnode(rule: str, cite: str, premises: Sequence[DerivationNode],
             assumptions: Tuple[str, ...] = ()) -> DerivationNode:
    total = ZERO
    for p in premises:
        total = total + p.value
    return DerivationNode(rule, cite, total, assumptions, tuple(premises))


def _shift(inner: DerivationNode, k: int, what: str) -> DerivationNode:
    return _sumnode("plus", f"{what} shifted by its dimension",
                    [inner, _leaf("const", what, ExtNat(k))])


def _memoized_bound(invariant: str,
                    candidates: Callable[..., List[DerivationNode]]):
    """The entry point bound_<invariant>(e, *fam) of the Evaluator.

    Memo lookup, the circular-evaluation guard, then the first of the
    rule instances listed by candidates(evaluator, e, *fam) that attains
    the least value (no-rule at infinity when none applies).  Built once
    per invariant, instead of four methods calling one shared method,
    so that a nested evaluation costs no extra stack frame per level.
    """

    def bound(self: Evaluator, e: GroupExpr, *fam: Family) -> BoundResult:
        fam_name = fam[0].name if fam else None
        key = (invariant, expr_key(e), fam_name)
        results = self.memo.results
        hit = results.get(key)
        if hit is not None:
            return hit
        if key in self._active:
            raise ValueError(f"circular evaluation at {key[1]}")
        self._active.add(key)
        try:
            nodes = (candidates(self, e, *fam)
                     or [_leaf("no-rule", "no applicable rule", INF)])
        finally:
            self._active.discard(key)
        winner = min(nodes, key=lambda node: node.value)
        result = BoundResult(invariant, fam_name, winner.value, winner)
        results.setdefault(key, result)
        return result

    bound.__name__ = f"bound_{invariant}"
    bound.__qualname__ = f"Evaluator.bound_{invariant}"
    return bound


class Evaluator:
    """Bound computation against one universe, with a shared memo table.

    The entry points are bound_cat(e, fam), bound_gd(e), bound_cd(e)
    and bound_tc(e), each returning a BoundResult.  Results are
    memoized by (invariant, expression, family) in `memo`, which may be
    shared with other evaluators over the same universe and is written
    only by them.  `facts` is this evaluator's own FactMemo: membership
    and the provably_* questions it asks, and the resolution of each
    expression, are answered once per key for the evaluator's
    lifetime.  Neither memo notices a change to the universe, so the
    universe must not change while an evaluator uses it.  Evaluation
    is deterministic: rules are tried in a fixed order and the first
    rule attaining the minimum supplies the reported derivation.
    """

    def __init__(self, universe: Universe, memo: Optional[MemoTable] = None) -> None:
        self.universe = universe
        self.memo = memo if memo is not None else MemoTable()
        self.facts = FactMemo(universe)
        self._active: Set[Tuple[str, str, Optional[str]]] = set()

    # -- cat --------------------------------------------------------------

    def cat_candidates(self, e: GroupExpr, fam: Family) -> List[DerivationNode]:
        'All applicable rule instances, in evaluation order.'
        u = self.universe
        facts = self.facts
        out: List[DerivationNode] = []
        verdict, reason = facts.membership_with_reason(e, fam)
        if verdict is Tri.YES:
            out.append(_leaf("member-zero", reason, ZERO))
        kind, payload, chain = facts.resolve_chain(e)
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
        if kind in ("free", "graph"):
            vertices, edges = _as_gog(kind, payload)
            out.append(self._gog_sum(vertices, edges, fam))
            out.append(self._gog_max(vertices, edges, fam))
            if all(facts.membership(g, fam) is Tri.YES for _, g in vertices):
                out.append(_leaf(
                    "one-step",
                    "fundamental group of a graph of groups with vertex groups "
                    "in the family", ExtNat(1)))
        elif kind == "polygon":
            node = self._polygon_rule(payload, fam)
            if node is not None:
                out.append(node)
        elif kind == "gcw":
            if payload.contractible:
                _, _, ladder = self._cw_ladder(payload, fam, None)
                out.append(_supnode(
                    "cw-greedy",
                    "recursion over cell stabilizers with optimized arm choice",
                    [ladder],
                    (f"contractibility asserted for {payload.name}",)))
        return out

    bound_cat = _memoized_bound("cat", cat_candidates)

    def _gog_sum(self, vertices, edges, fam: Family) -> DerivationNode:
        vnodes = [self.bound_cat(g, fam).trace for _, g in vertices]
        enodes = [_shift(self.bound_cat(g, fam).trace, 1, f"edge {label}")
                  for label, g in edges]
        return _sumnode("gog-sum",
                        "vertex category plus shifted edge category",
                        [_supnode("sup", "over vertex groups", vnodes),
                         _supnode("sup", "over edge groups", enodes)])

    def _gog_max(self, vertices, edges, fam: Family) -> DerivationNode:
        vnodes = [self.bound_cat(g, fam).trace for _, g in vertices]
        enodes = [_shift(self.bound_gd(g).trace, 1, f"edge {label}")
                  for label, g in edges]
        return _supnode("gog-max",
                        "vertex category against shifted edge dimension",
                        [_supnode("sup", "over vertex groups", vnodes),
                         _supnode("sup", "over edge groups", enodes)])

    def _polygon_rule(self, p: PolygonOfGroups, fam: Family) -> Optional[DerivationNode]:
        if p.d < 4:
            return None
        assumptions: Tuple[str, ...] = ()
        if p.concrete_maps:
            from .develop import check_curvature
            if not check_curvature(self.universe, p).holds:
                return None
        else:
            assumptions = (f"link condition asserted for {p.name}",)
        vnodes = [self.bound_cat(g, fam).trace for g in p.vertex_groups]
        enodes = [_shift(self.bound_gd(g).trace, 1, f"edge {i}")
                  for i, g in enumerate(p.edge_groups)]
        fnode = _shift(self.bound_gd(p.face_group).trace, 2, "face")
        return _supnode(
            "polygon-max",
            f"{p.d}-gon of groups under the link condition",
            [_supnode("sup", "over vertex groups", vnodes),
             _supnode("sup", "over edge groups", enodes),
             fnode],
            assumptions)

    # -- the per-dimension recursion --------------------------------------

    def _cw_ladder(self, x: GcwDescription, fam: Family,
                   selection: Optional[FrozenSet[int]]
                   ) -> Tuple[FrozenSet[int], ExtNat, DerivationNode]:
        """Run the d_i ladder.  selection None means greedy arm choice.

        Ties go to the max arm, so the greedy selection set is the
        largest one attaining the optimum.
        """
        chosen: Set[int] = set()
        d = _supnode("rec-base", "category of 0-cell stabilizers",
                     [self.bound_cat(g, fam).trace for g in x.dims[0]])
        for i in range(1, x.n + 1):
            row = x.dims[i]
            gd_sup = _supnode("sup", f"shifted dimension of {i}-cell stabilizers",
                              [_shift(self.bound_gd(g).trace, i, f"{i}-cell")
                               for g in row])
            cat_sup = _supnode("sup", f"shifted category of {i}-cell stabilizers",
                               [_shift(self.bound_cat(g, fam).trace, 1, f"{i}-cell")
                                for g in row])
            max_arm = _supnode("rec-max", f"dimension {i}, max arm", [d, gd_sup])
            sum_arm = _sumnode("rec-sum", f"dimension {i}, sum arm", [d, cat_sup])
            if selection is not None:
                take_max = i in selection
            else:
                take_max = max_arm.value <= sum_arm.value
            if take_max:
                chosen.add(i)
                d = max_arm
            else:
                d = sum_arm
        return frozenset(chosen), d.value, d

    def eval_recursion(self, x: GcwDescription, fam: Family,
                       selection: Iterable[int]) -> ExtNat:
        sel = frozenset(selection)
        bad = [i for i in sel if not 1 <= i <= x.n]
        if bad:
            raise ValueError(f"selection set must lie in 1..{x.n}, got {sorted(bad)}")
        _, value, _ = self._cw_ladder(x, fam, sel)
        return value

    def optimize_selection(self, x: GcwDescription,
                           fam: Family) -> Tuple[FrozenSet[int], ExtNat]:
        chosen, value, _ = self._cw_ladder(x, fam, None)
        return chosen, value

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
            out.append(_sumnode("product-gd",
                                "dimension is subadditive under direct products",
                                factors))
        elif kind in ("free", "graph"):
            vertices, edges = _as_gog(kind, payload)
            vnodes = [self.bound_gd(g).trace for _, g in vertices]
            enodes = [_shift(self.bound_gd(g).trace, 1, f"edge {label}")
                      for label, g in edges]
            out.append(_supnode("gd-tree",
                                "action on the associated tree",
                                [_supnode("sup", "over vertex groups", vnodes),
                                 _supnode("sup", "over edge groups", enodes)]))
        elif kind == "gcw" and payload.contractible:
            cells = [_shift(self.bound_gd(g).trace, d, f"{d}-cell")
                     for d, g in payload.cells()]
            out.append(_supnode("gd-cells", "dimension from cell stabilizers", cells,
                                (f"contractibility asserted for {payload.name}",)))
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
            out.append(_sumnode("cd-product",
                                "subadditive under direct products", factors))
        cat = self.bound_cat(e, TR)
        out.append(_supnode("cat-tr-as-cd",
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
        if kind in ("free", "graph"):
            vertices, edges = _as_gog(kind, payload)
            out.append(self._tc_gog(vertices, edges))
        elif kind == "gcw" and payload.contractible:
            out.append(self._tc_gcw(payload))
        return out

    bound_tc = _memoized_bound("tc", _tc_candidates)

    def _pair(self, a: GroupExpr, b: GroupExpr) -> GroupExpr:
        return DirectProduct((a, b))

    def _tc_gog(self, vertices, edges) -> DerivationNode:
        'Complexity of the square of the tree action, term by term.'
        tc_nodes = [self.bound_tc(g).trace for _, g in vertices]
        pair_nodes = [self.bound_cd(self._pair(vertices[i][1], vertices[j][1])).trace
                      for i in range(len(vertices))
                      for j in range(i + 1, len(vertices))]
        ve_nodes = [_shift(self.bound_gd(self._pair(gv, ge)).trace, 1,
                           f"vertex {vl} with edge {el}")
                    for vl, gv in vertices for el, ge in edges]
        ee_nodes = [_shift(self.bound_gd(self._pair(edges[i][1], edges[j][1])).trace, 2,
                           f"edges {edges[i][0]} and {edges[j][0]}")
                    for i in range(len(edges)) for j in range(i, len(edges))]
        terms = [
            _supnode("sup", "complexity over vertex groups", tc_nodes),
            _supnode("sup", "dimension of distinct vertex group pairs", pair_nodes),
            _supnode("sup", "vertex-edge pairs, shifted", ve_nodes),
            _supnode("sup", "edge pairs, shifted", ee_nodes),
        ]
        return _supnode("tc-gog",
                        "complexity bound from the square of the tree", terms)

    def _tc_gcw(self, x: GcwDescription) -> DerivationNode:
        cells = x.cells()
        zero = [(i, g) for i, (d, g) in enumerate(cells) if d == 0]
        tc_nodes = [self.bound_tc(g).trace for _, g in zero]
        pair_nodes = [self.bound_cd(self._pair(zero[a][1], zero[b][1])).trace
                      for a in range(len(zero))
                      for b in range(a + 1, len(zero))]
        mixed = []
        for a, (da, ga) in enumerate(cells):
            for b in range(a, len(cells)):
                db, gb = cells[b]
                if max(da, db) < 1:
                    continue
                mixed.append(_shift(self.bound_gd(self._pair(ga, gb)).trace,
                                    da + db, f"cells of dimension {da} and {db}"))
        terms = [
            _supnode("sup", "complexity over 0-cell stabilizers", tc_nodes),
            _supnode("sup", "dimension of distinct 0-cell stabilizer pairs", pair_nodes),
            _supnode("sup", "stabilizer pairs meeting positive dimension, shifted",
                     mixed),
        ]
        return _supnode("tc-gcw",
                        "complexity bound from the square of the complex", terms,
                        (f"contractibility asserted for {x.name}",))


def _as_gog(kind: str, payload) -> Tuple[List[Tuple[str, GroupExpr]],
                                         List[Tuple[str, GroupExpr]]]:
    'Uniform (vertices, edges) view of free products and graphs of groups.'
    if kind == "free":
        vertices = [(f"factor{i}", g) for i, g in enumerate(payload.factors)]
        edges = [(f"join{i}", TrivialGroup()) for i in range(len(payload.factors) - 1)]
        return vertices, edges
    graph: GraphOfGroups = payload
    vertices = list(graph.vertices)
    edges = [(f"edge{i}", e.group) for i, e in enumerate(graph.edges)]
    return vertices, edges
