import ast
import collections
import random
from pathlib import Path

import pytest

import catbound
from catbound import dsl
from catbound.engine import REPLAY, DerivationNode, Evaluator, _combine, replay
from catbound.extnat import INF, ZERO, ExtNat, replace
from catbound.facts import AM, FIN, TR, FactSheet, Tri
from catbound.model import (DirectProduct, FreeProduct, GraphOfGroups, Ref,
                            TrivialGroup, Universe, expr_key)

from gencw import oracle_exhaustive, oracle_recursion, random_instance
from genmodels import _Names, nested_text, random_expr, random_graph, random_polygon
from oracles import (dag_size, gd_tree, gog_max, gog_sum, ladder_value, max_arm_dims,
                     max_combination, polygon_max, sum_combination, tc_gog)
from test_acceptance import all_fixture_results


@pytest.fixture(scope="module")
def example_universe(fixture_texts):
    u, diags = dsl.load_text(fixture_texts["examples"], dsl.load_prelude())
    assert not diags
    return u


@pytest.fixture()
def ev(example_universe):
    return Evaluator(example_universe)


# the rule ids of the complex rule's nodes
LADDER = ("rec-base", "rec-max", "rec-sum")


def rule_values(candidates, rules):
    return [n.value for n in candidates if n.rule in rules]


# -- headline values ------------------------------------------------------


def test_cat_tr_of_free_square(ev):
    r = ev.bound_cat(Ref("ZZ"), TR)
    assert r.value == ExtNat(1)
    assert r.trace.rule == "rec-max"


def test_cat_fin_of_finite_amalgam_uses_sum_rule(ev):
    r = ev.bound_cat(Ref("Am46"), FIN)
    assert r.value == ExtNat(1)
    assert r.value != INF
    assert r.trace.rule == "rec-sum"


def test_cat_am_of_free_amalgam(ev):
    r = ev.bound_cat(Ref("FC"), AM)
    assert r.value == ExtNat(2)


def test_member_zero(ev):
    r = ev.bound_cat(Ref("Z"), AM)
    assert r.value == ZERO
    assert r.trace.rule == "member-zero"
    assert r.trace.premises == ()


def test_trivial_everywhere(ev):
    for fam in (TR, FIN, AM):
        assert ev.bound_cat(TrivialGroup(), fam).value == ZERO
    assert ev.bound_gd(TrivialGroup()).value == ZERO
    assert ev.bound_tc(TrivialGroup()).value == ZERO


# -- declared facts through definition chains -----------------------------


def test_declared_cat_on_defined_group():
    u, diags = dsl.load_text(
        'group W = F2 x Z { cat[Am] <= 1 by "space-level argument"; }',
        dsl.load_prelude())
    assert not diags
    r = Evaluator(u).bound_cat(Ref("W"), AM)
    assert r.value == ExtNat(1)
    assert r.trace.rule == "declared"
    assert "space-level argument" in r.trace.cite


def test_declared_infinite_gd_keeps_provenance():
    u, diags = dsl.load_text(
        'group N { gd <= inf by "no finite model"; }', dsl.load_prelude())
    assert not diags
    r = Evaluator(u).bound_gd(Ref("N"))
    assert r.value == INF
    assert "no finite model" in r.trace.cite


# -- graphs of groups and free products ----------------------------------


def test_one_step_candidate_for_member_vertices(ev):
    nodes = ev.cat_candidates(Ref("Am46"), FIN)
    one_step = [n for n in nodes if n.rule == "one-step"]
    assert len(one_step) == 1
    assert one_step[0].value == ExtNat(1)


def test_gog_rules_absent_for_non_member_graph():
    u, diags = dsl.load_text("amalgam X = F2 *[Z] F2;", dsl.load_prelude())
    assert not diags
    nodes = Evaluator(u).cat_candidates(Ref("X"), FIN)
    assert not any(n.rule == "one-step" for n in nodes)


def test_free_product_routes_through_graph_rules(ev):
    assert rule_values(ev.cat_candidates(Ref("ZZ"), TR), LADDER) == [ExtNat(1)]
    assert gog_sum(ev, Ref("ZZ"), TR) == ExtNat(2)
    assert gog_max(ev, Ref("ZZ"), TR) == ExtNat(1)


# -- polygons -------------------------------------------------------------

def assert_no_complex_rule(ev, name):
    for fam in (TR, FIN, AM):
        assert not rule_values(ev.cat_candidates(Ref(name), fam), LADDER)
    assert not rule_values(ev._gd_candidates(Ref(name)), ("gd-cells",))
    assert not rule_values(ev._tc_candidates(Ref(name)), ("tc-gcw",))


def polygon_universe(extra=""):
    text = """
group GA { cat[Am] <= 3 by "piece estimate"; }
group MW { gd <= 2 by "aspherical two-complex"; }
polygon PENT {
  d = 5;
  vertex = GA;
  edge = MW;
  face = One;
}
""" + extra
    u, diags = dsl.load_text(text, dsl.load_prelude())
    assert not diags, diags
    return u


def test_a_graph_with_no_vertex_gets_no_bound():
    # hand-built: validation refuses such a graph, and it has no tree to act on
    u = dsl.load_prelude().overlay()
    u.graphs["E"] = GraphOfGroups("E", (), ())
    ev = Evaluator(u)
    assert ev.facts.complex_view(Ref("E")) is None
    for fam in (TR, FIN, AM):
        assert ev.bound_cat(Ref("E"), fam).value == INF
    for invariant in ("gd", "cd", "tc"):
        assert getattr(ev, f"bound_{invariant}")(Ref("E")).value == INF


def test_polygon_rule_with_asserted_links():
    r = Evaluator(polygon_universe()).bound_cat(Ref("PENT"), AM)
    assert r.value == ExtNat(3)
    assert r.trace.rule == "rec-max"
    assert any("asserted" in a for a in r.assumptions())


def test_polygon_rule_needs_four_sides():
    u, diags = dsl.load_text(
        "group MW { gd <= 2; }\n"
        "polygon TRI { d = 3; vertex = MW; edge = One; face = One; }",
        dsl.load_prelude())
    assert not diags
    r = Evaluator(u).bound_cat(Ref("TRI"), AM)
    assert r.value == INF
    assert r.trace.rule == "no-rule"
    assert_no_complex_rule(Evaluator(u), "TRI")


def test_polygon_rule_refuses_failed_concrete_links(fixture_texts):
    u, diags = dsl.load_text(fixture_texts["z4_polygon"], dsl.load_prelude())
    assert not diags
    r = Evaluator(u).bound_cat(Ref("BAD"), FIN)
    assert r.value == INF
    assert r.trace.rule == "no-rule"
    assert not r.assumptions()
    assert_no_complex_rule(Evaluator(u), "BAD")


def test_polygon_rule_accepts_verified_concrete_links(fixture_texts):
    u, diags = dsl.load_text(fixture_texts["square_coxeter"],
                             dsl.load_prelude())
    assert not diags
    ev = Evaluator(u)
    for fam in (FIN, AM):
        r = ev.bound_cat(Ref("SQ"), fam)
        # the links are verified, so there is no assumption; the finite
        # edge groups have gd inf, which the all-max formula cannot step
        # over, but the sum arm can: d_0 = 0 at the corners, d_1 = 0 + 1,
        # d_2 = max(1, gd(face) + 2) = 2
        assert r.trace.rule == "rec-max"
        assert r.value == ExtNat(2)
        assert polygon_max(ev, u.polygons["SQ"], fam) == INF
        assert not r.assumptions()
        assert replay(r.trace) == r.value
    assert len(rule_values(ev._gd_candidates(Ref("SQ")), ("gd-cells",))) == 1
    assert len(rule_values(ev._tc_candidates(Ref("SQ")), ("tc-gcw",))) == 1
    for r in (ev.bound_gd(Ref("SQ")), ev.bound_tc(Ref("SQ"))):
        assert replay(r.trace) == r.value and not r.assumptions()


# -- stratified complexes -------------------------------------------------


def gcw_universe():
    u, diags = dsl.load_text("""
gcw X {
  contractible = assert;
  dim 0 : [Z4, Z];
  dim 1 : [Z2];
  dim 2 : [One];
}
""", dsl.load_prelude())
    assert not diags
    return u


def test_cw_greedy_bound_and_assumption():
    r = Evaluator(gcw_universe()).bound_cat(Ref("X"), AM)
    assert r.value == ExtNat(2)
    # sum arm at dimension 1 (the Z2 cells have gd inf), max arm at 2
    assert r.trace.rule == "rec-max"
    assert max_arm_dims(r.trace) == {2}
    assert any("contractibility" in a for a in r.assumptions())


def test_endpoint_identities_random():
    rng = random.Random(7)
    for _ in range(200):
        u, x, values = random_instance(rng)
        ev2 = Evaluator(u)
        n = len(x.dims) - 1
        full = frozenset(range(1, n + 1))
        got_full = ladder_value(ev2, x, AM, full)
        got_empty = ladder_value(ev2, x, AM, frozenset())
        assert got_full == max_combination(ev2, x, AM)
        assert got_empty == sum_combination(ev2, x, AM)
        assert got_full.v == oracle_recursion(x, values, full)
        assert got_empty.v == oracle_recursion(x, values, frozenset())


def test_recursion_matches_oracle_on_random_selections():
    rng = random.Random(8)
    for _ in range(200):
        u, x, values = random_instance(rng)
        ev2 = Evaluator(u)
        n = len(x.dims) - 1
        sel = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
        assert ladder_value(ev2, x, AM, sel).v == \
            oracle_recursion(x, values, sel)


def test_greedy_is_optimal_random():
    rng = random.Random(9)
    for _ in range(200):
        u, x, values = random_instance(rng, max_n=8)
        ev2 = Evaluator(u)
        r = ev2.bound_cat(Ref(x.name), AM)
        sel = max_arm_dims(r.trace)
        assert ladder_value(ev2, x, AM, sel) == r.value
        assert r.value.v == oracle_recursion(x, values, sel)
        assert r.value.v == oracle_exhaustive(x, values)
        assert replay(r.trace) == r.value


# -- the complex rule against the per-carrier formulas it replaced --------

def random_atoms(rng: random.Random) -> Universe:
    'Sheets with random bounds for the atom names genmodels.random_expr draws.'
    u = Universe()
    for name in ("A", "B", "C", "Zed", "Q9"):
        s = FactSheet(name=name)
        gd = None if rng.random() < 0.3 else rng.randint(0, 4)
        s.gd_ub = INF if gd is None else ExtNat(gd)
        s.cd_ub = s.gd_ub if rng.random() < 0.5 else INF
        s.tc_ub = INF if gd is None or rng.random() < 0.3 else ExtNat(2 * gd)
        for fam in ("Tr", "Fin", "Am"):
            if rng.random() < 0.5:
                s.cat_ub[fam] = ExtNat(rng.randint(0, 4))
        s.amenable = rng.choice((Tri.YES, Tri.NO, Tri.UNKNOWN))
        if s.amenable is Tri.YES and rng.random() < 0.5:
            s.finite = Tri.YES
        u.sheets[name] = s
    return u


def test_complex_rule_matches_the_retired_formulas_random():
    rng = random.Random(2031)
    kinds = collections.Counter()
    for i in range(300):
        u = random_atoms(rng)
        names = _Names()
        graph = random_graph(rng, names)
        polygon = replace(random_polygon(rng, names),
                                      edge_maps=None, face_maps=None)
        u.graphs[graph.name] = graph
        u.polygons[polygon.name] = polygon
        free = FreeProduct(tuple(random_expr(rng, 1)
                                 for _ in range(rng.randint(2, 3))))
        ev = Evaluator(u)
        for target, tree in ((Ref(graph.name), True), (free, True),
                             (Ref(polygon.name), False)):
            kinds["tree" if tree else f"polygon-{polygon.d >= 4}"] += 1
            complex_view = tree or polygon.d >= 4
            for fam in (TR, FIN, AM):
                ladder = rule_values(ev.cat_candidates(target, fam), LADDER)
                assert len(ladder) == complex_view, (i, target)
                if tree:
                    assert ladder[0] == min(gog_sum(ev, target, fam),
                                            gog_max(ev, target, fam)), (i, target)
                elif ladder:
                    assert ladder[0] <= polygon_max(ev, polygon, fam), (i, target)
                r = ev.bound_cat(target, fam)
                assert replay(r.trace) == r.value, (i, target)
            gd_cells = rule_values(ev._gd_candidates(target), ("gd-cells",))
            tc_gcw = rule_values(ev._tc_candidates(target), ("tc-gcw",))
            assert len(gd_cells) == len(tc_gcw) == complex_view, (i, target)
            if tree:
                assert gd_cells == [gd_tree(ev, target)], (i, target)
                assert tc_gcw == [tc_gog(ev, target)], (i, target)
            for r in (ev.bound_gd(target), ev.bound_cd(target), ev.bound_tc(target)):
                assert replay(r.trace) == r.value, (i, target)
    assert kinds["polygon-True"] > 50 and kinds["polygon-False"] > 10


def test_link_condition_is_checked_once_per_evaluator(fixture_texts, monkeypatch):
    from catbound import develop
    calls = collections.Counter()
    check = develop.check_curvature
    monkeypatch.setattr(develop, "check_curvature", lambda u, p: (
        calls.update([p.name]) or check(u, p)))
    u, diags = dsl.load_text(fixture_texts["square_coxeter"], dsl.load_prelude())
    assert not diags
    for round_ in (1, 2):
        ev = Evaluator(u)
        for fam in (TR, FIN, AM):
            ev.bound_cat(Ref("SQ"), fam)
        ev.bound_gd(Ref("SQ"))
        ev.bound_tc(Ref("SQ"))
        assert calls == {"SQ": round_}


# -- dimension and complexity ---------------------------------------------


def test_gd_of_free_products(ev):
    assert ev.bound_gd(Ref("ZZ")).value == ExtNat(1)
    assert ev.bound_gd(Ref("F2")).value == ExtNat(1)
    # amalgam over Z: the tree bound shifts the edge group by one
    r = ev.bound_gd(Ref("FC"))
    assert r.value == ExtNat(2)
    assert r.trace.rule == "gd-cells"
    assert gd_tree(ev, Ref("FC")) == ExtNat(2)


def test_gd_of_products(ev):
    r = ev.bound_gd(DirectProduct((Ref("Z"), Ref("Z"), Ref("Z"))))
    assert r.value == ExtNat(3)
    assert r.trace.rule == "product-gd"


def test_gd_of_finite_group_unbounded(ev):
    assert ev.bound_gd(Ref("Z4")).value == INF


def test_gd_of_gcw_counts_cells():
    u, diags = dsl.load_text("""
gcw Y {
  contractible = assert;
  dim 0 : [Z, One];
  dim 1 : [Z];
  dim 2 : [One];
}
""", dsl.load_prelude())
    assert not diags
    r = Evaluator(u).bound_gd(Ref("Y"))
    # sup of gd(stab) + dim over the cells: the 1-cells over Z win
    assert r.value == ExtNat(2)
    assert r.trace.rule == "gd-cells"
    assert any("contractibility" in a for a in r.assumptions())


def test_gd_of_gcw_with_torsion_stabilizer_unbounded():
    assert Evaluator(gcw_universe()).bound_gd(Ref("X")).value == INF


def test_cd_of_free_group_via_aspherical_category(ev):
    r = ev.bound_cd(Ref("F2"))
    assert r.value == ExtNat(1)
    assert r.trace.rule == "cat-tr-as-cd"


def test_cd_of_product(ev):
    r = ev.bound_cd(DirectProduct((Ref("Z"), Ref("Z"))))
    assert r.value == ExtNat(2)
    assert r.trace.rule == "cd-product"


def test_tc_declared(ev):
    r = ev.bound_tc(Ref("Z"))
    assert r.value == ExtNat(1)
    assert r.trace.rule == "tc-declared"


def test_tc_of_free_square(ev):
    r = ev.bound_tc(Ref("ZZ"))
    assert r.value == ExtNat(2)
    assert r.trace.rule == "tc-gcw"
    # tc of the factors, cd of the factor pair, and the pairs meeting
    # the 1-cells (the vertex-edge and edge-edge terms of the tree rule)
    assert len(r.trace.premises) == 3
    assert sorted(str(p.value) for p in r.trace.premises) == ["1", "2", "2"]
    assert tc_gog(ev, Ref("ZZ")) == ExtNat(2)


def test_tc_of_contractible_complex():
    r = Evaluator(gcw_universe()).bound_tc(Ref("X"))
    assert r.trace.rule == "tc-gcw"
    assert len(r.trace.premises) == 3


# -- trace machinery ------------------------------------------------------


def all_results(u):
    ev2 = Evaluator(u)
    names = sorted(u.group_names())
    out = []
    for name in names:
        for fam in (TR, FIN, AM):
            out.append(ev2.bound_cat(Ref(name), fam))
        out.append(ev2.bound_gd(Ref(name)))
        out.append(ev2.bound_cd(Ref(name)))
        out.append(ev2.bound_tc(Ref(name)))
    return out


def test_replay_reproduces_values(example_universe):
    for r in all_results(example_universe):
        assert replay(r.trace) == r.value
        for node in r.trace.nodes():
            assert node.rule in REPLAY


def test_every_node_is_its_rule_applied_to_its_premises(fixture_texts):
    # replay() recomputes the root from the leaves; here each non-leaf
    # node's own value must be its rule's arithmetic on its premises
    results = all_fixture_results(fixture_texts)
    for depth in (2, 3, 4):
        u, diags = dsl.load_text(nested_text(depth, 3), dsl.load_prelude())
        assert not diags
        results += all_results(u)
    checked = set()
    for r in results:
        if r.trace is None:
            continue
        for node in r.trace.nodes():
            kind = REPLAY[node.rule]
            if kind != "leaf" and id(node) not in checked:
                checked.add(id(node))
                assert node.value == _combine(kind, [p.value for p in node.premises]), (
                    node.rule, node.cite)
    assert len(checked) > 1000


def test_replay_lists_exactly_the_emitted_rule_ids():
    builders = {"_leaf", "_node", "DerivationNode"}
    emitted = set()
    for path in sorted(Path(catbound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in builders):
                emitted.add(node.args[0].value)
    assert emitted == set(REPLAY)


def test_nodes_are_distinct_in_post_order():
    a = DerivationNode("const", "a", ExtNat(1))
    b = DerivationNode("const", "b", ExtNat(2))
    ab = DerivationNode("plus", "a + a + b", ExtNat(4), (), (a, a, b))
    root = DerivationNode("sup", "root", ExtNat(4), (), (b, ab, a))
    assert [n.cite for n in root.nodes()] == ["b", "a", "a + a + b", "root"]
    assert root.to_json() == {"nodes": [
        {"rule": "const", "cite": "b", "value": 2, "assumptions": [], "premises": []},
        {"rule": "const", "cite": "a", "value": 1, "assumptions": [], "premises": []},
        {"rule": "plus", "cite": "a + a + b", "value": 4, "assumptions": [],
         "premises": [1, 1, 0]},
        {"rule": "sup", "cite": "root", "value": 4, "assumptions": [],
         "premises": [0, 2, 1]},
    ], "root": 3}
    assert replay(root) == ExtNat(4)


def test_shared_traces_cost_one_visit_per_node():
    # 12 levels of 3 copies of the level below: the cd trace has 87
    # distinct nodes and about 2.9 million as an expanded tree
    u, diags = dsl.load_text(nested_text(12, 3), dsl.load_prelude())
    assert not diags
    ev = Evaluator(u)
    target = Ref("N12")
    results = [ev.bound_cd(target), ev.bound_gd(target), ev.bound_tc(target),
               ev.bound_cat(target, FIN)]
    assert [str(r.value) for r in results] == ["2", "2", "4", "2"]
    assert dag_size(results[0].trace)[0] == 87
    for r in results:
        distinct, _ = dag_size(r.trace)
        order = r.trace.nodes()
        assert len(order) == len({id(n) for n in order}) == distinct
        assert order[-1] is r.trace
        index = {id(n): i for i, n in enumerate(order)}
        js = r.to_json()["trace"]
        assert len(js["nodes"]) == distinct and js["root"] == distinct - 1
        for i, (node, entry) in enumerate(zip(order, js["nodes"])):
            assert entry["rule"] == node.rule
            assert entry["premises"] == [index[id(p)] for p in node.premises]
            assert all(k < i for k in entry["premises"])
        assert replay(r.trace) == r.value
        assert r.assumptions() == []


def test_traces_serialize_deterministically(example_universe):
    import json
    first = [json.dumps(r.to_json()) for r in all_results(example_universe)]
    second = [json.dumps(r.to_json()) for r in all_results(example_universe)]
    assert first == second


def test_memo_shared_between_calls(example_universe):
    ev = Evaluator(example_universe)
    r1 = ev.bound_cat(Ref("FC"), AM)
    assert ev.bound_cat(Ref("FC"), AM) is r1


def test_cycle_in_defs_raises():
    # a chain of names that never reaches a group: resolution refuses it
    u = Universe()
    u.defs["X"] = Ref("Y")
    u.defs["Y"] = Ref("X")
    with pytest.raises(ValueError, match="circular definition through"):
        Evaluator(u).bound_cat(Ref("X"), AM)


def test_a_bound_that_needs_itself_reads_infinity():
    # hand-built and never validated: a graph whose vertex group is the
    # graph itself, and a definition cycle through a free product.  Their
    # bounds need themselves, and read infinity there
    u = Universe()
    u.graphs["G"] = GraphOfGroups("G", (("v", Ref("G")),), ())
    u.defs["X"] = FreeProduct((Ref("Y"), Ref("Y")))
    u.defs["Y"] = Ref("X")
    ev = Evaluator(u)
    results = []
    for name in ("G", "X"):
        results += [ev.bound_cat(Ref(name), fam) for fam in (TR, FIN, AM)]
        results.append(ev.bound_gd(Ref(name)))
    for r in results:
        assert r.value == INF and replay(r.trace) == INF
        assert [(n.value, n.premises) for n in r.trace.nodes()
                if (n.rule, n.cite) == ("no-rule", "circular definition")] == [(INF, ())]


def test_nested_evaluation_depth():
    # each link nests one evaluation per invariant; until evaluation is
    # iterative, the Python stack bounds the chain length, so the entry
    # points must not add frames per level
    n = 200
    text = "".join(f"amalgam G{i} = {f'G{i - 1}' if i > 1 else 'Z'} *[One] Z;\n"
                   for i in range(1, n + 1))
    u, diags = dsl.load_text(text, dsl.load_prelude())
    assert not diags
    ev = Evaluator(u)
    target = Ref(f"G{n}")
    assert ev.bound_cat(target, AM).value == ExtNat(1)
    assert ev.bound_gd(target).value == ExtNat(1)
    assert ev.bound_cd(target).value == ExtNat(1)
    assert ev.bound_tc(target).value == ExtNat(2)


class WriteCounts(dict):
    'A dict that counts the writes to each key.'

    def __init__(self) -> None:
        super().__init__()
        self.writes = collections.Counter()

    def __setitem__(self, key, value) -> None:
        self.writes[key] += 1
        super().__setitem__(key, value)


def chain_text(n: int) -> str:
    return "".join(f"amalgam G{i} = {f'G{i - 1}' if i > 1 else 'Z'} *[One] Z;\n"
                   for i in range(1, n + 1))


# N1 gets 1 from one-step, every later level 2 from the max arm (edge
# groups Z, so gd + 1 = 2); each chain link gets 1 from the max arm
@pytest.mark.parametrize("text,target,size,value", [
    (nested_text(10, 3), "N10", 10, 2),
    (chain_text(200), "G200", 200, 1),
], ids=["nested-10", "chain-200"])
def test_facts_are_computed_once_per_key(monkeypatch, text, target, size, value):
    u, diags = dsl.load_text(text, dsl.load_prelude())
    assert not diags
    resolved = collections.Counter()
    resolve_chain = Universe.resolve_chain
    monkeypatch.setattr(Universe, "resolve_chain", lambda self, e: (
        resolved.update([expr_key(e)]) or resolve_chain(self, e)))
    ev = Evaluator(u)
    # a question is computed once: its key is written with the
    # conservative answer that stands while it is being computed, then
    # with its answer
    ev.facts._answers = answers = WriteCounts()
    assert ev.bound_cat(Ref(target), AM).value == ExtNat(value)
    assert answers and max(answers.writes.values()) == 2
    assert resolved and max(resolved.values()) == 1
    # keys grow with the model, not with the paths through it
    assert len(answers) <= 3 * (size + 5)
