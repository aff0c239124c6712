import copy
import random
import re

import pytest

import oracles
from catbound import facts
from catbound.dsl import (CyclicCtor, GroupDecl, SourceModel, load_prelude,
                          load_text, serialize)
from catbound.engine import Evaluator
from catbound.extnat import INF, ZERO, ExtNat, replace
from catbound.facts import (AM, FIN, TR, FactMemo, Family, FamilyKind, FactSheet,
                            MemoTable, Tri, builtin_families, close_sheet,
                            membership, membership_with_reason)
from catbound.model import (DirectProduct, FreeProduct, GraphOfGroups, Ref,
                            TrivialGroup, Universe, cyclic_group, validate)

from genmodels import (_Names, random_amalgam, random_fact, random_family,
                       random_gcw, random_graph, random_group)


def atom(u: Universe, name: str, **kw) -> FactSheet:
    s = FactSheet(name=name)
    for k, v in kw.items():
        setattr(s, k, v)
    u.sheets[name] = s
    return s


def universe_with_z() -> Universe:
    u = Universe()
    atom(u, "Z", gd_ub=ExtNat(1), cd_ub=ExtNat(1), tc_ub=ExtNat(1),
         amenable=Tri.YES, finite=Tri.NO)
    atom(u, "One", trivial=True)
    close_sheet(u.sheets["One"], None)
    u.concretes["Z4"] = cyclic_group(4)
    atom(u, "Z4")
    close_sheet(u.sheets["Z4"], 4)
    atom(u, "F2")
    u.defs["F2"] = FreeProduct((Ref("Z"), Ref("Z")))
    return u


# -- sheet closure --------------------------------------------------------


def test_close_sheet_trivial_forces_everything():
    s = FactSheet(name="T")
    s.trivial = True
    assert close_sheet(s, None) == []
    assert s.amenable is Tri.YES
    assert s.finite is Tri.YES
    assert s.gd_ub == ZERO and s.cd_ub == ZERO and s.tc_ub == ZERO


def test_close_sheet_concrete_forces_finite():
    s = FactSheet(name="G")
    assert close_sheet(s, 6) == []
    assert s.finite is Tri.YES
    assert s.amenable is Tri.YES


def test_close_sheet_order_one_is_trivial():
    s = FactSheet(name="G")
    close_sheet(s, 1)
    assert s.trivial


def test_close_sheet_contradictions():
    s = FactSheet(name="G")
    s.finite = Tri.NO
    assert close_sheet(s, 4)

    s2 = FactSheet(name="G")
    s2.trivial = True
    assert close_sheet(s2, 4)

    s3 = FactSheet(name="G")
    s3.finite = Tri.YES
    s3.amenable = Tri.NO
    assert close_sheet(s3, None)


def test_close_sheet_finite_nontrivial_with_finite_gd():
    # a nontrivial finite group admits no finite-dimensional model
    s = FactSheet(name="G")
    s.gd_ub = ExtNat(2)
    assert close_sheet(s, 4)


def test_cite_falls_back_to_declared():
    s = FactSheet(name="G")
    s.provenance["gd"] = "given reason"
    assert "given reason" in s.cite("gd")
    assert s.cite("cd")


# -- membership -----------------------------------------------------------


def test_trivial_group_in_every_family():
    u = universe_with_z()
    for fam in (TR, FIN, AM):
        assert membership(u, TrivialGroup(), fam) is Tri.YES
        assert membership(u, Ref("One"), fam) is Tri.YES


def test_finite_family_membership():
    u = universe_with_z()
    assert membership(u, Ref("Z4"), FIN) is Tri.YES
    assert membership(u, Ref("Z"), FIN) is Tri.NO
    assert membership(u, DirectProduct((Ref("Z4"), Ref("Z4"))), FIN) is Tri.YES
    assert membership(u, DirectProduct((Ref("Z4"), Ref("Z"))), FIN) is Tri.NO


def test_amenable_family_membership():
    u = universe_with_z()
    assert membership(u, Ref("Z"), AM) is Tri.YES
    assert membership(u, Ref("Z4"), AM) is Tri.YES
    assert membership(u, DirectProduct((Ref("Z"), Ref("Z"))), AM) is Tri.YES
    # free product of two genuinely nontrivial groups, one infinite
    assert membership(u, Ref("F2"), AM) is Tri.NO


def test_infinite_dihedral_free_product_not_provably_nonamenable():
    # two order-two factors: the free product is virtually cyclic, so
    # non-amenability must NOT be concluded
    u = Universe()
    u.concretes["Z2"] = cyclic_group(2)
    s = FactSheet(name="Z2")
    u.sheets["Z2"] = s
    close_sheet(s, 2)
    verdict = membership(u, FreeProduct((Ref("Z2"), Ref("Z2"))), AM)
    assert verdict is not Tri.NO


def test_trivial_family_membership():
    u = universe_with_z()
    assert membership(u, Ref("Z4"), TR) is Tri.NO
    assert membership(u, Ref("Z"), TR) is Tri.NO
    unknown = Universe()
    atom(unknown, "M")
    assert membership(unknown, Ref("M"), TR) is Tri.UNKNOWN


def test_membership_reasons_are_nonempty():
    u = universe_with_z()
    for e, fam in ((Ref("Z"), AM), (Ref("Z4"), FIN), (Ref("F2"), AM)):
        verdict, why = membership_with_reason(u, e, fam)
        assert why


def test_free_product_with_trivial_factors_delegates():
    u = universe_with_z()
    e = FreeProduct((Ref("One"), Ref("Z4"), Ref("One")))
    assert membership(u, e, FIN) is Tri.YES


def test_custom_family_uses_declared_membership():
    u = universe_with_z()
    fam = Family("Nice", FamilyKind.CUSTOM, requires=(("amenable", Tri.YES),))
    u.families["Nice"] = fam
    atom(u, "G").member["Nice"] = Tri.YES
    atom(u, "H").member["Nice"] = Tri.NO
    assert membership(u, Ref("G"), fam) is Tri.YES
    assert membership(u, Ref("H"), fam) is Tri.NO
    atom(u, "K")
    assert membership(u, Ref("K"), fam) is Tri.UNKNOWN
    # trivial subgroups belong to every family regardless
    assert membership(u, TrivialGroup(), fam) is Tri.YES


def test_builtin_families():
    fams = builtin_families()
    assert set(fams) == {"Tr", "Fin", "Am"}
    assert fams["Tr"].kind is FamilyKind.TRIVIAL
    assert fams["Fin"].kind is FamilyKind.FINITE
    assert fams["Am"].kind is FamilyKind.AMENABLE


def test_validate_closes_copies_of_the_sheets_it_is_given():
    u = Universe()
    u.families.update(builtin_families())
    u.concretes["T"] = cyclic_group(1)
    given = {"A": FactSheet(name="A", finite=Tri.YES), "T": FactSheet(name="T"),
             "P": FactSheet(name="P", member={"Am": Tri.NO})}
    u.sheets.update(given)
    fields = {n: {f: copy.deepcopy(getattr(s, f)) for f in s._fields}
              for n, s in given.items()}
    assert validate(u) == []
    for name, sheet in given.items():
        assert {f: getattr(sheet, f) for f in sheet._fields} == fields[name]
        assert u.sheets[name] is not sheet
    assert u.sheets["A"].amenable is Tri.YES and u.sheets["T"].trivial
    assert u.sheets["P"].amenable is Tri.NO


def test_a_pin_in_a_finite_or_amenable_family_is_that_flag():
    # by the family's kind, not its name; in[Tr] and custom pins stay pins
    u, diags = load_text("family Finite = finite;\nfamily Nice = custom { }\n"
                         "group A { in[Finite] = yes; }\n"
                         "group B { in[Tr] = yes; in[Nice] = yes; }", load_prelude())
    assert not diags
    assert (u.sheets["A"].finite, u.sheets["A"].amenable) == (Tri.YES, Tri.YES)
    assert Evaluator(u).bound_cat(Ref("A"), FIN).value == ZERO
    b = u.sheets["B"]
    assert (b.finite, b.amenable, b.trivial) == (Tri.UNKNOWN, Tri.UNKNOWN, False)
    assert membership(u, Ref("B"), u.families["Nice"]) is Tri.YES
    for text, message in (
            ("group B { in[Am] = no; amenable = yes; }",
             "in[Am] = no contradicts amenable = yes"),
            ("group B { finite = no; in[Fin] = yes; }",
             "in[Fin] = yes contradicts finite = no"),
            ("group B { in[Fin] = yes; in[Am] = no; }", "declared finite and non-amenable"),
            ("group B = cyclic(2) { in[Fin] = no; }",
             "declared infinite but carries a finite multiplication table")):
        _, diags = load_text(text, load_prelude())
        assert [str(d) for d in diags] == [f"1:1: {message}"], text


# -- memo and lookup ------------------------------------------------------


def test_memo_table_round_trip():
    from catbound.engine import BoundResult, _leaf
    memo = MemoTable()
    e = Ref("Z")
    r = BoundResult("cat", "Am", ZERO, _leaf("member-zero", "reason", ZERO))
    assert memo.get("cat", e, "Am") is None
    memo.results["cat", e.key, "Am"] = r
    assert memo.get("cat", e, "Am") is r
    assert memo.get("cat", e, "Tr") is None
    assert memo.get("gd", e, "Am") is None


# -- the memoized chasers against the recursive rules ---------------------

PROVABLY = (("provably_trivial", "provably_trivial"),
            ("provably_nontrivial", "provably_nontrivial"),
            ("provably_infinite", "provably_infinite"),
            ("provably_order_at_least_3", "_provably_order_at_least_3"))

# the base atoms of a generated model, and the prelude names they may
# take instead, so that prelude groups such as F2 = Z * Z see the new
# declaration
BASE_ATOMS = ("A", "B", "C", "Zed", "Q9")
SHADOWS = (("A", "Z"), ("B", "Z2"), ("C", "F2"))
MAKERS = (random_group, random_amalgam, random_family, random_graph, random_gcw)


def random_fact_universe(rng: random.Random, shadow: bool) -> Universe:
    """A validated universe over the prelude, or None: base atoms with
    random facts, a custom family, and a few generated declarations over
    them.  With `shadow`, the first base atoms take prelude names."""
    names = _Names()
    decls = [Family("Nice", FamilyKind.CUSTOM, (("amenable", Tri.YES),))]
    for atom_name in BASE_ATOMS:
        rhs = rng.choice((None, None, CyclicCtor(rng.randint(1, 4))))
        decls.append(GroupDecl(atom_name, rhs,
                               tuple(random_fact(rng) for _ in range(rng.randint(0, 2)))))
    for _ in range(rng.randint(1, 5)):
        decl = rng.choice(MAKERS)(rng, names)
        if isinstance(decl, GraphOfGroups):
            decl = replace(decl, edges=tuple(
                replace(e, maps=None) for e in decl.edges))
        elif hasattr(decl, "maps"):
            decl = replace(decl, maps=None)
        decls.append(decl)
    text = serialize(SourceModel(tuple(decls)))
    if shadow:
        for old, new in SHADOWS:
            text = re.sub(rf"\b{old}\b", new, text)
    u, diags = load_text(text, load_prelude())
    return None if diags else u


def random_group_expr(rng: random.Random, names, depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.5:
        return Ref(rng.choice(names))
    if roll < 0.55:
        return TrivialGroup()
    factors = tuple(random_group_expr(rng, names, depth - 1)
                    for _ in range(rng.randint(2, 3)))
    return DirectProduct(factors) if roll < 0.8 else FreeProduct(factors)


def test_memoized_chasers_agree_with_the_recursive_rules():
    rng = random.Random(7)
    universes = {False: 0, True: 0}
    for i in range(400):
        shadow = bool(i % 2)
        u = random_fact_universe(rng, shadow)
        if u is None:
            continue
        universes[shadow] += 1
        names = sorted(u.group_names())
        exprs = [Ref(n) for n in names]
        exprs += [random_group_expr(rng, names) for _ in range(12)]
        rng.shuffle(exprs)
        fams = list(u.families.values())
        # one memo for every question, as an evaluator asks them
        memo = FactMemo(u)
        for e in exprs:
            for ours, theirs in PROVABLY:
                want = getattr(oracles, theirs)(u, e)
                assert getattr(memo, ours)(e) is want, (ours, e)
                if hasattr(facts, ours):
                    assert getattr(facts, ours)(u, e) is want, (ours, e)
            for fam in fams:
                want = oracles.membership_with_reason(u, e, fam)
                assert memo.membership_with_reason(e, fam) == want, (e, fam)
                assert membership_with_reason(u, e, fam) == want, (e, fam)
                assert membership(u, e, fam) is want[0]
    assert min(universes.values()) > 30


def test_self_containing_universe_answers_conservatively():
    # hand-built and never validated: a graph whose vertex group is the
    # graph itself, and a definition cycle through a free product
    u = Universe()
    u.graphs["G"] = GraphOfGroups("G", (("v", Ref("G")),), ())
    u.defs["X"] = FreeProduct((Ref("Y"), Ref("Y")))
    u.defs["Y"] = Ref("X")
    nice = Family("Nice", FamilyKind.CUSTOM, (("amenable", Tri.YES),))
    exprs = (Ref("G"), Ref("X"), Ref("Y"), DirectProduct((Ref("G"), Ref("X"))))
    memo = FactMemo(u)
    for e in exprs:
        for ours, theirs in PROVABLY:
            assert getattr(memo, ours)(e) is False
            assert getattr(oracles, theirs)(u, e) is False
        for fam in (TR, FIN, AM, nice):
            verdict, _ = memo.membership_with_reason(e, fam)
            assert verdict is Tri.UNKNOWN
            assert membership_with_reason(u, e, fam) == oracles.membership_with_reason(u, e, fam)
    assert memo.membership_with_reason(Ref("G"), AM) == (Tri.UNKNOWN, "circular definition")


def test_a_graph_with_no_vertex_has_no_order_floor():
    # hand-built: validation refuses such a graph, which denotes no group
    u = universe_with_z()
    u.graphs["E"] = GraphOfGroups("E", (), ())
    memo = FactMemo(u)
    for ours, theirs in PROVABLY:
        assert getattr(memo, ours)(Ref("E")) is False
        assert getattr(oracles, theirs)(u, Ref("E")) is False
    assert memo.membership_with_reason(Ref("E"), FIN) == (
        Tri.UNKNOWN, "not derivable for this graph of groups")
    assert memo.membership_with_reason(Ref("E"), TR) == (
        Tri.UNKNOWN, "triviality not derivable")
    for fam in (TR, FIN, AM):
        assert memo.membership_with_reason(Ref("E"), fam) == \
            oracles.membership_with_reason(u, Ref("E"), fam)


def test_a_question_that_raised_raises_again():
    # a vertex group that names nothing: each ask fails, and leaves no
    # in-progress mark behind that the next ask would read as an answer
    u = Universe()
    u.graphs["G"] = GraphOfGroups("G", (("v", Ref("Nope")),), ())
    memo = FactMemo(u)
    ev = Evaluator(u)
    for _ in range(2):
        with pytest.raises(KeyError, match="unresolved group name 'Nope'"):
            memo.membership_with_reason(Ref("G"), AM)
        with pytest.raises(KeyError, match="unresolved group name 'Nope'"):
            ev.bound_cat(Ref("G"), AM)
        assert not ev.memo.results


def test_evaluators_over_overlays_keep_their_own_answers():
    base, diags = load_text("group Q;\ngroup H = Q x Q;", load_prelude())
    assert not diags
    overlays = {}
    for flag in (Tri.YES, Tri.NO):
        overlays[flag] = base.overlay()
        overlays[flag].sheets["Q"] = replace(base.sheets["Q"], amenable=flag)
    evs = {flag: Evaluator(u) for flag, u in overlays.items()}
    for _ in range(2):
        for flag, ev in evs.items():
            assert ev.facts.membership(Ref("H"), AM) is flag
            assert ev.facts.membership(Ref("Q"), AM) is flag
        assert evs[Tri.YES].bound_cat(Ref("H"), AM).value == ZERO
        assert evs[Tri.NO].bound_cat(Ref("H"), AM).value == INF
    assert membership(base, Ref("H"), AM) is Tri.UNKNOWN
