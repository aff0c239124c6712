import copy
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from catbound import dsl, facts
from catbound.cli import main
from catbound.dsl import (FactEntry, GroupDecl, ParseFailure, load_prelude,
                          load_text, parse, serialize, tokenize, try_parse)
from catbound.engine import Evaluator
from catbound.extnat import INF, ExtNat
from catbound.facts import FIN, FactSheet, Tri
from catbound.model import (TABLES, ConcreteFiniteGroup, DirectProduct,
                            FreeProduct, Homomorphism, Ref, TrivialGroup,
                            cyclic_group, expr_key, validate)

from genmodels import nested_text, random_model

FIXTURES = Path(__file__).parent / "fixtures"

# -- tokenizer ------------------------------------------------------------


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text) if t.kind != "eof"]


def test_tokenizer_basics():
    assert kinds("group G = A * B;") == [
        ("name", "group"), ("name", "G"), ("op", "="), ("name", "A"),
        ("op", "*"), ("name", "B"), ("op", ";")]


def test_tokenizer_two_char_ops():
    assert ("op", "<=") in kinds("gd <= 3;")
    assert ("op", "->") in kinds("1 -> 2")


def test_tokenizer_comments_and_positions():
    toks = tokenize("// nothing\ngroup G;")
    assert toks[0].value == "group"
    assert toks[0].line == 2
    assert toks[0].col == 1
    assert toks[1].loc == "2:7"


def test_tokenizer_strings():
    toks = tokenize('by "a \\"quoted\\" reason"')
    assert toks[1].kind == "string"
    assert toks[1].value == 'a "quoted" reason'


def test_tokenizer_error_tokens():
    toks = tokenize("group G @ ;")
    assert any(t.kind == "error" for t in toks)
    toks = tokenize('x = "unfinished')
    assert any(t.kind == "error" for t in toks)


def fields(tokens):
    return [(t.kind, t.value, t.line, t.col) for t in tokens]


def test_tokenizer_matches_the_oracle_on_fixtures(fixture_texts):
    for name, text in fixture_texts.items():
        assert fields(tokenize(text)) == fields(oracles.tokenize(text)), name


# pieces that each take a different path through the tokenizer: comment
# and two-character operators, string quotes and escapes, line ends,
# tabs, ASCII digits, and word characters outside ASCII that are a
# letter ('é'), a digit but not a decimal ('²'), and a decimal ('٣')
PIECES = ("//", "<=", "->", "<", "-", '"', '\\"', "\\\\", "\\", "\r\n",
          "\n", "\r", "\t", " ", "0", "42", "é", "²", "٣", "a", "Z2", "_x",
          "x", "{", "}", "(", ")", ";", "=", "*", ".", "/", "@", "in[")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_tokenizer_matches_the_oracle_on_random_text(text):
    assert fields(tokenize(text)) == fields(oracles.tokenize(text))


def test_tokenizer_eof_after_a_trailing_comment():
    for text in ("group G; // no newline", "// only a comment",
                 'group G;\n  by "s" // "quoted" \\', "x\r\n\t//"):
        toks = tokenize(text)
        assert fields(toks) == fields(oracles.tokenize(text)), text
    # the eof token sits where the comment starts
    assert tokenize("group G; // no newline")[-1].loc == "1:10"
    assert tokenize("x\r\n\t//")[-1].loc == "2:2"


# -- parsing --------------------------------------------------------------


def test_parse_group_forms():
    m = parse("""
group A;
group B = cyclic(4);
group C = A * B;
group D {
  gd <= 2 by "reason";
  cat[Am] <= 1;
  amenable = yes;
  in[Nice] = no;
}
""")
    a, b, c, d = m.decls
    assert a == GroupDecl("A", None, ())
    assert b.rhs.order == 4
    assert c.rhs == FreeProduct((Ref("A"), Ref("B")))
    assert d.facts == (
        FactEntry("bound", "gd", value=ExtNat(2), by="reason"),
        FactEntry("cat", "Am", value=ExtNat(1)),
        FactEntry("flag", "amenable", tri="yes"),
        FactEntry("member", "Nice", tri="no"),
    )


def test_parse_precedence_product_binds_tighter():
    m = parse("group G = A x B * C;")
    assert m.decls[0].rhs == FreeProduct(
        (DirectProduct((Ref("A"), Ref("B"))), Ref("C")))
    m2 = parse("group G = A x (B * C);")
    assert m2.decls[0].rhs == DirectProduct(
        (Ref("A"), FreeProduct((Ref("B"), Ref("C")))))


def test_parse_free_sugar():
    m = parse("group G = free(2);")
    assert m.decls[0].rhs == FreeProduct((Ref("Z"), Ref("Z")))
    m0 = parse("group G = free(0);")
    assert m0.decls[0].rhs == TrivialGroup()


def test_parse_inf_bound():
    m = parse("group G { gd <= inf; }")
    assert m.decls[0].facts[0].value == INF


def test_parse_amalgam():
    m = parse("amalgam X = A *[E] B with (h, k);")
    d = m.decls[0]
    assert (d.left, d.edge, d.right) == (Ref("A"), Ref("E"), Ref("B"))
    assert d.maps == ("h", "k")


def test_parse_positions_in_errors():
    with pytest.raises(ParseFailure) as info:
        parse("group G {\n  gd <= ;\n}")
    diag = info.value.diagnostics[0]
    assert diag.loc.startswith("2:")
    # malformed literals: a non-ASCII digit, a bound past the largest
    # finite value, more digits than int() converts
    for text, loc, message in (
            ("group G = cyclic(\u00b2);", "1:18", "stray character '\u00b2'"),
            ("group G { gd <= 99999999999; }", "1:17",
             "bound exceeds the largest finite value 4294967295"),
            ("group G { gd <= " + "9" * 5000 + "; }", "1:17",
             "integer literal of 5000 digits is too long"),
            # sizes are checked before the parser builds a tuple that long
            ("polygon P { d = 1000000000; vertex = Z; edge = Z; face = One; }",
             "1:17", "number of sides exceeds the limit of 10000"),
            ("gcw X { dim 1000000000 : [Z]; }", "1:13",
             "dimension exceeds the limit of 10000"),
            ("branched B { n = 4; d = 1000000000; piece = Z; wall = Z; "
             "core = One; }", "1:25",
             "number of copies exceeds the limit of 10000"),
            # a cyclic group's table has order² entries
            ("group C = cyclic(4294967296);", "1:18",
             "cyclic order exceeds the limit of 1000"),
            # the parser recurses once per parenthesis
            ("group A = " + "(" * 400 + "Z" + ")" * 400 + ";", "1:111",
             "parenthesis depth exceeds the limit of 100")):
        with pytest.raises(ParseFailure) as info:
            parse(text)
        assert [(d.loc, d.message) for d in info.value.diagnostics] == [
            (loc, message)], text


def test_product_orders_are_bounded_before_building(monkeypatch, capsys, tmp_path):
    def unbuilt(factors):
        raise AssertionError("a product over the order limit was built")

    monkeypatch.setattr(dsl, "product_group", unbuilt)
    text = "group A = cyclic(40);\ngroup P = product(A, A);\n"
    _, diags = load_text(text, load_prelude())
    assert [str(d) for d in diags] == [
        "2:1: product order 1600 exceeds the limit of 1000"]
    model = tmp_path / "big.catb"
    model.write_text(text, encoding="utf-8")
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr() == (
        "", f"{model}:2:1: product order 1600 exceeds the limit of 1000\n")
    # the limit itself is allowed
    assert parse("group C = cyclic(1000);").decls[0].rhs.order == dsl.ORDER_LIMIT


@pytest.fixture
def counted_builds(monkeypatch):
    'The base of each build_universe call the loader makes.'
    built = []
    build = dsl.build_universe

    def counted(model, base=None):
        built.append(base)
        return build(model, base)

    monkeypatch.setattr(dsl, "build_universe", counted)
    return built


def test_alternating_preludes_are_each_built_once(counted_builds, tmp_path):
    custom = tmp_path / "prelude.catb"
    custom.write_text(dsl.prelude_path().read_text(encoding="utf-8")
                      + "group Extra;\n", encoding="utf-8")
    for i in range(200):
        u = load_prelude(custom if i % 2 else None)
        assert ("Extra" in u.sheets) == bool(i % 2)
    assert counted_builds == [None, None]


def test_round_trip_holds_after_evaluation(fixture_texts):
    # each parsed expression holds its key, which the engine reads on
    # the parsed objects themselves; equality compares the fields alone
    keyed = 0
    for name, text in fixture_texts.items():
        m = parse(serialize(parse(text)))
        u, diags = dsl.build_universe(m, load_prelude())
        assert not diags, name
        ev = Evaluator(u)
        for d in m.decls:
            if isinstance(d, dsl._GROUP_DECLS):
                ev.bound_cat(Ref(d.name), u.families["Am"])
                ev.bound_gd(Ref(d.name))
        keyed += sum(g.key == expr_key(g) for d in m.decls
                     if isinstance(d, dsl.AmalgamDecl) for g in (d.left, d.right))
        assert parse(serialize(m)) == m, name
    assert keyed


def test_parse_reserved_names_rejected():
    for bad in ("group free;", "group x;", "family inf = finite;"):
        with pytest.raises(ParseFailure):
            parse(bad)


def test_parse_duplicate_names_all_reported():
    with pytest.raises(ParseFailure) as info:
        parse("group A;\ngroup A;\ngroup B;\ngroup B;")
    assert len(info.value.diagnostics) == 2


def test_duplicates_across_namespaces_allowed():
    # homs and groups live in different namespaces
    parse("group A;\nhom A : B -> C { 1 -> 1; }")


def test_try_parse_never_raises():
    model, diags = try_parse("group {{{{")
    assert model is None
    assert diags and all(d.loc for d in diags)


def test_parse_polygon_singular_ring():
    m = parse("""
polygon P {
  d = 4;
  vertex = A;
  edge = B;
  face = C;
}
""")
    p = m.decls[0]
    assert p.vertex_groups == (Ref("A"),) * 4
    assert p.edge_groups == (Ref("B"),) * 4


def test_polygon_ring_arity_checked_at_build():
    _, diags = load_text(
        "polygon P { d = 4; vertices = [Z2, Z4]; edge = Z2; face = One; }",
        load_prelude())
    assert any("4" in d.message for d in diags)


def test_parse_gcw_rows():
    m = parse("""
gcw X {
  contractible = assert;
  dim 0 : [A, B];
  dim 2 : [C];
}
""")
    x = m.decls[0]
    assert x.contractible
    assert x.dims == ((Ref("A"), Ref("B")), (), (Ref("C"),))


def test_parse_gcw_duplicate_dim_rejected():
    with pytest.raises(ParseFailure):
        parse("gcw X { dim 0 : [A]; dim 0 : [B]; }")


# -- serializer -----------------------------------------------------------


def test_serialize_parse_round_trip_fixtures(fixture_texts):
    for name, text in fixture_texts.items():
        m = parse(text)
        assert parse(serialize(m)) == m, name


def test_serializer_fixpoint(fixture_texts):
    for name, text in fixture_texts.items():
        s1 = serialize(parse(text))
        assert serialize(parse(s1)) == s1, name


def test_round_trip_random_models():
    rng = random.Random(20260822)
    for i in range(300):
        m = random_model(rng)
        text = serialize(m)
        again = parse(text)
        assert again == m, f"instance {i}:\n{text}"


def test_fuzzed_sources_never_crash(fixture_texts):
    rng = random.Random(99)
    corpus = list(fixture_texts.values())
    for i in range(300):
        text = rng.choice(corpus)
        chars = list(text)
        for _ in range(rng.randint(1, 6)):
            op = rng.randint(0, 2)
            pos = rng.randrange(len(chars)) if chars else 0
            if op == 0 and chars:
                del chars[pos]
            elif op == 1:
                chars.insert(pos, rng.choice(';{}()[]=*x<-"@#\n'))
            elif chars:
                chars[pos] = rng.choice(';{}()[]=*x<-"@#\n')
        model, diags = try_parse("".join(chars))
        if model is None:
            assert diags
            assert all(d.loc and ":" in d.loc for d in diags)


# -- building universes ---------------------------------------------------


def test_build_universe_group_facts():
    u, diags = load_text("group G { gd <= 2 by \"why\"; cat[Am] <= 1; }",
                         load_prelude())
    assert not diags
    s = u.sheets["G"]
    assert s.gd_ub == ExtNat(2)
    assert s.cat_ub["Am"] == ExtNat(1)
    assert "why" in s.cite("gd")


def test_build_universe_bad_table_diagnostic():
    u, diags = load_text("group G = table [[0, 1], [1, 1]];", load_prelude())
    assert any("table" in d.message for d in diags)


def test_build_universe_unknown_family_fact():
    u, diags = load_text("group G { cat[Mystery] <= 1; }", load_prelude())
    assert any("Mystery" in d.message for d in diags)


def test_build_universe_product_needs_concrete_factors():
    u, diags = load_text("group G = product(Z4, F2);", load_prelude())
    assert any("F2" in d.message for d in diags)


def test_build_universe_amalgam_becomes_graph():
    u, diags = load_text("amalgam X = Z4 *[Z2] Z6;", load_prelude())
    assert not diags
    g = u.graphs["X"]
    assert len(g.vertices) == 2
    assert len(g.edges) == 1
    assert g.edges[0].group == Ref("Z2")


def test_build_universe_shadowing_prelude():
    u, diags = load_text("group Z4 = cyclic(8);", load_prelude())
    assert not diags
    assert u.concretes["Z4"].order == 8


def test_build_universe_contradiction_diagnostic():
    _, diags = load_text("group G = cyclic(4) { finite = no; }",
                         load_prelude())
    assert diags


def test_build_universe_unresolved_reference():
    _, diags = load_text("group G = Missing * Z;", load_prelude())
    assert any("Missing" in d.message for d in diags)


def test_build_universe_cycle_diagnostic():
    _, diags = load_text("group A = B x B;\ngroup B = A x A;",
                         load_prelude())
    assert diags


def test_load_prelude_contents():
    u = load_prelude()
    assert u.concretes["Z4"].order == 4
    assert u.sheets["Z"].gd_ub == ExtNat(1)
    assert set(u.families) == {"Tr", "Fin", "Am"}
    assert u.defs["F2"] == FreeProduct((Ref("Z"), Ref("Z")))


def tables(u):
    'Every table of a universe, fact sheets copied field by field.'
    out = {attr: dict(getattr(u, attr)) for attr in TABLES}
    out["sheets"] = {n: {f: copy.deepcopy(getattr(s, f)) for f in s._fields}
                     for n, s in u.sheets.items()}
    return out


def test_kept_prelude_stays_isolated(fixture_texts, capsys):
    before = tables(load_prelude())
    assert before["sheets"] and before["concretes"] and before["defs"]
    for name, text in fixture_texts.items():
        _, diags = load_text(text, load_prelude())
        assert not diags, name
    for path in sorted(FIXTURES.glob("*.catb")):
        assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    # shadowing prelude names replaces them in the model's universe only
    u, diags = load_text('group Z { gd <= 4 by "shadow"; }\n'
                         "group Z2 { amenable = no; finite = no; }", load_prelude())
    assert not diags
    assert "Z2" not in u.concretes and u.sheets["Z"].gd_ub == ExtNat(4)
    ev = Evaluator(u)
    assert ev.bound_gd(Ref("Z")).value == ExtNat(4)
    assert ev.bound_cat(Ref("Z2"), u.families["Fin"]).value == INF
    assert tables(load_prelude()) == before
    # each call hands out its own universe, and what is registered in
    # or dropped from one never reaches the next
    first, second = load_prelude(), load_prelude()
    assert first is not second
    assert all(getattr(first, attr) is not getattr(second, attr)
               for attr in TABLES)
    first.sheets["W"] = FactSheet(name="W")
    first.drop_group("Z4")
    fresh = load_prelude()
    assert "W" not in fresh.sheets and "Z4" in fresh.concretes
    assert tables(fresh) == before


# -- validating a load -----------------------------------------------------


HAND_CASES = {
    # shadowing Z: F2 and F3 refer to the new Z
    "group Z = Z2 x Z3;": [],
    # a cycle through the prelude
    "group Z = F2;": ["group F2: circular definition: F2 -> Z -> F2"],
    # a polygon with a short ring still shadows the prelude's Z, so F2
    # and F3 resolve; validate reports only its arity
    "polygon Z { d = 3; vertices = [One, One]; edge = One; face = One; }": [
        "1:1: polygon 'Z' needs exactly 3 vertex and edge entries"],
    "group A = B x C;\ngroup B = A;\ngroup C = D * A;\ngroup D = C;": [
        "group A: circular definition: A -> B -> A",
        "group C: circular definition: C -> D -> C",
        "group A: circular definition: A -> C -> A"],
    # graph edge maps: each must map the edge group into the group at its end
    "hom h : Z2 -> Z4 { 1 -> 2; }\nhom k : Z2 -> Z6 { 1 -> 3; }\n"
    "amalgam A = Z4 *[Z2] Z6 with (k, h);": [
        "graph A edge 0: hom 'k' should map Z2 -> Z4",
        "graph A edge 0: hom 'h' should map Z2 -> Z6"],
    "hom h : Z2 -> Z4 { 1 -> 2; }\nhom k : Z2 -> Z6 { 1 -> 3; }\n"
    "amalgam A = Z4 *[Z2] (Z6 x Z2) with (h, k);": [
        "graph A edge 0: vertex right must name a concrete group when maps are given"],
    "hom h : Z2 -> Z4 { 1 -> 2; }\nhom z : Z2 -> Z6 { 1 -> 0; }\n"
    "amalgam A = Z4 *[Z2] Z6 with (h, z);": [
        "graph A edge 0: hom 'z' must be injective"],
    "hom h : Z2 -> Z4 { 1 -> 2; }\n"
    "graph G { vertex a = Z4; vertex b = Z4; edge a - b : Z2; edge b - a : Z2 with (h, k); }": [
        "graph G edge 1: unknown hom 'k'"],
    # maps on a loop of non-concrete groups; an edge with an unknown end
    # gets no map check
    "graph G { vertex a = F2; edge a - a : Z with (h, k); edge a - c : Z with (h, k); }": [
        "graph G edge 0: edge group must name a concrete group when maps are given",
        "graph G edge 0: vertex a must name a concrete group when maps are given",
        "graph G edge 1: unknown endpoint 'c'",
        "1:1: underlying graph is not connected"],
    # graph shapes are reported at the declaration
    "group A;\n  graph G { vertex a = Z; vertex b = Z; }": [
        "2:3: underlying graph is not connected"],
    "graph G { vertex a = Z; vertex b = Z; vertex a = Z; vertex b = F2; edge a - b : Z; }": [
        "1:1: duplicate vertex id 'a'", "1:1: duplicate vertex id 'b'"],
}


def test_validating_additions_on_hand_written_cases():
    for text, expected in HAND_CASES.items():
        _, diags = load_text(text, load_prelude())
        assert [str(d) for d in diags] == expected, text


def test_changed_homs_and_their_groups_are_checked(tmp_path):
    # a prelude with a polygon of concrete groups and maps; each model
    # changes something the polygon or its homs rely on
    prelude = tmp_path / "prelude.catb"
    prelude.write_text(dsl.prelude_path().read_text(encoding="utf-8")
                       + (FIXTURES / "square_coxeter.catb").read_text(encoding="utf-8"),
                       encoding="utf-8")
    cases = {
        "hom a4 : Z2 -> Z2 { 1 -> 1; }":
            ["polygon SQ: hom 'a4' should map Z2 -> V4"],
        "group V4;":
            ["hom a4: target 'V4' is not a concrete group",
             "hom b4: target 'V4' is not a concrete group"]
            + [f"polygon SQ: vertex {i} must name a concrete group when maps "
               "are given" for i in range(4)],
    }
    for text, expected in cases.items():
        _, diags = load_text(text, load_prelude(prelude))
        assert [str(d) for d in diags] == expected, text


def test_changed_homs_and_groups_of_graph_edges_are_checked(tmp_path):
    # a prelude with an amalgam of concrete groups and maps; each model
    # changes a hom or a vertex group it relies on
    prelude = tmp_path / "prelude.catb"
    prelude.write_text(dsl.prelude_path().read_text(encoding="utf-8")
                       + (FIXTURES / "examples.catb").read_text(encoding="utf-8"),
                       encoding="utf-8")
    cases = {
        "hom i24 : Z2 -> Z6 { 1 -> 3; }":
            ["graph Am46 edge 0: hom 'i24' should map Z2 -> Z4"],
        "hom i26 : Z2 -> Z6 { 1 -> 0; }":
            ["graph Am46 edge 0: hom 'i26' must be injective"],
        "group Z6 = cyclic(3);":
            ["hom i26: image 3 out of range for target",
             "graph Am46 edge 0: hom 'i26' does not fit Z2 -> Z6"],
        "group Z4;":
            ["hom i24: target 'Z4' is not a concrete group",
             "graph Am46 edge 0: vertex left must name a concrete group when maps "
             "are given"],
    }
    for text, expected in cases.items():
        _, diags = load_text(text, load_prelude(prelude))
        assert [str(d) for d in diags] == expected, text


def test_a_table_registered_over_a_validated_universe_is_checked():
    base = load_prelude()
    base.concretes["Bad"] = ConcreteFiniteGroup(((0, 1), (0, 1)), 0)
    base.sheets["Bad"] = FactSheet(name="Bad")
    _, diags = load_text("group G = Bad x Z;", base)
    bad = ["group Bad: index 0 is not an identity (fails at 1)"]
    assert [str(d) for d in diags] == bad
    # also when registered into a model's universe after it passed
    u, diags = load_text("group G = Z x Z;", load_prelude())
    assert not diags and u.validated is not None
    u.concretes["Bad"] = base.concretes["Bad"]
    u.sheets["Bad"] = FactSheet(name="Bad")
    _, diags = load_text("group H = G;", u)
    assert [str(d) for d in diags] == bad


def test_kept_prelude_tables_are_not_verified_again(monkeypatch):
    load_prelude()
    verified = []
    verify = ConcreteFiniteGroup.verify
    monkeypatch.setattr(ConcreteFiniteGroup, "verify",
                        lambda g, loc="table": verified.append(loc) or verify(g, loc))
    _, diags = load_text((FIXTURES / "double_max.catb").read_text(encoding="utf-8"),
                         load_prelude())
    assert not diags and verified == []
    # a shadowing load is checked in full, but a table the prelude or
    # the model builds is a group by construction or verified at build
    _, diags = load_text("group Z2 = cyclic(2);", load_prelude())
    assert not diags and verified == []
    _, diags = load_text("group Z2 = table [[0,1],[1,0]];", load_prelude())
    assert not diags and verified == ["table"]


def test_declared_homs_and_tables_are_verified_once_per_load(monkeypatch):
    load_prelude()
    verified = []
    for cls in (ConcreteFiniteGroup, Homomorphism):
        monkeypatch.setattr(cls, "verify", lambda self, *args, verify=cls.verify:
                            verified.append(type(self).__name__) or verify(self, *args))
    _, diags = load_text((FIXTURES / "z4_polygon.catb").read_text(encoding="utf-8"),
                         load_prelude())
    assert not diags and verified.count("Homomorphism") == 2
    verified.clear()
    _, diags = load_text("group T = table [[0,1],[1,0]];", load_prelude())
    assert not diags and verified == ["ConcreteFiniteGroup"]
    # a hom whose target is redeclared after it is built is verified
    # again, against the group the name then denotes
    verified.clear()
    _, diags = load_text("hom h : Z2 -> Z4 { 1 -> 2; }\ngroup Z4 = cyclic(3);",
                         load_prelude())
    assert [str(d) for d in diags] == ["hom h: not a homomorphism at (1,1)"]
    assert verified.count("Homomorphism") == 2


def test_closing_sheets_leaves_the_kept_prelude_alone():
    # a table registered under a prelude atom's name: the load reports
    # the clash, and closing Z's sheet under that table must not reach
    # the sheet the kept prelude holds
    u = load_prelude()
    u.concretes["Z"] = cyclic_group(2)
    _, diags = load_text("group H;", u)
    assert "declared infinite but carries a finite multiplication table" in [
        d.message for d in diags]
    assert load_prelude().sheets["Z"].finite is Tri.NO
    v, diags = load_text("group H;", load_prelude())
    assert not diags
    assert Evaluator(v).bound_cat(Ref("Z"), FIN).value == ExtNat(1)


CUSTOM_PRELUDE = """
group One { trivial = yes; }
group Z2 = cyclic(2);
group Z4 = cyclic(4);
group V = product(Z2, Z2);
group C1 = cyclic(1);
hom a : Z2 -> V { 1 -> 1; }
hom b : Z2 -> V { 1 -> 2; }
hom t : C1 -> Z2 { 0 -> 0; }
branched B { n = 4; d = 5; piece = V; wall = Z2; core = C1;
  assume pi1_injective; assume intersection;
  embed wall = (a, b); embed core = t; }
"""


def test_a_load_closes_copies_of_the_kept_sheets(monkeypatch, fixture_texts, tmp_path):
    closed = []
    close = facts.sheet_diagnostics

    def recording(u, name):
        out = close(u, name)
        closed.append((name, u.sheets[name]))
        return out

    monkeypatch.setattr(facts, "sheet_diagnostics", recording)
    custom = tmp_path / "prelude.catb"
    custom.write_text(CUSTOM_PRELUDE, encoding="utf-8")
    # models that only add, one that shadows a prelude group and one
    # that redeclares a prelude hom
    cases = [(text, None) for name, text in fixture_texts.items() if name != "prelude"]
    cases += [(nested_text(depth, 3), None) for depth in range(2, 5)]
    cases += [("group Z2 = cyclic(2);", None), ("hom b : Z2 -> Z4 { 1 -> 2; }", custom)]
    for text, path in cases:
        base = load_prelude(path)
        before = tables(base)
        closed.clear()
        u, diags = load_text(text, base)
        # every sheet is closed, a kept one on a copy, and the kept
        # prelude is unchanged
        assert sorted(name for name, _ in closed) == sorted(u.sheets), text
        assert all(sheet is not base.sheets.get(name) for name, sheet in closed)
        assert tables(load_prelude(path)) == before
        # a clean load is kept, and a kept load closes no sheet at all
        if not diags:
            closed.clear()
            again, diags = load_text(text, load_prelude(path))
            assert closed == [] and not diags
            assert tables(again) == tables(u)


def test_a_text_is_parsed_once_over_any_prelude(monkeypatch, fixture_texts, tmp_path):
    custom = tmp_path / "prelude.catb"
    custom.write_text(dsl.prelude_path().read_text(encoding="utf-8")
                      + "group Extra;\n", encoding="utf-8")
    parsed = []

    def counted(text):
        parsed.append(text)
        return try_parse(text)

    preludes = [load_prelude(path) for path in (None, custom) * 3]
    monkeypatch.setattr(dsl, "try_parse", counted)
    text = fixture_texts["examples"]
    loads = [load_text(text, prelude) for prelude in preludes]
    assert parsed == [text] * 2     # once over each prelude
    assert all(not diags for _, diags in loads)
    universes = [u for u, _ in loads]
    assert len(set(map(id, universes))) == len(universes)
    assert len({id(u.graphs) for u in universes}) == len(universes)
    assert [("Extra" in u.sheets) for u in universes] == [False, True] * 3
    # an edited text is a new text
    edited = text.replace("group ZZ = Z * Z;", "group ZZ = Z x Z;")
    assert edited != text
    u, diags = load_text(edited, load_prelude())
    assert not diags and parsed == [text, text, edited]
    assert Evaluator(u).bound_gd(Ref("ZZ")).value == ExtNat(2)


def test_each_load_hands_out_its_own_diagnostics():
    for text in ("group G = ;", "group G = Q;"):        # a parse, a check
        _, diags = load_text(text, load_prelude())
        want = [str(d) for d in diags]
        assert want
        diags.append(diags[0])
        diags[0] = None
        assert [str(d) for d in load_text(text, load_prelude())[1]] == want
    # a kept load hands out a new empty list each time
    for _ in range(2):
        _, diags = load_text("group G;", load_prelude())
        assert diags == []
        diags.append(None)


# -- kept loads -----------------------------------------------------------

KEPT_TEXT = ((FIXTURES / "examples.catb").read_text(encoding="utf-8")
             + "group T = table [[0,1],[1,0]];\n"
             + 'group G { gd <= 2 by "why"; cat[Am] <= 1; }\n')


def answers(loaded):
    'The diagnostics, tables and some bounds of a load, as comparable values.'
    u, diags = loaded
    ev = Evaluator(u)
    bounds = [(ev.bound_cat(Ref(n), u.families["Am"]).value, ev.bound_gd(Ref(n)).value)
              for n in ("ZZ", "Am46", "FC", "T", "G", "Z", "Z2")]
    return [str(d) for d in diags], tables(u), bounds


def registered_group(u):
    u.concretes["C5"] = cyclic_group(5)
    u.sheets["C5"] = FactSheet(name="C5")


def registered_hom(u):
    u.homs["i24b"] = u.homs["i24"]


def registered_family(u):
    u.families["Am2"] = u.families["Am"]


def redeclared_and_validated(u):
    # shadows the model's G and the prelude's Z2, which leaves the hom i24
    # with no concrete source; validate closes copies of the kept sheets
    u.drop_group("G")
    u.sheets["G"] = FactSheet(name="G", gd_ub=ExtNat(0))
    u.drop_group("Z2")
    u.sheets["Z2"] = FactSheet(name="Z2", finite=Tri.NO)
    assert validate(u)
    Evaluator(u).bound_cat(Ref("Am46"), u.families["Am"])


def dropped_group(u):
    u.drop_group("Am46")
    u.drop_group("T")


@pytest.mark.parametrize("change", (registered_group, registered_hom, registered_family,
                                    redeclared_and_validated, dropped_group))
def test_what_a_caller_changes_never_reaches_a_kept_load(counted_builds, change):
    cold = answers(load_text(KEPT_TEXT, load_prelude()))
    assert not cold[0] and len(counted_builds) == 2     # the prelude, the text
    u, _ = load_text(KEPT_TEXT, load_prelude())
    change(u)
    for _ in range(2):
        assert answers(load_text(KEPT_TEXT, load_prelude())) == cold
    assert len(counted_builds) == 2


def added_family(base):
    base.families["Extra"] = base.families["Am"]


def added_group(base):
    # a table under the sheet-only atom Z, which "group H;" is checked against
    base.concretes["Z"] = cyclic_group(2)


@pytest.mark.parametrize("change", (added_family, added_group))
def test_a_base_changed_after_it_passed_is_built_over(counted_builds, change):
    text = "group H;\n" + KEPT_TEXT
    base = load_prelude()
    change(base)
    cold = answers(load_text(text, base))
    if change is added_family:
        assert not cold[0] and "Extra" in cold[1]["families"]
    else:
        assert any(d.endswith("declared infinite but carries a finite "
                              "multiplication table") for d in cold[0])
    # the text is kept over the prelude, and built over each changed copy
    dsl._kept_loads.clear()
    assert not load_text(text, load_prelude())[1]
    counted_builds.clear()
    for i in range(2):
        base = load_prelude()
        change(base)
        assert answers(load_text(text, base)) == cold
        assert counted_builds[i] is base
    assert len(counted_builds) == 2


def test_loads_that_declare_large_tables_are_not_kept(counted_builds):
    load_prelude()
    counted_builds.clear()
    for order, builds in ((1000, 2), (250, 1)):
        text = f"group C = cyclic({order});"
        for _ in range(2):
            u, diags = load_text(text, load_prelude())
            assert not diags and u.concretes["C"].order == order
        assert len(counted_builds) == builds, order
        counted_builds.clear()


def test_setup_declarations_build():
    text = """
double D {
  n = 4;
  group = F2;
  boundary s : Z { pi1_injective = assert; }
}
"""
    u, diags = load_text(text, load_prelude())
    assert not diags
    # the parsed setup is the one registered; a double's piece is "M"
    assert u.setups["D"] == parse(text).decls[0]
    assert u.setups["D"].piece.id == "M"


def test_setup_bad_pairing_diagnostic():
    text = """
gluing S {
  n = 3;
  piece m0 {
    group = F2;
    boundary s0 : Z;
  }
  pair m0.s0 - m0.nope;
}
"""
    _, diags = load_text(text, load_prelude())
    assert any("nope" in d.message for d in diags)
