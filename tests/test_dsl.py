import dataclasses
import random
from pathlib import Path

import pytest

from catbound import dsl
from catbound.cli import main
from catbound.dsl import (FactEntry, GroupDecl, ParseFailure, load_prelude,
                          load_text, parse, serialize, tokenize, try_parse)
from catbound.engine import Evaluator
from catbound.extnat import INF, ExtNat
from catbound.facts import FactSheet
from catbound.model import DirectProduct, FreeProduct, Ref, TrivialGroup

from genmodels import random_model

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
            # the parser recurses once per parenthesis
            ("group A = " + "(" * 400 + "Z" + ")" * 400 + ";", "1:111",
             "parenthesis depth exceeds the limit of 100")):
        with pytest.raises(ParseFailure) as info:
            parse(text)
        assert [(d.loc, d.message) for d in info.value.diagnostics] == [
            (loc, message)], text


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
    out = {attr: dict(table) for attr, table in vars(u).items()}
    out["sheets"] = {n: dataclasses.asdict(s) for n, s in u.sheets.items()}
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
               for attr in vars(first))
    first.sheets["W"] = FactSheet(name="W")
    first.drop_group("Z4")
    fresh = load_prelude()
    assert "W" not in fresh.sheets and "Z4" in fresh.concretes
    assert tables(fresh) == before


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
