import random
from collections import Counter

import pytest

from catbound import dsl
from catbound.cli import main
from catbound.apps import (BoundaryComponent, GluingSetup, Piece,
                           PreconditionError, build_setup, certify_branched,
                           certify_double, certify_gluing, gluing_to_gog)
from catbound.engine import replay
from catbound.extnat import ZERO, ExtNat, replace
from catbound.model import Ref

from genmodels import _Names, random_double, random_gluing
from oracles import best_old_route, graph_route, gluing_sum_bound


def load(text):
    u, diags = dsl.load_text(text, dsl.load_prelude())
    assert not diags, diags
    return u


def certify_fixture(fixture_texts, stem, name):
    u = load(fixture_texts[stem])
    s = u.setups[name]
    if type(s).__name__ == "DoubleSetup":
        return certify_double(u, s)
    return certify_branched(u, s)


# -- the three shipped setups ---------------------------------------------


def test_double_via_graph_route(fixture_texts):
    cert = certify_fixture(fixture_texts, "double_max", "DblMax")
    assert cert.conclusion == "volume_vanishes"
    assert cert.value == ExtNat(3)
    assert cert.trace.rule == "rec-max"
    assert not cert.failed_items()
    items = [x.item for x in cert.ledger]
    assert "connectedness of the glued space" in items
    assert any("(i) pairing 0 [copyA.s ~ copyB.s]" in i for i in items)
    assert any("(ii) pairing 0: gd of the interface group at most 2" == i
               for i in items)
    assert any("(iii) piece copyA" in i for i in items)
    assert any(i.startswith("boundary scope: copyB.s pi1") for i in items)


def test_double_via_additive_route(fixture_texts):
    cert = certify_fixture(fixture_texts, "double_sum", "DblSum")
    assert cert.conclusion == "volume_vanishes"
    assert cert.value == ExtNat(3)
    assert cert.trace.rule == "rec-sum"
    # the winning bound's ledger carries only the additive hypotheses
    assert [x.item for x in cert.ledger] == [
        "connectedness of the glued space", "additive bound at most 3",
        "boundary scope: every boundary component paired"]
    assert cert.ledger[1].status == "verified"


def test_branched_pentagon(fixture_texts):
    cert = certify_fixture(fixture_texts, "branched_five", "BrFive")
    assert cert.conclusion == "volume_vanishes"
    assert cert.value == ExtNat(3)
    assert cert.trace.rule == "rec-max"
    statuses = {x.item.split(" ")[0]: x.status for x in cert.ledger}
    assert statuses == {"(i)": "asserted", "(ii)": "asserted",
                        "(iii)": "verified", "(iv)": "verified",
                        "(v)": "verified"}


# -- each hypothesis is load-bearing --------------------------------------


def mutated(fixture_texts, stem, name, old, new):
    text = fixture_texts[stem]
    assert old in text
    u = load(text.replace(old, new))
    return u, u.setups[name]


@pytest.mark.parametrize("old,new,marker", [
    ("pi1_injective = assert;", "", "(i) pairing 0"),
    ("boundary s : F2 {", "boundary s : F2 x Z x Z {",
     "(ii) pairing 0: gd of the interface group"),
    ("cat[Am] <= 3", "cat[Am] <= 4", "(iii) piece copyA"),
])
def test_double_max_mutations(fixture_texts, old, new, marker):
    u, s = mutated(fixture_texts, "double_max", "DblMax", old, new)
    cert = certify_double(u, s)
    assert cert.conclusion == "inconclusive"
    assert cert.value is None
    failed = [x.item for x in cert.failed_items()]
    assert any(marker in i for i in failed), failed
    # both bounds are reported once neither concludes
    assert any(i.startswith("additive bound") for i in failed)


def test_double_sum_mutation(fixture_texts):
    u, s = mutated(fixture_texts, "double_sum", "DblSum",
                   "cat[Am] <= 1", "cat[Am] <= 3")
    cert = certify_double(u, s)
    assert cert.conclusion == "inconclusive"
    failed = [x.item for x in cert.failed_items()]
    assert any("additive bound at most 3" in i for i in failed), failed


@pytest.mark.parametrize("old,new,marker", [
    ("assume pi1_injective;", "", "(i)"),
    ("assume intersection;", "", "(ii)"),
    ("core = One;", "core = MW;", "(iii)"),
    ("gd <= 2", "gd <= 3", "(iv)"),
    ("cat[Am] <= 3", "cat[Am] <= 4", "(v)"),
])
def test_branched_mutations(fixture_texts, old, new, marker):
    u, s = mutated(fixture_texts, "branched_five", "BrFive", old, new)
    cert = certify_branched(u, s)
    assert cert.conclusion == "inconclusive"
    assert cert.value is None
    failed = cert.failed_items()
    assert len(failed) == 1, [x.item for x in failed]
    assert failed[0].item.startswith(marker)


def test_branched_needs_four_copies(fixture_texts):
    u = load(fixture_texts["branched_five"])
    s = replace(u.setups["BrFive"], d=3)
    with pytest.raises(PreconditionError) as exc:
        certify_branched(u, s)
    assert str(exc.value) == ("branched setup 'BrFive' has d = 3; "
                              "the polygon bound requires d >= 4")


# -- gluings and the two vanishing scopes ---------------------------------


GLUING = """
group PA { cat[Am] <= 2 by "piece estimate"; }

gluing GL {
  n = 4;
  piece A {
    group = PA;
    boundary a : Z { pi1_injective = assert; }
  }
  piece B {
    group = PA;
    boundary b : Z { pi1_injective = assert; }
    %s
  }
  pair A.a - B.b;
  connected = assert;
}
"""


def test_gluing_with_clean_scopes():
    u = load(GLUING % "")
    cert = certify_gluing(u, u.setups["GL"])
    assert cert.conclusion == "volume_vanishes"
    assert cert.value == ExtNat(2)


def test_unpaired_boundary_blocks_vanishing_but_not_the_bound():
    extra = "boundary c : Z x Z x Z { pi1_injective = assert; }"
    u = load(GLUING % extra)
    cert = certify_gluing(u, u.setups["GL"])
    assert cert.conclusion == "cat_bound"
    assert cert.value == ExtNat(2)
    failed = cert.failed_items()
    assert failed and all(x.item.startswith("boundary scope:") for x in failed)
    assert any("gd of B.c at most 2" in x.item for x in failed)


def test_unconnected_gluing_is_inconclusive():
    text = (GLUING % "").replace("connected = assert;", "")
    u = load(text)
    cert = certify_gluing(u, u.setups["GL"])
    assert cert.conclusion == "inconclusive"
    assert cert.failed_items()[0].item == "connectedness of the glued space"


def test_space_level_declaration_feeds_the_additive_route():
    u = load("""
double DS {
  n = 4;
  group = F2 x F2;
  cat_am <= 1;
  boundary t : Z { pi1_injective = assert; }
}
""")
    cert = certify_double(u, u.setups["DS"])
    assert cert.conclusion == "volume_vanishes"
    assert cert.value == ExtNat(2)
    assert cert.trace.rule == "rec-sum"
    assert any(node.rule == "space-declared" for node in cert.trace.nodes())


def test_sum_bound_with_no_pairings():
    u = load('group PA { cat[Am] <= 2 by "piece estimate"; }')
    s = GluingSetup("lonely", 4,
                    (Piece("A", Ref("PA")),), (), True)
    r = gluing_sum_bound(u, s)
    assert r.value == ExtNat(2)
    assert r.trace.rule == "gluing-sum"
    interfaces = r.trace.premises[1]
    assert interfaces.value == ZERO and interfaces.premises == ()


def test_sum_arm_with_no_pairings():
    u = load('group PA { cat[Am] <= 2 by "piece estimate"; }')
    s = GluingSetup("lonely", 4, (Piece("A", Ref("PA"), ExtNat(1)),), (), True)
    cert = certify_gluing(u, s)
    assert (cert.conclusion, cert.value) == ("volume_vanishes", ExtNat(1))
    assert cert.trace.rule == "rec-sum"
    base, interfaces = cert.trace.premises
    assert base.rule == "rec-base" and base.premises[0].rule == "space-declared"
    assert interfaces.value == ZERO and interfaces.premises == ()


TWO_PIECES = """
group FZ { cat[Am] <= 1 by "free times abelian estimate"; }
group FY { cat[Am] <= 1 by "another estimate"; }
group T3 = Z x Z x Z;

gluing GS {
  n = 4;
  piece A { group = FZ * FZ; boundary t : T3 * T3 { pi1_injective = assert; } }
  piece B { group = FY; boundary u : T3 * T3 { pi1_injective = assert; } %s}
  pair A.t - B.u;
  connected = assert;
}
"""


def test_closed_gluing_vanishes_through_the_sum_arm():
    # (ii) fails, since gd(T3 * T3) = 3, but the sum arm lands on n - 1:
    # the pieces give 1 and the shifted interface 2
    u = load(TWO_PIECES % "")
    s = u.setups["GS"]
    assert graph_route(u, s) == ("inconclusive", None)
    cert = certify_gluing(u, s)
    assert (cert.conclusion, cert.value) == ("volume_vanishes", ExtNat(3))
    assert cert.trace.rule == "rec-sum"
    assert not cert.failed_items()
    assert [x.item for x in cert.ledger] == [
        "connectedness of the glued space", "additive bound at most 3",
        "boundary scope: every boundary component paired"]


def test_open_gluing_gets_only_a_bound_from_the_sum_arm():
    u = load(TWO_PIECES % "boundary c : Z; ")
    cert = certify_gluing(u, u.setups["GS"])
    assert (cert.conclusion, cert.value) == ("cat_bound", ExtNat(3))
    assert [(x.item, x.detail) for x in cert.failed_items()] == [
        ("boundary scope: every boundary component paired", "unpaired: B.c")]


def test_inconclusive_gluing_lists_both_bounds():
    u = load((TWO_PIECES % "").replace("connected = assert;", ""))
    cert = certify_gluing(u, u.setups["GS"])
    assert cert.conclusion == "inconclusive" and cert.value is None
    failed = [x.item for x in cert.failed_items()]
    assert failed == ["connectedness of the glued space",
                      "(ii) pairing 0: gd of the interface group at most 2",
                      "boundary scope: gd of A.t at most 2",
                      "boundary scope: gd of B.u at most 2"]
    items = [x.item for x in cert.ledger]
    assert items.count("connectedness of the glued space") == 1
    assert "additive bound at most 3" in items


_BASE_DEFS = ("Z", "Z x Z", "Z x Z x Z", "F2", "Z2", "One", "Z * Z2", "F2 x Z")


def random_base(rng):
    'Declarations for the names genmodels.random_expr draws from.'
    lines = []
    for name in ("A", "B", "C", "Zed", "Q9"):
        if rng.random() < 0.5:
            lines.append(f"group {name} = {rng.choice(_BASE_DEFS)};")
            continue
        facts = [f"cat[Am] <= {rng.randint(0, 4)};" if rng.random() < 0.7 else "",
                 f"gd <= {rng.randint(0, 4)};" if rng.random() < 0.6 else "",
                 "amenable = yes;" if rng.random() < 0.2 else ""]
        lines.append(f"group {name} {{ {' '.join(facts)} }}")
    return "\n".join(lines)


def test_one_route_is_the_better_of_the_two_old_ones():
    seen = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        u = load(random_base(rng))
        maker = random_gluing if seed % 2 else random_double
        s = maker(rng, _Names())
        cert = (certify_gluing if seed % 2 else certify_double)(u, s)
        assert (cert.conclusion, cert.value) == best_old_route(u, s), seed
        if cert.value is not None:
            assert replay(cert.trace) == cert.value, seed
        assert all(n.rule != "gluing-sum" for n in cert.trace.nodes()), seed
        seen[cert.conclusion, cert.trace.rule == "rec-sum"] += 1
    # every conclusion is reached, by either bound where it can be
    assert set(seen) >= {("volume_vanishes", True), ("volume_vanishes", False),
                         ("cat_bound", True), ("cat_bound", False),
                         ("inconclusive", False)}, seen


# -- construction errors --------------------------------------------------


def test_build_setup_diagnostics():
    bad = """
double D0 { n = 0; group = Z; boundary s : Z; }
double D1 { n = 4; group = Z; }
double D2 { n = 4; group = Z; boundary s : Z; boundary s : Z; }
branched B0 { n = 2; d = 5; piece = Z; wall = Z; core = One; }
branched B1 { n = 4; d = 5; piece = Z; wall = Z; core = One; embed core = nohom; }
double D3 { n = 4; group = Nope; boundary s : Missing { pi1_injective = assert; } }
"""
    _, diags = dsl.load_text(bad, dsl.load_prelude())
    messages = " | ".join(d.message for d in diags)
    assert "dimension n must be at least 1" in messages
    assert "at least one boundary component" in messages
    assert "duplicate boundary id 's'" in messages
    assert "branched setups need n >= 3" in messages
    assert "unknown homomorphism 'nohom'" in messages
    assert "group: unresolved group name 'Nope'" in messages
    assert "boundary s: unresolved group name 'Missing'" in messages
    # a setup may name a group or a homomorphism declared below it
    _, diags = dsl.load_text("double D { n = 4; group = Later; boundary s : Z "
                             "{ pi1_injective = assert; } }\ngroup Later;",
                             dsl.load_prelude())
    assert not diags, diags
    u, diags = dsl.load_text("branched B { n = 4; d = 5; piece = Z; wall = Z; "
                             "core = Z2; embed core = h; }\n"
                             "hom h : Z2 -> Z4 { 1 -> 2; }", dsl.load_prelude())
    assert not diags, diags
    assert u.setups["B"].core_embeds == "h"


BRANCHED_DATA = """
group V = product(Z2, Z2);
group C1 = cyclic(1);
hom a : Z2 -> V { 1 -> 1; }
hom b : Z2 -> V { 1 -> 2; }
hom z : Z2 -> V { 1 -> 0; }
hom t : C1 -> Z2 { 0 -> 0; }
hom s : Z2 -> Z2 { 1 -> 1; }
hom i24 : Z2 -> Z4 { 1 -> 2; }
"""


def branched_with(core, embeds):
    return BRANCHED_DATA + (
        f"branched B {{ n = 4; d = 5; piece = V; wall = Z2; core = {core}; "
        f"assume pi1_injective; assume intersection; {embeds} }}\n")


def test_branched_embeddings_are_checked_at_load(tmp_path, capsys):
    # the walls of adjacent copies are the two coordinate axes of Z2 x Z2
    u = load(branched_with("C1", "embed wall = (a, b); embed core = t;"))
    cert = certify_branched(u, u.setups["B"])
    assert ("(ii) adjacent copies meet exactly in the core", "verified") in \
        [(item.item, item.status) for item in cert.ledger]
    cases = {
        ("C1", "embed wall = (a, i24); embed core = t;"):
            "embed: hom 'i24' should map Z2 -> V",
        ("C1", "embed wall = (a, b); embed core = a;"):
            "embed: hom 'a' should map C1 -> Z2",
        ("C1", "embed wall = (a, z); embed core = t;"):
            "embed: hom 'z' must be injective",
        ("Z2", "embed wall = (a, b); embed core = s;"):
            "embed: face maps do not commute with incidence at vertex 0",
        ("One", "embed wall = (a, b); embed core = t;"):
            "embed: face must name a concrete group when maps are given",
    }
    model = tmp_path / "branched.catb"
    for (core, embeds), message in cases.items():
        u, diags = dsl.load_text(branched_with(core, embeds), dsl.load_prelude())
        assert [d.message for d in diags] == [message], embeds
        # the setup is registered, as a graph with problems is, and
        # certify refuses the model
        model.write_text(branched_with(core, embeds), encoding="utf-8")
        assert main(["certify", "--target", "B", str(model)]) == 1
        assert capsys.readouterr() == ("", f"error: {model}:10:1: {message}\n"), embeds


def test_build_setup_rejects_foreign_declarations():
    u = load("")
    with pytest.raises(TypeError):
        build_setup(u, object())


def test_gluing_to_gog_errors():
    piece = Piece("A", Ref("Z"), None,
                  (BoundaryComponent("a", Ref("Z"), True),))
    dangling = GluingSetup("x", 4, (piece,), ((("A", "a"), ("B", "b")),), True)
    with pytest.raises(ValueError):
        gluing_to_gog(dangling)
    no_boundary = GluingSetup("y", 4, (piece,), ((("A", "z"), ("A", "a")),), True)
    with pytest.raises(ValueError):
        gluing_to_gog(no_boundary)


# -- serialization --------------------------------------------------------


def test_certificate_json_shape(fixture_texts):
    cert = certify_fixture(fixture_texts, "double_max", "DblMax")
    js = cert.to_json()
    assert list(js.keys()) == ["conclusion", "value", "ledger", "trace"]
    assert js["value"] == 3
    for item in js["ledger"]:
        assert list(item.keys()) == ["item", "status", "detail"]
    text = cert.to_text()
    assert text.startswith("conclusion: volume_vanishes\ncategory bound: 3")
    assert "hypotheses:" in text
    assert "  [verified] (ii) pairing 0" in text
