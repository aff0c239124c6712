import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbound.model import (ConcreteFiniteGroup, Diagnostic, DirectProduct,
                            Edge, FreeProduct, GcwDescription, GraphOfGroups,
                            PolygonOfGroups, Ref, TrivialGroup, Universe,
                            cyclic_group, expr_key, free_group_expr,
                            hom_from_generator_images, product_group,
                            table_group, validate)
from catbound.facts import FactSheet

from oracles import full_scan_verify, generated_subgroup, inv

# -- concrete groups ------------------------------------------------------


def brute_force_group_axioms(g: ConcreteFiniteGroup):
    """Oracle: check closure, associativity, identity, inverses by
    exhaustive scan over the table."""
    n = g.order
    elems = range(n)
    for a in elems:
        assert g.mul(g.identity, a) == a
        assert g.mul(a, g.identity) == a
        assert g.mul(a, inv(g, a)) == g.identity
        for b in elems:
            assert 0 <= g.mul(a, b) < n
            for c in elems:
                assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_cyclic_groups_are_groups(n):
    g = cyclic_group(n)
    assert g.order == n
    brute_force_group_axioms(g)
    assert not g.verify()


def test_product_group_order_and_axioms():
    g = product_group([cyclic_group(2), cyclic_group(3)])
    assert g.order == 6
    brute_force_group_axioms(g)
    # Z2 x Z3 is cyclic of order six: some element has order 6
    orders = set()
    for a in range(6):
        x, k = a, 1
        while x != g.identity:
            x = g.mul(x, a)
            k += 1
        orders.add(k)
    assert 6 in orders


def test_table_group_accepts_klein_four():
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    # the identity is found by scanning; it need not be element 0
    for rows, identity in ((klein, 0), ([[1, 0], [0, 1]], 1)):
        g = table_group(rows)
        assert g.identity == identity
        brute_force_group_axioms(g)
        assert all(g.mul(a, a) == g.identity for a in range(len(rows)))


def test_table_group_rejects_non_associative():
    # row/column latin square that is not a group table
    rows = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError):
        table_group(rows)


def _symmetric_3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]


NOT_ASSOCIATIVE = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
                   (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


@st.composite
def group_tables(draw):
    'A relabelled group table, with up to three entries then overwritten.'
    if draw(st.booleans()):
        rows = [list(row) for row in _symmetric_3()]
    else:
        orders = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
        rows = [list(row) for row in
                product_group([cyclic_group(k) for k in orders]).table]
    n = len(rows)
    relabel = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[relabel[a]][relabel[b]] = relabel[rows[a][b]]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(st.integers(0, n))
    return tuple(map(tuple, table)), relabel[0]


@settings(max_examples=300, deadline=None)
@given(group_tables())
@example((NOT_ASSOCIATIVE, 0))
def test_verify_matches_the_full_scan(case):
    table, identity = case
    g = ConcreteFiniteGroup(table, identity)
    assert g.verify("t") == full_scan_verify(g, "t")


def test_table_group_rejects_missing_identity():
    # a latin square with no identity row/column pair
    with pytest.raises(ValueError):
        table_group([[1, 0, 2], [0, 2, 1], [2, 1, 0]])


def test_generated_subgroup():
    g = cyclic_group(12)
    assert sorted(generated_subgroup(g, [4])) == [0, 4, 8]
    assert sorted(generated_subgroup(g, [])) == [0]


# -- homomorphisms --------------------------------------------------------


def test_hom_from_generator_images_total_map():
    src, tgt = cyclic_group(2), cyclic_group(4)
    h = hom_from_generator_images("u", "A", "B", src, tgt, ((1, 2),))
    assert not isinstance(h, Diagnostic)
    assert h.images == (0, 2)
    assert h.injective
    assert h.image_set() == frozenset({0, 2})


def test_hom_rejects_non_homomorphism():
    src, tgt = cyclic_group(4), cyclic_group(4)
    # 1 -> 1 forces 2 -> 2; demanding 2 -> 3 as well is inconsistent
    bad = hom_from_generator_images("u", "A", "B", src, tgt, ((1, 1), (2, 3)))
    assert isinstance(bad, Diagnostic)


def test_hom_rejects_order_mismatch():
    # the image of a generator of Z4 would need order dividing 4
    src, tgt = cyclic_group(4), cyclic_group(3)
    bad = hom_from_generator_images("u", "A", "B", src, tgt, ((1, 1),))
    assert isinstance(bad, Diagnostic)


def test_hom_rejects_partial_generation():
    src = product_group([cyclic_group(2), cyclic_group(2)])
    tgt = cyclic_group(2)
    # one generator does not span the Klein four-group
    bad = hom_from_generator_images("u", "A", "B", src, tgt, ((1, 1),))
    assert isinstance(bad, Diagnostic)


# -- expressions ----------------------------------------------------------


def test_free_group_expr():
    assert free_group_expr(0) == TrivialGroup()
    assert free_group_expr(1) == Ref("Z")
    assert free_group_expr(3) == FreeProduct((Ref("Z"), Ref("Z"), Ref("Z")))
    with pytest.raises(ValueError):
        free_group_expr(-1)


def test_expr_key_distinguishes_operators():
    a = DirectProduct((Ref("A"), Ref("B")))
    b = FreeProduct((Ref("A"), Ref("B")))
    assert expr_key(a) != expr_key(b)
    assert expr_key(a) == expr_key(DirectProduct((Ref("A"), Ref("B"))))


names = st.sampled_from(["A", "B", "C", "D"])


def exprs(depth=2):
    base = st.one_of(names.map(Ref), st.just(TrivialGroup()))
    if depth == 0:
        return base
    sub = exprs(depth - 1)
    return st.one_of(
        base,
        st.lists(sub, min_size=1, max_size=3).map(tuple).map(DirectProduct),
        st.lists(sub, min_size=1, max_size=3).map(tuple).map(FreeProduct),
    )


@given(exprs(), exprs())
def test_expr_key_is_injective_on_structure(e1, e2):
    assert (expr_key(e1) == expr_key(e2)) == (e1 == e2)


def rebuilt(e):
    'An equal expression of new objects.'
    if isinstance(e, (DirectProduct, FreeProduct)):
        return type(e)(tuple(rebuilt(f) for f in e.factors))
    return Ref(e.name) if isinstance(e, Ref) else TrivialGroup()


@given(exprs(), exprs())
def test_a_computed_key_leaves_equality_and_hashing_alone(e1, e2):
    keyed, fresh = rebuilt(e1), rebuilt(e1)
    key = expr_key(keyed)
    assert "key" not in type(fresh)._fields
    assert keyed == fresh and fresh == keyed and hash(keyed) == hash(fresh)
    assert {keyed: key}[fresh] == key
    assert (keyed == e2) == (fresh == e2) == (e1 == e2)
    assert expr_key(fresh) == key and fresh == keyed


# -- universe resolution --------------------------------------------------


def small_universe() -> Universe:
    u = Universe()
    u.sheets["A"] = FactSheet(name="A")
    u.defs["P"] = DirectProduct((Ref("A"), Ref("A")))
    u.defs["Q"] = Ref("P")
    return u


def test_resolution_follows_defs():
    u = small_universe()
    assert u.resolve(Ref("A")) == ("atom", "A")
    kind, payload = u.resolve(Ref("Q"))
    assert kind == "product"
    assert payload == DirectProduct((Ref("A"), Ref("A")))


def test_resolution_chain_records_names():
    u = small_universe()
    kind, payload, chain = u.resolve_chain(Ref("Q"))
    assert kind == "product"
    assert chain == ("Q", "P")
    _, _, chain_a = u.resolve_chain(Ref("A"))
    assert chain_a == ("A",)


def test_resolution_detects_cycles():
    u = Universe()
    u.defs["X"] = Ref("Y")
    u.defs["Y"] = Ref("X")
    with pytest.raises(ValueError):
        u.resolve(Ref("X"))


def test_resolution_unknown_name():
    with pytest.raises(KeyError):
        small_universe().resolve(Ref("Nope"))


def test_trivial_and_singleton_kinds():
    u = small_universe()
    assert u.resolve(TrivialGroup()) == ("trivial", TrivialGroup())
    # single-factor compounds keep their operator; the rules handle them
    assert u.resolve(DirectProduct((Ref("A"),)))[0] == "product"
    assert u.resolve(FreeProduct((Ref("A"),)))[0] == "free"


def test_kind_precedence_def_over_sheet():
    u = small_universe()
    u.sheets["G"] = FactSheet(name="G")
    assert u.resolve(Ref("G")) == ("atom", "G")
    u.defs["G"] = Ref("A")
    assert u.resolve(Ref("G")) == ("atom", "A")


def test_drop_group_clears_every_namespace():
    u = small_universe()
    u.drop_group("P")
    assert not u.declares("P")


# -- structure validation -------------------------------------------------


def test_validate_flags_unknown_reference():
    u = Universe()
    u.defs["P"] = Ref("Missing")
    diags = validate(u)
    assert any("Missing" in d.message for d in diags)


def test_validate_flags_disconnected_graph():
    u = Universe()
    u.sheets["A"] = FactSheet(name="A")
    u.graphs["G"] = GraphOfGroups(
        "G", (("v", Ref("A")), ("w", Ref("A"))), ())
    diags = validate(u)
    assert any("connected" in d.message for d in diags)


def test_validate_accepts_fixture_shapes():
    u = Universe()
    u.sheets["A"] = FactSheet(name="A")
    u.graphs["G"] = GraphOfGroups(
        "G", (("v", Ref("A")), ("w", Ref("A"))),
        (Edge("v", "w", TrivialGroup()),))
    u.gcws["X"] = GcwDescription("X", ((Ref("A"),), (Ref("A"),)), True)
    assert validate(u) == []


def test_validate_flags_bad_polygon_arity():
    u = Universe()
    u.sheets["A"] = FactSheet(name="A")
    u.polygons["P"] = PolygonOfGroups(
        "P", 4, (Ref("A"),) * 3, (Ref("A"),) * 4, TrivialGroup(), None, None)
    diags = validate(u)
    assert diags
