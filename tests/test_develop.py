import itertools
import math
import random

import pytest

from catbound import develop, dsl
from catbound.develop import (AmalgamContext, _cosets_within,
                              bass_serre_ball, check_curvature, develop_target,
                              polygon_ball, verify_stabilizers)
from catbound.extnat import replace
from catbound.model import (ConcreteFiniteGroup, Edge, GraphOfGroups,
                            Homomorphism, PolygonOfGroups, Ref, Universe,
                            cyclic_group, product_group)

from conftest import FIXTURES
from oracles import (amalgam_inverse, brute_force_curvature, coset_set_ball,
                     edge_element, generated_subgroup, inv, left_carry_context,
                     side_element, tree_defect)


# -- oracles, written before the tests that lean on them ------------------


def assert_partition(g, h, cosets):
    'Cosets must tile the group: disjoint, equal-sized, exhaustive.'
    all_elems = set()
    for c in cosets:
        assert len(c) == len(h)
        assert not (all_elems & c)
        all_elems |= c
    assert all_elems == set(range(g.order))
    assert len(cosets) * len(h) == g.order


def biregular_level_counts(p, q, radius):
    """Vertex counts per level of the (p,q)-biregular tree rooted on the
    p side: the root branches p ways, then alternates q-1 / p-1."""
    counts = [1]
    if radius >= 1:
        counts.append(p)
    for lvl in range(2, radius + 1):
        back = (q - 1) if lvl % 2 == 0 else (p - 1)
        counts.append(counts[-1] * back)
    return counts


def expected_link_holds(f, es):
    'Number theory for a cyclic chain: links close iff gcd of adjacent edge orders is f.'
    d = len(es)
    return all(math.gcd(es[i - 1], es[i]) == f for i in range(d))


# -- coset enumeration ----------------------------------------------------


def test_cosets_of_even_subgroup():
    g, h = cyclic_group(4), frozenset({0, 2})
    cosets = _cosets_within(g, range(g.order), h)
    assert cosets == [h, frozenset({1, 3})]
    assert_partition(g, h, cosets)


def test_cosets_random_partitions():
    rng = random.Random(11)
    for _ in range(50):
        if rng.random() < 0.5:
            g = cyclic_group(rng.randint(1, 16))
        else:
            g = product_group([cyclic_group(rng.randint(1, 4)),
                               cyclic_group(rng.randint(1, 4))])
        h = generated_subgroup(g, [rng.randrange(g.order)])
        assert_partition(g, h, _cosets_within(g, range(g.order), h))


# -- amalgam arithmetic ---------------------------------------------------


def z4_z6_context():
    return AmalgamContext(
        (cyclic_group(4), cyclic_group(6)), cyclic_group(2),
        (Homomorphism("a", "C2", "C4", (0, 2)),
         Homomorphism("b", "C2", "C6", (0, 3))))


def random_elements(ctx, rng, count):
    out = []
    for _ in range(count):
        g = ctx.identity
        for _ in range(rng.randint(0, 6)):
            side = rng.randint(0, 1)
            a = rng.randrange(ctx.sides[side].order)
            g = ctx.mul(g, side_element(ctx, side, a))
        out.append(g)
    return out


def test_amalgam_group_laws():
    ctx = z4_z6_context()
    rng = random.Random(12)
    elems = random_elements(ctx, rng, 40)
    e = ctx.identity
    for g in elems:
        assert ctx.mul(g, e) == g
        assert ctx.mul(e, g) == g
        assert ctx.mul(g, amalgam_inverse(ctx, g)) == e
        assert ctx.mul(amalgam_inverse(ctx, g), g) == e
    for _ in range(120):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_amalgam_embeddings_are_homomorphisms():
    ctx = z4_z6_context()
    for side, g in enumerate(ctx.sides):
        for x in range(g.order):
            for y in range(g.order):
                assert ctx.mul(side_element(ctx, side, x),
                               side_element(ctx, side, y)) == \
                    side_element(ctx, side, g.mul(x, y))
    # the two routes for an edge element agree
    for c in range(ctx.edge.order):
        assert edge_element(c) == side_element(ctx, 0, 2 * c)
        assert edge_element(c) == side_element(ctx, 1, 3 * c)


def test_amalgam_normal_forms_alternate():
    ctx = z4_z6_context()
    rng = random.Random(13)
    for g in random_elements(ctx, rng, 60):
        sides = [s for s, _ in g.word]
        assert all(sides[i] != sides[i + 1] for i in range(len(sides) - 1))


def test_amalgam_rejects_bad_embeddings():
    with pytest.raises(ValueError):
        AmalgamContext((cyclic_group(4), cyclic_group(6)), cyclic_group(2),
                       (Homomorphism("a", "C2", "C4", (0, 0)),
                        Homomorphism("b", "C2", "C6", (0, 3))))
    with pytest.raises(ValueError):
        AmalgamContext((cyclic_group(4), cyclic_group(6)), cyclic_group(2),
                       (Homomorphism("a", "C2", "C4", (0,)),
                        Homomorphism("b", "C2", "C6", (0, 3))))


# -- balls of the tree ----------------------------------------------------


@pytest.fixture(scope="module")
def example_universe(fixture_texts):
    u, diags = dsl.load_text(fixture_texts["examples"], dsl.load_prelude())
    assert not diags
    return u


@pytest.fixture(scope="module")
def amalgam_graph(example_universe):
    kind, payload = example_universe.resolve(Ref("Am46"))
    assert kind == "graph"
    return payload


def test_ball_matches_closed_form(example_universe, amalgam_graph):
    for radius in range(0, 5):
        counts = biregular_level_counts(2, 3, radius)
        ball = bass_serre_ball(example_universe, amalgam_graph, radius)
        vertices = ball.of_dim(0)
        assert len(vertices) == sum(counts)
        assert len(ball.of_dim(1)) == sum(counts) - 1
        per_level = {}
        for c in vertices:
            per_level[c.level] = per_level.get(c.level, 0) + 1
        assert per_level == {lvl: n for lvl, n in enumerate(counts)}
        assert tree_defect(ball) == 0
        assert not ball.complete  # the tree always continues


def test_ball_radius_four_shape(example_universe, amalgam_graph):
    ball = bass_serre_ball(example_universe, amalgam_graph, 4)
    assert len(ball.of_dim(0)) == 19
    assert len(ball.of_dim(1)) == 18
    for c in ball.of_dim(0):
        assert c.stab_order == (4 if c.kind == "vertex-left" else 6)
        # sides alternate by level, root on the left
        expected = "vertex-left" if c.level % 2 == 0 else "vertex-right"
        assert c.kind == expected
    for c in ball.of_dim(1):
        assert c.stab_order == 2
    # interior vertices carry the full degree of their side
    degree = {}
    for c in ball.of_dim(1):
        for end in c.incident:
            degree[end] = degree.get(end, 0) + 1
    for c in ball.of_dim(0):
        if c.level < 4:
            assert degree[c.id] == (2 if c.kind == "vertex-left" else 3)


def test_ball_stabilizers_consistent(example_universe, amalgam_graph):
    ball = bass_serre_ball(example_universe, amalgam_graph, 3)
    report = verify_stabilizers(ball)
    assert report.ok, report.problems
    assert report.orders["vertex-left"] == [4]
    assert report.orders["vertex-right"] == [6]
    assert report.orders["edge"] == [2]


def test_stabilizer_check_catches_tampering(example_universe, amalgam_graph):
    ball = bass_serre_ball(example_universe, amalgam_graph, 2)
    ball.of_dim(1)[0].stab_order = 5
    report = verify_stabilizers(ball)
    assert not report.ok
    assert any("order recorded 5" in p for p in report.problems)


def test_single_vertex_ball(example_universe):
    lone = GraphOfGroups("lone", (("v", Ref("Z4")),), ())
    ball = bass_serre_ball(example_universe, lone, 3)
    assert len(ball.cells) == 1
    assert ball.cells[0].stab_order == 4
    assert ball.complete
    assert tree_defect(ball) == 0


def test_ball_limits(example_universe, amalgam_graph, monkeypatch):
    with pytest.raises(ValueError):
        bass_serre_ball(example_universe, amalgam_graph, 5)
    monkeypatch.setattr(develop, "CELL_LIMIT", 10)
    with pytest.raises(ValueError):
        bass_serre_ball(example_universe, amalgam_graph, 4)


def test_develop_target_reports_an_unresolved_name_as_is(example_universe):
    with pytest.raises(ValueError) as info:
        develop_target(example_universe, "Nope")
    assert str(info.value) == "unresolved group name 'Nope'"


def test_ball_needs_concrete_maps(example_universe):
    g = GraphOfGroups("bare", (("a", Ref("Z4")), ("b", Ref("Z6"))),
                      (Edge("a", "b", Ref("Z2"), None),))
    with pytest.raises(ValueError):
        bass_serre_ball(example_universe, g, 2)


def test_ball_rejects_loops_and_big_graphs(example_universe):
    loop = GraphOfGroups("loop", (("a", Ref("Z4")), ("b", Ref("Z6"))),
                         (Edge("a", "a", Ref("Z2"), ("i24", "i24")),))
    with pytest.raises(ValueError):
        bass_serre_ball(example_universe, loop, 2)
    wide = GraphOfGroups("wide",
                         (("a", Ref("Z4")), ("b", Ref("Z6")), ("c", Ref("Z2"))),
                         (Edge("a", "b", Ref("Z2"), ("i24", "i26")),))
    with pytest.raises(ValueError):
        bass_serre_ball(example_universe, wide, 2)


def test_ball_roots_at_the_first_vertex_whatever_the_edge_direction(
        example_universe, amalgam_graph):
    flipped = GraphOfGroups("flipped", (("left", Ref("Z4")), ("right", Ref("Z6"))),
                            (Edge("right", "left", Ref("Z2"), ("i26", "i24")),))
    for radius in range(4):
        assert ball_rows(bass_serre_ball(example_universe, flipped, radius)) == \
            ball_rows(bass_serre_ball(example_universe, amalgam_graph, radius))


def test_developments_refuse_maps_that_validate_refuses(example_universe,
                                                        square_universe):
    swapped = GraphOfGroups("A", (("left", Ref("Z4")), ("right", Ref("Z6"))),
                            (Edge("left", "right", Ref("Z2"), ("i26", "i24")),))
    with pytest.raises(ValueError) as err:
        bass_serre_ball(example_universe, swapped, 2)
    assert str(err.value) == ("graph A edge 0: hom 'i26' should map Z2 -> Z4; "
                              "hom 'i24' should map Z2 -> Z6")
    _, sq = square_universe.resolve(Ref("SQ"))
    # the face reaches corner 0 through a4 on one side and b4 on the other
    u = square_universe.overlay()
    u.homs["t2"] = Homomorphism("t2", "Z2", "Z2", (0, 1))
    odd = replace(sq, name="ODD", face_group=Ref("Z2"),
                              face_maps=("t2",) * 4)
    for call in (polygon_ball, check_curvature):
        with pytest.raises(ValueError) as err:
            call(u, odd)
        assert str(err.value).startswith(
            "polygon ODD: face maps do not commute with incidence at vertex 0")


# -- the right-carry normal form against the left-carry oracle ------------


def s3_table():
    'S3 as permutations of 0..2, composed right to left; 1, 2, 5 are transpositions.'
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
            for p in perms]


def amalgam_model(text, name):
    u, diags = dsl.load_text(text, dsl.load_prelude())
    assert not diags
    kind, graph = u.resolve(Ref(name))
    assert kind == "graph"
    return u, graph


def oracle_amalgams():
    'Amalgams with normal and non-normal edge groups, and an index-1 side.'
    s3 = f"group S3 = table {s3_table()};\n"
    models = {
        "Am46": ((FIXTURES / "examples.catb").read_text(encoding="utf-8"), "Am46"),
        "S3-Z4": (s3 + "group Z4 = cyclic(4);\n"
                  "hom s : Z2 -> S3 { 1 -> 1; }\nhom f : Z2 -> Z4 { 1 -> 2; }\n"
                  "amalgam A = S3 *[Z2] Z4 with (s, f);\n", "A"),
        "S3-S3": (s3 + "hom s : Z2 -> S3 { 1 -> 1; }\nhom t : Z2 -> S3 { 1 -> 5; }\n"
                  "amalgam A = S3 *[Z2] S3 with (s, t);\n", "A"),
        "Z2-Z6": ("group Z6 = cyclic(6);\nhom e : Z2 -> Z2 { 1 -> 1; }\n"
                  "hom f : Z2 -> Z6 { 1 -> 3; }\n"
                  "amalgam A = Z2 *[Z2] Z6 with (e, f);\n", "A"),
    }
    rng = random.Random(15)
    while len(models) < 7:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        models[f"Z{2 * a}-Z{2 * b}"] = (
            f"group L = cyclic({2 * a});\ngroup R = cyclic({2 * b});\n"
            f"hom l : Z2 -> L {{ 1 -> {a}; }}\nhom r : Z2 -> R {{ 1 -> {b}; }}\n"
            f"amalgam A = L *[Z2] R with (l, r);\n", "A")
    return models


ORACLE_AMALGAMS = oracle_amalgams()


def ball_rows(ball):
    return [(c.id, c.dim, c.kind, c.level, c.stab_order, c.incident)
            for c in ball.cells]


@pytest.mark.parametrize("name", sorted(ORACLE_AMALGAMS))
def test_ball_matches_coset_set_oracle(name):
    u, graph = amalgam_model(*ORACLE_AMALGAMS[name])
    for radius in range(0, 5):
        ball = bass_serre_ball(u, graph, radius)
        oracle = coset_set_ball(u, graph, radius)
        assert ball_rows(ball) == ball_rows(oracle)
        assert ball.complete == oracle.complete
        assert [len(c.stabilizer) for c in ball.cells] == \
            [len(c.stabilizer) for c in oracle.cells]
        report = verify_stabilizers(ball)
        assert report.ok, report.problems
    if name == "Z2-Z6":
        # one coset of the edge group in Z2: the tree is a finite star
        assert ball.complete and len(ball.of_dim(0)) == 4


@pytest.mark.parametrize("name", sorted(ORACLE_AMALGAMS))
def test_normal_forms_agree_with_oracle_on_equality(name):
    u, graph = amalgam_model(*ORACLE_AMALGAMS[name])
    oracle = left_carry_context(u, graph)
    sides = oracle.sides
    ctx = AmalgamContext(sides, oracle.edge, oracle.embeddings)
    rng = random.Random(16)

    def random_word():
        return [(s, rng.randrange(sides[s].order))
                for s in (rng.randint(0, 1) for _ in range(rng.randint(0, 5)))]

    def rewritten(word):
        'The same element: an x·x⁻¹ pair or an edge element moved across.'
        word = list(word)
        j = rng.randint(0, len(word))
        s = rng.randint(0, 1)
        if rng.random() < 0.5:
            x = rng.randrange(sides[s].order)
            word[j:j] = [(s, x), (s, inv(sides[s], x))]
        else:
            c = rng.randrange(oracle.edge.order)
            word[j:j] = [(s, oracle.embeddings[s].images[c]),
                         (1 - s, oracle.embeddings[1 - s].images[inv(oracle.edge, c)])]
        return word

    def value(arith, word):
        g = arith.identity
        for s, a in word:
            g = arith.mul(g, side_element(arith, s, a))
        return g

    words = []
    for _ in range(60):
        w = random_word()
        words += [w, rewritten(w), rewritten(rewritten(w))]
    new = [value(ctx, w) for w in words]
    old = [value(oracle, w) for w in words]
    equal_pairs = 0
    for i, j in itertools.combinations(range(len(words)), 2):
        assert (new[i] == new[j]) == (old[i] == old[j]), (words[i], words[j])
        equal_pairs += new[i] == new[j]
    assert equal_pairs >= len(words)
    for g in new:
        assert ctx.mul(g, amalgam_inverse(ctx, g)) == ctx.identity
    for _ in range(100):
        a, b, c = (rng.choice(new) for _ in range(3))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


@pytest.mark.parametrize("radius,size", [(2, 41), (3, 137), (4, 521)])
def test_ball_costs_steps_linear_in_stabilizers(monkeypatch, radius, size):
    u, graph = amalgam_model(
        "group Z8 = cyclic(8);\ngroup Z10 = cyclic(10);\n"
        "hom l : Z2 -> Z8 { 1 -> 4; }\nhom r : Z2 -> Z10 { 1 -> 5; }\n"
        "amalgam A = Z8 *[Z2] Z10 with (l, r);\n", "A")
    calls = 0
    step = AmalgamContext.step

    def counting_step(self, g, side, a):
        nonlocal calls
        calls += 1
        return step(self, g, side, a)

    monkeypatch.setattr(AmalgamContext, "step", counting_step)
    ball = bass_serre_ball(u, graph, radius)
    assert len(ball.cells) == size
    # a conjugate of a level-L cell costs at most L + 2 steps, and an
    # expanded vertex one step per element of its group
    assert 0 < calls <= sum(c.stab_order * (c.level + 3) for c in ball.cells)


# -- polygon stars --------------------------------------------------------


@pytest.fixture(scope="module")
def square_universe(fixture_texts):
    u, diags = dsl.load_text(fixture_texts["square_coxeter"],
                             dsl.load_prelude())
    assert not diags
    return u


def test_square_star_cell_counts(square_universe):
    kind, p = square_universe.resolve(Ref("SQ"))
    assert kind == "polygon"
    ball = polygon_ball(square_universe, p)
    dims = {d: len(ball.of_dim(d)) for d in (0, 1, 2)}
    assert dims == {0: 4, 1: 12, 2: 9}
    assert not ball.complete
    report = verify_stabilizers(ball)
    assert report.ok, report.problems
    assert report.orders == {"vertex": [4], "edge": [2], "face": [1]}


def test_square_star_radius_zero(square_universe):
    _, p = square_universe.resolve(Ref("SQ"))
    ball = polygon_ball(square_universe, p, radius=0)
    assert len(ball.cells) == 9
    assert not ball.complete
    with pytest.raises(ValueError):
        polygon_ball(square_universe, p, radius=2)


def test_trivial_polygon_star_closes_up():
    u, diags = dsl.load_text("""
group C1 = cyclic(1);
hom tid : C1 -> C1 { 0 -> 0; }
polygon TRIV {
  d = 4;
  vertex = C1;
  edge = C1;
  face = C1;
  edge_maps = [(tid, tid), (tid, tid), (tid, tid), (tid, tid)];
  face_maps = [tid, tid, tid, tid];
}
""", dsl.load_prelude())
    assert not diags
    _, p = u.resolve(Ref("TRIV"))
    ball = polygon_ball(u, p)
    assert ball.complete
    assert {d: len(ball.of_dim(d)) for d in (0, 1, 2)} == {0: 4, 1: 4, 2: 1}


# -- the link condition ---------------------------------------------------


def test_square_links_close(square_universe):
    _, p = square_universe.resolve(Ref("SQ"))
    r = check_curvature(square_universe, p)
    assert r.holds
    b = brute_force_curvature(square_universe, p)
    assert b.holds


def test_bad_polygon_fails_at_first_vertex(fixture_texts):
    u, diags = dsl.load_text(fixture_texts["z4_polygon"], dsl.load_prelude())
    assert not diags
    _, p = u.resolve(Ref("BAD"))
    r = check_curvature(u, p)
    assert not r.holds
    assert r.vertex == 0
    assert r.witness == (0, 2)
    b = brute_force_curvature(u, p)
    assert (b.holds, b.vertex, b.witness) == (r.holds, r.vertex, r.witness)


def cyclic_chain_polygon(rng):
    """Random polygon of cyclic groups with divisor embeddings; the link
    condition reduces to a gcd statement, checked separately."""
    d = rng.randint(3, 6)
    f = rng.choice([1, 1, 2])
    es = [f * rng.choice([1, 2, 3]) for _ in range(d)]
    ms = [(es[i - 1] * es[i] // math.gcd(es[i - 1], es[i]))
          * rng.choice([1, 2]) for i in range(d)]
    u = Universe()
    u.concretes["F"] = cyclic_group(f)
    for i in range(d):
        u.concretes[f"V{i}"] = cyclic_group(ms[i])
        u.concretes[f"E{i}"] = cyclic_group(es[i])
        nxt = (i + 1) % d
        u.homs[f"out{i}"] = Homomorphism(
            f"out{i}", f"E{i}", f"V{i}",
            tuple(x * (ms[i] // es[i]) % ms[i] for x in range(es[i])))
        u.homs[f"in{i}"] = Homomorphism(
            f"in{i}", f"E{i}", f"V{nxt}",
            tuple(x * (ms[nxt] // es[i]) % ms[nxt] for x in range(es[i])))
        u.homs[f"fm{i}"] = Homomorphism(
            f"fm{i}", "F", f"E{i}",
            tuple(z * (es[i] // f) % es[i] for z in range(f)))
    p = PolygonOfGroups(
        "P", d,
        tuple(Ref(f"V{i}") for i in range(d)),
        tuple(Ref(f"E{i}") for i in range(d)),
        Ref("F"),
        tuple((f"out{i}", f"in{i}") for i in range(d)),
        tuple(f"fm{i}" for i in range(d)))
    return u, p, f, es


def test_link_condition_random_agreement():
    rng = random.Random(14)
    holds_seen = fails_seen = 0
    for _ in range(200):
        u, p, f, es = cyclic_chain_polygon(rng)
        fast = check_curvature(u, p)
        slow = brute_force_curvature(u, p)
        assert fast.holds == slow.holds == expected_link_holds(f, es)
        if fast.holds:
            holds_seen += 1
        else:
            fails_seen += 1
            assert (fast.vertex, fast.witness) == (slow.vertex, slow.witness)
    assert holds_seen > 10 and fails_seen > 10


# -- dispatch -------------------------------------------------------------


def test_develop_target_dispatch(example_universe, square_universe):
    ball = develop_target(example_universe, "Am46", 2)
    assert len(ball.of_dim(0)) == 7
    star = develop_target(square_universe, "SQ", 1)
    assert len(star.of_dim(2)) == 9
    with pytest.raises(ValueError):
        develop_target(example_universe, "Z4", 1)
    with pytest.raises(ValueError):
        develop_target(example_universe, "Nope", 1)
