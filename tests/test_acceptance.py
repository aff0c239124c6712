"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single criterion line on success; pytest -v shows
the same pass/fail per test name.
"""

import json
import random
import time
from pathlib import Path

import pytest

from catbound import dsl
from catbound.apps import (PreconditionError, certify_branched,
                           certify_double)
from catbound.cli import main as cli_main
from catbound.develop import (bass_serre_ball, check_curvature,
                              verify_stabilizers)
from catbound.engine import Evaluator, replay
from catbound.extnat import INF, ExtNat, replace
from catbound.facts import AM, FIN, TR
from catbound.model import FreeProduct, Ref

from gencw import oracle_exhaustive, oracle_recursion, random_instance
from genmodels import random_model
from oracles import (brute_force_curvature, ladder_value, max_arm_dims,
                     max_combination, sum_combination, tc_gog, tree_defect)
from test_develop import (biregular_level_counts, cyclic_chain_polygon,
                          expected_link_holds)

FIXTURES = Path(__file__).parent / "fixtures"


def load(text):
    u, diags = dsl.load_text(text, dsl.load_prelude())
    assert not diags, diags
    return u


def test_criterion_1_headline_category_bounds(fixture_texts):
    u = load(fixture_texts["examples"])
    expected = [
        (Ref("ZZ"), TR, ExtNat(1), None),
        (Ref("Am46"), FIN, ExtNat(1), "rec-sum"),
        (Ref("FC"), AM, ExtNat(2), None),
    ]
    for target, fam, value, rule in expected:
        start = time.perf_counter()
        r = Evaluator(u).bound_cat(target, fam)
        elapsed = time.perf_counter() - start
        assert r.value == value, (target, fam.name, r.value)
        assert r.value != INF
        if rule is not None:
            assert r.trace.rule == rule
        assert elapsed < 1.0, f"{target} took {elapsed:.2f}s"
    print("criterion 1: PASS  (three headline bounds exact, "
          "amalgam through the sum rule, each under a second)")


def test_criterion_2_recursion_endpoints():
    rng = random.Random(2026)
    for i in range(1000):
        u, x, values = random_instance(rng, max_n=6, max_orbits=4)
        ev = Evaluator(u)
        n = len(x.dims) - 1
        full = frozenset(range(1, n + 1))
        empty = frozenset()
        got_full = ladder_value(ev, x, AM, full)
        got_empty = ladder_value(ev, x, AM, empty)
        assert got_full == max_combination(ev, x, AM), f"instance {i}"
        assert got_empty == sum_combination(ev, x, AM), f"instance {i}"
        assert got_full.v == oracle_recursion(x, values, full), f"instance {i}"
        assert got_empty.v == oracle_recursion(x, values, empty), f"instance {i}"
        greedy = ev.bound_cat(Ref(x.name), AM).value
        assert greedy <= got_full and greedy <= got_empty, f"instance {i}"
    print("criterion 2: PASS  (1000 random complexes: recursion endpoints "
          "equal both closed forms exactly, the greedy bound is below both)")


def test_criterion_3_selection_optimality():
    rng = random.Random(2027)
    start = time.perf_counter()
    for i in range(1000):
        u, x, values = random_instance(rng, max_n=10, max_orbits=4)
        r = Evaluator(u).bound_cat(Ref(x.name), AM)
        sel = max_arm_dims(r.trace)
        assert r.value.v == oracle_recursion(x, values, sel), f"instance {i}"
        assert r.value.v == oracle_exhaustive(x, values), f"instance {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 3: PASS  (1000 greedy arm choices, read off the "
          f"traces, optimal against exhaustive scan, {elapsed:.1f}s)")


def test_criterion_4_tree_ball_closed_form(fixture_texts):
    u = load(fixture_texts["examples"])
    _, graph = u.resolve(Ref("Am46"))
    for radius in range(0, 5):
        counts = biregular_level_counts(2, 3, radius)
        ball = bass_serre_ball(u, graph, radius)
        per_level = {}
        for c in ball.of_dim(0):
            per_level[c.level] = per_level.get(c.level, 0) + 1
        assert per_level == dict(enumerate(counts)), f"radius {radius}"
        assert len(ball.of_dim(1)) == sum(counts) - 1
        assert tree_defect(ball) == 0
        assert verify_stabilizers(ball).ok
    print("criterion 4: PASS  (tree balls match the biregular closed form "
          "out to radius 4: 19 vertices, 18 edges, no cycles)")


def test_criterion_5_link_condition(fixture_texts):
    u_sq = load(fixture_texts["square_coxeter"])
    _, sq = u_sq.resolve(Ref("SQ"))
    assert check_curvature(u_sq, sq).holds
    assert brute_force_curvature(u_sq, sq).holds

    u_bad = load(fixture_texts["z4_polygon"])
    _, bad = u_bad.resolve(Ref("BAD"))
    r = check_curvature(u_bad, bad)
    assert (r.holds, r.vertex, r.witness) == (False, 0, (0, 2))
    b = brute_force_curvature(u_bad, bad)
    assert (b.holds, b.vertex, b.witness) == (False, 0, (0, 2))

    rng = random.Random(2028)
    for i in range(200):
        u, p, f, es = cyclic_chain_polygon(rng)
        fast = check_curvature(u, p)
        slow = brute_force_curvature(u, p)
        assert fast.holds == slow.holds == expected_link_holds(f, es), i
        if not fast.holds:
            assert (fast.vertex, fast.witness) == (slow.vertex, slow.witness)
    print("criterion 5: PASS  (link condition: square holds, torsion "
          "polygon fails with witness {0, 2}, 200 random cases agree "
          "with the elementwise oracle)")


def test_criterion_6_tc_of_the_free_square():
    u = dsl.load_prelude()
    ev = Evaluator(u)
    r = ev.bound_tc(FreeProduct((Ref("Z"), Ref("Z"))))
    assert r.value == ExtNat(2)
    assert r.trace.rule == "tc-gcw"
    assert sorted(str(p.value) for p in r.trace.premises) == ["1", "2", "2"]
    assert tc_gog(ev, FreeProduct((Ref("Z"), Ref("Z")))) == ExtNat(2)
    print("criterion 6: PASS  (tc of the free square is 2 through the "
          "complex rule over the shipped prelude, as the four-term tree "
          "rule gives)")


DOUBLE_MAX_MUTATIONS = [
    ("pi1_injective = assert;", "", "(i) pairing 0"),
    ("boundary s : F2 {", "boundary s : F2 x Z x Z {", "(ii) pairing 0"),
    ("cat[Am] <= 3", "cat[Am] <= 4", "(iii) piece"),
]
DOUBLE_SUM_MUTATIONS = [
    ("cat[Am] <= 1", "cat[Am] <= 3", "additive bound"),
]
BRANCHED_MUTATIONS = [
    ("assume pi1_injective;", "", "(i)"),
    ("assume intersection;", "", "(ii)"),
    ("core = One;", "core = MW;", "(iii)"),
    ("gd <= 2", "gd <= 3", "(iv)"),
    ("cat[Am] <= 3", "cat[Am] <= 4", "(v)"),
]


def certify(u, name):
    s = u.setups[name]
    if type(s).__name__ == "DoubleSetup":
        return certify_double(u, s)
    return certify_branched(u, s)


def test_criterion_7_certificates_and_mutations(fixture_texts, capsys):
    cases = [("double_max", "DblMax", DOUBLE_MAX_MUTATIONS),
             ("double_sum", "DblSum", DOUBLE_SUM_MUTATIONS),
             ("branched_five", "BrFive", BRANCHED_MUTATIONS)]
    for stem, name, mutations in cases:
        text = fixture_texts[stem]
        cert = certify(load(text), name)
        assert cert.conclusion == "volume_vanishes", name
        assert cert.ledger, name
        assert not cert.failed_items(), name
        for old, new, marker in mutations:
            assert old in text, (stem, old)
            broken = certify(load(text.replace(old, new)), name)
            assert broken.conclusion == "inconclusive", (stem, old)
            failed = [x.item for x in broken.failed_items()]
            assert any(marker in item for item in failed), (stem, old, failed)

    u = load(fixture_texts["branched_five"])
    with pytest.raises(PreconditionError):
        certify_branched(u, replace(u.setups["BrFive"], d=3))
    code = cli_main(["certify", "branched", "--target", "BrFive", "--d", "3",
                     str(FIXTURES / "branched_five.catb")])
    captured = capsys.readouterr()
    assert code == 1 and "requires d >= 4" in captured.err
    print("criterion 7: PASS  (three vanishing certificates with full "
          "ledgers; every dropped hypothesis flips to inconclusive and "
          "is named; d = 3 is a hard error)")


def all_fixture_results(fixture_texts):
    out = []
    for stem in sorted(fixture_texts):
        u = load(fixture_texts[stem])
        ev = Evaluator(u)
        for name in sorted(u.group_names()):
            for fam in (TR, FIN, AM):
                out.append(ev.bound_cat(Ref(name), fam))
            out.append(ev.bound_gd(Ref(name)))
            out.append(ev.bound_cd(Ref(name)))
            out.append(ev.bound_tc(Ref(name)))
        for sname in sorted(u.setups):
            cert = certify(u, sname)
            if cert.trace is not None and cert.value is not None:
                assert replay(cert.trace) == cert.value, sname
            out.append(cert)
    return out


def test_criterion_8_replay_and_determinism(fixture_texts):
    results = all_fixture_results(fixture_texts)
    assert len(results) > 100
    for r in results:
        if hasattr(r, "invariant"):
            assert replay(r.trace) == r.value, r.to_json()
    blob1 = json.dumps([r.to_json() for r in results])
    blob2 = json.dumps([r.to_json()
                        for r in all_fixture_results(fixture_texts)])
    assert blob1 == blob2
    print(f"criterion 8: PASS  ({len(results)} derivations replay to their "
          "values; the full fixture sweep serializes byte-identically twice)")


def test_criterion_9_parser_round_trips(fixture_texts):
    rng = random.Random(2029)
    for i in range(1000):
        m = random_model(rng)
        text = dsl.serialize(m)
        assert dsl.parse(text) == m, f"instance {i}:\n{text}"

    corpus = list(fixture_texts.values())
    for i in range(500):
        chars = list(rng.choice(corpus))
        for _ in range(rng.randint(1, 8)):
            pos = rng.randrange(len(chars)) if chars else 0
            op = rng.randint(0, 2)
            if op == 0 and chars:
                del chars[pos]
            elif op == 1:
                chars.insert(pos, rng.choice(';{}()[]=*x<-"@#\n'))
            elif chars:
                chars[pos] = rng.choice(';{}()[]=*x<-"@#\n')
        model, diags = dsl.try_parse("".join(chars))
        if model is None:
            assert diags, f"mutation {i}"
            assert all(d.loc and ":" in d.loc for d in diags), f"mutation {i}"
    print("criterion 9: PASS  (1000 serializer round-trips exact; 500 "
          "mutated sources parse or fail with positioned diagnostics, "
          "never crash)")
