"""Fuzzing the CLI with mutated fixtures.

Each example takes one scripts/run_fixtures.py invocation, mutates its
fixture file token by token (deletion, duplication, swapping and
replacement) and may splice in bytes that are not UTF-8, then runs the
invocation in text and in JSON.  Whatever the model, the exit code is
0, 1 or 2, no error is an internal one, and a JSON result has the
layout of json.dumps(indent=2, ensure_ascii=False).

Another loads the same mutated texts, without the bytes that are not
UTF-8, twice through dsl.load_text: the first reports each problem once,
and the second, served from the kept load of the text, gives the
diagnostics and tables of the first.  And `validate`
and `bound` on a mutated fixture, run a second time in the same
process, print what they printed from a cold start, with the same
exit code.

A second test draws amalgams and polygons of cyclic groups whose maps
often join the wrong groups: validate refuses such a model with a
diagnostic, and develop and check-curvature work on any model it
accepts.

A third test loads the standard prelude plus one fixture as --prelude,
and a model that redeclares some of that fixture's groups or homs with
other cyclic orders or generator images; every invocation of the
fixture still exits 0, 1 or 2 with no internal error.

Two more draw orders at, just past and far past dsl.ORDER_LIMIT: a
cyclic(n) literal past it is a parse diagnostic at the literal, and a
product(...) whose factor orders multiply past it a build diagnostic at
its declaration, each with exit 1.  dsl builds its groups through stubs
that fail above the limit, so no oversized table is ever built.

Deep chain models stay out: evaluation still recurses once per link
(see test_cli.test_unexpected_exception_is_a_diagnostic).
"""

import contextlib
import importlib.util
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from catbound import dsl
from catbound.cli import main
from catbound.model import TABLES

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"


def _invocations():
    path = HERE.parent / "scripts" / "run_fixtures.py"
    spec = importlib.util.spec_from_file_location("run_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv for _, argv in module.INVOCATIONS]


INVOCATIONS = _invocations()
# whitespace runs are kept as tokens so that joining restores the text
_TOKEN = re.compile(r"\s+|\w+|[^\w\s]")
TOKENS = {name: _TOKEN.findall((FIXTURES / name).read_text(encoding="utf-8"))
          for name in {a for argv in INVOCATIONS for a in argv if a.endswith(".catb")}}
VOCABULARY = sorted({t for toks in TOKENS.values() for t in toks if not t.isspace()}
                    | {"0", "1", "-1", "99", "{", "}", ";", "=", "*", "x"})
NOT_UTF8 = (b"\xff", b"\xfe", b"\xc3", b"\x80", b"\xe2\x82", b"\xed\xa0\x80")

edits = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("duplicate"), st.integers(0, 10**6)),
    st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("replace"), st.integers(0, 10**6), st.sampled_from(VOCABULARY)),
    st.tuples(st.just("bytes"), st.integers(0, 10**6), st.sampled_from(NOT_UTF8)),
)


def mutate(tokens, ops) -> bytes:
    tokens = list(tokens)
    spliced = []
    for op in ops:
        words = [i for i, t in enumerate(tokens) if not t.isspace()]
        if op[0] == "bytes":
            spliced.append(op[1:])
            continue
        if not words:
            continue
        i = words[op[1] % len(words)]
        if op[0] == "delete":
            del tokens[i]
        elif op[0] == "duplicate":
            tokens[i:i] = [tokens[i], " "]
        elif op[0] == "swap":
            j = words[op[2] % len(words)]
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = op[2]
    data = "".join(tokens).encode("utf-8")
    for at, raw in spliced:
        at %= len(data) + 1
        data = data[:at] + raw + data[at:]
    return data


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@seed(20261018)
@settings(max_examples=600, deadline=None, database=None)
@given(argv=st.sampled_from(INVOCATIONS), ops=st.lists(edits, min_size=1, max_size=3))
def test_mutated_fixtures_never_fail_internally(workdir, argv, ops):
    name = next(a for a in argv if a.endswith(".catb"))
    model = workdir / name
    model.write_bytes(mutate(TOKENS[name], ops))
    argv = [str(model) if a == name else a for a in argv]
    for fmt in ("text", "json"):
        code, out, err = run(argv + ["--format", fmt])
        assert code in (0, 1, 2), (argv, fmt, err)
        assert "error: internal" not in err, (argv, fmt, err)
        if fmt == "json" and code in (0, 2):
            assert out == json.dumps(json.loads(out), indent=2,
                                     ensure_ascii=False) + "\n"


def loaded(text, base):
    'What load_text(text) over `base` gives, as comparable values.'
    u, diags = dsl.load_text(text, base)
    if u is None:
        return [str(d) for d in diags], None
    return [str(d) for d in diags], (
        {attr: dict(getattr(u, attr)) for attr in TABLES}, u.frozen)


@seed(20261026)
@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(sorted(TOKENS)),
       ops=st.lists(edits.filter(lambda op: op[0] != "bytes"), min_size=1, max_size=3))
def test_a_kept_load_loads_like_a_fresh_one(name, ops):
    text = mutate(TOKENS[name], ops).decode("utf-8")
    dsl._kept_loads.clear()
    base = dsl.load_prelude()
    cold = loaded(text, base)
    # each problem is reported once
    assert len(set(cold[0])) == len(cold[0]), text
    # a clean load is kept frozen, and the next one is the kept universe
    assert loaded(text, base) == cold, text


BOUND_INVOCATIONS = [argv for argv in INVOCATIONS if argv[0] == "bound"]


@seed(20261027)
@settings(max_examples=150, deadline=None, database=None)
@given(argv=st.sampled_from(BOUND_INVOCATIONS), ops=st.lists(edits, min_size=1, max_size=3),
       fmt=st.sampled_from(("text", "json")))
def test_a_kept_load_answers_like_a_cold_one(workdir, argv, ops, fmt):
    name = next(a for a in argv if a.endswith(".catb"))
    model = workdir / name
    model.write_bytes(mutate(TOKENS[name], ops))
    for call in (["validate", str(model)],
                 [str(model) if a == name else a for a in argv]):
        call += ["--format", fmt]
        dsl._kept_loads.clear()
        cold = run(call)
        assert run(call) == cold, call


# -- concrete maps --------------------------------------------------------


@st.composite
def concrete_models(draw):
    """Cyclic groups C0.., and an amalgam A or a polygon P over them.

    In a careful draw each incidence map names one of at most two homs
    declared between its groups: a homomorphism, injective or not.  In
    a careless one a map may also name any declared hom or an unknown
    name.  A group is now and then a product or the atom Z, which is not
    concrete, and a map from or to it is an unknown name."""
    orders = draw(st.lists(st.sampled_from([2, 4, 6, 1, 3]), min_size=2, max_size=4))
    lines = [f"group C{i} = cyclic({n});" for i, n in enumerate(orders)]
    group = st.sampled_from(range(len(orders)))
    exotic = st.sampled_from(["Z", "(C0 x C1)"])
    careful = draw(st.booleans())
    homs = []
    pools = {}

    def name(g):
        return f"C{g}" if isinstance(g, int) else g

    def hom(source, target):
        kind = "fit" if careful else draw(st.sampled_from(["fit", "other", "unknown"]))
        if kind == "fit" and isinstance(source, int) and isinstance(target, int):
            pool = pools.setdefault((source, target), [])
            if not pool or (len(pool) < 2 and draw(st.booleans())):
                m, n = orders[source], orders[target]
                image = draw(st.sampled_from([1, 1, 5, 0])) * (n // math.gcd(m, n)) % n
                homs.append(f"h{len(homs)}")
                pool.append(homs[-1])
                lines.append(f"hom {homs[-1]} : C{source} -> C{target} "
                             f"{{ {'0 -> 0' if m == 1 else f'1 -> {image}'}; }}")
            return draw(st.sampled_from(pool))
        return draw(st.sampled_from(homs)) if homs and kind == "other" else "nope"

    def some_group():
        return draw(exotic) if draw(st.sampled_from([False] * 9 + [True])) else draw(group)

    if draw(st.booleans()):
        left, edge, right = some_group(), some_group(), some_group()
        maps = hom(edge, left), hom(edge, right)
        lines.append(f"amalgam A = {name(left)} *[{name(edge)}] {name(right)} "
                     f"with ({maps[0]}, {maps[1]});")
        return "A", "\n".join(lines) + "\n"
    d = draw(st.integers(3, 5))
    vertex, edge, face = some_group(), some_group(), some_group()
    pairs = ", ".join(f"({hom(edge, vertex)}, {hom(edge, vertex)})" for _ in range(d))
    faces = ", ".join(hom(face, edge) for _ in range(d))
    lines.append(f"polygon P {{ d = {d}; vertex = {name(vertex)}; edge = {name(edge)}; "
                 f"face = {name(face)}; edge_maps = [{pairs}]; face_maps = [{faces}]; }}")
    return "P", "\n".join(lines) + "\n"


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(drawn=concrete_models())
def test_concrete_maps_are_refused_or_developed(workdir, drawn):
    target, text = drawn
    model = workdir / "maps.catb"
    model.write_text(text, encoding="utf-8")
    code, _, err = run(["validate", str(model)])
    errs = [err]
    if code == 0:
        commands = [["develop"]] + ([["check-curvature"]] if target == "P" else [])
        for argv in commands:
            code, _, err = run(argv + ["--target", target, str(model)])
            assert code == 0, (text, argv, err)
            errs.append(err)
    else:
        assert code == 1 and err.strip(), text
    for err in errs:
        assert not any(bad in err for bad in ("error: internal", "Ref(", "tuple.index")), \
            (text, err)


# -- redeclaring what a prelude declares ----------------------------------


def _declared(name):
    """The orders of the concrete groups a fixture declares or maps
    between, and its homs with their ends."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    u, _ = dsl.load_text(text, dsl.load_prelude())
    homs = {h: (s, t) for h, s, t in re.findall(r"^hom (\w+) : (\w+) -> (\w+)", text, re.M)}
    groups = set(re.findall(r"^group (\w+)", text, re.M))
    groups.update(g for ends in homs.values() for g in ends)
    return {g: u.concretes[g].order if g in u.concretes else None
            for g in sorted(groups)}, homs


DECLARED = {name: _declared(name) for name in sorted(TOKENS)}


@st.composite
def redeclarations(draw):
    """A fixture and a model that redeclares some of its groups as
    cyclic groups of other orders, and some of its homs, between the
    same names, with a generator image that most often fits the orders
    the names then denote."""
    name = draw(st.sampled_from(sorted(DECLARED)))
    orders, homs = DECLARED[name]
    orders = dict(orders)
    lines = []
    for g in orders:
        n = draw(st.sampled_from([None, None, 1, 2, 3, 4, 6, 8]))
        if n is not None:
            orders[g] = n
            lines.append(f"group {g} = cyclic({n});")
    for h, (source, target) in homs.items():
        if not draw(st.booleans()):
            continue
        m, n = orders[source] or 1, orders[target] or 1
        if draw(st.sampled_from([True, True, False])):
            image = draw(st.integers(0, n - 1)) * (n // math.gcd(m, n)) % n
        else:
            image = draw(st.integers(0, 7))
        pair = "0 -> 0" if m == 1 else f"1 -> {image}"
        lines.append(f"hom {h} : {source} -> {target} {{ {pair}; }}")
    return name, "\n".join(lines) + "\n"


@seed(20261020)
@settings(max_examples=250, deadline=None, database=None)
@given(drawn=redeclarations())
def test_redeclaring_prelude_names_never_fails_internally(workdir, drawn):
    name, text = drawn
    prelude = workdir / f"prelude-{name}"
    prelude.write_text(dsl.prelude_path().read_text(encoding="utf-8")
                       + (FIXTURES / name).read_text(encoding="utf-8"), encoding="utf-8")
    model = workdir / "redeclared.catb"
    model.write_text(text, encoding="utf-8")
    for argv in INVOCATIONS:
        if name not in argv:
            continue
        argv = [str(model) if a == name else a for a in argv] + ["--prelude", str(prelude)]
        for fmt in ("text", "json"):
            code, _, err = run(argv + ["--format", fmt])
            assert code in (0, 1, 2), (text, argv, fmt, err)
            assert "error: internal" not in err, (text, argv, fmt, err)


# -- orders across the limit ----------------------------------------------

LIMIT = dsl.ORDER_LIMIT
# factor orders whose product lies at, just past or far past the limit
FACTORS = {
    "at": ((1000,), (8, 125), (2, 500), (10, 10, 10), (1, 25, 40)),
    "just past": ((7, 11, 13), (2, 3, 167), (2, 501), (17, 59)),
    "far past": ((1000, 1000), (500, 500, 500), (2,) * 20, (1000,) * 4, (999, 998, 997)),
}
# declarations that move the drawn one to another line
FILLER = ("group A = cyclic(4);", "group B;", "family F = finite;", "// cyclic(5000)", "")


@pytest.fixture(scope="module")
def bounded_orders():
    """Stubs for dsl's cyclic_group and product_group that fail above
    the order limit.  Within it, a cyclic group of the order, built once
    per order, stands in for either: a product's table at the limit takes
    most of a second, and only its order matters here."""
    built = {}

    def within(n):
        assert n <= LIMIT, f"a group of order {n} over the order limit was built"
        if n not in built:
            built[n] = real_cyclic(n)
        return built[n]

    real_cyclic = dsl.cyclic_group
    return within, lambda factors: within(math.prod(g.order for g in factors))


def run_bounded(stubs, argv):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dsl, "cyclic_group", stubs[0])
        m.setattr(dsl, "product_group", stubs[1])
        return run(argv)


def assert_refused_at(stubs, model, loc, message):
    assert run_bounded(stubs, ["validate", str(model)]) == (1, "", f"{model}:{loc}: {message}\n")
    code, out, err = run_bounded(stubs, ["validate", "--format", "json", str(model)])
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "diagnostics": [{"loc": loc, "message": message}]}


@seed(20261021)
@settings(max_examples=60, deadline=None, database=None)
@given(n=st.one_of(st.just(LIMIT), st.integers(LIMIT + 1, LIMIT + 3),
                   st.integers(LIMIT + 4, 10**100)),
       before=st.lists(st.sampled_from(FILLER), max_size=3, unique=True),
       after=st.lists(st.sampled_from(("group D;", "// tail", "")), max_size=2, unique=True),
       pad=st.sampled_from(["", " ", "  "]))
def test_cyclic_orders_past_the_limit_are_refused_at_the_literal(
        workdir, bounded_orders, n, before, after, pad):
    head = f"group C ={pad} cyclic({pad}"
    model = workdir / "cyclic.catb"
    model.write_text("\n".join(before + [f"{head}{n}{pad});"] + after) + "\n",
                     encoding="utf-8")
    if n <= LIMIT:
        code, _, err = run_bounded(bounded_orders, ["validate", str(model)])
        assert (code, err) == (0, ""), n
    else:
        assert_refused_at(bounded_orders, model, f"{len(before) + 1}:{len(head) + 1}",
                          f"cyclic order exceeds the limit of {LIMIT}")


@seed(20261022)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), side=st.sampled_from(sorted(FACTORS)),
       before=st.lists(st.sampled_from(FILLER), max_size=3, unique=True))
def test_products_past_the_limit_are_refused_at_the_declaration(
        workdir, bounded_orders, data, side, before):
    orders = data.draw(st.permutations(data.draw(st.sampled_from(FACTORS[side]))))
    lines = before + [f"group F{n} = cyclic({n});" for n in sorted(set(orders))]
    lines.append(f"group P = product({', '.join(f'F{n}' for n in orders)});")
    model = workdir / "product.catb"
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    order = math.prod(orders)
    if order <= LIMIT:
        code, _, err = run_bounded(bounded_orders, ["validate", str(model)])
        assert (code, err) == (0, ""), orders
    else:
        assert_refused_at(bounded_orders, model, f"{len(lines)}:1",
                          f"product order {order} exceeds the limit of {LIMIT}")
