"""The CLI's output layer: its JSON writer against json.dumps, and what
one bound query costs in trace walks and stdout writes."""

import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbound import apps, dsl
from catbound.cli import json_text, main
from catbound.engine import DerivationNode, Evaluator
from catbound.model import Ref

from genmodels import nested_text

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLES = str(FIXTURES / "examples.catb")


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


# -- json_text against json.dumps ------------------------------------------

_chars = st.one_of(
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028",
                     "\u2029", "\u00e9", "\U0001F600", "\U00010348", "/"]),
    st.characters())
strings = st.text(_chars, max_size=12)
ints = st.one_of(st.integers(),
                 st.integers(min_value=-10**60, max_value=10**60),
                 st.sampled_from([0, -1, 2**63, -2**63 - 1, 2**64, 10**99]))
scalars = st.one_of(strings, ints, st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=100, deadline=None)
@given(values)
@example({})
@example([[], (), {}])
@example({"a": {}, "b": [], "c": ()})
@example({"a": {"b": {"c": [[], {}, [{"d": []}]]}}})
@example(("", 0, True, False, None))
def test_json_text_is_json_dumps_indent_2(obj):
    assert json_text(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    1.5, {1, 2}, {"a": [0.0]}, [set()], {"a": frozenset()}, b"x", object(),
    {1: "int key"}, {("t",): "tuple key"},
])
def test_json_text_rejects_other_types(obj):
    with pytest.raises(TypeError):
        json_text(obj)


def _bound_payloads(u, names):
    ev = Evaluator(u)
    for name in names:
        target = Ref(name)
        results = [ev.bound_cat(target, f) for f in u.families.values()]
        results += [ev.bound_gd(target), ev.bound_cd(target), ev.bound_tc(target)]
        for r in results:
            yield r.to_json()


_CERTIFY = {"GluingSetup": apps.certify_gluing,
            "DoubleSetup": apps.certify_double,
            "BranchedSetup": apps.certify_branched}


def test_json_text_on_nested_payloads():
    u, diags = dsl.load_text(nested_text(12, 3), dsl.load_prelude())
    assert not diags
    payloads = list(_bound_payloads(u, ["N12", "N6", "B0"]))
    assert len(payloads) == 18
    for payload in payloads:
        assert json_text(payload) == oracle(payload)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.catb")),
                         ids=lambda p: p.stem)
def test_json_text_on_fixture_payloads(path):
    u, diags = dsl.load_text(path.read_text(encoding="utf-8"), dsl.load_prelude())
    assert not diags
    seen = 0
    for payload in _bound_payloads(u, sorted(u.group_names())):
        assert json_text(payload) == oracle(payload)
        seen += 1
    for setup in u.setups.values():
        try:
            cert = _CERTIFY[type(setup).__name__](u, setup)
        except apps.PreconditionError:
            continue
        payload = cert.to_json()
        assert json_text(payload) == oracle(payload)
        seen += 1
    assert seen >= 6 * len(u.group_names())


# -- one trace walk and one write per query --------------------------------


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ("bound", "--target", "FC", "--family", "Am", EXAMPLES),
    ("tc", "--target", "ZZ", EXAMPLES),
], ids=["bound", "tc"])
def test_bound_query_walks_the_trace_once(monkeypatch, argv, fmt):
    walks = []
    nodes = DerivationNode.nodes

    def counted(self):
        walks.append(self)
        return nodes(self)

    monkeypatch.setattr(DerivationNode, "nodes", counted)
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv) + ["--format", fmt]) == 0
    monkeypatch.undo()
    assert len(walks) == 1
    assert stdout.writes == 1
    out = stdout.getvalue()
    if fmt == "json":
        assert out == oracle(json.loads(out)) + "\n"
    else:
        assert out.startswith(("cat[Am] <= ", "tc <= ")) and "\ntrace:\n" in out

