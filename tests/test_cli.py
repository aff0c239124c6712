import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from catbound import cli, dsl, engine
from catbound.cli import main

from genmodels import nested_text

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLES = str(FIXTURES / "examples.catb")
SQUARE = str(FIXTURES / "square_coxeter.catb")
BAD_POLY = str(FIXTURES / "z4_polygon.catb")
DOUBLE_MAX = str(FIXTURES / "double_max.catb")
BRANCHED = str(FIXTURES / "branched_five.catb")
PRELUDE = str(dsl.prelude_path())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- bound / tc -----------------------------------------------------------


def test_bound_finite(capsys):
    code, out, err = run(capsys, "bound", "--target", "ZZ",
                         "--family", "Tr", EXAMPLES)
    assert code == 0 and not err
    assert out.splitlines()[0] == "cat[Tr] <= 1"
    assert "trace:" in out and "rec-max" in out


def test_bound_family_case_insensitive(capsys):
    code, out, _ = run(capsys, "bound", "--target", "Am46",
                       "--family", "fin", EXAMPLES)
    assert code == 0
    assert out.splitlines()[0] == "cat[Fin] <= 1"


def test_bound_infinite_exits_two(capsys):
    code, out, _ = run(capsys, "bound", "--target", "Z4",
                       "--invariant", "gd")
    assert code == 2
    assert out.splitlines()[0] == "gd <= inf"


def test_bound_prelude_only(capsys):
    code, out, _ = run(capsys, "bound", "--target", "Z", "--family", "Am")
    assert code == 0
    assert out.splitlines()[0] == "cat[Am] <= 0"


def test_bound_missing_family(capsys):
    code, _, err = run(capsys, "bound", "--target", "Z", EXAMPLES)
    assert code == 1
    assert "error: --family is required" in err


def test_bound_unknown_family_lists_known(capsys):
    code, _, err = run(capsys, "bound", "--target", "Z",
                       "--family", "Huge", EXAMPLES)
    assert code == 1
    assert "unknown family 'Huge'" in err and "Am" in err


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_bound_ambiguous_family_names_its_matches(capsys, tmp_path, fmt):
    model = tmp_path / "am.catb"
    model.write_text("family AM = custom { amenable = yes; }\n", encoding="utf-8")
    assert run(capsys, "bound", "--target", "Z", "--family", "am",
               "--format", fmt, str(model)) == (
        1, "", "error: family 'am' is ambiguous (matches AM, Am)\n")
    code, out, _ = run(capsys, "bound", "--target", "Z", "--family", "AM", str(model))
    assert code == 0 and out.startswith("cat[AM] <= ")


def test_bound_unresolved_target(capsys):
    code, _, err = run(capsys, "bound", "--target", "Nope",
                       "--family", "Am", EXAMPLES)
    assert code == 1
    assert "unresolved target" in err


def test_tc(capsys):
    code, out, _ = run(capsys, "tc", "--target", "ZZ", EXAMPLES)
    assert code == 0
    assert out.splitlines()[0] == "tc <= 2"
    assert "tc-gcw" in out


def test_json_outputs_are_reproducible(capsys):
    args = ("bound", "--target", "Am46", "--family", "Fin",
            "--format", "json", EXAMPLES)
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["value"] == 1
    trace = payload["trace"]
    assert trace["nodes"][trace["root"]]["rule"] == "rec-sum"
    assert trace["root"] == len(trace["nodes"]) - 1


def test_plus_one_shifts_only_the_top_value(capsys):
    _, plain, _ = run(capsys, "bound", "--target", "Am46", "--family", "Fin",
                      "--format", "json", EXAMPLES)
    _, shifted, _ = run(capsys, "bound", "--target", "Am46", "--family", "Fin",
                        "--format", "json", "--plus-one", EXAMPLES)
    a, b = json.loads(plain), json.loads(shifted)
    assert a["value"] == 1 and b["value"] == 2
    assert a["trace"] == b["trace"]
    _, text, _ = run(capsys, "bound", "--target", "Am46", "--family", "Fin",
                     "--plus-one", EXAMPLES)
    assert text.splitlines()[0] == "cat[Fin] <= 2  (+1 convention)"


def test_shift_cites_the_amount_it_adds(capsys, tmp_path):
    model = tmp_path / "x.catb"
    model.write_text("gcw X { contractible = assert; dim 0 : [Z4, Z]; "
                     "dim 1 : [Z2]; dim 2 : [Z]; }\n", encoding="utf-8")
    code, out, _ = run(capsys, "bound", "--target", "X", "--family", "Am",
                       str(model))
    assert code == 0
    # both dimensions take the sum arm, which shifts by 1, not by i
    assert [line.strip() for line in out.splitlines() if "plus =" in line] == [
        "plus = 1  (1-cell shifted by 1)", "plus = 1  (2-cell shifted by 1)"]
    code, out, _ = run(capsys, "bound", "--target", "X", "--invariant", "gd",
                       str(model))
    assert "plus = 3  (2-cell shifted by 2)" in out


def test_shared_nodes_print_once(capsys, tmp_path):
    model = tmp_path / "nested.catb"
    model.write_text(nested_text(12, 3), encoding="utf-8")
    args = ("bound", "--target", "N12", "--invariant", "cd", str(model))
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    nodes = json.loads(out)["trace"]["nodes"]
    edges = sum(len(n["premises"]) for n in nodes)
    code, out, _ = run(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["cd <= 2", "trace:"]
    trace = lines[2:]
    root = nodes[-1]
    assert trace[0] == f"  {root['rule']} = {root['value']}  ({root['cite']})"
    assert len(trace) <= len(nodes) + edges
    # each shared node is written out once, tagged with its JSON index,
    # before any line that refers back to it
    tagged = set()
    for line in trace:
        ref = re.fullmatch(r" +see #(\d+)", line)
        if ref:
            assert int(ref.group(1)) in tagged, line
            continue
        tag = re.search(r"  #(\d+)$", line)
        if tag:
            k = int(tag.group(1))
            assert k not in tagged
            tagged.add(k)
            assert line.strip().startswith(f"{nodes[k]['rule']} = {nodes[k]['value']}  (")
    assert tagged


# -- develop / check-curvature --------------------------------------------


def test_develop_text(capsys):
    code, out, _ = run(capsys, "develop", "--target", "Am46", EXAMPLES)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("ball around the base cell of Am46, radius 2 "
                        "(truncated at the frontier)")
    assert lines[1] == "cells: dim 0: 7, dim 1: 6"


def test_develop_json(capsys):
    code, out, _ = run(capsys, "develop", "--target", "Am46",
                       "--radius", "1", "--format", "json", EXAMPLES)
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "Am46"
    assert payload["radius"] == 1
    assert payload["complete"] is False
    assert payload["stabilizers_consistent"] is True
    assert len(payload["cells"]) == 5  # 3 vertices, 2 edges
    assert {c["kind"] for c in payload["cells"]} == \
        {"vertex-left", "vertex-right", "edge"}


def test_develop_polygon_default_radius(capsys):
    # the default radius is 1 for a polygon (2 for a graph of groups,
    # as test_develop_text pins); polygon stars exist only to radius 1
    code, out, err = run(capsys, "develop", "--target", "SQ", SQUARE)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [
        "ball around the base cell of SQ, radius 1 (truncated at the frontier)",
        "cells: dim 0: 4, dim 1: 12, dim 2: 9"]
    code, out, err = run(capsys, "develop", "--target", "SQ",
                         "--format", "json", SQUARE)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["radius"] == 1
    assert len(payload["cells"]) == 25
    assert payload["stabilizers_consistent"] is True
    explicit = run(capsys, "develop", "--target", "SQ", "--radius", "1",
                   "--format", "json", SQUARE)
    assert explicit == (0, out, "")


def test_develop_radius_error(capsys):
    code, _, err = run(capsys, "develop", "--target", "Am46",
                       "--radius", "9", EXAMPLES)
    assert code == 1
    assert "radius" in err


def test_develop_errors_show_no_python_objects(capsys, tmp_path):
    model = tmp_path / "lone.catb"
    model.write_text("graph G { vertex v = Z x Z; }\n", encoding="utf-8")
    code, out, err = run(capsys, "develop", "--target", "G", str(model))
    assert (code, out) == (1, "")
    assert err == "error: graph G: vertex v must name a concrete group\n"


def test_check_curvature_holds(capsys):
    code, out, _ = run(capsys, "check-curvature", "--target", "SQ", SQUARE)
    assert code == 0
    assert out.strip() == "link condition holds for SQ"


def test_check_curvature_fails_conclusively(capsys):
    # a computed "no" is still a conclusive answer: exit 0
    code, out, _ = run(capsys, "check-curvature", "--target", "BAD", BAD_POLY)
    assert code == 0
    assert "link condition fails for BAD at vertex 0" in out
    assert "{0, 2}" in out


def test_check_curvature_json(capsys):
    code, out, _ = run(capsys, "check-curvature", "--target", "BAD",
                       "--format", "json", BAD_POLY)
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["vertex"] == 0
    assert payload["witness"] == [0, 2]


def test_check_curvature_wrong_kind(capsys):
    code, _, err = run(capsys, "check-curvature", "--target", "Am46", EXAMPLES)
    assert code == 1
    assert "not a polygon" in err


# -- certify --------------------------------------------------------------


def test_certify_double(capsys):
    code, out, _ = run(capsys, "certify", "double", "--target", "DblMax",
                       DOUBLE_MAX)
    assert code == 0
    assert out.splitlines()[0] == "conclusion: volume_vanishes"
    assert "category bound: 3" in out


def test_certify_kind_after_flags(capsys):
    # the file may trail the options; kind and file are sorted out
    code, out, _ = run(capsys, "certify", "--target", "BrFive",
                       "branched", BRANCHED)
    assert code == 0
    assert "volume_vanishes" in out


def test_certify_without_kind(capsys):
    code, out, _ = run(capsys, "certify", "--target", "BrFive", BRANCHED)
    assert code == 0
    assert "volume_vanishes" in out


def test_certify_kind_mismatch(capsys):
    code, _, err = run(capsys, "certify", "gluing", "--target", "DblMax",
                       DOUBLE_MAX)
    assert code == 1
    assert "is a double, not a gluing" in err


def test_certify_unknown_setup(capsys):
    code, _, err = run(capsys, "certify", "--target", "Nope", DOUBLE_MAX)
    assert code == 1
    assert "unknown setup 'Nope' (known: DblMax)" in err


def test_certify_precondition_is_an_error(capsys):
    code, _, err = run(capsys, "certify", "branched", "--target", "BrFive",
                       "--d", "3", BRANCHED)
    assert code == 1
    assert "requires d >= 4" in err


def test_certify_d_rejected_for_doubles(capsys):
    code, _, err = run(capsys, "certify", "--target", "DblMax", "--d", "5",
                       DOUBLE_MAX)
    assert code == 1
    assert "--d applies only to branched setups" in err


def test_certify_d_over_the_size_limit(capsys):
    # refused before a branched certificate builds d copies
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", "--target", "BrFive",
                         "--d", "1000000000", BRANCHED)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: --d: number of copies exceeds the limit of 10000\n"


def test_certify_inconclusive_exits_two(capsys, tmp_path):
    text = Path(BRANCHED).read_text(encoding="utf-8")
    mutated = tmp_path / "no_pi1.catb"
    mutated.write_text(text.replace("assume pi1_injective;", ""),
                       encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--target", "BrFive", str(mutated))
    assert code == 2
    assert out.splitlines()[0] == "conclusion: inconclusive"
    assert "[failed] (i) wall pi1-injective" in out


GLUING_MISMATCH = """\
gluing GL { n = 4;
  piece A { group = F2; cat_am <= 2; boundary a : Z { pi1_injective = assert; } }
  piece B { group = F2; cat_am <= 2; boundary b : F2 x F2 { pi1_injective = assert; } }
  pair A.a - B.b; connected = assert; }
"""


def test_pairing_boundaries_with_different_groups_is_refused(capsys, tmp_path):
    model = tmp_path / "gluing.catb"
    model.write_text(GLUING_MISMATCH, encoding="utf-8")
    message = "pairing A.a - B.b joins boundaries with different groups"
    code, out, err = run(capsys, "validate", str(model))
    assert (code, out, err) == (1, "", f"{model}:1:1: {message}\n")
    code, out, err = run(capsys, "certify", "--target", "GL", str(model))
    assert (code, out, err) == (1, "", f"error: {model}:1:1: {message}\n")
    model.write_text(GLUING_MISMATCH.replace("F2 x F2", "Z"), encoding="utf-8")
    code, out, err = run(capsys, "certify", "--target", "GL", str(model))
    assert (code, err) == (0, "")
    assert out.startswith("conclusion: volume_vanishes\n")


def test_certify_json(capsys):
    code, out, _ = run(capsys, "certify", "--target", "DblMax",
                       "--format", "json", DOUBLE_MAX)
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "volume_vanishes"
    assert payload["value"] == 3
    assert payload["ledger"][0]["item"] == "connectedness of the glued space"


# -- validate -------------------------------------------------------------


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", EXAMPLES)
    assert code == 0
    assert out.startswith("ok: ")
    assert "groups" in out and "homomorphisms" in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "--format", "json", EXAMPLES)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"ok": True, "diagnostics": []}


def test_validate_long_chain(capsys, tmp_path):
    # the text of bench/workloads.chain_model("G", 10_000): the cycle
    # check keeps its own stack, so a chain far past the interpreter's
    # recursion limit validates
    chain = tmp_path / "chain.catb"
    chain.write_text("group G0 = Z;\n" + "".join(
        f"amalgam G{i} = G{i - 1} *[One] Z;\n" for i in range(1, 10_001)),
        encoding="utf-8")
    code, out, err = run(capsys, "validate", str(chain))
    assert (code, err) == (0, "")
    assert out == "ok: 10010 groups, 0 homomorphisms, 3 families, 0 setups\n"


def test_validate_long_cycle(capsys, tmp_path):
    # C0 = C4999 and Ci = C(i-1): one cycle through 5000 names, reported
    # once, where the walk from C0 (first in sorted order) closes it
    ring = tmp_path / "ring.catb"
    ring.write_text("group C0 = C4999;\n" + "".join(
        f"group C{i} = C{i - 1};\n" for i in range(1, 5000)), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(ring))
    cycle = ["C0"] + [f"C{i}" for i in range(4999, 0, -1)] + ["C0"]
    assert (code, out) == (1, "")
    assert err == f"{ring}:group C0: circular definition: {' -> '.join(cycle)}\n"


def test_validate_reports_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.catb"
    bad.write_text("group X = Nope * Nope;", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert not out
    assert "Nope" in err
    code, out, _ = run(capsys, "validate", "--format", "json", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["diagnostics"]
    # a fact-sheet contradiction is reported once, at the declaration
    bad.write_text("group G = cyclic(3) { trivial = yes; }", encoding="utf-8")
    code, out, _ = run(capsys, "validate", "--format", "json", str(bad))
    assert code == 1
    assert json.loads(out)["diagnostics"] == [
        {"loc": "1:1", "message": "declared trivial but has order 3"}]
    # an oversized polygon or complex is refused before it is built
    for text, message in (
            ("polygon P { d = 1000000000; vertex = Z; edge = Z; face = One; }",
             "1:17: number of sides exceeds the limit of 10000"),
            ("gcw X { dim 1000000000 : [Z]; }",
             "1:13: dimension exceeds the limit of 10000"),
            ("branched B { n = 4; d = 1000000000; piece = Z; wall = Z; "
             "core = One; }",
             "1:25: number of copies exceeds the limit of 10000"),
            # too deep to parse: a diagnostic, not an internal error
            ("group A = " + "(" * 400 + "Z" + ")" * 400 + ";",
             "1:111: parenthesis depth exceeds the limit of 100")):
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1 and not out
        assert err == f"{bad}:{message}\n"


def test_nesting_at_the_limit_loads_and_bounds(capsys, tmp_path):
    def nested(depth):
        return "group A = " + "(Z * " * depth + "Z" + ")" * depth + ";"
    model = tmp_path / "nested.catb"
    model.write_text(nested(dsl.NESTING_LIMIT), encoding="utf-8")
    assert run(capsys, "validate", str(model))[0] == 0
    for args, first in ((("--family", "Am"), "cat[Am] <= 1"),
                        (("--invariant", "gd"), "gd <= 1"),
                        (("--invariant", "cd"), "cd <= 1")):
        code, out, _ = run(capsys, "bound", "--target", "A", *args, str(model))
        assert (code, out.splitlines()[0]) == (0, first)
    code, out, _ = run(capsys, "tc", "--target", "A", str(model))
    assert (code, out.splitlines()[0]) == (0, "tc <= 2")
    model.write_text(nested(dsl.NESTING_LIMIT + 1), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(model))
    assert (code, out) == (1, "")
    assert err == f"{model}:1:511: parenthesis depth exceeds the limit of 100\n"


def test_load_errors_are_reported(capsys, tmp_path):
    code, _, err = run(capsys, "bound", "--target", "Z", "--family", "Am",
                       str(tmp_path / "missing.catb"))
    assert code == 1
    assert "error:" in err


def test_unreadable_files_are_named_by_their_normal_paths(capsys, tmp_path):
    given, named = f"{tmp_path}/.//missing.catb", tmp_path / "missing.catb"
    missing = f"[Errno 2] No such file or directory: '{named}'"
    assert run(capsys, "validate", given) == (1, "", f"error: {missing}\n")
    assert run(capsys, "validate", "--prelude", given) == (
        1, "", f"error: prelude: {missing}\n")
    assert run(capsys, "validate", f"{tmp_path}/./") == (
        1, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_model_that_is_not_utf8_is_a_positioned_diagnostic(capsys, tmp_path):
    model = tmp_path / "bad.catb"
    model.write_bytes(b"group A = Z;\n\xff\xfe bad\n")
    where = f"{model}:2:1: not UTF-8 text (byte 0xff)"
    code, out, err = run(capsys, "validate", str(model))
    assert (code, out, err) == (1, "", where + "\n")
    code, out, err = run(capsys, "validate", "--format", "json", str(model))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "diagnostics": [
        {"loc": "2:1", "message": "not UTF-8 text (byte 0xff)"}]}
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "bound", "--target", "A", "--family", "Am",
                             "--format", fmt, str(model))
        assert (code, out, err) == (1, "", f"error: {where}\n")
    # columns count characters, and line breaks are those of text mode
    model.write_bytes(b"group \xc3\xa9A = Z;\r\nZ\r\xc3 ")
    code, _, err = run(capsys, "validate", str(model))
    assert (code, err) == (1, f"{model}:3:1: not UTF-8 text (byte 0xc3)\n")
    model.write_bytes(b"group A = Z; group \xc3\xa9\xe9")
    code, _, err = run(capsys, "validate", str(model))
    assert (code, err) == (1, f"{model}:1:21: not UTF-8 text (byte 0xe9)\n")


def test_crlf_model_positions_match_lf(capsys, tmp_path):
    lf, crlf = tmp_path / "lf.catb", tmp_path / "crlf.catb"
    lf.write_bytes(b"group A = Z;\n  group @;\n")
    crlf.write_bytes(b"group A = Z;\r\n  group @;\r\n")
    _, _, err_lf = run(capsys, "validate", str(lf))
    _, _, err_crlf = run(capsys, "validate", str(crlf))
    assert err_lf == f"{lf}:2:9: stray character '@'\n"
    assert err_crlf == f"{crlf}:2:9: stray character '@'\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "catbound", "validate", EXAMPLES],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok: ") and proc.stderr == ""


# -- prelude control ------------------------------------------------------


def test_prelude_env_override(capsys, tmp_path, monkeypatch):
    alt = tmp_path / "alt.catb"
    alt.write_text("""
group One { trivial = yes; }
group W { gd <= 7 by "hand computation"; }
""", encoding="utf-8")
    monkeypatch.setenv("CATBOUND_PRELUDE", str(alt))
    code, out, _ = run(capsys, "bound", "--target", "W", "--invariant", "gd")
    assert code == 0
    assert out.splitlines()[0] == "gd <= 7"
    # and the standard prelude is really gone
    code, _, err = run(capsys, "bound", "--target", "Z2", "--family", "Am")
    assert code == 1


def test_prelude_flag_beats_env(capsys, tmp_path, monkeypatch):
    broken = tmp_path / "broken.catb"
    broken.write_text("group {", encoding="utf-8")
    good = tmp_path / "good.catb"
    good.write_text('group V { gd <= 2 by "hand"; }', encoding="utf-8")
    monkeypatch.setenv("CATBOUND_PRELUDE", str(broken))
    code, out, _ = run(capsys, "bound", "--target", "V", "--invariant", "gd",
                       "--prelude", str(good))
    assert code == 0
    assert out.splitlines()[0] == "gd <= 2"


def test_prelude_file_read_on_every_call(capsys, tmp_path):
    alt = tmp_path / "alt.catb"
    args = ("bound", "--target", "V", "--invariant", "gd", "--prelude", str(alt))
    for bound in (2, 3, 2):
        alt.write_text(f'group V {{ gd <= {bound} by "hand"; }}', encoding="utf-8")
        code, out, _ = run(capsys, *args)
        assert (code, out.splitlines()[0]) == (0, f"gd <= {bound}")


def test_broken_prelude_fails_every_call(capsys, tmp_path):
    broken = tmp_path / "broken.catb"
    for text, problem in (("group {", "1:7: expected 'group name', found '{'"),
                          ("group X = Y;", "group X: unresolved group name 'Y'")):
        broken.write_text(text, encoding="utf-8")
        for _ in range(2):
            assert run(capsys, "validate", "--prelude", str(broken)) == (
                1, "", f"error: prelude: prelude {broken} has problems: "
                       f"{problem}\n")
    # the standard prelude is unaffected
    assert run(capsys, "validate")[0] == 0


def test_prelude_setup_is_checked_again_when_a_model_redeclares_its_hom(
        capsys, tmp_path):
    prelude = tmp_path / "prelude.catb"
    prelude.write_text("""
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
""", encoding="utf-8")
    model = tmp_path / "model.catb"
    model.write_text("hom b : Z2 -> Z4 { 1 -> 2; }\n", encoding="utf-8")
    common = ("--prelude", str(prelude), str(model))
    where = f"{model}:10:1: embed: hom 'b' should map Z2 -> V"
    assert run(capsys, "validate", *common) == (1, "", where + "\n")
    code, out, err = run(capsys, "validate", "--format", "json", *common)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"ok": False, "diagnostics": [
        {"loc": "10:1", "message": "embed: hom 'b' should map Z2 -> V"}]}
    for fmt in ("text", "json"):
        assert run(capsys, "certify", "--target", "B", "--format", fmt, *common) == (
            1, "", f"error: {where}\n")
    # over the prelude alone the embeddings are checked and hold
    code, out, _ = run(capsys, "certify", "--target", "B", "--prelude", str(prelude))
    assert code == 2 and "[verified] (ii) adjacent copies meet exactly" in out


def test_face_hom_that_no_longer_fits_its_edge_group_is_a_diagnostic(
        capsys, tmp_path):
    # the face hom f was built into E = cyclic(4); the model shrinks E,
    # so f's images 2 and 3 lie outside it
    prelude = tmp_path / "prelude.catb"
    prelude.write_text(dsl.prelude_path().read_text(encoding="utf-8") + """
group E = cyclic(4);
group V = cyclic(8);
group F = cyclic(4);
hom f : F -> E { 1 -> 1; }
""", encoding="utf-8")
    model = tmp_path / "model.catb"
    model.write_text("""group E = cyclic(2);
hom o : E -> V { 1 -> 4; }
polygon P { d = 4; vertex = V; edge = E; face = F;
  edge_maps = [(o, o), (o, o), (o, o), (o, o)]; face_maps = [f, f, f, f]; }
""", encoding="utf-8")
    common = ("--prelude", str(prelude), str(model))
    problems = [("hom f", "image 2 out of range for target"),
                ("polygon P", "hom 'f' does not fit F -> E")]
    lines = "".join(f"{model}:{loc}: {message}\n" for loc, message in problems)
    assert run(capsys, "validate", *common) == (1, "", lines)
    code, out, err = run(capsys, "validate", "--format", "json", *common)
    assert (code, err) == (1, "")
    assert json.loads(out)["diagnostics"] == [
        {"loc": loc, "message": message} for loc, message in problems]
    for fmt in ("text", "json"):
        assert run(capsys, "check-curvature", "--target", "P", "--format", fmt,
                   *common) == (1, "", "error: " + lines)


def test_each_problem_is_reported_once(capsys, tmp_path):
    # a name unresolved twice in one definition and in one graph, a loop
    # edge whose maps meet the same vertex twice, and a polygon with one
    # ill-fitting hom on every edge
    model = tmp_path / "model.catb"
    model.write_text("""group ZZ = Q * Q;
graph G { vertex a = Q; vertex b = Q; edge a - b : One; }
graph L { vertex a = F2; edge a - a : Z with (h, k); }
group V4 = product(Z2, Z2);
group C1 = cyclic(1);
hom a : Z2 -> Z2 { 1 -> 1; }
hom t : C1 -> Z2 { 0 -> 0; }
polygon P { d = 4; vertex = V4; edge = Z2; face = C1;
  edge_maps = [(a, a), (a, a), (a, a), (a, a)]; face_maps = [t, t, t, t]; }
""", encoding="utf-8")
    problems = [
        ("group ZZ", "unresolved group name 'Q'"),
        ("graph G", "unresolved group name 'Q'"),
        ("graph L edge 0", "edge group must name a concrete group when maps are given"),
        ("graph L edge 0", "vertex a must name a concrete group when maps are given"),
        ("polygon P", "hom 'a' should map Z2 -> V4")]
    lines = "".join(f"{model}:{loc}: {message}\n" for loc, message in problems)
    assert run(capsys, "validate", str(model)) == (1, "", lines)
    code, out, err = run(capsys, "validate", "--format", "json", str(model))
    assert (code, err) == (1, "")
    assert json.loads(out)["diagnostics"] == [
        {"loc": loc, "message": message} for loc, message in problems]


# -- argument handling ----------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main(["bound"]) == 1          # missing --target
    capsys.readouterr()
    assert main(["frobnicate"]) == 1     # unknown subcommand
    capsys.readouterr()
    assert main(["bound", "--target", "Z", "--family", "Am",
                 "x.catb", "extra"]) == 1
    _, err = capsys.readouterr().out, capsys.readouterr().err
    # each message as the top-level parser words it, whether or not the
    # first argument names a subcommand
    choices = "'bound', 'tc', 'develop', 'check-curvature', 'certify', 'validate'"
    for argv, message in (
            ((), "catbound: the following arguments are required: command"),
            (("frobnicate",), "catbound: argument command: invalid choice: "
                              f"'frobnicate' (choose from {choices})"),
            (("--format", "json", "bound", "--target", "Z"),
             f"catbound: argument command: invalid choice: 'json' (choose from {choices})"),
            (("bound",), "catbound bound: the following arguments are required: --target"),
            (("bound", "--target", "Z", "--bogus"), "unrecognized arguments: --bogus"),
            (("tc", "--target", "Z", "--family", "Am"),
             "unrecognized arguments: --family"),
            (("bound", "--target", "Z", "--family", "Am", "x.catb", "extra"),
             "unrecognized arguments: extra")):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv


def test_shared_parser_keeps_no_state(capsys, monkeypatch):
    calls = [
        ("bound", "--target", "Am46", "--family", "Am", EXAMPLES),
        ("bound", "--target", "ZZ", "--invariant", "gd", EXAMPLES),
        ("certify", "double", "--target", "DblMax", DOUBLE_MAX),
        ("certify", "--target", "BrFive", BRANCHED),
        ("bound", "--family", "Am", EXAMPLES),          # no --target
        ("bound", "--target", "ZZ", "--family", "Tr", EXAMPLES),
    ]

    def first_in_process(argv):
        cli._build_parser.cache_clear()
        cli._subcommand_parser.cache_clear()
        dsl._kept_loads.clear()
        return run(capsys, *argv)

    expected = [first_in_process(argv) for argv in calls]
    assert [code for code, _, _ in expected] == [0, 0, 0, 0, 1, 0]
    # again, with the prelude and examples.catb kept: only the two other
    # model texts are parsed, once each
    parsed = []
    parse = dsl.try_parse
    monkeypatch.setattr(dsl, "try_parse", lambda text: parsed.append(text) or parse(text))
    assert [run(capsys, *argv) for argv in calls] == expected
    assert parsed == [Path(p).read_text(encoding="utf-8") for p in (DOUBLE_MAX, BRANCHED)]


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_a_gluing_with_no_pieces_is_refused(capsys, tmp_path, fmt):
    model = tmp_path / "empty.catb"
    model.write_text("gluing G { n = 4; connected = assert; }\n", encoding="utf-8")
    message = "a gluing needs at least one piece"
    code, out, err = run(capsys, "validate", "--format", fmt, str(model))
    assert code == 1
    if fmt == "json":
        assert json.loads(out) == {"ok": False, "diagnostics": [
            {"loc": "1:1", "message": message}]}
    else:
        assert (out, err) == ("", f"{model}:1:1: {message}\n")
    assert run(capsys, "certify", "--target", "G", "--format", fmt, str(model)) == (
        1, "", f"error: {model}:1:1: {message}\n")


def test_a_model_file_rewritten_between_calls_is_read_again(capsys, tmp_path):
    model = tmp_path / "m.catb"
    argv = ("bound", "--target", "G", "--invariant", "gd", str(model))
    for text, first in (("group G = Z x Z;\n", "gd <= 2"),
                        ("group G = Z x Z x Z;\n", "gd <= 3"),
                        ("group G = Z x Z;\n", "gd <= 2"),
                        ("group G = Z x Z\n", None)):
        model.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv)
        if first is None:
            assert (code, out) == (1, "") and err.startswith(f"error: {model}:2:1: ")
        else:
            assert (code, out.splitlines()[0], err) == (0, first, "")


def test_a_prelude_file_rewritten_between_calls_is_read_again(capsys, tmp_path):
    # the model's load over one prelude is not served over another
    prelude, model = tmp_path / "p.catb", tmp_path / "m.catb"
    model.write_text("group H = G x G;\n", encoding="utf-8")
    argv = ("bound", "--target", "H", "--invariant", "gd", "--prelude", str(prelude),
            str(model))
    for text, first in (("group G { gd <= 1; }\n", "gd <= 2"),
                        ("group G { gd <= 2; }\n", "gd <= 4"),
                        ("group G { gd <= 1; }\n", "gd <= 2"),
                        ("group G = ;\n", None)):
        prelude.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv)
        if first is None:
            assert (code, out) == (1, "")
            assert err.startswith(f"error: prelude: prelude {prelude} has problems: 1:")
        else:
            assert (code, out.splitlines()[0], err) == (0, first, "")


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_a_graph_with_no_vertex_is_refused_at_its_declaration(capsys, tmp_path, fmt):
    model = tmp_path / "e.catb"
    model.write_text("group A;\n\n  graph E { }\n", encoding="utf-8")
    message = "graph needs at least one vertex"
    code, out, err = run(capsys, "validate", "--format", fmt, str(model))
    assert code == 1
    if fmt == "json":
        assert json.loads(out) == {"ok": False, "diagnostics": [
            {"loc": "3:3", "message": message}]}
    else:
        assert (out, err) == ("", f"{model}:3:3: {message}\n")


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_graph_shape_problems_are_positioned_at_the_declaration(capsys, tmp_path, fmt):
    model = tmp_path / "g.catb"
    model.write_text("group A;\n\n  graph G { vertex a = Z; vertex b = Z; }\n"
                     "graph H { vertex a = Z; vertex a = Z; }\n", encoding="utf-8")
    expected = [("3:3", "underlying graph is not connected"),
                ("4:1", "duplicate vertex id 'a'")]
    code, out, err = run(capsys, "validate", "--format", fmt, str(model))
    assert code == 1
    if fmt == "json":
        assert json.loads(out) == {"ok": False, "diagnostics": [
            {"loc": loc, "message": message} for loc, message in expected]}
    else:
        assert (out, err) == ("", "".join(f"{model}:{loc}: {message}\n"
                                          for loc, message in expected))


def test_certify_rejects_extra_words(capsys):
    code, _, err = run(capsys, "certify", "double", "--target", "DblMax",
                       DOUBLE_MAX, "surplus")
    assert code == 1
    assert "unexpected argument" in err


# -- every accepted option is read ----------------------------------------

# per subcommand: a run that succeeds, and each further option with a
# value under which it still succeeds; the base gives the positionals
OPTION_RUNS = {
    "bound": (("--target", "FC", "--family", "Am", EXAMPLES),
              (("--invariant", "cat"), ("--format", "json"),
               ("--prelude", PRELUDE), ("--plus-one",))),
    "tc": (("--target", "ZZ", EXAMPLES),
           (("--format", "json"), ("--prelude", PRELUDE), ("--plus-one",))),
    "develop": (("--target", "Am46", EXAMPLES),
                (("--radius", "1"), ("--format", "json"), ("--prelude", PRELUDE))),
    "check-curvature": (("--target", "SQ", SQUARE),
                        (("--format", "json"), ("--prelude", PRELUDE))),
    "certify": (("branched", "--target", "BrFive", BRANCHED),
                (("--d", "5"), ("--format", "json"), ("--prelude", PRELUDE))),
    "validate": ((EXAMPLES,), (("--format", "json"), ("--prelude", PRELUDE))),
}


def run_recording_reads(capsys, monkeypatch, argv):
    """main(argv), with the parsed arguments in a namespace that records
    every attribute read after parsing: the exit code and those names."""
    reads = set()
    parsed = []

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            if parsed:
                reads.add(name)
            return super().__getattribute__(name)

    parser = cli._subcommand_parser(argv[0])
    parse = parser.parse_known_args

    def parse_into_recorder(args):
        parsed.append(parse(args, Recorder()))
        return parsed[0]

    with monkeypatch.context() as m:
        m.setattr(parser, "parse_known_args", parse_into_recorder)
        code = main(list(argv))
    capsys.readouterr()
    return code, reads


@pytest.mark.parametrize("command", sorted(OPTION_RUNS))
def test_every_accepted_option_is_read(capsys, monkeypatch, command):
    actions = [a for a in cli._subcommand_parser(command)._actions if a.dest != "help"]
    base, options = OPTION_RUNS[command]
    given_somewhere = set()
    for extra in ((),) + options:
        argv = (command,) + tuple(extra) + base
        given = {a.dest for a in actions
                 if not a.option_strings or set(a.option_strings) & set(argv)}
        given_somewhere |= given
        code, reads = run_recording_reads(capsys, monkeypatch, argv)
        assert code in (0, 2), argv
        assert given <= reads, (argv, given - reads)
    # a new option needs a run here
    assert given_somewhere == {a.dest for a in actions}


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_plus_one_is_refused_where_nothing_reads_it(capsys, fmt):
    for argv in (("develop", "--target", "Am46", EXAMPLES),
                 ("check-curvature", "--target", "SQ", SQUARE),
                 ("certify", "--target", "DblMax", DOUBLE_MAX),
                 ("validate", EXAMPLES)):
        assert run(capsys, *argv, "--format", fmt, "--plus-one") == (
            1, "", "error: unrecognized arguments: --plus-one\n"), argv


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("invariant", ("gd", "cd"))
def test_family_is_refused_without_cat(capsys, fmt, invariant):
    for family in ("Am", "Bogus"):
        assert run(capsys, "bound", "--target", "FC", "--invariant", invariant,
                   "--family", family, "--format", fmt, EXAMPLES) == (
            1, "", "error: --family applies only to cat bounds\n")


def test_unknown_target_is_one_error_everywhere(capsys):
    want = (1, "", "error: unresolved target: unresolved group name 'Nope'\n")
    for argv in (("bound", "--family", "Am"), ("bound", "--invariant", "cd"),
                 ("tc",), ("develop",), ("check-curvature",)):
        for fmt in ("text", "json"):
            assert run(capsys, *argv, "--target", "Nope", "--format", fmt,
                       EXAMPLES) == want, argv


@pytest.mark.parametrize("rule, argv", (
    ("_cw_ladder", ("bound", "--target", "FC", "--family", "Am")),
    ("_tc_gcw", ("tc", "--target", "ZZ")),
))
def test_key_error_inside_the_engine_is_internal(capsys, monkeypatch, rule, argv):
    # only the target's own resolution reads as an unresolved target
    def lost(self, *args):
        raise KeyError("unresolved group name 'Ghost'")

    monkeypatch.setattr(engine.Evaluator, rule, lost)
    assert run(capsys, *argv, EXAMPLES) == (
        1, "", "error: internal: KeyError: \"unresolved group name 'Ghost'\"\n")


# -- the guard against unexpected exceptions -------------------------------


def test_unexpected_exception_is_a_diagnostic(capsys, tmp_path):
    # `bound --invariant gd` nests one evaluation per link and survives
    # about 330 links on the default stack; at 600 the RecursionError
    # must become a one-line diagnostic with exit 1
    chain = tmp_path / "chain.catb"
    chain.write_text("".join(
        f"amalgam G{i} = {f'G{i - 1}' if i > 1 else 'Z'} *[One] Z;\n"
        for i in range(1, 601)), encoding="utf-8")
    code, out, err = run(capsys, "bound", "--target", "G600",
                         "--invariant", "gd", str(chain))
    assert code == 1 and not out
    assert err.startswith("error: internal: RecursionError: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


class ClosedPipe(io.StringIO):
    'A stdout whose reader has gone.'

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_quietly(capsys, monkeypatch, tmp_path):
    model = tmp_path / "nested.catb"
    model.write_text(nested_text(12, 3), encoding="utf-8")
    argv = ["tc", "--target", "N12", str(model)]
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == 1
    # a stdout on a file descriptor is pointed at the null device, so
    # the interpreter's flush at exit cannot fail again
    read_end, write_end = os.pipe()
    stdout = ClosedPipe()
    stdout.fileno = lambda: write_end
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(argv) == 1
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(read_end)
        os.close(write_end)
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")
