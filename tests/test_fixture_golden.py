"""Byte-for-byte stdout and exit codes of every scripts/run_fixtures.py
invocation, in text and JSON, against transcripts in fixtures/golden/:
the invocations run in turn from no kept load, then all once more in
the same process, with the load of every fixture text kept.

Run this file as a script to rewrite the transcripts after a deliberate
output change; it first prints, per format, each invocation whose stdout
or exit code changed, or "unchanged".
"""

import contextlib
import importlib.util
import io
import os
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from catbound import dsl
from catbound.cli import main as cli

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = FIXTURES / "golden"


def _invocations():
    path = HERE.parent / "scripts" / "run_fixtures.py"
    spec = importlib.util.spec_from_file_location("run_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INVOCATIONS


def runs(fmt: str) -> List[Tuple[str, str, int]]:
    'Every invocation run from the fixture directory: its line, stdout and exit code.'
    out = []
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        for _, argv in _invocations():
            argv = list(argv) + (["--format", "json"] if fmt == "json" else [])
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli(argv)
            out.append((f"$ catbound {' '.join(argv)}", stdout.getvalue(), code))
    finally:
        os.chdir(cwd)
    return out


def transcript(fmt: str, ran: Optional[List[Tuple[str, str, int]]] = None) -> str:
    'The transcript of runs(fmt): each invocation, stdout then exit code.'
    return "\n".join(f"{line}\n{stdout}-> exit {code}\n"
                     for line, stdout, code in (ran or runs(fmt)))


def read_transcript(text: str) -> Dict[str, Tuple[str, int]]:
    'The stdout and exit code of each invocation line of a transcript.'
    out = {}
    for part in re.split(r"(?m)^(?=\$ catbound )", text):
        if not part:
            continue
        line, _, rest = part.partition("\n")
        stdout, _, code = rest.rstrip("\n").rpartition("-> exit ")
        out[line] = (stdout, int(code))
    return out


def changes(fmt: str, old: str, ran: List[Tuple[str, str, int]]) -> List[str]:
    'A line per invocation whose stdout or exit code differs from `old`.'
    before = read_transcript(old)
    out = []
    for line, stdout, code in ran:
        if line not in before:
            out.append(f"{fmt}: new: {line} (exit {code})")
            continue
        old_stdout, old_code = before[line]
        what = [w for w, moved in (("stdout", old_stdout != stdout),
                                   (f"exit {old_code} -> {code}", old_code != code))
                if moved]
        if what:
            out.append(f"{fmt}: {', '.join(what)}: {line}")
    return out or [f"{fmt}: unchanged"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fixture_invocations_match_golden(fmt, monkeypatch):
    expected = (GOLDEN / f"run_fixtures.{fmt}.txt").read_text(encoding="utf-8")
    assert transcript(fmt) == expected
    # again in the same process, with the load of every fixture text kept
    misses = dsl._parsed.cache_info().misses
    built = []
    build = dsl.build_universe
    monkeypatch.setattr(dsl, "build_universe",
                        lambda model, base=None: built.append(model) or build(model, base))
    assert transcript(fmt) == expected
    assert dsl._parsed.cache_info().misses == misses
    assert built == []


def test_transcripts_read_back():
    ran = [("$ catbound a", "x\n\n$ not a header\n", 0), ("$ catbound b", "", 2)]
    text = transcript("text", ran)
    assert read_transcript(text) == {"$ catbound a": ("x\n\n$ not a header\n", 0),
                                     "$ catbound b": ("", 2)}
    assert changes("text", text, ran) == ["text: unchanged"]
    moved = [("$ catbound a", "y\n", 1), ("$ catbound b", "", 2), ("$ catbound c", "", 0)]
    assert changes("text", text, moved) == [
        "text: stdout, exit 0 -> 1: $ catbound a", "text: new: $ catbound c (exit 0)"]


if __name__ == "__main__":
    for fmt in ("text", "json"):
        path = GOLDEN / f"run_fixtures.{fmt}.txt"
        ran = runs(fmt)
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        print("\n".join(changes(fmt, old, ran)))
        path.write_text(transcript(fmt, ran), encoding="utf-8")
