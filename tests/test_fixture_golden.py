"""Byte-for-byte stdout and exit codes of every scripts/run_fixtures.py
invocation, in text and JSON, against transcripts in fixtures/golden/.

Run this file as a script to rewrite the transcripts after a deliberate
output change.
"""

import contextlib
import importlib.util
import io
import os
from pathlib import Path

import pytest

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


def transcript(fmt: str) -> str:
    'Every invocation run from the fixture directory, stdout then exit code.'
    parts = []
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        for _, argv in _invocations():
            argv = list(argv) + (["--format", "json"] if fmt == "json" else [])
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli(argv)
            parts.append(f"$ catbound {' '.join(argv)}\n{out.getvalue()}"
                         f"-> exit {code}\n")
    finally:
        os.chdir(cwd)
    return "\n".join(parts)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fixture_invocations_match_golden(fmt):
    expected = (GOLDEN / f"run_fixtures.{fmt}.txt").read_text(encoding="utf-8")
    assert transcript(fmt) == expected


if __name__ == "__main__":
    for fmt in ("text", "json"):
        (GOLDEN / f"run_fixtures.{fmt}.txt").write_text(transcript(fmt),
                                                        encoding="utf-8")
