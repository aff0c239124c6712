"""Help and usage errors of the command line: stdout, stderr and exit
code of `catbound -h`, of each subcommand's `-h`, and of argvs that
argparse refuses, byte for byte against fixtures/golden/cli_usage.txt;
and how many argument parsers a call builds.

Run this file as a script to rewrite the transcript after a deliberate
change of help or usage text; it first prints each argv whose output
changed, or "unchanged".
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

import catbound
from catbound.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "cli_usage.txt"
SRC = Path(catbound.__file__).resolve().parent.parent
COMMANDS = ("bound", "tc", "develop", "check-curvature", "certify", "validate")

ARGVS = [("-h",)] + [(name, "-h") for name in COMMANDS] + [
    (),
    ("frobnicate",),
    ("--format", "json", "bound", "--target", "Z"),
    ("--foo", "bound", "--target", "Z"),
    ("bound",),
    ("bound", "--target", "Z", "--bogus"),
    ("tc", "--target", "Z", "--family", "Am"),
    ("bound", "--target", "Z", "--family", "Am", "x.catb", "extra"),
    ("check-curvature", "--target"),
    ("develop", "--target", "Z", "--radius", "two"),
    ("certify", "--target", "B", "--bogus", "x.catb"),
    ("validate", "--format", "yaml"),
]


def runs() -> List[Tuple[str, str]]:
    'Each argv in ARGVS run in this process, at 80 columns: its line and its record.'
    out = []
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"        # argparse wraps help to the terminal
    try:
        for argv in ARGVS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(list(argv))
                except SystemExit as exc:       # -h prints and exits
                    code = exc.code
            out.append((f"$ catbound {' '.join(argv)}".rstrip(),
                        f"{stdout.getvalue()}-- stderr\n{stderr.getvalue()}-> exit {code}\n"))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return out


def transcript(ran: List[Tuple[str, str]]) -> str:
    return "\n".join(f"{line}\n{record}" for line, record in ran)


def test_help_and_usage_errors_match_golden():
    assert transcript(runs()) == GOLDEN.read_text(encoding="utf-8")


def parsers_built(*argv: str) -> int:
    'ArgumentParsers constructed by main(argv) in a fresh interpreter.'
    code = ("import argparse, contextlib, io, sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from catbound.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    main(sys.argv[1:])\n"
            "print(len(built))\n")
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return int(done.stdout)


@pytest.mark.parametrize("argv, built", [
    (("bound", "--target", "Z"), 1),
    (("validate",), 1),
    (("frobnicate",), 1 + len(COMMANDS)),
    ((), 1 + len(COMMANDS)),
])
def test_a_named_subcommand_builds_its_parser_alone(argv, built):
    assert parsers_built(*argv) == built


if __name__ == "__main__":
    ran = runs()
    before = GOLDEN.read_text(encoding="utf-8") if GOLDEN.exists() else ""
    kept = set(re.split(r"(?m)^\n(?=\$ catbound)", before))
    moved = [line for line, record in ran if f"{line}\n{record}" not in kept]
    print("\n".join(f"changed: {line}" for line in moved) or "unchanged")
    GOLDEN.write_text(transcript(ran), encoding="utf-8")
