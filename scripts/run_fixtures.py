#!/usr/bin/env python3
"""Walk the bundled fixture files through every CLI surface.

Prints the same text a user would see at the terminal, section by
section, and exits nonzero if any invocation misbehaves.  Handy as a
smoke test after editing the engine or the fixtures.
"""

import argparse
import sys
from pathlib import Path

from catbound.cli import main as cli

REPO = Path(__file__).resolve().parents[1]

# (section, argv), in order; a .catb argument names a file in the
# fixture directory.  Every invocation is expected to exit 0.
INVOCATIONS = (
    ("validation", ("validate", "examples.catb")),
    ("validation", ("validate", "square_coxeter.catb")),
    ("validation", ("validate", "z4_polygon.catb")),
    ("validation", ("validate", "double_max.catb")),
    ("validation", ("validate", "double_sum.catb")),
    ("validation", ("validate", "branched_five.catb")),
    ("category bounds", ("bound", "--target", "ZZ", "--family", "Tr", "examples.catb")),
    ("category bounds", ("bound", "--target", "Am46", "--family", "Fin", "examples.catb")),
    ("category bounds", ("bound", "--target", "FC", "--family", "Am", "examples.catb")),
    ("category bounds", ("bound", "--target", "FC", "--invariant", "gd", "examples.catb")),
    ("topological complexity", ("tc", "--target", "ZZ", "examples.catb")),
    ("developments", ("develop", "--target", "Am46", "--radius", "3", "examples.catb")),
    ("developments", ("develop", "--target", "SQ", "--radius", "1", "square_coxeter.catb")),
    ("link condition", ("check-curvature", "--target", "SQ", "square_coxeter.catb")),
    ("link condition", ("check-curvature", "--target", "BAD", "z4_polygon.catb")),
    ("certificates", ("certify", "--target", "DblMax", "double_max.catb")),
    ("certificates", ("certify", "--target", "DblSum", "double_sum.catb")),
    ("certificates", ("certify", "--target", "BrFive", "branched_five.catb")),
)


def section(title):
    print()
    print(f"== {title} " + "=" * max(0, 60 - len(title)))


def run(argv):
    print(f"$ catbound {' '.join(argv)}")
    code = cli(list(argv))
    ok = code == 0
    print(f"  -> exit {code}" + ("" if ok else "  (expected 0)"))
    print()
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixtures", type=Path,
                    default=REPO / "tests" / "fixtures")
    args = ap.parse_args()

    all_ok = True
    current = None
    for title, argv in INVOCATIONS:
        if title != current:
            section(title)
            current = title
        all_ok &= run([str(args.fixtures / a) if a.endswith(".catb") else a
                       for a in argv])

    if not all_ok:
        print("some invocations failed", file=sys.stderr)
        return 1
    print("all fixture invocations behaved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
