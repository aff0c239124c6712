"""Command-line front end.

    catbound bound --invariant cat --family am --target G model.catb
    catbound tc --target G model.catb
    catbound develop --target G --radius 3 model.catb
    catbound check-curvature --target P model.catb
    catbound certify branched --target B model.catb
    catbound validate model.catb

Every subcommand accepts an optional .catb file (queries run against
the standard prelude alone when it is omitted), `--format text|json`
and `--prelude PATH` to replace the standard prelude (env
CATBOUND_PRELUDE works too).  Only `bound` and `tc` take `--plus-one`,
which prints finite values in the convention that counts sets rather
than the normalized count; `bound` takes `--family` only with
`--invariant cat`, the default.  A subcommand accepts only the options
it reads.  `bound`, `tc`, `develop` and `check-curvature`
resolve `--target` before any other work; a name that resolves to
nothing is `error: unresolved target: unresolved group name 'X'`.

Repeated main() calls in one process share what does not depend on the
query: each parser is built once, when first needed.  A call whose first
argument names a subcommand is parsed by that subcommand's own parser
alone; the top-level parser, with every subcommand under it, is built
only for any other argv (`catbound -h`, or a usage error, which it
words).  The prelude and the model file are read on every call.  Each
of the last few texts that loaded cleanly is parsed, built and checked
in full once per base (dsl.load_text, which dsl.load_prelude shares):
each call gets the kept universe itself, read-only, and an edit to
either file is a new text, which shows in the next call.

Exit codes: 0 result established, 2 inconclusive (no finite bound, or
certificate hypotheses not established), 1 errors and diagnostics.  An
unexpected exception (for example a RecursionError on a very deep
model) is reported as `error: internal: <type>: <message>` with exit 1.
When the reader of stdout goes away (`catbound ... | head -1`), the
rest of the output is dropped and the exit code is 1, with nothing on
stderr.

JSON output has exactly the layout of `json.dumps(obj, indent=2,
ensure_ascii=False)`: two-space indents, one value per line, non-ASCII
text as is.  Bound and certificate payloads put their top-level scalars
(invariant, family, value; conclusion, value) before the trace, so the
head of a long output carries the result.  The layout is kept on
purpose: scripts and transcripts read it line by line.  json_text()
writes it in one pass, at a fraction of the cost of the stdlib's
pure-Python indenting encoder.  Each query's stdout goes out in one
write.

Text traces list the derivation in pre-order.  A node cited more than
once is written out once, its line ending in `#k`, and every later
citation is the line `see #k`; k is the node's index in the JSON node
table (`"trace": {"nodes": [...], "root": k}`).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring as _esc     # json.dumps' own (C) one
from operator import attrgetter
from pathlib import Path
from typing import List, Optional, Tuple

from . import apps, develop, dsl
from .engine import DerivationNode, Evaluator
from .extnat import ExtNat, replace
from .facts import Family
from .model import Diagnostic, Ref, Universe


class CliError(Exception):
    'Reported to stderr; always exit 1.'


class _Parser(argparse.ArgumentParser):
    'Usage problems are tool errors (exit 1), never inconclusive (2).'

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(f"{self.prog}: {message}")


def _common(p: argparse.ArgumentParser, file_arg: bool = True) -> None:
    if file_arg:
        p.add_argument("file", nargs="?",
                       help=".catb model file (prelude only if omitted)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--prelude", default=None, metavar="PATH",
                   help="replace the standard prelude")


def _plus_one(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plus-one", action="store_true", dest="plus_one",
                   help="print finite values shifted up by one")


def _bound_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True, help="group name")
    p.add_argument("--invariant", choices=("cat", "gd", "cd"), default="cat")
    p.add_argument("--family", default=None,
                   help="family name for cat (case-insensitive)")
    _common(p)
    _plus_one(p)


def _tc_args(p: argparse.ArgumentParser) -> None:
    # bound's handler serves tc too, as the invariant "tc" with no family
    p.add_argument("--target", required=True, help="group name")
    _common(p)
    _plus_one(p)
    p.set_defaults(invariant="tc", family=None)


def _develop_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True,
                   help="graph-of-groups or polygon name")
    p.add_argument("--radius", type=int, default=None,
                   help="ball radius (default 2 for a graph of groups, "
                        "1 for a polygon)")
    _common(p)


def _curvature_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True, help="polygon name")
    _common(p)


def _certify_args(p: argparse.ArgumentParser) -> None:
    # one free-form positional list: an optional setup kind and an
    # optional file, in either order around the flags (argparse cannot
    # fill two optional positionals split by options)
    p.add_argument("words", nargs="*", metavar="[kind] [file]",
                   help="optional setup kind (gluing, double, branched) "
                        "and .catb model file")
    p.add_argument("--target", required=True, help="setup name")
    p.add_argument("--d", type=int, default=None,
                   help="override the copy count of a branched setup")
    _common(p, file_arg=False)


@functools.lru_cache(maxsize=None)
def _subcommand_parser(name: str) -> _Parser:
    'The parser of subcommand `name`, built on first use and shared.'
    parser = _Parser(prog=f"catbound {name}")
    _SUBCOMMANDS[name][1](parser)
    return parser


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The top-level parser, with every subcommand's parser under it;
    built on the first call and shared.  main() needs it only for an
    argv that names no subcommand."""
    top = _Parser(
        prog="catbound",
        description="certified upper bounds for category-type invariants "
                    "of combinatorially described groups")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)
    for name, (help_line, add_args, _) in _SUBCOMMANDS.items():
        add_args(sub.add_parser(name, help=help_line))
    return top


# -- loading --------------------------------------------------------------

def _read_model(args) -> Tuple[Optional[Universe], List[Diagnostic]]:
    'The prelude, with the model file (if any) loaded over it.'
    prelude = args.prelude or os.environ.get("CATBOUND_PRELUDE")
    try:
        base = dsl.load_prelude(Path(prelude) if prelude else None)
    except (OSError, ValueError) as exc:
        raise CliError(f"prelude: {exc}")
    if args.file is None:
        return base, []
    try:
        text = dsl.read_catb(Path(args.file))      # an error names the path as Path does
    except OSError as exc:
        raise CliError(str(exc))
    except UnicodeDecodeError as exc:
        return None, [_not_utf8(exc.object, exc.start)]
    return dsl.load_text(text, base)


def _not_utf8(data: bytes, start: int) -> Diagnostic:
    'Positions the first byte of `data` that is not UTF-8 (at `start`).'
    head = data[:start].decode("utf-8")
    line = head.count("\n") + 1
    col = len(head) - head.rfind("\n")
    return Diagnostic(f"{line}:{col}", f"not UTF-8 text (byte 0x{data[start]:02x})")


def _load(args) -> Universe:
    u, diags = _read_model(args)
    if diags:
        raise CliError("\n".join(f"{args.file}:{d}" for d in diags))
    if u is None:
        raise CliError(f"{args.file}: no model loaded")
    return u


def _resolve_target(u: Universe, name: str) -> Tuple[str, object]:
    'The (kind, payload) that `--target NAME` denotes in u.'
    try:
        return u.resolve(Ref(name))
    except KeyError as exc:
        raise CliError(f"unresolved target: {exc.args[0]}")


def _family(u: Universe, name: Optional[str]) -> Family:
    if name is None:
        raise CliError("--family is required for cat bounds")
    if name in u.families:
        return u.families[name]
    hits = [f for key, f in u.families.items() if key.lower() == name.lower()]
    if len(hits) == 1:
        return hits[0]
    if hits:
        matches = ", ".join(sorted(f.name for f in hits))
        raise CliError(f"family {name!r} is ambiguous (matches {matches})")
    known = ", ".join(sorted(u.families))
    raise CliError(f"unknown family {name!r} (known: {known})")


# -- rendering ------------------------------------------------------------

# JSON text of the scalar types, by exact type; subclasses take the
# isinstance path of _json_container
_SCALARS = {
    str: _esc,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
# empty containers, written without a call (most trace nodes have no
# assumptions and a leaf has no premises)
_EMPTY = {list: "[]", tuple: "[]", dict: "{}"}


def json_text(obj) -> str:
    """`json.dumps(obj, indent=2, ensure_ascii=False)`, for dicts with str
    keys, lists, tuples, str, int, bool and None.

    Every container becomes one joined string.  Any other type (a float,
    a set, a dict key that is not a str) raises TypeError.
    """
    enc = _SCALARS.get(type(obj))
    return enc(obj) if enc is not None else _json_container(obj, "\n")


def _json_container(obj, nl: str) -> str:
    'json_text of a non-scalar whose opening line ends in `nl`.'
    inner = nl + "  "
    get = _SCALARS.get
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k, v in obj.items():
            enc = get(type(v))
            if enc is not None:
                text = enc(v)
            elif not v and type(v) in _EMPTY:
                text = _EMPTY[type(v)]
            else:
                text = _json_container(v, inner)
            parts.append(_esc(k) + ": " + text)
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = []
        for v in obj:
            enc = get(type(v))
            parts.append(enc(v) if enc is not None else _json_container(v, inner))
        return "[" + inner + ("," + inner).join(parts) + nl + "]"
    if isinstance(obj, str):
        return _esc(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(obj) -> None:
    sys.stdout.write(json_text(obj) + "\n")


def _emit_lines(lines: List[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _trace_lines(root: DerivationNode, order: List[DerivationNode]) -> List[str]:
    """The derivation in pre-order, one indented line per node; `order`
    is `root.nodes()`.

    A node cited more than once is written out at its first citation,
    whose line ends with `#k` (k is its index in the JSON node table);
    each later citation is the single line `see #k`.
    """
    index = {id(n): i for i, n in enumerate(order)}
    cited = Counter(map(id, chain.from_iterable(map(attrgetter("premises"), order))))
    out: List[str] = []
    written = set()
    stack = [(root, "  ")]
    while stack:
        node, pad = stack.pop()
        k = index[id(node)]
        if k in written:
            out.append(f"{pad}see #{k}")
            continue
        written.add(k)
        tag = f"  #{k}" if cited[id(node)] > 1 else ""
        out.append(f"{pad}{node.rule} = {node.value}  ({node.cite}){tag}")
        if node.premises:
            inner = pad + "  "
            stack += [(p, inner) for p in reversed(node.premises)]
    return out


# -- subcommands ----------------------------------------------------------

def _cmd_bound(args) -> int:
    'bound, and tc as the bound of invariant "tc": the value with its trace.'
    if args.family is not None and args.invariant != "cat":
        raise CliError("--family applies only to cat bounds")
    u = _load(args)
    _resolve_target(u, args.target)
    fam = (_family(u, args.family),) if args.invariant == "cat" else ()
    r = getattr(Evaluator(u), f"bound_{args.invariant}")(Ref(args.target), *fam)
    shift = args.plus_one and r.value.is_finite
    if args.format == "json":
        payload = r.to_json()
        if shift:
            payload["value"] = (r.value + ExtNat(1)).to_json()
        _emit_json(payload)
    else:
        label = (f"cat[{r.family}]" if r.invariant == "cat" else r.invariant)
        shown = f"{r.value + ExtNat(1)}  (+1 convention)" if shift else str(r.value)
        lines = [f"{label} <= {shown}"]
        order = r.trace.nodes()
        assumed = r.assumptions(order)
        if assumed:
            lines.append("assumed:")
            lines += [f"  - {a}" for a in assumed]
        lines.append("trace:")
        lines += _trace_lines(r.trace, order)
        _emit_lines(lines)
    return 0 if r.value.is_finite else 2


def _cmd_develop(args) -> int:
    u = _load(args)
    _resolve_target(u, args.target)
    try:
        ball = develop.develop_target(u, args.target, args.radius)
    except ValueError as exc:
        raise CliError(str(exc))
    report = develop.verify_stabilizers(ball)
    if args.format == "json":
        _emit_json({
            "name": ball.name,
            "radius": ball.radius,
            "complete": ball.complete,
            "cells": [{
                "id": c.id, "dim": c.dim, "kind": c.kind, "level": c.level,
                "stab_order": c.stab_order, "incident": list(c.incident),
                "chart": c.chart,
            } for c in ball.cells],
            "stabilizers_consistent": report.ok,
        })
        return 0
    dims = sorted({c.dim for c in ball.cells})
    counts = ", ".join(f"dim {d}: {len(ball.of_dim(d))}" for d in dims)
    lines = [f"ball around the base cell of {ball.name}, radius {ball.radius}"
             f" ({'complete' if ball.complete else 'truncated at the frontier'})",
             f"cells: {counts}"]
    lines += [f"stabilizer orders, {kind}: {sorted(orders)}"
              for kind, orders in sorted(report.orders.items())]
    if not report.ok:
        lines.append("stabilizer inconsistencies:")
        lines += [f"  - {p}" for p in report.problems]
    _emit_lines(lines)
    return 0


def _cmd_check_curvature(args) -> int:
    u = _load(args)
    kind, payload = _resolve_target(u, args.target)
    if kind != "polygon":
        raise CliError(f"{args.target!r} is not a polygon of groups")
    try:
        report = develop.check_curvature(u, payload)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.format == "json":
        _emit_json({
            "target": args.target,
            "holds": report.holds,
            "vertex": report.vertex,
            "witness": list(report.witness) if report.witness is not None else None,
            "detail": report.detail,
        })
    elif report.holds:
        _emit_lines([f"link condition holds for {args.target}"])
    else:
        witness = "{" + ", ".join(str(x) for x in report.witness or ()) + "}"
        _emit_lines([f"link condition fails for {args.target} at vertex "
                     f"{report.vertex}: intersection {witness} ({report.detail})"])
    return 0


# each setup class and its kind, as certify's first word names it;
# apps.certify_<kind> certifies it
_SETUP_KINDS = {
    apps.GluingSetup: "gluing",
    apps.DoubleSetup: "double",
    apps.BranchedSetup: "branched",
}


def _cmd_certify(args) -> int:
    args.kind, args.file = None, None
    for word in args.words:
        if word in _SETUP_KINDS.values() and args.kind is None:
            args.kind = word
        elif args.file is None:
            args.file = word
        else:
            raise CliError(f"unexpected argument {word!r}")
    u = _load(args)
    setup = u.setups.get(args.target)
    if setup is None:
        known = ", ".join(sorted(u.setups)) or "none"
        raise CliError(f"unknown setup {args.target!r} (known: {known})")
    kind = _SETUP_KINDS[type(setup)]
    if args.kind is not None and args.kind != kind:
        raise CliError(f"setup {args.target!r} is a {kind}, not a {args.kind}")
    if args.d is not None:
        if kind != "branched":
            raise CliError("--d applies only to branched setups")
        if args.d > dsl.SIZE_LIMIT:
            raise CliError(f"--d: number of copies exceeds the limit of "
                           f"{dsl.SIZE_LIMIT}")
        setup = replace(setup, d=args.d)
    try:
        cert = getattr(apps, f"certify_{kind}")(u, setup)
    except apps.PreconditionError as exc:
        raise CliError(str(exc))
    if args.format == "json":
        _emit_json(cert.to_json())
    else:
        _emit_lines([cert.to_text()])
    return 0 if cert.conclusion != "inconclusive" else 2


def _cmd_validate(args) -> int:
    u, diags = _read_model(args)
    if args.format == "json":
        _emit_json({
            "ok": not diags,
            "diagnostics": [{"loc": d.loc, "message": d.message} for d in diags],
        })
        return 1 if diags else 0
    if diags:
        for d in diags:
            print(f"{args.file}:{d}", file=sys.stderr)
        return 1
    assert u is not None
    _emit_lines([f"ok: {len(u.group_names())} groups, {len(u.homs)} homomorphisms, "
                 f"{len(u.families)} families, {len(u.setups)} setups"])
    return 0


# each subcommand: its help line, the function that adds its arguments
# and the one that runs it
_SUBCOMMANDS = {
    "bound": ("category / dimension upper bound", _bound_args, _cmd_bound),
    "tc": ("topological complexity upper bound", _tc_args, _cmd_bound),
    "develop": ("finite ball of the dual development", _develop_args, _cmd_develop),
    "check-curvature": ("vertex link condition of a polygon", _curvature_args,
                        _cmd_check_curvature),
    "certify": ("vanishing certificate for a setup", _certify_args, _cmd_certify),
    "validate": ("load a model and report diagnostics", _common, _cmd_validate),
}


def _drop_stdout() -> None:
    """The reader of stdout went away: send the rest of the output, and
    the interpreter's flush at exit, to the null device (the SIGPIPE
    note of the `signal` module's documentation)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):     # not backed by a file
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        # known-args so certify's trailing positionals survive argparse's
        # single-chunk positional matching; anything else left over is an
        # error.  The top-level parser would hand everything after the
        # subcommand to a parser like that subcommand's, so a named
        # subcommand goes to its own parser directly.
        if argv and argv[0] in _SUBCOMMANDS:
            args, extras = _subcommand_parser(argv[0]).parse_known_args(argv[1:])
            args.command = argv[0]
        else:
            args, extras = _build_parser().parse_known_args(argv)
        if extras and (args.command != "certify"
                       or any(x.startswith("-") for x in extras)):
            raise CliError(f"unrecognized arguments: {' '.join(extras)}")
        if extras:
            args.words = list(args.words) + extras
        code = _SUBCOMMANDS[args.command][2](args)
        sys.stdout.flush()      # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        _drop_stdout()
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:        # a fault of catbound, never a traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
