"""The .catb input language: parser, canonical serializer, universe builder.

One file is one universe of declarations.  The grammar is LL(1),
whitespace-insensitive, with `//` comments.  Declarations:

    group NAME;                          bare atom
    group NAME { gd <= 1 by "..."; }     atom with declared facts
    group NAME = EXPR;                   named definition
    group NAME = cyclic(4);              concrete group by constructor
    group NAME = product(A, B);          concrete direct product
    group NAME = table [[0,1],[1,0]];    concrete multiplication table
    amalgam NAME = A *[C] B;             two-vertex graph of groups
    amalgam NAME = A *[C] B with (h, k); with concrete edge injections
    family NAME = amenable;              builtin predicate
    family NAME = custom { ... }         flag-constrained predicate
    hom NAME : SRC -> TGT { 1 -> 2; }    generator images
    graph NAME { vertex a = ...; edge a - b : ...; }
    polygon NAME { d = 4; vertex = ...; edge = ...; face = ...; }
    gcw NAME { contractible = assert; dim 0 : [...]; }
    gluing NAME { n = 4; piece M { ... } pair M.s - N.t; ... }
    double NAME { n = 4; group = ...; boundary s : ... { ... } }
    branched NAME { n = 4; d = 5; piece = ...; wall = ...; core = ...; }

Expressions combine named groups with `x` (direct product) and `*`
(free product), with parentheses; `trivial` and `free(k)` are inline.
`x` binds tighter than `*`.  Constructors cyclic/product/table build
multiplication tables and are only allowed as a whole right-hand side.

parse() returns a SourceModel whose decls are, in file order, the
objects the rest of the program uses (facts.Family, model.GraphOfGroups,
PolygonOfGroups, GcwDescription, apps.GluingSetup, DoubleSetup,
BranchedSetup), except for three kinds the build turns into something
else: GroupDecl (fact sheet, table or definition), AmalgamDecl (a
two-vertex graph) and HomDecl (generator images, closed to a full map).
It raises ParseFailure carrying positioned diagnostics, also for every
malformed literal (a non-ASCII digit, an integer too long to convert, a
bound past the largest finite value, a cyclic order past ORDER_LIMIT,
a polygon side count, gcw dimension or branched copy count past
SIZE_LIMIT), and for parentheses nested deeper than NESTING_LIMIT; no
other exception escapes it.
serialize() emits the canonical form and parse(serialize(m)) equals m
for canonical m.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from .apps import (BoundaryComponent, BranchedSetup, DoubleSetup, GluingSetup,
                   Pairing, Piece)
from .extnat import FINITE_MAX, INF, ExtNat, Record, _set
from .facts import FactSheet, Family, FamilyKind, Tri, builtin_families
from .model import (Diagnostic, DirectProduct, Edge, FreeProduct,
                    GcwDescription, GraphOfGroups, GroupExpr, PolygonOfGroups,
                    TABLES, Ref, TrivialGroup, Universe, cyclic_group,
                    free_group_expr, hom_from_generator_images, product_group,
                    table_group, validate)

# -- tokens ---------------------------------------------------------------

# Token shapes, tried in order; tokenize() scans the whole text with one
# finditer, which skips the spaces, tabs, carriage returns and line ends
# between matches.  No shape matches a line end, so a comment, a string
# or an unterminated string stops at the end of its line.  Every
# alternative starts with a character or a class, so the engine passes
# over it on the first character, and ends in an empty group whose
# number names its shape.  A name is a run of word characters
# (str.isalnum or '_') that starts with a letter or '_'; a word run that
# starts with another word character (a digit outside ASCII, such as
# '²') starts with a stray character, which tokenize() checks.  In a
# string, a backslash escapes '"' or '\' and otherwise stands for
# itself, so a body splits into characters one way only and an escaped
# quote never closes it.
_TOKEN = re.compile(r"""
    [A-Za-z_]\w*()                          # 1 name
  | [{}()\[\];:,=.*>]()                     # 2 op
  | <=?()                                   # 3 op
  | ->?()                                   # 4 op
  | //.*()                                  # 5 comment
  | [0-9][0-9]*()                           # 6 int, ASCII digits only
  | "(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*"()  # 7 string
  | ".*()                                   # 8 unterminated string
  | [^\W\d]\w*()                            # 9 word, not an ASCII start
  | [^ \t\r\n]()                            # 10 stray character
""", re.VERBOSE)
_SHAPES = (None, "name", "op", "op", "op", "comment", "int", "string",
           "unterminated", "word", "stray")
_ESCAPE = re.compile(r'\\(["\\])')


class Tokens:
    """The tokens of a text, as parallel lists of kinds (name | int |
    string | op | error | eof), values and text offsets, ending with the
    eof token.

    loc(i) is the `line:col` of token i.  Positions are counted from the
    text only when asked for, from the last one asked for when it lies
    before.
    """

    __slots__ = ("text", "kinds", "values", "offsets", "_mark")

    def __init__(self, text: str, kinds: List[str], values: List[str],
                 offsets: List[int]) -> None:
        self.text = text
        self.kinds = kinds
        self.values = values
        self.offsets = offsets
        self._mark = (0, 1)     # an offset and the line it lies on

    def __len__(self) -> int:
        return len(self.kinds)

    def line_col(self, offset: int) -> Tuple[int, int]:
        'Line and column of a text offset, from 1, in characters.'
        text = self.text
        at, line = self._mark
        if offset < at:
            at, line = 0, 1
        line += text.count("\n", at, offset)
        self._mark = (offset, line)
        return line, offset - text.rfind("\n", 0, offset)

    def loc(self, i: int) -> str:
        return "%d:%d" % self.line_col(self.offsets[i])


def tokenize(text: str) -> Tokens:
    """Total: malformed input produces error tokens, never an exception.

    Lines and columns count from 1, in characters; a tab is one column.
    The eof token after a comment that ends the text sits where the
    comment starts.
    """
    kinds: List[str] = []
    values: List[str] = []
    offsets: List[int] = []
    add_kind, add_value, add_offset = kinds.append, values.append, offsets.append
    shapes = _SHAPES
    eof = len(text)
    pos: Optional[int] = 0
    while pos is not None:          # set again after a stray word start
        for m in _TOKEN.finditer(text, pos):
            kind = shapes[m.lastindex]
            if kind == "name" or kind == "op" or kind == "int":
                value = m.group()
            elif kind == "comment":
                if m.end() == len(text):
                    eof = m.start()
                continue
            elif kind == "string":
                value = m.group()[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(r"\1", value)
            elif kind == "word":
                c = text[m.start()]
                if not c.isalpha():
                    add_kind("error")
                    add_value(f"stray character {c!r}")
                    add_offset(m.start())
                    pos = m.start() + 1
                    break
                kind, value = "name", m.group()
            elif kind == "unterminated":
                kind, value = "error", "unterminated string"
            else:
                kind, value = "error", f"stray character {m.group()!r}"
            add_kind(kind)
            add_value(value)
            add_offset(m.start())
        else:
            pos = None
    add_kind("eof")
    add_value("")
    add_offset(eof)
    return Tokens(text, kinds, values, offsets)


# -- declarations ---------------------------------------------------------

class FactEntry(Record):
    __slots__ = ("kind", "slot", "value", "tri", "by")

    def __init__(self, kind: str, slot: str, value: Optional[ExtNat] = None,
                 tri: Optional[str] = None, by: Optional[str] = None) -> None:
        _set(self, "kind", kind)    # bound | cat | flag | member
        _set(self, "slot", slot)    # gd/cd/tc, family name, or flag name
        _set(self, "value", value)
        _set(self, "tri", tri)      # yes | no | unknown
        _set(self, "by", by)


class CyclicCtor(Record):
    __slots__ = ("order",)

    def __init__(self, order: int) -> None:
        _set(self, "order", order)


class ProductCtor(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: Tuple[str, ...]) -> None:
        _set(self, "factors", factors)


class TableCtor(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: Tuple[Tuple[int, ...], ...]) -> None:
        _set(self, "rows", rows)


GroupRhs = Union[GroupExpr, CyclicCtor, ProductCtor, TableCtor, None]


class GroupDecl(Record):
    __slots__ = ("name", "rhs", "facts", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, rhs: GroupRhs, facts: Tuple[FactEntry, ...],
                 loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "rhs", rhs)
        _set(self, "facts", facts)
        _set(self, "loc", loc)


class AmalgamDecl(Record):
    __slots__ = ("name", "left", "edge", "right", "maps", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, left: GroupExpr, edge: GroupExpr, right: GroupExpr,
                 maps: Optional[Tuple[str, str]], loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "left", left)
        _set(self, "edge", edge)
        _set(self, "right", right)
        _set(self, "maps", maps)
        _set(self, "loc", loc)


class HomDecl(Record):
    __slots__ = ("name", "source", "target", "pairs", "loc")
    _uncompared = ("loc",)

    def __init__(self, name: str, source: str, target: str,
                 pairs: Tuple[Tuple[int, int], ...], loc: str = "") -> None:
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "pairs", pairs)
        _set(self, "loc", loc)


Decl = Union[GroupDecl, AmalgamDecl, HomDecl, Family, GraphOfGroups,
             PolygonOfGroups, GcwDescription, GluingSetup, DoubleSetup,
             BranchedSetup]

_GROUP_DECLS = (GroupDecl, AmalgamDecl, GraphOfGroups, PolygonOfGroups,
                GcwDescription)
# the table of each kind of declaration the build registers as parsed
_TABLES = {Family: "families", GraphOfGroups: "graphs", PolygonOfGroups: "polygons",
           GcwDescription: "gcws", GluingSetup: "setups", DoubleSetup: "setups",
           BranchedSetup: "setups"}


class SourceModel(Record):
    'The declarations of one file, in file order; see the module docstring.'

    __slots__ = ("decls",)

    def __init__(self, decls: Tuple[Decl, ...]) -> None:
        _set(self, "decls", decls)


class ParseFailure(Exception):
    def __init__(self, diagnostics: List[Diagnostic]) -> None:
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class _Syntax(Exception):
    def __init__(self, loc: str, message: str) -> None:
        super().__init__(message)
        self.diagnostic = Diagnostic(loc, message)


# names that cannot be declared: expression syntax would swallow them
RESERVED = {
    "x", "trivial", "free", "cyclic", "product", "table", "inf",
    "group", "amalgam", "family", "hom", "graph", "polygon", "gcw",
    "gluing", "double", "branched", "assert", "yes", "no", "unknown",
}

# the most sides a polygon, the highest dimension a gcw and the most
# copies a branched setup may declare: the parser or the certificate
# builds a tuple of that length before any other check
SIZE_LIMIT = 10_000

# the largest order of a cyclic or product group: the build makes its
# multiplication table, order² entries (cyclic(1000) takes about 0.13 s
# and 46 MB), so a larger one is refused before anything is built
ORDER_LIMIT = 1_000

# the deepest parenthesis nesting in a group expression: the parser and
# every later walk over an expression recurse once per level, and an
# expression this deep still loads and bounds on the default stack
NESTING_LIMIT = 100

_DECL_KEYWORDS = ("group", "amalgam", "family", "hom", "graph", "polygon",
                  "gcw", "gluing", "double", "branched")

T = TypeVar("T")


class _Parser:
    'Reads a Tokens by index; pos is the index of the next token.'

    def __init__(self, tokens: Tokens) -> None:
        self.toks = tokens
        self.kinds = tokens.kinds
        self.values = tokens.values
        self.pos = 0
        self.depth = 0          # open parentheses around the current atom

    # -- stream helpers ---------------------------------------------------

    def last_loc(self) -> str:
        'The loc of the token just stepped over.'
        return self.toks.loc(self.pos - 1)

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        pos = self.pos
        return self.kinds[pos] == kind and (value is None or self.values[pos] == value)

    def keyword(self) -> str:
        'Steps over the declaration keyword at hand; returns its loc.'
        self.pos += 1
        return self.last_loc()

    def eat(self, kind: str, value: Optional[str] = None) -> bool:
        pos = self.pos
        if self.kinds[pos] != kind or (value is not None and self.values[pos] != value):
            return False
        if kind != "eof":
            self.pos = pos + 1
        return True

    def expect(self, kind: str, value: Optional[str] = None,
               what: Optional[str] = None) -> str:
        'The value of the next token, which must be as given; steps over it.'
        pos = self.pos
        found_kind = self.kinds[pos]
        found = self.values[pos]
        if found_kind == kind and (value is None or found == value):
            if kind != "eof":
                self.pos = pos + 1
            return found
        if found_kind == "error":
            raise _Syntax(self.toks.loc(pos), found)
        wanted = what or (value if value is not None else kind)
        found = found or found_kind
        raise _Syntax(self.toks.loc(pos), f"expected {wanted!r}, found {found!r}")

    def name(self, what: str = "name") -> str:
        return self.expect("name", what=what)

    def hom_name(self) -> str:
        return self.name("homomorphism name")

    def fresh_name(self, what: str = "name") -> str:
        v = self.expect("name", what=what)
        if v in RESERVED:
            raise _Syntax(self.last_loc(), f"{v!r} is reserved and cannot be declared")
        return v

    def integer(self, what: str = "integer", limit: Optional[int] = None) -> int:
        digits = self.expect("int", what=what)
        try:
            v = int(digits)
        except ValueError:      # past the interpreter's digit limit
            raise _Syntax(self.last_loc(), f"integer literal of {len(digits)} digits "
                                           "is too long") from None
        if limit is not None and v > limit:
            raise _Syntax(self.last_loc(), f"{what} exceeds the limit of {limit}")
        return v

    def extnat(self) -> ExtNat:
        if self.eat("name", "inf"):
            return INF
        v = self.integer("integer or 'inf'")
        if v > FINITE_MAX:
            raise _Syntax(self.last_loc(), "bound exceeds the largest finite value "
                                           f"{FINITE_MAX}")
        return ExtNat(v)

    def semicolon(self) -> None:
        self.expect("op", ";")

    def listed(self, item: Callable[[], T], empty: bool = False,
               brackets: str = "[]") -> Tuple[T, ...]:
        '`[a, b, ...]`; `[]` only when empty is allowed.'
        self.expect("op", brackets[0])
        items: List[T] = []
        if not (empty and self.at("op", brackets[1])):
            items.append(item())
            while self.eat("op", ","):
                items.append(item())
        self.expect("op", brackets[1])
        return tuple(items)

    def block(self, item: Callable[[], T]) -> Tuple[T, ...]:
        '`{ a; b; ... }`; the `;` after the last item may be left out.'
        self.expect("op", "{")
        items: List[T] = []
        while not self.eat("op", "}"):
            items.append(item())
            if not self.at("op", "}"):
                self.semicolon()
        return tuple(items)

    # -- expressions ------------------------------------------------------

    def gexpr(self) -> GroupExpr:
        parts = [self.fexpr()]
        while self.eat("op", "*"):
            parts.append(self.fexpr())
        if len(parts) == 1:
            return parts[0]
        return FreeProduct(tuple(parts))

    def fexpr(self) -> GroupExpr:
        parts = [self.gatom()]
        while self.eat("name", "x"):
            parts.append(self.gatom())
        if len(parts) == 1:
            return parts[0]
        return DirectProduct(tuple(parts))

    def gatom(self) -> GroupExpr:
        if self.eat("op", "("):
            self.depth += 1
            if self.depth > NESTING_LIMIT:
                raise _Syntax(self.last_loc(), "parenthesis depth exceeds the limit "
                                               f"of {NESTING_LIMIT}")
            e = self.gexpr()
            self.expect("op", ")")
            self.depth -= 1
            return e
        if self.eat("name", "trivial"):
            return TrivialGroup()
        if self.eat("name", "free"):
            self.expect("op", "(")
            k = self.integer("free-group rank")
            self.expect("op", ")")
            return free_group_expr(k)
        v = self.expect("name", what="group expression")
        if v in RESERVED:
            raise _Syntax(self.last_loc(), f"{v!r} cannot be used as a group name")
        return Ref(v)

    # -- declarations -----------------------------------------------------

    def module(self) -> List[Decl]:
        decls: List[Decl] = []
        kinds, values = self.kinds, self.values
        while kinds[self.pos] != "eof":
            kind, value = kinds[self.pos], values[self.pos]
            if kind == "error":
                raise _Syntax(self.toks.loc(self.pos), value)
            if kind != "name" or value not in _DECL_KEYWORDS:
                raise _Syntax(self.toks.loc(self.pos), "expected a declaration "
                                                       f"keyword, found {value or kind!r}")
            decls.append(getattr(self, "decl_" + value)())
        return decls

    def decl_group(self) -> GroupDecl:
        loc = self.keyword()
        name = self.fresh_name("group name")
        rhs: GroupRhs = None
        if self.eat("op", "="):
            rhs = self.group_rhs()
        facts: Tuple[FactEntry, ...] = ()
        if self.at("op", "{"):
            facts = self.block(self.fact)
        else:
            self.semicolon()
        return GroupDecl(name, rhs, facts, loc)

    def group_rhs(self) -> GroupRhs:
        if self.eat("name", "cyclic"):
            self.expect("op", "(")
            k = self.integer("cyclic order", ORDER_LIMIT)
            self.expect("op", ")")
            return CyclicCtor(k)
        if self.eat("name", "product"):
            return ProductCtor(self.listed(
                lambda: self.name("concrete group name"), brackets="()"))
        if self.eat("name", "table"):
            return TableCtor(self.listed(lambda: self.listed(self.integer)))
        return self.gexpr()

    def fact(self) -> FactEntry:
        at = self.pos
        key = self.expect("name", what="fact")
        if key in ("gd", "cd", "tc"):
            self.expect("op", "<=")
            value = self.extnat()
            by = self.by_clause()
            return FactEntry("bound", key, value=value, by=by)
        if key == "cat":
            self.expect("op", "[")
            fam = self.name("family name")
            self.expect("op", "]")
            self.expect("op", "<=")
            value = self.extnat()
            by = self.by_clause()
            return FactEntry("cat", fam, value=value, by=by)
        if key in ("amenable", "finite"):
            self.expect("op", "=")
            tri = self.tri_value()
            return FactEntry("flag", key, tri=tri)
        if key == "trivial":
            self.expect("op", "=")
            self.expect("name", "yes")
            return FactEntry("flag", "trivial", tri="yes")
        if key == "in":
            self.expect("op", "[")
            fam = self.name("family name")
            self.expect("op", "]")
            self.expect("op", "=")
            if self.at("name") and self.values[self.pos] in ("yes", "no"):
                return FactEntry("member", fam, tri=self.name())
            raise _Syntax(self.toks.loc(self.pos), "expected 'yes' or 'no'")
        raise _Syntax(self.toks.loc(at), f"unknown fact {key!r}")

    def by_clause(self) -> Optional[str]:
        if self.eat("name", "by"):
            return self.expect("string", what="justification string")
        return None

    def tri_value(self) -> str:
        if self.at("name") and self.values[self.pos] in ("yes", "no", "unknown"):
            return self.name()
        raise _Syntax(self.toks.loc(self.pos), "expected 'yes', 'no', or 'unknown'")

    def decl_amalgam(self) -> AmalgamDecl:
        loc = self.keyword()
        name = self.fresh_name("amalgam name")
        self.expect("op", "=")
        left = self.fexpr()
        self.expect("op", "*")
        self.expect("op", "[")
        edge = self.gexpr()
        self.expect("op", "]")
        right = self.fexpr()
        maps = self.with_clause()
        self.semicolon()
        return AmalgamDecl(name, left, edge, right, maps, loc)

    def with_clause(self) -> Optional[Tuple[str, str]]:
        return self.hom_pair() if self.eat("name", "with") else None

    def hom_pair(self) -> Tuple[str, str]:
        self.expect("op", "(")
        a = self.hom_name()
        self.expect("op", ",")
        b = self.hom_name()
        self.expect("op", ")")
        return (a, b)

    def decl_family(self) -> Family:
        loc = self.keyword()
        name = self.fresh_name("family name")
        self.expect("op", "=")
        base = self.expect("name", what="'trivial', 'finite', 'amenable', or 'custom'")
        if base in ("trivial", "finite", "amenable"):
            self.semicolon()
            return Family(name, FamilyKind(base), (), loc)
        if base != "custom":
            raise _Syntax(self.last_loc(), f"unknown family base {base!r}")
        return Family(name, FamilyKind.CUSTOM, self.block(self.requirement), loc)

    def requirement(self) -> Tuple[str, Tri]:
        flag = self.expect("name", what="'amenable', 'finite', or 'trivial'")
        if flag not in ("amenable", "finite", "trivial"):
            raise _Syntax(self.last_loc(), f"unknown flag {flag!r}")
        self.expect("op", "=")
        return flag, Tri(self.tri_value())

    def decl_hom(self) -> HomDecl:
        loc = self.keyword()
        name = self.fresh_name("homomorphism name")
        self.expect("op", ":")
        source = self.name("source group")
        self.expect("op", "->")
        target = self.name("target group")
        return HomDecl(name, source, target, self.block(self.generator_image), loc)

    def generator_image(self) -> Tuple[int, int]:
        a = self.integer("generator element")
        self.expect("op", "->")
        return a, self.integer("image element")

    def decl_graph(self) -> GraphOfGroups:
        loc = self.keyword()
        name = self.fresh_name("graph name")
        self.expect("op", "{")
        vertices: List[Tuple[str, GroupExpr]] = []
        edges: List[Edge] = []
        while not self.eat("op", "}"):
            t = self.expect("name", what="'vertex' or 'edge'")
            if t == "vertex":
                vid = self.name("vertex id")
                self.expect("op", "=")
                vertices.append((vid, self.gexpr()))
            elif t == "edge":
                v = self.name("vertex id")
                self.expect("op", "-")
                w = self.name("vertex id")
                self.expect("op", ":")
                g = self.gexpr()
                edges.append(Edge(v, w, g, self.with_clause()))
            else:
                raise _Syntax(self.last_loc(), f"expected 'vertex' or 'edge', found {t!r}")
            self.semicolon()
        return GraphOfGroups(name, tuple(vertices), tuple(edges), loc)

    def decl_polygon(self) -> PolygonOfGroups:
        loc = self.keyword()
        name = self.fresh_name("polygon name")
        self.expect("op", "{")
        d = self.int_field("d", "number of sides", SIZE_LIMIT)
        count = max(d, 1)
        vertices = self.ring_field("vertex", "vertices", count)
        edges = self.ring_field("edge", "edges", count)
        face = self.named_field("face")
        edge_maps = self.opt_list_field("edge_maps", self.hom_pair)
        face_maps = self.opt_list_field("face_maps", self.hom_name)
        self.expect("op", "}")
        return PolygonOfGroups(name, d, vertices, edges, face, edge_maps,
                               face_maps, loc)

    def ring_field(self, singular: str, plural: str, count: int) -> Tuple[GroupExpr, ...]:
        t = self.expect("name", what=f"'{singular}' or '{plural}'")
        if t not in (singular, plural):
            raise _Syntax(self.last_loc(),
                          f"expected '{singular}' or '{plural}', found {t!r}")
        self.expect("op", "=")
        if t == singular:
            items = (self.gexpr(),) * count
        else:
            items = self.listed(self.gexpr)
        self.semicolon()
        return items

    def opt_list_field(self, key: str, item: Callable[[], T]) -> Optional[Tuple[T, ...]]:
        if not self.eat("name", key):
            return None
        self.expect("op", "=")
        items = self.listed(item)
        self.semicolon()
        return items

    def decl_gcw(self) -> GcwDescription:
        loc = self.keyword()
        name = self.fresh_name("complex name")
        self.expect("op", "{")
        contractible = False
        if self.eat("name", "contractible"):
            self.expect("op", "=")
            self.expect("name", "assert")
            self.semicolon()
            contractible = True
        rows: Dict[int, Tuple[GroupExpr, ...]] = {}
        while not self.eat("op", "}"):
            at = self.pos
            self.expect("name", "dim")
            i = self.integer("dimension", SIZE_LIMIT)
            self.expect("op", ":")
            items = self.listed(self.gexpr, empty=True)
            self.semicolon()
            if i in rows:
                raise _Syntax(self.toks.loc(at), f"dimension {i} listed twice")
            rows[i] = items
        top = max(rows) if rows else 0
        dims = tuple(rows.get(i, ()) for i in range(top + 1))
        return GcwDescription(name, dims, contractible, loc)

    def decl_gluing(self) -> GluingSetup:
        loc = self.keyword()
        name = self.fresh_name("gluing name")
        self.expect("op", "{")
        n = self.int_field("n", "dimension")
        pieces: List[Piece] = []
        pairings: List[Pairing] = []
        connected = False
        while not self.eat("op", "}"):
            t = self.expect("name", what="'piece', 'pair', or 'connected'")
            if t == "piece":
                pid = self.name("piece id")
                self.expect("op", "{")
                pieces.append(self.piece_body(pid))
            elif t == "pair":
                a = self.dotted_ref()
                self.expect("op", "-")
                b = self.dotted_ref()
                self.semicolon()
                pairings.append((a, b))
            elif t == "connected":
                self.expect("op", "=")
                self.expect("name", "assert")
                self.semicolon()
                connected = True
            else:
                raise _Syntax(self.last_loc(), f"unexpected {t!r} in gluing block")
        return GluingSetup(name, n, tuple(pieces), tuple(pairings), connected, loc)

    def int_field(self, key: str, what: str, limit: Optional[int] = None) -> int:
        self.expect("name", key)
        self.expect("op", "=")
        v = self.integer(what, limit)
        self.semicolon()
        return v

    def dotted_ref(self) -> Tuple[str, str]:
        a = self.name("piece id")
        self.expect("op", ".")
        b = self.name("boundary id")
        return (a, b)

    def piece_body(self, pid: str) -> Piece:
        '`group = G; [cat_am <= k;] boundary ... }`, after the opening brace.'
        group = self.named_field("group")
        cat_space = self.opt_cat_space()
        boundaries: List[BoundaryComponent] = []
        while not self.eat("op", "}"):
            self.expect("name", "boundary")
            boundaries.append(self.boundary_block())
        return Piece(pid, group, cat_space, tuple(boundaries))

    def opt_cat_space(self) -> Optional[ExtNat]:
        if self.eat("name", "cat_am"):
            self.expect("op", "<=")
            v = self.extnat()
            self.semicolon()
            return v
        return None

    def boundary_block(self) -> BoundaryComponent:
        bid = self.name("boundary id")
        self.expect("op", ":")
        group = self.gexpr()
        pi1 = False
        cat_space: Optional[ExtNat] = None
        if self.eat("op", "{"):
            while not self.eat("op", "}"):
                t = self.expect("name", what="'pi1_injective' or 'cat_am'")
                if t == "pi1_injective":
                    self.expect("op", "=")
                    self.expect("name", "assert")
                    pi1 = True
                elif t == "cat_am":
                    self.expect("op", "<=")
                    cat_space = self.extnat()
                else:
                    raise _Syntax(self.last_loc(), f"unexpected {t!r} in boundary block")
                self.semicolon()
        else:
            self.semicolon()
        return BoundaryComponent(bid, group, pi1, cat_space)

    def decl_double(self) -> DoubleSetup:
        loc = self.keyword()
        name = self.fresh_name("double name")
        self.expect("op", "{")
        n = self.int_field("n", "dimension")
        return DoubleSetup(name, n, self.piece_body("M"), loc)

    def decl_branched(self) -> BranchedSetup:
        loc = self.keyword()
        name = self.fresh_name("branched name")
        self.expect("op", "{")
        n = self.int_field("n", "dimension")
        d = self.int_field("d", "number of copies", SIZE_LIMIT)
        piece = self.named_field("piece")
        wall = self.named_field("wall")
        core = self.named_field("core")
        assume_pi1 = False
        assume_intersection = False
        wall_embeds: Optional[Tuple[str, str]] = None
        core_embeds: Optional[str] = None
        while not self.eat("op", "}"):
            t = self.expect("name", what="'assume' or 'embed'")
            if t == "assume":
                which = self.expect("name",
                                    what="'pi1_injective' or 'intersection'")
                if which == "pi1_injective":
                    assume_pi1 = True
                elif which == "intersection":
                    assume_intersection = True
                else:
                    raise _Syntax(self.last_loc(), f"cannot assume {which!r}")
            elif t == "embed":
                at = self.pos
                which = self.expect("name", what="'wall' or 'core'")
                self.expect("op", "=")
                if which == "wall":
                    wall_embeds = self.hom_pair()
                elif which == "core":
                    core_embeds = self.hom_name()
                else:
                    raise _Syntax(self.toks.loc(at), f"cannot embed {which!r}")
            else:
                raise _Syntax(self.last_loc(), f"unexpected {t!r} in branched block")
            self.semicolon()
        return BranchedSetup(name, n, d, piece, wall, core, assume_pi1,
                             assume_intersection, wall_embeds, core_embeds, loc)

    def named_field(self, key: str) -> GroupExpr:
        self.expect("name", key)
        self.expect("op", "=")
        e = self.gexpr()
        self.semicolon()
        return e


def parse(text: str) -> SourceModel:
    """Parse .catb text.  Raises ParseFailure; never any other error."""
    try:
        decls = _Parser(tokenize(text)).module()
    except _Syntax as exc:
        raise ParseFailure([exc.diagnostic]) from None
    dups = _duplicate_names(decls)
    if dups:
        raise ParseFailure(dups)
    return SourceModel(tuple(decls))


def try_parse(text: str) -> Tuple[Optional[SourceModel], List[Diagnostic]]:
    try:
        return parse(text), []
    except ParseFailure as exc:
        return None, exc.diagnostics


def _duplicate_names(decls: List[Decl]) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    spaces: Dict[str, set] = {"group": set(), "family": set(), "hom": set(),
                             "setup": set()}
    for d in decls:
        if isinstance(d, _GROUP_DECLS):
            space = "group"
        elif isinstance(d, Family):
            space = "family"
        elif isinstance(d, HomDecl):
            space = "hom"
        else:
            space = "setup"
        if d.name in spaces[space]:
            out.append(Diagnostic(d.loc, f"duplicate {space} name {d.name!r}"))
        spaces[space].add(d.name)
    return out


# -- canonical serialization ----------------------------------------------

def expr_text(e: GroupExpr, level: int = 0) -> str:
    """level 0 allows free products, level 1 only direct products."""
    if isinstance(e, TrivialGroup):
        return "trivial"
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, DirectProduct):
        body = " x ".join(expr_text(f, 2) for f in e.factors)
        return f"({body})" if level >= 2 else body
    if isinstance(e, FreeProduct):
        body = " * ".join(expr_text(f, 1) for f in e.factors)
        return f"({body})" if level >= 1 else body
    raise TypeError(f"not a group expression: {e!r}")


def _fact_text(f: FactEntry) -> str:
    by = f' by "{_escape(f.by)}"' if f.by is not None else ""
    if f.kind == "bound":
        return f"{f.slot} <= {f.value}{by}"
    if f.kind == "cat":
        return f"cat[{f.slot}] <= {f.value}{by}"
    if f.kind == "flag":
        return f"{f.slot} = {f.tri}"
    if f.kind == "member":
        return f"in[{f.slot}] = {f.tri}"
    raise ValueError(f"unknown fact kind {f.kind!r}")


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _rhs_text(rhs: GroupRhs) -> str:
    if isinstance(rhs, CyclicCtor):
        return f"cyclic({rhs.order})"
    if isinstance(rhs, ProductCtor):
        return "product(" + ", ".join(rhs.factors) + ")"
    if isinstance(rhs, TableCtor):
        rows = ", ".join("[" + ", ".join(str(v) for v in row) + "]"
                         for row in rhs.rows)
        return f"table [{rows}]"
    return expr_text(rhs)


def serialize(model: SourceModel) -> str:
    out: List[str] = []
    for d in model.decls:
        out.append(_serialize_decl(d))
    return "\n".join(out) + ("\n" if out else "")


def _serialize_decl(d: Decl) -> str:
    if isinstance(d, GroupDecl):
        head = f"group {d.name}"
        if d.rhs is not None:
            head += f" = {_rhs_text(d.rhs)}"
        if not d.facts:
            return head + ";"
        lines = [head + " {"]
        lines += [f"  {_fact_text(f)};" for f in d.facts]
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, AmalgamDecl):
        s = (f"amalgam {d.name} = {expr_text(d.left, 1)} "
             f"*[{expr_text(d.edge)}] {expr_text(d.right, 1)}")
        if d.maps is not None:
            s += f" with ({d.maps[0]}, {d.maps[1]})"
        return s + ";"
    if isinstance(d, Family):
        if d.kind is not FamilyKind.CUSTOM:
            return f"family {d.name} = {d.kind.value};"
        body = " ".join(f"{flag} = {tri.value};" for flag, tri in d.requires)
        inner = f" {body} " if body else " "
        return f"family {d.name} = custom {{{inner}}}"
    if isinstance(d, HomDecl):
        body = " ".join(f"{a} -> {b};" for a, b in d.pairs)
        inner = f" {body} " if body else " "
        return f"hom {d.name} : {d.source} -> {d.target} {{{inner}}}"
    if isinstance(d, GraphOfGroups):
        lines = [f"graph {d.name} {{"]
        for vid, g in d.vertices:
            lines.append(f"  vertex {vid} = {expr_text(g)};")
        for e in d.edges:
            s = f"  edge {e.v} - {e.w} : {expr_text(e.group)}"
            if e.maps is not None:
                s += f" with ({e.maps[0]}, {e.maps[1]})"
            lines.append(s + ";")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, PolygonOfGroups):
        lines = [f"polygon {d.name} {{", f"  d = {d.d};"]
        lines.append("  " + _ring_text("vertex", "vertices", d.vertex_groups) + ";")
        lines.append("  " + _ring_text("edge", "edges", d.edge_groups) + ";")
        lines.append(f"  face = {expr_text(d.face_group)};")
        if d.edge_maps is not None:
            pairs = ", ".join(f"({a}, {b})" for a, b in d.edge_maps)
            lines.append(f"  edge_maps = [{pairs}];")
        if d.face_maps is not None:
            lines.append("  face_maps = [" + ", ".join(d.face_maps) + "];")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, GcwDescription):
        lines = [f"gcw {d.name} {{"]
        if d.contractible:
            lines.append("  contractible = assert;")
        for i, row in enumerate(d.dims):
            cells = ", ".join(expr_text(g) for g in row)
            lines.append(f"  dim {i} : [{cells}];")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, GluingSetup):
        lines = [f"gluing {d.name} {{", f"  n = {d.n};"]
        for p in d.pieces:
            lines += ([f"  piece {p.id} {{"] + _piece_body_lines(p, "    ")
                      + ["  }"])
        for (pa, ba), (pb, bb) in d.pairings:
            lines.append(f"  pair {pa}.{ba} - {pb}.{bb};")
        if d.connected:
            lines.append("  connected = assert;")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, DoubleSetup):
        lines = [f"double {d.name} {{", f"  n = {d.n};"]
        lines += _piece_body_lines(d.piece, "  ")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, BranchedSetup):
        lines = [f"branched {d.name} {{", f"  n = {d.n};", f"  d = {d.d};",
                 f"  piece = {expr_text(d.piece)};",
                 f"  wall = {expr_text(d.wall)};",
                 f"  core = {expr_text(d.core)};"]
        if d.assume_pi1:
            lines.append("  assume pi1_injective;")
        if d.assume_intersection:
            lines.append("  assume intersection;")
        if d.wall_embeds is not None:
            lines.append(f"  embed wall = ({d.wall_embeds[0]}, {d.wall_embeds[1]});")
        if d.core_embeds is not None:
            lines.append(f"  embed core = {d.core_embeds};")
        lines.append("}")
        return "\n".join(lines)
    raise TypeError(f"unknown declaration {d!r}")


def _ring_text(singular: str, plural: str, items: Tuple[GroupExpr, ...]) -> str:
    if items and all(g == items[0] for g in items):
        return f"{singular} = {expr_text(items[0])}"
    return f"{plural} = [" + ", ".join(expr_text(g) for g in items) + "]"


def _piece_body_lines(p: Piece, pad: str) -> List[str]:
    'The body of a gluing piece or of a double, without the braces.'
    lines = [f"{pad}group = {expr_text(p.group)};"]
    if p.cat_space is not None:
        lines.append(f"{pad}cat_am <= {p.cat_space};")
    for b in p.boundaries:
        head = f"{pad}boundary {b.id} : {expr_text(b.group)}"
        if not b.pi1_injective and b.cat_space is None:
            lines.append(head + ";")
            continue
        lines.append(head + " {")
        if b.pi1_injective:
            lines.append(f"{pad}  pi1_injective = assert;")
        if b.cat_space is not None:
            lines.append(f"{pad}  cat_am <= {b.cat_space};")
        lines.append(f"{pad}}}")
    return lines


# -- building a universe --------------------------------------------------

def build_universe(model: SourceModel,
                   base: Optional[Universe] = None
                   ) -> Tuple[Universe, List[Diagnostic]]:
    """Register declarations over an overlay of `base` (usually the
    prelude), then check them with model.validate.  The universe built
    is new and changeable, and `base`, frozen or not, is unchanged.

    Declarations shadow same-named prelude groups.  Building reports
    only what cannot be registered without building (a bad table, a
    product factor or hom group that is not concrete, a product whose
    order exceeds ORDER_LIMIT, cyclic(0), a hom whose images do not
    extend); setups and all else are registered as parsed.  validate
    then checks every declaration, `base`'s included, closing copies of
    the fact sheets `base` holds.  A universe with diagnostics should
    not be evaluated.
    """
    u = base.overlay() if base is not None else Universe()
    if not u.families:
        u.families.update(builtin_families())
    diags: List[Diagnostic] = []
    for d in model.decls:
        if isinstance(d, _GROUP_DECLS):
            u.drop_group(d.name)
        if isinstance(d, GroupDecl):
            _build_group(u, d, diags)
        elif isinstance(d, HomDecl):
            _build_hom(u, d, diags)
        elif isinstance(d, AmalgamDecl):
            u.graphs[d.name] = GraphOfGroups(
                d.name, (("left", d.left), ("right", d.right)),
                (Edge("left", "right", d.edge, d.maps),), d.loc)
        else:
            getattr(u, _TABLES[type(d)])[d.name] = d
    diags.extend(validate(u))
    return u, diags


def _build_group(u: Universe, d: GroupDecl, diags: List[Diagnostic]) -> None:
    'Register the sheet and any table; validate() closes every sheet.'
    sheet = FactSheet(name=d.name, loc=d.loc)
    for f in d.facts:
        if f.kind == "bound":
            setattr(sheet, f.slot + "_ub", f.value)
            sheet.provenance[f.slot] = f.by or "declared"
        elif f.kind == "cat":
            sheet.cat_ub[f.slot] = f.value
            sheet.provenance[f"cat[{f.slot}]"] = f.by or "declared"
        elif f.kind == "flag":
            if f.slot == "trivial":
                sheet.trivial = True
            else:
                setattr(sheet, f.slot, Tri(f.tri))
        elif f.kind == "member":
            sheet.member[f.slot] = Tri(f.tri)
    u.sheets[d.name] = sheet
    if isinstance(d.rhs, CyclicCtor):
        if d.rhs.order < 1:
            diags.append(Diagnostic(d.loc, "cyclic order must be at least 1"))
            return
        u.concretes[d.name] = cyclic_group(d.rhs.order)
    elif isinstance(d.rhs, ProductCtor):
        factors = []
        for fname in d.rhs.factors:
            g = u.concretes.get(fname)
            if g is None:
                diags.append(Diagnostic(
                    d.loc, f"product factor {fname!r} is not a concrete group"))
                return
            factors.append(g)
        order = math.prod(g.order for g in factors)
        if order > ORDER_LIMIT:
            diags.append(Diagnostic(
                d.loc, f"product order {order} exceeds the limit of {ORDER_LIMIT}"))
            return
        u.concretes[d.name] = product_group(factors)
    elif isinstance(d.rhs, TableCtor):
        try:
            u.concretes[d.name] = table_group(d.rhs.rows)
        except ValueError as exc:
            diags.append(Diagnostic(d.loc, f"bad multiplication table: {exc}"))
    elif d.rhs is not None:
        u.defs[d.name] = d.rhs


def _build_hom(u: Universe, d: HomDecl, diags: List[Diagnostic]) -> None:
    src = u.concretes.get(d.source)
    tgt = u.concretes.get(d.target)
    if src is None or tgt is None:
        missing = d.source if src is None else d.target
        diags.append(Diagnostic(
            d.loc, f"homomorphism {d.name!r} needs concrete group {missing!r}"))
        return
    built = hom_from_generator_images(d.name, d.source, d.target,
                                      src, tgt, d.pairs)
    if isinstance(built, Diagnostic):
        diags.append(built)
    else:
        u.homs[d.name] = built


# -- prelude and file loading ---------------------------------------------

# the most clean loads kept, by last use
KEPT_TEXTS = 16
# the most multiplication-table entries the concrete groups of a kept
# load may declare, so the kept loads pin about one maximal table
_KEPT_ENTRIES = ORDER_LIMIT ** 2 // KEPT_TEXTS

_PRELUDE_PATH = Path(__file__).parent / "prelude.catb"

# (text, frozen base or None) -> the frozen universe it loaded to
_kept_loads: OrderedDict[Tuple[str, Optional[Universe]], Universe] = OrderedDict()


def prelude_path() -> Path:
    return _PRELUDE_PATH


def read_catb(path: Path) -> str:
    """The text of a .catb file, as text mode reads it: the bytes with
    each \\r\\n or lone \\r as \\n, decoded as UTF-8.  Raises OSError, and
    UnicodeDecodeError over the translated bytes."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    # no byte of a multi-byte UTF-8 sequence is a \r or \n
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").decode("utf-8")


def load_prelude(path: Optional[Path] = None) -> Universe:
    """The prelude at `path` (the standard one by default) as a universe.

    The file is read with read_catb() on every call, so an edit or
    another path takes effect at once.  Its text is loaded over no base
    by load_text(), as a model is, so a prelude text is parsed, built
    and validated once per process, and each call returns the same
    frozen universe, read-only; overlay() it to change it.  A model
    loaded over it is checked in full, on copies of the prelude's fact
    sheets, once per text.  Raises OSError when the file cannot be read
    and ValueError, naming the path, when the prelude has problems.
    """
    p = path if path is not None else prelude_path()
    u, diags = load_text(read_catb(p))
    if diags:
        raise ValueError(f"prelude {p} has problems: "
                         + "; ".join(str(d) for d in diags))
    return u


def load_text(text: str,
              prelude: Optional[Universe] = None
              ) -> Tuple[Optional[Universe], List[Diagnostic]]:
    """The universe of .catb `text` built over `prelude` (see
    build_universe), with its diagnostics; (None, the parse's
    diagnostics) when the text does not parse.

    A text is loaded once per process and base.  The last KEPT_TEXTS
    clean loads are kept, each keyed by the exact text and its base, a
    frozen universe compared by identity, or None.  A kept load is
    frozen: its tables are read-only views, and a caller who wants to
    change it overlays it (Universe.overlay).  A load with the same key
    returns the kept universe itself, with a fresh, empty diagnostics
    list, and parses, builds and validates nothing.  A load over a base
    that is not frozen, a load with diagnostics and a load whose
    declared concrete groups hold more than ORDER_LIMIT ** 2 //
    KEPT_TEXTS multiplication-table entries (any group of order up to
    250 fits) are parsed, built and validated on every call, and not
    kept.  Fact sheets are shared with the base; validate() closes
    copies of them, never the base's.
    """
    keyed = prelude is None or prelude.frozen
    key = (text, prelude)
    if keyed:
        kept = _kept_loads.get(key)
        if kept is not None:
            _kept_loads.move_to_end(key)
            return kept, []
    model, diags = try_parse(text)
    if model is None:
        return None, diags
    u, diags = build_universe(model, prelude)
    if diags or not keyed or _declared_entries(u, prelude) > _KEPT_ENTRIES:
        return u, diags
    for attr in TABLES:
        setattr(u, attr, MappingProxyType(getattr(u, attr)))
    u.frozen = True
    _kept_loads[key] = u
    if len(_kept_loads) > KEPT_TEXTS:
        _kept_loads.popitem(last=False)
    return u, diags


def _declared_entries(u: Universe, base: Optional[Universe]) -> int:
    'The multiplication-table entries of the concrete groups `u` adds to `base`.'
    held = base.concretes if base is not None else {}
    return sum(g.order ** 2 for name, g in u.concretes.items()
               if held.get(name) is not g)
