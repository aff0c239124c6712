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

parse() raises ParseFailure carrying positioned diagnostics; no other
exception escapes it.  serialize() emits the canonical form and
parse(serialize(m)) equals m for canonical m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .extnat import INF, ExtNat
from .facts import (FactSheet, Family, FamilyKind, Tri, builtin_families,
                    close_sheet)
from .model import (Diagnostic, DirectProduct, Edge, FreeProduct,
                    GcwDescription, GraphOfGroups, GroupExpr, PolygonOfGroups,
                    Ref, TrivialGroup, Universe, cyclic_group, expr_refs,
                    free_group_expr, hom_from_generator_images, product_group,
                    table_group, validate)

# -- tokens ---------------------------------------------------------------

_PUNCT2 = ("<=", "->")
_PUNCT1 = "{}()[];:,=-.*<>"


@dataclass(frozen=True)
class Token:
    kind: str        # name | int | string | op | error | eof
    value: str
    line: int
    col: int

    @property
    def loc(self) -> str:
        return f"{self.line}:{self.col}"


def tokenize(text: str) -> List[Token]:
    'Total: malformed input produces error tokens, never an exception.'
    out: List[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("name", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            buf: List[str] = []
            closed = False
            while j < n:
                if text[j] == "\\" and j + 1 < n and text[j + 1] in '"\\':
                    buf.append(text[j + 1])
                    j += 2
                    continue
                if text[j] == '"':
                    closed = True
                    j += 1
                    break
                if text[j] == "\n":
                    break
                buf.append(text[j])
                j += 1
            if closed:
                out.append(Token("string", "".join(buf), start_line, start_col))
            else:
                out.append(Token("error", "unterminated string", start_line, start_col))
            col += j - i
            i = j
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            out.append(Token("op", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            out.append(Token("op", c, start_line, start_col))
            i += 1
            col += 1
            continue
        out.append(Token("error", f"stray character {c!r}", start_line, start_col))
        i += 1
        col += 1
    out.append(Token("eof", "", line, col))
    return out


# -- declaration model ----------------------------------------------------

@dataclass(frozen=True)
class FactEntry:
    kind: str                       # bound | cat | flag | member
    slot: str                       # gd/cd/tc, family name, or flag name
    value: Optional[ExtNat] = None
    tri: Optional[str] = None       # yes | no | unknown
    by: Optional[str] = None


@dataclass(frozen=True)
class CyclicCtor:
    order: int


@dataclass(frozen=True)
class ProductCtor:
    factors: Tuple[str, ...]


@dataclass(frozen=True)
class TableCtor:
    rows: Tuple[Tuple[int, ...], ...]


GroupRhs = Union[GroupExpr, CyclicCtor, ProductCtor, TableCtor, None]


@dataclass(frozen=True)
class GroupDecl:
    name: str
    rhs: GroupRhs
    facts: Tuple[FactEntry, ...]
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class AmalgamDecl:
    name: str
    left: GroupExpr
    edge: GroupExpr
    right: GroupExpr
    maps: Optional[Tuple[str, str]]
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class FamilyDecl:
    name: str
    base: str                       # trivial | finite | amenable | custom
    requires: Tuple[Tuple[str, str], ...]
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class HomDecl:
    name: str
    source: str
    target: str
    pairs: Tuple[Tuple[int, int], ...]
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class EdgeDecl:
    v: str
    w: str
    group: GroupExpr
    maps: Optional[Tuple[str, str]]


@dataclass(frozen=True)
class GraphDecl:
    name: str
    vertices: Tuple[Tuple[str, GroupExpr], ...]
    edges: Tuple[EdgeDecl, ...]
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class PolygonDecl:
    name: str
    d: int
    vertices: Tuple[GroupExpr, ...]
    edges: Tuple[GroupExpr, ...]
    face: GroupExpr
    edge_maps: Optional[Tuple[Tuple[str, str], ...]]
    face_maps: Optional[Tuple[str, ...]]
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class GcwDecl:
    name: str
    contractible: bool
    dims: Tuple[Tuple[GroupExpr, ...], ...]
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class BoundaryDecl:
    id: str
    group: GroupExpr
    pi1_injective: bool
    cat_space: Optional[ExtNat]


@dataclass(frozen=True)
class PieceDecl:
    id: str
    group: GroupExpr
    cat_space: Optional[ExtNat]
    boundaries: Tuple[BoundaryDecl, ...]


@dataclass(frozen=True)
class GluingDecl:
    name: str
    n: int
    pieces: Tuple[PieceDecl, ...]
    pairs: Tuple[Tuple[Tuple[str, str], Tuple[str, str]], ...]
    connected: bool
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class DoubleDecl:
    name: str
    n: int
    group: GroupExpr
    cat_space: Optional[ExtNat]
    boundaries: Tuple[BoundaryDecl, ...]
    loc: str = field(compare=False, default="")


@dataclass(frozen=True)
class BranchedDecl:
    name: str
    n: int
    d: int
    piece: GroupExpr
    wall: GroupExpr
    core: GroupExpr
    assume_pi1: bool
    assume_intersection: bool
    wall_embeds: Optional[Tuple[str, str]]
    core_embeds: Optional[str]
    loc: str = field(compare=False, default="")


Decl = Union[GroupDecl, AmalgamDecl, FamilyDecl, HomDecl, GraphDecl,
             PolygonDecl, GcwDecl, GluingDecl, DoubleDecl, BranchedDecl]

_GROUP_DECLS = (GroupDecl, AmalgamDecl, GraphDecl, PolygonDecl, GcwDecl)
_SETUP_DECLS = (GluingDecl, DoubleDecl, BranchedDecl)


@dataclass(frozen=True)
class SourceModel:
    decls: Tuple[Decl, ...]

    def find(self, name: str) -> Optional[Decl]:
        for d in self.decls:
            if d.name == name:
                return d
        return None


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

_DECL_KEYWORDS = ("group", "amalgam", "family", "hom", "graph", "polygon",
                  "gcw", "gluing", "double", "branched")


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.toks = tokens
        self.pos = 0

    # -- stream helpers ---------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def eat(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None,
               what: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind == "error":
            raise _Syntax(t.loc, t.value)
        if self.at(kind, value):
            return self.advance()
        wanted = what or (value if value is not None else kind)
        found = t.value if t.value else t.kind
        raise _Syntax(t.loc, f"expected {wanted!r}, found {found!r}")

    def name(self, what: str = "name") -> str:
        return self.expect("name", what=what).value

    def fresh_name(self, what: str = "name") -> str:
        t = self.expect("name", what=what)
        if t.value in RESERVED:
            raise _Syntax(t.loc, f"{t.value!r} is reserved and cannot be declared")
        return t.value

    def integer(self, what: str = "integer") -> int:
        return int(self.expect("int", what=what).value)

    def extnat(self) -> ExtNat:
        if self.at("name", "inf"):
            self.advance()
            return INF
        return ExtNat(self.integer("integer or 'inf'"))

    def semicolon(self) -> None:
        self.expect("op", ";")

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
        while self.at("name", "x"):
            self.advance()
            parts.append(self.gatom())
        if len(parts) == 1:
            return parts[0]
        return DirectProduct(tuple(parts))

    def gatom(self) -> GroupExpr:
        if self.eat("op", "("):
            e = self.gexpr()
            self.expect("op", ")")
            return e
        if self.at("name", "trivial"):
            self.advance()
            return TrivialGroup()
        if self.at("name", "free"):
            self.advance()
            self.expect("op", "(")
            k = self.integer("free-group rank")
            self.expect("op", ")")
            return free_group_expr(k)
        t = self.expect("name", what="group expression")
        if t.value in RESERVED:
            raise _Syntax(t.loc, f"{t.value!r} cannot be used as a group name")
        return Ref(t.value)

    # -- declarations -----------------------------------------------------

    def module(self) -> List[Decl]:
        decls: List[Decl] = []
        while not self.at("eof"):
            t = self.peek()
            if t.kind == "error":
                raise _Syntax(t.loc, t.value)
            if t.kind != "name" or t.value not in _DECL_KEYWORDS:
                found = t.value if t.value else t.kind
                raise _Syntax(t.loc, f"expected a declaration keyword, found {found!r}")
            decls.append(getattr(self, "decl_" + t.value.replace("-", "_"))())
        return decls

    def decl_group(self) -> GroupDecl:
        loc = self.advance().loc
        name = self.fresh_name("group name")
        rhs: GroupRhs = None
        if self.eat("op", "="):
            rhs = self.group_rhs()
        facts: Tuple[FactEntry, ...] = ()
        if self.eat("op", "{"):
            facts = tuple(self.fact_list())
        else:
            self.semicolon()
        return GroupDecl(name, rhs, facts, loc)

    def group_rhs(self) -> GroupRhs:
        if self.at("name", "cyclic"):
            self.advance()
            self.expect("op", "(")
            k = self.integer("cyclic order")
            self.expect("op", ")")
            return CyclicCtor(k)
        if self.at("name", "product"):
            self.advance()
            self.expect("op", "(")
            names = [self.name("concrete group name")]
            while self.eat("op", ","):
                names.append(self.name("concrete group name"))
            self.expect("op", ")")
            return ProductCtor(tuple(names))
        if self.at("name", "table"):
            self.advance()
            return TableCtor(self.table_literal())
        return self.gexpr()

    def table_literal(self) -> Tuple[Tuple[int, ...], ...]:
        self.expect("op", "[")
        rows: List[Tuple[int, ...]] = []
        while True:
            self.expect("op", "[")
            row = [self.integer()]
            while self.eat("op", ","):
                row.append(self.integer())
            self.expect("op", "]")
            rows.append(tuple(row))
            if not self.eat("op", ","):
                break
        self.expect("op", "]")
        return tuple(rows)

    def fact_list(self) -> List[FactEntry]:
        facts: List[FactEntry] = []
        while not self.eat("op", "}"):
            facts.append(self.fact())
            if not self.at("op", "}"):
                self.semicolon()
            else:
                self.eat("op", ";")
        return facts

    def fact(self) -> FactEntry:
        t = self.expect("name", what="fact")
        key = t.value
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
            tok = self.peek()
            if tok.kind == "name" and tok.value in ("yes", "no"):
                self.advance()
                return FactEntry("member", fam, tri=tok.value)
            raise _Syntax(tok.loc, "expected 'yes' or 'no'")
        raise _Syntax(t.loc, f"unknown fact {key!r}")

    def by_clause(self) -> Optional[str]:
        if self.at("name", "by"):
            self.advance()
            return self.expect("string", what="justification string").value
        return None

    def tri_value(self) -> str:
        tok = self.peek()
        if tok.kind == "name" and tok.value in ("yes", "no", "unknown"):
            self.advance()
            return tok.value
        raise _Syntax(tok.loc, "expected 'yes', 'no', or 'unknown'")

    def decl_amalgam(self) -> AmalgamDecl:
        loc = self.advance().loc
        name = self.fresh_name("amalgam name")
        self.expect("op", "=")
        left = self.fexpr()
        self.expect("op", "*")
        self.expect("op", "[")
        edge = self.gexpr()
        self.expect("op", "]")
        right = self.fexpr()
        maps: Optional[Tuple[str, str]] = None
        if self.at("name", "with"):
            self.advance()
            maps = self.hom_pair()
        self.semicolon()
        return AmalgamDecl(name, left, edge, right, maps, loc)

    def hom_pair(self) -> Tuple[str, str]:
        self.expect("op", "(")
        a = self.name("homomorphism name")
        self.expect("op", ",")
        b = self.name("homomorphism name")
        self.expect("op", ")")
        return (a, b)

    def decl_family(self) -> FamilyDecl:
        loc = self.advance().loc
        name = self.fresh_name("family name")
        self.expect("op", "=")
        t = self.expect("name", what="'trivial', 'finite', 'amenable', or 'custom'")
        if t.value in ("trivial", "finite", "amenable"):
            self.semicolon()
            return FamilyDecl(name, t.value, (), loc)
        if t.value != "custom":
            raise _Syntax(t.loc, f"unknown family base {t.value!r}")
        requires: List[Tuple[str, str]] = []
        self.expect("op", "{")
        while not self.eat("op", "}"):
            flag = self.expect("name", what="'amenable', 'finite', or 'trivial'")
            if flag.value not in ("amenable", "finite", "trivial"):
                raise _Syntax(flag.loc, f"unknown flag {flag.value!r}")
            self.expect("op", "=")
            requires.append((flag.value, self.tri_value()))
            if not self.at("op", "}"):
                self.semicolon()
            else:
                self.eat("op", ";")
        return FamilyDecl(name, "custom", tuple(requires), loc)

    def decl_hom(self) -> HomDecl:
        loc = self.advance().loc
        name = self.fresh_name("homomorphism name")
        self.expect("op", ":")
        source = self.name("source group")
        self.expect("op", "->")
        target = self.name("target group")
        self.expect("op", "{")
        pairs: List[Tuple[int, int]] = []
        while not self.eat("op", "}"):
            a = self.integer("generator element")
            self.expect("op", "->")
            b = self.integer("image element")
            pairs.append((a, b))
            if not self.at("op", "}"):
                self.semicolon()
            else:
                self.eat("op", ";")
        return HomDecl(name, source, target, tuple(pairs), loc)

    def decl_graph(self) -> GraphDecl:
        loc = self.advance().loc
        name = self.fresh_name("graph name")
        self.expect("op", "{")
        vertices: List[Tuple[str, GroupExpr]] = []
        edges: List[EdgeDecl] = []
        while not self.eat("op", "}"):
            t = self.expect("name", what="'vertex' or 'edge'")
            if t.value == "vertex":
                vid = self.name("vertex id")
                self.expect("op", "=")
                vertices.append((vid, self.gexpr()))
                self.semicolon()
            elif t.value == "edge":
                v = self.name("vertex id")
                self.expect("op", "-")
                w = self.name("vertex id")
                self.expect("op", ":")
                g = self.gexpr()
                maps = None
                if self.at("name", "with"):
                    self.advance()
                    maps = self.hom_pair()
                self.semicolon()
                edges.append(EdgeDecl(v, w, g, maps))
            else:
                raise _Syntax(t.loc, f"expected 'vertex' or 'edge', found {t.value!r}")
        return GraphDecl(name, tuple(vertices), tuple(edges), loc)

    def decl_polygon(self) -> PolygonDecl:
        loc = self.advance().loc
        name = self.fresh_name("polygon name")
        self.expect("op", "{")
        self.expect("name", "d")
        self.expect("op", "=")
        d = self.integer("number of sides")
        self.semicolon()
        count = max(d, 1)
        vertices = self.ring_field("vertex", "vertices", count)
        edges = self.ring_field("edge", "edges", count)
        self.expect("name", "face")
        self.expect("op", "=")
        face = self.gexpr()
        self.semicolon()
        edge_maps: Optional[Tuple[Tuple[str, str], ...]] = None
        face_maps: Optional[Tuple[str, ...]] = None
        if self.at("name", "edge_maps"):
            self.advance()
            self.expect("op", "=")
            self.expect("op", "[")
            pairs = [self.hom_pair()]
            while self.eat("op", ","):
                pairs.append(self.hom_pair())
            self.expect("op", "]")
            self.semicolon()
            edge_maps = tuple(pairs)
        if self.at("name", "face_maps"):
            self.advance()
            self.expect("op", "=")
            self.expect("op", "[")
            names = [self.name("homomorphism name")]
            while self.eat("op", ","):
                names.append(self.name("homomorphism name"))
            self.expect("op", "]")
            self.semicolon()
            face_maps = tuple(names)
        self.expect("op", "}")
        return PolygonDecl(name, d, vertices, edges, face, edge_maps, face_maps, loc)

    def ring_field(self, singular: str, plural: str, count: int) -> Tuple[GroupExpr, ...]:
        t = self.expect("name", what=f"'{singular}' or '{plural}'")
        if t.value == singular:
            self.expect("op", "=")
            e = self.gexpr()
            self.semicolon()
            return tuple([e] * count)
        if t.value == plural:
            self.expect("op", "=")
            self.expect("op", "[")
            items = [self.gexpr()]
            while self.eat("op", ","):
                items.append(self.gexpr())
            self.expect("op", "]")
            self.semicolon()
            return tuple(items)
        raise _Syntax(t.loc, f"expected '{singular}' or '{plural}', found {t.value!r}")

    def decl_gcw(self) -> GcwDecl:
        loc = self.advance().loc
        name = self.fresh_name("complex name")
        self.expect("op", "{")
        contractible = False
        if self.at("name", "contractible"):
            self.advance()
            self.expect("op", "=")
            self.expect("name", "assert")
            self.semicolon()
            contractible = True
        rows: Dict[int, Tuple[GroupExpr, ...]] = {}
        while not self.eat("op", "}"):
            t = self.expect("name", "dim")
            i = self.integer("dimension")
            self.expect("op", ":")
            self.expect("op", "[")
            items: List[GroupExpr] = []
            if not self.at("op", "]"):
                items.append(self.gexpr())
                while self.eat("op", ","):
                    items.append(self.gexpr())
            self.expect("op", "]")
            self.semicolon()
            if i in rows:
                raise _Syntax(t.loc, f"dimension {i} listed twice")
            rows[i] = tuple(items)
        top = max(rows) if rows else 0
        dims = tuple(rows.get(i, ()) for i in range(top + 1))
        return GcwDecl(name, contractible, dims, loc)

    def decl_gluing(self) -> GluingDecl:
        loc = self.advance().loc
        name = self.fresh_name("gluing name")
        self.expect("op", "{")
        n = self.n_field()
        pieces: List[PieceDecl] = []
        pairs: List[Tuple[Tuple[str, str], Tuple[str, str]]] = []
        connected = False
        while not self.eat("op", "}"):
            t = self.expect("name", what="'piece', 'pair', or 'connected'")
            if t.value == "piece":
                pieces.append(self.piece_block())
            elif t.value == "pair":
                a = self.dotted_ref()
                self.expect("op", "-")
                b = self.dotted_ref()
                self.semicolon()
                pairs.append((a, b))
            elif t.value == "connected":
                self.expect("op", "=")
                self.expect("name", "assert")
                self.semicolon()
                connected = True
            else:
                raise _Syntax(t.loc, f"unexpected {t.value!r} in gluing block")
        return GluingDecl(name, n, tuple(pieces), tuple(pairs), connected, loc)

    def n_field(self) -> int:
        self.expect("name", "n")
        self.expect("op", "=")
        n = self.integer("dimension")
        self.semicolon()
        return n

    def dotted_ref(self) -> Tuple[str, str]:
        a = self.name("piece id")
        self.expect("op", ".")
        b = self.name("boundary id")
        return (a, b)

    def piece_block(self) -> PieceDecl:
        pid = self.name("piece id")
        self.expect("op", "{")
        self.expect("name", "group")
        self.expect("op", "=")
        group = self.gexpr()
        self.semicolon()
        cat_space = self.opt_cat_space()
        boundaries: List[BoundaryDecl] = []
        while not self.eat("op", "}"):
            self.expect("name", "boundary")
            boundaries.append(self.boundary_block())
        return PieceDecl(pid, group, cat_space, tuple(boundaries))

    def opt_cat_space(self) -> Optional[ExtNat]:
        if self.at("name", "cat_am"):
            self.advance()
            self.expect("op", "<=")
            v = self.extnat()
            self.semicolon()
            return v
        return None

    def boundary_block(self) -> BoundaryDecl:
        bid = self.name("boundary id")
        self.expect("op", ":")
        group = self.gexpr()
        pi1 = False
        cat_space: Optional[ExtNat] = None
        if self.eat("op", "{"):
            while not self.eat("op", "}"):
                t = self.expect("name", what="'pi1_injective' or 'cat_am'")
                if t.value == "pi1_injective":
                    self.expect("op", "=")
                    self.expect("name", "assert")
                    self.semicolon()
                    pi1 = True
                elif t.value == "cat_am":
                    self.expect("op", "<=")
                    cat_space = self.extnat()
                    self.semicolon()
                else:
                    raise _Syntax(t.loc, f"unexpected {t.value!r} in boundary block")
        else:
            self.semicolon()
        return BoundaryDecl(bid, group, pi1, cat_space)

    def decl_double(self) -> DoubleDecl:
        loc = self.advance().loc
        name = self.fresh_name("double name")
        self.expect("op", "{")
        n = self.n_field()
        self.expect("name", "group")
        self.expect("op", "=")
        group = self.gexpr()
        self.semicolon()
        cat_space = self.opt_cat_space()
        boundaries: List[BoundaryDecl] = []
        while not self.eat("op", "}"):
            self.expect("name", "boundary")
            boundaries.append(self.boundary_block())
        return DoubleDecl(name, n, group, cat_space, tuple(boundaries), loc)

    def decl_branched(self) -> BranchedDecl:
        loc = self.advance().loc
        name = self.fresh_name("branched name")
        self.expect("op", "{")
        n = self.n_field()
        self.expect("name", "d")
        self.expect("op", "=")
        d = self.integer("number of copies")
        self.semicolon()
        piece = self.named_field("piece")
        wall = self.named_field("wall")
        core = self.named_field("core")
        assume_pi1 = False
        assume_intersection = False
        wall_embeds: Optional[Tuple[str, str]] = None
        core_embeds: Optional[str] = None
        while not self.eat("op", "}"):
            t = self.expect("name", what="'assume' or 'embed'")
            if t.value == "assume":
                which = self.expect("name",
                                    what="'pi1_injective' or 'intersection'")
                if which.value == "pi1_injective":
                    assume_pi1 = True
                elif which.value == "intersection":
                    assume_intersection = True
                else:
                    raise _Syntax(which.loc, f"cannot assume {which.value!r}")
                self.semicolon()
            elif t.value == "embed":
                which = self.expect("name", what="'wall' or 'core'")
                self.expect("op", "=")
                if which.value == "wall":
                    wall_embeds = self.hom_pair()
                elif which.value == "core":
                    core_embeds = self.name("homomorphism name")
                else:
                    raise _Syntax(which.loc, f"cannot embed {which.value!r}")
                self.semicolon()
            else:
                raise _Syntax(t.loc, f"unexpected {t.value!r} in branched block")
        return BranchedDecl(name, n, d, piece, wall, core, assume_pi1,
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
        elif isinstance(d, FamilyDecl):
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
    if isinstance(d, FamilyDecl):
        if d.base != "custom":
            return f"family {d.name} = {d.base};"
        body = " ".join(f"{flag} = {tri};" for flag, tri in d.requires)
        inner = f" {body} " if body else " "
        return f"family {d.name} = custom {{{inner}}}"
    if isinstance(d, HomDecl):
        body = " ".join(f"{a} -> {b};" for a, b in d.pairs)
        inner = f" {body} " if body else " "
        return f"hom {d.name} : {d.source} -> {d.target} {{{inner}}}"
    if isinstance(d, GraphDecl):
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
    if isinstance(d, PolygonDecl):
        lines = [f"polygon {d.name} {{", f"  d = {d.d};"]
        lines.append("  " + _ring_text("vertex", "vertices", d.vertices) + ";")
        lines.append("  " + _ring_text("edge", "edges", d.edges) + ";")
        lines.append(f"  face = {expr_text(d.face)};")
        if d.edge_maps is not None:
            pairs = ", ".join(f"({a}, {b})" for a, b in d.edge_maps)
            lines.append(f"  edge_maps = [{pairs}];")
        if d.face_maps is not None:
            lines.append("  face_maps = [" + ", ".join(d.face_maps) + "];")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, GcwDecl):
        lines = [f"gcw {d.name} {{"]
        if d.contractible:
            lines.append("  contractible = assert;")
        for i, row in enumerate(d.dims):
            cells = ", ".join(expr_text(g) for g in row)
            lines.append(f"  dim {i} : [{cells}];")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, GluingDecl):
        lines = [f"gluing {d.name} {{", f"  n = {d.n};"]
        for p in d.pieces:
            lines += _piece_lines(p)
        for (pa, ba), (pb, bb) in d.pairs:
            lines.append(f"  pair {pa}.{ba} - {pb}.{bb};")
        if d.connected:
            lines.append("  connected = assert;")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, DoubleDecl):
        lines = [f"double {d.name} {{", f"  n = {d.n};",
                 f"  group = {expr_text(d.group)};"]
        if d.cat_space is not None:
            lines.append(f"  cat_am <= {d.cat_space};")
        for b in d.boundaries:
            lines += _boundary_lines(b, "  ")
        lines.append("}")
        return "\n".join(lines)
    if isinstance(d, BranchedDecl):
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


def _piece_lines(p: PieceDecl) -> List[str]:
    lines = [f"  piece {p.id} {{", f"    group = {expr_text(p.group)};"]
    if p.cat_space is not None:
        lines.append(f"    cat_am <= {p.cat_space};")
    for b in p.boundaries:
        lines += _boundary_lines(b, "    ")
    lines.append("  }")
    return lines


def _boundary_lines(b: BoundaryDecl, pad: str) -> List[str]:
    head = f"{pad}boundary {b.id} : {expr_text(b.group)}"
    if not b.pi1_injective and b.cat_space is None:
        return [head + ";"]
    lines = [head + " {"]
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
    """Register declarations over a copy of `base` (usually the prelude).

    Declarations shadow same-named prelude groups.  Returns the universe
    together with all build and validation diagnostics; a universe with
    diagnostics should not be evaluated.
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
        elif isinstance(d, AmalgamDecl):
            u.graphs[d.name] = GraphOfGroups(
                d.name,
                (("left", d.left), ("right", d.right)),
                (Edge("left", "right", d.edge, d.maps),))
        elif isinstance(d, FamilyDecl):
            kind = {"trivial": FamilyKind.TRIVIAL, "finite": FamilyKind.FINITE,
                    "amenable": FamilyKind.AMENABLE,
                    "custom": FamilyKind.CUSTOM}[d.base]
            reqs = tuple((flag, _TRI[tri]) for flag, tri in d.requires)
            u.families[d.name] = Family(d.name, kind, reqs)
        elif isinstance(d, HomDecl):
            _build_hom(u, d, diags)
        elif isinstance(d, GraphDecl):
            edges = tuple(Edge(e.v, e.w, e.group, e.maps) for e in d.edges)
            u.graphs[d.name] = GraphOfGroups(d.name, d.vertices, edges)
        elif isinstance(d, PolygonDecl):
            _build_polygon(u, d, diags)
        elif isinstance(d, GcwDecl):
            u.gcws[d.name] = GcwDescription(d.name, d.dims, d.contractible)
        elif isinstance(d, _SETUP_DECLS):
            from . import apps
            setup, setup_diags = apps.build_setup(u, d)
            diags.extend(setup_diags)
            if setup is not None:
                u.setups[d.name] = setup
        else:
            raise TypeError(f"unknown declaration {d!r}")
    # checked once everything is registered: a fact may name a family,
    # and a setup a group, declared further down
    known = u.group_names()
    for d in model.decls:
        if isinstance(d, GroupDecl):
            for f in d.facts:
                if f.kind in ("cat", "member") and f.slot not in u.families:
                    diags.append(Diagnostic(d.loc, f"unknown family {f.slot!r}"))
        elif isinstance(d, _SETUP_DECLS):
            for what, e in _setup_groups(d):
                for name in expr_refs(e):
                    if name not in known:
                        diags.append(Diagnostic(
                            d.loc, f"{what}: unresolved group name {name!r}"))
    diags.extend(validate(u))
    return u, diags


def _setup_groups(d: Decl) -> List[Tuple[str, GroupExpr]]:
    'The group expressions a setup declaration names, each with its role.'
    if isinstance(d, GluingDecl):
        out: List[Tuple[str, GroupExpr]] = []
        for p in d.pieces:
            out.append((f"piece {p.id}", p.group))
            out += [(f"boundary {p.id}.{b.id}", b.group) for b in p.boundaries]
        return out
    if isinstance(d, DoubleDecl):
        return [("group", d.group)] + [(f"boundary {b.id}", b.group)
                                       for b in d.boundaries]
    return [("piece", d.piece), ("wall", d.wall), ("core", d.core)]


_TRI = {"yes": Tri.YES, "no": Tri.NO, "unknown": Tri.UNKNOWN}


def _build_group(u: Universe, d: GroupDecl, diags: List[Diagnostic]) -> None:
    sheet = FactSheet(name=d.name)
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
                setattr(sheet, f.slot, _TRI[f.tri])
        elif f.kind == "member":
            sheet.member[f.slot] = _TRI[f.tri]
    u.sheets[d.name] = sheet
    order: Optional[int] = None
    if isinstance(d.rhs, CyclicCtor):
        if d.rhs.order < 1:
            diags.append(Diagnostic(d.loc, "cyclic order must be at least 1"))
            return
        u.concretes[d.name] = cyclic_group(d.rhs.order)
        order = d.rhs.order
    elif isinstance(d.rhs, ProductCtor):
        factors = []
        for fname in d.rhs.factors:
            g = u.concretes.get(fname)
            if g is None:
                diags.append(Diagnostic(
                    d.loc, f"product factor {fname!r} is not a concrete group"))
                return
            factors.append(g)
        u.concretes[d.name] = product_group(factors)
        order = u.concretes[d.name].order
    elif isinstance(d.rhs, TableCtor):
        try:
            u.concretes[d.name] = table_group(d.rhs.rows)
            order = u.concretes[d.name].order
        except ValueError as exc:
            diags.append(Diagnostic(d.loc, f"bad multiplication table: {exc}"))
            return
    elif d.rhs is not None:
        u.defs[d.name] = d.rhs
    for problem in close_sheet(sheet, order):
        diags.append(Diagnostic(d.loc, problem))


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


def _build_polygon(u: Universe, d: PolygonDecl, diags: List[Diagnostic]) -> None:
    if len(d.vertices) != d.d or len(d.edges) != d.d:
        diags.append(Diagnostic(
            d.loc, f"polygon {d.name!r} needs exactly {d.d} vertex and edge entries"))
        return
    if d.edge_maps is not None and len(d.edge_maps) != d.d:
        diags.append(Diagnostic(d.loc, f"polygon {d.name!r} needs {d.d} edge map pairs"))
        return
    if d.face_maps is not None and len(d.face_maps) != d.d:
        diags.append(Diagnostic(d.loc, f"polygon {d.name!r} needs {d.d} face maps"))
        return
    u.polygons[d.name] = PolygonOfGroups(
        d.name, d.d, d.vertices, d.edges, d.face, d.edge_maps, d.face_maps)


# -- prelude and file loading ---------------------------------------------

def prelude_path() -> Path:
    return Path(__file__).parent / "prelude.catb"


def load_prelude(path: Optional[Path] = None) -> Universe:
    p = path if path is not None else prelude_path()
    model = parse(p.read_text(encoding="utf-8"))
    u, diags = build_universe(model, base=None)
    if diags:
        raise ValueError(
            f"prelude {p} has problems: " + "; ".join(str(x) for x in diags))
    return u


def load_text(text: str,
              prelude: Optional[Universe] = None
              ) -> Tuple[Optional[Universe], List[Diagnostic]]:
    model, diags = try_parse(text)
    if model is None:
        return None, diags
    return build_universe(model, base=prelude)
