"""Reference implementations that tests compare the package against.

Each oracle computes its answer a second, slower way, reading only the
public data of the model and sharing no helper with the code it checks.
"""

from dataclasses import dataclass
from typing import List, Tuple

from catbound.develop import CurvatureReport, DevelopmentBall
from catbound.engine import DerivationNode, Evaluator
from catbound.extnat import ExtNat, ext_max, supremum
from catbound.facts import Family
from catbound.model import GcwDescription, PolygonOfGroups, Universe


def brute_force_curvature(u: Universe, p: PolygonOfGroups) -> CurvatureReport:
    """The link condition by elementwise scans with list membership, no
    set algebra: at each vertex the two adjacent edge images must meet
    exactly in the face image."""
    if not p.concrete_maps:
        raise ValueError(f"polygon {p.name!r} has no concrete maps")
    d = p.d
    face_group = u.concretes[p.face_group.name]
    for i in range(d):
        g = u.concretes[p.vertex_groups[i].name]
        prev_edge = u.concretes[p.edge_groups[(i - 1) % d].name]
        next_edge = u.concretes[p.edge_groups[i].name]
        h_in = u.homs[p.edge_maps[(i - 1) % d][1]]
        h_out = u.homs[p.edge_maps[i][0]]
        h_face = u.homs[p.face_maps[i]]
        im_in: List[int] = []
        for x in range(prev_edge.order):
            v = h_in.images[x]
            if v not in im_in:
                im_in.append(v)
        im_out: List[int] = []
        for x in range(next_edge.order):
            v = h_out.images[x]
            if v not in im_out:
                im_out.append(v)
        inter: List[int] = []
        for y in range(g.order):
            if y in im_in and y in im_out and y not in inter:
                inter.append(y)
        fimg: List[int] = []
        for z in range(face_group.order):
            v = h_out.images[h_face.images[z]]
            if v not in fimg:
                fimg.append(v)
        if sorted(inter) != sorted(fimg):
            return CurvatureReport(False, i, tuple(sorted(inter)),
                                   f"vertex {i}: intersection {sorted(inter)} "
                                   f"differs from face image {sorted(fimg)}")
    return CurvatureReport(True, detail="verified elementwise")


def tree_defect(ball: DevelopmentBall) -> int:
    'Independent cycles of the 1-skeleton: E - V + number of components.'
    vertices = [c.id for c in ball.of_dim(0)]
    parent = {v: v for v in vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = 0
    for c in ball.of_dim(1):
        ends = [i for i in c.incident if i in parent]
        if len(ends) == 2:
            edges += 1
            ra, rb = find(ends[0]), find(ends[1])
            if ra != rb:
                parent[ra] = rb
    components = len({find(v) for v in vertices})
    return edges - len(vertices) + components


def max_combination(ev: Evaluator, x: GcwDescription, fam: Family) -> ExtNat:
    'Closed form for the all-max ladder: no recursion, one sup.'
    base = supremum(ev.bound_cat(g, fam).value for g in x.dims[0])
    shifted = supremum(ev.bound_gd(g).value + i
                       for i in range(1, x.n + 1) for g in x.dims[i])
    return ext_max(base, shifted)


def sum_combination(ev: Evaluator, x: GcwDescription, fam: Family) -> ExtNat:
    'Closed form for the all-sum ladder.'
    total = supremum(ev.bound_cat(g, fam).value for g in x.dims[0])
    for i in range(1, x.n + 1):
        total = total + supremum(ev.bound_cat(g, fam).value + 1
                                 for g in x.dims[i])
    return total


def dag_size(root: DerivationNode) -> Tuple[int, int]:
    """Distinct nodes of a derivation (by identity) and the premise
    citations among them, by a plain worklist over node ids."""
    seen = {id(root)}
    todo = [root]
    edges = 0
    while todo:
        node = todo.pop()
        edges += len(node.premises)
        for p in node.premises:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen), edges


# -- the character-by-character tokenizer that dsl.tokenize replaced ------

_PUNCT2 = ("<=", "->")
_PUNCT1 = "{}()[];:,=-.*<>"
_DIGITS = "0123456789"      # str.isdigit() also admits '²' and other scripts


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
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
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
