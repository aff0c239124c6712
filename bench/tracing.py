"""Span recording around catbound's public functions, from outside src/.

``Tracer.install()`` replaces each traced function by a wrapper, in every
catbound module attribute that binds it (``facts.membership_with_reason``
and ``engine.membership_with_reason`` alike) and on the class for
methods.  A wrapper records calls, inclusive time of outermost calls and
self time (its duration minus the wrapped calls it made) per layer
group.  Calls outside the hot set also keep a span (query, id, name,
start, end, id of the enclosing span) in memory; ``write_spans`` saves
them at the end.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# group -> traced functions, as (module, qualified name)
GROUPS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cli.main": (("cli", "main"),),
    "dsl.prelude": (("dsl", "load_prelude"),),
    "dsl.load_text": (("dsl", "load_text"),),
    "dsl.parse": (("dsl", "parse"), ("dsl", "try_parse")),
    "dsl.tokenize": (("dsl", "tokenize"),),
    "dsl.build": (("dsl", "build_universe"),),
    "model.validate": (("model", "validate"),),
    "model.table_verify": (("model", "ConcreteFiniteGroup.verify"),),
    "model.resolve": (("model", "Universe.resolve"), ("model", "Universe.resolve_chain")),
    "facts.membership": (("facts", "membership"), ("facts", "membership_with_reason")),
    "facts.provably": (("facts", "provably_trivial"), ("facts", "provably_nontrivial"),
                       ("facts", "provably_infinite")),
    "engine.memo_get": (("facts", "MemoTable.get"),),
    "engine.evaluator": (("engine", "Evaluator.__init__"),),
    "engine.eval": (("engine", "Evaluator.bound_cat"), ("engine", "Evaluator.bound_gd"),
                    ("engine", "Evaluator.bound_cd"), ("engine", "Evaluator.bound_tc")),
    "engine.to_json": (("engine", "BoundResult.to_json"),),
    "engine.assumptions": (("engine", "BoundResult.assumptions"),),
    "engine.replay": (("engine", "replay"),),
    "develop.target": (("develop", "develop_target"),),
    "develop.ball": (("develop", "bass_serre_ball"), ("develop", "polygon_ball")),
    "develop.mul": (("develop", "AmalgamContext.mul"),),
    "develop.curvature": (("develop", "check_curvature"),),
    "develop.stabilizers": (("develop", "verify_stabilizers"),),
    "apps.certify": (("apps", "certify_gluing"), ("apps", "certify_double"),
                     ("apps", "certify_branched")),
    "apps.build_setup": (("apps", "build_setup"),),
}

# called thousands of times per query: counted and timed, no span kept
HOT = {"model.resolve", "facts.membership", "facts.provably", "engine.memo_get",
       "engine.eval", "engine.replay", "develop.mul"}

MODULES = ("catbound", "catbound.extnat", "catbound.model", "catbound.facts",
           "catbound.dsl", "catbound.engine", "catbound.develop", "catbound.apps",
           "catbound.cli")


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.active: Dict[str, int] = defaultdict(int)
        # per active call: [group, time in wrapped children, id of the
        # innermost enclosing span]
        self.stack: List[list] = []
        self.spans: List[tuple] = []         # (query, id, name, start, end, parent id)
        self.ids = itertools.count()
        self.query = 0
        self.memo_hits = 0
        self.tokens = 0
        self.tree_cells = 0                  # cells of Bass-Serre balls
        self.ball_cells = 0
        self.roots: list = []                # outermost bound results of the query
        self.patched: List[tuple] = []       # (owner, attribute, original)

    def _wrap(self, group: str, name: str, fn):
        tracer = self
        keep_span = group not in HOT
        perf = time.perf_counter
        stack, active = self.stack, self.active
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        spans, ids = self.spans, self.ids

        def wrapper(*args, **kwargs):
            outermost = active[group] == 0
            parent = stack[-1][2] if stack else None
            span_id = next(ids) if keep_span else parent
            frame = [group, 0.0, span_id]
            stack.append(frame)
            active[group] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[group] -= 1
                took = end - start
                calls[name] += 1
                self_time[group] += took - frame[1]
                if outermost:
                    inclusive[group] += took
                if stack:
                    stack[-1][1] += took
                if keep_span:
                    spans.append((tracer.query, span_id, name, start, end, parent))
            tracer._observe(group, outermost, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _observe(self, group: str, outermost: bool, result) -> None:
        if group == "engine.memo_get" and result is not None:
            self.memo_hits += 1
        elif group == "dsl.tokenize":
            self.tokens += len(result)
        elif group == "engine.eval" and outermost:
            self.roots.append(result.trace)
        elif group == "develop.ball":
            self.ball_cells += len(result.cells)
            if all(c.dim <= 1 for c in result.cells):
                self.tree_cells += len(result.cells)

    def install(self) -> None:
        mods = [sys.modules[m] for m in MODULES]
        for group, targets in GROUPS.items():
            for modname, qual in targets:
                owner = sys.modules[f"catbound.{modname}"]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self.patched.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(group, f"{modname}.{qual}", original))
                    continue
                original = getattr(owner, qual)
                wrapper = self._wrap(group, f"{modname}.{qual}", original)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self.patched.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        self.patched.clear()

    def end_query(self) -> Tuple[int, int]:
        """Close the current query: count the distinct (by identity) and
        expanded trace nodes under its outermost bound results.  Expanded
        is the length of ``walk()``, computed over the shared nodes."""
        expanded_of: Dict[int, int] = {}
        total = 0
        for root in self.roots:
            todo = [(root, False)]
            while todo:
                node, done = todo.pop()
                if id(node) in expanded_of:
                    continue
                if done:
                    expanded_of[id(node)] = 1 + sum(expanded_of[id(p)]
                                                    for p in node.premises)
                else:
                    todo.append((node, True))
                    todo.extend((p, False) for p in node.premises
                                if id(p) not in expanded_of)
            total += expanded_of[id(root)]
        self.roots.clear()
        self.query += 1
        return len(expanded_of), total

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for q, span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"query": q, "id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
