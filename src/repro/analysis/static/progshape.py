"""Program-generator shape lint over the ISA generators in graphs//lists/.

Thread programs are Python generators yielding op tuples
(:mod:`repro.sim.isa`).  Three shape bugs slip through runtime testing
because they only bite under a schedule or input the tests didn't hit:

* a barrier yielded in one branch of an ``if`` inside a loop body but
  not the other — threads that take different branches arrive different
  numbers of times and the run deadlocks (or worse, releases early on a
  later iteration's arrivals);
* a raw op tuple with the wrong operand count — the engines dispatch on
  the tag and unpack positionally, so ``("FA", addr)`` is an unpack
  error at simulation time (or a silently wrong ``inc``) far from the
  generator that built it;
* a ``run_block`` containing value-returning/synchronizing ops — ``VR``
  blocks are defined as straight-line ``C``/``L``/``LD``/``S`` runs, and
  the vectorized fast tier batch-executes them on that assumption.

Intentional asymmetric barriers (e.g. a leader-only release protocol)
carry ``# allow_shape: <reason>``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..findings import Finding
from .base import ModuleContext, Rule, call_name

#: Full tuple length (tag included) for every opcode.
OP_ARITY = {
    "C": 2,
    "L": 2,
    "LD": 2,
    "S": 2,
    "FA": 3,
    "SLE": 2,
    "SLF": 2,
    "SSF": 3,
    "B": 2,
    "P": 2,
    "VR": 2,
}

#: Tags legal inside a ``run_block`` (straight-line, vectorizable).
PLAIN_TAGS = {"C", "L", "LD", "S"}

#: isa helper name -> the tag it builds.
_HELPER_TAGS = {
    "compute": "C",
    "load": "L",
    "load_dep": "LD",
    "store": "S",
    "fetch_add": "FA",
    "sync_load_consume": "SLE",
    "sync_load_peek": "SLF",
    "sync_store": "SSF",
    "barrier": "B",
    "phase": "P",
    "run_block": "VR",
}

GENERATOR_PACKAGES = ("repro.graphs", "repro.lists")


def _yielded_tag(node: ast.expr) -> Optional[str]:
    """The opcode tag of a yielded expression, when statically known."""
    if isinstance(node, ast.Tuple) and node.elts:
        first = node.elts[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value if first.value in OP_ARITY else None
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name is not None:
            return _HELPER_TAGS.get(name.rpartition(".")[2])
    return None


class _ShapeRule(Rule):
    family = "shape"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_package(*GENERATOR_PACKAGES)


class GenOpArityRule(_ShapeRule):
    """Raw op tuples must match the known opcode arities."""

    id = "gen-op-arity"

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Yield):
                continue
            value = node.value
            if not (isinstance(value, ast.Tuple) and value.elts):
                continue
            first = value.elts[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            tag = first.value
            arity = OP_ARITY.get(tag)
            if arity is None:
                yield self.finding(
                    ctx,
                    value,
                    f"yielded raw tuple has unknown opcode tag {tag!r}; the "
                    f"engines dispatch on the tag and would fail at simulation "
                    f"time",
                    witness={"tag": tag},
                )
            elif any(isinstance(e, ast.Starred) for e in value.elts):
                continue  # splat — length not statically known
            elif len(value.elts) != arity:
                yield self.finding(
                    ctx,
                    value,
                    f"raw {tag!r} tuple has {len(value.elts)} elements, opcode "
                    f"takes {arity} (tag + {arity - 1} operand(s)); prefer the "
                    f"repro.sim.isa constructor which validates operands",
                    witness={"tag": tag, "got": len(value.elts), "want": arity},
                )


class GenBarrierBalanceRule(_ShapeRule):
    """Barrier yields must be balanced across branches of a loop body.

    For every ``if`` statement inside a loop inside a generator, the
    barrier-yield count of the true branch must equal the false
    branch's.  Threads running the same generator with different data
    otherwise arrive at the barrier different numbers of times per
    iteration, which is a deadlock (or an early release) by
    construction.
    """

    id = "gen-barrier-balance"

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(
                isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(fn)
            ):
                continue
            for loop in ast.walk(fn):
                if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                    continue
                for stmt in loop.body:
                    yield from self._check_branches(ctx, stmt)

    def _check_branches(self, ctx: ModuleContext, stmt: ast.stmt) -> Iterator[Finding]:
        # walk the loop body's statement tree, stopping at nested loops
        # (their iteration counts differ legitimately) and nested defs
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.If):
            n_body = sum(self._barrier_count(s) for s in stmt.body)
            n_else = sum(self._barrier_count(s) for s in stmt.orelse)
            if n_body != n_else:
                yield self.finding(
                    ctx,
                    stmt,
                    f"barrier yield in only one branch of this if "
                    f"({n_body} vs {n_else}); threads taking different "
                    f"branches arrive unequal numbers of times and the "
                    f"barrier deadlocks",
                    witness={"body": n_body, "orelse": n_else},
                )
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                yield from self._check_branches(ctx, child)

    def _barrier_count(self, stmt: ast.stmt) -> int:
        count = 0
        for node in ast.walk(stmt):
            if isinstance(node, ast.Yield) and node.value is not None:
                if _yielded_tag(node.value) == "B":
                    count += 1
        return count


class GenRunBlockShapeRule(_ShapeRule):
    """``run_block`` contents must be straight-line plain ops."""

    id = "gen-runblock-shape"

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or name.rpartition(".")[2] != "run_block":
                continue
            if not node.args:
                continue
            ops = node.args[0]
            if not isinstance(ops, (ast.List, ast.Tuple)):
                continue  # dynamic sequence — checked at runtime by OpBlock
            for elt in ops.elts:
                tag = self._element_tag(elt)
                if tag is not None and tag not in PLAIN_TAGS:
                    yield self.finding(
                        ctx,
                        elt,
                        f"run_block contains a {tag!r} op; VR blocks are "
                        f"straight-line C/L/LD/S only (nothing that returns a "
                        f"value, synchronizes, or marks a phase)",
                        witness={"tag": tag},
                    )

    def _element_tag(self, elt: ast.expr) -> Optional[str]:
        if isinstance(elt, ast.Tuple) and elt.elts:
            first = elt.elts[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                return first.value
        if isinstance(elt, ast.Call):
            name = call_name(elt)
            if name is not None:
                return _HELPER_TAGS.get(name.rpartition(".")[2])
        return None


SHAPE_RULES = (
    GenOpArityRule(),
    GenBarrierBalanceRule(),
    GenRunBlockShapeRule(),
)
