"""Determinism lint: nondeterminism sources in determinism-critical code.

Every subsystem since the sweep runner stakes correctness on
byte-identical replay — cached sweeps compare digests, parallel sweeps
must match at any worker count, checkpoints must resume to the same
report.  A single wall-clock read, unseeded RNG draw, or
set-iteration order leaking into a result silently breaks all of it,
usually long after the offending line was merged.  These rules flag the
sources at the line level inside the determinism-critical packages
(``repro.sim``, ``repro.core``, ``repro.graphs``, ``repro.lists``,
``repro.obs``); intentional uses carry ``# allow_nondet: <reason>``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..findings import Finding
from .base import ModuleContext, Rule, call_name, walk_scoped

#: The packages whose outputs must be byte-identical run to run.
DETERMINISM_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.graphs",
    "repro.lists",
    "repro.obs",
    "repro.xval",
)

#: RNG constructors that are deterministic *when explicitly seeded*.
_SEEDED_CTORS = {"default_rng", "RandomState", "Generator", "SeedSequence"}


class _DeterminismRule(Rule):
    family = "determinism"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_package(*DETERMINISM_PACKAGES)


class NondetCallRule(_DeterminismRule):
    """Wall clocks, unseeded RNGs, uuid/secrets/urandom, salted hash()."""

    id = "nondet-call"

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            reason = self._diagnose(node)
            if reason is not None:
                yield self.finding(
                    ctx, node, reason, witness={"call": call_name(node) or "?"}
                )

    def _diagnose(self, node: ast.Call) -> Optional[str]:
        name = call_name(node)
        if name is None:
            # np.random.<fn>(...) — a two-level attribute chain
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Attribute)
                and isinstance(fn.value.value, ast.Name)
                and fn.value.value.id in ("np", "numpy")
                and fn.value.attr == "random"
            ):
                if fn.attr in _SEEDED_CTORS and (node.args or node.keywords):
                    return None
                return (
                    f"numpy.random.{fn.attr} draws from global/unseeded state; "
                    f"pass an explicit seed through the workload instead"
                )
            return None
        mod, _, attr = name.partition(".")
        if mod == "time" and attr:
            return (
                f"time.{attr} reads the wall clock; simulated results must "
                f"not depend on host timing"
            )
        if mod in ("uuid", "secrets") and attr:
            return f"{name} is nondeterministic by design"
        if name == "os.urandom":
            return "os.urandom is nondeterministic by design"
        if mod == "random" and attr:
            if attr in ("Random", "getstate", "setstate"):
                if attr == "Random" and not (node.args or node.keywords):
                    return "random.Random() without a seed is nondeterministic"
                return None
            return (
                f"random.{attr} uses the global unseeded RNG; use a seeded "
                f"random.Random / numpy Generator derived from the workload seed"
            )
        if name == "hash" and node.args:
            return (
                "builtin hash() is salted per process (PYTHONHASHSEED); its "
                "value must never reach a simulated result or an on-disk key"
            )
        return None


class NondetEnvRule(_DeterminismRule):
    """``os.environ`` / ``os.getenv`` reads inside determinism-critical code."""

    id = "nondet-env"

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "os.environ read in a determinism-critical package; "
                    "environment must not influence simulated results",
                    witness={"call": "os.environ"},
                )
            elif isinstance(node, ast.Call) and call_name(node) == "os.getenv":
                yield self.finding(
                    ctx,
                    node,
                    "os.getenv read in a determinism-critical package; "
                    "environment must not influence simulated results",
                    witness={"call": "os.getenv"},
                )


#: Callables whose output order mirrors their input's iteration order.
_ORDER_EXPOSING_CALLS = {"list", "tuple", "iter", "enumerate", "reversed"}
#: set methods returning another set.
_SET_PRODUCING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}


class NondetSetIterRule(_DeterminismRule):
    """Iteration whose order comes from a ``set``/``frozenset``.

    Set iteration order varies with insertion history and hash salting;
    any loop, comprehension, or ``list()``-style materialization over a
    set leaks that order into whatever it builds.  Wrapping the set in
    ``sorted(...)`` (or ``min``/``max``/``sum``, which are
    order-insensitive) is the fix and is not flagged.  The rule tracks
    local names assigned set-valued expressions within one scope, so
    ``seen = set()`` … ``for x in seen`` is caught, not just literal
    ``for x in {…}``.
    """

    id = "nondet-set-iter"

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        scopes = [ctx.tree] + [
            n
            for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            yield from self._scan_scope(ctx, scope)

    def _scan_scope(self, ctx: ModuleContext, scope: ast.AST) -> Iterator[Finding]:
        set_names: Set[str] = set()
        # pass 1: names bound to set-valued expressions in this scope only
        # (nested functions are their own scopes in the caller's loop)
        for node in walk_scoped(scope):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                if value is not None and self._is_set_expr(value, set_names):
                    for t in targets:
                        if isinstance(t, ast.Name):
                            set_names.add(t.id)
        # pass 2: iteration contexts
        for node in walk_scoped(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, set_names):
                    yield self._flag(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if self._is_set_expr(comp.iter, set_names):
                        yield self._flag(ctx, comp.iter)
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if (
                    name in _ORDER_EXPOSING_CALLS
                    and node.args
                    and self._is_set_expr(node.args[0], set_names)
                ):
                    yield self._flag(ctx, node)
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and self._is_set_expr(node.args[0], set_names)
                ):
                    yield self._flag(ctx, node)

    def _flag(self, ctx: ModuleContext, node: ast.AST) -> Finding:
        return self.finding(
            ctx,
            node,
            "iteration order taken from a set/frozenset; wrap in sorted(...) "
            "or keep an explicitly ordered structure",
        )

    def _is_set_expr(self, node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("set", "frozenset"):
                return True
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in _SET_PRODUCING_METHODS
                and self._is_set_expr(fn.value, set_names)
            ):
                return True
        return False


class NondetIdOrderRule(_DeterminismRule):
    """``id()`` values used at all in determinism-critical code.

    ``id()`` is an address: stable within one process, different across
    processes — so an id-keyed dict merged across pool workers, or an
    id-based sort, silently diverges.  Pure same-process membership
    tests are legitimate and carry an ``# allow_nondet`` annotation.
    """

    id = "nondet-id-order"

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
            ):
                yield self.finding(
                    ctx,
                    node,
                    "id() values are per-process addresses; they must never "
                    "key persisted/merged data or feed an ordering",
                )


DETERMINISM_RULES = (
    NondetCallRule(),
    NondetEnvRule(),
    NondetSetIterRule(),
    NondetIdOrderRule(),
)
