"""Hook/engine discipline: keep the runner and bus seams load-bearing.

Three invariants established by earlier PRs, previously enforced (if at
all) by ad-hoc runtime tests:

* Benchmarks route execution through the sweep runner (``Job`` →
  ``repro.core.run_jobs``), never by constructing machines/engines or
  calling ``simulate_*`` entry points directly — otherwise they bypass
  caching and checkpointing, and their numbers stop being
  comparable with everything else.  This promotes the PR 2
  ``test_benchmarks_go_through_the_runner`` source grep into a real AST
  rule; the two benchmarks whose *measurement* is the direct path carry
  ``# allow_direct_engine: <reason>`` on those lines.  The CLI
  (``repro.cli``) is held to the same rule: every command runs kernels
  through the :mod:`repro.backends` registry, so there is one execution
  path per concern.
* Hooks speak only the 13 declared :data:`~repro.sim.hooks.HOOK_EVENTS`.
  A typo'd event name (``on_barier_release``) fails silently — the bus
  just never calls it — so both sides are checked: string event names
  passed to ``emit``/``listeners``, and public methods of ``*Hook``
  adapter classes.
* The kernel hot core (``kernel``/``fastpath``/``thread``/``isa``)
  imports no instrumentation (``repro.obs``, ``repro.analysis``).  The
  whole HookBus design exists so the interpreter loop pays one ``is not
  None`` per event; a direct import recouples the layers and drags
  tracer/checker code back into the per-op path.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ...sim.hooks import HOOK_EVENTS
from ..findings import Finding
from .base import ModuleContext, Rule, call_name

#: Machine/engine constructors that only the runner seam may call.
BANNED_CONSTRUCTORS = (
    "SMPMachine",
    "MTAMachine",
    "MTANextMachine",
    "ClusterMachine",
    "Engine",
    "SMPEngine",
    "MTAEngine",
    "MTANextEngine",
)

#: Modules whose per-op interpreter loops must stay instrumentation-free.
HOT_LOOP_MODULES = (
    "repro.sim.kernel",
    "repro.sim.fastpath",
    "repro.sim.thread",
    "repro.sim.isa",
)

#: Packages a hot-loop module must not import from.
_INSTRUMENTATION_PACKAGES = ("repro.obs", "repro.analysis")

#: Non-event public names a ``*Hook`` adapter legitimately exposes.
_HOOK_NON_EVENTS = {"tracer", "checker", "bus", "hooks"}


class EngineDirectConstructRule(Rule):
    """Benchmarks and the CLI run kernels through the runner and the
    backends, never by building machines or engines."""

    id = "engine-direct-construct"
    family = "discipline"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("benchmarks", "repro.cli")

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_package("benchmarks"):
            who = "benchmark"
            fix_construct = "submit a Job to repro.core.run_jobs so caching/checkpointing apply"
            fix_call = "use the engine backends via the sweep runner"
        else:
            who = "CLI"
            fix_construct = fix_call = "run the workload through a repro.backends backend"
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            bare = name.rpartition(".")[2]
            if bare in BANNED_CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"{who} constructs {bare} directly; {fix_construct}",
                    witness={"constructor": bare},
                )
            elif bare.startswith("simulate_"):
                yield self.finding(
                    ctx,
                    node,
                    f"{who} calls {bare} directly; {fix_call}",
                    witness={"constructor": bare},
                )


class HookEventUnknownRule(Rule):
    """Event names outside the declared HOOK_EVENTS set."""

    id = "hook-event-unknown"
    family = "discipline"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro")

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.ClassDef) and node.name.endswith("Hook"):
                yield from self._check_hook_class(ctx, node)

    def _check_call(self, ctx: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        fn = node.func
        if not (isinstance(fn, ast.Attribute) and fn.attr in ("emit", "listeners")):
            return
        if not node.args:
            return
        arg = node.args[0]
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return
        if arg.value not in HOOK_EVENTS:
            yield self.finding(
                ctx,
                node,
                f"{fn.attr}({arg.value!r}) names an event outside the declared "
                f"HOOK_EVENTS set; the bus would silently never deliver it",
                witness={"event": arg.value},
            )

    def _check_hook_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = item.name
            if name.startswith("_") or name in _HOOK_NON_EVENTS:
                continue
            if any(
                isinstance(dec, ast.Name) and dec.id in ("property", "staticmethod")
                or isinstance(dec, ast.Attribute)
                for dec in item.decorator_list
            ):
                continue
            if name not in HOOK_EVENTS:
                yield self.finding(
                    ctx,
                    item,
                    f"{cls.name}.{name} is public but is not one of the declared "
                    f"HOOK_EVENTS; the bus will never call it (typo'd event "
                    f"names fail silently)",
                    witness={"class": cls.name, "method": name},
                )


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Absolute module named by ``from <level dots><target> import …``."""
    parts = module.split(".")
    base = parts[: len(parts) - level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class HotLoopImportRule(Rule):
    """No instrumentation imports in the kernel hot core."""

    id = "hot-loop-import"
    family = "discipline"

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.module in HOT_LOOP_MODULES

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._check_target(ctx, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                target = node.module
                if node.level:
                    target = _resolve_relative(ctx.module, node.level, target)
                if target:
                    yield from self._check_target(ctx, node, target)

    def _check_target(
        self, ctx: ModuleContext, node: ast.AST, target: str
    ) -> Iterator[Finding]:
        for pkg in _INSTRUMENTATION_PACKAGES:
            if target == pkg or target.startswith(pkg + "."):
                yield self.finding(
                    ctx,
                    node,
                    f"hot-core module imports {target}; instrumentation reaches "
                    f"the kernel only through the HookBus seam",
                    witness={"import": target},
                )


DISCIPLINE_RULES = (
    EngineDirectConstructRule(),
    HookEventUnknownRule(),
    HotLoopImportRule(),
)
