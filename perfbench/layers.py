"""Module -> layer map and cProfile attribution for the traced runs.

Layers are named after the ``repro`` modules that implement them.  A
profiled function belongs to the layer of its module.  Self time spent
outside ``repro`` (builtins, numpy, json, asyncio) is charged to the
``repro`` layers that called it, split by the per-caller self time
cProfile records; time with no ``repro`` caller at all is ``other``.
"""

from __future__ import annotations

import inspect
import pstats
from pathlib import Path

#: Layer self-time metrics, in report order.
SELF_LAYERS = (
    "inputs",
    "programs",
    "isa",
    "memory",
    "kernel",
    "mta_engine",
    "smp_engine",
    "arch_cache",
    "fastpath",
    "report",
    "xval",
    "models",
    "runner",
    "sweep_cache",
    "service",
    "other",
)

#: ``repro`` module (dotted, without the ``repro.`` prefix) -> layer.  A
#: package entry covers every module under it.  Modules the workloads
#: execute but this map misses land in ``other`` and are listed on
#: stderr, so the map can be kept closed.
MODULE_LAYERS = {
    "backends.inputs": "inputs",
    "lists.generate": "inputs",
    "graphs.generate": "inputs",
    "graphs.edgelist": "inputs",
    "lists.programs": "programs",
    "graphs.programs": "programs",
    "graphs.variants": "programs",
    "sim.isa": "isa",
    "arch.memory": "memory",
    "sim.kernel": "kernel",
    "sim.thread": "kernel",
    "sim.hooks": "kernel",
    "sim.checkpoint": "kernel",
    "sim.mta_engine": "mta_engine",
    "sim.mta_next": "mta_engine",
    "sim.machines": "mta_engine",
    "sim.smp_engine": "smp_engine",
    "sim.branch": "smp_engine",
    "arch.cache": "arch_cache",
    "sim.fastpath": "fastpath",
    "obs": "report",
    "sim.stats": "report",
    "backends.base": "report",
    "xval": "xval",
    "backends.xval": "xval",
    "backends.analytic": "models",
    "backends.kernels": "models",
    "core.machine": "models",
    "core.smp_machine": "models",
    "core.mta_machine": "models",
    "core.cluster_machine": "models",
    "core.cost": "models",
    "core.schedule": "models",
    "core.metrics": "models",
    "lists.helman_jaja": "models",
    "lists.wyllie": "models",
    "lists.mta_ranking": "models",
    "lists._traversal": "models",
    "lists.sequential": "models",
    "lists.prefix": "models",
    "lists.types": "models",
    "graphs.sv_smp": "models",
    "graphs.sv_mta": "models",
    "graphs.shiloach_vishkin": "models",
    "graphs.sequential_cc": "models",
    "graphs.types": "models",
    "graphs._util": "models",
    "core.runner": "runner",
    "backends.engine": "runner",
    "backends.registry": "runner",
    "workloads": "runner",
    "core.cache": "sweep_cache",
    "service": "service",
    "errors": "other",
    "cli": "other",
}

#: Modules whose generator functions are the thread programs the
#: kernel resumes once per issued op.
PROGRAM_MODULES = tuple(m for m, layer in MODULE_LAYERS.items() if layer == "programs")


def layer_of(module: str) -> str | None:
    """The layer of a dotted ``repro`` module, or None when unmapped."""
    parts = module.split(".")
    for i in range(len(parts), 0, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:i]))
        if layer is not None:
            return layer
    return None


class Attribution:
    """Per-layer self time and call counts of one merged profile."""

    def __init__(self, stats: pstats.Stats, repro_root: Path, extra: dict | None = None):
        """``extra`` maps ``(filename, funcname)`` of helper functions
        outside ``repro`` (the benchmark's own wrappers) to a layer."""
        self._root = repro_root.resolve()
        self._stats = stats.stats
        self._extra = extra or {}
        self._module_memo: dict[str, str | None] = {}
        self.unmapped: set[str] = set()
        self.self_s = self._self_times()

    def _module(self, filename: str) -> str | None:
        if filename not in self._module_memo:
            mod = None
            if filename.endswith(".py"):
                try:
                    rel = Path(filename).resolve().relative_to(self._root)
                except ValueError:
                    rel = None
                if rel is not None:
                    mod = ".".join(rel.with_suffix("").parts)
                    if mod.endswith("__init__"):
                        mod = mod[: -len("__init__")].rstrip(".") or "__init__"
            self._module_memo[filename] = mod
        return self._module_memo[filename]

    def _own_layer(self, func) -> str | None:
        extra = self._extra.get((func[0], func[2]))
        if extra is not None:
            return extra
        mod = self._module(func[0])
        if mod is None:
            return None
        layer = layer_of(mod)
        if layer is None:
            self.unmapped.add(mod)
            return "other"
        return layer

    def _self_times(self) -> dict[str, float]:
        own = {func: self._own_layer(func) for func in self._stats}
        memo: dict = {}

        def share(func, depth=0) -> dict[str, float]:
            layer = own.get(func)
            if layer is not None:
                return {layer: 1.0}
            if func in memo:
                return memo[func]
            entry = self._stats.get(func)
            if entry is None or depth > 64 or not entry[4]:
                return {"other": 1.0}
            memo[func] = {"other": 1.0}  # recursion guard
            callers = entry[4]
            weights = {c: v[2] for c, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: float(v[1]) for c, v in callers.items()}
                total = sum(weights.values()) or 1.0
            out: dict[str, float] = {}
            for caller, w in weights.items():
                for layer, frac in share(caller, depth + 1).items():
                    out[layer] = out.get(layer, 0.0) + frac * w / total
            memo[func] = out
            return out

        times = dict.fromkeys(SELF_LAYERS, 0.0)
        for func, entry in self._stats.items():
            for layer, frac in share(func).items():
                times[layer] += entry[2] * frac
        return times

    # -- counts -----------------------------------------------------------------

    def calls(self, module: str, name: str | None = None) -> int:
        """Calls (generator resumes included) into ``module``'s functions,
        or only those named ``name``."""
        total = 0
        for func, entry in self._stats.items():
            if self._module(func[0]) == module and (name is None or func[2] == name):
                total += entry[1]
        return total

    def generator_resumes(self, modules=PROGRAM_MODULES) -> int:
        """Resumes of generator functions defined in ``modules``."""
        gens = set()
        for mod in modules:
            path = self._root.joinpath(*mod.split(".")).with_suffix(".py")
            gens |= _generator_code_keys(path)
        return sum(
            entry[1]
            for func, entry in self._stats.items()
            if (str(Path(func[0]).resolve()), func[1], func[2]) in gens
        )


def _generator_code_keys(path: Path) -> set:
    """``(filename, firstlineno, name)`` of every generator function in
    a source file, nested functions included."""
    if not path.is_file():
        return set()
    code = compile(path.read_text(encoding="utf-8"), str(path.resolve()), "exec")
    out = set()
    stack = [code]
    while stack:
        co = stack.pop()
        if co.co_flags & inspect.CO_GENERATOR:
            out.add((co.co_filename, co.co_firstlineno, co.co_name))
        stack.extend(c for c in co.co_consts if hasattr(c, "co_code"))
    return out
