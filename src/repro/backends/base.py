"""The Backend protocol: one interface over every execution stack.

The repository times the paper's kernels five different ways — three
analytic machine models (SMP, MTA, cluster) and two cycle-level engines
(SMP, MTA).  Historically each CLI command and benchmark wired the
machine or engine it wanted by hand; a :class:`Backend` hides that
plumbing behind two calls:

``prepare(workload) -> RunHandle``
    Generate (or fetch from the memo) the workload's input — a
    successor list, a graph, an expression tree — and bundle it with
    the workload description.

``execute(handle) -> RunSummary``
    Run the kernel on this backend's execution stack and report the
    result as a :class:`repro.obs.RunSummary`, the one record type
    every stack already produces.  Kernel-specific measurements
    (iterations, cost triplet, algorithm stats) land in
    ``summary.detail``.

A :class:`Workload` is declarative and JSON-serializable, so the sweep
runner (:mod:`repro.core.runner`) can hash it for the on-disk result
cache and ship it to worker processes.  Concrete backends live in
:mod:`repro.backends.analytic` and :mod:`repro.backends.engine`; the
name-based registry is :mod:`repro.backends.registry`.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ConfigurationError

__all__ = [
    "Workload", "RunHandle", "Backend", "CHECKPOINT_KEYS", "canonical_json",
    "checkpoint_spec", "int_value", "override_config",
]


def _jsonable(value):
    """Coerce numpy scalars / tuples to plain JSON types, recursively.
    ``np.longdouble`` becomes a float; ``np.clongdouble`` is refused."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if not isinstance(value, (str, bytes)):
        if hasattr(value, "tolist"):  # numpy arrays and scalars
            kind = getattr(getattr(value, "dtype", None), "kind", "O")
            scalar, value = value, value.tolist()
            if type(value) is type(scalar):
                if isinstance(value, numbers.Real):
                    return float(value)
                raise ConfigurationError(f"{value!r} has no JSON form")
            # only object and structured arrays hold tuples or NumPy
            # values; other plain lists are returned without a copy
            return value if kind not in "OV" and _plain(value) else _jsonable(value)
        if hasattr(value, "item"):
            try:
                return value.item()
            except (AttributeError, ValueError):
                pass
    return value


#: Element types ``_jsonable`` leaves as they are.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))


def _plain(value) -> bool:
    """Whether ``value`` holds only str-keyed dicts, lists, tuples and
    str/int/float/bool/None, which the C encoder writes exactly as
    ``_jsonable`` would normalize them.  A scalar-only container is
    cleared at C speed by the type set of its elements."""
    if isinstance(value, dict):
        if not _STR.issuperset(map(type, value)):
            return False
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return type(value) in _SCALARS
    return _SCALARS.issuperset(map(type, value)) or all(map(_plain, value))


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Deterministic JSON for hashing: sorted keys, no whitespace.

    The bytes are the hash input of ``SweepCache.key_for``,
    ``derive_seed``, service digests and checkpoint keys, and the text
    of every stored record, so they must never change: they are
    ``json.dumps(_jsonable(obj), sort_keys=True, separators=(",",
    ":"))``.  One C-encoder pass writes them; ``_jsonable`` copies
    ``obj`` first only when it holds NumPy values or a dict key that
    is not a str.
    """
    return _ENCODER.encode(_as_plain(obj))


def _as_plain(value):
    """``value`` as :func:`canonical_json` encodes it: itself when
    ``_plain`` clears it, else its ``_jsonable`` copy."""
    return value if _plain(value) else _jsonable(value)


_REQUIRED = object()


def int_value(mapping: Mapping[str, Any], key: str, default: Any = _REQUIRED):
    """``mapping[key]`` as an int, or ``default`` when the key is absent
    or None (a None default is returned as is).

    Workload params and options arrive from the CLI and the service, so
    a missing required key or a value that is not an integer (a bool, a
    float or a string is not one) raises
    :class:`~repro.errors.ConfigurationError` naming the key and value.
    """
    value = mapping.get(key)
    if value is None:
        value = default
    if value is _REQUIRED:
        raise ConfigurationError(f"workload needs an integer {key!r}")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{key}={value!r} is not an integer")
    return int(value)


#: Keys a client may set in a checkpoint spec.  The sweep runner adds
#: ``key`` (the job's artifact key) and ``_stop`` (its drain hook).
CHECKPOINT_KEYS = frozenset({"every", "dir", "resume", "fresh"})


def checkpoint_spec(spec, keys=CHECKPOINT_KEYS) -> dict:
    """``spec`` as a checkpoint spec dict, checked.

    A spec is a mapping with no key outside ``keys``, whose ``every`` is
    a positive integer and whose ``dir``, ``resume`` and ``key`` are
    non-empty strings; each may be absent or None.  Anything else raises
    :class:`~repro.errors.ConfigurationError`.  The service applies the
    same rules to a submission's ``checkpoint`` object.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"checkpoint must be a mapping, got {spec!r}")
    unknown = sorted(str(k) for k in spec if k not in keys)
    if unknown:
        raise ConfigurationError(f"unknown checkpoint option(s): {', '.join(unknown)}")
    every = spec.get("every")
    if every is not None and (type(every) is not int or every < 1):
        raise ConfigurationError(f"checkpoint 'every' must be a positive integer, got {every!r}")
    for key in ("dir", "resume", "key"):
        value = spec.get(key)
        if value is not None and (not isinstance(value, str) or not value):
            raise ConfigurationError(
                f"checkpoint {key!r} must be a non-empty string, got {value!r}"
            )
    return dict(spec)


def override_config(config, overrides, what: str):
    """``config`` with ``overrides`` applied by ``dataclasses.replace``.

    A dict value aimed at a dataclass-typed field updates that nested
    config and keeps its other fields, e.g. ``{"l2": {"size_words":
    1 << 18}}`` resizes an SMP config's L2.  An unknown field raises
    :class:`~repro.errors.ConfigurationError` naming ``what``; so does
    any value the config's own validation rejects.
    """
    if not overrides:
        return config
    if not isinstance(overrides, Mapping):
        raise ConfigurationError(f"bad {what}: expected a mapping, got {overrides!r}")
    merged = {}
    for key, value in overrides.items():
        current = getattr(config, key, None)
        if isinstance(value, Mapping) and dataclasses.is_dataclass(current):
            value = override_config(current, value, f"{what}, field {key!r}")
        merged[key] = value
    try:
        return dataclasses.replace(config, **merged)
    except TypeError as exc:
        raise ConfigurationError(f"bad {what}: {exc}") from None


@dataclass(frozen=True)
class Workload:
    """One declarative unit of work: a kernel on an input at a scale.

    Attributes
    ----------
    kind:
        Kernel family: ``"rank"`` (list ranking), ``"cc"`` (connected
        components), ``"bfs"``, ``"msf"``, ``"tree"`` (expression
        evaluation by contraction), or ``"chase"`` (the latency-hiding
        microbenchmark).
    p:
        Simulated processor count.
    seed:
        Seed for input generation and any randomized kernel choices.
        The sweep runner derives this deterministically from the spec
        seed and the grid point, so results never depend on worker
        count or completion order.
    params:
        Input description, e.g. ``{"n": 65536, "list": "random"}`` or
        ``{"graph": "random", "n": 4096, "m": 32768}``.
    options:
        Kernel/backend knobs, e.g. ``{"algorithm": "helman-jaja"}``,
        ``{"streams_per_proc": 64, "dynamic": False}``.  Everything
        here must be JSON-serializable.
    """

    kind: str
    p: int = 1
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)

    def canonical(self) -> dict:
        """JSON-ready dict, the hashing and pickling form."""
        return {
            "kind": self.kind,
            "p": int(self.p),
            "seed": int(self.seed),
            "params": _jsonable(dict(self.params)),
            "options": _jsonable(dict(self.options)),
        }

    def digest(self) -> str:
        """Content hash of this workload description."""
        return hashlib.sha256(canonical_json(self.canonical()).encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Workload":
        return cls(
            kind=d["kind"],
            p=int(d.get("p", 1)),
            seed=int(d.get("seed", 0)),
            params=dict(d.get("params", {})),
            options=dict(d.get("options", {})),
        )

    def option(self, key: str, default=None):
        return self.options.get(key, default)


@dataclass
class RunHandle:
    """A prepared run: the workload plus its generated input.

    ``data`` holds whatever the backend's kernels consume (a successor
    array, an :class:`~repro.graphs.edgelist.EdgeList`, a ``(graph,
    weights)`` pair, an expression tree); ``meta`` carries input
    statistics worth reporting (n, m, …).
    """

    workload: Workload
    data: Any = None
    meta: dict = field(default_factory=dict)


class Backend(abc.ABC):
    """One execution stack, able to run declarative workloads.

    Subclasses set :attr:`name`, :attr:`level`, and :attr:`kinds`, and
    implement :meth:`execute`.  :meth:`prepare` has a default that
    routes through :mod:`repro.backends.inputs`.
    """

    #: Registry name, e.g. ``"smp-model"``.
    name: str = "backend"
    #: ``"model"`` (analytic) or ``"engine"`` (cycle-level).
    level: str = "model"
    #: Workload kinds this backend can execute.
    kinds: tuple = ()
    #: One-line human description for ``repro backends``.
    description: str = ""

    def supports(self, workload: Workload) -> bool:
        """Whether this backend can execute ``workload``."""
        return workload.kind in self.kinds

    def prepare(self, workload: Workload) -> RunHandle:
        """Generate (or recall) the workload's input."""
        from .inputs import input_for

        if not self.supports(workload):
            raise ConfigurationError(
                f"backend {self.name!r} does not support workload kind"
                f" {workload.kind!r} (supported: {', '.join(self.kinds)})"
            )
        data, meta = input_for(workload)
        return RunHandle(workload=workload, data=data, meta=meta)

    @abc.abstractmethod
    def execute(self, handle: RunHandle):
        """Run the prepared workload; returns a :class:`repro.obs.RunSummary`."""

    def run(self, workload: Workload):
        """``execute(prepare(workload))`` — the one-call convenience."""
        return self.execute(self.prepare(workload))
