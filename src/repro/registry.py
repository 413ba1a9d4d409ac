"""Cross-cutting component registry and spec-string resolution.

Every pluggable component family of the reproduction -- KV-cache policies,
speculative-decoding drafters, eDRAM refresh policies, baseline hardware
systems, rival accelerators, model shapes and workload traces -- registers
itself in a named registry, making the whole design space addressable by
short **spec strings**::

    resolve("cache", "h2o:budget=512,sink_tokens=4")
    resolve("system", "kelle+edram:kv_budget=1024")
    resolve("trace", "pg19:batch=1")

A spec is ``name`` or ``name:key=value,key=value,...``.  Values are coerced to
``int``, ``float``, ``bool`` (``true``/``false``/``yes``/``no``/``on``/``off``)
or ``None`` (``none``/``null``) when they parse as such, otherwise kept as
strings.  Unknown names, unknown parameters and malformed specs all raise
:class:`RegistryError` whose message lists what *is* known.

Components register with the :func:`register` decorator::

    @register("cache", "h2o", description="heavy-hitter eviction baseline")
    def _build_h2o(budget: int = 512, sink_tokens: int = 10) -> KVCacheFactory:
        ...

Built-in components live in their defining modules (``repro.core.kv_pool``,
``repro.core.policy``, ``repro.baselines.*``, ...), which are imported lazily
on the first :func:`resolve`/:func:`known` call for their kind, so importing
:mod:`repro.registry` itself stays dependency-free.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable


class RegistryError(Exception):
    """Raised for unknown names/kinds, malformed specs and bad parameters."""


def _known_clause(kind: str, names: list[str]) -> str:
    if not names:
        return f"no {kind} components are registered"
    return f"known {kind} names: {', '.join(sorted(names))}"


@dataclass(frozen=True)
class Registration:
    """One registered component builder."""

    name: str
    builder: Callable[..., Any]
    aliases: tuple[str, ...] = ()
    description: str = ""

    @property
    def parameters(self) -> list[str]:
        """Keyword parameters the builder accepts."""
        sig = inspect.signature(self.builder)
        return [p.name for p in sig.parameters.values()
                if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]

    @property
    def accepts_any_kwargs(self) -> bool:
        sig = inspect.signature(self.builder)
        return any(p.kind is p.VAR_KEYWORD for p in sig.parameters.values())


class Registry:
    """A named registry of component builders for one component kind."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Registration] = {}
        self._aliases: dict[str, str] = {}

    # -- registration ---------------------------------------------------
    def register(self, name: str, *aliases: str,
                 description: str = "") -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering ``fn`` as the builder for ``name``."""

        def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
            self.add(name, fn, *aliases, description=description)
            return fn

        return decorator

    def add(self, name: str, builder: Callable[..., Any], *aliases: str,
            description: str = "") -> None:
        """Non-decorator registration (used for loop registration)."""
        key = name.lower()
        alias_keys = [alias.lower() for alias in aliases]
        # Validate every name before mutating, so a collision leaves the
        # registry untouched.
        taken = set(self._entries) | set(self._aliases)
        if key in taken:
            raise RegistryError(f"{self.kind} '{name}' is already registered")
        for alias, alias_key in zip(aliases, alias_keys):
            if alias_key in taken or alias_key == key or alias_keys.count(alias_key) > 1:
                raise RegistryError(f"{self.kind} alias '{alias}' is already registered")
        self._entries[key] = Registration(name=name, builder=builder,
                                          aliases=tuple(aliases), description=description)
        for alias_key in alias_keys:
            self._aliases[alias_key] = key

    # -- lookup ---------------------------------------------------------
    def names(self) -> list[str]:
        """Canonical registered names (aliases excluded), sorted."""
        return sorted(entry.name for entry in self._entries.values())

    def entry(self, name: str) -> Registration:
        key = name.lower()
        key = self._aliases.get(key, key)
        if key not in self._entries:
            raise RegistryError(
                f"unknown {self.kind} '{name}'; {_known_clause(self.kind, self.names())}")
        return self._entries[key]

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        return key in self._entries or key in self._aliases

    # -- construction ---------------------------------------------------
    def build(self, name: str, **kwargs: Any) -> Any:
        """Build the component ``name`` with keyword overrides."""
        entry = self.entry(name)
        if not entry.accepts_any_kwargs:
            accepted = entry.parameters
            unknown = sorted(set(kwargs) - set(accepted))
            if unknown:
                raise RegistryError(
                    f"unknown parameter(s) {', '.join(unknown)} for {self.kind} "
                    f"'{entry.name}'; accepted: {', '.join(accepted) or '(none)'}")
        return entry.builder(**kwargs)

    def resolve(self, spec: str, **overrides: Any) -> Any:
        """Parse ``spec`` and build the named component."""
        name, kwargs = parse_spec(spec, kind=self.kind, known=self.names())
        kwargs.update(overrides)
        return self.build(name, **kwargs)


# ----------------------------------------------------------------------
# Spec-string parsing
# ----------------------------------------------------------------------
def _coerce(text: str) -> Any:
    value = text.strip()
    lowered = value.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def parse_spec(spec: str, kind: str = "component",
               known: list[str] | None = None) -> tuple[str, dict[str, Any]]:
    """Split ``"name:key=value,..."`` into ``(name, kwargs)``.

    ``kind``/``known`` only refine the error messages.
    """
    if not isinstance(spec, str):
        raise RegistryError(f"{kind} spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    hint = "" if known is None else f"; {_known_clause(kind, known)}"
    if not text:
        raise RegistryError(f"empty {kind} spec{hint}")
    name, _, params = text.partition(":")
    name = name.strip()
    if not name:
        raise RegistryError(f"{kind} spec '{spec}' has no component name{hint}")
    kwargs: dict[str, Any] = {}
    if params.strip():
        for item in params.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise RegistryError(
                    f"malformed parameter '{item.strip()}' in {kind} spec '{spec}' "
                    f"(expected key=value){hint}")
            if not key.isidentifier():
                raise RegistryError(
                    f"invalid parameter name '{key}' in {kind} spec '{spec}'{hint}")
            kwargs[key] = _coerce(value)
    return name, kwargs


# ----------------------------------------------------------------------
# Global registries
# ----------------------------------------------------------------------
_REGISTRIES: dict[str, Registry] = {}

#: Modules defining the built-in components of each kind, imported lazily so
#: the registry module itself has no heavyweight dependencies.
_BUILTIN_MODULES: dict[str, tuple[str, ...]] = {
    "cache": ("repro.core.policy", "repro.core.kv_pool",
              "repro.baselines.eviction", "repro.baselines.quant_kv"),
    "drafter": ("repro.llm.speculate",),
    "policy": ("repro.serve.scheduler",),
    "router": ("repro.serve.cluster",),
    "migration": ("repro.serve.cluster",),
    "admission": ("repro.serve.admission",),
    "fault": ("repro.serve.faults",),
    "refresh": ("repro.core.refresh",),
    "system": ("repro.baselines.systems",),
    "accelerator": ("repro.baselines.accelerators",),
    "model": ("repro.llm.config",),
    "trace": ("repro.workloads.generator",),
}

_LOADED_KINDS: set[str] = set()


def registry(kind: str) -> Registry:
    """The registry of one component kind (created on first use)."""
    key = kind.lower()
    if key not in _REGISTRIES:
        if key not in _BUILTIN_MODULES:
            raise RegistryError(
                f"unknown registry kind '{kind}'; known kinds: "
                f"{', '.join(sorted(_BUILTIN_MODULES))}")
        _REGISTRIES[key] = Registry(key)
    return _REGISTRIES[key]


def _ensure_builtins(kind: str) -> None:
    key = kind.lower()
    if key in _LOADED_KINDS:
        return
    reg = registry(key)  # validates the kind
    _LOADED_KINDS.add(key)
    for module in _BUILTIN_MODULES.get(reg.kind, ()):
        importlib.import_module(module)


def register(kind: str, name: str, *aliases: str,
             description: str = "") -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a builder under ``kind``/``name`` (+aliases)."""
    return registry(kind).register(name, *aliases, description=description)


def known(kind: str) -> list[str]:
    """Canonical names registered under ``kind``."""
    _ensure_builtins(kind)
    return registry(kind).names()


def known_kinds() -> list[str]:
    """The component kinds with built-in registrations."""
    return sorted(_BUILTIN_MODULES)


def describe(kind: str) -> dict[str, str]:
    """Mapping of canonical name -> description for one kind."""
    _ensure_builtins(kind)
    reg = registry(kind)
    return {name: reg.entry(name).description for name in reg.names()}


def resolve(kind: str, spec: Any, **overrides: Any) -> Any:
    """Resolve a spec string (or pass through an already-built component).

    ``resolve("cache", "h2o:budget=512")`` parses the spec and calls the
    registered builder.  Non-string ``spec`` values are returned unchanged
    (after applying no overrides), so call sites can accept either form.
    """
    if not isinstance(spec, str):
        if overrides:
            raise RegistryError(
                f"cannot apply overrides {sorted(overrides)} to an already-built "
                f"{kind} component")
        return spec
    _ensure_builtins(kind)
    return registry(kind).resolve(spec, **overrides)


__all__ = [
    "Registration",
    "Registry",
    "RegistryError",
    "describe",
    "known",
    "known_kinds",
    "parse_spec",
    "register",
    "registry",
    "resolve",
]
