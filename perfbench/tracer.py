"""Outside-in span tracer for the ``slu`` package.

The tracer replaces every binding through which a public ``slu`` function is
reached with a timing wrapper: module attributes, names imported with
``from`` into other ``slu`` modules, functions held in module-level dicts
(the CLI command table), and the methods and properties of ``JointModel``
and ``Tensor``, ``Tensor.__init__`` included.  All bindings of one function
share one wrapper, so a call is counted once whichever name reached it.

Spans are aggregated in memory per name as call count, busy time (inclusive,
counted once per outermost activation) and self time (busy time minus the
time of directly nested wrapped calls).  Everything is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter_ns

MODULES = (
    "slu", "slu.errors", "slu.ioutil", "slu.data", "slu.subword", "slu.metrics",
    "slu.audio", "slu.autodiff", "slu.crf", "slu.model", "slu.decode", "slu.train",
    "slu.synth", "slu.cli",
)
CLASSES = (("slu.model", "JointModel"), ("slu.autodiff", "Tensor"))


@dataclass
class SpanStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    active: int = 0


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _span_name(func) -> str:
    module = func.__module__.removeprefix("slu.")
    return f"{module}.{func.__qualname__}"


class Tracer:
    """Context manager: wraps the bindings on enter, restores them on exit."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self._children: list[int] = []  # per open span: ns spent in wrapped children
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, func):
        wrapper = self._wrappers.get(id(func))
        if wrapper is not None:
            return wrapper
        name = _span_name(func)
        stats = self.stats.setdefault(name, SpanStats())
        children = self._children
        on_return = self._on_return(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stats.active += 1
            children.append(0)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            finally:
                elapsed = perf_counter_ns() - start
                inner = children.pop()
                stats.calls += 1
                stats.self_ns += elapsed - inner
                stats.active -= 1
                if not stats.active:
                    stats.busy_ns += elapsed
                if children:
                    children[-1] += elapsed

        self._wrappers[id(func)] = wrapper
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _on_return(self, name: str):
        if name == "data.parse_manifest":
            def count_records(manifest):
                self.counters["data.records_parsed"] = (
                    self.counters.get("data.records_parsed", 0) + len(manifest.records)
                )
            return count_records
        return None

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if not _public(attr):
                continue
            if isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(member.__func__)))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(member.__func__)))
            elif isinstance(member, property) and member.fget is not None:
                self._set(cls, attr, property(self._wrap(member.fget), member.fset, member.fdel))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member))

    def _wrap_module(self, module) -> None:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__.startswith("slu") and _public(value.__name__):
                self._set(module, attr, self._wrap(value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item.__module__.startswith("slu") and _public(item.__name__):
                        self._restore.append((value, key, item))
                        value[key] = self._wrap(item)

    def __enter__(self) -> "Tracer":
        for module_name, class_name in CLASSES:
            self._wrap_class(getattr(importlib.import_module(module_name), class_name))
        for module_name in MODULES:
            self._wrap_module(importlib.import_module(module_name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- reading --------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def busy_s(self, name: str) -> float:
        return self.stats[name].busy_ns / 1e9 if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name].self_ns / 1e9 if name in self.stats else 0.0

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, busy_s, self_s) for every span that ran, largest self time first."""
        rows = [
            (name, s.calls, s.busy_ns / 1e9, s.self_ns / 1e9)
            for name, s in self.stats.items()
            if s.calls
        ]
        return sorted(rows, key=lambda row: -row[3])
