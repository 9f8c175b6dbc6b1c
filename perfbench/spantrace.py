"""Span recording by wrapping the public entry points of the simulator.

The benchmark never edits the program it measures.  Instead it replaces
chosen functions and methods with thin wrappers, from outside, for the
length of one traced pass.  Each wrapped call records one span: its
name, host start, host end and parent (the innermost wrapped call that
was open when it began).  A span's *self time* is its duration minus the
durations of its direct wrapped children; because calls nest strictly on
one thread, the children never overlap, so that difference is exactly
the part of the interval no child covers.

Targets are written ``"package.module:Class.method"`` or
``"package.module:function"``.  A method is wrapped on its class and on
every loaded subclass that defines its own version, because callers look
methods up through the instance's class.  A function is wrapped in every
loaded module of the package that binds it, because ``from x import f``
copies the binding at import time and callers then look ``f`` up in their
own module.  Generator functions are never wrapped: calling one only
builds the generator, so a span would measure nothing.  A target that
cannot be found is reported, not fatal.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Target", "SpanRecorder", "install", "self_times"]


class Target:
    """One thing to wrap, with optional hooks.

    ``before(args, kwargs)`` runs just before the call and ``after(args,
    kwargs, result)`` just after it returns normally; both run inside
    the span, so their cost lands in the wrapped name's self time of the
    traced run only.
    """

    __slots__ = ("name", "path", "before", "after")

    def __init__(self, name: str, path: str,
                 before: Optional[Callable[..., None]] = None,
                 after: Optional[Callable[..., None]] = None):
        self.name = name
        self.path = path
        self.before = before
        self.after = after


class SpanRecorder:
    """In-memory spans in parallel typed arrays (no per-span objects)."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        #: indices of spans whose call raised
        self.errors: List[int] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.name_of)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A wrapper around ``fn`` recording one span per call."""
        nid = self.name_id(target.name)
        clock = self.clock
        stack = self._stack
        name_of, starts = self.name_of, self.starts
        ends, parents = self.ends, self.parents
        errors = self.errors
        before, after = target.before, target.after

        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            except BaseException:
                errors.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", target.name)
        return wrapper

    def durations(self, name: str) -> List[float]:
        """Host seconds of each outermost call of ``name`` (a call nested
        directly in another call of the same name is part of it)."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        name_of, parents = self.name_of, self.parents
        return [self.ends[i] - self.starts[i]
                for i in range(len(name_of))
                if name_of[i] == nid
                and (parents[i] < 0 or name_of[parents[i]] != nid)]

    def to_json(self, missing: Iterable[str] = ()) -> str:
        """The spans as JSON, times in seconds from the first span."""
        t0 = self.starts[0] if len(self) else 0.0
        return json.dumps({
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[self.name_of[i], round(self.starts[i] - t0, 7),
                       round(self.ends[i] - t0, 7), self.parents[i]]
                      for i in range(len(self))],
            "errors": self.errors,
            "missing_targets": sorted(missing),
        }, separators=(",", ":"))


def self_times(recorder: SpanRecorder) -> Dict[str, Tuple[int, float, float]]:
    """Per span name: (calls, total host s, self host s).

    ``calls`` counts entries into a name from outside it, so a method
    that calls its own overridden base (``super().m()``, both wrapped)
    counts once; ``total`` sums those outermost durations; ``self`` sums
    every span's duration minus its direct wrapped children's.
    """
    n = len(recorder)
    name_of, parents = recorder.name_of, recorder.parents
    starts, ends = recorder.starts, recorder.ends
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: Dict[str, List[float]] = {}
    for i in range(n):
        row = out.setdefault(recorder.names[name_of[i]], [0, 0.0, 0.0])
        dur = ends[i] - starts[i]
        row[2] += dur - child[i]
        p = parents[i]
        if p < 0 or name_of[p] != name_of[i]:
            row[0] += 1
            row[1] += dur
    return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}


def _resolve(path: str) -> Tuple[Any, str, str]:
    """``(owner, attribute, package)`` for a target path."""
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], module_name.split(".")[0]


def _subclasses(cls: type) -> List[type]:
    seen, todo, out = set(), [cls], []
    while todo:
        c = todo.pop()
        if c in seen:
            continue
        seen.add(c)
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class install:
    """Context manager wrapping ``targets`` with ``recorder``.

    ``missing`` lists each target that could not be found or was refused
    (a generator function), with the reason.  Every replaced binding is
    restored on exit.
    """

    def __init__(self, recorder: SpanRecorder, targets: Iterable[Target]):
        self.recorder = recorder
        self.targets = list(targets)
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attr: str, fn: Callable,
                 target: Target) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, self.recorder.wrap(fn, target))

    def __enter__(self) -> "install":
        for target in self.targets:
            try:
                owner, attr, package = _resolve(target.path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing.append(f"{target.path}: {exc}")
                continue
            if inspect.isgeneratorfunction(original):
                self.missing.append(
                    f"{target.path}: generator function, not wrapped")
                continue
            if isinstance(owner, type):
                for cls in _subclasses(owner):
                    fn = cls.__dict__.get(attr)
                    if fn is None:
                        continue
                    if not inspect.isfunction(fn) \
                            or inspect.isgeneratorfunction(fn):
                        self.missing.append(
                            f"{cls.__module__}:{cls.__qualname__}.{attr}: "
                            f"not a plain function, not wrapped")
                        continue
                    self._replace(cls, attr, fn, target)
            else:
                for name, module in list(sys.modules.items()):
                    if (module is not None
                            and (name == package
                                 or name.startswith(package + "."))
                            and module.__dict__.get(attr) is original):
                        self._replace(module, attr, original, target)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
