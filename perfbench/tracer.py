"""In-memory span tracer installed around taboowalk's public functions.

Every public function defined in the traced modules is wrapped, and every
module-level binding of it in any ``taboowalk`` module is replaced by the
wrapper: ``from .x import f`` copies the binding, so patching the home
module alone would miss callers in other modules.

A span records its name, start, end, parent span, op id, the growth of
the process's peak RSS across the call, whether its arguments equal an
earlier call's, and a per-function work count.  Spans stay in memory and
are written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import json
import resource
import sys
import time
import types

import numpy as np

MODULES = ("cli", "limits", "curves", "kernels", "quadrature", "model", "simulate")

# Arrays above this size are not compared for repeats: hashing them would
# cost more than most traced calls.
_MAX_KEY_BYTES = 1 << 20


class _Unkeyable(Exception):
    pass


def _key(v):
    """Hashable stand-in for an argument value, compared by equality."""
    if isinstance(v, np.ndarray):
        if v.nbytes > _MAX_KEY_BYTES:
            raise _Unkeyable
        digest = hashlib.blake2b(np.ascontiguousarray(v), digest_size=16).digest()
        return ("ndarray", v.shape, v.dtype.str, digest)
    if isinstance(v, (list, tuple)):
        return (type(v).__name__,) + tuple(_key(x) for x in v)
    if isinstance(v, dict):
        return ("dict",) + tuple(sorted((k, _key(x)) for k, x in v.items()))
    if callable(v) and not isinstance(v, type):
        # closures are rebuilt on every call; identity says nothing about equality
        raise _Unkeyable
    try:
        hash(v)
    except TypeError:
        raise _Unkeyable from None
    return v


def _work_count(name: str, bound: inspect.BoundArguments) -> float:
    """Exact work units of one call for the functions that report one."""
    a = bound.arguments
    if name == "model.char_exponent_grid":
        return float(np.shape(a["theta"])[0])
    if name == "simulate.absorption_limit_bracket":
        return float((2 * int(a["box_radius"]) + 1) ** a["model"].d)
    if name == "simulate.estimate_taboo_curve":
        return float(a["sim"].n_paths)
    return 0.0


_COUNTED = ("model.char_exponent_grid", "simulate.absorption_limit_bracket",
            "simulate.estimate_taboo_curve")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        # [name_idx, start, end, parent, op, rss_growth_mb, repeat, work]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._paused = False
        self.op = 0
        self.bindings = 0

    @contextlib.contextmanager
    def paused(self):
        """Run library calls without recording them (benchmark-side checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name: str, fn):
        idx = self._name_idx.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        seen = self._seen.setdefault(name, set())
        sig = inspect.signature(fn) if name in _COUNTED else None
        spans, stack = self.spans, self._stack
        maxrss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # noqa: E731

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            try:
                key = _key((args, kwargs))
                repeat = key in seen
                seen.add(key)
            except _Unkeyable:
                repeat = False
            work = _work_count(name, sig.bind(*args, **kwargs)) if sig else 0.0
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, repeat, work]
            stack.append(len(spans))
            spans.append(rec)
            rss0 = maxrss()
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[5] = (maxrss() - rss0) / 1024.0
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of MODULES and rebind them everywhere."""
        wrappers: dict[int, types.FunctionType] = {}
        for short in MODULES:
            mod = importlib.import_module(f"taboowalk.{short}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "taboowalk" and not modname.startswith("taboowalk."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    setattr(mod, attr, w)
                    self.bindings += 1

    def dump(self, path, **extra) -> None:
        out = {"names": self.names, "bindings": self.bindings, "spans": self.spans, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def summarize(trace: dict) -> dict:
    """Per-function aggregates from a dumped trace.

    ``self_s`` is each span's duration minus its direct children's;
    ``total_s``, ``repeat_s`` and ``peak_rss_growth_mb`` sum only the
    outermost spans of a function, so recursion is not counted twice.
    """
    names = trace["names"]
    spans = trace["spans"]
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    agg = {name: {"calls": 0, "repeat_calls": 0, "total_s": 0.0, "self_s": 0.0,
                  "repeat_s": 0.0, "peak_rss_growth_mb": 0.0, "work": 0.0}
           for name in names}
    # outermost[i]: no ancestor of span i has the same name
    outermost = [True] * n
    for i, s in enumerate(spans):
        p = s[3]
        while p >= 0:
            if spans[p][0] == s[0]:
                outermost[i] = False
                break
            p = spans[p][3]
    for i, s in enumerate(spans):
        a = agg[names[s[0]]]
        a["calls"] += 1
        a["self_s"] += dur[i] - child[i]
        a["work"] += s[7]
        if s[6]:
            a["repeat_calls"] += 1
        if outermost[i]:
            a["total_s"] += dur[i]
            a["peak_rss_growth_mb"] += s[5]
            if s[6]:
                a["repeat_s"] += dur[i]
    root_s = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    return {"functions": agg, "root_s": root_s, "spans": n}
