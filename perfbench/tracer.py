"""Span tracing of truncperm from outside the package.

`install` wraps the public functions listed in `TRACED` by rebinding module
attributes: every truncperm module attribute that refers to the original
function is pointed at a wrapper that records a span (name, start, end,
parent).  The package itself is not edited, so the same benchmark traces any
commit; a function a later commit removes is skipped and its metrics read 0.

Spans are kept in flat in-memory arrays and, when the traced cell ends,
summarised (total and self time per span name) and written out as one
``.npz`` file.  The traced methods (per-symbol permutation calls are too many
to keep as spans) are only timed: their seconds are added to a counter named
as the benchmark metric and charged to the enclosing span, so its self time
excludes them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, counter suffix, how the counter is read)
#   counter "arg:<name>" adds that argument, "len:<name>" its length,
#   "result" adds the return value, "items" counts generator items.
TRACED = [
    ("truncperm.cli", "main", None, None),
    ("truncperm.exact", "count_partitions", None, None),
    ("truncperm.exact", "enumerate_profiles", "profiles", "items"),
    ("truncperm.exact", "exact_advantage", None, None),
    ("truncperm.exact", "mc_advantage", "trials", "arg:trials"),
    ("truncperm.core", "likelihood_ratio", None, None),
    ("truncperm.core", "all_distinct_prob", None, None),
    ("truncperm.core", "sample_function_count_matrix", "rows", "arg:trials"),
    ("truncperm.core", "sample_permutation_count_matrix", "rows", "arg:trials"),
    ("truncperm.core", "parallel_map", "tasks", "len:args_list"),
    ("truncperm.game", "play_game_sharded", None, None),
    ("truncperm.game", "rule_advantage_exact", None, None),
    ("truncperm.moments", "moments_empirical", None, None),
    ("truncperm.bounds", "bound_report", None, None),
    ("truncperm.stream", "generate_stream", "bytes", "result"),
]

# (module, class, method, counter that accumulates its seconds)
TRACED_METHODS = [
    ("truncperm.stream", "ExplicitPermutation", "__init__", "stream.ExplicitPermutation.init_s"),
    ("truncperm.stream", "ExplicitPermutation", "__call__", "stream.perm_call.s.explicit"),
    ("truncperm.stream", "FeistelPermutation", "__call__", "stream.perm_call.s.feistel"),
]


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.covered = array("d")  # time of accumulated (non-span) children
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.covered.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        while self.stack and self.stack.pop() != idx:
            pass

    def close_all(self) -> None:
        """Close spans left open by an interrupted cell."""
        now = perf_counter()
        for idx in self.stack:
            self.end[idx] = now
        self.stack.clear()

    def accumulate(self, key: str, seconds: float) -> None:
        self.counters[key] += seconds
        if self.stack:
            self.covered[self.stack[-1]] += seconds

    def summary(self) -> dict:
        """Total, self time and call count per span name, plus the counters."""
        out: dict[str, float] = dict(self.counters)
        if not self.start:
            return out
        names = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child - np.asarray(self.covered)
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name + ".s"] = float(dur[sel].sum())
            out[name + ".self_s"] = float(self_s[sel].sum())
            out[name + ".calls"] = float(sel.sum())
        return out

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def _counter_reader(how: str | None, fn):
    if how is None or how in ("items", "result"):
        return None
    kind, arg = how.split(":")
    sig = inspect.signature(fn)

    def read(args, kwargs) -> float:
        # a later signature may differ: count nothing rather than break the cell
        value = sig.bind_partial(*args, **kwargs).arguments.get(arg)
        if kind == "len":
            return float(len(value)) if hasattr(value, "__len__") else 0.0
        return float(value) if isinstance(value, (int, float)) else 0.0

    return read


def _wrap(tracer: Tracer, home, attr: str, name: str, counter, how):
    fn = getattr(home, attr)
    read = _counter_reader(how, fn)
    key = f"{name}.{counter}"

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    if how == "items":
                        tracer.counters[key] += 1
                    yield item
            finally:
                gen.close()

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if read is not None:
            tracer.counters[key] += read(args, kwargs)
        idx = tracer.open(name)
        # A recursive function (count_partitions) calls itself through its
        # module global: point that at the original for the duration, so only
        # the outer call is a span and the recursion runs at full speed.
        setattr(home, attr, fn)
        try:
            result = fn(*args, **kwargs)
        finally:
            setattr(home, attr, wrapper)
            tracer.close(idx)
        if how == "result" and isinstance(result, (int, float)):
            tracer.counters[key] += float(result)
        return result

    return wrapper


def _wrap_method(tracer: Tracer, method, key: str):
    @functools.wraps(method)
    def timed_call(self, *args, **kwargs):
        t0 = perf_counter()
        try:
            return method(self, *args, **kwargs)
        finally:
            tracer.accumulate(key, perf_counter() - t0)

    return timed_call


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method that exists."""
    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "truncperm"]
    for mod_name, attr, counter, how in TRACED:
        home = sys.modules.get(mod_name)
        original = getattr(home, attr, None)
        if original is None:
            continue
        name = f"{mod_name.split('.')[-1]}.{attr}"
        wrapper = _wrap(tracer, home, attr, name, counter, how)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for mod_name, cls_name, meth, key in TRACED_METHODS:
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        method = cls.__dict__.get(meth) if cls is not None else None
        if method is not None:
            setattr(cls, meth, _wrap_method(tracer, method, key))
