"""In-memory span tracer installed by wrapping functions from outside.

A span is [name, start_ns, end_ns, parent, job]: `parent` is the index of
the span that was open when this one started (-1 at the root) and `job`
numbers the CLI job it belongs to.  Spans stay in memory until the run ends.
Counters are bumped by hooks that see a wrapped call's arguments and result.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from functools import cached_property, wraps


class Tracer:
    def __init__(self, spans: bool = True):
        """With spans=False only counters are kept (no timing, no spans)."""
        self.record_spans = spans
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.job = -1
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name: str, count=None):
        """A stand-in for fn that records a span and/or feeds `count`.

        count(counts, args, result) runs after each successful call; for a
        generator function it runs once per yielded item, and each resumption
        of the generator is its own span.
        """
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(name) if tracer.record_spans else None
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if idx is not None:
                            tracer.close(idx)
                    if count is not None:
                        count(tracer.counts, args, item)
                    yield item
            return traced_gen

        @wraps(fn)
        def traced(*args, **kwargs):
            if tracer.record_spans:
                result = tracer.call(name, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args, result)
            return result
        return traced

    def install(self, module, attr: str, name: str, count=None) -> None:
        """Wrap `attr` of `module`.

        "Class.method" wraps a method, or the function behind a
        cached_property, on the class itself.  A plain name is replaced in
        every loaded module of the same package that holds the same object,
        which catches `from .x import f` bindings.
        """
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, cached_property):
                new = cached_property(self.wrap(raw.func, name, count))
                new.__set_name__(cls, meth)
            else:
                new = self.wrap(raw, name, count)
            setattr(cls, meth, new)
            self._undo.append((cls, meth, raw))
            return
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, count)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")


# -- analysis ----------------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def outermost(spans) -> list[bool]:
    """For each span, whether no enclosing span has the same name (so that
    summing the durations of outermost spans counts recursion once)."""
    out = []
    for name, _, _, parent, _ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out
