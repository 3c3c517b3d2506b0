"""Spans around calls into treesnake's public functions, recorded from outside.

The tracer replaces every public function defined in a treesnake module at
each module attribute that holds it, so a caller that looks the name up in
its own module (``treesnake.cli.sample_extrema``, ``treesnake.quadmap.cvs_build``)
goes through a span.  A span is (name, start, end, parent, op); spans are
kept in memory and written out once, when the traced run ends.  A layer is
the module that defines the function, and its self time is the time its
spans cover minus the time their child spans cover.

What the tracer cannot see: private stages are charged to the public
function that calls them, methods and properties to whichever span is open
when they run (a lazy ``PlaneTree`` property to its first caller), and
functions stored in containers at import time are not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

OP_SPAN = "bench.op"

NAME, START, END, PARENT, OP = range(5)


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Span recorder that patches treesnake's module attributes while installed."""

    def __init__(self, hooks=None):
        # hooks: span name -> fn(bound arguments, result) -> {counter: amount};
        # for a generator function the result is each yielded item.
        self.hooks = hooks or {}
        self.spans: list[list] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self.spans[sid][END] = perf_counter()
        self._stack.pop()

    def _count(self, name, sig, args, kwargs, result) -> None:
        hook = self.hooks.get(name)
        if hook is not None:
            self.counts[self._op].update(hook(sig.bind(*args, **kwargs).arguments, result))

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as one op: an OP_SPAN root with op_id on every span."""
        self._op = op_id
        sid = self._enter(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._exit(sid)
            self._op = None

    # -- patching --------------------------------------------------------

    def _wrap(self, fn):
        name = f"{_layer_of(fn)}.{fn.__name__}"
        sig = inspect.signature(fn) if name in self.hooks else None
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._resume_spans(name, sig, args, kwargs, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid)
            self._count(name, sig, args, kwargs, result)
            return result
        return wrapper

    def _resume_spans(self, name, sig, args, kwargs, it):
        """Re-yield it, with one span around each resume of the generator."""
        while True:
            sid = self._enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(sid)
            self._count(name, sig, args, kwargs, item)
            yield item

    def install(self) -> None:
        """Wrap every public treesnake function at every treesnake module attribute."""
        wrappers = {}
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "treesnake" or k.startswith("treesnake.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("treesnake.")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


@dataclass
class OpSummary:
    """One op's spans: self seconds by layer and by span name, span counts, wall."""

    layer: Counter = field(default_factory=Counter)
    name: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    wall: float = 0.0


def summarize(spans) -> dict:
    """OpSummary per op id.  The OP_SPAN roots fall in the layer "bench":
    the op's own code outside any treesnake call."""
    out: dict = defaultdict(OpSummary)
    for s, t in zip(spans, self_times(spans)):
        op = out[s[OP]]
        op.layer[_layer(s[NAME])] += t
        op.name[s[NAME]] += t
        op.calls[s[NAME]] += 1
        if s[NAME] == OP_SPAN:
            op.wall += s[END] - s[START]
    return out
