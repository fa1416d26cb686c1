"""Span tracer that wraps a program's public functions from outside.

A ``Tracer`` replaces each traced function at every module attribute
that refers to it (including the copies that ``from .x import y``
makes, and class attributes such as ``RngStream.generator``), records
one span per call as (name, start, end, parent) in memory, and puts
every original back on exit.  Nothing in the traced program changes.

A layer's self time is the time its spans cover minus the time covered
by their child spans.  Per-call hooks (counters computed from a call's
arguments and result) run as children of a ``trace.hook`` span, so
their cost is charged to the tracer and not to the layer that called.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

HOOK_SPAN = "trace.hook"


@dataclass(frozen=True)
class Target:
    """A function to trace: span name, owner holding it, attribute name,
    and an optional hook(tracer, args, kwargs, result) run after a
    successful call."""

    name: str
    owner: object
    attr: str
    hook: Callable | None = None


class Tracer:
    """Records spans for the calls made while it is entered.

    ``scan`` lists the modules whose attributes are searched for
    references to each target; every reference found is patched.
    """

    def __init__(self, targets, scan):
        self.targets = list(targets)
        self.scan = list(scan)
        self.spans: list[tuple[str, int, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.errors: dict[str, int] = defaultdict(int)
        self._raised: dict[int, BaseException] = {}  # keeps ids unique
        self._stack: list[int] = []
        self._frames: list[tuple[str, tuple, dict]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                original = target.owner.__dict__[target.attr]
                wrapper = self._wrap(target, original)
                holders = [target.owner] + [
                    m for m in self.scan
                    if m is not target.owner
                    and any(v is original for v in vars(m).values())
                ]
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, target: Target, fn):
        name, hook = target.name, target.hook
        spans, stack, frames, clock = self.spans, self._stack, self._frames, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0, 0, parent))
            stack.append(sid)
            frames.append((name, args, kwargs))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once, at the innermost span it left
                if id(exc) not in self._raised:
                    self._raised[id(exc)] = exc
                    self.errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
                frames.pop()
            if hook is not None:
                self._run_hook(hook, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attr)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _run_hook(self, hook, parent, args, kwargs, result) -> None:
        sid = len(self.spans)
        self.spans.append((HOOK_SPAN, 0, 0, parent))
        start = time.perf_counter_ns()
        try:
            hook(self, args, kwargs, result)
        finally:
            self.spans[sid] = (HOOK_SPAN, start, time.perf_counter_ns(), parent)

    def enclosing(self, name: str):
        """(args, kwargs) of the innermost active call of ``name``, or None."""
        for frame_name, args, kwargs in reversed(self._frames):
            if frame_name == name:
                return args, kwargs
        return None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.maxima.clear()
        self.errors.clear()
        self._raised.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus child durations."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child_ns[sid]) * 1e-9
        return dict(out)

    def root_seconds(self) -> float:
        """Seconds covered by spans that have no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0) * 1e-9

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, inclusive seconds) per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0])
        for name, start, end, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {k: (c, ns * 1e-9) for k, (c, ns) in out.items()}

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped CSV: id,parent,name,start_ns,end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start},{end}\n")


def layer_self_times(self_times: dict[str, float]) -> dict[str, float]:
    """Sum span self times by layer (the span name up to the first dot)."""
    out: dict[str, float] = defaultdict(float)
    for name, seconds in self_times.items():
        out[name.split(".", 1)[0]] += seconds
    return dict(out)
