"""Span tracer that instruments the program from outside it.

The tracer replaces a function in the namespace where its caller looks the
name up (a module global, a class attribute, or an instance attribute of a
registered behavior) with a timing wrapper, and puts every original back when
the ``installed`` block ends. Nothing in the program's source changes.

Every wrapped call opens a frame. When the frame closes, its duration is added
to its parent's child time, so a frame's self time is its duration minus the
time its wrapped children took. Statistics are kept per (root, name), where the
root is the outermost open frame, so the calls an ``apply`` makes can be told
apart from the calls ``fit`` makes. Frames of kind "span" are also recorded as
spans (id, name, start, end, parent id, iteration) and kept in memory until the
run writes them out; frames of kind "count" are only aggregated, because they
wrap per-cell functions that run hundreds of thousands of times.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

SPAN = "span"
COUNT = "count"


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent_id: int | None
    iteration: int


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "stat")

    def __init__(self, name, start, span_id, stat):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.stat = stat


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[Span] = []
        self.stats: dict[tuple[str, str], Stat] = {}
        self.iteration = 0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- frames ---------------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        root = self._stack[0].name if self._stack else name
        key = (root, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _open(self, name: str, kind: str) -> _Frame:
        span_id = None
        if kind == SPAN:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, 0.0, span_id, self._stat(name))
        self._stack.append(frame)
        frame.start = self._clock()
        return frame

    def _close(self, frame: _Frame) -> float:
        end = self._clock()
        self._stack.pop()
        duration = end - frame.start
        stat = frame.stat
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        if frame.span_id is not None:
            parent = next((f.span_id for f in reversed(self._stack) if f.span_id is not None), None)
            self.spans.append(Span(frame.span_id, frame.name, frame.start, end, parent, self.iteration))
        return end

    def _charge_parent(self, since: float) -> None:
        """Count tracer bookkeeping since ``since`` as child time of the open frame."""
        if self._stack:
            self._stack[-1].child += self._clock() - since

    @contextmanager
    def span(self, name: str):
        frame = self._open(name, SPAN)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, fn, kind: str = SPAN, observe=None):
        """Timing wrapper around ``fn``; ``observe(stat, args, result)`` may add counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name, kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._close(frame)
            if observe is not None:
                observe(frame.stat, args, result)
                tracer._charge_parent(end)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, kind: str = SPAN, observe=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until ``restore``."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(name, original, kind, observe))

    def restore(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, targets):
        """Apply every (owner, attr, name, kind, observe) patch for the block."""
        try:
            for owner, attr, name, kind, observe in targets:
                self.patch(owner, attr, name, kind, observe)
            yield self
        finally:
            self.restore()

    # -- results --------------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats = {}

    def totals(self, roots=None) -> dict[str, Stat]:
        """Stats per name, summed over the given roots (all roots when None)."""
        out: dict[str, Stat] = {}
        for (root, name), stat in self.stats.items():
            if roots is not None and root not in roots:
                continue
            agg = out.setdefault(name, Stat())
            agg.calls += stat.calls
            agg.total += stat.total
            agg.self_time += stat.self_time
            for key, value in stat.extra.items():
                agg.add(key, value)
        return out
