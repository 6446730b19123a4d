"""In-memory span recorder and the arithmetic the benchmark reports from it.

A span is one call into a layer: name, start, end, parent span, thread and
the thread CPU time the call used.  Spans stay in a list until the run ends.
A span opened on a thread with no open span of its own (a pool worker) takes
as parent the innermost open span of the thread that created the tracer,
which is the stage span or the layer call that submitted the work.

This module imports nothing from signsynth, so its arithmetic is testable on
its own; ``child.py`` decides which functions to wrap.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterable, Optional, Sequence

# Span tuple layout: (id, name, parent id or -1, thread id, start, end, cpu).
ID, NAME, PARENT, THREAD, START, END, CPU = range(7)


class Tracer:
    """Records spans and counters; installs and removes function wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        # Counters and sets are kept per thread, so pool workers never wait
        # on each other to count; ``counters`` merges them.
        self._lock = threading.Lock()
        self._per_thread: list[tuple[dict, dict]] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _mine(self) -> tuple[dict, dict]:
        mine = getattr(self._local, "counts", None)
        if mine is None:
            mine = self._local.counts = ({}, {})
            with self._lock:
                self._per_thread.append(mine)
        return mine

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        span_id = next(self._ids)
        stack.append(span_id)
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans.append(
                (span_id, name, parent, threading.get_ident(), start, end, cpu)
            )

    def count(self, name: str, amount: float = 1) -> None:
        counts = self._mine()[0]
        counts[name] = counts.get(name, 0) + amount

    def distinct(self, name: str, keys: Iterable) -> None:
        """Add keys to the named set; its size is reported as a count."""
        self._mine()[1].setdefault(name, set()).update(keys)

    def counters(self) -> dict[str, float]:
        """Every counter, and the size of every distinct set, over all threads."""
        totals: dict[str, float] = {}
        sets: dict[str, set] = {}
        with self._lock:
            for counts, distinct in self._per_thread:
                for name, value in counts.items():
                    totals[name] = totals.get(name, 0) + value
                for name, keys in distinct.items():
                    sets.setdefault(name, set()).update(keys)
        totals.update((name, len(keys)) for name, keys in sets.items())
        return totals

    def wrap(
        self,
        owner: object,
        attr: str,
        span: Optional[str] = None,
        hook: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``span`` (none when None) and then calls ``hook(args, kwargs,
        result)``.  A generator function's span runs from its first item to
        its last, and its hook receives the number of items yielded."""
        original = getattr(owner, attr)
        tracer = self

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                n = 0
                with tracer.span(span) if span else nullcontext():
                    for item in original(*args, **kwargs):
                        n += 1
                        yield item
                if hook is not None:
                    hook(args, kwargs, n)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(span) if span else nullcontext():
                    result = original(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the intervals, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children on other threads may overlap each other; the covered part is the
    union of their intervals clipped to the parent's, so parallel children are
    not subtracted twice.
    """
    by_id = {s[ID]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is None:
            continue
        lo, hi = max(s[START], parent[START]), min(s[END], parent[END])
        if hi > lo:
            children.setdefault(parent[ID], []).append((lo, hi))
    return {
        s[ID]: (s[END] - s[START]) - union_length(children.get(s[ID], ()))
        for s in spans
    }


# --- percentiles -------------------------------------------------------------

TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(n: int, candidates: Sequence[float] = TAIL_CANDIDATES) -> Optional[float]:
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    above it, or None when even the median has fewer."""
    best = None
    for p in candidates:
        # Round so that e.g. 1000 samples leave exactly 10 beyond p99.
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            best = p
    return best
