"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer: ``(name, start, end, parent, request)``.
The benchmark installs wrappers around public functions and methods with
:meth:`Tracer.wrap` (on a module, a class or one instance) and removes
them again with :meth:`Tracer.restore`; no program code changes.  The
parent span and the request id travel in context variables, so spans
opened by concurrent asyncio tasks nest under the task that caused them.

Spans stay in memory while the workload runs and are written out once,
at the end (:meth:`Tracer.dump`).  Self time is a span's duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Spans and call counts recorded by the wrappers it installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=-1)
        self._undo: list = []

    # ---------------------------------------------------------- recording

    def _open(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._current.get(), self.request.get()])
        return index, self._current.set(index)

    def _close(self, index: int, token) -> None:
        self.spans[index][END] = time.perf_counter()
        self._current.reset(token)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr!r}: static and class methods "
                            "are not supported")
        fn = getattr(owner, attr)
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                index, token = self._open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(index, token)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index, token = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(index, token)
        self._install(owner, attr, traced)

    def count_calls(self, owner, attr: str, name: str, amount=None) -> None:
        """Add up calls of ``owner.attr`` in ``counts[name]`` (no span).

        ``amount(args)``, when given, is added per call instead of one.
        """
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)
        self._install(owner, attr, counted)

    def _install(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner)[attr] if own else None, own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ---------------------------------------------------------- analysis

    def _children(self) -> list[list[int]]:
        children: list[list[int]] = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                children[span[PARENT]].append(index)
        return children

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children = self._children()
        result = []
        for index, span in enumerate(self.spans):
            start, end = span[START], span[END]
            covered, reach = 0.0, start
            for lo, hi in sorted((self.spans[c][START], self.spans[c][END])
                                 for c in children[index]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(end - start - covered)
        return result

    def summary(self, since: float = float("-inf")) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds.

        Only spans starting at or after ``since`` count.  Inclusive time
        counts only the outermost span of a name, so a nested call (an
        attack wrapping another attack) is not counted twice.
        """
        self_times = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span[START] < since:
                continue
            name = span[NAME]
            entry = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_times[index]
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != name:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                entry["inclusive_s"] += span[END] - span[START]
        return out

    def inclusive_under(self, name: str, parent_name: str,
                        since: float = float("-inf")) -> float:
        """Seconds in ``name`` spans whose direct parent is ``parent_name``."""
        total = 0.0
        for span in self.spans:
            parent = span[PARENT]
            if (span[NAME] == name and span[START] >= since and parent >= 0
                    and self.spans[parent][NAME] == parent_name):
                total += span[END] - span[START]
        return total

    def merge(self, spans: list[list]) -> None:
        """Append spans recorded by another tracer (e.g. in a worker)."""
        offset = len(self.spans)
        for span in spans:
            parent = span[PARENT] + offset if span[PARENT] >= 0 else -1
            self.spans.append([span[NAME], span[START], span[END], parent,
                               span[REQUEST]])

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start", "end", "parent", "request"],
               "spans": self.spans, "counts": dict(self.counts), **extra}
        path.write_text(json.dumps(doc) + "\n")
