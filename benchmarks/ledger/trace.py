"""Spans recorded from outside the program, at its layer boundaries.

The program has no tracing of its own yet (ROADMAP "Request trace"), so the
ledger wraps the public entry points listed in :data:`adapter.WRAP_TARGETS`
for the length of a traced replay and restores them afterwards.  A span is
``name, group, start, end, parent, request, count, seconds``; spans stay in
memory and are written as JSON lines when the run ends.  A span's *self
time* is its ``seconds`` minus those of its child spans, so the self times
of one request add up to its wall time and nothing is counted twice.

A span with ``count > 1`` is an *envelope*: many short calls (one TBQ
``step`` per A* expansion) folded into one record whose ``start``/``end``
bracket the first and last call and whose ``seconds`` is their sum.

End-to-end metrics never come from a traced run: wrapping costs time (the
traced/untraced ratio is reported as ``trace.overhead_share``).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from . import adapter

#: Field positions inside one span record.
NAME, GROUP, START, END, PARENT, REQUEST, COUNT, SECONDS = range(8)

#: The harness-side span that brackets one request, submit to result.
ROOT_SPAN = "request"
ROOT_GROUP = "harness.wait"


class Tracer:
    """An append-only span list plus one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._request: Optional[int] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, group: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [name, group, time.perf_counter(), 0.0,
             stack[-1] if stack else -1, self._request, 1, 0.0]
        )
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[SECONDS] = span[END] - span[START]
        self._stack().pop()

    def open_envelope(self, name: str, group: str) -> int:
        """An empty envelope under the innermost open span (see module
        docstring); the caller adds each call's time with
        :meth:`enter_envelope` / :meth:`leave_envelope`."""
        stack = self._stack()
        now = time.perf_counter()
        self.spans.append(
            [name, group, now, now,
             stack[-1] if stack else -1, self._request, 0, 0.0]
        )
        return len(self.spans) - 1

    def enter_envelope(self, index: int) -> float:
        self._stack().append(index)
        return time.perf_counter()

    def leave_envelope(self, index: int, started: float) -> None:
        ended = time.perf_counter()
        self._stack().pop()
        span = self.spans[index]
        span[END] = ended
        span[SECONDS] += ended - started
        span[COUNT] += 1

    @contextmanager
    def request(self, request_id: int) -> Iterator[int]:
        self._request = request_id
        index = self.begin(ROOT_SPAN, ROOT_GROUP)
        try:
            yield index
        finally:
            self.end(index)
            self._request = None

    # -- analysis --------------------------------------------------------
    def self_seconds(self) -> List[float]:
        """Self time per span, in record order."""
        own = [span[SECONDS] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[SECONDS]
        return own

    def group_self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_seconds()):
            totals[span[GROUP]] = totals.get(span[GROUP], 0.0) + own
        return totals

    def root_seconds(self) -> float:
        return sum(s[SECONDS] for s in self.spans if s[NAME] == ROOT_SPAN)

    def requests_with(self, name: str) -> Set[int]:
        """Ids of the requests that have a span called ``name``."""
        return {s[REQUEST] for s in self.spans if s[NAME] == name}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span[NAME], "group": span[GROUP],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT], "request": span[REQUEST],
                    "count": span[COUNT], "seconds": span[SECONDS],
                }) + "\n")


class _TracedSearch:
    """Stands in for a sub-query search: a span per ``next_match``, one
    envelope for all ``step`` calls (TBQ steps once per A* expansion — a
    span each would cost more than the step)."""

    def __init__(self, tracer: Tracer, inner: Any, name: str, group: str):
        self._tracer = tracer
        self._inner = inner
        self._name = name
        self._group = group
        self._envelope: Optional[int] = None

    def next_match(self):
        index = self._tracer.begin(self._name, self._group)
        try:
            return self._inner.next_match()
        finally:
            self._tracer.end(index)

    def step(self, harvest=None):
        tracer = self._tracer
        envelope = self._envelope
        if envelope is None:
            envelope = self._envelope = tracer.open_envelope(
                self._name, self._group
            )
        started = tracer.enter_envelope(envelope)
        try:
            return self._inner.step(harvest=harvest)
        finally:
            tracer.leave_envelope(envelope, started)

    @property
    def exhausted(self) -> bool:
        return self._inner.exhausted

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _wrap(tracer: Tracer, target: adapter.WrapTarget, fn: Callable) -> Callable:
    name, group = target.span, target.group

    if target.kind == "call":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name, group)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

    elif target.kind == "generator":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name, group)
            try:
                return list(fn(*args, **kwargs))
            finally:
                tracer.end(index)

    elif target.kind == "search_factory":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedSearch(tracer, fn(*args, **kwargs), name, group)

    else:
        raise adapter.AdapterError(f"unknown wrap kind {target.kind!r}")
    return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the length of the block, then restore."""
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for target in adapter.WRAP_TARGETS:
            owner, attribute, original = adapter.resolve_target(target)
            setattr(owner, attribute, _wrap(tracer, target, original))
            restore.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
