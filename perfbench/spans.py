"""In-memory span recording for the traced runs.

The benchmark owns its tracing: it wraps the public entry points of
each layer (module attributes and class methods) from outside, keeps
every span in memory, and writes them out when the run ends.  Nesting
follows a :class:`contextvars.ContextVar`, so concurrent asyncio tasks
each get their own parent chain and a worker thread starts fresh.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (children may overlap each other; their
union is subtracted, clipped to the parent).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from perfbench.clock import now

__all__ = ["Recorder", "Span", "load_trace", "self_times", "totals"]


@dataclass(frozen=True)
class Span:
    """One finished span: ``[start, end)`` seconds on the monotonic clock."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds between start and end."""
        return self.end - self.start


class Recorder:
    """Collects spans and named samples; thread- and task-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar(f"perfbench-span-{id(self)}", default=None)
        )

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record the enclosed block as one span."""
        with self._lock:
            sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = now()
        try:
            yield
        finally:
            end = now()
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end, attrs))

    def sample(self, name: str, value: float) -> None:
        """Record one value of a named distribution, stamped with the
        time it was taken."""
        stamp = now()
        with self._lock:
            self.samples[name].append((stamp, float(value)))

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    return await fn(*args, **kwargs)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner: Any, attr: str, name: str) -> Callable[[], None]:
        """Replace ``owner.attr`` (a module global or a method) by its
        traced wrapper.  Callers that look the name up at call time —
        module-global references and method calls — go through it.
        Returns a function that puts the original back."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name))
        return lambda: setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write all spans and samples as JSON."""
        with self._lock:
            doc = {
                "spans": [
                    [s.sid, s.parent, s.name, s.start, s.end, s.attrs]
                    for s in self.spans
                ],
                "samples": dict(self.samples),
            }
        path.write_text(json.dumps(doc))


def load_trace(
    path: Path,
) -> tuple[list[Span], dict[str, list[tuple[float, float]]]]:
    """Read a file written by :meth:`Recorder.dump`."""
    doc = json.loads(path.read_text())
    spans = [Span(*row) for row in doc["spans"]]
    samples = {k: [(t, v) for t, v in rows] for k, rows in doc["samples"].items()}
    return spans, samples


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children,
    each child clipped to the parent's interval."""
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None:
            continue
        lo, hi = max(s.start, parent.start), min(s.end, parent.end)
        if hi > lo:
            children[parent.sid].append((lo, hi))
    return {
        s.sid: s.duration - _union_length(children.get(s.sid, []))
        for s in spans
    }


def totals(spans: Iterable[Span], *, self_only: bool) -> dict[str, float]:
    """Seconds per span name: summed self time, or summed duration."""
    spans = list(spans)
    own = self_times(spans) if self_only else {s.sid: s.duration for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.sid]
    return dict(out)
