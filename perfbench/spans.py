"""In-memory spans recorded around calls into covartest from outside it.

The traced run replaces, for its duration, the public functions that
covartest's entry points look up in their own modules
(``covartest.engine.ats``, ``covartest.cli.ingest``, ...) with wrappers
that open a span.  A call made inside an entry point therefore opens a
span nested in the entry point's span, and no source file changes.

A span has a name, start and end (perf_counter seconds), the index of its
parent span, the test id it belongs to, whether the call raised, and
``cost``: the tracer's own time in entering and leaving it.  A span's self
time is its duration minus its children's durations and costs.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    test: str
    raised: bool = False
    cost: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts in memory until the run ends.

    ``test`` is the id that new spans and counts are filed under.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: list[tuple[str, float, str]] = []
        self.test = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        rec = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.test)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield
        except Exception:
            rec.raised = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            rec.cost = rec.start - t0 + time.perf_counter() - rec.end

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, float(value), self.test))

    def wrap(self, fn, name: str, measure=None):
        """``fn`` with a span around each call.  ``measure(result, *args,
        **kwargs)`` returns counts to record about a call that returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if measure is not None:
                for key, value in measure(out, *args, **kwargs).items():
                    self.count(key, value)
            return out

        return traced

    @contextmanager
    def patched(self, points):
        """Wrap each ``(module, attribute, span name, measure)`` in
        ``points`` until the block ends, then put the originals back."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in points]
        try:
            for mod, attr, name, measure in points:
                setattr(mod, attr, self.wrap(getattr(mod, attr), name, measure))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration + s.cost
        return out

    def as_dict(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "counts": [{"name": n, "value": v, "test": t} for n, v, t in self.counts],
        }
