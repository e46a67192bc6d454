"""In-memory spans around calls into besselkit, written out once at the end.

A span is ``(id, name, parent, start_ns, end_ns, calls)``: ``calls`` is the
number of identical calls the span covers, so a batch of very short calls
can share one span and still give a per-call time.  With ``enabled`` false
nothing is recorded and only the elapsed time is returned, so the untraced
and traced runs go through the same code.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, int | None, int, int, int]] = []
        self._parent: int | None = None

    def call(self, name: str, fn, *args, calls: int = 1, **kwargs):
        """Run ``fn(*args, **kwargs)`` ``calls`` times; return (last result, seconds)."""
        start = perf_counter_ns()
        for _ in range(calls):
            result = fn(*args, **kwargs)
        end = perf_counter_ns()
        if self.enabled:
            self.spans.append((len(self.spans), name, self._parent, start, end, calls))
        return result, (end - start) * 1e-9

    @contextmanager
    def section(self, name: str):
        """A parent span for the calls made inside the ``with`` block."""
        start = perf_counter_ns()
        outer = self._parent
        if self.enabled:
            self._parent = len(self.spans)
            self.spans.append(None)  # filled in on exit, so ids follow start order
        try:
            yield
        finally:
            if self.enabled:
                self.spans[self._parent] = (self._parent, name, outer, start, perf_counter_ns(), 1)
                self._parent = outer

    def per_call_us(self, name: str) -> list[float]:
        """Per-call durations in microseconds of every span called ``name``."""
        return [(s[4] - s[3]) / 1e3 / s[5] for s in self.spans if s is not None and s[1] == name]

    def median_us(self, name: str) -> float:
        return statistics.median(self.per_call_us(name))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end, calls in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "parent": parent, "start_ns": start,
                         "end_ns": end, "calls": calls}
                    )
                    + "\n"
                )
