"""In-memory spans and counters for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter``) and the span
open when it began.  Spans stay in memory until ``dump``.  Module functions
are traced from outside: ``patched`` swaps a module attribute for a wrapper
that opens a span around each call, so calls the program makes through that
attribute (``pricing.law_map`` inside ``price_formula``, ``io.ingest_csv``
inside a CLI handler) are traced too.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, result, *args, **kwargs)`` then counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, *args, **kwargs)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace ``(module, attribute, span name, after)`` targets while open."""
        saved = []
        try:
            for module, attr, name, after in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, calls).

        Self time is a span's duration minus the time its child spans cover.
        """
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, tuple[float, float, int]] = {}
        for s in self.spans:
            duration = s["end"] - s["start"]
            inclusive, own, calls = out.get(s["name"], (0.0, 0.0, 0))
            out[s["name"]] = (inclusive + duration, own + duration - covered[s["id"]], calls + 1)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()
