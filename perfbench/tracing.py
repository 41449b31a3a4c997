"""In-memory span recorder that times `tog` layers from outside the package.

`SpanRecorder.patch` swaps a module attribute for a wrapper that records one
span per call: its name, start, end, parent span and scene id, plus counters
read from the call's arguments, return value or exception. Callers inside
`tog` look the attribute up at call time, so patching `tog.pipeline.register`
catches the pipeline's call and patching `tog.registration.icp` catches the
calls made inside the registration module. `restore` puts the originals back.

Spans stay in memory until `dump` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    scene: int | None
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans for the calls made while it is patched in.

    `scene` tags every span opened while it is set; set-up work runs with
    `scene=None`. Spans nest by call order: a span's parent is the span open
    when it started. The recorder is single-threaded, like the pipeline's
    Python-level call chain.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.scene: int | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.scene)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Replace `module.attr` with a traced wrapper until `restore`.

        `count(span, args, kwargs, result)` may set `span.counts` from the
        call; `result` is None when the call raised.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    if count is not None:
                        count(record, args, kwargs, result)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
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


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for record in spans:
        if record.parent is not None:
            parent = spans[record.parent]
            start = max(record.start, parent.start)
            end = min(record.end, parent.end)
            if end > start:
                children[record.parent].append((start, end))
    return [record.duration - _covered(kids) for record, kids in zip(spans, children)]
