"""In-memory span recorder that wraps the program's public functions.

Wrapping replaces a module or class attribute with a function that records a
span around the original, so the program itself carries no tracing code. An
attribute missing at some commit is skipped: it yields no span, never an
error. `install` and `uninstall` swap the wrappers in and out, so untraced
passes run the original functions.
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
    layer: str             # program module the span belongs to
    request: str           # model layer being worked on, or the CLI command
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _open(self, name: str, layer: str, request: str | None) -> int:
        parent = self._stack[-1] if self._stack else None
        if request is None:
            request = self.spans[parent].request if parent is not None else ""
        self.spans.append(Span(name, layer, request, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str, request: str):
        index = self._open(name, layer, request)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, layer: str, request_of=None, count=None):
        """Record a span on every call of owner.attr once installed.

        request_of(args, kwargs) names the request, or the parent's is used;
        count(args, kwargs, result) returns the span's counts.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name, layer, request_of(args, kwargs) if request_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                try:
                    self.spans[index].counts = count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    self.spans[index].counts = {}
            return result

        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of spans[first:]: duration minus the child spans' durations."""
        spans = self.spans[first:]
        own = [s.duration for s in spans]
        for s in spans:
            if s.parent is not None and s.parent >= first:
                own[s.parent - first] -= s.duration
        return own

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as f:
            json.dump({**meta, "spans": [asdict(s) for s in self.spans]}, f)


def arg(args, kwargs, index: int, name: str):
    """Positional-or-keyword argument of a wrapped call."""
    return args[index] if len(args) > index else kwargs[name]
