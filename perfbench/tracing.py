"""In-memory spans around the calls the benchmark makes into each layer.

A span is recorded by replacing a function where its caller module binds
it (``logblend.harness.parse``, ``logblend.metrics.levenshtein``, ...), so
the program itself carries no tracing code. Spans keep name, start, end,
parent and the id of the job they ran in; counters are taken at the same
boundaries. Nothing is written until :meth:`Tracer.dump` is called.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: Span that counter bookkeeping runs under, so no layer is charged for it.
COUNT_SPAN = "trace.count"


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans and counters; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, self.job, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def wrap(
        self, owner, attr: str, name: str, count=None, suffix=None, kind: str = "function"
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records span `name`.

        `suffix(*args, **kwargs)`, when given, is appended to the span name
        per call. `count(tracer, result, *args, **kwargs)` runs after the
        call, under its own span. `kind="classmethod"` wraps a classmethod
        on a class. A name the owner no longer has is recorded as missing.
        """
        if not hasattr(owner, attr):
            self.missing.add(name)
            return
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if suffix is None else f"{name}.{suffix(*args, **kwargs)}"
            with tracer.span(label):
                result = original(*args, **kwargs)
            if count is not None:
                with tracer.span(COUNT_SPAN):
                    count(tracer, result, *args, **kwargs)
            return result

        saved = owner.__dict__[attr] if kind == "classmethod" else original
        if kind == "classmethod":
            setattr(owner, attr, classmethod(lambda cls, *a, **k: wrapper(*a, **k)))
        else:
            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, saved))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, saved = self._undo.pop()
            setattr(owner, attr, saved)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.end - sp.start
        return own

    def nesting_errors(self) -> list[str]:
        """Spans whose interval leaks out of their parent's."""
        errors = []
        for sp in self.spans:
            if sp.parent is None:
                continue
            parent = self.spans[sp.parent]
            if sp.start < parent.start or sp.end > parent.end or sp.job != parent.job:
                errors.append(f"span {sp.sid} {sp.name} escapes parent {parent.name}")
        return errors

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for sp in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": sp.sid,
                            "name": sp.name,
                            "job": sp.job,
                            "parent": sp.parent,
                            "start": sp.start,
                            "end": sp.end,
                        }
                    )
                    + "\n"
                )
