"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` wraps public functions of :mod:`repro` by swapping the
attribute a caller looks them up through (for example
``repro.core.repair.assess``) for a wrapper that records a span, and
restores the original when the patched block ends.  Nothing here runs
unless a traced operation asks for it, so untraced operations execute
the program exactly as shipped.

Every span holds a name, a start, an end, the index of its parent span
(``-1`` at the top), the id of the operation it belongs to, and a small
dict of counts.  A layer's *self time* is its span's duration minus the
part covered by its child spans; spans never overlap their siblings
because the benchmark drives the program from one thread.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

__all__ = ["Span", "Tracer"]

#: ``hook(span, args, result)`` runs after a wrapped call returns and may
#: record counts on the span.
Hook = Callable[["Span", tuple, Any], None]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: Any
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: Any = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, perf_counter(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op: Any) -> None:
        """Record an interval measured elsewhere (a top-level span)."""
        self.spans.append(Span(name, start, end, -1, op))

    def wrap(self, name: str, function: Callable, hook: Hook | None = None) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
            if hook is not None:
                hook(record, args, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets: list[tuple[Any, str, str, Hook | None]]) -> Iterator[None]:
        """Swap ``module.attr`` for a traced wrapper while the block runs.

        ``targets`` holds ``(module, attr, span name, hook)`` entries.
        """
        saved = []
        try:
            for module, attr, name, hook in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent >= 0:
                covered[record.parent] += record.seconds
        totals: dict[str, float] = {}
        for record, child in zip(self.spans, covered):
            totals[record.name] = totals.get(record.name, 0.0) + record.seconds - child
        return totals

    def named(self, name: str) -> list[Span]:
        return [record for record in self.spans if record.name == name]

    def count(self, name: str, key: str) -> float:
        """Sum of one count over every span of this name."""
        return sum(record.counts.get(key, 0) for record in self.named(name))

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, record in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record.name,
                            "start": record.start,
                            "end": record.end,
                            "parent": record.parent,
                            "op": record.op,
                            "counts": record.counts,
                        }
                    )
                    + "\n"
                )
