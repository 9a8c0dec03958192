"""In-memory span recorder that times a program's layers from outside it.

The recorder replaces chosen public methods (on one object, or on a module
such as ``os``) with wrappers that record one span per call: name, start,
end, the span that was open when the call began (its parent) and a root id
shared by every span of one top-level call.  Spans stay in a list until
:meth:`SpanRecorder.write` dumps them; :func:`summarize` turns them into
per-name totals, self times and byte counts.
"""

from __future__ import annotations

import itertools
import json
import time
import types
from dataclasses import dataclass
from typing import Any, Callable

# Field positions of one span row.
NAME, START, END, PARENT, ROOT, NBYTES = range(6)


class SpanRecorder:
    """Records spans around wrapped calls; install and remove in pairs."""

    def __init__(self) -> None:
        #: One row per call: ``[name, start, end, parent, root, nbytes]``;
        #: ``parent`` is the index of the enclosing span or -1.
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        self._roots = itertools.count()
        self._restore: list[Callable[[], None]] = []

    def traced(
        self,
        function: Callable[..., Any],
        name: str,
        *,
        root_key: Callable[[], int] | None = None,
        nbytes: Callable[[tuple, Any], int] | None = None,
    ) -> Callable[..., Any]:
        """``function`` wrapped to record a span named ``name`` per call.

        ``root_key`` supplies the root id of a span that opens with no
        parent (default: a fresh id per top-level call).  ``nbytes`` maps
        ``(args, result)`` to a byte count stored on the span.
        """
        spans = self.spans
        open_spans = self._open
        roots = self._roots
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if open_spans:
                parent = open_spans[-1]
                root = spans[parent][ROOT]
            else:
                parent = -1
                root = root_key() if root_key is not None else next(roots)
            span = [name, clock(), 0.0, parent, root, 0]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()
            if nbytes is not None:
                span[NBYTES] = nbytes(args, result)
            return result

        return traced

    def wrap(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` by its :meth:`traced` form until
        :meth:`unwrap_all`.  Wrapping an object shadows the class method
        with an instance attribute, so only that object is traced."""
        original = getattr(owner, attr)
        own_attr = isinstance(owner, types.ModuleType) or attr in vars(owner)
        setattr(owner, attr, self.traced(original, name, **options))
        if own_attr:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    def unwrap_all(self) -> None:
        """Remove every wrapper, newest first."""
        while self._restore:
            self._restore.pop()()

    def write(self, path: str, header: dict) -> None:
        """Write ``header`` then one JSON row per span to ``path``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


@dataclass
class SpanTotals:
    """Aggregate of every span with one name."""

    count: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    nbytes: int = 0


def summarize(spans: list[list[Any]], end: int | None = None) -> dict[str, SpanTotals]:
    """Per-name totals over ``spans[:end]``.

    A span's self time is its duration minus the durations of its direct
    children (calls nest, so children never overlap each other).
    """
    rows = spans if end is None else spans[:end]
    self_seconds = [row[END] - row[START] for row in rows]
    for row in rows:
        parent = row[PARENT]
        if parent >= 0:
            self_seconds[parent] -= row[END] - row[START]
    totals: dict[str, SpanTotals] = {}
    for row, own in zip(rows, self_seconds):
        agg = totals.get(row[NAME])
        if agg is None:
            agg = totals[row[NAME]] = SpanTotals()
        agg.count += 1
        agg.seconds += row[END] - row[START]
        agg.self_seconds += own
        agg.nbytes += row[NBYTES]
    return totals
