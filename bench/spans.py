"""In-memory spans around calls into the package, and self-time arithmetic.

A span is (name, start, end, parent index). Wrappers installed with
`patched` replace a function in one of the package's module
namespaces, so the package's own call sites are measured without editing
the package. Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans and counters of one pass; spans nest by call order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(None)
        self.stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans[index] = Span(name, start, end, parent)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(self, fn: Callable, layer: str, on_result: Callable | None = None) -> Callable:
        """A call wrapper: one span per call, then `on_result(args, result)`."""

        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            self.count(f"{layer}_calls")
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_stream(self, fn: Callable, layer: str, item_counter: str) -> Callable:
        """A generator wrapper: one span per item pulled from the stream."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                with self.span(layer):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                self.count(item_counter)
                yield item

        return traced

    def self_times(self) -> dict[str, float]:
        if self.stack:
            raise RuntimeError("self times asked for while spans are still open")
        return self_times(self.spans)


@contextmanager
def patched(module, replacements: dict[str, Callable]) -> Iterator[None]:
    """Swap attributes of `module` for the duration of the block."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, fn in replacements.items():
            setattr(module, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration minus the part covered by child spans.

    Children of one span run one after another, but the union of their
    intervals is taken anyway, so overlap could never count twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)
