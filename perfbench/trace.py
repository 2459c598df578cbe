"""In-memory spans recorded around calls into the repo's layers.

A :class:`Tracer` records ``(name, start, end)`` spans with
``perf_counter`` and keeps them in memory until the run ends.  Only
traced runs create one.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name].append((start, time.perf_counter()))

    def record(self, name: str, seconds: float) -> None:
        """Add a span timed elsewhere (by its duration only)."""
        self.spans[name].append((0.0, seconds))

    def durations(self, name: str) -> List[float]:
        return [end - start for start, end in self.spans.get(name, ())]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) if values else 0.0
