"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files around each call into a
``src/repro`` layer.  Each span keeps its name, start, end, parent span and
the id of the set it belongs to; nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records nested spans; ``span(name)`` is a context manager."""

    def __init__(self) -> None:
        # One record per span: [name, start, end, parent index, set id].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.set_id: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.set_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
        return out

    def coverage(self) -> float:
        """Share of the ``set`` spans' time spent inside their child spans."""
        root_time = 0.0
        covered = 0.0
        roots = set()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if name == "set":
                roots.add(index)
                root_time += end - start
            elif parent in roots:
                covered += end - start
        return covered / root_time if root_time else 0.0

    def write(self, path: Path) -> None:
        """Write every span as one JSON record per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, set_id in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "set": set_id}
                    )
                    + "\n"
                )


class NullTracer:
    """The untraced run: every span is a no-op."""

    set_id: Optional[str] = None
    _null = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._null
