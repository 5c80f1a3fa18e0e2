"""Spans around the benchmark's calls into spinforms, kept in memory until the run ends."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records (name, job, start_ns, end_ns, size) spans while ``enabled`` is true.

    When disabled, ``call`` costs one extra Python call, so the same job code
    runs in traced and untraced rounds.
    """

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.spans = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.job, start, time.perf_counter_ns(), None))

    @contextmanager
    def span(self, name, size=None):
        """Span around a block; ``size`` (bytes) may be a callable evaluated after the block."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.spans.append((name, self.job, start, end, size() if callable(size) else size))

    def durations_ms(self, name):
        return [(end - start) / 1e6 for n, _, start, end, _ in self.spans if n == name]

    def mean_ms(self, name):
        """Busy time per call."""
        d = self.durations_ms(name)
        return sum(d) / len(d) if d else 0.0

    def mean_mib(self, name):
        """Bytes per call, in MiB."""
        sizes = [s / 2**20 for n, _, _, _, s in self.spans if n == name and s is not None]
        return sum(sizes) / len(sizes) if sizes else 0.0

    def calls(self, name):
        return sum(1 for n, *_ in self.spans if n == name)

    def write(self, path):
        rows = [
            {"name": n, "job": job, "start_ns": start, "end_ns": end, "bytes": size}
            for n, job, start, end, size in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")
