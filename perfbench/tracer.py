"""In-memory span tracing around the program's public functions.

A ``Tracer`` replaces attributes on modules and classes with wrappers that
record one span per call: name, start, end, parent span and request id (the
episode index).  Every wrapper is installed at the name its caller looks up
(``experiment`` imports ``ppo_update`` by name, so the span goes on
``leosem.experiment.ppo_update``), and ``restore`` puts every original
object back.  Spans stay in memory until the caller summarises or writes
them; nothing here touches the program's own files.
"""
from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter

# Span record layout: [name, start_s, end_s, parent_index, request].
NAME, START, END, PARENT, REQUEST = range(5)

# A percentile is reported only when at least ten samples lie beyond it.
MIN_SAMPLES_P50 = 20
MIN_SAMPLES_P99 = 1000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError("spans must close in reverse order of opening")
        self._stack.pop()
        self.spans[idx][END] = self.clock()

    # ------------------------------------------------------------------
    # patching

    def _patch(self, owner, attr: str, make):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap(self, owner, attr: str, name: str, request_arg: int | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        With ``request_arg``, that positional argument becomes the request id
        of this span and of every span opened after it.
        """
        def make(fn):
            def traced(*args, **kwargs):
                if request_arg is not None:
                    self.request = args[request_arg]
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
            return traced
        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name`` without a span."""
        def make(fn):
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, make)

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}))
                fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(q / 100.0 * len(sorted_values)) - 1
    return sorted_values[min(max(k, 0), len(sorted_values) - 1)]


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total self time and call durations."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["self_s"] += own
        row["durations"].append(s[END] - s[START])
    return out
