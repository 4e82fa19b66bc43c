"""Spans and engine counters for the traced benchmark run.

The benchmark records spans from its own code, around each public call
it makes into the SOFA pipeline; nothing inside ``repro`` is changed.
Spans are kept in memory and written out when the run ends. A span's
self time is its duration minus the durations of its direct children
(spans are opened and closed on one thread, so children never overlap).

:class:`EngineCounters` wraps a few public methods with counters for the
duration of one traced operation and restores the originals afterwards.
The wrappers call the original and return its result unchanged, so a
traced operation produces the same output as an untraced one.
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: int


class Tracer:
    """In-memory span recorder. ``clock`` lets a test substitute a fake."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, self.clock(), float("nan"), parent, self.op_id)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec.end = self.clock()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Self time of every span, aligned with ``self.spans``."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of spans, total and self seconds."""
        agg: Dict[str, Dict[str, float]] = {}
        for s, st in zip(self.spans, self.self_times()):
            a = agg.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            a["count"] += 1
            a["total_s"] += s.end - s.start
            a["self_s"] += st
        return agg

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def to_json(self) -> List[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op_id": s.op_id, "self_s": st}
            for s, st in zip(self.spans, self.self_times())
        ]


class NullTracer:
    """Tracer used by untimed-overhead runs: every span is a no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


@dataclass
class EngineCounters:
    """Counts (and, except for ``MisraGries.add``, times) calls to public
    methods of the engine modules while installed.

    ``steps`` counts the items SOFA's inner step processed: each step
    either opens a center (one ``CenterIndex.add``) or assigns the item
    to its nearest center (one ``MisraGries.merge``), and both happen
    only inside ``SofaEngine.push`` / ``push_state``.
    """

    nearest_calls: int = 0
    nearest_s: float = 0.0
    index_adds: int = 0
    mg_add_calls: int = 0
    mg_merge_calls: int = 0
    mg_merge_s: float = 0.0
    mg_trims: int = 0
    pushes: int = 0
    push_s: float = 0.0
    steps: int = 0
    finalize_calls: int = 0
    finalize_s: float = 0.0
    kmedians_calls: int = 0
    kmedians_s: float = 0.0
    kmedians_points: int = 0
    kmedians_dense_cols: int = 0
    kmedians_dense_mb: float = 0.0
    _in_push: bool = False
    _saved: list = field(default_factory=list)

    def install(self) -> None:
        from repro.core import sofa as sofa_mod
        from repro.core.distance import CenterIndex
        from repro.core.mg import MisraGries
        from repro.core.sofa import SofaEngine

        if self._saved:
            raise RuntimeError("counters already installed")
        c = self
        clock = time.perf_counter
        nearest, index_add = CenterIndex.nearest, CenterIndex.add
        mg_add, mg_merge = MisraGries.add, MisraGries.merge
        push, push_state, finalize = SofaEngine.push, SofaEngine.push_state, SofaEngine.finalize
        kmedians = sofa_mod.kmedians

        def w_nearest(self, point):
            t0 = clock()
            out = nearest(self, point)
            c.nearest_s += clock() - t0
            c.nearest_calls += 1
            return out

        def w_index_add(self, support):
            c.index_adds += 1
            if c._in_push:
                c.steps += 1
            return index_add(self, support)

        def w_mg_add(self, item, weight=1.0):
            c.mg_add_calls += 1
            cnt = self.counters
            if item not in cnt and len(cnt) >= self.capacity:
                c.mg_trims += 1
            return mg_add(self, item, weight)

        def w_mg_merge(self, other):
            t0 = clock()
            before = sum(self.counters.values()) + sum(other.counters.values())
            out = mg_merge(self, other)
            # a merge trims iff it subtracted the (capacity+1)-th count
            if sum(self.counters.values()) < before - 1e-9 * max(1.0, before):
                c.mg_trims += 1
            c.mg_merge_s += clock() - t0
            c.mg_merge_calls += 1
            if c._in_push:
                c.steps += 1
            return out

        def timed_push(orig):
            def wrapper(self, arg):
                t0 = clock()
                c._in_push = True
                try:
                    return orig(self, arg)
                finally:
                    c._in_push = False
                    c.push_s += clock() - t0
                    c.pushes += 1
            return wrapper

        def w_finalize(self):
            t0 = clock()
            try:
                return finalize(self)
            finally:
                c.finalize_s += clock() - t0
                c.finalize_calls += 1

        def w_kmedians(points, k, **kw):
            sizes = [len(p) for p in points]
            cols = len(np.unique(np.concatenate(
                [np.asarray(p, dtype=np.int64) for p in points]))) if sum(sizes) else 0
            c.kmedians_points += len(points)
            c.kmedians_dense_cols = max(c.kmedians_dense_cols, cols)
            # the n x k x cols float64 array kmedians' Lloyd step broadcasts
            c.kmedians_dense_mb = max(
                c.kmedians_dense_mb, len(points) * min(k, len(points)) * cols * 8 / 2**20)
            t0 = clock()
            try:
                return kmedians(points, k, **kw)
            finally:
                c.kmedians_s += clock() - t0
                c.kmedians_calls += 1

        patches = [
            (CenterIndex, "nearest", w_nearest),
            (CenterIndex, "add", w_index_add),
            (MisraGries, "add", w_mg_add),
            (MisraGries, "merge", w_mg_merge),
            (SofaEngine, "push", timed_push(push)),
            (SofaEngine, "push_state", timed_push(push_state)),
            (SofaEngine, "finalize", w_finalize),
            (sofa_mod, "kmedians", w_kmedians),
        ]
        for owner, name, wrapper in patches:
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    @contextmanager
    def installed(self) -> Iterator["EngineCounters"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
