"""In-memory spans around hoplite's public functions, and their self times.

Spans are recorded from outside the package: `instrument` replaces each
function under the name its caller looks it up by (a module attribute, a
class attribute, or an encoder instance's method) and restores every
original on exit. Nothing in `hoplite` knows it is being traced.

A span is (id, parent, name, start, end). A *leaf* function that runs
thousands of times per hop (`flipr_score`) gets no span per call; its
calls and seconds are summed per parent span instead, which keeps the
record small. Leaves must not call other traced functions.

Self time of a span is its duration minus the part of it covered by its
child spans and leaf aggregates.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

HOOKS = "trace.hooks"  # time spent in counting hooks, kept out of parents' self time


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Single-threaded span recorder; the pipeline runs with threads=1."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        # (parent span id, leaf name) -> [calls, seconds]
        self.leaves: dict[tuple[int | None, str], list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @property
    def root(self) -> int | None:
        return self._stack[0] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self._next_id
        self._next_id += 1
        parent = self.current
        self._stack.append(sid)
        start = self.clock()
        try:
            yield sid
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end))

    def add_leaf(self, name: str, seconds: float) -> None:
        agg = self.leaves.setdefault((self.current, name), [0, 0.0])
        agg[0] += 1
        agg[1] += seconds

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Callable[[tuple, dict, object], None] | None = None,
        leaf: bool = False,
    ) -> Callable:
        """`fn` recorded as a span (or a leaf aggregate) named `name`.

        `after(args, kwargs, result)` updates counters once the call
        returns; its own time is booked under HOOKS.
        """
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if leaf:
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.add_leaf(name, clock() - t0)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if after is not None:
                t0 = clock()
                after(args, kwargs, result)
                self.add_leaf(HOOKS, clock() - t0)
            return result

        return traced

    def write(self, path: str | os.PathLike) -> None:
        """Spans, then leaf aggregates, as JSON Lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end}))
                fh.write("\n")
            for (parent, name), (calls, seconds) in self.leaves.items():
                fh.write(json.dumps({"parent": parent, "name": name,
                                     "calls": calls, "seconds": seconds}))
                fh.write("\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(
    spans: list[Span], leaves: dict[tuple[int | None, str], list]
) -> dict[str, tuple[int, float]]:
    """name -> (calls, summed self seconds) over spans and leaf aggregates."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    leaf_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    for (parent, _), (_, seconds) in leaves.items():
        if parent is not None:
            leaf_time[parent] += seconds
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        own = (s.end - s.start) - _covered(children[s.id], s.start, s.end) - leaf_time[s.id]
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + own)
    for (_, name), (n, seconds) in leaves.items():
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + n, total + seconds)
    return out


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


class RepeatCounter:
    """Counts retrieve calls that repeat an earlier call of the same request
    (root span) with the same encoded query and exclusion set."""

    def __init__(self) -> None:
        self.seen: set = set()
        self.repeats = 0

    def observe(self, root: int | None, eq, exclude) -> None:
        key = (root, _digest(eq.query_part, eq.fact_part), frozenset(exclude))
        if key in self.seen:
            self.repeats += 1
        else:
            self.seen.add(key)


def instrument_encoder(tracer: Tracer, encoder) -> None:
    """Trace one encoder instance's methods (shadows the class methods)."""
    c = tracer.counters

    def after_query(args, kwargs, eq) -> None:
        c["encoder.rows"] += eq.query_part.shape[0] + eq.fact_part.shape[0]

    encoder.encode_query = tracer.wrap("encoder.encode_query", encoder.encode_query, after_query)
    encoder.encode_passage = tracer.wrap("encoder.encode_passage", encoder.encode_passage)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[RepeatCounter]:
    """Patch hoplite's public functions where their callers look them up."""
    import hoplite.condenser as condenser
    import hoplite.corpus as corpus
    import hoplite.index as index
    import hoplite.pipeline as pipeline
    import hoplite.retriever as retriever
    import hoplite.supervision as supervision

    c = tracer.counters
    repeats = RepeatCounter()
    retrieve_sig = inspect.signature(retriever.retrieve)

    def after_candidates(args, kwargs, cands) -> None:
        c["index.candidates"] += len(cands)
        c["index.pool"] += len(_arg(args, kwargs, 1, "index").pids)

    def after_flipr(args, kwargs, scored) -> None:
        eq = _arg(args, kwargs, 0, "eq")
        rows = _arg(args, kwargs, 1, "passage_rows")
        nq = eq.query_part.shape[0] + eq.fact_part.shape[0]
        nd, dim = rows.shape
        c["scoring.gemm_flops"] += 2 * nq * nd * dim
        c["scoring.bytes_read"] += nq * dim * eq.query_part.itemsize + nd * dim * rows.itemsize

    def after_retrieve(args, kwargs, ranked) -> None:
        c["retriever.returned"] += len(ranked)
        bound = retrieve_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        repeats.observe(tracer.root, bound.arguments["eq"], bound.arguments["exclude"])

    def after_condense(args, kwargs, kept) -> None:
        passages = _arg(args, kwargs, 1, "passages")
        c["condenser.sentences"] += sum(len(p.sentences) for p in passages)
        c["condenser.kept"] += len(kept)

    def after_write_traces(args, kwargs, _) -> None:
        c["pipeline.trace_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def after_discover(args, kwargs, outcomes) -> None:
        c["supervision.fallbacks"] += sum(o.fallback for o in outcomes.values())

    traced_retrieve = tracer.wrap("retriever.retrieve", retriever.retrieve, after_retrieve)
    targets = [
        (corpus, "load_corpus", tracer.wrap("corpus.load_corpus", corpus.load_corpus)),
        (corpus, "load_queryset", tracer.wrap("corpus.load_queryset", corpus.load_queryset)),
        (index, "build_index", tracer.wrap("index.build_index", index.build_index)),
        (index, "save_index", tracer.wrap("index.save_index", index.save_index)),
        (index, "load_index", tracer.wrap("index.load_index", index.load_index)),
        (retriever, "candidates_for",
         tracer.wrap("index.candidates_for", retriever.candidates_for, after_candidates)),
        (retriever, "flipr_score",
         tracer.wrap("scoring.flipr_score", retriever.flipr_score, after_flipr, leaf=True)),
        (retriever, "retrieve", traced_retrieve),
        (pipeline, "retrieve", traced_retrieve),
        (pipeline, "condense", tracer.wrap("condenser.condense", pipeline.condense, after_condense)),
        (pipeline, "merge_hybrid", tracer.wrap("pipeline.merge_hybrid", pipeline.merge_hybrid)),
        (pipeline, "run_queries", tracer.wrap("pipeline.run_queries", pipeline.run_queries)),
        (pipeline, "write_traces",
         tracer.wrap("pipeline.write_traces", pipeline.write_traces, after_write_traces)),
        (supervision, "latent_hop_ordering",
         tracer.wrap("supervision.latent_hop_ordering", supervision.latent_hop_ordering)),
        (supervision, "discover_positives",
         tracer.wrap("supervision.discover_positives", supervision.discover_positives,
                     after_discover)),
        (supervision, "write_supervision",
         tracer.wrap("supervision.write_supervision", supervision.write_supervision)),
    ]
    from_corpus = condenser.IdfTable.__dict__["from_corpus"]
    traced_from_corpus = classmethod(
        tracer.wrap("condenser.IdfTable.from_corpus", from_corpus.__func__)
    )
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, traced in targets:
            setattr(obj, attr, traced)
        condenser.IdfTable.from_corpus = traced_from_corpus
        yield repeats
    finally:
        condenser.IdfTable.from_corpus = from_corpus
        for obj, attr, original in saved:
            setattr(obj, attr, original)
