"""Multi-hop retrieval pipelines and trace bookkeeping.

Three inference variants share one hop loop:
  condensed - append the condenser's kept facts to the query each hop;
  rerank    - append the full text of the hop's top passage instead;
  hybrid    - run both (hop 1, the same for both, is retrieved once) and
              merge their per-hop rankings into one list.

Passages ranked in an earlier hop are excluded from later hops, so the
per-hop ranked lists of one trace are pairwise disjoint and their
concatenation (the trace union) has no duplicates.

Each query gets one `index.RowCache`, shared by all of its hops and both
hybrid arms and by no other query: a hop's rows repeat the earlier hops'
rows, and each distinct row is probed and screened once. The cache holds
distinct rows x passages x 4 bytes of screened maxima (about 1,000 rows at
most under the token caps) and cannot change a ranking, so traces are the
bytes a fresh cache per retrieval writes.

Every query runs the same hop schedule, so `run_queries` drives the hop
loops of LOCKSTEP_QUERIES queries at a time in lockstep. Each loop stops
before each retrieval; the rows that the stopped retrievals would screen and
that their caches have not seen are screened together, one
`TokenIndex.screen_maxima` call per hop in blocks under `index.SCREEN_BYTES`,
each query's columns written into its own cache. Then every loop runs its
retrieval (band and float64 rescore), condensing and next encoding, across
the thread pool when threads > 1. A hop scored in one pass (2k >= pool)
screens nothing. Neither the window nor the stacked screen can change a
ranking: each query keeps its own cache, the screen's error bound holds for
any float32 summation order, and the band is rescored by the kernel whose
scores do not depend on batch shape. At most one window's caches are alive.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Generator, Iterable, Iterator, Sequence

import numpy as np

from .condenser import CondenserConfig, IdfTable, condense
from .corpus import Corpus, Fact, MultiHopQuery, QueryRecord
from .encoder import LexicalEncoder
from .index import RowCache, TokenIndex, screen_caches, screens
from .retriever import RetrievalConfig, check_corpus_covers, retrieval_pool, retrieve
from .scoring import ScoredPassage, source_columns
from .util import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

VARIANT_CONDENSED = "condensed"
VARIANT_RERANK = "rerank"
VARIANT_HYBRID = "hybrid"

HYBRID_MERGE_TOTAL = 100

# Queries whose hop loops `run_queries` drives in lockstep at a time. Each holds
# its RowCache (distinct rows x passages x 4 bytes) until its trace is done.
LOCKSTEP_QUERIES = 16

# A hop loop: it yields, before each retrieval round, the float64 source rows
# (arrays of rows) that round screens, and returns its trace.
Steps = Generator[list[np.ndarray], None, Any]


@dataclass(frozen=True)
class PipelineConfig:
    per_hop_k: tuple[int, ...] = (25, 25, 25, 25)
    variant: str = VARIANT_CONDENSED
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    condenser: CondenserConfig = field(default_factory=CondenserConfig)
    accumulate_facts: bool = True  # False: ablation, query never grows
    hybrid_total: int = HYBRID_MERGE_TOTAL
    verify: bool = False  # True: record the baseline verifier's verdict per trace

    def __post_init__(self) -> None:
        if not self.per_hop_k:
            raise ValueError("per_hop_k must name at least one hop")
        if any(type(k) is not int or k < 1 for k in self.per_hop_k):
            raise ValueError(f"per_hop_k values must be positive integers, got {self.per_hop_k}")
        if self.variant not in (VARIANT_CONDENSED, VARIANT_RERANK, VARIANT_HYBRID):
            raise ValueError(f"unknown pipeline variant {self.variant!r}")
        if not isinstance(self.verify, bool):
            raise ValueError(f"verify must be a bool, got {self.verify!r}")
        if self.hybrid_total < 0:
            raise ValueError(f"hybrid_total must be non-negative, got {self.hybrid_total}")

    @property
    def hops(self) -> int:
        return len(self.per_hop_k)


@dataclass(frozen=True)
class HopRecord:
    t: int
    ranked: tuple[ScoredPassage, ...]
    kept_facts: tuple[Fact, ...]
    context_pid: str | None
    excluded: frozenset[str]  # exclusion set in effect for this hop


@dataclass(frozen=True)
class HopTrace:
    qid: str
    q0_text: str
    variant: str
    per_hop_k: tuple[int, ...]
    hops: tuple[HopRecord, ...]
    union_pids: tuple[str, ...]
    final_facts: tuple[Fact, ...]
    final_query_text: str
    verdict: bool | None = None


@dataclass(frozen=True)
class HybridTrace:
    qid: str
    merged: tuple[str, ...]
    condensed: HopTrace
    rerank: HopTrace


class PipelineRunner:
    """Runs queries through the configured variant over one index and a corpus
    holding every pid of it (else KeyError)."""

    def __init__(
        self,
        corpus: Corpus,
        index: TokenIndex,
        encoder: LexicalEncoder,
        cfg: PipelineConfig | None = None,
    ):
        check_corpus_covers(index, corpus)
        self.corpus = corpus
        self.index = index
        self.encoder = encoder
        self.cfg = cfg or PipelineConfig()
        self.idf = IdfTable.from_corpus(corpus)

    def _retrieval(
        self, state: MultiHopQuery, k: int, excluded: frozenset[str], cache: RowCache
    ) -> Steps:
        """One retrieval of `state`'s query at depth k through `cache`. It stops
        once before the retrieval, yielding the source rows the retrieval
        screens (none when 2k >= pool, where it scores the pool in one pass),
        and returns the ranking."""
        eq = self.encoder.encode_query(state)
        step = replace(self.cfg.retrieval, k=k)
        pool = retrieval_pool(eq, self.index, step, excluded, cache)
        yield [source_columns(eq).T] if screens(pool, k) else []
        ranked = retrieve(eq, self.index, step, exclude=excluded, cache=cache, pool=pool)
        return tuple(ranked)

    def _hop_loop(
        self,
        query: QueryRecord,
        cache: RowCache,
        rerank: bool,
        hop1: Sequence[ScoredPassage] | None = None,
    ) -> Steps:
        """One variant's hops, every retrieval through the query's `cache`,
        stopping before each retrieval as `_retrieval` does; returns the trace.
        `hop1`, when given, is the hop-1 ranking: every variant retrieves hop 1
        from q0 alone with nothing excluded."""
        cfg = self.cfg
        state = MultiHopQuery(qid=query.qid, q0_text=query.text)
        excluded: set[str] = set()
        hops: list[HopRecord] = []
        for t, k in enumerate(cfg.per_hop_k, start=1):
            if t == 1 and hop1 is not None:
                ranked = tuple(hop1)
            else:
                ranked = yield from self._retrieval(state, k, frozenset(excluded), cache)
            kept: list[Fact] = []
            context_pid: str | None = None
            new_facts: list[Fact] = []
            if rerank:
                if ranked:
                    # The retriever's score already ranks passages, so rank 1 is the context.
                    context_pid = ranked[0].pid
                    passage = self.corpus.get(context_pid)
                    new_facts = [
                        Fact(pid=context_pid, sentence_index=i, text=s)
                        for i, s in enumerate(passage.sentences)
                    ]
            else:
                passages = [self.corpus.get(sp.pid) for sp in ranked]
                kept = new_facts = condense(state, passages, cfg.condenser, self.idf)
            hops.append(HopRecord(t, ranked, tuple(kept), context_pid, frozenset(excluded)))
            excluded.update(sp.pid for sp in ranked)
            state = state.extended(new_facts if cfg.accumulate_facts else ())
        union = [sp.pid for hop in hops for sp in hop.ranked]
        # Baseline verifier: supported iff every hop kept at least one fact.
        verdict = all(hop.kept_facts for hop in hops) if cfg.verify else None
        return HopTrace(
            qid=query.qid,
            q0_text=query.text,
            variant=VARIANT_RERANK if rerank else VARIANT_CONDENSED,
            per_hop_k=cfg.per_hop_k,
            hops=tuple(hops),
            union_pids=tuple(union),
            final_facts=state.facts,
            final_query_text=state.text,
            verdict=verdict,
        )

    def _query(self, query: QueryRecord, cache: RowCache) -> Steps:
        """The configured variant for one query, every retrieval through its
        `cache`: one stop per hop, yielding the source rows that hop's
        retrievals screen. Hybrid retrieves hop 1 once, then steps both arms
        together from hop 2 on."""
        if self.cfg.variant != VARIANT_HYBRID:
            return (yield from self._hop_loop(query, cache, self.cfg.variant == VARIANT_RERANK))
        q0 = MultiHopQuery(qid=query.qid, q0_text=query.text)
        hop1 = yield from self._retrieval(q0, self.cfg.per_hop_k[0], frozenset(), cache)
        arms = [self._hop_loop(query, cache, rerank, hop1) for rerank in (False, True)]
        while True:
            steps = [_step(arm) for arm in arms]
            # both arms run the same hops, so they end in the same round
            if all(done for done, _ in steps):
                break
            yield [rows for _, request in steps for rows in request]
        (_, condensed), (_, reranked) = steps
        merged = merge_hybrid(condensed, reranked, total=self.cfg.hybrid_total)
        return HybridTrace(
            qid=query.qid, merged=tuple(merged), condensed=condensed, rerank=reranked
        )

    def _lockstep(
        self, queries: Sequence[QueryRecord], map_steps: Callable = map
    ) -> list[HopTrace | HybridTrace]:
        """Traces of `queries`, their hop loops driven in lockstep.

        Each query has its own `RowCache`. Every round advances each unfinished
        query to its next stop (through `map_steps`, a thread pool's `map` in
        `run_queries`), then screens the rows all of them stopped for in one
        `screen_caches` call, each query's columns into its own cache; the
        retrievals of the next round find their rows screened.
        """
        caches = [RowCache(self.index, self.cfg.retrieval.results_per_vector) for _ in queries]
        loops = [self._query(q, cache) for q, cache in zip(queries, caches)]
        traces: list = [None] * len(queries)
        live = list(range(len(queries)))
        while live:
            steps = list(map_steps(_step, [loops[i] for i in live]))
            work = []
            for i, (done, value) in zip(live, steps):
                if done:
                    traces[i] = value
                elif value:
                    work.append((caches[i], np.concatenate(value)))
            screen_caches(self.index, work)
            live = [i for i, (done, _) in zip(live, steps) if not done]
        return traces

    def run(self, query: QueryRecord) -> HopTrace | HybridTrace:
        """One query through the configured variant: a batch of one, with one
        `RowCache` for every hop of it (both arms of hybrid)."""
        return self._lockstep([query])[0]


def _step(loop: Steps) -> tuple[bool, object]:
    """Advance a hop loop to its next stop: (False, what it yields there), or
    (True, what it returns) once it is done."""
    try:
        return False, next(loop)
    except StopIteration as stop:
        return True, stop.value


def run_queries(
    runner: PipelineRunner, queries: Sequence[QueryRecord], threads: int = 1
) -> list[HopTrace | HybridTrace]:
    """Traces of `queries` in input order, LOCKSTEP_QUERIES queries at a time.

    Within a window the queries' hop loops run in lockstep: each hop's new
    source rows, of every query, are screened by one `screen_maxima` call,
    and with threads > 1 each round's per-query work (rescoring, condensing,
    encoding) is split across a thread pool. Traces do not depend on the
    window or the thread count.
    """
    windows = [queries[at : at + LOCKSTEP_QUERIES]
               for at in range(0, len(queries), LOCKSTEP_QUERIES)]
    if threads <= 1:
        return [trace for window in windows for trace in runner._lockstep(window)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [trace for window in windows for trace in runner._lockstep(window, pool.map)]


def merge_hybrid(
    condensed: HopTrace, rerank: HopTrace, total: int = HYBRID_MERGE_TOTAL
) -> list[str]:
    """Interleave two traces' per-hop rankings into one deduplicated list.

    Hop-major: each hop contributes its top ceil(budget/2) condensed pids
    and floor(budget/2) rerank pids, where budget splits `total` evenly
    across hops; duplicates are skipped by walking deeper down the same
    list. If quotas go unfilled the remaining ranked pids backfill in the
    same hop-major order, so the result has exactly
    min(total, available unique) entries.
    """
    if len(condensed.hops) != len(rerank.hops):
        raise ValueError(
            f"hop count mismatch: {len(condensed.hops)} vs {len(rerank.hops)}"
        )
    if total < 0:
        raise ValueError("total must be non-negative")
    n_hops = len(condensed.hops)
    base, rem = divmod(total, n_hops)
    out: list[str] = []
    seen: set[str] = set()

    def take(ranked: Sequence[ScoredPassage], quota: int) -> None:
        taken = 0
        for sp in ranked:
            if len(out) >= total or taken >= quota:
                break
            if sp.pid in seen:
                continue
            seen.add(sp.pid)
            out.append(sp.pid)
            taken += 1

    for h in range(n_hops):
        budget = base + (1 if h < rem else 0)
        c_quota = math.ceil(budget / 2)
        take(condensed.hops[h].ranked, c_quota)
        take(rerank.hops[h].ranked, budget - c_quota)
    if len(out) < total:
        for h in range(n_hops):
            take(condensed.hops[h].ranked, total)
            take(rerank.hops[h].ranked, total)
    return out


# ---------------------------------------------------------------------------
# Trace serialization (JSON Lines; optional meta record first).


def _fact_record(f: Fact) -> dict:
    return {
        "pid": f.pid,
        "sentence_index": f.sentence_index,
        "text": f.text,
        "stage1_score": f.stage1_score,
        "stage2_score": f.stage2_score,
    }


def _scored_record(sp: ScoredPassage) -> dict:
    return {"pid": sp.pid, "score": sp.score, "s_query": sp.s_query, "s_fact": sp.s_fact}


def trace_record(trace: HopTrace | HybridTrace) -> dict:
    if isinstance(trace, HybridTrace):
        return {
            "qid": trace.qid,
            "variant": VARIANT_HYBRID,
            "merged": list(trace.merged),
            "condensed": trace_record(trace.condensed),
            "rerank": trace_record(trace.rerank),
        }
    rec = {
        "qid": trace.qid,
        "q0": trace.q0_text,
        "variant": trace.variant,
        "per_hop_k": list(trace.per_hop_k),
        "hops": [
            {
                "t": hop.t,
                "ranked": [_scored_record(sp) for sp in hop.ranked],
                "kept_facts": [_fact_record(f) for f in hop.kept_facts],
                "context_pid": hop.context_pid,
                "excluded": sorted(hop.excluded),
            }
            for hop in trace.hops
        ],
        "union": list(trace.union_pids),
        "final_facts": [_fact_record(f) for f in trace.final_facts],
        "final_query": trace.final_query_text,
    }
    if trace.verdict is not None:
        rec["verdict"] = trace.verdict
    return rec


def write_traces(
    path: str | Path, traces: Iterable[HopTrace | HybridTrace], meta: dict | None = None
) -> None:
    records: Iterable[dict] = map(trace_record, traces)
    if meta is not None:
        # The dumps/loads round trip orders the meta keys at every depth.
        sorted_meta = json.loads(json.dumps(meta, sort_keys=True))
        records = chain([{"meta": sorted_meta}], records)
    write_jsonl(path, records)


def _missing(obj: object, what: str, keys: Sequence[str]) -> Iterator[str]:
    if not isinstance(obj, dict):
        yield f"{what} is not a JSON object"
        return
    yield from (f"{what} has no {key!r} field" for key in keys if key not in obj)


def _not_lists(obj: dict, keys: Sequence[str]) -> Iterator[str]:
    yield from (f"{key!r} is not a list" for key in keys if not isinstance(obj[key], list))


def _trace_problems(rec: object, what: str = "trace record") -> Iterator[str]:
    """Why a parsed line is not a trace record with the fields readers use;
    lazy, so the first problem stops the walk before it indexes a bad value."""
    if isinstance(rec, dict) and rec.get("variant") == VARIANT_HYBRID:
        yield from _missing(rec, what, ("qid", "merged", "condensed", "rerank"))
        yield from _not_lists(rec, ("merged",))
        yield from _trace_problems(rec["condensed"], "'condensed' trace")
        yield from _trace_problems(rec["rerank"], "'rerank' trace")
        return
    yield from _missing(rec, what, ("qid", "union", "hops"))
    yield from _not_lists(rec, ("union", "hops"))
    for hop in rec["hops"]:
        yield from _missing(hop, "hop", ("kept_facts",))
        yield from _not_lists(hop, ("kept_facts",))
        for fact in hop["kept_facts"]:
            yield from _missing(fact, "kept fact", ("pid", "sentence_index"))


def read_traces(path: str | Path) -> tuple[dict | None, list[dict]]:
    """Returns (meta, records); meta is None when the file has no meta line.

    A record that is not an object, lacks a field readers use, or holds a
    non-list where readers iterate (`union`, `hops`, `kept_facts`, `merged`)
    raises ValueError naming the file, the line and the field.
    """
    meta = None
    records: list[dict] = []
    for lineno, obj in read_jsonl(path):
        if lineno == 1 and isinstance(obj, dict) and "meta" in obj:
            meta = obj["meta"]
            continue
        problem = next(_trace_problems(obj), None)
        if problem:
            raise ValueError(f"{path}: line {lineno}: {problem}")
        records.append(obj)
    return meta, records
