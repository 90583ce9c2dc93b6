"""Multi-hop retrieval pipelines and trace bookkeeping.

Three inference variants share one hop loop:
  condensed - append the condenser's kept facts to the query each hop;
  rerank    - append the full text of the hop's top passage instead;
  hybrid    - run both and merge their per-hop rankings into one list.

Passages ranked in an earlier hop are excluded from later hops, so the
per-hop ranked lists of one trace are pairwise disjoint and their
concatenation (the trace union) has no duplicates.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .condenser import CondenserConfig, IdfTable, LexicalOverlapScorer, condense
from .corpus import Corpus, Fact, MultiHopQuery, QueryRecord
from .encoder import Encoder
from .index import TokenIndex
from .retriever import RetrievalConfig, retrieve
from .scoring import ScoredPassage
from .util import read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

VARIANT_CONDENSED = "condensed"
VARIANT_RERANK = "rerank"
VARIANT_HYBRID = "hybrid"

HYBRID_MERGE_TOTAL = 100


@dataclass(frozen=True)
class PipelineConfig:
    hops: int = 4
    per_hop_k: tuple[int, ...] = (25, 25, 25, 25)
    variant: str = VARIANT_CONDENSED
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    condenser: CondenserConfig = field(default_factory=CondenserConfig)
    accumulate_facts: bool = True  # False: ablation, query never grows
    hybrid_total: int = HYBRID_MERGE_TOTAL
    verifier: str | None = None  # "trivial" or None

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops}")
        if len(self.per_hop_k) != self.hops:
            raise ValueError(
                f"per_hop_k has {len(self.per_hop_k)} entries for {self.hops} hops"
            )
        if any(k < 1 for k in self.per_hop_k):
            raise ValueError("per-hop k values must be positive")
        if self.variant not in (VARIANT_CONDENSED, VARIANT_RERANK, VARIANT_HYBRID):
            raise ValueError(f"unknown pipeline variant {self.variant!r}")
        if self.verifier not in (None, "trivial"):
            raise ValueError(f"unknown verifier {self.verifier!r}")


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
    """Runs queries through the configured variant over one corpus/index."""

    def __init__(
        self,
        corpus: Corpus,
        index: TokenIndex,
        encoder: Encoder,
        cfg: PipelineConfig | None = None,
    ):
        self.corpus = corpus
        self.index = index
        self.encoder = encoder
        self.cfg = cfg or PipelineConfig()
        self.sentence_scorer = LexicalOverlapScorer(idf=IdfTable.from_corpus(corpus))

    def _hop_loop(self, query: QueryRecord, rerank: bool) -> HopTrace:
        cfg = self.cfg
        state = MultiHopQuery(qid=query.qid, q0_text=query.text)
        excluded: set[str] = set()
        hops: list[HopRecord] = []
        for t, k in enumerate(cfg.per_hop_k, start=1):
            eq = self.encoder.encode_query(state)
            ranked = retrieve(
                eq,
                self.index,
                self.corpus,
                replace(cfg.retrieval, k=k),
                exclude=frozenset(excluded),
            )
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
                kept = condense(
                    state,
                    [self.corpus.get(sp.pid) for sp in ranked],
                    cfg.condenser,
                    self.sentence_scorer,
                )
                new_facts = kept
            hops.append(
                HopRecord(
                    t=t,
                    ranked=tuple(ranked),
                    kept_facts=tuple(kept),
                    context_pid=context_pid,
                    excluded=frozenset(excluded),
                )
            )
            excluded.update(sp.pid for sp in ranked)
            state = state.extended(new_facts if cfg.accumulate_facts else ())
        union: list[str] = []
        for hop in hops:
            union.extend(sp.pid for sp in hop.ranked)
        verdict = None
        if cfg.verifier == "trivial":
            # Baseline verifier: supported iff every hop kept at least one fact.
            verdict = all(len(hop.kept_facts) >= 1 for hop in hops)
        return HopTrace(
            qid=query.qid,
            q0_text=query.text,
            variant=VARIANT_RERANK if rerank else VARIANT_CONDENSED,
            per_hop_k=cfg.per_hop_k,
            hops=tuple(hops),
            union_pids=tuple(union),
            final_facts=state.facts,
            final_query_text=" ".join([query.text] + [f.text for f in state.facts]),
            verdict=verdict,
        )

    def run_condensed(self, query: QueryRecord) -> HopTrace:
        return self._hop_loop(query, rerank=False)

    def run_rerank(self, query: QueryRecord) -> HopTrace:
        return self._hop_loop(query, rerank=True)

    def run_hybrid(self, query: QueryRecord) -> HybridTrace:
        condensed = self.run_condensed(query)
        reranked = self.run_rerank(query)
        merged = merge_hybrid(condensed, reranked, total=self.cfg.hybrid_total)
        return HybridTrace(
            qid=query.qid, merged=tuple(merged), condensed=condensed, rerank=reranked
        )

    def run(self, query: QueryRecord) -> HopTrace | HybridTrace:
        if self.cfg.variant == VARIANT_CONDENSED:
            return self.run_condensed(query)
        if self.cfg.variant == VARIANT_RERANK:
            return self.run_rerank(query)
        return self.run_hybrid(query)


def run_queries(
    runner: PipelineRunner, queries: Sequence[QueryRecord], threads: int = 1
) -> list[HopTrace | HybridTrace]:
    """Parallel map over independent queries; output keeps input order."""
    if threads <= 1:
        return [runner.run(q) for q in queries]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(runner.run, queries))


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


def union_topk(trace: HopTrace, take: Sequence[int]) -> list[str]:
    """Concatenate per-hop prefixes of the ranked lists, hop-major.

    take_i may not exceed that hop's configured k. No dedup is needed:
    hop exclusion already keeps the lists disjoint.
    """
    if len(take) != len(trace.hops):
        raise ValueError(f"take has {len(take)} entries for {len(trace.hops)} hops")
    out: list[str] = []
    for hop, k_cfg, t_i in zip(trace.hops, trace.per_hop_k, take):
        if t_i < 0 or t_i > k_cfg:
            raise ValueError(f"take {t_i} exceeds configured k {k_cfg} at hop {hop.t}")
        out.extend(sp.pid for sp in hop.ranked[:t_i])
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
    path: str | Path, traces: Iterable[HopTrace | HybridTrace | dict], meta: dict | None = None
) -> None:
    records: Iterable[dict] = (
        trace if isinstance(trace, dict) else trace_record(trace) for trace in traces
    )
    if meta is not None:
        # The dumps/loads round trip orders the meta keys at every depth.
        sorted_meta = json.loads(json.dumps(meta, sort_keys=True))
        records = chain([{"meta": sorted_meta}], records)
    write_jsonl(path, records)


def read_traces(path: str | Path) -> tuple[dict | None, list[dict]]:
    """Returns (meta, records); meta is None when the file has no meta line."""
    meta = None
    records: list[dict] = []
    for lineno, obj in read_jsonl(path):
        if "meta" in obj and lineno == 1:
            meta = obj["meta"]
        else:
            records.append(obj)
    return meta, records
