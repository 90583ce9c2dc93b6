"""Multi-hop retrieval pipelines, their hop step, and trace bookkeeping.

Three inference variants share one hop loop:
  condensed - append the condenser's kept facts to the query each hop;
  rerank    - append the full text of the hop's top passage instead;
  hybrid    - run both (hop 1, the same for both, is retrieved once) and
              merge their per-hop rankings into one list.

Passages ranked in an earlier hop are excluded from later hops, so the
per-hop ranked lists of one trace are pairwise disjoint and their
concatenation (the trace union) has no duplicates. A trace keeps each hop's
`Ranking` as the arrays `retrieve` returned. It is its query's one record:
the next hop's query (`HopTrace.query`) and exclusion set are read off it,
as is the union it writes. A written record leaves out what the rest of it
gives: each ranked score, each hop's exclusion set and the final query.

Every query runs the same hop schedule, so `run_queries` runs
LOCKSTEP_QUERIES queries at a time as one window, hop by hop. A window
holds a trace per query, two per hybrid query (its condensed and rerank
arms, which share hop 1: it is retrieved once from q0 and given to both).
Its traces share the runner's one `index.RowCache` across all of their
hops. The cache is reset at the start of each window, so it holds at most
one window's distinct rows x passages x 4 bytes of screened maxima, and it
keeps its buffers across windows, so a warm screen maps no large temporary.
Each hop is one `retrieve_hop`, the step latent hop ordering takes too: it
encodes every trace's query and hands the encoded queries to the cache,
then `retrieve` finds each one's pool; the first that prunes (2k < pool)
screens every query's unseen rows in one `TokenIndex.screen_maxima` call,
and a hop where none prunes screens nothing and copies no row. Traces are the bytes a fresh cache per retrieval writes;
`index.RowCache` says why.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .condenser import CondenserConfig, IdfTable, condense
from .corpus import Corpus, Fact, MultiHopQuery, QueryRecord
from .encoder import LexicalEncoder
from .index import RowCache, TokenIndex
from .retriever import RetrievalConfig, Retriever, retrieve
from .scoring import Ranking
from .util import read_jsonl, write_jsonl

VARIANT_CONDENSED = "condensed"
VARIANT_RERANK = "rerank"
VARIANT_HYBRID = "hybrid"

HYBRID_MERGE_TOTAL = 100

# Queries `run_queries` runs hop by hop together at a time, sharing the
# runner's RowCache (distinct rows x passages x 4 bytes) until the last trace
# is done.
LOCKSTEP_QUERIES = 16


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


@dataclass(frozen=True)
class HopRecord:
    t: int
    ranked: Ranking  # as `retrieve` returned it
    kept_facts: tuple[Fact, ...]
    context_pid: str | None


@dataclass(frozen=True)
class HopTrace:
    qid: str
    q0_text: str
    variant: str
    per_hop_k: tuple[int, ...]
    hops: tuple[HopRecord, ...]
    final_facts: tuple[Fact, ...]
    verdict: bool | None = None

    @property
    def union_pids(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(hop.ranked.pids for hop in self.hops))

    @property
    def query(self) -> MultiHopQuery:
        """The query state after the recorded hops: q0 plus the facts they added."""
        return MultiHopQuery(self.qid, self.q0_text, self.final_facts)


@dataclass(frozen=True)
class HybridTrace:
    qid: str
    merged: tuple[str, ...]
    condensed: HopTrace
    rerank: HopTrace


class PipelineRunner:
    """Runs queries through the configured variant over one index and a corpus
    holding every pid of it (else KeyError), one window at a time: its one
    `RowCache` is reset per window and keeps its buffers for the runner's life,
    so a runner is not shared across threads."""

    def __init__(
        self,
        corpus: Corpus,
        index: TokenIndex,
        encoder: LexicalEncoder,
        cfg: PipelineConfig | None = None,
    ):
        self.cfg = cfg or PipelineConfig()
        self.retriever = Retriever(corpus, index, encoder, self.cfg.retrieval)
        self.idf = IdfTable.from_corpus(corpus)
        self.cache = RowCache(index)  # reset per window; its buffers outlive windows

    def _advance(self, trace: HopTrace, ranked: Ranking) -> HopTrace:
        """`trace` with `ranked` recorded as its next hop and its facts extended by
        the condenser's kept facts (condensed) or the top passage's sentences (rerank)."""
        kept: tuple[Fact, ...] = ()
        new_facts: tuple[Fact, ...] = ()
        context_pid: str | None = None
        if trace.variant == VARIANT_CONDENSED:
            passages = [self.retriever.corpus.get(pid) for pid in ranked.pids]
            kept = new_facts = tuple(condense(trace.query, passages, self.cfg.condenser, self.idf))
        elif ranked:
            # The retriever's score already ranks passages, so rank 1 is the context.
            context_pid = ranked.pids[0]
            passage = self.retriever.corpus.get(context_pid)
            new_facts = tuple(
                Fact(pid=context_pid, sentence_index=i, text=s)
                for i, s in enumerate(passage.sentences)
            )
        hop = HopRecord(len(trace.hops) + 1, ranked, kept, context_pid)
        facts = trace.final_facts + new_facts if self.cfg.accumulate_facts else trace.final_facts
        return replace(trace, hops=trace.hops + (hop,), final_facts=facts)

    def _window(self, queries: Sequence[QueryRecord]) -> list[HopTrace | HybridTrace]:
        """Traces of `queries`, run hop by hop together through the runner's
        `RowCache`, reset first.

        A trace per query, two per hybrid query (its condensed arm, then its
        rerank arm). Each hop is one `retrieve_hop` over the traces' queries
        less their unions, then `_advance` of each trace. Hybrid retrieves
        hop 1 once per query and gives it to both arms.
        """
        cfg = self.cfg
        arms = ((VARIANT_CONDENSED, VARIANT_RERANK) if cfg.variant == VARIANT_HYBRID
                else (cfg.variant,))
        traces = [HopTrace(q.qid, q.text, arm, cfg.per_hop_k, hops=(), final_facts=())
                  for q in queries for arm in arms]
        cache = self.cache
        cache.reset()
        for t, k in enumerate(cfg.per_hop_k, start=1):
            # hybrid's arms share hop 1: both retrieve it from q0 alone, nothing excluded
            shared = len(arms) if t == 1 else 1
            fetching = traces[::shared]
            ranked = retrieve_hop(self.retriever, k, [trace.query for trace in fetching],
                                  [frozenset(trace.union_pids) for trace in fetching], cache)
            traces = [self._advance(trace, ranked[i // shared]) for i, trace in enumerate(traces)]
        if cfg.verify:
            # Baseline verifier: supported iff every hop kept at least one fact.
            traces = [replace(trace, verdict=all(hop.kept_facts for hop in trace.hops))
                      for trace in traces]
        if len(arms) == 1:
            return traces
        return [
            HybridTrace(c.qid, tuple(merge_hybrid(c, r, total=cfg.hybrid_total)), c, r)
            for c, r in zip(traces[::2], traces[1::2])
        ]

    def run(self, query: QueryRecord) -> HopTrace | HybridTrace:
        """One query through the configured variant: a window of one, the
        runner's `RowCache` serving every hop of it (both arms of hybrid)."""
        return self._window([query])[0]


def retrieve_hop(
    retriever: Retriever,
    k: int,
    states: Sequence[MultiHopQuery],
    excludes: Iterable[frozenset[str]],
    cache: RowCache,
) -> list[Ranking]:
    """The top k of each state less its excluded pids, in order, as `retrieve`
    ranks them: one hop of many query states through `cache`, handed their
    encoded queries so that its next screen covers all of them (see `RowCache`)."""
    step = replace(retriever.cfg, k=k)
    eqs = [retriever.encoder.encode_query(state) for state in states]
    cache.expected = eqs
    return [retrieve(eq, retriever.index, step, exclude=exclude, cache=cache)
            for eq, exclude in zip(eqs, excludes)]


def run_queries(
    runner: PipelineRunner, queries: Sequence[QueryRecord], threads: int = 1
) -> list[HopTrace | HybridTrace]:
    """Traces of `queries` in input order, LOCKSTEP_QUERIES queries at a time,
    each window run hop by hop on the calling thread (`threads` must be 1).
    A window's traces share the runner's `RowCache`, reset per window, so each
    hop's new source rows, of every trace, are screened by at most one
    `screen_maxima` call; traces do not depend on the window (see `RowCache`).
    """
    if threads != 1:
        raise ValueError(f"run_queries runs on one thread; threads must be 1, got {threads!r}")
    return [trace for at in range(0, len(queries), LOCKSTEP_QUERIES)
            for trace in runner._window(queries[at : at + LOCKSTEP_QUERIES])]


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

    def take(ranked: Ranking, quota: int) -> None:
        taken = 0
        for pid in ranked.pids:
            if len(out) >= total or taken >= quota:
                break
            if pid in seen:
                continue
            seen.add(pid)
            out.append(pid)
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


def _ranked_records(ranked: Ranking) -> list[dict]:
    scores = zip(ranked.pids, ranked.s_query.tolist(), ranked.s_fact.tolist())
    return [{"pid": pid, "s_query": q, "s_fact": f} for pid, q, f in scores]


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
                "ranked": _ranked_records(hop.ranked),
                "kept_facts": [vars(f) for f in hop.kept_facts],  # the Facts' own dicts: read-only
                "context_pid": hop.context_pid,
            }
            for hop in trace.hops
        ],
        "union": list(trace.union_pids),
        "final_facts": [vars(f) for f in trace.final_facts],
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


class TraceView(NamedTuple):
    """What `eval` reads of one trace record; a hybrid's is its condensed arm's."""

    qid: str
    q0: str | None  # None: not recorded
    union: list[str]
    passages: list[str]  # its context pids for rerank, else the pids of its kept facts
    kept: list[tuple[str, int]]  # (pid, sentence_index) of each kept fact, hop by hop
    verdict: bool | None


def _need(ok: bool, problem: str) -> None:
    if not ok:
        raise ValueError(problem)


def _fields(obj: object, what: str, keys: Sequence[str]) -> None:
    _need(isinstance(obj, dict), f"{what} is not a JSON object")
    for key in keys:
        _need(key in obj, f"{what} has no {key!r} field")


def _list(obj: dict, key: str, strings: bool = False) -> list:
    _need(isinstance(obj[key], list), f"{key!r} is not a list")
    _need(not strings or all(type(v) is str for v in obj[key]), f"{key!r} has a non-string entry")
    return obj[key]


def trace_view(rec: object, what: str = "trace record") -> TraceView:
    """What `eval` reads of one parsed trace record, or ValueError naming the
    first field that is missing or of the wrong kind (`read_traces` lists them).
    A hybrid record reads as its condensed arm with its own qid and `merged`."""
    hybrid = isinstance(rec, dict) and rec.get("variant") == VARIANT_HYBRID
    keys = ("qid", "merged", "condensed", "rerank") if hybrid else ("qid", "union", "hops")
    _fields(rec, what, keys)
    _need(isinstance(rec["qid"], str), "'qid' is not a string")
    if hybrid:
        merged = _list(rec, "merged", strings=True)
        condensed = trace_view(rec["condensed"], "'condensed' trace")
        trace_view(rec["rerank"], "'rerank' trace")
        return condensed._replace(qid=rec["qid"], union=merged)
    union = _list(rec, "union", strings=True)
    kept, contexts = [], []
    for hop in _list(rec, "hops"):
        _fields(hop, "hop", ("kept_facts",))
        for fact in _list(hop, "kept_facts"):
            _fields(fact, "kept fact", ("pid", "sentence_index"))
            _need(isinstance(fact["pid"], str), "kept fact 'pid' is not a string")
            _need(type(fact["sentence_index"]) is int, "'sentence_index' is not an integer")
            kept.append((fact["pid"], fact["sentence_index"]))
        context = hop.get("context_pid")
        _need(context is None or isinstance(context, str), "'context_pid' is not a string or null")
        if context:
            contexts.append(context)
    _need(type(rec.get("verdict")) in (bool, type(None)), "'verdict' is not true, false or null")
    passages = contexts if rec.get("variant") == VARIANT_RERANK else [pid for pid, _ in kept]
    return TraceView(rec["qid"], rec.get("q0"), union, passages, kept, rec.get("verdict"))


def read_traces(path: str | Path) -> tuple[dict | None, list[dict]]:
    """Returns (meta, records); meta is None when the file has no meta line.

    Each record is returned as parsed once `trace_view` has read it: an object
    with a string `qid`, a `union` list of pid strings and a `hops` list of
    objects with a `kept_facts` list of objects with a string `pid` and an
    integer `sentence_index` (`verdict` and `context_pid`, if not null, are a
    bool and a string), or a hybrid record with `qid`, `merged` and two such
    records. Else ValueError names the file, the line and the field at fault.
    """
    meta = None
    records: list[dict] = []
    for lineno, obj in read_jsonl(path):
        if lineno == 1 and isinstance(obj, dict) and "meta" in obj:
            meta = obj["meta"]
            continue
        try:
            trace_view(obj)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        records.append(obj)
    return meta, records
