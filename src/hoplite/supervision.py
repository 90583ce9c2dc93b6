"""Weak supervision for hop ordering.

Gold passage sets are unordered; training a hop-by-hop retriever needs an
order. Two complementary strategies:

latent_hop_ordering lets the retriever itself decide: per hop, the gold
passages it already ranks highly become that hop's positives, their
oracle facts expand the query, and the remainder stays for later hops.
Queries where no gold surfaces get the single best-ranked remaining gold
promoted and are flagged weak.

heuristic_order uses dataset structure instead: a passage whose text
contains the answer becomes the final hop, and the rest are ordered by
whether their title appears in the growing claim text.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, Fact, MultiHopQuery, QueryRecord
from .encoder import tokenize
from .retriever import Retriever
from .util import derive_seed, normalize_answer_text, write_jsonl

logger = logging.getLogger(__name__)

NEGATIVE_SAMPLING_DEPTH = 1000  # ranked depth mined for negatives, per hop
FACTS_PER_EXPANSION = 5  # oracle facts appended per newly-assigned positive

# Published per-hop positive depths (None probes the whole ranking).
HOVER_POSITIVE_DEPTHS_ROUND1 = (20, None, None, None)

EXPANSION_ORACLE = "oracle"
EXPANSION_SHUFFLED = "shuffled"  # ablation: random sentences instead of facts


@dataclass(frozen=True)
class LhoConfig:
    k_retrieve: int = NEGATIVE_SAMPLING_DEPTH
    k_hat: tuple[int | None, ...] = HOVER_POSITIVE_DEPTHS_ROUND1
    facts_per_expansion: int = FACTS_PER_EXPANSION
    trainer: str = "identity"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k_retrieve < 1:
            raise ValueError("k_retrieve must be positive")
        if not self.k_hat:
            raise ValueError("k_hat must name at least one hop")
        for depth in self.k_hat:
            if depth is None:
                continue
            if depth < 1:
                raise ValueError(f"positive depth must be positive, got {depth}")
            if depth > self.k_retrieve:
                raise ValueError(
                    f"positive depth {depth} exceeds k_retrieve {self.k_retrieve}"
                )
        if self.facts_per_expansion < 1:
            raise ValueError("facts_per_expansion must be positive")

    @property
    def hops(self) -> int:
        return len(self.k_hat)


@dataclass(frozen=True)
class HopSupervision:
    """One hop's outcome for one query."""

    t: int
    positives: tuple[str, ...]  # sorted
    negatives: tuple[str, ...]  # rank order, no gold pids
    fallback: bool  # positives came from promotion, not discovery
    query_text: str  # the query text this hop retrieved with


@dataclass(frozen=True)
class SupervisionSet:
    records: dict[str, tuple[HopSupervision, ...]]

    def assigned_hop(self, qid: str) -> dict[str, tuple[int, bool]]:
        """pid -> (hop, via_fallback) over all hops of one query."""
        out: dict[str, tuple[int, bool]] = {}
        for hop in self.records.get(qid, ()):
            for pid in hop.positives:
                out[pid] = (hop.t, hop.fallback)
        return out


@dataclass(frozen=True)
class LhoResult:
    sets: SupervisionSet
    weak_qids: frozenset[str]
    warnings: tuple[str, ...]
    retriever: Retriever


@dataclass(frozen=True)
class TrainingBatch:
    """Weakly labeled state after one hop: expanded queries, leftover golds
    as positives, rank-mined negatives."""

    queries: dict[str, MultiHopQuery]
    positives: dict[str, frozenset[str]]
    negatives: dict[str, tuple[str, ...]]


class IdentityTrainer:
    """No-op trainer: the reference retriever is training-free, so hop
    ordering runs end to end without fitting anything."""

    def train(self, retriever: Retriever, batch: TrainingBatch) -> Retriever:
        return retriever


class TermWeightTrainer:
    """Multiplicative query-term reweighting from weak labels.

    Tokens that appear in leftover gold passages more often than in mined
    negatives get their query-side rows scaled up, and vice versa. Crude,
    but it nudges the next hop's ranking toward undiscovered golds while
    staying deterministic.
    """

    def __init__(self, eta: float = 0.75, max_ratio: float = 4.0, negatives_used: int = 8):
        self.eta = eta
        self.max_ratio = max_ratio
        self.negatives_used = negatives_used

    def train(self, retriever: Retriever, batch: TrainingBatch) -> Retriever:
        delta: dict[str, float] = {}
        count: dict[str, int] = {}
        for qid in sorted(batch.queries):
            state = batch.queries[qid]
            pos = batch.positives.get(qid) or frozenset()
            neg = (batch.negatives.get(qid) or ())[: self.negatives_used]
            if not pos or not neg:
                continue
            pos_sets = [set(tokenize(retriever.corpus.get(p).text)) for p in sorted(pos)]
            neg_sets = [set(tokenize(retriever.corpus.get(p).text)) for p in neg]
            state_tokens = set(tokenize(state.q0_text))
            for fact in state.facts:
                state_tokens.update(tokenize(fact.text))
            for token in sorted(state_tokens):
                p_hit = sum(token in s for s in pos_sets) / len(pos_sets)
                n_hit = sum(token in s for s in neg_sets) / len(neg_sets)
                delta[token] = delta.get(token, 0.0) + (p_hit - n_hit)
                count[token] = count.get(token, 0) + 1
        if not delta:
            return retriever
        lo, hi = 1.0 / self.max_ratio, self.max_ratio
        weights = {
            t: float(min(hi, max(lo, math.exp(self.eta * delta[t] / count[t]))))
            for t in delta
        }
        return retriever.with_query_weights(weights)


TRAINERS = {"identity": IdentityTrainer, "term_weight": TermWeightTrainer}


@dataclass(frozen=True)
class DiscoveryOutcome:
    positives: tuple[str, ...]
    negatives: tuple[str, ...]
    fallback: bool


def discover_positives(
    retriever: Retriever,
    states: dict[str, MultiHopQuery],
    queries: dict[str, QueryRecord],
    remaining: dict[str, set[str]],
    k_hat: int | None,
    cfg: LhoConfig,
) -> dict[str, DiscoveryOutcome]:
    """One hop of positive/negative mining for every active query.

    Positives are the remaining gold pids intersected with the retriever's
    top-k_hat; negatives are all non-gold pids in the ranking, in rank
    order. An empty intersection promotes the single best-ranked remaining
    gold (fallback), so every query keeps making progress.
    """
    out: dict[str, DiscoveryOutcome] = {}
    for qid in sorted(states):
        left = remaining[qid]
        if not left:
            out[qid] = DiscoveryOutcome((), (), False)
            continue
        ranked = retriever.retrieve(states[qid], k=cfg.k_retrieve)
        ranked_pids = [sp.pid for sp in ranked]
        gold = queries[qid].gold_pids
        head = ranked_pids if k_hat is None else ranked_pids[:k_hat]
        positives = sorted(p for p in head if p in left)
        fallback = False
        if not positives:
            fallback = True
            rank_of = {pid: i for i, pid in enumerate(ranked_pids)}
            positives = [min(left, key=lambda p: (rank_of.get(p, len(ranked_pids)), p))]
        negatives = tuple(p for p in ranked_pids if p not in gold)
        out[qid] = DiscoveryOutcome(tuple(positives), negatives, fallback)
    return out


def oracle_facts(
    query: QueryRecord, corpus: Corpus, pid: str, cap: int
) -> list[Fact]:
    """Up to cap facts for one gold passage: labeled gold sentences if any,
    otherwise all sentences, in sentence order."""
    passage = corpus.get(pid)
    labeled = sorted(i for p, i in query.gold_facts if p == pid)
    indices = labeled if labeled else list(range(len(passage.sentences)))
    return [
        Fact(pid=pid, sentence_index=i, text=passage.sentences[i])
        for i in indices[:cap]
    ]


def _shuffled_facts(corpus: Corpus, rng: np.random.Generator, n: int) -> list[Fact]:
    pids = corpus.pids
    facts = []
    for _ in range(n):
        pid = pids[int(rng.integers(len(pids)))]
        passage = corpus.get(pid)
        idx = int(rng.integers(len(passage.sentences)))
        facts.append(Fact(pid=pid, sentence_index=idx, text=passage.sentences[idx]))
    return facts


def latent_hop_ordering(
    retriever: Retriever,
    queries: Sequence[QueryRecord],
    cfg: LhoConfig | None = None,
    expansion: str = EXPANSION_ORACLE,
) -> LhoResult:
    """Assign each query's gold passages to hops, mining negatives as we go.

    Runs cfg.hops rounds of discover -> expand -> train. The returned
    retriever is whatever the trainer produced last (unchanged for the
    identity trainer); records hold per-hop positives, negatives, the
    query text used, and fallback flags.
    """
    cfg = cfg or LhoConfig()
    if expansion not in (EXPANSION_ORACLE, EXPANSION_SHUFFLED):
        raise ValueError(f"unknown expansion mode {expansion!r}")
    corpus = retriever.corpus
    by_qid = {q.qid: q for q in queries}
    states = {q.qid: MultiHopQuery(qid=q.qid, q0_text=q.text) for q in queries}
    remaining = {q.qid: set(q.gold_pids) for q in queries}
    records: dict[str, list[HopSupervision]] = {q.qid: [] for q in queries}
    weak: set[str] = set()
    warnings: list[str] = []

    oversize = [q.qid for q in queries if len(q.gold_pids) > cfg.hops]
    if oversize:
        msg = (
            f"{len(oversize)} queries have more gold passages than {cfg.hops} hops; "
            "some golds will never be assigned"
        )
        warnings.append(msg)
        logger.warning(msg)

    trainer = TRAINERS.get(cfg.trainer)
    if trainer is None:
        raise ValueError(f"unknown trainer {cfg.trainer!r}; known: {sorted(TRAINERS)}")
    trainer = trainer()

    current = retriever
    for t, k_hat in enumerate(cfg.k_hat, start=1):
        outcomes = discover_positives(current, states, by_qid, remaining, k_hat, cfg)
        for qid in sorted(states):
            outcome = outcomes[qid]
            state = states[qid]
            records[qid].append(
                HopSupervision(
                    t=t,
                    positives=outcome.positives,
                    negatives=outcome.negatives,
                    fallback=outcome.fallback,
                    query_text=" ".join([state.q0_text] + [f.text for f in state.facts]),
                )
            )
            if outcome.fallback:
                weak.add(qid)
            if not outcome.positives:
                states[qid] = state.extended(())
                continue
            if expansion == EXPANSION_ORACLE:
                new_facts: list[Fact] = []
                for pid in outcome.positives:
                    new_facts.extend(
                        oracle_facts(by_qid[qid], corpus, pid, cfg.facts_per_expansion)
                    )
            else:
                rng = np.random.default_rng(
                    derive_seed(cfg.seed, f"shuffled:{qid}:{t}")
                )
                n = len(outcome.positives) * cfg.facts_per_expansion
                new_facts = _shuffled_facts(corpus, rng, n)
            states[qid] = state.extended(new_facts)
            remaining[qid] -= set(outcome.positives)
        batch = TrainingBatch(
            queries=dict(states),
            positives={qid: frozenset(remaining[qid]) for qid in remaining},
            negatives={qid: outcomes[qid].negatives for qid in outcomes},
        )
        current = trainer.train(current, batch)

    return LhoResult(
        sets=SupervisionSet({qid: tuple(rec) for qid, rec in records.items()}),
        weak_qids=frozenset(weak),
        warnings=tuple(warnings),
        retriever=current,
    )


# ---------------------------------------------------------------------------
# Heuristic ordering from titles and answer position.


def _title_score(title: str, claim_text: str) -> float:
    """1.0 when the whole title appears in the claim, else the matched
    fraction of its tokens."""
    t_norm = normalize_answer_text(title)
    if t_norm and t_norm in normalize_answer_text(claim_text):
        return 1.0
    t_tokens = tokenize(title)
    if not t_tokens:
        return 0.0
    c_tokens = set(tokenize(claim_text))
    return sum(t in c_tokens for t in t_tokens) / len(t_tokens)


def _order_by_titles(
    claim: str, remaining: list[str], corpus: Corpus
) -> tuple[float, list[tuple[str, ...]]]:
    if not remaining:
        return 0.0, []
    scores = {pid: _title_score(corpus.get(pid).title, claim) for pid in remaining}
    best = max(scores.values())
    if best > 0.0:
        group = tuple(sorted(p for p in remaining if scores[p] == best))
        grown = " ".join([claim] + [corpus.get(p).text for p in group])
        rest_score, rest = _order_by_titles(
            grown, [p for p in remaining if p not in group], corpus
        )
        return best * len(group) + rest_score, [group] + rest
    # No title matches at all: branch on every choice for this hop and keep
    # the one whose downstream hops recover the most overlap.
    best_total, best_order = -1.0, []
    for pid in remaining:  # sorted order; first wins ties
        grown = " ".join([claim, corpus.get(pid).text])
        total, rest = _order_by_titles(grown, [p for p in remaining if p != pid], corpus)
        if total > best_total:
            best_total, best_order = total, [(pid,)] + rest
    return best_total, best_order


def heuristic_order(query: QueryRecord, corpus: Corpus) -> list[tuple[str, ...]]:
    """Order gold passages into hop groups without running a retriever.

    If exactly one gold passage contains the answer string, it is pinned
    as the final hop. The rest are grouped greedily by title overlap with
    the growing claim; ties hop together. When nothing overlaps, every
    branch is tried and the one with the best downstream overlap wins.
    """
    golds = sorted(query.gold_pids)
    final_pid: str | None = None
    if query.answer:
        ans = normalize_answer_text(query.answer)
        if ans:
            containing = [
                p for p in golds if ans in normalize_answer_text(corpus.get(p).text)
            ]
            if len(containing) == 1:
                final_pid = containing[0]
    remaining = [p for p in golds if p != final_pid]
    _, order = _order_by_titles(query.text, remaining, corpus)
    if final_pid is not None:
        order.append((final_pid,))
    return order


# ---------------------------------------------------------------------------
# Triples and reporting.


@dataclass(frozen=True)
class TrainingTriple:
    qid: str
    hop: int
    query_text: str
    positive: str
    negative: str


def build_triples(
    sets: SupervisionSet, cap_per_hop: int = 32, seed: int = 0
) -> list[TrainingTriple]:
    """Capped cartesian positives x sampled negatives, per query per hop.

    Negative sampling is seed-deterministic; sampled negatives keep their
    rank order. The cap bounds triples per (query, hop).
    """
    if cap_per_hop < 1:
        raise ValueError("cap_per_hop must be positive")
    triples: list[TrainingTriple] = []
    for qid in sorted(sets.records):
        for hop in sets.records[qid]:
            pos = sorted(hop.positives)
            neg = list(hop.negatives)
            if not pos or not neg:
                continue
            rng = np.random.default_rng(derive_seed(seed, f"triples:{qid}:{hop.t}"))
            need = min(len(neg), math.ceil(cap_per_hop / len(pos)))
            picked = sorted(rng.choice(len(neg), size=need, replace=False).tolist())
            sampled = [neg[i] for i in picked]
            emitted = 0
            for p in pos:
                for n in sampled:
                    if emitted >= cap_per_hop:
                        break
                    triples.append(
                        TrainingTriple(
                            qid=qid,
                            hop=hop.t,
                            query_text=hop.query_text,
                            positive=p,
                            negative=n,
                        )
                    )
                    emitted += 1
    return triples


@dataclass(frozen=True)
class OrderRecovery:
    passage_fraction: float
    strict_query_fraction: float
    n_passages: int
    n_queries: int


def order_recovery(
    sets: SupervisionSet, truth: dict[str, list[set[str]]]
) -> OrderRecovery:
    """Fraction of gold passages assigned to their planted hop.

    Fallback promotions do not count as recovered: with one gold left the
    promotion is always 'right', so counting it would credit hops the
    retriever never actually discovered.
    """
    total = 0
    hit = 0
    strict_hits = 0
    for qid, hops in truth.items():
        assigned = sets.assigned_hop(qid)
        query_ok = True
        for t, group in enumerate(hops, start=1):
            for pid in group:
                total += 1
                got = assigned.get(pid)
                if got is not None and got[0] == t and not got[1]:
                    hit += 1
                else:
                    query_ok = False
        strict_hits += 1 if query_ok else 0
    n_queries = len(truth)
    return OrderRecovery(
        passage_fraction=hit / total if total else 0.0,
        strict_query_fraction=strict_hits / n_queries if n_queries else 0.0,
        n_passages=total,
        n_queries=n_queries,
    )


def supervision_records(result: LhoResult) -> list[dict]:
    out = []
    for qid in sorted(result.sets.records):
        out.append(
            {
                "qid": qid,
                "weak": qid in result.weak_qids,
                "hops": [
                    {
                        "t": hop.t,
                        "positives": list(hop.positives),
                        "negatives": list(hop.negatives),
                        "fallback": hop.fallback,
                        "query_text": hop.query_text,
                    }
                    for hop in result.sets.records[qid]
                ],
            }
        )
    return out


def triple_records(triples: Sequence[TrainingTriple]) -> list[dict]:
    return [
        {
            "qid": t.qid,
            "hop": t.hop,
            "query": t.query_text,
            "positive": t.positive,
            "negative": t.negative,
        }
        for t in triples
    ]


def write_supervision(path: str | Path, result: LhoResult) -> None:
    write_jsonl(path, supervision_records(result))


def write_triples(path: str | Path, triples: Sequence[TrainingTriple]) -> None:
    write_jsonl(path, triple_records(triples))
