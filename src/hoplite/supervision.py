"""Weak supervision for hop ordering.

Gold passage sets are unordered; training a hop-by-hop retriever needs an
order. Two complementary strategies:

latent_hop_ordering lets the retriever itself decide: per hop, the gold
passages it already ranks highly become that hop's positives, their
oracle facts expand the query, and the remainder stays for later hops.
Queries where no gold surfaces get the single best-ranked remaining gold
promoted and are flagged weak. Each query is one `Lane`: its record, its
current state and the hops mined so far; its remaining golds are read off
those hops. A hop works through the lanes one window of LOCKSTEP_QUERIES at
a time: a window is ranked, mined, recorded and expanded before the next
one is ranked. After each hop, the trainer named in TRAINERS maps the
retriever and the lanes to the retriever the next hop ranks with.

heuristic_order uses dataset structure instead: a passage whose text
contains the answer becomes the final hop, and the rest are ordered by
whether their title appears in the growing claim text.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import count, islice, product, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, Fact, MultiHopQuery, QueryRecord
from .index import RowCache
from .pipeline import LOCKSTEP_QUERIES, retrieve_hop
from .retriever import Retriever
from .scoring import Ranking
from .util import derive_seed, normalize_answer_text, tokenize, write_jsonl

logger = logging.getLogger(__name__)

NEGATIVE_SAMPLING_DEPTH = 1000  # ranked depth mined for negatives, per hop
FACTS_PER_EXPANSION = 5  # oracle facts appended per newly-assigned positive
EXHAUSTIVE_ORDER_LIMIT = 4  # unmatched golds searched over every order (HoVer's most)

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
            if type(depth) is not int or depth < 1:
                raise ValueError(f"k_hat depths must be positive integers or null, got {depth!r}")
            if depth > self.k_retrieve:
                raise ValueError(f"k_hat depth {depth} exceeds k_retrieve {self.k_retrieve}")
        if self.facts_per_expansion < 1:
            raise ValueError("facts_per_expansion must be positive")
        if self.trainer not in TRAINERS:
            raise ValueError(f"unknown trainer {self.trainer!r}; known: {sorted(TRAINERS)}")

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

    @property
    def weak_qids(self) -> frozenset[str]:
        """Queries with at least one hop whose positive came from a fallback."""
        return frozenset(qid for qid, hops in self.records.items() if any(h.fallback for h in hops))


@dataclass
class Lane:
    """One query's latent hop ordering: its record, its query state after the
    hops mined so far, and those hops."""

    query: QueryRecord
    state: MultiHopQuery
    hops: list[HopSupervision] = field(default_factory=list)

    @property
    def remaining(self) -> set[str]:
        """The gold pids no hop has made a positive yet."""
        return set(self.query.gold_pids).difference(*(hop.positives for hop in self.hops))


def identity(retriever: Retriever, lanes: Sequence[Lane]) -> Retriever:
    """No-op trainer: the reference retriever is training-free, so hop
    ordering runs end to end without fitting anything."""
    return retriever


TERM_WEIGHT_ETA = 0.75  # step size of term_weight's log-weight update
TERM_WEIGHT_MAX_RATIO = 4.0  # term weights are clipped to [1/MAX_RATIO, MAX_RATIO]
TERM_WEIGHT_NEGATIVES = 8  # top mined negatives of the last hop compared per query


def term_weight(retriever: Retriever, lanes: Sequence[Lane]) -> Retriever:
    """Multiplicative query-term reweighting from weak labels.

    Tokens of each lane's state that appear in its remaining golds more often
    than in its last hop's top mined negatives get their query-side rows
    scaled up, and vice versa. Crude, but it nudges the next hop's ranking
    toward undiscovered golds while staying deterministic for lanes in qid order.
    """
    delta: dict[str, float] = {}
    seen: dict[str, int] = {}
    for lane in lanes:
        pos = lane.remaining
        neg = lane.hops[-1].negatives[:TERM_WEIGHT_NEGATIVES]
        if not pos or not neg:
            continue
        pos_sets = [set(tokenize(retriever.corpus.get(p).text)) for p in sorted(pos)]
        neg_sets = [set(tokenize(retriever.corpus.get(p).text)) for p in neg]
        for token in sorted(set(tokenize(lane.state.text))):
            p_hit = sum(token in s for s in pos_sets) / len(pos_sets)
            n_hit = sum(token in s for s in neg_sets) / len(neg_sets)
            delta[token] = delta.get(token, 0.0) + (p_hit - n_hit)
            seen[token] = seen.get(token, 0) + 1
    if not delta:
        return retriever
    lo, hi = 1.0 / TERM_WEIGHT_MAX_RATIO, TERM_WEIGHT_MAX_RATIO
    weights = {t: float(min(hi, max(lo, math.exp(TERM_WEIGHT_ETA * delta[t] / seen[t]))))
               for t in delta}
    return retriever.with_query_weights(weights)


TRAINERS = {"identity": identity, "term_weight": term_weight}


def discover_positives(window: Sequence[Lane], rankings: Iterable[Ranking], t: int,
                       k_hat: int | None) -> dict[str, HopSupervision]:
    """Hop t of positive/negative mining for every lane of `window`, from
    `rankings`: one for each lane with gold left, in window order.

    Positives are the remaining gold pids intersected with the ranking's
    top-k_hat; negatives are all non-gold pids in the ranking, in rank
    order. An empty intersection promotes the single best-ranked remaining
    gold (fallback), so every query keeps making progress. A lane without
    gold left gets an empty hop.
    """
    ranked = iter(rankings)
    out: dict[str, HopSupervision] = {}
    for lane in window:
        left = lane.remaining
        if not left:
            out[lane.query.qid] = HopSupervision(t, (), (), False, lane.state.text)
            continue
        ranked_pids = next(ranked).pids
        positives = sorted(p for p in ranked_pids[:k_hat] if p in left)
        fallback = not positives
        if fallback:  # the best-ranked remaining gold, else the least pid
            positives = [next((p for p in ranked_pids if p in left), min(left))]
        negatives = tuple(p for p in ranked_pids if p not in lane.query.gold_pids)
        out[lane.query.qid] = HopSupervision(t, tuple(positives), negatives, fallback,
                                             lane.state.text)
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


def _expand(query: QueryRecord, hop: HopSupervision, corpus: Corpus, cfg: LhoConfig,
            expansion: str) -> list[Fact]:
    """The facts `hop`'s positives append to `query`'s state: each positive's
    oracle facts, or (shuffled) as many random corpus sentences per positive,
    drawn from the query's own stream for hop t. A hop without positives adds none."""
    if not hop.positives:
        return []
    if expansion == EXPANSION_ORACLE:
        return [fact for pid in hop.positives
                for fact in oracle_facts(query, corpus, pid, cfg.facts_per_expansion)]
    rng = np.random.default_rng(derive_seed(cfg.seed, f"shuffled:{query.qid}:{hop.t}"))
    pids = corpus.pids
    facts = []
    for _ in range(len(hop.positives) * cfg.facts_per_expansion):
        passage = corpus.get(pids[int(rng.integers(len(pids)))])
        idx = int(rng.integers(len(passage.sentences)))
        facts.append(Fact(pid=passage.pid, sentence_index=idx, text=passage.sentences[idx]))
    return facts


def latent_hop_ordering(
    retriever: Retriever,
    queries: Sequence[QueryRecord],
    cfg: LhoConfig | None = None,
    expansion: str = EXPANSION_ORACLE,
) -> SupervisionSet:
    """Assign each query's gold passages to hops, mining negatives as we go.

    Each query gets one `Lane`, in qid order; a qid given twice raises
    ValueError. Runs cfg.hops rounds of retrieve -> discover -> expand ->
    train; each hop after the first retrieves with the retriever the trainer
    produced from the lanes after the hop before (unchanged for the identity
    trainer). A hop takes its lanes LOCKSTEP_QUERIES at a time. A window ranks
    the states of those with gold left through `pipeline.retrieve_hop` and the
    call's one `RowCache`, reset per window, mines them in one `discover_positives` call, and
    at once appends each lane's hop and extends its state with the hop's
    facts. Records hold per-hop positives, negatives, the query text used,
    and fallback flags.
    """
    cfg = cfg or LhoConfig()
    if expansion not in (EXPANSION_ORACLE, EXPANSION_SHUFFLED):
        raise ValueError(f"unknown expansion mode {expansion!r}")
    corpus = retriever.corpus
    lanes = sorted((Lane(q, MultiHopQuery(q.qid, q.text)) for q in queries),
                   key=lambda lane: lane.query.qid)
    for a, b in zip(lanes, lanes[1:]):
        if a.query.qid == b.query.qid:
            raise ValueError(f"qid {a.query.qid!r} appears twice in the queries")

    oversize = [q.qid for q in queries if len(q.gold_pids) > cfg.hops]
    if oversize:
        logger.warning(
            "%d queries have more gold passages than %d hops; some golds will never be assigned",
            len(oversize), cfg.hops,
        )

    trainer = TRAINERS[cfg.trainer]
    current = retriever
    cache = RowCache(retriever.index)
    for t, k_hat in enumerate(cfg.k_hat, start=1):
        for at in range(0, len(lanes), LOCKSTEP_QUERIES):
            window = lanes[at : at + LOCKSTEP_QUERIES]
            cache.reset()
            ranked = retrieve_hop(current, cfg.k_retrieve,
                                  [lane.state for lane in window if lane.remaining],
                                  repeat(frozenset()), cache)
            mined = discover_positives(window, ranked, t, k_hat)
            for lane in window:
                hop = mined[lane.query.qid]
                lane.hops.append(hop)
                lane.state = lane.state.extended(_expand(lane.query, hop, corpus, cfg, expansion))
        current = trainer(current, lanes)

    return SupervisionSet({lane.query.qid: tuple(lane.hops) for lane in lanes})


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
    # the one whose downstream hops recover the most overlap. The search is
    # factorial, so past the limit the first pid, which wins ties, goes next.
    choices = remaining if len(remaining) <= EXHAUSTIVE_ORDER_LIMIT else remaining[:1]
    best_total, best_order = -1.0, []
    for pid in choices:  # sorted order; first wins ties
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
    branch is tried and the one with the best downstream overlap wins, as
    long as at most EXHAUSTIVE_ORDER_LIMIT golds remain; beyond that the
    first remaining pid in sorted order takes the hop.
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
    query: str  # the query text of the hop
    positive: str
    negative: str


def build_triples(
    sets: SupervisionSet, cap_per_hop: int = 32, seed: int = 0
) -> Iterator[TrainingTriple]:
    """Capped cartesian positives x sampled negatives, per query per hop, yielded
    as drawn; a cap below 1 raises ValueError at the call.

    Negative sampling is seed-deterministic; sampled negatives keep their
    rank order. The cap bounds triples per (query, hop).
    """
    if cap_per_hop < 1:
        raise ValueError("cap_per_hop must be positive")
    return _triples(sets, cap_per_hop, seed)


def _triples(sets: SupervisionSet, cap_per_hop: int, seed: int) -> Iterator[TrainingTriple]:
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
            yield from (TrainingTriple(qid, hop.t, hop.query_text, p, n)
                        for p, n in islice(product(pos, sampled), cap_per_hop))


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


def supervision_records(sets: SupervisionSet) -> Iterator[dict]:
    weak = sets.weak_qids
    for qid in sorted(sets.records):
        yield {"qid": qid, "weak": qid in weak, "hops": [vars(hop) for hop in sets.records[qid]]}


def triple_records(triples: Iterable[TrainingTriple]) -> Iterator[dict]:
    return map(vars, triples)


def write_supervision(path: str | Path, sets: SupervisionSet) -> None:
    write_jsonl(path, supervision_records(sets))


def write_triples(path: str | Path, triples: Iterable[TrainingTriple]) -> int:
    """Writes `triples` as they stream and returns how many it wrote."""
    drawn = count()  # zip draws from it once per triple, and not after the last
    write_jsonl(path, triple_records(t for t, _ in zip(triples, drawn)))
    return next(drawn)
