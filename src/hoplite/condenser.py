"""Two-stage fact condenser.

Stage 1 scores every sentence of every retrieved passage against the
query state by idf-weighted lexical overlap and pools the strongest few
across passages. Stage 2 thresholds each pooled fact's stage-1 score at
tau and keeps those above it, so the context grows by sentences rather
than whole passages.

Sentence text is copied verbatim from the corpus - (pid, sentence_index)
provenance must survive serialization exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import Corpus, Fact, MultiHopQuery, Passage
from .util import tokenize

STAGE1_FACTS_INFERENCE = 9
DEFAULT_TAU = 0.1


class IdfTable:
    """Smoothed inverse document frequency over passage token sets.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, so a token present in every
    passage still weighs 1.0 and unseen tokens weigh the most.
    """

    def __init__(self, df: Mapping[str, int], n_passages: int):
        self._df = dict(df)
        self.n_passages = n_passages

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "IdfTable":
        df: dict[str, int] = {}
        for passage in corpus:
            for token in set(tokenize(passage.text)):
                df[token] = df.get(token, 0) + 1
        return cls(df, len(corpus))

    def __call__(self, token: str) -> float:
        df = self._df.get(token, 0)
        return math.log((1 + self.n_passages) / (1 + df)) + 1.0

    def overlap(self, query: MultiHopQuery, sentences: Sequence[str]) -> list[float]:
        """Weighted token overlap of each sentence with the query state.

        A sentence scores sum(idf(t) for overlapping tokens) / len(sentence
        tokens). With the empty table IdfTable({}, 0) every weight is 1.0 and
        the score is the plain overlapping-token fraction.
        """
        context = set(tokenize(query.text))
        scores = []
        for tokens in map(tokenize, sentences):
            hits = sum(self(t) for t in tokens if t in context)
            scores.append(hits / len(tokens) if tokens else 0.0)
        return scores


@dataclass(frozen=True)
class CondenserConfig:
    stage1_top_k_facts: int = STAGE1_FACTS_INFERENCE
    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        if not 1 <= self.stage1_top_k_facts <= 16:
            raise ValueError(
                f"stage1_top_k_facts must be in [1, 16], got {self.stage1_top_k_facts}"
            )
        if not math.isfinite(self.tau):  # a NaN tau keeps nothing, and is no JSON
            raise ValueError(f"tau must be a finite number, got {self.tau}")


def stage1_extract(
    query: MultiHopQuery,
    passages: Sequence[Passage],
    cfg: CondenserConfig,
    idf: IdfTable,
) -> list[Fact]:
    """Score every sentence of every passage; pool the top few across passages.

    Ties break by (pid ascending, sentence_index ascending).
    """
    located = [(p.pid, i, s) for p in passages for i, s in enumerate(p.sentences)]
    scores = idf.overlap(query, [s for _, _, s in located])
    pool = [
        Fact(pid=pid, sentence_index=i, text=s, stage1_score=score)
        for (pid, i, s), score in zip(located, scores)
    ]
    pool.sort(key=lambda f: (-f.stage1_score, f.pid, f.sentence_index))
    return pool[: cfg.stage1_top_k_facts]


def stage2_filter(pooled: Sequence[Fact], cfg: CondenserConfig) -> list[Fact]:
    """Keep the pooled facts whose stage-1 score exceeds tau, best first by their
    margin stage1_score - tau; two scores that round to one margin tie by pid."""
    kept = [f for f in pooled if f.stage1_score > cfg.tau]
    kept.sort(key=lambda f: (-(f.stage1_score - cfg.tau), f.pid, f.sentence_index))
    return kept


def condense(
    query: MultiHopQuery,
    passages: Sequence[Passage],
    cfg: CondenserConfig,
    idf: IdfTable,
) -> list[Fact]:
    """Both stages back to back; may legitimately return an empty list."""
    return stage2_filter(stage1_extract(query, passages, cfg, idf), cfg)
