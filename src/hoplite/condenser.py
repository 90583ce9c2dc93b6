"""Two-stage fact condenser.

Stage 1 scores every sentence of every retrieved passage against the
query state and pools the strongest few across passages. Stage 2 jointly
rescores the pooled facts and keeps those with positive scores, so the
context grows by sentences rather than whole passages. Both stages
score with the same lexical overlap; stage 2 subtracts a margin tau.

Sentence text is copied verbatim from the corpus - (pid, sentence_index)
provenance must survive serialization exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .corpus import Corpus, Fact, MultiHopQuery, Passage
from .encoder import tokenize

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


class LexicalOverlapScorer:
    """Weighted token overlap with the query state, per sentence token.

    A sentence scores sum(idf(t) for overlapping tokens) / len(sentence
    tokens). With the empty table IdfTable({}, 0) every weight is 1.0 and
    the score is the plain overlapping-token fraction.
    """

    def __init__(self, idf: IdfTable):
        self.idf = idf

    def score(self, query: MultiHopQuery, sentences: Sequence[str]) -> list[float]:
        context = set(tokenize(query.text))
        return [self._overlap(context, s) for s in sentences]

    def _overlap(self, context: set[str], sentence: str) -> float:
        tokens = tokenize(sentence)
        if not tokens:
            return 0.0
        return sum(self.idf(t) for t in tokens if t in context) / len(tokens)


@dataclass(frozen=True)
class CondenserConfig:
    stage1_top_k_facts: int = STAGE1_FACTS_INFERENCE
    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        if not 1 <= self.stage1_top_k_facts <= 16:
            raise ValueError(
                f"stage1_top_k_facts must be in [1, 16], got {self.stage1_top_k_facts}"
            )


def stage1_extract(
    query: MultiHopQuery,
    passages: Sequence[Passage],
    cfg: CondenserConfig,
    scorer: LexicalOverlapScorer,
) -> list[Fact]:
    """Score every sentence of every passage; pool the top few across passages.

    Ties break by (pid ascending, sentence_index ascending).
    """
    located = [(p.pid, i, s) for p in passages for i, s in enumerate(p.sentences)]
    scores = scorer.score(query, [s for _, _, s in located])
    pool = [
        Fact(pid=pid, sentence_index=i, text=s, stage1_score=score)
        for (pid, i, s), score in zip(located, scores)
    ]
    pool.sort(key=lambda f: (-f.stage1_score, f.pid, f.sentence_index))
    return pool[: cfg.stage1_top_k_facts]


def stage2_filter(
    query: MultiHopQuery,
    pooled: Sequence[Fact],
    cfg: CondenserConfig,
    scorer: LexicalOverlapScorer,
) -> list[Fact]:
    """Jointly rescore the pooled facts less tau; keep strictly positive, best first."""
    if not pooled:
        return []
    overlaps = scorer.score(query, [f.text for f in pooled])
    scores = [s - cfg.tau for s in overlaps]
    kept = [
        replace(f, stage2_score=s)
        for f, s in zip(pooled, scores)
        if s > 0.0
    ]
    kept.sort(key=lambda f: (-f.stage2_score, f.pid, f.sentence_index))
    return kept


def condense(
    query: MultiHopQuery,
    passages: Sequence[Passage],
    cfg: CondenserConfig,
    scorer: LexicalOverlapScorer,
) -> list[Fact]:
    """Both stages back to back; may legitimately return an empty list."""
    return stage2_filter(query, stage1_extract(query, passages, cfg, scorer), cfg, scorer)
