"""Single-hop retrieval: exact on a flat index, candidates then full scoring on IVF."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Corpus, MultiHopQuery
from .encoder import EncodedQuery, Encoder, TokenWeightedEncoder
from .index import INFERENCE_RESULTS_PER_VECTOR, TokenIndex, candidates_for
from .scoring import FocusParams, ScoredPassage, rank_scored, score_segments

# perfbench/spans.py patches `candidates_for` and `flipr_score` on this module
# by name, so both stay imported here although `retrieve` calls only the first.
from .scoring import flipr_score  # noqa: F401


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = 25
    results_per_vector: int = INFERENCE_RESULTS_PER_VECTOR  # IVF candidate depth
    focus: FocusParams = field(default_factory=FocusParams)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.results_per_vector < 1:
            raise ValueError("results_per_vector must be positive")


def retrieve(
    eq: EncodedQuery,
    index: TokenIndex,
    corpus: Corpus,
    cfg: RetrievalConfig | None = None,
    exclude: frozenset[str] | set[str] = frozenset(),
) -> list[ScoredPassage]:
    """Top-k passages for an encoded query, ties broken by ascending pid.

    A flat index scores every passage; an IVF index scores the candidates
    from `candidates_for`, each whole. Excluded pids are dropped first, and
    one `score_segments` call scores the rest. A query with no rows
    retrieves nothing.
    """
    cfg = cfg or RetrievalConfig()
    if eq.query_part.shape[0] + eq.fact_part.shape[0] == 0:
        return []
    if index.ivf is None:
        pool = np.flatnonzero(index.row_counts())
    else:
        pool = candidates_for(eq, index, cfg.results_per_vector).positions
    if exclude:
        pool = pool[~np.isin(pool, index.positions_of(exclude))]
    pids = [index.pids[i] for i in pool.tolist()]
    for pid in pids:
        if pid not in corpus:
            raise KeyError(f"index candidate {pid!r} is not in the corpus")
    rows, starts = index.stacked_rows(pool)
    s_query, s_fact = score_segments(eq, rows, starts, cfg.focus)
    return rank_scored(pids, s_query, s_fact, cfg.k)


class Retriever:
    """Encoder + index + corpus bundled behind one retrieve call.

    Immutable in practice: reweighting returns a new Retriever sharing the
    same index and corpus, so trained variants coexist with the original.
    """

    def __init__(
        self,
        corpus: Corpus,
        index: TokenIndex,
        encoder: Encoder,
        cfg: RetrievalConfig | None = None,
    ):
        self.corpus = corpus
        self.index = index
        self.encoder = encoder
        self.cfg = cfg or RetrievalConfig()

    def retrieve(
        self,
        query: MultiHopQuery,
        k: int | None = None,
        exclude: frozenset[str] | set[str] = frozenset(),
    ) -> list[ScoredPassage]:
        cfg = self.cfg if k is None else replace(self.cfg, k=k)
        eq = self.encoder.encode_query(query)
        return retrieve(eq, self.index, self.corpus, cfg, exclude)

    def with_query_weights(self, weights: dict[str, float]) -> "Retriever":
        """New retriever whose query-side token rows are scaled by weight."""
        base = self.encoder
        merged = dict(weights)
        if isinstance(base, TokenWeightedEncoder):
            merged = dict(base.weights)
            for token, w in weights.items():
                merged[token] = merged.get(token, 1.0) * w
            base = base.base
        wrapped = TokenWeightedEncoder(base, merged)
        return Retriever(self.corpus, self.index, wrapped, self.cfg)
