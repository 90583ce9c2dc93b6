"""Single-hop retrieval: exact on a flat index, candidates then exact scoring on IVF.

The pool is every non-empty passage of a flat index, or the IVF candidates,
less the excluded pids. `index.rank_pool` ranks it in two passes: a float32
screen of every passage straight from the index storage, then float64
rescoring of the pool passages the screen's error bound cannot rule out of
the top k. Rankings are the float64 rankings of the whole pool; for the same
query, pool, index and BLAS thread count, scores are the same bits every call.
When k is at least half the pool, the screen could not prune, and the pool
is scored in float64 in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Corpus, MultiHopQuery
from .encoder import EncodedQuery, LexicalEncoder
from .index import INFERENCE_RESULTS_PER_VECTOR, TokenIndex, candidates_for, rank_pool
from .scoring import FocusParams, ScoredPassage

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
    from `candidates_for`, each whole. Excluded pids are dropped first and
    `rank_pool` ranks the rest. A pool pid missing from the corpus raises
    KeyError, wherever it would rank. A query with no rows retrieves
    nothing; one whose dim differs from the index's raises ValueError.
    """
    cfg = cfg or RetrievalConfig()
    if eq.dim != index.dim:
        raise ValueError(
            f"query dim {eq.dim} does not match index dim {index.dim}; "
            "set encoder.dim to the dim the index was built with"
        )
    if eq.query_part.shape[0] + eq.fact_part.shape[0] == 0:
        return []
    if index.ivf is None:
        pool = np.flatnonzero(index.row_counts())
    else:
        pool = candidates_for(eq, index, cfg.results_per_vector)
    if exclude:
        pool = pool[~np.isin(pool, index.positions_of(exclude))]
    for i in pool.tolist():
        if index.pids[i] not in corpus:
            raise KeyError(f"index candidate {index.pids[i]!r} is not in the corpus")
    return rank_pool(eq, index, pool, cfg.k, cfg.focus)


class Retriever:
    """Encoder + index + corpus bundled behind one retrieve call.

    Immutable in practice: reweighting returns a new Retriever sharing the
    same index and corpus, so trained variants coexist with the original.
    """

    def __init__(
        self,
        corpus: Corpus,
        index: TokenIndex,
        encoder: LexicalEncoder,
        cfg: RetrievalConfig | None = None,
    ):
        self.corpus = corpus
        self.index = index
        self.encoder = encoder
        self.cfg = cfg or RetrievalConfig()

    def retrieve(self, query: MultiHopQuery, k: int | None = None) -> list[ScoredPassage]:
        cfg = self.cfg if k is None else replace(self.cfg, k=k)
        eq = self.encoder.encode_query(query)
        return retrieve(eq, self.index, self.corpus, cfg)

    def with_query_weights(self, weights: dict[str, float]) -> "Retriever":
        """New retriever whose query-side token rows are scaled by weight."""
        return Retriever(self.corpus, self.index, self.encoder.reweighted(weights), self.cfg)
