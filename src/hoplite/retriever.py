"""Single-hop retrieval: exact on a flat index, candidates then exact scoring on IVF.

The pool is every non-empty passage of a flat index, or the IVF candidates,
less the excluded pids. `index.rank_pool` ranks it: a float32 screen of every
passage straight from the index storage, then float64 rescoring of the pool
passages the screen's error bound cannot rule out of the top k (all of them
when k is at least half the pool). A passage's scores are the bits
`flipr_score` gives it alone, so rankings are the float64 rankings of the
whole pool. The corpus is checked once, when a `Retriever` or
`pipeline.PipelineRunner` is built, not per call.

A source row's IVF candidates and its screened maxima depend on that row
alone, so an `index.RowCache` keeps them, keyed by the row's float64 bits,
for the calls it serves (the pipeline passes one per lockstep window, shared
by every hop of both hybrid arms of its queries, and screens each hop's new
rows into it before it calls `retrieve`). It takes distinct rows x passages
x 4 bytes, at most one window's distinct rows. It cannot change a ranking:
candidates are a function of the index, the row and the depth, the screen's
error bound holds for any float32 summation order, and the band is still
rescored exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Corpus, MultiHopQuery
from .encoder import EncodedQuery, LexicalEncoder
from .index import (
    INFERENCE_RESULTS_PER_VECTOR,
    RowCache,
    TokenIndex,
    candidates_for,
    rank_pool,
    row_cache,
)
from .scoring import FocusParams, Ranking

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


def check_corpus_covers(index: TokenIndex, corpus: Corpus) -> None:
    """Raise KeyError naming the first pid of the index that the corpus lacks."""
    missing = [pid for pid in index.pids if pid not in corpus]
    if missing:
        raise KeyError(f"index pid {missing[0]!r} is not in the corpus")


def retrieval_pool(
    eq: EncodedQuery,
    index: TokenIndex,
    cfg: RetrievalConfig,
    exclude: frozenset[str] | set[str] = frozenset(),
    cache: RowCache | None = None,
) -> np.ndarray:
    """Ascending positions of the passages `retrieve` ranks: every non-empty
    passage of a flat index, or the IVF candidates through `cache`, less the
    excluded pids; none for a query with no rows. ValueError when the query's
    dim differs from the index's."""
    if eq.dim != index.dim:
        raise ValueError(
            f"query dim {eq.dim} does not match index dim {index.dim}; "
            "set encoder.dim to the dim the index was built with"
        )
    if eq.query_part.shape[0] + eq.fact_part.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    if index.ivf is None:
        pool = np.flatnonzero(index.row_counts())
    else:
        pool = candidates_for(eq, index, cfg.results_per_vector, cache)
    if exclude:
        pool = pool[~np.isin(pool, index.positions_of(exclude))]
    return pool


def retrieve(
    eq: EncodedQuery,
    index: TokenIndex,
    cfg: RetrievalConfig | None = None,
    exclude: frozenset[str] | set[str] = frozenset(),
    cache: RowCache | None = None,
    pool: np.ndarray | None = None,
) -> Ranking:
    """Top-k passages for an encoded query, ties broken by ascending pid.

    A flat index scores every passage; an IVF index scores the candidates
    from `candidates_for`, each whole. Excluded pids are dropped first and
    `rank_pool` ranks the rest. A query with no rows retrieves nothing; one
    whose dim differs from the index's raises ValueError. Both stages fill
    `cache` (a fresh `RowCache` per call by default); pass one cache to
    many calls so that each distinct row is probed and screened once.
    `pool`, when given, is `retrieval_pool` of the same arguments, which a
    caller that screens ahead (the pipeline) has already.
    """
    cfg = cfg or RetrievalConfig()
    cache = row_cache(cache, index)
    if pool is None:
        pool = retrieval_pool(eq, index, cfg, exclude, cache)
    return rank_pool(eq, index, pool, cfg.k, cfg.focus, cache)


class Retriever:
    """Encoder + index + corpus (holding every index pid) behind one retrieve call.

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
        check_corpus_covers(index, corpus)
        self.corpus = corpus
        self.index = index
        self.encoder = encoder
        self.cfg = cfg or RetrievalConfig()

    def retrieve(self, query: MultiHopQuery, k: int | None = None) -> Ranking:
        cfg = self.cfg if k is None else replace(self.cfg, k=k)
        eq = self.encoder.encode_query(query)
        return retrieve(eq, self.index, cfg)

    def with_query_weights(self, weights: dict[str, float]) -> "Retriever":
        """New retriever whose query-side token rows are scaled by weight."""
        return Retriever(self.corpus, self.index, self.encoder.reweighted(weights), self.cfg)
