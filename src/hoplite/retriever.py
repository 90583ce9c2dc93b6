"""Single-hop retrieval: exact on a flat index, candidates then exact scoring on IVF.

The pool is every non-empty passage of a flat index, or the IVF candidates,
less the excluded pids. `index.rank_pool` ranks it: a float32 screen of every
passage straight from the index storage, then float64 rescoring of the pool
passages the screen's error bound cannot rule out of the top k (all of them
when k is at least half the pool). A passage's scores are the bits
`flipr_score` gives it alone, so rankings are the float64 rankings of the
whole pool. The corpus and the encoder are checked once, when a `Retriever`
is built, not per call.

A source row's IVF candidates and its screened maxima depend on that row
alone, so an `index.RowCache` keeps them, keyed by the row's bits that each
reads, for the calls it serves: `pipeline.retrieve_hop` passes one cache to
every `retrieve` call of a hop's window, and `RowCache` says why sharing it
cannot change a ranking.
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


def check_encoder(index: TokenIndex, encoder: LexicalEncoder) -> None:
    """Raise ValueError naming the first field of the encoder's fingerprint
    that differs from the one the index was built with; an index with no
    fingerprint (built in memory) is checked for its dim alone."""
    have = encoder.fingerprint()
    built = index.fingerprint or replace(have, dim=index.dim)
    for name in ("dim", "max_passage_tokens"):
        if getattr(built, name) != getattr(have, name):
            raise ValueError(
                f"index was built with encoder.{name} {getattr(built, name)}, but the "
                f"encoder has {getattr(have, name)}; set encoder.{name} to the value "
                "the index was built with, or rebuild the index"
            )
    if built.digest != have.digest:
        raise ValueError(
            f"index was built by an encoder whose token vectors differ (digest "
            f"{built.digest.hex()} in the index, {have.digest.hex()} here): another "
            "--seed? Run with the seed the index was built with, or rebuild the index"
        )


def retrieve(
    eq: EncodedQuery,
    index: TokenIndex,
    cfg: RetrievalConfig | None = None,
    exclude: frozenset[str] | set[str] = frozenset(),
    cache: RowCache | None = None,
) -> Ranking:
    """Top-k passages for an encoded query, ties broken by ascending pid.

    A flat index scores every passage; an IVF index scores the candidates
    from `candidates_for`, each whole. Excluded pids are dropped first and
    `rank_pool` ranks the rest. A query with no rows retrieves nothing; one
    whose dim differs from the index's raises ValueError. Both stages fill
    `cache` (a fresh `RowCache` per call by default); pass one cache to
    many calls so that each distinct row is probed and screened once.
    """
    cfg = cfg or RetrievalConfig()
    cache = row_cache(cache, index)
    if eq.dim != index.dim:
        raise ValueError(
            f"query dim {eq.dim} does not match index dim {index.dim}; "
            "set encoder.dim to the dim the index was built with"
        )
    if eq.query_part.shape[0] + eq.fact_part.shape[0] == 0:
        return Ranking()
    if index.ivf is None:
        pool = np.flatnonzero(index.row_counts())
    else:
        pool = candidates_for(eq, index, cfg.results_per_vector, cache)
    if exclude:
        pool = pool[~np.isin(pool, index.positions_of(exclude))]
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
        missing = next((pid for pid in index.pids if pid not in corpus), None)
        if missing is not None:
            raise KeyError(f"index pid {missing!r} is not in the corpus")
        check_encoder(index, encoder)
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
