"""Single-hop retrieval: candidate generation plus full rescoring."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .corpus import Corpus, MultiHopQuery
from .encoder import EncodedQuery, Encoder, TokenWeightedEncoder
from .index import INFERENCE_RESULTS_PER_VECTOR, TokenIndex, candidates_for
from .scoring import FocusParams, ScoredPassage, flipr_score


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = 25
    results_per_vector: int = INFERENCE_RESULTS_PER_VECTOR
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
    """Top-k passages for an encoded query.

    Candidates come from the index; every surviving candidate is rescored
    whole (the candidate pool is never truncated before scoring). Ties
    break by ascending pid. Excluded pids are dropped before scoring.
    """
    cfg = cfg or RetrievalConfig()
    cands = candidates_for(eq, index, cfg.results_per_vector)
    scored: list[ScoredPassage] = []
    for pid in cands.hits:
        if pid in exclude:
            continue
        if pid not in corpus:
            raise KeyError(f"index candidate {pid!r} is not in the corpus")
        rows = index.matrix_for(pid)
        if rows.shape[0] == 0:
            continue
        scored.append(flipr_score(eq, rows, cfg.focus, pid=pid))
    scored.sort(key=lambda sp: (-sp.score, sp.pid))
    return scored[: cfg.k]


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

    def encode(self, query: MultiHopQuery) -> EncodedQuery:
        return self.encoder.encode_query(query)

    def retrieve(
        self,
        query: MultiHopQuery,
        k: int | None = None,
        exclude: frozenset[str] | set[str] = frozenset(),
    ) -> list[ScoredPassage]:
        cfg = self.cfg if k is None else replace(self.cfg, k=k)
        return retrieve(self.encode(query), self.index, self.corpus, cfg, exclude)

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
