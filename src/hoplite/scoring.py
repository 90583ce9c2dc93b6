"""Late-interaction scoring kernels.

Given query rows Q and passage rows D, each query row contributes its
best dot product against the passage: M_i = max_j <Q_i, D_j>. The vanilla
late-interaction score sums every M_i. The focused score instead keeps
only the strongest contributions, separately for the query part (top
n_hat of the query-row maxima) and the fact part (top l_hat of the
fact-row maxima), which stops a passage that weakly matches everything
from beating one that strongly matches a subset.

All kernels compute in float64 regardless of input dtype, and top-k
partial sums always accumulate in descending-value order, so results are
reproducible bit-for-bit across call patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import EncodedQuery

DEFAULT_QUERY_FOCUS = 32
DEFAULT_FACT_FOCUS = 8


@dataclass(frozen=True)
class FocusParams:
    """How many strongest per-row maxima to keep from each query part."""

    n_hat: int = DEFAULT_QUERY_FOCUS
    l_hat: int = DEFAULT_FACT_FOCUS

    def __post_init__(self) -> None:
        if self.n_hat < 1:
            raise ValueError(f"n_hat must be >= 1, got {self.n_hat}")
        if self.l_hat < 0:
            raise ValueError(f"l_hat must be >= 0, got {self.l_hat}")


@dataclass(frozen=True)
class ScoredPassage:
    pid: str
    score: float
    s_query: float
    s_fact: float


def maxsim_rows(query_rows: np.ndarray, passage_rows: np.ndarray) -> np.ndarray:
    """Per-query-row best dot product against the passage rows.

    Returns a float64 vector of length len(query_rows). Negative maxima
    are kept as-is; nothing is clamped.
    """
    if passage_rows.shape[0] < 1:
        raise ValueError("passage matrix must have at least one row")
    q = query_rows.astype(np.float64, copy=False)
    d = passage_rows.astype(np.float64, copy=False)
    if q.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    if q.shape[1] != d.shape[1]:
        raise ValueError(f"dim mismatch: query {q.shape[1]} vs passage {d.shape[1]}")
    return (q @ d.T).max(axis=1)


def _topk_sum(values: np.ndarray, k: int) -> float:
    """Sum of the k largest values, accumulated in descending order."""
    if k <= 0 or values.size == 0:
        return 0.0
    if k < values.size:
        values = np.sort(values)[::-1][:k]
    else:
        values = np.sort(values)[::-1]
    return float(np.sum(values))


def colbert_score(eq: EncodedQuery, passage_rows: np.ndarray) -> float:
    """Vanilla late interaction: sum of all per-row maxima, both parts."""
    total = 0.0
    if eq.query_part.shape[0]:
        total += float(np.sum(maxsim_rows(eq.query_part, passage_rows)))
    if eq.fact_part.shape[0]:
        total += float(np.sum(maxsim_rows(eq.fact_part, passage_rows)))
    elif eq.query_part.shape[0] == 0:
        # Still validate the passage side for the all-empty query.
        maxsim_rows(np.zeros((0, passage_rows.shape[1])), passage_rows)
    return total


def flipr_score(
    eq: EncodedQuery,
    passage_rows: np.ndarray,
    focus: FocusParams | None = None,
    pid: str = "",
) -> ScoredPassage:
    """Focused late interaction: top-n_hat query maxima plus top-l_hat fact maxima."""
    fp = focus or FocusParams()
    if eq.query_part.shape[0]:
        s_query = _topk_sum(maxsim_rows(eq.query_part, passage_rows), fp.n_hat)
    else:
        if passage_rows.shape[0] < 1:
            raise ValueError("passage matrix must have at least one row")
        s_query = 0.0
    if eq.fact_part.shape[0]:
        s_fact = _topk_sum(maxsim_rows(eq.fact_part, passage_rows), fp.l_hat)
    else:
        s_fact = 0.0
    return ScoredPassage(pid=pid, score=s_query + s_fact, s_query=s_query, s_fact=s_fact)


def score_passages(
    eq: EncodedQuery,
    passages: Sequence[tuple[str, np.ndarray]],
    focus: FocusParams | None = None,
) -> list[ScoredPassage]:
    """Score a batch of (pid, rows) pairs.

    Guaranteed identical to len(passages) independent flipr_score calls;
    blocked implementations must preserve that equivalence.
    """
    return [flipr_score(eq, rows, focus, pid=pid) for pid, rows in passages]


def rank_scored(scored: Sequence[ScoredPassage]) -> list[ScoredPassage]:
    """Stable ranking: score descending, then pid ascending."""
    return sorted(scored, key=lambda sp: (-sp.score, sp.pid))
