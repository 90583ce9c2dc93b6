"""Late-interaction scoring kernels.

Given query rows Q and passage rows D, each query row contributes its
best dot product against the passage: M_i = max_j <Q_i, D_j>. The vanilla
late-interaction score sums every M_i. The focused score instead keeps
only the strongest contributions, separately for the query part (top
n_hat of the query-row maxima) and the fact part (top l_hat of the
fact-row maxima), which stops a passage that weakly matches everything
from beating one that strongly matches a subset.

One segmented kernel, `score_segments`, computes every exact focused
score: one float64 GEMM of the query and fact rows against the stacked
passage rows, `np.maximum.reduceat` per passage, then top-k sums in
descending order.

Ranking many passages takes two passes (`index.rank_pool`). A float32
screen scores every passage from the index's float32 storage in place;
`screen_error` bounds how far a screened score can be from the float64
one. Each float32 dot product of length d is off by at most
gamma_d * |src_i| * |p| with gamma_d = d*u / (1 - d*u) and u = 2**-24,
under any summation order; casting float64 query rows down adds
u * |src_i| * |p|. Maxima and top-k sums move a score by no more than the
sum of the k largest row errors, so every screened score is within E of
its float64 score. Every passage that can still reach the top k scores
within 2E of the k-th best screened score; only that band is rescored
exactly with `score_segments`, so the ranking is the float64 ranking.

Scores are deterministic for the same rows and BLAS thread count, but
not across batch shapes: BLAS may round a passage scored alone and in a
batch differently in the last bits. The screen is float32 BLAS work on
the same inputs, so the band, and with it the rescored batch, is the same
for the same query, pool and index: repeated calls give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import EncodedQuery

DEFAULT_QUERY_FOCUS = 32
DEFAULT_FACT_FOCUS = 8

F32_UNIT = 2.0**-24  # unit roundoff of float32
F64_UNIT = 2.0**-53


@dataclass(frozen=True)
class FocusParams:
    """How many strongest per-row maxima to keep from each query part."""

    n_hat: int = DEFAULT_QUERY_FOCUS
    l_hat: int = DEFAULT_FACT_FOCUS

    def __post_init__(self) -> None:
        if self.n_hat < 1:
            raise ValueError(f"n_hat (query_focus) must be >= 1, got {self.n_hat}")
        if self.l_hat < 0:
            raise ValueError(f"l_hat (fact_focus) must be >= 0, got {self.l_hat}")


@dataclass(frozen=True)
class ScoredPassage:
    pid: str
    score: float
    s_query: float
    s_fact: float


def _segment_maxima(src: np.ndarray, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Float64 (n_segments, n_src): each source row's best dot product per segment."""
    starts = np.asarray(starts, dtype=np.intp)
    if starts.size and (starts[0] != 0 or (np.diff(starts, append=len(rows)) < 1).any()):
        raise ValueError("segments must start at row 0 and each hold at least one row")
    # matmul raises ValueError on a dim mismatch
    sims = src.astype(np.float64, copy=False) @ rows.astype(np.float64, copy=False).T
    return np.maximum.reduceat(sims, starts, axis=1).T


def _top_sums(maxima: np.ndarray, k: int) -> np.ndarray:
    """Per row, the sum of its k largest values, added in descending order."""
    # C-contiguous rows so np.sum adds each row pairwise in descending order.
    return np.ascontiguousarray(np.sort(maxima, axis=1)[:, ::-1][:, :k]).sum(axis=1)


def gamma(n: int, unit: float) -> float:
    """Relative error bound of an n-term dot product in a format with this unit roundoff."""
    return n * unit / (1 - n * unit)


def screen_error(eq: EncodedQuery, focus: FocusParams, max_row_norm: float) -> float:
    """Bound on |screened score - float64 score| for passages with row norms <= max_row_norm.

    Source rows are screened as float32. The bound uses the actual row
    norms, since trained query weights scale rows up, and a float64
    term covers the rounding of both passes' float64 sums and norms.
    """
    n_src = eq.query_part.shape[0] + eq.fact_part.shape[0]
    rel = gamma(eq.dim, F32_UNIT) + gamma(eq.dim + 2 * n_src + 2, F64_UNIT)
    total = 0.0
    for part, k in ((eq.query_part, focus.n_hat), (eq.fact_part, focus.l_hat)):
        part32 = part.astype(np.float32, copy=False).astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", part32, part32))
        cast = F32_UNIT / (1 - F32_UNIT) if part.dtype != np.float32 else 0.0
        total += (rel + cast) * float(np.sort(norms)[::-1][:k].sum())
    return total * max_row_norm


def screen_sums(eq: EncodedQuery, maxima: np.ndarray, focus: FocusParams) -> np.ndarray:
    """Screened focused scores from float32 per-passage maxima (one column per source row)."""
    nq = eq.query_part.shape[0]
    maxima = maxima.astype(np.float64)
    return _top_sums(maxima[:, :nq], focus.n_hat) + _top_sums(maxima[:, nq:], focus.l_hat)


def score_segments(
    eq: EncodedQuery, rows: np.ndarray, starts: np.ndarray, focus: FocusParams | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Focused scores (s_query, s_fact) of passages stacked into one row matrix.

    Passage i owns rows[starts[i]:starts[i + 1]] (the last one runs to the
    end) and must own at least one row.
    """
    fp = focus or FocusParams()
    nq = eq.query_part.shape[0]
    parts = [part for part in (eq.query_part, eq.fact_part) if part.shape[0]]
    src = np.concatenate(parts) if parts else np.zeros((0, rows.shape[1]))
    maxima = _segment_maxima(src, rows, starts)
    return _top_sums(maxima[:, :nq], fp.n_hat), _top_sums(maxima[:, nq:], fp.l_hat)


def maxsim_rows(query_rows: np.ndarray, passage_rows: np.ndarray) -> np.ndarray:
    """Per-query-row best dot product against the passage rows.

    Returns a float64 vector of length len(query_rows). Negative maxima
    are kept as-is; nothing is clamped.
    """
    return _segment_maxima(query_rows, passage_rows, [0])[0]


def flipr_score(
    eq: EncodedQuery,
    passage_rows: np.ndarray,
    focus: FocusParams | None = None,
    pid: str = "",
) -> ScoredPassage:
    """Focused late interaction: top-n_hat query maxima plus top-l_hat fact maxima."""
    (s_query,), (s_fact,) = score_segments(eq, passage_rows, [0], focus)
    return ScoredPassage(pid, float(s_query + s_fact), float(s_query), float(s_fact))


def colbert_score(eq: EncodedQuery, passage_rows: np.ndarray) -> float:
    """Vanilla late interaction: sum of all per-row maxima, both parts.

    Computed directly, not through `score_segments`, so it can check it.
    """
    if passage_rows.shape[0] < 1:
        raise ValueError("passage matrix must have at least one row")
    d = passage_rows.astype(np.float64)
    total = 0.0
    for part in (eq.query_part, eq.fact_part):
        if part.shape[0]:
            total += float(np.sum((part.astype(np.float64) @ d.T).max(axis=1)))
    return total


def rank_scored(
    pids: Sequence[str], s_query: np.ndarray, s_fact: np.ndarray, k: int
) -> list[ScoredPassage]:
    """The k best of the scored passages: score descending, then pid ascending."""
    score = s_query + s_fact
    pick = range(score.size)
    if 0 < k < score.size:  # only scores tied with or above the k-th best can rank
        pick = np.flatnonzero(score >= np.partition(score, -k)[-k]).tolist()
    ranked = sorted(pick, key=lambda i: (-score[i], pids[i]))[:k]
    return [
        ScoredPassage(pids[i], float(score[i]), float(s_query[i]), float(s_fact[i]))
        for i in ranked
    ]
