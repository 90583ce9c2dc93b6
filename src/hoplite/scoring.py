"""Late-interaction scoring kernels.

Given query rows Q and passage rows D, each query row contributes its
best dot product against the passage: M_i = max_j <Q_i, D_j>. The vanilla
late-interaction score sums every M_i. The focused score instead keeps
only the strongest contributions, separately for the query part (top
n_hat of the query-row maxima) and the fact part (top l_hat of the
fact-row maxima), which stops a passage that weakly matches everything
from beating one that strongly matches a subset.

One kernel computes every exact focused score. `row_maxima` takes
passages of equal row count L as an (n, L, d) stack: one batched float64
`np.matmul` against the query and fact rows as columns, then the max over
each passage's rows. `focused_sums` adds the top-k maxima in descending
order. Each passage of a stack is its own product of the same shape, so
scores do not depend on batch shape: a passage's scores are the same bits
alone (`flipr_score`), in any stack and any pool, on a flat or an IVF
index, for the same BLAS thread count.

Ranking many passages takes two passes (`index.rank_pool`). A float32
screen scores every passage from the index's float32 storage in place;
`screen_error` bounds how far a screened score can be from the float64
one. Each float32 dot product of length d is off by at most
gamma_d * |src_i| * |p| with gamma_d = d*u / (1 - d*u) and u = 2**-24,
under any summation order; casting float64 query rows down adds
u * |src_i| * |p|. Maxima and top-k sums move a score by no more than the
sum of the k largest row errors, so every screened score is within E of
its float64 score; the screen therefore picks each part's top k by
partition and sums it in float64 in no set order (`screen_sums`). Every
passage that can still reach the top k scores within 2E of the k-th best
screened score; only that band is rescored exactly by the kernel, so the
ranking is the float64 ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

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


@dataclass(frozen=True, eq=False)
class Ranking:
    """Ranked passages kept as arrays; iterating builds their `ScoredPassage`s."""

    pids: tuple[str, ...] = ()
    s_query: np.ndarray = field(default_factory=lambda: np.zeros(0))
    s_fact: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.pids)

    def __iter__(self) -> Iterator[ScoredPassage]:
        for pid, s_query, s_fact in zip(self.pids, self.s_query.tolist(), self.s_fact.tolist()):
            yield ScoredPassage(pid, s_query + s_fact, s_query, s_fact)


def _top_sums(maxima: np.ndarray, k: int) -> np.ndarray:
    """Per row, the sum of its k largest values, added in descending order."""
    # C-contiguous rows so np.sum adds each row pairwise in descending order.
    return np.ascontiguousarray(np.sort(maxima, axis=1)[:, ::-1][:, :k]).sum(axis=1)


def _partition_sums(maxima: np.ndarray, k: int) -> np.ndarray:
    """Per row, the float64 sum of its k largest values, in no set order; the
    partition reorders each row of `maxima` in place."""
    n = maxima.shape[1]
    if k <= 0:
        return np.zeros(maxima.shape[0])
    if k < n:
        maxima.partition(n - k, axis=1)
        maxima = maxima[:, n - k :]
    return maxima.sum(axis=1, dtype=np.float64)


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


def source_columns(eq: EncodedQuery) -> np.ndarray:
    """Float64 (dim, n_src), C-contiguous: the query rows, then the fact rows, as columns."""
    parts = [part for part in (eq.query_part, eq.fact_part) if part.shape[0]]
    rows = np.concatenate(parts, dtype=np.float64) if parts else np.zeros((0, eq.dim))
    return np.ascontiguousarray(rows.T)


def row_maxima(stack: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Float64 (n, n_src): per passage of an (n, L, d) stack, each source column's
    best dot product. Each passage is its own (L, d) @ (d, n_src) product, so its
    maxima are the same bits alone and in any stack."""
    if stack.shape[1] < 1:
        raise ValueError("passage matrix must have at least one row")
    # matmul raises ValueError on a dim mismatch
    return np.matmul(stack.astype(np.float64, copy=False), cols).max(axis=1)


def focused_sums(eq: EncodedQuery, maxima: np.ndarray, focus: FocusParams) -> tuple:
    """Focused scores (s_query, s_fact) from per-passage maxima, one column per source row."""
    nq = eq.query_part.shape[0]
    return _top_sums(maxima[:, :nq], focus.n_hat), _top_sums(maxima[:, nq:], focus.l_hat)


def screen_sums(eq: EncodedQuery, maxima: np.ndarray, focus: FocusParams) -> np.ndarray:
    """Screened scores s_query + s_fact from float32 maxima, one column per
    source row: each part's top k picked by partition and summed in float64 in
    no set order, which `screen_error` covers. The partition runs in place, so
    it reorders each row's entries within each part of `maxima`."""
    nq = eq.query_part.shape[0]
    return _partition_sums(maxima[:, :nq], focus.n_hat) + _partition_sums(
        maxima[:, nq:], focus.l_hat
    )


def maxsim_rows(query_rows: np.ndarray, passage_rows: np.ndarray) -> np.ndarray:
    """Per-query-row best dot product against the passage rows.

    Returns a float64 vector of length len(query_rows). Negative maxima
    are kept as-is; nothing is clamped.
    """
    cols = np.ascontiguousarray(query_rows.T, dtype=np.float64)
    return row_maxima(passage_rows[None], cols)[0]


def flipr_score(
    eq: EncodedQuery, passage_rows: np.ndarray, focus: FocusParams | None = None, pid: str = ""
) -> ScoredPassage:
    """Focused late interaction: top-n_hat query maxima plus top-l_hat fact maxima."""
    maxima = row_maxima(passage_rows[None], source_columns(eq))
    (s_query,), (s_fact,) = focused_sums(eq, maxima, focus or FocusParams())
    return ScoredPassage(pid, float(s_query + s_fact), float(s_query), float(s_fact))


def colbert_score(eq: EncodedQuery, passage_rows: np.ndarray) -> float:
    """Vanilla late interaction: sum of all per-row maxima, both parts.

    Computed directly, not through `row_maxima`, so it can check it.
    """
    if passage_rows.shape[0] < 1:
        raise ValueError("passage matrix must have at least one row")
    d = passage_rows.astype(np.float64)
    total = 0.0
    for part in (eq.query_part, eq.fact_part):
        if part.shape[0]:
            total += float(np.sum((part.astype(np.float64) @ d.T).max(axis=1)))
    return total


def rank_scored(score: np.ndarray, pid_rank: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k best scores: score descending, then pid ascending.

    `pid_rank[i]` is where the i-th passage's pid falls among all pids in
    string order, so one `np.lexsort` settles ties without comparing strings.
    """
    pick = np.arange(score.size)
    if 0 < k < score.size:  # only scores tied with or above the k-th best can rank
        pick = np.flatnonzero(score >= np.partition(score, -k)[-k])
    return pick[np.lexsort((pid_rank[pick], -score[pick]))[:k]]
