"""Reference rankings for the tests: no index, no screen, no stacks."""

from __future__ import annotations

import numpy as np

from hoplite.corpus import Corpus
from hoplite.encoder import EncodedQuery, LexicalEncoder
from hoplite.index import TokenIndex
from hoplite.scoring import Ranking, flipr_score


def exact_topk_oracle(
    eq: EncodedQuery,
    corpus: Corpus,
    encoder: LexicalEncoder,
    k: int = 20,
    encodings: dict[str, np.ndarray] | None = None,
) -> Ranking:
    """Reference ranking of every passage.

    Scores each passage alone with `flipr_score` (default focus) and sorts
    by score descending, then pid ascending, so it checks `retrieve`'s
    batched kernel instead of sharing it. Pass precomputed encodings to
    amortize repeated corpus scans. Passages that encode to zero rows are
    unscorable and skipped.
    """
    mats = ((p.pid, encodings[p.pid] if encodings else encoder.encode_passage(p)) for p in corpus)
    scored = [flipr_score(eq, rows, pid=pid) for pid, rows in mats if rows.shape[0]]
    top = sorted(scored, key=lambda sp: (-sp.score, sp.pid))[:k]
    return Ranking(tuple(sp.pid for sp in top), np.array([sp.s_query for sp in top]),
                   np.array([sp.s_fact for sp in top]))


def encode_corpus(corpus: Corpus, encoder: LexicalEncoder) -> dict[str, np.ndarray]:
    """Precompute passage encodings keyed by pid (for the oracle hot path)."""
    return {p.pid: encoder.encode_passage(p) for p in corpus}


def rows_for(index: TokenIndex, pid: str) -> tuple[int, int]:
    """The storage rows [lo, hi) of one passage, from `row_counts()` alone:
    storage holds the passages by row count, ascending, and in pid-table
    order within one row count."""
    counts = index.row_counts()
    i = index.pids.index(pid)
    before = (counts < counts[i]) | ((counts == counts[i]) & (np.arange(len(counts)) < i))
    lo = int(counts[before].sum())
    return lo, lo + int(counts[i])
