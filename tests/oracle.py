"""Reference code for the tests: rankings with no index, no screen and no
stacks, and the index built the plain way, from a pid-order copy of the rows."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from hoplite import index as index_mod
from hoplite.corpus import Corpus
from hoplite.encoder import EncodedQuery, EncoderFingerprint, LexicalEncoder
from hoplite.index import IndexConfig, IvfData, TokenIndex
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


def from_passages(
    pids: Sequence[str],
    passages: Sequence[np.ndarray],
    ivf: IvfData | None = None,
    fingerprint: EncoderFingerprint | None = None,
) -> TokenIndex:
    """The index of `passages`, one row matrix per pid in pid order, with
    their rows copied into storage grouped by row count; `ivf`'s assignments
    follow the rows in pid order."""
    counts = np.array([m.shape[0] for m in passages], dtype=np.intp)
    order = np.argsort(counts, kind="stable")
    storage = np.concatenate([passages[i] for i in order.tolist()])
    if ivf is not None:
        offsets = np.cumsum(counts) - counts
        blocks = np.split(ivf.assignments, offsets[1:])
        assignments = np.concatenate([blocks[i] for i in order.tolist()])
        ivf = IvfData(ivf.centroids, assignments, ivf.nprobe)
    return TokenIndex(pids, counts, storage, ivf, fingerprint)


def _kmeans_pid_order(rows: np.ndarray, n_centroids: int, seed: int) -> np.ndarray:
    """`index._kmeans` over a pid-order copy of the rows, with a float64 unique
    of the sample and a fresh product per iteration."""
    rng = np.random.default_rng(seed)
    n = rows.shape[0]
    target = index_mod.KMEANS_SAMPLE_FACTOR * n_centroids
    if n > target:
        pick = rng.choice(n, size=target, replace=False)
        pick.sort()
        rows = rows[pick]
    train = rows.astype(np.float64)
    distinct = np.unique(train, axis=0)
    init = rng.choice(distinct.shape[0], size=n_centroids, replace=False)
    centroids = distinct[np.sort(init)].copy()
    centroids /= np.maximum(np.linalg.norm(centroids, axis=1, keepdims=True), 1e-12)
    prev = None
    for _ in range(index_mod.KMEANS_ITERS):
        sims = train @ centroids.T
        assign = np.argmax(sims, axis=1)
        counts = np.bincount(assign, minlength=n_centroids)
        for c in np.flatnonzero(counts == 0):
            big = int(np.argmax(counts))
            members = np.flatnonzero(assign == big)
            far = members[int(np.argmin(sims[members, big]))]
            centroids[c] = train[far]
            assign[far] = c
            counts[big] -= 1
            counts[c] = 1
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign.copy()
        sums = np.zeros((n_centroids, rows.shape[1]))
        np.add.at(sums, assign, train)
        norms = np.linalg.norm(sums, axis=1)
        ok = norms > 1e-12
        centroids[ok] = sums[ok] / norms[ok, None]
    return centroids.astype(np.float32)


def build_index_pid_order(
    corpus: Corpus, encoder: LexicalEncoder, cfg: IndexConfig | None = None
) -> TokenIndex:
    """`build_index` the plain way: one row block per passage, their pid-order
    concatenation for k-means and for assignment in blocks of
    `index.ASSIGN_BLOCK` rows, then `from_passages`."""
    cfg = cfg or IndexConfig()
    blocks = [encoder.encode_passage(p) for p in corpus]
    ivf = None
    if cfg.variant == index_mod.VARIANT_IVF:
        rows = np.concatenate(blocks)
        n_centroids = cfg.centroid_count or math.ceil(math.sqrt(rows.shape[0]))
        centroids = _kmeans_pid_order(rows, n_centroids, cfg.seed)
        cent = centroids.astype(np.float64)
        step = index_mod.ASSIGN_BLOCK
        assign = np.concatenate([
            np.argmax(rows[at : at + step].astype(np.float64) @ cent.T, axis=1)
            for at in range(0, rows.shape[0], step)
        ])
        ivf = IvfData(centroids, assign, cfg.nprobe or max(1, n_centroids // 64))
    return from_passages(corpus.pids, blocks, ivf, encoder.fingerprint())
