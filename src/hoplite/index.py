"""Token-vector index over a passage corpus.

Every passage contributes one float32 row per token to a single storage
matrix. Storage keeps the passages grouped by row count L: buckets in
ascending L, passages within a bucket in pid-table order. Each bucket is
then one contiguous (n, L, dim) block, so the screen folds strided views
of its similarity matrix and the exact kernel slices whole passages out
of it. The pid table stays in corpus order; `row_counts` and `vec_to_pid`
follow from the row counts. Search on the flat variant is
exact: retrieval scores every passage. The IVF variant buckets vectors
under k-means centroids; `candidates_for` probes the nearest few lists
per source vector and keeps each vector's top results_per_vector hits,
and retrieval scores only those candidate passages, whole.
results_per_vector therefore applies to IVF indexes only. Each inverted
list keeps its members in pid order (passage, then row within it): the
depth cut breaks exact ties by list order, so candidates do not depend on
the storage layout. `build_index` encodes each passage straight into its
place in storage; k-means samples and assigns the rows in pid order,
reading storage through `_layout`'s pid-order row map, so no pid-order copy
of the rows is made.
A `RowCache` keeps each distinct source row's candidates and screened
maxima for the calls of one window, and keeps the screen's float32 buffers
(the rows screened, the similarity block, the maxima table, the gathered
maxima) across windows, so a warm screen maps and faults in no large
temporary; its docstring says why neither can change a ranking.

On-disk layout, format 2 (all little-endian):
  magic "HLTI" | u8 version | u8 variant | u32 dim | u64 n_vectors | u64 n_pids
  encoder fingerprint: u32 max_passage_tokens | 16-byte digest
  pid table:  n_pids x (u16 byte length + UTF-8 bytes)
  row counts: n_pids x u32, in pid-table order
  zero bytes up to the next STORAGE_ALIGN file offset
  vectors:    n_vectors x dim x f32, grouped by row count as above
  IVF block (variant=1 only):
    u32 n_centroids | u32 nprobe
    centroids: n_centroids x dim x f32 | assignments: n_vectors x i32, one per vector
`load_index` reads the file once into a buffer placed so that the vectors
land on a STORAGE_ALIGN boundary; the arrays stay read-only views of it.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus
from .encoder import EncodedQuery, EncoderFingerprint, LexicalEncoder
from .scoring import (
    F32_UNIT,
    FocusParams,
    Ranking,
    focused_sums,
    gamma,
    rank_scored,
    row_maxima,
    screen_error,
    screen_sums,
    source_columns,
)
from .util import replacing

logger = logging.getLogger(__name__)

VARIANT_FLAT = "flat"
VARIANT_IVF = "ivf"

# Candidate depth per source vector: shallower while mining supervision,
# deeper at inference time.
TRAINING_RESULTS_PER_VECTOR = 256
INFERENCE_RESULTS_PER_VECTOR = 512

# Spherical k-means for IVF: Lloyd iterations at most, training vectors per
# centroid (a larger corpus is sampled down), and vectors per assignment block.
KMEANS_ITERS = 25
KMEANS_SAMPLE_FACTOR = 64
ASSIGN_BLOCK = 8192

# File offset and byte alignment of a loaded index's storage block, so float32
# GEMMs read it in place.
STORAGE_ALIGN = 64

# Bytes of one float64 passage stack, and of its product, in exact scoring: under
# glibc's default 128 KiB mmap threshold, so a stack reuses heap memory instead of
# being mapped and faulted in anew, and it stays in cache for its GEMM.
STACK_BYTES = 120 * 1024

# Bytes of the screen's float32 similarity matrix (storage rows x source rows):
# a stacked screen of many queries' rows runs in blocks of rows under this cap.
SCREEN_BYTES = 8 * 1024 * 1024

_INDEX_MAGIC = b"HLTI"
_INDEX_VERSION = 2
_HEADER = "<BBIQQ"  # version, variant, dim, n_vectors, n_pids
_FINGERPRINT = "<I16s"  # max_passage_tokens, digest


class IndexFormatError(ValueError):
    """Bad magic/version, truncated file, or trailing bytes."""


@dataclass(frozen=True)
class IndexConfig:
    variant: str = VARIANT_FLAT
    centroid_count: int | None = None  # None: ceil(sqrt(n_vectors))
    nprobe: int | None = None  # None: max(1, centroids // 64)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in (VARIANT_FLAT, VARIANT_IVF):
            raise ValueError(f"unknown index variant {self.variant!r}")
        for name in ("centroid_count", "nprobe"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 1):
                raise ValueError(f"{name} must be a positive integer or null, got {value!r}")


class IvfData:
    """Centroids plus per-vector assignments; the index builds the inverted lists."""

    def __init__(self, centroids: np.ndarray, assignments: np.ndarray, nprobe: int):
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
        self.centroids64 = self.centroids.astype(np.float64)  # probes rank them in float64
        self.assignments = np.ascontiguousarray(assignments, dtype=np.int32)
        if nprobe < 1 or nprobe > self.centroids.shape[0]:
            raise ValueError(
                f"nprobe {nprobe} out of range for {self.centroids.shape[0]} centroids"
            )
        if self.assignments.size and (
            self.assignments.min() < 0 or self.assignments.max() >= self.centroids.shape[0]
        ):
            raise ValueError(f"IVF assignment outside [0, {self.centroids.shape[0]})")
        self.nprobe = int(nprobe)

    @property
    def n_centroids(self) -> int:
        return int(self.centroids.shape[0])


def _layout(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where passages of these row counts (one per pid position) sit in storage:
    the pid positions in storage order (by row count, then position), each
    passage's first storage row, and the storage rows in pid order."""
    order = np.argsort(counts, kind="stable")
    starts = np.empty_like(counts)
    starts[order] = np.cumsum(counts[order]) - counts[order]
    pid_starts = np.cumsum(counts) - counts
    pid_rows = np.repeat(starts - pid_starts, counts) + np.arange(counts.sum())
    return order, starts, pid_rows


class TokenIndex:
    """Read-only after construction; safe to share across threads.

    `row_counts` holds each pid's number of rows, in pid-table order, and
    `storage` their rows grouped by row count (see the module docstring).
    `fingerprint` names the encoder that built the index, None for an index
    built in memory without one.
    """

    def __init__(
        self,
        pids: Sequence[str],
        row_counts: Sequence[int] | np.ndarray,
        storage: np.ndarray,
        ivf: IvfData | None = None,
        fingerprint: EncoderFingerprint | None = None,
    ):
        self.pids = tuple(pids)
        self._counts = np.array(row_counts, dtype=np.intp)
        self._counts.flags.writeable = False
        # aligned, so the screen's GEMM reads it without numpy copying it first
        self.storage = np.require(storage, np.float32, ["C_CONTIGUOUS", "ALIGNED"])
        if self.storage.ndim != 2:
            raise ValueError("storage must be 2-D")
        n = len(self.pids)
        if self._counts.shape != (n,):
            raise ValueError("row counts and pid table disagree on passage count")
        if n and self._counts.min() < 0:
            raise ValueError("negative row count")
        if self._counts.sum() != self.storage.shape[0]:
            raise ValueError("row counts and storage disagree on vector count")
        if fingerprint is not None and fingerprint.dim != self.dim:
            raise ValueError("encoder fingerprint and storage disagree on dim")
        self.fingerprint = fingerprint
        order, self._starts, pid_rows = _layout(self._counts)
        self.vec_to_pid = np.repeat(order, self._counts[order]).astype(np.int32)
        self.vec_to_pid.flags.writeable = False
        self._pid_to_idx = {pid: i for i, pid in enumerate(self.pids)}
        if len(self._pid_to_idx) != n:
            raise ValueError("duplicate pid in index")
        # each pid's place in string order, so rankings break ties without strings
        self.pid_rank = np.empty(n, dtype=np.intp)
        self.pid_rank[sorted(range(n), key=self.pids.__getitem__)] = np.arange(n)
        self.ivf = ivf
        self.ivf_lists: tuple[np.ndarray, ...] = ()
        if ivf is not None:
            if ivf.assignments.shape[0] != self.storage.shape[0]:
                raise ValueError("IVF assignments disagree with vector count")
            # each list's storage rows in pid order, the order `candidates_for` cuts by
            members = pid_rows[np.argsort(ivf.assignments[pid_rows], kind="stable")]
            sizes = np.bincount(ivf.assignments, minlength=ivf.n_centroids)
            self.ivf_lists = tuple(np.split(members, np.cumsum(sizes)[:-1]))
        # Non-empty passages grouped by row count L, as (pid positions, first
        # storage row, their rows as an (n, L, dim) view), for the screen and
        # the kernel; an upper bound on row norms.
        self._length_buckets = []
        for length in np.unique(self._counts[self._counts > 0]).tolist():
            positions = np.flatnonzero(self._counts == length)
            first = int(self._starts[positions[0]])
            rows = self.storage[first : first + positions.size * length]
            self._length_buckets.append(
                (positions, first, rows.reshape(positions.size, length, self.dim))
            )
        squares = np.einsum("ij,ij->i", self.storage, self.storage)  # float32 sums
        self.max_row_norm = math.sqrt(
            float(squares.max(initial=0.0)) / (1 - gamma(self.dim, F32_UNIT))
        )

    @property
    def dim(self) -> int:
        return int(self.storage.shape[1])

    @property
    def n_vectors(self) -> int:
        return int(self.storage.shape[0])

    @property
    def variant(self) -> str:
        return VARIANT_FLAT if self.ivf is None else VARIANT_IVF

    def positions_of(self, pids: Iterable[str]) -> list[int]:
        """Positions in the pid table of those of `pids` the index holds."""
        return [self._pid_to_idx[pid] for pid in pids if pid in self._pid_to_idx]

    def row_counts(self) -> np.ndarray:
        """Each pid's number of rows, in pid-table order (read-only)."""
        return self._counts

    def stacks(self, positions: np.ndarray, max_rows: int) -> Iterator[tuple[np.ndarray, ...]]:
        """The non-empty passages at `positions`, grouped by row count L and cut
        into stacks of at most max(L, max_rows) rows: per stack, the passages'
        positions and their float32 rows as an (n, L, dim) array, each passage
        one contiguous block taken from its bucket."""
        wanted = np.zeros(len(self.pids), dtype=bool)
        wanted[positions] = True
        for bucket, _, rows in self._length_buckets:
            pick = np.flatnonzero(wanted[bucket])
            step = max(1, max_rows // rows.shape[1])
            for at in (pick[i : i + step] for i in range(0, pick.size, step)):
                yield bucket[at], rows.take(at, axis=0)

    def _screen_step(self) -> int:
        """Source rows per block of the screen: the most whose float32
        similarity matrix against storage stays under SCREEN_BYTES."""
        return max(1, SCREEN_BYTES // (4 * max(1, self.n_vectors)))

    def screen_scratch(self, n_src: int) -> int:
        """Float32 entries `screen_maxima` of n_src rows works in: one block's
        similarity matrix and the fold of its largest bucket."""
        largest = max((rows.shape[0] for _, _, rows in self._length_buckets), default=0)
        return min(n_src, self._screen_step()) * (self.n_vectors + largest)

    def screen_maxima(self, src: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """`out`, a C-contiguous float32 (len(src), n_pids) array, filled with each
        passage's best float32 dot product per source row; entries of empty
        passages are left as they were. One GEMM per block of source rows
        reads storage in place into `scratch` (float32, at least
        `screen_scratch(len(src))` entries), each block's similarity matrix
        under SCREEN_BYTES, and each bucket's maxima fold the strided views of
        its L row offsets in the rest of it. The blocks keep their shapes
        whatever the buffers, so fresh and reused buffers give the same bits."""
        src = np.ascontiguousarray(src, dtype=np.float32)
        n_vectors, step = self.n_vectors, self._screen_step()
        for at in range(0, src.shape[0], step):
            cols = src[at : at + step].T
            width = cols.shape[1]
            sims = scratch[: n_vectors * width].reshape(n_vectors, width)
            np.matmul(self.storage, cols, out=sims)
            block = out[at : at + step].T
            for positions, first, rows in self._length_buckets:
                n, length = rows.shape[:2]
                runs = sims[first : first + n * length].reshape(n, length, width)
                best = scratch[sims.size : sims.size + n * width].reshape(n, width)
                np.maximum(runs[:, 0], runs[:, -1], out=best)
                for j in range(1, length - 1):
                    np.maximum(best, runs[:, j], out=best)
                block[positions] = best
        return out


class RowCache:
    """What each distinct source row alone determines, kept for the calls of
    one window at a time.

    Each MaxSim term depends on one source row, and a multi-hop query repeats
    its rows: hop t+1 re-encodes hop t's rows before the new facts', and the
    hybrid rerank arm starts from the condensed arm's q0. Each entry is keyed
    by the bits its computation reads. `maxima`, keyed by a row's float32
    cast, maps it to its row of the cache's maxima table (every passage's
    best float32 dot product with it); `candidates`, keyed by a row's float64
    bits, holds per results_per_vector the pid positions `candidates_for`
    finds for it. `expected` holds the encoded queries of the hop's calls
    (`pipeline.retrieve_hop` sets it): the next screen takes their rows
    along, so a hop screens once if any of its calls prunes and never, nor
    copies a row, if none does.

    A cache serves one window at a time. `reset` starts the next: it forgets
    every row's entries and the expected queries, and keeps the float32
    buffers: the rows screened (`rows`, then the new ones in `src`), the
    maxima `table`, the similarity block and fold (`screen`), and the pool's
    maxima (`lanes`, then `gathered`). Each grows, at least doubling, when a
    window needs more and is never freed, so a warm cache maps no large
    temporary. `PipelineRunner` keeps one for its life and
    `latent_hop_ordering` one per call.

    Why sharing a cache, across hops, queries or a pipeline window, or
    reusing its buffers across windows, cannot change a ranking: both
    entries are functions of the index, the bits they are keyed by and the
    depth alone, and a buffer only holds them; a row screened in a stack of
    many rows (one `screen_maxima` call, in blocks under SCREEN_BYTES) gets
    the maxima it gets alone up to float32 summation order, which the
    screen's error bound covers; and the band is still rescored by the
    float64 kernel, whose scores do not depend on pool or stack. Its table
    takes a window's distinct screened rows x passages x 4 bytes;
    `row_cache` refuses it for another index.
    """

    def __init__(self, index: TokenIndex):
        self.index = index
        self._buffers: dict[str, np.ndarray] = {}
        self._table = np.zeros((0, len(index.pids)), dtype=np.float32)
        self.reset()

    def reset(self) -> None:
        """Start a window: no row's entries and no expected queries; the buffers stay."""
        self.maxima: dict[bytes, int] = {}
        self.candidates: dict[int, dict[bytes, np.ndarray]] = {}
        self.expected: Sequence[EncodedQuery] = ()

    def _buffer(self, name: str, shape: tuple[int, ...], keep: int = 0) -> np.ndarray:
        """A C-contiguous float32 `shape` view of the start of buffer `name`, which
        grows, at least doubling and keeping its first `keep` entries, when too small."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            grown = np.empty(max(size, 2 * (0 if buf is None else buf.size)), dtype=np.float32)
            if keep:
                grown[:keep] = buf[:keep]
            buf = self._buffers[name] = grown
        return buf[:size].reshape(shape)

    def _rows(self, eqs: Sequence[EncodedQuery]) -> np.ndarray:
        """The float32 casts of each of `eqs`' query rows, then fact rows, in `rows`."""
        parts = [part for eq in eqs for part in (eq.query_part, eq.fact_part)]
        rows = self._buffer("rows", (sum(map(len, parts)), self.index.dim))
        return np.concatenate(parts, out=rows, casting="same_kind")

    def screened(self, eq: EncodedQuery, pool: np.ndarray) -> np.ndarray:
        """Float32 (len(pool), n_src): the screened maxima of the passages at `pool`
        for each of `eq`'s source rows, as a view of the cache's buffer that its
        next call overwrites. If `eq` has a row not screened yet, every distinct
        row of the `expected` queries, then of `eq`, that has no table row gets
        one, filled by one `screen_maxima` call, and the expected queries go."""
        index, used = self.index, len(self.maxima)
        keys = list(map(np.ndarray.tobytes, self._rows([eq])))
        if any(key not in self.maxima for key in keys):
            rows, fresh = self._rows([*self.expected, eq]), {}
            for i, key in enumerate(map(np.ndarray.tobytes, rows)):
                if key not in self.maxima:
                    fresh.setdefault(key, i)
            # mode="clip": the indices are in range, and under "raise" numpy writes
            # `out` through a temporary copy
            src = self._buffer("src", (len(fresh), index.dim))
            np.take(rows, np.fromiter(fresh.values(), np.intp, len(fresh)), axis=0, out=src,
                    mode="clip")
            n_pids = len(index.pids)
            self._table = self._buffer("table", (used + len(fresh), n_pids), keep=used * n_pids)
            index.screen_maxima(src, self._table[used:],
                                self._buffer("screen", (index.screen_scratch(len(fresh)),)))
            self.maxima.update(zip(fresh, range(used, used + len(fresh))))
            self.expected = ()
        at = np.fromiter(map(self.maxima.__getitem__, keys), np.intp, len(keys))
        lanes = self._buffer("lanes", (len(keys), self._table.shape[1]))
        np.take(self._table, at, axis=0, out=lanes, mode="clip")
        gathered = self._buffer("gathered", (len(keys), pool.size))
        np.take(lanes, pool, axis=1, out=gathered, mode="clip")
        return gathered.T


def row_cache(cache: RowCache | None, index: TokenIndex) -> RowCache:
    """`cache`, or a fresh one when None. ValueError, naming the field, for a
    cache made for another index."""
    if cache is None:
        return RowCache(index)
    if cache.index is not index:
        raise ValueError("RowCache index: the cache was filled from another index")
    return cache


def _cluster_sums(vectors: np.ndarray, assign: np.ndarray, n_clusters: int) -> np.ndarray:
    """Per cluster, the sum of its member vectors added one by one in index order:
    the bits `np.add.at` gives, from one flat `np.bincount`, which is faster."""
    dim = vectors.shape[1]
    cells = (assign[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(cells, weights=vectors.ravel(), minlength=n_clusters * dim).reshape(
        n_clusters, dim
    )


def _kmeans(storage: np.ndarray, pid_rows: np.ndarray, n_centroids: int, seed: int) -> np.ndarray:
    """Spherical k-means under dot-product similarity over the storage rows
    `pid_rows` (the rows in pid order).

    Fixed-seed sampling of pid-order rows and initialization from distinct
    vectors; empty clusters are reseeded with the largest cluster's farthest
    member. Returns unit-norm float32 centroids.
    """
    rng = np.random.default_rng(seed)
    n = pid_rows.size
    if n_centroids > n:
        raise ValueError(f"centroid_count {n_centroids} exceeds vector count {n}")
    target = KMEANS_SAMPLE_FACTOR * n_centroids
    if n > target:
        pick = rng.choice(n, size=target, replace=False)
        pick.sort()
        pid_rows = pid_rows[pick]
    sample = storage[pid_rows]
    train = sample.astype(np.float64)
    # float32 rows sort as their float64 casts do, so this is the float64 unique
    distinct = np.unique(sample, axis=0)
    del sample
    if distinct.shape[0] < n_centroids:
        raise ValueError(
            f"centroid_count {n_centroids} exceeds {distinct.shape[0]} distinct vectors"
        )
    init = rng.choice(distinct.shape[0], size=n_centroids, replace=False)
    centroids = distinct[np.sort(init)].astype(np.float64)
    del distinct
    norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    centroids /= np.maximum(norms, 1e-12)

    prev = None
    sims = np.empty((train.shape[0], n_centroids))
    for _ in range(KMEANS_ITERS):
        np.matmul(train, centroids.T, out=sims)
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
        sums = _cluster_sums(train, assign, n_centroids)
        norms = np.linalg.norm(sums, axis=1)
        ok = norms > 1e-12
        centroids[ok] = sums[ok] / norms[ok, None]
    return centroids.astype(np.float32)


def _assign_all(storage: np.ndarray, pid_rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per storage row by dot product, float64 math, in blocks
    of ASSIGN_BLOCK rows taken in pid order through `pid_rows`."""
    cent = centroids.astype(np.float64)
    out = np.empty(storage.shape[0], dtype=np.int32)
    for start in range(0, pid_rows.size, ASSIGN_BLOCK):
        rows = pid_rows[start : start + ASSIGN_BLOCK]
        out[rows] = np.argmax(storage[rows].astype(np.float64) @ cent.T, axis=1)
    return out


def build_index(
    corpus: Corpus, encoder: LexicalEncoder, cfg: IndexConfig | None = None
) -> TokenIndex:
    """The index of `corpus`: each passage's rows written once, straight into
    their place in storage, and on IVF k-means over the rows in pid order."""
    cfg = cfg or IndexConfig()
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    tokens = [encoder.passage_tokens(p) for p in corpus]
    counts = np.array([len(t) for t in tokens], dtype=np.intp)
    if not counts.any():
        raise ValueError("corpus produced no token vectors")
    _, starts, pid_rows = _layout(counts)
    storage = np.empty((int(counts.sum()), encoder.dim), dtype=np.float32)
    for start, passage_tokens in zip(starts.tolist(), tokens):
        storage[start : start + len(passage_tokens)] = encoder.token_rows(passage_tokens)
    del tokens
    ivf = None
    if cfg.variant == VARIANT_IVF:
        n_centroids = cfg.centroid_count or math.ceil(math.sqrt(storage.shape[0]))
        centroids = _kmeans(storage, pid_rows, n_centroids, seed=cfg.seed)
        nprobe = cfg.nprobe or max(1, n_centroids // 64)
        ivf = IvfData(centroids, _assign_all(storage, pid_rows, centroids), nprobe)
    idx = TokenIndex(corpus.pids, counts, storage, ivf, encoder.fingerprint())
    logger.info(
        "built %s index: %d passages, %d vectors, dim %d",
        idx.variant,
        len(idx.pids),
        idx.n_vectors,
        idx.dim,
    )
    return idx


def candidates_for(
    eq: EncodedQuery,
    index: TokenIndex,
    results_per_vector: int = INFERENCE_RESULTS_PER_VECTOR,
    cache: RowCache | None = None,
) -> np.ndarray:
    """Union of per-source-row nearest vectors on an IVF index, as ascending pid positions.

    Every query row and fact row is a source row. Each scans its nprobe
    nearest centroid lists and contributes its top results_per_vector
    vectors there by dot product. A flat index has no candidate stage.
    Each distinct row is probed once per `cache` (a fresh one per call
    by default), which keeps every row's pid positions.
    """
    if index.ivf is None:
        raise ValueError("candidates_for needs an IVF index; flat search scores every passage")
    if results_per_vector < 1:
        raise ValueError("results_per_vector must be positive")
    found = row_cache(cache, index).candidates.setdefault(results_per_vector, {})
    hit = np.zeros(len(index.pids), dtype=bool)
    ivf = index.ivf
    # matmul raises ValueError on a dim mismatch
    for row in np.concatenate([eq.query_part, eq.fact_part]).astype(np.float64):
        key = row.tobytes()
        if key not in found:
            probe = np.argsort(-(ivf.centroids64 @ row), kind="stable")[: ivf.nprobe]
            cand = np.concatenate([index.ivf_lists[c] for c in probe])
            if results_per_vector < cand.size:
                ds = index.storage[cand].astype(np.float64) @ row
                keep = np.argpartition(-ds, results_per_vector - 1)[:results_per_vector]
                cand = cand[keep]
            found[key] = index.vec_to_pid[cand]
        hit[found[key]] = True
    return np.flatnonzero(hit)


def rank_pool(
    eq: EncodedQuery,
    index: TokenIndex,
    pool: np.ndarray,
    k: int,
    focus: FocusParams,
    cache: RowCache | None = None,
) -> Ranking:
    """The float64 top-k of the passages at `pool` (distinct, ascending, none empty).

    Unless the band could not prune (2k >= pool size), a float32 screen
    scores every passage and only the pool passages screened within twice
    the error bound of the k-th best are rescored in float64; the rest
    cannot reach the top k (see `scoring`). `cache` (a fresh one per call by
    default) screens only the rows of `eq` it has not seen, along with those
    of its expected queries, and works in its own buffers.
    """
    cols = source_columns(eq)
    if 2 * k < pool.size:
        maxima = row_cache(cache, index).screened(eq, pool)
        approx = screen_sums(eq, maxima, focus)
        kth = np.partition(approx, -k)[-k]
        pool = pool[approx >= kth - 2 * screen_error(eq, focus, index.max_row_norm)]
    max_rows = STACK_BYTES // (8 * max(cols.shape))
    stacks = [(at, row_maxima(stack, cols)) for at, stack in index.stacks(pool, max_rows)]
    if not stacks:
        return Ranking()
    positions, maxima = (np.concatenate(part) for part in zip(*stacks))
    s_query, s_fact = focused_sums(eq, maxima, focus)
    order = rank_scored(s_query + s_fact, index.pid_rank[positions], k)
    pids = tuple(index.pids[i] for i in positions[order].tolist())
    return Ranking(pids, s_query[order], s_fact[order])


def save_index(index: TokenIndex, path: str | Path) -> None:
    """Write `index` in format 2; ValueError, with `path` left as it was, for
    an index with no encoder fingerprint (one not made by `build_index` or
    loaded) or a pid too long for the pid table."""
    fp = index.fingerprint
    if fp is None:
        raise ValueError("index has no encoder fingerprint to save; build it with build_index")
    variant = 0 if index.ivf is None else 1
    with replacing(path, "wb") as fh:
        fh.write(_INDEX_MAGIC)
        fh.write(
            struct.pack(_HEADER, _INDEX_VERSION, variant, index.dim, index.n_vectors,
                        len(index.pids))
        )
        fh.write(struct.pack(_FINGERPRINT, fp.max_passage_tokens, fp.digest))
        for pid in index.pids:
            raw = pid.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError(f"pid too long to serialize: {pid[:32]!r}...")
            fh.write(struct.pack("<H", len(raw)) + raw)
        fh.write(index.row_counts().astype("<u4").tobytes())
        fh.write(bytes(-fh.tell() % STORAGE_ALIGN))
        fh.write(np.ascontiguousarray(index.storage, dtype="<f4").tobytes())
        if index.ivf is not None:
            fh.write(struct.pack("<II", index.ivf.n_centroids, index.ivf.nprobe))
            fh.write(np.ascontiguousarray(index.ivf.centroids, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(index.ivf.assignments, dtype="<i4").tobytes())


class _Reader:
    def __init__(self, blob: memoryview, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def _advance(self, n: int) -> int:
        if self.pos + n > len(self.blob):
            raise IndexFormatError(f"{self.path}: truncated file")
        start = self.pos
        self.pos += n
        return start

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return bytes(self.blob[start : self.pos])

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """Read-only view into the blob; the loaded index holds no second copy."""
        start = self._advance(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.blob, dtype=dtype, count=count, offset=start)


def load_index(path: str | Path) -> TokenIndex:
    """The index saved at `path`, its arrays read-only views of one read of the
    file. IndexFormatError, naming the file, for anything but a whole, valid
    format 2 file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.empty(size + STORAGE_ALIGN, dtype=np.uint8)
        shift = -buf.ctypes.data % STORAGE_ALIGN
        if fh.readinto(memoryview(buf)[shift : shift + size]) != size:
            raise IndexFormatError(f"{path}: truncated file")
    r = _Reader(memoryview(buf)[shift : shift + size].toreadonly(), str(path))
    if r.take(4) != _INDEX_MAGIC:
        raise IndexFormatError(f"{path}: bad magic")
    version, variant, dim, n_vectors, n_pids = r.unpack(_HEADER)
    if version == 1:
        raise IndexFormatError(
            f"{path}: index format 1 records no encoder to check; "
            "rebuild the index with build-index"
        )
    if version != _INDEX_VERSION:
        raise IndexFormatError(f"{path}: unsupported version {version}")
    if variant not in (0, 1):
        raise IndexFormatError(f"{path}: unknown variant byte {variant}")
    fingerprint = EncoderFingerprint(dim, *r.unpack(_FINGERPRINT))
    pids = []
    for _ in range(n_pids):
        (length,) = r.unpack("<H")
        try:
            pids.append(r.take(length).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"{path}: pid {len(pids)} is not UTF-8: {exc}") from None
    counts = r.array("<u4", n_pids)
    r.take(-r.pos % STORAGE_ALIGN)  # the padding before the vectors
    storage = r.array("<f4", n_vectors * dim).reshape(n_vectors, dim)
    ivf_arrays = None
    if variant == 1:
        n_centroids, nprobe = r.unpack("<II")
        centroids = r.array("<f4", n_centroids * dim).reshape(n_centroids, dim)
        ivf_arrays = (centroids, r.array("<i4", n_vectors), nprobe)
    if r.pos != size:
        raise IndexFormatError(f"{path}: {size - r.pos} trailing bytes")
    try:  # a structural error in the arrays is a format error of this file
        ivf = IvfData(*ivf_arrays) if ivf_arrays else None
        return TokenIndex(pids, counts, storage, ivf, fingerprint)
    except ValueError as exc:
        raise IndexFormatError(f"{path}: {exc}") from None
