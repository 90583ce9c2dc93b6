"""Token-vector index over a passage corpus.

Every passage contributes one row per token to a single float32 storage
matrix; vec_to_pid maps storage rows back to passages. Search on the flat
variant is exact: retrieval scores every passage. The IVF variant buckets
vectors under k-means centroids; `candidates_for` probes the nearest few
lists per source vector and keeps each vector's top results_per_vector
hits, and retrieval scores only those candidate passages, whole.
results_per_vector therefore applies to IVF indexes only. A `RowCache`
keeps, for the calls of one query, each distinct source row's candidates
and its screened maxima over every passage (distinct rows x passages x 4
bytes), so a row is probed and screened once per query; neither depends on
anything but the index, the row and the depth, so no ranking changes.
`screen_caches` screens the new rows of several queries' caches with one
`screen_maxima` call, as the pipeline does for each hop of a batch; the
screen runs in blocks of source rows whose similarity matrix stays under
SCREEN_BYTES, and a stacked screen gives each row the maxima it gets alone
up to float32 summation order, which the screen's error bound covers.

On-disk layout (all little-endian):
  magic "HLTI" | u8 version | u8 variant | u32 dim | u64 n_vectors | u64 n_pids
  pid table: n_pids x (u16 byte length + UTF-8 bytes)
  vec_to_pid: n_vectors x i32
  vectors:    n_vectors x dim x f32
  IVF block (variant=1 only):
    u32 n_centroids | u32 nprobe
    centroids: n_centroids x dim x f32 | assignments: n_vectors x i32
The pid table has any length, so `load_index` places the file in memory
with the vectors block on a STORAGE_ALIGN boundary; the arrays stay
read-only views of that one buffer.
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
from .encoder import EncodedQuery, LexicalEncoder
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

# Byte alignment of a loaded index's storage block, so float32 GEMMs read it in place.
STORAGE_ALIGN = 64

# Bytes of one float64 passage stack, and of its product, in exact scoring: under
# glibc's default 128 KiB mmap threshold, so a stack reuses heap memory instead of
# being mapped and faulted in anew, and it stays in cache for its GEMM.
STACK_BYTES = 120 * 1024

# Bytes of the screen's float32 similarity matrix (storage rows x source rows):
# a stacked screen of many queries' rows runs in blocks of rows under this cap.
SCREEN_BYTES = 8 * 1024 * 1024

_INDEX_MAGIC = b"HLTI"
_INDEX_VERSION = 1


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
    """Centroids plus per-vector assignments, with inverted lists built once."""

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
        order = np.argsort(self.assignments, kind="stable")
        counts = np.bincount(self.assignments, minlength=self.centroids.shape[0])
        bounds = np.concatenate(([0], np.cumsum(counts)))
        self.lists = [
            order[bounds[c] : bounds[c + 1]] for c in range(self.centroids.shape[0])
        ]

    @property
    def n_centroids(self) -> int:
        return int(self.centroids.shape[0])


class TokenIndex:
    """Read-only after construction; safe to share across threads."""

    def __init__(
        self,
        pids: Sequence[str],
        vec_to_pid: np.ndarray,
        storage: np.ndarray,
        ivf: IvfData | None = None,
    ):
        self.pids = tuple(pids)
        self.vec_to_pid = np.ascontiguousarray(vec_to_pid, dtype=np.int32)
        # aligned, so the screen's GEMM reads it without numpy copying it first
        self.storage = np.require(storage, np.float32, ["C_CONTIGUOUS", "ALIGNED"])
        if self.storage.ndim != 2:
            raise ValueError("storage must be 2-D")
        if self.vec_to_pid.shape[0] != self.storage.shape[0]:
            raise ValueError("vec_to_pid and storage disagree on vector count")
        if self.vec_to_pid.size and (np.diff(self.vec_to_pid) < 0).any():
            raise ValueError("vec_to_pid must group passages contiguously in pid order")
        if self.vec_to_pid.size:
            lo, hi = int(self.vec_to_pid[0]), int(self.vec_to_pid[-1])
            if lo < 0 or hi >= len(self.pids):
                raise ValueError("vec_to_pid references a pid outside the table")
        n = len(self.pids)
        self._offsets = np.searchsorted(self.vec_to_pid, np.arange(n + 1), side="left")
        self._pid_to_idx = {pid: i for i, pid in enumerate(self.pids)}
        if len(self._pid_to_idx) != n:
            raise ValueError("duplicate pid in index")
        # each pid's place in string order, so rankings break ties without strings
        self.pid_rank = np.empty(n, dtype=np.intp)
        self.pid_rank[sorted(range(n), key=self.pids.__getitem__)] = np.arange(n)
        self.ivf = ivf
        if ivf is not None and ivf.assignments.shape[0] != self.storage.shape[0]:
            raise ValueError("IVF assignments disagree with vector count")
        # Non-empty passages grouped by row count, as (pid positions, first rows,
        # row count), for the screen and the kernel; an upper bound on row norms.
        counts = self.row_counts()
        self._length_buckets = []
        for length in np.unique(counts[counts > 0]).tolist():
            positions = np.flatnonzero(counts == length)
            self._length_buckets.append((positions, self._offsets[positions], length))
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

    def rows_for(self, pid: str) -> tuple[int, int]:
        i = self._pid_to_idx[pid]
        return int(self._offsets[i]), int(self._offsets[i + 1])

    def row_counts(self) -> np.ndarray:
        return np.diff(self._offsets)

    def stacks(self, positions: np.ndarray, max_rows: int) -> Iterator[tuple[np.ndarray, ...]]:
        """The non-empty passages at `positions`, grouped by row count L and cut
        into stacks of at most max(L, max_rows) rows: per stack, the passages'
        positions and their float32 rows as an (n, L, dim) array."""
        wanted = np.zeros(len(self.pids), dtype=bool)
        wanted[positions] = True
        for bucket, first_rows, length in self._length_buckets:
            pick = np.flatnonzero(wanted[bucket])
            step = max(1, max_rows // length)
            for at in (pick[i : i + step] for i in range(0, pick.size, step)):
                yield bucket[at], self.storage[first_rows[at, None] + np.arange(length)]

    def screen_maxima(self, src: np.ndarray, out: np.ndarray) -> None:
        """Into float32 `out` (n_pids, len(src)): each passage's best float32 dot
        product per source row. One GEMM per block of source rows reads storage
        in place, each block's similarity matrix under SCREEN_BYTES; rows of
        empty passages are left as they were."""
        src = np.ascontiguousarray(src, dtype=np.float32)
        step = max(1, SCREEN_BYTES // (4 * max(1, self.n_vectors)))
        for at in range(0, src.shape[0], step):
            sims = self.storage @ src[at : at + step].T
            block = out[:, at : at + step]
            for positions, first_rows, length in self._length_buckets:
                best = sims[first_rows]
                for j in range(1, length):
                    np.maximum(best, sims[first_rows + j], out=best)
                block[positions] = best


class RowCache:
    """What each distinct source row alone determines, kept for one query.

    Each MaxSim term depends on one source row, and a multi-hop query repeats
    its rows: hop t+1 re-encodes hop t's rows before the new facts', and the
    hybrid rerank arm starts from the condensed arm's q0. Keyed by a row's
    float64 bits, the cache holds the row's IVF candidates (the pid positions
    `candidates_for` finds for it) and its screened maxima (every passage's
    best float32 dot product with it, one column of a float32 table). Both
    are functions of the index, the row's bits and results_per_vector alone,
    and the screen's error bound holds for any float32 summation order, so a
    cache saves work and cannot change a ranking. The table takes distinct
    screened rows x passages x 4 bytes; the token caps allow a query about
    1,000 distinct rows (512 per arm, q0 shared). One cache serves one query,
    used by one thread at a time; `row_cache` refuses it for another index or
    another results_per_vector.
    """

    def __init__(
        self, index: TokenIndex, results_per_vector: int = INFERENCE_RESULTS_PER_VECTOR
    ):
        self.index = index
        self.results_per_vector = results_per_vector
        self.candidates: dict[bytes, np.ndarray] = {}
        self._columns: dict[bytes, int] = {}
        self._maxima = np.empty((len(index.pids), 0), dtype=np.float32)

    def unseen(self, rows: np.ndarray) -> dict[bytes, np.ndarray]:
        """The float64 source rows not screened into this cache yet, one per
        distinct row, keyed by their bits."""
        return {
            key: row for key, row in zip(map(np.ndarray.tobytes, rows), rows)
            if key not in self._columns
        }

    def add(self, keys: Sequence[bytes], maxima: np.ndarray) -> None:
        """Keep float32 `maxima` (n_pids, len(keys)) as the columns of `keys`."""
        start = len(self._columns)
        grown = np.empty((len(self.index.pids), start + len(keys)), dtype=np.float32)
        grown[:, :start] = self._maxima
        grown[:, start:] = maxima
        self._maxima = grown
        self._columns.update((key, start + j) for j, key in enumerate(keys))

    def screened(self, rows: np.ndarray, pool: np.ndarray) -> np.ndarray:
        """Float32 (len(pool), len(rows)): the screened maxima of the passages at
        `pool` for each float64 source row, screening only the rows not seen yet."""
        keys = [row.tobytes() for row in rows]
        if not all(key in self._columns for key in keys):
            screen_caches(self.index, [(self, rows)])
        return self._maxima.take([self._columns[key] for key in keys], axis=1)[pool]


def screen_caches(index: TokenIndex, work: Sequence[tuple[RowCache, np.ndarray]]) -> None:
    """Screen each cache's float64 source rows that it has not seen, the rows
    of all caches stacked into one `screen_maxima` call, and keep each cache's
    columns in it. A row's maxima are the same alone and stacked up to float32
    summation order, which the screen's error bound covers."""
    fresh = [(row_cache(cache, index), cache.unseen(rows)) for cache, rows in work]
    fresh = [(cache, new) for cache, new in fresh if new]
    if not fresh:
        return
    src = np.array([row for _, new in fresh for row in new.values()])
    out = np.empty((len(index.pids), src.shape[0]), dtype=np.float32)
    index.screen_maxima(src, out)
    at = 0
    for cache, new in fresh:
        cache.add(list(new), out[:, at : at + len(new)])
        at += len(new)


def row_cache(
    cache: RowCache | None, index: TokenIndex, results_per_vector: int | None = None
) -> RowCache:
    """`cache`, or a fresh one when None. ValueError, naming the field, for a
    cache made for another index or (when given) another results_per_vector."""
    if cache is None:
        return RowCache(index, results_per_vector or INFERENCE_RESULTS_PER_VECTOR)
    if cache.index is not index:
        raise ValueError("RowCache index: the cache was filled from another index")
    if results_per_vector not in (None, cache.results_per_vector):
        raise ValueError(
            f"RowCache results_per_vector: the cache holds candidates at depth "
            f"{cache.results_per_vector}, not {results_per_vector}"
        )
    return cache


def _cluster_sums(vectors: np.ndarray, assign: np.ndarray, n_clusters: int) -> np.ndarray:
    """Per cluster, the sum of its member vectors added one by one in index order:
    the bits `np.add.at` gives, from one flat `np.bincount`, which is faster."""
    dim = vectors.shape[1]
    cells = (assign[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(cells, weights=vectors.ravel(), minlength=n_clusters * dim).reshape(
        n_clusters, dim
    )


def _kmeans(vectors: np.ndarray, n_centroids: int, seed: int) -> np.ndarray:
    """Spherical k-means under dot-product similarity.

    Fixed-seed sampling and initialization from distinct vectors; empty
    clusters are reseeded with the largest cluster's farthest member.
    Returns unit-norm float32 centroids.
    """
    rng = np.random.default_rng(seed)
    n = vectors.shape[0]
    if n_centroids > n:
        raise ValueError(f"centroid_count {n_centroids} exceeds vector count {n}")
    target = KMEANS_SAMPLE_FACTOR * n_centroids
    if n > target:
        pick = rng.choice(n, size=target, replace=False)
        pick.sort()
        train = vectors[pick].astype(np.float64)
    else:
        train = vectors.astype(np.float64)
    distinct = np.unique(train, axis=0)
    if distinct.shape[0] < n_centroids:
        raise ValueError(
            f"centroid_count {n_centroids} exceeds {distinct.shape[0]} distinct vectors"
        )
    init = rng.choice(distinct.shape[0], size=n_centroids, replace=False)
    centroids = distinct[np.sort(init)].copy()
    norms = np.linalg.norm(centroids, axis=1, keepdims=True)
    centroids /= np.maximum(norms, 1e-12)

    prev = None
    for _ in range(KMEANS_ITERS):
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
        sums = _cluster_sums(train, assign, n_centroids)
        norms = np.linalg.norm(sums, axis=1)
        ok = norms > 1e-12
        centroids[ok] = sums[ok] / norms[ok, None]
    return centroids.astype(np.float32)


def _assign_all(storage: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per vector by dot product, float64 math, blocked."""
    cent = centroids.astype(np.float64)
    out = np.empty(storage.shape[0], dtype=np.int32)
    for start in range(0, storage.shape[0], ASSIGN_BLOCK):
        chunk = storage[start : start + ASSIGN_BLOCK].astype(np.float64)
        out[start : start + chunk.shape[0]] = np.argmax(chunk @ cent.T, axis=1)
    return out


def build_index(
    corpus: Corpus, encoder: LexicalEncoder, cfg: IndexConfig | None = None
) -> TokenIndex:
    cfg = cfg or IndexConfig()
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    pids = []
    blocks = []
    vec_to_pid = []
    for i, passage in enumerate(corpus):
        rows = encoder.encode_passage(passage)
        pids.append(passage.pid)
        if rows.shape[0]:
            blocks.append(np.ascontiguousarray(rows, dtype=np.float32))
            vec_to_pid.append(np.full(rows.shape[0], i, dtype=np.int32))
    if not blocks:
        raise ValueError("corpus produced no token vectors")
    storage = np.concatenate(blocks, axis=0)
    mapping = np.concatenate(vec_to_pid)

    ivf = None
    if cfg.variant == VARIANT_IVF:
        n = storage.shape[0]
        n_centroids = cfg.centroid_count or math.ceil(math.sqrt(n))
        if n_centroids > n:
            raise ValueError(f"centroid_count {n_centroids} exceeds vector count {n}")
        centroids = _kmeans(storage, n_centroids, seed=cfg.seed)
        nprobe = cfg.nprobe or max(1, n_centroids // 64)
        ivf = IvfData(centroids, _assign_all(storage, centroids), nprobe)
    idx = TokenIndex(pids, mapping, storage, ivf)
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
    cache = row_cache(cache, index, results_per_vector)
    hit = np.zeros(len(index.pids), dtype=bool)
    ivf = index.ivf
    # matmul raises ValueError on a dim mismatch
    for row in np.concatenate([eq.query_part, eq.fact_part]).astype(np.float64):
        key = row.tobytes()
        if key not in cache.candidates:
            probe = np.argsort(-(ivf.centroids64 @ row), kind="stable")[: ivf.nprobe]
            cand = np.concatenate([ivf.lists[c] for c in probe])
            if results_per_vector < cand.size:
                ds = index.storage[cand].astype(np.float64) @ row
                keep = np.argpartition(-ds, results_per_vector - 1)[:results_per_vector]
                cand = cand[keep]
            cache.candidates[key] = index.vec_to_pid[cand]
        hit[cache.candidates[key]] = True
    return np.flatnonzero(hit)


def screens(pool: np.ndarray, k: int) -> bool:
    """Whether `rank_pool` screens `pool` for a top k: unless the band could not
    prune (2k >= pool size), when it scores the whole pool in one pass."""
    return 2 * k < pool.size


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
    cannot reach the top k (see `scoring`). The screen runs only for the
    source rows `cache` (a fresh one per call by default) has not seen.
    """
    cols = source_columns(eq)
    if screens(pool, k):
        maxima = row_cache(cache, index).screened(cols.T, pool)
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


def exact_topk_oracle(
    eq: EncodedQuery,
    corpus: Corpus,
    encoder: LexicalEncoder,
    k: int = 20,
    encodings: dict[str, np.ndarray] | None = None,
) -> Ranking:
    """Reference ranking of every passage: no index file, no candidate generation.

    Ranks through `rank_pool` over a flat index of the encodings, the
    kernel `retrieve` uses, so both produce the same float64 scores. Default
    focus; ties break by ascending pid. Pass precomputed encodings to
    amortize repeated corpus scans. Passages that encode to zero rows are
    unscorable and skipped.
    """
    mats = [encodings[p.pid] if encodings else encoder.encode_passage(p) for p in corpus]
    if not mats:
        return Ranking()
    counts = [m.shape[0] for m in mats]
    index = TokenIndex(corpus.pids, np.repeat(np.arange(len(mats)), counts), np.concatenate(mats))
    return rank_pool(eq, index, np.flatnonzero(counts), k, FocusParams())


def encode_corpus(corpus: Corpus, encoder: LexicalEncoder) -> dict[str, np.ndarray]:
    """Precompute passage encodings keyed by pid (for the oracle hot path)."""
    return {p.pid: encoder.encode_passage(p) for p in corpus}


def save_index(index: TokenIndex, path: str | Path) -> None:
    variant = 0 if index.ivf is None else 1
    with open(path, "wb") as fh:
        fh.write(_INDEX_MAGIC)
        fh.write(
            struct.pack(
                "<BBIQQ",
                _INDEX_VERSION,
                variant,
                index.dim,
                index.n_vectors,
                len(index.pids),
            )
        )
        for pid in index.pids:
            raw = pid.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError(f"pid too long to serialize: {pid[:32]!r}...")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(index.vec_to_pid, dtype="<i4").tobytes())
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


def _read_placed(fh, buf: np.ndarray, size: int, offset: int) -> memoryview:
    """The file's `size` bytes, read into `buf` so that byte `offset` lands on a
    STORAGE_ALIGN boundary, as a read-only view."""
    shift = -(buf.ctypes.data + offset) % STORAGE_ALIGN
    view = memoryview(buf)[shift : shift + size]
    fh.seek(0)
    if fh.readinto(view) != size:
        raise IndexFormatError(f"{fh.name}: truncated file")
    return view.toreadonly()


def load_index(path: str | Path) -> TokenIndex:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.empty(size + STORAGE_ALIGN, dtype=np.uint8)
        r = _Reader(_read_placed(fh, buf, size, 0), str(path))
        if r.take(4) != _INDEX_MAGIC:
            raise IndexFormatError(f"{path}: bad magic")
        version, variant, dim, n_vectors, n_pids = r.unpack("<BBIQQ")
        if version != _INDEX_VERSION:
            raise IndexFormatError(f"{path}: unsupported version {version}")
        if variant not in (0, 1):
            raise IndexFormatError(f"{path}: unknown variant byte {variant}")
        pids = []
        for _ in range(n_pids):
            (length,) = r.unpack("<H")
            try:
                pids.append(r.take(length).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise IndexFormatError(f"{path}: pid {len(pids)} is not UTF-8: {exc}") from None
        # The pid table has any length: read again, shifted, if storage would be misaligned.
        storage_at = r.pos + 4 * n_vectors
        if storage_at % STORAGE_ALIGN:
            r.blob = _read_placed(fh, buf, size, storage_at)
    vec_to_pid = r.array("<i4", n_vectors)
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
        return TokenIndex(pids, vec_to_pid, storage, ivf)
    except ValueError as exc:
        raise IndexFormatError(f"{path}: {exc}") from None
