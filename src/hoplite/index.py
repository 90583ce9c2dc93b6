"""Token-vector index over a passage corpus.

Every passage contributes one row per token to a single float32 storage
matrix; vec_to_pid maps storage rows back to passages. Search on the flat
variant is exact: retrieval scores every passage. The IVF variant buckets
vectors under k-means centroids; `candidates_for` probes the nearest few
lists per source vector and keeps each vector's top results_per_vector
hits, and retrieval scores only those candidate passages, whole.
results_per_vector therefore applies to IVF indexes only.

On-disk layout (all little-endian):
  magic "HLTI" | u8 version | u8 variant | u32 dim | u64 n_vectors | u64 n_pids
  pid table: n_pids x (u16 byte length + UTF-8 bytes)
  vec_to_pid: n_vectors x i32
  vectors:    n_vectors x dim x f32
  IVF block (variant=1 only):
    u32 n_centroids | u32 nprobe
    centroids: n_centroids x dim x f32 | assignments: n_vectors x i32
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus
from .encoder import EncodedQuery, Encoder, PassageEncoding
from .scoring import ScoredPassage, rank_scored, score_segments

logger = logging.getLogger(__name__)

VARIANT_FLAT = "flat"
VARIANT_IVF = "ivf"

# Candidate depth per source vector: shallower while mining supervision,
# deeper at inference time.
TRAINING_RESULTS_PER_VECTOR = 256
INFERENCE_RESULTS_PER_VECTOR = 512

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
    kmeans_iters: int = 25
    sample_factor: int = 64

    def __post_init__(self) -> None:
        if self.variant not in (VARIANT_FLAT, VARIANT_IVF):
            raise ValueError(f"unknown index variant {self.variant!r}")
        if self.centroid_count is not None and self.centroid_count < 1:
            raise ValueError("centroid_count must be positive")
        if self.nprobe is not None and self.nprobe < 1:
            raise ValueError("nprobe must be positive")
        if self.kmeans_iters < 1:
            raise ValueError("kmeans_iters must be positive")


class IvfData:
    """Centroids plus per-vector assignments, with inverted lists built once."""

    def __init__(self, centroids: np.ndarray, assignments: np.ndarray, nprobe: int):
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
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
        self.storage = np.ascontiguousarray(storage, dtype=np.float32)
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
        self.ivf = ivf
        if ivf is not None and ivf.assignments.shape[0] != self.storage.shape[0]:
            raise ValueError("IVF assignments disagree with vector count")

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

    def stacked_rows(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Float64 rows of the passages at `positions` (distinct, ascending, none
        empty) and each one's first row: the input of `score_segments`. Converts
        storage once per call; the index keeps no float64 copy."""
        counts = self.row_counts()[positions]
        starts = np.cumsum(counts) - counts
        n = int(counts.sum())
        gather = np.repeat(self._offsets[positions] - starts, counts) + np.arange(n)
        return self.storage[gather].astype(np.float64), starts


def _kmeans(
    vectors: np.ndarray,
    n_centroids: int,
    seed: int,
    max_iters: int = 25,
    sample_factor: int = 64,
) -> np.ndarray:
    """Spherical k-means under dot-product similarity.

    Fixed-seed sampling and initialization from distinct vectors; empty
    clusters are reseeded with the largest cluster's farthest member.
    Returns unit-norm float32 centroids.
    """
    rng = np.random.default_rng(seed)
    n = vectors.shape[0]
    if n_centroids > n:
        raise ValueError(f"centroid_count {n_centroids} exceeds vector count {n}")
    target = sample_factor * n_centroids
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
    for _ in range(max_iters):
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
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, train)
        norms = np.linalg.norm(sums, axis=1)
        ok = norms > 1e-12
        centroids[ok] = sums[ok] / norms[ok, None]
    return centroids.astype(np.float32)


def _assign_all(storage: np.ndarray, centroids: np.ndarray, block: int = 8192) -> np.ndarray:
    """Nearest centroid per vector by dot product, float64 math, blocked."""
    cent = centroids.astype(np.float64)
    out = np.empty(storage.shape[0], dtype=np.int32)
    for start in range(0, storage.shape[0], block):
        chunk = storage[start : start + block].astype(np.float64)
        out[start : start + chunk.shape[0]] = np.argmax(chunk @ cent.T, axis=1)
    return out


def build_index(corpus: Corpus, encoder: Encoder, cfg: IndexConfig | None = None) -> TokenIndex:
    cfg = cfg or IndexConfig()
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    pids = []
    blocks = []
    vec_to_pid = []
    for i, passage in enumerate(corpus):
        enc = encoder.encode_passage(passage)
        pids.append(passage.pid)
        if enc.matrix.shape[0]:
            blocks.append(np.ascontiguousarray(enc.matrix, dtype=np.float32))
            vec_to_pid.append(np.full(enc.matrix.shape[0], i, dtype=np.int32))
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
        centroids = _kmeans(
            storage,
            n_centroids,
            seed=cfg.seed,
            max_iters=cfg.kmeans_iters,
            sample_factor=cfg.sample_factor,
        )
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


@dataclass(frozen=True)
class CandidateSet:
    """Candidate passages for one encoded query: their positions in the
    index's pid table (ascending) and their per-vector hit counts."""

    positions: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.positions.size)


def candidates_for(
    eq: EncodedQuery,
    index: TokenIndex,
    results_per_vector: int = INFERENCE_RESULTS_PER_VECTOR,
) -> CandidateSet:
    """Union of per-source-row nearest vectors on an IVF index, as passage hit counts.

    Every query row and fact row is a source row. Each scans its nprobe
    nearest centroid lists and contributes its top results_per_vector
    vectors there by dot product. A flat index has no candidate stage.
    """
    if index.ivf is None:
        raise ValueError("candidates_for needs an IVF index; flat search scores every passage")
    if results_per_vector < 1:
        raise ValueError("results_per_vector must be positive")
    n_pids = len(index.pids)
    counts = np.zeros(n_pids, dtype=np.int64)
    ivf = index.ivf
    cent64 = ivf.centroids.astype(np.float64)
    # matmul raises ValueError on a dim mismatch
    for row in np.concatenate([eq.query_part, eq.fact_part]).astype(np.float64):
        probe = np.argsort(-(cent64 @ row), kind="stable")[: ivf.nprobe]
        cand = np.concatenate([ivf.lists[c] for c in probe])
        if results_per_vector < cand.size:
            ds = index.storage[cand].astype(np.float64) @ row
            keep = np.argpartition(-ds, results_per_vector - 1)[:results_per_vector]
            cand = cand[keep]
        counts += np.bincount(index.vec_to_pid[cand], minlength=n_pids)
    positions = np.flatnonzero(counts)
    return CandidateSet(positions, counts[positions])


def exact_topk_oracle(
    eq: EncodedQuery,
    corpus: Corpus,
    encoder: Encoder,
    k: int = 20,
    encodings: dict[str, PassageEncoding] | None = None,
) -> list[ScoredPassage]:
    """Brute-force reference: score every passage in one kernel call, rank, truncate.

    No index, no candidate generation; default focus; ties break by
    ascending pid. Pass precomputed encodings to amortize repeated corpus
    scans. Passages that encode to zero rows are unscorable and skipped.
    """
    pids: list[str] = []
    mats: list[np.ndarray] = []
    for passage in corpus:
        enc = encodings[passage.pid] if encodings else encoder.encode_passage(passage)
        if enc.matrix.shape[0]:
            pids.append(passage.pid)
            mats.append(enc.matrix)
    if not mats:
        return []
    counts = np.array([m.shape[0] for m in mats])
    rows = np.concatenate(mats, dtype=np.float64)
    s_query, s_fact = score_segments(eq, rows, np.cumsum(counts) - counts)
    return rank_scored(pids, s_query, s_fact, k)


def encode_corpus(corpus: Corpus, encoder: Encoder) -> dict[str, PassageEncoding]:
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
    def __init__(self, blob: bytes, path: str):
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
        return self.blob[start : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """Read-only view into the blob; the loaded index holds no second copy."""
        start = self._advance(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.blob, dtype=dtype, count=count, offset=start)


def load_index(path: str | Path) -> TokenIndex:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, str(path))
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
        pids.append(r.take(length).decode("utf-8"))
    vec_to_pid = r.array("<i4", n_vectors)
    storage = r.array("<f4", n_vectors * dim).reshape(n_vectors, dim)
    ivf_arrays = None
    if variant == 1:
        n_centroids, nprobe = r.unpack("<II")
        centroids = r.array("<f4", n_centroids * dim).reshape(n_centroids, dim)
        ivf_arrays = (centroids, r.array("<i4", n_vectors), nprobe)
    if r.pos != len(blob):
        raise IndexFormatError(f"{path}: {len(blob) - r.pos} trailing bytes")
    try:  # a structural error in the arrays is a format error of this file
        ivf = IvfData(*ivf_arrays) if ivf_arrays else None
        return TokenIndex(pids, vec_to_pid, storage, ivf)
    except ValueError as exc:
        raise IndexFormatError(f"{path}: {exc}") from None
