import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoplite import index as index_mod
from hoplite.corpus import Corpus, MultiHopQuery, Passage
from hoplite.encoder import EncodedQuery, EncoderConfig, LexicalEncoder
from hoplite.index import (
    STORAGE_ALIGN,
    IndexConfig,
    IndexFormatError,
    IvfData,
    RowCache,
    TokenIndex,
    _cluster_sums,
    build_index,
    candidates_for,
    load_index,
    save_index,
)
from hoplite.retriever import RetrievalConfig, retrieve
from hoplite.scoring import FocusParams, flipr_score
from hoplite.synth import PlantSpec, generate

from oracle import (
    build_index_pid_order,
    encode_corpus,
    exact_topk_oracle,
    from_passages,
    rows_for,
)


def _word_corpus(n_passages: int, tokens_per: int, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:03d}" for i in range(200)]
    passages = []
    for i in range(n_passages):
        words = rng.choice(vocab, size=tokens_per, replace=False)
        passages.append(
            Passage(pid=f"p{i:03d}", title="", sentences=(" ".join(words),))
        )
    return Corpus(passages)


def _query(text: str) -> MultiHopQuery:
    return MultiHopQuery(qid="q", q0_text=text, facts=())


def _probe_all(corpus, enc, centroids=4):
    """An IVF index that probes every list, so only results_per_vector prunes."""
    cfg = IndexConfig(variant="ivf", centroid_count=centroids, nprobe=centroids, seed=0)
    return build_index(corpus, enc, cfg)


def _hits(idx, positions):
    """The pids at candidate positions, which must be ascending and distinct."""
    assert np.all(np.diff(positions) > 0)
    return {idx.pids[i] for i in positions.tolist()}


def _brute_force_hits(eq, idx, rpv):
    """Each source row's top-rpv storage vectors by float64 dot product, as pids."""
    rows = np.concatenate([eq.query_part, eq.fact_part]).astype(np.float64)
    sims = rows @ idx.storage.astype(np.float64).T
    tops = [np.argpartition(-row, rpv - 1)[:rpv] for row in sims]
    return {idx.pids[j] for top in tops for j in idx.vec_to_pid[top]}


def _pid_rows(idx):
    """The storage rows of `idx` in pid order: passage by passage, row by row."""
    return np.concatenate([np.arange(*rows_for(idx, pid)) for pid in idx.pids])


def test_flat_index_vector_layout():
    enc = LexicalEncoder(EncoderConfig(dim=16, seed=0))
    corpus = Corpus(
        [
            Passage(pid="a", title="", sentences=("one two three four",)),
            Passage(pid="b", title="", sentences=("five six seven eight",)),
            Passage(pid="c", title="", sentences=("nine ten eleven twelve",)),
        ]
    )
    idx = build_index(corpus, enc)
    assert idx.variant == "flat"
    assert idx.n_vectors == 12
    assert idx.dim == 16
    assert idx.pids == ("a", "b", "c")
    assert list(idx.row_counts()) == [4, 4, 4]
    assert rows_for(idx, "b") == (4, 8)
    assert np.array_equal(idx.storage[4:8], enc.encode_passage(corpus.get("b")))
    assert idx.storage.dtype == np.float32


def test_index_keeps_tokenless_passage_pid():
    enc = LexicalEncoder(EncoderConfig(dim=16, seed=0))
    corpus = Corpus(
        [
            Passage(pid="a", title="", sentences=("real words here",)),
            Passage(pid="empty", title="", sentences=("!!!",)),
        ]
    )
    idx = build_index(corpus, enc)
    assert idx.pids == ("a", "empty")
    assert rows_for(idx, "empty") == (0, 0)  # row count 0 sorts before every bucket
    assert list(idx.row_counts()) == [3, 0]


def test_storage_groups_passages_by_row_count():
    # row counts 3, 1, 2, 1, 0 in pid order: buckets in ascending row count,
    # passages within one in pid order, the pid table left as it is
    enc = LexicalEncoder(EncoderConfig(dim=16, seed=0))
    texts = ["one two three", "four", "five six", "seven", "!!!"]
    corpus = Corpus([Passage(pid=f"p{i}", title="", sentences=(t,)) for i, t in enumerate(texts)])
    idx = build_index(corpus, enc)
    assert idx.pids == ("p0", "p1", "p2", "p3", "p4")
    assert list(idx.row_counts()) == [3, 1, 2, 1, 0]
    assert [rows_for(idx, pid) for pid in idx.pids] == [(4, 7), (0, 1), (2, 4), (1, 2), (0, 0)]
    assert idx.vec_to_pid.tolist() == [1, 3, 2, 2, 0, 0, 0]
    for passage in corpus:
        lo, hi = rows_for(idx, passage.pid)
        assert np.array_equal(idx.storage[lo:hi], enc.encode_passage(passage))
    assert not idx.row_counts().flags.writeable


def test_build_index_rejects_empty_corpus(enc):
    with pytest.raises(ValueError):
        build_index(Corpus([]), enc)


def test_ivf_candidates_rpv_covering_all_vectors(enc, tiny_corpus):
    idx = _probe_all(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage rome tiber"))
    hits = _hits(idx, candidates_for(eq, idx, results_per_vector=idx.n_vectors))
    assert hits == set(tiny_corpus.pids)


def test_ivf_candidates_bounded_by_rpv(enc, tiny_corpus):
    idx = _probe_all(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage rome"))
    rpv = 3
    cands = candidates_for(eq, idx, results_per_vector=rpv)
    assert 0 < len(cands) <= eq.query_part.shape[0] * rpv


def test_candidates_source_modes(enc, tiny_corpus):
    from hoplite.corpus import Fact

    idx = _probe_all(tiny_corpus, enc)
    facts = (Fact(pid="p1", sentence_index=0, text="tiber"),)
    eq = enc.encode_query(
        MultiHopQuery(qid="q", q0_text="carthage", facts=facts)
    )
    only_query = _hits(idx, candidates_for(enc.encode_query(_query("carthage")), idx, 2))
    both = _hits(idx, candidates_for(eq, idx, results_per_vector=2))
    assert only_query < both  # the fact row adds its own nearest vectors
    assert any("tiber" in tiny_corpus.get(pid).text for pid in both - only_query)


def test_candidates_empty_query(enc, tiny_corpus):
    idx = _probe_all(tiny_corpus, enc)
    eq = enc.encode_query(_query(""))
    assert len(candidates_for(eq, idx)) == 0


def test_candidates_rejects_bad_rpv(enc, tiny_corpus):
    idx = _probe_all(tiny_corpus, enc)
    eq = enc.encode_query(_query("rome"))
    with pytest.raises(ValueError, match="results_per_vector"):
        candidates_for(eq, idx, results_per_vector=0)


def test_candidates_reject_flat_index(enc, tiny_corpus):
    # flat search is exact: it has no candidate stage to ask
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("rome"))
    with pytest.raises(ValueError, match="IVF"):
        candidates_for(eq, idx)


def test_ivf_assignments_match_brute_force():
    enc = LexicalEncoder(EncoderConfig(dim=32, seed=1))
    corpus = _word_corpus(60, 8, seed=2)
    cfg = IndexConfig(variant="ivf", centroid_count=6, seed=5)
    idx = build_index(corpus, enc, cfg)
    ivf = idx.ivf
    assert ivf is not None
    assert ivf.n_centroids == 6
    sims = idx.storage.astype(np.float64) @ ivf.centroids.astype(np.float64).T
    assert np.array_equal(ivf.assignments, np.argmax(sims, axis=1).astype(np.int32))
    # inverted lists partition the vector ids, each list in pid order
    all_ids = np.sort(np.concatenate(idx.ivf_lists))
    assert np.array_equal(all_ids, np.arange(idx.n_vectors))
    pid_order = np.argsort(_pid_rows(idx))  # each storage row's place in pid order
    for c, members in enumerate(idx.ivf_lists):
        assert np.all(ivf.assignments[members] == c)
        assert np.all(np.diff(pid_order[members]) > 0)


def test_ivf_probe_all_equals_flat():
    # Probing every list must equal a flat scan over all vectors.
    enc = LexicalEncoder(EncoderConfig(dim=32, seed=1))
    corpus = _word_corpus(40, 6, seed=3)
    ivf = _probe_all(corpus, enc, centroids=5)
    eq = LexicalEncoder(EncoderConfig(dim=32, seed=1)).encode_query(
        _query("w001 w017 w123")
    )
    rpv = 9
    assert _hits(ivf, candidates_for(eq, ivf, rpv)) == _brute_force_hits(eq, ivf, rpv)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 64), st.integers(2, 5))
def test_cached_candidates_are_the_brute_force_hits(seed, dim, n_calls):
    # Every list probed, so only the depth prunes. A sequence of queries shares
    # one cache; their rows repeat within a query, recur across queries, differ
    # in one entry, and include float64 twins of float32 rows; each query may
    # add fresh rows.
    rng = np.random.default_rng(seed)
    n_passages = int(rng.integers(2, 30))
    counts = rng.integers(1, 8, n_passages)
    storage = rng.standard_normal((int(counts.sum()), dim)).astype(np.float32)
    n_c = int(rng.integers(1, 6))
    centroids = rng.standard_normal((n_c, dim)).astype(np.float32)
    ivf = IvfData(centroids, np.argmax(storage @ centroids.T, axis=1), nprobe=n_c)
    idx = from_passages([f"p{i}" for i in range(n_passages)],
                        np.split(storage, np.cumsum(counts)[:-1]), ivf)
    rpv = int(rng.integers(1, storage.shape[0] + 1))
    base = rng.standard_normal((6, dim)).astype(np.float32)
    base[3:, :-1] = base[:3, :-1]  # rows that differ in their last entry only
    twins = base.astype(np.float64) * (1 + 2.0**-40)
    cache = RowCache(idx)
    for _ in range(n_calls):
        parts = []
        for n in rng.integers(0, 8, 2):
            pick = rng.integers(0, len(base), n)
            rows = np.concatenate([base[pick], twins[pick][: n // 2],
                                   rng.standard_normal((int(rng.integers(0, 2)), dim))])
            parts.append(rows[rng.permutation(len(rows))])
        eq = EncodedQuery(*parts)
        got = candidates_for(eq, idx, rpv, cache)
        assert np.array_equal(got, candidates_for(eq, idx, rpv))  # a fresh cache per call
        assert _hits(idx, got) == _brute_force_hits(eq, idx, rpv)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), screen_bytes=st.sampled_from([1, 300, 4096]))
def test_screen_maxima_in_reused_buffers_are_the_bits_of_each_blocks_gemm(seed, screen_bytes):
    """Screened into an `out` and a `scratch` that hold an earlier screen's
    values, the scratch larger than it needs to be, each passage's maxima
    are the bits of the float32 GEMM of each block of source rows under
    SCREEN_BYTES, maxed over the passage's rows; empty passages exist too."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 40))
    counts = rng.integers(0, 6, int(rng.integers(1, 25)))
    counts[0] = max(int(counts[0]), 1)
    pids = [f"p{i}" for i in range(counts.size)]
    idx = from_passages(pids, [rng.standard_normal((int(c), dim)).astype(np.float32)
                               for c in counts])
    src = rng.standard_normal((int(rng.integers(1, 12)), dim)).astype(np.float32)
    out = np.empty((len(src), len(pids)), dtype=np.float32)
    scratch = np.empty(2 * idx.screen_scratch(len(src)) + 5, dtype=np.float32)
    with patch.object(index_mod, "SCREEN_BYTES", screen_bytes):
        idx.screen_maxima(rng.standard_normal(src.shape), out, scratch)  # leaves its values
        got = idx.screen_maxima(src, out, scratch)
    step = max(1, screen_bytes // (4 * idx.n_vectors))
    sims = np.concatenate([idx.storage @ src[at : at + step].T
                           for at in range(0, len(src), step)], axis=1)
    for i, pid in enumerate(pids):
        if counts[i]:
            lo, hi = rows_for(idx, pid)
            want = sims[lo:hi].max(axis=0)
            assert np.array_equal(got[:, i].view(np.uint32), want.view(np.uint32))


def test_ivf_default_centroids_and_nprobe():
    enc = LexicalEncoder(EncoderConfig(dim=16, seed=0))
    corpus = _word_corpus(30, 5, seed=1)  # 150 vectors -> ceil(sqrt) = 13
    idx = build_index(corpus, enc, IndexConfig(variant="ivf", seed=0))
    assert idx.ivf.n_centroids == 13
    assert idx.ivf.nprobe == 1


@pytest.mark.parametrize("name", ["centroid_count", "nprobe"])
@pytest.mark.parametrize("bad", ["abc", 2.5, True, 0])
def test_index_config_ivf_sizes_must_be_positive_ints(name, bad):
    with pytest.raises(ValueError, match=name):
        IndexConfig(variant="ivf", **{name: bad})
    assert getattr(IndexConfig(variant="ivf", **{name: 3}), name) == 3


def test_ivf_rejects_more_centroids_than_vectors(enc):
    corpus = Corpus([Passage(pid="a", title="", sentences=("just two",))])
    with pytest.raises(ValueError, match="centroid_count"):
        build_index(corpus, enc, IndexConfig(variant="ivf", centroid_count=10))


def test_kmeans_deterministic():
    enc = LexicalEncoder(EncoderConfig(dim=32, seed=1))
    corpus = _word_corpus(50, 6, seed=4)
    cfg = IndexConfig(variant="ivf", centroid_count=7, seed=9)
    a = build_index(corpus, enc, cfg)
    b = build_index(corpus, enc, cfg)
    assert np.array_equal(a.ivf.centroids, b.ivf.centroids)
    assert np.array_equal(a.ivf.assignments, b.ivf.assignments)


def _mixed_corpus() -> Corpus:
    """Passages of 0 to 7 rows in no order of row count, words shared among them."""
    rng = np.random.default_rng(11)
    vocab = [f"w{i:02d}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=n, replace=False)) if n else "!!!"
             for n in rng.integers(0, 8, 60)]
    return Corpus([Passage(pid=f"p{i}", title="", sentences=(t,)) for i, t in enumerate(texts)])


# One row per passage, w38 repeated: at this seed and 4 centroids a cluster
# empties and k-means reseeds it.
_RESEED_WORDS = ("w38 w38 w47 w38 w41 w53 w38 w20 w38 w2 w28 w38 w38 w20 w20 w38 w38 w38 w38 "
                 "w38 w38 w22 w38 w38 w38 w15 w38 w38 w38 w38 w2 w38 w38 w22 w38 w38 w13 w47 "
                 "w38 w38 w53 w38 w38").split()


def _synth_corpus(size: int) -> Corpus:
    return generate(PlantSpec(corpus_size=size, queries=size // 24, seed=3)).corpus


@pytest.mark.parametrize("case", ["flat", "unsampled", "sampled", "empty-passages",
                                  "short-tail-block", "reseed"])
def test_build_index_writes_the_bytes_of_the_pid_order_build(tmp_path, monkeypatch, case):
    # build_index encodes into storage order and reads k-means' rows through
    # the pid-order row map; the oracle concatenates the rows in pid order
    # and runs the plain k-means. The saved files must be the same bytes.
    enc = LexicalEncoder(EncoderConfig(dim=32, seed=1))
    corpus = _word_corpus(60, 8, seed=2)  # 480 rows, 22 centroids: unsampled
    cfg = IndexConfig(variant="ivf", seed=5)
    if case == "flat":
        cfg = IndexConfig()
    elif case == "sampled":  # 4,699 rows over 64 x 69 centroids
        corpus, enc = _synth_corpus(600), LexicalEncoder()
    elif case == "empty-passages":
        corpus, cfg = _mixed_corpus(), IndexConfig(variant="ivf", centroid_count=4, seed=5)
    elif case == "short-tail-block":  # 240 rows: blocks of 7, 2 in the last
        monkeypatch.setattr(index_mod, "ASSIGN_BLOCK", 7)
        corpus = _mixed_corpus()
    elif case == "reseed":
        corpus = Corpus([Passage(pid=f"p{i:02d}", title="", sentences=(w,))
                         for i, w in enumerate(_RESEED_WORDS)])
        enc = LexicalEncoder(EncoderConfig(dim=8, seed=0))
        cfg = IndexConfig(variant="ivf", centroid_count=4, seed=14058)
    reseeds = []
    argmin = np.argmin  # k-means calls it only to reseed an empty cluster
    monkeypatch.setattr(np, "argmin", lambda *a, **kw: reseeds.append(1) or argmin(*a, **kw))
    save_index(build_index(corpus, enc, cfg), tmp_path / "built.idx")
    monkeypatch.setattr(np, "argmin", argmin)
    assert bool(reseeds) == (case == "reseed")
    save_index(build_index_pid_order(corpus, enc, cfg), tmp_path / "oracle.idx")
    assert (tmp_path / "built.idx").read_bytes() == (tmp_path / "oracle.idx").read_bytes()


def test_build_index_peak_memory():
    # tracemalloc's peak over building a 600-passage IVF index (4,699 rows):
    # 18.8 MiB with the rows written once into storage, 24.9 MiB when the
    # build held per-passage blocks and a pid-order copy of them besides.
    corpus = _synth_corpus(600)
    tracemalloc.start()
    try:
        build_index(corpus, LexicalEncoder(), IndexConfig(variant="ivf", seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21.5 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("n_big", [3, 1000])
def test_cluster_sums_are_the_bits_of_add_at(n_big):
    # pairwise summation (as in np.add.reduceat) would change the bits
    rng = np.random.default_rng(n_big)
    assign = np.concatenate([np.zeros(n_big, int), rng.integers(0, 7, 200), np.arange(7)])
    rng.shuffle(assign)
    vectors = rng.standard_normal((assign.size, 16))
    want = np.zeros((7, 16))
    np.add.at(want, assign, vectors)
    got = _cluster_sums(vectors, assign, 7)
    assert got.tobytes() == want.tobytes()


def test_max_row_norm_bounds_every_row():
    rng = np.random.default_rng(5)
    storage = (rng.standard_normal((300, 64)) * rng.uniform(0.1, 3.0, (300, 1))).astype(np.float32)
    idx = TokenIndex(["a", "b"], [150, 150], storage)
    true_max = np.linalg.norm(storage.astype(np.float64), axis=1).max()
    assert true_max <= idx.max_row_norm <= true_max * (1 + 1e-5)


def test_exact_topk_oracle_matches_manual_loop(enc, tiny_corpus):
    eq = enc.encode_query(_query("carthage fought rome"))
    focus = FocusParams(n_hat=32, l_hat=8)
    manual = []
    for pid in tiny_corpus.pids:
        rows = enc.encode_passage(tiny_corpus.get(pid))
        manual.append(flipr_score(eq, rows, focus, pid=pid))
    manual.sort(key=lambda sp: (-sp.score, sp.pid))
    got = exact_topk_oracle(eq, tiny_corpus, enc, k=3)
    assert [sp.pid for sp in got] == [sp.pid for sp in manual[:3]]
    assert [(sp.pid, sp.score) for sp in got] == [(sp.pid, sp.score) for sp in manual[:3]]


def test_exact_topk_oracle_uses_no_index_code(enc, tiny_corpus, monkeypatch):
    """The oracle checks `retrieve`'s pool ranking, so it must not run it."""
    eq = enc.encode_query(_query("carthage fought rome"))
    want = [(sp.pid, sp.score) for sp in exact_topk_oracle(eq, tiny_corpus, enc, k=4)]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran index code")

    for name in ("rank_pool", "TokenIndex", "rank_scored", "screen_sums"):
        monkeypatch.setattr(f"hoplite.index.{name}", refuse)
    assert [(sp.pid, sp.score) for sp in exact_topk_oracle(eq, tiny_corpus, enc, k=4)] == want


def test_exact_topk_oracle_with_precomputed_encodings(enc, tiny_corpus):
    eq = enc.encode_query(_query("tiber river sea"))
    encs = encode_corpus(tiny_corpus, enc)
    a = exact_topk_oracle(eq, tiny_corpus, enc, k=4)
    b = exact_topk_oracle(eq, tiny_corpus, enc, k=4, encodings=encs)
    assert [(sp.pid, sp.score) for sp in a] == [(sp.pid, sp.score) for sp in b]


def test_save_load_round_trip_flat(tmp_path, enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    path = tmp_path / "flat.hlti"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded.pids == idx.pids
    assert np.array_equal(loaded.vec_to_pid, idx.vec_to_pid)
    assert np.array_equal(loaded.row_counts(), idx.row_counts())
    assert loaded.storage.tobytes() == idx.storage.tobytes()
    assert loaded.fingerprint == idx.fingerprint == enc.fingerprint()
    assert loaded.ivf is None
    # Storage is a read-only view of the file blob, not a second copy, and
    # what the index derives from the row counts is read-only too.
    assert not loaded.storage.flags.writeable
    assert loaded.storage.base is not None
    assert not loaded.vec_to_pid.flags.writeable
    eq = enc.encode_query(_query("rome tiber"))
    assert list(retrieve(eq, loaded)) == list(retrieve(eq, idx))


@pytest.mark.parametrize("variant", ["flat", "ivf"])
@pytest.mark.parametrize("pid", ["a", "abc", "abcd"])
def test_loaded_storage_is_aligned_whatever_the_pid_table_length(tmp_path, variant, pid):
    enc = LexicalEncoder(EncoderConfig(dim=16, seed=0))
    corpus = Corpus([Passage(pid=pid, title="", sentences=("one two three four five",))])
    idx = build_index(corpus, enc, IndexConfig(variant=variant, centroid_count=2))
    path = tmp_path / "index.hlti"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded.storage.flags.aligned
    assert loaded.storage.ctypes.data % STORAGE_ALIGN == 0
    assert not loaded.storage.flags.writeable  # still a view of the read buffer
    assert loaded.storage.tobytes() == idx.storage.tobytes()


def test_save_load_round_trip_ivf(tmp_path):
    enc = LexicalEncoder(EncoderConfig(dim=32, seed=1))
    corpus = _word_corpus(40, 6, seed=3)
    idx = build_index(corpus, enc, IndexConfig(variant="ivf", centroid_count=5, seed=2))
    path = tmp_path / "ivf.hlti"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded.variant == "ivf"
    assert loaded.ivf.nprobe == idx.ivf.nprobe
    assert loaded.ivf.centroids.tobytes() == idx.ivf.centroids.tobytes()
    assert np.array_equal(loaded.ivf.assignments, idx.ivf.assignments)
    assert not loaded.storage.flags.writeable
    assert not loaded.ivf.centroids.flags.writeable
    assert not loaded.ivf.assignments.flags.writeable
    eq = enc.encode_query(_query("w001 w017 w123"))
    assert _hits(loaded, candidates_for(eq, loaded, 4)) == _hits(idx, candidates_for(eq, idx, 4))


@pytest.mark.parametrize("bad", [99, -1])
def test_load_rejects_out_of_range_assignment(tmp_path, bad):
    enc = LexicalEncoder(EncoderConfig(dim=16, seed=0))
    idx = build_index(_word_corpus(30, 5, seed=1), enc, IndexConfig(variant="ivf", seed=0))
    path = tmp_path / "ivf.hlti"
    save_index(idx, path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.array([bad], dtype="<i4").tobytes()  # the last assignment
    path.write_bytes(bytes(raw))
    with pytest.raises(IndexFormatError, match=re.escape(str(path))):
        load_index(path)


def test_load_rejects_pid_that_is_not_utf8(tmp_path, enc, tiny_corpus):
    path = tmp_path / "t.hlti"
    save_index(build_index(tiny_corpus, enc), path)
    raw = bytearray(path.read_bytes())
    raw[4 + struct.calcsize("<BBIQQ") + struct.calcsize("<I16s") + 2] = 0xFF  # first pid byte
    path.write_bytes(bytes(raw))
    with pytest.raises(IndexFormatError, match=re.escape(str(path)) + ".*UTF-8"):
        load_index(path)


def test_save_twice_is_byte_identical(tmp_path, enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    p1, p2 = tmp_path / "a.hlti", tmp_path / "b.hlti"
    save_index(idx, p1)
    save_index(idx, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hlti"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(IndexFormatError):
        load_index(path)


@settings(max_examples=15, deadline=None)
@given(
    n_passages=st.integers(1, 6),
    dim=st.integers(8, 12),
    ivf=st.booleans(),
    seed=st.integers(0, 3),
)
def test_load_rejects_truncation(n_passages, dim, ivf, seed):
    # every proper prefix of a saved index fails as a format error
    enc = LexicalEncoder(EncoderConfig(dim=dim, seed=seed))
    cfg = IndexConfig(variant="ivf" if ivf else "flat", centroid_count=1 if ivf else None)
    idx = build_index(_word_corpus(n_passages, 2, seed=seed), enc, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.hlti"
        save_index(idx, path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(IndexFormatError):
                load_index(path)


def test_load_rejects_trailing_bytes(tmp_path, enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    path = tmp_path / "t.hlti"
    save_index(idx, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IndexFormatError):
        load_index(path)


@pytest.mark.parametrize("seed", range(12))
def test_candidates_cut_exact_ties_in_pid_order(seed):
    # Copies of one vector sit in passages of several row counts, so the depth
    # cut falls among exact ties. With one list holding every row, the cut must
    # keep what a scan of the rows in pid order keeps: storage order, grouped by
    # row count, must not decide which tied passages are candidates.
    rng = np.random.default_rng(seed)
    dim = 8
    dup = rng.standard_normal(dim).astype(np.float32)
    passages = []
    for _ in range(int(rng.integers(8, 20))):
        rows = (0.1 * rng.standard_normal((int(rng.integers(1, 6)), dim))).astype(np.float32)
        if rng.random() < 0.6:
            rows[rng.integers(0, rows.shape[0])] = dup
        passages.append(rows)
    pid_order = np.concatenate(passages)
    owner = np.repeat(np.arange(len(passages)), [m.shape[0] for m in passages])
    ivf = IvfData(dup[None, :], np.zeros(pid_order.shape[0], dtype=np.int32), nprobe=1)
    idx = from_passages([f"p{i}" for i in range(len(passages))], passages, ivf)
    eq = EncodedQuery(dup[None, :], np.zeros((0, dim), dtype=np.float32))
    ds = pid_order.astype(np.float64) @ dup.astype(np.float64)
    for rpv in range(1, int((pid_order == dup).all(axis=1).sum()) + 1):
        want = np.unique(owner[np.argpartition(-ds, rpv - 1)[:rpv]])
        assert np.array_equal(candidates_for(eq, idx, rpv), want)


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 7), min_size=1, max_size=12),
    ivf=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_round_trip_over_mixed_row_counts(lengths, ivf, seed):
    # Passages of many row counts, empty ones and shared words among them:
    # build, save and load give every pid its encoded rows back, and rankings
    # equal the oracle's, on a flat index and on an IVF index probing all.
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:02d}" for i in range(24)]
    texts = [" ".join(rng.choice(vocab, size=n, replace=False)) if n else "!!!"
             for n in lengths]
    corpus = Corpus([Passage(pid=f"p{i}", title="", sentences=(t,))
                     for i, t in enumerate(texts)])
    if not any(lengths):
        return
    enc = LexicalEncoder(EncoderConfig(dim=16, seed=seed % 3))
    distinct = len(set(" ".join(texts).split()) - {"!!!"})
    cfg = IndexConfig(variant="ivf", centroid_count=min(3, distinct), nprobe=min(3, distinct)) \
        if ivf else IndexConfig()
    built = build_index(corpus, enc, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.hlti"
        save_index(built, path)
        idx = load_index(path)
    assert idx.pids == corpus.pids
    for passage in corpus:
        lo, hi = rows_for(idx, passage.pid)
        assert idx.storage[lo:hi].tobytes() == enc.encode_passage(passage).tobytes()
    rcfg = RetrievalConfig(k=int(rng.integers(1, len(lengths) + 1)),
                           results_per_vector=idx.n_vectors)
    for words in (2, 5):
        eq = enc.encode_query(_query(" ".join(rng.choice(vocab, size=words))))
        want = exact_topk_oracle(eq, corpus, enc, k=rcfg.k)
        assert list(retrieve(eq, idx, rcfg)) == list(want)


def _save_v1(index, path):
    """`index` in format 1: vec_to_pid and rows in pid order, no fingerprint,
    no padding."""
    rows = _pid_rows(index)
    with open(path, "wb") as fh:
        fh.write(b"HLTI")
        fh.write(struct.pack("<BBIQQ", 1, index.ivf is not None, index.dim, index.n_vectors,
                             len(index.pids)))
        for pid in index.pids:
            fh.write(struct.pack("<H", len(pid.encode())) + pid.encode())
        owner = np.repeat(np.arange(len(index.pids)), index.row_counts())
        fh.write(owner.astype("<i4").tobytes())
        fh.write(index.storage[rows].astype("<f4").tobytes())
        if index.ivf is not None:
            fh.write(struct.pack("<II", index.ivf.n_centroids, index.ivf.nprobe))
            fh.write(index.ivf.centroids.astype("<f4").tobytes())
            fh.write(index.ivf.assignments[rows].astype("<i4").tobytes())


@pytest.mark.parametrize("variant", ["flat", "ivf"])
def test_format_1_is_refused_naming_the_file(tmp_path, variant):
    """Format 1 records no encoder, so loading one would run it unchecked."""
    enc = LexicalEncoder(EncoderConfig(dim=32, seed=1))
    corpus = Corpus([Passage(pid=f"p{i:03d}", title="", sentences=(" ".join(
        f"w{(7 * i + j) % 50:03d}" for j in range(i % 5)) or "!!!",)) for i in range(40)])
    idx = build_index(corpus, enc, IndexConfig(variant=variant, centroid_count=4, nprobe=2))
    path = tmp_path / "v1.hlti"
    _save_v1(idx, path)
    with pytest.raises(IndexFormatError, match=re.escape(f"{path}: index format 1") +
                       ".*rebuild the index with build-index"):
        load_index(path)


def test_save_refuses_an_index_without_fingerprint(tmp_path):
    idx = TokenIndex(["a"], [2], np.eye(2, 8, dtype=np.float32))
    with pytest.raises(ValueError, match="fingerprint"):
        save_index(idx, tmp_path / "t.hlti")


def test_save_with_an_oversize_pid_leaves_the_file_as_it_was(tmp_path, enc, tiny_corpus):
    path = tmp_path / "t.hlti"
    save_index(build_index(tiny_corpus, enc), path)
    before = path.read_bytes()
    idx = TokenIndex(["p" * 70_000], [1], np.ones((1, enc.dim), np.float32),
                     fingerprint=enc.fingerprint())
    with pytest.raises(ValueError, match="pid too long"):
        save_index(idx, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.hlti"]


def test_save_that_fails_after_the_header_leaves_the_file_as_it_was(
    tmp_path, enc, tiny_corpus, monkeypatch
):
    path = tmp_path / "t.hlti"
    idx = build_index(tiny_corpus, enc)
    save_index(idx, path)
    before = path.read_bytes()

    def boom(self):
        raise OSError("disk full")

    monkeypatch.setattr(TokenIndex, "row_counts", boom)  # written after the header and pids
    with pytest.raises(OSError, match="disk full"):
        save_index(idx, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.hlti"]


def test_storage_starts_on_an_aligned_file_offset(tmp_path, enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    path = tmp_path / "t.hlti"
    save_index(idx, path)
    raw = path.read_bytes()
    at = len(raw) - idx.storage.nbytes
    assert at % STORAGE_ALIGN == 0
    assert raw[at:] == idx.storage.tobytes()
