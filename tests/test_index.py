import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoplite.corpus import Corpus, MultiHopQuery, Passage
from hoplite.encoder import EncoderConfig, LexicalEncoder
from hoplite.index import (
    IndexConfig,
    IndexFormatError,
    build_index,
    candidates_for,
    encode_corpus,
    exact_topk_oracle,
    load_index,
    save_index,
)
from hoplite.retriever import retrieve
from hoplite.scoring import FocusParams, flipr_score


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
    return MultiHopQuery(qid="q", q0_text=text, facts=(), hop_index=0)


def _probe_all(corpus, enc, centroids=4):
    """An IVF index that probes every list, so only results_per_vector prunes."""
    cfg = IndexConfig(variant="ivf", centroid_count=centroids, nprobe=centroids, seed=0)
    return build_index(corpus, enc, cfg)


def _hits(idx, cands):
    """pid -> hit count of a CandidateSet."""
    return {idx.pids[i]: c for i, c in zip(cands.positions.tolist(), cands.counts.tolist())}


def _brute_force_hits(eq, idx, rpv):
    """Each source row's top-rpv storage vectors by float64 dot product, as pid hits."""
    rows = np.concatenate([eq.query_part, eq.fact_part]).astype(np.float64)
    sims = rows @ idx.storage.astype(np.float64).T
    counts = np.zeros(len(idx.pids), dtype=np.int64)
    for row in sims:
        top = np.argpartition(-row, rpv - 1)[:rpv]
        counts += np.bincount(idx.vec_to_pid[top], minlength=len(idx.pids))
    return {idx.pids[j]: int(counts[j]) for j in np.flatnonzero(counts)}


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
    assert idx.rows_for("b") == (4, 8)
    assert np.array_equal(idx.storage[4:8], enc.encode_passage(corpus.get("b")).matrix)
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
    assert idx.rows_for("empty") == (3, 3)


def test_build_index_rejects_empty_corpus(enc):
    with pytest.raises(ValueError):
        build_index(Corpus([]), enc)


def test_ivf_candidates_rpv_covering_all_vectors(enc, tiny_corpus):
    idx = _probe_all(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage rome tiber"))
    hits_by_pid = _hits(idx, candidates_for(eq, idx, results_per_vector=idx.n_vectors))
    assert set(hits_by_pid) == set(tiny_corpus.pids)
    counts = dict(zip(idx.pids, idx.row_counts()))
    for pid, hits in hits_by_pid.items():
        assert hits == eq.query_part.shape[0] * counts[pid]


def test_ivf_candidates_counts_sum(enc, tiny_corpus):
    idx = _probe_all(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage rome"))
    rpv = 3
    cands = candidates_for(eq, idx, results_per_vector=rpv)
    assert sum(cands.counts) == eq.query_part.shape[0] * rpv


def test_candidates_source_modes(enc, tiny_corpus):
    from hoplite.corpus import Fact

    idx = _probe_all(tiny_corpus, enc)
    facts = (Fact(pid="p1", sentence_index=0, text="tiber"),)
    eq = enc.encode_query(
        MultiHopQuery(qid="q", q0_text="carthage", facts=facts, hop_index=1)
    )
    both = candidates_for(eq, idx, results_per_vector=2)
    assert sum(both.counts) == 4  # query row + fact row


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
    # inverted lists partition the vector ids
    all_ids = np.sort(np.concatenate(ivf.lists))
    assert np.array_equal(all_ids, np.arange(idx.n_vectors))


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


def test_ivf_default_centroids_and_nprobe():
    enc = LexicalEncoder(EncoderConfig(dim=16, seed=0))
    corpus = _word_corpus(30, 5, seed=1)  # 150 vectors -> ceil(sqrt) = 13
    idx = build_index(corpus, enc, IndexConfig(variant="ivf", seed=0))
    assert idx.ivf.n_centroids == 13
    assert idx.ivf.nprobe == 1


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


def test_exact_topk_oracle_matches_manual_loop(enc, tiny_corpus):
    eq = enc.encode_query(_query("carthage fought rome"))
    focus = FocusParams(n_hat=32, l_hat=8)
    manual = []
    for pid in tiny_corpus.pids:
        rows = enc.encode_passage(tiny_corpus.get(pid)).matrix
        manual.append(flipr_score(eq, rows, focus, pid=pid))
    manual.sort(key=lambda sp: (-sp.score, sp.pid))
    got = exact_topk_oracle(eq, tiny_corpus, enc, k=3)
    assert [sp.pid for sp in got] == [sp.pid for sp in manual[:3]]
    # one batched GEMM vs one per passage: equal up to BLAS rounding
    for a, b in zip(got, manual):
        assert abs(a.score - b.score) <= 1e-12


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
    assert loaded.storage.tobytes() == idx.storage.tobytes()
    assert loaded.ivf is None
    # Arrays are read-only views of the file blob, not second copies.
    assert not loaded.storage.flags.writeable
    assert not loaded.vec_to_pid.flags.writeable
    eq = enc.encode_query(_query("rome tiber"))
    assert retrieve(eq, loaded, tiny_corpus) == retrieve(eq, idx, tiny_corpus)


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
