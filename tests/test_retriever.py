import pytest

from hoplite.corpus import Corpus, MultiHopQuery
from hoplite.encoder import EncoderConfig, LexicalEncoder
from hoplite.index import IndexConfig, build_index, exact_topk_oracle
from hoplite.retriever import RetrievalConfig, Retriever, retrieve


def _query(text: str) -> MultiHopQuery:
    return MultiHopQuery(qid="q", q0_text=text, facts=())


def test_retrieve_matches_exact_oracle_at_full_rpv(enc, tiny_corpus):
    # flat retrieval scores every passage, so it must reproduce the brute-force ranking
    idx = build_index(tiny_corpus, enc)
    cfg = RetrievalConfig(k=6, results_per_vector=idx.n_vectors)
    for text in ("carthage fought rome", "tiber river", "silver dye looms"):
        eq = enc.encode_query(_query(text))
        got = retrieve(eq, idx, tiny_corpus, cfg)
        want = exact_topk_oracle(eq, tiny_corpus, enc, k=6)
        assert [(sp.pid, sp.score) for sp in got] == [(sp.pid, sp.score) for sp in want]


def test_retrieve_scores_are_bit_stable(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage harbor ships"))
    a = retrieve(eq, idx, tiny_corpus)
    b = retrieve(eq, idx, tiny_corpus)
    assert [(sp.pid, sp.score) for sp in a] == [(sp.pid, sp.score) for sp in b]


def test_retrieve_respects_k(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage rome tiber"))
    assert len(retrieve(eq, idx, tiny_corpus, RetrievalConfig(k=2))) == 2


def test_retrieve_excludes_pids(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage fought rome"))
    full = retrieve(eq, idx, tiny_corpus)
    top = full[0].pid
    without = retrieve(eq, idx, tiny_corpus, exclude={top})
    assert top not in {sp.pid for sp in without}
    # remaining order is unchanged
    assert [sp.pid for sp in without] == [sp.pid for sp in full if sp.pid != top]


def test_retrieve_exclude_everything_is_empty(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage"))
    assert retrieve(eq, idx, tiny_corpus, exclude=set(tiny_corpus.pids)) == []


@pytest.mark.parametrize("variant", ["flat", "ivf"])
def test_retrieve_rejects_query_of_another_dim(enc, tiny_corpus, variant):
    idx = build_index(tiny_corpus, enc, IndexConfig(variant=variant, centroid_count=3))
    wide = LexicalEncoder(EncoderConfig(dim=128, seed=3))
    # checked before the empty-query return and before IVF candidate generation
    for text in ("carthage fought rome", ""):
        eq = wide.encode_query(_query(text))
        with pytest.raises(ValueError, match=r"query dim 128 .* index dim 64.*encoder\.dim"):
            retrieve(eq, idx, tiny_corpus)


def test_retrieve_errors_on_candidate_missing_from_corpus(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    smaller = Corpus([tiny_corpus.get("p1")])
    eq = enc.encode_query(_query("rome tiber weaving"))
    with pytest.raises(KeyError):
        retrieve(eq, idx, smaller)


def test_retriever_wrapper_equals_free_function(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    r = Retriever(tiny_corpus, idx, enc)
    q = _query("carthage fought rome")
    got = r.retrieve(q)
    want = retrieve(enc.encode_query(q), idx, tiny_corpus, r.cfg)
    assert [(sp.pid, sp.score) for sp in got] == [(sp.pid, sp.score) for sp in want]


def test_retriever_k_override(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    r = Retriever(tiny_corpus, idx, enc, RetrievalConfig(k=5))
    assert len(r.retrieve(_query("carthage rome"), k=1)) == 1
    assert r.cfg.k == 5  # override is per-call


def test_with_query_weights_boosts_token(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    r = Retriever(tiny_corpus, idx, enc)
    q = _query("weaving carthage")
    boosted = r.with_query_weights({"weaving": 10.0})
    base_top = r.retrieve(q)[0].pid
    new_top = boosted.retrieve(q)[0].pid
    assert new_top == "f1"  # the looms passage wins once its token dominates
    assert boosted.encoder.query_weights == {"weaving": 10.0}
    # base retriever is untouched
    assert r.retrieve(q)[0].pid == base_top


def test_with_query_weights_compose_multiplicatively(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    r = Retriever(tiny_corpus, idx, enc)
    twice = r.with_query_weights({"rome": 2.0}).with_query_weights({"rome": 3.0})
    assert twice.encoder.query_weights == {"rome": 6.0}
    assert twice.encoder._token_cache is enc._token_cache
    assert enc.query_weights == {}


def test_retrieval_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(k=0)
    with pytest.raises(ValueError):
        RetrievalConfig(results_per_vector=0)


def test_candidate_pool_never_truncated_before_scoring(enc, tiny_corpus):
    # A pid reachable only via a low-similarity row must still be scored
    # whole; k truncation happens after ranking, not on the pool.
    eq = enc.encode_query(_query("carthage rome tiber looms silver sicily"))
    for variant in ("flat", "ivf"):
        cfg = IndexConfig(variant=variant, centroid_count=3, nprobe=3)
        idx = build_index(tiny_corpus, enc, cfg)
        rcfg = RetrievalConfig(k=len(tiny_corpus.pids), results_per_vector=idx.n_vectors)
        got = retrieve(eq, idx, tiny_corpus, rcfg)
        assert {sp.pid for sp in got} == set(tiny_corpus.pids)
        scores = [sp.score for sp in got]
        assert scores == sorted(scores, reverse=True)
