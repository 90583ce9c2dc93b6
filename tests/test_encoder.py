import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hoplite.corpus import Fact, MultiHopQuery, Passage
from hoplite.encoder import (
    EncoderConfig,
    LexicalEncoder,
    tokenize,
)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Rome fought; Carthage_2") == ["rome", "fought", "carthage", "2"]
    assert tokenize("") == []
    assert tokenize("___") == []


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(dim=4)
    with pytest.raises(ValueError):
        EncoderConfig(max_query_tokens=100, max_overall_tokens=50)


def test_token_vector_unit_norm(enc):
    v = enc.token_vector("carthage")
    assert v.dtype == np.float32
    assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-6


def test_token_vector_deterministic_across_instances():
    a = LexicalEncoder(EncoderConfig(dim=64, seed=3)).token_vector("rome")
    b = LexicalEncoder(EncoderConfig(dim=64, seed=3)).token_vector("rome")
    assert np.array_equal(a, b)


def test_token_vector_seed_sensitivity():
    a = LexicalEncoder(EncoderConfig(dim=64, seed=3)).token_vector("rome")
    b = LexicalEncoder(EncoderConfig(dim=64, seed=4)).token_vector("rome")
    assert not np.array_equal(a, b)


def test_identical_tokens_share_rows(enc):
    p = Passage(pid="p", title="", sentences=("rome rome",))
    m = enc.encode_passage(p)
    assert np.array_equal(m[0], m[1])


def test_unrelated_tokens_nearly_orthogonal():
    enc = LexicalEncoder(EncoderConfig(dim=128, seed=0))
    dots = [
        float(enc.token_vector(a) @ enc.token_vector(b))
        for a, b in [("rome", "weaving"), ("tiber", "silver"), ("harbor", "cloth")]
    ]
    assert all(abs(d) < 0.5 for d in dots)


def test_shared_trigrams_correlate():
    # "running"/"runner" share several trigrams; similarity should beat noise.
    enc = LexicalEncoder(EncoderConfig(dim=128, seed=0))
    near = float(enc.token_vector("running") @ enc.token_vector("runner"))
    far = float(enc.token_vector("running") @ enc.token_vector("harbor"))
    assert near > far


def test_passage_encoding_layout(enc, tiny_corpus):
    p = tiny_corpus.get("p1")
    m = enc.encode_passage(p)
    n_title = len(tokenize(p.title))
    n_total = n_title + sum(len(tokenize(s)) for s in p.sentences)
    assert m.shape == (n_total, 64)
    assert m.dtype == np.float32


def test_passage_token_cap():
    enc = LexicalEncoder(EncoderConfig(dim=64, seed=0, max_passage_tokens=5))
    p = Passage(pid="p", title="one two", sentences=("three four five six", "seven"))
    assert enc.passage_tokens(p) == ["one", "two", "three", "four", "five"]
    assert np.array_equal(enc.encode_passage(p), enc.token_rows(enc.passage_tokens(p)))


def test_query_token_cap(enc):
    text = " ".join(f"tok{i}" for i in range(100))
    eq = enc.encode_query(MultiHopQuery(qid="q", q0_text=text, facts=()))
    assert eq.query_part.shape[0] == 64
    assert eq.fact_part.shape[0] == 0


def test_fact_budget_keeps_earliest_hops():
    cfg = EncoderConfig(dim=64, seed=0, max_query_tokens=4, max_overall_tokens=10)
    enc = LexicalEncoder(cfg)
    facts = (
        Fact(pid="a", sentence_index=0, text="one two three four"),
        Fact(pid="b", sentence_index=0, text="five six seven"),
        Fact(pid="c", sentence_index=0, text="eight nine"),
    )
    q = MultiHopQuery(qid="q", q0_text="w x y z", facts=facts)
    eq = enc.encode_query(q)
    # budget = 10 - 4 = 6: all of fact a, then b truncated, c dropped
    assert eq.query_part.shape[0] == 4
    assert eq.fact_part.shape[0] == 6
    want = [enc.token_vector(t) for t in ["one", "two", "three", "four", "five", "six"]]
    assert np.array_equal(eq.fact_part, np.stack(want))


def test_empty_query_encodes_to_empty_matrices(enc):
    eq = enc.encode_query(MultiHopQuery(qid="q", q0_text="", facts=()))
    assert eq.query_part.shape == (0, 64)
    assert eq.fact_part.shape == (0, 64)
    assert eq.dim == 64


def test_token_weighted_encoder_scales_query_rows(enc):
    weighted = enc.reweighted({"rome": 2.0})
    q = MultiHopQuery(qid="q", q0_text="rome tiber", facts=())
    base = enc.encode_query(q)
    got = weighted.encode_query(q)
    assert np.allclose(got.query_part[0], base.query_part[0] * 2.0)
    assert np.array_equal(got.query_part[1], base.query_part[1])


def test_token_weighted_encoder_passage_passthrough(enc, tiny_corpus):
    weighted = enc.reweighted({"rome": 2.0})
    p = tiny_corpus.get("p2")
    assert np.array_equal(weighted.encode_passage(p), enc.encode_passage(p))


_WORDS = st.sampled_from(["rome", "tiber", "carthage", "harbor", "ships", "war", "gaul"])
_TEXT = st.lists(_WORDS, min_size=1, max_size=6).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(
    q0=st.lists(_WORDS, max_size=6).map(" ".join),
    fact_texts=st.lists(_TEXT, min_size=1, max_size=6),
    max_query=st.integers(1, 4),
    spare=st.integers(0, 6),
    weights=st.dictionaries(_WORDS, st.floats(0.25, 4.0, width=32), max_size=4),
)
def test_weighting_is_a_row_scale_under_the_token_budget(
    q0, fact_texts, max_query, spare, weights
):
    enc = LexicalEncoder(
        EncoderConfig(
            dim=16, seed=1, max_query_tokens=max_query, max_overall_tokens=max_query + spare
        )
    )
    all_fact_tokens = [t for text in fact_texts for t in tokenize(text)]
    budget = max_query + spare - min(len(tokenize(q0)), max_query)
    assume(len(all_fact_tokens) > budget)
    facts = tuple(Fact(pid="p", sentence_index=i, text=t) for i, t in enumerate(fact_texts))
    q = MultiHopQuery(qid="q", q0_text=q0, facts=facts)
    base = enc.encode_query(q)
    q_tokens, fact_tokens = enc.kept_tokens(q)
    assert q_tokens == tokenize(q0)[:max_query]
    assert fact_tokens == all_fact_tokens[:budget]
    assert base.query_part.shape[0] == len(q_tokens)
    assert base.fact_part.shape[0] == budget

    unit = enc.reweighted({t: 1.0 for t in q_tokens + fact_tokens}).encode_query(q)
    assert np.array_equal(unit.query_part, base.query_part)
    assert np.array_equal(unit.fact_part, base.fact_part)

    got = enc.reweighted(weights).encode_query(q)
    for rows, want_rows, tokens in (
        (got.query_part, base.query_part, q_tokens),
        (got.fact_part, base.fact_part, fact_tokens),
    ):
        assert rows.shape == want_rows.shape
        for row, want, token in zip(rows, want_rows, tokens):
            assert np.array_equal(row, want * np.float32(weights.get(token, 1.0)))
