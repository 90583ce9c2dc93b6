import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoplite.condenser import (
    DEFAULT_TAU,
    CondenserConfig,
    IdfTable,
    condense,
    stage1_extract,
    stage2_filter,
)
from hoplite.corpus import Corpus, Fact, MultiHopQuery, Passage


def _q(text, facts=()):
    return MultiHopQuery(qid="q", q0_text=text, facts=tuple(facts))


def _score(idf, query_text, facts, sentence):
    [score] = idf.overlap(_q(query_text, facts), [sentence])
    return score


def test_idf_table_formula(tiny_corpus):
    idf = IdfTable.from_corpus(tiny_corpus)
    # "carthage" appears in 3 of 6 passages
    assert abs(idf("carthage") - (math.log(7 / 4) + 1.0)) < 1e-12
    # unseen token gets the ceiling weight
    assert abs(idf("zzzz") - (math.log(7.0) + 1.0)) < 1e-12


def test_idf_counts_each_passage_once():
    corpus = Corpus(
        [
            Passage(pid="a", title="", sentences=("rome rome rome",)),
            Passage(pid="b", title="", sentences=("other words",)),
        ]
    )
    idf = IdfTable.from_corpus(corpus)
    assert abs(idf("rome") - (math.log(3 / 2) + 1.0)) < 1e-12


def test_stage1_overlap_fraction_without_idf():
    idf = IdfTable({}, 0)
    # 1 of 4 sentence tokens overlaps the query -> 0.25
    s = _score(idf, "rome conquered gaul", (), "rome had four legions")
    assert abs(s - 0.25) < 1e-12
    # no overlap -> 0.0
    assert _score(idf, "rome", (), "looms weave cloth") == 0.0
    # empty sentence -> 0.0, no division error
    assert _score(idf, "rome", (), "!!!") == 0.0


def test_stage1_context_includes_facts():
    idf = IdfTable({}, 0)
    fact = Fact(pid="p", sentence_index=0, text="tiber river")
    bare = _score(idf, "rome", (), "the tiber floods")
    with_fact = _score(idf, "rome", (fact,), "the tiber floods")
    assert with_fact > bare


def test_stage1_extract_sorts_and_truncates(tiny_corpus):
    idf = IdfTable({}, 0)
    q = _q("carthage fought rome")
    passages = [tiny_corpus.get("p1"), tiny_corpus.get("d1")]
    cfg = CondenserConfig(stage1_top_k_facts=2)
    got = stage1_extract(q, passages, cfg, idf)
    assert len(got) == 2
    assert got[0].stage1_score >= got[1].stage1_score
    # the war sentence overlaps 4 of its 6 tokens; it must come first
    assert got[0].pid == "p1"
    assert got[0].sentence_index == 0


def test_stage1_tie_break_is_pid_then_index():
    idf = IdfTable({}, 0)
    passages = [
        Passage(pid="b", title="", sentences=("rome alpha", "rome beta")),
        Passage(pid="a", title="", sentences=("rome gamma",)),
    ]
    got = stage1_extract(_q("rome"), passages, CondenserConfig(stage1_top_k_facts=9), idf)
    # all three score 0.5; order is (a,0), (b,0), (b,1)
    assert [(f.pid, f.sentence_index) for f in got] == [("a", 0), ("b", 0), ("b", 1)]


def test_stage2_subtracts_tau_and_keeps_positive():
    pooled = [
        Fact(pid="a", sentence_index=0, text="rome one two three", stage1_score=0.25),
        Fact(pid="b", sentence_index=0, text="x y z unrelated words here gone", stage1_score=0.0),
    ]
    kept = stage2_filter(pooled, CondenserConfig(tau=0.1))
    # 0.25 - 0.1 = 0.15 survives; 0.0 - 0.1 drops
    assert [(f.pid, f.stage1_score - 0.1) for f in kept] == [("a", pytest.approx(0.15))]
    assert kept[0].stage1_score == 0.25  # stage-1 provenance preserved


def test_stage2_fixture_scores():
    # pooled stage-1 scores [0.4, -0.1, 0.2] at tau 0 -> kept [0.4, 0.2]
    pooled = [
        Fact(pid="a", sentence_index=0, text="s1", stage1_score=0.4),
        Fact(pid="b", sentence_index=0, text="s2", stage1_score=-0.1),
        Fact(pid="c", sentence_index=0, text="s3", stage1_score=0.2),
    ]
    kept = stage2_filter(pooled, CondenserConfig(tau=0.0))
    assert [f.pid for f in kept] == ["a", "c"]
    assert [f.stage1_score - 0.0 for f in kept] == [0.4, 0.2]


def test_stage2_zero_is_dropped():
    pooled = [Fact(pid="a", sentence_index=0, text="s", stage1_score=0.0)]
    assert stage2_filter(pooled, CondenserConfig(tau=0.0)) == []


def _parent_stage2_filter(pooled, cfg):
    """Stage 2 as it was when each kept Fact stored its margin: the oracle.

    The margin rides beside each fact here, since Fact no longer has a field for it.
    """
    kept = [
        (margin, f) for f in pooled if (margin := f.stage1_score - cfg.tau) > 0.0
    ]
    kept.sort(key=lambda mf: (-mf[0], mf[1].pid, mf[1].sentence_index))
    return [f for _, f in kept]


# 0.3500000000000001 and the next double up share one margin over tau 0.1
_COLLIDING = (0.3500000000000001, 0.35000000000000014)


def test_stage2_breaks_a_rounded_margin_tie_by_pid():
    assert _COLLIDING[0] < _COLLIDING[1]
    assert _COLLIDING[0] - 0.1 == _COLLIDING[1] - 0.1
    pooled = [
        Fact(pid="b", sentence_index=0, text="s", stage1_score=_COLLIDING[1]),
        Fact(pid="a", sentence_index=0, text="s", stage1_score=_COLLIDING[0]),
    ]
    kept = stage2_filter(pooled, CondenserConfig(tau=0.1))
    assert [f.pid for f in kept] == ["a", "b"]
    assert kept == _parent_stage2_filter(pooled, CondenserConfig(tau=0.1))


def _ulps(x, n):
    """The double `n` steps from `x` (towards +inf when n > 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@st.composite
def _pool_and_tau(draw):
    """A stage-1 pool whose scores sit on tau, on the colliding pair, or on a drawn
    score, each moved a few doubles either way, so margins round together."""
    tau = draw(st.sampled_from([0.0, 0.1, 0.25, 1 / 3]) | st.floats(-1.0, 2.0))
    anchor = st.sampled_from([tau, *_COLLIDING]) | st.floats(-1.0, 2.0)
    scores = draw(
        st.lists(st.builds(_ulps, anchor, st.integers(-3, 3)), min_size=0, max_size=12)
    )
    pids = draw(st.lists(st.sampled_from("abc"), min_size=len(scores), max_size=len(scores)))
    pool = [
        Fact(pid=pid, sentence_index=i, text="s", stage1_score=score)
        for i, (pid, score) in enumerate(zip(pids, scores))
    ]
    return draw(st.permutations(pool)), tau


@settings(max_examples=300, deadline=None)
@given(_pool_and_tau())
def test_stage2_matches_the_stored_margin_filter(pool_and_tau):
    pooled, tau = pool_and_tau
    cfg = CondenserConfig(tau=tau)
    assert stage2_filter(pooled, cfg) == _parent_stage2_filter(pooled, cfg)


_VOCAB = ["rome", "carthage", "tiber", "sea", "ships", "silver", "gaul", "looms"]
_sentence = st.lists(st.sampled_from(_VOCAB), max_size=5).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(
    passages=st.lists(st.lists(_sentence, min_size=1, max_size=4), min_size=1, max_size=5),
    query=st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4).map(" ".join),
    top_k=st.integers(1, 16),
    tau=st.floats(0.0, 2.0),
)
def test_condense_thresholds_the_stage1_pool(passages, query, top_k, tau):
    corpus = Corpus(
        [Passage(pid=f"p{i}", title="", sentences=tuple(s)) for i, s in enumerate(passages)]
    )
    idf = IdfTable.from_corpus(corpus)
    cfg = CondenserConfig(stage1_top_k_facts=top_k, tau=tau)
    q = _q(query)
    pool = stage1_extract(q, list(corpus), cfg, idf)
    kept = condense(q, list(corpus), cfg, idf)
    above = [f for f in pool if f.stage1_score > tau]
    assert sorted((f.pid, f.sentence_index) for f in kept) == sorted(
        (f.pid, f.sentence_index) for f in above
    )
    margins = [f.stage1_score - tau for f in kept]
    assert all(margin > 0.0 for margin in margins)
    assert margins == sorted(margins, reverse=True)


def test_condense_returns_subset_of_stage1(tiny_corpus):
    idf = IdfTable.from_corpus(tiny_corpus)
    q = _q("carthage fought rome")
    passages = [tiny_corpus.get(p) for p in tiny_corpus.pids]
    cfg = CondenserConfig()
    pooled = stage1_extract(q, passages, cfg, idf)
    kept = condense(q, passages, cfg, idf)
    pooled_keys = {(f.pid, f.sentence_index) for f in pooled}
    assert {(f.pid, f.sentence_index) for f in kept} <= pooled_keys
    for f in kept:
        assert f.stage1_score - cfg.tau > 0.0


def test_condense_may_be_empty(tiny_corpus):
    idf = IdfTable({}, 0)
    q = _q("entirely unrelated vocabulary")
    kept = condense(q, [tiny_corpus.get("f1")], CondenserConfig(), idf)
    assert kept == []


def test_fact_text_is_verbatim(tiny_corpus):
    idf = IdfTable({}, 0)
    q = _q("tiber flows sea")
    kept = condense(q, [tiny_corpus.get("p3")], CondenserConfig(), idf)
    assert kept
    f = kept[0]
    assert f.text == tiny_corpus.get(f.pid).sentences[f.sentence_index]


def test_stage1_with_idf_prefers_rare_tokens():
    corpus = Corpus(
        [
            Passage(pid=f"c{i}", title="", sentences=("common filler text here",))
            for i in range(9)
        ]
        + [Passage(pid="rare", title="", sentences=("zyzzyva common",))]
    )
    idf = IdfTable.from_corpus(corpus)
    # both sentences have 1-of-2 overlap; the rare token must outscore
    rare = _score(idf, "zyzzyva topic", (), "zyzzyva appears")
    common = _score(idf, "common topic", (), "common appears")
    assert rare > common


def test_condenser_config_validation():
    with pytest.raises(ValueError):
        CondenserConfig(stage1_top_k_facts=0)
    with pytest.raises(ValueError):
        CondenserConfig(stage1_top_k_facts=17)
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tau must be a finite number"):
            CondenserConfig(tau=tau)
    assert CondenserConfig().stage1_top_k_facts == 9
    assert CondenserConfig().tau == DEFAULT_TAU
