import json
import re

import pytest

from hoplite.corpus import dump_corpus, load_corpus, load_queryset
from hoplite.encoder import tokenize
from hoplite.synth import PlantSpec, SynthResult, generate, read_truth, write_synth


def _spec(**kw):
    base = dict(hops=3, queries=5, corpus_size=80, distractors_per_query=4, seed=0)
    base.update(kw)
    return PlantSpec(**base)


def test_counts():
    spec = _spec()
    result = generate(spec)
    assert len(result.corpus) == 80
    assert len(result.queries) == 5
    planted = spec.queries * (spec.hops + spec.distractors_per_query)
    fillers = [p for p in result.corpus if p.pid.startswith("fill-")]
    assert len(fillers) == 80 - planted
    for q in result.queries:
        assert len(q.gold_pids) == 3
        assert q.num_hops == 3
        assert q.label is True
        assert result.truth[q.qid] == [[f"{q.qid}-g{h}"] for h in (1, 2, 3)]


def test_gold_facts_point_at_bridge_sentences():
    result = generate(_spec())
    for q in result.queries:
        assert q.gold_facts == frozenset((pid, 1) for pid in q.gold_pids)
        for pid in q.gold_pids:
            assert len(result.corpus.get(pid).sentences) == 2


def test_first_gold_title_is_in_the_claim():
    result = generate(_spec())
    for q in result.queries:
        claim = set(tokenize(q.text))
        g1 = result.corpus.get(f"{q.qid}-g1")
        assert set(tokenize(g1.title)) <= claim


def test_later_golds_share_nothing_with_the_claim():
    # the claim can only reach hop h through hop h-1's bridge sentence
    result = generate(_spec())
    for q in result.queries:
        claim = set(tokenize(q.text))
        for h in (2, 3):
            g = result.corpus.get(f"{q.qid}-g{h}")
            assert not claim & set(tokenize(g.text))


def test_bridge_chain_links_consecutive_golds():
    result = generate(_spec())
    for q in result.queries:
        for h in (1, 2):
            prev = result.corpus.get(f"{q.qid}-g{h}")
            nxt = result.corpus.get(f"{q.qid}-g{h + 1}")
            bridge_sentence = set(tokenize(prev.sentences[1]))
            title = set(tokenize(nxt.title))
            # hop h's bridge sentence contains hop h+1's full title
            assert title <= bridge_sentence
            # and the chained link survives into the next bridge sentence
            assert set(tokenize(nxt.sentences[1])) & title


def test_anchor_tokens_unique_to_first_bridge_sentence():
    result = generate(_spec())
    for q in result.queries:
        anchors = tokenize(q.text)[-2:]
        holders = [
            p.pid
            for p in result.corpus
            if set(anchors) & set(tokenize(p.text))
        ]
        assert holders == [f"{q.qid}-g1"]
        g1 = result.corpus.get(f"{q.qid}-g1")
        assert set(anchors) <= set(tokenize(g1.sentences[1]))


def test_distractors_overlap_topic_but_not_bridges():
    spec = _spec()
    result = generate(spec)
    for q in result.queries:
        topic = tokenize(q.text)
        pool = set(topic[:-2])
        gold_bridges = set()
        for pid in q.gold_pids:
            gold_bridges |= set(tokenize(result.corpus.get(pid).sentences[1]))
        gold_bridges -= pool  # bridge/link/anchor vocabulary only
        for j in range(spec.distractors_per_query):
            d = result.corpus.get(f"{q.qid}-d{j}")
            toks = set(tokenize(d.text))
            assert len(toks & pool) == spec.distractor_overlap
            assert not toks & set(topic[-2:])  # never the anchors
            assert not toks & gold_bridges  # never the bridge chain


def test_answers_only_in_last_hop():
    result = generate(_spec(with_answers=True))
    for q in result.queries:
        assert q.answer
        last = result.corpus.get(f"{q.qid}-g{q.num_hops}")
        assert q.answer in tokenize(last.sentences[1])
        holders = [
            p.pid for p in result.corpus if q.answer in set(tokenize(p.text))
        ]
        assert holders == [last.pid]


def test_generation_is_deterministic():
    a = generate(_spec(seed=3))
    b = generate(_spec(seed=3))
    assert a.corpus.pids == b.corpus.pids
    for pid in a.corpus.pids:
        assert a.corpus.get(pid) == b.corpus.get(pid)
    assert a.queries == b.queries
    assert a.truth == b.truth
    c = generate(_spec(seed=4))
    assert any(a.corpus.get(p) != c.corpus.get(p) for p in a.corpus.pids)


def test_two_hop_and_four_hop_shapes():
    two = generate(_spec(hops=2, corpus_size=60))
    assert all(len(q.gold_pids) == 2 for q in two.queries)
    four = generate(_spec(hops=4, corpus_size=80))
    assert all(len(q.gold_pids) == 4 for q in four.queries)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(hops=5)
    with pytest.raises(ValueError):
        _spec(queries=0)
    with pytest.raises(ValueError):
        _spec(topic_tokens=5)
    with pytest.raises(ValueError):
        _spec(bridge_tokens=1)
    with pytest.raises(ValueError):
        _spec(distractor_overlap=0)
    with pytest.raises(ValueError):
        _spec(distractor_overlap=7)  # > topic_tokens - 2
    with pytest.raises(ValueError, match="corpus_size"):
        _spec(corpus_size=10)


def test_write_synth_round_trip(tmp_path):
    result = generate(_spec(with_answers=True))
    paths = write_synth(result, tmp_path)
    assert set(paths) == {"corpus", "queries", "truth"}

    corpus = load_corpus(paths["corpus"])
    assert corpus.pids == result.corpus.pids
    queries = load_queryset(paths["queries"], corpus)
    assert queries == result.queries

    truth = read_truth(paths["truth"])
    assert truth == {qid: [set(g) for g in hops] for qid, hops in result.truth.items()}
    # truth file is sorted by qid
    rows = [
        json.loads(l) for l in paths["truth"].read_text(encoding="utf-8").splitlines()
    ]
    assert [r["qid"] for r in rows] == sorted(r["qid"] for r in rows)


def test_write_synth_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    pa = write_synth(generate(_spec(seed=9)), a_dir)
    pb = write_synth(generate(_spec(seed=9)), b_dir)
    for key in pa:
        assert pa[key].read_bytes() == pb[key].read_bytes()


@pytest.mark.parametrize("hops", [["q0000-g1"], [[1]]])
def test_read_truth_rejects_hop_that_is_not_a_pid_list(tmp_path, hops):
    path = tmp_path / "truth.jsonl"
    path.write_text(json.dumps({"qid": "q", "hops": hops}) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 1")):
        read_truth(path)
