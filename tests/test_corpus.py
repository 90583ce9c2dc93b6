import pytest

from hoplite.corpus import (
    Corpus,
    CorpusFormatError,
    Fact,
    MultiHopQuery,
    Passage,
    dump_corpus,
    dump_queryset,
    load_corpus,
    load_queryset,
)


def test_passage_text_includes_title():
    p = Passage(pid="p", title="Rome", sentences=("a b.", "c d."))
    assert p.text == "Rome. a b. c d."


def test_passage_text_without_title():
    p = Passage(pid="p", title="", sentences=("a b.", "c d."))
    assert p.text == "a b. c d."


def test_corpus_preserves_file_order_and_lookup(tiny_corpus):
    assert tiny_corpus.pids[:3] == ("p1", "p2", "p3")
    assert tiny_corpus.pids is tiny_corpus.pids  # built once
    assert tiny_corpus.get("p2").title == "rome"
    assert "p3" in tiny_corpus
    assert "zzz" not in tiny_corpus
    with pytest.raises(KeyError):
        tiny_corpus.get("zzz")


def test_corpus_rejects_duplicate_pid():
    p = Passage(pid="dup", title="t", sentences=("s",))
    with pytest.raises(ValueError, match="dup"):
        Corpus([p, p])


def test_corpus_round_trip(tmp_path, tiny_corpus):
    path = tmp_path / "corpus.jsonl"
    dump_corpus(tiny_corpus, path)
    loaded = load_corpus(path)
    assert loaded.pids == tiny_corpus.pids
    for pid in loaded.pids:
        assert loaded.get(pid) == tiny_corpus.get(pid)


def test_load_corpus_rejects_unknown_field(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"pid": "a", "title": "t", "sentences": ["s"], "extra": 1}\n', encoding="utf-8"
    )
    with pytest.raises(CorpusFormatError, match="extra"):
        load_corpus(path)


def test_load_corpus_rejects_missing_field(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"pid": "a", "title": "t"}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="sentences"):
        load_corpus(path)


def test_load_corpus_rejects_blank_sentence(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"pid": "a", "title": "t", "sentences": ["ok", "  "]}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="blank"):
        load_corpus(path)


def test_queryset_round_trip(tmp_path, tiny_corpus, tiny_query):
    path = tmp_path / "queries.jsonl"
    dump_queryset([tiny_query], path)
    (got,) = load_queryset(path, tiny_corpus)
    assert got == tiny_query


def test_queryset_optional_fields_default_none(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"qid": "q", "text": "who", "gold_pids": [], "gold_facts": []}\n')
    (got,) = load_queryset(path)
    assert got.answer is None
    assert got.label is None
    assert got.num_hops is None
    assert got.gold_pids == frozenset()
    assert got.gold_facts == frozenset()


def test_load_queryset_rejects_duplicate_qid(tmp_path):
    path = tmp_path / "queries.jsonl"
    row = '{"qid": "q", "text": "%s", "gold_pids": [], "gold_facts": []}\n'
    path.write_text(row % "a" + row % "b", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="duplicate qid"):
        load_queryset(path)


def test_load_queryset_rejects_fact_outside_gold_pids(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(
        '{"qid": "q", "text": "a", "gold_pids": ["x"], "gold_facts": [["y", 0]]}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusFormatError, match="gold fact"):
        load_queryset(path)


def test_load_queryset_validates_against_corpus(tmp_path, tiny_corpus):
    path = tmp_path / "queries.jsonl"
    path.write_text(
        '{"qid": "q", "text": "a", "gold_pids": ["p3"], "gold_facts": [["p3", 5]]}\n',
        encoding="utf-8",
    )
    # p3 has one sentence; index 5 is out of range
    with pytest.raises(CorpusFormatError, match="out of range"):
        load_queryset(path, tiny_corpus)
    path.write_text(
        '{"qid": "q", "text": "a", "gold_pids": ["ghost"], "gold_facts": []}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusFormatError, match="ghost"):
        load_queryset(path, tiny_corpus)


def test_load_queryset_rejects_bad_num_hops(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(
        '{"qid": "q", "text": "a", "gold_pids": [], "gold_facts": [], "num_hops": 9}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusFormatError, match="num_hops"):
        load_queryset(path)


def test_multi_hop_query_extended():
    q = MultiHopQuery(qid="q", q0_text="start", facts=())
    f = Fact(pid="p", sentence_index=0, text="bridge text")
    q2 = q.extended((f,))
    assert q2.facts == (f,)
    # original untouched
    assert q.facts == ()
    q3 = q2.extended((f,))
    assert q3.facts == (f, f)


def test_fact_defaults():
    f = Fact(pid="p", sentence_index=2, text="x")
    assert f.stage1_score == 0.0
    assert f.stage2_score is None
