import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoplite.corpus import Corpus, Passage, QueryRecord
from hoplite.evaluation import (
    EvalConfig,
    answer_recall,
    check_query_texts,
    evaluate_run,
    report_json,
    retrieval_at_k,
    set_em_f1,
)


def test_set_em_f1_fixtures():
    assert set_em_f1({"A", "B"}, {"A", "B"}) == (1.0, 1.0)
    em, f1 = set_em_f1({"A", "C"}, {"A", "B"})
    assert em == 0.0
    assert f1 == pytest.approx(0.5)
    assert set_em_f1(set(), {"A"}) == (0.0, 0.0)
    assert set_em_f1({"X"}, {"A"}) == (0.0, 0.0)


def test_set_em_f1_rejects_empty_gold():
    with pytest.raises(ValueError):
        set_em_f1({"A"}, set())


@settings(max_examples=80, deadline=None)
@given(
    predicted=st.sets(st.integers(0, 12), max_size=8),
    gold=st.sets(st.integers(0, 12), min_size=1, max_size=8),
)
def test_set_em_f1_bounds(predicted, gold):
    p = {str(x) for x in predicted}
    g = {str(x) for x in gold}
    em, f1 = set_em_f1(p, g)
    assert em in (0.0, 1.0)
    assert 0.0 <= f1 <= 1.0
    assert (em == 1.0) == (p == g)
    if em == 1.0:
        assert f1 == 1.0
    if not p & g:
        assert f1 == 0.0


def test_retrieval_at_k():
    union = ["a", "b", "c", "d"]
    assert retrieval_at_k(union, {"a", "c"}, 3) == 1
    assert retrieval_at_k(union, {"a", "d"}, 3) == 0
    assert retrieval_at_k(union, {"z"}, 4) == 0
    with pytest.raises(ValueError):
        retrieval_at_k(union, set(), 3)


def _answer_corpus():
    return Corpus(
        [
            Passage(pid="k", title="Koufax", sentences=("Sandy Koufax pitched.",)),
            Passage(pid="o", title="Other", sentences=("Nothing relevant here.",)),
        ]
    )


def test_answer_recall_normalizes():
    corpus = _answer_corpus()
    assert answer_recall(["k", "o"], "sandy KOUFAX", 2, corpus) == 1
    assert answer_recall(["o"], "sandy koufax", 1, corpus) == 0
    # k window cuts off the hit
    assert answer_recall(["o", "k"], "koufax", 1, corpus) == 0
    assert answer_recall(["o", "k"], "koufax", 2, corpus) == 1
    # unnormalizable answer never matches
    assert answer_recall(["k"], "!!!", 1, corpus) == 0


def _queries():
    return [
        QueryRecord(
            qid="q1",
            text="claim one",
            gold_pids=frozenset({"A", "B"}),
            gold_facts=frozenset({("A", 0), ("B", 0)}),
            answer="koufax",
            label=True,
            num_hops=2,
        ),
        QueryRecord(
            qid="q2",
            text="claim two",
            gold_pids=frozenset({"C"}),
            gold_facts=frozenset({("C", 0)}),
            answer=None,
            label=False,
            num_hops=2,
        ),
        QueryRecord(
            qid="q3",
            text="claim three",
            gold_pids=frozenset({"D"}),
            gold_facts=frozenset(),
            answer="yes",
            label=None,
            num_hops=3,
        ),
    ]


def _corpus():
    mk = lambda pid, text: Passage(pid=pid, title=pid, sentences=(text,))
    return Corpus(
        [
            mk("A", "sandy koufax appears here."),
            mk("B", "second gold passage."),
            mk("C", "third gold passage."),
            mk("D", "fourth gold passage."),
            mk("X", "distractor."),
        ]
    )


def _rec(qid, union, kept, verdict=None):
    rec = {
        "qid": qid,
        "q0": "claim",
        "variant": "condensed",
        "per_hop_k": [len(union)],
        "hops": [
            {
                "t": 1,
                "ranked": [
                    {"pid": p, "score": 1.0, "s_query": 1.0, "s_fact": 0.0} for p in union
                ],
                "kept_facts": [
                    {
                        "pid": p,
                        "sentence_index": i,
                        "text": "s",
                        "stage1_score": 0.5,
                        "stage2_score": 0.4,
                    }
                    for p, i in kept
                ],
                "context_pid": None,
                "excluded": [],
            }
        ],
        "union": union,
        "final_facts": [],
        "final_query": "claim",
    }
    if verdict is not None:
        rec["verdict"] = verdict
    return rec


def test_evaluate_run_hand_fixture():
    queries = _queries()
    corpus = _corpus()
    records = [
        # q1: perfect passages, perfect sentences, answer in A, verdict right
        _rec("q1", ["A", "B", "X"], [("A", 0), ("B", 0)], verdict=True),
        # q2: label False -> dropped from Retrieval@k; passages {A,C} vs gold {C}
        _rec("q2", ["X", "C"], [("A", 0), ("C", 0)], verdict=True),
        # q3: gold D missed; yes/no answer excluded from answer recall
        _rec("q3", ["X"], []),
    ]
    report = evaluate_run(records, queries, corpus, EvalConfig(retrieval_k=2, answer_k=2))
    ov = report.overall
    assert report.supported_only is True  # labels present -> auto filter
    assert ov.n_queries == 3
    # q1 hit at k=2; q2 excluded (label False); q3 miss -> 1/2
    assert ov.retrieval_n == 2
    assert ov.retrieval_at_k == pytest.approx(0.5)
    # passage EM: q1=1, q2=0 ({A,C} vs {C}), q3=0 -> 1/3
    assert ov.passage_n == 3
    assert ov.passage_em == pytest.approx(1 / 3)
    # q2 passage F1: P=1/2, R=1 -> 2/3
    assert ov.passage_f1 == pytest.approx((1.0 + 2 / 3 + 0.0) / 3)
    # sentences: q1 exact, q2 {A0,C0} vs {C0} -> F1 2/3; q3 has no gold facts
    assert ov.sentence_n == 2
    assert ov.sentence_em == pytest.approx(0.5)
    # answers: only q1 counts (q2 None, q3 yes/no)
    assert ov.answer_n == 1
    assert ov.answer_recall_at_k == pytest.approx(1.0)
    # verification: q1 and q2 have labels and verdicts; q2's verdict True != label False
    assert ov.verification_n == 2
    assert ov.verification_accuracy == pytest.approx(0.5)


def _without_derived(rec):
    """`rec` as the writer now writes it: no ranked `score`, hop `excluded` or
    `final_query`, each of which the rest of the record determines."""
    hops = [
        {**{k: v for k, v in hop.items() if k != "excluded"},
         "ranked": [{k: v for k, v in sp.items() if k != "score"} for sp in hop["ranked"]]}
        for hop in rec["hops"]
    ]
    return {**{k: v for k, v in rec.items() if k != "final_query"}, "hops": hops}


def test_records_with_and_without_derived_fields_report_the_same():
    old = [
        _rec("q1", ["A", "B", "X"], [("A", 0), ("B", 0)], verdict=True),
        _rec("q2", ["X", "C"], [("A", 0), ("C", 0)], verdict=True),
        _rec("q3", ["X"], []),
    ]
    new = [_without_derived(rec) for rec in old]
    assert all("final_query" not in rec and "excluded" not in rec["hops"][0]
               and "score" not in rec["hops"][0]["ranked"][0] for rec in new)
    cfg = EvalConfig(retrieval_k=2, answer_k=2)
    reports = [report_json(evaluate_run(recs, _queries(), _corpus(), cfg)) for recs in (old, new)]
    assert reports[0] == reports[1]


def test_evaluate_run_strata_weighted_identity():
    queries = _queries()
    corpus = _corpus()
    records = [
        _rec("q1", ["A", "B"], [("A", 0), ("B", 0)], verdict=True),
        _rec("q2", ["C"], [("C", 0)], verdict=False),
        _rec("q3", ["D", "X"], []),
    ]
    report = evaluate_run(records, queries, corpus, EvalConfig(retrieval_k=2))
    assert sorted(report.by_hops) == ["2", "3"]
    for attr in (
        "retrieval_at_k",
        "passage_em",
        "passage_f1",
        "sentence_em",
        "sentence_f1",
        "answer_recall_at_k",
        "verification_accuracy",
    ):
        n_attr = {
            "retrieval_at_k": "retrieval_n",
            "passage_em": "passage_n",
            "passage_f1": "passage_n",
            "sentence_em": "sentence_n",
            "sentence_f1": "sentence_n",
            "answer_recall_at_k": "answer_n",
            "verification_accuracy": "verification_n",
        }[attr]
        total_n = 0
        total = 0.0
        for block in report.by_hops.values():
            v, n = getattr(block, attr), getattr(block, n_attr)
            if v is not None:
                total += v * n
                total_n += n
        ov_v, ov_n = getattr(report.overall, attr), getattr(report.overall, n_attr)
        assert ov_n == total_n
        if ov_v is None:
            assert total_n == 0
        else:
            assert abs(ov_v - total / total_n) < 1e-9


def test_supported_only_modes():
    queries = _queries()
    corpus = _corpus()
    records = [
        _rec("q1", ["A", "B"], []),
        _rec("q2", ["C"], []),
        _rec("q3", ["D"], []),
    ]
    auto = evaluate_run(records, queries, corpus, EvalConfig(retrieval_k=2))
    assert auto.supported_only is True
    assert auto.overall.retrieval_n == 2  # q2 dropped

    off = evaluate_run(
        records, queries, corpus, EvalConfig(retrieval_k=2, supported_only=False)
    )
    assert off.overall.retrieval_n == 3

    unlabeled = [
        QueryRecord(
            qid=q.qid,
            text=q.text,
            gold_pids=q.gold_pids,
            gold_facts=q.gold_facts,
            answer=q.answer,
            label=None,
            num_hops=q.num_hops,
        )
        for q in queries
    ]
    auto2 = evaluate_run(records, unlabeled, corpus, EvalConfig(retrieval_k=2))
    assert auto2.supported_only is False
    assert auto2.overall.retrieval_n == 3


def test_evaluate_run_rejects_unknown_qid():
    with pytest.raises(ValueError, match="ghost"):
        evaluate_run([_rec("ghost", ["A"], [])], _queries(), _corpus())


def _drop_hops(rec):
    del rec["hops"]


def _list_in_union(rec):
    rec["union"].append(["A"])


def _list_as_fact_pid(rec):
    rec["hops"][0]["kept_facts"][0]["pid"] = ["A"]


def _bool_as_sentence_index(rec):
    rec["hops"][0]["kept_facts"][0]["sentence_index"] = False


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_drop_hops, "trace record has no 'hops' field"),
        (_list_in_union, "'union' has a non-string entry"),
        (_list_as_fact_pid, "kept fact 'pid' is not a string"),
        (_bool_as_sentence_index, "'sentence_index' is not an integer"),
    ],
)
def test_evaluate_run_names_the_malformed_field(spoil, message):
    rec = _rec("q1", ["A", "B"], [("A", 0)])
    spoil(rec)
    with pytest.raises(ValueError) as err:
        evaluate_run([rec], _queries(), _corpus())
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        check_query_texts([rec], _queries())
    assert str(err.value) == message


def test_rerank_records_predict_context_pids():
    corpus = _corpus()
    q = QueryRecord(
        qid="q",
        text="t",
        gold_pids=frozenset({"A"}),
        gold_facts=frozenset(),
        answer=None,
        label=None,
        num_hops=None,
    )
    rec = _rec("q", ["A", "B"], [("B", 0)])
    rec["variant"] = "rerank"
    rec["hops"][0]["context_pid"] = "A"
    report = evaluate_run([rec], [q], corpus)
    assert report.overall.passage_em == 1.0  # context pid, not kept-fact pid


def test_hybrid_records_use_merged_union():
    corpus = _corpus()
    q = QueryRecord(
        qid="q",
        text="t",
        gold_pids=frozenset({"A"}),
        gold_facts=frozenset(),
        answer=None,
        label=True,
        num_hops=2,
    )
    inner_c = _rec("q", ["B"], [("A", 0)], verdict=True)
    inner_r = _rec("q", ["X"], [])
    inner_r["variant"] = "rerank"
    inner_r["hops"][0]["context_pid"] = "X"
    rec = {
        "qid": "q",
        "variant": "hybrid",
        "merged": ["A", "B"],
        "condensed": inner_c,
        "rerank": inner_r,
    }
    report = evaluate_run([rec], [q], corpus, EvalConfig(retrieval_k=2))
    assert report.overall.retrieval_at_k == 1.0  # merged, not either union
    assert report.overall.passage_em == 1.0  # kept facts from the condensed side
    assert report.overall.verification_n == 1  # verdict from the condensed side


def test_format_table_shape():
    report = evaluate_run(
        [_rec("q1", ["A", "B"], [("A", 0), ("B", 0)])], _queries()[:1], _corpus()
    )
    table = report.format_table()
    lines = table.splitlines()
    assert "overall" in lines[0]
    assert lines[1].startswith("queries")
    assert any(l.startswith("Retrieval@100") for l in lines)
    assert any(l.startswith("Verification Acc") for l in lines)
    # unavailable metrics render as "-"
    assert "-" in table


def test_report_json_round_trips():
    report = evaluate_run(
        [_rec("q1", ["A", "B"], [("A", 0)])], _queries()[:1], _corpus()
    )
    obj = json.loads(report_json(report))
    assert obj["retrieval_k"] == 100
    assert obj["overall"]["n_queries"] == 1
    assert "2" in obj["by_hops"]


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(retrieval_k=0)
    with pytest.raises(ValueError):
        EvalConfig(answer_k=0)
    for bad in ("yes", 1, 0):
        with pytest.raises(ValueError, match="supported_only"):
            EvalConfig(supported_only=bad)
    for ok in (None, True, False):
        assert EvalConfig(supported_only=ok).supported_only is ok


def test_check_query_texts_reads_q0_of_each_variant():
    queries = _queries()  # q1 asks "claim one"
    condensed = _rec("q1", ["A"], [])
    condensed["q0"] = "claim one"
    hybrid = {"qid": "q1", "variant": "hybrid", "merged": [],
              "condensed": dict(condensed), "rerank": dict(condensed)}
    check_query_texts([condensed], queries)
    check_query_texts([hybrid], queries)
    check_query_texts([_rec("ghost", [], [])], queries)  # unknown qids are evaluate_run's
    no_q0 = _rec("q1", ["A"], [])
    del no_q0["q0"]
    check_query_texts([no_q0], queries)  # nothing recorded, nothing to check
    hybrid["condensed"]["q0"] = "claim two"
    hybrid["rerank"]["q0"] = "claim one"
    with pytest.raises(ValueError, match="'q1' ran the query 'claim two'.*'claim one'"):
        check_query_texts([hybrid], queries)


def test_check_query_texts_refuses_a_qid_recorded_twice():
    queries = _queries()
    first, second = _rec("q1", ["A"], []), _rec("q2", ["C"], [])
    for rec in (first, second):
        rec["q0"] = next(q.text for q in queries if q.qid == rec["qid"])
    check_query_texts([first, second], queries)
    with pytest.raises(ValueError) as err:
        check_query_texts([first, second, dict(first)], queries)
    assert str(err.value) == "qid 'q1' has a second trace record"
    # evaluate_run scores repeats: the benchmark's wrapped-round queries rely on it
    assert evaluate_run([first, first], queries, _corpus()).overall.n_queries == 2
