import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hoplite.condenser import CondenserConfig, IdfTable, LexicalOverlapScorer, condense
from hoplite.corpus import MultiHopQuery, QueryRecord
from hoplite.index import IndexConfig, build_index
from hoplite.pipeline import (
    HopRecord,
    HopTrace,
    HybridTrace,
    PipelineConfig,
    PipelineRunner,
    merge_hybrid,
    read_traces,
    run_queries,
    trace_record,
    union_topk,
    write_traces,
)
from hoplite.retriever import RetrievalConfig, retrieve
from hoplite.scoring import ScoredPassage


def _qrec(qid, text):
    return QueryRecord(
        qid=qid,
        text=text,
        gold_pids=frozenset(),
        gold_facts=frozenset(),
        answer=None,
        label=None,
        num_hops=None,
    )


def _mk_trace(hop_pids, variant="condensed", qid="q"):
    """Fabricate a trace whose hop t ranks hop_pids[t] in order."""
    hops = []
    for t, pids in enumerate(hop_pids, start=1):
        ranked = tuple(
            ScoredPassage(pid=p, score=float(len(pids) - i), s_query=0.0, s_fact=0.0)
            for i, p in enumerate(pids)
        )
        hops.append(
            HopRecord(t=t, ranked=ranked, kept_facts=(), context_pid=None, excluded=frozenset())
        )
    union = [p for pids in hop_pids for p in pids]
    return HopTrace(
        qid=qid,
        q0_text="q0",
        variant=variant,
        per_hop_k=tuple(len(p) for p in hop_pids),
        hops=tuple(hops),
        union_pids=tuple(union),
        final_facts=(),
        final_query_text="q0",
    )


def _runner(corpus, enc, **kw):
    idx = build_index(corpus, enc)
    return PipelineRunner(corpus, idx, enc, PipelineConfig(**kw))


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(hops=2, per_hop_k=(25,))
    with pytest.raises(ValueError):
        PipelineConfig(hops=1, per_hop_k=(0,))
    with pytest.raises(ValueError):
        PipelineConfig(variant="mystery")
    with pytest.raises(ValueError):
        PipelineConfig(verifier="strict")


def test_single_hop_condensed_equals_manual_composition(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, hops=1, per_hop_k=(4,))
    query = _qrec("q1", "carthage fought rome")
    trace = runner.run_condensed(query)

    state = MultiHopQuery(qid="q1", q0_text=query.text)
    eq = enc.encode_query(state)
    ranked = retrieve(
        eq, runner.index, tiny_corpus, replace(runner.cfg.retrieval, k=4)
    )
    scorer = LexicalOverlapScorer(idf=IdfTable.from_corpus(tiny_corpus))
    kept = condense(
        state, [tiny_corpus.get(sp.pid) for sp in ranked], CondenserConfig(), scorer
    )

    hop = trace.hops[0]
    assert [(sp.pid, sp.score) for sp in hop.ranked] == [(sp.pid, sp.score) for sp in ranked]
    assert list(hop.kept_facts) == kept
    assert trace.union_pids == tuple(sp.pid for sp in ranked)
    assert trace.final_facts == tuple(kept)
    assert trace.final_query_text.startswith(query.text)
    for f in kept:
        assert f.text in trace.final_query_text


_WORDS = ["carthage", "fought", "rome", "tiber", "river", "ships", "silver", "sicily",
          "looms", "cloth", "sea", "legions", "unrelated"]


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    words=st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6),
    per_hop_k=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    variant=st.sampled_from(["condensed", "rerank"]),
    ivf=st.booleans(),
)
def test_hops_are_disjoint_and_exclusion_grows(enc, tiny_corpus, words, per_hop_k, variant, ivf):
    idx = build_index(tiny_corpus, enc, IndexConfig(variant="ivf" if ivf else "flat"))
    cfg = PipelineConfig(hops=len(per_hop_k), per_hop_k=tuple(per_hop_k), variant=variant)
    trace = PipelineRunner(tiny_corpus, idx, enc, cfg).run(_qrec("q", " ".join(words)))
    seen = set()
    for hop, k in zip(trace.hops, per_hop_k):
        pids = {sp.pid for sp in hop.ranked}
        assert len(pids) == len(hop.ranked) <= k
        assert not pids & seen
        assert hop.excluded == frozenset(seen)
        seen |= pids
    assert trace.union_pids == tuple(
        sp.pid for hop in trace.hops for sp in hop.ranked
    )
    assert len(set(trace.union_pids)) == len(trace.union_pids)


def test_accumulate_facts_ablation(enc, tiny_corpus):
    base = dict(hops=2, per_hop_k=(2, 2))
    on = _runner(tiny_corpus, enc, **base)
    off = _runner(tiny_corpus, enc, accumulate_facts=False, **base)
    q = _qrec("q", "carthage fought rome")
    t_on, t_off = on.run_condensed(q), off.run_condensed(q)
    assert t_off.final_facts == ()
    assert t_off.final_query_text == q.text
    if t_on.hops[0].kept_facts:
        assert t_on.final_facts != ()


def test_rerank_appends_whole_context_passage(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, hops=2, per_hop_k=(3, 3), variant="rerank")
    trace = runner.run_rerank(_qrec("q", "carthage fought rome"))
    assert trace.variant == "rerank"
    f_idx = 0
    for hop in trace.hops:
        assert hop.kept_facts == ()  # rerank keeps passages, not condensed facts
        assert hop.context_pid == hop.ranked[0].pid
        sentences = tiny_corpus.get(hop.context_pid).sentences
        chunk = trace.final_facts[f_idx : f_idx + len(sentences)]
        assert [f.text for f in chunk] == list(sentences)
        assert all(f.pid == hop.context_pid for f in chunk)
        f_idx += len(sentences)
    assert f_idx == len(trace.final_facts)


def test_hybrid_runs_both_variants(enc, tiny_corpus):
    runner = _runner(
        tiny_corpus, enc, hops=2, per_hop_k=(3, 3), variant="hybrid", hybrid_total=8
    )
    trace = runner.run(_qrec("q", "carthage fought rome"))
    assert isinstance(trace, HybridTrace)
    assert trace.condensed.variant == "condensed"
    assert trace.rerank.variant == "rerank"
    unique = set(trace.condensed.union_pids) | set(trace.rerank.union_pids)
    assert len(trace.merged) == min(8, len(unique))
    assert len(set(trace.merged)) == len(trace.merged)


def test_trivial_verifier(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, hops=1, per_hop_k=(2,), verifier="trivial")
    good = runner.run_condensed(_qrec("q", "tiber flows sea"))
    assert good.verdict is True
    bad = runner.run_condensed(_qrec("q", "qqq www eee"))
    assert bad.verdict is False


def test_no_verifier_means_none(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, hops=1, per_hop_k=(2,))
    assert runner.run_condensed(_qrec("q", "tiber")).verdict is None


def test_run_queries_thread_count_is_invisible(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, hops=2, per_hop_k=(2, 2))
    queries = [
        _qrec("q1", "carthage fought rome"),
        _qrec("q2", "tiber river sea"),
        _qrec("q3", "silver dye traders"),
    ]
    seq = run_queries(runner, queries, threads=1)
    par = run_queries(runner, queries, threads=4)
    assert [t.qid for t in par] == ["q1", "q2", "q3"]
    assert [trace_record(a) for a in seq] == [trace_record(b) for b in par]


# ---------------------------------------------------------------------------
# merging


def test_merge_disjoint_traces_fills_quota_13_12():
    c = _mk_trace([[f"c{h}_{i}" for i in range(25)] for h in range(4)])
    r = _mk_trace([[f"r{h}_{i}" for i in range(25)] for h in range(4)], variant="rerank")
    merged = merge_hybrid(c, r, total=100)
    assert len(merged) == 100
    assert len(set(merged)) == 100
    # hop-major: 25 per hop, condensed quota ceil(25/2)=13 then rerank 12
    hop0 = merged[:25]
    assert hop0[:13] == [f"c0_{i}" for i in range(13)]
    assert hop0[13:] == [f"r0_{i}" for i in range(12)]
    hop3 = merged[75:]
    assert hop3[:13] == [f"c3_{i}" for i in range(13)]
    assert hop3[13:] == [f"r3_{i}" for i in range(12)]


def test_merge_identical_traces_collapses_to_condensed_union():
    pids = [[f"p{h}_{i}" for i in range(25)] for h in range(4)]
    c = _mk_trace(pids)
    r = _mk_trace(pids, variant="rerank")
    merged = merge_hybrid(c, r, total=100)
    assert merged == [p for hop in pids for p in hop]


def test_merge_backfills_when_one_side_is_short():
    c = _mk_trace([[f"c{i}" for i in range(10)]])
    r = _mk_trace([["c0", "c1"]], variant="rerank")  # fully duplicated
    merged = merge_hybrid(c, r, total=8)
    assert merged == [f"c{i}" for i in range(8)]


def test_merge_returns_all_when_total_exceeds_unique():
    c = _mk_trace([["a", "b"]])
    r = _mk_trace([["b", "c"]], variant="rerank")
    merged = merge_hybrid(c, r, total=100)
    assert sorted(merged) == ["a", "b", "c"]


def test_merge_rejects_hop_mismatch():
    c = _mk_trace([["a"], ["b"]])
    r = _mk_trace([["a"]], variant="rerank")
    with pytest.raises(ValueError, match="hop count"):
        merge_hybrid(c, r, total=10)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n_hops=st.integers(1, 4),
    total=st.integers(0, 60),
)
def test_merge_size_and_uniqueness(data, n_hops, total):
    pool = [f"p{i}" for i in range(30)]
    c_lists, r_lists = [], []
    for _ in range(n_hops):
        c_lists.append(data.draw(st.lists(st.sampled_from(pool), max_size=12, unique=True)))
        r_lists.append(data.draw(st.lists(st.sampled_from(pool), max_size=12, unique=True)))
    merged = merge_hybrid(_mk_trace(c_lists), _mk_trace(r_lists), total=total)
    unique = {p for lst in c_lists + r_lists for p in lst}
    assert len(merged) == min(total, len(unique))
    assert len(set(merged)) == len(merged)
    assert set(merged) <= unique


# ---------------------------------------------------------------------------
# union views


def test_union_topk_prefixes():
    t = _mk_trace([["a", "b", "c"], ["d", "e", "f"]])
    assert union_topk(t, [2, 1]) == ["a", "b", "d"]
    assert union_topk(t, [3, 3]) == ["a", "b", "c", "d", "e", "f"]
    assert union_topk(t, [0, 0]) == []


def test_union_topk_rejects_overdraw():
    t = _mk_trace([["a", "b", "c"]])
    with pytest.raises(ValueError, match="exceeds"):
        union_topk(t, [4])
    with pytest.raises(ValueError):
        union_topk(t, [-1])
    with pytest.raises(ValueError, match="entries"):
        union_topk(t, [1, 1])


# ---------------------------------------------------------------------------
# serialization


def test_trace_round_trip(tmp_path, enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, hops=2, per_hop_k=(2, 2))
    traces = run_queries(
        runner, [_qrec("q1", "carthage fought rome"), _qrec("q2", "tiber sea")], threads=1
    )
    path = tmp_path / "traces.jsonl"
    meta = {"config": {"seed": 0}, "queries": 2}
    write_traces(path, traces, meta=meta)

    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert first == {"meta": meta}

    got_meta, records = read_traces(path)
    assert got_meta == meta
    assert records == [trace_record(t) for t in traces]
    assert [r["qid"] for r in records] == ["q1", "q2"]
    for rec in records:
        assert set(rec) >= {"qid", "q0", "variant", "per_hop_k", "hops", "union", "final_facts"}
        for hop in rec["hops"]:
            assert set(hop) == {"t", "ranked", "kept_facts", "context_pid", "excluded"}
            assert hop["excluded"] == sorted(hop["excluded"])


def test_hybrid_trace_record_nests_both_traces(enc, tiny_corpus):
    runner = _runner(
        tiny_corpus, enc, hops=1, per_hop_k=(3,), variant="hybrid", hybrid_total=4
    )
    rec = trace_record(runner.run(_qrec("q", "carthage rome")))
    assert rec["variant"] == "hybrid"
    assert rec["condensed"]["variant"] == "condensed"
    assert rec["rerank"]["variant"] == "rerank"
    assert rec["merged"] == list(dict.fromkeys(rec["merged"]))


def test_read_traces_reports_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"meta": {}}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        read_traces(path)


def test_read_traces_without_meta(tmp_path):
    path = tmp_path / "plain.jsonl"
    path.write_text('{"qid": "q"}\n', encoding="utf-8")
    meta, records = read_traces(path)
    assert meta is None
    assert records == [{"qid": "q"}]
