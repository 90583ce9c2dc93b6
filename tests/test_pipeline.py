import json
import sys
import weakref
from dataclasses import replace
from functools import lru_cache
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hoplite.condenser import CondenserConfig, IdfTable, condense
from hoplite.corpus import MultiHopQuery, QueryRecord
from hoplite.encoder import EncoderConfig, LexicalEncoder
from hoplite.index import SCREEN_BYTES, IndexConfig, RowCache, build_index
from hoplite.pipeline import (
    LOCKSTEP_QUERIES,
    HopRecord,
    HopTrace,
    HybridTrace,
    PipelineConfig,
    PipelineRunner,
    merge_hybrid,
    read_traces,
    run_queries,
    trace_record,
    write_traces,
)
from hoplite.retriever import retrieve
from hoplite.scoring import ScoredPassage
from hoplite.synth import PlantSpec, generate


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
        PipelineConfig(per_hop_k=())
    with pytest.raises(ValueError):
        PipelineConfig(per_hop_k=(0,))
    assert PipelineConfig(per_hop_k=(10, 40)).hops == 2
    with pytest.raises(ValueError):
        PipelineConfig(variant="mystery")
    with pytest.raises(ValueError):
        PipelineConfig(verify="trivial")
    with pytest.raises(ValueError, match="hybrid_total"):
        PipelineConfig(hybrid_total=-1)
    assert PipelineConfig(hybrid_total=0).hybrid_total == 0


def test_single_hop_condensed_equals_manual_composition(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(4,))
    query = _qrec("q1", "carthage fought rome")
    trace = runner.run(query)

    state = MultiHopQuery(qid="q1", q0_text=query.text)
    eq = enc.encode_query(state)
    ranked = retrieve(eq, runner.index, replace(runner.cfg.retrieval, k=4))
    kept = condense(
        state,
        [tiny_corpus.get(sp.pid) for sp in ranked],
        CondenserConfig(),
        IdfTable.from_corpus(tiny_corpus),
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
    cfg = PipelineConfig(per_hop_k=tuple(per_hop_k), variant=variant)
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
    base = dict(per_hop_k=(2, 2))
    on = _runner(tiny_corpus, enc, **base)
    off = _runner(tiny_corpus, enc, accumulate_facts=False, **base)
    q = _qrec("q", "carthage fought rome")
    t_on, t_off = on.run(q), off.run(q)
    assert t_off.final_facts == ()
    assert t_off.final_query_text == q.text
    if t_on.hops[0].kept_facts:
        assert t_on.final_facts != ()


def test_rerank_appends_whole_context_passage(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(3, 3), variant="rerank")
    trace = runner.run(_qrec("q", "carthage fought rome"))
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
        tiny_corpus, enc, per_hop_k=(3, 3), variant="hybrid", hybrid_total=8
    )
    trace = runner.run(_qrec("q", "carthage fought rome"))
    assert isinstance(trace, HybridTrace)
    assert trace.condensed.variant == "condensed"
    assert trace.rerank.variant == "rerank"
    unique = set(trace.condensed.union_pids) | set(trace.rerank.union_pids)
    assert len(trace.merged) == min(8, len(unique))
    assert len(set(trace.merged)) == len(trace.merged)


@pytest.mark.parametrize("per_hop_k", [(3,), (3, 3), (2, 3, 4)])
def test_hybrid_retrieves_hop_one_once(enc, tiny_corpus, monkeypatch, per_hop_k):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return retrieve(*args, **kwargs)

    runner = _runner(tiny_corpus, enc, per_hop_k=per_hop_k, variant="hybrid")
    monkeypatch.setattr("hoplite.pipeline.retrieve", counting)
    query = _qrec("q", "carthage fought rome")
    trace = runner.run(query)
    assert len(calls) == 2 * len(per_hop_k) - 1
    assert trace.rerank.hops[0].ranked == trace.condensed.hops[0].ranked
    # the shared hop 1 leaves the rerank arm as a standalone rerank run writes it
    rerank = PipelineRunner(tiny_corpus, runner.index, enc, replace(runner.cfg, variant="rerank"))
    assert trace_record(trace.rerank) == trace_record(rerank.run(query))


def test_trivial_verifier(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(2,), verify=True)
    good = runner.run(_qrec("q", "tiber flows sea"))
    assert good.verdict is True
    bad = runner.run(_qrec("q", "qqq www eee"))
    assert bad.verdict is False


def test_no_verifier_means_none(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(2,))
    assert runner.run(_qrec("q", "tiber")).verdict is None


def test_run_queries_thread_count_is_invisible(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(2, 2))
    queries = [
        _qrec("q1", "carthage fought rome"),
        _qrec("q2", "tiber river sea"),
        _qrec("q3", "silver dye traders"),
    ]
    seq = run_queries(runner, queries, threads=1)
    par = run_queries(runner, queries, threads=4)
    assert [t.qid for t in par] == ["q1", "q2", "q3"]
    assert [trace_record(a) for a in seq] == [trace_record(b) for b in par]


@pytest.mark.parametrize("variant", ["condensed", "rerank", "hybrid"])
@pytest.mark.parametrize("index_variant", ["flat", "ivf"])
def test_one_row_cache_per_query_changes_no_trace(enc, monkeypatch, variant, index_variant):
    planted = generate(PlantSpec(hops=3, queries=6, corpus_size=120, distractors_per_query=3,
                                 seed=5))
    idx = build_index(planted.corpus, enc, IndexConfig(variant=index_variant))
    cfg = PipelineConfig(per_hop_k=(5, 5, 5), variant=variant)  # 2k < pool: hops screen
    runner = PipelineRunner(planted.corpus, idx, enc, cfg)
    queries = planted.queries
    q0_rows = {}  # id(cache) -> (cache, the q0 rows of its calls); holding it keeps ids unique

    def recording(eq, *args, cache, **kwargs):
        q0_rows.setdefault(id(cache), (cache, set()))[1].add(eq.query_part.tobytes())
        return retrieve(eq, *args, cache=cache, **kwargs)

    def fresh(*args, cache, **kwargs):
        return retrieve(*args, **kwargs)

    for threads in (1, 4):
        monkeypatch.setattr("hoplite.pipeline.retrieve", recording)
        shared = [trace_record(t) for t in run_queries(runner, queries, threads)]
        monkeypatch.setattr("hoplite.pipeline.retrieve", fresh)
        alone = [trace_record(t) for t in run_queries(runner, queries, threads)]
        assert shared == alone
    # one cache per run (six queries fill one window), serving all of its queries
    assert len(q0_rows) == 2
    assert all(len(rows) == len(queries) for _, rows in q0_rows.values())


@lru_cache(maxsize=None)
def _planted(index_variant):
    """An encoder, a 120-passage planted corpus with 10 queries, and its index."""
    enc = LexicalEncoder(EncoderConfig(dim=64, seed=3))
    planted = generate(PlantSpec(hops=3, queries=10, corpus_size=120, distractors_per_query=3,
                                 seed=5))
    return enc, planted, build_index(planted.corpus, enc, IndexConfig(variant=index_variant))


@settings(max_examples=50, deadline=None)
@given(
    picks=st.integers(1, LOCKSTEP_QUERIES + 3).flatmap(
        lambda n: st.lists(st.integers(0, 10), min_size=n, max_size=n)),
    # a 120-passage pool screens at k <= 59 and is scored in one pass from k = 60
    per_hop_k=st.lists(st.sampled_from([1, 4, 59, 61, 80]), min_size=1, max_size=3),
    variant=st.sampled_from(["condensed", "rerank", "hybrid"]),
    index_variant=st.sampled_from(["flat", "ivf"]),
    threads=st.sampled_from([1, 4]),
    screen_bytes=st.sampled_from([1, 64 * 1024, SCREEN_BYTES]),
)
@example(  # 22 queries: a full window, then six
    picks=list(range(11)) * 2, per_hop_k=[4, 4], variant="hybrid", index_variant="ivf",
    threads=4, screen_bytes=SCREEN_BYTES,
)
def test_lockstep_batches_write_the_traces_of_queries_run_alone(
    picks, per_hop_k, variant, index_variant, threads, screen_bytes
):
    """`run_queries` over a batch (up to past one window, repeats and a query
    that encodes to no rows included) writes the traces each query gets run
    alone with a fresh cache per retrieval; each window's one cache serves
    the queries of that window, and at most one cache is alive at a time."""
    enc, planted, idx = _planted(index_variant)
    cfg = PipelineConfig(per_hop_k=tuple(per_hop_k), variant=variant)
    runner = PipelineRunner(planted.corpus, idx, enc, cfg)
    queries = [(planted.queries + [_qrec("blank", "--")])[i] for i in picks]
    q0_rows = {}  # serial number of a cache -> the q0 rows of its calls
    alive = weakref.WeakSet()  # caches not yet freed
    most_alive = []

    class Tracked(RowCache):
        def __init__(self, *args):
            super().__init__(*args)
            self.serial = len(q0_rows)
            q0_rows[self.serial] = set()
            alive.add(self)

    def recording(eq, *args, cache, **kwargs):
        q0_rows[cache.serial].add(eq.query_part.tobytes())
        most_alive.append(len(alive))
        return retrieve(eq, *args, cache=cache, **kwargs)

    def fresh(*args, cache, **kwargs):
        return retrieve(*args, **kwargs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads hand over often, so a race would show
    try:
        with patch("hoplite.index.SCREEN_BYTES", screen_bytes), \
                patch("hoplite.pipeline.RowCache", Tracked), \
                patch("hoplite.pipeline.retrieve", recording):
            batch = [trace_record(t) for t in run_queries(runner, queries, threads)]
    finally:
        sys.setswitchinterval(interval)
    with patch("hoplite.pipeline.retrieve", fresh):
        alone = [trace_record(runner.run(q)) for q in queries]
    assert batch == alone
    q0 = [enc.encode_query(MultiHopQuery(q.qid, q.text)).query_part.tobytes() for q in queries]
    assert list(q0_rows.values()) == [set(q0[at : at + LOCKSTEP_QUERIES])
                                      for at in range(0, len(q0), LOCKSTEP_QUERIES)]
    assert max(most_alive) == 1


@pytest.mark.parametrize("per_hop_k, screened_hops", [((5, 5, 5), 3), ((5, 70, 5), 2)])
def test_a_batch_screens_each_hop_in_one_call(per_hop_k, screened_hops):
    """A flat condensed batch of 10 screens each hop with one `screen_maxima`
    call, and screens the rows its queries screen alone: none at a hop scored
    in one pass (2k >= pool)."""
    enc, planted, idx = _planted("flat")
    runner = PipelineRunner(planted.corpus, idx, enc, PipelineConfig(per_hop_k=per_hop_k))
    queries = planted.queries
    assert len(queries) == 10
    sizes = []
    screen = idx.screen_maxima
    with patch.object(idx, "screen_maxima", lambda src: sizes.append(len(src)) or screen(src)):
        batch = [trace_record(t) for t in run_queries(runner, queries)]
        stacked = sizes[:]
        sizes.clear()
        alone = [trace_record(runner.run(q)) for q in queries]
    assert batch == alone
    assert len(stacked) == screened_hops
    assert len(sizes) == screened_hops * len(queries)
    assert sum(stacked) == sum(sizes)


def test_a_batch_screens_a_repeated_query_once():
    """A flat condensed batch holding the same query twice screens each
    distinct row once per hop: the rows the query screens alone."""
    enc, planted, idx = _planted("flat")
    runner = PipelineRunner(planted.corpus, idx, enc, PipelineConfig(per_hop_k=(5, 5, 5)))
    query = planted.queries[0]
    sizes = []
    screen = idx.screen_maxima
    with patch.object(idx, "screen_maxima", lambda src: sizes.append(len(src)) or screen(src)):
        batch = [trace_record(t) for t in run_queries(runner, [query, query])]
        stacked = sizes[:]
        sizes.clear()
        alone = trace_record(runner.run(query))
    assert batch == [alone, alone]
    assert len(sizes) == 3
    assert stacked == sizes


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
# serialization


def test_trace_round_trip(tmp_path, enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(2, 2))
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
        tiny_corpus, enc, per_hop_k=(3,), variant="hybrid", hybrid_total=4
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
    path.write_text('{"qid": "q", "union": [], "hops": []}\n', encoding="utf-8")
    meta, records = read_traces(path)
    assert meta is None
    assert records == [{"qid": "q", "union": [], "hops": []}]
