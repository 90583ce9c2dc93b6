import gc
import json
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from itertools import repeat
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hoplite.condenser import CondenserConfig, IdfTable, condense
from hoplite.corpus import Fact, MultiHopQuery, QueryRecord
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
    retrieve_hop,
    run_queries,
    trace_record,
    write_traces,
)
from hoplite.retriever import RetrievalConfig, Retriever, retrieve
from hoplite.scoring import Ranking, ScoredPassage, source_columns
from hoplite.synth import PlantSpec, generate

from oracle import from_passages


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
        scores = np.arange(len(pids), 0, -1, dtype=float)
        ranked = Ranking(tuple(pids), scores, np.zeros(len(pids)))
        hops.append(HopRecord(t=t, ranked=ranked, kept_facts=(), context_pid=None))
    return HopTrace(
        qid=qid,
        q0_text="q0",
        variant=variant,
        per_hop_k=tuple(len(p) for p in hop_pids),
        hops=tuple(hops),
        final_facts=(),
    )


def _runner(corpus, enc, **kw):
    idx = build_index(corpus, enc)
    return PipelineRunner(corpus, idx, enc, PipelineConfig(**kw))


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(per_hop_k=())
    with pytest.raises(ValueError):
        PipelineConfig(per_hop_k=(0,))
    assert len(PipelineConfig(per_hop_k=(10, 40)).per_hop_k) == 2
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
    ranked = retrieve(eq, runner.retriever.index, replace(runner.cfg.retrieval, k=4))
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
    assert trace.query.text.startswith(query.text)
    for f in kept:
        assert f.text in trace.query.text


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
    accumulate_facts=st.booleans(),
)
def test_hops_are_disjoint_and_exclusion_grows(
    enc, tiny_corpus, words, per_hop_k, variant, ivf, accumulate_facts
):
    idx = build_index(tiny_corpus, enc, IndexConfig(variant="ivf" if ivf else "flat"))
    cfg = PipelineConfig(per_hop_k=tuple(per_hop_k), variant=variant,
                         accumulate_facts=accumulate_facts)
    excluded = []  # the exclusion set of each retrieve call, sorted
    texts = []  # the query text of each hop

    def recording(*args, exclude, **kwargs):
        excluded.append(sorted(exclude))
        return retrieve(*args, exclude=exclude, **kwargs)

    def recording_hop(retriever, k, states, excludes, cache):
        texts.extend(state.text for state in states)
        return retrieve_hop(retriever, k, states, excludes, cache)

    q0 = " ".join(words)
    with patch("hoplite.pipeline.retrieve", recording), \
            patch("hoplite.pipeline.retrieve_hop", recording_hop):
        trace = PipelineRunner(tiny_corpus, idx, enc, cfg).run(_qrec("q", q0))
    rec = trace_record(trace)
    seen = set()
    prefixes = []  # the sorted union of the hops before each hop
    for hop, k in zip(rec["hops"], per_hop_k):
        pids = {sp["pid"] for sp in hop["ranked"]}
        assert len(pids) == len(hop["ranked"]) <= k
        assert not pids & seen
        prefixes.append(sorted(seen))
        seen |= pids
    # each hop was retrieved under the sorted union of the hops before it
    assert prefixes == excluded
    assert rec["union"] == [sp["pid"] for hop in rec["hops"] for sp in hop["ranked"]]
    assert rec["union"] == list(trace.union_pids)
    assert len(set(rec["union"])) == len(rec["union"])
    # hop t asks q0 plus what the hops before it added: kept facts (condensed)
    # or the context passage's sentences (rerank); q0 alone without accumulation
    added = []  # the texts each hop adds to the query
    for hop in rec["hops"]:
        if variant == "condensed":
            added.append([f["text"] for f in hop["kept_facts"]])
        else:
            context = hop["context_pid"]
            added.append(list(tiny_corpus.get(context).sentences) if context else [])
    assert len(texts) == len(per_hop_k)
    for t, text in enumerate(texts):
        before = [s for hop in added[:t] for s in hop] if accumulate_facts else []
        assert text == " ".join([q0] + before)
    # the final query, q0 plus the written final facts, is the trace's own
    assert " ".join([rec["q0"]] + [f["text"] for f in rec["final_facts"]]) == trace.query.text


def test_accumulate_facts_ablation(enc, tiny_corpus):
    base = dict(per_hop_k=(2, 2))
    on = _runner(tiny_corpus, enc, **base)
    off = _runner(tiny_corpus, enc, accumulate_facts=False, **base)
    q = _qrec("q", "carthage fought rome")
    t_on, t_off = on.run(q), off.run(q)
    assert t_off.final_facts == ()
    assert t_off.query.text == q.text
    if t_on.hops[0].kept_facts:
        assert t_on.final_facts != ()


def test_rerank_appends_whole_context_passage(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(3, 3), variant="rerank")
    trace = runner.run(_qrec("q", "carthage fought rome"))
    assert trace.variant == "rerank"
    f_idx = 0
    for hop in trace.hops:
        assert hop.kept_facts == ()  # rerank keeps passages, not condensed facts
        assert hop.context_pid == hop.ranked.pids[0]
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
    rerank = PipelineRunner(tiny_corpus, runner.retriever.index, enc,
                            replace(runner.cfg, variant="rerank"))
    assert trace_record(trace.rerank) == trace_record(rerank.run(query))


def _reachable(roots):
    """Every object reachable from `roots` through `gc.get_referents`; classes
    are not entered, so the walk stays inside the instances."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("variant", ["condensed", "rerank", "hybrid"])
def test_traces_hold_arrays_not_objects(enc, tiny_corpus, variant):
    runner = _runner(tiny_corpus, enc, per_hop_k=(3, 3, 3), variant=variant)
    queries = [_qrec("q1", "carthage fought rome"), _qrec("q2", "tiber river sea")]
    traces = run_queries(runner, queries)
    hop_traces = [arm for t in traces
                  for arm in ((t.condensed, t.rerank) if isinstance(t, HybridTrace) else (t,))]
    assert all(isinstance(hop.ranked, Ranking) for t in hop_traces for hop in t.hops)
    assert sum(len(hop.ranked) for t in hop_traces for hop in t.hops) > 0
    held = [o for o in _reachable(traces) if isinstance(o, (ScoredPassage, set, frozenset))]
    assert held == []


def test_trivial_verifier(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(2,), verify=True)
    good = runner.run(_qrec("q", "tiber flows sea"))
    assert good.verdict is True
    bad = runner.run(_qrec("q", "qqq www eee"))
    assert bad.verdict is False


def test_no_verifier_means_none(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(2,))
    assert runner.run(_qrec("q", "tiber")).verdict is None


def test_run_queries_runs_on_one_thread(enc, tiny_corpus):
    runner = _runner(tiny_corpus, enc, per_hop_k=(2, 2))
    queries = [
        _qrec("q1", "carthage fought rome"),
        _qrec("q2", "tiber river sea"),
        _qrec("q3", "silver dye traders"),
    ]
    traces = run_queries(runner, queries, threads=1)
    assert [t.qid for t in traces] == ["q1", "q2", "q3"]
    assert [trace_record(t) for t in traces] == [trace_record(runner.run(q)) for q in queries]
    for threads in (0, 2, 4):
        with pytest.raises(ValueError, match="threads must be 1"):
            run_queries(runner, queries, threads=threads)


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

    monkeypatch.setattr("hoplite.pipeline.retrieve", recording)
    shared = [trace_record(t) for t in run_queries(runner, queries)]
    monkeypatch.setattr("hoplite.pipeline.retrieve", fresh)
    alone = [trace_record(t) for t in run_queries(runner, queries)]
    assert shared == alone
    # one cache for the run (six queries fill one window), serving all of its queries
    assert len(q0_rows) == 1
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
    screen_bytes=st.sampled_from([1, 64 * 1024, SCREEN_BYTES]),
    accumulate_facts=st.booleans(),
    verify=st.booleans(),
)
@example(  # 22 queries: a full window, then six
    picks=list(range(11)) * 2, per_hop_k=[4, 4], variant="hybrid", index_variant="ivf",
    screen_bytes=SCREEN_BYTES, accumulate_facts=True, verify=True,
)
def test_lockstep_batches_write_the_traces_of_queries_run_alone(
    picks, per_hop_k, variant, index_variant, screen_bytes, accumulate_facts, verify
):
    """`run_queries` over a batch (up to past one window, repeats and a query
    that encodes to no rows included) writes the traces each query gets run
    alone with a fresh cache per retrieval; the runner's one cache serves
    every window, reset at the start of each, and serves each window the
    queries of that window alone."""
    enc, planted, idx = _planted(index_variant)
    cfg = PipelineConfig(per_hop_k=tuple(per_hop_k), variant=variant,
                         accumulate_facts=accumulate_facts, verify=verify)
    runner = PipelineRunner(planted.corpus, idx, enc, cfg)
    queries = [(planted.queries + [_qrec("blank", "--")])[i] for i in picks]
    q0_rows = []  # per reset of the runner's cache, the q0 rows of the calls after it
    reset = runner.cache.reset

    def resetting():
        q0_rows.append(set())
        reset()

    def recording(eq, *args, cache, **kwargs):
        assert cache is runner.cache
        q0_rows[-1].add(eq.query_part.tobytes())
        return retrieve(eq, *args, cache=cache, **kwargs)

    def fresh(*args, cache, **kwargs):
        return retrieve(*args, **kwargs)

    with patch("hoplite.index.SCREEN_BYTES", screen_bytes), \
            patch.object(runner.cache, "reset", resetting), \
            patch("hoplite.pipeline.retrieve", recording):
        batch = [trace_record(t) for t in run_queries(runner, queries)]
    with patch("hoplite.pipeline.retrieve", fresh):
        alone = [trace_record(runner.run(q)) for q in queries]
    assert batch == alone
    q0 = [enc.encode_query(MultiHopQuery(q.qid, q.text)).query_part.tobytes() for q in queries]
    assert q0_rows == [set(q0[at : at + LOCKSTEP_QUERIES])
                       for at in range(0, len(q0), LOCKSTEP_QUERIES)]


# k = 70 on 120 passages is scored in one pass (2k >= pool), and its hop screens nothing
@pytest.mark.parametrize("per_hop_k, screened_hops", [((5, 5, 5), 3), ((5, 70, 5), 2)])
def test_a_batch_screens_each_hop_in_one_call(per_hop_k, screened_hops):
    """A flat condensed batch of 10 screens each hop that prunes with one
    `screen_maxima` call, screens the rows its queries screen alone, and
    writes their traces."""
    enc, planted, idx = _planted("flat")
    runner = PipelineRunner(planted.corpus, idx, enc, PipelineConfig(per_hop_k=per_hop_k))
    queries = planted.queries
    assert len(queries) == 10
    sizes = []
    screen = idx.screen_maxima
    with patch.object(idx, "screen_maxima",
                      lambda src, *bufs: sizes.append(len(src)) or screen(src, *bufs)):
        batch = [trace_record(t) for t in run_queries(runner, queries)]
        stacked = sizes[:]
        sizes.clear()
        alone = [trace_record(runner.run(q)) for q in queries]
    assert batch == alone
    assert len(stacked) == screened_hops
    assert len(sizes) == screened_hops * len(queries)
    assert sum(stacked) == sum(sizes)


# 2k < pool at k = 5; at k = 70 no hop's pool exceeds 2k = 140
@pytest.mark.parametrize("per_hop_k, pruning_hops",
                         [((5, 5, 5), 3), ((5, 70, 5), 2), ((70, 70, 70), 0)])
def test_a_hop_screens_once_per_window_if_its_lanes_prune(per_hop_k, pruning_hops):
    """Over two windows, a flat condensed batch calls `screen_maxima` once per
    window in each hop whose lanes prune, and never in a hop whose lanes
    are scored in one pass."""
    enc, planted, idx = _planted("flat")
    runner = PipelineRunner(planted.corpus, idx, enc, PipelineConfig(per_hop_k=per_hop_k))
    queries = planted.queries * 2  # a window of LOCKSTEP_QUERIES, then one of 4
    assert LOCKSTEP_QUERIES < len(queries) <= 2 * LOCKSTEP_QUERIES
    calls = []
    screen = idx.screen_maxima
    with patch.object(idx, "screen_maxima",
                      lambda src, *bufs: calls.append(len(src)) or screen(src, *bufs)):
        run_queries(runner, queries)
    assert len(calls) == 2 * pruning_hops


def test_a_batch_screens_a_repeated_query_once():
    """A flat condensed batch holding the same query twice screens each
    distinct row once per hop: the rows the query screens alone."""
    enc, planted, idx = _planted("flat")
    runner = PipelineRunner(planted.corpus, idx, enc, PipelineConfig(per_hop_k=(5, 5, 5)))
    query = planted.queries[0]
    sizes = []
    screen = idx.screen_maxima
    with patch.object(idx, "screen_maxima",
                      lambda src, *bufs: sizes.append(len(src)) or screen(src, *bufs)):
        batch = [trace_record(t) for t in run_queries(runner, [query, query])]
        stacked = sizes[:]
        sizes.clear()
        alone = trace_record(runner.run(query))
    assert batch == [alone, alone]
    assert len(sizes) == 3
    assert stacked == sizes


# Traced bytes a warm window of 16 queries may add at its peak: its own
# arrays (each query's encoded rows and the float64 columns the kernel reads)
# and the kernel's stacks, each under STACK_BYTES. The test below reads about
# 200 KiB; the screen's float32 rows are cast straight into the cache's buffer.
WARM_WINDOW_PEAK = 512 * 1024


def test_a_warm_cache_maps_no_large_temporary():
    """A second window of `retrieve_hop` through a cache the first window grew
    ranks as the first did and raises the traced peak by less than
    WARM_WINDOW_PEAK: the rows screened, the similarity block, the maxima
    table and the gathered maxima all sit in the cache's buffers, while the
    same rows' similarity block alone is over 1.5 MiB."""
    enc = LexicalEncoder(EncoderConfig(dim=64, seed=3))
    planted = generate(PlantSpec(hops=3, queries=LOCKSTEP_QUERIES, corpus_size=300,
                                 distractors_per_query=3, seed=5))
    corpus = planted.corpus
    idx = from_passages(corpus.pids, [enc.encode_passage(p) for p in corpus])
    retriever = Retriever(corpus, idx, enc, RetrievalConfig())
    passages = list(corpus)
    states = [MultiHopQuery(q.qid, q.text, (Fact(passages[i].pid, 0, passages[i].sentences[0]),))
              for i, q in enumerate(planted.queries)]
    n_rows = sum(source_columns(enc.encode_query(state)).shape[1] for state in states)
    block_cols = min(n_rows, SCREEN_BYTES // (4 * idx.n_vectors))
    assert 4 * idx.n_vectors * block_cols > 3 * WARM_WINDOW_PEAK  # one fresh similarity block
    cache = RowCache(idx)

    def window():
        cache.reset()
        # k 5 against 300 passages: every call prunes, so the window screens
        return [list(r) for r in retrieve_hop(retriever, 5, states, repeat(frozenset()), cache)]

    first = window()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        second = window()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert second == first
    assert peak < WARM_WINDOW_PEAK


@pytest.mark.parametrize("variant", ["flat", "ivf"])
def test_a_hop_in_which_no_call_prunes_copies_no_rows(enc, tiny_corpus, variant):
    """At a k where 2k is at least every pool, no call of a hop screens, so
    the cache copies none of the hop's rows and holds no maxima."""
    idx = build_index(tiny_corpus, enc, IndexConfig(variant=variant))
    retriever = Retriever(tiny_corpus, idx, enc, RetrievalConfig())
    states = [MultiHopQuery(f"q{i}", text, ()) for i, text in
              enumerate(["carthage fought rome", "tiber river", "silver dye looms"])]
    k = len(tiny_corpus)
    cache = RowCache(idx)
    got = retrieve_hop(retriever, k, states, repeat(frozenset()), cache)
    assert "rows" not in cache._buffers and not cache.maxima
    step = RetrievalConfig(k=k)
    assert [list(r) for r in got] == [
        list(retrieve(enc.encode_query(state), idx, step)) for state in states]


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
            assert set(hop) == {"t", "ranked", "kept_facts", "context_pid"}
            for sp in hop["ranked"]:
                assert set(sp) == {"pid", "s_query", "s_fact"}


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
