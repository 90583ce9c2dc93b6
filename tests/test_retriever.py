from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hoplite.index as index_module
from hoplite.corpus import Corpus, MultiHopQuery
from hoplite.encoder import EncodedQuery, EncoderConfig, LexicalEncoder
from hoplite.index import (
    IndexConfig,
    IvfData,
    RowCache,
    TokenIndex,
    build_index,
    candidates_for,
    rank_pool,
)
from hoplite.pipeline import PipelineRunner
from hoplite.retriever import RetrievalConfig, Retriever, retrieve
from hoplite.scoring import FocusParams, flipr_score, screen_error
from hoplite.supervision import TERM_WEIGHT_MAX_RATIO

from conftest import unit_rows
from oracle import exact_topk_oracle, from_passages, rows_for


def _query(text: str) -> MultiHopQuery:
    return MultiHopQuery(qid="q", q0_text=text, facts=())


def test_retrieve_matches_exact_oracle_at_full_rpv(enc, tiny_corpus):
    # flat retrieval scores every passage, so it must reproduce the brute-force ranking
    idx = build_index(tiny_corpus, enc)
    cfg = RetrievalConfig(k=6, results_per_vector=idx.n_vectors)
    for text in ("carthage fought rome", "tiber river", "silver dye looms"):
        eq = enc.encode_query(_query(text))
        got = retrieve(eq, idx, cfg)
        want = exact_topk_oracle(eq, tiny_corpus, enc, k=6)
        assert [(sp.pid, sp.score) for sp in got] == [(sp.pid, sp.score) for sp in want]


def test_retrieve_scores_are_bit_stable(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage harbor ships"))
    a = retrieve(eq, idx)
    b = retrieve(eq, idx)
    assert [(sp.pid, sp.score) for sp in a] == [(sp.pid, sp.score) for sp in b]


def test_retrieve_respects_k(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage rome tiber"))
    assert len(retrieve(eq, idx, RetrievalConfig(k=2))) == 2


def test_retrieve_excludes_pids(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage fought rome"))
    full = list(retrieve(eq, idx))
    top = full[0].pid
    without = retrieve(eq, idx, exclude={top})
    assert top not in {sp.pid for sp in without}
    # remaining order is unchanged
    assert [sp.pid for sp in without] == [sp.pid for sp in full if sp.pid != top]


def test_retrieve_exclude_everything_is_empty(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage"))
    assert list(retrieve(eq, idx, exclude=set(tiny_corpus.pids))) == []


@pytest.mark.parametrize("variant", ["flat", "ivf"])
def test_retrieve_rejects_query_of_another_dim(enc, tiny_corpus, variant):
    idx = build_index(tiny_corpus, enc, IndexConfig(variant=variant, centroid_count=3))
    wide = LexicalEncoder(EncoderConfig(dim=128, seed=3))
    # checked before the empty-query return and before IVF candidate generation
    for text in ("carthage fought rome", ""):
        eq = wide.encode_query(_query(text))
        with pytest.raises(ValueError, match=r"query dim 128 .* index dim 64.*encoder\.dim"):
            retrieve(eq, idx)


def test_retrieve_errors_on_candidate_missing_from_corpus(enc, tiny_corpus):
    # the corpus is checked once, when the retriever is built, not per call
    idx = build_index(tiny_corpus, enc)
    smaller = Corpus([tiny_corpus.get("p1")])
    with pytest.raises(KeyError, match="not in the corpus"):
        Retriever(smaller, idx, enc)


def test_missing_corpus_pid_raises_even_outside_the_band(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage fought three wars against rome"))
    ranked = list(retrieve(eq, idx, RetrievalConfig(k=len(tiny_corpus.pids))))
    best, last = ranked[0], ranked[-1]
    # k = 1 screens (2k < 6 passages) and the last pid is far outside the band
    assert best.score - last.score > 4 * screen_error(eq, FocusParams(), idx.max_row_norm)
    smaller = Corpus([p for p in tiny_corpus if p.pid != last.pid])
    for build in (Retriever, PipelineRunner):
        with pytest.raises(KeyError, match=last.pid):
            build(smaller, idx, enc)


def _nudged(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """`rows` with some entries moved a few float32 ulps up or down."""
    out = rows.copy()
    for _ in range(int(rng.integers(1, 4))):
        pick = rng.random(out.shape) < 0.5
        toward = np.where(rng.random(out.shape) < 0.5, np.inf, -np.inf).astype(np.float32)
        out = np.where(pick, np.nextafter(out, toward), out)
    return out


def _on_grid(rows: np.ndarray, bits: int, dtype) -> np.ndarray:
    """Rows rounded to multiples of 2**-bits: float64 dot products of such rows
    are exact, so exact copies tie to the bit whatever the BLAS batch shape."""
    return (np.round(rows * 2.0**bits) / 2.0**bits).astype(dtype)


@st.composite
def planted_retrievals(draw):
    """An index whose passages include exact and few-ulp copies of each other,
    a query with rows scaled up to TERM_WEIGHT_MAX_RATIO (float32 or float64), and a flat
    or IVF pool with exclusions; k from 1 to one past the passage count, so
    both sides of the 2k < pool size rule that decides whether to screen."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([4, 16, 64]))
    n_base = draw(st.integers(2, 10))
    passages = [_on_grid(unit_rows(rng, int(rng.integers(1, 5)), dim), 12, np.float32)
                for _ in range(n_base)]
    for base in passages[:n_base]:
        if draw(st.booleans()):
            passages.append(base.copy())
        if draw(st.booleans()):
            passages.append(_nudged(base, rng))
    passages.append(np.zeros((0, dim), np.float32))  # an empty passage is never scored
    passages = [passages[i] for i in rng.permutation(len(passages))]
    pids = [f"p{i:02d}" for i in range(len(passages))]
    storage = np.concatenate(passages)  # in pid order, as IVF assignments are made

    ivf = None
    rpv = storage.shape[0]
    if draw(st.booleans()):
        n_c = int(rng.integers(1, 4))
        centroids = unit_rows(rng, n_c, dim)
        assign = np.argmax(storage @ centroids.T, axis=1)
        ivf = IvfData(centroids, assign, nprobe=int(rng.integers(1, n_c + 1)))
        rpv = int(rng.integers(1, storage.shape[0] + 1))
    index = from_passages(pids, passages, ivf)

    def query_rows(n):
        # near copies of passage rows make strong maxima, as real queries do
        near = storage[rng.integers(0, storage.shape[0], n)] + 0.1 * unit_rows(rng, n, dim)
        ratio = TERM_WEIGHT_MAX_RATIO
        scaled = near * rng.uniform(1 / ratio, ratio, (n, 1))
        # float64 rows off the float32 grid exercise the cast term of the bound
        if draw(st.booleans()):
            return _on_grid(scaled, 30, np.float64)
        return _on_grid(scaled, 20, np.float32)

    eq = EncodedQuery(query_rows(draw(st.integers(1, 6))), query_rows(draw(st.integers(0, 4))))
    focus = FocusParams(n_hat=draw(st.integers(1, 6)), l_hat=draw(st.integers(0, 4)))
    exclude = {pid for pid in pids if rng.random() < 0.15}
    k = draw(st.integers(1, len(pids) + 1))
    return index, eq, RetrievalConfig(k=k, results_per_vector=rpv, focus=focus), exclude


def _solo(eq: EncodedQuery, index: TokenIndex, positions, focus: FocusParams) -> list:
    """Each passage at `positions` scored alone with `flipr_score`."""
    out = []
    for i in positions:
        lo, hi = rows_for(index, index.pids[i])
        out.append(flipr_score(eq, index.storage[lo:hi], focus, pid=index.pids[i]))
    return out


@settings(max_examples=300, deadline=None)
@given(planted_retrievals())
def test_screen_and_rescore_ranks_as_one_float64_pass(case):
    index, eq, cfg, exclude = case
    got = list(retrieve(eq, index, cfg, exclude))

    pool = np.flatnonzero(index.row_counts()) if index.ivf is None else candidates_for(
        eq, index, cfg.results_per_vector
    )
    pool = pool[~np.isin(pool, index.positions_of(exclude))]
    solo = _solo(eq, index, pool.tolist(), cfg.focus)
    want = sorted(solo, key=lambda sp: (-sp.score, sp.pid))[: cfg.k]

    assert [sp.pid for sp in got] == [sp.pid for sp in want]
    assert got == want  # scores to the bit


@st.composite
def off_grid_indexes(draw):
    """A flat and an IVF index over the same random float32 passages, some of
    them exact copies, and a float32 or float64 query; no row is on a grid,
    so BLAS rounds every dot product."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(4, 128))
    passages = [rng.standard_normal((int(rng.integers(1, 12)), dim)).astype(np.float32)
                for _ in range(draw(st.integers(1, 40)))]
    passages += [passages[i].copy() for i in rng.integers(0, len(passages), 4)]
    passages = [passages[i] for i in rng.permutation(len(passages))]
    pids = [f"p{i}" for i in range(len(passages))]  # p10 sorts before p2
    storage = np.concatenate(passages)  # in pid order, as IVF assignments are made
    flat = from_passages(pids, passages)
    n_c = int(rng.integers(1, 6))
    centroids = unit_rows(rng, n_c, dim)
    assign = np.argmax(storage @ centroids.T, axis=1)
    ivf = IvfData(centroids, assign, nprobe=int(rng.integers(1, n_c + 1)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    eq = EncodedQuery(
        rng.standard_normal((draw(st.integers(1, 12)), dim)).astype(dtype),
        rng.standard_normal((draw(st.integers(0, 6)), dim)).astype(dtype),
    )
    focus = FocusParams(n_hat=draw(st.integers(1, 12)), l_hat=draw(st.integers(0, 6)))
    cfg = RetrievalConfig(
        k=draw(st.integers(1, len(pids))),
        results_per_vector=int(rng.integers(1, storage.shape[0] + 1)),
        focus=focus,
    )
    exclude = {pid for pid in pids if rng.random() < 0.2}
    return flat, from_passages(pids, passages, ivf), eq, cfg, exclude


@settings(max_examples=200, deadline=None)
@given(off_grid_indexes(), st.sampled_from([1, 2048, index_module.STACK_BYTES]))
def test_scores_do_not_depend_on_the_pool(case, stack_bytes):
    flat, ivf, eq, cfg, exclude = case
    solo = {sp.pid: sp for sp in _solo(eq, flat, range(len(flat.pids)), cfg.focus)}
    everything = RetrievalConfig(k=len(flat.pids), focus=cfg.focus)
    runs = ((flat, everything, set()), (flat, cfg, exclude), (ivf, cfg, exclude))
    for index, rcfg, skip in runs:
        # stacks of one passage each, of a few, or of the default size
        with patch.object(index_module, "STACK_BYTES", stack_bytes):
            ranked = list(retrieve(eq, index, rcfg, skip))
        # the same bits alone as in any pool, flat or IVF, screened or not
        assert ranked == [solo[sp.pid] for sp in ranked]
        # exact copies tie, and every tie breaks by ascending pid
        assert ranked == sorted(ranked, key=lambda sp: (-sp.score, sp.pid))
    full = list(retrieve(eq, flat, everything))
    rows = {pid: flat.storage[slice(*rows_for(flat, pid))].tobytes() for pid in flat.pids}
    for a, b in zip(full, full[1:]):
        if rows[a.pid] == rows[b.pid]:
            assert a.score == b.score and a.pid < b.pid


@st.composite
def cached_call_sequences(draw, calls=(2, 5)):
    """A flat or IVF index over random float32 passages, and `calls` (by
    default 2 to 5) retrieve calls whose rows come from one small set: rows repeat within a call and
    recur across calls, some differ from another in their last entry only,
    float64 rows that round to the same float32 as another row sit beside
    it, and each call may bring rows not seen before, so a shared cache
    grows past its first allocation. Each call has its own k, on either side
    of the 2k < pool size rule, and its own exclusions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(4, 96))
    passages = [rng.standard_normal((int(rng.integers(1, 9)), dim)).astype(np.float32)
                for _ in range(draw(st.integers(2, 40)))]
    passages.append(passages[0].copy())
    pids = [f"p{i}" for i in range(len(passages))]
    storage = np.concatenate(passages)  # in pid order, as IVF assignments are made
    ivf = None
    rpv = storage.shape[0]
    if draw(st.booleans()):
        n_c = int(rng.integers(1, 6))
        centroids = unit_rows(rng, n_c, dim)
        assign = np.argmax(storage @ centroids.T, axis=1)
        ivf = IvfData(centroids, assign, nprobe=int(rng.integers(1, n_c + 1)))
        rpv = int(rng.integers(1, storage.shape[0] + 1))
    index = from_passages(pids, passages, ivf)

    base = rng.standard_normal((int(rng.integers(2, 12)), dim)).astype(np.float32)
    base[1::2, :-1] = base[::2, :-1][: len(base) // 2]  # pairs differing in one entry
    # float64 twins: a few float64 ulps off a base row, the same row in float32
    twins = base.astype(np.float64) * (1 + rng.choice([-1, 1], base.shape) * 2.0**-40)
    assert np.array_equal(twins.astype(np.float32), base)

    def part(n, dtype):
        fresh = rng.standard_normal((int(rng.integers(0, 3)), dim))
        if dtype == np.float32:
            rows = np.concatenate([base[rng.integers(0, len(base), n)], fresh])
        else:
            pick = rng.integers(0, len(base), n)
            rows = np.concatenate([np.where(rng.random((n, 1)) < 0.5, base[pick], twins[pick]),
                                   fresh])
        return rows[rng.permutation(len(rows))].astype(dtype)

    sequence = []
    for _ in range(draw(st.integers(*calls))):
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        eq = EncodedQuery(part(draw(st.integers(1, 10)), dtype),
                          part(draw(st.integers(0, 6)), dtype))
        cfg = RetrievalConfig(
            k=draw(st.integers(1, len(pids))),
            results_per_vector=rpv,
            focus=FocusParams(n_hat=draw(st.integers(1, 8)), l_hat=draw(st.integers(0, 4))),
        )
        sequence.append((eq, cfg, {pid for pid in pids if rng.random() < 0.15}))
    return index, sequence


@settings(max_examples=200, deadline=None)
@given(cached_call_sequences())
def test_a_shared_row_cache_changes_no_ranking(case):
    index, calls = case
    cache = RowCache(index)
    sizes, rows = [], set()
    for eq, cfg, exclude in calls:
        got = list(retrieve(eq, index, cfg, exclude, cache=cache))
        assert got == list(retrieve(eq, index, cfg, exclude))  # a fresh cache per call
        sizes.append(len(cache.maxima))
        rows.update(map(np.ndarray.tobytes, np.concatenate([eq.query_part, eq.fact_part])
                        .astype(np.float32)))
        assert sizes[-1] <= len(rows)  # float64 twins share their float32 row's entry
    if len(set(sizes) - {0}) > 1:
        event("the shared cache grew past its first screen")


@settings(max_examples=150, deadline=None)
@given(cached_call_sequences(calls=(2, 10)), st.data())
def test_a_row_cache_reset_between_windows_changes_no_ranking(case, data):
    """One `RowCache`, reset before each of 2 to 4 windows of calls (each
    window maybe handed its queries through `expected` first, as
    `retrieve_hop` does), ranks every call as a fresh cache does. The last
    window holds every call, so it screens more rows than any window before
    it and the kept buffers grow."""
    index, calls = case
    cuts = data.draw(st.lists(st.integers(1, len(calls) - 1), max_size=2, unique=True))
    bounds = [0, *sorted(cuts), len(calls)]
    windows = [calls[a:b] for a, b in zip(bounds, bounds[1:])] + [calls]
    cache = RowCache(index)
    for at, window in enumerate(windows):
        cache.reset()
        sizes = {name: buf.size for name, buf in cache._buffers.items()}
        if data.draw(st.booleans()):
            cache.expected = [eq for eq, _, _ in window]
        for eq, cfg, exclude in window:
            got = list(retrieve(eq, index, cfg, exclude, cache=cache))
            assert got == list(retrieve(eq, index, cfg, exclude))  # a fresh cache per call
        if at and any(buf.size > sizes.get(name, 0) for name, buf in cache._buffers.items()):
            event("a later window grew a buffer")


def test_a_reset_row_cache_grows_its_buffers_for_a_larger_window(enc, tiny_corpus):
    """A window that screens more rows, of longer queries, than the one
    before grows the table, the gathered maxima and the similarity block,
    and ranks as a fresh cache does; a smaller window after it reuses them."""
    idx = build_index(tiny_corpus, enc)
    cfg = RetrievalConfig(k=1)  # 2k < 6 passages: every call screens
    cache = RowCache(idx)
    sizes = []
    for text in ("rome", "carthage fought three wars against rome on the tiber river", "sea"):
        cache.reset()
        eq = enc.encode_query(_query(text))
        assert list(retrieve(eq, idx, cfg, cache=cache)) == list(retrieve(eq, idx, cfg))
        sizes.append({name: buf.size for name, buf in cache._buffers.items()})
    for name in ("table", "gathered", "screen", "src"):
        assert sizes[1][name] > sizes[0][name]
    assert sizes[2] == sizes[1]


def test_row_cache_screens_each_distinct_row_once(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    cache = RowCache(idx)
    screened = []
    screen = idx.screen_maxima
    with patch.object(idx, "screen_maxima",
                      lambda src, *bufs: screened.append(len(src)) or screen(src, *bufs)):
        for text in ("carthage rome carthage", "rome carthage tiber", "carthage tiber sea"):
            eq = enc.encode_query(_query(text))
            cfg = RetrievalConfig(k=1)  # 2k < 6 passages: every call screens
            assert list(retrieve(eq, idx, cfg, cache=cache)) == list(retrieve(eq, idx, cfg))
    # carthage and rome, then tiber, then sea; the repeated carthage is screened once
    assert screened[::2] == [2, 1, 1]
    assert len(cache.maxima) == 4  # one screened row per distinct row


def test_rows_equal_in_float32_share_one_table_row(enc, tiny_corpus):
    """Two query rows one float64 ulp apart have one float32 cast, all the
    screen reads: through one cache the second is served from the first's
    table row, and each ranks as a fresh cache ranks it."""
    idx = build_index(tiny_corpus, enc)
    row = enc.encode_query(_query("rome")).query_part[:1].astype(np.float64)
    twin = np.nextafter(row, np.inf)
    assert not np.array_equal(row, twin)
    assert np.array_equal(row.astype(np.float32), twin.astype(np.float32))
    cfg = RetrievalConfig(k=1)  # 2k < 6 passages: every call screens
    cache = RowCache(idx)
    for part in (row, twin):
        eq = EncodedQuery(part, np.zeros((0, idx.dim)))
        assert list(retrieve(eq, idx, cfg, cache=cache)) == list(retrieve(eq, idx, cfg))
    assert len(cache.maxima) == 1


def test_row_cache_refuses_another_index(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    other = build_index(tiny_corpus, enc)
    eq = enc.encode_query(_query("carthage fought rome"))
    cache = RowCache(idx)
    retrieve(eq, idx, RetrievalConfig(k=1), cache=cache)
    with pytest.raises(ValueError, match="RowCache index"):
        retrieve(eq, other, RetrievalConfig(k=1), cache=cache)
    pool = np.flatnonzero(other.row_counts())
    with pytest.raises(ValueError, match="RowCache index"):
        rank_pool(eq, other, pool, 1, FocusParams(), cache)
    ivf = build_index(tiny_corpus, enc, IndexConfig(variant="ivf", centroid_count=3))
    with pytest.raises(ValueError, match="RowCache index"):
        candidates_for(eq, ivf, cache=cache)


def test_one_row_cache_serves_every_depth(enc, tiny_corpus):
    """One cache keeps each depth's candidates apart: depths 4 and 512, in
    turn, each find every source row's brute-force top vectors."""
    idx = build_index(tiny_corpus, enc, IndexConfig(variant="ivf", centroid_count=3, nprobe=3))
    eq = enc.encode_query(_query("carthage fought rome"))
    rows = np.concatenate([eq.query_part, eq.fact_part]).astype(np.float64)
    sims = rows @ idx.storage.astype(np.float64).T
    cache = RowCache(idx)
    for rpv in (4, 512, 4):
        tops = [np.argsort(-row, kind="stable")[:rpv] for row in sims]
        brute = np.unique(np.concatenate([idx.vec_to_pid[top] for top in tops]))
        assert np.array_equal(candidates_for(eq, idx, rpv, cache), brute)
        cfg = RetrievalConfig(k=2, results_per_vector=rpv)
        assert list(retrieve(eq, idx, cfg, cache=cache)) == list(retrieve(eq, idx, cfg))
    assert sorted(cache.candidates) == [4, 512]


def test_retriever_wrapper_equals_free_function(enc, tiny_corpus):
    idx = build_index(tiny_corpus, enc)
    r = Retriever(tiny_corpus, idx, enc)
    q = _query("carthage fought rome")
    got = r.retrieve(q)
    want = retrieve(enc.encode_query(q), idx, r.cfg)
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
    base_top = r.retrieve(q).pids[0]
    new_top = boosted.retrieve(q).pids[0]
    assert new_top == "f1"  # the looms passage wins once its token dominates
    assert boosted.encoder.query_weights == {"weaving": 10.0}
    # base retriever is untouched
    assert r.retrieve(q).pids[0] == base_top


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
        got = retrieve(eq, idx, rcfg)
        assert {sp.pid for sp in got} == set(tiny_corpus.pids)
        scores = [sp.score for sp in got]
        assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize(
    "other, field",
    [
        (EncoderConfig(dim=32, seed=3), "encoder.dim 64"),
        (EncoderConfig(dim=64, seed=3, max_passage_tokens=4), "encoder.max_passage_tokens 256"),
        (EncoderConfig(dim=64, seed=4), "digest"),
    ],
)
def test_an_index_refuses_another_encoder(enc, tiny_corpus, other, field):
    idx = build_index(tiny_corpus, enc)
    for make in (Retriever, PipelineRunner):
        with pytest.raises(ValueError, match=field):
            make(tiny_corpus, idx, LexicalEncoder(other))
    # query weights leave passage rows as they are, so a reweighted encoder passes
    Retriever(tiny_corpus, idx, enc.reweighted({"rome": 2.0}))


def test_an_index_built_in_memory_refuses_an_encoder_of_another_dim(enc, tiny_corpus):
    idx = from_passages(tiny_corpus.pids, [enc.encode_passage(p) for p in tiny_corpus])
    assert idx.fingerprint is None
    for make in (Retriever, PipelineRunner):
        with pytest.raises(ValueError, match="encoder.dim 64, but the encoder has 128"):
            make(tiny_corpus, idx, LexicalEncoder(EncoderConfig(dim=128, seed=3)))
    # with no fingerprint the dim is all there is to check
    PipelineRunner(tiny_corpus, idx, LexicalEncoder(EncoderConfig(dim=64, seed=4)))
