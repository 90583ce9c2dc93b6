import json
import logging
import time
from functools import lru_cache
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest

from hoplite.corpus import Corpus, MultiHopQuery, Passage, QueryRecord
from hoplite.encoder import EncoderConfig, LexicalEncoder
from hoplite.index import IndexConfig, RowCache, build_index
from hoplite.pipeline import LOCKSTEP_QUERIES
from hoplite.retriever import RetrievalConfig, Retriever, retrieve
from hoplite.scoring import Ranking
from hoplite.supervision import (
    HopSupervision,
    Lane,
    LhoConfig,
    SupervisionSet,
    _expand,
    build_triples,
    discover_positives,
    heuristic_order,
    latent_hop_ordering,
    oracle_facts,
    order_recovery,
    supervision_records,
    term_weight,
    triple_records,
    write_supervision,
    write_triples,
)
from hoplite.synth import PlantSpec, generate


def _ranking(pids):
    return Ranking(tuple(pids), np.arange(len(pids), 0, -1, dtype=np.float64), np.zeros(len(pids)))


def _qrec(qid, text, gold=(), facts=(), answer=None):
    return QueryRecord(
        qid=qid,
        text=text,
        gold_pids=frozenset(gold),
        gold_facts=frozenset(facts),
        answer=answer,
        label=None,
        num_hops=None,
    )


def _lane(q, hops=()):
    """A lane for q whose state is q0 alone, after `hops`."""
    return Lane(q, MultiHopQuery(qid=q.qid, q0_text=q.text), list(hops))


def _mined(qid, positives):
    """A mined hop whose positives leave a lane's golds."""
    return HopSupervision(t=1, positives=tuple(positives), negatives=(), fallback=False,
                          query_text=qid)


def test_discover_positives_head_intersection():
    q = _qrec("q", "text", gold={"A", "B"})
    out = discover_positives([_lane(q)], [_ranking(["A", "x", "y", "B"])], t=1, k_hat=2)["q"]
    assert out.positives == ("A",)
    assert out.fallback is False
    assert (out.t, out.query_text) == (1, "text")
    # negatives are every non-gold pid, rank order
    assert out.negatives == ("x", "y")


def test_discover_positives_none_in_head_promotes_best_gold():
    q = _qrec("q", "text", gold={"B"})
    out = discover_positives([_lane(q)], [_ranking(["x", "y", "z", "B"])], t=1, k_hat=2)["q"]
    assert out.positives == ("B",)
    assert out.fallback is True
    assert out.negatives == ("x", "y", "z")


def test_discover_positives_unranked_gold_still_promoted():
    q = _qrec("q", "text", gold={"ghost"})
    out = discover_positives([_lane(q)], [_ranking(["x", "y"])], t=1, k_hat=1)["q"]
    assert out.positives == ("ghost",)
    assert out.fallback is True


def test_discover_positives_exhausted_query_is_inactive():
    q = _qrec("q", "text", gold={"A"})
    out = discover_positives([_lane(q, [_mined("q", ["A"])])], [], t=2, k_hat=2)["q"]
    assert out.positives == ()
    assert out.negatives == ()
    assert out.fallback is False


def test_discover_positives_pairs_each_ranking_with_its_lane():
    """Rankings come only for lanes with gold left, in window order: an
    exhausted lane between two active ones takes none and gets an empty hop."""
    a = _qrec("a", "text a", gold={"A1", "A2"})
    b = _qrec("b", "text b", gold={"B1"})
    c = _qrec("c", "text c", gold={"C1", "C2"})
    window = [_lane(a), _lane(b, [_mined("b", ["B1"])]), _lane(c, [_mined("c", ["C1"])])]
    out = discover_positives(window, [_ranking(["xa", "A2", "B1", "C2"]),
                                      _ranking(["xc", "C2", "A1"])], t=2, k_hat=2)
    assert list(out) == ["a", "b", "c"]
    assert (out["a"].positives, out["a"].negatives, out["a"].query_text) == (
        ("A2",), ("xa", "B1", "C2"), "text a")
    assert (out["b"].positives, out["b"].negatives, out["b"].fallback) == ((), (), False)
    assert out["b"].query_text == "text b"
    assert (out["c"].positives, out["c"].negatives, out["c"].query_text) == (
        ("C2",), ("xc", "A1"), "text c")


def test_lane_remaining_is_gold_less_every_hops_positives():
    q = _qrec("q", "text", gold={"A", "B", "C"})
    assert _lane(q).remaining == {"A", "B", "C"}
    assert _lane(q, [_mined("q", ["B"]), _mined("q", ["A", "x"])]).remaining == {"C"}


def test_oracle_facts_prefers_labeled_sentences():
    corpus = Corpus(
        [Passage(pid="p", title="t", sentences=("s0", "s1", "s2", "s3"))]
    )
    q = _qrec("q", "x", gold={"p"}, facts={("p", 2), ("p", 0)})
    facts = oracle_facts(q, corpus, "p", cap=5)
    assert [(f.pid, f.sentence_index, f.text) for f in facts] == [
        ("p", 0, "s0"),
        ("p", 2, "s2"),
    ]


def test_oracle_facts_unlabeled_takes_all_capped():
    corpus = Corpus(
        [Passage(pid="p", title="t", sentences=tuple(f"s{i}" for i in range(7)))]
    )
    q = _qrec("q", "x", gold={"p"})
    facts = oracle_facts(q, corpus, "p", cap=5)
    assert [f.sentence_index for f in facts] == [0, 1, 2, 3, 4]


def _planted(hops, queries=6, seed=0):
    spec = PlantSpec(
        hops=hops,
        queries=queries,
        corpus_size=queries * (hops + 3) + 20,
        distractors_per_query=3,
        seed=seed,
    )
    return generate(spec)


def _retriever(result, dim=64, seed=0):
    from hoplite.encoder import EncoderConfig, LexicalEncoder

    enc = LexicalEncoder(EncoderConfig(dim=dim, seed=seed))
    idx = build_index(result.corpus, enc)
    cfg = RetrievalConfig(k=25, results_per_vector=idx.n_vectors)
    return Retriever(result.corpus, idx, enc, cfg)


def test_latent_hop_ordering_structure():
    result = _planted(hops=2)
    retriever = _retriever(result)
    cfg = LhoConfig(k_retrieve=20, k_hat=(5, 5))
    lho = latent_hop_ordering(retriever, result.queries, cfg)
    assert set(lho.records) == {q.qid for q in result.queries}
    for q in result.queries:
        hops = lho.records[q.qid]
        assert [h.t for h in hops] == [1, 2]
        assigned = []
        for hop in hops:
            assert set(hop.positives) <= q.gold_pids
            assert not set(hop.negatives) & q.gold_pids
            assigned.extend(hop.positives)
        # no gold assigned twice
        assert len(assigned) == len(set(assigned))
        # first hop retrieves with the raw claim
        assert hops[0].query_text == q.text
        if hops[0].positives:
            assert hops[1].query_text != q.text


def test_latent_hop_ordering_recovers_planted_order():
    result = _planted(hops=2)
    retriever = _retriever(result)
    lho = latent_hop_ordering(retriever, result.queries, LhoConfig(k_retrieve=20, k_hat=(5, 5)))
    truth = {qid: [set(g) for g in groups] for qid, groups in result.truth.items()}
    rec = order_recovery(lho, truth)
    assert rec.n_queries == len(result.queries)
    assert rec.passage_fraction >= 0.75


def test_latent_hop_ordering_deterministic():
    result = _planted(hops=2)
    retriever = _retriever(result)
    cfg = LhoConfig(k_retrieve=20, k_hat=(5, 5))
    a = latent_hop_ordering(retriever, result.queries, cfg)
    b = latent_hop_ordering(retriever, result.queries, cfg)
    assert list(supervision_records(a)) == list(supervision_records(b))


def test_shuffled_expansion_is_seeded():
    result = _planted(hops=2)
    retriever = _retriever(result)
    cfg7 = LhoConfig(k_retrieve=20, k_hat=(5, 5), seed=7)
    a = latent_hop_ordering(retriever, result.queries, cfg7, expansion="shuffled")
    b = latent_hop_ordering(retriever, result.queries, cfg7, expansion="shuffled")
    assert list(supervision_records(a)) == list(supervision_records(b))
    with pytest.raises(ValueError, match="expansion"):
        latent_hop_ordering(retriever, result.queries, cfg7, expansion="random")


@pytest.mark.parametrize("expansion", ["oracle", "shuffled"])
def test_a_hop_without_positives_expands_nothing(expansion):
    # the corpus is not read: shuffled expansion neither seeds a stream nor lists the pids
    hop = HopSupervision(t=1, positives=(), negatives=("x",), fallback=False, query_text="q")
    assert _expand(_qrec("q", "claim", gold={"A"}), hop, SimpleNamespace(), LhoConfig(),
                   expansion) == []


def test_weak_queries_are_those_with_a_fallback_hop(monkeypatch):
    corpus = Corpus(
        [Passage(pid=p, title="", sentences=(f"{p} words",)) for p in ("A", "B", "x", "y")]
    )
    queries = [
        _qrec("weak", "claim", gold={"A", "B"}),  # no gold ever ranks within k_hat 1
        _qrec("strong", "claim", gold={"A"}),
        _qrec("late", "claim", gold={"A", "B"}),  # B is left for hop 2's fallback
    ]
    rankings = {"weak": ["x", "A", "B"], "strong": ["A", "x"], "late": ["A", "x", "y"]}
    # a fixed ranking per qid in place of each hop's retrieval
    monkeypatch.setattr("hoplite.supervision.RowCache",
                        lambda index: SimpleNamespace(reset=lambda: None))
    monkeypatch.setattr("hoplite.supervision.retrieve_hop",
                        lambda retriever, k, states, excludes, cache:
                        [_ranking(rankings[state.qid]) for state in states])
    retriever = SimpleNamespace(corpus=corpus, index=None)
    lho = latent_hop_ordering(retriever, queries, LhoConfig(k_retrieve=10, k_hat=(1, 1)))
    fell_back = {
        qid for qid, hops in lho.records.items() if any(h.fallback for h in hops)
    }
    assert fell_back == {"weak", "late"}
    assert lho.weak_qids == fell_back
    assert [h.fallback for h in lho.records["weak"]] == [True, True]
    assert [h.fallback for h in lho.records["late"]] == [False, True]
    for rec in supervision_records(lho):
        assert rec["weak"] == (rec["qid"] in fell_back)


@lru_cache(maxsize=None)
def _two_windows(index_variant):
    """A 3-hop planted corpus with LOCKSTEP_QUERIES + 4 queries (two windows)
    and 140 passages, an encoder, and the corpus's index."""
    result = _planted(hops=3, queries=LOCKSTEP_QUERIES + 4, seed=2)
    enc = LexicalEncoder(EncoderConfig(dim=64, seed=1))
    return result, enc, build_index(result.corpus, enc, IndexConfig(variant=index_variant))


def _active(sets, hops):
    """Per hop, per window of LOCKSTEP_QUERIES qids in sorted order, the
    queries with gold left: a query's hop has a positive iff it had gold left."""
    qids = sorted(sets.records)
    return [[sum(bool(sets.records[qid][t].positives) for qid in qids[at : at + LOCKSTEP_QUERIES])
             for at in range(0, len(qids), LOCKSTEP_QUERIES)] for t in range(hops)]


# k_retrieve 4: 2k is under every pool, so every hop prunes; 80: 2k is at
# least the 140 passages, so no hop does. An oracle case's id is its k alone.
@pytest.mark.parametrize(
    "k_retrieve, expansion", [(4, "oracle"), (80, "oracle"), (4, "shuffled"), (80, "shuffled")],
    ids=["4", "80", "4-shuffled", "80-shuffled"],
)
@pytest.mark.parametrize("trainer", ["identity", "term_weight"])
@pytest.mark.parametrize("index_variant", ["flat", "ivf"])
def test_lho_in_windows_mines_what_each_query_mines_alone(
    index_variant, trainer, expansion, k_retrieve
):
    """LHO over two windows writes the supervision each query gets retrieved
    alone by `Retriever.retrieve` with a fresh cache, under either expansion,
    and calls `screen_maxima` once per window of a hop whose lanes prune,
    never in a hop whose lanes do not."""
    result, enc, idx = _two_windows(index_variant)
    retriever = Retriever(result.corpus, idx, enc, RetrievalConfig(k=k_retrieve))
    cfg = LhoConfig(k_retrieve=k_retrieve, k_hat=(2, None, None), trainer=trainer)
    calls = []
    screen = idx.screen_maxima
    with patch.object(idx, "screen_maxima",
                      lambda src, *bufs: calls.append(len(src)) or screen(src, *bufs)):
        windows = latent_hop_ordering(retriever, result.queries, cfg, expansion)
    with patch("hoplite.supervision.retrieve_hop", lambda retriever, k, states, excludes, cache:
               [retriever.retrieve(state, k=k) for state in states]):
        alone = latent_hop_ordering(retriever, result.queries, cfg, expansion)
    assert list(supervision_records(windows)) == list(supervision_records(alone))
    active = _active(windows, cfg.hops)
    assert active[0] == [LOCKSTEP_QUERIES, 4]
    pruning = k_retrieve == 4
    assert len(calls) == sum(n > 0 for hop in active for n in hop) * pruning


def test_lho_resets_one_cache_per_window(monkeypatch):
    """A call makes one `RowCache` and resets it before each hop's window of
    LOCKSTEP_QUERIES queries, whose queries with gold left it then serves:
    the cache's entries never outlive a window, since entries kept for a
    whole call would grow with the queryset."""
    result, enc, idx = _two_windows("ivf")
    retriever = Retriever(result.corpus, idx, enc, RetrievalConfig(k=20))
    made = []
    served = []  # retrieve calls after each reset

    class Tracked(RowCache):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

        def reset(self):
            served.append(0)
            super().reset()

    def recording(eq, *args, cache, **kwargs):
        assert cache is made[0]
        served[-1] += 1
        return retrieve(eq, *args, cache=cache, **kwargs)

    monkeypatch.setattr("hoplite.supervision.RowCache", Tracked)
    monkeypatch.setattr("hoplite.pipeline.retrieve", recording)
    cfg = LhoConfig(k_retrieve=20, k_hat=(5, None, None))
    sets = latent_hop_ordering(retriever, result.queries, cfg)
    assert len(made) == 1
    # __init__ resets once before the first window's reset
    assert served == [0] + [n for hop in _active(sets, cfg.hops) for n in hop]


def test_oversize_gold_warning(caplog):
    result = _planted(hops=2)
    retriever = _retriever(result)
    cfg = LhoConfig(k_retrieve=20, k_hat=(5,))  # one hop for two golds
    with caplog.at_level(logging.WARNING, logger="hoplite.supervision"):
        latent_hop_ordering(retriever, result.queries, cfg)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "more gold passages" in warnings[0]


def test_lho_config_validation():
    with pytest.raises(ValueError):
        LhoConfig(k_hat=())
    with pytest.raises(ValueError):
        LhoConfig(k_retrieve=10, k_hat=(20,))
    with pytest.raises(ValueError):
        LhoConfig(k_hat=(0,))
    assert LhoConfig(k_hat=(20, None, None, None)).hops == 4


def test_unknown_trainer_rejected():
    result = _planted(hops=2, queries=2)
    retriever = _retriever(result)
    with pytest.raises(ValueError, match="trainer"):
        latent_hop_ordering(
            retriever, result.queries, LhoConfig(k_hat=(5,), trainer="adam")
        )


def test_duplicate_qid_rejected():
    """Two records under one qid would write one supervision record: refused,
    naming the qid, before anything is retrieved."""
    result = _planted(hops=2, queries=3)
    retriever = SimpleNamespace(corpus=result.corpus, index=None)  # ranks nothing
    twice = list(result.queries) + [result.queries[1]]
    with pytest.raises(ValueError, match=f"qid {result.queries[1].qid!r} appears twice"):
        latent_hop_ordering(retriever, twice, LhoConfig(k_retrieve=20, k_hat=(5, None)))


def test_term_weight_trainer_boosts_positive_tokens():
    corpus = Corpus(
        [
            Passage(pid="pos", title="", sentences=("zebra stripes pattern",)),
            Passage(pid="neg1", title="", sentences=("plain gray rock",)),
            Passage(pid="neg2", title="", sentences=("plain brown dirt",)),
        ]
    )
    from hoplite.encoder import EncoderConfig, LexicalEncoder

    enc = LexicalEncoder(EncoderConfig(dim=32, seed=0))
    retriever = Retriever(corpus, build_index(corpus, enc), enc)
    # "pos" is the lane's remaining gold; its last hop mined both negatives
    mined = HopSupervision(t=1, positives=("found",), negatives=("neg1", "neg2"),
                           fallback=False, query_text="zebra plain")
    lane = _lane(_qrec("q", "zebra plain", gold={"found", "pos"}), [mined])
    trained = term_weight(retriever, [lane])
    w = trained.encoder.query_weights
    assert w["zebra"] > 1.0  # in the positive, absent from negatives
    assert w["plain"] < 1.0  # in every negative, absent from the positive
    assert all(0.25 <= v <= 4.0 for v in w.values())
    # no signal -> retriever returned unchanged
    assert term_weight(retriever, []) is retriever


# ---------------------------------------------------------------------------
# heuristic ordering


def test_heuristic_order_title_chain():
    corpus = Corpus(
        [
            Passage(
                pid="A",
                title="alpha beta",
                sentences=("bridge toward gamma delta topic",),
            ),
            Passage(pid="B", title="gamma delta", sentences=("terminal info",)),
        ]
    )
    q = _qrec("q", "claim about alpha beta subject", gold={"A", "B"})
    assert heuristic_order(q, corpus) == [("A",), ("B",)]


def test_heuristic_order_tied_titles_hop_together():
    corpus = Corpus(
        [
            Passage(pid="A", title="alpha", sentences=("text one",)),
            Passage(pid="B", title="beta", sentences=("text two",)),
        ]
    )
    q = _qrec("q", "claim with alpha and beta inside", gold={"A", "B"})
    assert heuristic_order(q, corpus) == [("A", "B")]


def test_heuristic_order_answer_pins_final_hop():
    corpus = Corpus(
        [
            Passage(pid="A", title="alpha", sentences=("leads to beta",)),
            Passage(pid="B", title="beta", sentences=("the answer is koufax",)),
        ]
    )
    q = _qrec("q", "claim mentions alpha", gold={"A", "B"}, answer="Koufax")
    assert heuristic_order(q, corpus) == [("A",), ("B",)]


def test_heuristic_order_answer_in_many_passages_not_pinned():
    corpus = Corpus(
        [
            Passage(pid="A", title="alpha", sentences=("koufax pitched",)),
            Passage(pid="B", title="beta", sentences=("koufax threw",)),
        ]
    )
    q = _qrec("q", "claim mentions alpha beta", gold={"A", "B"}, answer="Koufax")
    # both contain the answer: no pin, both titles tie in the claim
    assert heuristic_order(q, corpus) == [("A", "B")]


def test_heuristic_order_zero_overlap_prefers_sorted_pid():
    corpus = Corpus(
        [
            Passage(pid="A", title="xxx", sentences=("nothing shared",)),
            Passage(pid="B", title="yyy", sentences=("also nothing",)),
        ]
    )
    q = _qrec("q", "completely different claim", gold={"A", "B"})
    assert heuristic_order(q, corpus) == [("A",), ("B",)]


def test_heuristic_order_zero_overlap_uses_downstream_signal():
    corpus = Corpus(
        [
            Passage(pid="A", title="quiet corner", sentences=("dead end words",)),
            Passage(pid="B", title="hidden start", sentences=("points at cobalt",)),
            Passage(pid="C", title="cobalt", sentences=("points at quiet corner",)),
        ]
    )
    q = _qrec("q", "statement sharing nothing", gold={"A", "B", "C"})
    # only B unlocks C (whose text unlocks A)
    assert heuristic_order(q, corpus) == [("B",), ("C",), ("A",)]


def test_heuristic_order_many_unmatched_golds_is_fast():
    pids = [f"G{i:02d}" for i in range(12)]
    corpus = Corpus(
        [Passage(pid=p, title=f"title{p}", sentences=(f"words{p} only",)) for p in pids]
    )
    q = _qrec("q", "claim sharing nothing", gold=set(pids))
    start = time.perf_counter()
    order = heuristic_order(q, corpus)
    assert time.perf_counter() - start < 1.0
    # nothing ever matches, so every hop takes the first pid left
    assert order == [(p,) for p in pids]


def test_heuristic_order_empty_gold():
    corpus = Corpus([Passage(pid="A", title="t", sentences=("x",))])
    q = _qrec("q", "claim", gold=set())
    assert heuristic_order(q, corpus) == []


# ---------------------------------------------------------------------------
# triples


def _sets(hops_by_qid):
    return SupervisionSet(
        {
            qid: tuple(
                HopSupervision(
                    t=t,
                    positives=tuple(sorted(pos)),
                    negatives=tuple(neg),
                    fallback=False,
                    query_text=f"{qid} hop {t}",
                )
                for t, (pos, neg) in enumerate(hops, start=1)
            )
            for qid, hops in hops_by_qid.items()
        }
    )


def test_build_triples_single_positive_keeps_rank_order():
    sets = _sets({"q": [({"P"}, ["n1", "n2", "n3"])]})
    triples = list(build_triples(sets, cap_per_hop=3, seed=0))
    assert [(t.positive, t.negative) for t in triples] == [
        ("P", "n1"),
        ("P", "n2"),
        ("P", "n3"),
    ]
    assert triples[0].query == "q hop 1"
    assert triples[0].hop == 1


def test_build_triples_cap_truncates_cartesian():
    sets = _sets({"q": [({"P1", "P2"}, ["n1", "n2", "n3", "n4", "n5"])]})
    triples = list(build_triples(sets, cap_per_hop=3, seed=0))
    # need = ceil(3/2) = 2 sampled negatives; cartesian 2x2 truncated to 3
    assert len(triples) == 3
    assert len({(t.positive, t.negative) for t in triples}) == 3


def test_build_triples_empty_sides_yield_nothing():
    sets = _sets({"q": [(set(), ["n1"]), ({"P"}, [])]})
    assert list(build_triples(sets, cap_per_hop=8, seed=0)) == []


def test_build_triples_seed_deterministic():
    sets = _sets({"q": [({"P"}, [f"n{i}" for i in range(40)])]})
    a = list(build_triples(sets, cap_per_hop=4, seed=5))
    b = build_triples(sets, cap_per_hop=4, seed=5)
    assert list(triple_records(a)) == list(triple_records(b))
    c = build_triples(sets, cap_per_hop=4, seed=6)
    assert list(triple_records(a)) != list(triple_records(c))


def test_build_triples_yields_as_drawn():
    triples = build_triples(_sets({"q": [({"P"}, ["n1", "n2"])]}), cap_per_hop=2, seed=0)
    assert iter(triples) is triples
    assert next(triples).negative == "n1"


def test_build_triples_rejects_bad_cap():
    with pytest.raises(ValueError):
        build_triples(_sets({}), cap_per_hop=0)


# ---------------------------------------------------------------------------
# recovery and serialization


def test_order_recovery_counts_and_fallback_exclusion():
    sets = SupervisionSet(
        {
            "q1": (
                HopSupervision(1, ("A",), (), False, "x"),
                HopSupervision(2, ("B",), (), True, "x"),
            ),
            "q2": (
                HopSupervision(1, ("C",), (), False, "x"),
                HopSupervision(2, ("D",), (), False, "x"),
            ),
        }
    )
    truth = {"q1": [{"A"}, {"B"}], "q2": [{"C"}, {"D"}]}
    rec = order_recovery(sets, truth)
    # q1's B was a fallback promotion: right hop, but not recovered
    assert rec.n_passages == 4
    assert rec.passage_fraction == pytest.approx(0.75)
    assert rec.strict_query_fraction == pytest.approx(0.5)


def test_order_recovery_wrong_hop():
    sets = SupervisionSet(
        {
            "q": (
                HopSupervision(1, ("B",), (), False, "x"),
                HopSupervision(2, ("A",), (), False, "x"),
            )
        }
    )
    rec = order_recovery(sets, {"q": [{"A"}, {"B"}]})
    assert rec.passage_fraction == 0.0
    assert rec.strict_query_fraction == 0.0


def test_order_recovery_empty_truth():
    rec = order_recovery(SupervisionSet({}), {})
    assert rec.passage_fraction == 0.0
    assert rec.n_queries == 0


def test_supervision_and_triples_round_trip(tmp_path):
    result = _planted(hops=2, queries=3)
    retriever = _retriever(result)
    lho = latent_hop_ordering(retriever, result.queries, LhoConfig(k_retrieve=20, k_hat=(5, 5)))

    sup_path = tmp_path / "supervision.jsonl"
    write_supervision(sup_path, lho)
    rows = [json.loads(l) for l in sup_path.read_text(encoding="utf-8").splitlines()]
    assert rows == [json.loads(json.dumps(rec)) for rec in supervision_records(lho)]
    assert [r["qid"] for r in rows] == sorted(r["qid"] for r in rows)
    for row in rows:
        assert set(row) == {"qid", "weak", "hops"}
        for hop in row["hops"]:
            assert set(hop) == {"t", "positives", "negatives", "fallback", "query_text"}

    triples = list(build_triples(lho, cap_per_hop=8, seed=0))
    tri_path = tmp_path / "triples.jsonl"
    assert write_triples(tri_path, triples) == len(triples) > 0
    t_rows = [json.loads(l) for l in tri_path.read_text(encoding="utf-8").splitlines()]
    assert t_rows == list(triple_records(triples))
    for row in t_rows:
        assert set(row) == {"qid", "hop", "query", "positive", "negative"}
