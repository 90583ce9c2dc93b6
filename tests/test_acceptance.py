"""End-to-end acceptance checks.

Each test covers one numbered behavior contract, enforces its tolerance and
runtime budget, and reports a one-line PASS/FAIL summary through the
session-wide acceptance log (echoed after the pytest report).
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from hoplite.config import pipeline_config, resolve_config
from hoplite.corpus import Corpus, MultiHopQuery, Passage, QueryRecord
from hoplite.encoder import EncodedQuery, EncoderConfig, LexicalEncoder
from hoplite.evaluation import EvalConfig, evaluate_run, set_em_f1
from hoplite.index import IndexConfig, build_index
from hoplite.pipeline import (
    HopRecord,
    HopTrace,
    PipelineRunner,
    merge_hybrid,
    run_queries,
)
from hoplite.retriever import RetrievalConfig, Retriever, retrieve
from hoplite.scoring import FocusParams, Ranking, colbert_score, flipr_score
from hoplite.supervision import (
    LhoConfig,
    heuristic_order,
    latent_hop_ordering,
    order_recovery,
)
from hoplite.synth import PlantSpec, generate

from conftest import subprocess_env
from oracle import encode_corpus, exact_topk_oracle, rows_for


def _unit(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    m = rng.standard_normal((n, dim))
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


def _word_corpus(n: int, tokens: int, vocab_size: int, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i:04d}" for i in range(vocab_size)])
    passages = []
    for i in range(n):
        words = rng.choice(vocab, size=tokens, replace=False)
        passages.append(Passage(pid=f"p{i:05d}", title="", sentences=(" ".join(words),)))
    return Corpus(passages)


def _word_queries(n: int, tokens: int, vocab_size: int, seed: int) -> list[MultiHopQuery]:
    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i:04d}" for i in range(vocab_size)])
    return [
        MultiHopQuery(qid=f"s{i:03d}", q0_text=" ".join(rng.choice(vocab, size=tokens, replace=False)))
        for i in range(n)
    ]


def _note(log, num, ok, detail):
    log(f"[{num:2d}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# 1. focused scoring reduces to the plain sum when nothing is trimmed


def test_a01_reduction_identity(acceptance_log):
    rng = np.random.default_rng(17)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        dim = int(rng.choice([16, 32, 64]))
        n_q = int(rng.integers(1, 41))
        n_f = int(rng.integers(0, 13))
        n_d = int(rng.integers(1, 31))
        eq = EncodedQuery(
            query_part=_unit(rng, n_q, dim),
            fact_part=_unit(rng, n_f, dim) if n_f else np.zeros((0, dim), np.float32),
        )
        rows = _unit(rng, n_d, dim)
        # budgets at least as large as the row counts: nothing gets trimmed
        focus = FocusParams(
            n_hat=n_q + int(rng.integers(0, 9)), l_hat=n_f + int(rng.integers(0, 9))
        )
        diff = abs(flipr_score(eq, rows, focus).score - colbert_score(eq, rows))
        worst = max(worst, diff)
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 5.0
    _note(acceptance_log, 1, ok, f"reduction identity: max|diff|={worst:.2e} over 500 fixtures ({dt:.1f}s)")
    assert worst < 1e-9
    assert dt < 5.0


# ---------------------------------------------------------------------------
# 2. exhaustive flat retrieval reproduces the brute-force oracle


def test_a02_flat_retrieval_matches_oracle(acceptance_log):
    t0 = time.perf_counter()
    corpus = _word_corpus(n=1000, tokens=8, vocab_size=500, seed=11)
    enc = LexicalEncoder(EncoderConfig(dim=64, seed=1))
    idx = build_index(corpus, enc)
    encodings = encode_corpus(corpus, enc)
    cfg = RetrievalConfig(k=20, results_per_vector=idx.n_vectors)

    mismatches = 0
    for q in _word_queries(n=200, tokens=5, vocab_size=500, seed=12):
        eq = enc.encode_query(q)
        got = retrieve(eq, idx, cfg)
        want = exact_topk_oracle(eq, corpus, enc, k=cfg.k, encodings=encodings)
        if [(sp.pid, sp.score) for sp in got] != [(sp.pid, sp.score) for sp in want]:
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 60.0
    _note(acceptance_log, 2, ok, f"oracle equivalence: {mismatches}/200 mismatched rankings ({dt:.1f}s)")
    assert mismatches == 0
    assert dt < 60.0


# ---------------------------------------------------------------------------
# 3. IVF candidate generation keeps recall against exact top-20


def test_a03_ivf_recall(acceptance_log):
    t0 = time.perf_counter()
    corpus = _word_corpus(n=10_000, tokens=6, vocab_size=2000, seed=5)
    enc = LexicalEncoder(EncoderConfig(dim=64, seed=2))
    flat = build_index(corpus, enc)
    queries = _word_queries(n=100, tokens=6, vocab_size=2000, seed=8)
    eqs = [enc.encode_query(q) for q in queries]

    # exact top-20 straight from the flat storage, all math in float64
    storage = flat.storage.astype(np.float64)
    starts = np.array([rows_for(flat, pid)[0] for pid in flat.pids])
    pid_arr = np.array(flat.pids)
    exact_sets = []
    for eq in eqs:
        sims = eq.query_part.astype(np.float64) @ storage.T
        per_pid = np.maximum.reduceat(sims, starts, axis=1).sum(axis=0)
        top = np.lexsort((np.arange(per_pid.size), -per_pid))[:20]
        exact_sets.append(set(pid_arr[top]))

    rcfg = RetrievalConfig(k=20, results_per_vector=512)
    per_seed = []
    for seed in (0, 1, 2):
        ivf = build_index(corpus, enc, IndexConfig(variant="ivf", seed=seed))
        hits = [
            len({sp.pid for sp in retrieve(eq, ivf, rcfg)} & exact) / 20.0
            for eq, exact in zip(eqs, exact_sets)
        ]
        per_seed.append(float(np.mean(hits)))
    recall = float(np.mean(per_seed))
    dt = time.perf_counter() - t0
    ok = recall >= 0.93 and dt < 180.0
    _note(
        acceptance_log, 3, ok,
        f"ivf recall: mean={recall:.3f} per-seed={[round(r, 3) for r in per_seed]} ({dt:.1f}s)",
    )
    assert recall >= 0.93
    assert dt < 180.0


# ---------------------------------------------------------------------------
# 4. trimming the weak half of the query separates split queries


def test_a04_focused_scoring_separates_split_queries(acceptance_log):
    """Half the query rows describe A, half describe B, and a distractor sits
    at moderate similarity to every row. Summing only the strongest half keeps
    both halves decisive; summing everything lets the distractor win on bulk.
    """
    rng = np.random.default_rng(41)
    dim = 32
    t0 = time.perf_counter()
    flipr_ok = 0
    colbert_ok = 0
    for _ in range(100):
        a_dir, b_dir = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T[:2]
        coherence = rng.uniform(0.75, 0.9)
        rows = []
        for i in range(8):
            u = a_dir if i < 4 else b_dir
            r = rng.standard_normal(dim)
            r -= (r @ a_dir) * a_dir + (r @ b_dir) * b_dir
            r /= np.linalg.norm(r)
            rows.append(coherence * u + math.sqrt(1 - coherence**2) * r)
        q = np.asarray(rows, dtype=np.float32)
        eq = EncodedQuery(query_part=q, fact_part=np.zeros((0, dim), np.float32))

        pass_a = np.vstack([q[:4], _unit(rng, 2, dim)])
        pass_b = np.vstack([q[4:], _unit(rng, 2, dim)])
        mid = (a_dir + b_dir) / np.linalg.norm(a_dir + b_dir)
        weak = mid + 0.05 * rng.standard_normal((6, dim))
        weak = (weak / np.linalg.norm(weak, axis=1, keepdims=True)).astype(np.float32)

        focus = FocusParams(n_hat=4, l_hat=8)  # half of the 8 query rows
        f = [flipr_score(eq, m, focus).score for m in (pass_a, pass_b, weak)]
        c = [colbert_score(eq, m) for m in (pass_a, pass_b, weak)]
        flipr_ok += min(f[0], f[1]) > f[2]
        colbert_ok += min(c[0], c[1]) > c[2]
    dt = time.perf_counter() - t0
    ok = flipr_ok >= 95 and colbert_ok < flipr_ok and dt < 30.0
    _note(
        acceptance_log, 4, ok,
        f"focused selectivity: flipr {flipr_ok}/100 vs colbert {colbert_ok}/100 ({dt:.1f}s)",
    )
    assert flipr_ok >= 95
    assert colbert_ok < flipr_ok
    assert dt < 30.0


# ---------------------------------------------------------------------------
# 5. hop order recovery on planted corpora


def test_a05_hop_order_recovery(acceptance_log):
    t0 = time.perf_counter()
    oracle_fracs = []
    shuffled_hits = 0
    shuffled_total = 0
    heuristic_bad = 0
    n_heuristic = 0
    for hops in (2, 3, 4):
        for seed in (0, 1, 2):
            spec = PlantSpec(
                hops=hops,
                queries=100,
                corpus_size=100 * (hops + 3) + 60,
                distractors_per_query=3,
                seed=seed,
            )
            result = generate(spec)
            enc = LexicalEncoder(EncoderConfig(dim=64, seed=seed))
            idx = build_index(result.corpus, enc)
            retriever = Retriever(
                result.corpus, idx, enc, RetrievalConfig(k=25, results_per_vector=48)
            )
            cfg = LhoConfig(k_retrieve=25, k_hat=(10,) * hops, seed=seed)
            truth = {qid: [set(g) for g in groups] for qid, groups in result.truth.items()}

            lho = latent_hop_ordering(retriever, result.queries, cfg)
            rec = order_recovery(lho, truth)
            oracle_fracs.append(rec.passage_fraction)

            shuf = latent_hop_ordering(retriever, result.queries, cfg, expansion="shuffled")
            srec = order_recovery(shuf, truth)
            shuffled_hits += srec.passage_fraction * srec.n_passages
            shuffled_total += srec.n_passages

            for q in result.queries:
                n_heuristic += 1
                got = [list(g) for g in heuristic_order(q, result.corpus)]
                if got != result.truth[q.qid]:
                    heuristic_bad += 1
    shuffled = shuffled_hits / shuffled_total
    dt = time.perf_counter() - t0
    ok = min(oracle_fracs) >= 0.90 and shuffled < 0.50 and heuristic_bad == 0 and dt < 300.0
    _note(
        acceptance_log, 5, ok,
        f"order recovery: lho min={min(oracle_fracs):.3f} shuffled={shuffled:.3f} "
        f"heuristic={(n_heuristic - heuristic_bad)}/{n_heuristic} ({dt:.1f}s)",
    )
    assert min(oracle_fracs) >= 0.90, oracle_fracs
    assert shuffled < 0.50
    assert heuristic_bad == 0
    assert dt < 300.0


# ---------------------------------------------------------------------------
# 6 + 7. pipeline recall and context size on a planted 3-hop benchmark

# golds stay 2 planted sentences; filler sentences make whole passages long
# the way real ones are, so context length is a meaningful comparison


def _pad_sentences(corpus: Corpus, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    padded = []
    for i, p in enumerate(corpus):
        filler = tuple(
            " ".join(f"x{int(w):08d}" for w in rng.integers(0, 10**8, size=6))
            for _ in range(5 + i % 3)
        )
        padded.append(Passage(pid=p.pid, title=p.title, sentences=p.sentences + filler))
    return Corpus(padded)


@pytest.fixture(scope="module")
def bench3():
    result = generate(
        PlantSpec(hops=3, queries=100, corpus_size=700, distractors_per_query=3, seed=0)
    )
    corpus = _pad_sentences(result.corpus, seed=99)
    enc = LexicalEncoder(EncoderConfig(dim=64, seed=0))
    idx = build_index(corpus, enc)
    return result, corpus, enc, idx


@pytest.fixture(scope="module")
def hover_run(bench3):
    result, corpus, enc, idx = bench3
    pcfg = pipeline_config(resolve_config(preset="hover", environ={}))
    t0 = time.perf_counter()
    runner = PipelineRunner(corpus, idx, enc, pcfg)
    traces = run_queries(runner, result.queries)
    return pcfg, traces, time.perf_counter() - t0


def _union_recall(traces, queries) -> float:
    by_qid = {t.qid: t for t in traces}
    hit = sum(1 for q in queries if q.gold_pids <= set(by_qid[q.qid].union_pids))
    return hit / len(queries)


def test_a06_condensed_recall_and_ablation(acceptance_log, bench3, hover_run):
    result, corpus, enc, idx = bench3
    pcfg, traces, setup_dt = hover_run
    t0 = time.perf_counter()
    recall = _union_recall(traces, result.queries)

    ablated = PipelineRunner(corpus, idx, enc, replace(pcfg, accumulate_facts=False))
    abl_traces = run_queries(ablated, result.queries)
    abl_recall = _union_recall(abl_traces, result.queries)
    dt = setup_dt + time.perf_counter() - t0
    ok = recall >= 0.90 and abl_recall < 0.30 and dt < 180.0
    _note(
        acceptance_log, 6, ok,
        f"pipeline recall: condensed={recall:.2f} no-fact-growth={abl_recall:.2f} ({dt:.1f}s)",
    )
    assert recall >= 0.90
    assert abl_recall < 0.30
    assert dt < 180.0


def _mean_context_words(traces) -> float:
    return float(np.mean([sum(len(f.text.split()) for f in t.final_facts) for t in traces]))


def test_a07_condensed_context_is_shorter(acceptance_log, bench3, hover_run):
    result, corpus, enc, idx = bench3
    pcfg, condensed_traces, _ = hover_run
    rerank = PipelineRunner(corpus, idx, enc, replace(pcfg, variant="rerank"))
    rerank_traces = run_queries(rerank, result.queries)

    c_words = _mean_context_words(condensed_traces)
    r_words = _mean_context_words(rerank_traces)
    ratio = r_words / c_words if c_words else float("inf")
    ok = c_words < r_words
    _note(
        acceptance_log, 7, ok,
        f"context length: condensed={c_words:.1f}w rerank={r_words:.1f}w ratio={ratio:.2f}x",
    )
    assert c_words < r_words


# ---------------------------------------------------------------------------
# 8. hybrid merge quotas, against an independent simulator


def _mk_trace(hop_pids, variant="condensed"):
    hops = tuple(
        HopRecord(
            t=t,
            ranked=Ranking(tuple(pids), -np.arange(len(pids), dtype=float), np.zeros(len(pids))),
            kept_facts=(),
            context_pid=None,
        )
        for t, pids in enumerate(hop_pids, start=1)
    )
    return HopTrace(
        qid="q",
        q0_text="q0",
        variant=variant,
        per_hop_k=tuple(max(len(p), 1) for p in hop_pids),
        hops=hops,
        final_facts=(),
    )


def _merge_sim(c_lists, r_lists, total):
    """Reference merge: hop-major half-and-half quotas, then a backfill sweep."""
    picked: list[str] = []
    chosen: set[str] = set()

    def grab(lst, want):
        got = 0
        for pid in lst:
            if len(picked) >= total or got >= want:
                return
            if pid not in chosen:
                chosen.add(pid)
                picked.append(pid)
                got += 1

    n = len(c_lists)
    for h in range(n):
        budget = total // n + (1 if h < total % n else 0)
        grab(c_lists[h], (budget + 1) // 2)
        grab(r_lists[h], budget // 2)
    if len(picked) < total:
        for h in range(n):
            grab(c_lists[h], total)
            grab(r_lists[h], total)
    return picked


def test_a08_hybrid_merge_exactness(acceptance_log):
    t0 = time.perf_counter()
    c = _mk_trace([[f"c{h}_{i}" for i in range(25)] for h in range(4)])
    r = _mk_trace([[f"r{h}_{i}" for i in range(25)] for h in range(4)], variant="rerank")
    merged = merge_hybrid(c, r, total=100)
    quota_ok = len(merged) == 100 and len(set(merged)) == 100
    for h in range(4):
        hop = merged[h * 25 : (h + 1) * 25]
        quota_ok &= hop[:13] == [f"c{h}_{i}" for i in range(13)]
        quota_ok &= hop[13:] == [f"r{h}_{i}" for i in range(12)]

    rng = np.random.default_rng(23)
    pool = [f"x{i}" for i in range(40)]
    fuzz_bad = 0
    for _ in range(1000):
        n_hops = int(rng.integers(1, 5))

        def lists():
            perm = [pool[i] for i in rng.permutation(40)]
            out, at = [], 0
            for _ in range(n_hops):
                n = int(rng.integers(0, 13))
                out.append(perm[at : at + n])
                at += n
            return out

        c_lists, r_lists = lists(), lists()
        total = int(rng.integers(0, 121))
        got = merge_hybrid(_mk_trace(c_lists), _mk_trace(r_lists, "rerank"), total=total)
        if got != _merge_sim(c_lists, r_lists, total):
            fuzz_bad += 1
    dt = time.perf_counter() - t0
    ok = quota_ok and fuzz_bad == 0 and dt < 10.0
    _note(
        acceptance_log, 8, ok,
        f"hybrid merge: 13/12 quotas {'ok' if quota_ok else 'BROKEN'}, "
        f"{1000 - fuzz_bad}/1000 fuzz cases match ({dt:.1f}s)",
    )
    assert quota_ok
    assert fuzz_bad == 0
    assert dt < 10.0


# ---------------------------------------------------------------------------
# 9. metrics against hand-computed values


def _eval_fixture():
    queries = [
        QueryRecord(
            qid="q1", text="claim one", gold_pids=frozenset({"A", "B"}),
            gold_facts=frozenset({("A", 0), ("B", 0)}), answer="Sandy Koufax",
            label=True, num_hops=2,
        ),
        QueryRecord(
            qid="q2", text="claim two", gold_pids=frozenset({"C"}),
            gold_facts=frozenset({("C", 0)}), answer=None, label=False, num_hops=2,
        ),
        QueryRecord(
            qid="q3", text="claim three", gold_pids=frozenset({"D"}),
            gold_facts=frozenset(), answer="yes", label=None, num_hops=3,
        ),
    ]
    mk = lambda pid, text: Passage(pid=pid, title=pid, sentences=(text,))
    corpus = Corpus(
        [
            mk("A", "sandy koufax appears here."),
            mk("B", "second gold passage."),
            mk("C", "third gold passage."),
            mk("D", "fourth gold passage."),
            mk("X", "distractor."),
        ]
    )
    return queries, corpus


def _eval_rec(qid, union, kept, verdict=None):
    rec = {
        "qid": qid,
        "q0": "claim",
        "variant": "condensed",
        "per_hop_k": [max(len(union), 1)],
        "hops": [
            {
                "t": 1,
                "ranked": [
                    {"pid": p, "score": 1.0, "s_query": 1.0, "s_fact": 0.0} for p in union
                ],
                "kept_facts": [
                    {"pid": p, "sentence_index": i, "text": "s", "stage1_score": 0.5, "stage2_score": 0.4}
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


def test_a09_metrics_hand_fixture(acceptance_log):
    t0 = time.perf_counter()
    em, f1 = set_em_f1({"A", "C"}, {"A", "B"})
    f1_ok = em == 0.0 and f1 == 0.5

    queries, corpus = _eval_fixture()
    records = [
        _eval_rec("q1", ["A", "B", "X"], [("A", 0), ("B", 0)], verdict=True),
        _eval_rec("q2", ["X", "C"], [("A", 0), ("C", 0)], verdict=True),
        _eval_rec("q3", ["X"], []),
    ]
    report = evaluate_run(records, queries, corpus, EvalConfig(retrieval_k=2, answer_k=2))
    ov = report.overall
    exact_ok = (
        ov.retrieval_at_k == 0.5          # q1 hit, q2 label False dropped, q3 miss
        and ov.passage_em == 1 / 3
        and abs(ov.passage_f1 - (1.0 + 2 / 3 + 0.0) / 3) < 1e-12
        and ov.sentence_em == 0.5
        and ov.answer_recall_at_k == 1.0  # only q1 counts: q2 no answer, q3 yes/no
        and ov.verification_accuracy == 0.5
    )

    # count-weighted strata must reassemble the overall block
    fields = {
        "retrieval_at_k": "retrieval_n",
        "passage_em": "passage_n",
        "passage_f1": "passage_n",
        "sentence_em": "sentence_n",
        "sentence_f1": "sentence_n",
        "answer_recall_at_k": "answer_n",
        "verification_accuracy": "verification_n",
    }
    strata_err = 0.0
    for attr, n_attr in fields.items():
        total, total_n = 0.0, 0
        for block in report.by_hops.values():
            v, n = getattr(block, attr), getattr(block, n_attr)
            if v is not None:
                total += v * n
                total_n += n
        ov_v = getattr(ov, attr)
        if ov_v is not None and total_n:
            strata_err = max(strata_err, abs(ov_v - total / total_n))
    dt = time.perf_counter() - t0
    ok = f1_ok and exact_ok and strata_err < 1e-9 and dt < 1.0
    _note(
        acceptance_log, 9, ok,
        f"metrics oracle: hand fixture {'ok' if exact_ok else 'BROKEN'}, "
        f"split-set f1={f1}, strata err={strata_err:.1e} ({dt:.2f}s)",
    )
    assert f1_ok
    assert exact_ok
    assert strata_err < 1e-9
    assert dt < 1.0


# ---------------------------------------------------------------------------
# 10. CLI determinism across repeated runs and thread counts


def _cli(*args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "hoplite.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=subprocess_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_a10_cli_determinism(acceptance_log, tmp_path):
    t0 = time.perf_counter()
    synth_args = (
        "synth", "--hops", 2, "--queries", 12, "--corpus-size", 150,
        "--distractors", 3, "--with-answers", "--seed", 9,
    )
    for name in ("a", "b"):
        _cli(*synth_args, "--out", tmp_path / name, cwd=tmp_path)
    same = []
    for fname in ("corpus.jsonl", "queries.jsonl", "truth.jsonl"):
        same.append((tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes())
    synth_ok = all(same)

    corpus, queries = tmp_path / "a" / "corpus.jsonl", tmp_path / "a" / "queries.jsonl"
    for name in ("a.idx", "b.idx"):
        _cli(
            "build-index", "--corpus", corpus, "--out", tmp_path / name,
            "--variant", "ivf", "--seed", 9, cwd=tmp_path,
        )
    index_ok = (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()

    run_args = (
        "run", "--corpus", corpus, "--queries", queries, "--index", tmp_path / "a.idx",
        "--preset", "hotpotqa", "--seed", 9,
    )
    for name in ("t1.jsonl", "t1b.jsonl"):
        _cli(*run_args, "--out", tmp_path / name, cwd=tmp_path)
    run_ok = (tmp_path / "t1.jsonl").read_bytes() == (tmp_path / "t1b.jsonl").read_bytes()

    lho_args = (
        "lho", "--corpus", corpus, "--queries", queries, "--k-hat", "5,5", "--seed", 9,
    )
    for name in ("s1", "s1b"):
        _cli(
            *lho_args, "--out", tmp_path / f"{name}.jsonl",
            "--triples-out", tmp_path / f"{name}.tri", cwd=tmp_path,
        )
    lho_ok = all(
        (tmp_path / f"s1{ext}").read_bytes() == (tmp_path / f"s1b{ext}").read_bytes()
        for ext in (".jsonl", ".tri")
    )
    dt = time.perf_counter() - t0
    ok = synth_ok and index_ok and run_ok and lho_ok and dt < 120.0
    _note(
        acceptance_log, 10, ok,
        "determinism: synth=%s index=%s run=%s lho=%s (%.1fs)"
        % tuple(["ok" if x else "BROKEN" for x in (synth_ok, index_ok, run_ok, lho_ok)] + [dt]),
    )
    assert synth_ok
    assert index_ok
    assert run_ok
    assert lho_ok
    assert dt < 120.0
