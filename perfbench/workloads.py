"""The three planted workloads: inputs, set-up, one request, output checks.

Every workload uses the `hover` preset (dim 128, four hops), a corpus of
2,400 passages with 3 distractors per query, and a 100-query queryset,
all generated from the run's seed. The program sees only the JSONL files
written here. Calls go through module attributes (`pipeline.run_queries`,
not a local name) so that a traced run sees them.

Why each workload exists is recorded in WORKLOADS.md next to this file.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import hoplite.config as cfgmod
import hoplite.corpus as corpus_mod
import hoplite.index as index_mod
import hoplite.pipeline as pipeline
import hoplite.retriever as retriever_mod
import hoplite.supervision as supervision
from hoplite.encoder import LexicalEncoder
from hoplite.evaluation import evaluate_run
from hoplite.synth import PlantSpec, generate, read_truth, write_synth
from hoplite.util import read_jsonl

CORPUS_SIZE = 2400
QUERIES = 100
DISTRACTORS = 3
FLAT_BATCH = 10  # queries per run_queries call on condensed-flat
# queries per latent_hop_ordering call on lho-ivf: a call of about 8 s
# averages over the host's short swings in speed, so the median call
# time moves no more than the run's throughput
LHO_BATCH = 50


@dataclass(frozen=True)
class Inputs:
    spec: PlantSpec
    corpus: Path
    queries: Path
    truth: Path
    index: Path


@dataclass
class State:
    """What set-up hands to the timed region."""

    cfg: dict
    corpus: corpus_mod.Corpus
    queries: list
    index: index_mod.TokenIndex
    engine: object  # PipelineRunner or Retriever
    pending: list = field(default_factory=list)  # hybrid traces not yet written


@dataclass
class Request:
    qids: list[str]
    latency_s: float
    raised: bool = False


class Workload:
    name = ""
    quality_name = ""  # the figure from check() reported as `quality`
    hops = 3
    index_variant = index_mod.VARIANT_FLAT
    overrides: dict = {}

    def config(self, seed: int) -> dict:
        over = {"seed": seed, "index": {"variant": self.index_variant}}
        for section, values in self.overrides.items():
            over.setdefault(section, {}).update(values)
        # environ={} keeps HOPLITE_* variables of the caller out of the run
        return cfgmod.resolve_config(preset="hover", overrides=over, environ={})

    def generate(self, seed: int, work: Path) -> Inputs:
        spec = PlantSpec(
            hops=self.hops,
            queries=QUERIES,
            corpus_size=CORPUS_SIZE,
            distractors_per_query=DISTRACTORS,
            seed=seed,
        )
        paths = write_synth(generate(spec), work / "inputs")
        return Inputs(spec, paths["corpus"], paths["queries"], paths["truth"],
                      work / "inputs" / "index.bin")

    def setup(self, inputs: Inputs, cfg: dict, make_encoder: Callable) -> State:
        """`hoplite build-index` followed by the start of `run` or `lho`."""
        corpus = corpus_mod.load_corpus(inputs.corpus)
        queries = corpus_mod.load_queryset(inputs.queries, corpus)
        built = index_mod.build_index(corpus, make_encoder(), cfgmod.index_config(cfg))
        index_mod.save_index(built, inputs.index)
        index = index_mod.load_index(inputs.index)
        return State(cfg, corpus, queries, index, self.engine(corpus, index, make_encoder(), cfg))

    def engine(self, corpus, index, encoder, cfg):
        return pipeline.PipelineRunner(corpus, index, encoder, cfgmod.pipeline_config(cfg))

    def resolved(self, inputs: Inputs, state: State) -> dict:
        ivf = state.index.ivf
        return {
            "plant_spec": dataclasses.asdict(inputs.spec),
            "passages": len(state.corpus),
            "vectors": state.index.n_vectors,
            "index_variant": state.index.variant,
            "centroids": ivf.n_centroids if ivf else None,
            "nprobe": ivf.nprobe if ivf else None,
            "queries": len(state.queries),
        }

    def _timed(self, qids: list[str], call: Callable[[], None]) -> Request:
        t0 = time.perf_counter()
        try:
            call()
        except Exception:  # noqa: BLE001 - counted as failed queries, run continues
            traceback.print_exc()
            return Request(qids, time.perf_counter() - t0, raised=True)
        return Request(qids, time.perf_counter() - t0)

    def serve(self, state: State, i: int, out: Path) -> Request:
        raise NotImplementedError

    def finish(self, state: State, out: Path) -> None:
        """Work after the last request that still belongs to the timed region."""

    def outputs(self, out: Path) -> list[Path]:
        return sorted(out.glob("*.jsonl"))

    def check(self, state: State, inputs: Inputs, requests: list[Request], out: Path
              ) -> tuple[set[str], dict]:
        """(qids whose output broke an invariant, quality figures)."""
        raise NotImplementedError


def _slice(queries: list, i: int, size: int) -> list:
    """The i-th batch of `size` queries, wrapping round the queryset."""
    start = (i * size) % len(queries)
    return queries[start:start + size]


def _meta(cfg: dict, n: int) -> dict:
    # as `hoplite run`: thread count cannot change results, so it is not recorded
    return {"config": {k: v for k, v in cfg.items() if k != "threads"}, "queries": n}


def check_hop_trace(rec: dict, corpus: corpus_mod.Corpus) -> list[str]:
    """Per-hop lists disjoint and within that hop's k; union = concatenation."""
    problems = []
    hops, ks = rec["hops"], rec["per_hop_k"]
    if len(hops) != len(ks):
        problems.append(f"{len(hops)} hops for {len(ks)} k values")
    seen: set[str] = set()
    union: list[str] = []
    for hop, k in zip(hops, ks):
        pids = [sp["pid"] for sp in hop["ranked"]]
        if len(pids) > k:
            problems.append(f"hop {hop['t']} ranked {len(pids)} > k={k}")
        if len(set(pids)) != len(pids) or seen & set(pids):
            problems.append(f"hop {hop['t']} repeats a pid")
        missing = [p for p in pids if p not in corpus]
        if missing:
            problems.append(f"hop {hop['t']} pid {missing[0]!r} not in corpus")
        seen.update(pids)
        union.extend(pids)
    if rec["union"] != union:
        problems.append("union is not the hop-major concatenation")
    return problems


def check_hybrid_trace(rec: dict, corpus: corpus_mod.Corpus, total: int) -> list[str]:
    problems = check_hop_trace(rec["condensed"], corpus) + check_hop_trace(rec["rerank"], corpus)
    pool = set(rec["condensed"]["union"]) | set(rec["rerank"]["union"])
    merged = rec["merged"]
    if len(merged) != min(total, len(pool)):
        problems.append(f"merged has {len(merged)} entries, expected {min(total, len(pool))}")
    if len(set(merged)) != len(merged) or not set(merged) <= pool:
        problems.append("merged repeats a pid or names one outside both traces")
    return problems


class _RunWorkload(Workload):
    """Shared output checks for the `hoplite run` workloads."""

    quality_name = "recall_at_k"

    def check(self, state, inputs, requests, out):
        corpus = state.corpus
        total = state.cfg["pipeline"]["hybrid_total"]
        expected = [q for r in requests if not r.raised for q in r.qids]
        records = []
        for path in self.outputs(out):
            _, recs = pipeline.read_traces(path)
            records.extend(recs)
        bad: set[str] = set()
        if [r["qid"] for r in records] != expected:
            bad.update(expected)
            return bad, {}
        for rec in records:
            if rec["variant"] == pipeline.VARIANT_HYBRID:
                problems = check_hybrid_trace(rec, corpus, total)
            else:
                problems = check_hop_trace(rec, corpus)
            if problems:
                print(f"check {rec['qid']}: {'; '.join(problems)}")
                bad.add(rec["qid"])
        report = evaluate_run(records, state.queries, corpus, cfgmod.eval_config(state.cfg))
        return bad, {"recall_at_k": report.overall.retrieval_at_k}


class CondensedFlat(_RunWorkload):
    name = "condensed-flat"
    hops = 3
    index_variant = index_mod.VARIANT_FLAT
    overrides = {"pipeline": {"variant": pipeline.VARIANT_CONDENSED}}

    def serve(self, state, i, out):
        batch = _slice(state.queries, i, FLAT_BATCH)

        def call():
            traces = pipeline.run_queries(state.engine, batch, threads=1)
            pipeline.write_traces(out / f"traces-{i:04d}.jsonl", traces,
                                  meta=_meta(state.cfg, len(batch)))

        return self._timed([q.qid for q in batch], call)


class HybridIvf(_RunWorkload):
    name = "hybrid-ivf"
    hops = 4
    index_variant = index_mod.VARIANT_IVF
    overrides = {"pipeline": {"variant": pipeline.VARIANT_HYBRID}}

    def serve(self, state, i, out):
        query = state.queries[i % len(state.queries)]

        def call():
            state.pending.extend(pipeline.run_queries(state.engine, [query], threads=1))

        return self._timed([query.qid], call)

    def finish(self, state, out):
        pipeline.write_traces(out / "traces.jsonl", state.pending,
                              meta=_meta(state.cfg, len(state.pending)))
        state.pending = []


class LhoIvf(Workload):
    name = "lho-ivf"
    quality_name = "order_recovery"
    hops = 3
    index_variant = index_mod.VARIANT_IVF
    overrides = {"supervision": {"trainer": "identity"}}

    def engine(self, corpus, index, encoder, cfg):
        return retriever_mod.Retriever(corpus, index, encoder, cfgmod.lho_retrieval_config(cfg))

    def serve(self, state, i, out):
        batch = _slice(state.queries, i, LHO_BATCH)

        def call():
            result = supervision.latent_hop_ordering(
                state.engine, batch, cfgmod.lho_config(state.cfg),
                expansion=supervision.EXPANSION_ORACLE,
            )
            supervision.write_supervision(out / f"supervision-{i:04d}.jsonl", result)

        return self._timed([q.qid for q in batch], call)

    def check(self, state, inputs, requests, out):
        gold = {q.qid: q.gold_pids for q in state.queries}
        lho = cfgmod.lho_config(state.cfg)
        bad: set[str] = set()
        first: dict[tuple, bytes] = {}  # batch -> bytes of its first file
        sets = {}
        for i, req in enumerate(requests):
            if req.raised:
                continue
            path = out / f"supervision-{i:04d}.jsonl"
            if not path.is_file():
                bad.update(req.qids)
                continue
            data = path.read_bytes()
            records = [obj for _, obj in read_jsonl(path)]
            if [r["qid"] for r in records] != sorted(req.qids):
                bad.update(req.qids)
                continue
            # the identity trainer makes a batch's output a function of the batch
            key = tuple(req.qids)
            if first.setdefault(key, data) != data:
                print(f"check: batch of request {i} wrote other bytes than before")
                bad.update(req.qids)
            for rec in records:
                problems = check_supervision(rec, gold[rec["qid"]], state.corpus, lho)
                if problems:
                    print(f"check {rec['qid']}: {'; '.join(problems)}")
                    bad.add(rec["qid"])
                sets[rec["qid"]] = tuple(
                    supervision.HopSupervision(
                        t=h["t"], positives=tuple(h["positives"]), negatives=tuple(h["negatives"]),
                        fallback=h["fallback"], query_text=h["query_text"],
                    )
                    for h in rec["hops"]
                )
        if not sets:
            return bad, {}
        truth = {q: hops for q, hops in read_truth(inputs.truth).items() if q in sets}
        recovered = supervision.order_recovery(supervision.SupervisionSet(sets), truth)
        return bad, {"order_recovery": recovered.passage_fraction}


def check_supervision(rec: dict, gold: frozenset[str], corpus: corpus_mod.Corpus,
                      cfg: supervision.LhoConfig) -> list[str]:
    """Hops in order; each gold assigned at most once; negatives hold no gold."""
    problems = []
    if [h["t"] for h in rec["hops"]] != list(range(1, cfg.hops + 1)):
        problems.append("hops are not numbered 1..n")
    assigned: set[str] = set()
    for h in rec["hops"]:
        pos, neg = h["positives"], h["negatives"]
        if not set(pos) <= gold or assigned & set(pos):
            problems.append(f"hop {h['t']} positive outside gold or assigned twice")
        assigned.update(pos)
        if gold & set(neg) or len(set(neg)) != len(neg) or len(neg) > cfg.k_retrieve:
            problems.append(f"hop {h['t']} negatives hold a gold, a repeat, or too many")
        if any(p not in corpus for p in neg):
            problems.append(f"hop {h['t']} negative not in corpus")
    return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CondensedFlat(), HybridIvf(), LhoIvf())
}


def plain_encoder(cfg: dict) -> Callable[[], LexicalEncoder]:
    return lambda: LexicalEncoder(cfgmod.encoder_config(cfg))
