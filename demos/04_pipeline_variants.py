"""Condensed, rerank, and hybrid runs side by side.

Same corpus, same index, three pipeline variants. The interesting contrast
is the context each one carries between hops: condensed keeps individual
sentences that overlap the claim, rerank drags whole passages along, and
hybrid interleaves both ranked lists into one merged sequence.

Run: python3 demos/04_pipeline_variants.py
"""

import dataclasses

import numpy as np

from hoplite.config import pipeline_config, resolve_config
from hoplite.corpus import Corpus, Passage
from hoplite.encoder import EncoderConfig, LexicalEncoder
from hoplite.index import IndexConfig, build_index
from hoplite.pipeline import PipelineRunner
from hoplite.synth import PlantSpec, generate

spec = PlantSpec(hops=3, queries=20, corpus_size=300, seed=11)
result = generate(spec)

# synthetic passages are two short sentences; real articles are not. Pad
# every passage with filler so the whole-passage context cost shows up.
rng = np.random.default_rng(99)
corpus = Corpus([
    Passage(pid=p.pid, title=p.title, sentences=p.sentences + tuple(
        " ".join(f"x{int(w):08d}" for w in rng.integers(0, 10**8, size=6))
        for _ in range(5 + i % 3)
    ))
    for i, p in enumerate(result.corpus)
])

enc = LexicalEncoder(EncoderConfig(dim=64, seed=11))
idx = build_index(corpus, enc, IndexConfig(variant="flat"))

base = pipeline_config(resolve_config(preset="hover", environ={}))
base = dataclasses.replace(base, per_hop_k=(25, 25, 25),
                           verify=True, hybrid_total=30)

q = result.queries[0]
print(f"claim: {q.text}")
print(f"gold:  {sorted(q.gold_pids)}\n")


def context_words(trace):
    return sum(len(f.text.split()) for f in trace.final_facts)


# --- condensed vs rerank ------------------------------------------------------

runs = {}
for variant in ("condensed", "rerank"):
    cfg = dataclasses.replace(base, variant=variant)
    trace = PipelineRunner(corpus, idx, enc, cfg).run(q)
    runs[variant] = trace
    support = "supported" if trace.verdict else "not supported"
    print(f"{variant:10s} {len(trace.final_facts):3d} facts,"
          f" {context_words(trace):4d} context words, verdict: {support}")

# the trivial verifier counts condenser-kept facts per hop, so it only
# says something on the condensed path; rerank always reads not-supported.
# rerank keeps every sentence of each hop's top passage; condensed keeps
# only sentences that score against the running query
print("\ncondensed kept:",
      ", ".join(f"{f.pid}#{f.sentence_index}" for f in runs["condensed"].final_facts[:8]))
print("rerank kept:   ",
      ", ".join(f"{f.pid}#{f.sentence_index}" for f in runs["rerank"].final_facts[:8]))

# --- hybrid merge ---------------------------------------------------------------

cfg = dataclasses.replace(base, variant="hybrid")
hybrid = PipelineRunner(corpus, idx, enc, cfg).run(q)
print(f"\nhybrid merged list: {len(hybrid.merged)} pids"
      f" (budget {cfg.hybrid_total}, split hop-major, condensed first)")
print("head:", ", ".join(hybrid.merged[:10]))
for pid in sorted(q.gold_pids):
    where = hybrid.merged.index(pid) if pid in hybrid.merged else -1
    print(f"  {pid} at merged position {where}")

# --- trimming a trace after the fact ---------------------------------------------

# per-hop ranked lists are disjoint, so shrinking the union is just taking
# shorter per-hop prefixes; no re-run needed
full = runs["condensed"]
print(f"\nunion size: full {len(full.union_pids)}")
for n in (5, 1):
    pids = [pid for hop in full.hops for pid in hop.ranked.pids[:n]]
    print(f"  top-{n} per hop: {len(pids)} pids, gold {sorted(q.gold_pids & set(pids))}")

assert len(hybrid.merged) == min(cfg.hybrid_total, len(set(hybrid.merged)))
assert len(set(full.union_pids)) == len(full.union_pids)
