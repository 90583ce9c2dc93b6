"""hoplite benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload condensed-flat --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; nothing needs installing, the package is
imported from `src/` by absolute path. BLAS runs one thread and glibc's
mmap threshold is fixed (harness.pin_mmap_threshold), so that host load
and heap fragmentation move the figures less. Inputs are generated from
the seed and are not timed. Set-up (`setup_s`) is repeated SETUP_REPS
times and reported as the median. The timed region then serves requests until
`--seconds` have passed and at least 40 queries are done, so that
`latency_p75_ms` keeps 10 samples above it (harness.samples_needed).

--trace 0 prints the end-to-end metrics. --trace 1 repeats the same
requests with spans recorded (spans.py) and prints the per-layer
metrics, the tracing overhead, and whether both runs wrote the same
bytes. The last stdout line is the JSON result; lines before it record
the run (commit, versions, BLAS threads, resolved inputs) and every
metric by name. Exit status 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread. On a shared 2-vCPU host a second one bought no
# throughput (condensed-flat ran 2.2 queries/s either way) and made the
# large products wait for whichever vCPU was slower. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 3
LATENCY_TAIL = 75  # percentile reported next to the median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def serve(wl, state, out: Path, seconds=None, limit=None, min_queries=0, span=None):
    """Closed loop: the next request goes out when the previous one returns."""
    span = span or (lambda name: nullcontext())
    requests = []
    done = 0
    t0 = time.perf_counter()
    while True:
        if limit is not None:
            if len(requests) >= limit:
                break
        elif time.perf_counter() - t0 >= seconds and done >= min_queries:
            break
        with span("bench.request"):
            req = wl.serve(state, len(requests), out)
        requests.append(req)
        done += len(req.qids)
    with span("bench.finish"):
        wl.finish(state, out)
    return requests, time.perf_counter() - t0


def digests(wl, out: Path) -> list[tuple[str, str]]:
    return [(p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in wl.outputs(out)]


def timed_setup(wl, inputs, cfg, make_encoder) -> tuple:
    gc.collect()
    t0 = time.perf_counter()
    state = wl.setup(inputs, cfg, make_encoder)
    return state, time.perf_counter() - t0


def layer_metrics(tracer, repeats, queries, wall, traced_wall, cpu_per_wall) -> dict:
    from spans import layer_totals

    totals = layer_totals(tracer.spans, tracer.leaves)
    c = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("encoder.encode_query", "index.candidates_for", "scoring.flipr_score",
                 "retriever.retrieve", "condenser.condense", "supervision.discover_positives"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("encoder.encode_query", "encoder.encode_passage", "index.candidates_for",
                 "index.build_index", "index.save_index", "index.load_index",
                 "scoring.flipr_score", "retriever.retrieve", "condenser.condense",
                 "condenser.IdfTable.from_corpus", "pipeline.run_queries",
                 "pipeline.merge_hybrid", "pipeline.write_traces",
                 "supervision.latent_hop_ordering", "supervision.discover_positives",
                 "supervision.write_supervision", "corpus.load_corpus", "corpus.load_queryset"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m.update({
        "encoder.rows_per_query": (ratio(c["encoder.rows"], calls("encoder.encode_query")), "rows"),
        "index.candidate_fraction": (ratio(c["index.candidates"], c["index.pool"]), "fraction"),
        "scoring.gemm_flops": (int(c["scoring.gemm_flops"]), "flop"),
        "scoring.bytes_read": (int(c["scoring.bytes_read"]), "B"),
        "retriever.useful_fraction": (
            ratio(c["retriever.returned"], calls("scoring.flipr_score")), "fraction"),
        "retriever.repeat_calls": (repeats.repeats, "count"),
        "condenser.sentences_scored": (int(c["condenser.sentences"]), "count"),
        "condenser.kept_fraction": (ratio(c["condenser.kept"], c["condenser.sentences"]),
                                    "fraction"),
        "pipeline.trace_bytes": (int(c["pipeline.trace_bytes"]), "B"),
        "supervision.fallbacks": (int(c["supervision.fallbacks"]), "count"),
        "process.cpu_per_wall": (cpu_per_wall, "ratio"),
        "trace.overhead_fraction": (traced_wall / wall - 1, "fraction"),
        "trace.queries": (queries, "count"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hoplite" / "__init__.py").is_file():
        print(f"error: no hoplite sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hoplite

    if Path(hoplite.__file__).resolve().parent != (SRC / "hoplite").resolve():
        print(f"error: imported hoplite from {hoplite.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    harness.pin_mmap_threshold()
    min_queries = harness.samples_needed(LATENCY_TAIL)
    work = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = wl.generate(args.seed, work)
        cfg = wl.config(args.seed)
        make_encoder = workloads.plain_encoder(cfg)
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPS):
            state = None  # drop the last set-up first, so peak RSS holds only one
            state, seconds = timed_setup(wl, inputs, cfg, make_encoder)
            setup_times.append(seconds)

        out = work / "out"
        out.mkdir()
        cpu0 = harness.cpu_seconds()
        requests, wall = serve(wl, state, out, seconds=args.seconds, min_queries=min_queries)
        cpu_per_wall = (harness.cpu_seconds() - cpu0) / wall
        rss = harness.peak_rss_mib()

        attempted = sum(len(r.qids) for r in requests)
        raised = sum(len(r.qids) for r in requests if r.raised)
        bad, quality = wl.check(state, inputs, requests, out)
        failed = raised + len(bad)
        record = {"run": harness.run_record(ROOT, args.seed), "workload": wl.name,
                  "inputs": wl.resolved(inputs, state), "requests": len(requests),
                  "timed_wall_s": wall, "cpu_per_wall": cpu_per_wall,
                  "request_ms": [round(r.latency_s * 1000, 1) for r in requests]}
        correct = failed == 0 and wl.quality_name in quality

        if args.trace:
            from spans import Tracer, instrument, instrument_encoder

            first = digests(wl, out)
            state = None
            gc.collect()
            tracer = Tracer()

            def traced_encoder():
                enc = make_encoder()
                instrument_encoder(tracer, enc)
                return enc

            traced_out = work / "traced"
            traced_out.mkdir()
            with instrument(tracer) as repeats:
                with tracer.span("bench.setup"):
                    state = wl.setup(inputs, cfg, traced_encoder)
                t_requests, traced_wall = serve(wl, state, traced_out, limit=len(requests),
                                                span=tracer.span)
            same = digests(wl, traced_out) == first
            print(f"traced outputs byte-identical: {same} ({len(first)} files)")
            if not same or any(r.raised for r in t_requests):
                # a differing file can hold any query of the run: count them all
                failed = attempted
                correct = False
            spans_dir = WORK / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_dir / f"{wl.name}-seed{args.seed}.jsonl")
            metrics = layer_metrics(tracer, repeats, attempted, wall, traced_wall, cpu_per_wall)
        else:
            latencies = [r.latency_s * 1000 for r in requests for _ in r.qids]
            completed = attempted - raised
            metrics = {
                "throughput_qps": (completed / wall, "queries/s"),
                "latency_p50_ms": (harness.percentile(latencies, 50), "ms"),
                "latency_p75_ms": (harness.percentile(latencies, LATENCY_TAIL), "ms"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (rss, "MiB"),
                "quality": (quality.get(wl.quality_name), "fraction"),
            }
            record["latency_samples"] = len(latencies)
            record["setup_samples_s"] = setup_times
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(record, sort_keys=True))
    for name, value in quality.items():
        print(f"{name:32s} {value}")
    print(f"{'error_rate':32s} {failed / attempted if attempted else 1.0} "
          f"({failed} of {attempted} queries)")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
