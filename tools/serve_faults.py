"""Print the speed and the minor page faults of one workload's requests, block by block.

    python3 tools/serve_faults.py [--workload hybrid-ivf] [--seed 1]
        [--queries 500] [--warm 0] [--block 100] [--max-faults F] [--src SRC]

It generates one of perfbench's workloads (`perfbench/workloads.py`, at
--seed) and serves it as perfbench serves it: one BLAS thread, glibc's mmap
threshold fixed at 128 KiB, one request after another in a closed loop.
The first --warm queries are served and not counted; each block of about
--block queries served after them (a block ends with a whole request)
prints its queries/s and its minor faults per query, read from
`getrusage` for this process. Rising faults mean the serving path maps and
faults in large temporaries under the fixed threshold. The last line is
the same as JSON. --max-faults F exits 1 when a block reads more than F
faults per query. --src measures the package under another checkout's src.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

# Set before numpy loads, as perfbench/run.py sets them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from harness import pin_mmap_threshold  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="hybrid-ivf")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--queries", type=int, default=500, help="queries counted, after --warm")
    p.add_argument("--warm", type=int, default=0, help="queries served first, not counted")
    p.add_argument("--block", type=int, default=100, help="queries per printed block")
    p.add_argument("--max-faults", type=float, help="exit 1 above this many faults per query")
    p.add_argument("--src", type=Path, default=ROOT / "src")
    args = p.parse_args(argv)
    if args.queries < 1 or args.block < 1 or args.warm < 0:
        p.error("--queries and --block must be positive, --warm not negative")
    return args


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (args.src / "hoplite" / "__init__.py").is_file():
        print(f"error: no hoplite sources under {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(args.src.resolve()))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    pin_mmap_threshold()
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = wl.generate(args.seed, work)
        cfg = wl.config(args.seed)
        state = wl.setup(inputs, cfg, workloads.plain_encoder(cfg))
        out = work / "out"
        out.mkdir()
        served = i = 0
        while served < args.warm:
            served += len(wl.serve(state, i, out).qids)
            i += 1
        print(f"{'queries':>15s} {'qps':>8s} {'faults/query':>13s}")
        first = served
        while served < first + args.queries:
            start, faults, t0 = served, minor_faults(), time.perf_counter()
            while served < min(start + args.block, first + args.queries):
                served += len(wl.serve(state, i, out).qids)
                i += 1
            wall = time.perf_counter() - t0
            n = served - start
            blocks.append({"first": start, "queries": n, "qps": n / wall,
                           "faults_per_query": (minor_faults() - faults) / n})
            row = blocks[-1]
            print(f"{start:>7d}-{served - 1:<7d} {row['qps']:8.1f} {row['faults_per_query']:13.1f}")
        wl.finish(state, out)
    worst = max(row["faults_per_query"] for row in blocks)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "warm": first,
                      "blocks": blocks, "max_faults_per_query": worst}))
    if args.max_faults is not None and worst > args.max_faults:
        print(f"error: {worst:.1f} faults per query in a block, above --max-faults "
              f"{args.max_faults}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
