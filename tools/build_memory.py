"""Print the memory `build_index` takes, stage by stage.

    python3 tools/build_memory.py [--variant ivf] [--hops 4] [--seed 1]
        [--corpus-size 2400] [--queries 100] [--src SRC]

It writes a `synth` corpus (by default the inputs of perfbench's hybrid-ivf
workload at seed 1; --hops 3 gives lho-ivf's) and indexes it under the
`hover` preset, as perfbench does, in two fresh processes. Each runs as
perfbench runs: one BLAS thread and glibc's mmap threshold fixed at
128 KiB. The first reads RSS, the second tracemalloc. The build stages:
  encode  from the start of build_index up to k-means (flat: up to TokenIndex)
  kmeans  index._kmeans
  assign  index._assign_all
  index   the rest of build_index
Per stage it prints, in MiB, the RSS at the stage's end, the process's
high-water mark at the stage's end, and the traced peak within the stage;
the `load` row is the corpus read before the build. The last line is the
same as JSON. --src measures the package under another checkout's src.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

# Set before numpy loads, as perfbench/run.py sets them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from harness import peak_rss_mib, pin_mmap_threshold  # noqa: E402

STAGES = ("load", "encode", "kmeans", "assign", "index")
MIB = 1024 * 1024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--variant", choices=["flat", "ivf"], default="ivf")
    p.add_argument("--hops", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--corpus-size", type=int, default=2400)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--src", type=Path, default=ROOT / "src")
    p.add_argument("--child", choices=["rss", "traced"], help=argparse.SUPPRESS)
    p.add_argument("--corpus", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def rss_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / MIB


def child(args) -> dict:
    """Build the index of `args.corpus` once; per stage, what `args.child` reads."""
    pin_mmap_threshold()
    import tracemalloc

    from hoplite import config as cfgmod
    from hoplite import index as index_mod
    from hoplite.corpus import load_corpus
    from hoplite.encoder import LexicalEncoder

    traced = args.child == "traced"
    if traced:
        tracemalloc.start()
    stages: dict[str, dict] = {}
    current = ["load"]

    def enter(name: str) -> None:
        """End the current stage, unless it is `name`, and start `name`."""
        if current[0] == name:
            return
        row = {"rss_mib": rss_mib(), "hwm_mib": peak_rss_mib()}
        if traced:
            row = {"traced_peak_mib": tracemalloc.get_traced_memory()[1] / MIB}
            tracemalloc.reset_peak()
        stages[current[0]] = row
        current[0] = name

    def staged(name, fn, then):
        def run(*a, **kw):
            enter(name)
            out = fn(*a, **kw)
            enter(then)
            return out
        return run

    index_mod._kmeans = staged("kmeans", index_mod._kmeans, "assign")
    index_mod._assign_all = staged("assign", index_mod._assign_all, "index")
    index_mod.TokenIndex.__init__ = staged("index", index_mod.TokenIndex.__init__, "index")
    cfg = cfgmod.resolve_config(
        preset="hover", overrides={"seed": args.seed, "index": {"variant": args.variant}},
        environ={})
    corpus = load_corpus(args.corpus)
    encoder = LexicalEncoder(cfgmod.encoder_config(cfg))
    enter("encode")
    index_mod.build_index(corpus, encoder, cfgmod.index_config(cfg))
    enter("")
    return stages


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (args.src / "hoplite" / "__init__.py").is_file():
        print(f"error: no hoplite sources under {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(args.src.resolve()))
    if args.child:
        print(json.dumps(child(args)))
        return 0
    from hoplite.synth import PlantSpec, generate, write_synth

    spec = PlantSpec(hops=args.hops, queries=args.queries, corpus_size=args.corpus_size,
                     distractors_per_query=3, seed=args.seed)
    merged = {name: {} for name in STAGES}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = write_synth(generate(spec), tmp)["corpus"]
        for mode in ("rss", "traced"):
            cmd = [sys.executable, __file__, "--child", mode, "--corpus", str(corpus),
                   "--variant", args.variant, "--seed", str(args.seed), "--src", str(args.src)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            for name, row in json.loads(out.splitlines()[-1]).items():
                merged[name].update(row)
    merged = {name: row for name, row in merged.items() if row}
    want = STAGES if args.variant == "ivf" else ("load", "encode", "index")
    if tuple(merged) != want:
        print(f"error: build stages {list(merged)}, expected {list(want)}", file=sys.stderr)
        return 1
    print(f"{'stage':8s} {'rss_mib':>9s} {'hwm_mib':>9s} {'traced_peak_mib':>16s}")
    for name, row in merged.items():
        print(f"{name:8s} {row['rss_mib']:9.1f} {row['hwm_mib']:9.1f} "
              f"{row['traced_peak_mib']:16.1f}")
    print(json.dumps({"variant": args.variant, "plant_spec": dataclasses.asdict(spec),
                      "stages": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
