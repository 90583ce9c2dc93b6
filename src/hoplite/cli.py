"""Command line surface.

Subcommands: synth, build-index, retrieve, run, lho, heuristic-order,
eval. Every subcommand accepts --config/--preset/--seed; flags
beat environment variables (HOPLITE_*), which beat the config file, which
beats the preset. The resolved config is logged verbatim at INFO before
any work happens. Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from itertools import chain
from pathlib import Path

from . import config as cfgmod
from .config import ConfigError
from .corpus import CorpusFormatError, Fact, MultiHopQuery, load_corpus, load_queryset
from .encoder import LexicalEncoder
from .index import VARIANT_FLAT, VARIANT_IVF, IndexConfig, build_index, load_index, save_index
from .pipeline import (
    LOCKSTEP_QUERIES,
    VARIANT_CONDENSED,
    VARIANT_HYBRID,
    VARIANT_RERANK,
    PipelineRunner,
    run_queries,
    write_traces,
    read_traces,
)
from .retriever import Retriever
from .supervision import (
    EXPANSION_ORACLE,
    EXPANSION_SHUFFLED,
    build_triples,
    heuristic_order,
    latent_hop_ordering,
    order_recovery,
    write_supervision,
    write_triples,
)
from .evaluation import check_query_texts, evaluate_run, report_json
from .synth import PlantSpec, generate, write_synth, read_truth
from .util import check_writable, derive_seed, replacing, tokenize, write_jsonl

log = logging.getLogger("hoplite")


def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="FILE", help="JSON config document")
    p.add_argument("--preset", help="config preset: hover, hotpotqa, or one defined in the file")
    p.add_argument("--seed", type=int, help="root seed, overrides config")
    p.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
    )
    return p


def _require(parser: argparse.ArgumentParser, path: str | None, what: str) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    if not p.exists():
        parser.error(f"{what} not found: {p}")
    return p


def _outputs(args: argparse.Namespace, *outs: str) -> None:
    """Refuse, before any work, each given output (of the flags `outs`) that writing
    it at the end would, or whose path is that of an input or of another output."""
    named: dict[str, str] = {}
    for name in ("config", "corpus", "queries", "index", "truth", "traces", *outs):
        path, flag = getattr(args, name, None), "--" + name.replace("_", "-")
        other = path is not None and named.setdefault(os.path.realpath(path), flag)
        if path is not None and name in outs:
            check_writable(path)
            if other != flag:
                raise ValueError(f"{other} and {flag} both name {path}")


def _given(overlay: dict) -> dict:
    """A nested flag overlay without the flags left unset (None)."""
    return {
        k: _given(v) if isinstance(v, dict) else v for k, v in overlay.items() if v is not None
    }


def _resolve(args: argparse.Namespace, flags: dict | None = None) -> dict:
    """The config document with command flags on top, checked whole before any input is read."""
    overlay = _given({"seed": args.seed, **(flags or {})})
    cfg = cfgmod.resolve_config(preset=args.preset, config_path=args.config, overrides=overlay)
    log.info("resolved config: %s", json.dumps(cfg, sort_keys=True))
    return cfg


def _encoder(cfg: dict) -> LexicalEncoder:
    return LexicalEncoder(cfgmod.encoder_config(cfg))


def _load_or_build_index(args, parser, cfg, corpus):
    if getattr(args, "index", None) is not None:
        path = _require(parser, args.index, "index")
        return load_index(path)
    log.info("no index file given, building a flat index in memory")
    flat = IndexConfig(variant=VARIANT_FLAT)
    return build_index(corpus, _encoder(cfg), flat)


def cmd_synth(args, parser) -> int:
    cfg = _resolve(args)
    try:
        spec = PlantSpec(
            hops=args.hops,
            queries=args.queries,
            corpus_size=args.corpus_size,
            topic_tokens=args.topic_tokens,
            bridge_tokens=args.bridge_tokens,
            distractors_per_query=args.distractors,
            distractor_overlap=args.overlap,
            with_answers=args.with_answers,
            seed=cfg["seed"],
        )
    except ValueError as exc:  # a flag value the planter cannot honour
        parser.error(str(exc))
    result = generate(spec)
    paths = write_synth(result, args.out)
    print(
        f"synth passages={len(result.corpus)} queries={len(result.queries)} "
        f"hops={spec.hops} seed={spec.seed} out={paths['corpus'].parent}"
    )
    return 0


def cmd_build_index(args, parser) -> int:
    cfg = _resolve(args, {"index": {"variant": args.variant}})
    _outputs(args, "out")
    corpus = load_corpus(_require(parser, args.corpus, "corpus"))
    index = build_index(corpus, _encoder(cfg), cfgmod.index_config(cfg))
    save_index(index, args.out)
    line = (
        f"index passages={len(corpus)} vectors={index.n_vectors} "
        f"dim={index.dim} variant={index.variant}"
    )
    if index.ivf is not None:
        line += f" centroids={index.ivf.n_centroids} nprobe={index.ivf.nprobe}"
    print(line + f" out={args.out}")
    return 0


def cmd_retrieve(args, parser) -> int:
    cfg = _resolve(args, {"retrieval": {"k": args.k}})
    if not tokenize(args.query):
        raise CorpusFormatError(f"--query {args.query!r} holds no token to rank by")
    corpus = load_corpus(_require(parser, args.corpus, "corpus"))
    index = load_index(_require(parser, args.index, "index"))
    retr = Retriever(corpus, index, _encoder(cfg), cfgmod.retrieval_config(cfg))
    facts = tuple(Fact(pid="cli", sentence_index=i, text=text) for i, text in enumerate(args.fact))
    ranked = retr.retrieve(MultiHopQuery(qid="cli", q0_text=args.query, facts=facts))
    for rank, sp in enumerate(ranked, start=1):
        print(f"{rank}\t{sp.pid}\t{sp.score:.6f}")
    return 0


def cmd_run(args, parser) -> int:
    cfg = _resolve(args, {"pipeline": {"variant": args.variant}})
    _outputs(args, "out")
    corpus = load_corpus(_require(parser, args.corpus, "corpus"))
    queries = load_queryset(_require(parser, args.queries, "queryset"), corpus)
    index = _load_or_build_index(args, parser, cfg, corpus)
    runner = PipelineRunner(corpus, index, _encoder(cfg), cfgmod.pipeline_config(cfg))
    # one window at a time, so only one window's traces are held
    windows = (run_queries(runner, queries[at : at + LOCKSTEP_QUERIES])
               for at in range(0, len(queries), LOCKSTEP_QUERIES))
    write_traces(args.out, chain.from_iterable(windows),
                 meta={"config": cfg, "queries": len(queries)})
    print(
        f"run queries={len(queries)} variant={cfg['pipeline']['variant']} "
        f"hops={len(cfg['pipeline']['per_hop_k'])} out={args.out}"
    )
    return 0


def _k_hat(text: str) -> list[int | None]:
    """argparse type of --k-hat: comma-separated ints, 'all' or 'none' probing everything."""
    parts = [part.strip().lower() for part in text.split(",")]
    try:
        return [None if part in ("all", "none", "") else int(part) for part in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of integers or 'all'") from None


def cmd_lho(args, parser) -> int:
    if args.triples_cap < 1:
        parser.error(f"argument --triples-cap: {args.triples_cap} is not a positive integer")
    cfg = _resolve(args, {"supervision": {"k_hat": args.k_hat, "trainer": args.trainer}})
    _outputs(args, "out", "triples_out")
    corpus = load_corpus(_require(parser, args.corpus, "corpus"))
    queries = load_queryset(_require(parser, args.queries, "queryset"), corpus)
    truth = read_truth(_require(parser, args.truth, "truth file")) if args.truth else None
    if truth is not None:  # order recovery is scored over the queryset's qids alone
        missing = [q.qid for q in queries if q.qid not in truth]
        if missing:
            raise ValueError(f"{args.truth}: no truth for qid {missing[0]!r} of the queryset")
        truth = {q.qid: truth[q.qid] for q in queries}
    index = _load_or_build_index(args, parser, cfg, corpus)
    retr = Retriever(corpus, index, _encoder(cfg), cfgmod.lho_retrieval_config(cfg))
    expansion = EXPANSION_SHUFFLED if args.shuffled_expansion else EXPANSION_ORACLE
    sets = latent_hop_ordering(retr, queries, cfgmod.lho_config(cfg), expansion=expansion)
    write_supervision(args.out, sets)
    line = (
        f"lho queries={len(queries)} hops={len(cfg['supervision']['k_hat'])} "
        f"weak={len(sets.weak_qids)} expansion={expansion} out={args.out}"
    )
    if args.triples_out:
        triples = build_triples(
            sets,
            cap_per_hop=args.triples_cap,
            seed=derive_seed(cfg["seed"], "triples"),
        )
        line += f" triples={write_triples(args.triples_out, triples)}"
    print(line)
    if truth is not None:
        rec = order_recovery(sets, truth)
        print(
            f"order-recovery passages={rec.passage_fraction:.4f} "
            f"strict_queries={rec.strict_query_fraction:.4f} "
            f"n_passages={rec.n_passages} n_queries={rec.n_queries}"
        )
    return 0


def cmd_heuristic_order(args, parser) -> int:
    _resolve(args)
    _outputs(args, "out")
    corpus = load_corpus(_require(parser, args.corpus, "corpus"))
    queries = load_queryset(_require(parser, args.queries, "queryset"), corpus)
    records = [
        {"qid": q.qid, "order": [list(group) for group in heuristic_order(q, corpus)]}
        for q in queries
    ]
    if args.out:
        write_jsonl(args.out, records)
        print(f"heuristic-order queries={len(records)} out={args.out}")
    else:
        for rec in records:
            print(json.dumps(rec, ensure_ascii=False))
    return 0


def cmd_eval(args, parser) -> int:
    cfg = _resolve(args)
    _outputs(args, "out")
    corpus = load_corpus(_require(parser, args.corpus, "corpus"))
    queries = load_queryset(_require(parser, args.queries, "queryset"), corpus)
    path = _require(parser, args.traces, "trace file")
    _, records = read_traces(path)
    try:
        check_query_texts(records, queries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    report = evaluate_run(records, queries, corpus, cfgmod.eval_config(cfg))
    print(report.format_table())
    if args.out:
        with replacing(args.out, encoding="utf-8") as fh:
            fh.write(report_json(report) + "\n")
        print(f"eval queries={report.overall.n_queries} out={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="hoplite",
        description=(
            "Many-hop lexical retrieval: planted corpora, token indexes, "
            "condensed multi-hop pipelines, hop-order supervision, evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    d = PlantSpec()
    sp = sub.add_parser("synth", parents=[common], help="generate a planted many-hop corpus")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--hops", type=int, default=d.hops)
    sp.add_argument("--queries", type=int, default=d.queries)
    sp.add_argument("--corpus-size", type=int, default=d.corpus_size)
    sp.add_argument("--topic-tokens", type=int, default=d.topic_tokens)
    sp.add_argument("--bridge-tokens", type=int, default=d.bridge_tokens)
    sp.add_argument("--distractors", type=int, default=d.distractors_per_query)
    sp.add_argument("--overlap", type=int, default=d.distractor_overlap)
    sp.add_argument("--with-answers", action="store_true")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("build-index", parents=[common], help="encode a corpus into a token index file")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--variant", choices=[VARIANT_FLAT, VARIANT_IVF])
    sp.set_defaults(func=cmd_build_index)

    sp = sub.add_parser("retrieve", parents=[common], help="single-hop retrieval against an index")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--index", required=True)
    sp.add_argument("--query", required=True, help="query text")
    sp.add_argument("--fact", action="append", default=[], help="fact sentence, repeatable")
    sp.add_argument("--k", type=int)
    sp.set_defaults(func=cmd_retrieve)

    sp = sub.add_parser("run", parents=[common], help="run the multi-hop pipeline over a queryset")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--index", help="index file; omitted: flat index built in memory")
    sp.add_argument("--out", required=True, help="trace JSONL output")
    sp.add_argument(
        "--variant", choices=[VARIANT_CONDENSED, VARIANT_RERANK, VARIANT_HYBRID]
    )
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("lho", parents=[common], help="mine latent hop ordering supervision")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--index", help="index file; omitted: flat index built in memory")
    sp.add_argument("--out", required=True, help="supervision JSONL output")
    sp.add_argument("--triples-out", help="also emit training triples here")
    sp.add_argument("--triples-cap", type=int, default=32)
    sp.add_argument("--k-hat", type=_k_hat, help="per-hop positive depths, e.g. '20,all,all,all'")
    sp.add_argument("--trainer", help="trainer name: identity, term_weight")
    sp.add_argument("--truth", help="planted truth JSONL; prints order recovery")
    sp.add_argument(
        "--shuffled-expansion",
        action="store_true",
        help="ablation: expand with random sentences instead of oracle facts",
    )
    sp.set_defaults(func=cmd_lho)

    sp = sub.add_parser(
        "heuristic-order", parents=[common], help="order gold passages by title overlap"
    )
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--out", help="JSONL output; omitted: print to stdout")
    sp.set_defaults(func=cmd_heuristic_order)

    sp = sub.add_parser("eval", parents=[common], help="score a trace file against gold labels")
    sp.add_argument("--traces", required=True)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", help="JSON report output")
    sp.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args, parser)
    except ConfigError as exc:
        parser.error(str(exc))
    except Exception as exc:  # noqa: BLE001 - CLI boundary, map to exit 1
        log.debug("traceback", exc_info=True)
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
