#!/bin/sh
# Writes a fixed set of `hoplite` outputs, so that two checkouts can be
# compared byte for byte:
#
#   tools/cli_outputs.sh CHECKOUT OUTDIR
#   tools/cli_outputs.sh PARENT_CHECKOUT OTHER_OUTDIR
#   diff -r OUTDIR OTHER_OUTDIR
#
# It runs the package in CHECKOUT/src (nothing is installed) from inside
# OUTDIR, with relative paths, so every file, stdout.txt included, depends
# only on the code. Every command gets --seed 1. The set:
#   synth/            600 passages, 40 queries, 3 hops
#   flat.idx ivf.idx  both index variants
#   run-*.jsonl       condensed, rerank and hybrid on each index, and a
#                     condensed run whose hop 2 is scored in one pass
#   eval-*.json       eval --out of every run above, the one-pass run
#                     (hop 2 ranks 400 passages: the largest trace) too
#   lho-*.jsonl       lho with --truth and --triples-out, with the
#                     term_weight trainer, with --k-hat 2,all,all, with a
#                     k_retrieve whose hops screen, with
#                     --shuffled-expansion, term_weight and --triples-out,
#                     and with --k-hat 1,1,1, --shuffled-expansion and
#                     term_weight, whose hops mostly fall back
#   heuristic-order.jsonl  heuristic-order --out
#   stdout.txt        what every command printed, in order: among it,
#                     retrieve's ranking on each index (the first query
#                     and one --fact) and heuristic-order without --out
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
mkdir -p "$2"
cd "$2"

hoplite() {
    PYTHONPATH="$src" python3 -m hoplite.cli "$@" --seed 1 --log-level warning >> stdout.txt
}

: > stdout.txt
hoplite synth --out synth --queries 40 --corpus-size 600 --hops 3
data="--corpus synth/corpus.jsonl --queries synth/queries.jsonl"
# the first query's text, and the last sentence of the first passage as a fact
query=$(sed -n '1s/.*"text": "\([^"]*\)".*/\1/p' synth/queries.jsonl)
fact=$(sed -n '1s/.*, "\([^"]*\)"\]}$/\1/p' synth/corpus.jsonl)
for variant in flat ivf; do
    hoplite build-index --corpus synth/corpus.jsonl --variant "$variant" --out "$variant.idx"
    hoplite retrieve --corpus synth/corpus.jsonl --index "$variant.idx" \
        --query "$query" --fact "$fact"
    for mode in condensed rerank hybrid; do
        hoplite run $data --index "$variant.idx" --variant "$mode" --out "run-$variant-$mode.jsonl"
        hoplite eval $data --traces "run-$variant-$mode.jsonl" --out "eval-$variant-$mode.json"
    done
done
# 2k = 800 at hop 2 is at least the pool: that hop is scored in one pass
export HOPLITE_PIPELINE_PER_HOP_K="[5, 400, 5]"
hoplite run $data --index flat.idx --out run-flat-one-pass.jsonl
unset HOPLITE_PIPELINE_PER_HOP_K
hoplite eval $data --traces run-flat-one-pass.jsonl --out eval-flat-one-pass.json
hoplite lho $data --index ivf.idx --truth synth/truth.jsonl \
    --out lho-ivf.jsonl --triples-out lho-ivf-triples.jsonl
hoplite lho $data --index ivf.idx --trainer term_weight --out lho-ivf-term-weight.jsonl
hoplite lho $data --index flat.idx --k-hat 2,all,all --out lho-flat-k-hat.jsonl
# 2k = 100 is under the pool: every lho hop screens
export HOPLITE_SUPERVISION_K_RETRIEVE=50
hoplite lho $data --index flat.idx --out lho-flat-screened.jsonl
unset HOPLITE_SUPERVISION_K_RETRIEVE
hoplite lho $data --index ivf.idx --shuffled-expansion --trainer term_weight \
    --out lho-ivf-shuffled.jsonl --triples-out lho-ivf-shuffled-triples.jsonl
# depth-1 heads miss most golds: the fallback path promotes them
hoplite lho $data --index ivf.idx --k-hat 1,1,1 --shuffled-expansion --trainer term_weight \
    --out lho-ivf-fallback.jsonl
hoplite heuristic-order $data
hoplite heuristic-order $data --out heuristic-order.jsonl
