"""Synthetic many-hop corpora with planted lexical structure.

Each query gets a chain of gold passages. The hop-1 gold shares its title
and most content tokens with the query text; every later gold is reachable
only through bridge tokens planted in the previous gold's designated
sentence (they share no content token with the query). Bridge tokens
double as the next gold's title, so title-based ordering heuristics see
the same chain the lexical retriever does. Distractors share a couple of
query tokens and nothing else; filler passages share nothing.

All vocabulary comes from a seeded word generator and no word is ever
reused, so every lexical relationship in the corpus is planted, not
accidental. Generation is byte-deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Passage, QueryRecord, dump_corpus, dump_queryset
from .util import read_jsonl, write_jsonl

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class PlantSpec:
    hops: int = 3
    queries: int = 100
    corpus_size: int = 1200
    topic_tokens: int = 8
    bridge_tokens: int = 3
    distractors_per_query: int = 8
    distractor_overlap: int = 2
    with_answers: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.hops <= 4:
            raise ValueError(f"hops must be in [2, 4], got {self.hops}")
        if self.queries < 1:
            raise ValueError("queries must be positive")
        if self.topic_tokens < 6:
            raise ValueError("topic_tokens must be >= 6 (title + content + anchors)")
        if self.bridge_tokens < 2:
            raise ValueError("bridge_tokens must be >= 2")
        if self.distractors_per_query < 0:
            raise ValueError("distractors_per_query must be >= 0")
        if not 1 <= self.distractor_overlap <= self.topic_tokens - 2:
            raise ValueError(
                "distractor_overlap must be in [1, topic_tokens - 2] so anchor "
                "tokens stay unique to the first gold"
            )
        needed = self.queries * (self.hops + self.distractors_per_query)
        if self.corpus_size < needed:
            raise ValueError(
                f"corpus_size {self.corpus_size} cannot hold {needed} planted passages"
            )


@dataclass(frozen=True)
class SynthResult:
    corpus: Corpus
    queries: list[QueryRecord]
    truth: dict[str, list[list[str]]]  # qid -> hop groups in planted order


class _WordGen:
    """Pronounceable pseudo-words, never repeated within one generation."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.seen: set[str] = set()

    def word(self) -> str:
        while True:
            syllables = int(self.rng.integers(2, 5))
            chars = []
            for _ in range(syllables):
                chars.append(_CONSONANTS[int(self.rng.integers(len(_CONSONANTS)))])
                chars.append(_VOWELS[int(self.rng.integers(len(_VOWELS)))])
            w = "".join(chars)
            if w not in self.seen:
                self.seen.add(w)
                return w

    def words(self, n: int) -> list[str]:
        return [self.word() for _ in range(n)]


def generate(spec: PlantSpec) -> SynthResult:
    rng = np.random.default_rng(spec.seed)
    gen = _WordGen(rng)
    passages: list[Passage] = []
    queries: list[QueryRecord] = []
    truth: dict[str, list[list[str]]] = {}

    for qi in range(spec.queries):
        qid = f"q{qi:04d}"
        topic = gen.words(spec.topic_tokens)
        title_tokens = topic[:2]
        anchor_tokens = topic[-2:]  # appear only in the first gold's bridge sentence
        content_tokens = topic[2:-2]
        distractor_pool = topic[:-2]

        golds: list[str] = []
        gold_facts: list[tuple[str, int]] = []
        answer_word = gen.word() if spec.with_answers else None

        bridge = gen.words(spec.bridge_tokens)  # becomes the hop-2 title
        first_pid = f"{qid}-g1"
        passages.append(
            Passage(
                pid=first_pid,
                title=" ".join(title_tokens),
                sentences=(
                    " ".join(content_tokens + gen.words(2)),
                    " ".join(anchor_tokens + bridge),
                ),
            )
        )
        golds.append(first_pid)
        gold_facts.append((first_pid, 1))

        for h in range(2, spec.hops + 1):
            pid = f"{qid}-g{h}"
            title = " ".join(bridge)
            link = bridge[:2]  # ties this gold's bridge sentence to the last one
            if h < spec.hops:
                bridge = gen.words(spec.bridge_tokens)
                tail = bridge
            elif answer_word is not None:
                tail = [answer_word]
            else:
                tail = gen.words(1)
            passages.append(
                Passage(
                    pid=pid,
                    title=title,
                    sentences=(" ".join(gen.words(3)), " ".join(link + tail)),
                )
            )
            golds.append(pid)
            gold_facts.append((pid, 1))

        for j in range(spec.distractors_per_query):
            pick = rng.choice(len(distractor_pool), size=spec.distractor_overlap, replace=False)
            shared = [distractor_pool[i] for i in sorted(pick.tolist())]
            passages.append(
                Passage(
                    pid=f"{qid}-d{j}",
                    title=" ".join(gen.words(2)),
                    sentences=(" ".join(shared + gen.words(4)),),
                )
            )

        queries.append(
            QueryRecord(
                qid=qid,
                text=" ".join(topic),
                gold_pids=frozenset(golds),
                gold_facts=frozenset(gold_facts),
                answer=answer_word,
                label=True,
                num_hops=spec.hops,
            )
        )
        truth[qid] = [[pid] for pid in golds]

    fill = spec.corpus_size - len(passages)
    for n in range(fill):
        passages.append(
            Passage(
                pid=f"fill-{n:05d}",
                title=" ".join(gen.words(2)),
                sentences=(" ".join(gen.words(4 + n % 3)),),
            )
        )

    return SynthResult(corpus=Corpus(passages), queries=queries, truth=truth)


def write_synth(result: SynthResult, out_dir: str | Path) -> dict[str, Path]:
    """Write corpus.jsonl, queries.jsonl, truth.jsonl into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": out / "corpus.jsonl",
        "queries": out / "queries.jsonl",
        "truth": out / "truth.jsonl",
    }
    dump_corpus(result.corpus, paths["corpus"])
    dump_queryset(result.queries, paths["queries"])
    write_jsonl(
        paths["truth"],
        ({"qid": qid, "hops": result.truth[qid]} for qid in sorted(result.truth)),
    )
    return paths


def read_truth(path: str | Path) -> dict[str, list[set[str]]]:
    truth: dict[str, list[set[str]]] = {}
    for lineno, obj in read_jsonl(path):
        qid = obj.get("qid")
        hops = obj.get("hops")
        if not isinstance(qid, str) or not isinstance(hops, list):
            raise ValueError(f"{path}: line {lineno}: expected {{qid, hops}}")
        if not all(isinstance(g, list) and all(isinstance(p, str) for p in g) for g in hops):
            raise ValueError(f"{path}: line {lineno}: each hop must be a list of pids")
        truth[qid] = [set(group) for group in hops]
    return truth
