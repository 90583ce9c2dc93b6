"""Domain data: passages, labeled queries, facts, and multi-hop query state.

Disk formats are JSON Lines (UTF-8, one record per line). Corpus records
carry exactly {pid, title, sentences}; query records carry
{qid, text, gold_pids, gold_facts} plus optional {answer, label, num_hops}.
Optional fields are omitted when absent, never null. Raw strings are kept
verbatim so sentence-level provenance stays exact; all normalization is
the encoder's business.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

from .util import read_jsonl, tokenize, write_jsonl

logger = logging.getLogger(__name__)

class CorpusFormatError(ValueError):
    """Malformed corpus/query file or a violated record invariant."""


@dataclass(frozen=True)
class Passage:
    pid: str
    title: str
    sentences: tuple[str, ...]

    @property
    def text(self) -> str:
        """Full passage text: title prefix plus sentences, single string."""
        body = " ".join(self.sentences)
        return f"{self.title}. {body}" if self.title else body


@dataclass(frozen=True)
class QueryRecord:
    qid: str
    text: str
    gold_pids: frozenset[str]
    gold_facts: frozenset[tuple[str, int]]
    answer: str | None = None
    label: bool | None = None
    num_hops: int | None = None


@dataclass(frozen=True)
class Fact:
    """One extracted sentence with provenance into the corpus."""

    pid: str
    sentence_index: int
    text: str
    stage1_score: float = 0.0


@dataclass(frozen=True)
class MultiHopQuery:
    """Query state threaded through hops: original text plus accumulated facts.

    Facts are ordered by hop, then by rank within the hop; the encoder
    relies on that order when it truncates overflow.
    """

    qid: str
    q0_text: str
    facts: tuple[Fact, ...] = ()

    @property
    def text(self) -> str:
        """q0 then every fact's text, space-joined: the query as one string."""
        return " ".join([self.q0_text] + [f.text for f in self.facts])

    def extended(self, new_facts: tuple[Fact, ...] | list[Fact]) -> "MultiHopQuery":
        """Next-hop state: same q0, facts appended."""
        return replace(self, facts=self.facts + tuple(new_facts))


class Corpus:
    """Immutable pid-keyed passage collection preserving file order."""

    def __init__(self, passages: list[Passage]):
        self._by_pid: dict[str, Passage] = {}  # insertion order is file order
        for p in passages:
            if p.pid in self._by_pid:
                raise CorpusFormatError(f"duplicate pid {p.pid!r}")
            self._by_pid[p.pid] = p
        self._pids = tuple(self._by_pid)

    def __len__(self) -> int:
        return len(self._by_pid)

    def __contains__(self, pid: str) -> bool:
        return pid in self._by_pid

    def __iter__(self) -> Iterator[Passage]:
        return iter(self._by_pid.values())

    @property
    def pids(self) -> tuple[str, ...]:
        return self._pids

    def get(self, pid: str) -> Passage:
        try:
            return self._by_pid[pid]
        except KeyError:
            raise KeyError(f"unknown pid {pid!r}") from None


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(obj)
    missing = required - keys
    if missing:
        raise CorpusFormatError(f"{where}: missing fields {sorted(missing)}")
    extra = keys - required - optional
    if extra:
        raise CorpusFormatError(f"{where}: unknown fields {sorted(extra)}")


def _passage_from_obj(obj: object, where: str) -> Passage:
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"{where}: record is not an object")
    _require_keys(obj, {"pid", "title", "sentences"}, set(), where)
    pid, title, sentences = obj["pid"], obj["title"], obj["sentences"]
    if not isinstance(pid, str) or not pid:
        raise CorpusFormatError(f"{where}: pid must be a non-empty string")
    if not isinstance(title, str):
        raise CorpusFormatError(f"{where}: title must be a string")
    if (
        not isinstance(sentences, list)
        or not sentences
        or not all(isinstance(s, str) for s in sentences)
    ):
        raise CorpusFormatError(f"{where}: sentences must be a non-empty list of strings")
    for i, s in enumerate(sentences):
        if not s.strip():
            raise CorpusFormatError(f"{where}: sentence {i} of pid {pid!r} is blank")
    return Passage(pid=pid, title=title, sentences=tuple(sentences))


def load_corpus(path: str | Path) -> Corpus:
    passages = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        p = _passage_from_obj(obj, where=f"{path}: line {lineno}")
        if p.pid in seen:
            raise CorpusFormatError(f"{path}: line {lineno}: duplicate pid {p.pid!r}")
        seen.add(p.pid)
        passages.append(p)
    corpus = Corpus(passages)
    logger.info("loaded %d passages from %s", len(corpus), path)
    return corpus


def _query_from_obj(obj: object, corpus: Corpus | None, where: str) -> QueryRecord:
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"{where}: record is not an object")
    _require_keys(
        obj,
        {"qid", "text", "gold_pids", "gold_facts"},
        {"answer", "label", "num_hops"},
        where,
    )
    qid, text = obj["qid"], obj["text"]
    if not isinstance(qid, str) or not qid:
        raise CorpusFormatError(f"{where}: qid must be a non-empty string")
    if not isinstance(text, str):
        raise CorpusFormatError(f"{where}: text must be a string")
    if not tokenize(text):
        raise CorpusFormatError(f"{where}: qid {qid!r} text {text!r} holds no token to rank by")
    gold_pids = obj["gold_pids"]
    if not isinstance(gold_pids, list) or not all(isinstance(p, str) for p in gold_pids):
        raise CorpusFormatError(f"{where}: gold_pids must be a list of strings")
    gold_facts = obj["gold_facts"]
    facts: set[tuple[str, int]] = set()
    if not isinstance(gold_facts, list):
        raise CorpusFormatError(f"{where}: gold_facts must be a list of [pid, index] pairs")
    for item in gold_facts:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], int)
            or isinstance(item[1], bool)
        ):
            raise CorpusFormatError(f"{where}: gold_facts must be a list of [pid, index] pairs")
        facts.add((item[0], item[1]))
    pid_set = frozenset(gold_pids)
    for pid, idx in facts:
        if pid not in pid_set:
            raise CorpusFormatError(
                f"{where}: gold fact pid {pid!r} not in gold_pids of qid {qid!r}"
            )
    if corpus is not None:
        for pid in sorted(pid_set):
            if pid not in corpus:
                raise CorpusFormatError(f"{where}: qid {qid!r} references unknown pid {pid!r}")
        for pid, idx in sorted(facts):
            n = len(corpus.get(pid).sentences)
            if not 0 <= idx < n:
                raise CorpusFormatError(
                    f"{where}: qid {qid!r} gold fact ({pid!r}, {idx}) out of range (0..{n - 1})"
                )
    answer = obj.get("answer")
    if answer is not None and not isinstance(answer, str):
        raise CorpusFormatError(f"{where}: answer must be a string when present")
    label = obj.get("label")
    if label is not None and not isinstance(label, bool):
        raise CorpusFormatError(f"{where}: label must be a boolean when present")
    num_hops = obj.get("num_hops")
    if num_hops is not None:
        if not isinstance(num_hops, int) or isinstance(num_hops, bool) or num_hops not in (2, 3, 4):
            raise CorpusFormatError(f"{where}: num_hops must be 2, 3, or 4 when present")
    return QueryRecord(
        qid=qid,
        text=text,
        gold_pids=pid_set,
        gold_facts=frozenset(facts),
        answer=answer,
        label=label,
        num_hops=num_hops,
    )


def load_queryset(path: str | Path, corpus: Corpus | None = None) -> list[QueryRecord]:
    """Load query records, validating gold references against the corpus if given."""
    queries = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        q = _query_from_obj(obj, corpus, where=f"{path}: line {lineno}")
        if q.qid in seen:
            raise CorpusFormatError(f"{path}: line {lineno}: duplicate qid {q.qid!r}")
        seen.add(q.qid)
        queries.append(q)
    logger.info("loaded %d queries from %s", len(queries), path)
    return queries


def passage_record(p: Passage) -> dict:
    return {"pid": p.pid, "title": p.title, "sentences": list(p.sentences)}


def query_record(q: QueryRecord) -> dict:
    rec: dict = {
        "qid": q.qid,
        "text": q.text,
        "gold_pids": sorted(q.gold_pids),
        "gold_facts": [[p, i] for p, i in sorted(q.gold_facts)],
    }
    if q.answer is not None:
        rec["answer"] = q.answer
    if q.label is not None:
        rec["label"] = q.label
    if q.num_hops is not None:
        rec["num_hops"] = q.num_hops
    return rec


def dump_corpus(corpus: Corpus, path: str | Path) -> None:
    write_jsonl(path, (passage_record(p) for p in corpus))


def dump_queryset(queries: list[QueryRecord], path: str | Path) -> None:
    write_jsonl(path, (query_record(q) for q in queries))
