"""Run-level metrics over serialized traces.

Retrieval@k asks whether the whole gold set sits inside the first k
passages of a trace's union list. Passage and sentence EM/F1 compare
predicted sets against gold sets. Answer recall checks for the answer
string (normalized) in the top-k passage texts, skipping yes/no answers.
Verification accuracy is computed only when traces carry verdicts.

Every metric is a fraction in [0, 1]; the text table renders percentages
with one decimal. Results are stratified by hop count, and each overall
value equals the count-weighted mean of its strata.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .corpus import Corpus, QueryRecord
from .util import normalize_answer_text

DEFAULT_RETRIEVAL_K = 100
DEFAULT_ANSWER_K = 20

_YES_NO = {"yes", "no"}


def set_em_f1(predicted: set[str], gold: set[str]) -> tuple[float, float]:
    """Exact-match and F1 between two sets; gold must be non-empty."""
    if not gold:
        raise ValueError("gold set must be non-empty")
    em = 1.0 if predicted == gold else 0.0
    inter = len(predicted & gold)
    precision = inter / len(predicted) if predicted else 0.0
    recall = inter / len(gold)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return em, f1


def retrieval_at_k(union_pids: Sequence[str], gold_pids: set[str], k: int) -> int:
    """1 iff every gold pid appears within the first k union entries."""
    if not gold_pids:
        raise ValueError("gold set must be non-empty")
    return 1 if gold_pids <= set(union_pids[:k]) else 0


def answer_recall(
    union_pids: Sequence[str], answer: str, k: int, corpus: Corpus
) -> int:
    """1 iff the normalized answer is a substring of any top-k passage text."""
    needle = normalize_answer_text(answer)
    if not needle:
        return 0
    for pid in union_pids[:k]:
        if needle in normalize_answer_text(corpus.get(pid).text):
            return 1
    return 0


@dataclass(frozen=True)
class EvalConfig:
    retrieval_k: int = DEFAULT_RETRIEVAL_K
    answer_k: int = DEFAULT_ANSWER_K
    # None: filter to supported claims iff any query carries a label.
    # True/False force the filter on or off. Filtering drops label=False
    # queries from the Retrieval@k denominator; unlabeled queries stay.
    supported_only: bool | None = None

    def __post_init__(self) -> None:
        if self.retrieval_k < 1 or self.answer_k < 1:
            raise ValueError("k values must be positive")
        if self.supported_only is not None and not isinstance(self.supported_only, bool):
            raise ValueError(
                f"supported_only must be true, false or null, got {self.supported_only!r}"
            )


@dataclass
class _Row:
    """Per-query metric values; None when the query is outside a denominator."""

    num_hops: int | None
    retrieval_at_k: int | None = None
    passage_em: float | None = None
    passage_f1: float | None = None
    sentence_em: float | None = None
    sentence_f1: float | None = None
    answer_recall_at_k: int | None = None
    verification_accuracy: int | None = None


@dataclass(frozen=True)
class MetricBlock:
    n_queries: int
    retrieval_at_k: float | None
    retrieval_n: int
    passage_em: float | None
    passage_f1: float | None
    passage_n: int
    sentence_em: float | None
    sentence_f1: float | None
    sentence_n: int
    answer_recall_at_k: float | None
    answer_n: int
    verification_accuracy: float | None
    verification_n: int


def _mean(pairs: list[float]) -> float | None:
    return sum(pairs) / len(pairs) if pairs else None


# Each _Row metric and the MetricBlock field counting the rows that have it.
_COUNTS = {
    "retrieval_at_k": "retrieval_n",
    "passage_em": "passage_n",
    "passage_f1": "passage_n",
    "sentence_em": "sentence_n",
    "sentence_f1": "sentence_n",
    "answer_recall_at_k": "answer_n",
    "verification_accuracy": "verification_n",
}


def _aggregate(rows: list[_Row]) -> MetricBlock:
    block: dict = {"n_queries": len(rows)}
    for metric, count in _COUNTS.items():
        values = [getattr(r, metric) for r in rows if getattr(r, metric) is not None]
        block[metric] = _mean(values)
        block[count] = len(values)
    return MetricBlock(**block)


@dataclass(frozen=True)
class MetricsReport:
    overall: MetricBlock
    by_hops: dict[str, MetricBlock]
    retrieval_k: int
    answer_k: int
    supported_only: bool

    def format_table(self) -> str:
        def pct(v: float | None) -> str:
            return "-" if v is None else f"{100.0 * v:.1f}"

        cols = ["overall"] + sorted(self.by_hops)
        blocks = {"overall": self.overall, **self.by_hops}
        metrics = [
            (f"Retrieval@{self.retrieval_k}", "retrieval_at_k"),
            ("Passage EM", "passage_em"),
            ("Passage F1", "passage_f1"),
            ("Sentence EM", "sentence_em"),
            ("Sentence F1", "sentence_f1"),
            (f"Answer-Recall@{self.answer_k}", "answer_recall_at_k"),
            ("Verification Acc", "verification_accuracy"),
        ]
        width = max(len(name) for name, _ in metrics) + 2
        rows = [("", cols), ("queries", [str(blocks[c].n_queries) for c in cols])]
        rows += [(name, [pct(getattr(blocks[c], attr)) for c in cols]) for name, attr in metrics]
        return "\n".join(name.ljust(width) + "".join(v.rjust(12) for v in values)
                         for name, values in rows)


def _trace_views(rec: dict) -> tuple[list[str], list[dict], list[str], bool | None]:
    """(union pids, kept fact dicts, context pids, verdict) for one record; a
    hybrid record's union is `merged`, and its condensed arm keeps the facts."""
    hybrid = rec.get("variant") == "hybrid"
    facts, contexts = (rec["condensed"], rec["rerank"]) if hybrid else (rec, rec)
    kept = [f for hop in facts["hops"] for f in hop["kept_facts"]]
    ctx = [hop["context_pid"] for hop in contexts["hops"] if hop.get("context_pid")]
    return list(rec["merged" if hybrid else "union"]), kept, ctx, facts.get("verdict")


def check_query_texts(records: Sequence[dict], queries: Sequence[QueryRecord]) -> None:
    """Raise ValueError naming the first trace whose query text (`q0`, the
    condensed arm's for hybrid) is not the queryset's text for its qid.
    Synth names qids alike under every seed, so only the text tells two
    querysets apart. Records without a `q0` and unknown qids pass."""
    texts = {q.qid: q.text for q in queries}
    for rec in records:
        q0 = (rec["condensed"] if rec.get("variant") == "hybrid" else rec).get("q0")
        text = texts.get(rec["qid"])
        if None not in (q0, text) and q0 != text:
            raise ValueError(
                f"the trace of qid {rec['qid']!r} ran the query {q0!r}, but the queryset's "
                f"text for it is {text!r}: traces of another queryset?"
            )


def evaluate_run(
    records: Sequence[dict],
    queries: Sequence[QueryRecord],
    corpus: Corpus,
    cfg: EvalConfig | None = None,
) -> MetricsReport:
    cfg = cfg or EvalConfig()
    by_qid = {q.qid: q for q in queries}
    missing = sorted({rec["qid"] for rec in records} - set(by_qid))
    if missing:
        raise ValueError(f"traces reference unknown qids: {missing}")
    supported_only = cfg.supported_only
    if supported_only is None:
        supported_only = any(q.label is not None for q in queries)

    rows: list[_Row] = []
    for rec in records:
        q = by_qid[rec["qid"]]
        union, kept, ctx, verdict = _trace_views(rec)
        row = _Row(num_hops=q.num_hops)
        if q.gold_pids:
            if not supported_only or q.label is not False:
                row.retrieval_at_k = retrieval_at_k(union, set(q.gold_pids), cfg.retrieval_k)
            # rerank predicts its context passages, the others those of their kept facts
            predicted = set(ctx) if rec.get("variant") == "rerank" else {f["pid"] for f in kept}
            row.passage_em, row.passage_f1 = set_em_f1(predicted, set(q.gold_pids))
        if q.gold_facts:
            pred_sent = {(f["pid"], f["sentence_index"]) for f in kept}
            row.sentence_em, row.sentence_f1 = set_em_f1(pred_sent, set(q.gold_facts))
        if q.answer is not None and normalize_answer_text(q.answer) not in _YES_NO:
            row.answer_recall_at_k = answer_recall(union, q.answer, cfg.answer_k, corpus)
        if q.label is not None and verdict is not None:
            row.verification_accuracy = 1 if verdict == q.label else 0
        rows.append(row)

    strata: dict[str, list[_Row]] = {}
    for row in rows:
        key = str(row.num_hops) if row.num_hops is not None else "unknown"
        strata.setdefault(key, []).append(row)
    return MetricsReport(
        overall=_aggregate(rows),
        by_hops={k: _aggregate(v) for k, v in strata.items()},
        retrieval_k=cfg.retrieval_k,
        answer_k=cfg.answer_k,
        supported_only=supported_only,
    )


def report_json(report: MetricsReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)
