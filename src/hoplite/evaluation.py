"""Run-level metrics over serialized traces.

Retrieval@k asks whether the whole gold set sits inside the first k
passages of a trace's union list. Passage and sentence EM/F1 compare
predicted sets against gold sets. Answer recall checks for the answer
string (normalized) in the top-k passage texts, skipping yes/no answers.
Verification accuracy is computed only when traces carry verdicts.
`pipeline.trace_view` reads each trace record, and raises ValueError naming
the first field these metrics read that is missing or of the wrong kind.

Every metric is a fraction in [0, 1]; the text table renders percentages
with one decimal. Results are stratified by hop count, and each overall
value equals the count-weighted mean of its strata.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .corpus import Corpus, QueryRecord
from .pipeline import trace_view
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


# Each metric, the MetricBlock field counting the queries it is defined for,
# and its table label ({r} and {a}: the retrieval and answer k).
_METRICS = (
    ("retrieval_at_k", "retrieval_n", "Retrieval@{r}"),
    ("passage_em", "passage_n", "Passage EM"),
    ("passage_f1", "passage_n", "Passage F1"),
    ("sentence_em", "sentence_n", "Sentence EM"),
    ("sentence_f1", "sentence_n", "Sentence F1"),
    ("answer_recall_at_k", "answer_n", "Answer-Recall@{a}"),
    ("verification_accuracy", "verification_n", "Verification Acc"),
)


def _aggregate(rows: list[dict]) -> MetricBlock:
    block: dict = {"n_queries": len(rows)}
    for metric, count, _ in _METRICS:
        values = [row[metric] for row in rows if metric in row]
        block[metric] = sum(values) / len(values) if values else None
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
        rows = [("", cols), ("queries", [str(blocks[c].n_queries) for c in cols])]
        rows += [(label.format(r=self.retrieval_k, a=self.answer_k),
                  [pct(getattr(blocks[c], metric)) for c in cols]) for metric, _, label in _METRICS]
        width = max(len(name) for name, _ in rows) + 2
        return "\n".join(name.ljust(width) + "".join(v.rjust(12) for v in values)
                         for name, values in rows)


def check_query_texts(records: Sequence[dict], queries: Sequence[QueryRecord]) -> None:
    """Raise ValueError naming the first trace whose qid an earlier one had, or
    whose query text (`q0`, the condensed arm's for hybrid) is not the queryset's
    text for its qid: synth names qids alike under every seed, so only the text
    tells two querysets apart. Records without a `q0` and unknown qids pass."""
    texts = {q.qid: q.text for q in queries}
    seen: set[str] = set()
    for view in map(trace_view, records):
        if view.qid in seen:
            raise ValueError(f"qid {view.qid!r} has a second trace record")
        seen.add(view.qid)
        text = texts.get(view.qid)
        if None not in (view.q0, text) and view.q0 != text:
            raise ValueError(
                f"the trace of qid {view.qid!r} ran the query {view.q0!r}, but the queryset's "
                f"text for it is {text!r}: traces of another queryset?"
            )


def evaluate_run(
    records: Sequence[dict],
    queries: Sequence[QueryRecord],
    corpus: Corpus,
    cfg: EvalConfig | None = None,
) -> MetricsReport:
    """The report over parsed records; ValueError on a record `trace_view` refuses."""
    cfg = cfg or EvalConfig()
    views = [trace_view(rec) for rec in records]
    by_qid = {q.qid: q for q in queries}
    missing = sorted({view.qid for view in views} - set(by_qid))
    if missing:
        raise ValueError(f"traces reference unknown qids: {missing}")
    supported_only = cfg.supported_only
    if supported_only is None:
        supported_only = any(q.label is not None for q in queries)

    rows: list[dict] = []
    strata: dict[str, list[dict]] = {}
    for view in views:
        q = by_qid[view.qid]
        row: dict = {}
        if q.gold_pids:
            if not supported_only or q.label is not False:
                row["retrieval_at_k"] = retrieval_at_k(view.union, set(q.gold_pids),
                                                       cfg.retrieval_k)
            row["passage_em"], row["passage_f1"] = set_em_f1(set(view.passages), set(q.gold_pids))
        if q.gold_facts:
            row["sentence_em"], row["sentence_f1"] = set_em_f1(set(view.kept), set(q.gold_facts))
        if q.answer is not None and normalize_answer_text(q.answer) not in _YES_NO:
            row["answer_recall_at_k"] = answer_recall(view.union, q.answer, cfg.answer_k, corpus)
        if q.label is not None and view.verdict is not None:
            row["verification_accuracy"] = 1 if view.verdict == q.label else 0
        rows.append(row)
        strata.setdefault("unknown" if q.num_hops is None else str(q.num_hops), []).append(row)
    return MetricsReport(
        overall=_aggregate(rows),
        by_hops={k: _aggregate(v) for k, v in strata.items()},
        retrieval_k=cfg.retrieval_k,
        answer_k=cfg.answer_k,
        supported_only=supported_only,
    )


def report_json(report: MetricsReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)
