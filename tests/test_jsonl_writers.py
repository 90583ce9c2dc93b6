"""Every JSONL file the package writes goes through util.write_jsonl.

The expected bytes are spelled out with json.dumps, one line per record, so
a change to the shared writer shows up as a byte difference in every format.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from hoplite.corpus import (
    Corpus,
    Fact,
    Passage,
    QueryRecord,
    dump_corpus,
    dump_queryset,
    passage_record,
    query_record,
)
from hoplite.pipeline import HopRecord, HopTrace, read_traces, trace_record, write_traces
from hoplite.scoring import Ranking
from hoplite.supervision import (
    HopSupervision,
    SupervisionSet,
    TrainingTriple,
    supervision_records,
    triple_records,
    write_supervision,
    write_triples,
)
from hoplite.synth import SynthResult, read_truth, write_synth

TEXT = "Zürich naïve 東京 café"


def _lines(records):
    return "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records).encode("utf-8")


def _assert_raw_utf8(raw: bytes) -> None:
    assert TEXT.encode("utf-8") in raw
    assert b"\\u" not in raw


def _corpus():
    return Corpus(
        [
            Passage(pid="p-é", title=TEXT, sentences=(TEXT, "plain words")),
            Passage(pid="p2", title="", sentences=("other",)),
        ]
    )


def _query():
    return QueryRecord(
        qid="q-é",
        text=TEXT,
        gold_pids=frozenset({"p-é", "p2"}),
        gold_facts=frozenset({("p-é", 0)}),
        answer=TEXT,
        label=True,
        num_hops=2,
    )


def _trace():
    fact = Fact(pid="p-é", sentence_index=0, text=TEXT, stage1_score=0.5, stage2_score=0.25)
    hop = HopRecord(
        t=1,
        ranked=Ranking(("p-é",), np.array([1.0]), np.array([0.5])),
        kept_facts=(fact,),
        context_pid=None,
    )
    return HopTrace(
        qid="q-é",
        q0_text=TEXT,
        variant="condensed",
        per_hop_k=(1,),
        hops=(hop,),
        final_facts=(fact,),
    )


def _supervision_set():
    hop = HopSupervision(
        t=1, positives=("p-é",), negatives=("p2",), fallback=False, query_text=TEXT
    )
    return SupervisionSet({"q-é": (hop,)})


def test_dump_corpus_bytes(tmp_path):
    path = tmp_path / "corpus.jsonl"
    corpus = _corpus()
    dump_corpus(corpus, path)
    raw = path.read_bytes()
    assert raw == _lines(passage_record(p) for p in corpus)
    _assert_raw_utf8(raw)


def test_dump_queryset_bytes(tmp_path):
    path = tmp_path / "queries.jsonl"
    queries = [_query()]
    dump_queryset(queries, path)
    raw = path.read_bytes()
    assert raw == _lines(query_record(q) for q in queries)
    _assert_raw_utf8(raw)


def test_write_traces_bytes_and_sorted_meta(tmp_path):
    path = tmp_path / "traces.jsonl"
    meta = {
        "queries": 2,
        "config": {"z": {"b": 1, "a": [{"y": 2, "x": TEXT}]}, "a": None},
    }
    second = replace(_trace(), qid="q2", final_facts=())
    write_traces(path, [_trace(), second], meta=meta)
    raw = path.read_bytes()
    head = json.dumps({"meta": meta}, ensure_ascii=False, sort_keys=True) + "\n"
    assert raw == head.encode("utf-8") + _lines([trace_record(_trace()), trace_record(second)])
    assert raw.startswith(
        '{"meta": {"config": {"a": null, "z": {"a": [{"x": "'.encode("utf-8")
    )
    _assert_raw_utf8(raw)


def test_write_traces_without_meta(tmp_path):
    path = tmp_path / "traces.jsonl"
    write_traces(path, [_trace()])
    assert path.read_bytes() == _lines([trace_record(_trace())])
    rec = trace_record(_trace())
    ranked = [{"pid": "p-é", "s_query": 1.0, "s_fact": 0.5}]
    assert rec["hops"][0]["ranked"] == ranked
    assert rec["union"] == ["p-é"]
    assert " ".join([rec["q0"]] + [f["text"] for f in rec["final_facts"]]) == f"{TEXT} {TEXT}"
    assert read_traces(path) == (None, [trace_record(_trace())])


def test_read_traces_meta_only_from_line_one(tmp_path):
    path = tmp_path / "traces.jsonl"
    late = {"meta": "late", "qid": "a", "union": [], "hops": []}
    plain = {"qid": "b", "union": [], "hops": []}
    path.write_text(
        f'{{"meta": {{"queries": 1}}}}\n\n{json.dumps(late)}\n   \n{json.dumps(plain)}\n',
        encoding="utf-8",
    )
    meta, records = read_traces(path)
    assert meta == {"queries": 1}
    assert records == [late, plain]

    # past line 1 a meta object is read as a trace record, and it is not one
    path.write_text('\n{"meta": {"queries": 1}}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: trace record has no 'qid' field"):
        read_traces(path)


def test_write_supervision_bytes(tmp_path):
    path = tmp_path / "sup.jsonl"
    sets = _supervision_set()
    write_supervision(path, sets)
    raw = path.read_bytes()
    assert raw == _lines(supervision_records(sets))
    _assert_raw_utf8(raw)


def test_write_triples_bytes(tmp_path):
    path = tmp_path / "triples.jsonl"
    triples = [TrainingTriple(qid="q-é", hop=1, query=TEXT, positive="p-é", negative="p2")]
    assert write_triples(path, triples) == 1
    raw = path.read_bytes()
    assert raw == _lines(triple_records(triples))
    assert json.loads(raw)["query"] == TEXT
    _assert_raw_utf8(raw)


def test_synth_truth_bytes(tmp_path):
    truth = {"q2": [["p2"]], "q-é": [[TEXT], ["p2"]]}
    result = SynthResult(corpus=_corpus(), queries=[_query()], truth=truth)
    paths = write_synth(result, tmp_path)
    raw = paths["truth"].read_bytes()
    assert raw == _lines({"qid": qid, "hops": truth[qid]} for qid in sorted(truth))
    _assert_raw_utf8(raw)
    assert read_truth(paths["truth"]) == {"q2": [{"p2"}], "q-é": [{TEXT}, {"p2"}]}
