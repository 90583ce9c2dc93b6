import json
import shutil
import subprocess
import sys

import pytest

from hoplite.cli import main
from hoplite.corpus import load_corpus, load_queryset
from hoplite.index import load_index
from hoplite.pipeline import LOCKSTEP_QUERIES, read_traces, run_queries

from conftest import subprocess_env
from test_index import _save_v1

CLI = [sys.executable, "-m", "hoplite.cli"]


def run_cli(*args, env_extra=None):
    env = subprocess_env()
    env.update(env_extra or {})
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, env=env
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small planted dataset plus a built index, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    r = run_cli(
        "synth",
        "--out", data,
        "--hops", 2,
        "--queries", 6,
        "--corpus-size", 60,
        "--distractors", 3,
        "--with-answers",
        "--seed", 7,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "build-index",
        "--corpus", data / "corpus.jsonl",
        "--out", root / "flat.hlti",
        "--variant", "flat",
        "--seed", 7,
    )
    assert r.returncode == 0, r.stderr
    return root


def test_help_screens():
    assert run_cli("--help").returncode == 0
    for cmd in ("synth", "build-index", "retrieve", "run", "lho", "heuristic-order", "eval"):
        r = run_cli(cmd, "--help")
        assert r.returncode == 0, f"{cmd}: {r.stderr}"
        assert cmd in r.stdout


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2


def test_synth_outputs(workdir):
    data = workdir / "data"
    assert (data / "corpus.jsonl").exists()
    assert (data / "queries.jsonl").exists()
    assert (data / "truth.jsonl").exists()
    lines = (data / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 60


def test_synth_stats_line(tmp_path):
    r = run_cli(
        "synth", "--out", tmp_path, "--hops", 2, "--queries", 2,
        "--corpus-size", 20, "--distractors", 2, "--seed", 0,
    )
    assert r.returncode == 0
    assert "synth passages=20 queries=2 hops=2 seed=0" in r.stdout


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--hops", 7], "hops must be in [2, 4], got 7"),
        (["--queries", 0], "queries must be positive"),
        (["--corpus-size", 10], "corpus_size 10 cannot hold 1100 planted passages"),
    ],
)
def test_synth_flag_the_planter_refuses_exits_2_naming_it(tmp_path, flags, message):
    r = run_cli("synth", "--out", tmp_path / "data", *flags, "--seed", 0)
    assert r.returncode == 2, r.stderr
    assert f"error: {message}" in r.stderr
    assert not (tmp_path / "data").exists()


def test_build_index_stats_and_determinism(workdir, tmp_path):
    corpus = workdir / "data" / "corpus.jsonl"
    out1, out2 = tmp_path / "a.hlti", tmp_path / "b.hlti"
    r1 = run_cli("build-index", "--corpus", corpus, "--out", out1, "--variant", "ivf", "--seed", 7)
    r2 = run_cli("build-index", "--corpus", corpus, "--out", out2, "--variant", "ivf", "--seed", 7)
    assert r1.returncode == 0, r1.stderr
    assert out1.read_bytes() == out2.read_bytes()
    assert "variant=ivf" in r1.stdout
    assert "centroids=" in r1.stdout


def test_retrieve_ranks_planted_gold_first(workdir):
    data = workdir / "data"
    queries = [
        json.loads(l)
        for l in (data / "queries.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    q = queries[0]
    r = run_cli(
        "retrieve",
        "--corpus", data / "corpus.jsonl",
        "--index", workdir / "flat.hlti",
        "--query", q["text"],
        "--k", 5,
        "--seed", 7,
    )
    assert r.returncode == 0, r.stderr
    rows = [line.split("\t") for line in r.stdout.strip().splitlines()]
    assert len(rows) == 5
    assert rows[0][0] == "1"
    assert rows[0][1] == f"{q['qid']}-g1"  # claim-matching gold on top
    scores = [float(x[2]) for x in rows]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_fact_flag_changes_ranking(workdir):
    data = workdir / "data"
    corpus = {
        json.loads(l)["pid"]: json.loads(l)
        for l in (data / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    }
    queries = [
        json.loads(l)
        for l in (data / "queries.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    q = queries[0]
    g1 = corpus[f"{q['qid']}-g1"]
    bridge_sentence = g1["sentences"][1]
    base = ["retrieve", "--corpus", data / "corpus.jsonl", "--index", workdir / "flat.hlti",
            "--query", q["text"], "--k", 3, "--seed", 7]
    plain = run_cli(*base)
    with_fact = run_cli(*base, "--fact", bridge_sentence, "--fact", "extra context words")
    assert plain.returncode == 0 and with_fact.returncode == 0
    assert plain.stdout != with_fact.stdout
    top2 = [l.split("\t")[1] for l in with_fact.stdout.strip().splitlines()[:2]]
    assert f"{q['qid']}-g2" in top2  # bridge fact pulls in the hop-2 gold


def test_run_condensed_traces(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "traces.jsonl"
    r = run_cli(
        "run",
        "--corpus", data / "corpus.jsonl",
        "--queries", data / "queries.jsonl",
        "--index", workdir / "flat.hlti",
        "--out", out,
        "--seed", 7,
        "--preset", "hotpotqa",
    )
    assert r.returncode == 0, r.stderr
    assert "run queries=6 variant=condensed hops=2" in r.stdout
    meta, records = read_traces(out)
    assert meta["queries"] == 6
    assert meta["config"]["seed"] == 7
    assert len(records) == 6
    for rec in records:
        assert rec["variant"] == "condensed"
        assert rec["per_hop_k"] == [10, 40]
        assert len(rec["hops"]) == 2


def test_run_hybrid_traces(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "hybrid.jsonl"
    r = run_cli(
        "run",
        "--corpus", data / "corpus.jsonl",
        "--queries", data / "queries.jsonl",
        "--index", workdir / "flat.hlti",
        "--out", out,
        "--variant", "hybrid",
        "--preset", "hotpotqa",
        "--seed", 7,
    )
    assert r.returncode == 0, r.stderr
    _, records = read_traces(out)
    for rec in records:
        assert rec["variant"] == "hybrid"
        assert len(rec["merged"]) <= 100
        assert len(set(rec["merged"])) == len(rec["merged"])
        assert rec["condensed"]["variant"] == "condensed"
        assert rec["rerank"]["variant"] == "rerank"


def test_run_without_index_builds_flat_in_memory(workdir, tmp_path):
    data = workdir / "data"
    with_idx = tmp_path / "a.jsonl"
    without = tmp_path / "b.jsonl"
    args = [
        "run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--preset", "hotpotqa", "--seed", 7,
    ]
    r1 = run_cli(*args, "--index", workdir / "flat.hlti", "--out", with_idx)
    r2 = run_cli(*args, "--out", without)
    assert r1.returncode == 0 and r2.returncode == 0
    assert read_traces(with_idx)[1] == read_traces(without)[1]


def test_run_that_fails_in_its_second_window_leaves_the_out_file_as_it_was(
    tmp_path, monkeypatch, capsys
):
    """`run` writes its traces window by window into one temporary file, so
    a failure after the first window leaves an earlier output byte-unchanged."""
    data, out = tmp_path / "data", tmp_path / "traces.jsonl"
    n = LOCKSTEP_QUERIES + 4
    assert main(["synth", "--out", str(data), "--hops", "2", "--queries", str(n),
                 "--corpus-size", "200", "--seed", "7"]) == 0
    run = ["run", "--corpus", str(data / "corpus.jsonl"), "--queries",
           str(data / "queries.jsonl"), "--out", str(out), "--seed", "7"]
    assert main(run) == 0
    corpus = load_corpus(data / "corpus.jsonl")
    qids = [q.qid for q in load_queryset(data / "queries.jsonl", corpus)]
    assert [rec["qid"] for rec in read_traces(out)[1]] == qids
    earlier = out.read_bytes()
    windows = []

    def failing(runner, queries):
        windows.append(len(queries))
        if len(windows) == 2:
            raise RuntimeError("second window failed")
        return run_queries(runner, queries)

    monkeypatch.setattr("hoplite.cli.run_queries", failing)
    capsys.readouterr()
    assert main(run) == 1
    assert "second window failed" in capsys.readouterr().err
    assert windows == [LOCKSTEP_QUERIES, 4]
    assert out.read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "traces.jsonl"]


@pytest.mark.parametrize("command", ["run", "build-index"])
def test_out_in_a_missing_directory_exits_1_naming_the_out_path(workdir, tmp_path, command):
    data = workdir / "data"
    out = tmp_path / "missing" / "t.jsonl"
    inputs = ["--queries", data / "queries.jsonl"] if command == "run" else []
    r = run_cli(command, "--corpus", data / "corpus.jsonl", *inputs, "--out", out, "--seed", 7)
    assert r.returncode == 1
    assert f"No such file or directory: '{out}'" in r.stderr
    assert ".tmp" not in r.stderr
    assert list(tmp_path.iterdir()) == []


def test_run_out_naming_a_directory_exits_1_before_any_query_runs(
    workdir, tmp_path, monkeypatch, capsys
):
    data = workdir / "data"
    windows = []
    monkeypatch.setattr("hoplite.cli.run_queries", lambda runner, queries: windows.append(1))
    run = ["run", "--corpus", str(data / "corpus.jsonl"), "--queries",
           str(data / "queries.jsonl"), "--out", str(tmp_path), "--seed", "7"]
    assert main(run) == 1
    assert windows == []
    assert capsys.readouterr().err.endswith(f"error: [Errno 21] Is a directory: '{tmp_path}'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["build-index", "lho", "heuristic-order", "eval"])
def test_out_naming_a_directory_exits_1_naming_it(workdir, tmp_path, command):
    data = workdir / "data"
    inputs = {
        "build-index": [],
        "lho": ["--queries", data / "queries.jsonl"],
        "heuristic-order": ["--queries", data / "queries.jsonl"],
        "eval": ["--queries", data / "queries.jsonl", "--traces", tmp_path / "traces.jsonl"],
    }[command]
    if command == "eval":
        (tmp_path / "traces.jsonl").write_text("", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    r = run_cli(command, "--corpus", data / "corpus.jsonl", *inputs, "--out", out, "--seed", 7)
    assert r.returncode == 1
    assert f"error: [Errno 21] Is a directory: '{out}'" in r.stderr
    assert ".tmp" not in r.stderr
    assert list(out.iterdir()) == []
    left = ["out", "traces.jsonl"] if command == "eval" else ["out"]
    assert sorted(p.name for p in tmp_path.iterdir()) == left


def test_keyboard_interrupt_is_not_mapped_to_exit_1(monkeypatch):
    def interrupted(args, parser):
        raise KeyboardInterrupt

    monkeypatch.setattr("hoplite.cli.cmd_eval", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["eval", "--traces", "t", "--queries", "q", "--corpus", "c"])


def test_lho_and_eval_flow(workdir, tmp_path):
    data = workdir / "data"
    sup = tmp_path / "supervision.jsonl"
    tri = tmp_path / "triples.jsonl"
    r = run_cli(
        "lho",
        "--corpus", data / "corpus.jsonl",
        "--queries", data / "queries.jsonl",
        "--index", workdir / "flat.hlti",
        "--out", sup,
        "--triples-out", tri,
        "--k-hat", "5,5",
        "--truth", data / "truth.jsonl",
        "--seed", 7,
        "--preset", "hotpotqa",
    )
    assert r.returncode == 0, r.stderr
    assert "order-recovery passages=" in r.stdout
    sup_rows = [json.loads(l) for l in sup.read_text(encoding="utf-8").splitlines()]
    assert len(sup_rows) == 6
    for row in sup_rows:
        assert len(row["hops"]) == 2
    tri_rows = [json.loads(l) for l in tri.read_text(encoding="utf-8").splitlines()]
    assert tri_rows
    assert set(tri_rows[0]) == {"qid", "hop", "query", "positive", "negative"}

    traces = tmp_path / "traces.jsonl"
    r = run_cli(
        "run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--index", workdir / "flat.hlti", "--out", traces, "--preset", "hotpotqa", "--seed", 7,
    )
    assert r.returncode == 0
    report = tmp_path / "report.json"
    r = run_cli(
        "eval",
        "--traces", traces,
        "--queries", data / "queries.jsonl",
        "--corpus", data / "corpus.jsonl",
        "--out", report,
        "--preset", "hotpotqa",
    )
    assert r.returncode == 0, r.stderr
    assert "Retrieval@20" in r.stdout
    assert "overall" in r.stdout
    obj = json.loads(report.read_text(encoding="utf-8"))
    assert obj["overall"]["n_queries"] == 6
    assert obj["overall"]["retrieval_at_k"] >= 0.5


_FACT = {"pid": "p", "sentence_index": 0}


def _with_fact(fact):
    """A trace record whose one hop keeps _FACT, then `fact`."""
    return {"qid": "q", "union": [], "hops": [{"kept_facts": [_FACT, fact]}]}


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"qid": "q", "hops": []}, "trace record has no 'union' field"),
        (["q", "union"], "trace record is not a JSON object"),
        (
            {"qid": "q", "union": [], "hops": [{"kept_facts": [_FACT, {"pid": "p"}]}]},
            "kept fact has no 'sentence_index' field",
        ),
        (
            {"qid": "q", "variant": "hybrid", "merged": [],
             "condensed": {"qid": "q", "union": [], "hops": []}, "rerank": {"qid": "q"}},
            "'rerank' trace has no 'union' field",
        ),
        ({"qid": "q", "union": [], "hops": 5}, "'hops' is not a list"),
        ({"qid": "q", "union": 7, "hops": []}, "'union' is not a list"),
        ({"qid": "q", "union": [], "hops": [{"kept_facts": 3}]}, "'kept_facts' is not a list"),
        ({"qid": "q", "union": [], "hops": [[_FACT]]}, "hop is not a JSON object"),
        (
            {"qid": "q", "variant": "hybrid", "merged": "p",
             "condensed": {"qid": "q", "union": [], "hops": []},
             "rerank": {"qid": "q", "union": [], "hops": []}},
            "'merged' is not a list",
        ),
        ({"qid": "q", "union": [["p"]], "hops": []}, "'union' has a non-string entry"),
        ({"qid": "q", "union": [5], "hops": []}, "'union' has a non-string entry"),
        (
            {"qid": "q", "variant": "hybrid", "merged": ["p", 5],
             "condensed": {"qid": "q", "union": [], "hops": []},
             "rerank": {"qid": "q", "union": [], "hops": []}},
            "'merged' has a non-string entry",
        ),
        (_with_fact({"pid": ["p"], "sentence_index": 0}), "kept fact 'pid' is not a string"),
        (_with_fact({"pid": "p", "sentence_index": "0"}), "'sentence_index' is not an integer"),
        (_with_fact({"pid": "p", "sentence_index": True}), "'sentence_index' is not an integer"),
        (
            {"qid": "q", "variant": "rerank", "union": ["p"],
             "hops": [{"kept_facts": [], "context_pid": ["p"]}]},
            "'context_pid' is not a string or null",
        ),
        ({"qid": ["q"], "union": [], "hops": []}, "'qid' is not a string"),
        (
            {"qid": "q", "union": [], "hops": [], "verdict": "yes"},
            "'verdict' is not true, false or null",
        ),
    ],
)
def test_eval_malformed_trace_exits_1_naming_line_and_field(workdir, tmp_path, bad, message):
    data = workdir / "data"
    good = {"qid": "q", "union": [], "hops": [{"kept_facts": [_FACT]}]}
    traces = tmp_path / "traces.jsonl"
    traces.write_text(
        "\n".join(json.dumps(obj) for obj in ({"meta": {}}, good, bad)) + "\n", encoding="utf-8"
    )
    r = run_cli(
        "eval", "--traces", traces,
        "--queries", data / "queries.jsonl", "--corpus", data / "corpus.jsonl",
    )
    assert r.returncode == 1
    assert f"{traces}: line 3: {message}" in r.stderr


def test_lho_bad_truth_file_exits_1_naming_file_and_line(workdir, tmp_path):
    data = workdir / "data"
    truth = tmp_path / "truth.jsonl"
    truth.write_text(json.dumps({"qid": "q", "hops": []}) + "\n[]\n", encoding="utf-8")
    r = run_cli(
        "lho", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--index", workdir / "flat.hlti", "--out", tmp_path / "supervision.jsonl",
        "--truth", truth, "--seed", 7, "--preset", "hotpotqa",
    )
    assert r.returncode == 1
    assert f"{truth}: line 2:" in r.stderr
    assert not (tmp_path / "supervision.jsonl").exists()  # the truth file is read before the run


def test_lho_missing_truth_file_exits_2_before_the_run(workdir, tmp_path):
    data = workdir / "data"
    r = run_cli(
        "lho", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--index", workdir / "flat.hlti", "--out", tmp_path / "supervision.jsonl",
        "--truth", tmp_path / "missing.jsonl", "--seed", 7, "--preset", "hotpotqa",
    )
    assert r.returncode == 2
    assert "truth file not found" in r.stderr
    assert not (tmp_path / "supervision.jsonl").exists()


def _head(src, dst, n):
    """The first n lines of src, written to dst."""
    dst.write_text("".join(src.read_text(encoding="utf-8").splitlines(True)[:n]), encoding="utf-8")
    return dst


def _recovery_line(workdir, tmp_path, queries, truth):
    r = run_cli(
        "lho", "--corpus", workdir / "data" / "corpus.jsonl", "--queries", queries,
        "--index", workdir / "flat.hlti", "--out", tmp_path / "supervision.jsonl",
        "--truth", truth, "--seed", 7, "--preset", "hotpotqa",
    )
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1]


def test_lho_truth_is_scored_over_the_queryset_qids(workdir, tmp_path):
    data = workdir / "data"
    queries = _head(data / "queries.jsonl", tmp_path / "queries.jsonl", 3)
    line = _recovery_line(workdir, tmp_path, queries, data / "truth.jsonl")
    assert line.endswith(" n_passages=6 n_queries=3")  # not the truth file's 6 queries
    cut = _head(data / "truth.jsonl", tmp_path / "truth.jsonl", 3)
    assert _recovery_line(workdir, tmp_path, queries, cut) == line


def test_lho_truth_lacking_a_queryset_qid_exits_1_before_the_run(workdir, tmp_path):
    data = workdir / "data"
    truth = _head(data / "truth.jsonl", tmp_path / "truth.jsonl", 3)
    fourth = json.loads((data / "queries.jsonl").read_text(encoding="utf-8").splitlines()[3])
    r = run_cli(
        "lho", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--index", workdir / "flat.hlti", "--out", tmp_path / "supervision.jsonl",
        "--truth", truth, "--seed", 7, "--preset", "hotpotqa",
    )
    assert r.returncode == 1
    assert f"{truth}: no truth for qid {fourth['qid']!r}" in r.stderr
    assert not (tmp_path / "supervision.jsonl").exists()


def test_heuristic_order_stdout(workdir):
    data = workdir / "data"
    r = run_cli(
        "heuristic-order",
        "--corpus", data / "corpus.jsonl",
        "--queries", data / "queries.jsonl",
    )
    assert r.returncode == 0, r.stderr
    rows = [json.loads(l) for l in r.stdout.strip().splitlines()]
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {"qid", "order"}
        assert row["order"]  # planted golds always orderable


def test_missing_input_exits_2_naming_path(workdir):
    r = run_cli(
        "retrieve",
        "--corpus", "/nonexistent/corpus.jsonl",
        "--index", workdir / "flat.hlti",
        "--query", "anything",
    )
    assert r.returncode == 2
    assert "/nonexistent/corpus.jsonl" in r.stderr


def test_corrupt_index_exits_1(workdir, tmp_path):
    data = workdir / "data"
    bad = tmp_path / "bad.hlti"
    bad.write_bytes(b"garbage bytes")
    r = run_cli(
        "retrieve", "--corpus", data / "corpus.jsonl", "--index", bad, "--query", "x",
    )
    assert r.returncode == 1
    assert "error:" in r.stderr


def test_format_1_index_exits_1_naming_the_file(workdir, tmp_path):
    data = workdir / "data"
    v1 = tmp_path / "v1.hlti"
    _save_v1(load_index(workdir / "flat.hlti"), v1)
    out = tmp_path / "out.jsonl"
    r = run_cli("run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
                "--index", v1, "--out", out, "--seed", 7)
    assert r.returncode == 1
    assert f"{v1}: index format 1" in r.stderr
    assert "rebuild the index with build-index" in r.stderr
    assert not out.exists()


def test_dim_mismatch_exits_1_naming_both_dims(workdir, tmp_path):
    data = workdir / "data"
    narrow = tmp_path / "dim64.hlti"
    r = run_cli(
        "build-index", "--corpus", data / "corpus.jsonl", "--out", narrow, "--seed", 7,
        env_extra={"HOPLITE_ENCODER_DIM": "64"},
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "retrieve", "--corpus", data / "corpus.jsonl", "--index", narrow, "--query", "x",
    )
    assert r.returncode == 1
    assert "64" in r.stderr and "128" in r.stderr and "encoder.dim" in r.stderr


@pytest.fixture(scope="module")
def seed5_ivf(workdir):
    """An IVF index of the module's corpus built under --seed 5."""
    path = workdir / "seed5-ivf.hlti"
    r = run_cli(
        "build-index", "--corpus", workdir / "data" / "corpus.jsonl", "--out", path,
        "--variant", "ivf", "--seed", 5,
    )
    assert r.returncode == 0, r.stderr
    return path


@pytest.mark.parametrize("command", ["retrieve", "run", "lho"])
def test_index_of_another_seed_exits_1_naming_the_field(workdir, seed5_ivf, tmp_path, command):
    # without the check, `run` exits 0 and its traces score far lower recall
    data = workdir / "data"
    out = tmp_path / "out.jsonl"
    args = {
        "retrieve": ["--query", "anything"],
        "run": ["--queries", data / "queries.jsonl", "--out", out],
        "lho": ["--queries", data / "queries.jsonl", "--out", out],
    }[command]
    r = run_cli(command, "--corpus", data / "corpus.jsonl", "--index", seed5_ivf, *args)
    assert r.returncode == 1
    assert "digest" in r.stderr and "--seed" in r.stderr
    assert r.stdout == "" and not out.exists()
    r = run_cli(command, "--corpus", data / "corpus.jsonl", "--index", seed5_ivf, *args,
                "--seed", 5)
    assert r.returncode == 0, r.stderr


def test_eval_against_another_seeds_queryset_exits_1_naming_qid_and_file(workdir, tmp_path):
    # synth names qids and gold pids alike under every seed; only the text differs
    data = workdir / "data"
    other = tmp_path / "seed8"
    r = run_cli("synth", "--out", other, "--hops", 2, "--queries", 6, "--corpus-size", 60,
                "--distractors", 3, "--with-answers", "--seed", 8)
    assert r.returncode == 0, r.stderr
    traces = tmp_path / "traces.jsonl"
    r = run_cli("run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
                "--index", workdir / "flat.hlti", "--out", traces, "--seed", 7)
    assert r.returncode == 0, r.stderr
    r = run_cli("eval", "--traces", traces, "--queries", other / "queries.jsonl",
                "--corpus", data / "corpus.jsonl")
    assert r.returncode == 1
    first = json.loads((data / "queries.jsonl").read_text().splitlines()[0])["qid"]
    assert f"{traces}: the trace of qid {first!r}" in r.stderr
    r = run_cli("eval", "--traces", traces, "--queries", data / "queries.jsonl",
                "--corpus", data / "corpus.jsonl")
    assert r.returncode == 0, r.stderr


def test_eval_of_a_trace_file_holding_a_qid_twice_exits_1_naming_it(workdir, tmp_path):
    # every record scored again used to print `queries 12` for 6 queries and exit 0
    data = workdir / "data"
    traces = tmp_path / "traces.jsonl"
    r = run_cli("run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
                "--index", workdir / "flat.hlti", "--out", traces, "--seed", 7)
    assert r.returncode == 0, r.stderr
    meta, *records = traces.read_text(encoding="utf-8").splitlines()
    twice = tmp_path / "twice.jsonl"
    twice.write_text("\n".join([meta, *records, *records]) + "\n", encoding="utf-8")
    r = run_cli("eval", "--traces", twice, "--queries", data / "queries.jsonl",
                "--corpus", data / "corpus.jsonl")
    assert r.returncode == 1
    first = json.loads(records[0])["qid"]
    assert f"{twice}: qid {first!r} has a second trace record" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("command", ["retrieve", "run", "lho"])
def test_index_pid_missing_from_corpus_exits_1_naming_it(workdir, tmp_path, command):
    data = workdir / "data"
    golds = {
        pid
        for line in (data / "queries.jsonl").read_text().splitlines()
        for pid in json.loads(line)["gold_pids"]
    }
    lines = (data / "corpus.jsonl").read_text().splitlines(keepends=True)
    pids = [json.loads(line)["pid"] for line in lines]
    dropped = next(pid for pid in pids if pid not in golds)
    smaller = tmp_path / "corpus.jsonl"
    smaller.write_text("".join(line for line, pid in zip(lines, pids) if pid != dropped))
    out = tmp_path / "out.jsonl"
    args = {
        "retrieve": ["--query", "anything"],
        "run": ["--queries", data / "queries.jsonl", "--out", out],
        "lho": ["--queries", data / "queries.jsonl", "--out", out],
    }[command]
    r = run_cli(command, "--corpus", smaller, "--index", workdir / "flat.hlti", *args, "--seed", 7)
    assert r.returncode == 1
    # the KeyError's message itself, not its quoted str()
    assert f"\nerror: index pid {dropped!r} is not in the corpus\n" in r.stderr
    assert r.stdout == "" and not out.exists()


@pytest.mark.parametrize("text", ["   ", "!!! ..."], ids=["blank", "punctuation"])
@pytest.mark.parametrize("command", ["retrieve", "run", "lho"])
def test_a_query_without_tokens_exits_1_naming_it(workdir, tmp_path, command, text):
    # such a query retrieves nothing: `retrieve` printed nothing, `run` wrote an
    # empty hop-1 ranking, and `lho` marked it weak with a fallback, each exiting 0
    data = workdir / "data"
    lines = (data / "queries.jsonl").read_text().splitlines()
    blank = {**json.loads(lines[1]), "text": text}
    queries = tmp_path / "queries.jsonl"
    queries.write_text("\n".join([lines[0], json.dumps(blank), *lines[2:]]) + "\n")
    out = tmp_path / "out.jsonl"
    args = {
        "retrieve": ["--query", text],
        "run": ["--queries", queries, "--out", out],
        "lho": ["--queries", queries, "--out", out],
    }[command]
    r = run_cli(command, "--corpus", data / "corpus.jsonl", "--index", workdir / "flat.hlti",
                *args, "--seed", 7)
    assert r.returncode == 1
    where = "--query" if command == "retrieve" else f"{queries}: line 2: qid {blank['qid']!r}"
    assert where in r.stderr and "holds no token" in r.stderr
    assert r.stdout == "" and not out.exists()


def test_env_var_overrides_config(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "t.jsonl"
    r = run_cli(
        "run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--out", out, "--seed", 7, "--preset", "hotpotqa",
        env_extra={"HOPLITE_PIPELINE_PER_HOP_K": "[3, 3]"},
    )
    assert r.returncode == 0, r.stderr
    _, records = read_traces(out)
    assert records[0]["per_hop_k"] == [3, 3]


def test_bad_env_var_exits_2(workdir, tmp_path):
    data = workdir / "data"
    r = run_cli(
        "run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--out", tmp_path / "t.jsonl", "--seed", 7, "--preset", "hotpotqa",
        env_extra={"HOPLITE_TYPO_KEY": "1"},
    )
    assert r.returncode == 2
    assert "HOPLITE_TYPO_KEY" in r.stderr


def test_resolved_config_logged(workdir, tmp_path):
    data = workdir / "data"
    r = run_cli(
        "run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--out", tmp_path / "t.jsonl", "--seed", 7, "--preset", "hotpotqa",
        "--log-level", "info",
    )
    assert r.returncode == 0
    assert "resolved config" in r.stderr
    assert '"seed": 7' in r.stderr


def test_bad_config_value_type_exits_2(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "t.jsonl"
    for name, value, key in (
        ("HOPLITE_RETRIEVAL_K", "abc", "retrieval.k"),
        ("HOPLITE_PIPELINE_ACCUMULATE_FACTS", "no", "pipeline.accumulate_facts"),
    ):
        r = run_cli(
            "run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
            "--out", out, "--seed", 7, "--preset", "hotpotqa", env_extra={name: value},
        )
        assert r.returncode == 2, r.stderr
        assert key in r.stderr
        assert not out.exists()


def test_verify_switch_records_verdicts(workdir, tmp_path):
    data = workdir / "data"
    out = tmp_path / "t.jsonl"
    r = run_cli(
        "run", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--out", out, "--seed", 7, "--preset", "hotpotqa",
        env_extra={"HOPLITE_PIPELINE_VERIFY": "true"},
    )
    assert r.returncode == 0, r.stderr
    meta, records = read_traces(out)
    assert meta["config"]["pipeline"]["verify"] is True
    assert all(isinstance(rec["verdict"], bool) for rec in records)


def _lho(workdir, out, *extra):
    data = workdir / "data"
    return run_cli(
        "lho", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl",
        "--index", workdir / "flat.hlti", "--out", out, "--seed", 7, *extra,
    )


def test_lho_oversize_gold_warning_logged_once(workdir, tmp_path):
    # the planted queries have two golds; one hop cannot assign both
    r = _lho(workdir, tmp_path / "sup.jsonl", "--k-hat", "5")
    assert r.returncode == 0, r.stderr
    assert r.stderr.count("more gold passages") == 1


@pytest.mark.parametrize(
    "flag, value", [("--k-hat", "5,x"), ("--triples-cap", "0"), ("--triples-cap", "abc")]
)
def test_lho_bad_flag_is_usage_error_before_any_work(workdir, tmp_path, flag, value):
    sup = tmp_path / "sup.jsonl"
    r = _lho(workdir, sup, "--triples-out", tmp_path / "tri.jsonl", flag, value)
    assert r.returncode == 2
    assert flag in r.stderr and value in r.stderr
    assert not sup.exists()


def _cmd(workdir, tmp_path, command):
    """Arguments that let `command` run on the shared dataset, writing to tmp_path."""
    data = workdir / "data"
    corpus, queries = ("--corpus", data / "corpus.jsonl"), ("--queries", data / "queries.jsonl")
    index = ("--index", workdir / "flat.hlti")
    out = ("--out", tmp_path / "out")
    return {
        "build-index": [command, *corpus, *out],
        "retrieve": [command, *corpus, *index, "--query", "rome"],
        "run": [command, *corpus, *queries, *index, *out],
        "lho": [command, *corpus, *queries, *index, *out],
        "heuristic-order": [command, *corpus, *queries, *out],
        "eval": [command, *corpus, *queries, "--traces", tmp_path / "t.jsonl", *out],
    }[command]


_WORK = [
    ("build-index", "build_index"),
    ("run", "run_queries"),
    ("lho", "latent_hop_ordering"),
    ("heuristic-order", "heuristic_order"),
    ("eval", "evaluate_run"),
]


@pytest.mark.parametrize("command, work, where", [
    *((command, work, where)
      for where in ("directory", "missing directory", "empty", "an input", "the config")
      for command, work in _WORK),
    ("lho", "latent_hop_ordering", "another output"),
])
def test_a_bad_out_exits_1_before_the_work(
    workdir, tmp_path, monkeypatch, capsys, command, work, where
):
    """An `--out` that is a directory, is empty or lies in a missing directory
    exits 1 with the message writing it would give, and one that names an
    input's path (spelled another way), the config's or another output's exits
    1 naming both flags, before the command's work runs and with every file as
    it was."""
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    def files():
        return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

    monkeypatch.setattr(f"hoplite.cli.{work}", never)
    args = [str(a) for a in _cmd(workdir, tmp_path, command)]
    out = tmp_path / "out"
    if where == "directory":
        out.mkdir()
        message = f"[Errno 21] Is a directory: '{out}'"
    elif where == "missing directory":
        out = out / "x.jsonl"
        message = f"[Errno 2] No such file or directory: '{out}'"
    elif where == "empty":
        out = ""
        message = "[Errno 2] No such file or directory: ''"
    elif where == "an input":
        corpus = tmp_path / "corpus.jsonl"
        shutil.copyfile(args[args.index("--corpus") + 1], corpus)
        args[args.index("--corpus") + 1] = str(corpus)
        out = f"{tmp_path}/./corpus.jsonl"
        message = f"--corpus and --out both name {out}"
    elif where == "the config":
        out = tmp_path / "cfg.json"
        out.write_text('{"seed": 7}', encoding="utf-8")
        args += ["--config", str(out)]
        message = f"--config and --out both name {out}"
    else:
        args += ["--triples-out", str(out)]
        message = f"--out and --triples-out both name {out}"
    args[args.index("--out") + 1] = str(out)
    before = files()
    assert main(args + ["--seed", "7"]) == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert files() == before


def test_lho_triples_out_in_a_missing_directory_exits_1_before_the_run(
    workdir, tmp_path, monkeypatch, capsys
):
    def never(*args, **kwargs):
        raise AssertionError("latent_hop_ordering ran")

    monkeypatch.setattr("hoplite.cli.latent_hop_ordering", never)
    triples = tmp_path / "missing" / "triples.jsonl"
    args = [str(a) for a in _cmd(workdir, tmp_path, "lho")] + ["--triples-out", str(triples)]
    assert main(args + ["--seed", "7"]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: [Errno 2] No such file or directory: '{triples}'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["empty", "the config"])
def test_lho_triples_out_empty_or_naming_the_config_exits_1_before_the_run(
    workdir, tmp_path, monkeypatch, capsys, where
):
    def never(*args, **kwargs):
        raise AssertionError("latent_hop_ordering ran")

    monkeypatch.setattr("hoplite.cli.latent_hop_ordering", never)
    args = [str(a) for a in _cmd(workdir, tmp_path, "lho")]
    if where == "empty":
        triples, message = "", "[Errno 2] No such file or directory: ''"
    else:
        triples = tmp_path / "cfg.json"
        triples.write_text('{"seed": 7}', encoding="utf-8")
        args += ["--config", str(triples)]
        message = f"--config and --triples-out both name {triples}"
    assert main(args + ["--triples-out", str(triples), "--seed", "7"]) == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    left = [] if where == "empty" else ["cfg.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == left
    if where == "the config":
        assert triples.read_text(encoding="utf-8") == '{"seed": 7}'


@pytest.mark.parametrize(
    "command, flags, env, key",
    [
        ("lho", ["--trainer", "bogus"], {}, "trainer 'bogus'"),
        ("lho", ["--k-hat", "0,5"], {}, "k_hat"),
        ("lho", [], {"HOPLITE_SUPERVISION_K_RETRIEVE": "5"}, "k_retrieve 5"),
        ("run", [], {"HOPLITE_PIPELINE_VARIANT": "bogus"}, "variant 'bogus'"),
        ("retrieve", ["--k", "0"], {}, "retrieval: k "),
        ("run", [], {"HOPLITE_RETRIEVAL_QUERY_FOCUS": "0"}, "query_focus"),
        ("run", [], {"HOPLITE_CONDENSER_TAU": "abc"}, "condenser.tau"),
        ("build-index", [], {"HOPLITE_INDEX_NPROBE": "abc"}, "nprobe"),
        ("build-index", [], {"HOPLITE_INDEX_CENTROID_COUNT": "abc"}, "centroid_count"),
        ("eval", [], {"HOPLITE_EVAL_SUPPORTED_ONLY": "yes"}, "supported_only"),
        ("run", [], {"HOPLITE_PIPELINE_HYBRID_TOTAL": "-1"}, "hybrid_total"),
        ("run", [], {"HOPLITE_PIPELINE_PER_HOP_K": "[2.5]"}, "per_hop_k"),
        ("run", [], {"HOPLITE_THREADS": "2"}, "unknown key HOPLITE_THREADS"),
        ("run", [], {"HOPLITE_CONDENSER_TAU": "NaN"}, "condenser: tau"),
        ("run", [], {"HOPLITE_CONDENSER_TAU": "Infinity"}, "condenser: tau"),
    ],
)
def test_bad_config_value_exits_2_before_reading_input(
    workdir, tmp_path, command, flags, env, key
):
    r = run_cli(*_cmd(workdir, tmp_path, command), *flags, "--seed", 7, env_extra=env)
    assert r.returncode == 2, r.stderr
    assert key in r.stderr
    assert "loaded" not in r.stderr
    assert not (tmp_path / "out").exists()


def test_threads_flag_and_config_key_exit_2_before_reading_input(workdir, tmp_path):
    """Every window runs on the calling thread: no flag or config key sets a thread count."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}), encoding="utf-8")
    for flags, message in (
        (["--threads", "2"], "unrecognized arguments: --threads 2"),
        (["--config", cfg], "unknown key 'threads'"),
    ):
        r = run_cli(*_cmd(workdir, tmp_path, "run"), *flags, "--seed", 7)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr
        assert "loaded" not in r.stderr
        assert not (tmp_path / "out").exists()


def test_inherited_config_variables_do_not_reach_the_cli(workdir, monkeypatch):
    monkeypatch.setenv("HOPLITE_PIPELINE_VARIANT", "bogus")
    data = workdir / "data"
    r = run_cli(
        "heuristic-order", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl"
    )
    assert r.returncode == 0, r.stderr
