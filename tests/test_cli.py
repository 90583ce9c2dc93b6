import json
import subprocess
import sys

import pytest

from hoplite.pipeline import read_traces

from conftest import subprocess_env

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
    assert repr(dropped) in r.stderr and "not in the corpus" in r.stderr
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
        "eval": [command, *corpus, *queries, "--traces", tmp_path / "t.jsonl", *out],
    }[command]


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
        ("run", ["--threads", "-3"], {}, "threads"),
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


def test_inherited_config_variables_do_not_reach_the_cli(workdir, monkeypatch):
    monkeypatch.setenv("HOPLITE_PIPELINE_VARIANT", "bogus")
    data = workdir / "data"
    r = run_cli(
        "heuristic-order", "--corpus", data / "corpus.jsonl", "--queries", data / "queries.jsonl"
    )
    assert r.returncode == 0, r.stderr
