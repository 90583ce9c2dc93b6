import json

import pytest

from hoplite.util import (
    derive_seed,
    hash64,
    normalize_answer_text,
    read_jsonl,
    replacing,
    write_jsonl,
)


def test_hash64_frozen_values():
    # Frozen oracle values; any change to the hash breaks every seeded artifact.
    assert hash64("bridge") == 6425992279220417657
    assert hash64("bridge", key=7) == 176107494640249072


def test_hash64_key_changes_value():
    assert hash64("x", key=1) != hash64("x", key=2)
    assert hash64("x", key=1) == hash64("x", key=1)


def test_hash64_range():
    for s in ("", "a", "tok", "word" * 100):
        v = hash64(s)
        assert 0 <= v < 2**64


def test_derive_seed_frozen_values():
    assert derive_seed(0, "encoder") == 10859130355566418025
    assert derive_seed(7, "kmeans") == 15701265732426588592


def test_derive_seed_distinct_names():
    root = 42
    seen = {derive_seed(root, n) for n in ("encoder", "kmeans", "supervision", "triples")}
    assert len(seen) == 4


def test_normalize_answer_text():
    assert normalize_answer_text("  Sandy KOUFAX.  ") == "sandy koufax"
    assert normalize_answer_text("a_b--c  d") == "a b c d"
    assert normalize_answer_text("") == ""
    assert normalize_answer_text("Tyrrhenian Sea") == "tyrrhenian sea"


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"a": 1}, {"b": [1, 2]}, {"c": "x"}]
    write_jsonl(path, rows)
    got = list(read_jsonl(path))
    assert [obj for _, obj in got] == rows
    assert [ln for ln, _ in got] == [1, 2, 3]


def test_read_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ok": 1}\n{broken\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        list(read_jsonl(path))


def test_write_jsonl_one_line_per_record(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"b": 1, "a": 2}, {"nested": {"x": [1, 2]}}])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"a": 2, "b": 1}
    assert json.loads(lines[1]) == {"nested": {"x": [1, 2]}}


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_write_jsonl_that_fails_leaves_the_file_as_it_was(tmp_path, error):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"old": 1}])
    before = path.read_bytes()

    def records():
        yield {"a": 1}
        yield {"b": 2}
        raise error("third record")

    with pytest.raises(error, match="third record"):
        write_jsonl(path, records())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]
    with pytest.raises(error):
        write_jsonl(tmp_path / "new.jsonl", records())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]


def test_replacing_a_directory_is_refused_before_the_block_runs(tmp_path):
    # else the block runs in full, and then the move fails naming the temporary file
    out = tmp_path / "out"
    out.mkdir()
    ran = []
    with pytest.raises(IsADirectoryError) as info:
        with replacing(out, encoding="utf-8") as fh:
            ran.append(fh)
    assert ran == []
    assert info.value.filename == str(out)
    assert str(info.value) == f"[Errno 21] Is a directory: '{out}'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert list(out.iterdir()) == []
