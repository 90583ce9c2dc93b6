"""Fixed-fixture checks of the benchmark's own arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import percentile, samples_needed
from hoplite.encoder import EncodedQuery
from spans import RepeatCounter, Span, Tracer, layer_totals


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children_and_leaves():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("run"):  # 0 .. 10
        clock.now = 1.0
        with tr.span("retrieve"):  # 1 .. 6
            clock.now = 2.0
            with tr.span("candidates"):  # 2 .. 3
                clock.now = 3.0
            tr.add_leaf("score", 1.5)
            tr.add_leaf("score", 0.5)
            clock.now = 6.0
        with tr.span("condense"):  # 6 .. 8
            clock.now = 8.0
        clock.now = 10.0
    totals = layer_totals(tr.spans, tr.leaves)
    assert totals["run"] == (1, pytest.approx(10 - 5 - 2))
    assert totals["retrieve"] == (1, pytest.approx(5 - 1 - 2.0))
    assert totals["candidates"] == (1, pytest.approx(1.0))
    assert totals["score"] == (2, pytest.approx(2.0))
    assert totals["condense"] == (1, pytest.approx(2.0))


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, "parent", 0.0, 10.0),
        Span(1, 0, "child", 1.0, 4.0),
        Span(2, 0, "child", 3.0, 5.0),  # overlaps the first child by 1
        Span(3, 0, "child", 9.0, 12.0),  # runs past the parent's end
    ]
    totals = layer_totals(spans, {})
    assert totals["parent"] == (1, pytest.approx(10 - 4 - 1))
    assert totals["child"] == (3, pytest.approx(3 + 2 + 3))


def test_wrap_books_hook_time_outside_parent_self_time():
    clock = FakeClock()
    tr = Tracer(clock)

    def work():
        clock.now += 2.0
        return 7

    def hook(args, kwargs, result):
        clock.now += 0.25

    traced = tr.wrap("work", work, after=hook)
    with tr.span("outer"):
        assert traced() == 7
    totals = layer_totals(tr.spans, tr.leaves)
    assert totals["work"] == (1, pytest.approx(2.0))
    assert totals["trace.hooks"] == (1, pytest.approx(0.25))
    assert totals["outer"] == (1, pytest.approx(0.0))


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    for p in (0, 25, 50, 75, 90, 100):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p))


@pytest.mark.parametrize("p, n", [(50, 20), (75, 40), (90, 100), (99, 1000)])
def test_samples_needed_leaves_ten_above(p, n):
    assert samples_needed(p) == n
    values = [float(i) for i in range(n)]
    assert sum(v > percentile(values, p) for v in values) >= 10


def _eq(query_tokens, fact_tokens=()):
    rows = lambda ids: np.array([[float(i == t) for i in range(8)] for t in ids],
                                dtype=np.float32).reshape(-1, 8)
    return EncodedQuery(query_part=rows(query_tokens), fact_part=rows(fact_tokens))


def test_repeat_calls_need_same_request_query_and_exclusion():
    rc = RepeatCounter()
    rc.observe(0, _eq([1, 2]), frozenset())
    rc.observe(0, _eq([1, 2]), frozenset())  # hybrid's second hop 1: a repeat
    rc.observe(0, _eq([1, 2]), frozenset({"p1"}))  # other exclusion set
    rc.observe(0, _eq([1, 2], [3]), frozenset())  # other encoded query
    rc.observe(1, _eq([1, 2]), frozenset())  # same query, next request
    rc.observe(1, _eq([1, 2]), set())  # set and frozenset exclude the same pids
    assert rc.repeats == 2
