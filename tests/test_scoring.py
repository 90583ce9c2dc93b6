import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoplite.corpus import Fact, MultiHopQuery
from hoplite.encoder import EncodedQuery
from hoplite.scoring import (
    FocusParams,
    colbert_score,
    flipr_score,
    maxsim_rows,
    rank_scored,
    score_segments,
)


def _eq(query_rows, fact_rows, dim=2):
    q = np.asarray(query_rows, dtype=np.float32).reshape(-1, dim)
    f = np.asarray(fact_rows, dtype=np.float32).reshape(-1, dim)
    return EncodedQuery(query_part=q, fact_part=f)


def test_maxsim_rows_hand_fixture():
    # Q = [(1,0), (0,1)], D = [(0.6, 0.8)] -> maxima [0.6, 0.8]
    q = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    d = np.array([[0.6, 0.8]], dtype=np.float32)
    m = maxsim_rows(q, d)
    assert m.dtype == np.float64
    assert np.allclose(m, [0.6, 0.8], atol=1e-12)


def test_maxsim_rows_picks_per_row_max():
    q = np.eye(3, dtype=np.float32)
    d = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.0, 0.0, 0.5]], dtype=np.float32)
    assert np.allclose(maxsim_rows(q, d), [0.9, 0.8, 0.5])


def test_maxsim_rows_empty_query_is_empty():
    q = np.zeros((0, 4), dtype=np.float32)
    d = np.ones((2, 4), dtype=np.float32)
    assert maxsim_rows(q, d).shape == (0,)


def test_maxsim_rows_rejects_empty_passage():
    q = np.ones((1, 4), dtype=np.float32)
    with pytest.raises(ValueError):
        maxsim_rows(q, np.zeros((0, 4), dtype=np.float32))


def test_maxsim_rows_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        maxsim_rows(np.ones((1, 4), dtype=np.float32), np.ones((1, 5), dtype=np.float32))


def test_colbert_score_hand_fixture():
    # Orthonormal query rows against a diagonal passage give maxima
    # [0.9, 0.2, 0.5], which sum to 1.6.
    q = np.eye(3, dtype=np.float32)
    d = np.diag([0.9, 0.2, 0.5]).astype(np.float32)
    eq = EncodedQuery(q, np.zeros((0, 3), np.float32))
    assert abs(colbert_score(eq, d) - 1.6) < 1e-6


def test_colbert_sums_query_and_fact_rows():
    q = np.array([[1, 0]], dtype=np.float32)
    f = np.array([[0, 1]], dtype=np.float32)
    d = np.diag([0.9, 0.4]).astype(np.float32)
    assert abs(colbert_score(EncodedQuery(q, f), d) - 1.3) < 1e-6


def test_flipr_score_hand_fixture():
    # query maxima [0.9, 0.8, 0.1, 0.05], n_hat=2, no facts -> 1.7
    q = np.eye(4, dtype=np.float32)
    d = np.diag([0.9, 0.8, 0.1, 0.05]).astype(np.float32)
    eq = EncodedQuery(q, np.zeros((0, 4), np.float32))
    sp = flipr_score(eq, d, FocusParams(n_hat=2, l_hat=0), pid="x")
    assert abs(sp.score - 1.7) < 1e-6
    assert abs(sp.s_query - 1.7) < 1e-6
    assert sp.s_fact == 0.0
    assert sp.pid == "x"


def test_flipr_fact_part_contributes():
    q = np.eye(2, dtype=np.float32)
    f = np.array([[0, 1], [1, 0], [0.5, 0]], dtype=np.float32)
    d = np.diag([1.0, 0.5]).astype(np.float32)
    eq = EncodedQuery(q.copy(), f)
    # query maxima [1.0, 0.5]; fact maxima [0.5, 1.0, 0.5]; l_hat=2 keeps [1.0, 0.5]
    sp = flipr_score(eq, d, FocusParams(n_hat=2, l_hat=2))
    assert abs(sp.s_query - 1.5) < 1e-6
    assert abs(sp.s_fact - 1.5) < 1e-6
    assert abs(sp.score - 3.0) < 1e-6


def test_flipr_reduces_to_colbert_when_budgets_cover():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((6, 8)).astype(np.float32)
    f = rng.standard_normal((5, 8)).astype(np.float32)
    d = rng.standard_normal((9, 8)).astype(np.float32)
    eq = EncodedQuery(q, f)
    focus = FocusParams(n_hat=6, l_hat=5)
    assert abs(flipr_score(eq, d, focus).score - colbert_score(eq, d)) < 1e-9
    # larger budgets clamp to the row counts, same result
    focus_big = FocusParams(n_hat=600, l_hat=500)
    assert flipr_score(eq, d, focus_big).score == flipr_score(eq, d, focus).score


def test_flipr_keeps_negative_maxima():
    # No clamping at zero: a focused sum may be negative.
    q = np.array([[1.0, 0.0]], dtype=np.float32)
    d = np.array([[-0.7, 0.0]], dtype=np.float32)
    eq = EncodedQuery(q, np.zeros((0, 2), np.float32))
    sp = flipr_score(eq, d, FocusParams(n_hat=1, l_hat=0))
    assert abs(sp.score + 0.7) < 1e-6


def test_flipr_default_focus_is_32_8():
    fp = FocusParams()
    assert fp.n_hat == 32
    assert fp.l_hat == 8


def test_focus_params_validation():
    with pytest.raises(ValueError):
        FocusParams(n_hat=0)
    with pytest.raises(ValueError):
        FocusParams(l_hat=-1)


def test_empty_query_rows_score_zero():
    eq = EncodedQuery(np.zeros((0, 4), np.float32), np.zeros((0, 4), np.float32))
    d = np.ones((3, 4), dtype=np.float32)
    sp = flipr_score(eq, d, FocusParams(n_hat=2, l_hat=2))
    assert sp.score == 0.0


def test_rank_scored_orders_by_score_then_pid():
    pids = ["b", "a", "c", "d"]
    s_query = np.array([1.0, 1.0, 2.0, 0.5])
    s_fact = np.array([0.0, 0.0, 0.0, 0.25])
    ranked = rank_scored(pids, s_query, s_fact, 3)
    assert [r.pid for r in ranked] == ["c", "a", "b"]
    assert [(r.score, r.s_query, r.s_fact) for r in ranked] == [
        (2.0, 2.0, 0.0),
        (1.0, 1.0, 0.0),
        (1.0, 1.0, 0.0),
    ]
    # a tie at the k-th score is settled by pid, not by input position
    assert [r.pid for r in rank_scored(pids, s_query, s_fact, 2)] == ["c", "a"]


def test_score_segments_of_nothing_is_empty():
    eq = EncodedQuery(np.ones((2, 4), np.float32), np.ones((1, 4), np.float32))
    s_query, s_fact = score_segments(eq, np.zeros((0, 4)), np.zeros(0, dtype=np.intp))
    assert s_query.shape == s_fact.shape == (0,)


def test_score_segments_rejects_empty_segment():
    eq = EncodedQuery(np.ones((2, 4), np.float32), np.zeros((0, 4), np.float32))
    with pytest.raises(ValueError):
        score_segments(eq, np.ones((3, 4)), np.array([0, 2, 2]))


# ---------------------------------------------------------------------------
# property tests

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=32)


def rows(n_rows, dim=4):
    return st.lists(
        st.lists(finite, min_size=dim, max_size=dim), min_size=n_rows, max_size=n_rows
    ).map(lambda r: np.asarray(r, dtype=np.float32))


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 6).flatmap(lambda n: rows(n)),
    d=st.integers(1, 8).flatmap(lambda n: rows(n)),
    n_hat=st.integers(1, 10),
)
def test_flipr_monotone_in_n_hat(q, d, n_hat):
    eq = EncodedQuery(q, np.zeros((0, 4), np.float32))
    lo = flipr_score(eq, d, FocusParams(n_hat=n_hat, l_hat=0)).score
    hi = flipr_score(eq, d, FocusParams(n_hat=n_hat + 1, l_hat=0)).score
    m = maxsim_rows(q, d)
    kth = np.sort(m)[::-1][min(n_hat, len(m)) :]
    # adding one more focus slot adds the next-largest maximum (or nothing)
    extra = float(kth[0]) if kth.size and n_hat < len(m) else 0.0
    assert abs(hi - (lo + extra)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 6).flatmap(lambda n: rows(n)),
    d=st.integers(1, 8).flatmap(lambda n: rows(n)),
    seed=st.integers(0, 2**16),
)
def test_flipr_invariant_to_passage_row_order(q, d, seed):
    eq = EncodedQuery(q, np.zeros((0, 4), np.float32))
    focus = FocusParams(n_hat=3, l_hat=0)
    base = flipr_score(eq, d, focus).score
    perm = np.random.default_rng(seed).permutation(d.shape[0])
    assert flipr_score(eq, d[perm], focus).score == base


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 6).flatmap(lambda n: rows(n)),
    f=st.integers(0, 5).flatmap(lambda n: rows(n)),
    d=st.integers(1, 8).flatmap(lambda n: rows(n)),
)
def test_flipr_never_exceeds_colbert_on_nonnegative_maxima(q, f, d):
    eq = EncodedQuery(q, f)
    m_q = maxsim_rows(q, d)
    m_f = maxsim_rows(f, d) if f.shape[0] else np.zeros(0)
    if (m_q < 0).any() or (m_f < 0).any():
        return  # focused subset of mixed-sign maxima may exceed the full sum
    focused = flipr_score(eq, d, FocusParams(n_hat=2, l_hat=2)).score
    assert focused <= colbert_score(eq, d) + 1e-9


# Small multiples of 1/4 make every dot product and partial sum exact, so
# the batched kernel and the per-passage calls must agree to the bit and
# ties (common here) are settled by pid alone.
quarter = st.integers(-4, 4).map(lambda v: v / 4)


def quarter_rows(n_rows, dim=3):
    return st.lists(
        st.lists(quarter, min_size=dim, max_size=dim), min_size=n_rows, max_size=n_rows
    ).map(lambda r: np.asarray(r, dtype=np.float32).reshape(n_rows, dim))


@settings(max_examples=80, deadline=None)
@given(
    q=st.integers(1, 5).flatmap(quarter_rows),
    f=st.integers(0, 3).flatmap(quarter_rows),
    segments=st.lists(st.integers(1, 4).flatmap(quarter_rows), min_size=1, max_size=7),
    n_hat=st.integers(1, 8),
    l_hat=st.integers(0, 4),
)
def test_score_segments_matches_per_segment_flipr(q, f, segments, n_hat, l_hat):
    eq = EncodedQuery(q, f)
    focus = FocusParams(n_hat=n_hat, l_hat=l_hat)
    pids = [f"p{i}" for i in range(len(segments))]
    counts = np.array([m.shape[0] for m in segments])
    rows = np.concatenate(segments, dtype=np.float64)
    s_query, s_fact = score_segments(eq, rows, np.cumsum(counts) - counts, focus)
    solo = [flipr_score(eq, m, focus, pid=pid) for pid, m in zip(pids, segments)]
    for i, sp in enumerate(solo):
        assert s_query[i] == sp.s_query
        assert s_fact[i] == sp.s_fact
    batch = rank_scored(pids, s_query, s_fact, len(pids))
    assert [sp.pid for sp in batch] == [
        sp.pid for sp in sorted(solo, key=lambda sp: (-sp.score, sp.pid))
    ]
    if l_hat == 0 or f.shape[0] == 0:
        assert not s_fact.any()
