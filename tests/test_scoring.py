import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoplite.encoder import EncodedQuery
from hoplite.scoring import (
    FocusParams,
    Ranking,
    ScoredPassage,
    colbert_score,
    flipr_score,
    focused_sums,
    maxsim_rows,
    rank_scored,
    row_maxima,
    screen_error,
    screen_sums,
    source_columns,
)

from oracle import from_passages


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
    pid_rank = np.array([1, 0, 2, 3])  # string order of the pids
    s_query = np.array([1.0, 1.0, 2.0, 0.5])
    s_fact = np.array([0.0, 0.0, 0.0, 0.25])
    order = rank_scored(s_query + s_fact, pid_rank, 3)
    ranked = list(Ranking(tuple(pids[i] for i in order), s_query[order], s_fact[order]))
    assert [r.pid for r in ranked] == ["c", "a", "b"]
    assert [(r.score, r.s_query, r.s_fact) for r in ranked] == [
        (2.0, 2.0, 0.0),
        (1.0, 1.0, 0.0),
        (1.0, 1.0, 0.0),
    ]
    # a tie at the k-th score is settled by pid, not by input position
    assert [pids[i] for i in rank_scored(s_query + s_fact, pid_rank, 2)] == ["c", "a"]


def test_ranking_is_arrays_until_iterated():
    ranking = Ranking(("x", "y"), np.array([1.5, 0.25]), np.array([0.5, 0.0]))
    assert len(ranking) == 2 and len(Ranking()) == 0
    assert list(ranking) == [
        ScoredPassage("x", 2.0, 1.5, 0.5),
        ScoredPassage("y", 0.25, 0.25, 0.0),
    ]
    assert list(Ranking()) == []


def test_kernel_of_no_passages_is_empty():
    eq = EncodedQuery(np.ones((2, 4), np.float32), np.ones((1, 4), np.float32))
    maxima = row_maxima(np.zeros((0, 3, 4)), source_columns(eq))
    s_query, s_fact = focused_sums(eq, maxima, FocusParams())
    assert maxima.shape == (0, 3)
    assert s_query.shape == s_fact.shape == (0,)


def test_kernel_rejects_empty_passage():
    eq = EncodedQuery(np.ones((2, 4), np.float32), np.zeros((0, 4), np.float32))
    with pytest.raises(ValueError):
        row_maxima(np.ones((3, 0, 4)), source_columns(eq))


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
# ties (common here) are settled by pid alone; the batched kernel and the
# per-passage calls must agree to the bit.
quarter = st.integers(-4, 4).map(lambda v: v / 4)


def quarter_rows(n_rows, dim=3):
    return st.lists(
        st.lists(quarter, min_size=dim, max_size=dim), min_size=n_rows, max_size=n_rows
    ).map(lambda r: np.asarray(r, dtype=np.float32).reshape(n_rows, dim))


@settings(max_examples=80, deadline=None)
@given(
    q=st.integers(1, 5).flatmap(quarter_rows),
    f=st.integers(0, 3).flatmap(quarter_rows),
    passages=st.lists(st.integers(1, 4).flatmap(quarter_rows), min_size=1, max_size=7),
    n_hat=st.integers(1, 8),
    l_hat=st.integers(0, 4),
)
def test_kernel_matches_per_passage_flipr(q, f, passages, n_hat, l_hat):
    eq = EncodedQuery(q, f)
    focus = FocusParams(n_hat=n_hat, l_hat=l_hat)
    pids = [f"p{i}" for i in range(len(passages))]
    maxima = np.empty((len(passages), q.shape[0] + f.shape[0]))
    for length in {m.shape[0] for m in passages}:
        at = [i for i, m in enumerate(passages) if m.shape[0] == length]
        stack = np.stack([passages[i] for i in at])
        maxima[at] = row_maxima(stack, source_columns(eq))
    s_query, s_fact = focused_sums(eq, maxima, focus)
    solo = [flipr_score(eq, m, focus, pid=pid) for pid, m in zip(pids, passages)]
    for i, sp in enumerate(solo):
        assert s_query[i] == sp.s_query
        assert s_fact[i] == sp.s_fact
    order = rank_scored(s_query + s_fact, np.arange(len(pids)), len(pids))
    assert [pids[i] for i in order] == [
        sp.pid for sp in sorted(solo, key=lambda sp: (-sp.score, sp.pid))
    ]
    if l_hat == 0 or f.shape[0] == 0:
        assert not s_fact.any()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(4, 64),
    n_query=st.integers(1, 10),
    n_fact=st.integers(0, 6),
    n_hat=st.integers(1, 12),
    l_hat=st.integers(0, 8),
    float64_query=st.booleans(),
)
def test_partitioned_screen_sums_stay_within_the_screen_bound(
    seed, dim, n_query, n_fact, n_hat, l_hat, float64_query
):
    """The screen's top-k sums, picked by partition and added in no set order,
    lie within `screen_error` of the float64 focused sums, for k = 0 and k at
    or past the part's column count too."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 7, int(rng.integers(1, 21)))
    storage = rng.standard_normal((int(counts.sum()), dim)).astype(np.float32)
    idx = from_passages([f"p{i}" for i in range(counts.size)],
                        np.split(storage, np.cumsum(counts)[:-1]))
    dtype = np.float64 if float64_query else np.float32
    scale = rng.uniform(0.25, 4.0, (n_query, 1))
    eq = EncodedQuery((rng.standard_normal((n_query, dim)) * scale).astype(dtype),
                      rng.standard_normal((n_fact, dim)).astype(dtype))
    focus = FocusParams(n_hat=n_hat, l_hat=l_hat)
    cols = source_columns(eq)
    out = np.empty((cols.shape[1], counts.size), dtype=np.float32)
    screened = idx.screen_maxima(cols.T, out, np.empty(idx.screen_scratch(cols.shape[1]),
                                                       dtype=np.float32)).T
    approx = screen_sums(eq, screened.copy(), focus)  # it reorders its maxima in place

    exact = np.concatenate([row_maxima(stack, cols) for _, stack in idx.stacks(
        np.arange(counts.size), max_rows=1)])
    order = np.concatenate([at for at, _ in idx.stacks(np.arange(counts.size), max_rows=1)])
    s_query, s_fact = focused_sums(eq, exact, focus)
    bound = screen_error(eq, focus, idx.max_row_norm)
    assert np.all(np.abs(approx[order] - (s_query + s_fact)) <= bound)
    # the same float32 maxima summed in descending order, as the rescore adds them
    sorted_q, sorted_f = focused_sums(eq, screened.astype(np.float64), focus)
    assert np.all(np.abs(approx - (sorted_q + sorted_f)) <= bound)
    if l_hat == 0 or n_fact == 0:
        assert np.array_equal(approx, screen_sums(eq, screened[:, :n_query], focus))
    if n_hat >= n_query and l_hat >= n_fact:  # every column kept
        assert np.allclose(approx, screened.astype(np.float64).sum(axis=1), rtol=0, atol=bound)


def test_screen_sums_keep_each_part_top_k():
    eq = _eq([1, 0, 0, 1, 1, 1], [1, 0, 0, 1], dim=2)
    maxima = np.array([[3, 1, 2, 7, 5], [-1, -2, -3, 0, 0]], dtype=np.float32)
    assert screen_sums(eq, maxima, FocusParams(n_hat=2, l_hat=1)).tolist() == [12.0, -3.0]
    assert screen_sums(eq, maxima, FocusParams(n_hat=9, l_hat=0)).tolist() == [6.0, -6.0]
    assert screen_sums(eq, maxima, FocusParams(n_hat=3, l_hat=9)).tolist() == [18.0, -6.0]
    no_facts = _eq([1, 0, 0, 1, 1, 1], [], dim=2)
    assert screen_sums(no_facts, maxima[:, :3], FocusParams(n_hat=1)).tolist() == [3.0, -1.0]
