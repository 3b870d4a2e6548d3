import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrm.partition import InfeasiblePartitionError, greedy_feasible, optimal_partition

from .conftest import candidate_spans


# ---------------------------------------------------------------------------
# oracles: exhaustive enumeration and dynamic programming, written straight
# from the problem statement and independent of the solver


def contiguous_partitions(n, max_groups, max_group_len):
    """Yield every contiguous partition of range(n) as a list of (s, e)."""
    def rec(start, groups):
        if start == n:
            yield list(groups)
            return
        if len(groups) == max_groups:
            return
        for end in range(start + 1, min(n, start + max_group_len) + 1):
            groups.append((start, end))
            yield from rec(end, groups)
            groups.pop()
    yield from rec(0, [])


def brute_minimax(times, max_groups, max_group_len):
    best = None
    for part in contiguous_partitions(len(times), max_groups, max_group_len):
        worst = max(times[e - 1] - times[s] for s, e in part)
        if best is None or worst < best:
            best = worst
    return best


def brute_min_group_count(times, threshold, max_group_len):
    """Fewest contiguous groups with span <= threshold (None if impossible)."""
    n = len(times)
    best = [None] * (n + 1)
    best[0] = 0
    for i in range(1, n + 1):
        for j in range(max(0, i - max_group_len), i):
            if best[j] is None:
                continue
            if times[i - 1] - times[j] <= threshold:
                cand = best[j] + 1
                if best[i] is None or cand < best[i]:
                    best[i] = cand
    return best[n]


def dp_minimax(times, max_groups, max_group_len):
    """O(L * M * L_G) vectorized DP over (groups used, prefix length)."""
    t = np.asarray(times, dtype=np.float64)
    n = t.size
    inf = np.inf
    prev = np.full(n + 1, inf)
    prev[0] = -inf  # "max of nothing"
    best = inf
    for _ in range(min(max_groups, n)):
        cur = np.full(n + 1, inf)
        for i in range(1, n + 1):
            j0 = max(0, i - max_group_len)
            spans = t[i - 1] - t[j0:i]
            cur[i] = np.min(np.maximum(prev[j0:i], spans))
        best = min(best, cur[n])
        prev = cur
    return float(best)


def random_times(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        t = rng.uniform(0, 20, size=n)
    elif kind == 1:
        t = np.cumsum(rng.exponential(0.7, size=n))
    else:  # heavy ties
        t = rng.integers(0, max(2, n // 2), size=n).astype(float)
    return np.sort(t)


# ---------------------------------------------------------------------------
# candidate spans


def test_candidate_spans_enumeration():
    assert np.array_equal(candidate_spans([0.0, 1.0, 3.0]), [0.0, 1.0, 2.0, 3.0])


def test_candidate_spans_single_event():
    assert np.array_equal(candidate_spans([4.2]), [0.0])


def test_optimum_is_always_a_candidate_span():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        t = random_times(rng, n)
        m = int(rng.integers(1, 6))
        lg = int(rng.integers(1, 8))
        if n > m * lg:
            continue
        part = optimal_partition(t, m, lg)
        assert part.minimax_span in candidate_spans(t)


# ---------------------------------------------------------------------------
# greedy feasibility


def test_greedy_zero_threshold_distinct_times():
    t = [0.0, 1.0, 2.0, 3.0]
    ok, groups = greedy_feasible(t, 0.0, 4, 10)
    assert ok and groups == [(0, 1), (1, 2), (2, 3), (3, 4)]
    ok, _ = greedy_feasible(t, 0.0, 3, 10)
    assert not ok


def test_greedy_huge_threshold_only_size_binds():
    t = list(np.linspace(0, 9, 10))
    ok, groups = greedy_feasible(t, 100.0, 10, 3)
    assert ok and len(groups) == 4  # ceil(10/3)


def test_greedy_minimizes_group_count_vs_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 11))
        t = random_times(rng, n)
        lg = int(rng.integers(1, 5))
        threshold = float(rng.choice(candidate_spans(t)))
        _, groups = greedy_feasible(t, threshold, n, lg)
        oracle = brute_min_group_count(list(t), threshold, lg)
        assert oracle is not None
        assert len(groups) == oracle


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=8))
def test_greedy_feasibility_monotone_in_threshold(raw_times, max_group_len):
    times = np.sort(np.asarray(raw_times))
    spans = candidate_spans(times)
    for max_groups in (1, 2, 5):
        feasible = [greedy_feasible(times, s, max_groups, max_group_len)[0]
                    for s in spans]
        # once feasible, larger thresholds stay feasible
        assert all(b or not a for a, b in zip(feasible, feasible[1:]))


# ---------------------------------------------------------------------------
# optimal partition


@pytest.mark.parametrize("times", [[float("nan"), 1.0, 2.0], [1.0, float("inf")],
                                   [float("-inf"), 0.0]])
def test_optimal_partition_rejects_non_finite_times(times):
    # NaN compares false in the sortedness check, and an infinite time
    # gives a NaN span in a group of its own
    with pytest.raises(ValueError, match="finite"):
        optimal_partition(times, 2, 2)


def test_example_two_clusters():
    part = optimal_partition([0.0, 1.0, 2.0, 10.0, 11.0], 2, 10)
    assert part.groups == ((0, 3), (3, 5))
    assert part.minimax_span == 2.0
    assert part.spans == (2.0, 1.0)


def test_singletons_reach_zero_span():
    part = optimal_partition([0.0, 0.5, 1.7], 3, 1)
    assert part.minimax_span == 0.0
    assert len(part.groups) == 3


def test_all_equal_times_only_size_constraint():
    part = optimal_partition([5.0] * 10, 10, 3)
    assert part.minimax_span == 0.0
    assert len(part.groups) == 4  # ceil(10/3)


def test_infeasible_input_rejected():
    with pytest.raises(InfeasiblePartitionError):
        optimal_partition([0.0, 1.0, 2.0], 1, 2)


def test_unsorted_times_rejected():
    with pytest.raises(ValueError):
        optimal_partition([1.0, 0.0], 2, 2)


def test_exhaustive_optimality_small_instances():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(1, 11))
        t = random_times(rng, n)
        for m, lg in itertools.product(range(1, 5), range(1, 5)):
            if n > m * lg:
                with pytest.raises(InfeasiblePartitionError):
                    optimal_partition(t, m, lg)
                continue
            part = optimal_partition(t, m, lg)
            assert part.minimax_span == brute_minimax(list(t), m, lg)
            checked += 1
    assert checked > 100


def test_dp_oracle_medium_instances():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 120))
        t = random_times(rng, n)
        lg = int(rng.integers(1, 33))
        m_min = -(-n // lg)  # ceil
        m = int(rng.integers(m_min, m_min + 8))
        part = optimal_partition(t, m, lg)
        assert part.minimax_span == dp_minimax(t, m, lg)


def test_constraints_and_coverage_random():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        t = random_times(rng, n)
        lg = int(rng.integers(1, 9))
        m = -(-n // lg) + int(rng.integers(0, 4))
        part = optimal_partition(t, m, lg)
        assert len(part.groups) <= m
        prev_end = 0
        for (s, e), span in zip(part.groups, part.spans):
            assert s == prev_end and e > s
            assert e - s <= lg
            assert span == t[e - 1] - t[s]
            assert span <= part.minimax_span
            prev_end = e
        assert prev_end == n
        assert part.minimax_span == max(part.spans)


def all_pairs_partition(times, max_groups, max_group_len):
    """Binary search over every pairwise difference (candidate_spans) with
    the public greedy probe: the O(L^2) reference search."""
    t = np.asarray(times)
    cands = candidate_spans(t)
    lo, hi = 0, cands.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if greedy_feasible(t, cands[mid], max_groups, max_group_len)[0]:
            hi = mid
        else:
            lo = mid + 1
    _, groups = greedy_feasible(t, cands[lo], max_groups, max_group_len)
    spans = tuple(float(t[e - 1] - t[s]) for s, e in groups)
    return tuple(groups), spans, max(spans)


def test_windowed_candidates_match_all_pairs_search_near_capacity():
    rng = np.random.default_rng(19)
    for trial in range(24):
        n = int(rng.choice([int(rng.integers(300, 1000)), 2048]))
        t = random_times(rng, n)
        lg = int(rng.choice([1, 4, 32, 64]))
        m = -(-n // lg) + int(rng.integers(0, 40))
        part = optimal_partition(t, m, lg)
        groups, spans, minimax = all_pairs_partition(t, m, lg)
        assert part.groups == groups, (trial, n, lg, m)
        assert part.spans == spans
        assert part.minimax_span == minimax


def test_zero_threshold_fast_path_matches_binary_search():
    # optimal_partition returns the greedy at threshold 0.0 whenever that is
    # feasible; the reference search always runs the binary search
    rng = np.random.default_rng(23)
    fast = 0
    for trial in range(1000):
        n = int(rng.integers(1, 50))
        t = random_times(rng, n)  # a third of the cases hold heavy ties
        lg = int(rng.integers(1, 9))
        zero_groups = len(greedy_feasible(t, 0.0, n, lg)[1])
        m = max(-(-n // lg), zero_groups + int(rng.integers(-3, 3)))
        fast += zero_groups <= m
        part = optimal_partition(t, m, lg)
        assert (part.groups, part.spans, part.minimax_span) == \
            all_pairs_partition(t, m, lg), (trial, n, lg, m)
    assert 300 < fast < 900
