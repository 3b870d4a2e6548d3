"""Contiguous minimax-span partitioning of a sorted timestamp list.

Splits L time-sorted events into at most ``max_groups`` contiguous groups
of at most ``max_group_len`` events while minimizing the largest
within-group time span. Solved exactly: binary search over the time
differences t[j] - t[i] with 0 <= j - i < max_group_len (the optimum is
the span of a group, so always one of them) with a greedy left-to-right
feasibility check at each threshold.

The candidates are the (L, max_group_len) lag matrix sorted once, with
duplicates kept: O(L * max_group_len) memory and one sort. A greedy probe
hops from group to group: it tests the event after a group's start
exactly, and only when that event joins does it bisect for the group's
end and settle it with the exact test, so a probe costs
O(groups * log max_group_len) rather than O(L).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class InfeasiblePartitionError(ValueError):
    """More events than max_groups * max_group_len can hold."""


@dataclass(frozen=True)
class Partition:
    """Contiguous index ranges [start, end) with their time spans."""

    groups: tuple
    spans: tuple
    minimax_span: float

    def __len__(self):
        return len(self.groups)


def _check_sorted(times) -> np.ndarray:
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"times must be a non-empty 1-d list, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError(f"times must be finite, got {float(t[~np.isfinite(t)][0])!r}")
    if np.any(np.diff(t) < 0):
        raise ValueError("times must be sorted non-decreasing")
    return t


def _window_spans(t: np.ndarray, max_group_len: int) -> np.ndarray:
    """Differences t_j - t_i with 0 <= j - i < max_group_len, sorted, with
    duplicates kept.

    A group holds at most max_group_len events, so every group span, and
    hence the optimal minimax span, is in this list. Row i of the lag
    matrix is t[i:i + max_group_len] - t[i], padded past the end with
    +inf (each entry the same float as t[k:] - t[:n - k]); the matrix is
    sorted once and the infinite tail cut off. O(L * max_group_len)
    memory.
    """
    n = t.size
    w = min(max_group_len, n)
    padded = np.concatenate([t, np.full(w - 1, np.inf)])
    lags = np.sort(sliding_window_view(padded, w) - t[:, None], axis=None)
    return lags[:n * w - w * (w - 1) // 2]


def _greedy(times: list, threshold: float, max_group_len: int, limit=None):
    """The greedy groups over Python floats; None as soon as there are
    more than ``limit`` of them.

    An event joins the open group while its time minus the group's first
    time is at most ``threshold``. That test is monotone along the sorted
    times, so a group's end is found by a bisect on first time plus
    threshold and then settled by the exact test, stepping left or right,
    because the sum can round either way. The event after the start is
    tested exactly first, so a singleton group costs no bisect.
    """
    groups = []
    n = len(times)
    if limit is None:
        limit = n  # never reached before the last group
    start = 0
    while start < n:
        t_start = times[start]
        end = start + 1
        if end < n and max_group_len > 1 and not times[end] - t_start > threshold:
            cap = start + max_group_len
            if cap > n:
                cap = n
            end = bisect_right(times, t_start + threshold, start + 2, cap)
            while end > start + 2 and times[end - 1] - t_start > threshold:
                end -= 1
            while end < cap and not times[end] - t_start > threshold:
                end += 1
        groups.append((start, end))
        if len(groups) >= limit and end < n:
            return None
        start = end
    return groups


def greedy_feasible(times, threshold: float, max_groups: int, max_group_len: int):
    """Left-to-right greedy grouping at a fixed span threshold.

    Opens a new group whenever adding the next event would push the
    current group past ``threshold`` in span or ``max_group_len`` in size.
    For a fixed threshold this minimizes the number of groups, so the
    partition is feasible iff the resulting count is <= max_groups.
    Returns (feasible, groups) with groups as [start, end) index pairs.
    """
    t = _check_sorted(times)
    groups = _greedy(t.tolist(), float(threshold), max_group_len)
    return len(groups) <= max_groups, groups


def optimal_partition(times, max_groups: int, max_group_len: int) -> Partition:
    """Exact minimax-span partition of sorted times.

    Binary search for the smallest candidate span (see _window_spans) the
    greedy can satisfy with at most max_groups groups; the groups returned
    are the canonical greedy grouping at that threshold, so the result is
    deterministic. The smallest candidate is always 0.0 and feasibility is
    monotone in the threshold, so when the greedy at 0.0 is feasible it is
    the answer and the candidate list is never built.
    """
    if max_groups < 1 or max_group_len < 1:
        raise ValueError("max_groups and max_group_len must be >= 1")
    t = _check_sorted(times)
    if t.size > max_groups * max_group_len:
        raise InfeasiblePartitionError(
            f"{t.size} events cannot fit into {max_groups} groups of "
            f"at most {max_group_len}")
    tl = t.tolist()
    groups = _greedy(tl, 0.0, max_group_len, max_groups)
    if groups is None:
        # a binary search reads a few dozen of the O(L * max_group_len)
        # candidates, so they stay one numpy array; the zeros just failed
        cands = _window_spans(t, max_group_len)
        lo, hi = int(np.searchsorted(cands, 0.0, side="right")), cands.size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if _greedy(tl, float(cands[mid]), max_group_len, max_groups) is not None:
                hi = mid
            else:
                lo = mid + 1
        groups = _greedy(tl, float(cands[lo]), max_group_len)
    spans = tuple(tl[e - 1] - tl[s] for s, e in groups)
    return Partition(groups=tuple(groups), spans=spans, minimax_span=max(spans))
