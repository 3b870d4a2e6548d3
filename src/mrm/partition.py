"""Contiguous minimax-span partitioning of a sorted timestamp list.

Splits L time-sorted events into at most ``max_groups`` contiguous groups
of at most ``max_group_len`` events while minimizing the largest
within-group time span. Solved exactly: the optimum is the smallest
threshold at which a greedy left-to-right grouping needs at most
``max_groups`` groups, and the greedy only changes where the threshold
passes a lag t[j] - t[i] with 0 <= j - i < max_group_len, so the optimum
is one of those lags.

The search bisects over threshold values and snaps every probe to a lag.
A feasible probe gives the same groups at its widest group span, which
becomes the upper end; an infeasible probe gives the same groups up to
the smallest lag that closed one of its groups, which becomes the lower
end. The midpoint is taken over the floats' bit patterns, so the search
ends within 64 probes at any scale of the times, and no candidate list is
built or sorted. A greedy probe hops from group to group: it tests the
event after a group's start exactly, and only when that event joins does
it bisect for the group's end and settle it with the exact test, so a
probe costs O(groups * log max_group_len) rather than O(L).
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


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
    """times as a float64 array; ValueError unless it is 1-d, non-empty,
    finite and sorted non-decreasing, tested in that order. The tests are
    array methods and slices, which cost less per call than numpy's
    module-level functions on the short records of a batch."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError(f"times must be a non-empty 1-d list, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError(f"times must be finite, got {float(t[~np.isfinite(t)][0])!r}")
    if (t[1:] < t[:-1]).any():
        raise ValueError("times must be sorted non-decreasing")
    return t


def _greedy(times: list, threshold: float, max_group_len: int, limit=None):
    """The greedy groups over Python floats, as (groups, widest,
    next_lag); groups is None as soon as there are more than ``limit``.

    An event joins the open group while its time minus the group's first
    time is at most ``threshold``. That test is monotone along the sorted
    times, so a group's end is found by a bisect on first time plus
    threshold and then settled by the exact test, stepping left or right,
    because the sum can round either way. The event after the start is
    tested exactly first, so a singleton group costs no bisect.

    ``widest`` is the largest span of the groups made: a probe that placed
    every event makes the same groups at threshold ``widest``. When the
    probe stops at ``limit``, ``next_lag`` is the smallest t[end] - t[start]
    of its groups that the span test closed, not the size cap: the probe
    stops in the same groups at every threshold from ``threshold`` up to,
    not including, ``next_lag``. It is None when every event was placed,
    so a feasible probe does no work for it.
    """
    groups = []
    n = len(times)
    if limit is None:
        limit = n  # never reached before the last group
    widest = 0.0  # the span of a singleton
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
            span = times[end - 1] - t_start
            if span > widest:
                widest = span
        groups.append((start, end))
        if len(groups) >= limit and end < n:
            # every group ended before n, so the span test closed those
            # shorter than max_group_len
            next_lag = math.inf
            for s, e in groups:
                if e - s < max_group_len and times[e] - times[s] < next_lag:
                    next_lag = times[e] - times[s]
            return None, widest, next_lag
        start = end
    return groups, widest, None


def _bisect_float(lo: float, hi: float) -> float:
    """The float halfway between 0 <= lo < hi in order: the mean of their
    bit patterns, which sort as non-negative floats do, so lo <= mid < hi."""
    a, b = struct.unpack("<2q", struct.pack("<2d", lo, hi))
    return struct.unpack("<d", struct.pack("<q", (a + b) // 2))[0]


def greedy_feasible(times, threshold: float, max_groups: int, max_group_len: int):
    """Left-to-right greedy grouping at a fixed span threshold.

    Opens a new group whenever adding the next event would push the
    current group past ``threshold`` in span or ``max_group_len`` in size.
    For a fixed threshold this minimizes the number of groups, so the
    partition is feasible iff the resulting count is <= max_groups.
    Returns (feasible, groups) with groups as [start, end) index pairs.
    """
    t = _check_sorted(times)
    groups = _greedy(t.tolist(), float(threshold), max_group_len)[0]
    return len(groups) <= max_groups, groups


def optimal_partition(times, max_groups: int, max_group_len: int) -> Partition:
    """Exact minimax-span partition of sorted times.

    The answer is the canonical greedy grouping at the smallest threshold
    the greedy can satisfy with at most max_groups groups, so the result
    is deterministic. Feasibility is monotone in the threshold, so when
    the greedy at 0.0 is feasible it is the answer. Otherwise the search
    keeps lo <= optimum <= hi, from the 0.0 probe's next lag and the
    total span, and probes between them (see _bisect_float): a feasible
    probe sets hi to its widest span and keeps its groups, an infeasible
    one sets lo to its next lag, until lo == hi.
    """
    if max_groups < 1 or max_group_len < 1:
        raise ValueError("max_groups and max_group_len must be >= 1")
    t = _check_sorted(times)
    if t.size > max_groups * max_group_len:
        raise InfeasiblePartitionError(
            f"{t.size} events cannot fit into {max_groups} groups of "
            f"at most {max_group_len}")
    tl = t.tolist()
    groups, _, lo = _greedy(tl, 0.0, max_group_len, max_groups)
    if groups is None:
        # only max_group_len binds at the total span, which is feasible
        hi = tl[-1] - tl[0]
        while lo < hi:
            probe, widest, next_lag = _greedy(
                tl, _bisect_float(lo, hi), max_group_len, max_groups)
            if probe is None:
                lo = next_lag
            else:
                groups, hi = probe, widest
        if groups is None:
            groups = _greedy(tl, hi, max_group_len)[0]
    spans = tuple(tl[e - 1] - tl[s] for s, e in groups)
    return Partition(groups=tuple(groups), spans=spans, minimax_span=max(spans))
