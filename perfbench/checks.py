"""Output checks. Each returns a list of failure messages, one per bad item."""

from __future__ import annotations

import math

BATCH_VS_SINGLE_TOL = 1e-9


def check_scores(scores, what: str) -> list:
    """Every probability must be finite and strictly inside (0, 1)."""
    return [f"{what}[{i}]: probability {p!r} not finite or outside (0, 1)"
            for i, p in enumerate(scores)
            if not (math.isfinite(p) and 0.0 < p < 1.0)]


def check_same_score(single: float, batch: float, what: str) -> list:
    """A one-patient call must reproduce the batch score of that patient."""
    if abs(single - batch) <= BATCH_VS_SINGLE_TOL:
        return []
    return [f"{what}: single-patient score {single!r} != batch score {batch!r}"]


def check_partition(groups, n_events: int, max_groups: int, max_group_len: int,
                    what: str) -> list:
    """groups must cover [0, n_events) contiguously, in at most max_groups
    groups of 1 to max_group_len events each."""
    if len(groups) > max_groups:
        return [f"{what}: {len(groups)} groups > max_groups={max_groups}"]
    expected_start = 0
    for start, end in groups:
        if start != expected_start or not (1 <= end - start <= max_group_len):
            return [f"{what}: group ({start}, {end}) breaks a contiguous cover "
                    f"with groups of 1..{max_group_len} events"]
        expected_start = end
    if expected_start != n_events:
        return [f"{what}: groups cover {expected_start} of {n_events} events"]
    return []


def check_report(report, what: str) -> list:
    """Every training loss and validation AUC in the trace must be finite."""
    return [f"{what}: epoch {epoch} loss {loss!r} / valid AUC {valid!r} not finite"
            for epoch, loss, valid in report.loss_trace
            if not (math.isfinite(loss) and math.isfinite(valid))]
