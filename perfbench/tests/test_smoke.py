"""Smoke test of the benchmark on a tiny workload (python3 -m pytest perfbench/tests)."""

import gc
import json
import os

import numpy as np
import pytest

from mrm import evalmetrics
from perfbench import checks, run, tracer, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = workloads.Workload(
    name="tiny", why="smoke test", n_sequences=30, lengths=(8, 14),
    model=dict(model_dim=8, n_heads=2, head_dim=4, max_groups=4, max_group_len=4),
    batch_size=8, epochs=2)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    return TINY


def _result(capsys, trace):
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == \
        workloads.END_TO_END


def test_every_end_to_end_metric_has_its_unit(tiny, spec, capsys):
    lines, result = _result(capsys, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in workloads.REPORTED_ONLY.items():
        assert any(line.startswith(f"metric {name} = ") and line.split()[4] == unit
                   for line in lines)
    assert not os.path.exists(run.WORK)


def test_traced_run_reports_layers_and_restores_mrm(tiny, spec, capsys):
    before = tracer.snapshot_mrm()
    callbacks = list(gc.callbacks)
    _, result = _result(capsys, trace=1)
    assert tracer.changed_attributes(before, tracer.snapshot_mrm()) == []
    assert gc.callbacks == callbacks
    assert result["correct"], result
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["model.forward_calls"] > 0 and values["diffcore.steps"] > 0
    assert 0.0 < values["partition.singleton_share"] <= 1.0


def test_nan_score_counts_as_failure(tmp_path, monkeypatch):
    target = workloads.setup(TINY, 3, str(tmp_path)).score_seqs[0].patient_id
    real = evalmetrics.score_sequences

    def nan_for_target(kind, params, seqs, config, partitions=None):
        scores = real(kind, params, seqs, config, partitions)
        scores[[s.patient_id == target for s in seqs]] = np.nan
        return scores

    monkeypatch.setattr(evalmetrics, "score_sequences", nan_for_target)
    tally = workloads.Tally()
    workloads.run_round(TINY, 3, str(tmp_path), tally)
    # one failure in the batch call, one in the single call of that patient
    assert tally.failed == 2, tally.messages
    assert all("not finite" in m for m in tally.messages)


def test_checks_reject_bad_outputs():
    assert len(checks.check_scores([0.5, 0.0, 1.0, float("inf")], "s")) == 3
    assert checks.check_same_score(0.25, 0.25 + 1e-12, "s") == []
    assert checks.check_same_score(0.25, 0.26, "s")
    assert checks.check_partition(((0, 2), (2, 5)), 5, 2, 3, "p") == []
    assert checks.check_partition(((0, 2), (3, 5)), 5, 2, 3, "p")   # gap
    assert checks.check_partition(((0, 2), (2, 4)), 5, 2, 3, "p")   # short cover
    assert checks.check_partition(((0, 1), (1, 2), (2, 3)), 3, 2, 3, "p")  # too many
    assert checks.check_partition(((0, 4), (4, 5)), 5, 2, 3, "p")   # too long
