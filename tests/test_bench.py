"""Smoke test of the benchmark's workloads: the first operations of each
workload, run in process and scored by the workload's own reference check,
fail only in the input classes the workload lists as known defects."""

import importlib
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
OPS = 300


@pytest.mark.parametrize("workload", ["dual_plane", "stability_scan", "cli_batch"])
def test_workload_fails_only_in_known_defect_classes(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    module = importlib.import_module(workload)
    stats = harness.RunStats()
    for op in islice(module.ops(1), OPS):
        harness.run_one(op, stats)
    assert stats.attempted == OPS
    failed = {kind: dict(t.reasons) for kind, t in stats.classes.items()
              if t.failed and kind not in module.KNOWN_DEFECTS}
    assert failed == {}
