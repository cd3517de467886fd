"""Estimates that abort are counted, and the run carries on."""

import json

import pytest

import run as bench
from workloads import GraddJet, NldSweep

TWO_PARTICLES = {"max_particles": 2}


@pytest.mark.parametrize("make", [NldSweep, GraddJet])
def test_budget_aborts_are_counted_in_failed_frac(tmp_path, make):
    workload = make(tmp_path, n_trees=1_000, budget=TWO_PARTICLES)
    run = bench.timed_run(workload, seed=0, seconds=0.1)
    assert len(run.reps) >= bench.MIN_REPS
    assert run.failed > 0
    assert run.metrics["failed_frac"] == run.failed / run.attempted > 0.0
    assert run.errors == []
    if make is GraddJet:
        # mark 0 aborts, so the two gradient estimates are never attempted
        assert {(rep.attempted, rep.failed) for rep in run.reps} == {(1, 1)}


def test_report_line_names_every_declared_metric(capsys):
    code = bench.main(["--workload", "gradd-jet", "--seed", "0",
                       "--seconds", "0.1", "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert any(line.split()[:1] == ["failed_frac"] for line in out)
    assert any("seed=0" in line for line in out)
