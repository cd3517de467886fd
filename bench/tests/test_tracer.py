"""The traced run must not change what it measures."""

import json

import pytest

import run as bench
from branchpde import (cli, engine, existence, expressions, model, sampling,
                       specfun)
from tracer import MODEL_CALLABLES, Tracer
from workloads import BurgersInlineSweep, GraddJet, NldSweep

TINY = [(NldSweep, 2_000), (GraddJet, 4_000), (BurgersInlineSweep, 2_000)]


def _namespaces():
    owners = [cli, engine, existence, expressions, model, sampling, specfun,
              model.LifetimeDensity]
    owners += [getattr(model, name) for name in MODEL_CALLABLES]
    return {owner: dict(vars(owner)) for owner in owners}


@pytest.fixture
def small_batches(monkeypatch):
    # two batches per estimate, so burgers-inline-w2 takes the pool path
    monkeypatch.setattr(engine, "BATCH_TREES", 1_000)


@pytest.mark.parametrize("make, n_trees", TINY)
def test_traced_estimates_are_bit_identical(tmp_path, small_batches, make,
                                            n_trees):
    workload = make(tmp_path, n_trees=n_trees)
    run = bench.traced_run(workload, seed=3, seconds=0.1)
    assert run.errors == []
    traced = [rep for rep in run.reps if rep.output]
    assert len(traced) >= 2 + (workload.workers > 1)
    assert len({rep.output for rep in traced}) == 1
    if workload.workers > 1:
        assert run.metrics["engine.pool_starts"] == 61
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for metric in declared["per_layer"]:
        assert run.units[metric["name"]] == metric["unit"]
        assert run.metrics[metric["name"]] >= 0


@pytest.mark.parametrize("make, n_trees", TINY[:2])
def test_spans_nest_and_self_times_are_non_negative(tmp_path, make, n_trees):
    run = bench.traced_run(make(tmp_path, n_trees=n_trees), seed=4,
                           seconds=0.1)
    spans = run.tracer.spans
    assert spans
    for sid, parent, name, start, end in spans:
        assert start <= end
        if parent is not None:
            assert parent < sid
            assert spans[parent][3] <= start and end <= spans[parent][4]
    roots = [sid for sid, parent, *_ in spans if parent is None]
    for root in roots:
        total, self_time = run.tracer.layer_times(root)
        assert all(v >= 0.0 for v in self_time.values())
        assert all(self_time[n] <= total[n] for n in total)


def test_every_wrapped_attribute_is_restored(tmp_path, small_batches):
    before = _namespaces()
    for make, n_trees in TINY:
        bench.traced_run(make(tmp_path, n_trees=n_trees), seed=5, seconds=0.1)
    after = _namespaces()
    for owner, attributes in before.items():
        assert after[owner].keys() == attributes.keys(), owner
        changed = [k for k, v in attributes.items() if after[owner][k] is not v]
        assert changed == [], (owner, changed)


def test_restores_even_when_the_run_raises(tmp_path):
    before = _namespaces()
    tracer = Tracer("raises")
    with pytest.raises(RuntimeError):
        with tracer.installed(stages=True, pool=True):
            raise RuntimeError("boom")
    after = _namespaces()
    for owner, attributes in before.items():
        assert all(after[owner][k] is v for k, v in attributes.items()), owner


def test_near_one_count_matches_the_connection_formula(monkeypatch):
    near_one = []
    real = specfun._hyp2f1_near_one_vec

    def spy(a, b, c, z):
        near_one.append(z.size)
        return real(a, b, c, z)

    monkeypatch.setattr(specfun, "_hyp2f1_near_one_vec", spy)
    switch = 1.0 / 0.9   # r2 at which z = 1/r2 crosses the switch
    r2 = [0.5, 1.05, switch * (1 - 1e-9), switch * (1 + 1e-9), 1.5, 4.0]
    tracer = Tracer("near-one")
    with tracer.installed():
        model.psi_getoor_batch(1, 1.5, 10, r2)
    assert sum(near_one) == 2
    assert tracer.counts["specfun.psi_near_one_points"] == sum(near_one)
    assert tracer.counts["specfun.psi_exterior_points"] == 5
    assert tracer.counts["specfun.psi_points"] == 6
