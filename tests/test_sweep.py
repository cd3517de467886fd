"""A sweep grows each batch's trees once and evaluates them at every point.

These tests pin that sharing: a sweep's rows are the single-point estimates
bit for bit, a sweep draws no more random variates than one point does, and
a multi-batch sweep on a pool starts that pool once.
"""

import csv
import json
import pathlib

import numpy as np
import pytest

from branchpde import cli, engine
from branchpde.cli import EXIT_OK, main, resolve_model
from branchpde.errors import DomainError

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("fig*.json"))
# every fig config, and fig2a off the x1 axis, where the radial path reads
# the displacements' column 1 as well as column 0
SWEEPS = [pytest.param(path, {}, id=path.stem) for path in CONFIGS] + [
    pytest.param(ROOT / "configs" / "fig2a.json", {"x": [0.0, 0.3]},
                 id="fig2a-x2")]

# fig3b's burgers-cosine written as an inline model
BURGERS_INLINE = {
    "name": "burgers-cosine-inline", "d": 2, "alpha": 1.5,
    "kappa": 10.0, "delta": 0.5, "indices": [[1, 1, 0], [1, 0, 1]],
    "coeffs": [-1, -1], "coeff_sup": [1, 1],
    "terminal": {"expr": "cos(x1)*cos(x2)*indicator_box("
                         "-1.5707963267948966, 1.5707963267948966)",
                 "sup": 1.0, "lipschitz": 2.0 ** 0.5}}


@pytest.fixture
def small_batches(monkeypatch):
    """1,000-tree batches, so a few thousand trees span several batches."""
    monkeypatch.setattr(engine, "BATCH_TREES", 1_000)


def _sweep(tmp_path, cfg, name, *flags) -> list:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 *flags]) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config, extra", SWEEPS)
def test_sweep_rows_equal_point_estimates(config, extra, workers, tmp_path,
                                          small_batches):
    cfg = json.loads(config.read_text())
    lo, hi, _ = cfg["grid"].split(":")
    cfg.update(grid=f"{lo}:{hi}:5", n_trees=2_500, seed=5, workers=workers,
               **extra)
    rows = _sweep(tmp_path, cfg, config.stem)
    model = resolve_model(cfg)
    assert len(rows) == 5
    for row in rows:
        x = np.array(cfg.get("x", np.zeros(model.d)), dtype=float)
        x[0] = float(row["x1"])
        res = engine.estimate(model, cfg["t"], x, 0, cfg["T"], 2_500,
                              master_seed=5, workers=workers)
        assert (float(row["mean"]), float(row["stderr"])) == \
            (res.mean, res.stderr)


def test_inline_burgers_sweep_matches_catalog(tmp_path, small_batches):
    base = {"t": 0.9, "T": 1.0, "grid": "-3.0:3.0:7", "n_trees": 2_500,
            "seed": 11, "workers": 2}
    inline = _sweep(tmp_path, {**base, "model": BURGERS_INLINE}, "inline")
    catalog = _sweep(tmp_path, {**base, "model": "burgers-cosine", "d": 2,
                                "alpha": 1.5, "kappa": 10.0}, "catalog")
    assert inline == catalog


def test_sweep_draws_as_much_as_one_point(tmp_path, monkeypatch,
                                          small_batches):
    calls = []
    real = engine.sample_lifetime

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "sample_lifetime", counted)
    cfg = {"model": "nld", "d": 2, "alpha": 1.5, "k": 1, "t": 0.5, "T": 1.0,
           "grid": "-1.2:1.2:7", "n_trees": 2_500, "seed": 2}
    _sweep(tmp_path, cfg, "nld")
    sweep_calls = len(calls)
    del calls[:]
    engine.estimate(resolve_model(cfg), 0.5, np.zeros(2), 0, 1.0, 2_500,
                    master_seed=2)
    assert sweep_calls == len(calls) > 0


def test_sweep_starts_one_pool(tmp_path, monkeypatch, small_batches):
    starts = []

    class CountedPool(engine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountedPool)
    cfg = {"model": "linear-test", "alpha": 1.5, "c": 0.8, "t": 0.5,
           "T": 1.0, "grid": "-1:1:5", "n_trees": 3_000, "seed": 4,
           "workers": 2}
    rows = _sweep(tmp_path, cfg, "linear")
    assert len(rows) == 5 and len(starts) == 1


def test_sweep_calls_estimate_once_per_point(tmp_path, monkeypatch,
                                             small_batches):
    """A sweep calls ``cli.estimate`` once per grid point, in grid order,
    with the point third and the mark fourth positionally, and its first
    call comes before any tree is grown: the benchmark harness times a
    sweep from that call and counts its trees per call."""
    events = []
    estimate, grow = cli.estimate, engine._grow_skeleton

    def spy_estimate(*args, **kwargs):
        events.append(("estimate", args[2].tolist(), args[3]))
        return estimate(*args, **kwargs)

    def spy_grow(*args):
        events.append(("grow",))
        return grow(*args)

    monkeypatch.setattr(cli, "estimate", spy_estimate)
    monkeypatch.setattr(engine, "_grow_skeleton", spy_grow)
    cfg = {"model": "gradd", "d": 2, "alpha": 1.5, "k": 1, "t": 0.9,
           "T": 1.0, "x": [0.0, 0.3], "mark": 2, "grid": "-1:1:5",
           "n_trees": 2_500, "seed": 3}
    rows = _sweep(tmp_path, cfg, "gradd")
    calls = [i for i, event in enumerate(events) if event[0] == "estimate"]
    grows = [i for i, event in enumerate(events) if event[0] == "grow"]
    assert [events[i][1:] for i in calls] == [
        ([float(row["x1"]), 0.3], 2) for row in rows]
    assert [float(row["x1"]) for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    # the first call grows all 3 batches, and the others grow nothing
    assert calls[0] < grows[0] and grows[-1] < calls[1] and len(grows) == 3


def test_grid_rejects_foreign_point():
    model = resolve_model({"model": "linear-test"})
    grid = engine.Grid([[0.0], [0.5]])
    with pytest.raises(DomainError):
        engine.estimate(model, 0.5, np.array([0.25]), 0, 1.0, 100, grid=grid)
    # a grid's points form a (G, d) array
    with pytest.raises(DomainError):
        engine.Grid([0.1, 0.2])


def test_grid_finds_a_point_by_its_bits():
    """A point is looked up in the grid's index: -0.0 finds a 0.0 row and
    0.0 a -0.0 row, the first of equal rows answers for each of them, and
    the points are read-only, so the index cannot go stale."""
    model = resolve_model({"model": "nld", "d": 2, "k": 1})
    grid = engine.Grid([[0.0, 0.5], [0.5, -0.0], [-0.0, 0.5], [0.5, 0.0]])

    def at(x):
        return engine.estimate(model, 0.5, np.array(x), 0, 1.0, 2_000,
                               grid=grid)

    first = at([-0.0, 0.5])
    assert first is grid._results[0]
    assert at([0.0, 0.5]) is first
    assert at([0.5, 0.0]) is at([0.5, -0.0]) is grid._results[1]
    with pytest.raises(ValueError):
        grid.points[0, 0] = 1.0


def test_grid_reruns_for_new_parameters():
    model = resolve_model({"model": "nld", "d": 1, "k": 1})
    grid = engine.Grid([[0.0], [0.5]])
    for seed in (1, 2, 1):
        for x in grid.points:
            shared = engine.estimate(model, 0.5, x, 0, 1.0, 2_000,
                                     master_seed=seed, grid=grid)
            alone = engine.estimate(model, 0.5, x, 0, 1.0, 2_000,
                                    master_seed=seed)
            assert (shared.mean, shared.stderr) == (alone.mean, alone.stderr)
