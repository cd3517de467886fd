"""Pins the random-draw layout of the tree engine.

Small sweeps of every ``configs/fig*.json`` and one gradd gradient jet must
reproduce the means and stderrs recorded in ``draw_layout.json`` at a fixed
seed.  Values rather than a byte hash are compared, so a one-ulp libm
difference on another CPU does not trip the check.  A change that alters the
draw layout on purpose re-records the values with

    PYTHONPATH=src python tests/test_draw_layout.py

and says so in CHANGES.md.
"""

import csv
import json
import pathlib
import tempfile

import numpy as np
import pytest

from branchpde import builtin_model, estimate, estimate_gradient_all
from branchpde.cli import EXIT_OK, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("draw_layout.json")
CONFIGS = sorted((ROOT / "configs").glob("fig*.json"))
SWEEP_TREES, SWEEP_SEED, SWEEP_POINTS = 3_000, 7, 7


def _sweep(config: pathlib.Path, work_dir: pathlib.Path) -> dict:
    """The config's sweep over its own x1 range at SWEEP_POINTS points."""
    cfg = json.loads(config.read_text())
    lo, hi, _ = cfg["grid"].split(":")
    cfg["grid"] = f"{lo}:{hi}:{SWEEP_POINTS}"
    path = work_dir / config.name
    path.write_text(json.dumps(cfg))
    out = work_dir / f"{config.stem}.csv"
    code = main(["sweep", "--config", str(path), "--out", str(out),
                 "--n-trees", str(SWEEP_TREES), "--seed", str(SWEEP_SEED)])
    assert code == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {"mean": [float(r["mean"]) for r in rows],
            "stderr": [float(r["stderr"]) for r in rows]}


def _gradd_jet() -> dict:
    """u, du/dx1 and du/dx2 of gradd (d=2, k=1) at (0.9, (0.5, 0))."""
    model = builtin_model("gradd", d=2, alpha=1.5, k=1)
    x = np.array([0.5, 0.0])
    results = ([estimate(model, 0.9, x, 0, 1.0, 30_000, master_seed=3)]
               + estimate_gradient_all(model, 0.9, x, 1.0, 30_000,
                                       master_seed=3))
    return {"mean": [r.mean for r in results],
            "stderr": [r.stderr for r in results]}


def _assert_matches(got: dict, want: dict):
    for key in ("mean", "stderr"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-10, atol=0.0,
                                   err_msg=key)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_fig_sweep_matches_recorded(config, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    _assert_matches(_sweep(config, tmp_path), golden[config.stem])


def test_gradd_jet_matches_recorded():
    golden = json.loads(GOLDEN.read_text())
    _assert_matches(_gradd_jet(), golden["gradd-jet"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = {c.stem: _sweep(c, pathlib.Path(tmp)) for c in CONFIGS}
    values["gradd-jet"] = _gradd_jet()
    GOLDEN.write_text(json.dumps(values, indent=1) + "\n")
