import contextlib
import csv
import io
import json
import math
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from branchpde import cli, engine
from branchpde.cli import (EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, EXIT_OVERFLOW,
                           EXIT_UNCERTIFIED, main, result_to_dict)
from branchpde.engine import EstimatorResult


def _write_cfg(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


LINEAR_CFG = {"model": "linear-test", "alpha": 1.5, "c": 0.8, "t": 0.5,
              "T": 1.0, "n_trees": 20_000, "seed": 3}
_INLINE = {"d": 1, "indices": [[1]], "coeffs": [1.0], "coeff_sup": [1.0],
           "terminal": {"expr": "1", "sup": 1.0}}


def _unwritable_fails_fast(command, cfg, tmp_path, capsys, monkeypatch):
    """``command`` with --out in a missing directory exits 3 before its
    first estimate."""
    calls = []
    monkeypatch.setattr(cli, "estimate", lambda *a, **k: calls.append(a))
    out = tmp_path / "missing" / "r.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "cannot write" in capsys.readouterr().err
    assert not calls


class TestEstimate:
    def test_csv_and_json(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", LINEAR_CFG)
        out = tmp_path / "res.csv"
        code = main(["estimate", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK

        lines = out.read_text().splitlines()
        assert lines[0] == ("mean,stderr,ci_lo,ci_hi,n,"
                            "mean_tree_size,max_tree_size")
        mean, stderr = float(lines[1].split(",")[0]), float(lines[1].split(",")[1])
        assert abs(mean - math.exp(0.4)) < 4.0 * stderr

        doc = json.loads((tmp_path / "res.csv.json").read_text())
        assert doc["mean"] == mean and doc["n_trees"] == 20_000

    def test_unwritable_output_is_typed(self, tmp_path, capsys, monkeypatch):
        cfg = _write_cfg(tmp_path, "cfg.json", LINEAR_CFG)
        _unwritable_fails_fast("estimate", cfg, tmp_path, capsys, monkeypatch)

    def test_flag_overrides(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", LINEAR_CFG)
        out = tmp_path / "a.csv"
        main(["estimate", "--config", cfg, "--out", str(out),
              "--n-trees", "5000", "--seed", "9"])
        doc = json.loads((tmp_path / "a.csv.json").read_text())
        assert doc["n_trees"] == 5000

    def test_env_workers_deterministic(self, tmp_path, monkeypatch):
        cfg = _write_cfg(tmp_path, "cfg.json",
                         {**LINEAR_CFG, "n_trees": 60_000})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.delenv("BRANCHPDE_THREADS", raising=False)
        main(["estimate", "--config", cfg, "--out", str(a)])
        monkeypatch.setenv("BRANCHPDE_THREADS", "3")
        main(["estimate", "--config", cfg, "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_budget_abort_exit_2(self, tmp_path, capsys, monkeypatch):
        # 1,000-tree batches, of which the first two grow within the
        # default budget and the third outgrows one generation
        grow = engine._grow_skeleton

        def third_aborts(model, t, T, n, rng, budget):
            return grow(model, t, T, n, rng,
                        engine.DEFAULT_BUDGET if rng.stream_id < 2 else budget)

        monkeypatch.setattr(engine, "BATCH_TREES", 1_000)
        monkeypatch.setattr(engine, "_grow_skeleton", third_aborts)
        cfg = _write_cfg(tmp_path, "cfg.json", {
            "model": "nld", "d": 1, "alpha": 1.5, "k": 1, "t": 0.0, "T": 1.0,
            "n_trees": 10_000, "budget": {"max_generation": 1}})
        out = tmp_path / "r.csv"
        assert main(["estimate", "--config", cfg,
                     "--out", str(out)]) == EXIT_BUDGET
        assert capsys.readouterr().err.startswith(
            "budget exceeded after 2000 trees: tree outgrew its budget")

    def test_inline_model(self, tmp_path):
        # f = 0.8 u with phi = 1 expressed inline; same solution e^(0.8 (T-t))
        cfg = _write_cfg(tmp_path, "cfg.json", {
            "model": {"d": 1, "m": 0, "indices": [[1]], "coeffs": [0.8],
                      "coeff_sup": [0.8],
                      "terminal": {"expr": "1", "sup": 1.0, "lipschitz": 0.0},
                      "alpha": 1.5, "delta": 0.5},
            "t": 0.5, "T": 1.0, "n_trees": 20_000, "seed": 3})
        out = tmp_path / "r.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        row = out.read_text().splitlines()[1].split(",")
        assert abs(float(row[0]) - math.exp(0.4)) < 4.0 * float(row[1])

    def test_strict_refuses_uncertified(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", {
            "model": "nld", "d": 1, "alpha": 1.5, "k": 1, "t": 0.5, "T": 1.0,
            "n_trees": 1000, "p": 2.0})
        assert main(["estimate", "--config", cfg,
                     "--strict"]) == EXIT_UNCERTIFIED

    def test_strict_allows_certified(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", {**LINEAR_CFG, "n_trees": 1000})
        out = tmp_path / "r.csv"
        assert main(["estimate", "--config", cfg, "--strict",
                     "--out", str(out)]) == EXIT_OK


class TestSweep:
    def test_grid_and_determinism(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", {
            "model": "nld", "d": 1, "alpha": 1.5, "k": 1, "t": 0.5, "T": 1.0,
            "n_trees": 2_000, "seed": 1, "grid": "-1:1:5"})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(b),
                     "--workers", "4"]) == EXIT_OK
        assert a.read_text() == b.read_text()
        lines = a.read_text().splitlines()
        assert lines[0] == "x1,mean,stderr,ci_lo,ci_hi,n"
        assert len(lines) == 6
        assert [float(r.split(",")[0]) for r in lines[1:]] == \
            [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_budget_abort_keeps_earlier_output(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", {
            "model": "nld", "d": 1, "alpha": 1.5, "k": 1, "t": 0.0, "T": 1.0,
            "n_trees": 5_000, "grid": "-1:1:3",
            "budget": {"max_generation": 2}})
        out = tmp_path / "r.csv"
        out.write_bytes(b"stale\n")
        assert main(["sweep", "--config", cfg,
                     "--out", str(out)]) == EXIT_BUDGET
        assert out.read_bytes() == b"stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                               "r.csv"]

    def test_output_replaces_earlier_file(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", {**LINEAR_CFG,
                                                "n_trees": 1_000,
                                                "grid": "0:1:2"})
        out = tmp_path / "r.csv"
        out.write_bytes(b"stale\n")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("x1,mean,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                               "r.csv"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_product_overflow_exit_5(self, tmp_path, monkeypatch, capfd,
                                     workers):
        # two children per death and c = 1e300: every tree with two interior
        # particles overflows; 4 batches of 500 trees, run in this process
        # or in pool workers, whose stderr capfd also reads
        monkeypatch.setattr(engine, "BATCH_TREES", 500)
        cfg = _write_cfg(tmp_path, "cfg.json", {
            "model": {"d": 1, "m": 0, "indices": [[2]], "coeffs": [1e300],
                      "coeff_sup": [1e300],
                      "terminal": {"expr": "2", "sup": 2.0}},
            "t": 0.0, "T": 1.0, "n_trees": 2_000, "seed": 1,
            "grid": "0:1:3", "workers": workers})
        out = tmp_path / "r.csv"
        out.write_bytes(b"stale\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--config", cfg, "--out", str(out)])
        err = capfd.readouterr().err
        assert code == EXIT_OVERFLOW
        assert "product overflow" in err and "Warning" not in err
        assert out.read_bytes() == b"stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                               "r.csv"]

    def test_unwritable_output_is_typed(self, tmp_path, capsys, monkeypatch):
        cfg = _write_cfg(tmp_path, "cfg.json", {**LINEAR_CFG,
                                                "n_trees": 1_000,
                                                "grid": "0:1:2"})
        _unwritable_fails_fast("sweep", cfg, tmp_path, capsys, monkeypatch)

    def test_bad_grid(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", {**LINEAR_CFG, "grid": "0:1"})
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG


class TestCheck:
    def test_certified_report(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "cfg.json",
                         {"model": "linear-test", "alpha": 1.5, "p": 2.0,
                          "T": 1.0})
        out = tmp_path / "report.json"
        assert main(["check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "certified-b"
        assert set(doc) >= {"p", "cond_rho", "cond_eta", "cd_check",
                            "C_circ", "C_partial_ratio", "t3b_bound",
                            "verdict"}
        assert "certified-b" in capsys.readouterr().err

    def test_uncertified_exit_4(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json",
                         {"model": "burgers-halfspace", "d": 2, "alpha": 1.5,
                          "kappa": 10.0, "p": 1.0, "T": 1.0})
        assert main(["check", "--config", cfg]) == EXIT_UNCERTIFIED

    def test_false_coeff_sup_is_uncertified(self, tmp_path, capsys,
                                            monkeypatch):
        # |c| = |10 cos(x1)| reaches 10, but 0.01 is declared: taken at its
        # word, the bound certifies route a (C_circ = 0.0066)
        cfg = _write_cfg(tmp_path, "cfg.json", {
            "model": {"d": 1, "m": 0, "alpha": 1.5, "delta": 0.3,
                      "indices": [[2]], "coeffs": ["10*cos(x1)"],
                      "coeff_sup": [0.01],
                      "terminal": {"expr": "0.05*cos(x1)", "sup": 0.05,
                                   "lipschitz": 0.05}},
            "t": 0.0, "T": 1.0, "p": 2.0, "n_trees": 1_000})
        out = tmp_path / "report.json"
        assert main(["check", "--config", cfg,
                     "--out", str(out)]) == EXIT_UNCERTIFIED
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "uncertified" and doc["C_circ"] < 1.0
        assert any("(2,)" in note and "reached 10" in note
                   for note in doc["notes"])
        calls = []
        monkeypatch.setattr(cli, "estimate", lambda *a, **k: calls.append(a))
        capsys.readouterr()
        assert main(["estimate", "--config", cfg,
                     "--strict"]) == EXIT_UNCERTIFIED
        assert "refusing to run" in capsys.readouterr().err and not calls


class TestSampleDiag:
    def test_csv_and_summary(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "cfg.json",
                         {"alpha": 1.5, "t": 1.0, "n_samples": 2_000,
                          "seed": 0})
        out = tmp_path / "s.csv"
        assert main(["sample-diag", "--config", cfg,
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "sample" and len(lines) == 2_001
        samples = np.array([float(v) for v in lines[1:]])
        assert np.all(samples > 0.0)
        err = capsys.readouterr().err
        assert "lambda=1.0" in err and "MISMATCH" not in err

    def test_insufficient_n(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "cfg.json",
                         {"alpha": 1.5, "t": 1.0, "n_samples": 100})
        assert main(["sample-diag", "--config", cfg,
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert "insufficient n" in capsys.readouterr().err


class TestConfigErrors:
    def test_missing_config(self, tmp_path):
        assert main(["estimate", "--config",
                     str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["estimate", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_model(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", {"model": "heat"})
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG

    def test_non_integer_threads_env(self, tmp_path, monkeypatch, capsys):
        cfg = _write_cfg(tmp_path, "cfg.json", LINEAR_CFG)
        monkeypatch.setenv("BRANCHPDE_THREADS", "abc")
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
        assert "BRANCHPDE_THREADS" in capsys.readouterr().err

    def test_inadmissible_model(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json",
                         {"model": "gradd", "d": 2, "alpha": 1.0})
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("name", ["nld", "gradd"])
    def test_kappa_of_unit_model_is_refused(self, tmp_path, capsys, name):
        cfg = _write_cfg(tmp_path, "cfg.json",
                         {"model": name, "d": 2, "alpha": 1.5, "kappa": 3})
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
        assert "kappa = 1" in capsys.readouterr().err

    def test_bad_time_window(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json", {**LINEAR_CFG, "t": 2.0})
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG

    def test_bad_inline_model(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json",
                         {"model": {"d": 1, "indices": [[1]]}})
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG

    def test_wrong_x_dimension(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cfg.json",
                         {**LINEAR_CFG, "x": [0.0, 1.0, 2.0]})
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, doc", [
        ("sample-diag", {"t": math.nan, "n_samples": 10}),
        ("estimate", {"model": "burgers-cosine", "d": 2, "kappa": math.nan,
                      "t": 0.5, "n_trees": 200}),
        ("estimate", {"model": {**_INLINE, "coeffs": [math.nan]},
                      "t": 0.5, "n_trees": 200}),
        ("estimate", {"model": {**_INLINE, "q": [math.nan]},
                      "t": 0.5, "n_trees": 200}),
        ("estimate", {**LINEAR_CFG, "c": math.nan}),
        ("estimate", {**LINEAR_CFG, "delta": math.nan}),
        ("check", {"model": "linear-test", "T": math.nan}),
    ], ids=["sample-diag-t", "kappa", "inline-coeff", "inline-q",
            "linear-c", "delta", "check-T"])
    def test_nan_is_refused(self, tmp_path, command, doc, deadline):
        cfg = _write_cfg(tmp_path, "cfg.json", doc)
        with deadline(10.0):
            assert main([command, "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, doc, flags", [
        (command, {**LINEAR_CFG, "grid": "0:1:2", "n_samples": 10},
         ["--seed", seed])
        for command in ("estimate", "sweep", "sample-diag")
        for seed in ("-1", str(2 ** 64))] + [
        ("estimate", {**LINEAR_CFG, "n_trees": "abc"}, []),
        ("estimate", {**LINEAR_CFG, "T": "x"}, []),
        ("estimate", {**LINEAR_CFG, "x": "abc"}, []),
        ("estimate", {**LINEAR_CFG, "mark": "a"}, []),
        ("estimate", {**LINEAR_CFG, "budget": "x"}, []),
        ("estimate", {**LINEAR_CFG, "model": "nld", "d": "x"}, []),
        ("estimate", {**LINEAR_CFG, "model": "nld", "d": 2.5}, []),
        ("check", {"model": "linear-test", "p": "x"}, []),
        ("sample-diag", {"n_samples": "x"}, []),
        ("estimate", {**LINEAR_CFG,
                      "model": {**_INLINE, "indices": [[1.5]]}}, []),
        ("estimate", {**LINEAR_CFG, "model": {**_INLINE, "q": ["1"]}}, []),
    ], ids=[f"{command}-seed{seed}"
            for command in ("estimate", "sweep", "sample-diag")
            for seed in ("-1", "2^64")] + [
        "n_trees", "T", "x", "mark", "budget", "d", "d-fraction", "check-p",
        "n_samples", "inline-index-fraction", "inline-q-string"])
    def test_bad_value_is_typed(self, tmp_path, capsys, command, doc, flags):
        cfg = _write_cfg(tmp_path, "cfg.json", doc)
        assert main([command, "--config", cfg] + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(_TYPED_EXITS[EXIT_CONFIG])
        assert "Traceback" not in err

    def test_non_string_out(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "cfg.json", {**LINEAR_CFG, "out": 5})
        assert main(["estimate", "--config", cfg]) == EXIT_CONFIG
        assert "out must be a file path" in capsys.readouterr().err


class TestResultRoundTrip:
    def test_dict_round_trip(self):
        res = EstimatorResult(mean=1.5, stderr=0.01, ci95=(1.48, 1.52),
                              n_trees=1000, elapsed=0.5,
                              mean_tree_size=3.2, max_tree_size=17,
                              zero_frac=0.25, generations=9, cms_resamples=2)
        doc = result_to_dict(res)
        assert isinstance(doc["ci95"], list)
        assert (doc["generations"], doc["cms_resamples"]) == (9, 2)
        assert json.loads(json.dumps(doc)) == doc


# The stderr line each documented non-zero exit code of a sweep starts with
_TYPED_EXITS = {EXIT_BUDGET: ("budget exceeded after ",),
                EXIT_CONFIG: ("configuration error:", "error:"),
                EXIT_OVERFLOW: ("product overflow:",)}
_EXPRESSIONS = ("1", "cos(x1)", "exp(-t) * sin(x1)", "pospart(1 - norm2())",
                "indicator_box(-1, 1)", "phi_bump(1, 1.5)")


@st.composite
def _inline_models(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(0, d))
    n_cat = draw(st.integers(1, 3))
    indices = draw(st.lists(st.lists(st.integers(0, 2), min_size=m + 1,
                                     max_size=m + 1),
                            min_size=n_cat, max_size=n_cat))
    coeffs = draw(st.lists(st.one_of(st.floats(-2.0, 2.0),
                                     st.sampled_from(_EXPRESSIONS)),
                           min_size=n_cat, max_size=n_cat))
    return {"d": d, "m": m, "indices": indices, "coeffs": coeffs,
            "coeff_sup": [abs(c) if isinstance(c, float) else 1.0
                          for c in coeffs],
            "terminal": {"expr": draw(st.sampled_from(_EXPRESSIONS)),
                         "sup": 1.0},
            "alpha": draw(st.floats(0.5, 2.0)),
            "kappa": draw(st.floats(0.5, 10.0)),
            "delta": draw(st.floats(0.2, 2.0))}


_CATALOG = st.fixed_dictionaries({
    "model": st.sampled_from(["nld", "gradd", "burgers-halfspace",
                              "burgers-cosine", "linear-test"]),
    "d": st.integers(1, 3), "alpha": st.floats(0.5, 2.0),
    "k": st.integers(0, 2),
    # nld and gradd refuse any kappa but 1
    "kappa": st.one_of(st.just(1.0), st.floats(0.5, 10.0)),
    "delta": st.floats(0.2, 2.0)})


class TestConfigSpace:
    @settings(max_examples=30, deadline=None)
    @given(model=st.one_of(_CATALOG,
                           st.fixed_dictionaries({"model": _inline_models()})),
           horizon=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
           lo=st.floats(-2.0, 2.0), width=st.floats(0.0, 3.0),
           steps=st.integers(1, 5), n_trees=st.integers(2, 2_000),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_sweep_ends_finite_or_typed(self, model, horizon, lo, width,
                                        steps, n_trees, seed, data, deadline):
        """Any sweep over catalog and inline models ends within 30 s, in
        exit 0 with finite numbers or in a documented exit code with its
        message."""
        d = model["model"]["d"] if "d" not in model else model["d"]
        mark = data.draw(st.integers(0, d + 1), label="mark")
        cfg = {**model, "t": 1.0 - horizon, "T": 1.0, "mark": mark,
               "grid": f"{lo}:{lo + width}:{steps}", "n_trees": n_trees,
               "seed": seed}
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            out = pathlib.Path(tmp) / "r.csv"
            err = io.StringIO()
            with deadline(30.0), contextlib.redirect_stderr(err):
                code = main(["sweep", "--config", str(path),
                             "--out", str(out)])
            event(f"exit {code}")
            if code == EXIT_OK:
                with open(out, newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                assert len(rows) == steps
                assert all(math.isfinite(float(v))
                           for row in rows for v in row.values())
            else:
                assert code in _TYPED_EXITS, err.getvalue()
                assert err.getvalue().startswith(_TYPED_EXITS[code])
                assert not out.exists()
