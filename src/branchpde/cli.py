"""Batch front-end: estimate / sweep / check / sample-diag.

Runs are described by a JSON config document; command-line flags override
config fields, and the BRANCHPDE_THREADS environment variable overrides the
worker count.  Numeric CSV output uses shortest round-trip decimals and never
includes wall-clock times, so identical configs and seeds produce
byte-identical files for any worker count.

Exit codes: 0 success (or certified), 2 budget abort, 3 configuration error,
4 uncertified horizon check, 5 tree product overflow.  Every output file is
written whole through a temporary file in its directory and then renamed
into place, so a run that fails leaves an earlier file at the same path as
it was.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .bernstein import ScaledStable
from .engine import (DEFAULT_BUDGET, EstimatorResult, Grid, TreeBudget,
                     estimate, resolve_workers)
from .errors import (AdmissibilityError, BranchPdeError, BudgetExceededError,
                     ConfigError, ProductOverflowError, UnknownModelError)
from .existence import build_horizon_report
from .model import (BranchingLaw, ConstantCoefficient, ExpressionCoefficient,
                    ExpressionTerminal, LifetimeDensity, PdeModel,
                    PolynomialNonlinearity, TerminalCondition,
                    audit_coeff_sup, builtin_model)
from .sampling import RngStream, sample_stable_subordinator

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_CONFIG = 3
EXIT_UNCERTIFIED = 4
EXIT_OVERFLOW = 5


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_file(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it to
    ``path``: the file at ``path`` is either the old one or all of ``text``.
    Raises ConfigError if it cannot be written."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)      # gone already once it is renamed
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_out(path) -> None:
    """Raise ConfigError unless output ``path`` is a string whose directory
    exists and is writable, so that a run fails before it computes
    anything."""
    if path is None:
        return
    if not isinstance(path, str):
        raise ConfigError(f"out must be a file path, got {path!r}")
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory)
            and os.access(directory, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write {path}: {directory} is not a "
                          "writable directory")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_file(path, text)


def result_to_dict(res: EstimatorResult) -> dict:
    out = dataclasses.asdict(res)
    out["ci95"] = list(out["ci95"])
    return out


# --------------------------------------------------------------------------
# Config handling
# --------------------------------------------------------------------------


def _number(value, name: str, kind=float):
    """Config value ``value`` of field ``name`` as ``kind`` (float or int).
    Raises ConfigError unless it is a JSON number, and a whole one for an
    int."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and isinstance(value, float)
            and not value.is_integer()):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    return kind(value)


def load_config(path: str, overrides) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if overrides.seed is not None:
        cfg["seed"] = overrides.seed
    if overrides.n_trees is not None:
        cfg["n_trees"] = overrides.n_trees
    if overrides.workers is not None:
        cfg["workers"] = overrides.workers
    if overrides.out is not None:
        cfg["out"] = overrides.out
    if overrides.strict:
        cfg["strict"] = True
    return cfg


def _build_inline_model(spec: dict) -> PdeModel:
    try:
        d = _number(spec["d"], "d", int)
        m = _number(spec.get("m", 0), "m", int)
        indices = tuple(tuple(_number(v, "indices", int) for v in l)
                        for l in spec["indices"])
        coeffs = []
        for c in spec["coeffs"]:
            if isinstance(c, (int, float)):
                coeffs.append(ConstantCoefficient(float(c)))
            else:
                coeffs.append(ExpressionCoefficient(src=str(c), d=d))
        sups = tuple(_number(v, "coeff_sup") for v in spec["coeff_sup"])
        term = spec["terminal"]
        terminal = TerminalCondition(
            phi=ExpressionTerminal(src=str(term["expr"]), d=d),
            sup_norm=_number(term["sup"], "sup"),
            lipschitz=None if term.get("lipschitz") is None
            else _number(term["lipschitz"], "lipschitz"))
        n_cat = len(indices)
        probs = tuple(_number(v, "q") for v in spec.get(
            "q", [1.0 / n_cat] * n_cat))
        nonlin = PolynomialNonlinearity(d=d, m=m, indices=indices,
                                        coeffs=tuple(coeffs), coeff_sup=sups)
        return PdeModel(name=str(spec.get("name", "inline")), d=d,
                        alpha=_number(spec.get("alpha", 1.5), "alpha"),
                        kappa=_number(spec.get("kappa", 1.0), "kappa"),
                        nonlinearity=nonlin, terminal=terminal,
                        branching=BranchingLaw(probs=probs),
                        lifetime=LifetimeDensity(
                            delta=_number(spec.get("delta", 0.5), "delta")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid inline model: {exc}") from exc


def resolve_model(cfg: dict) -> PdeModel:
    spec = cfg.get("model")
    if spec is None:
        raise ConfigError("config must name a model or define one inline")
    if isinstance(spec, dict):
        return _build_inline_model(spec)
    defaults = {"d": 1, "alpha": 1.5, "k": 0, "kappa": 1.0, "c": 1.0,
                "T": 1.0, "delta": 0.5}
    return builtin_model(str(spec), **{
        name: _number(cfg.get(name, value), name, type(value))
        for name, value in defaults.items()})


def _horizon_report(cfg: dict, model: PdeModel, T: float):
    """The horizon report of ``model`` at the config's p and at ``T``.  An
    inline model's coefficients are sampled too: a declared coeff_sup that
    the samples exceed makes the report uncertified, with a note."""
    p = _number(cfg.get("p", 2.0), "p")
    eta = ScaledStable(alpha=model.alpha, kappa=model.kappa)
    report = build_horizon_report(model, eta, p, T,
                                  paper_literal=bool(cfg.get("paper_literal")))
    # catalog sups come from scans of the coefficients; inline ones are
    # declared
    violated = (audit_coeff_sup(model, T)
                if isinstance(cfg["model"], dict) else ())
    if violated:
        report = dataclasses.replace(report, verdict="uncertified",
                                     notes=report.notes + violated)
    return report


def _read_run(cfg: dict):
    """An estimate or sweep config's model, t and x, and the arguments of
    ``estimate`` that follow x: (mark, T, n_trees) and the keywords.  None
    when strict mode refuses to run."""
    model = resolve_model(cfg)
    T = _number(cfg.get("T", 1.0), "T")
    t = _number(cfg.get("t", 0.0), "t")
    if not 0.0 <= t <= T:
        raise ConfigError(f"require 0 <= t <= T, got t={t}, T={T}")
    n_trees = _number(cfg.get("n_trees", 100_000), "n_trees", int)
    if n_trees < 2:
        raise ConfigError("n_trees must be >= 2")
    seed = _number(cfg.get("seed", 0), "seed", int)
    workers = resolve_workers(_number(cfg.get("workers", 1), "workers", int))
    b = cfg.get("budget", {})
    if not isinstance(b, dict):
        raise ConfigError(f"budget must be an object, got {b!r}")
    budget = TreeBudget(**{
        name: _number(b.get(name, getattr(DEFAULT_BUDGET, name)),
                      f"budget.{name}", int)
        for name in ("max_particles", "max_generation")})
    x = cfg.get("x", [0.0] * model.d)
    x = np.array([_number(v, "x")
                  for v in (x if isinstance(x, list) else [x])])
    if x.size == 1 and model.d > 1:
        x = np.full(model.d, float(x[0]))
    if x.size != model.d:
        raise ConfigError(f"x must have {model.d} coordinates")
    mark = _number(cfg.get("mark", 0), "mark", int)
    if cfg.get("strict"):
        report = _horizon_report(cfg, model, T)
        if report.verdict == "uncertified":
            print(f"horizon check uncertified at p={report.p}; refusing to "
                  "run (strict mode)", file=sys.stderr)
            return None
    return (model, t, x, (mark, T, n_trees),
            {"master_seed": seed, "workers": workers, "budget": budget})


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

_EST_HEADER = ("mean", "stderr", "ci_lo", "ci_hi", "n", "mean_tree_size",
               "max_tree_size")


def _estimate_row(res: EstimatorResult):
    return (res.mean, res.stderr, res.ci95[0], res.ci95[1], res.n_trees,
            res.mean_tree_size, res.max_tree_size)


def cmd_estimate(cfg: dict) -> int:
    run = _read_run(cfg)
    if run is None:
        return EXIT_UNCERTIFIED
    model, t, x, args, kwargs = run
    res = estimate(model, t, x, *args, **kwargs)
    out = cfg.get("out")
    _write_csv(out, _EST_HEADER, [_estimate_row(res)])
    doc = json.dumps(result_to_dict(res), indent=2)
    if out is None:
        print(doc)
    else:
        _write_file(str(out) + ".json", doc + "\n")
    return EXIT_OK


def _parse_grid(spec) -> np.ndarray:
    try:
        lo, hi, steps = str(spec).split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except (ValueError, AttributeError) as exc:
        raise ConfigError(f"grid must be lo:hi:steps, got {spec!r}") from exc
    if steps < 1 or hi < lo:
        raise ConfigError(f"invalid grid {spec!r}")
    return np.linspace(lo, hi, steps)


def cmd_sweep(cfg: dict) -> int:
    run = _read_run(cfg)
    if run is None:
        return EXIT_UNCERTIFIED
    model, t, x, args, kwargs = run
    x1s = _parse_grid(cfg.get("grid", "-1.5:1.5:61"))
    points = np.tile(x, (x1s.size, 1))
    points[:, 0] = x1s
    grid = Grid(points)
    rows = []
    # one call per point, in grid order: bench/workloads.py counts them
    for point in points:
        res = estimate(model, t, point, *args, **kwargs, grid=grid)
        rows.append((float(point[0]),) + _estimate_row(res)[:5])
    _write_csv(cfg.get("out"), ("x1",) + _EST_HEADER[:5], rows)
    return EXIT_OK


def cmd_check(cfg: dict) -> int:
    model = resolve_model(cfg)
    T = _number(cfg.get("T", 1.0), "T")
    report = _horizon_report(cfg, model, T)
    doc = dataclasses.asdict(report)
    doc["notes"] = list(doc["notes"])
    text = json.dumps(doc, indent=2)
    out = cfg.get("out")
    if out is None:
        print(text)
    else:
        _write_file(out, text + "\n")
    print(f"model={model.name} p={report.p} T={T}: {report.verdict} "
          f"(C_circ={report.C_circ:.4g}, "
          f"C_partial_ratio={report.C_partial_ratio:.4g}, "
          f"t3b_bound={report.t3b_bound:.4g})", file=sys.stderr)
    return EXIT_OK if report.verdict != "uncertified" else EXIT_UNCERTIFIED


def cmd_sample_diag(cfg: dict) -> int:
    alpha = _number(cfg.get("alpha", 1.5), "alpha")
    t = _number(cfg.get("t", 1.0), "t")
    n = _number(cfg.get("n_samples", cfg.get("n_trees", 100_000)),
                "n_samples", int)
    if not (0.0 < alpha <= 2.0 and 0.0 < t < math.inf and n >= 1):
        raise ConfigError("sample-diag needs alpha in (0,2], finite t > 0, "
                          "n >= 1")
    seed = _number(cfg.get("seed", 0), "seed", int)
    rng = RngStream(seed, 0)
    samples = sample_stable_subordinator(alpha, t, rng, size=n)
    out = cfg.get("out")
    _write_csv(out, ("sample",), [(float(s),) for s in samples])
    lines = []
    if n < 1000:
        lines.append("insufficient n for Laplace-transform test (need >= 1000)")
    else:
        for lam in (0.5, 1.0, 2.0):
            vals = np.exp(-lam * samples)
            emp = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(n))
            exact = math.exp(-t * (2.0 * lam) ** (alpha / 2.0))
            ok = abs(emp - exact) < 4.0 * se if se > 0 else emp == exact
            lines.append(f"lambda={lam}: empirical={emp:.6f} exact={exact:.6f} "
                         f"stderr={se:.2e} {'ok' if ok else 'MISMATCH'}")
    print("\n".join(lines), file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchpde",
        description="Monte Carlo branching-tree solver for nonlocal "
                    "semilinear parabolic PDEs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("estimate", "sweep", "check", "sample-diag"):
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True)
        cp.add_argument("--seed", type=int)
        cp.add_argument("--n-trees", type=int, dest="n_trees")
        cp.add_argument("--workers", type=int)
        cp.add_argument("--strict", action="store_true")
        cp.add_argument("--out")
    return parser


_COMMANDS = {"estimate": cmd_estimate, "sweep": cmd_sweep, "check": cmd_check,
             "sample-diag": cmd_sample_diag}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        _check_out(cfg.get("out"))
        return _COMMANDS[args.command](cfg)
    except BudgetExceededError as exc:
        print(f"budget exceeded after {exc.completed_trees} trees: {exc}",
              file=sys.stderr)
        return EXIT_BUDGET
    except ProductOverflowError as exc:
        print(f"product overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (ConfigError, UnknownModelError, AdmissibilityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BranchPdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
