"""Batch front-end: estimate / sweep / check / sample-diag.

Runs are described by a JSON config document; command-line flags override
config fields, and the BRANCHPDE_THREADS environment variable overrides the
worker count.  Numeric CSV output uses shortest round-trip decimals and never
includes wall-clock times, so identical configs and seeds produce
byte-identical files for any worker count.

Exit codes: 0 success (or certified), 2 budget abort, 3 configuration error,
4 uncertified horizon check.
"""

from __future__ import annotations

import argparse
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
                     ConfigError, UnknownModelError)
from .existence import build_horizon_report
from .model import (BranchingLaw, ConstantCoefficient, ExpressionCoefficient,
                    ExpressionTerminal, LifetimeDensity, PdeModel,
                    PolynomialNonlinearity, TerminalCondition, builtin_model)
from .sampling import RngStream, sample_stable_subordinator

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_CONFIG = 3
EXIT_UNCERTIFIED = 4


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def result_to_dict(res: EstimatorResult) -> dict:
    out = dataclasses.asdict(res)
    out["ci95"] = list(out["ci95"])
    return out


def dict_to_result(doc: dict) -> EstimatorResult:
    doc = dict(doc)
    doc["ci95"] = tuple(doc["ci95"])
    return EstimatorResult(**doc)


# --------------------------------------------------------------------------
# Config handling
# --------------------------------------------------------------------------


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
        d = int(spec["d"])
        m = int(spec.get("m", 0))
        indices = tuple(tuple(int(v) for v in l) for l in spec["indices"])
        coeffs = []
        for c in spec["coeffs"]:
            if isinstance(c, (int, float)):
                coeffs.append(ConstantCoefficient(float(c)))
            else:
                coeffs.append(ExpressionCoefficient(src=str(c), d=d))
        sups = tuple(float(v) for v in spec["coeff_sup"])
        term = spec["terminal"]
        terminal = TerminalCondition(
            phi=ExpressionTerminal(src=str(term["expr"]), d=d),
            sup_norm=float(term["sup"]),
            lipschitz=None if term.get("lipschitz") is None
            else float(term["lipschitz"]))
        n_cat = len(indices)
        probs = tuple(float(v) for v in spec.get(
            "q", [1.0 / n_cat] * n_cat))
        nonlin = PolynomialNonlinearity(d=d, m=m, indices=indices,
                                        coeffs=tuple(coeffs), coeff_sup=sups)
        return PdeModel(name=str(spec.get("name", "inline")), d=d,
                        alpha=float(spec.get("alpha", 1.5)),
                        kappa=float(spec.get("kappa", 1.0)),
                        nonlinearity=nonlin, terminal=terminal,
                        branching=BranchingLaw(probs=probs),
                        lifetime=LifetimeDensity(
                            delta=float(spec.get("delta", 0.5))))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid inline model: {exc}") from exc


def resolve_model(cfg: dict) -> PdeModel:
    spec = cfg.get("model")
    if spec is None:
        raise ConfigError("config must name a model or define one inline")
    if isinstance(spec, dict):
        return _build_inline_model(spec)
    return builtin_model(str(spec),
                         d=int(cfg.get("d", 1)),
                         alpha=float(cfg.get("alpha", 1.5)),
                         k=int(cfg.get("k", 0)),
                         kappa=float(cfg.get("kappa", 1.0)),
                         c=float(cfg.get("c", 1.0)),
                         T=float(cfg.get("T", 1.0)),
                         delta=float(cfg.get("delta", 0.5)))


def _common_run_params(cfg: dict, model: PdeModel):
    T = float(cfg.get("T", 1.0))
    t = float(cfg.get("t", 0.0))
    if not 0.0 <= t <= T:
        raise ConfigError(f"require 0 <= t <= T, got t={t}, T={T}")
    n_trees = int(cfg.get("n_trees", 100_000))
    if n_trees < 2:
        raise ConfigError("n_trees must be >= 2")
    seed = int(cfg.get("seed", 0))
    workers = resolve_workers(int(cfg.get("workers", 1)))
    b = cfg.get("budget", {})
    budget = TreeBudget(
        max_particles=int(b.get("max_particles", DEFAULT_BUDGET.max_particles)),
        max_generation=int(b.get("max_generation", DEFAULT_BUDGET.max_generation)))
    x = np.asarray(cfg.get("x", [0.0] * model.d), dtype=float).reshape(-1)
    if x.size == 1 and model.d > 1:
        x = np.full(model.d, float(x[0]))
    if x.size != model.d:
        raise ConfigError(f"x must have {model.d} coordinates")
    return T, t, n_trees, seed, workers, budget, x


def _strict_gate(cfg: dict, model: PdeModel) -> bool:
    """With "strict" set, refuse to run when the horizon check fails."""
    if not cfg.get("strict"):
        return True
    p = float(cfg.get("p", 2.0))
    eta = ScaledStable(alpha=model.alpha, kappa=model.kappa)
    report = build_horizon_report(model, eta, p, float(cfg.get("T", 1.0)),
                                  paper_literal=bool(cfg.get("paper_literal")))
    if report.verdict == "uncertified":
        print(f"horizon check uncertified at p={p}; refusing to run "
              "(strict mode)", file=sys.stderr)
        return False
    return True


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

_EST_HEADER = ("mean", "stderr", "ci_lo", "ci_hi", "n", "mean_tree_size",
               "max_tree_size")


def _estimate_row(res: EstimatorResult):
    return (res.mean, res.stderr, res.ci95[0], res.ci95[1], res.n_trees,
            res.mean_tree_size, res.max_tree_size)


def cmd_estimate(cfg: dict) -> int:
    model = resolve_model(cfg)
    T, t, n_trees, seed, workers, budget, x = _common_run_params(cfg, model)
    if not _strict_gate(cfg, model):
        return EXIT_UNCERTIFIED
    mark = int(cfg.get("mark", 0))
    res = estimate(model, t, x, mark, T, n_trees, master_seed=seed,
                   workers=workers, budget=budget)
    out = cfg.get("out")
    _write_csv(out, _EST_HEADER, [_estimate_row(res)])
    doc = json.dumps(result_to_dict(res), indent=2)
    if out is None:
        print(doc)
    else:
        with open(str(out) + ".json", "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
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
    model = resolve_model(cfg)
    T, t, n_trees, seed, workers, budget, x = _common_run_params(cfg, model)
    if not _strict_gate(cfg, model):
        return EXIT_UNCERTIFIED
    mark = int(cfg.get("mark", 0))
    x1s = _parse_grid(cfg.get("grid", "-1.5:1.5:61"))
    points = np.tile(x, (x1s.size, 1))
    points[:, 0] = x1s
    shared = Grid(points)
    out = cfg.get("out")
    rows = []
    try:
        # one call per point; the first grows the trees for all of them
        for point in points:
            res = estimate(model, t, point, mark, T, n_trees, master_seed=seed,
                           workers=workers, budget=budget, grid=shared)
            rows.append((float(point[0]),) + _estimate_row(res)[:5])
    except BudgetExceededError:
        if out is not None and os.path.exists(out):
            os.remove(out)
        raise
    _write_csv(out, ("x1",) + _EST_HEADER[:5], rows)
    return EXIT_OK


def cmd_check(cfg: dict) -> int:
    model = resolve_model(cfg)
    p = float(cfg.get("p", 2.0))
    T = float(cfg.get("T", 1.0))
    m0 = cfg.get("m0")
    eta = ScaledStable(alpha=model.alpha, kappa=model.kappa)
    report = build_horizon_report(model, eta, p, T,
                                  m0=None if m0 is None else int(m0),
                                  paper_literal=bool(cfg.get("paper_literal")))
    doc = dataclasses.asdict(report)
    doc["notes"] = list(doc["notes"])
    text = json.dumps(doc, indent=2)
    out = cfg.get("out")
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"model={model.name} p={p} T={T}: {report.verdict} "
          f"(C_circ={report.C_circ:.4g}, "
          f"C_partial_ratio={report.C_partial_ratio:.4g}, "
          f"t3b_bound={report.t3b_bound:.4g})", file=sys.stderr)
    return EXIT_OK if report.verdict != "uncertified" else EXIT_UNCERTIFIED


def cmd_sample_diag(cfg: dict) -> int:
    alpha = float(cfg.get("alpha", 1.5))
    t = float(cfg.get("t", 1.0))
    n = int(cfg.get("n_samples", cfg.get("n_trees", 100_000)))
    if not 0.0 < alpha <= 2.0 or t <= 0.0 or n < 1:
        raise ConfigError("sample-diag needs alpha in (0,2], t > 0, n >= 1")
    seed = int(cfg.get("seed", 0))
    rng = RngStream(seed, 0)
    samples = np.atleast_1d(sample_stable_subordinator(alpha, t, rng, size=n))
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
        return _COMMANDS[args.command](cfg)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, UnknownModelError, AdmissibilityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BranchPdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
