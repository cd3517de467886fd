"""Benchmark of the branchpde solver: one workload per invocation.

    python3 bench/run.py --workload nld10-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the run
repeats the workload's set-up and tree phase for about ``--seconds`` seconds,
checks every output and reports the end-to-end metrics as medians over the
repetitions.  With ``--trace 1`` it alternates untraced and traced runs of
the tree phase on one seed, checks that the traced estimates are
bit-identical, and reports the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every correctness
gate passed.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

SETUP_REPS = 36     # set-ups per timed run; setup_s is their median
TRACED_SETUPS = 3   # traced set-ups; model.build_s and existence.check_s
MIN_REPS = 3        # tree-phase repetitions per timed run, at the least


def rep_seed(seed: int, index: int) -> int:
    """Master seed of repetition ``index`` of a run started with ``seed``."""
    return seed * 1000 + index


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _import_package():
    """Import branchpde from this checkout's src directory, or fail."""
    if not (SRC / "branchpde" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import branchpde
    if SRC not in Path(branchpde.__file__).resolve().parents:
        raise SystemExit(f"error: branchpde imported from {branchpde.__file__}")


class Run:
    """Everything one invocation measured, for the report and the record."""

    def __init__(self, workload):
        self.workload = workload
        self.reps = []
        self.errors = []
        self.metrics = {}
        self.units = {}
        self.notes = {}
        self.tracer = None

    def add(self, name, value, unit, note=""):
        self.metrics[name] = value
        self.units[name] = unit
        if note:
            self.notes[name] = note

    @property
    def attempted(self):
        return sum(r.attempted for r in self.reps)

    @property
    def failed(self):
        return sum(r.failed for r in self.reps)


def timed_run(workload, seed: int, seconds: float) -> Run:
    """Repeat set-up and tree phase untraced; end-to-end metrics."""
    from workloads import peak_rss_mb

    run = Run(workload)
    start = time.perf_counter()
    setups, rep_times = [], []
    while True:
        # spread the set-ups over the run, so they sample the same host
        # conditions as the tree phase rather than its first second
        due = SETUP_REPS * min(1.0, (time.perf_counter() - start) / seconds)
        while not setups or len(setups) < due:
            setups.append(workload.setup())
        began = time.perf_counter()
        rep = workload.run(rep_seed(seed, len(run.reps)))
        run.errors += workload.check(rep)
        run.reps.append(rep)
        rep_times.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if (len(run.reps) >= MIN_REPS
                and elapsed + statistics.median(rep_times) > seconds):
            break
    while len(setups) < SETUP_REPS:
        setups.append(workload.setup())

    done = [r for r in run.reps if r.trees]
    whole = [r for r in done if r.estimates and not r.failed]
    n = len(run.reps)
    run.add("setup_s", _median(setups), "s", f"median of {len(setups)}")
    run.add("trees_per_s", _median(r.trees / r.wall_s for r in done),
            "trees/s", f"median of {len(done)} of {n} reps")
    run.add("cpu_s", _median(r.cpu_s for r in done), "s",
            "tree phase, process + pool workers, median per rep")
    run.add("wnv", _median(workload.wnv(r) for r in whole), "u2.s",
            "mean stderr^2 x cpu_s, median per rep")
    run.add("peak_rss_mb", peak_rss_mb(), "MB",
            "process + largest reaped worker")
    run.add("failed_frac", run.failed / run.attempted, "ratio",
            f"{run.failed} of {run.attempted} estimates")
    return run


def traced_run(workload, seed: int, seconds: float) -> Run:
    """Untraced and traced repetitions of one seed; per-layer metrics."""
    from tracer import Tracer

    run = Run(workload)
    start = time.perf_counter()
    tracer = run.tracer = Tracer(f"{workload.name}-seed{seed}-{time.time_ns()}")
    with tracer.installed():
        setup_roots = []
        for _ in range(TRACED_SETUPS):
            with tracer.span("phase.setup") as sid:
                workload.setup(tracer)
            setup_roots.append(sid)

    # alternate untraced and traced repetitions of one seed at workers 1, so
    # the overhead ratio compares warm runs and every output can be compared
    seed0 = rep_seed(seed, 0)
    untraced, per_rep = [], []
    pool_runs = 1 if workload.workers > 1 else 0
    while True:
        began = time.perf_counter()
        ref = workload.run(seed0, workers=1)
        run.errors += workload.check(ref)
        counts_before = Counter(tracer.counts)
        results_before = len(tracer.results)
        with tracer.installed():
            with tracer.span("phase.trees") as sid:
                rep = workload.run(seed0, workers=1, tracer=tracer)
        if untraced and ref.output != untraced[0].output:
            run.errors.append("untraced repetitions of one seed differ")
        if rep.output != ref.output:
            run.errors.append("traced estimates differ from untraced ones")
        run.reps += [ref, rep]
        untraced.append(ref)
        per_rep.append((sid, rep, tracer.counts - counts_before,
                        tracer.results[results_before:]))
        pair = time.perf_counter() - began
        if time.perf_counter() - start + pair * (1 + pool_runs) > seconds:
            break

    pool_counts, pool_total = Counter(), {}
    if pool_runs:
        before = Counter(tracer.counts)
        with tracer.installed(stages=False, pool=True):
            with tracer.span("phase.pool") as sid:
                rep = workload.run(seed0, tracer=tracer)
        run.reps.append(rep)
        if rep.output != ref.output:
            run.errors.append(f"workers {workload.workers} traced estimates "
                              "differ from the untraced workers 1 ones")
        pool_counts = tracer.counts - before
        pool_total = tracer.layer_times(sid)[0]

    WORK_DIR.mkdir(exist_ok=True)
    tracer.dump(WORK_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    _layer_metrics(run, tracer, setup_roots, per_rep, untraced, pool_counts,
                   pool_total)
    return run


def _layer_metrics(run, tracer, setup_roots, per_rep, untraced, pool_counts,
                   pool_total):
    setup = [tracer.layer_times(sid)[0] for sid in setup_roots]
    run.add("model.build_s", _median(t["model.build"] for t in setup), "s",
            "set-up")
    run.add("existence.check_s", _median(t["existence.check"] for t in setup),
            "s", "set-up")

    layers = [(tracer.layer_times(sid), rep, counts, results)
              for sid, rep, counts, results in per_rep]
    _, _, counts, results = layers[0]

    def total(name):
        return _median(lt[0][name] for lt, _, _, _ in layers)

    def self_time(name):
        return _median(lt[1][name] for lt, _, _, _ in layers)

    trees = sum(r.n_trees for _, r in results)
    run.add("engine.self_s", self_time("engine.estimate"), "s",
            "estimate spans minus their child spans")
    run.add("engine.estimate_calls", len(results), "count")
    run.add("engine.batches", counts["engine.batches"], "count")
    run.add("engine.trees", trees, "count")
    run.add("engine.particles",
            sum(round(r.mean_tree_size * r.n_trees) for _, r in results),
            "count")
    run.add("engine.levels", counts["engine.levels"], "count",
            "level-loop iterations, one gamma draw each")
    run.add("engine.pool_starts", pool_counts["engine.pool_starts"], "count",
            "parent side, workers as configured")
    run.add("engine.pool_wait_s", pool_total.get("engine.pool", 0.0), "s",
            "pool start + map + shutdown, parent side")
    run.add("engine.draws_per_tree_point",
            counts["engine.variates"] / trees if trees else 0.0,
            "draws/tree", "random variates / (trees x grid points x marks)")
    for stage in ("gamma", "normal", "uniform", "cms"):
        run.add(f"sampling.{stage}_s", total(f"sampling.{stage}"), "s")
    for name in ("cms_draws", "cms_resamples", "normal_draws"):
        run.add(f"sampling.{name}", counts[f"sampling.{name}"], "count")
    run.add("specfun.psi_s", total("specfun.psi"), "s")
    for name in ("psi_points", "psi_exterior_points", "psi_near_one_points"):
        run.add(f"specfun.{name}", counts[f"specfun.{name}"], "count")
    run.add("specfun.survival_s", total("specfun.survival"), "s")
    run.add("specfun.phi_bump_s", total("specfun.phi_bump"), "s")
    run.add("model.coeff_s", total("model.coeff"), "s", "inclusive")
    run.add("model.terminal_s", total("model.terminal"), "s", "inclusive")
    run.add("model.rho_s", total("model.rho"), "s")
    run.add("expressions.eval_s", total("expressions.eval"), "s")
    run.add("expressions.points", counts["expressions.points"], "count")
    run.add("cli.self_s", self_time("cli.main"), "s",
            "cli.main minus engine and model spans")
    for mark in range(3):
        stderrs = [e[3] for e in untraced[0].estimates if e[0] == mark]
        run.add(f"estimator.stderr_m{mark}", _median(stderrs) or 0.0, "u",
                "median over the workload's estimates; 0 when none")
    traced_wall = _median(rep.wall_s for _, rep, _, _ in layers)
    untraced_wall = _median(rep.wall_s for rep in untraced)
    run.add("trace.overhead_ratio", traced_wall / untraced_wall, "ratio",
            "traced / untraced tree-phase wall time, workers 1")


def _report(run, args, path):
    print(f"workload={run.workload.name} seed={args.seed} trace={args.trace} "
          f"reps={len(run.reps)} (repetition r uses master seed "
          f"{rep_seed(args.seed, 0)} + r)")
    for name, value in run.metrics.items():
        note = f"  ({run.notes[name]})" if name in run.notes else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>12} {run.units[name]}{note}")
    for error in run.errors[:20]:
        print(f"  GATE FAILED: {error}")
    print(f"  gates: {'ok' if not run.errors else 'FAILED'}; record: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](WORK_DIR)
    if workload.workers > 1:
        # the pool's workers share the parent's one CPU, so wall time counts
        # their start-up and work, not how many cores the host grants now
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    measure = traced_run if args.trace else timed_run
    run = measure(workload, args.seed, args.seconds)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["per_layer" if args.trace
                                          else "end_to_end"]]
    metrics = {name: {"value": run.metrics[name], "unit": run.units[name]}
               for name in wanted}
    record = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": run.metrics, "units": run.units, "errors": run.errors,
        "reps": [{"seed": r.seed, "trees": r.trees, "wall_s": r.wall_s,
                  "cpu_s": r.cpu_s, "attempted": r.attempted,
                  "failed": r.failed} for r in run.reps]}, indent=1))
    _report(run, args, record.relative_to(ROOT))
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
