"""Marked branching-tree estimator for u(t,x) and its first derivatives.

Each tree starts from one root particle carrying a mark theta in {0,...,d}
(0 for the solution, i >= 1 for du/dx_i).  Particles live for gamma lifetimes;
a particle whose death would pass the horizon T becomes a leaf and contributes

    (phi(X_T) - 1{theta != 0} phi(X_birth)) * W / survival(T - birth),

while an interior particle draws an offspring multi-index l with probability
q_l and contributes

    c_l(death, X_death) * W / (q_l * rho(lifetime)),

then spawns |l| children whose marks follow the block layout (first l_0
children carry mark 0, the next l_1 carry mark 1, ...).  W is 1 for mark 0 and
(displacement component theta) / (subordinator increment) otherwise.  The tree
value H is the product of all factors, and u(t,x) = E[H].

Growth is level-synchronous and vectorized over a whole batch of trees;
per-tree products are accumulated as (sign, log|.|) pairs via bincount.
Randomness is drawn from one stream per fixed-size batch, so estimates are
bit-identical for any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceededError, DegenerateDerivativeError,
                     DomainError)
from .model import PdeModel
from .sampling import (RngStream, sample_lifetime, sample_offspring,
                       sample_stable_subordinator)

BATCH_TREES = 25_000
_MARK_SHIFT = 40  # stream_id = (mark << 40) | batch_index


@dataclass(frozen=True)
class TreeBudget:
    max_particles: int = 1_000_000
    max_generation: int = 10_000

    def __post_init__(self):
        if self.max_particles < 1 or self.max_generation < 1:
            raise DomainError("budget limits must be positive")


DEFAULT_BUDGET = TreeBudget()


@dataclass(frozen=True)
class TreeOutcome:
    h_value: float
    particles_total: int
    leaves: int
    max_gen: int


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    stderr: float
    ci95: tuple
    n_trees: int
    elapsed: float
    mean_tree_size: float
    max_tree_size: int


@dataclass(frozen=True)
class _BatchStats:
    n: int
    mean: float
    m2: float
    sum_particles: int
    max_particles: int


def sample_subordinated_increment(d: int, alpha: float, kappa: float, dt,
                                  rng: RngStream, size=None):
    """One move (ds, dx) of the subordinated Brownian motion over kappa*Delta_alpha.

    ds = kappa^(2/alpha) dt^(2/alpha) S(alpha, 1), by the scale invariance of
    the stable subordinator (deterministic 2*kappa*dt at alpha = 2), and
    dx = sqrt(ds) N(0, I_d).  ``dt`` may be an array matching ``size``; with
    ``size=None`` ds is a float and dx has shape (d,), else (size,) and
    (size, d).  dx_theta / ds is the derivative weight W of mark theta.
    """
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    if kappa <= 0.0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    n = 1 if size is None else size
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt >= 0.0):
        raise DomainError("dt must be non-negative")
    if alpha == 2.0:
        ds = 2.0 * kappa * np.broadcast_to(dt, n)
    else:
        unit = sample_stable_subordinator(alpha, 1.0, rng, size=n)
        ds = kappa ** (2.0 / alpha) * dt ** (2.0 / alpha) * unit
    dx = np.sqrt(ds)[:, None] * rng.gen.standard_normal((n, d))
    if size is None:
        return float(ds[0]), dx[0]
    return ds, dx


def _offspring_patterns(model: PdeModel):
    """Per category: (children count, child-mark pattern per block layout)."""
    patterns = []
    for l in model.nonlinearity.indices:
        marks = []
        for mark, count in enumerate(l):
            marks.extend([mark] * count)
        patterns.append(np.array(marks, dtype=np.int64))
    return patterns


def _grow_batch(model: PdeModel, t: float, x: np.ndarray, root_mark: int,
                T: float, rng: RngStream, budget: TreeBudget,
                prune_dead: bool = True):
    """Grow a batch of independent trees level-synchronously.

    Returns (h, particles, leaves, max_gen) arrays of length n_batch; ``x`` is
    (n_batch, d).  Raises BudgetExceededError if any tree outgrows the budget.
    """
    n = x.shape[0]
    lifetime = model.lifetime
    nonlin = model.nonlinearity
    q_probs = np.asarray(model.branching.probs, dtype=float)
    patterns = _offspring_patterns(model)
    child_counts = np.array([p.size for p in patterns], dtype=np.int64)

    # per-tree accumulators
    log_abs = np.zeros(n)
    n_neg = np.zeros(n, dtype=np.int64)
    dead = np.zeros(n, dtype=bool)     # product hit an exact zero
    particles = np.ones(n, dtype=np.int64)
    leaves = np.zeros(n, dtype=np.int64)
    max_gen = np.ones(n, dtype=np.int64)

    # active particle state
    tree = np.arange(n, dtype=np.int64)
    marks = np.full(n, root_mark, dtype=np.int64)
    birth = np.full(n, float(t))
    pos = np.array(x, dtype=float, copy=True)

    gen = 1
    while tree.size:
        if gen > budget.max_generation or np.max(particles) > budget.max_particles:
            raise BudgetExceededError(
                "tree outgrew its budget; shrink T - t or raise the budget")

        tau = sample_lifetime(lifetime.delta, rng, size=tree.size)
        death = birth + tau
        leaf = death >= T
        ds, dx = sample_subordinated_increment(
            model.d, model.alpha, model.kappa, np.where(leaf, T - birth, tau),
            rng, size=tree.size)
        new_pos = pos + dx

        w = np.ones(tree.size)
        marked = marks > 0
        if np.any(marked):
            w[marked] = dx[marked, marks[marked] - 1] / ds[marked]

        factor = np.empty(tree.size)

        if np.any(leaf):
            lpos = new_pos[leaf]
            phi_end = np.asarray(model.terminal.phi(lpos), dtype=float)
            diff = phi_end.copy()
            lmarked = marked[leaf]
            if np.any(lmarked):
                phi_birth = np.asarray(model.terminal.phi(pos[leaf][lmarked]),
                                       dtype=float)
                diff[lmarked] = diff[lmarked] - phi_birth
            factor[leaf] = diff * w[leaf] / lifetime.survival(T - birth[leaf])
            leaves += np.bincount(tree[leaf], minlength=n)

        interior = ~leaf
        n_int = int(np.count_nonzero(interior))
        if n_int:
            cat = sample_offspring(model.branching, rng, size=n_int)
            idx_int = np.flatnonzero(interior)
            c_val = np.empty(n_int)
            for ci in range(len(patterns)):
                sel = cat == ci
                if np.any(sel):
                    rows = idx_int[sel]
                    c_val[sel] = nonlin.coeffs[ci](death[rows], new_pos[rows])
            factor[interior] = (c_val / (q_probs[cat] * lifetime.rho(tau[interior]))
                                * w[interior])

        # fold the factors into the per-tree running products
        zero = factor == 0.0
        if np.any(zero):
            dead[tree[zero]] = True
        nz = ~zero
        if np.any(nz):
            log_abs += np.bincount(tree[nz], weights=np.log(np.abs(factor[nz])),
                                   minlength=n)
            neg = nz & (factor < 0.0)
            if np.any(neg):
                n_neg += np.bincount(tree[neg], minlength=n)

        # spawn children of interior particles
        if n_int:
            counts = child_counts[cat]
            has_kids = counts > 0
            if np.any(has_kids):
                parent_rows = idx_int[has_kids]
                kid_counts = counts[has_kids]
                child_tree = np.repeat(tree[parent_rows], kid_counts)
                child_birth = np.repeat(death[parent_rows], kid_counts)
                child_pos = np.repeat(new_pos[parent_rows], kid_counts, axis=0)
                child_marks = np.concatenate(
                    [patterns[ci] for ci in cat[has_kids]])
                particles += np.bincount(child_tree, minlength=n)
                if prune_dead:
                    alive = ~dead[child_tree]
                    child_tree = child_tree[alive]
                    child_marks = child_marks[alive]
                    child_birth = child_birth[alive]
                    child_pos = child_pos[alive]
                tree = child_tree
                marks = child_marks
                birth = child_birth
                pos = child_pos
                if tree.size:
                    gen += 1
                    max_gen[tree] = gen
                continue
        break

    sign = np.where(n_neg % 2 == 0, 1.0, -1.0)
    h = np.where(dead, 0.0, sign * np.exp(log_abs))
    if not np.all(np.isfinite(h)):
        raise BudgetExceededError("tree product overflowed to non-finite")
    return h, particles, leaves, max_gen


def grow_tree(model: PdeModel, t: float, x, mark: int, T: float,
              rng: RngStream, budget: TreeBudget = DEFAULT_BUDGET,
              prune_dead: bool = True) -> TreeOutcome:
    """One unbiased sample of H_phi for a tree rooted at (t, x) with the
    given mark.

    ``prune_dead=False`` keeps growing branches of trees whose product already
    hit an exact zero, so particle counts reflect the full branching process.
    """
    _validate_point(model, t, x, mark, T)
    xa = np.atleast_2d(np.asarray(x, dtype=float))
    if t == T:
        return TreeOutcome(h_value=float(model.terminal.phi(xa)[0]),
                           particles_total=1, leaves=1, max_gen=1)
    h, particles, leaves, max_gen = _grow_batch(model, t, xa, mark, T, rng,
                                                budget, prune_dead=prune_dead)
    return TreeOutcome(h_value=float(h[0]), particles_total=int(particles[0]),
                       leaves=int(leaves[0]), max_gen=int(max_gen[0]))


def _validate_point(model, t, x, mark, T):
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if xa.shape != (model.d,):
        raise DomainError(f"x must have shape ({model.d},), got {xa.shape}")
    if not (np.isfinite(t) and np.isfinite(T) and np.all(np.isfinite(xa))):
        raise DomainError(f"t, T and x must be finite, got t={t}, T={T}, x={xa}")
    if not 0 <= mark <= model.d:
        raise DomainError(f"mark must lie in 0..{model.d}, got {mark}")
    if t > T:
        raise DomainError(f"require t <= T, got t={t} > T={T}")
    if mark != 0 and t == T:
        raise DegenerateDerivativeError(
            "derivative weight is degenerate at t == T; use t < T")


def _batch_stats(model, t, x, mark, T, master_seed, batch_idx, batch_size,
                 budget) -> _BatchStats:
    rng = RngStream(master_seed, (mark << _MARK_SHIFT) | batch_idx)
    xa = np.broadcast_to(np.asarray(x, dtype=float), (batch_size, model.d))
    h, particles, _, _ = _grow_batch(model, t, xa, mark, T, rng, budget)
    mean = float(np.mean(h))
    m2 = float(np.sum((h - mean) ** 2))
    return _BatchStats(n=batch_size, mean=mean, m2=m2,
                       sum_particles=int(np.sum(particles)),
                       max_particles=int(np.max(particles)))


def _batch_stats_safe(args):
    try:
        return _batch_stats(*args)
    except BudgetExceededError as exc:
        return str(exc)


def _merge(a: _BatchStats, b: _BatchStats) -> _BatchStats:
    n = a.n + b.n
    delta = b.mean - a.mean
    mean = a.mean + delta * b.n / n
    m2 = a.m2 + b.m2 + delta * delta * a.n * b.n / n
    return _BatchStats(n=n, mean=mean, m2=m2,
                       sum_particles=a.sum_particles + b.sum_particles,
                       max_particles=max(a.max_particles, b.max_particles))


def estimate(model: PdeModel, t: float, x, mark: int, T: float,
             n_trees: int, master_seed: int = 0, workers: int = 1,
             budget: TreeBudget = DEFAULT_BUDGET) -> EstimatorResult:
    """Monte Carlo estimate of u(t,x) (mark 0) or du/dx_mark(t,x).

    Trees are grown in fixed-size batches with one random stream per batch, so
    the result is bit-identical for any ``workers`` at a fixed seed.
    """
    if n_trees < 2:
        raise DomainError(f"n_trees must be >= 2, got {n_trees}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    _validate_point(model, t, x, mark, T)
    start = time.perf_counter()

    if t == T:
        value = float(model.terminal.phi(np.atleast_2d(
            np.asarray(x, dtype=float)))[0])
        return EstimatorResult(mean=value, stderr=0.0, ci95=(value, value),
                               n_trees=n_trees,
                               elapsed=time.perf_counter() - start,
                               mean_tree_size=1.0, max_tree_size=1)

    sizes = [BATCH_TREES] * (n_trees // BATCH_TREES)
    if n_trees % BATCH_TREES:
        sizes.append(n_trees % BATCH_TREES)
    jobs = [(model, t, np.asarray(x, dtype=float), mark, T, master_seed, b,
             size, budget) for b, size in enumerate(sizes)]

    if workers == 1 or len(jobs) == 1:
        results = map(_batch_stats_safe, jobs)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_batch_stats_safe, jobs, chunksize=1))
        finally:
            pool.shutdown()

    total = None
    completed = 0
    for res in results:
        if isinstance(res, str):
            raise BudgetExceededError(res, completed_trees=completed)
        total = res if total is None else _merge(total, res)
        completed = total.n

    variance = total.m2 / (total.n - 1) if total.n > 1 else 0.0
    stderr = float(np.sqrt(variance / total.n))
    half = 1.959964 * stderr
    return EstimatorResult(mean=total.mean, stderr=stderr,
                           ci95=(total.mean - half, total.mean + half),
                           n_trees=total.n, elapsed=time.perf_counter() - start,
                           mean_tree_size=total.sum_particles / total.n,
                           max_tree_size=total.max_particles)


def estimate_gradient_all(model: PdeModel, t: float, x, T: float,
                          n_trees: int, master_seed: int = 0, workers: int = 1,
                          budget: TreeBudget = DEFAULT_BUDGET):
    """One estimate per derivative mark i = 1..m, independent populations."""
    if t >= T:
        raise DegenerateDerivativeError(
            "derivative estimates require t < T")
    return [estimate(model, t, x, i, T, n_trees, master_seed, workers, budget)
            for i in range(1, model.m + 1)]


def resolve_workers(requested: int | None) -> int:
    """Workers from the request or the BRANCHPDE_THREADS environment override."""
    env = os.environ.get("BRANCHPDE_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise DomainError(
                f"BRANCHPDE_THREADS must be a positive integer, got {env!r}")
        return value
    return requested if requested else 1
