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

Every draw (lifetimes, offspring, moves, weights, survival and rho factors)
is independent of the root position x, which enters only by translation.  So
a batch of trees is grown once, level-synchronously and rooted at the origin,
into a skeleton of per-particle displacements; evaluating it at a point reads
phi and c_l at x + displacement and accumulates per-tree products as
(sign, log|.|) pairs via bincount.  One skeleton serves every point of a
sweep.  Randomness is drawn from one stream per fixed-size batch, so
estimates are bit-identical for any worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (BudgetExceededError, DegenerateDerivativeError,
                     DomainError)
from .model import PdeModel
from .sampling import (RngStream, sample_lifetime, sample_offspring,
                       sample_stable_subordinator)

BATCH_TREES = 25_000
# A grown batch is stored whole, about 8 (d + 5) bytes a particle: 2e6 of
# them is ~100 MB at d = 1, 33x the largest batch of the fig sweeps.
MAX_BATCH_PARTICLES = 2_000_000
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


def _offspring_layout(model: PdeModel):
    """Children per category, and the child marks of every category in one
    array, each category's block starting at its offset.

    Block layout: of a category l's children the first l_0 carry mark 0, the
    next l_1 carry mark 1, and so on.
    """
    indices = model.nonlinearity.indices
    counts = np.array([sum(l) for l in indices], dtype=np.int64)
    marks = np.concatenate([np.repeat(np.arange(len(l)), l) for l in indices])
    return counts, marks, np.cumsum(counts) - counts


@dataclass(frozen=True)
class _Level:
    """The particles of one generation of a batch, in draw order.

    ``disp`` is each particle's displacement from its root at its death (or
    at T for a leaf); ``den`` is survival(T - birth) for a leaf and
    q_l rho(lifetime) for an interior particle.  Nothing here depends on the
    root position.
    """

    tree: np.ndarray          # (n,) tree index
    leaf_rows: np.ndarray     # rows of leaves
    cat_rows: tuple           # per offspring category, its interior rows
    disp: np.ndarray          # (n, d)
    death: np.ndarray         # (n,) death time, read at interiors
    w: np.ndarray             # (n,) derivative weight
    den: np.ndarray           # (n,)
    marked_leaf_rows: np.ndarray
    marked_leaf_birth: np.ndarray  # (len(marked_leaf_rows), d) birth displacement


@dataclass(frozen=True)
class _Skeleton:
    """One batch of trees grown without a root position."""

    levels: tuple
    particles: np.ndarray     # (n_batch,) particles per tree


def _grow_skeleton(model: PdeModel, t: float, root_mark: int, T: float,
                   n: int, rng: RngStream, budget: TreeBudget) -> _Skeleton:
    """Grow ``n`` independent trees level-synchronously, rooted at the origin.

    Every draw is independent of the root position, so one skeleton serves
    any number of points.  Raises BudgetExceededError if a tree outgrows the
    budget or the batch would store more than MAX_BATCH_PARTICLES particles.
    """
    lifetime = model.lifetime
    q_probs = np.asarray(model.branching.probs, dtype=float)
    child_counts, child_marks, mark_offsets = _offspring_layout(model)

    particles = np.ones(n, dtype=np.int64)

    # active particle state
    tree = np.arange(n, dtype=np.int64)
    marks = np.full(n, root_mark, dtype=np.int64)
    birth = np.full(n, float(t))
    disp = np.zeros((n, model.d))
    levels = []
    stored = n

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
        end = disp + dx

        # W = dx_theta / ds; a zero lifetime moves nothing (ds = dx = 0) and
        # its interior factor is 0 (rho(0) = inf), so W = 0 there, not 0/0
        w = np.ones(tree.size)
        marked = marks > 0
        if np.any(marked):
            ds_m = ds[marked]
            w[marked] = np.divide(dx[marked, marks[marked] - 1], ds_m,
                                  out=np.zeros_like(ds_m), where=ds_m > 0.0)

        den = np.empty(tree.size)
        leaf_rows = np.flatnonzero(leaf)
        if leaf_rows.size:
            den[leaf_rows] = lifetime.survival(T - birth[leaf_rows])
        marked_leaf_rows = np.flatnonzero(leaf & marked)

        int_rows = np.flatnonzero(~leaf)
        cat_rows = ()
        if int_rows.size:
            cat = sample_offspring(model.branching, rng, size=int_rows.size)
            den[int_rows] = q_probs[cat] * lifetime.rho(tau[int_rows])
            cat_rows = tuple(int_rows[cat == ci]
                             for ci in range(child_counts.size))
        levels.append(_Level(tree=tree, leaf_rows=leaf_rows, cat_rows=cat_rows,
                             disp=end, death=death, w=w, den=den,
                             marked_leaf_rows=marked_leaf_rows,
                             marked_leaf_birth=disp[marked_leaf_rows]))

        # spawn children of interior particles
        if not int_rows.size:
            break
        counts = child_counts[cat]
        has_kids = counts > 0
        if not np.any(has_kids):
            break
        parent_rows = int_rows[has_kids]
        kid_counts = counts[has_kids]
        ends = np.cumsum(kid_counts)
        stored += int(ends[-1])
        if stored > MAX_BATCH_PARTICLES:
            raise BudgetExceededError(
                f"a batch of {n} trees would store more than "
                f"{MAX_BATCH_PARTICLES} particles; shrink T - t")
        tree = np.repeat(tree[parent_rows], kid_counts)
        # the child at position k of a parent whose children start at s
        # takes mark k - s of its category's block
        marks = child_marks[np.arange(ends[-1]) + np.repeat(
            mark_offsets[cat[has_kids]] - (ends - kid_counts), kid_counts)]
        birth = np.repeat(death[parent_rows], kid_counts)
        disp = np.repeat(end[parent_rows], kid_counts, axis=0)
        particles += np.bincount(tree, minlength=n)
        gen += 1

    return _Skeleton(levels=tuple(levels), particles=particles)


def _evaluate(model: PdeModel, skeleton: _Skeleton, x: np.ndarray,
              skip_dead: bool = True) -> np.ndarray:
    """Per-tree products H of a skeleton rooted at ``x`` (shape (d,)).

    Positions are x + displacement; the factors are folded into per-tree
    (sign, log|.|) sums level by level.  With ``skip_dead`` the particles of
    trees whose product is already exactly zero are not evaluated: their H
    is 0 whatever the remaining factors are, and the draws are not touched.
    """
    n = skeleton.particles.size
    phi = model.terminal.phi
    coeffs = model.nonlinearity.coeffs
    log_abs = np.zeros(n)
    n_neg = np.zeros(n, dtype=np.int64)
    dead = np.zeros(n, dtype=bool)     # product hit an exact zero

    def live(tree, rows):
        return rows[~dead[tree[rows]]] if skip_dead else rows

    for lv in skeleton.levels:
        factor = np.zeros(lv.tree.size)

        rows = live(lv.tree, lv.leaf_rows)
        if rows.size:
            factor[rows] = phi(x + lv.disp[rows])
            marked, births = lv.marked_leaf_rows, lv.marked_leaf_birth
            if skip_dead:
                keep = ~dead[lv.tree[marked]]
                marked, births = marked[keep], births[keep]
            if marked.size:
                factor[marked] = factor[marked] - phi(x + births)
            leaf_factor = factor[rows] * lv.w[rows] / lv.den[rows]
            factor[rows] = leaf_factor
            if skip_dead:
                dead[lv.tree[rows[leaf_factor == 0.0]]] = True

        for ci, cat_rows in enumerate(lv.cat_rows):
            rows = live(lv.tree, cat_rows)
            if rows.size:
                c_val = coeffs[ci](lv.death[rows], x + lv.disp[rows])
                factor[rows] = (c_val / lv.den[rows]) * lv.w[rows]

        # fold the factors into the per-tree running products
        zero = factor == 0.0
        if np.any(zero):
            dead[lv.tree[zero]] = True
        nz = ~zero
        if np.any(nz):
            tree = lv.tree[nz]
            log_abs += np.bincount(tree, weights=np.log(np.abs(factor[nz])),
                                   minlength=n)
            neg = factor[nz] < 0.0
            if np.any(neg):
                n_neg += np.bincount(tree[neg], minlength=n)

    sign = np.where(n_neg % 2 == 0, 1.0, -1.0)
    h = np.where(dead, 0.0, sign * np.exp(log_abs))
    if not np.all(np.isfinite(h)):
        raise BudgetExceededError("tree product overflowed to non-finite")
    return h


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


def _batch_stats(model, t, points, mark, T, master_seed, batch_idx,
                 batch_size, budget) -> list:
    """Grow batch ``batch_idx`` once and evaluate it at every point."""
    rng = RngStream(master_seed, (mark << _MARK_SHIFT) | batch_idx)
    skeleton = _grow_skeleton(model, t, mark, T, batch_size, rng, budget)
    sum_particles = int(np.sum(skeleton.particles))
    max_particles = int(np.max(skeleton.particles))
    stats = []
    for x in points:
        h = _evaluate(model, skeleton, x)
        mean = float(np.mean(h))
        m2 = float(np.sum((h - mean) ** 2))
        stats.append(_BatchStats(n=batch_size, mean=mean, m2=m2,
                                 sum_particles=sum_particles,
                                 max_particles=max_particles))
    return stats


def _merge(a: _BatchStats, b: _BatchStats) -> _BatchStats:
    n = a.n + b.n
    delta = b.mean - a.mean
    mean = a.mean + delta * b.n / n
    m2 = a.m2 + b.m2 + delta * delta * a.n * b.n / n
    return _BatchStats(n=n, mean=mean, m2=m2,
                       sum_particles=a.sum_particles + b.sum_particles,
                       max_particles=max(a.max_particles, b.max_particles))


def _merge_batches(results) -> list:
    """Per-point totals over the batches' per-point stats, in batch order.

    A batch that aborts raises here, carrying the count of trees merged
    before it.
    """
    totals = None
    try:
        for res in results:
            totals = res if totals is None else list(map(_merge, totals, res))
    except BudgetExceededError as exc:
        exc.completed_trees = 0 if totals is None else totals[0].n
        raise
    return totals


def _estimate_points(model, t, points, mark, T, n_trees, master_seed, workers,
                     budget, start) -> list:
    """One EstimatorResult per row of ``points``, all from the same trees.

    Batches are grown one at a time (or one per pool job) and merged per
    point in batch order, so the results do not depend on ``workers``.
    """
    sizes = [BATCH_TREES] * (n_trees // BATCH_TREES)
    if n_trees % BATCH_TREES:
        sizes.append(n_trees % BATCH_TREES)
    batch = partial(_batch_stats, model, t, points, mark, T, master_seed,
                    budget=budget)
    if workers == 1 or len(sizes) == 1:
        totals = _merge_batches(map(batch, range(len(sizes)), sizes))
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            totals = _merge_batches(pool.map(batch, range(len(sizes)), sizes))
        finally:
            pool.shutdown(cancel_futures=True)

    elapsed = time.perf_counter() - start
    results = []
    for total in totals:
        stderr = float(np.sqrt(total.m2 / (total.n - 1) / total.n))
        half = 1.959964 * stderr
        results.append(EstimatorResult(
            mean=total.mean, stderr=stderr,
            ci95=(total.mean - half, total.mean + half), n_trees=total.n,
            elapsed=elapsed, mean_tree_size=total.sum_particles / total.n,
            max_tree_size=total.max_particles))
    return results


class Grid:
    """The points of one sweep, a (G, d) array, whose estimates share their
    trees.

    Pass the same Grid to ``estimate(..., grid=...)`` at each of its points.
    The first call grows every batch once, evaluates it at all points and
    keeps the results here; the calls that follow with the same model and
    run parameters return their point's result without growing anything.
    """

    def __init__(self, points):
        self.points = np.array(points, dtype=float)
        if self.points.ndim != 2:
            raise DomainError("grid points must form a (G, d) array, got "
                              f"shape {self.points.shape}")
        self._model = None      # the model and run parameters of _results
        self._run = None
        self._results = None

    def _index(self, x) -> int:
        hits = np.flatnonzero(np.all(self.points == x, axis=1))
        if not hits.size:
            raise DomainError(f"x={x} is not a point of the grid")
        return int(hits[0])


def estimate(model: PdeModel, t: float, x, mark: int, T: float,
             n_trees: int, master_seed: int = 0, workers: int = 1,
             budget: TreeBudget = DEFAULT_BUDGET,
             grid: Grid | None = None) -> EstimatorResult:
    """Monte Carlo estimate of u(t,x) (mark 0) or du/dx_mark(t,x).

    Trees are grown in fixed-size batches with one random stream per batch, so
    the result is bit-identical for any ``workers`` at a fixed seed.  With a
    ``grid`` holding x, all of the grid's points are estimated from the same
    trees on the first call, and later calls return the stored results (their
    ``elapsed`` is the time of the whole grid).
    """
    if n_trees < 2:
        raise DomainError(f"n_trees must be >= 2, got {n_trees}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    _validate_point(model, t, x, mark, T)
    start = time.perf_counter()
    xa = np.atleast_1d(np.asarray(x, dtype=float))

    if t == T:
        value = float(model.terminal.phi(xa[None, :])[0])
        return EstimatorResult(mean=value, stderr=0.0, ci95=(value, value),
                               n_trees=n_trees,
                               elapsed=time.perf_counter() - start,
                               mean_tree_size=1.0, max_tree_size=1)

    if grid is None:
        return _estimate_points(model, t, xa[None, :], mark, T, n_trees,
                                master_seed, workers, budget, start)[0]
    index = grid._index(xa)
    run = (t, mark, T, n_trees, master_seed, budget)
    if grid._model is not model or grid._run != run:
        grid._model = grid._run = grid._results = None
        for point in grid.points:
            _validate_point(model, t, point, mark, T)
        grid._results = _estimate_points(model, t, grid.points, mark, T,
                                         n_trees, master_seed, workers,
                                         budget, start)
        grid._model, grid._run = model, run
    return grid._results[index]


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
