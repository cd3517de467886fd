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
into a skeleton kept in draw order: level by level, each level's particles
as they were drawn, so row i is tree i's root.  Each quantity (tree index,
displacement, weight, death time) is one array with a row per particle, and
a kind (the leaves, or the interior particles of one offspring category) is
an index array of its rows.  One skeleton serves every point of a sweep.

A child's mark depends only on its offspring category, so the trees of
every root mark are the same.  A skeleton is grown with mark-0 roots and
keeps each root's subordinator increment; the plan of mark theta >= 1
multiplies each root's weight by W, and each root leaf, one of the first
leaves, subtracts phi at the point, where it was born.  So one skeleton
serves u and every du/dx_i, one mark's plan at a time.  Every displacement
is held once: a marked leaf was born where its parent died, so its birth is
its parent's row of the displacements.

Each row stores one weight, W over its survival or q_l rho denominator.
Once a batch is grown, one plan per mark of a run prepares its evaluation at
all of the run's points.  The plan multiplies what does not depend on the
point into one product per tree, kind by kind: the weight of every row, and
the whole factor of every category with a constant coefficient.  What is
left is phi at x + displacement over the leaves and c_l at the interior
deaths of the other categories, one term per kind, and phi at the marked
leaves' births; each term is one call per block of points, and the root
leaves' phi at x one more.  Every point of a run holds the same bits from
coordinate ``lead`` on (all of them for one point, x_2..x_d for an x_1
sweep), so a phi or c_l with ``fold`` is folded at those coordinates of its
rows once per plan (see ``model``) and then reads only the first ``lead``
columns; any other is called on the (points x rows, d) rows of x + disp.
A block holds at most EVAL_BLOCK_CELLS points x rows x columns read.  A
point's values are the same bits whatever other points share its block or
its run.  Each block's tree values are reduced into the batch's one
statistics record, (K G,) arrays over the run's K marks by G points of the
means, squared deviations and zero counts, and the records are merged in
batch order.
Randomness is drawn from one stream per fixed-size batch, whatever the
marks, so estimates are bit-identical for any worker count.

There is one run path.  ``estimate`` (one point, one mark), its ``Grid``
lookup (every point of the grid, one mark) and ``estimate_gradient_all``
(one point, marks 1..d) each call ``_estimate_points`` with a (G, d) array
of points and a tuple of marks.  It alone validates the run, answers
t == T without growing anything (each tree is its root leaf) and otherwise
grows, merges and builds the results.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (BudgetExceededError, DegenerateDerivativeError,
                     DomainError, ProductOverflowError)
from .model import MAX_BATCH_FLOATS, ConstantCoefficient, PdeModel
from .sampling import (RngStream, sample_lifetime, sample_offspring,
                       sample_stable_subordinator)

BATCH_TREES = 25_000
# Float cells of x + disp in one block's calls of phi and c_l, points x
# rows x the columns each reads (at least 1); their other temporaries, one
# per operation of an inline expression, are points x rows.  A fig1b sweep,
# 40k point-dependent rows reading x_1 alone, takes 4 points a block.
EVAL_BLOCK_CELLS = 160_000


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
    zero_frac: float        # share of trees whose product is exactly 0
    generations: int        # most levels any batch grew
    cms_resamples: int      # CMS underflow redraws over all batches


@dataclass(frozen=True)
class _BatchStats:
    """One batch's trees, particles, levels and CMS redraws, and (K G,)
    arrays over the K marks times the G points of a run, mark-major: the
    mean tree value, the sum of squared deviations from it and the count of
    zero products."""

    n: int
    mean: np.ndarray
    m2: np.ndarray
    zeros: np.ndarray
    sum_particles: int
    max_particles: int
    generations: int
    cms_resamples: int


def sample_subordinated_increment(d: int, alpha: float, kappa: float, dt,
                                  rng: RngStream, size: int):
    """``size`` moves (ds, dx) of the subordinated Brownian motion over
    kappa*Delta_alpha.

    ds = kappa^(2/alpha) dt^(2/alpha) S(alpha, 1), by the scale invariance of
    the stable subordinator (deterministic 2*kappa*dt at alpha = 2), and
    dx = sqrt(ds) N(0, I_d).  ``dt`` may be an array matching ``size``; ds
    has shape (size,) and dx (size, d).  dx_theta / ds is the derivative
    weight W of mark theta.
    """
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    if not kappa > 0.0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt >= 0.0):
        raise DomainError("dt must be non-negative")
    unit = sample_stable_subordinator(alpha, 1.0, rng, size=size)
    ds = kappa ** (2.0 / alpha) * dt ** (2.0 / alpha) * unit
    dx = rng.gen.standard_normal((size, d))
    dx *= np.sqrt(ds)[:, None]
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
class _Skeleton:
    """One batch of trees grown without a root position, in draw order.

    Rows run level by level, each level's particles in the order they were
    drawn, so row i < n_batch is tree i's root.  ``rows[k]`` are the rows of
    kind k, increasing (k = 0 the leaves, k = 1 + l the interior particles
    of offspring category l).  ``disp`` is a particle's displacement from
    the root at death (at T for a leaf), and ``death`` its death time.
    ``weight`` is its derivative weight W over survival(T - birth) for a
    leaf, over q_l rho(lifetime) for an interior particle.  ``marked_rows``
    are the positions among the leaves of those with a nonzero mark, and
    ``marked_parent`` their parents' rows: a child is born at its parent's
    death, so ``disp[marked_parent]`` are their birth displacements.  Every
    root carries mark 0, so its move ``disp[i]`` and ``root_ds``, its
    subordinator increment, are what a root mark changes.  Nothing here
    depends on the root position.
    """

    tree: np.ndarray          # (N,) tree index
    disp: np.ndarray          # (N, d)
    weight: np.ndarray        # (N,)
    death: np.ndarray         # (N,)
    rows: tuple               # per kind, its rows
    marked_rows: np.ndarray   # (M,) positions among the leaves
    marked_parent: np.ndarray  # (M,) rows of disp
    root_ds: np.ndarray       # (n_batch,)
    particles: np.ndarray     # (n_batch,) particles per tree
    generations: int          # levels grown


def _grow_skeleton(model: PdeModel, t: float, T: float, n: int,
                   rng: RngStream, budget: TreeBudget) -> _Skeleton:
    """Grow ``n`` independent trees level-synchronously, rooted at the origin
    with mark 0.

    Every draw is independent of the root position and of the root's mark,
    so one skeleton serves any number of points and every mark.  Each
    level's arrays are kept as they are drawn and joined once growth stops;
    rows are never reordered.  A particle stores d + 4 floats.  Raises
    DomainError if the ``n`` roots alone would store more than
    MAX_BATCH_FLOATS, and BudgetExceededError if a tree outgrows the budget
    or the batch would store more than MAX_BATCH_FLOATS.
    """
    width = model.d + 4
    if n * width > MAX_BATCH_FLOATS:
        raise DomainError(
            f"the {n} roots of a batch at d = {model.d} would store more "
            f"than {MAX_BATCH_FLOATS} floats; lower n_trees (at most "
            f"{BATCH_TREES} a batch) or d")
    lifetime = model.lifetime
    q_probs = np.asarray(model.branching.probs, dtype=float)
    child_counts, child_marks, mark_offsets = _offspring_layout(model)

    particles = np.ones(n, dtype=np.int64)

    # active particle state
    tree = np.arange(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)     # its parent's row, -1 a root
    marks = np.zeros(n, dtype=np.int64)
    birth = np.full(n, float(t))
    disp = np.zeros((n, model.d))
    # per field, one array a level
    levels = {name: [] for name in
              ("tree", "disp", "weight", "death", "kind", "marked_leaf")}
    marked_parent = []
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

        # W = dx_theta / ds; a zero lifetime moves nothing (ds = dx = 0) and
        # its interior factor is 0 (rho(0) = inf), so W = 0 there, not 0/0
        w = np.ones(tree.size)
        marked = marks > 0
        if np.any(marked):
            ds_m = ds[marked]
            w[marked] = np.divide(dx[marked, marks[marked] - 1], ds_m,
                                  out=np.zeros_like(ds_m), where=ds_m > 0.0)

        marked_leaf = marked & leaf
        marked_parent.append(parent[marked_leaf])
        # move: disp becomes the displacement at death (at T for a leaf),
        # written over dx, which is not read again
        disp = np.add(disp, dx, out=dx)

        den = np.empty(tree.size)
        kind = np.zeros(tree.size, dtype=np.int64)
        leaf_rows = np.flatnonzero(leaf)
        if leaf_rows.size:
            den[leaf_rows] = lifetime.survival(T - birth[leaf_rows])
        int_rows = np.flatnonzero(~leaf)
        if int_rows.size:
            cat = sample_offspring(model.branching, rng, size=int_rows.size)
            den[int_rows] = q_probs[cat] * lifetime.rho(tau[int_rows])
            kind[int_rows] = 1 + cat
        if gen == 1:
            root_ds = ds
        w /= den
        for name, field in zip(levels, (tree, disp, w, death, kind,
                                        marked_leaf)):
            levels[name].append(field)

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
        # this level's rows start at stored - tree.size
        parent = np.repeat(stored - tree.size + parent_rows, kid_counts)
        stored += int(ends[-1])
        if stored * width > MAX_BATCH_FLOATS:
            raise BudgetExceededError(
                f"a batch of {n} trees at d = {model.d} would store more "
                f"than {MAX_BATCH_FLOATS} floats; shrink T - t")
        tree = np.repeat(tree[parent_rows], kid_counts)
        # the child at position k of a parent whose children start at s
        # takes mark k - s of its category's block
        marks = child_marks[np.arange(ends[-1]) + np.repeat(
            mark_offsets[cat[has_kids]] - (ends - kid_counts), kid_counts)]
        birth = np.repeat(death[parent_rows], kid_counts)
        disp = np.repeat(disp[parent_rows], kid_counts, axis=0)
        particles += np.bincount(tree, minlength=n)
        gen += 1

    del tree, disp, dx    # the last level's, also held in ``levels``
    # one field at a time, its levels released once joined
    flat = {name: np.concatenate(levels.pop(name)) for name in list(levels)}
    kind, marked_leaf = flat.pop("kind"), flat.pop("marked_leaf")
    rows = tuple(np.flatnonzero(kind == k)
                 for k in range(1 + child_counts.size))
    return _Skeleton(**flat, rows=rows,
                     marked_rows=np.flatnonzero(marked_leaf[rows[0]]),
                     marked_parent=np.concatenate(marked_parent),
                     root_ds=root_ds, particles=particles, generations=gen)


def _multiply(out: np.ndarray, pairs) -> np.ndarray:
    """Multiply the factors of each (index, factor) pair into
    ``out[index]``, the pairs in turn and each in its order.  An entry with
    an exactly zero factor is 0, whatever its other factors."""
    zeros = []
    with np.errstate(over="ignore", invalid="ignore"):  # raised by _evaluate
        for index, factor in pairs:
            np.multiply.at(out, index, factor)
            zeros.append(index[factor == 0.0])
    out[np.concatenate(zeros)] = 0.0
    return out


@dataclass(frozen=True)
class _Plan:
    """How to evaluate one skeleton under one model at the points of a run.

    ``base`` is, per tree, the product of the point-independent factors:
    the weight of every row and the whole factor of every category with a
    constant coefficient.  The point-dependent rows are the leaves and the
    rows of each category whose coefficient is not constant; per such kind,
    ``trees`` holds their tree index and ``terms`` one term, and ``births``
    holds one for phi at the birth of the ``marked`` leaf rows.  A term is
    (call, times, disp), which ``_values`` calls once per block of points:
    ``call`` is phi or c_l, folded for the plan if it has ``fold``, or as
    it is; ``times`` is () for phi and (death times,) for c_l; and ``disp``
    the columns of the rows' displacements that ``call`` reads.  The first
    ``roots`` leaves, the root leaves of a mark theta >= 1, subtract
    ``phi``, as it is, at the point.  ``block`` is the number of points a
    call of ``_evaluate`` takes.
    """

    base: np.ndarray
    trees: tuple
    terms: tuple
    marked: np.ndarray
    births: tuple
    phi: object
    roots: int
    block: int


def _plan(model: PdeModel, sk: _Skeleton, points: np.ndarray,
          mark: int) -> _Plan:
    """The _Plan of skeleton ``sk`` under ``model`` for the rows of
    ``points``, all the points of a run, with root mark ``mark``.

    A root of mark theta >= 1 multiplies its weight by W = dx_theta / ds
    (0 where ds = 0), and a root leaf subtracts phi at its birth, the
    point; any other marked leaf's birth is its parent's row of ``sk.disp``.
    ``lead`` is 1 + the last
    coordinate in which the points' bits differ, 0 for one point, so every
    point holds x0 = points[0] from ``lead`` on.  A callable with ``fold``
    is folded at those coordinates of x0 + disp and reads only the first
    ``lead`` columns; any other reads all of them.
    """
    bits = np.ascontiguousarray(points).view(np.uint64)
    varies = np.flatnonzero(np.any(bits != bits[0], axis=0))
    lead = int(varies[-1]) + 1 if varies.size else 0

    def term(fn, rows, *times):
        # fn's term at ``rows`` of sk.disp, an index array: each
        # sk.disp[rows, ...] below is a new array
        if not hasattr(fn, "fold"):
            return fn, times, sk.disp[rows]
        tail = sk.disp[rows, lead:]
        tail += points[0, lead:]
        return fn.fold(*times, tail, lead), times, sk.disp[rows, :lead]

    phi = model.terminal.phi
    n = sk.root_ds.size
    factor = sk.weight.copy()
    leaves = sk.rows[0]
    # the root leaves are the first leaves
    roots = int(np.searchsorted(leaves, n)) if mark else 0
    if mark:
        ds = sk.root_ds
        factor[:n] *= np.divide(sk.disp[:n, mark - 1], ds,
                                out=np.zeros_like(ds), where=ds > 0.0)
    trees, terms = [sk.tree[leaves]], [term(phi, leaves)]
    for coeff, rows in zip(model.nonlinearity.coeffs, sk.rows[1:]):
        if isinstance(coeff, ConstantCoefficient):
            factor[rows] *= coeff.value
        elif rows.size:
            trees.append(sk.tree[rows])
            terms.append(term(coeff, rows, sk.death[rows]))
    births = term(phi, sk.marked_parent) if sk.marked_parent.size else ()
    # each call's rows times the columns it reads, at least 1
    cells = sum(max(disp.size, len(disp))
                for _, _, disp in terms + ([births] if births else []))
    base = _multiply(np.ones(n), ((sk.tree[rows], factor[rows])
                                  for rows in sk.rows))
    return _Plan(base=base, trees=tuple(trees), terms=tuple(terms),
                 marked=sk.marked_rows, births=births, phi=phi, roots=roots,
                 block=max(1, EVAL_BLOCK_CELLS // max(cells, 1)))


def _values(term, points: np.ndarray) -> np.ndarray:
    """A _Plan term at x + disp for each point x (a row of ``points``) and
    each of its rows: a (G, rows) array, from one call.

    A folded callable gets the columns of x + disp that it reads, (G, rows,
    lead), and any other the (G rows, d) rows of x + disp, its death times
    repeated for each point.
    """
    call, times, disp = term
    x = points[:, None, :disp.shape[1]] + disp
    if hasattr(call, "fold"):
        return call(*times, x)
    t = (np.tile(death, len(points)) for death in times)
    return np.asarray(call(*t, x.reshape(-1, x.shape[-1])),
                      dtype=float).reshape(x.shape[:-1])


def _evaluate(plan: _Plan, points: np.ndarray) -> np.ndarray:
    """Per-tree products H of a planned skeleton rooted at each row of
    ``points`` (a (G, d) block of the run's points): an (n, G) array,
    column g for point g.

    Each point's column starts from the plan's ``base`` and multiplies in
    its point-dependent factors: phi at x + displacement for every leaf,
    minus phi at birth for the marked leaves (at x for a root leaf), and
    c_l at the interior deaths
    of each category whose coefficient is not constant.  A point's column
    does not depend on the other points of the block.  A tree with an
    exactly zero factor has H = 0; raises ProductOverflowError if any other
    product is not finite.
    """
    points = np.asarray(points, dtype=float)
    # one (G, rows) array of factors per point-dependent kind
    parts = [_values(term, points) for term in plan.terms]
    if plan.births:
        parts[0][:, plan.marked] -= _values(plan.births, points)
    if plan.roots:
        # + 0.0 reads -0.0 as x + 0 displacement does
        parts[0][:, :plan.roots] -= np.asarray(plan.phi(points + 0.0),
                                               dtype=float)[:, None]

    h = np.tile(plan.base, (len(points), 1))
    # point g's products are row g of h: tree i at g n + i of its flat view
    offsets = plan.base.size * np.arange(len(points))[:, None]
    _multiply(h.reshape(-1), (((tree + offsets).ravel(), part.ravel())
                              for tree, part in zip(plan.trees, parts)))
    h[:, plan.base == 0.0] = 0.0
    if not np.all(np.isfinite(h)):
        raise ProductOverflowError(
            "a tree product is not finite (it overflowed, or a factor is "
            "NaN); shrink T - t or the coefficients")
    return h.T


def _batch_stats(model, t, points, marks, T, master_seed, batch_idx,
                 batch_size, budget) -> _BatchStats:
    """Grow batch ``batch_idx`` once, then for each of ``marks`` plan its
    evaluation at all of ``points`` and evaluate it a block of points at a
    time."""
    rng = RngStream(master_seed, batch_idx)
    skeleton = _grow_skeleton(model, t, T, batch_size, rng, budget)
    shape = (len(marks), len(points))
    mean, m2 = np.empty(shape), np.empty(shape)
    zeros = np.empty(shape, dtype=np.int64)
    for k, mark in enumerate(marks):
        # a mark's plan is freed before the next mark's is built
        _reduce(_plan(model, skeleton, points, mark), points, mean[k], m2[k],
                zeros[k])
    return _BatchStats(n=batch_size, mean=mean.ravel(), m2=m2.ravel(),
                       zeros=zeros.ravel(),
                       sum_particles=int(np.sum(skeleton.particles)),
                       max_particles=int(np.max(skeleton.particles)),
                       generations=skeleton.generations,
                       cms_resamples=rng.cms_resamples)


def _reduce(plan: _Plan, points, mean, m2, zeros):
    """Fill the (G,) ``mean``, ``m2`` and ``zeros`` of the tree values of
    ``plan`` at ``points``, evaluated a block of points at a time."""
    for lo in range(0, len(points), plan.block):
        # a block's tree values are reduced, and freed, before the next block
        h = _evaluate(plan, points[lo:lo + plan.block]).T
        block = slice(lo, lo + len(h))
        mean[block] = h.mean(axis=1)
        m2[block] = ((h - mean[block, None]) ** 2).sum(axis=1)
        zeros[block] = np.count_nonzero(h == 0.0, axis=1)


def _merge(a: _BatchStats, b: _BatchStats) -> _BatchStats:
    n = a.n + b.n
    delta = b.mean - a.mean
    mean = a.mean + delta * b.n / n
    m2 = a.m2 + b.m2 + delta * delta * a.n * b.n / n
    return _BatchStats(n=n, mean=mean, m2=m2, zeros=a.zeros + b.zeros,
                       sum_particles=a.sum_particles + b.sum_particles,
                       max_particles=max(a.max_particles, b.max_particles),
                       generations=max(a.generations, b.generations),
                       cms_resamples=a.cms_resamples + b.cms_resamples)


def _merge_batches(results) -> _BatchStats:
    """The total over the batches' stats, merged in batch order.

    A batch that aborts raises here, carrying the count of trees merged
    before it.
    """
    total = None
    try:
        for res in results:
            total = res if total is None else _merge(total, res)
    except BudgetExceededError as exc:
        exc.completed_trees = 0 if total is None else total.n
        raise
    return total


def _estimate_points(model, t, points, marks, T, n_trees, master_seed,
                     workers, budget) -> list:
    """One EstimatorResult per mark of ``marks`` and row of ``points``, a
    (G, d) array, mark-major, all from the same trees.

    Every entry point runs through here.  A bad run raises DomainError, and
    a mark >= 1 at t == T raises DegenerateDerivativeError.  At t == T each
    tree is its root leaf, so each point's estimate is phi there with
    stderr 0, and nothing is grown.  Otherwise batches are grown one at a
    time (or one per pool job) and merged per point in batch order, so the
    results do not depend on ``workers``.  Each result's ``elapsed`` is the
    time of the whole run.
    """
    start = time.perf_counter()
    if n_trees < 2:
        raise DomainError(f"n_trees must be >= 2, got {n_trees}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if points.ndim != 2 or points.shape[1] != model.d:
        raise DomainError(f"x must have shape ({model.d},), got "
                          f"{points.shape[1:]}")
    if not (np.isfinite(t) and np.isfinite(T)
            and np.all(np.isfinite(points))):
        raise DomainError(f"t, T and x must be finite, got t={t}, T={T}")
    for mark in marks:
        if not 0 <= mark <= model.d:
            raise DomainError(f"mark must lie in 0..{model.d}, got {mark}")
    if t > T:
        raise DomainError(f"require t <= T, got t={t} > T={T}")

    if t == T:
        if any(marks):
            raise DegenerateDerivativeError(
                "derivative weight is degenerate at t == T; use t < T")
        # one particle and one level per tree, and no draws
        phi = np.tile(np.asarray(model.terminal.phi(points), dtype=float),
                      len(marks))
        total = _BatchStats(n=n_trees, mean=phi, m2=np.zeros_like(phi),
                            zeros=np.where(phi == 0.0, n_trees, 0),
                            sum_particles=n_trees, max_particles=1,
                            generations=1, cms_resamples=0)
    else:
        sizes = [BATCH_TREES] * (n_trees // BATCH_TREES)
        if n_trees % BATCH_TREES:
            sizes.append(n_trees % BATCH_TREES)
        batch = partial(_batch_stats, model, t, points, marks, T,
                        master_seed, budget=budget)
        if workers == 1 or len(sizes) == 1:
            total = _merge_batches(map(batch, range(len(sizes)), sizes))
        else:
            # under the fork start method a pool starts all of its workers
            # at its first job, so it gets no more than there are batches
            pool = ProcessPoolExecutor(max_workers=min(workers, len(sizes)))
            try:
                total = _merge_batches(pool.map(batch, range(len(sizes)),
                                                sizes))
            finally:
                pool.shutdown(cancel_futures=True)

    elapsed = time.perf_counter() - start
    n = total.n
    stderr = np.sqrt(total.m2 / (n - 1) / n)
    half = 1.959964 * stderr
    return [EstimatorResult(
        # a zero half-width keeps the sign of a zero mean (phi at t == T)
        mean=mean, stderr=se, ci95=(mean - h, mean + h) if h else (mean, mean),
        n_trees=n, elapsed=elapsed, mean_tree_size=total.sum_particles / n,
        max_tree_size=total.max_particles, zero_frac=zeros / n,
        generations=total.generations, cms_resamples=total.cms_resamples)
        for mean, se, h, zeros in zip(total.mean.tolist(), stderr.tolist(),
                                      half.tolist(), total.zeros.tolist())]


class Grid:
    """The points of one sweep, a (G, d) array, whose estimates share their
    trees.

    Pass the same Grid to ``estimate(..., grid=...)`` at each of its points.
    The first call estimates every point from the same trees and keeps the
    run's key (model and run parameters) and results here; the calls that
    follow with the same key return their point's result without growing
    anything.  A point is found by its bits, -0.0 read as 0.0, in an index
    of the first row holding each; ``points`` is read-only, so the index
    holds.
    """

    def __init__(self, points):
        self.points = np.array(points, dtype=float)
        if self.points.ndim != 2:
            raise DomainError("grid points must form a (G, d) array, got "
                              f"shape {self.points.shape}")
        self.points.flags.writeable = False
        # the first of equal rows is the last written
        self._rows = {row.tobytes(): i for i, row in
                      reversed(list(enumerate(self.points + 0.0)))}
        self._key = None
        self._results = None


def estimate(model: PdeModel, t: float, x, mark: int, T: float,
             n_trees: int, master_seed: int = 0, workers: int = 1,
             budget: TreeBudget = DEFAULT_BUDGET,
             grid: Grid | None = None) -> EstimatorResult:
    """Monte Carlo estimate of u(t,x) (mark 0) or du/dx_mark(t,x).

    Trees are grown in fixed-size batches with one random stream per batch, so
    the result is bit-identical for any ``workers`` at a fixed seed.  Every
    mark grows the same trees from the same streams.  With a ``grid``
    holding x, all of the grid's points are estimated from the same trees on
    the first call, and later calls return the stored results (their
    ``elapsed`` is the time of the whole grid).  x is looked up in the
    grid's index, the first of equal rows; an x that is not a row of the
    grid raises DomainError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if grid is None:
        return _estimate_points(model, t, x[None, :], (mark,), T, n_trees,
                                master_seed, workers, budget)[0]
    row = (grid._rows.get((x + 0.0).tobytes())
           if x.shape == grid.points.shape[1:] else None)
    if row is None:
        raise DomainError(f"x={x} is not a point of the grid")
    key = (model, t, mark, T, n_trees, master_seed, budget)
    if grid._key != key:
        grid._results = _estimate_points(model, t, grid.points, (mark,), T,
                                         n_trees, master_seed, workers, budget)
        grid._key = key
    return grid._results[row]


def estimate_gradient_all(model: PdeModel, t: float, x, T: float,
                          n_trees: int, master_seed: int = 0, workers: int = 1,
                          budget: TreeBudget = DEFAULT_BUDGET):
    """One estimate of du/dx_i per mark i = 1..d, all from the same trees.

    Each batch is grown once and evaluated for every mark, so mark i's
    result is bit-identical to ``estimate(..., mark=i, ...)``.  The marks
    share their trees with each other and with the estimate of u at the same
    seed, so their estimates are correlated.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _estimate_points(model, t, x[None, :], tuple(range(1, model.d + 1)),
                            T, n_trees, master_seed, workers, budget)
