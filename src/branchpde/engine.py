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
into a skeleton stored flat by kind: every leaf, then the interior particles
of each offspring category.  Each quantity (tree index, displacement, weight,
death time) is one array with a row per particle, and a kind is a slice of
its rows.  One skeleton serves every point of a sweep.

A child's mark depends only on its offspring category, so the trees of
every root mark are the same.  A skeleton is grown with mark-0 roots and
keeps each root's row and subordinator increment; the plan of mark
theta >= 1 multiplies each root's weight by W and adds the root leaves to
the marked leaves.  So one skeleton serves u and every du/dx_i, one mark's
plan at a time.

Each row stores one weight, W over its survival or q_l rho denominator.
Once a batch is grown, one plan per mark of a run prepares its evaluation at
all of the run's points, which then take blocks of at most EVAL_BLOCK_CELLS
rows x points.  The plan multiplies what does not depend on the point into
one product per tree: the weight of every row, and the whole factor of every
category with a constant coefficient.  Each point then multiplies in only
phi at x + displacement over the leaves and c_l at the interior deaths of
the other categories.  phi and c_l of the catalog's radial models
(ScaledBump, NldSource, GraddSource) read |x + disp|^2 and
sum_j (x + disp)_j, continued from the plan's per-row sums of the
displacements over the coordinates above the last one that is nonzero in
any of the run's points, one column at a time below it; the others are
called at x + disp point by point.
A point's values are the same bits whatever other points share its block
or its run.  Each block's tree values are reduced into the batch's one
statistics record, (K G,) arrays over the run's K marks by G points of
the means, squared deviations and zero counts, and the records are merged
in batch order.  Randomness is drawn from one stream per fixed-size batch,
whatever the marks, so estimates are bit-identical for any worker count.

There is one run path.  ``estimate`` (one point, one mark), its ``Grid``
lookup (every point of the grid, one mark) and ``estimate_gradient_all``
(one point, marks 1..d) each call ``_estimate_points`` with a (G, d) array
of points and a tuple of marks.  It alone validates the run, answers
t == T without growing anything (each tree is its root leaf) and otherwise
grows, merges and builds the results.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (BudgetExceededError, DegenerateDerivativeError,
                     DomainError, ProductOverflowError)
from .model import ConstantCoefficient, PdeModel, radial_args
from .sampling import (RngStream, sample_lifetime, sample_offspring,
                       sample_stable_subordinator)

BATCH_TREES = 25_000
# A grown batch is stored whole, about 8 (d + 3) bytes a particle: 2e6 of
# them is ~64 MB at d = 1, 33x the largest batch of the fig sweeps.
MAX_BATCH_PARTICLES = 2_000_000
# Float cells of one evaluation temporary: rows x points of a block's
# values (a fig1b batch, 40k point-dependent rows, takes 4 points a block)
EVAL_BLOCK_CELLS = 160_000
# Float cells of x + disp in one generic phi or c_l call, whose other
# temporaries (one per operation of an inline expression) are as many rows
CALL_BLOCK_CELLS = 20_000


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
    """One batch of trees grown without a root position, stored flat by kind.

    Rows are grouped by kind, the leaves first and then the interior
    particles of each offspring category in turn: kind k holds the rows
    ``bounds[k]:bounds[k + 1]`` (k = 0 the leaves, k = 1 + l category l),
    in generation and draw order within a kind.  ``disp`` is a particle's
    displacement from the root at death (at T for a leaf).  ``weight`` is
    its derivative weight W over survival(T - birth) for a leaf, over
    q_l rho(lifetime) for an interior particle.  ``death`` holds the death
    times of the interior rows (row r at r - bounds[1]); ``marked_rows`` are
    the leaves with a nonzero mark and ``marked_birth`` their birth
    displacements.  Every root carries mark 0, so ``root``, the row of each
    tree's root, and ``root_ds``, its subordinator increment, are what a
    root mark changes: a root starts at the origin, so ``disp[root]`` is
    its move.  Nothing here depends on the root position.
    """

    tree: np.ndarray          # (N,) tree index
    disp: np.ndarray          # (N, d)
    weight: np.ndarray        # (N,)
    death: np.ndarray         # (N - bounds[1],)
    bounds: tuple             # row offset of each kind, and N
    marked_rows: np.ndarray   # (M,) leaf rows
    marked_birth: np.ndarray  # (M, d)
    root: np.ndarray          # (n_batch,) row of each tree's root
    root_ds: np.ndarray       # (n_batch,)
    particles: np.ndarray     # (n_batch,) particles per tree
    generations: int          # levels grown


def _join(per_kind: list, tail: tuple = (), dtype=float) -> np.ndarray:
    """The chunks of every kind, kind by kind, as one array allocated at its
    final size.  The lists are emptied and each chunk is released as soon as
    it is copied, so a field is never held twice."""
    chunks = [chunk for kind in per_kind for chunk in kind]
    for kind in per_kind:
        kind.clear()
    out = np.empty((sum(len(c) for c in chunks),) + tail, dtype=dtype)
    chunks.reverse()
    start = 0
    while chunks:
        chunk = chunks.pop()
        out[start:start + len(chunk)] = chunk
        start += len(chunk)
    return out


def _grow_skeleton(model: PdeModel, t: float, T: float, n: int,
                   rng: RngStream, budget: TreeBudget) -> _Skeleton:
    """Grow ``n`` independent trees level-synchronously, rooted at the origin
    with mark 0.

    Every draw is independent of the root position and of the root's mark,
    so one skeleton serves any number of points and every mark.  Each
    level's particles are filed by kind as they are drawn; once growth
    stops, each field is joined into one flat array.  Raises
    BudgetExceededError if a tree outgrows the budget or the batch would
    store more than MAX_BATCH_PARTICLES particles.
    """
    lifetime = model.lifetime
    q_probs = np.asarray(model.branching.probs, dtype=float)
    child_counts, child_marks, mark_offsets = _offspring_layout(model)
    n_kinds = 1 + child_counts.size

    particles = np.ones(n, dtype=np.int64)

    # active particle state
    tree = np.arange(n, dtype=np.int64)
    marks = np.zeros(n, dtype=np.int64)
    birth = np.full(n, float(t))
    disp = np.zeros((n, model.d))
    # per field, per kind: one chunk a level
    fields = {name: [[] for _ in range(n_kinds)]
              for name in ("tree", "disp", "weight")}
    deaths = [[] for _ in range(n_kinds - 1)]
    marked_rows, marked_birth = [], []
    n_leaves = 0
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

        leaf_rows = np.flatnonzero(leaf)
        marked_leaves = np.flatnonzero(marked[leaf_rows])
        marked_rows.append(n_leaves + marked_leaves)
        marked_birth.append(disp[leaf_rows[marked_leaves]])
        n_leaves += leaf_rows.size
        # move: disp becomes the displacement at death (at T for a leaf),
        # written over dx, which is not read again
        disp = np.add(disp, dx, out=dx)

        den = np.empty(tree.size)
        if leaf_rows.size:
            den[leaf_rows] = lifetime.survival(T - birth[leaf_rows])

        int_rows = np.flatnonzero(~leaf)
        kind_rows = [leaf_rows]
        if int_rows.size:
            cat = sample_offspring(model.branching, rng, size=int_rows.size)
            den[int_rows] = q_probs[cat] * lifetime.rho(tau[int_rows])
            kind_rows += [int_rows[cat == ci]
                          for ci in range(child_counts.size)]
        if gen == 1:
            # the roots, tree i at level row i, open each kind's rows
            root_kinds, root_ds = kind_rows, ds
        w /= den
        for kind, rows in enumerate(kind_rows):
            if rows.size:
                for name, field in (("tree", tree), ("disp", disp),
                                    ("weight", w)):
                    fields[name][kind].append(field[rows])
                if kind:
                    deaths[kind - 1].append(death[rows])

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
        disp = np.repeat(disp[parent_rows], kid_counts, axis=0)
        particles += np.bincount(tree, minlength=n)
        gen += 1

    del disp, dx    # the last level's (rows, d) array
    sizes = [sum(len(c) for c in kind) for kind in fields["tree"]]
    bounds = tuple(int(b) for b in np.cumsum([0] + sizes))
    root = np.empty(n, dtype=np.int64)
    for kind, rows in enumerate(root_kinds):
        root[rows] = bounds[kind] + np.arange(rows.size)
    d = (model.d,)
    return _Skeleton(tree=_join(fields["tree"], dtype=np.int64),
                     disp=_join(fields["disp"], d),
                     weight=_join(fields["weight"]), death=_join(deaths),
                     bounds=bounds,
                     marked_rows=_join([marked_rows], dtype=np.int64),
                     marked_birth=_join([marked_birth], d),
                     root=root, root_ds=root_ds,
                     particles=particles, generations=gen)


def _multiply(out: np.ndarray, tree: np.ndarray, factor: np.ndarray):
    """Multiply each row's ``factor`` into ``out[tree]``, in row order.  A
    tree with an exactly zero factor is 0, whatever its other factors."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised by _evaluate
        np.multiply.at(out, tree, factor)
    out[tree[factor == 0.0]] = 0.0
    return out


@dataclass(frozen=True)
class _Plan:
    """How to evaluate one skeleton under one model at the points of a run.

    ``base`` is, per tree, the product of the point-independent factors:
    the weight of every row and the whole factor of every category with a
    constant coefficient.  The point-dependent rows are the leaves
    and the rows of each category whose coefficient is not constant, kind by
    kind; ``tree`` is their tree index.  ``terms`` holds, per such kind, its
    callable (phi or c_l), the death times of its rows (None for the
    leaves) and the rows as ``_values`` reads them; ``births`` holds the
    same for phi at the birth of the ``marked`` leaf rows.  ``block`` is the
    number of points a call of ``_evaluate`` takes.
    """

    base: np.ndarray
    tree: np.ndarray
    terms: tuple
    marked: np.ndarray
    births: tuple
    block: int


def _plan(model: PdeModel, sk: _Skeleton, points: np.ndarray,
          mark: int) -> _Plan:
    """The _Plan of skeleton ``sk`` under ``model`` for the rows of
    ``points``, all the points of a run, with root mark ``mark``.

    A root of mark theta >= 1 multiplies its weight by W = dx_theta / ds
    (0 where ds = 0), and a root leaf subtracts phi at its birth, the
    origin, like the other marked leaves.  A radial callable reads its rows
    as |disp|^2 and sum_j disp_j over the coordinates above ``top``, summed
    as ``radial_args`` sums them, and the columns 0..top, copied, where
    ``top`` is the last coordinate that is nonzero in some point.  Any other
    callable reads its rows of the skeleton's displacements.
    """
    nonzero = np.flatnonzero(np.any(points != 0.0, axis=0))
    top = int(nonzero[-1]) if nonzero.size else 0

    def term(fn, disp, times=None):
        if not hasattr(fn, "radial"):
            return fn, times, disp
        r2, s = radial_args(disp[:, top + 1:])
        return fn, times, (r2, s, [disp[:, j].copy() for j in range(top + 1)])

    phi = model.terminal.phi
    factor = sk.weight.copy()
    marked, marked_birth = sk.marked_rows, sk.marked_birth
    if mark:
        ds = sk.root_ds
        factor[sk.root] *= np.divide(sk.disp[sk.root, mark - 1], ds,
                                     out=np.zeros_like(ds), where=ds > 0.0)
        root_leaves = sk.root[sk.root < sk.bounds[1]]
        marked = np.concatenate([marked, root_leaves])
        marked_birth = np.concatenate(
            [marked_birth, np.zeros((root_leaves.size, model.d))])
    kinds, terms = [0], [term(phi, sk.disp[:sk.bounds[1]])]
    for ci, coeff in enumerate(model.nonlinearity.coeffs):
        lo, hi = sk.bounds[ci + 1], sk.bounds[ci + 2]
        if isinstance(coeff, ConstantCoefficient):
            factor[lo:hi] *= coeff.value
        elif hi > lo:
            kinds.append(ci + 1)
            terms.append(term(coeff, sk.disp[lo:hi],
                              sk.death[lo - sk.bounds[1]:hi - sk.bounds[1]]))
    tree = np.concatenate([sk.tree[sk.bounds[k]:sk.bounds[k + 1]]
                           for k in kinds])
    births = term(phi, marked_birth) if marked.size else ()
    rows = tree.size + marked.size
    return _Plan(base=_multiply(np.ones(sk.particles.size), sk.tree, factor),
                 tree=tree, terms=tuple(terms), marked=marked,
                 births=births, block=max(1, EVAL_BLOCK_CELLS // max(rows, 1)))


def _values(fn, times, rows, points: np.ndarray) -> np.ndarray:
    """``fn`` (phi, or c_l at death ``times``) at x + disp for each point x
    (a row of ``points``) and each row of a _Plan term: a (G, rows) array.

    A radial ``fn`` gets |x + disp|^2 and sum_j (x + disp)_j, continued
    from the plan's tails one column at a time, never x + disp itself.  Any
    other ``fn`` is called at x + disp one point at a time, in row blocks of
    at most CALL_BLOCK_CELLS cells.
    """
    radial = getattr(fn, "radial", None)
    if radial is not None:
        r2, s, columns = rows
        for j in range(len(columns) - 1, -1, -1):
            y = columns[j] + points[:, j, None]
            s = s + y
            y *= y
            y += r2
            r2 = y
        return radial(r2, s) if times is None else radial(times, r2, s)
    out = np.empty((len(points), len(rows)))
    step = max(1, CALL_BLOCK_CELLS // points.shape[1])
    for x, row_out in zip(points, out):
        for lo in range(0, len(rows), step):
            at = x + rows[lo:lo + step]
            row_out[lo:lo + step] = (fn(at) if times is None
                                     else fn(times[lo:lo + step], at))
    return out


def _evaluate(plan: _Plan, points: np.ndarray) -> np.ndarray:
    """Per-tree products H of a planned skeleton rooted at each row of
    ``points`` (a (G, d) block of the run's points): an (n, G) array,
    column g for point g.

    Each point's column starts from the plan's ``base`` and multiplies in
    its point-dependent factors: phi at x + displacement for every leaf,
    minus phi at birth for the marked leaves, and c_l at the interior deaths
    of each category whose coefficient is not constant.  A point's column
    does not depend on the other points of the block.  A tree with an
    exactly zero factor has H = 0; raises ProductOverflowError if any other
    product is not finite.
    """
    points = np.asarray(points, dtype=float)
    # one (G, rows) array of factors per point-dependent kind
    parts = [_values(*term, points) for term in plan.terms]
    if plan.marked.size:
        births = _values(*plan.births, points)
        for leaves, birth in zip(parts[0], births):
            leaves[plan.marked] -= birth

    h = np.tile(plan.base, (len(points), 1))
    for g, out in enumerate(h):
        _multiply(out, plan.tree, np.concatenate([part[g] for part in parts]))
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
    anything.
    """

    def __init__(self, points):
        self.points = np.array(points, dtype=float)
        if self.points.ndim != 2:
            raise DomainError("grid points must form a (G, d) array, got "
                              f"shape {self.points.shape}")
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
    ``elapsed`` is the time of the whole grid); an x that is not a row of
    the grid raises DomainError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if grid is None:
        return _estimate_points(model, t, x[None, :], (mark,), T, n_trees,
                                master_seed, workers, budget)[0]
    hits = (np.flatnonzero(np.all(grid.points == x, axis=1))
            if x.shape == grid.points.shape[1:] else ())
    if not len(hits):
        raise DomainError(f"x={x} is not a point of the grid")
    key = (model, t, mark, T, n_trees, master_seed, budget)
    if grid._key != key:
        grid._results = _estimate_points(model, t, grid.points, (mark,), T,
                                         n_trees, master_seed, workers, budget)
        grid._key = key
    return grid._results[hits[0]]


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
