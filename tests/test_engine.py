import dataclasses
import functools
import json
import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from branchpde import engine
from branchpde.cli import EXIT_BUDGET, main, resolve_model
from branchpde.engine import (BATCH_TREES, MAX_BATCH_FLOATS,
                              EstimatorResult, Grid, TreeBudget, _evaluate,
                              _grow_skeleton, _plan, _values, estimate,
                              estimate_gradient_all)
from branchpde.errors import (BudgetExceededError, DegenerateDerivativeError,
                              DomainError, ProductOverflowError)
from branchpde.model import (ClippedCoordinate, ConstantCoefficient,
                             GraddSource, LifetimeDensity, NldSource,
                             PdeModel, PolynomialNonlinearity, ScaledBump,
                             TerminalCondition, builtin_model,
                             uniform_branching)
from branchpde.sampling import RngStream
from branchpde.specfun import phi_bump


def _pure_heat_model(d=2, bound=50.0):
    """f = 0 and a clipped-coordinate terminal: u(t, x) ~ x_1 away from the
    clip, du/dx_1 ~ 1, du/dx_2 ~ 0."""
    nonlin = PolynomialNonlinearity(
        indices=((1,),), coeffs=(ConstantCoefficient(0.0),),
        coeff_sup=(0.0,))
    terminal = TerminalCondition(phi=ClippedCoordinate(index=1, bound=bound),
                                 sup_norm=bound, lipschitz=1.0)
    return PdeModel(name="pure-heat", d=d, alpha=2.0, kappa=1.0,
                    nonlinearity=nonlin, terminal=terminal,
                    branching=uniform_branching(1),
                    lifetime=LifetimeDensity(0.5))


class TestTerminalShortCircuit:
    def test_estimate_at_horizon(self):
        model = builtin_model("nld", d=2, alpha=1.5, k=1)
        x = np.array([0.3, 0.1])
        res = estimate(model, 1.0, x, 0, 1.0, n_trees=100)
        assert res.mean == pytest.approx(
            math.exp(-1.0) * phi_bump(1, 1.5, x), rel=1e-12)
        assert res.stderr == 0.0 and res.ci95 == (res.mean, res.mean)
        assert res.max_tree_size == 1

    def test_derivative_at_horizon_degenerate(self):
        model = builtin_model("gradd", d=2, alpha=1.5, k=1)
        with pytest.raises(DegenerateDerivativeError):
            estimate(model, 1.0, np.zeros(2), 1, 1.0, n_trees=100)
        with pytest.raises(DegenerateDerivativeError):
            estimate_gradient_all(model, 1.0, np.zeros(2), 1.0, n_trees=100)


class TestUnbiasedness:
    def test_linear_feynman_kac(self):
        # u(t, x) = exp(c (T - t)) for f = c u and phi = 1
        model = builtin_model("linear-test", alpha=1.5, c=0.8)
        res = estimate(model, 0.25, np.zeros(1), 0, 1.0, n_trees=200_000,
                       master_seed=7)
        exact = math.exp(0.8 * 0.75)
        assert abs(res.mean - exact) < 3.5 * res.stderr

    def test_pure_heat_solution_and_gradient(self):
        model = _pure_heat_model()
        x = np.array([0.3, -0.2])
        res0 = estimate(model, 0.5, x, 0, 1.0, n_trees=200_000, master_seed=1)
        assert abs(res0.mean - 0.3) < 3.5 * res0.stderr
        res1 = estimate(model, 0.5, x, 1, 1.0, n_trees=200_000, master_seed=2)
        assert abs(res1.mean - 1.0) < 3.5 * res1.stderr
        res2 = estimate(model, 0.5, x, 2, 1.0, n_trees=200_000, master_seed=3)
        assert abs(res2.mean - 0.0) < 3.5 * max(res2.stderr, 1e-12)

    def test_nld_manufactured_solution(self):
        model = builtin_model("nld", d=2, alpha=1.5, k=1)
        x = np.array([0.4, 0.0])
        res = estimate(model, 0.5, x, 0, 1.0, n_trees=200_000, master_seed=11)
        exact = math.exp(-0.5) * phi_bump(1, 1.5, x)
        assert abs(res.mean - exact) < 3.5 * res.stderr
        assert res.stderr < 0.02

    def test_zero_lifetimes_raise_no_warning(self):
        # Gamma(0.01) lifetimes are exactly 0.0 about once in 2,000 draws;
        # rho(0) is then the +inf limit and the interior factor exactly 0
        model = builtin_model("linear-test", alpha=1.5, c=1.0, delta=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.lifetime.rho(np.zeros(1))[0] == math.inf
            res = estimate(model, 0.9, np.zeros(1), 0, 1.0, n_trees=20_000,
                           master_seed=1)
        assert math.isfinite(res.mean) and res.mean_tree_size > 5.0

    def test_zero_lifetime_derivative_weight(self):
        # a marked particle with a zero Gamma(0.01) lifetime has ds = dx = 0;
        # its weight is 0, not 0/0, and the estimate of du/dx = 0 is finite
        model = builtin_model("linear-test", alpha=1.5, c=1.0, delta=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = estimate(model, 0.9, np.zeros(1), 1, 1.0, n_trees=20_000,
                           master_seed=1)
        assert math.isfinite(res.mean) and res.stderr > 0.0
        assert abs(res.mean) < 4.0 * res.stderr

    def test_derivative_weight_mean_zero(self):
        # a constant terminal has zero derivative, so the marked estimator's
        # mean must vanish
        model = builtin_model("linear-test", alpha=1.5, c=1.0)
        res = estimate(model, 0.5, np.zeros(1), 1, 1.0, n_trees=200_000,
                       master_seed=5)
        assert abs(res.mean) < 4.0 * res.stderr


def _fourier_model(alpha, kappa, xi, c=0.5):
    """f = c u and phi = cos(xi . x): u = cos(xi . x) e^((T-t)(c -
    kappa |xi|^alpha)) solves the equation exactly."""
    phase = " + ".join(f"{k!r} * x{j}" for j, k in enumerate(xi, 1))
    return resolve_model({"model": {
        "d": len(xi), "alpha": alpha, "kappa": kappa, "indices": [[1]],
        "coeffs": [c], "coeff_sup": [c],
        "terminal": {"expr": f"cos({phase})", "sup": 1.0,
                     "lipschitz": float(np.linalg.norm(xi))}}})


def _cole_hopf(tau, s, nu):
    """w(tau, s) and w_s of viscous Burgers w_tau + w w_s = nu w_ss with
    w(0, s) = cos(s), by Cole-Hopf: w = -2 nu theta_s / theta, where theta
    solves the heat equation from e^(-sin(s) / (2 nu)).  Each theta
    integral is a quadrature against the heat kernel, y = s - sigma z."""
    sigma = math.sqrt(2.0 * nu * tau)

    def gauss(g):
        return integrate.quad(
            lambda z: math.exp(-z * z / 2.0 - math.sin(s - sigma * z)
                               / (2.0 * nu)) * g(z, s - sigma * z),
            -12.0, 12.0, epsabs=0.0, epsrel=1e-11, limit=200)[0]

    den = gauss(lambda z, y: 1.0)
    num = gauss(lambda z, y: math.cos(y))
    # d/ds of the kernel integral is -(1/sigma) times the z-weighted one
    den_s = -gauss(lambda z, y: z) / sigma
    num_s = -gauss(lambda z, y: z * math.cos(y)) / sigma
    return num / den, (num_s * den - num * den_s) / den ** 2


class TestExactOracles:
    """Estimates against closed forms at kappa != 1 and for the gradient
    categories, within 4 stderr at fixed seeds."""

    @pytest.mark.parametrize("alpha,kappa,xi", [
        (1.5, 10.0, (1.0, 0.5)),
        (1.2, 2.0, (1.0, 0.5) + (0.2,) * 8),
    ], ids=["d2", "d10"])
    def test_fourier_mode(self, alpha, kappa, xi):
        # u = cos(xi . x) e^(0.1 (0.5 - kappa |xi|^alpha)) at t = 0.9, and
        # du/dx_i = -xi_i sin(xi . x) times the same factor: the
        # subordinated moves scale as kappa^(1/alpha)
        model = _fourier_model(alpha, kappa, xi)
        xi = np.array(xi)
        x = np.full(xi.size, 0.3)
        decay = math.exp(0.1 * (0.5 - kappa * np.linalg.norm(xi) ** alpha))
        exact = decay * np.concatenate(
            [[math.cos(xi @ x)], -xi * math.sin(xi @ x)])
        results = [estimate(model, 0.9, x, 0, 1.0, n_trees=100_000,
                            master_seed=1)]
        results += estimate_gradient_all(model, 0.9, x, 1.0, n_trees=100_000,
                                         master_seed=1)
        for res, value in zip(results, exact):
            assert abs(res.mean - value) < 4.0 * res.stderr

    def test_burgers_cole_hopf(self):
        # f = -u (du/dx_1 + du/dx_2) at alpha = 2, kappa = 0.5 and phi =
        # 0.5 cos(x1 + x2): u = v(t, x1 + x2), and w = 2 v solves viscous
        # Burgers with nu = 2 kappa in tau = T - t
        model = resolve_model({"model": {
            "d": 2, "alpha": 2.0, "kappa": 0.5,
            "indices": [[1, 1, 0], [1, 0, 1]], "coeffs": [-1, -1],
            "coeff_sup": [1, 1],
            "terminal": {"expr": "0.5 * cos(x1 + x2)", "sup": 0.5,
                         "lipschitz": 0.5 * math.sqrt(2.0)}}})
        assert model.m == 2
        points = np.array([[x1, 0.0] for x1 in (-1.0, 0.0, 0.4, 1.2)])
        grid = Grid(points)
        for x in points:
            w, w_s = _cole_hopf(0.1, x[0], 1.0)
            for mark, value in ((0, w / 2.0), (1, w_s / 2.0)):
                res = estimate(model, 0.9, x, mark, 1.0, n_trees=200_000,
                               master_seed=3, grid=grid)
                assert abs(res.mean - value) < 4.0 * res.stderr


class TestDeterminism:
    def test_same_seed_same_result(self):
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        a = estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=30_000,
                     master_seed=9)
        b = estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=30_000,
                     master_seed=9)
        assert (a.mean, a.stderr, a.max_tree_size) == \
            (b.mean, b.stderr, b.max_tree_size)

    def test_seed_changes_result(self):
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        a = estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=10_000,
                     master_seed=9)
        b = estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=10_000,
                     master_seed=10)
        assert a.mean != b.mean

    def test_worker_count_invariance(self):
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        n = 2 * BATCH_TREES + 1000  # three batches
        seq = estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=n,
                       master_seed=4, workers=1)
        par = estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=n,
                       master_seed=4, workers=3)
        assert seq.mean == par.mean
        assert seq.stderr == par.stderr
        assert seq.mean_tree_size == par.mean_tree_size

    def test_marks_weigh_their_own_coordinate(self):
        # marks 1 and 2 share their trees; W reads dx_1, then dx_2
        model = _pure_heat_model()
        a = estimate(model, 0.5, np.zeros(2), 1, 1.0, n_trees=5_000,
                     master_seed=0)
        b = estimate(model, 0.5, np.zeros(2), 2, 1.0, n_trees=5_000,
                     master_seed=0)
        assert a.mean != b.mean

    def test_pool_is_bounded_by_the_batches(self, monkeypatch):
        """Under the fork start method a pool starts all of its workers at
        its first job, so a run asks for no more workers than it has
        batches.  The recording executor runs the batches in this process
        and starts none."""
        requested = []

        class Recorder:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(engine, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(engine, "BATCH_TREES", 100)
        model = builtin_model("linear-test", alpha=1.5)
        estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=300,
                 workers=10 ** 6)
        assert requested == [3]


class TestSharedSkeleton:
    """Every mark is evaluated on the same trees, grown once per batch."""

    @staticmethod
    def _same(a: EstimatorResult, b: EstimatorResult) -> bool:
        return (dataclasses.replace(a, elapsed=0.0)
                == dataclasses.replace(b, elapsed=0.0))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["gradd", "burgers-cosine"])
    def test_gradient_all_is_estimate_per_mark(self, name, workers,
                                               monkeypatch):
        monkeypatch.setattr(engine, "BATCH_TREES", 500)    # two batches
        model = _catalog(name)
        x = np.array([0.5, -0.2])
        joint = estimate_gradient_all(model, 0.9, x, 1.0, 1_000,
                                      master_seed=3, workers=workers)
        assert len(joint) == 2
        for mark, res in enumerate(joint, 1):
            alone = estimate(model, 0.9, x, mark, 1.0, 1_000, master_seed=3,
                             workers=workers)
            assert self._same(alone, res)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_marks_of_a_model_without_gradient_terms(self, workers,
                                                     monkeypatch):
        # linear-test has m = 0 but d = 1: estimate_gradient_all still
        # estimates du/dx_1, and the engine's joint run of marks 0 and 1 is
        # still each mark's estimate
        monkeypatch.setattr(engine, "BATCH_TREES", 500)
        model = builtin_model("linear-test", alpha=1.5)
        x = np.array([0.3])
        gradient = estimate_gradient_all(model, 0.9, x, 1.0, 1_000,
                                         master_seed=3, workers=workers)
        assert len(gradient) == 1
        assert self._same(gradient[0],
                          estimate(model, 0.9, x, 1, 1.0, 1_000,
                                   master_seed=3, workers=workers))
        joint = engine._estimate_points(model, 0.9, x[None, :], (0, 1), 1.0,
                                        1_000, 3, workers, TreeBudget())
        for mark, res in enumerate(joint):
            alone = estimate(model, 0.9, x, mark, 1.0, 1_000, master_seed=3,
                             workers=workers)
            assert self._same(alone, res)

    def test_gradient_all_grows_each_batch_once(self, monkeypatch):
        streams = []
        grow = engine._grow_skeleton

        def spy(model, t, T, n, rng, budget):
            streams.append(rng.stream_id)
            return grow(model, t, T, n, rng, budget)

        monkeypatch.setattr(engine, "_grow_skeleton", spy)
        monkeypatch.setattr(engine, "BATCH_TREES", 500)
        estimate_gradient_all(_catalog("gradd"), 0.9, np.array([0.5, 0.0]),
                              1.0, 1_500, master_seed=3)
        assert streams == [0, 1, 2]

    def test_health_fields_at_any_worker_count(self, monkeypatch):
        """``generations`` is the most levels a batch grew and
        ``cms_resamples`` the sum of the batch streams' counts, at any
        worker count.  A sampler that counts one redraw per level makes
        that sum the levels of all batches."""
        cms = engine.sample_stable_subordinator

        def counting(alpha, t, rng, size):
            rng.cms_resamples += 1
            return cms(alpha, t, rng, size=size)

        monkeypatch.setattr(engine, "sample_stable_subordinator", counting)
        monkeypatch.setattr(engine, "BATCH_TREES", 100)
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        levels = [_grow_skeleton(model, 0.5, 1.0, 100, RngStream(4, i),
                                 TreeBudget()).generations for i in range(3)]
        for workers in (1, 2):
            res = estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=300,
                           master_seed=4, workers=workers)
            assert (res.generations, res.cms_resamples) == \
                (max(levels), sum(levels))


_NLD_INLINE = {
    "d": 10, "alpha": 1.5, "indices": [[0], [1], [4]],
    "coeffs": ["exp(-t) * psi_getoor(1, 1.5) - exp(-4 * t) * "
               "pospart(1 - norm2()) ^ 7", 1, 1],
    "coeff_sup": [10.0, 1.0, 1.0],
    "terminal": {"expr": "0.36787944117144233 * phi_bump(1, 1.5)",
                 "sup": 0.37}}
_GRADD_INLINE = {
    "d": 2, "alpha": 1.5,
    "indices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 0, 1]],
    "coeffs": ["exp(-t) * psi_getoor(1, 1.5) + 3.5 * exp(-2 * t) * "
               "pospart(1 - norm2()) ^ 2.5 * (x1 + x2)", 1, 1, 1],
    "coeff_sup": [10.0, 1.0, 1.0, 1.0],
    "terminal": {"expr": "0.36787944117144233 * phi_bump(1, 1.5)",
                 "sup": 0.37}}


def _burgers_inline(d):
    """Catalog burgers-cosine (fig3b's model) at dimension ``d``, written
    as an inline model."""
    half = repr(math.pi / 2.0)
    cosines = "*".join(f"cos(x{j})" for j in range(1, d + 1))
    return {"d": d, "alpha": 1.5,
            "indices": [[1] + [int(j == i) for j in range(d)]
                        for i in range(d)],
            "coeffs": [-1] * d, "coeff_sup": [1] * d,
            "terminal": {"expr": f"{cosines}*indicator_box(-{half}, {half})",
                         "sup": 1.0}}


class TestInlineCopies:
    """An inline expression copy of a catalog model gives the catalog's
    mean and stderr bit for bit: norm2(), phi_bump and psi_getoor read
    |x|^2 from specfun.radial_args, as the catalog's radial models do, and
    folding an expression for a run keeps its bits."""

    @pytest.mark.parametrize("name,d,spec,marks", [
        ("nld", 10, _NLD_INLINE, (0,)),
        ("gradd", 2, _GRADD_INLINE, (0, 1, 2)),
    ])
    def test_inline_copy_gives_catalog_bits(self, name, d, spec, marks):
        catalog = builtin_model(name, d=d, alpha=1.5, k=1)
        inline = resolve_model({"model": spec})
        # the last nonzero coordinate is the first, then a later one
        points = [np.eye(d)[0] * 0.3, np.eye(d)[0] * -0.7,
                  np.linspace(0.4, -0.2, d), np.eye(d)[-1] * 0.5]
        for x in points:
            for mark in marks:
                want = estimate(catalog, 0.5, x, mark, 1.0, 2_000,
                                master_seed=3)
                got = estimate(inline, 0.5, x, mark, 1.0, 2_000,
                               master_seed=3)
                assert (got.mean, got.stderr) == (want.mean, want.stderr)

    @pytest.mark.parametrize("name,d,spec,marks", [
        ("nld", 10, _NLD_INLINE, (0,)),
        ("gradd", 2, _GRADD_INLINE, (0, 1, 2)),
    ])
    @pytest.mark.parametrize("fixed", [0.0, 0.3])
    def test_inline_sweep_gives_catalog_bits(self, name, d, spec, marks,
                                             fixed):
        """An x1 sweep reads x1 alone: norm2(), phi_bump and psi_getoor
        keep the |x|^2 of the later coordinates (0, or x_d = ``fixed``),
        summed once per plan and continued over x1."""
        catalog = builtin_model(name, d=d, alpha=1.5, k=1)
        inline = resolve_model({"model": spec})
        points = np.zeros((9, d))
        points[:, -1] = fixed
        points[:, 0] = np.linspace(-1.2, 1.2, len(points))
        for mark in marks:
            want, got = Grid(points), Grid(points)
            for x in points:
                a = estimate(catalog, 0.5, x, mark, 1.0, 2_000,
                             master_seed=3, grid=want)
                b = estimate(inline, 0.5, x, mark, 1.0, 2_000,
                             master_seed=3, grid=got)
                assert (b.mean, b.stderr) == (a.mean, a.stderr)

    @pytest.mark.parametrize("d", [2, 3])
    def test_inline_burgers_sweep_gives_catalog_bits(self, d):
        """An x1 sweep with fixed nonzero later coordinates folds them out
        of the inline terminal."""
        catalog = builtin_model("burgers-cosine", d=d, alpha=1.5)
        inline = resolve_model({"model": _burgers_inline(d)})
        points = np.tile(np.linspace(-0.2, 0.4, d), (9, 1))
        points[:, 0] = np.linspace(-2.0, 2.0, len(points))
        for mark in range(d + 1):
            want, got = Grid(points), Grid(points)
            for x in points:
                a = estimate(catalog, 0.5, x, mark, 1.0, 2_000,
                             master_seed=3, grid=want)
                b = estimate(inline, 0.5, x, mark, 1.0, 2_000,
                             master_seed=3, grid=got)
                assert (b.mean, b.stderr) == (a.mean, a.stderr)


class TestTreeSizeOracle:
    def test_volterra_particle_count(self):
        """The expected total particle count g(tau) over a remaining horizon
        tau solves the renewal-type equation

            g(tau) = 1 + mu * int_0^tau rho(s) g(tau - s) ds,

        with mu the mean number of offspring per interior death."""
        model = builtin_model("nld", d=1, alpha=1.5, k=1, delta=1.5)
        mu = (0 + 1 + 4) / 3.0
        tau_max = 0.75
        h = 5e-4
        grid = np.arange(0.0, tau_max + h / 2, h)
        rho = model.lifetime.rho(grid)
        g = np.empty_like(grid)
        g[0] = 1.0
        for i in range(1, grid.size):
            conv = np.trapezoid(rho[:i + 1] * g[i::-1], dx=h)
            g[i] = 1.0 + mu * conv

        rng = RngStream(21, 0)
        n = 100_000
        particles = _grow_skeleton(model, 1.0 - tau_max, 1.0, n, rng,
                                   TreeBudget()).particles
        emp = particles.mean()
        se = particles.std(ddof=1) / math.sqrt(n)
        assert abs(emp - g[-1]) < 4.0 * se


@functools.lru_cache(maxsize=None)
def _catalog(name, d=2):
    if name == "burgers-inline":
        return resolve_model({"model": _burgers_inline(d)})
    kwargs = {} if name == "burgers-cosine" else {"k": 1}
    return builtin_model(name, d=d, alpha=1.5, **kwargs)


def _nbytes(obj) -> int:
    """Bytes of every array held by ``obj``, through containers and
    dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return sum(map(_nbytes, obj))
    return 0


def _particle_products(model, skeleton, x, mark) -> list:
    """Exact per-tree products of a skeleton at x under root mark ``mark``:
    each particle's float factors (its weight, and phi or c_l), multiplied
    as Fractions.  A root (row i for tree i) of mark theta >= 1 also takes
    W = dx_theta / ds, its move over its subordinator increment, and a root
    leaf subtracts phi at the origin.  Any other marked leaf subtracts phi
    at its birth, its parent's displacement at death."""
    sk = skeleton
    phi = model.terminal.phi
    # each leaf row's position among the leaves, each interior row's category
    leaf_at = {row: i for i, row in enumerate(sk.rows[0].tolist())}
    category = {row: ci for ci, rows in enumerate(sk.rows[1:])
                for row in rows.tolist()}
    births = dict(zip(sk.marked_rows.tolist(), sk.disp[sk.marked_parent]))
    h = [Fraction(1)] * sk.particles.size
    if mark:
        for root, ds in enumerate(sk.root_ds.tolist()):
            h[root] = (Fraction(0) if ds == 0.0 else
                       Fraction(sk.disp[root, mark - 1]) / Fraction(ds))
            if root in leaf_at:
                births[leaf_at[root]] = np.zeros(model.d)
    for row in range(sk.tree.size):
        pos = (x + sk.disp[row])[None, :]
        if row in leaf_at:
            value = float(phi(pos)[0])
            if leaf_at[row] in births:
                value -= float(phi((x + births[leaf_at[row]])[None, :])[0])
        else:
            coeff = model.nonlinearity.coeffs[category[row]]
            value = float(coeff(sk.death[row:row + 1], pos)[0])
        h[sk.tree[row]] *= Fraction(value) * Fraction(sk.weight[row])
    return h


class TestFlatSkeleton:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["nld", "gradd", "burgers-cosine"]),
           mark=st.integers(0, 2), horizon=st.floats(0.05, 0.6),
           x=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2),
           n=st.integers(1, 30), seed=st.integers(0, 2 ** 16))
    def test_fold_matches_particle_products(self, name, mark, horizon, x, n,
                                            seed):
        model = _catalog(name)
        mark = min(mark, model.m)
        x = np.array(x)
        sk = _grow_skeleton(model, 1.0 - horizon, 1.0, n, RngStream(seed, 0),
                            TreeBudget())
        # each particle is stored once, in draw order: row i is tree i's
        # root, and no root is a marked leaf; the kinds' rows partition the
        # rows, each increasing, and every interior particle dies before T
        size = sk.tree.size
        assert size == sk.particles.sum()
        assert sk.disp.shape == (size, model.d)
        assert sk.death.shape == (size,)
        assert np.array_equal(np.bincount(sk.tree, minlength=n), sk.particles)
        assert np.array_equal(sk.tree[:n], np.arange(n))
        assert not np.isin(np.flatnonzero(sk.rows[0] < n),
                           sk.marked_rows).any()
        assert np.array_equal(np.sort(np.concatenate(sk.rows)),
                              np.arange(size))
        assert all(np.all(np.diff(rows) > 0) for rows in sk.rows)
        assert np.all(sk.death[np.concatenate(sk.rows[1:])] < 1.0)
        h = _evaluate(_plan(model, sk, x[None, :], mark), x[None, :])[:, 0]
        ref = _particle_products(model, sk, x, mark)
        # each particle's factors take at most two roundings
        for value, exact, size in zip(h, ref, sk.particles):
            if exact == 0:
                assert value == 0.0
            else:
                error = abs(Fraction(float(value)) - exact)
                assert error <= 2 * (size + 1) * Fraction(2) ** -53 * abs(exact)

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["nld", "gradd", "burgers-cosine",
                                 "burgers-inline"]),
           d=st.sampled_from([1, 2, 10]), mark=st.integers(0, 2),
           horizon=st.floats(0.05, 0.6), n=st.integers(1, 30),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_block_points_are_independent(self, name, d, mark, horizon, n,
                                          seed, data):
        """A block's columns, planned for all of its points, are its points'
        one-point evaluations, each planned for that point alone, bit for
        bit; and every term, radial, folded or called as it is, gives the
        bits of phi and c_l called at x + disp, reading only the columns up
        to the last one in which the points differ when it can."""
        model = _catalog(name, d)
        mark = min(mark, d)
        coordinate = st.one_of(st.just(0.0), st.floats(-1.5, 1.5))
        points = np.array(data.draw(st.lists(
            st.lists(coordinate, min_size=d, max_size=d),
            min_size=1, max_size=7)))
        skeleton = _grow_skeleton(model, 1.0 - horizon, 1.0, n,
                                  RngStream(seed, 0), TreeBudget())
        plan = _plan(model, skeleton, points, mark)
        block = _evaluate(plan, points)
        alone = np.column_stack([
            _evaluate(_plan(model, skeleton, p[None, :], mark), p[None, :])
            for p in points])
        assert block.shape == (n, len(points))
        assert block.tobytes() == alone.tobytes()

        # the plan's terms: the leaves, then each category whose coefficient
        # is not constant and that has rows, then the marked leaves' births,
        # their parents' rows of disp
        sk = skeleton
        phi, coeffs = model.terminal.phi, model.nonlinearity.coeffs
        kinds = [(phi, sk.disp[sk.rows[0]], ())] + [
            (coeff, sk.disp[rows], (sk.death[rows],))
            for coeff, rows in zip(coeffs, sk.rows[1:])
            if not isinstance(coeff, ConstantCoefficient) and rows.size]
        terms = list(plan.terms)
        if plan.marked.size:
            kinds.append((phi, sk.disp[sk.marked_parent], ()))
            terms.append(plan.births)
        assert np.array_equal(plan.marked, sk.marked_rows)
        assert len(terms) == len(kinds)
        # the root leaves, the leaves at rows 0..n-1, subtract phi at the
        # point for a mark >= 1, with the bits of phi at x plus a zero
        # displacement
        roots = np.count_nonzero(sk.rows[0] < n) if mark else 0
        assert plan.roots == roots and plan.phi is phi
        want = np.array([phi(x + np.zeros((1, d)))[0] for x in points])
        assert plan.phi(points + 0.0).tobytes() == want.tobytes()
        # a radial or folded term reads the coordinates up to the last one
        # whose bits differ between the points, any other term all of them
        differ = [j for j in range(d)
                  if len({p.tobytes() for p in points[:, j:j + 1]}) > 1]
        lead = differ[-1] + 1 if differ else 0
        for term, (fn, disp, times) in zip(terms, kinds):
            narrow = hasattr(fn, "fold")
            assert term[2].shape == (len(disp), lead if narrow else d)
            got = _values(term, points)
            want = np.array([fn(*times, x + disp) for x in points])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name,d", [("nld", 10), ("gradd", 2)])
    def test_sweep_calls_the_radial_callables(self, name, d, monkeypatch):
        """A multi-point run of u and du/dx_1 at t < T evaluates the
        catalog's bump and source through their ``__call__``, as a tracer
        wrapping it sees, with the bits of an unwrapped run."""
        model = builtin_model(name, d=d, k=1)
        points = np.zeros((3, d))
        points[:, 0] = (-0.6, 0.1, 0.8)

        def run():
            return [dataclasses.replace(res, elapsed=0.0)
                    for res in engine._estimate_points(
                        model, 0.8, points, (0, 1), 1.0, 2_000, 7, 1,
                        TreeBudget())]

        want = run()
        calls = dict.fromkeys((ScaledBump, NldSource, GraddSource), 0)
        for cls in calls:

            def counted(self, *args, _call=cls.__call__, _cls=cls):
                calls[_cls] += 1
                return _call(self, *args)

            monkeypatch.setattr(cls, "__call__", counted)
        assert run() == want
        source = NldSource if name == "nld" else GraddSource
        assert calls[ScaledBump] > 0 and calls[source] > 0

    def test_memory_peaks(self):
        """Growing one 25k-tree batch of fig1b (nld, d = 10), and evaluating
        it at the largest block of points a sweep evaluates together, each
        peak below 1.85 times the bytes the skeleton and its evaluation plan
        store.  The evaluation peak includes planning the sweep's 61 points.

        Calibrated on the per-generation layout that preceded the flat one:
        6.2 MB stored, growth peak 10.3 MB (1.67x), evaluation peak at one
        point 9.7 MB (1.57x).  The flat skeleton, its displacements one
        (N, d) array, and its plan store 6.60 MB; growth peaks at 1.40x
        (9.24 MB) and planning and a 4-point block at 1.55x (10.24 MB).
        Kept in draw order, with each kind an index array of its rows and a
        death time per row, they store 7.47 MB; growth peaks at 1.34x
        (10.00 MB) and planning and a 4-point block at 1.48x (11.03 MB).
        Holding a second copy of the skeleton adds about 0.8x to either.
        """
        model = builtin_model("nld", d=10, alpha=1.5, k=1)
        small = _grow_skeleton(model, 0.9, 1.0, 100, RngStream(1, 0),
                               TreeBudget())
        # first-call allocations
        _evaluate(_plan(model, small, np.eye(10)[:2], 0), np.eye(10)[:2])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            skeleton = _grow_skeleton(model, 0.9, 1.0, BATCH_TREES,
                                      RngStream(0, 0), TreeBudget())
            grow_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            points = np.zeros((61, 10))
            points[:, 0] = np.linspace(-1.2, 1.2, len(points))
            plan = _plan(model, skeleton, points, 0)
            _evaluate(plan, points[:plan.block])
            eval_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert plan.block > 1
        stored = _nbytes(skeleton) + _nbytes(plan)
        assert grow_peak < 1.85 * stored
        assert eval_peak < 1.85 * stored


class TestBudgets:
    def test_generation_budget(self):
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        with pytest.raises(BudgetExceededError) as err:
            estimate(model, 0.0, np.zeros(1), 0, 1.0, n_trees=10_000,
                     budget=TreeBudget(max_generation=1))
        assert err.value.completed_trees == 0

    def test_two_generation_budget(self):
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        with pytest.raises(BudgetExceededError):
            estimate(model, 0.0, np.zeros(1), 0, 1.0, n_trees=50,
                     budget=TreeBudget(max_generation=2))

    def test_abort_is_the_same_at_any_worker_count(self, monkeypatch):
        # 10 batches of 100 trees; the second batch outgrows the budget
        monkeypatch.setattr(engine, "BATCH_TREES", 100)
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        errors = []
        for workers in (1, 2):
            with pytest.raises(BudgetExceededError) as err:
                estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=1_000,
                         workers=workers, budget=TreeBudget(max_generation=11))
            errors.append((str(err.value), err.value.completed_trees))
        assert errors[0] == errors[1]
        assert errors[0][1] == 100

    def test_product_overflow_is_typed(self):
        # c = 1e300 with two children per death: a tree with two interior
        # particles has a product beyond the float range
        nonlin = PolynomialNonlinearity(
            indices=((2,),), coeffs=(ConstantCoefficient(1e300),),
            coeff_sup=(1e300,))
        terminal = TerminalCondition(phi=ClippedCoordinate(index=1, bound=2.0),
                                     sup_norm=2.0, lipschitz=1.0)
        model = PdeModel(name="overflow", d=1, alpha=1.5, kappa=1.0,
                         nonlinearity=nonlin, terminal=terminal,
                         branching=uniform_branching(1),
                         lifetime=LifetimeDensity(0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProductOverflowError) as err:
                estimate(model, 0.0, np.ones(1), 0, 1.0, n_trees=2_000,
                         master_seed=1)
        again = pickle.loads(pickle.dumps(err.value))
        assert type(again) is ProductOverflowError
        assert str(again) == str(err.value)

    def test_nan_terminal_is_typed(self):
        nonlin = PolynomialNonlinearity(
            indices=((1,),), coeffs=(ConstantCoefficient(1.0),),
            coeff_sup=(1.0,))
        terminal = TerminalCondition(phi=lambda x: np.full(len(x), math.nan),
                                     sup_norm=1.0, lipschitz=None)
        model = PdeModel(name="nan", d=1, alpha=1.5, kappa=1.0,
                         nonlinearity=nonlin, terminal=terminal,
                         branching=uniform_branching(1),
                         lifetime=LifetimeDensity(0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProductOverflowError):
                estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=100)

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            TreeBudget(max_particles=0)

    def test_batch_particle_ceiling(self, tmp_path, capsys, deadline):
        # Gamma(0.01) lifetimes give a linear-test tree about 450 particles
        # over a horizon of 4, so over T - t = 8 one 25k-tree batch would
        # store ~2.2e7 particles, 1.1e8 floats at d + 4 = 5 a particle (1.8
        # times the ceiling), while no single tree comes near the per-tree
        # budget
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "linear-test", "delta": 0.01, "t": 0.0, "T": 8.0,
            "n_trees": BATCH_TREES}))
        with deadline(30.0):
            code = main(["estimate", "--config", str(cfg)])
        assert code == EXIT_BUDGET
        assert f"at d = 1 would store more than {MAX_BATCH_FLOATS} floats" \
            in capsys.readouterr().err


class TestZeroFraction:
    def test_linear_test_has_no_zero_products(self):
        model = builtin_model("linear-test")
        res = estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=5_000)
        assert res.zero_frac == 0.0

    def test_share_of_zero_products(self):
        # nld at x1 = 1.2: a leaf that ends outside the unit ball has phi = 0
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        x = np.array([1.2])
        res = estimate(model, 0.5, x, 0, 1.0, n_trees=4_000, master_seed=3)
        skeleton = _grow_skeleton(model, 0.5, 1.0, 4_000, RngStream(3, 0),
                                  TreeBudget())
        h = _evaluate(_plan(model, skeleton, x[None, :], 0),
                      x[None, :])[:, 0]
        assert 0.0 < res.zero_frac < 1.0
        assert res.zero_frac == np.count_nonzero(h == 0.0) / 4_000

    def test_zero_beats_overflow(self, tmp_path):
        # the product overflow case of TestBudgets, with phi = 0: every tree
        # has a leaf, so every product is 0, however large its other factors
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"d": 1, "indices": [[2]], "coeffs": [1e300],
                      "coeff_sup": [1e300],
                      "terminal": {"expr": "0", "sup": 0.0}},
            "t": 0.0, "T": 1.0, "n_trees": 2_000, "seed": 1}))
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "r.csv.json").read_text())
        assert doc["mean"] == 0.0 and doc["zero_frac"] == 1.0


class TestValidation:
    @pytest.mark.parametrize("t, x, n_trees, workers, error", [
        (1.5, [0.0, 0.0], 100, 1, DomainError),
        (1.0, [0.0, 0.0], 100, 1, DegenerateDerivativeError),
        (0.5, [0.0], 100, 1, DomainError),
        (0.5, [math.nan, 0.0], 100, 1, DomainError),
        (0.5, [0.0, 0.0], 1, 1, DomainError),
        (0.5, [0.0, 0.0], 100, 0, DomainError),
    ], ids=["t-past-T", "t-at-T", "x-shape", "x-nan", "n_trees", "workers"])
    def test_gradient_all_validates_like_estimate(self, t, x, n_trees,
                                                  workers, error):
        model = builtin_model("gradd", d=2, alpha=1.5, k=1)
        x = np.array(x)
        for call in (
                lambda: estimate(model, t, x, 1, 1.0, n_trees,
                                 workers=workers),
                lambda: estimate_gradient_all(model, t, x, 1.0, n_trees,
                                              workers=workers),
                lambda: estimate(model, t, x, 1, 1.0, n_trees,
                                 workers=workers, grid=Grid([x]))):
            with pytest.raises(error) as err:
                call()
            assert type(err.value) is error
        # a Grid refuses a point of another shape or off the grid, and at
        # t == T gives phi at each point for mark 0 and refuses mark 1
        grid = Grid([[0.0, 0.0], [0.5, 0.0]])
        for point in ([0.0], [0.0, 0.0, 0.0], [0.25, 0.0]):
            with pytest.raises(DomainError) as err:
                estimate(model, 0.5, np.array(point), 0, 1.0, 100, grid=grid)
            assert type(err.value) is DomainError
        for point, phi in zip(grid.points, model.terminal.phi(grid.points)):
            res = estimate(model, 1.0, point, 0, 1.0, 100, grid=grid)
            assert (res.mean, res.stderr, res.ci95) == (phi, 0.0, (phi, phi))
        with pytest.raises(DegenerateDerivativeError):
            estimate(model, 1.0, grid.points[0], 1, 1.0, 100, grid=grid)

    def test_bad_inputs(self):
        model = builtin_model("linear-test")
        with pytest.raises(DomainError):
            estimate(model, 0.5, np.zeros(2), 0, 1.0, n_trees=100)
        with pytest.raises(DomainError):
            estimate(model, 0.5, np.zeros(1), 2, 1.0, n_trees=100)
        with pytest.raises(DomainError):
            estimate(model, 1.5, np.zeros(1), 0, 1.0, n_trees=100)
        with pytest.raises(DomainError):
            estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=1)
        with pytest.raises(DomainError):
            estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=100, workers=0)

    def test_result_fields(self):
        model = builtin_model("linear-test")
        res = estimate(model, 0.5, np.zeros(1), 0, 1.0, n_trees=5_000)
        assert isinstance(res, EstimatorResult)
        assert {f.name for f in dataclasses.fields(res)} == {
            "mean", "stderr", "ci95", "n_trees", "elapsed", "mean_tree_size",
            "max_tree_size", "zero_frac", "generations", "cms_resamples"}
        assert res.n_trees == 5_000
        assert res.generations > 1 and res.cms_resamples == 0
        assert res.ci95[0] < res.mean < res.ci95[1]
        assert res.mean_tree_size >= 1.0 and res.elapsed > 0.0

    @pytest.mark.parametrize("name, kwargs, t, x, T", [
        ("nld", {"d": 2, "k": 1}, 0.5, [0.0, 0.0], math.nan),
        ("linear-test", {}, -math.inf, [0.0], 1.0),
        ("nld", {"d": 2, "k": 1}, 0.5, [math.nan, 0.0], 1.0),
    ], ids=["T-nan", "t-minus-inf", "x-nan"])
    def test_non_finite_point_fails_fast(self, name, kwargs, t, x, T,
                                         deadline):
        model = builtin_model(name, **kwargs)
        with deadline(5.0), pytest.raises(DomainError):
            estimate(model, t, np.array(x), 0, T, n_trees=1_000)
