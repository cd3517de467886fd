import contextlib
import dataclasses
import json
import math
import signal
import warnings

import numpy as np
import pytest

from branchpde import engine
from branchpde.cli import EXIT_BUDGET, main
from branchpde.engine import (BATCH_TREES, MAX_BATCH_PARTICLES,
                              EstimatorResult, TreeBudget, _evaluate,
                              _grow_skeleton, estimate, estimate_gradient_all,
                              resolve_workers)
from branchpde.errors import (BudgetExceededError, DegenerateDerivativeError,
                              DomainError)
from branchpde.model import (ClippedCoordinate, ConstantCoefficient,
                             LifetimeDensity, PdeModel,
                             PolynomialNonlinearity, TerminalCondition,
                             builtin_model, uniform_branching)
from branchpde.sampling import RngStream
from branchpde.specfun import phi_bump


def _pure_heat_model(d=2, bound=50.0):
    """f = 0 and a clipped-coordinate terminal: u(t, x) ~ x_1 away from the
    clip, du/dx_1 ~ 1, du/dx_2 ~ 0."""
    nonlin = PolynomialNonlinearity(
        d=d, m=0, indices=((1,),), coeffs=(ConstantCoefficient(0.0),),
        coeff_sup=(0.0,))
    terminal = TerminalCondition(phi=ClippedCoordinate(index=1, bound=bound),
                                 sup_norm=bound, lipschitz=1.0)
    return PdeModel(name="pure-heat", d=d, alpha=2.0, kappa=1.0,
                    nonlinearity=nonlin, terminal=terminal,
                    branching=uniform_branching(1),
                    lifetime=LifetimeDensity(0.5))


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_marks_use_disjoint_streams(self):
        model = _pure_heat_model()
        a = estimate(model, 0.5, np.zeros(2), 1, 1.0, n_trees=5_000,
                     master_seed=0)
        b = estimate(model, 0.5, np.zeros(2), 2, 1.0, n_trees=5_000,
                     master_seed=0)
        assert a.mean != b.mean


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
        particles = _grow_skeleton(model, 1.0 - tau_max, 0, 1.0, n, rng,
                                   TreeBudget()).particles
        emp = particles.mean()
        se = particles.std(ddof=1) / math.sqrt(n)
        assert abs(emp - g[-1]) < 4.0 * se

    def test_pruning_only_shrinks_counts(self):
        """Skipping the particles of trees whose product is already zero
        leaves every tree value unchanged."""
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        skeleton = _grow_skeleton(model, 0.2, 0, 1.0, 5_000, RngStream(3, 0),
                                  TreeBudget())
        for x1 in (0.0, 0.8, 1.3):
            x = np.array([x1])
            pruned = _evaluate(model, skeleton, x)
            full = _evaluate(model, skeleton, x, skip_dead=False)
            assert np.array_equal(pruned, full)
            assert np.any(pruned == 0.0)


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

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            TreeBudget(max_particles=0)

    def test_batch_particle_ceiling(self, tmp_path, capsys):
        # Gamma(0.01) lifetimes give a linear-test tree about 100 particles
        # per 0.5 of horizon, so over T - t = 4 one 25k-tree batch would
        # store ~2e7, ten times the ceiling, while no single tree comes near
        # the per-tree budget
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "linear-test", "delta": 0.01, "t": 0.0, "T": 4.0,
            "n_trees": BATCH_TREES}))
        with _deadline(30.0):
            code = main(["estimate", "--config", str(cfg)])
        assert code == EXIT_BUDGET
        assert f"more than {MAX_BATCH_PARTICLES} particles" in \
            capsys.readouterr().err


class TestValidation:
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
            "max_tree_size"}
        assert res.n_trees == 5_000
        assert res.ci95[0] < res.mean < res.ci95[1]
        assert res.mean_tree_size >= 1.0 and res.elapsed > 0.0

    @pytest.mark.parametrize("name, kwargs, t, x, T", [
        ("nld", {"d": 2, "k": 1}, 0.5, [0.0, 0.0], math.nan),
        ("linear-test", {}, -math.inf, [0.0], 1.0),
        ("nld", {"d": 2, "k": 1}, 0.5, [math.nan, 0.0], 1.0),
    ], ids=["T-nan", "t-minus-inf", "x-nan"])
    def test_non_finite_point_fails_fast(self, name, kwargs, t, x, T):
        model = builtin_model(name, **kwargs)
        with _deadline(5.0), pytest.raises(DomainError):
            estimate(model, t, np.array(x), 0, T, n_trees=1_000)


class TestResolveWorkers:
    def test_default_and_request(self, monkeypatch):
        monkeypatch.delenv("BRANCHPDE_THREADS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(6) == 6

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("BRANCHPDE_THREADS", "4")
        assert resolve_workers(2) == 4
        monkeypatch.setenv("BRANCHPDE_THREADS", "0")
        with pytest.raises(DomainError):
            resolve_workers(2)
