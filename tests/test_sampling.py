import math

import numpy as np
import pytest
from scipy import stats

from branchpde.engine import sample_subordinated_increment
from branchpde.errors import DomainError
from branchpde.model import uniform_branching
from branchpde.sampling import (RngStream, sample_lifetime, sample_offspring,
                                sample_stable_subordinator)
from branchpde.specfun import upper_reg_gamma


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 7).gen.random(100)
        b = RngStream(42, 7).gen.random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 7).gen.random(100)
        b = RngStream(42, 8).gen.random(100)
        assert not np.array_equal(a, b)

    def test_cross_correlation(self):
        n = 100_000
        a = RngStream(0, 1).gen.random(n)
        b = RngStream(0, 2).gen.random(n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01


class TestStableSubordinator:
    def test_alpha2_deterministic(self):
        rng = RngStream(0, 0)
        assert sample_stable_subordinator(2.0, 0.7, rng, size=1)[0] == \
            pytest.approx(1.4)
        samples = sample_stable_subordinator(2.0, 0.7, rng, size=100)
        np.testing.assert_array_equal(samples, np.full(100, 1.4))

    def test_positivity(self):
        rng = RngStream(1, 0)
        s = sample_stable_subordinator(1.5, 1.0, rng, size=1_000_000)
        assert np.all(s > 0.0)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_laplace_transform(self, alpha, t):
        rng = RngStream(2, 0)
        s = sample_stable_subordinator(alpha, t, rng, size=200_000)
        for lam in (0.5, 1.0, 2.0):
            vals = np.exp(-lam * s)
            emp = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            exact = math.exp(-t * (2.0 * lam) ** (alpha / 2.0))
            assert abs(emp - exact) < 4.0 * se

    def test_self_similarity(self):
        rng = RngStream(3, 0)
        t = 0.3
        direct = sample_stable_subordinator(1.5, t, rng, size=100_000)
        unit = sample_stable_subordinator(1.5, 1.0, rng, size=100_000)
        rescaled = t ** (2.0 / 1.5) * unit
        ks = stats.ks_2samp(direct, rescaled).statistic
        assert ks < 0.01

    def test_domain(self):
        rng = RngStream(0, 0)
        with pytest.raises(DomainError):
            sample_stable_subordinator(2.5, 1.0, rng, size=1)
        with pytest.raises(DomainError):
            sample_stable_subordinator(1.5, 0.0, rng, size=1)


class TestSubordinatedIncrement:
    def test_alpha2_deterministic_clock(self):
        rng = RngStream(4, 0)
        ds, dx = sample_subordinated_increment(1, 2.0, 1.0, 0.5, rng, size=1)
        assert ds[0] == pytest.approx(1.0) and dx.shape == (1, 1)

    def test_conditional_variance(self):
        rng = RngStream(5, 0)
        ds, dx = sample_subordinated_increment(3, 1.5, 1.0, 1.0, rng,
                                               size=100_000)
        ratio = dx ** 2 / ds[:, None]
        for j in range(3):
            assert ratio[:, j].mean() == pytest.approx(1.0, abs=0.02)

    def test_symmetry(self):
        rng = RngStream(6, 0)
        _, dx = sample_subordinated_increment(2, 1.5, 1.0, 1.0, rng,
                                              size=200_000)
        for j in range(2):
            col = dx[:, j]
            se = col.std(ddof=1) / math.sqrt(col.size)
            assert abs(col.mean()) < 4.0 * se

    def test_kappa_scaling(self):
        ds4, _ = sample_subordinated_increment(
            1, 1.5, 4.0, 1.0, RngStream(7, 0), size=100_000)
        ds1, _ = sample_subordinated_increment(
            1, 1.5, 1.0, 1.0, RngStream(8, 0), size=100_000)
        ks = stats.ks_2samp(ds4, 4.0 ** (4.0 / 3.0) * ds1).statistic
        assert ks < 0.01

    def test_domain(self):
        rng = RngStream(0, 0)
        with pytest.raises(DomainError):
            sample_subordinated_increment(0, 1.5, 1.0, 1.0, rng, size=1)
        with pytest.raises(DomainError):
            sample_subordinated_increment(1, 1.5, -1.0, 1.0, rng, size=1)


class TestLifetime:
    def test_means(self):
        rng = RngStream(9, 0)
        big = np.array(sample_lifetime(1.0, rng, size=1_000_000))
        assert big.mean() == pytest.approx(1.0, abs=0.004)
        rng = RngStream(10, 0)
        half = np.array(sample_lifetime(0.5, rng, size=1_000_000))
        assert half.mean() == pytest.approx(0.5, abs=0.003)

    def test_survival_oracle(self):
        rng = RngStream(11, 0)
        samples = np.array(sample_lifetime(0.5, rng, size=500_000))
        emp = (samples > 1.0).mean()
        se = math.sqrt(emp * (1.0 - emp) / samples.size)
        assert abs(emp - upper_reg_gamma(0.5, 1.0)) < 3.0 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_lifetime(0.0, RngStream(0, 0), size=1)


class TestOffspring:
    def test_singleton(self):
        law = uniform_branching(1)
        rng = RngStream(12, 0)
        assert sample_offspring(law, rng, size=1)[0] == 0
        assert np.all(sample_offspring(law, rng, size=100) == 0)

    def test_uniform_frequencies(self):
        law = uniform_branching(3)
        rng = RngStream(13, 0)
        draws = sample_offspring(law, rng, size=1_000_000)
        for c in range(3):
            freq = (draws == c).mean()
            se = math.sqrt(freq * (1.0 - freq) / draws.size)
            assert abs(freq - 1.0 / 3.0) < 3.0 * se

    def test_support(self):
        law = uniform_branching(5)
        rng = RngStream(14, 0)
        draws = sample_offspring(law, rng, size=10_000)
        assert set(np.unique(draws)) <= set(range(5))
