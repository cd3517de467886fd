import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from branchpde.bernstein import (BetaRatio, LaplaceExponent, LogCorrected,
                                 Relativistic, ScaledStable,
                                 StableWithDrift, SumOfStables,
                                 check_integrability_cd,
                                 integrability_table, neg_moment_numeric,
                                 neg_moment_stable)
from branchpde.errors import DivergenceError, DomainError

ALL_FAMILIES = [
    ScaledStable(alpha=1.5, kappa=3.0),
    StableWithDrift(a=0.5, mu=1.0, c=1.0, kill_rate=1.0),
    SumOfStables(a=1.0, b=1.0, alpha=0.2, beta=0.7),
    # nu > 0 keeps eta continuous at 0 (nu = 0 hides a kill rate c/Gamma(mu))
    BetaRatio(c=1.0, nu=1.0, mu=0.4),
    Relativistic(alpha=1.5, m=1.0),
    LogCorrected(alpha=1.5, beta=0.4, sign=1),
    LogCorrected(alpha=1.5, beta=0.4, sign=-1),
]


class TestEvalEta:
    def test_stable_values(self):
        assert ScaledStable(alpha=2.0)(3.0) == pytest.approx(6.0)
        assert ScaledStable(alpha=1.5)(2.0) == pytest.approx(4.0 ** 0.75)
        assert Relativistic(alpha=1.5, m=1.0)(0.0) == pytest.approx(0.0)

    def test_negative_lambda(self):
        with pytest.raises(DomainError):
            ScaledStable(alpha=1.5)(-1.0)

    @pytest.mark.parametrize("eta", ALL_FAMILIES, ids=lambda e: type(e).__name__)
    def test_bernstein_properties(self, eta):
        grid = np.geomspace(1e-6, 1e6, 200)
        vals = eta(grid)
        # vanishing at 0+ (modulo the kill rate)
        assert eta(1e-12) - getattr(eta, "kill_rate", 0.0) < 1e-4
        # non-decreasing
        assert np.all(np.diff(vals) >= -1e-12)
        # concavity proxy on a log grid: divided differences decrease
        dd = np.diff(vals) / np.diff(grid)
        assert np.all(np.diff(dd) <= 1e-12)

    def test_stable_homogeneity(self):
        eta = ScaledStable(alpha=1.3)
        for c in (0.5, 2.0, 7.0):
            for lam in (0.1, 1.0, 40.0):
                assert eta(c * lam) == pytest.approx(c ** 0.65 * eta(lam), rel=1e-12)

    def test_scaled_stable_positional(self):
        eta = ScaledStable(1.2, 2.0)
        assert (eta.alpha, eta.kappa) == (1.2, 2.0)

    def test_scaled_stable_pointwise(self):
        base = ScaledStable(alpha=1.7)
        scaled = ScaledStable(alpha=1.7, kappa=4.5)
        lam = np.geomspace(1e-3, 1e3, 50)
        np.testing.assert_allclose(scaled(lam), 4.5 * base(lam), rtol=1e-13)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            ScaledStable(alpha=2.5)
        with pytest.raises(DomainError):
            SumOfStables(alpha=0.8, beta=0.7)
        with pytest.raises(DomainError):
            BetaRatio(mu=1.2)
        with pytest.raises(DomainError):
            LogCorrected(alpha=1.5, beta=0.6, sign=1)  # beta >= 2 - alpha


class TestIntegrabilityCd:
    def test_stable_verdicts(self):
        assert check_integrability_cd(ScaledStable(alpha=1.5)).converges
        assert not check_integrability_cd(ScaledStable(alpha=0.8)).converges
        v = check_integrability_cd(ScaledStable(alpha=1.0))
        assert not v.converges and v.inconclusive  # exponent exactly -1

    def test_relativistic(self):
        assert check_integrability_cd(Relativistic(alpha=1.5, m=1.0)).converges

    def test_exponent_value(self):
        v = check_integrability_cd(ScaledStable(alpha=1.5))
        assert v.fitted_exponent == pytest.approx(-1.25, abs=1e-6)

    def test_table_agreement(self):
        table = integrability_table()
        assert len(table) == 6
        for row in table:
            for case in row["cases"]:
                assert case["agrees"], (row["family"], case)


class TestNegativeMoments:
    def test_closed_form_values(self):
        assert neg_moment_stable(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert neg_moment_stable(1.0, 1.5, 1.0) == pytest.approx(
            math.gamma(4.0 / 3.0) / 1.5, rel=1e-12)

    def test_large_p_matches_mpmath(self):
        # Gamma(800/3) alone is beyond the float range; the moment is not
        exact = (mpmath.mpf(2) ** -199 * mpmath.gamma(mpmath.mpf(800) / 3)
                 / (mpmath.mpf(1.5) * mpmath.gamma(200)))
        assert neg_moment_stable(200.0, 1.5, 1.0) == pytest.approx(
            float(exact), rel=1e-12)

    def test_deterministic_limit(self):
        assert neg_moment_stable(1.0, 2.0, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert neg_moment_stable(2.0, 2.0, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_numeric_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(0.5, 2.0)
            alpha = rng.uniform(1.1, 1.9)
            t = rng.uniform(0.1, 5.0)
            closed = neg_moment_stable(p, alpha, t)
            numeric = neg_moment_numeric(ScaledStable(alpha=alpha), p, t)
            assert numeric == pytest.approx(closed, rel=1e-7)

    def test_numeric_alpha2(self):
        numeric = neg_moment_numeric(ScaledStable(alpha=2.0), 1.0, 1.0)
        assert numeric == pytest.approx(0.5, rel=1e-8)

    def test_divergence_detected(self):
        @dataclass(frozen=True)
        class Bounded(LaplaceExponent):
            def _eval(self, lam):
                return np.minimum(lam, 1.0)

        with pytest.raises(DivergenceError):
            neg_moment_numeric(Bounded(), 1.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            neg_moment_stable(-1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            neg_moment_stable(1.0, 1.5, 0.0)
