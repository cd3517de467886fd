import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special

from branchpde.errors import AccuracyError, DomainError
from branchpde.specfun import (gamma_fn, gamma_reflected, hyp2f1, phi_bump,
                               psi_getoor, psi_getoor_batch, upper_reg_gamma)


class TestGamma:
    def test_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(4.0) == pytest.approx(6.0, rel=1e-13)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-1.5)
        with pytest.raises(DomainError):
            gamma_fn(float("nan"))

    def test_reflected_negative(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        assert gamma_reflected(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi),
                                                      rel=1e-12)
        assert gamma_reflected(-0.75) < 0.0
        with pytest.raises(DomainError):
            gamma_reflected(-2.0)


class TestUpperRegGamma:
    def test_exponential_case(self):
        assert upper_reg_gamma(1.0, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_at_zero(self):
        assert upper_reg_gamma(0.5, 0.0) == 1.0

    def test_quadrature_oracle(self):
        tail, _ = integrate.quad(lambda s: s ** -0.5 * math.exp(-s), 1.0, 200.0)
        expected = tail / math.sqrt(math.pi)
        assert upper_reg_gamma(0.5, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_monotone_and_vanishing(self):
        z = np.linspace(0.0, 50.0, 200)
        for delta in (0.25, 0.5, 1.0, 2.0):
            vals = upper_reg_gamma(delta, z)
            assert np.all(np.diff(vals) <= 1e-15)
            assert vals[-1] < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_reg_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            upper_reg_gamma(1.0, -0.1)


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1(1.3, 2.7, 0.9, 0.0) == 1.0

    def test_log_identity(self):
        for z in (0.25, 0.5, -0.5, 0.93):
            assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(
                -math.log1p(-z) / z, rel=1e-10)

    def test_gauss_summation(self):
        val = gamma_fn(2.0) * gamma_fn(1.0) / gamma_fn(1.5) ** 2
        assert hyp2f1(0.5, 0.5, 2.0, 1.0) == pytest.approx(val, rel=1e-10)
        assert hyp2f1(0.5, 0.5, 2.0, 1.0) == pytest.approx(1.2732395, rel=1e-7)

    def test_terminating_exact(self):
        # 2F1(a, -2; c; z) = 1 - 2az/c + a(a+1) z^2 / (c(c+1))
        a, c, z = 1.7, 0.8, 0.6
        exact = 1.0 - 2.0 * a * z / c + a * (a + 1.0) * z * z / (c * (c + 1.0))
        assert hyp2f1(a, -2.0, c, z) == exact
        assert hyp2f1(-2.0, a, c, z) == exact  # symmetry swap

    def test_divergent_at_one(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 1.5, 1.0)

    def test_bad_c(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 2.0, -1.0, 0.5)

    def test_z_range(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.5)

    def test_accuracy_error_carries_partial(self):
        # at z = -1 the terms alternate with size ~ n^(-1/2), so the series
        # runs to its term cap without meeting its tolerance
        with pytest.raises(AccuracyError) as err:
            hyp2f1(1.0, 1.0, 1.5, -1.0)
        assert err.value.partial is not None
        assert err.value.bound is not None

    @pytest.mark.parametrize("a, b, c, z, rtol", [
        (0.2, 0.3, 0.9, 0.999, 1e-12),   # connection formula
        (1.3, 0.4, 2.1, 0.99, 1e-12),
        (3.0, 3.0, 1.1, 0.95, 1e-12),
        (0.5, 0.5, 2.0, 0.95, 1e-10),    # c - a - b integer: direct series
        (2.0, 0.3, 1.0, 0.95, 1e-10),    # c - a = -1: direct series
    ])
    def test_matches_scipy(self, a, b, c, z, rtol):
        assert hyp2f1(a, b, c, z) == pytest.approx(special.hyp2f1(a, b, c, z),
                                                   rel=rtol)


class TestPhiBump:
    def test_center_boundary_outside(self):
        assert phi_bump(0, 1.5, np.zeros(3)) == 1.0
        assert phi_bump(1, 1.5, np.array([1.0, 0.0])) == 0.0
        assert phi_bump(0, 1.0, np.array([2.0])) == 0.0

    def test_batch(self):
        x = np.array([[0.0, 0.0], [0.5, 0.5], [2.0, 0.0]])
        vals = phi_bump(1, 1.5, x)
        assert vals.shape == (3,)
        assert vals[0] == 1.0 and vals[2] == 0.0

    def test_lipschitz_when_smooth(self):
        rng = np.random.default_rng(0)
        k, alpha = 1, 1.5
        bound = 2.0 * (k + alpha / 2.0)
        x = rng.uniform(-2, 2, (500, 3))
        y = rng.uniform(-2, 2, (500, 3))
        num = np.abs(phi_bump(k, alpha, x) - phi_bump(k, alpha, y))
        den = np.linalg.norm(x - y, axis=1)
        assert np.all(num <= bound * den + 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_bump(-1, 1.5, np.zeros(2))
        with pytest.raises(DomainError):
            phi_bump(0, 2.5, np.zeros(2))


def _fractional_laplacian_quadrature(k, alpha, d, x):
    """-(-Delta)^(alpha/2) of the bump at x, by the principal-value integral
    in polar coordinates (d = 2 only)."""
    assert d == 2
    c = (2.0 ** alpha * gamma_fn((d + alpha) / 2.0)
         / (math.pi ** (d / 2.0) * abs(gamma_reflected(-alpha / 2.0))))
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    directions = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    phi_x = phi_bump(k, alpha, x)

    def ring(r):
        pts = x[None, :] + r * directions
        return float(np.mean(phi_bump(k, alpha, pts))) - phi_x

    def integrand(r):
        return ring(r) * r ** (-1.0 - alpha) * 2.0 * math.pi

    import warnings
    r_max = 1.0 + np.linalg.norm(x) + 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, _ = integrate.quad(integrand, 0.0, 0.1, epsabs=1e-10, limit=300)
        mid, _ = integrate.quad(integrand, 0.1, r_max, epsabs=1e-10, limit=300)
    # beyond r_max the bump vanishes, leaving -phi(x) * r^(-1-alpha) * 2 pi
    tail = -phi_x * 2.0 * math.pi * r_max ** (-alpha) / alpha
    return -c * (head + mid + tail)  # returns Psi = -Delta_alpha Phi


def _psi_closed_form(k, alpha, d, r2):
    """Psi_(k,alpha) at |x|^2 = r2 by its closed form, 2F1 from scipy."""
    g = math.gamma
    a = (d + alpha) / 2.0
    if r2 <= 1.0:
        coef = (g(a) * g(k + 1.0 + alpha / 2.0) * 2.0 ** alpha
                / (g(k + 1.0) * g(d / 2.0)))
        return coef * special.hyp2f1(a, -k, d / 2.0, r2)
    c = k + 1.0 + a
    coef = (2.0 ** alpha * g(a) * g(k + 1.0 + alpha / 2.0)
            / (g(c) * g(-alpha / 2.0)))
    return coef * r2 ** -a * special.hyp2f1(a, (2.0 + alpha) / 2.0, c, 1.0 / r2)


class TestPsiGetoor:
    def test_unit_value(self):
        assert psi_getoor(0, 1.0, 1, np.zeros(1)) == pytest.approx(1.0, rel=1e-12)

    def test_interior_constancy_k0(self):
        rng = np.random.default_rng(1)
        base = psi_getoor(0, 1.0, 1, np.zeros(1))
        for _ in range(100):
            x = rng.uniform(-0.99, 0.99, 1)
            assert psi_getoor(0, 1.0, 1, x) == pytest.approx(base, rel=1e-10)

    def test_exterior_negative(self):
        for alpha in (0.7, 1.2, 1.8):
            assert psi_getoor(0, alpha, 2, np.array([1.5, 0.0])) < 0.0
            assert psi_getoor(2, alpha, 2, np.array([2.5, 0.0])) < 0.0

    def test_quadrature_oracle_interior(self):
        x = np.array([0.3, 0.2])
        expected = _fractional_laplacian_quadrature(1, 1.5, 2, x)
        assert psi_getoor(1, 1.5, 2, x) == pytest.approx(expected, rel=1e-3)

    def test_quadrature_oracle_exterior(self):
        x = np.array([1.4, 0.3])
        expected = _fractional_laplacian_quadrature(1, 1.5, 2, x)
        assert psi_getoor(1, 1.5, 2, x) == pytest.approx(expected, rel=1e-3)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        for k, alpha, d in [(0, 1.5, 1), (1, 1.5, 2), (2, 1.2, 10), (1, 0.8, 3)]:
            x = rng.uniform(-1.4, 1.4, (40, d))
            r2 = np.sum(x ** 2, axis=1)
            batch = psi_getoor_batch(k, alpha, d, r2)
            exact = np.array([_psi_closed_form(k, alpha, d, v) for v in r2])
            np.testing.assert_allclose(batch, exact, rtol=1e-9)

    def test_batch_near_boundary_exterior(self):
        # connection-formula branch: z = 1/r^2 just above 0.9
        r2 = np.array([1.0001, 1.01, 1.05, 1.1, 1.1111])
        vals = psi_getoor_batch(1, 1.5, 2, r2)
        exact = np.array([_psi_closed_form(1, 1.5, 2, v) for v in r2])
        np.testing.assert_allclose(vals, exact, rtol=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            psi_getoor(0, 2.0, 1, np.zeros(1))
        with pytest.raises(DomainError):
            psi_getoor(0, 1.5, 2, np.zeros(3))
