import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special

from branchpde import specfun
from branchpde.errors import AccuracyError, DomainError
from branchpde.specfun import (gamma_fn, gamma_reflected, hyp2f1, phi_bump,
                               psi_getoor, psi_getoor_batch, radial_args,
                               upper_reg_gamma)


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

    def test_overflow_is_typed(self):
        # the largest float is Gamma(171.62...)
        assert gamma_fn(171.6) == math.gamma(171.6)
        with pytest.raises(DomainError, match="overflows"):
            gamma_fn(171.7)
        # Gamma(1 - p), or Gamma(p) itself, leaves the float range
        for p in (-180.5, 200.0):
            with pytest.raises(DomainError, match="overflows"):
                gamma_reflected(p)

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
        # a negative c: Gamma(-0.5) Gamma(2.5) / (Gamma(1) Gamma(1)) = -3 pi / 2
        assert hyp2f1(-1.5, -1.5, -0.5, 1.0) == pytest.approx(-1.5 * math.pi,
                                                               rel=1e-14)

    def test_terminating_exact(self):
        # 2F1(a, -2; c; z) = 1 - 2az/c + a(a+1) z^2 / (c(c+1))
        a, c, z = 1.7, 0.8, 0.6
        exact = 1.0 - 2.0 * a * z / c + a * (a + 1.0) * z * z / (c * (c + 1.0))
        assert hyp2f1(a, -2.0, c, z) == exact
        assert hyp2f1(-2.0, a, c, z) == exact  # symmetry swap

    def test_connection_overflow_is_typed(self):
        # z > 0.9 takes the connection formula, whose Gamma(250.5) overflows
        with pytest.raises(DomainError, match="overflows"):
            hyp2f1(200.0, 1.0, 250.5, 0.95)
        # each Gamma value is finite but a product of them is not (scipy
        # gives 6.2162 at z = 0.95; the Gauss sum at z = 1 is 8.69)
        for z in (0.95, 1.0):
            with pytest.raises(DomainError, match="overflows"):
                hyp2f1(150.0, 1.0, 170.5, z)

    def test_divergent_at_one(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 1.5, 1.0)

    def test_bad_c(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 2.0, -1.0, 0.5)

    def test_z_range(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.5)

    def test_accuracy_error_names_last_term(self):
        # c - a - b = 0 is an integer, so z = 0.99999 stays on the direct
        # series, whose terms ~ z^n / (pi n) are still 1e-6 at its term cap
        with pytest.raises(AccuracyError, match=r"; last term 1\.\d+e-06\)$"):
            hyp2f1(0.5, 0.5, 1.0, 0.99999)

    @pytest.mark.parametrize("a, b, c, z", [
        (1.0, 1.0, 1.5, -1.0),    # alternating n^(-1/2) terms, directly
        (2.0, 0.3, 1.0, -0.99),
        (0.3, 1.7, 2.2, -0.2),
    ])
    def test_negative_z_matches_scipy(self, a, b, c, z):
        # the Pfaff transformation takes z < 0 to z / (z - 1) in (0, 1/2]
        assert hyp2f1(a, b, c, z) == pytest.approx(special.hyp2f1(a, b, c, z),
                                                   rel=1e-12)

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


class TestRadialArgs:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 5), d=st.integers(1, 6), g=st.integers(1, 3),
           data=st.data())
    def test_continued_sums_are_the_whole_sums(self, n, d, g, data):
        """Sums continued from the sums of the later coordinates are the
        sums over all of x, bit for bit, at every split k; tails of (n,)
        rows broadcast over (G, n) points sharing those coordinates."""
        value = st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(-1e150, 1e150))
        x = np.array(data.draw(st.lists(st.lists(value, min_size=d,
                                                 max_size=d),
                                        min_size=n, max_size=n)))
        lead = data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                  min_size=g, max_size=g))
        for k in range(d + 1):
            got = radial_args(x[..., :k], *radial_args(x[..., k:]))
            assert [a.tobytes() for a in got] == \
                [a.tobytes() for a in radial_args(x)]
            # G points, each of the n rows holding x's coordinates from k on
            points = np.array(lead)[:, None, :] + np.zeros_like(x)
            points[..., k:] = x[:, k:]
            got = radial_args(points[..., :k], *radial_args(x[:, k:]))
            want = radial_args(points)
            assert all(a.shape == (g, n) for a in got)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestPositivePower:
    def test_is_clip_then_power(self):
        # bit-identical to (v)_+ ** p, NaN included, in any shape
        rng = np.random.default_rng(3)
        v = rng.uniform(-1.0, 1.0, (7, 50))
        v[0, :4] = [0.0, -0.0, np.nan, 1.0]
        for p in (0.75, 1.0, 2.5, 7.0):
            np.testing.assert_array_equal(
                specfun._positive_power(v.copy(), p), np.maximum(v, 0.0) ** p)
        assert specfun._positive_power(np.float64(0.25), 0.5) == 0.5


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
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(DomainError):
                psi_getoor(0, 1.5, 2, np.array([0.5, bad]))
        # the batch form (an inline model's psi_getoor) refuses k < 0 even
        # when every point is exterior
        with pytest.raises(DomainError):
            psi_getoor_batch(-1, 1.5, 2, np.array([4.0]))


class TestPsiTable:
    """Psi's exterior 2F1 on z in (0, 0.9] comes from a Chebyshev table
    fitted to the core, ``_hyp2f1_vec``."""

    @pytest.mark.parametrize("d", [1, 2, 10, 100])
    @pytest.mark.parametrize("k", [0, 1, 5, 20])
    @pytest.mark.parametrize("alpha", [0.01, 0.7, 1.5, 1.99])
    def test_matches_the_core(self, k, alpha, d):
        edges = np.array(specfun._PSI_BREAKS[1:])
        z = np.concatenate([
            np.linspace(1e-3, 0.9, 301), edges,
            np.nextafter(edges, 0.0), np.nextafter(edges[:-1], 1.0),
            [1e-300, 1e-16, 1e-8, 1e-4]])
        coefs = specfun._psi_exterior_table(k, alpha, d)
        got = specfun._chebyshev_eval(specfun._PSI_BREAKS, coefs, z)
        a, b, c = specfun._psi_exterior_params(k, alpha, d)
        np.testing.assert_allclose(got, specfun._hyp2f1_vec(a, b, c, z),
                                   rtol=1e-11, atol=0.0)

    def test_psi_reads_the_table_not_the_series(self, monkeypatch):
        k, alpha, d = 1, 1.5, 10
        exterior = specfun._psi_exterior_params(k, alpha, d)
        r2 = np.concatenate([np.linspace(0.0, 1.0, 5),
                             np.geomspace(1.0 + 1e-6, 50.0, 200)])
        before = psi_getoor_batch(k, alpha, d, r2)   # builds the table
        calls = []
        real = specfun._series_2f1_vec

        def spy(a, b, c, z, *args, **kwargs):
            calls.append(((a, b, c), np.asarray(z).copy()))
            return real(a, b, c, z, *args, **kwargs)

        monkeypatch.setattr(specfun, "_series_2f1_vec", spy)
        after = psi_getoor_batch(k, alpha, d, r2)
        np.testing.assert_array_equal(after, before)
        assert calls                     # the connection formula's series
        assert all(params != exterior for params, _ in calls)

    def test_too_coarse_a_table_is_refused(self):
        a, b, c = specfun._psi_exterior_params(0, 1.5, 10)
        with pytest.raises(AccuracyError) as err:
            specfun._chebyshev_table(
                lambda z: specfun._hyp2f1_vec(a, b, c, z), (0.0, 0.9), 6)
        off = re.fullmatch(r".* is off by (\S+) relative", str(err.value))
        assert float(off[1]) > 1e-10
