import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate

from branchpde.bernstein import (BetaRatio, LaplaceExponent, Relativistic,
                                 ScaledStable)
from branchpde.errors import (AdmissibilityError, DomainError,
                              NotLipschitzError)
from branchpde.existence import (HorizonReport, _tail_integral,
                                 abs_gaussian_moment, build_horizon_report,
                                 check_theorem2, horizon_bound_a,
                                 horizon_bound_b)
from branchpde.model import (ConstantCoefficient, ConstantTerminal,
                             LifetimeDensity, PdeModel,
                             PolynomialNonlinearity, TerminalCondition,
                             builtin_model, uniform_branching)
from branchpde.specfun import upper_reg_gamma


def _toy_model(c=0.1, phi_sup=0.5, lipschitz=0.0, alpha=2.0, delta=0.5,
               kappa=1.0, indices=((1,),), d=1):
    coeffs = tuple(ConstantCoefficient(c) for _ in indices)
    sups = tuple(abs(c) for _ in indices)
    nonlin = PolynomialNonlinearity(indices=indices, coeffs=coeffs,
                                    coeff_sup=sups)
    terminal = TerminalCondition(phi=ConstantTerminal(phi_sup),
                                 sup_norm=phi_sup, lipschitz=lipschitz)
    return PdeModel(name="toy", d=d, alpha=alpha, kappa=kappa,
                    nonlinearity=nonlin, terminal=terminal,
                    branching=uniform_branching(len(indices)),
                    lifetime=LifetimeDensity(delta))


class TestGaussianMoment:
    def test_known_values(self):
        assert abs_gaussian_moment(1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12)
        assert abs_gaussian_moment(2.0) == pytest.approx(1.0, rel=1e-12)
        assert abs_gaussian_moment(4.0) == pytest.approx(3.0, rel=1e-12)

    def test_quadrature_oracle(self):
        for p in (0.7, 1.5, 2.3, 3.0):
            val, _ = integrate.quad(
                lambda z: 2.0 * z ** p * math.exp(-z * z / 2.0)
                / math.sqrt(2.0 * math.pi), 0.0, 40.0)
            assert abs_gaussian_moment(p) == pytest.approx(val, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            abs_gaussian_moment(0.0)

    def test_overflowing_power_reads_infinite(self):
        assert abs_gaussian_moment(1e6) == math.inf

    @pytest.mark.parametrize("p", [320.0, 343.0, 1000.0, 2047.0, 2048.0])
    def test_overflowing_gamma_reads_infinite(self, p):
        # 2^(p/2) Gamma((p+1)/2) passes the float range from p ~ 301 on
        assert abs_gaussian_moment(p) == math.inf


@dataclass(frozen=True)
class _Bounded(LaplaceExponent):
    """eta(lambda) = 1 - exp(-lambda): a subordinator that does not grow."""

    def _eval(self, lam):
        return -np.expm1(-lam)


class TestTheorem2:
    def test_exponent_value(self):
        # stable eta makes the integrand scale like s^((1-p)(delta-1) - p/alpha)
        chk = check_theorem2(ScaledStable(alpha=1.5), delta=0.5, p=2.0)
        assert chk.eta_exponent == pytest.approx(-5.0 / 6.0, abs=5e-3)
        assert chk.cond_eta and chk.cond_rho and chk.cd_check
        assert not chk.inconclusive
        # the closed form holds far from the thresholds too, warning-free
        for alpha in (1.2, 1.5, 2.0):
            for delta in (0.3, 1.0, 5.0):
                for p in (1.0, 2.0, 30.0):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        chk = check_theorem2(ScaledStable(alpha=alpha),
                                             delta=delta, p=p)
                    assert chk.eta_exponent == pytest.approx(
                        (1.0 - delta) * (p - 1.0) - p / alpha, abs=1e-9)

    def test_cond_eta_threshold(self):
        # delta < 2 - 2/alpha at p = 2
        alpha = 1.5
        good = check_theorem2(ScaledStable(alpha=alpha),
                              delta=0.4, p=2.0)
        bad = check_theorem2(ScaledStable(alpha=alpha),
                             delta=0.9, p=2.0)
        assert good.cond_eta
        assert not bad.cond_eta and not bad.inconclusive

    def test_p1_always_holds_for_admissible_alpha(self):
        for alpha in (1.2, 1.5, 1.8):
            chk = check_theorem2(ScaledStable(alpha=alpha),
                                 delta=0.5, p=1.0)
            assert chk.cond_rho and chk.cond_eta

    def test_cond_rho(self):
        ok = check_theorem2(ScaledStable(alpha=1.5), delta=1.9, p=2.0)
        assert ok.cond_rho
        div = check_theorem2(ScaledStable(alpha=1.5), delta=2.5, p=2.0)
        assert not div.cond_rho

    @pytest.mark.parametrize("eta, beta", [
        (Relativistic(alpha=1.5, m=1.0), 0.75),
        (BetaRatio(mu=0.45), 0.55),
    ], ids=["relativistic", "beta-ratio"])
    def test_exponent_reads_the_growth_index(self, eta, beta):
        # eta grows like l^beta, so at p = 1 the inner integral of
        # exp(-s eta) l^(-1/2) scales like s^(-1/(2 beta)) as s -> 0
        for delta in (0.3, 0.5):
            chk = check_theorem2(eta, delta=delta, p=1.0)
            assert chk.eta_exponent == pytest.approx(-0.5 / beta, abs=5e-3)
            assert chk.cond_eta and not chk.inconclusive

    def test_bounded_eta_diverges(self):
        # the inner integral of exp(-s eta) l^(p/2-1) is infinite at every s
        chk = check_theorem2(_Bounded(), delta=0.5, p=1.0)
        assert chk.eta_exponent < -1.0
        assert not chk.cond_eta and not chk.cd_check

    def test_domain(self):
        with pytest.raises(DomainError):
            check_theorem2(ScaledStable(alpha=1.5), delta=0.0, p=2.0)
        for p in (0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                check_theorem2(ScaledStable(alpha=1.5), delta=0.5, p=p)


class TestHorizonBoundA:
    def test_certifies_small_horizon(self):
        model = _toy_model()
        c_circ, ratio, cert = horizon_bound_a(model, p=2.0, T=0.05)
        assert cert and c_circ <= 1.0 and ratio <= 1.0

    def test_fails_large_horizon(self):
        model = _toy_model()
        _, ratio, cert = horizon_bound_a(model, p=2.0, T=1.0)
        assert not cert and ratio > 1.0

    def test_certification_is_monotone_in_T(self):
        model = _toy_model()
        certs = [horizon_bound_a(model, 2.0, T)[2]
                 for T in np.linspace(0.01, 1.5, 40)]
        flips = sum(a != b for a, b in zip(certs, certs[1:]))
        assert certs[0] and not certs[-1] and flips == 1

    def test_coefficient_scaling(self):
        p = 2.0
        base = horizon_bound_a(_toy_model(c=0.1), p, 0.3)[0]
        doubled = horizon_bound_a(_toy_model(c=0.2), p, 0.3)[0]
        assert doubled == pytest.approx(2.0 ** p * base, rel=1e-12)

    def test_ratio_limit_small_T(self):
        # survival(T) -> 1, so the ratio tends to C_partial = |phi|^p
        model = _toy_model(phi_sup=0.5)
        _, ratio, _ = horizon_bound_a(model, 2.0, 1e-9)
        assert ratio == pytest.approx(0.25, rel=1e-3)

    def test_kappa_scaling(self):
        # with delta = 1 - 1/alpha both sup terms have exponent choices where
        # the subordinator branch dominates for small T
        p, T = 2.0, 1e-3
        c1 = horizon_bound_a(_toy_model(kappa=1.0), p, T)[0]
        c2 = horizon_bound_a(_toy_model(kappa=2.0), p, T)[0]
        assert c2 == pytest.approx(2.0 ** (-p / 2.0) * c1, rel=1e-12)

    def test_admissibility(self):
        with pytest.raises(AdmissibilityError):
            # delta > 1 - 1/alpha makes sup s^(-p/alpha)/rho^p infinite
            horizon_bound_a(_toy_model(alpha=1.5, delta=0.5), 2.0, 1.0)
        with pytest.raises(AdmissibilityError):
            horizon_bound_a(_toy_model(alpha=1.0, delta=0.5), 2.0, 1.0)

    def test_not_lipschitz(self):
        model = builtin_model("burgers-halfspace", d=2, alpha=2.0, delta=0.5)
        with pytest.raises(NotLipschitzError):
            horizon_bound_a(model, 2.0, 0.1)

    def test_overflowing_power_reads_infinite(self):
        # |phi|^p = 10^320 is beyond the float range: no certificate
        _, ratio, cert = horizon_bound_a(_toy_model(phi_sup=10.0), 320.0, 0.05)
        assert ratio == math.inf and not cert


def _sqrt_sum(c0, c2, a):
    """integral from a to inf of dx / (c0 + c2 x^2)"""
    return ((math.pi / 2.0 - math.atan(a * math.sqrt(c2 / c0)))
            / math.sqrt(c0 * c2))


def _linear_quadratic(c1, c2, a):
    """integral from a to inf of dx / (c1 x + c2 x^2)"""
    return math.log1p(c1 / (c2 * a)) / c1


class TestHorizonBoundB:
    @pytest.mark.parametrize("terms, a_lo, exact", [
        ([(1.0, 1), (1.0, 2)], 1e-3, _linear_quadratic(1.0, 1.0, 1e-3)),
        ([(2.0, 2)], 1e-9, 5e8),
        ([(1.0, 0), (1.0, 2)], 0.0, math.pi / 2.0),
        ([(1e20, 1), (1.0, 2)], 1e7, _linear_quadratic(1e20, 1.0, 1e7)),
        ([(1.0, 1), (1e-20, 2)], 1e-5, _linear_quadratic(1.0, 1e-20, 1e-5)),
        ([(1.0, 4)], 1.27e14, 1.27e14 ** -3 / 3.0),
        ([(0.5, 3)], 1e-6, 1e-6 ** -2 / (0.5 * 2.0)),
        ([(1.0, 12)], 1e-3, 1e-3 ** -11 / 11.0),
        ([(1.0, 30)], 0.5, 0.5 ** -29 / 29.0),
        ([(2.0, 0), (3.0, 2)], 0.0, _sqrt_sum(2.0, 3.0, 0.0)),
        ([(2.0, 0), (3.0, 2)], 1e-4, _sqrt_sum(2.0, 3.0, 1e-4)),
        # the integrand peaks 690 e-folds right of the lower limit
        ([(1.0, 0), (1.0, 2)], 1e-300, math.pi / 2.0),
        # 1 / (2 a_lo^2) is beyond the float range, and so is the integrand
        ([(1.0, 3)], 1e-200, math.inf),
        # the integrand is near the bottom of the float range from the start
        ([(1.0, 2)], 1e300, 1e-300),
        ([(1.0, 2)], 1e305, 1e-305),
    ])
    def test_tail_integral_closed_forms(self, terms, a_lo, exact):
        u_lo = math.log(a_lo) if a_lo else -math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _tail_integral(terms, u_lo) == pytest.approx(
                exact, rel=1e-12, abs=0.0)

    def test_large_p_bound_is_positive_and_silent(self):
        # the integral runs from a_lo ~ 1e-47 over ~50 decades of x
        model = _toy_model(c=0.699, phi_sup=0.0264, lipschitz=0.0,
                           alpha=1.1, delta=0.0477, kappa=1.4987,
                           indices=((1,), (2,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, bound, cert = horizon_bound_b(model, 30.0, 0.2288)
        assert bound == pytest.approx(4.44088755548487e-51, rel=1e-9,
                                      abs=0.0)
        assert bound > 0.0 and not cert

    def test_zero_terminal(self):
        # phi = 0 puts a_lo at 0: without an order-0 term the integral
        # diverges there, with one it is pi / (2 sqrt(c0 c2))
        kw = dict(c=0.1, phi_sup=0.0, alpha=2.0, delta=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c_tilde, bound, cert = horizon_bound_b(
                _toy_model(indices=((2,),), **kw), 3.0, 0.1)
            assert math.isfinite(c_tilde) and bound == math.inf and cert
            c_tilde, bound, cert = horizon_bound_b(
                _toy_model(indices=((0,), (2,)), **kw), 3.0, 0.1)
        assert bound == pytest.approx(math.pi / 0.2 / c_tilde, rel=1e-9)

    def test_partial_below_float_range(self):
        # |phi|^p = 0.01^170 underflows, but its log does not: the bound
        # is (1/c1) ln(1 + c1/(c2 a_lo)) / C_tilde, finite and uncertified
        model = _toy_model(c=0.5, phi_sup=0.01, alpha=2.0, delta=0.05,
                           indices=((1,), (2,)))
        p, T = 170.0, 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c_tilde, bound, cert = horizon_bound_b(model, p, T)
        u_lo = p * math.log(0.01) - (p - 1.0) * math.log(
            upper_reg_gamma(0.05, T))
        integral = (-u_lo + math.log1p(math.exp(u_lo))) / 0.5
        assert bound == pytest.approx(integral / c_tilde, rel=1e-9)
        assert 0.0 < bound < T and not cert

    def test_linear_growth_certifies_everywhere(self):
        model = builtin_model("linear-test", alpha=1.5)
        c_tilde, bound, cert = horizon_bound_b(model, p=2.0, T=1.0)
        assert math.isinf(bound) and cert

    def test_infinite_c_tilde_refuses(self):
        # gamma lifetimes make C_tilde infinite whenever
        # delta > 1 - p/(alpha (p-1)); nld at p = 2 is such a case
        model = builtin_model("nld", d=1, alpha=1.5, k=1)
        c_tilde, bound, cert = horizon_bound_b(model, p=2.0, T=0.5)
        assert math.isinf(c_tilde) and bound == 0.0 and not cert

    def test_underflowed_c_tilde_refuses(self):
        # sup|c|^(p-1) = 0.01^169 underflows to 0, so C_tilde cannot divide
        model = _toy_model(c=0.01, phi_sup=10.0, alpha=2.0, delta=0.1,
                           indices=((1,), (2,)))
        c_tilde, bound, cert = horizon_bound_b(model, p=170.0, T=1e-3)
        assert c_tilde == 0.0 and bound == 0.0 and not cert

    def test_finite_bound_oracle(self):
        # alpha = 2, p = 3, delta = 0.2 <= 1 - p/(alpha(p-1)) keeps C_tilde
        # finite, and a quadratic index gives a convergent tail integral
        model = _toy_model(c=0.5, phi_sup=0.5, alpha=2.0, delta=0.2,
                           indices=((1,), (2,)))
        p, T = 3.0, 0.05
        c_tilde, bound, cert = horizon_bound_b(model, p, T)
        assert math.isfinite(c_tilde) and 0.0 < bound < math.inf
        assert cert == (T < bound)

        from branchpde.specfun import upper_reg_gamma
        a_lo = max(0.5 ** p, 0.0) / upper_reg_gamma(0.2, T) ** (p - 1.0)
        integral, _ = integrate.quad(
            lambda xv: 1.0 / (0.5 * xv + 0.5 * xv ** 2), a_lo, np.inf)
        assert bound == pytest.approx(integral / c_tilde, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            horizon_bound_b(_toy_model(), 0.5, 1.0)
        with pytest.raises(AdmissibilityError):
            horizon_bound_b(_toy_model(alpha=0.9), 2.0, 1.0)


class TestHorizonReport:
    def test_linear_test_certified_b(self):
        model = builtin_model("linear-test", alpha=1.5)
        rep = build_horizon_report(model, ScaledStable(alpha=1.5),
                                          p=2.0, T=1.0)
        assert isinstance(rep, HorizonReport)
        assert rep.verdict == "certified-b"
        assert math.isinf(rep.t3b_bound)
        assert rep.cond_rho and rep.cond_eta and rep.cd_check

    def test_toy_certified_a(self):
        model = _toy_model()
        rep = build_horizon_report(model, ScaledStable(alpha=2.0),
                                          p=2.0, T=0.05)
        assert rep.verdict == "certified-a"
        assert rep.C_circ <= 1.0 and rep.C_partial_ratio <= 1.0

    def test_nld_uncertified(self):
        model = builtin_model("nld", d=1, alpha=1.5, k=1, delta=0.9)
        rep = build_horizon_report(model, ScaledStable(alpha=1.5),
                                          p=2.0, T=1.0)
        assert rep.verdict == "uncertified"
        assert not rep.cond_eta  # delta = 0.9 > 2 - 2/alpha = 2/3

    def test_alpha_below_one_notes_both_routes(self):
        # the horizon bounds need alpha in (1, 2]
        model = builtin_model("nld", d=2, alpha=0.9, k=1)
        rep = build_horizon_report(model, ScaledStable(alpha=0.9),
                                   p=2.0, T=1.0)
        assert rep.verdict == "uncertified"
        for route in "ab":
            assert any(note.startswith(f"route {route} unavailable")
                       for note in rep.notes)

    def test_halfspace_notes_not_lipschitz(self):
        model = builtin_model("burgers-halfspace", d=2, alpha=1.5, kappa=10.0)
        rep = build_horizon_report(model, ScaledStable(alpha=1.5),
                                          p=1.0, T=1.0)
        assert rep.verdict == "uncertified"
        assert any("not Lipschitz" in n for n in rep.notes)
