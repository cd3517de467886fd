import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from branchpde.bernstein import Relativistic, Stable, neg_moment_stable
from branchpde.errors import (AdmissibilityError, DomainError,
                              NotLipschitzError)
from branchpde.existence import (HorizonReport, abs_gaussian_moment,
                                 build_horizon_report, check_theorem2,
                                 horizon_bound_a, horizon_bound_b)
from branchpde.model import (ConstantCoefficient, ConstantTerminal,
                             LifetimeDensity, PdeModel,
                             PolynomialNonlinearity, TerminalCondition,
                             builtin_model, uniform_branching)


def _toy_model(c=0.1, phi_sup=0.5, lipschitz=0.0, alpha=2.0, delta=0.5,
               kappa=1.0, indices=((1,),), d=1):
    coeffs = tuple(ConstantCoefficient(c) for _ in indices)
    sups = tuple(abs(c) for _ in indices)
    nonlin = PolynomialNonlinearity(d=d, m=0, indices=indices, coeffs=coeffs,
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

    def test_paper_literal_variant(self):
        assert abs_gaussian_moment(2.0, paper_literal=True) == pytest.approx(
            3.0, rel=1e-12)
        assert abs_gaussian_moment(1.0, paper_literal=True) == pytest.approx(
            2.0 * math.gamma(1.5) / math.sqrt(math.pi), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            abs_gaussian_moment(0.0)


class TestTheorem2:
    def test_exponent_value(self):
        # stable eta makes the integrand scale like s^((1-p)(delta-1) - p/alpha)
        chk = check_theorem2(Stable(alpha=1.5), delta=0.5, p=2.0, T=1.0)
        assert chk.eta_exponent == pytest.approx(-5.0 / 6.0, abs=5e-3)
        assert chk.cond_eta and chk.cond_rho and chk.cd_check
        assert not chk.inconclusive

    def test_cond_eta_threshold(self):
        # delta < 2 - 2/alpha at p = 2
        alpha = 1.5
        good = check_theorem2(Stable(alpha=alpha), delta=0.4, p=2.0, T=1.0)
        bad = check_theorem2(Stable(alpha=alpha), delta=0.9, p=2.0, T=1.0)
        assert good.cond_eta
        assert not bad.cond_eta and not bad.inconclusive

    def test_p1_always_holds_for_admissible_alpha(self):
        for alpha in (1.2, 1.5, 1.8):
            chk = check_theorem2(Stable(alpha=alpha), delta=0.5, p=1.0, T=1.0)
            assert chk.cond_rho and chk.cond_eta

    def test_cond_rho(self):
        ok = check_theorem2(Stable(alpha=1.5), delta=1.9, p=2.0, T=1.0)
        assert ok.cond_rho and math.isfinite(ok.rho_integral)
        div = check_theorem2(Stable(alpha=1.5), delta=2.5, p=2.0, T=1.0)
        assert not div.cond_rho and math.isinf(div.rho_integral)

    def test_rho_integral_oracle(self):
        delta, p, T = 0.5, 2.0, 1.0
        gd = math.gamma(delta)
        exact, _ = integrate.quad(
            lambda s: (s ** (delta - 1.0) * math.exp(-s) / gd) ** (1.0 - p),
            0.0, T)
        chk = check_theorem2(Stable(alpha=1.5), delta=delta, p=p, T=T)
        assert chk.rho_integral == pytest.approx(exact, rel=1e-7)

    def test_relativistic_quadrature_converges(self):
        # eta grows like l^(alpha/2), so at p = 1 the inner integral of
        # exp(-s eta) l^(-1/2) scales like s^(-1/alpha) as s -> 0
        for delta in (0.3, 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error", integrate.IntegrationWarning)
                chk = check_theorem2(Relativistic(alpha=1.5, m=1.0),
                                     delta=delta, p=1.0, T=1.0)
            assert chk.eta_exponent == pytest.approx(-1.0 / 1.5, abs=5e-3)
            assert chk.cond_eta and not chk.inconclusive

    def test_domain(self):
        with pytest.raises(DomainError):
            check_theorem2(Stable(alpha=1.5), delta=0.0, p=2.0, T=1.0)
        with pytest.raises(DomainError):
            check_theorem2(Stable(alpha=1.5), delta=0.5, p=0.5, T=1.0)


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

    def test_stable_moment_consistency(self):
        # the constant in C_circ is the unit-time negative moment
        # E[S_1^(-p/2)] of the stable subordinator
        from branchpde.existence import _stable_moment_const
        for p, alpha in [(1.0, 1.5), (2.0, 1.2), (1.5, 1.8)]:
            assert _stable_moment_const(p, alpha) == pytest.approx(
                neg_moment_stable(p / 2.0, alpha, 1.0), rel=1e-12)

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

    def test_paper_literal_changes_lipschitz_term(self):
        # with a dominant Lipschitz term the ratio scales by M_p'/M_p = 3
        model = _toy_model(phi_sup=0.1, lipschitz=5.0)
        _, r_std, _ = horizon_bound_a(model, 2.0, 0.1)
        _, r_lit, _ = horizon_bound_a(model, 2.0, 0.1, paper_literal=True)
        assert r_lit == pytest.approx(3.0 * r_std, rel=1e-12)


class TestHorizonBoundB:
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
        rep = build_horizon_report(model, Stable(alpha=1.5), p=2.0, T=1.0)
        assert isinstance(rep, HorizonReport)
        assert rep.verdict == "certified-b"
        assert math.isinf(rep.t3b_bound)
        assert rep.cond_rho and rep.cond_eta and rep.cd_check

    def test_toy_certified_a(self):
        model = _toy_model()
        rep = build_horizon_report(model, Stable(alpha=2.0), p=2.0, T=0.05)
        assert rep.verdict == "certified-a"
        assert rep.C_circ <= 1.0 and rep.C_partial_ratio <= 1.0

    def test_nld_uncertified(self):
        model = builtin_model("nld", d=1, alpha=1.5, k=1, delta=0.9)
        rep = build_horizon_report(model, Stable(alpha=1.5), p=2.0, T=1.0)
        assert rep.verdict == "uncertified"
        assert not rep.cond_eta  # delta = 0.9 > 2 - 2/alpha = 2/3

    def test_halfspace_notes_not_lipschitz(self):
        model = builtin_model("burgers-halfspace", d=2, alpha=1.5, kappa=10.0)
        rep = build_horizon_report(model, Stable(alpha=1.5), p=1.0, T=1.0)
        assert rep.verdict == "uncertified"
        assert any("not Lipschitz" in n for n in rep.notes)

    def test_m0_validation(self):
        model = builtin_model("gradd", d=2, alpha=1.5, k=1)
        rep = build_horizon_report(model, Stable(alpha=1.5), p=1.0, T=1.0,
                                   m0=2)
        assert rep.m0 == 2
        with pytest.raises(DomainError):
            build_horizon_report(model, Stable(alpha=1.5), p=1.0, T=1.0, m0=1)
