"""Certification that the tree functional has a finite p-th moment on [0, T].

Two routes are evaluated:

* route a: C_circ(T) <= 1 and C_partial / survival(T)^p <= 1, where

      C_circ(T) = (1/q_min^p) sup_l |c_l|^p
                  * max( 2 Gamma(p/a) / (2^(p/2) a Gamma(p/2))
                           * sup_(0,T] s^(-p/a) / rho^p(s),
                         sup_(0,T] 1 / rho^p(s) )

  and C_partial = max(|phi|_inf^p, M_p L^p sqrt(d));

* route b: T < (1 / C_tilde(T)) * integral from C_partial / survival(T)^(p-1)
  to infinity of (sum_l |c_l| x^|l|)^(-1) dx, with C_tilde built like C_circ
  but with exponent p-1 on the rho and q_min factors.

The gamma lifetime density makes the sups over s in (0, T] closed-form: the
function s^b e^(cs) attains its sup at s = T when b >= 0 and is unbounded at
s -> 0+ when b < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate

from .bernstein import (LaplaceExponent, check_integrability_cd,
                        laplace_power_integral)
from .errors import AdmissibilityError, DomainError, NotLipschitzError
from .model import LifetimeDensity, PdeModel
from .specfun import gamma_fn, upper_reg_gamma

_SLOPE_GUARD = 0.01


def abs_gaussian_moment(p: float, paper_literal: bool = False) -> float:
    """E|N(0,1)|^p.  The standard value is 2^(p/2) Gamma((p+1)/2) / sqrt(pi);
    ``paper_literal`` switches to the variant 2^p Gamma(p + 1/2) / sqrt(pi)."""
    if p <= 0.0:
        raise DomainError(f"p must be positive, got {p}")
    if paper_literal:
        return 2.0 ** p * gamma_fn(p + 0.5) / math.sqrt(math.pi)
    return 2.0 ** (p / 2.0) * gamma_fn((p + 1.0) / 2.0) / math.sqrt(math.pi)


@dataclass(frozen=True)
class Theorem2Check:
    cond_rho: bool
    cond_eta: bool
    cd_check: bool
    rho_integral: float
    eta_exponent: float
    inconclusive: bool


def check_theorem2(eta: LaplaceExponent, delta: float, p: float, T: float,
                   lam0: float = 1.0) -> Theorem2Check:
    """Verdicts on the two Theorem-2 integrability conditions and the p = 1
    tail condition.

    cond_rho is the closed-form gamma-density criterion (1-delta)(p-1) > -1,
    confirmed by quadrature of the finite integral.  cond_eta fits the small-s
    decay exponent of the integrand of the double integral; convergence needs
    the fitted exponent above -1 + guard, with a symmetric inconclusive band.
    """
    if delta <= 0.0 or p < 1.0 or T <= 0.0:
        raise DomainError("require delta > 0, p >= 1, T > 0")
    rho = LifetimeDensity(delta).rho

    e_rho = (1.0 - delta) * (p - 1.0)
    cond_rho = e_rho > -1.0
    if cond_rho:
        rho_integral, _ = _integrate.quad(lambda s: rho(s) ** (1.0 - p),
                                          0.0, T, epsrel=1e-9, limit=200)
    else:
        rho_integral = math.inf

    # small-s decay exponent of  rho^(1-p)(s) * inner(s)
    s_grid = np.geomspace(1e-6, min(T, 1e-2), 8)
    vals = np.array([
        laplace_power_integral(eta, s, p / 2.0, rel_tol=1e-9)
        * rho(s) ** (1.0 - p)
        for s in s_grid])
    slope = float(np.polyfit(np.log(s_grid), np.log(vals), 1)[0])
    inconclusive = bool(abs(slope + 1.0) <= _SLOPE_GUARD)
    cond_eta = bool(slope > -1.0 + _SLOPE_GUARD)

    cd = check_integrability_cd(eta, lam0=lam0)
    return Theorem2Check(cond_rho=cond_rho, cond_eta=cond_eta,
                         cd_check=cd.converges, rho_integral=rho_integral,
                         eta_exponent=slope,
                         inconclusive=inconclusive or cd.inconclusive)


def _gamma_sup(b: float, c: float, scale: float, T: float) -> float:
    """sup over s in (0, T] of scale * s^b * e^(cs); infinite when b < 0."""
    if b < 0.0:
        return math.inf
    return scale * T ** b * math.exp(c * T)


def _stable_moment_const(p: float, alpha: float) -> float:
    """2 Gamma(p/alpha) / (2^(p/2) alpha Gamma(p/2)), the s^(p/alpha)-scaled
    negative moment E[S_s^(-p/2)] of the stable subordinator."""
    return 2.0 * gamma_fn(p / alpha) / (2.0 ** (p / 2.0) * alpha * gamma_fn(p / 2.0))


def _c_partial(model: PdeModel, p: float, paper_literal: bool) -> float:
    lip = model.terminal.lipschitz
    if lip is None:
        raise NotLipschitzError(
            "terminal condition is flagged not Lipschitz; horizon bounds "
            "require a Lipschitz terminal condition")
    m_p = abs_gaussian_moment(p, paper_literal)
    return max(model.terminal.sup_norm ** p,
               m_p * lip ** p * math.sqrt(model.d))


def _route_constant(model: PdeModel, p: float, e: float, T: float) -> float:
    """C_circ (e = p) or C_tilde (e = p - 1), after validating p, T and alpha:

        (sup_l |c_l| / q_min)^e * max(M kappa^(-p/a) sup s^(-p/a) / rho^e(s),
                                      sup 1 / rho^e(s)),

    with M the stable negative-moment constant and the sups over (0, T].
    """
    if p < 1.0 or T <= 0.0:
        raise DomainError("require p >= 1 and T > 0")
    alpha = model.alpha
    if not 1.0 < alpha <= 2.0:
        raise AdmissibilityError("horizon bounds require alpha in (1, 2]")
    delta = model.lifetime.delta
    scale = gamma_fn(delta) ** e
    sup1 = _gamma_sup(e * (1.0 - delta) - p / alpha, e, scale, T)
    sup2 = _gamma_sup(e * (1.0 - delta), e, scale, T)
    kappa_scale = model.kappa ** (-p / alpha)
    sup_c = max(model.nonlinearity.coeff_sup)
    q_min = model.branching.q_min
    return (sup_c ** e / q_min ** e
            * max(_stable_moment_const(p, alpha) * kappa_scale * sup1, sup2))


def horizon_bound_a(model: PdeModel, p: float, T: float,
                    paper_literal: bool = False):
    """Route a: (C_circ, C_partial / survival(T)^p, certified)."""
    c_circ = _route_constant(model, p, p, T)
    alpha, delta = model.alpha, model.lifetime.delta
    if delta > 1.0 - 1.0 / alpha:
        raise AdmissibilityError(
            f"route a needs delta <= 1 - 1/alpha = {1.0 - 1.0 / alpha:.6g}, "
            f"got {delta}")
    ratio = _c_partial(model, p, paper_literal) / upper_reg_gamma(delta, T) ** p
    return c_circ, ratio, (c_circ <= 1.0 and ratio <= 1.0)


def horizon_bound_b(model: PdeModel, p: float, T: float,
                    paper_literal: bool = False):
    """Route b: (C_tilde, t3b_bound, certified).

    When max |l| <= 1 the tail integral diverges, so the bound is infinite and
    every T certifies regardless of C_tilde.
    """
    r = p - 1.0
    c_tilde = _route_constant(model, p, r, T)

    orders = [sum(l) for l in model.nonlinearity.indices]
    sups = list(model.nonlinearity.coeff_sup)
    n_max = max(orders)
    if n_max <= 1:
        return c_tilde, math.inf, True
    if not math.isfinite(c_tilde):
        return c_tilde, 0.0, False

    a_lo = (_c_partial(model, p, paper_literal)
            / upper_reg_gamma(model.lifetime.delta, T) ** r)

    def denom(xv):
        return sum(c * xv ** o for c, o in zip(sups, orders))

    cut = max(a_lo, 1e6)
    head, _ = _integrate.quad(lambda xv: 1.0 / denom(xv), a_lo, cut,
                              epsrel=1e-10, limit=400)
    a_top = sum(c for c, o in zip(sups, orders) if o == n_max)
    tail = cut ** (1.0 - n_max) / (a_top * (n_max - 1.0))
    bound = (head + tail) / c_tilde
    return c_tilde, bound, T < bound


@dataclass(frozen=True)
class HorizonReport:
    p: float
    m0: int
    cond_rho: bool
    cond_eta: bool
    cd_check: bool
    C_circ: float
    C_partial_ratio: float
    t3b_bound: float
    verdict: str  # certified-a | certified-b | uncertified
    notes: tuple = ()


def build_horizon_report(model: PdeModel, eta: LaplaceExponent, p: float,
                         T: float, m0: int | None = None,
                         paper_literal: bool = False) -> HorizonReport:
    """Evaluate both certification routes and the Theorem-2 hypotheses."""
    if m0 is None:
        m0 = model.m
    if not model.m <= m0 <= model.d:
        raise DomainError(f"m0 must lie in [{model.m}, {model.d}], got {m0}")
    t2 = check_theorem2(eta, model.lifetime.delta, p, T)
    notes = []
    if t2.inconclusive:
        notes.append("theorem-2 exponent fit is inside the inconclusive band")
    if model.terminal.lipschitz is None:
        notes.append("terminal condition is not Lipschitz; horizon bounds "
                     "cannot certify")

    c_circ = math.inf
    ratio = math.inf
    cert_a = False
    try:
        c_circ, ratio, cert_a = horizon_bound_a(model, p, T, paper_literal)
    except (AdmissibilityError, NotLipschitzError) as exc:
        notes.append(f"route a unavailable: {exc}")

    t3b = 0.0
    cert_b = False
    try:
        _, t3b, cert_b = horizon_bound_b(model, p, T, paper_literal)
    except (AdmissibilityError, NotLipschitzError) as exc:
        notes.append(f"route b unavailable: {exc}")

    if cert_a:
        verdict = "certified-a"
    elif cert_b:
        verdict = "certified-b"
    else:
        verdict = "uncertified"
    return HorizonReport(p=p, m0=m0, cond_rho=t2.cond_rho, cond_eta=t2.cond_eta,
                         cd_check=t2.cd_check, C_circ=c_circ,
                         C_partial_ratio=ratio, t3b_bound=t3b, verdict=verdict,
                         notes=tuple(notes))
