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
  but with exponent p-1 on the rho and q_min factors; one quadrature in
  u = log x gives the integral.

The Theorem-2 condition on eta reads eta's growth index from the (C-D) tail
fit, in closed form: no quadrature is run (see check_theorem2).

The gamma lifetime density makes the sups over s in (0, T] closed-form: the
function s^b e^(cs) attains its sup at s = T when b >= 0 and is unbounded at
s -> 0+ when b < 0.  At a long horizon a sup that overflows, or a
survival(T)^p that underflows to 0, reads as infinite, so the route does
not certify.  So does a Gamma ratio beyond the float range, taken as one
exponential of log-Gamma terms: a large p ends in a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate as _integrate
from scipy.special import logsumexp

from .bernstein import (LaplaceExponent, check_integrability_cd,
                        near_critical, neg_moment_stable)
from .errors import AdmissibilityError, DomainError, NotLipschitzError
from .model import PdeModel
from .specfun import gamma_fn, upper_reg_gamma


def abs_gaussian_moment(p: float) -> float:
    """E|N(0,1)|^p = 2^(p/2) Gamma((p+1)/2) / sqrt(pi), as one exponential
    of a log-Gamma sum, so a value beyond the float range reads as
    infinite."""
    if p <= 0.0:
        raise DomainError(f"p must be positive, got {p}")
    try:
        return math.exp(p / 2.0 * math.log(2.0) + math.lgamma(p / 2.0 + 0.5)
                        - 0.5 * math.log(math.pi))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Theorem2Check:
    cond_rho: bool
    cond_eta: bool
    cd_check: bool
    eta_exponent: float
    inconclusive: bool


def check_theorem2(eta: LaplaceExponent, delta: float,
                   p: float) -> Theorem2Check:
    """Verdicts on the two Theorem-2 integrability conditions and the p = 1
    tail condition.

    cond_rho is the closed-form gamma-density criterion (1-delta)(p-1) > -1.
    cond_eta needs the small-s exponent of the integrand rho^(1-p)(s)
    int_0^inf exp(-s eta(l)) l^(p/2-1) dl above -1 + guard, with a symmetric
    inconclusive band.  For eta ~ l^beta that exponent is
    (1-delta)(p-1) - p/(2 beta), and beta is read from the (C-D) fit's slope
    -beta - 1/2; an eta that does not grow (beta <= 0) gives -inf.  The
    integrand is bounded on [s0, T] for every s0 > 0, so the horizon T
    does not enter the verdict.
    """
    if not (delta > 0.0 and 1.0 <= p < math.inf):
        raise DomainError("require delta > 0, 1 <= p < inf")
    cond_rho = (1.0 - delta) * (p - 1.0) > -1.0

    cd = check_integrability_cd(eta)
    beta = -cd.fitted_exponent - 0.5
    exponent = ((1.0 - delta) * (p - 1.0) - p / (2.0 * beta) if beta > 0.0
                else -math.inf)
    inconclusive = near_critical(exponent)
    return Theorem2Check(cond_rho=cond_rho,
                         cond_eta=exponent > -1.0 and not inconclusive,
                         cd_check=cd.converges, eta_exponent=exponent,
                         inconclusive=inconclusive or cd.inconclusive)


def _gamma_sup(b: float, c: float, scale: float, T: float) -> float:
    """sup over s in (0, T] of scale * s^b * e^(cs); infinite when b < 0 or
    when it overflows."""
    if b < 0.0:
        return math.inf
    try:
        return scale * T ** b * math.exp(c * T)
    except OverflowError:
        return math.inf


def _log_partial_ratio(model: PdeModel, p: float, e: float,
                       T: float) -> float:
    """log(C_partial / survival(T)^e), summed in logs so that no factor
    under- or overflows: -inf when phi = 0, and inf once survival(T)
    underflows to 0, so that a long horizon is not certified."""
    lip = model.terminal.lipschitz
    if lip is None:
        raise NotLipschitzError(
            "terminal condition is flagged not Lipschitz; horizon bounds "
            "require a Lipschitz terminal condition")
    survival = upper_reg_gamma(model.lifetime.delta, T)
    if survival == 0.0:
        return math.inf
    sup = model.terminal.sup_norm
    logs = [p * math.log(sup) if sup else -math.inf]
    if lip:
        logs.append(math.log(abs_gaussian_moment(p))
                    + p * math.log(lip) + 0.5 * math.log(model.d))
    return max(logs) - e * math.log(survival)


def _route_constant(model: PdeModel, p: float, e: float, T: float) -> float:
    """C_circ (e = p) or C_tilde (e = p - 1), after validating p, T and alpha:

        (sup_l |c_l| / q_min)^e * max(M sup s^(-p/a) / rho^e(s),
                                      sup 1 / rho^e(s)),

    with M = E[S_kappa^(-p/2)] = kappa^(-p/a) E[S_1^(-p/2)] the negative
    moment of the stable subordinator and the sups over (0, T].  A power
    beyond the float range (or a q_min^e that underflows to 0) reads as
    infinite, so the route does not certify.
    """
    if not (p >= 1.0 and 0.0 < T < math.inf):
        raise DomainError("require p >= 1 and 0 < T < inf")
    alpha = model.alpha
    if not 1.0 < alpha <= 2.0:
        raise AdmissibilityError("horizon bounds require alpha in (1, 2]")
    delta = model.lifetime.delta
    sup_c = max(model.nonlinearity.coeff_sup)
    q_min = model.branching.q_min
    try:
        scale = gamma_fn(delta) ** e
        sup1 = _gamma_sup(e * (1.0 - delta) - p / alpha, e, scale, T)
        sup2 = _gamma_sup(e * (1.0 - delta), e, scale, T)
        return (sup_c ** e / q_min ** e
                * max(neg_moment_stable(p / 2.0, alpha, model.kappa) * sup1,
                      sup2))
    except (OverflowError, ZeroDivisionError):
        return math.inf


def horizon_bound_a(model: PdeModel, p: float, T: float):
    """Route a: (C_circ, C_partial / survival(T)^p, certified)."""
    c_circ = _route_constant(model, p, p, T)
    alpha, delta = model.alpha, model.lifetime.delta
    if delta > 1.0 - 1.0 / alpha:
        raise AdmissibilityError(
            f"route a needs delta <= 1 - 1/alpha = {1.0 - 1.0 / alpha:.6g}, "
            f"got {delta}")
    try:
        ratio = math.exp(_log_partial_ratio(model, p, p, T))
    except OverflowError:
        ratio = math.inf
    return c_circ, ratio, (c_circ <= 1.0 and ratio <= 1.0)


def _tail_integral(terms, u_lo: float) -> float:
    """Integral from e^u_lo to inf of dx / sum c x^o over the (sup, order)
    ``terms``: one quadrature in u = log x of 1 / sum c e^((o-1)u), which
    reads 0 once a term passes the float range.  An order-0 term c0 keeps
    the integrand below e^u / c0 left of u_top, where the next term meets
    c0 e^-u; what lies 40 e-folds further left, under len(terms) e^-40 of
    the whole, is dropped so that quad sees the peak.  Without one the
    integral diverges at u_lo = -inf.  An integrand beyond the float range
    at its peak makes the integral infinite.  An integrand below 1 at u_lo
    is integrated over its value there, so that quad sees values of order
    1, not ones that lose digits near the float range.
    """
    logs = [(math.log(c), o - 1.0) for c, o in terms]

    def integrand(u, shift=0.0):
        try:
            return 1.0 / sum(math.exp(lc + k * u - shift) for lc, k in logs)
        except OverflowError:
            return 0.0
        except ZeroDivisionError:
            return math.inf

    c0 = sum(c for c, o in terms if o == 0)
    u_top = u_lo
    if c0:
        u_top = max(u_lo, min(math.log(c0 / c) / o for c, o in terms if o))
        u_lo = max(u_lo, u_top - 40.0)
    if u_top == -math.inf or integrand(u_top) == math.inf:
        return math.inf
    # -log of the integrand at u_lo, or 0 where it exceeds 1 there
    shift = max(0.0, logsumexp([lc + k * u_lo for lc, k in logs]))
    return math.exp(-shift) * _integrate.quad(
        integrand, u_lo, math.inf, args=(shift,), epsabs=0.0, epsrel=1e-10,
        limit=400)[0]


def horizon_bound_b(model: PdeModel, p: float, T: float):
    """Route b: (C_tilde, t3b_bound, certified).

    The orders are those of the terms with a nonzero sup.  When their
    largest |l| is <= 1, or no term is left (f = 0), the tail integral
    diverges, so the bound is infinite and every T certifies regardless of
    C_tilde.  Otherwise the integral runs from a_lo = C_partial /
    survival(T)^(p-1), taken in logs so that a tiny phi keeps it: phi = 0
    puts it at 0, where without an order-0 term it diverges.
    """
    r = p - 1.0
    c_tilde = _route_constant(model, p, r, T)

    nonlin = model.nonlinearity
    # (sup, order) of each term with a nonzero sup
    terms = [(c, sum(l)) for c, l in zip(nonlin.coeff_sup, nonlin.indices)
             if c]
    n_max = max((o for _, o in terms), default=0)
    if n_max <= 1:
        return c_tilde, math.inf, True
    if not 0.0 < c_tilde < math.inf:    # overflowed, or underflowed to 0
        return c_tilde, 0.0, False
    u_lo = _log_partial_ratio(model, p, r, T)
    if u_lo == math.inf:
        return c_tilde, 0.0, False
    bound = _tail_integral(terms, u_lo) / c_tilde
    return c_tilde, bound, T < bound


@dataclass(frozen=True)
class HorizonReport:
    p: float
    cond_rho: bool
    cond_eta: bool
    cd_check: bool
    C_circ: float
    C_partial_ratio: float
    t3b_bound: float
    verdict: str  # certified-a | certified-b | uncertified
    notes: tuple = ()


def build_horizon_report(model: PdeModel, eta: LaplaceExponent, p: float,
                         T: float) -> HorizonReport:
    """Evaluate both certification routes and the Theorem-2 hypotheses."""
    t2 = check_theorem2(eta, model.lifetime.delta, p)
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
        c_circ, ratio, cert_a = horizon_bound_a(model, p, T)
    except AdmissibilityError as exc:
        notes.append(f"route a unavailable: {exc}")

    t3b = 0.0
    cert_b = False
    try:
        _, t3b, cert_b = horizon_bound_b(model, p, T)
    except AdmissibilityError as exc:
        notes.append(f"route b unavailable: {exc}")

    if cert_a:
        verdict = "certified-a"
    elif cert_b:
        verdict = "certified-b"
    else:
        verdict = "uncertified"
    return HorizonReport(p=p, cond_rho=t2.cond_rho, cond_eta=t2.cond_eta,
                         cd_check=t2.cd_check, C_circ=c_circ,
                         C_partial_ratio=ratio, t3b_bound=t3b, verdict=verdict,
                         notes=tuple(notes))
