"""Laplace exponents of subordinators and the tail-integrability checkers.

Each family evaluates its closed-form Laplace exponent; the convergence test
for the tail integral of 1/(eta(lambda) sqrt(lambda)) is decided by fitting
the decay exponent of the integrand on a geometric grid, with a guard band
around the critical exponent -1 so borderline cases surface as inconclusive
rather than as a silent verdict.

Levy triplet notes (documentation only): the stable family has drift b = 0
and Levy measure  nu(dx) = alpha 2^(alpha/2-1) / Gamma(1-alpha/2) x^(-1-alpha/2) dx;
the drift family has b = mu plus a kill rate kappa0; the other families are
kept for integrability analysis only and are not sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _sps

from .errors import DivergenceError, DomainError
from .specfun import gamma_fn


@dataclass(frozen=True)
class LaplaceExponent:
    """Base class; subclasses implement the closed form in _eval."""

    kill_rate: float = 0.0

    def _eval(self, lam):
        raise NotImplementedError

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < 0.0):
            raise DomainError("eta is defined for lambda >= 0")
        out = self._eval(lam)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Stable(LaplaceExponent):
    """eta(lambda) = (2 lambda)^(alpha/2), the alpha/2-stable subordinator."""

    alpha: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"Stable requires alpha in (0, 2], got {self.alpha}")

    def _eval(self, lam):
        return (2.0 * lam) ** (self.alpha / 2.0)


@dataclass(frozen=True)
class ScaledStable(LaplaceExponent):
    """eta(lambda) = kappa (2 lambda)^(alpha/2) = (2 kappa^(2/alpha) lambda)^(alpha/2)."""

    alpha: float = 1.5
    kappa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0 or self.kappa <= 0.0:
            raise DomainError("ScaledStable requires alpha in (0, 2] and kappa > 0")

    def _eval(self, lam):
        return self.kappa * (2.0 * lam) ** (self.alpha / 2.0)


@dataclass(frozen=True)
class StableWithDrift(LaplaceExponent):
    """eta(lambda) = kill + mu lambda + c lambda^a, a in (0, 1), killed subordinator."""

    a: float = 0.5
    mu: float = 1.0
    c: float = 1.0
    kill_rate: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.a < 1.0 or self.mu <= 0.0 or self.c <= 0.0 or self.kill_rate <= 0.0:
            raise DomainError("StableWithDrift requires a in (0,1), mu, c, kill > 0")

    def _eval(self, lam):
        return self.kill_rate + self.mu * lam + self.c * lam ** self.a


@dataclass(frozen=True)
class SumOfStables(LaplaceExponent):
    """eta(lambda) = a lambda^(beta-alpha) + b lambda^beta, 0 < alpha < beta < 1."""

    a: float = 1.0
    b: float = 1.0
    alpha: float = 0.2
    beta: float = 0.7

    def __post_init__(self):
        if not (0.0 < self.alpha < self.beta < 1.0) or self.a <= 0.0 or self.b <= 0.0:
            raise DomainError("SumOfStables requires a,b > 0 and 0 < alpha < beta < 1")

    def _eval(self, lam):
        return self.a * lam ** (self.beta - self.alpha) + self.b * lam ** self.beta


@dataclass(frozen=True)
class BetaRatio(LaplaceExponent):
    """eta(lambda) = c lambda Gamma(lambda+nu) / Gamma(lambda+nu+mu), mu in (0, 1)."""

    c: float = 1.0
    nu: float = 0.0
    mu: float = 0.5

    def __post_init__(self):
        if self.c <= 0.0 or self.nu < 0.0 or not 0.0 < self.mu < 1.0:
            raise DomainError("BetaRatio requires c > 0, nu >= 0, mu in (0, 1)")

    def _eval(self, lam):
        # gammaln keeps the ratio finite for lambda far beyond the overflow
        # range of Gamma itself; lambda = 0 with nu = 0 tends to c/Gamma(mu+...)
        lam = np.maximum(lam, 1e-300)
        return self.c * lam * np.exp(_sps.gammaln(lam + self.nu)
                                     - _sps.gammaln(lam + self.nu + self.mu))


@dataclass(frozen=True)
class Relativistic(LaplaceExponent):
    """eta(lambda) = (lambda + m^(2/alpha))^(alpha/2) - m, relativistic stable."""

    alpha: float = 1.5
    m: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0 or self.m <= 0.0:
            raise DomainError("Relativistic requires alpha in (0, 2) and m > 0")

    def _eval(self, lam):
        return (lam + self.m ** (2.0 / self.alpha)) ** (self.alpha / 2.0) - self.m


@dataclass(frozen=True)
class LogCorrected(LaplaceExponent):
    """eta(lambda) = lambda^(alpha/2) (log(1+lambda))^(sign * beta/2)."""

    alpha: float = 1.5
    beta: float = 0.4
    sign: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0 or self.sign not in (1, -1):
            raise DomainError("LogCorrected requires alpha in (0, 2) and sign +-1")
        limit = (2.0 - self.alpha) if self.sign == 1 else self.alpha
        if not 0.0 < self.beta < limit:
            raise DomainError(
                f"LogCorrected beta must lie in (0, {limit}) for sign {self.sign}")

    def _eval(self, lam):
        logpart = np.log1p(lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = lam ** (self.alpha / 2.0) * logpart ** (self.sign * self.beta / 2.0)
        return np.where(lam == 0.0, 0.0, out)


@dataclass(frozen=True)
class IntegrabilityVerdict:
    """Outcome of the tail test for integral of 1/(eta sqrt(lambda))."""

    converges: bool
    integral: float
    fitted_exponent: float
    inconclusive: bool
    lam0: float

    def __bool__(self):
        return self.converges


_EXPONENT_GUARD = 0.01


def check_integrability_cd(eta: LaplaceExponent, lam0: float = 1.0) -> IntegrabilityVerdict:
    """Decide convergence of the tail integral of 1/(eta(l) sqrt(l)) from lam0.

    The integrand's decay exponent is fitted on the top decades of a geometric
    grid up to 1e9; convergence requires the fit below -1 - guard.  Within the
    guard band of -1 the verdict is flagged inconclusive (and conservatively
    reported as non-convergent).
    """
    if lam0 <= 0.0:
        raise DomainError("lam0 must be positive")
    grid = np.geomspace(lam0, 1e9, 400)
    vals = eta(grid)
    integrand = 1.0 / (vals * np.sqrt(grid))
    # fit on the last two decades, where sub-leading terms are negligible
    tail = grid >= 1e7
    slope = np.polyfit(np.log(grid[tail]), np.log(integrand[tail]), 1)[0]
    integral = float(np.trapezoid(integrand * grid, np.log(grid)))
    inconclusive = bool(abs(slope + 1.0) <= _EXPONENT_GUARD)
    converges = bool(slope < -1.0 - _EXPONENT_GUARD)
    return IntegrabilityVerdict(converges=converges, integral=integral,
                                fitted_exponent=float(slope),
                                inconclusive=inconclusive, lam0=lam0)


def integrability_table() -> list[dict]:
    """Evaluate the checker on parameters straddling each catalog boundary.

    Returns one row per family with the straddling parameter sets, the
    expected verdicts from the closed-form condition, and agreement flags.
    """
    rows = [
        ("sum-of-stables", "beta > 1/2", [
            (SumOfStables(a=1.0, b=1.0, alpha=0.2, beta=0.55), True),
            (SumOfStables(a=1.0, b=1.0, alpha=0.2, beta=0.45), False),
        ]),
        ("stable-with-drift", "always satisfied", [
            (StableWithDrift(a=0.3, mu=1.0, c=1.0, kill_rate=1.0), True),
            (StableWithDrift(a=0.9, mu=0.1, c=2.0, kill_rate=0.5), True),
        ]),
        ("beta-ratio", "mu < 1/2", [
            (BetaRatio(c=1.0, nu=0.0, mu=0.45), True),
            (BetaRatio(c=1.0, nu=0.0, mu=0.55), False),
        ]),
        ("relativistic", "alpha > 1", [
            (Relativistic(alpha=1.1, m=1.0), True),
            (Relativistic(alpha=0.9, m=1.0), False),
        ]),
        ("log-corrected-plus", "alpha > 1", [
            (LogCorrected(alpha=1.1, beta=0.4, sign=1), True),
            (LogCorrected(alpha=0.9, beta=0.4, sign=1), False),
        ]),
        ("log-corrected-minus", "alpha > 1", [
            (LogCorrected(alpha=1.1, beta=0.4, sign=-1), True),
            (LogCorrected(alpha=0.9, beta=0.4, sign=-1), False),
        ]),
    ]
    table = []
    for family, condition, cases in rows:
        entries = []
        for eta, expected in cases:
            verdict = check_integrability_cd(eta)
            entries.append({
                "eta": eta,
                "expected": expected,
                "verdict": verdict.converges,
                "inconclusive": verdict.inconclusive,
                "agrees": verdict.converges == expected and not verdict.inconclusive,
            })
        table.append({"family": family, "condition": condition, "cases": entries})
    return table


def neg_moment_stable(p: float, alpha: float, t: float) -> float:
    """Closed-form E[S_t^(-p)] for the alpha/2-stable subordinator.

    2^(1-p) Gamma(2p/alpha) / (alpha t^(2p/alpha) Gamma(p)); at alpha = 2 this
    reduces to (2t)^(-p), the deterministic subordinator S_t = 2t.
    """
    if p <= 0.0 or t <= 0.0:
        raise DomainError("neg_moment_stable requires p > 0 and t > 0")
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    return (2.0 ** (1.0 - p) * gamma_fn(2.0 * p / alpha)
            / (alpha * t ** (2.0 * p / alpha) * gamma_fn(p)))


def laplace_power_integral(eta: LaplaceExponent, t: float, q: float,
                           rel_tol: float) -> float:
    """int_0^inf exp(-t eta(l)) l^(q-1) dl by split quadrature in u = log l.

    Bisects (geometrically, on [1e-12, 1e14]) for the scale where t eta = 1,
    then integrates exp(-t eta(l) + q log l) du over the head (-inf, u*] and
    over 80 e-folds of tail; in u the l^(q-1) singularity at 0 is a smooth
    exponential decay.
    """
    lo, hi = 1e-12, 1e14
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if t * float(eta(mid)) < 1.0:
            lo = mid
        else:
            hi = mid
    u_star = math.log(math.sqrt(lo * hi))

    def integrand(u):
        return math.exp(q * u - t * float(eta(math.exp(u))))

    head, _ = _integrate.quad(integrand, -math.inf, u_star,
                              epsabs=0.0, epsrel=rel_tol, limit=400)
    tail, _ = _integrate.quad(integrand, u_star, u_star + 80.0,
                              epsabs=1e-300, epsrel=rel_tol, limit=400)
    return head + tail


def neg_moment_numeric(eta: LaplaceExponent, p: float, t: float,
                       rel_tol: float = 1e-10) -> float:
    """E[S_t^(-p)] = (1/Gamma(p)) int_0^inf exp(-t eta(l)) l^(p-1) dl by quadrature.

    Raises DivergenceError if eta does not grow on a probe grid fast enough
    for the integrand to decay.
    """
    if p <= 0.0 or t <= 0.0:
        raise DomainError("neg_moment_numeric requires p > 0 and t > 0")
    probe = eta(np.geomspace(1e3, 1e12, 10))
    if t * probe[-1] < 50.0 or np.any(np.diff(probe) < 0.0):
        raise DivergenceError("integrand tail does not decay: eta grows too slowly")
    return laplace_power_integral(eta, t, p, rel_tol) / gamma_fn(p)
