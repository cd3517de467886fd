"""Declarative PDE instances: polynomial nonlinearity, coefficients, terminal
condition, branching law, lifetime density, and the built-in benchmark catalog.

A model describes the canonical form

    -du/dt = kappa Delta_alpha u + f(t, x, u, du/dx_1, ..., du/dx_m),
    u(T, .) = phi,

with f(t,x,y,z) = sum over multi-indices l in L_m of c_l(t,x) y^(l_0) z_1^(l_1)
... z_m^(l_m).  All coefficient and terminal callables evaluate on batches of
points and are plain frozen dataclasses, so model bundles can be shipped to
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, DomainError, UnknownModelError
from .expressions import eval_expression, parse_expression
from .specfun import (_positive_power, bump_r2, gamma_fn, psi_getoor_batch,
                      upper_reg_gamma)
from .specfun import phi_bump  # noqa: F401  (bench/tracer.py wraps model.phi_bump)


def radial_args(x):
    """|x|^2 and sum_j x_j of points x (..., d), each summed from the last
    coordinate to the first.

    The radial models (ScaledBump, NldSource, GraddSource) depend on x only
    through these two sums.  The engine continues the same sums from cached
    tails of its displacements, so both routes agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    r2 = np.zeros(x.shape[:-1])
    s = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1] - 1, -1, -1):
        y = x[..., j]
        s += y
        r2 += y * y
    return r2, s


# --------------------------------------------------------------------------
# Coefficient functions (t may be scalar or (n,); x is (n, d); result (n,)).
# A coefficient or terminal that depends on x only through |x|^2 and
# sum_j x_j also has ``radial(t, r2, s)`` (``radial(r2, s)`` for a terminal),
# which the engine calls instead of building x itself.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantCoefficient:
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise DomainError(f"coefficient must be finite, got {self.value}")

    def __call__(self, t, x):
        return np.full(np.shape(x)[0], self.value)


@dataclass(frozen=True)
class ExpressionCoefficient:
    src: str
    d: int
    ast: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ast", parse_expression(self.src, self.d))

    def __call__(self, t, x):
        return np.atleast_1d(eval_expression(self.ast, t, x))


@dataclass(frozen=True)
class NldSource:
    """c_0(t,x) = e^(-t) Psi_(k,a)(x) - e^(-4t) (1 - |x|^2)_+^(4k+2a)."""

    k: int
    alpha: float
    d: int

    def __call__(self, t, x):
        return self.radial(t, *radial_args(x))

    def radial(self, t, r2, s):
        psi = psi_getoor_batch(self.k, self.alpha, self.d, r2)
        bump4 = _positive_power(1.0 - r2, 4 * self.k + 2.0 * self.alpha)
        return np.exp(-np.asarray(t)) * psi - np.exp(-4.0 * np.asarray(t)) * bump4


@dataclass(frozen=True)
class GraddSource:
    """c_(0..0)(t,x) = e^(-t) Psi + (2k+a) e^(-2t) (1-|x|^2)_+^(2k+a-1) sum_j x_j."""

    k: int
    alpha: float
    d: int

    def __call__(self, t, x):
        return self.radial(t, *radial_args(x))

    def radial(self, t, r2, s):
        psi = psi_getoor_batch(self.k, self.alpha, self.d, r2)
        power = _positive_power(1.0 - r2, 2 * self.k + self.alpha - 1.0)
        t = np.asarray(t)
        return (np.exp(-t) * psi
                + (2 * self.k + self.alpha) * np.exp(-2.0 * t) * power * s)


# --------------------------------------------------------------------------
# Terminal conditions (x is (n, d) -> (n,))
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledBump:
    """phi(x) = scale * (1 - |x|^2)_+^(k + alpha/2)."""

    k: int
    alpha: float
    scale: float = 1.0

    def __call__(self, x):
        return self.radial(*radial_args(x))

    def radial(self, r2, s):
        value = bump_r2(self.k, self.alpha, r2)
        value *= self.scale
        return value


@dataclass(frozen=True)
class CosineProduct:
    """phi(x) = prod_j cos(x_j) on the box [-pi/2, pi/2]^d, 0 outside."""

    d: int

    def __call__(self, x):
        xa = np.asarray(x)
        inside = np.all(np.abs(xa) <= np.pi / 2.0, axis=-1)
        return np.prod(np.cos(xa), axis=-1) * inside


@dataclass(frozen=True)
class HalfspaceIndicator:
    """phi(x) = 1{x_1 >= 0}; not Lipschitz."""

    def __call__(self, x):
        return (np.asarray(x)[..., 0] >= 0.0).astype(float)


@dataclass(frozen=True)
class ConstantTerminal:
    value: float = 1.0

    def __call__(self, x):
        return np.full(np.shape(x)[0], self.value)


@dataclass(frozen=True)
class ClippedCoordinate:
    """phi(x) = x_j clipped to [-bound, bound]; Lipschitz with constant 1."""

    index: int = 1
    bound: float = 10.0

    def __call__(self, x):
        return np.clip(np.asarray(x)[..., self.index - 1], -self.bound, self.bound)


@dataclass(frozen=True)
class ExpressionTerminal:
    src: str
    d: int
    ast: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ast", parse_expression(self.src, self.d))

    def __call__(self, x):
        return np.atleast_1d(eval_expression(self.ast, 0.0, np.atleast_2d(x)))


# --------------------------------------------------------------------------
# Model bundle components
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """f(t,x,y,z) = sum_l c_l(t,x) y^(l_0) prod_i z_i^(l_i) over l in L_m."""

    d: int
    m: int
    indices: tuple          # tuple of multi-indices, each of length m + 1
    coeffs: tuple           # coefficient callables, aligned with indices
    coeff_sup: tuple        # sup-norm bound per coefficient

    def __post_init__(self):
        if self.d < 1 or not 0 <= self.m <= self.d:
            raise DomainError("require d >= 1 and 0 <= m <= d")
        if not self.indices:
            raise DomainError("L_m must be non-empty")
        for l in self.indices:
            if len(l) != self.m + 1 or any(v < 0 for v in l):
                raise DomainError(f"multi-index {l} must have {self.m + 1} "
                                  "non-negative entries")
        if not len(self.indices) == len(self.coeffs) == len(self.coeff_sup):
            raise DomainError("indices, coeffs and coeff_sup must align")
        if not all(sup >= 0.0 for sup in self.coeff_sup):
            raise DomainError("coeff_sup must be non-negative")


@dataclass(frozen=True)
class TerminalCondition:
    phi: object                  # callable (n, d) -> (n,)
    sup_norm: float
    lipschitz: float | None      # None means "not Lipschitz"

    def __post_init__(self):
        if not (self.sup_norm >= 0
                and (self.lipschitz is None or self.lipschitz >= 0)):
            raise DomainError("sup_norm and lipschitz must be non-negative")


@dataclass(frozen=True)
class BranchingLaw:
    """Strictly positive pmf over L_m, aligned with the nonlinearity indices."""

    probs: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if not np.all(p > 0.0):
            raise DomainError("branching probabilities must be strictly positive")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise DomainError(f"branching probabilities sum to {p.sum()}, not 1")

    @property
    def q_min(self) -> float:
        return float(min(self.probs))


def uniform_branching(n_categories: int) -> BranchingLaw:
    return BranchingLaw(probs=(1.0 / n_categories,) * n_categories)


@dataclass(frozen=True)
class LifetimeDensity:
    """Gamma(delta, 1) lifetime: rho(s) = s^(delta-1) e^(-s) / Gamma(delta)."""

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < np.inf:
            raise DomainError(
                f"gamma shape must be positive and finite, got {self.delta}")

    def rho(self, s):
        """The density; at s = 0 with delta < 1 it is the +inf limit, so an
        interior factor c / (q rho) there is exactly 0."""
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            power = s ** (self.delta - 1.0)
        return power * np.exp(-s) / gamma_fn(self.delta)

    def survival(self, z):
        return upper_reg_gamma(self.delta, z)


@dataclass(frozen=True)
class PdeModel:
    name: str
    d: int
    alpha: float
    kappa: float
    nonlinearity: PolynomialNonlinearity
    terminal: TerminalCondition
    branching: BranchingLaw
    lifetime: LifetimeDensity

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise AdmissibilityError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not 0.0 < self.kappa < np.inf:
            raise AdmissibilityError(
                f"kappa must be positive and finite, got {self.kappa}")
        if len(self.branching.probs) != len(self.nonlinearity.indices):
            raise DomainError("branching law must align with L_m")

    @property
    def m(self) -> int:
        return self.nonlinearity.m


def audit_coeff_sup(model: PdeModel, T: float = 1.0, n_points: int = 10_000,
                    seed: int = 0) -> tuple:
    """Sample |c_l(t,x)| on [0,T] x [-2,2]^d: a note naming the multi-index
    l and the largest sampled |c_l| for each declared bound the samples
    exceed, so () when every bound holds."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, T, n_points)
    x = rng.uniform(-2.0, 2.0, (n_points, model.d))
    notes = []
    for l, c, sup in zip(model.nonlinearity.indices, model.nonlinearity.coeffs,
                         model.nonlinearity.coeff_sup):
        observed = float(np.max(np.abs(c(t, x))))
        if observed > sup * (1.0 + 1e-9):
            notes.append(f"coeff_sup for {l} is {sup} but sampled |c| "
                         f"reached {observed:.6g}")
    return tuple(notes)


# --------------------------------------------------------------------------
# Built-in catalog
# --------------------------------------------------------------------------


def _radial_sup(coeff, direction: np.ndarray, T: float) -> float:
    """Scan bound for |coeff(t, x)| over t in [0, T] and x along ``direction``.

    For k = 0 the nld exterior branch blows up at |x| -> 1+, so the scan
    excludes a thin shell and the returned value is a finite proxy for the
    formally infinite sup.  ``coeff`` is radial and is evaluated once, on
    the whole (t, x) grid.
    """
    r2 = np.concatenate([np.linspace(0.0, 0.999, 400),
                         1.0 + np.geomspace(1e-4, 24.0, 400)])
    x = (np.sqrt(np.maximum(r2, 1e-30))[:, None] / np.linalg.norm(direction)
         * direction)
    times = np.linspace(0.0, T, 41)[:, None]
    return float(np.max(np.abs(coeff.radial(times, *radial_args(x)))))


def _bump_terminal(k: int, alpha: float, T: float) -> TerminalCondition:
    scale = float(np.exp(-T))
    exponent = k + alpha / 2.0
    lip = 2.0 * exponent * scale if exponent >= 1.0 else None
    return TerminalCondition(phi=ScaledBump(k=k, alpha=alpha, scale=scale),
                             sup_norm=scale, lipschitz=lip)


def builtin_model(name: str, d: int = 1, alpha: float = 1.5, k: int = 0,
                  kappa: float = 1.0, c: float = 1.0, T: float = 1.0,
                  delta: float = 0.5) -> PdeModel:
    """Benchmark catalog: nld, gradd, burgers-halfspace, burgers-cosine,
    linear-test.

    ``T`` fixes the terminal condition of the manufactured solutions
    (phi = e^(-T) Phi_(k,alpha)), which solve the equation at kappa = 1
    only, so nld and gradd refuse any other ``kappa``; ``c`` is the rate of
    linear-test; ``delta`` the gamma lifetime shape.
    """
    if d < 1:
        raise AdmissibilityError(f"dimension must be positive, got {d}")
    if name in ("nld", "gradd") and kappa != 1.0:
        raise AdmissibilityError(f"{name} requires kappa = 1, got {kappa}")
    lifetime = LifetimeDensity(delta=delta)

    if name == "nld":
        if not 0.0 < alpha < 2.0:
            raise AdmissibilityError("nld requires alpha in (0, 2)")
        indices = ((0,), (1,), (4,))
        coeffs = (NldSource(k=k, alpha=alpha, d=d),
                  ConstantCoefficient(1.0), ConstantCoefficient(1.0))
        # |c_0| is radial
        sups = (_radial_sup(coeffs[0], np.eye(d)[0], T), 1.0, 1.0)
        nonlin = PolynomialNonlinearity(d=d, m=0, indices=indices,
                                        coeffs=coeffs, coeff_sup=sups)
        return PdeModel(name=name, d=d, alpha=alpha, kappa=1.0,
                        nonlinearity=nonlin, terminal=_bump_terminal(k, alpha, T),
                        branching=uniform_branching(3), lifetime=lifetime)

    if name == "gradd":
        if not 1.0 < alpha < 2.0:
            raise AdmissibilityError("gradient-bearing models require alpha in (1, 2)")
        zero = (0,) * (d + 1)
        lone_u = (1,) + (0,) * d
        grads = tuple((1,) + tuple(1 if j == i else 0 for j in range(d))
                      for i in range(d))
        indices = (zero, lone_u) + grads
        coeffs = ((GraddSource(k=k, alpha=alpha, d=d),)
                  + (ConstantCoefficient(1.0),) * (d + 1))
        # the worst direction for sum_j x_j is the diagonal
        sups = (_radial_sup(coeffs[0], np.ones(d), T),) + (1.0,) * (d + 1)
        nonlin = PolynomialNonlinearity(d=d, m=d, indices=indices,
                                        coeffs=coeffs, coeff_sup=sups)
        return PdeModel(name=name, d=d, alpha=alpha, kappa=1.0,
                        nonlinearity=nonlin, terminal=_bump_terminal(k, alpha, T),
                        branching=uniform_branching(d + 2), lifetime=lifetime)

    if name in ("burgers-halfspace", "burgers-cosine"):
        if not 1.0 < alpha <= 2.0:
            raise AdmissibilityError("gradient-bearing models require alpha in (1, 2]")
        # du/dt + kappa Delta_alpha u - u sum_j du/dx_j = 0 rearranged into the
        # canonical form gives the convection term coefficient -1
        grads = tuple((1,) + tuple(1 if j == i else 0 for j in range(d))
                      for i in range(d))
        coeffs = (ConstantCoefficient(-1.0),) * d
        sups = (1.0,) * d
        nonlin = PolynomialNonlinearity(d=d, m=d, indices=grads,
                                        coeffs=coeffs, coeff_sup=sups)
        if name == "burgers-halfspace":
            terminal = TerminalCondition(phi=HalfspaceIndicator(), sup_norm=1.0,
                                         lipschitz=None)
        else:
            terminal = TerminalCondition(phi=CosineProduct(d=d), sup_norm=1.0,
                                         lipschitz=float(np.sqrt(d)))
        return PdeModel(name=name, d=d, alpha=alpha, kappa=kappa,
                        nonlinearity=nonlin, terminal=terminal,
                        branching=uniform_branching(d), lifetime=lifetime)

    if name == "linear-test":
        nonlin = PolynomialNonlinearity(d=d, m=0, indices=((1,),),
                                        coeffs=(ConstantCoefficient(c),),
                                        coeff_sup=(abs(c),))
        terminal = TerminalCondition(phi=ConstantTerminal(1.0), sup_norm=1.0,
                                     lipschitz=0.0)
        return PdeModel(name=name, d=d, alpha=alpha, kappa=kappa,
                        nonlinearity=nonlin, terminal=terminal,
                        branching=uniform_branching(1), lifetime=lifetime)

    raise UnknownModelError(name)
