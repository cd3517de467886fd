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

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, DomainError, UnknownModelError
from .expressions import (_inside, eval_expression, fold_expression,
                          parse_expression)
from .specfun import (_positive_power, bump_r2, gamma_fn, psi_getoor_batch,
                      radial_args, upper_reg_gamma)
from .specfun import phi_bump  # noqa: F401  (bench/tracer.py wraps model.phi_bump)


# --------------------------------------------------------------------------
# Coefficient functions (t may be scalar or (n,); x is (n, d); result (n,)).
# A coefficient or terminal that a run can evaluate at fewer coordinates
# has ``fold(t, x, lead)`` (``fold(x, lead)`` for a terminal): a copy of
# itself, folded at t and the rows of x, the coordinates from ``lead`` on,
# that reads only the first ``lead`` coordinates of its points (..., n,
# lead) and gives the bits of the original at the joined points.  An inline
# expression folds every part that reads only t and those coordinates (see
# ``expressions.fold_expression``); a radial callable keeps its rows' |x|^2
# and sum_j x_j over them, which ``specfun.radial_args`` continues; the
# cosine product keeps their cosines and box test.
# --------------------------------------------------------------------------


def _folded(fn, name, value):
    """A copy of ``fn`` with its field ``name`` set to ``value``."""
    folded = copy.copy(fn)
    object.__setattr__(folded, name, value)
    return folded


@dataclass(frozen=True)
class _Radial:
    """A callable of x through |x|^2 and sum_j x_j alone; ``tail`` holds
    both over the coordinates it was folded at, per row."""

    tail: tuple = field(default=(0.0, 0.0), init=False, compare=False,
                        repr=False)

    def sums(self, x):
        """|x|^2 and sum_j x_j of points x, continued from the tail."""
        return radial_args(x, *self.tail)

    def fold(self, *args):
        """fold(t, x, lead), or fold(x, lead) for a terminal: t and lead
        are not read."""
        return _folded(self, "tail", radial_args(args[-2]))


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

    def fold(self, t, x, lead):
        return _folded(self, "ast", fold_expression(self.ast, t, x, lead))


@dataclass(frozen=True)
class NldSource(_Radial):
    """c_0(t,x) = e^(-t) Psi_(k,a)(x) - e^(-4t) (1 - |x|^2)_+^(4k+2a)."""

    k: int
    alpha: float
    d: int

    def __call__(self, t, x):
        r2, _ = self.sums(x)
        psi = psi_getoor_batch(self.k, self.alpha, self.d, r2)
        bump4 = _positive_power(1.0 - r2, 4 * self.k + 2.0 * self.alpha)
        return np.exp(-np.asarray(t)) * psi - np.exp(-4.0 * np.asarray(t)) * bump4


@dataclass(frozen=True)
class GraddSource(_Radial):
    """c_(0..0)(t,x) = e^(-t) Psi + (2k+a) e^(-2t) (1-|x|^2)_+^(2k+a-1) sum_j x_j."""

    k: int
    alpha: float
    d: int

    def __call__(self, t, x):
        r2, s = self.sums(x)
        psi = psi_getoor_batch(self.k, self.alpha, self.d, r2)
        power = _positive_power(1.0 - r2, 2 * self.k + self.alpha - 1.0)
        t = np.asarray(t)
        return (np.exp(-t) * psi
                + (2 * self.k + self.alpha) * np.exp(-2.0 * t) * power * s)


# --------------------------------------------------------------------------
# Terminal conditions (x is (n, d) -> (n,))
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledBump(_Radial):
    """phi(x) = scale * (1 - |x|^2)_+^(k + alpha/2)."""

    k: int
    alpha: float
    scale: float = 1.0

    def __call__(self, x):
        value = bump_r2(self.k, self.alpha, self.sums(x)[0])
        value *= self.scale
        return value


@dataclass(frozen=True)
class CosineProduct:
    """phi(x) = prod_j cos(x_j) on the box [-pi/2, pi/2]^d, 0 outside.

    The cosines multiply one column at a time, first to last, and the box
    is tested as the expression language's indicator_box tests it, so phi
    has the bits of the inline cos(x1) * ... * cos(xd) * indicator_box.
    ``tail`` holds the cosines, one row per coordinate, and the box test of
    the coordinates it was folded at.
    """

    d: int
    tail: tuple = field(default=((), None), init=False, compare=False,
                        repr=False)

    def __call__(self, x):
        x = np.asarray(x)
        cosines, inside = self.tail
        value = np.ones(x.shape[:-1])
        for j in range(x.shape[-1]):
            value *= np.cos(x[..., j])
        for cos in cosines:
            value *= cos
        return value * _inside(-np.pi / 2.0, np.pi / 2.0, x, inside)

    def fold(self, x, lead):
        x = np.asarray(x)
        return _folded(self, "tail", (np.cos(x.T, order="C"), _inside(
            -np.pi / 2.0, np.pi / 2.0, x)))


@dataclass(frozen=True)
class HalfspaceIndicator:
    """phi(x) = 1{x_1 >= 0}; not Lipschitz.  ``x1`` holds x_1 per row when
    folded at every coordinate."""

    x1: object = field(default=None, init=False, compare=False, repr=False)

    def __call__(self, x):
        x = np.asarray(x)
        x1 = (x[..., 0] if self.x1 is None
              else np.broadcast_to(self.x1, x.shape[:-1]))
        return (x1 >= 0.0).astype(float)

    def fold(self, x, lead):
        if lead:
            return self
        return _folded(self, "x1", np.asarray(x)[:, 0].copy())


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
    """phi(x) from an expression in x alone: ``t`` is a ParseError."""

    src: str
    d: int
    ast: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ast",
                           parse_expression(self.src, self.d, time=False))

    def __call__(self, x):
        return np.atleast_1d(eval_expression(self.ast, 0.0, np.atleast_2d(x)))

    def fold(self, x, lead):
        return _folded(self, "ast", fold_expression(self.ast, 0.0, x, lead))


# --------------------------------------------------------------------------
# Model bundle components
# --------------------------------------------------------------------------


# The floats a grown batch of trees may store, d + 4 a particle (its
# displacement, tree, weight, death time and kind): 500 MB.  Burgers-cosine
# at d = 1050, whose terminal folds, runs one 25k-tree batch (6.2e7 floats)
# for u or du/dx_1 within a 1.5 GiB address space.
MAX_BATCH_FLOATS = 62_500_000


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """f(t,x,y,z) = sum_l c_l(t,x) y^(l_0) prod_i z_i^(l_i) over l in L_m.

    The multi-indices share one length, m + 1, which is how m is read."""

    indices: tuple          # tuple of multi-indices, each of length m + 1
    coeffs: tuple           # coefficient callables, aligned with indices
    coeff_sup: tuple        # sup-norm bound per coefficient

    def __post_init__(self):
        if not self.indices:
            raise DomainError("L_m must be non-empty")
        n = len(self.indices[0])
        for l in self.indices:
            if len(l) != n or any(v < 0 for v in l):
                raise DomainError(f"multi-index {l} must have {n} "
                                  "non-negative entries")
        # the child marks of every category are laid out in one array
        if sum(map(sum, self.indices)) > MAX_BATCH_FLOATS:
            raise DomainError(f"the multi-indices sum to more than "
                              f"{MAX_BATCH_FLOATS} children")
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
        if self.d < 1 or not 0 <= self.m <= self.d:
            raise DomainError("require d >= 1 and 0 <= m <= d, got "
                              f"d={self.d}, m={self.m}")
        # the terminal and coefficients that carry a dimension must share it
        for part in (self.terminal.phi,) + tuple(self.nonlinearity.coeffs):
            if getattr(part, "d", self.d) != self.d:
                raise DomainError(f"{type(part).__name__} has d={part.d}, "
                                  f"but the model has d={self.d}")
        if not 0.0 < self.alpha <= 2.0:
            raise AdmissibilityError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not 0.0 < self.kappa < np.inf:
            raise AdmissibilityError(
                f"kappa must be positive and finite, got {self.kappa}")
        if len(self.branching.probs) != len(self.nonlinearity.indices):
            raise DomainError("branching law must align with L_m")

    @property
    def m(self) -> int:
        return len(self.nonlinearity.indices[0]) - 1


def audit_coeff_sup(model: PdeModel, T: float = 1.0) -> tuple:
    """Sample |c_l(t,x)| at 10,000 seeded points of [0,T] x [-2,2]^d: a note
    naming the multi-index l and the largest sampled |c_l| for each
    declared bound the samples exceed, so () when every bound holds."""
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, T, 10_000)
    x = rng.uniform(-2.0, 2.0, (10_000, model.d))
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
    the whole (t, x) grid, folded at the zero coordinates that follow the
    last nonzero one of ``direction``.
    """
    r2 = np.concatenate([np.linspace(0.0, 0.999, 400),
                         1.0 + np.geomspace(1e-4, 24.0, 400)])
    lead = int(np.flatnonzero(direction)[-1]) + 1
    x = (np.sqrt(np.maximum(r2, 1e-30))[:, None]
         / np.sqrt(radial_args(direction)[0]) * direction[:lead])
    times = np.linspace(0.0, T, 41)[:, None]
    folded = coeff.fold(times, np.zeros((1, direction.size - lead)), lead)
    return float(np.max(np.abs(folded(times, x))))


def _bump_terminal(k: int, alpha: float, T: float) -> TerminalCondition:
    scale = float(np.exp(-T))
    exponent = k + alpha / 2.0
    lip = 2.0 * exponent * scale if exponent >= 1.0 else None
    return TerminalCondition(phi=ScaledBump(k=k, alpha=alpha, scale=scale),
                             sup_norm=scale, lipschitz=lip)


# Entries of a catalog model's multi-indices, categories x (m + 1), built
# as tuples of ints: 5e6 of them is burgers at d = 2235, a ~40 MB build.
MAX_CATALOG_ENTRIES = 5_000_000


def _gradient_indices(d: int, categories: int) -> tuple:
    """(1, e_i) for i = 1..d: u times du/dx_i, the gradient terms of gradd
    and burgers, in a model of ``categories`` multi-indices; refused when
    the model's entries exceed MAX_CATALOG_ENTRIES."""
    if categories * (d + 1) > MAX_CATALOG_ENTRIES:
        raise AdmissibilityError(
            f"d={d} gives {categories} multi-indices of {d + 1} entries, "
            f"more than {MAX_CATALOG_ENTRIES}")
    return tuple((1,) + tuple(int(j == i) for j in range(d))
                 for i in range(d))


def builtin_model(name: str, d: int = 1, alpha: float = 1.5, k: int = 0,
                  kappa: float = 1.0, c: float = 1.0, T: float = 1.0,
                  delta: float = 0.5) -> PdeModel:
    """Benchmark catalog: nld, gradd, burgers-halfspace, burgers-cosine,
    linear-test.

    A finite ``T`` fixes the terminal condition of the manufactured solutions
    (phi = e^(-T) Phi_(k,alpha)), which solve the equation at kappa = 1
    only, so nld and gradd refuse any other ``kappa``; ``c`` is the rate of
    linear-test; ``delta`` the gamma lifetime shape.
    """
    if d < 1:
        raise AdmissibilityError(f"dimension must be positive, got {d}")
    if not np.isfinite(T):
        raise AdmissibilityError(f"T must be finite, got {T}")
    if name in ("nld", "gradd") and kappa != 1.0:
        raise AdmissibilityError(f"{name} requires kappa = 1, got {kappa}")
    # a bad delta is refused before an unknown name or a bad alpha
    lifetime = LifetimeDensity(delta=delta)

    if name == "nld":
        if not 0.0 < alpha < 2.0:
            raise AdmissibilityError("nld requires alpha in (0, 2)")
        indices = ((0,), (1,), (4,))
        coeffs = (NldSource(k=k, alpha=alpha, d=d),
                  ConstantCoefficient(1.0), ConstantCoefficient(1.0))
        # |c_0| is radial
        sups = (_radial_sup(coeffs[0], np.eye(1, d)[0], T), 1.0, 1.0)
        terminal = _bump_terminal(k, alpha, T)
    elif name == "gradd":
        if not 1.0 < alpha < 2.0:
            raise AdmissibilityError("gradient-bearing models require alpha in (1, 2)")
        indices = (((0,) * (d + 1), (1,) + (0,) * d)
                   + _gradient_indices(d, d + 2))
        coeffs = ((GraddSource(k=k, alpha=alpha, d=d),)
                  + (ConstantCoefficient(1.0),) * (d + 1))
        # the worst direction for sum_j x_j is the diagonal
        sups = (_radial_sup(coeffs[0], np.ones(d), T),) + (1.0,) * (d + 1)
        terminal = _bump_terminal(k, alpha, T)
    elif name in ("burgers-halfspace", "burgers-cosine"):
        if not 1.0 < alpha <= 2.0:
            raise AdmissibilityError("gradient-bearing models require alpha in (1, 2]")
        # du/dt + kappa Delta_alpha u - u sum_j du/dx_j = 0 rearranged into the
        # canonical form gives the convection term coefficient -1
        indices = _gradient_indices(d, d)
        coeffs, sups = (ConstantCoefficient(-1.0),) * d, (1.0,) * d
        if name == "burgers-halfspace":
            terminal = TerminalCondition(phi=HalfspaceIndicator(), sup_norm=1.0,
                                         lipschitz=None)
        else:
            terminal = TerminalCondition(phi=CosineProduct(d=d), sup_norm=1.0,
                                         lipschitz=float(np.sqrt(d)))
    elif name == "linear-test":
        indices = ((1,),)
        coeffs, sups = (ConstantCoefficient(c),), (abs(c),)
        terminal = TerminalCondition(phi=ConstantTerminal(1.0), sup_norm=1.0,
                                     lipschitz=0.0)
    else:
        raise UnknownModelError(name)
    nonlin = PolynomialNonlinearity(indices=indices, coeffs=coeffs,
                                    coeff_sup=sups)
    return PdeModel(name=name, d=d, alpha=alpha, kappa=float(kappa),
                    nonlinearity=nonlin, terminal=terminal,
                    branching=uniform_branching(len(indices)),
                    lifetime=lifetime)
