"""Special functions backing the benchmark solutions and the horizon checker.

The central pair is the bump ``(1 - |x|^2)_+^(k + a/2)`` and the function it
maps to under the fractional Laplacian of order ``a``, expressed through the
Gauss hypergeometric series.  The exterior branch keeps the signed
``Gamma(-a/2)`` factor of the closed form, so it is negative for ``a`` in
(0, 2), which matches the sign of the fractional Laplacian of a bump outside
its support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

from .errors import AccuracyError, DomainError


@dataclass(frozen=True)
class EvalPolicy:
    """Truncation control for series evaluation."""

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-3):
            raise DomainError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")
        if self.max_terms < 100:
            raise DomainError(f"max_terms must be >= 100, got {self.max_terms}")


DEFAULT_POLICY = EvalPolicy()


def gamma_fn(p: float) -> float:
    """Gamma function for p > 0."""
    if not math.isfinite(p) or p <= 0.0:
        raise DomainError(f"gamma_fn requires finite p > 0, got {p}")
    return math.gamma(p)


def gamma_reflected(p: float) -> float:
    """Signed gamma for negative non-integer p, via the reflection formula.

    Needed for the Gamma(-a/2) factor of the exterior branch; callers wanting
    the absolute value take abs() themselves.
    """
    if not math.isfinite(p):
        raise DomainError(f"gamma_reflected requires finite p, got {p}")
    if p > 0.0:
        return math.gamma(p)
    if p == math.floor(p):
        raise DomainError(f"gamma undefined at non-positive integer {p}")
    return math.pi / (math.sin(math.pi * p) * math.gamma(1.0 - p))


def upper_reg_gamma(delta: float, z) -> float:
    """Regularized upper incomplete gamma Q(delta, z) = Gamma(delta, z)/Gamma(delta).

    Accepts scalar or ndarray z; this is the survival function of the
    gamma(delta, 1) lifetime density.
    """
    if not math.isfinite(delta) or delta <= 0.0:
        raise DomainError(f"upper_reg_gamma requires delta > 0, got {delta}")
    zarr = np.asarray(z, dtype=float)
    if np.any(zarr < 0.0) or not np.all(np.isfinite(zarr)):
        raise DomainError("upper_reg_gamma requires z >= 0")
    out = _sps.gammaincc(delta, zarr)
    return float(out) if np.isscalar(z) or zarr.ndim == 0 else out


def _is_nonpos_int(v: float) -> bool:
    return v <= 0.0 and v == math.floor(v)


def _series_2f1(a: float, b: float, c: float, z: float, policy: EvalPolicy) -> float:
    """Raw power series sum_(n>=0) (a)_n (b)_n / ((c)_n n!) z^n."""
    term = 1.0
    total = 1.0
    small_streak = 0
    for n in range(policy.max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        if abs(term) <= policy.rel_tol * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise AccuracyError(
        f"2F1 series did not converge within {policy.max_terms} terms "
        f"(a={a}, b={b}, c={c}, z={z})",
        partial=total,
        bound=abs(term),
    )


def _terminating_2f1(a: float, k: int, c: float, z: float) -> float:
    """Finite sum for 2F1(a, -k; c; z) with k a non-negative integer."""
    term = 1.0
    total = 1.0
    for n in range(k):
        term *= (a + n) * (-k + n) / ((c + n) * (n + 1)) * z
        total += term
    return total


def hyp2f1(a: float, b: float, c: float, z: float,
           policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real arguments, z in [-1, 1].

    Terminating cases (b a non-positive integer, or a by symmetry) are summed
    exactly.  Otherwise: direct series for |z| <= 0.9, Euler transformation
    (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) for z in (0.9, 1), and the Gauss
    summation formula at z = 1 (requires c - a - b > 0).
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("z", z)):
        if not math.isfinite(v):
            raise DomainError(f"hyp2f1: non-finite argument {name}={v}")
    if _is_nonpos_int(c):
        raise DomainError(f"hyp2f1: c must not be a non-positive integer, got c={c}")
    if _is_nonpos_int(a) and not _is_nonpos_int(b):
        a, b = b, a
    if _is_nonpos_int(b):
        return _terminating_2f1(a, int(-b), c, z)
    if z == 0.0:
        return 1.0
    if z == 1.0:
        s = c - a - b
        if s <= 0.0:
            raise DomainError(f"hyp2f1 diverges at z=1 when c-a-b <= 0 (got {s})")
        return (gamma_fn(c) * gamma_fn(s)
                / (gamma_reflected(c - a) * gamma_reflected(c - b)))
    if not -1.0 <= z < 1.0:
        raise DomainError(f"hyp2f1: z must lie in [-1, 1], got {z}")
    if z > 0.9:
        return (1.0 - z) ** (c - a - b) * _series_2f1(c - a, c - b, c, z, policy)
    return _series_2f1(a, b, c, z, policy)


def phi_bump(k: int, alpha: float, x) -> float:
    """Compactly supported bump (1 - |x|^2)_+^(k + a/2).

    x may be a single point (d,) or a batch (n, d); returns scalar or (n,).
    """
    _check_k_alpha(k, alpha, upper=2.0)
    xa = np.asarray(x, dtype=float)
    r2 = np.sum(np.atleast_1d(xa) ** 2, axis=-1)
    val = np.maximum(0.0, 1.0 - r2) ** (k + alpha / 2.0)
    return float(val) if np.ndim(val) == 0 else val


def _check_k_alpha(k, alpha, upper):
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise DomainError(f"k must be a non-negative integer, got {k}")
    if not (0.0 < alpha <= upper):
        raise DomainError(f"alpha must lie in (0, {upper}], got {alpha}")


def _psi_interior_coef(k: int, alpha: float, d: int) -> float:
    return (gamma_fn((d + alpha) / 2.0) * gamma_fn(k + 1.0 + alpha / 2.0)
            * 2.0 ** alpha / (gamma_fn(k + 1.0) * gamma_fn(d / 2.0)))


def _psi_exterior_coef(k: int, alpha: float, d: int) -> float:
    return (2.0 ** alpha * gamma_fn((d + alpha) / 2.0)
            * gamma_fn(k + 1.0 + alpha / 2.0)
            / (gamma_fn(k + 1.0 + (d + alpha) / 2.0) * gamma_reflected(-alpha / 2.0)))


def psi_getoor(k: int, alpha: float, d: int, x) -> float:
    """Negative fractional Laplacian of the bump at one point x of shape (d,).

    Validates the point and evaluates it through ``psi_getoor_batch``.
    """
    _check_k_alpha(k, alpha, upper=2.0)
    if alpha >= 2.0:
        raise DomainError(f"psi_getoor requires alpha in (0, 2), got {alpha}")
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if xa.shape[-1] != d:
        raise DomainError(f"point has dimension {xa.shape[-1]}, expected {d}")
    if not np.all(np.isfinite(xa)):
        raise DomainError(f"psi_getoor requires a finite point, got {xa}")
    return float(psi_getoor_batch(k, alpha, d, np.array([np.sum(xa ** 2)]))[0])


# ---------------------------------------------------------------------------
# Vectorized evaluation of Psi.  Interior (|x| <= 1) the series terminates
# after k+1 terms; the exterior branch keeps the signed Gamma(-a/2) factor and
# switches to the 1-z connection formula near z = 1/|x|^2 = 1, where the
# direct series would need O(1/(1-z)) terms.
# ---------------------------------------------------------------------------

def _series_2f1_vec(a: float, b: float, c: float, z: np.ndarray,
                    rel_tol: float = 1e-12, max_terms: int = 100_000) -> np.ndarray:
    term = np.ones_like(z)
    total = np.ones_like(z)
    for n in range(max_terms):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        total += term
        if np.all(np.abs(term) <= rel_tol * np.maximum(np.abs(total), 1e-300)):
            return total
    raise AccuracyError("vectorized 2F1 series did not converge",
                        partial=total, bound=float(np.max(np.abs(term))))


def _hyp2f1_near_one_vec(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """2F1 at z close to 1 via the connection formula in w = 1 - z.

    Requires c - a - b non-integer, which holds for the exterior branch
    (c - a - b = k - alpha/2 with alpha in (0, 2)).
    """
    w = 1.0 - z
    s = c - a - b
    g = math.gamma
    coef1 = g(c) * g(s) / (g(c - a) * g(c - b))
    coef2 = g(c) * gamma_reflected(-s) / (g(a) * g(b))
    f1 = _series_2f1_vec(a, b, 1.0 - s, w)
    f2 = _series_2f1_vec(c - a, c - b, 1.0 + s, w)
    return coef1 * f1 + coef2 * w ** s * f2


def psi_getoor_batch(k: int, alpha: float, d: int, r2: np.ndarray) -> np.ndarray:
    """Vectorized psi_getoor over squared radii r2 = |x|^2 (any shape)."""
    r2 = np.asarray(r2, dtype=float)
    out = np.empty_like(r2)
    inside = r2 <= 1.0
    if np.any(inside):
        a = (d + alpha) / 2.0
        c = d / 2.0
        coefs = [_psi_interior_coef(k, alpha, d)]
        term = coefs[0]
        for n in range(k):
            term *= (a + n) * (-k + n) / ((c + n) * (n + 1.0))
            coefs.append(term)
        zi = r2[inside]
        acc = np.full_like(zi, coefs[-1])
        for cf in coefs[-2::-1]:
            acc = acc * zi + cf
        out[inside] = acc
    outside = ~inside
    if np.any(outside):
        ro = r2[outside]
        z = 1.0 / ro
        a = (d + alpha) / 2.0
        b = (2.0 + alpha) / 2.0
        c = k + 1.0 + (d + alpha) / 2.0
        f = np.empty_like(z)
        near = z > 0.9
        if np.any(near):
            f[near] = _hyp2f1_near_one_vec(a, b, c, z[near])
        if np.any(~near):
            f[~near] = _series_2f1_vec(a, b, c, z[~near])
        out[outside] = (_psi_exterior_coef(k, alpha, d)
                        * ro ** (-(d + alpha) / 2.0) * f)
    return out
