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

import numpy as np
from scipy import special as _sps

from .errors import AccuracyError, DomainError


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


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real arguments, z in [-1, 1].

    A terminating series (a or b a non-positive integer) is a polynomial and
    takes any z.  Otherwise z = 1 is the Gauss summation formula (requires
    c - a - b > 0), and every other z goes through the vectorised core.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("z", z)):
        if not math.isfinite(v):
            raise DomainError(f"hyp2f1: non-finite argument {name}={v}")
    if _is_nonpos_int(c):
        raise DomainError(f"hyp2f1: c must not be a non-positive integer, got c={c}")
    if not (_is_nonpos_int(a) or _is_nonpos_int(b)):
        if z == 0.0:
            return 1.0
        if z == 1.0:
            s = c - a - b
            if s <= 0.0:
                raise DomainError(
                    f"hyp2f1 diverges at z=1 when c-a-b <= 0 (got {s})")
            return (gamma_fn(c) * gamma_fn(s)
                    / (gamma_reflected(c - a) * gamma_reflected(c - b)))
        if not -1.0 <= z < 1.0:
            raise DomainError(f"hyp2f1: z must lie in [-1, 1], got {z}")
    return float(_hyp2f1_vec(a, b, c, np.array([z]))[0])


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
# The vectorised 2F1 core.  A terminating series is summed term by term; near
# z = 1 the 1 - z connection formula replaces the direct series, which would
# need O(1/(1 - z)) terms.
# ---------------------------------------------------------------------------

def _series_2f1_vec(a: float, b: float, c: float, z: np.ndarray,
                    rel_tol: float = 1e-12, max_terms: int = 100_000) -> np.ndarray:
    """Sums each element until a checked term is below ``rel_tol`` times its
    running total.  Convergence is checked every 8 terms and a converged
    element leaves the working set at once, so its value depends on its own
    z only, never on the other elements sharing the call."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    flat = out.reshape(-1)
    todo = np.arange(flat.size)
    zt = z.reshape(-1)
    term = np.ones_like(zt)
    total = np.ones_like(zt)
    for n in range(max_terms):
        if not todo.size:
            return out
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * zt
        total += term
        if n % 8 == 7:
            done = np.abs(term) <= rel_tol * np.maximum(np.abs(total), 1e-300)
            if np.any(done):
                flat[todo[done]] = total[done]
                going = ~done
                todo, zt, term, total = (todo[going], zt[going], term[going],
                                         total[going])
    flat[todo] = total
    raise AccuracyError(
        f"2F1 series did not converge within {max_terms} terms "
        f"(a={a}, b={b}, c={c})",
        partial=out, bound=float(np.max(np.abs(term))))


def _hyp2f1_near_one_vec(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """2F1 at z close to 1 via the connection formula in w = 1 - z.

    Requires c - a - b non-integer and no Gamma pole among c - a, c - b, a
    and b; the exterior branch of Psi has c - a - b = k - alpha/2 with alpha
    in (0, 2).
    """
    w = 1.0 - z
    s = c - a - b
    g = math.gamma
    coef1 = g(c) * g(s) / (g(c - a) * g(c - b))
    coef2 = g(c) * gamma_reflected(-s) / (g(a) * g(b))
    f1 = _series_2f1_vec(a, b, 1.0 - s, w)
    f2 = _series_2f1_vec(c - a, c - b, 1.0 + s, w)
    return coef1 * f1 + coef2 * w ** s * f2


def _hyp2f1_vec(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; z) at every element of z, c not a non-positive integer.

    Terminating (a or b a non-positive integer): the finite sum, for any z.
    Otherwise z must lie in [-1, 1): the connection formula above z = 0.9
    when c - a - b is not an integer and neither c - a nor c - b is a
    non-positive integer, the direct series everywhere else.
    """
    z = np.asarray(z, dtype=float)
    if _is_nonpos_int(a) and not _is_nonpos_int(b):
        a, b = b, a
    if _is_nonpos_int(b):
        term = np.ones_like(z)
        total = np.ones_like(z)
        for n in range(int(-b)):
            term = term * ((a + n) * (b + n) / ((c + n) * (n + 1)) * z)
            total = total + term
        return total
    s = c - a - b
    connect = not (s == round(s) or _is_nonpos_int(c - a)
                   or _is_nonpos_int(c - b))
    near = (z > 0.9) & connect
    out = np.empty_like(z)
    if np.any(near):
        out[near] = _hyp2f1_near_one_vec(a, b, c, z[near])
    if not np.all(near):
        out[~near] = _series_2f1_vec(a, b, c, z[~near])
    return out


def psi_getoor_batch(k: int, alpha: float, d: int, r2: np.ndarray) -> np.ndarray:
    """Vectorized psi_getoor over squared radii r2 = |x|^2 (any shape).

    Interior (|x| <= 1) the 2F1 terminates after k + 1 terms; the exterior
    branch keeps the signed Gamma(-a/2) factor.
    """
    r2 = np.asarray(r2, dtype=float)
    out = np.empty_like(r2)
    a = (d + alpha) / 2.0
    inside = r2 <= 1.0
    if np.any(inside):
        out[inside] = (_psi_interior_coef(k, alpha, d)
                       * _hyp2f1_vec(a, -k, d / 2.0, r2[inside]))
    outside = ~inside
    if np.any(outside):
        ro = r2[outside]
        out[outside] = (_psi_exterior_coef(k, alpha, d) * ro ** (-a)
                        * _hyp2f1_vec(a, (2.0 + alpha) / 2.0, k + 1.0 + a,
                                      1.0 / ro))
    return out
