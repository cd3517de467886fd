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
from functools import lru_cache

import numpy as np
from scipy import special as _sps

from .errors import AccuracyError, DomainError


def gamma_fn(p: float) -> float:
    """Gamma function for p > 0; DomainError where it overflows (p > 171.6)."""
    if not math.isfinite(p) or p <= 0.0:
        raise DomainError(f"gamma_fn requires finite p > 0, got {p}")
    try:
        return math.gamma(p)
    except OverflowError:
        raise DomainError(f"gamma_fn({p}) overflows the float range") from None


def gamma_reflected(p: float) -> float:
    """Signed gamma for negative non-integer p, via the reflection formula.

    Needed for the Gamma(-a/2) factor of the exterior branch; callers wanting
    the absolute value take abs() themselves.  DomainError where Gamma(p) or
    Gamma(1 - p) overflows.
    """
    if not math.isfinite(p):
        raise DomainError(f"gamma_reflected requires finite p, got {p}")
    if p > 0.0:
        return gamma_fn(p)
    if p == math.floor(p):
        raise DomainError(f"gamma undefined at non-positive integer {p}")
    return math.pi / (math.sin(math.pi * p) * gamma_fn(1.0 - p))


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
            value = (gamma_reflected(c) * gamma_fn(s)
                     / (gamma_reflected(c - a) * gamma_reflected(c - b)))
            if not math.isfinite(value):
                raise DomainError(f"hyp2f1({a}, {b}, {c}, 1): a product of "
                                  "Gamma values overflows")
            return value
        if not -1.0 <= z < 1.0:
            raise DomainError(f"hyp2f1: z must lie in [-1, 1], got {z}")
    return float(_hyp2f1_vec(a, b, c, np.array([z]))[0])


def radial_args(x, r2=0.0, s=0.0):
    """|x|^2 and sum_j x_j of points x (..., d), each summed from the last
    coordinate to the first, continued from ``r2`` and ``s``: the sums over
    later coordinates, which broadcast against x's rows.

    This is the one place that sums them: the radial models (ScaledBump,
    NldSource, GraddSource) and their folds, ``phi_bump``, ``psi_getoor``
    and the expression language's norm2(), phi_bump and psi_getoor all read
    |x|^2 from here, so an inline copy of a catalog model gives its bits,
    and ``radial_args(x[..., :k], *radial_args(x[..., k:]))`` is
    ``radial_args(x)``, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if not x.shape[-1]:    # adding 0.0 keeps any sum from here (never -0.0)
        x = np.zeros(x.shape[:-1] + (1,))
    for j in range(x.shape[-1] - 1, -1, -1):
        y = x[..., j]
        s = s + y
        y = y * y
        y += r2
        r2 = y
    return r2, s


def phi_bump(k: int, alpha: float, x) -> float:
    """Compactly supported bump (1 - |x|^2)_+^(k + a/2).

    x may be a single point (d,) or a batch (n, d); returns scalar or (n,).
    """
    r2, _ = radial_args(np.atleast_1d(x))
    val = bump_r2(k, alpha, r2)
    return float(val) if np.ndim(val) == 0 else val


def bump_r2(k: int, alpha: float, r2) -> np.ndarray:
    """The bump (1 - r2)_+^(k + a/2) at squared radii r2 (any shape)."""
    _check_k_alpha(k, alpha, upper=2.0)
    return _positive_power(1.0 - np.asarray(r2, dtype=float), k + alpha / 2.0)


def _positive_power(v, p: float) -> np.ndarray:
    """(v)_+^p for p > 0, computed in place: a C-contiguous float array v is
    overwritten and returned.  Only the entries v > 0 are raised; the others
    become max(v, 0), that is 0 (or NaN), as 0**p (or NaN**p) would give."""
    out = np.array(v, dtype=float, copy=None, order="C")
    flat = out.reshape(-1)
    raised = np.flatnonzero(flat > 0.0)
    values = flat[raised]
    np.maximum(flat, 0.0, out=flat)
    values **= p
    flat[raised] = values
    return out


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
    if alpha >= 2.0:
        raise DomainError(f"psi_getoor requires alpha in (0, 2), got {alpha}")
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if xa.shape != (d,):
        raise DomainError(f"point has shape {xa.shape}, expected ({d},)")
    if not np.all(np.isfinite(xa)):
        raise DomainError(f"psi_getoor requires a finite point, got {xa}")
    r2, _ = radial_args(xa)
    return float(psi_getoor_batch(k, alpha, d, np.atleast_1d(r2))[0])


# ---------------------------------------------------------------------------
# The vectorised 2F1 core.  A terminating series is summed term by term; near
# z = 1 the 1 - z connection formula replaces the direct series, which would
# need O(1/(1 - z)) terms.
# ---------------------------------------------------------------------------

_NEAR_ONE = 0.9     # the connection formula takes over above this z


def _series_2f1_vec(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Sums each element until a checked term is below 1e-12 times its
    running total, for at most 100,000 terms.  Convergence is checked every
    8 terms and a converged element leaves the working set at once, so its
    value depends on its own z only, never on the other elements sharing
    the call."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    flat = out.reshape(-1)
    todo = np.arange(flat.size)
    zt = z.reshape(-1)
    term = np.ones_like(zt)
    total = np.ones_like(zt)
    for n in range(100_000):
        if not todo.size:
            return out
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * zt
        total += term
        if n % 8 == 7:
            done = np.abs(term) <= 1e-12 * np.maximum(np.abs(total), 1e-300)
            if np.any(done):
                flat[todo[done]] = total[done]
                going = ~done
                todo, zt, term, total = (todo[going], zt[going], term[going],
                                         total[going])
    raise AccuracyError(
        "2F1 series did not converge within 100000 terms "
        f"(a={a}, b={b}, c={c}; last term {np.max(np.abs(term)):.3g})")


def _hyp2f1_near_one_vec(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """2F1 at z close to 1 via the connection formula in w = 1 - z.

    Requires c - a - b non-integer and no Gamma pole among c - a, c - b, a
    and b; the exterior branch of Psi has c - a - b = k - alpha/2 with alpha
    in (0, 2).  DomainError where one of its Gamma values, or a product of
    them, overflows.
    """
    w = 1.0 - z
    s = c - a - b
    g = math.gamma
    try:
        coef1 = g(c) * g(s) / (g(c - a) * g(c - b))
        coef2 = g(c) * gamma_reflected(-s) / (g(a) * g(b))
        finite = math.isfinite(coef1) and math.isfinite(coef2)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"hyp2f1({a}, {b}, {c}, z): a Gamma value of the "
                          "connection formula, or a product of them, "
                          "overflows")
    f1 = _series_2f1_vec(a, b, 1.0 - s, w)
    f2 = _series_2f1_vec(c - a, c - b, 1.0 + s, w)
    return coef1 * f1 + coef2 * w ** s * f2


def _hyp2f1_vec(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; z) at every element of z, c not a non-positive integer.

    Terminating (a or b a non-positive integer): the finite sum, for any z.
    Otherwise z must lie in [-1, 1): below 0 the Pfaff transformation
    2F1(a, b; c; z) = (1 - z)^(-a) 2F1(a, c - b; c; z / (z - 1)) maps z into
    (0, 1/2], where the series converges geometrically; above z = 0.9 the
    connection formula when c - a - b is not an integer and neither c - a
    nor c - b is a non-positive integer; the direct series everywhere else.
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
    neg = z < 0.0
    near = (z > _NEAR_ONE) & connect
    series = ~(neg | near)
    out = np.empty_like(z)
    if np.any(neg):
        zn = z[neg]
        out[neg] = (1.0 - zn) ** (-a) * _hyp2f1_vec(a, c - b, c, zn / (zn - 1.0))
    if np.any(near):
        out[near] = _hyp2f1_near_one_vec(a, b, c, z[near])
    if np.any(series):
        out[series] = _series_2f1_vec(a, b, c, z[series])
    return out


# ---------------------------------------------------------------------------
# Psi's exterior 2F1 on z in (0, _NEAR_ONE]: a piecewise Chebyshev table,
# fitted to the core once per (k, alpha, d), replaces the direct series,
# which needs hundreds of terms per element near z = 0.9.
# ---------------------------------------------------------------------------

_PSI_BREAKS = (0.0, 0.45, 0.7, 0.82, _NEAR_ONE)
_PSI_DEGREE = 24
_TABLE_RTOL = 1e-10


def _chebyshev_table(f, breaks, degree: int) -> np.ndarray:
    """Chebyshev coefficients, (pieces, degree + 1), of the interpolants of
    ``f`` at the first-kind nodes of each piece [breaks[p], breaks[p + 1]].

    ``f`` must be positive on the pieces.  Raises AccuracyError when the
    table, at the piece edges and midway between its nodes, strays more than
    _TABLE_RTOL relative from ``f``.
    """
    breaks = np.asarray(breaks, dtype=float)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    n = degree + 1
    angles = np.pi * (np.arange(n) + 0.5) / n
    values = f(lo + (hi - lo) * (np.cos(angles) + 1.0) / 2.0)
    # a sum, not a matrix product, which would start the BLAS library
    coefs = np.sum(values[:, None, :] * np.cos(np.outer(np.arange(n), angles)),
                   axis=-1) * (2.0 / n)
    coefs[:, 0] /= 2.0
    # the second-kind points: every piece edge and every midway angle
    check = (lo + (hi - lo) * (np.cos(np.pi * np.arange(n + 1) / n) + 1.0)
             / 2.0).ravel()
    want = f(check)
    err = float(np.max(np.abs(_chebyshev_eval(breaks, coefs, check) - want)
                       / want))
    if not err <= _TABLE_RTOL:
        raise AccuracyError(
            f"Chebyshev table of degree {degree} on pieces {breaks.tolist()} "
            f"is off by {err:.3g} relative")
    return coefs


def _chebyshev_eval(breaks, coefs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The table at each z in [breaks[0], breaks[-1]] (1-d): the piece by
    ``searchsorted``, then one Clenshaw recurrence per piece."""
    piece = np.searchsorted(breaks[1:-1], z)
    out = np.empty_like(z)
    for p, c in enumerate(coefs):
        sel = np.flatnonzero(piece == p)
        if not sel.size:
            continue
        lo, hi = breaks[p], breaks[p + 1]
        x = z[sel] * (2.0 / (hi - lo)) - (hi + lo) / (hi - lo)
        x2 = 2.0 * x
        b1, b2, tmp = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
        for cj in c[:0:-1].tolist():
            np.multiply(x2, b1, out=tmp)
            tmp -= b2
            tmp += cj
            b1, b2, tmp = tmp, b1, b2
        x *= b1
        x -= b2
        x += c[0]
        out[sel] = x
    return out


def _psi_exterior_params(k: int, alpha: float, d: int):
    """(a, b, c) of Psi's exterior 2F1(a, b; c; 1/|x|^2)."""
    a = (d + alpha) / 2.0
    return a, (2.0 + alpha) / 2.0, k + 1.0 + a


@lru_cache(maxsize=32)
def _psi_exterior_table(k: int, alpha: float, d: int) -> np.ndarray:
    """The Chebyshev table of Psi's exterior 2F1 on _PSI_BREAKS."""
    a, b, c = _psi_exterior_params(k, alpha, d)
    return _chebyshev_table(lambda z: _hyp2f1_vec(a, b, c, z), _PSI_BREAKS,
                            _PSI_DEGREE)


def psi_getoor_batch(k: int, alpha: float, d: int, r2: np.ndarray) -> np.ndarray:
    """Vectorized psi_getoor over squared radii r2 = |x|^2 (any shape).

    Interior (|x| <= 1) the 2F1 terminates after k + 1 terms.  The exterior
    branch keeps the signed Gamma(-a/2) factor; its 2F1 at z = 1/|x|^2 comes
    from the (k, alpha, d) Chebyshev table up to z = 0.9 and from the
    connection formula above.
    """
    _check_k_alpha(k, alpha, upper=2.0)
    r2 = np.asarray(r2, dtype=float)
    out = np.empty_like(r2)
    a, b, c = _psi_exterior_params(k, alpha, d)
    inside = r2 <= 1.0
    if np.any(inside):
        out[inside] = (_psi_interior_coef(k, alpha, d)
                       * _hyp2f1_vec(a, -k, d / 2.0, r2[inside]))
    outside = ~inside
    if np.any(outside):
        ro = r2[outside]
        coef = _psi_exterior_coef(k, alpha, d)
        z = 1.0 / ro
        f = np.empty_like(z)
        near = z > _NEAR_ONE
        if np.any(near):
            f[near] = _hyp2f1_near_one_vec(a, b, c, z[near])
        table = ~near
        if np.any(table):
            f[table] = _chebyshev_eval(_PSI_BREAKS,
                                       _psi_exterior_table(k, alpha, d),
                                       z[table])
        out[outside] = coef * ro ** (-a) * f
    return out
