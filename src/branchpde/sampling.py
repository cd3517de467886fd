"""Exact simulation primitives: splittable RNG streams, CMS stable sampling,
gamma lifetimes, and offspring draws.  The subordinated Gaussian move built
on the CMS sampler lives with the tree engine that runs it.

Streams are counter-based (Philox) and keyed by (master_seed, stream_id), so a
stream's sequence depends only on its key — never on scheduling or worker
count.  Every sampler draws an array of ``size`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_CMS_UNDERFLOW = 1e-300


@dataclass
class RngStream:
    """A deterministic random stream keyed by (master_seed, stream_id).

    Equal keys reproduce identical sequences; distinct stream_ids are
    statistically independent.  The stream also counts CMS underflow
    resamples so diagnostics can report them.
    """

    master_seed: int
    stream_id: int
    gen: np.random.Generator = field(init=False, repr=False)
    cms_resamples: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0 <= self.master_seed < 2 ** 64:
            raise DomainError(
                f"seed must lie in [0, 2^64), got {self.master_seed}")
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))


def sample_stable_subordinator(alpha: float, t: float, rng: RngStream, size):
    """Exact samples of S_t for the alpha/2-stable subordinator.

    Chambers-Mallows-Stuck form, with E[exp(-lam S_t)] = exp(-t (2 lam)^(alpha/2)):

        S_t = 2 t^(2/alpha) sin(a(U + pi/2)/2) / cos(U)^(2/a)
              * (cos(U - a(U + pi/2)/2) / E)^(2/a - 1)

    with U ~ Uniform(-pi/2, pi/2) and E ~ Exp(1).  alpha = 2 short-circuits to
    the deterministic S_t = 2t.  Samples underflowing to < 1e-300 are redrawn
    (counted on the stream).
    """
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    if not 0.0 < t < np.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    if alpha == 2.0:
        return np.full(size, 2.0 * t)
    a = alpha / 2.0
    out = np.empty(int(np.prod(size)))
    todo = np.arange(out.size)
    while todo.size:
        u = rng.gen.uniform(-np.pi / 2.0, np.pi / 2.0, todo.size)
        e = rng.gen.standard_exponential(todo.size)
        shifted = a * (u + np.pi / 2.0)
        s = (2.0 * t ** (1.0 / a) * np.sin(shifted)
             / np.cos(u) ** (1.0 / a)
             * (np.cos(u - shifted) / e) ** (1.0 / a - 1.0))
        out[todo] = s
        bad = ~(s >= _CMS_UNDERFLOW)
        rng.cms_resamples += int(np.count_nonzero(bad))
        todo = todo[bad]
    return out.reshape(size)


def sample_lifetime(delta: float, rng: RngStream, size):
    """Gamma(shape delta, rate 1) lifetime samples."""
    if not delta > 0.0:
        raise DomainError(f"gamma shape must be positive, got {delta}")
    return rng.gen.gamma(delta, size=size)


def sample_offspring(q, rng: RngStream, size):
    """Indices into q's category list sampled with the exact probabilities.

    ``q`` needs only a ``probs`` attribute (positive, summing to 1); the engine
    passes a BranchingLaw.
    """
    probs = np.asarray(q.probs, dtype=float)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.gen.random(size), side="right")
