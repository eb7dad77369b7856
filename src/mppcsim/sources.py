"""Analytic photon-number distributions for the light sources of interest.

Coherent (Poissonian), even-only squeezed-vacuum-like, thermal (geometric),
multimode twin beams (negative binomial over the shared pair number) and
Fock states. All constructors truncate where the residual tail mass drops
below ``TAIL_TARGET`` and carry that residual explicitly, so downstream
sums over photon number are finite with a quantified error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import UndefinedStatisticError

TAIL_TARGET = 1e-12
_NORM_TOL = 1e-12

SOURCE_KINDS = (
    "coherent",
    "even_poisson",
    "fock",
    "thermal",
    "twin_thermal",
    "twin_multimode",
)

# kinds whose draws describe the pair number shared by signal and idler arms
TWIN_KINDS = ("twin_thermal", "twin_multimode")


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Truncated probability vector over photon number k = 0..k_max.

    ``tail_bound`` is the mass beyond k_max; ``mean_hint`` the analytic
    mean when the constructor knows it.
    """

    probs: np.ndarray
    tail_bound: float = 0.0
    mean_hint: float = float("nan")

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("probs must be a vector covering k_max >= 1")
        if np.any(probs < -1e-15) or np.any(probs > 1 + 1e-15):
            raise ValueError("probabilities must lie in [0, 1]")
        probs = np.clip(probs, 0.0, 1.0)
        object.__setattr__(self, "probs", probs)
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be non-negative")
        total = probs.sum() + self.tail_bound
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"distribution not normalized: mass {total!r}")

    @property
    def k_max(self) -> int:
        return self.probs.size - 1

    def moment(self, order: int) -> float:
        k = np.arange(self.probs.size, dtype=float)
        return float(np.sum(k**order * self.probs))

    @property
    def mean(self) -> float:
        return self.moment(1)


@dataclass(frozen=True)
class SourceSpec:
    """Declarative description of a light source.

    For ``even_poisson`` the ``mean`` field is the Poisson weight parameter
    (the physical mean photon number is ``mean * tanh(mean)``). For twin
    kinds it is the mean of the pair number shared by the two arms, and
    ``modes`` counts the thermal modes the pairs are spread over.
    """

    kind: str
    mean: float = 0.0
    modes: float = 1.0
    fock_n: int = 0

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.mean < 0:
            raise ValueError("mean must be non-negative")
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.fock_n < 0 or int(self.fock_n) != self.fock_n:
            raise ValueError("fock_n must be a non-negative integer")

    @property
    def is_twin(self) -> bool:
        return self.kind in TWIN_KINDS

    def distribution(self, k_max: int | None = None) -> PhotonNumberDistribution:
        if self.kind == "coherent":
            return pmf_coherent(self.mean, k_max)
        if self.kind == "even_poisson":
            return pmf_even_poisson(self.mean, k_max)
        if self.kind == "fock":
            return pmf_fock(int(self.fock_n), k_max)
        if self.kind in ("thermal", "twin_thermal"):
            return pmf_thermal(self.mean, k_max)
        return pmf_twin_multimode(self.mean, self.modes, k_max)


def _extend_until(tail_of, k_request: int | None, k_floor: int) -> int:
    """Smallest cutoff >= the caller's request with tail mass below target."""
    k = max(k_request or 0, k_floor, 1)
    while tail_of(k) >= TAIL_TARGET:
        k = 2 * k + 16
        if k > 5_000_000:
            raise ValueError("truncation point diverged; mean too large?")
    return k


def _finalize(probs: np.ndarray, mean_hint: float) -> PhotonNumberDistribution:
    if probs.size < 2:
        probs = np.concatenate([probs, np.zeros(2 - probs.size)])
    tail = max(0.0, 1.0 - float(probs.sum()))
    return PhotonNumberDistribution(probs, tail, mean_hint)


def pmf_coherent(mean: float, k_max: int | None = None) -> PhotonNumberDistribution:
    """Poisson photon-number distribution of a coherent state."""
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0:
        return _finalize(np.array([1.0, 0.0]), 0.0)
    floor = int(mean + 12 * math.sqrt(mean) + 25)
    k = _extend_until(lambda n: stats.poisson.sf(n, mean), k_max, floor)
    probs = stats.poisson.pmf(np.arange(k + 1), mean)
    return _finalize(probs, mean)


def pmf_even_poisson(mean: float, k_max: int | None = None) -> PhotonNumberDistribution:
    """Poisson weights restricted to even photon numbers, renormalized.

    The even-k Poisson mass is (1 + exp(-2*mean))/2, which is the
    normalizer; odd bins are exactly zero. Models single-mode squeezed
    vacuum at the photon-number level.
    """
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0:
        return _finalize(np.array([1.0, 0.0]), 0.0)
    z = (1.0 + math.exp(-2.0 * mean)) / 2.0
    floor = int(mean + 12 * math.sqrt(mean) + 25)
    k = _extend_until(lambda n: stats.poisson.sf(n, mean) / z, k_max, floor)
    ks = np.arange(k + 1)
    probs = np.where(ks % 2 == 0, stats.poisson.pmf(ks, mean) / z, 0.0)
    return _finalize(probs, mean * math.tanh(mean))


def _pmf_negbin(mean: float, r: float, k_max: int | None) -> PhotonNumberDistribution:
    if mean == 0:
        return _finalize(np.array([1.0, 0.0]), 0.0)
    per_mode = mean / r
    pr = 1.0 / (1.0 + per_mode)
    sd = math.sqrt(mean * (1.0 + per_mode))
    floor = int(mean + 12 * sd + 25)
    k = _extend_until(lambda n: stats.nbinom.sf(n, r, pr), k_max, floor)
    probs = stats.nbinom.pmf(np.arange(k + 1), r, pr)
    return _finalize(probs, mean)


def pmf_thermal(mean: float, k_max: int | None = None) -> PhotonNumberDistribution:
    """Single-mode thermal (geometric) distribution: P(n) = m^n/(1+m)^(n+1)."""
    if mean < 0:
        raise ValueError("mean must be non-negative")
    return _pmf_negbin(mean, 1.0, k_max)


def pmf_twin_multimode(
    mean: float, modes: float, k_max: int | None = None
) -> PhotonNumberDistribution:
    """Pair-number distribution of a multimode twin beam.

    The total over ``modes`` thermal modes of mean ``mean/modes`` each,
    i.e. negative binomial; modes=1 reduces exactly to the thermal case,
    modes -> infinity approaches Poisson.
    """
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if modes < 1:
        raise ValueError("modes must be >= 1")
    return _pmf_negbin(mean, float(modes), k_max)


def pmf_fock(n: int, k_max: int | None = None) -> PhotonNumberDistribution:
    """Deterministic n-photon state."""
    if n < 0:
        raise ValueError("n must be non-negative")
    size = max(n + 1, (k_max or 0) + 1, 2)
    probs = np.zeros(size)
    probs[n] = 1.0
    return PhotonNumberDistribution(probs, 0.0, float(n))


def true_g2_of_dist(dist: PhotonNumberDistribution) -> float:
    """Zero-delay second-order correlation <k(k-1)>/<k>^2 by direct summation."""
    k = np.arange(dist.probs.size, dtype=float)
    m1 = float(np.sum(k * dist.probs))
    if m1 <= 0:
        raise UndefinedStatisticError("g2 undefined for zero-mean distribution")
    fac2 = float(np.sum(k * (k - 1) * dist.probs))
    return fac2 / m1**2
