"""Analytic photon-number distributions for the light sources of interest.

Coherent (Poissonian), even-only squeezed-vacuum-like, thermal (geometric),
multimode twin beams (negative binomial over the shared pair number) and
Fock states. All constructors truncate where the residual tail mass drops
below ``TAIL_TARGET`` and carry that residual explicitly, so downstream
sums over photon number are finite with a quantified error. Detection
loss has a closed form per kind (``SourceSpec.after_loss``); the dark
stage and everything after it live only in ``detector._count_law``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .estimators import _g2

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


def _checked_probs(probs, what: str, slack: float = 1e-12) -> np.ndarray:
    """``probs`` as a float array, checked to be finite and to lie in
    [0, 1] up to rounding (``slack`` above 1)."""
    probs = np.asarray(probs, dtype=float)
    # the comparisons are false for NaN, so NaN and inf entries fail too
    if not np.all((probs >= -1e-15) & (probs <= 1.0 + slack)):
        raise ValueError(f"{what} must be finite and lie in [0, 1]")
    return probs


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Truncated probability vector over photon number k = 0..k_max.

    ``tail_bound`` is the mass beyond k_max.
    """

    probs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        probs = _checked_probs(self.probs, "probabilities", slack=1e-15)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("probs must be a vector covering k_max >= 1")
        probs = np.clip(probs, 0.0, 1.0)
        object.__setattr__(self, "probs", probs)
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be non-negative")
        # each cell carries a few ulps of rounding, so the total drifts with the cell count
        total = probs.sum() + self.tail_bound
        if not abs(total - 1.0) <= max(_NORM_TOL, 32 * np.finfo(float).eps * probs.size):
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
        # chained comparisons are false for NaN, and the upper bound rejects inf
        if not 0.0 <= self.mean < math.inf:
            raise ValueError("mean must be finite and non-negative")
        if not 1.0 <= self.modes < math.inf:
            raise ValueError("modes must be finite and >= 1")
        if not 0 <= self.fock_n < math.inf or int(self.fock_n) != self.fock_n:
            raise ValueError("fock_n must be a non-negative integer")

    @property
    def is_twin(self) -> bool:
        return self.kind in TWIN_KINDS

    def distribution(self) -> PhotonNumberDistribution:
        if self.kind == "coherent":
            return pmf_coherent(self.mean)
        if self.kind == "even_poisson":
            return pmf_even_poisson(self.mean)
        if self.kind == "fock":
            return pmf_fock(int(self.fock_n))
        if self.kind in ("thermal", "twin_thermal"):
            return pmf_thermal(self.mean)
        return pmf_twin_multimode(self.mean, self.modes)

    def after_loss(self, eta: float) -> PhotonNumberDistribution:
        """Law after each photon survives with probability ``eta``, in closed
        form: the same kind at mean ``eta * mean``, Binomial(n, eta) for
        fock, and its own form for even_poisson."""
        if not 0.0 <= eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.kind == "even_poisson":
            return _pmf_even_after_loss(self.mean, eta)
        if self.kind == "fock":
            n = int(self.fock_n)
            return PhotonNumberDistribution(stats.binom.pmf(np.arange(max(n, 1) + 1), n, eta))
        return SourceSpec(self.kind, eta * self.mean, self.modes).distribution()


def _extend_until(tail_of, k_floor: int) -> tuple[int, float]:
    """Smallest cutoff >= ``k_floor`` on its doubling ladder with tail mass
    below target, and that tail mass."""
    k = max(k_floor, 1)
    while (tail := tail_of(k)) >= TAIL_TARGET:
        k = 2 * k + 16
        if k > 5_000_000:
            raise ValueError("truncation point diverged; mean too large?")
    return k, tail


def _truncated(mean, var, law, params, weight=lambda k: 1.0):
    """``law.pmf(k, *params()) * weight(k)`` for k = 0..k, with k grown from
    about 12 standard deviations above ``mean`` until ``law.sf(k) * weight(0)``,
    the reported tail bound, falls below target; vacuum at zero ``mean``.
    ``params`` and ``weight`` run once the mean is checked."""
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0:
        return PhotonNumberDistribution(np.array([1.0, 0.0]))
    args = params()
    floor = int(mean + 12 * math.sqrt(var) + 25)
    k, tail = _extend_until(lambda n: law.sf(n, *args) * weight(0), floor)
    probs = law.pmf(np.arange(k + 1), *args) * weight(np.arange(k + 1))
    return PhotonNumberDistribution(probs, tail)


def pmf_coherent(mean: float) -> PhotonNumberDistribution:
    """Poisson photon-number distribution of a coherent state."""
    return _truncated(mean, mean, stats.poisson, lambda: (mean,))


def pmf_even_poisson(mean: float) -> PhotonNumberDistribution:
    """Poisson weights restricted to even photon numbers, renormalized.

    The even-k Poisson mass is (1 + exp(-2*mean))/2, which is the
    normalizer; odd bins are exactly zero. Models single-mode squeezed
    vacuum at the photon-number level.
    """
    return _pmf_even_after_loss(mean, 1.0)


def _pmf_even_after_loss(mean: float, eta: float) -> PhotonNumberDistribution:
    """``pmf_even_poisson(mean)`` after binomial loss ``eta``, in closed form:
    Poisson(eta*mean)(k) * (1 + (-1)^k exp(-2*mean*(1-eta))) / (1 + exp(-2*mean))."""
    lam = eta * mean

    def weight(k):
        odd = math.exp(-2.0 * mean * (1.0 - eta))
        return (1.0 + (-1.0) ** k * odd) / (1.0 + math.exp(-2.0 * mean))

    return _truncated(lam, lam, stats.poisson, lambda: (lam,), weight)


def pmf_thermal(mean: float) -> PhotonNumberDistribution:
    """Single-mode thermal (geometric) distribution: P(n) = m^n/(1+m)^(n+1)."""
    return pmf_twin_multimode(mean, 1.0)


def pmf_twin_multimode(mean: float, modes: float) -> PhotonNumberDistribution:
    """Pair-number distribution of a multimode twin beam.

    The total over ``modes`` thermal modes of mean ``mean/modes`` each,
    i.e. negative binomial; modes=1 reduces exactly to the thermal case,
    modes -> infinity approaches Poisson.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    r = float(modes)
    return _truncated(mean, mean * (1.0 + mean / r), stats.nbinom,
                      lambda: (r, 1.0 / (1.0 + mean / r)))


def pmf_fock(n: int) -> PhotonNumberDistribution:
    """Deterministic n-photon state."""
    if n < 0:
        raise ValueError("n must be non-negative")
    probs = np.zeros(max(n + 1, 2))
    probs[n] = 1.0
    return PhotonNumberDistribution(probs)


def true_g2_of_dist(dist: PhotonNumberDistribution) -> float:
    """Zero-delay second-order correlation <k(k-1)>/<k>^2 by direct summation."""
    return _g2(dist.probs, 1)[0]
