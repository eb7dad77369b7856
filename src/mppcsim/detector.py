"""Analytic model of a saturating multipixel photon counter.

The channel from incident photon number k to recorded photocount N is a
chain of Bayesian kernels: binomial detection loss (efficiency eta), an
optional Poisson admixture of dark avalanches, crosstalk, and a hard clamp
at the saturation level n_max. The chain is written only here; the Monte
Carlo of :mod:`mppcsim.montecarlo` draws from it. Of its two crosstalk
laws, ``binomial`` lets every avalanche trigger at most one neighbour
(a avalanches record a + Binom(a, p) counts), and ``cascade`` lets every
triggered neighbour trigger further ones until extinction, geometric
branching (a + NegBin(a, 1 - p) counts; Vinogradov, NIM A 695 (2012) 247).
The response matrix Q(N|k) is column-stochastic by construction; the
saturation row is the completeness complement of all rows below it.
Because crosstalk only ever adds counts, rows N >= n_max are never built:
an avalanche number at or above n_max can only end in the saturation row,
so it is never evaluated.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special, stats

from .errors import UndefinedStatisticError
from .estimators import _nrf
from .sources import PhotonNumberDistribution, _checked_probs, pmf_coherent

_COMPLETENESS_TOL = 1e-10

CROSSTALK_MODES = ("binomial", "cascade")


@dataclass(frozen=True)
class DetectorParams:
    """Detector knobs: efficiency, crosstalk, saturation, dark rate.

    eta folds all optical losses into the per-photon detection
    probability; p_xt is the per-avalanche crosstalk probability;
    n_max the largest resolvable photocount; dark_mean the mean number
    of dark avalanches per gate; pixel_count is metadata.
    """

    eta: float
    p_xt: float = 0.0
    n_max: int = 400
    dark_mean: float = 0.0
    pixel_count: int = 400

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0.0 <= self.p_xt < 1.0:
            raise ValueError("p_xt must lie in [0, 1)")
        if self.n_max < 1 or int(self.n_max) != self.n_max:
            raise ValueError("n_max must be an integer >= 1")
        if self.dark_mean < 0:
            raise ValueError("dark_mean must be non-negative")
        if self.pixel_count < 1:
            raise ValueError("pixel_count must be >= 1")
        if self.n_max > self.pixel_count:
            raise ValueError("n_max cannot exceed pixel_count")


@dataclass(frozen=True)
class PovmMatrix:
    """Response probabilities q[N, k] of recording N photocounts from k photons."""

    q: np.ndarray
    params: DetectorParams
    k_max: int

    def __post_init__(self):
        q = _checked_probs(self.q, "response entries")
        object.__setattr__(self, "q", q)
        if q.shape != (self.params.n_max + 1, self.k_max + 1):
            raise ValueError("response matrix shape mismatch")
        colsums = q.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > _COMPLETENESS_TOL):
            raise ValueError("response matrix columns must sum to 1")


@dataclass(frozen=True)
class JointPhotocountDistribution:
    """Joint probability table over (N_signal, N_idler) photocounts."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _checked_probs(self.probs, "joint entries")
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2:
            raise ValueError("joint table must be a matrix")
        if abs(probs.sum() - 1.0) > _COMPLETENESS_TOL:
            raise ValueError("joint table must sum to 1")


def build_povm(params: DetectorParams, k_max: int) -> PovmMatrix:
    """Dark-free saturating response matrix of the detector.

    Rows N < n_max compose the crosstalk and efficiency kernels; the row
    N = n_max is the completeness complement, so every column sums to 1.
    """
    q = channel_matrix(replace(params, dark_mean=0.0), k_max)
    return PovmMatrix(q, params, k_max)


def channel_matrix(
    params: DetectorParams, k_max: int, crosstalk_mode: str = "binomial"
) -> np.ndarray:
    """Column-stochastic Q(N|k), N = 0..n_max, k = 0..k_max, including the
    dark-avalanche stage.

    Dark avalanches are injected after detection loss and participate in
    crosstalk like photon avalanches, under the law ``crosstalk_mode``;
    the saturation clamp acts last. With dark_mean = 0 and ``binomial``
    crosstalk this is exactly the matrix of ``build_povm``.

    Only the avalanche numbers a < n_max are built, since crosstalk never
    lowers a count. The cost is O(n_max^2 k_max) time and O(n_max k_max)
    memory.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    dark = pmf_coherent(params.dark_mean).probs
    a_rows = min(params.n_max, k_max + dark.size)
    a_all = np.arange(a_rows)
    qe = stats.binom.pmf(a_all[:, None], np.arange(k_max + 1)[None, :], params.eta)
    avalanches = np.zeros_like(qe)
    for d, w in enumerate(dark[:a_rows]):
        avalanches[d:, :] += w * qe[: a_rows - d, :]
    return _crosstalk_and_clamp(avalanches, params.p_xt, params.n_max, crosstalk_mode)


def _crosstalk_and_clamp(avalanches, p: float, n_max: int, mode: str) -> np.ndarray:
    """Law of the recorded count N = 0..n_max, after crosstalk under ``mode``
    and the clamp, given the law of the avalanche number a along axis 0 of
    ``avalanches`` (a vector, or one column per input).

    The rows N < n_max need only a < n_max, and under ``binomial`` only
    N <= 2a. Every other outcome, and any mass missing from
    ``avalanches``, lands in the saturation row, the complement of the rows
    below it.
    """
    if mode not in CROSSTALK_MODES:
        raise ValueError(f"crosstalk_mode must be one of {CROSSTALK_MODES}")
    a_rows = min(n_max, avalanches.shape[0])
    a = np.arange(a_rows)[None, :]
    if mode == "binomial":
        n_rows = min(n_max, 2 * a_rows - 1)
        xt = stats.binom.pmf(np.arange(n_rows)[:, None] - a, a, p)
    else:
        n_rows = n_max
        big_n = np.arange(n_rows)[:, None]
        extra = np.maximum(big_n - a, 0)
        # C(N-1, a-1) (1-p)^a p^extra in logs (log_fact[m] = log m!): a fifth
        # of the cost of stats.nbinom.pmf and within about 1e-13 of it
        log_fact = special.gammaln(np.arange(1, n_rows + 1))
        xt = np.exp(
            log_fact[np.maximum(big_n - 1, 0)] - log_fact[np.maximum(a - 1, 0)]
            - log_fact[extra] + special.xlogy(a, 1.0 - p) + special.xlogy(extra, p)
        )
        xt[(big_n < a) | (a == 0)] = 0.0
        xt[0, 0] = 1.0  # no avalanche records no count
    q = np.zeros((n_max + 1, *avalanches.shape[1:]))
    q[:n_rows] = xt @ avalanches[:a_rows]
    q[n_max] = np.maximum(1.0 - q[:n_max].sum(axis=0), 0.0)
    return q


def apply_channel(
    dist: PhotonNumberDistribution, params: DetectorParams
) -> PhotonNumberDistribution:
    """Push a photon-number distribution through the detector channel.

    Returns the photocount distribution over N = 0..n_max. The input's
    truncation residual is propagated unchanged as the output tail bound.
    """
    q = channel_matrix(params, max(dist.k_max, 1))
    out = q @ dist.probs
    if out.size < 2:
        out = np.concatenate([out, [0.0]])
    mean = float(np.arange(out.size) @ out)
    return PhotonNumberDistribution(out, max(0.0, 1.0 - float(out.sum())), mean)


def joint_photocount(
    pair_dist: PhotonNumberDistribution,
    params_s: DetectorParams,
    params_i: DetectorParams,
    crosstalk_mode: str = "binomial",
) -> JointPhotocountDistribution:
    """Joint photocount table when both arms receive the same pair number.

    The two channels act conditionally independently given the shared n,
    so P(N_s, N_i) = sum_n P(n) Q_s(N_s|n) Q_i(N_i|n).
    """
    k_max = max(pair_dist.k_max, 1)
    q_s = channel_matrix(params_s, k_max, crosstalk_mode)
    q_i = q_s if params_i == params_s else channel_matrix(params_i, k_max, crosstalk_mode)
    joint = (q_s * pair_dist.probs[None, :]) @ q_i.T
    return JointPhotocountDistribution(joint)


def joint_independent(
    dist_s: PhotonNumberDistribution,
    dist_i: PhotonNumberDistribution,
    params_s: DetectorParams,
    params_i: DetectorParams,
) -> JointPhotocountDistribution:
    """Joint photocount table for statistically independent arms (product form)."""
    out_s = apply_channel(dist_s, params_s).probs
    out_i = apply_channel(dist_i, params_i).probs
    return JointPhotocountDistribution(np.outer(out_s, out_i))


def nrf_analytic(joint: JointPhotocountDistribution) -> float:
    """Noise reduction factor Var(N_s - N_i)/<N_s + N_i> of a joint table.

    Evaluated exactly from the joint probabilities by the estimators' NRF
    statistic, taking the table as one trial with the population variance.
    """
    value, defined = _nrf(joint.probs[None], 1, ddof=0)
    if not defined[0]:
        raise UndefinedStatisticError("NRF undefined for zero total counts")
    return float(value[0])


def nrf_limit_coherent(p: float) -> float:
    """Small-intensity NRF of independent coherent arms: (1+3p)/(1+p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    return (1.0 + 3.0 * p) / (1.0 + p)


def nrf_limit_sv(p: float, eta: float) -> float:
    """Small-intensity NRF of twin beams: coherent limit minus (1+p)*eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return nrf_limit_coherent(p) - (1.0 + p) * eta
