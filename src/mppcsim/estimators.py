"""Statistics from measured or simulated photocount histograms.

The g2 estimator treats every pair of pixels as a coincidence circuit:
pairwise coincidences per pulse divided by the squared singles rate. Its
error propagates independent Poisson fluctuations of each bin. The
two-detector statistics of a joint histogram, the cross-g2 and the noise
reduction factor (NRF), propagate to first order (the delta method) over
the cell frequencies of a multinomial table, which carries the
correlation between cells through the shared trial count (Agresti,
*Categorical Data Analysis*). Every error depends on the counts alone,
not on the run seed in the metadata.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DarkSubtractionWarning, UndefinedStatisticError
from .histograms import CountHistogram, JointCountHistogram


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_err: float
    method: str

    def __post_init__(self):
        if self.std_err < 0:
            raise ValueError("std_err must be non-negative")


def _g2(counts: np.ndarray, trials: float):
    """g2 of one count vector and its gradient in the bin values.

    ``trials`` 1 takes ``counts`` as a probability vector.
    """
    k = np.arange(counts.size, dtype=float)
    pairs = k * (k - 1.0) / 2.0
    s = float(pairs @ counts)
    d = float(k @ counts)
    if d <= 0:
        raise UndefinedStatisticError("g2 undefined: zero mean")
    return 2.0 * trials * s / d**2, 2.0 * trials * (pairs / d**2 - 2.0 * k * s / d**3)


def g2_from_histogram(hist: CountHistogram) -> EstimateWithError:
    """Zero-delay g2 from a single-detector histogram.

    value = 2 T sum_k C(k,2) N_k / (sum_k k N_k)^2. The trial count makes
    the coincidence and singles rates per-pulse quantities, so coherent
    light gives exactly 1. The error propagates independent Poisson
    fluctuations of each bin.
    """
    value, grad = _g2(hist.counts, float(hist.trials))
    var = float(grad**2 @ np.maximum(hist.counts, 0.0))
    return EstimateWithError(value, float(np.sqrt(var)), "propagation")


def mean_counts_per_pulse(hist: CountHistogram) -> float:
    """Mean recorded photocounts per pulse, sum(k N_k)/T."""
    return float(np.arange(hist.counts.size) @ hist.counts) / hist.trials


def _sweep_point(hist: CountHistogram) -> tuple[float, float, float]:
    """One g2 sweep row of a histogram: (mean counts per pulse, g2, g2 error)."""
    est = g2_from_histogram(hist)
    return mean_counts_per_pulse(hist), est.value, est.std_err


def _propagated(joint: JointCountHistogram, value: float, grad: np.ndarray) -> EstimateWithError:
    """``value`` with its first-order error under multinomial sampling of
    the cells of ``joint``.

    ``grad`` is the statistic's gradient in the cell frequencies
    p = counts/T, so Var = (sum p g^2 - (sum p g)^2)/T.
    """
    p = np.maximum(joint.counts, 0.0) / joint.trials
    mean = float((p * grad).sum())
    var = (float((p * grad * grad).sum()) - mean * mean) / joint.trials
    return EstimateWithError(value, math.sqrt(max(var, 0.0)), "propagation")


def g2_cross_from_joint(joint: JointCountHistogram) -> EstimateWithError:
    """Two-detector correlation <N_s N_i>/(<N_s><N_i>) with propagated error."""
    mean_s, mean_i = joint.mean_counts
    if mean_s <= 0 or mean_i <= 0:
        raise UndefinedStatisticError("cross g2 undefined: zero marginal mean")
    n_s = np.arange(joint.counts.shape[0], dtype=float)
    n_i = np.arange(joint.counts.shape[1], dtype=float)
    mean_si = n_s @ joint.counts @ n_i / joint.trials
    value = float(mean_si / (mean_s * mean_i))
    u_s, u_i = n_s / mean_s, n_i / mean_i
    return _propagated(joint, value, np.outer(u_s, u_i) - value * np.add.outer(u_s, u_i))


def _nrf(table: np.ndarray, trials: int, ddof: int = 1):
    """NRF of one count table and its gradient in the cell frequencies.

    ddof 1 takes the unbiased sample variance of ``trials`` pulses; ddof 0
    the variance of a probability table (``trials`` 1).
    """
    n_s = np.arange(table.shape[0], dtype=float)
    n_i = np.arange(table.shape[1], dtype=float)
    diff = n_s[:, None] - n_i[None, :]
    tot = n_s[:, None] + n_i[None, :]
    mean_sum = (tot * table).sum() / trials
    if mean_sum <= 0:
        raise UndefinedStatisticError("NRF undefined: zero total counts")
    mean_diff = (diff * table).sum() / trials
    ss = (diff**2 * table).sum()
    var = (ss - trials * mean_diff**2) / (trials - ddof)
    value = float(var / mean_sum)
    scale = trials / (trials - ddof)
    return value, (scale * diff * (diff - 2.0 * mean_diff) - value * tot) / mean_sum


def nrf_from_joint(joint: JointCountHistogram) -> EstimateWithError:
    """Noise reduction factor Var(N_s - N_i)/<N_s + N_i> with propagated error.

    Uses the unbiased (T-1) sample variance of the count difference.
    """
    if joint.trials < 2:
        raise UndefinedStatisticError("NRF needs at least 2 trials")
    return _propagated(joint, *_nrf(joint.counts, joint.trials))


def subtract_dark(signal: CountHistogram, dark: CountHistogram) -> CountHistogram:
    """Subtract the dark-count background, bin-wise, in expectation.

    The dark histogram is rescaled to the signal's trial count and
    subtracted from every bin k >= 1, clamping at zero; bin 0 absorbs the
    remainder so the total stays at the signal's trial count. Absent
    clamping, the corrected per-pulse mean is signal mean minus dark mean.
    """
    scale = signal.trials / dark.trials
    width = max(signal.counts.size, dark.counts.size)
    sig = np.zeros(width)
    sig[: signal.counts.size] = signal.counts
    drk = np.zeros(width)
    drk[: dark.counts.size] = dark.counts
    corrected = sig[1:] - scale * drk[1:]
    clamped = np.flatnonzero(corrected < 0) + 1
    if clamped.size:
        warnings.warn(
            f"dark subtraction clamped bins {clamped.tolist()} at zero",
            DarkSubtractionWarning,
            stacklevel=2,
        )
        corrected = np.maximum(corrected, 0.0)
    counts = np.concatenate([[signal.trials - corrected.sum()], corrected])
    meta = dict(signal.meta)
    meta.update(
        dark_corrected=True,
        dark_mean_subtracted=mean_counts_per_pulse(dark),
        dark_clamped_bins=clamped.tolist(),
    )
    return CountHistogram(signal.trials, counts, meta)
