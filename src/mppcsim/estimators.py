"""Statistics from measured or simulated photocount histograms.

The g2 estimator treats every pair of pixels as a coincidence circuit:
pairwise coincidences per pulse divided by the squared singles rate.
Uncertainties come from first-order propagation with Poisson bin
variances; the joint-histogram statistics (cross-g2, noise reduction
factor) use a deterministic multinomial bootstrap instead, since their
bins are correlated through the shared trial count.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DarkSubtractionWarning, UndefinedStatisticError
from .histograms import CountHistogram, JointCountHistogram

N_BOOTSTRAP = 200


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_err: float
    method: str

    def __post_init__(self):
        if self.std_err < 0:
            raise ValueError("std_err must be non-negative")


def _seed_from_meta(meta) -> int:
    try:
        return int(meta.get("seed", 0))
    except (TypeError, ValueError):
        return 0


def g2_from_histogram(hist: CountHistogram) -> EstimateWithError:
    """Zero-delay g2 from a single-detector histogram.

    value = 2 T sum_k C(k,2) N_k / (sum_k k N_k)^2. The trial count makes
    the coincidence and singles rates per-pulse quantities, so coherent
    light gives exactly 1. The error propagates independent Poisson
    fluctuations of each bin.
    """
    counts = hist.counts
    t = float(hist.trials)
    k = np.arange(counts.size, dtype=float)
    pairs = k * (k - 1.0) / 2.0
    s = float(pairs @ counts)
    d = float(k @ counts)
    if d <= 0:
        raise UndefinedStatisticError("g2 undefined: no recorded counts")
    value = 2.0 * t * s / d**2
    grad = 2.0 * t * (pairs / d**2 - 2.0 * k * s / d**3)
    var = float(grad**2 @ np.maximum(counts, 0.0))
    return EstimateWithError(value, float(np.sqrt(var)), "propagation")


def mean_counts_per_pulse(hist: CountHistogram) -> float:
    """Mean recorded photocounts per pulse, sum(k N_k)/T."""
    return hist.total_counts / hist.trials


def _sweep_point(hist: CountHistogram) -> tuple[float, float, float]:
    """One g2 sweep row of a histogram: (mean counts per pulse, g2, g2 error)."""
    est = g2_from_histogram(hist)
    return mean_counts_per_pulse(hist), est.value, est.std_err


def _bootstrap(joint: JointCountHistogram, stat, n_boot: int, seed, undefined: str):
    """Point value and multinomial-bootstrap error of ``stat``.

    ``stat(tables, trials)`` takes a stack of count tables of shape
    (n, N_s, N_i) and returns each table's value and whether it is defined;
    undefined replicates are dropped. A ``seed`` of None means the run seed
    in ``joint.meta``.
    """
    value, defined = stat(joint.counts[None], joint.trials)
    if not defined[0]:
        raise UndefinedStatisticError(undefined)
    flat = joint.counts.ravel()
    p = flat / flat.sum()
    if seed is None:
        seed = _seed_from_meta(joint.meta)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws = rng.multinomial(joint.trials, p, size=n_boot).astype(float)
    reps, defined = stat(draws.reshape(n_boot, *joint.counts.shape), joint.trials)
    reps = reps[defined]
    err = float(reps.std(ddof=1)) if reps.size > 1 else 0.0
    return EstimateWithError(float(value[0]), err, "bootstrap")


def _cross_g2(tables: np.ndarray, trials: int):
    n_s = np.arange(tables.shape[1], dtype=float)
    n_i = np.arange(tables.shape[2], dtype=float)
    mean_s = tables.sum(axis=2) @ n_s / trials
    mean_i = tables.sum(axis=1) @ n_i / trials
    defined = (mean_s > 0) & (mean_i > 0)
    mean_si = n_s @ tables @ n_i / trials
    with np.errstate(divide="ignore", invalid="ignore"):
        return mean_si / (mean_s * mean_i), defined


def g2_cross_from_joint(
    joint: JointCountHistogram, n_boot: int = N_BOOTSTRAP, seed: int | None = None
) -> EstimateWithError:
    """Two-detector correlation <N_s N_i>/(<N_s><N_i>) with bootstrap error."""
    return _bootstrap(
        joint, _cross_g2, n_boot, seed, "cross g2 undefined: zero marginal mean"
    )


def _nrf(tables: np.ndarray, trials: int, ddof: int = 1):
    n_s = np.arange(tables.shape[1], dtype=float)
    n_i = np.arange(tables.shape[2], dtype=float)
    diff = n_s[:, None] - n_i[None, :]
    tot = n_s[:, None] + n_i[None, :]
    mean_sum = (tot * tables).sum(axis=(1, 2)) / trials
    defined = mean_sum > 0
    mean_diff = (diff * tables).sum(axis=(1, 2)) / trials
    ss = (diff**2 * tables).sum(axis=(1, 2))
    # ddof 1: unbiased sample variance; 0: variance of a probability table
    var = (ss - trials * mean_diff**2) / (trials - ddof)
    with np.errstate(divide="ignore", invalid="ignore"):
        return var / mean_sum, defined


def nrf_from_joint(
    joint: JointCountHistogram, n_boot: int = N_BOOTSTRAP, seed: int | None = None
) -> EstimateWithError:
    """Noise reduction factor Var(N_s - N_i)/<N_s + N_i> with bootstrap error.

    Uses the unbiased (T-1) sample variance of the count difference.
    """
    if joint.trials < 2:
        raise UndefinedStatisticError("NRF needs at least 2 trials")
    return _bootstrap(joint, _nrf, n_boot, seed, "NRF undefined: zero total counts")


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
