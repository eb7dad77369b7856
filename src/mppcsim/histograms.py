"""Count containers shared by the estimators, the Monte Carlo engine and
the file formats: per-pulse photocount histograms for one detector, joint
tables for two detectors, and measured g2 sweep series."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedFitError

_SUM_TOL = 1e-6


def _checked_counts(trials, counts, ndim: int) -> np.ndarray:
    """``counts`` as a float array, checked to be a finite, non-negative
    ``ndim``-d table that sums to the positive integer ``trials``."""
    if trials < 1 or int(trials) != trials:
        raise ValueError("trials must be a positive integer")
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != ndim or counts.size < 1:
        raise ValueError(f"counts must be a non-empty {ndim}-d array")
    if not np.all(np.isfinite(counts)) or np.any(counts < -1e-9):
        raise ValueError("counts must be finite and non-negative")
    total = counts.sum()
    if abs(total - trials) > _SUM_TOL * max(1.0, trials):
        raise ValueError(f"counts sum {total} inconsistent with trials {trials}")
    return counts


@dataclass(frozen=True)
class CountHistogram:
    """Photocount histogram over ``trials`` pulses, bin 0 included.

    ``counts[k]`` is the number of pulses with k recorded photocounts.
    Event histograms are integer valued and sum to ``trials`` exactly;
    expected-count objects (dark-corrected or crosstalk-transformed) may
    carry decimals but keep the same total.
    """

    trials: int
    counts: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "counts", _checked_counts(self.trials, self.counts, 1))


@dataclass(frozen=True)
class JointCountHistogram:
    """Joint photocount table over (N_signal, N_idler) for ``trials`` pulses."""

    trials: int
    counts: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "counts", _checked_counts(self.trials, self.counts, 2))

    @property
    def mean_counts(self) -> tuple[float, float]:
        """Mean photocounts per pulse of the signal and idler arms."""
        n_s = np.arange(self.counts.shape[0])
        n_i = np.arange(self.counts.shape[1])
        mean_s = float(n_s @ self.counts.sum(axis=1)) / self.trials
        mean_i = float(n_i @ self.counts.sum(axis=0)) / self.trials
        return mean_s, mean_i


@dataclass(frozen=True)
class SweepSeries:
    """Measured g2 versus mean counts per pulse, with per-point errors.

    ``points`` is an (n, 3) array of rows (n_total_per_pulse, g2, g2_err),
    sorted ascending by the first column.
    """

    points: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must be rows of (n_total, g2, g2_err)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sweep entries must be finite")
        if pts.shape[0] < 3:
            raise ValueError("a sweep needs at least 3 points")
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
        if np.any(pts[:, 0] <= 0):
            raise ValueError("n_total values must be strictly positive")
        if (bad := pts[pts[:, 2] <= 0]).size:
            raise ValueError(f"g2 errors must be strictly positive, got {bad[0, 2]:g} "
                             f"at n_total {bad[0, 0]:.6g}")
        if np.ptp(pts[:, 0]) == 0:
            raise IllConditionedFitError("all sweep points share one n_total")
        object.__setattr__(self, "points", pts)

    @property
    def n_total(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def g2(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def g2_err(self) -> np.ndarray:
        return self.points[:, 2]
