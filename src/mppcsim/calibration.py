"""Crosstalk-probability calibration.

Two routes: a weighted least-squares fit of the measured-g2 law to a
coherent-light sweep (single fit parameter, bracketed bounded Brent
search), and the classic dark-noise baseline that compares the observed
single-avalanche rate against the Poisson expectation inferred from the
crosstalk-immune zero bin.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from . import montecarlo
from .crosstalk import P_CAP, P_WARN, coefficient_a, coefficient_b, measured_g2
from .detector import DetectorParams
from .errors import (
    BoundaryFitWarning,
    CrosstalkRangeWarning,
    UndefinedStatisticError,
)
from .histograms import CountHistogram, SweepSeries
from .sources import SourceSpec

FIT_TOL = 1e-7


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted crosstalk probability with uncertainty and fit diagnostics.

    ``cod`` is the coefficient of determination of the g2 fit (None for
    the dark-noise method, which has no regression residuals);
    ``p_plus_2p2`` is the combination conventionally quoted when
    comparing against dark-noise calibrations.
    """

    p_hat: float
    p_err: float
    a_coef: float
    b_coef: float
    method: str
    cod: float | None = None
    residuals: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= P_CAP:
            raise ValueError(f"p_hat must lie in [0, {float(P_CAP)}]")
        if self.p_err < 0:
            raise ValueError("p_err must be non-negative")
        if self.cod is not None and self.cod > 1.0 + 1e-12:
            raise ValueError("cod cannot exceed 1")

    @property
    def p_plus_2p2(self) -> float:
        return self.p_hat + 2.0 * self.p_hat**2


def fit_crosstalk(sweep: SweepSeries, g0: float = 1.0) -> CalibrationResult:
    """Fit the crosstalk probability to a g2-versus-mean-counts sweep.

    Minimizes the error-weighted squared residuals of
    g2_i = A(p) g0 + B(p)/n_i over p in [0, 0.6] by a coarse bracket plus
    bounded Brent refinement; the uncertainty follows from the curvature
    of the weighted objective at the minimum (unit chi-square increase).
    """
    # the chained comparison is false for NaN, and the upper bound rejects inf
    if not 0.0 <= g0 < math.inf:
        raise ValueError("g0 must be finite and non-negative")
    y = sweep.g2
    w = 1.0 / sweep.g2_err**2

    def chi2(p: float) -> float:
        r = y - measured_g2(p, g0, sweep.n_total)
        return float(w @ (r * r))

    # coarse scan brackets the minimum; bounded Brent refines it
    grid = np.linspace(0.0, float(P_CAP), 61)
    vals = np.array([chi2(p) for p in grid])
    i0 = int(np.argmin(vals))
    lo = grid[max(i0 - 1, 0)]
    hi = grid[min(i0 + 1, grid.size - 1)]
    p_hat = float(
        minimize_scalar(
            chi2, bounds=(lo, hi), method="bounded", options={"xatol": FIT_TOL}
        ).x
    )

    h = 1e-4
    center = min(max(p_hat, h), P_CAP - h)
    curv = (chi2(center + h) - 2.0 * chi2(center) + chi2(center - h)) / h**2
    p_err = math.sqrt(2.0 / curv) if curv > 0 else float("inf")

    if p_hat < 10 * FIT_TOL or p_hat > P_CAP - 10 * FIT_TOL:
        warnings.warn(
            f"fitted p = {p_hat:.3g} sits on the allowed boundary",
            BoundaryFitWarning,
            stacklevel=2,
        )
    if p_hat > P_WARN:
        warnings.warn(
            f"fitted p = {p_hat:.3g} strains the second-order crosstalk model",
            CrosstalkRangeWarning,
            stacklevel=2,
        )

    residuals = y - measured_g2(p_hat, g0, sweep.n_total)
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot > 0:
        cod = 1.0 - ss_res / ss_tot
    else:
        # flat data: perfect score if the fit sits well inside the error bars
        cod = 1.0 if ss_res <= float(np.sum(sweep.g2_err**2)) else float("-inf")

    return CalibrationResult(
        p_hat=p_hat,
        p_err=p_err,
        a_coef=coefficient_a(p_hat),
        b_coef=coefficient_b(p_hat),
        method="g2_fit",
        cod=cod,
        residuals=tuple(float(r) for r in residuals),
    )


def dark_noise_crosstalk(dark: CountHistogram) -> CalibrationResult:
    """Crosstalk probability from a dark-noise histogram.

    The zero bin is immune to crosstalk, so the dark-avalanche mean is
    lam = -ln(N0/T); the crosstalk probability is the deficit of observed
    single events against the Poisson expectation E1 = T lam exp(-lam).
    Uncertainty propagates Poisson fluctuations of N0 and N1.
    """
    t = dark.trials
    n0 = float(dark.counts[0])
    n1 = float(dark.counts[1]) if dark.counts.size > 1 else 0.0
    if n0 <= 0:
        raise UndefinedStatisticError("dark histogram has an empty zero bin")
    lam = -math.log(n0 / t)
    if lam <= 0:
        raise UndefinedStatisticError("dark histogram shows no avalanches")
    e1 = t * lam * math.exp(-lam)

    raw = 1.0 - n1 / e1
    p_dc = min(max(raw, 0.0), float(P_CAP))
    if raw < -1e-12 or raw > P_CAP + 1e-12:
        warnings.warn(
            f"dark-noise estimate {raw:.3g} clamped into [0, {float(P_CAP)}]",
            BoundaryFitWarning,
            stacklevel=2,
        )

    d_f_d_n1 = 1.0 / e1
    d_e1_d_lam = t * math.exp(-lam) * (1.0 - lam)
    d_lam_d_n0 = -1.0 / n0
    d_f_d_n0 = n1 / e1**2 * d_e1_d_lam * (-d_lam_d_n0)
    p_err = math.sqrt(d_f_d_n1**2 * n1 + d_f_d_n0**2 * n0)

    return CalibrationResult(
        p_hat=p_dc,
        p_err=p_err,
        a_coef=coefficient_a(p_dc),
        b_coef=coefficient_b(p_dc),
        method="dark_noise",
    )


@dataclass(frozen=True)
class MethodComparison:
    """Replicate spreads of the two calibration methods on matched data."""

    p_truth: float
    replicates: int
    p_fit: np.ndarray
    p_dc: np.ndarray
    spread_g2_fit: float
    spread_dark_noise: float
    mean_g2_fit: float
    mean_dark_noise: float
    lower_spread: str


def compare_methods(
    p_truth: float,
    dark_trials: int,
    sweep_trials: int,
    replicates: int,
    *,
    dark_rate: float = 0.002,
    eta: float = 0.2,
    seed: int = 0,
) -> MethodComparison:
    """Empirical uncertainty comparison of the two calibration routes.

    Every replicate simulates a dark acquisition of ``dark_trials`` pulses
    and a coherent sweep totalling ``sweep_trials`` pulses, runs both
    estimators, and the spread (sample standard deviation) of each
    estimate across replicates is reported. The sweep is a fixed 10-point
    grid, geometric from 0.1 to 2.0 mean counts per pulse (photon means
    counts (1 - p)/eta), and every run uses the ``cascade`` crosstalk law.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates to measure spread")
    counts = np.geomspace(0.1, 2.0, 10)  # the sweep's mean counts per pulse
    per_point = max(sweep_trials // counts.size, 1)
    grid = counts * (1.0 - p_truth) / eta

    p_fit = np.empty(replicates)
    p_dc = np.empty(replicates)
    for r in range(replicates):
        ss = np.random.SeedSequence(entropy=[int(seed), 0xC0123, r])
        dark_seed, sweep_seed = (int(v) for v in ss.generate_state(2, np.uint64))

        dark_cfg = montecarlo.SimulationConfig(
            source=SourceSpec("coherent", mean=0.0),
            detector_s=DetectorParams(
                eta=eta, p_xt=p_truth, n_max=400, dark_mean=dark_rate
            ),
            trials=dark_trials,
            seed=dark_seed,
            crosstalk_mode="cascade",
        )
        p_dc[r] = dark_noise_crosstalk(montecarlo.simulate_single(dark_cfg)).p_hat

        sweep_cfg = montecarlo.SimulationConfig(
            source=SourceSpec("coherent", mean=1.0),
            detector_s=DetectorParams(eta=eta, p_xt=p_truth, n_max=400),
            trials=per_point,
            seed=sweep_seed,
            crosstalk_mode="cascade",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryFitWarning)
            series = montecarlo.sweep(sweep_cfg, grid)
            p_fit[r] = fit_crosstalk(series, g0=1.0).p_hat

    spread_fit = float(p_fit.std(ddof=1))
    spread_dc = float(p_dc.std(ddof=1))
    return MethodComparison(
        p_truth=p_truth,
        replicates=replicates,
        p_fit=p_fit,
        p_dc=p_dc,
        spread_g2_fit=spread_fit,
        spread_dark_noise=spread_dc,
        mean_g2_fit=float(p_fit.mean()),
        mean_dark_noise=float(p_dc.mean()),
        lower_spread="g2_fit" if spread_fit < spread_dc else "dark_noise",
    )
