"""Crosstalk-probability calibration.

Two routes: a weighted least-squares fit of the measured-g2 law to a
coherent-light sweep (single fit parameter, solved exactly at the
stationary points of chi^2), and the classic dark-noise baseline that
compares the observed single-avalanche rate against the Poisson
expectation inferred from the crosstalk-immune zero bin.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from . import montecarlo
from .crosstalk import LAW_A, LAW_B, LAW_D, P_CAP, P_WARN, coefficient_a, coefficient_b, measured_g2
from .detector import DetectorParams
from .errors import BoundaryFitWarning, CrosstalkRangeWarning, UndefinedStatisticError
from .histograms import CountHistogram, SweepSeries
from .sources import SourceSpec


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted crosstalk probability with uncertainty and fit diagnostics.

    ``cod`` is the coefficient of determination of the g2 fit, and ``chi2``
    its error-weighted sum of squared residuals for ``dof`` degrees of
    freedom (all three None for the dark-noise method, which has no
    regression residuals); ``p_plus_2p2`` is the combination
    conventionally quoted when comparing against dark-noise calibrations.
    """

    p_hat: float
    p_err: float
    a_coef: float
    b_coef: float
    method: str
    cod: float | None = None
    residuals: tuple = ()
    chi2: float | None = None
    dof: int | None = None

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

    Minimizes chi^2, the error-weighted squared residuals of
    g2_i = A(p) g0 + B(p)/n_i, over p in [0, 0.6]. With D = 1 + p + 2p^2,
    chi^2 = P/D^4 where P = sum w_i R_i^2 and R_i = (g2_i - A g0 - B/n_i) D^2
    is a quartic; chi^2' = Q/D^5 with Q = P'D - 4PD'. The fit is the lowest
    chi^2 among the two ends and the roots of Q between them, and its
    uncertainty follows from the exact curvature there,
    chi^2'' = (Q'D - 5QD')/D^6, at a unit chi-square increase.
    """
    # the chained comparison is false for NaN, and the upper bound rejects inf
    if not 0.0 <= g0 < math.inf:
        raise ValueError("g0 must be finite and non-negative")
    y, n, w = sweep.g2, sweep.n_total, 1.0 / sweep.g2_err**2
    d = Polynomial(LAW_D)
    # row i holds the five coefficients of R_i, lowest power first (A D^2 = LAW_A)
    r = (np.outer(y, (d * d).coef) - g0 * np.pad(LAW_A, (0, 2))
         - np.outer(1.0 / n, (Polynomial(LAW_B) * d).coef))
    # P's coefficient of p^k sums the weighted products R_i[a] R_i[b], a + b = k
    k = np.add.outer(np.arange(5), np.arange(5))
    p8 = Polynomial(np.bincount(k.ravel(), ((r.T * w) @ r).ravel()))
    q = p8.deriv() * d - 4 * p8 * d.deriv()

    # expanding P cancels digits near the minimum, so chi^2 is compared from
    # the residuals; the real parts of complex roots are extra candidates
    # that cannot beat the lowest stationary point or end
    cap = float(P_CAP)
    roots = q.roots().real
    candidates = [0.0, cap, *roots[(roots > 0) & (roots < cap)]]
    p_hat = float(min(candidates, key=lambda c: w @ (y - measured_g2(c, g0, n)) ** 2))
    curv = (q.deriv() * d - 5 * q * d.deriv())(p_hat) / d(p_hat) ** 6
    p_err = math.sqrt(2.0 / curv) if curv > 0 else math.inf

    if p_hat in (0.0, cap):
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

    residuals = y - measured_g2(p_hat, g0, n)
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
        chi2=float(w @ residuals**2),
        dof=len(y) - 1,
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
