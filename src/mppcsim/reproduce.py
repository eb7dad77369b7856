"""Canned study scenarios: scripted sweep pipelines with fixed seeds that
regenerate the package's reference curves at desk scale and self-check
their qualitative features. Each scenario writes its data series as CSV
plus a textual pass/fail report."""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from . import io
from .calibration import fit_crosstalk
from .detector import DetectorParams, nrf_limit_coherent, nrf_limit_sv
from .errors import BoundaryFitWarning
from .estimators import g2_cross_from_joint, nrf_from_joint
from .montecarlo import SimulationConfig, simulate_independent, simulate_twin, sweep
from .sources import SourceSpec

FIGURES = ("3a", "5", "8a", "8b")

# named detector presets: (crosstalk p, dark counts/pulse, pixels)
PRESETS = {
    "mppc-25um": (0.0622499, 0.002, 1600),
    "mppc-50um": (0.1592676, 0.008, 400),
    "mppc-100um": (0.4553368, 0.021, 100),
}


def _solve_even_weight(target_mean: float) -> float:
    """Weight parameter of the even-only source whose mean is target_mean."""
    hi = max(4.0 * target_mean + 5.0, 5.0)
    return brentq(lambda m: m * math.tanh(m) - target_mean, 1e-9, hi, xtol=1e-15)


def _check(lines, name: str, passed: bool, detail: str) -> None:
    lines.append(f"CHECK {name} {'PASS' if passed else 'FAIL'}: {detail}")


def _figure_3a(out_dir, seed, pulses):
    eta, p = 0.2, 0.177
    det = DetectorParams(eta=eta, p_xt=p, n_max=400)
    # sub-photon regime: above ~1 detected photon the even-number source
    # loses its two-photon excess (1/sinh^2) and the curves merge
    targets = np.geomspace(0.02, 0.3, 8)
    lam = targets / (eta / (1.0 - p))  # cascade inflates counts by 1/(1-p)

    coh_cfg = SimulationConfig(
        source=SourceSpec("coherent", mean=1.0),
        detector_s=det,
        trials=pulses,
        seed=seed,
        crosstalk_mode="cascade",
    )
    coh = sweep(coh_cfg, lam)

    even_means = [_solve_even_weight(v) for v in lam]
    sv_cfg = SimulationConfig(
        source=SourceSpec("even_poisson", mean=1.0),
        detector_s=det,
        trials=pulses,
        seed=seed + 1,
        crosstalk_mode="cascade",
    )
    sv = sweep(sv_cfg, even_means)

    path_coh = os.path.join(out_dir, "fig3a_coherent.csv")
    path_sv = os.path.join(out_dir, "fig3a_single_mode_sv.csv")
    io.write_g2_sweep(path_coh, coh)
    io.write_g2_sweep(path_sv, sv)

    lines = [f"scenario 3a: measured g2 vs mean counts, eta={eta} p={p}",
             f"WROTE {os.path.basename(path_coh)}", f"WROTE {os.path.basename(path_sv)}"]
    above = np.all(sv.g2 > coh.g2)
    _check(lines, "sv_above_coherent", bool(above),
           "even-number source g2 exceeds coherent g2 at every matched point")
    dec = np.all(np.diff(coh.g2) < 0)
    _check(lines, "coherent_decreasing", bool(dec),
           "coherent g2 falls as mean counts grow (1/N crosstalk term)")
    return lines


def _figure_5(out_dir, seed, pulses):
    eta = 0.2
    targets = np.geomspace(0.1, 2.0, 8)
    lines = [f"scenario 5: crosstalk fits for three pixel-size presets, eta={eta}"]
    fitted = {}
    on_boundary = []
    for idx, (label, (p, _dark, pixels)) in enumerate(PRESETS.items()):
        det = DetectorParams(eta=eta, p_xt=p, n_max=pixels, pixel_count=pixels)
        cfg = SimulationConfig(
            source=SourceSpec("coherent", mean=1.0),
            detector_s=det,
            trials=pulses,
            seed=seed + idx,
            crosstalk_mode="cascade",
        )
        series = sweep(cfg, targets / (eta / (1.0 - p)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fit_crosstalk(series, g0=1.0)
        fitted[label] = result
        if any(issubclass(w.category, BoundaryFitWarning) for w in caught):
            on_boundary.append(label)
        path = os.path.join(out_dir, f"fig5_{label}.csv")
        io.write_g2_sweep(path, series)
        lines.append(f"WROTE {os.path.basename(path)}")
        note = "".join(f" [{w.message}]" for w in caught)
        lines.append(
            f"  {label}: p_hat={result.p_hat:.4f} +/- {result.p_err:.4f} "
            f"COD={result.cod:.4f} p+2p^2={result.p_plus_2p2:.4f}{note}"
        )
    order = (
        fitted["mppc-25um"].p_hat
        < fitted["mppc-50um"].p_hat
        < fitted["mppc-100um"].p_hat
    )
    _check(lines, "pixel_size_ordering", bool(order),
           "fitted crosstalk grows with pixel size (25um < 50um < 100um)")
    _check(lines, "no_boundary_fit", not on_boundary,
           "every fitted p lies inside its allowed range"
           + (f" (on the boundary: {', '.join(on_boundary)})" if on_boundary else ""))
    return lines


def _nrf_curves(seed, pulses, twin_spec, stride, offset, estimator):
    """Estimator versus mean photons for twin-beam arms fed by ``twin_spec``
    ("sv") and independent coherent arms ("coherent") at p=0.28,
    eta=0.163, n_max=3. Point idx runs on seed + stride*idx, plus
    ``offset`` on the coherent curve."""
    det = DetectorParams(eta=0.163, p_xt=0.28, n_max=3)
    grid = np.geomspace(0.1, 6.0, 8)
    rows = {}
    for tag, spec, simulate, shift in (
        ("sv", twin_spec, simulate_twin, 0),
        ("coherent", SourceSpec("coherent", mean=1.0), simulate_independent, offset),
    ):
        pts = []
        for idx, mean in enumerate(grid):
            cfg = SimulationConfig(
                source=replace(spec, mean=float(mean)),
                detector_s=det,
                detector_i=det,
                trials=pulses,
                seed=seed + stride * idx + shift,
            )
            est = estimator(simulate(cfg))
            pts.append((float(mean), est.value, max(est.std_err, 1e-12)))
        rows[tag] = np.asarray(pts)
    return grid, rows


def _figure_8a(out_dir, seed, pulses):
    twin = SourceSpec("twin_thermal", mean=1.0)
    grid, rows = _nrf_curves(seed, pulses, twin, 101, 7, nrf_from_joint)
    lines = ["scenario 8a: NRF vs mean photons, p=0.28 eta=0.163 n_max=3"]
    for tag, pts in rows.items():
        path = os.path.join(out_dir, f"fig8a_{tag}.csv")
        io.write_nrf_sweep(path, pts.tolist())
        lines.append(f"WROTE {os.path.basename(path)}")
    lines.append(f"  nrf_limit_coherent={nrf_limit_coherent(0.28):.5f}")
    lines.append(f"  nrf_limit_sv={nrf_limit_sv(0.28, 0.163):.5f}")

    sv, coh = rows["sv"], rows["coherent"]
    _check(lines, "sv_below_coherent", bool(np.all(sv[:, 1] < coh[:, 1])),
           "twin-beam NRF below coherent NRF at every mean (squeezing)")
    for tag, pts in rows.items():
        sel = pts[grid >= 1.0]
        tol = 4.0 * np.sqrt(sel[:-1, 2] ** 2 + sel[1:, 2] ** 2)
        mono = np.all(np.diff(sel[:, 1]) < tol)
        _check(lines, f"{tag}_saturation_decrease", bool(mono),
               "NRF decreases with mean beyond 1 photon (saturation)")
    return lines


def _figure_8b(out_dir, seed, pulses):
    modes = 1.0 / 0.808  # one detected Schmidt-mode fraction
    twin = SourceSpec("twin_multimode", mean=1.0, modes=modes)
    grid, curves = _nrf_curves(seed, pulses, twin, 211, 13, g2_cross_from_joint)

    lines = ["scenario 8b: two-detector g2 vs mean photons, p=0.28 eta=0.163 n_max=3"]
    for tag, pts in curves.items():
        path = os.path.join(out_dir, f"fig8b_{tag}.csv")
        io.write_nrf_sweep(path, pts.tolist())
        lines.append(f"WROTE {os.path.basename(path)}")

    coh = curves["coherent"]
    flat = np.all(np.abs(coh[:, 1] - 1.0) < 4.0 * coh[:, 2])
    _check(lines, "coherent_flat_at_unity", bool(flat),
           "uncorrelated crosstalk leaves the two-detector g2 at 1")
    sv = curves["sv"]
    _check(lines, "sv_decreasing", bool(np.all(np.diff(sv[:, 1]) < 0)),
           "twin-beam cross-correlation falls as mean photons grow")
    # inverse-mean scaling between the two smallest means
    r_obs = (sv[0, 1] - 1.0) / (sv[1, 1] - 1.0)
    r_exp = grid[1] / grid[0]
    scaling = abs(r_obs / r_exp - 1.0) < 0.35
    _check(lines, "inverse_mean_scaling", bool(scaling),
           f"excess correlation scales like 1/mean (ratio {r_obs:.2f} vs {r_exp:.2f})")
    return lines


def reproduce_figure(figure: str, out_dir, seed: int = 0, pulses: int = 200_000) -> str:
    """Run one scenario, write its CSVs and report into out_dir, return the report."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from {FIGURES}")
    os.makedirs(out_dir, exist_ok=True)
    runner = {
        "3a": _figure_3a,
        "5": _figure_5,
        "8a": _figure_8a,
        "8b": _figure_8b,
    }[figure]
    lines = runner(out_dir, seed, pulses)
    text = "\n".join(lines) + "\n"
    io.atomic_write_text(os.path.join(out_dir, "report.txt"), text)
    return text
