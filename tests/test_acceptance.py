"""Acceptance suite.

One test per release criterion, each at its stated tolerance and budget;
a passing test prints a single summary line (run pytest with -s to see
them live). Statistical criteria use fixed seeds, so the suite is
deterministic.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from mppcsim import (
    CountHistogram,
    DetectorParams,
    SimulationConfig,
    SourceSpec,
    apply_channel,
    build_povm,
    coefficient_a,
    coefficient_b,
    compare_methods,
    expected_coincidences,
    expected_total_counts,
    fit_crosstalk,
    g2_cross_from_joint,
    g2_from_histogram,
    invert_g2,
    joint_independent,
    joint_photocount,
    measured_g2,
    nrf_analytic,
    nrf_from_joint,
    nrf_limit_coherent,
    nrf_limit_sv,
    pmf_coherent,
    pmf_thermal,
    simulate_independent,
    simulate_single,
    simulate_twin,
    sweep,
    transform_counts_exact,
)


def report(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS: {text}")


def test_criterion_01_povm_completeness():
    start = time.perf_counter()
    for eta, p, n_max in itertools.product((0.1, 0.5, 1.0), (0.0, 0.1, 0.3), (3, 10, 400)):
        povm = build_povm(DetectorParams(eta=eta, p_xt=p, n_max=n_max), 100)
        assert np.all(np.abs(povm.q.sum(axis=0) - 1.0) <= 1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"27 response matrices column-stochastic to 1e-10 in {elapsed:.2f}s")


def test_criterion_02_crosstalk_algebra_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        counts = rng.integers(0, 1_000_000, size=rng.integers(2, 13)).tolist()
        p = Fraction(int(rng.integers(0, 301)), 1000)
        out = transform_counts_exact(counts, p)
        assert sum(out) == sum(counts)  # exact event conservation
        trials = max(int(sum(counts)), 1)
        hist = CountHistogram(trials, np.array(counts, dtype=float))
        coinc = float(sum(Fraction(k * (k - 1), 2) * v for k, v in enumerate(out)))
        total = float(sum(k * v for k, v in enumerate(out)))
        tol = 1e-9 * trials
        assert abs(coinc - expected_coincidences(hist, p)) <= tol
        assert abs(total - expected_total_counts(hist, p)) <= tol
    # worked fixture
    fixture = transform_counts_exact([0, 1000], "0.1")
    assert fixture == [0, 890, 100, 10]
    singles = CountHistogram(1000, np.array([0.0, 1000.0]))
    assert expected_total_counts(singles, "0.1") == 1120.0
    assert expected_coincidences(singles, "0.1") == 130.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"1000 random histograms conserve events exactly in {elapsed:.2f}s")


def test_criterion_03_model_coefficients_and_inversion():
    # independent rational recomputation of the coefficient definitions
    p = Fraction("0.177")
    a_ref = float((1 + 2 * p + 4 * p**2) / (1 + p + 2 * p**2) ** 2)
    b_ref = float(2 * p * (1 + 3 * p) / (1 + p + 2 * p**2))
    assert abs(coefficient_a(0.177) - a_ref) <= 1e-12
    assert abs(coefficient_b(0.177) - b_ref) <= 1e-12
    assert abs(coefficient_a(0.177) - 0.96263) <= 1e-5
    assert abs(coefficient_b(0.177) - 0.43720) <= 1e-5

    rng = np.random.default_rng(3)
    for _ in range(1000):
        g0 = rng.uniform(0.0, 3.0)
        n = rng.uniform(1e-3, 10.0)
        q = rng.uniform(0.0, 0.6)
        assert abs(invert_g2(measured_g2(q, g0, n), n, q) - g0) <= 1e-10
    report(3, "A(0.177)=0.96263, B(0.177)=0.43720; inversion exact on 1000 triples")


def test_criterion_04_estimator_baseline():
    for lam in (0.01, 0.1, 1.0, 5.0):
        t = 1_000_000
        kmax = int(stats.poisson.isf(1e-15, lam)) + 5
        counts = t * stats.poisson.pmf(np.arange(kmax), lam)
        value = g2_from_histogram(CountHistogram(t, counts)).value
        assert abs(value - 1.0) <= 1e-9
    for n in (2, 3, 4, 5):
        counts = np.zeros(n + 1)
        counts[n] = 500
        value = g2_from_histogram(CountHistogram(500, counts)).value
        assert value == pytest.approx(1.0 - 1.0 / n, abs=1e-12)
    report(4, "Poisson counts give g2=1 to 1e-9; Fock fixtures give 1-1/n")


def test_criterion_05_monte_carlo_matches_analytic_channel():
    start = time.perf_counter()
    params = DetectorParams(eta=0.5, p_xt=0.1, n_max=10)
    trials = 1_000_000
    cfg = SimulationConfig(
        source=SourceSpec("coherent", mean=3.0),
        detector_s=params,
        trials=trials,
        seed=505,
    )
    hist = simulate_single(cfg)
    n = np.arange(hist.counts.size, dtype=float)
    sample_mean = float(n @ hist.counts) / trials
    sample_var = float(((n - sample_mean) ** 2) @ hist.counts) / (trials - 1)

    dist = pmf_coherent(3.0)
    channel_out = apply_channel(dist, params)
    m1 = channel_out.moment(1)
    m2 = channel_out.moment(2)
    var = m2 - m1**2
    out = channel_out.probs
    mu4 = float(((np.arange(out.size) - m1) ** 4) @ out)
    se_mean = math.sqrt(var / trials)
    se_var = math.sqrt(max(mu4 - var**2, 0.0) / trials)
    assert abs(sample_mean - m1) <= 4 * se_mean
    assert abs(sample_var - var) <= 4 * se_var

    # per-bin agreement with the response-matrix column for Fock inputs
    for p_xt in (0.1, 0.3):
        fock_params = DetectorParams(eta=0.5, p_xt=p_xt, n_max=10)
        for n_in in range(1, 6):
            cfg = SimulationConfig(
                source=SourceSpec("fock", fock_n=n_in),
                detector_s=fock_params,
                trials=1_000_000,
                seed=700 + 10 * n_in + int(p_xt * 10),
            )
            freq = simulate_single(cfg).counts / 1_000_000
            col = build_povm(fock_params, n_in).q[:, n_in]
            se = np.sqrt(np.maximum(col * (1 - col), 0.0) / 1_000_000)
            assert np.all(np.abs(freq - col) <= 5 * se + 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"moments within 4 se, Fock bins within 5 se ({elapsed:.0f}s)")


def test_criterion_06_calibration_round_trip():
    start = time.perf_counter()
    p_true, eta = 0.177, 0.2
    targets = np.geomspace(0.01, 2.0, 10)
    lam = targets * (1.0 - p_true) / eta
    cfg = SimulationConfig(
        source=SourceSpec("coherent", mean=1.0),
        detector_s=DetectorParams(eta=eta, p_xt=p_true, n_max=400),
        trials=1_000_000,
        seed=606,
        crosstalk_mode="cascade",
    )
    series = sweep(cfg, lam)
    result = fit_crosstalk(series, g0=1.0)
    elapsed = time.perf_counter() - start
    assert abs(result.p_hat - p_true) <= 0.01
    assert result.cod >= 0.98
    assert elapsed < 300.0
    report(
        6,
        f"recovered p={result.p_hat:.4f} (true 0.177) COD={result.cod:.4f} "
        f"in {elapsed:.0f}s",
    )


def test_criterion_07_method_comparison():
    start = time.perf_counter()
    sweep_trials = 200_000
    comparison = compare_methods(
        0.1,
        dark_trials=int(1.4 * sweep_trials),
        sweep_trials=sweep_trials,
        replicates=50,
        dark_rate=0.002,
        eta=0.2,
        seed=707,
    )
    elapsed = time.perf_counter() - start
    assert comparison.spread_dark_noise > comparison.spread_g2_fit
    assert comparison.lower_spread == "g2_fit"
    assert elapsed < 600.0
    report(
        7,
        f"spread(p_dc)={comparison.spread_dark_noise:.4f} > "
        f"spread(p_fit)={comparison.spread_g2_fit:.4f} over 50 replicates "
        f"({elapsed:.0f}s)",
    )


def test_criterion_08_nrf_limits():
    params = DetectorParams(eta=0.163, p_xt=0.28, n_max=3)
    coh = pmf_coherent(1e-3)
    nrf_coh = nrf_analytic(joint_independent(coh, coh, params, params))
    nrf_sv = nrf_analytic(joint_photocount(pmf_thermal(1e-3), params, params))
    assert abs(nrf_coh - 1.4375) <= 1e-3
    assert abs(nrf_sv - 1.22886) <= 2e-3
    assert abs((nrf_coh - nrf_sv) - 0.20864) <= 1e-3
    assert nrf_limit_coherent(0.28) == pytest.approx(1.4375, abs=1e-12)
    assert nrf_limit_sv(0.28, 0.163) == pytest.approx(1.22886, abs=1e-5)
    report(
        8,
        f"analytic NRF coherent {nrf_coh:.5f}, twin {nrf_sv:.5f}, "
        f"difference {nrf_coh - nrf_sv:.5f} = (1+p)eta",
    )


def test_criterion_09_nrf_curves_qualitative():
    start = time.perf_counter()
    params = DetectorParams(eta=0.163, p_xt=0.28, n_max=3)
    grid = np.geomspace(0.1, 6.0, 8)
    trials = 1_000_000
    sv_pts, coh_pts = [], []
    for idx, mean in enumerate(grid):
        twin_cfg = SimulationConfig(
            source=SourceSpec("twin_thermal", mean=float(mean)),
            detector_s=params,
            detector_i=params,
            trials=trials,
            seed=900 + idx,
        )
        est = nrf_from_joint(simulate_twin(twin_cfg))
        sv_pts.append((est.value, est.std_err))
        coh_cfg = SimulationConfig(
            source=SourceSpec("coherent", mean=float(mean)),
            detector_s=params,
            detector_i=params,
            trials=trials,
            seed=950 + idx,
        )
        est = nrf_from_joint(simulate_independent(coh_cfg))
        coh_pts.append((est.value, est.std_err))
    sv = np.array(sv_pts)
    coh = np.array(coh_pts)
    assert np.all(sv[:, 0] < coh[:, 0])  # squeezing signature at every point
    sel = grid >= 1.0
    for curve in (sv[sel], coh[sel]):
        tol = 4.0 * np.sqrt(curve[:-1, 1] ** 2 + curve[1:, 1] ** 2)
        assert np.all(np.diff(curve[:, 0]) < tol)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        9,
        f"NRF(twin) < NRF(coherent) at all 8 means; both fall beyond "
        f"1 photon ({elapsed:.0f}s)",
    )


def test_criterion_10_two_detector_g2_immunity():
    p, eta = 0.28, 0.163
    lam = 0.5 / (eta * (1 + p))  # about 0.5 counts/pulse per arm
    params = DetectorParams(eta=eta, p_xt=p, n_max=50)
    joint_cfg = SimulationConfig(
        source=SourceSpec("coherent", mean=lam),
        detector_s=params,
        detector_i=params,
        trials=1_000_000,
        seed=1010,
    )
    cross = g2_cross_from_joint(simulate_independent(joint_cfg))
    assert abs(cross.value - 1.0) <= 4 * cross.std_err

    single_cfg = SimulationConfig(
        source=SourceSpec("coherent", mean=lam),
        detector_s=params,
        trials=1_000_000,
        seed=1011,
    )
    single = g2_from_histogram(simulate_single(single_cfg))
    assert single.value - 1.0 > 10 * abs(cross.value - 1.0)
    report(
        10,
        f"two-detector g2={cross.value:.4f} flat at 1; single-detector "
        f"g2={single.value:.4f} carries the crosstalk excess",
    )


def test_criterion_11_twin_beam_correlation_scaling():
    ideal = DetectorParams(eta=1.0, p_xt=0.0, n_max=100, pixel_count=400)
    values = []
    for idx, mean in enumerate((0.1, 0.5, 1.0)):
        cfg = SimulationConfig(
            source=SourceSpec("twin_thermal", mean=mean),
            detector_s=ideal,
            detector_i=ideal,
            trials=1_000_000,
            seed=1100 + idx,
        )
        est = g2_cross_from_joint(simulate_twin(cfg))
        expected = 2.0 + 1.0 / mean
        assert abs(est.value - expected) <= 4 * est.std_err
        values.append((mean, est.value, expected))
    report(
        11,
        "twin-thermal cross-g2 matches 2 + 1/mean at "
        + ", ".join(f"{m}" for m, _, _ in values),
    )
