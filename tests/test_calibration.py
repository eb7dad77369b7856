import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mppcsim import (
    BoundaryFitWarning,
    CountHistogram,
    IllConditionedFitError,
    SweepSeries,
    UndefinedStatisticError,
    coefficient_a,
    coefficient_b,
    compare_methods,
    dark_noise_crosstalk,
    fit_crosstalk,
    measured_g2,
)


def synthetic_sweep(p, g0=1.0, err=1e-4, n_points=10, span=(0.01, 2.0)):
    n = np.geomspace(span[0], span[1], n_points)
    g2 = np.array([measured_g2(p, g0, v) for v in n])
    return SweepSeries(np.column_stack([n, g2, np.full(n_points, err)]))


@pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 0.177, 0.3])
def test_fit_round_trip_noiseless(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # boundary/range notes at p=0 and p=0.3
        result = fit_crosstalk(synthetic_sweep(p), g0=1.0)
    assert abs(result.p_hat - p) < 1e-5
    assert result.a_coef == pytest.approx(coefficient_a(result.p_hat))
    assert result.b_coef == pytest.approx(coefficient_b(result.p_hat))
    assert result.method == "g2_fit"


def test_fit_null_crosstalk():
    with pytest.warns(BoundaryFitWarning):
        result = fit_crosstalk(synthetic_sweep(0.0), g0=1.0)
    assert result.p_hat < 1e-6
    assert result.cod == pytest.approx(1.0, abs=1e-12)
    assert result.p_err < 1e-3


def test_fit_with_nonunit_g0():
    result = fit_crosstalk(synthetic_sweep(0.12, g0=2.0), g0=2.0)
    assert abs(result.p_hat - 0.12) < 1e-5


def test_fit_degenerate_sweep_rejected():
    with pytest.raises(IllConditionedFitError):
        SweepSeries(np.array([[0.5, 1.2, 0.01]] * 4))
    points = synthetic_sweep(0.1).points
    for col in range(3):
        for bad in (np.nan, np.inf):
            broken = points.copy()
            broken[4, col] = bad
            with pytest.raises(ValueError, match="finite"):
                SweepSeries(broken)
    for g0 in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError, match="g0"):
            fit_crosstalk(synthetic_sweep(0.1), g0=g0)


def test_zero_error_point_names_its_n_total():
    points = synthetic_sweep(0.1).points.copy()
    points[4, 2] = 0.0
    with pytest.raises(ValueError, match=f"strictly positive, got 0 at n_total {points[4, 0]:.6g}"):
        SweepSeries(points)


def test_cod_matches_recomputation():
    rng = np.random.default_rng(2)
    n = np.geomspace(0.05, 2.0, 12)
    err = 0.02
    g2 = np.array([measured_g2(0.15, 1.0, v) for v in n]) + rng.normal(0, err, 12)
    series = SweepSeries(np.column_stack([n, g2, np.full(12, err)]))
    result = fit_crosstalk(series)
    residuals = np.asarray(result.residuals)
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((series.g2 - series.g2.mean()) ** 2))
    assert result.cod == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)
    assert result.cod <= 1.0
    # residual definition: data minus fitted model at the fitted p
    model = result.a_coef + result.b_coef / series.n_total
    assert np.allclose(series.g2 - model, residuals, atol=1e-12)


def test_objective_is_unimodal_on_test_sweeps():
    for p_true in (0.05, 0.2, 0.45):
        series = synthetic_sweep(p_true, err=0.01)
        w = 1.0 / series.g2_err**2
        grid = np.linspace(0.0, 0.6, 301)
        chi = np.array(
            [
                float(
                    w
                    @ (
                        series.g2
                        - coefficient_a(q)
                        - coefficient_b(q) / series.n_total
                    )
                    ** 2
                )
                for q in grid
            ]
        )
        sign_changes = np.sum(np.diff(np.sign(np.diff(chi))) != 0)
        assert sign_changes <= 1


def random_sweep(rng):
    """A noisy sweep: 3-14 points, p 0-0.55, g0 0.5-2.5, rates 0.05-20,
    errors 1e-3-0.1; returns the sweep and its g0."""
    m = int(rng.integers(3, 15))
    p, g0 = rng.uniform(0, 0.55), rng.uniform(0.5, 2.5)
    n = np.exp(rng.uniform(np.log(0.05), np.log(20), m))
    err = np.exp(rng.uniform(np.log(1e-3), np.log(0.1), m))
    g2 = measured_g2(p, g0, n) + rng.normal(0, 1, m) * err
    return SweepSeries(np.column_stack([n, g2, err])), g0


def two_minimum_sweep():
    """p 0.002 at rates 10-20 with errors 1e-4: chi^2 has local minima
    near 0.002 and 0.129."""
    rng = np.random.default_rng(0)
    n = np.linspace(10, 20, 5)
    g2 = measured_g2(0.002, 1.0, n) + rng.normal(0, 1e-4, 5)
    return SweepSeries(np.column_stack([n, g2, np.full(5, 1e-4)]))


def fit_quietly(series, g0=1.0):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit_crosstalk(series, g0)
    return result, any(w.category is BoundaryFitWarning for w in caught)


def exact_curvature(series, g0, p):
    """chi^2''(p) in exact rationals, from second-order jets (value, first
    and second derivative) of A = (1+2p+4p^2)/D^2 and B = 2p(1+3p)/D."""

    def mul(a, b):
        return (a[0] * b[0], a[0] * b[1] + a[1] * b[0],
                a[0] * b[2] + 2 * a[1] * b[1] + a[2] * b[0])

    p, g0 = Fraction(p), Fraction(g0)
    d0 = 1 + p + 2 * p * p
    inv_d = (1 / d0, -(1 + 4 * p) / d0**2, (2 * (1 + 4 * p) ** 2 - 4 * d0) / d0**3)
    a = mul(mul((1 + 2 * p + 4 * p * p, 2 + 8 * p, Fraction(8)), inv_d), inv_d)
    b = mul((2 * p + 6 * p * p, 2 + 12 * p, Fraction(12)), inv_d)
    total = Fraction(0)
    for n, y, e in series.points:
        r = [-(g0 * ai + bi / Fraction(n)) for ai, bi in zip(a, b)]
        r[0] += Fraction(y)
        total += 2 * (r[1] ** 2 + r[0] * r[2]) / Fraction(e) ** 2
    return total


def test_fit_curvature_is_exact():
    rng = np.random.default_rng(11)
    interior = 0
    for _ in range(40):
        series, g0 = random_sweep(rng)
        result, on_boundary = fit_quietly(series, g0)
        if on_boundary:
            continue
        interior += 1
        exact = float(exact_curvature(series, g0, result.p_hat))
        assert 2.0 / result.p_err**2 == pytest.approx(exact, rel=1e-12)
    assert interior >= 30


def test_boundary_fit_takes_the_curvature_at_the_boundary():
    n = np.geomspace(0.05, 2.0, 8)
    cases = [
        (synthetic_sweep(0.0, err=0.01), 0.0),
        # a pair excess beyond what any p <= 0.6 explains pins the fit to the cap
        (SweepSeries(np.column_stack([n, 1.0 + 3.0 / n, np.full(8, 0.01)])), 0.6),
    ]
    for series, edge in cases:
        result, on_boundary = fit_quietly(series)
        assert on_boundary and result.p_hat == edge
        exact = float(exact_curvature(series, 1.0, edge))
        assert 2.0 / result.p_err**2 == pytest.approx(exact, rel=1e-12)


def test_fit_finds_the_global_minimum():
    grid = np.linspace(0.0, 0.6, 10_001)
    d = 1 + grid + 2 * grid**2
    a, b = (1 + 2 * grid + 4 * grid**2) / d**2, 2 * grid * (1 + 3 * grid) / d
    rng = np.random.default_rng(7)
    cases = [random_sweep(rng) for _ in range(200)] + [(two_minimum_sweep(), 1.0)]
    for series, g0 in cases:
        result, _ = fit_quietly(series, g0)
        w = 1.0 / series.g2_err**2
        chi2_grid = w @ (series.g2[:, None] - g0 * a - b / series.n_total[:, None]) ** 2
        assert result.chi2 <= chi2_grid.min() * (1 + 1e-12)
    # the two-minimum sweep: the fit is the lower minimum, near 0.002
    result, _ = fit_quietly(two_minimum_sweep())
    assert abs(result.p_hat - 0.002) < 1e-4


@pytest.mark.parametrize("p", [0.0, 0.05, 0.177, 0.3, 0.55])
def test_fit_recovers_noiseless_p_to_rounding(p):
    result, _ = fit_quietly(synthetic_sweep(p))
    assert abs(result.p_hat - p) < 1e-12


def test_fit_reports_chi2_and_dof():
    rng = np.random.default_rng(3)
    for _ in range(20):
        series, g0 = random_sweep(rng)
        result, _ = fit_quietly(series, g0)
        w = 1.0 / series.g2_err**2
        r = np.asarray(result.residuals)
        assert result.chi2 == pytest.approx(float(w @ r**2), rel=1e-12)
        assert result.dof == len(series.g2) - 1
    dark = dark_noise_crosstalk(CountHistogram(10_000, np.array([9_000, 900, 100])))
    assert dark.chi2 is None and dark.dof is None


def test_fit_error_tracks_replicate_scatter():
    # p_err from the curvature should match the spread of repeated noisy fits
    rng = np.random.default_rng(5)
    n = np.geomspace(0.02, 2.0, 10)
    err = 0.05
    truth = np.array([measured_g2(0.15, 1.0, v) for v in n])
    hats, errs = [], []
    for _ in range(60):
        g2 = truth + rng.normal(0, err, n.size)
        series = SweepSeries(np.column_stack([n, g2, np.full(n.size, err)]))
        res = fit_crosstalk(series)
        hats.append(res.p_hat)
        errs.append(res.p_err)
    spread = np.std(hats, ddof=1)
    assert np.median(errs) == pytest.approx(spread, rel=0.5)


def test_p_plus_2p2_report():
    result = fit_crosstalk(synthetic_sweep(0.177))
    assert result.p_plus_2p2 == pytest.approx(
        result.p_hat + 2 * result.p_hat**2, abs=1e-12
    )


def exact_dark_histogram(lam, p, trials):
    """Expected dark counts: zero bin immune, singles thinned by (1-p)."""
    n0 = trials * math.exp(-lam)
    n1 = (1 - p) * trials * lam * math.exp(-lam)
    rest = trials - n0 - n1
    return CountHistogram(trials, np.array([n0, n1, rest]))


def test_dark_noise_exact_fixture():
    hist = exact_dark_histogram(0.02, 0.1, 1_000_000)
    result = dark_noise_crosstalk(hist)
    assert result.p_hat == pytest.approx(0.1, abs=1e-12)
    assert result.method == "dark_noise"
    assert result.cod is None
    assert result.p_err > 0


def test_dark_noise_no_crosstalk():
    hist = exact_dark_histogram(0.05, 0.0, 1_000_000)
    assert dark_noise_crosstalk(hist).p_hat == pytest.approx(0.0, abs=1e-12)


def test_dark_noise_error_cases():
    with pytest.raises(UndefinedStatisticError):
        dark_noise_crosstalk(CountHistogram(10, np.array([0, 10])))
    with pytest.raises(UndefinedStatisticError):
        dark_noise_crosstalk(CountHistogram(10, np.array([10])))
    # more singles than the Poisson expectation: clamp with a warning
    t = 1_000_000
    hist = CountHistogram(t, np.array([900_000, 99_000, 1_000]))
    with pytest.warns(BoundaryFitWarning):
        assert dark_noise_crosstalk(hist).p_hat == 0.0


def test_dark_noise_error_propagation_scale():
    # quadrupling the sample halves the Poisson-propagated uncertainty
    small = dark_noise_crosstalk(exact_dark_histogram(0.02, 0.1, 250_000))
    big = dark_noise_crosstalk(exact_dark_histogram(0.02, 0.1, 1_000_000))
    assert small.p_err / big.p_err == pytest.approx(2.0, rel=1e-3)


def test_compare_methods_small_run():
    report = compare_methods(
        0.1,
        dark_trials=28_000,
        sweep_trials=20_000,
        replicates=6,
        dark_rate=0.02,
        seed=4,
    )
    assert report.replicates == 6
    assert report.p_fit.shape == (6,)
    assert report.lower_spread in ("g2_fit", "dark_noise")
    assert 0 <= report.mean_g2_fit <= 0.6
    again = compare_methods(
        0.1,
        dark_trials=28_000,
        sweep_trials=20_000,
        replicates=6,
        dark_rate=0.02,
        seed=4,
    )
    assert np.array_equal(report.p_fit, again.p_fit)


def test_compare_methods_centers_on_zero_without_crosstalk():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = compare_methods(
            0.0,
            dark_trials=50_000,
            sweep_trials=40_000,
            replicates=5,
            dark_rate=0.02,
            seed=9,
        )
    assert report.mean_g2_fit < 0.02
    assert report.mean_dark_noise < 0.05


def test_fit_spread_shrinks_with_sample_size():
    # spread of p_hat across replicates drops like 1/sqrt(sample size); with
    # 96 replicates the ratio of two sample spreads has sd about 0.2, so the
    # +-0.6 bound holds at about 3 sd
    kw = dict(replicates=96, dark_rate=0.02, dark_trials=1000, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        small = compare_methods(0.1, sweep_trials=20_000, **kw)
        big = compare_methods(0.1, sweep_trials=80_000, **kw)
    ratio = small.spread_g2_fit / big.spread_g2_fit
    assert abs(ratio / 2.0 - 1.0) < 0.3
