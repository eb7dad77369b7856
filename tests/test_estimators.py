import math

import numpy as np
import pytest
from scipy import stats

from mppcsim import (
    CountHistogram,
    DarkSubtractionWarning,
    JointCountHistogram,
    UndefinedStatisticError,
    g2_cross_from_joint,
    g2_from_histogram,
    mean_counts_per_pulse,
    nrf_from_joint,
    pmf_thermal,
    subtract_dark,
    true_g2_of_dist,
)
from mppcsim.sources import PhotonNumberDistribution


def g2_event_oracle(event_sizes, trials):
    """Count pairwise coincidences and singles directly from raw events."""
    coinc = sum(math.comb(k, 2) for k in event_sizes)
    singles = sum(event_sizes)
    return 2 * trials * coinc / singles**2


def test_g2_pure_two_photon_events():
    hist = CountHistogram(100, np.array([0, 0, 100]))
    assert g2_from_histogram(hist).value == pytest.approx(0.5, abs=1e-15)


def test_g2_small_fixture_matches_event_oracle():
    events = [1] * 4 + [2] * 3 + [3] * 1
    hist = CountHistogram(10, np.array([2, 4, 3, 1]))
    est = g2_from_histogram(hist)
    assert est.value == pytest.approx(g2_event_oracle(events, 10), abs=1e-15)
    assert est.value == pytest.approx(120 / 169, abs=1e-12)
    assert est.method == "propagation"
    assert est.std_err > 0


@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0, 5.0])
def test_g2_exact_poisson_counts(lam):
    t = 1_000_000
    kmax = int(stats.poisson.isf(1e-15, lam)) + 5
    counts = t * stats.poisson.pmf(np.arange(kmax), lam)
    hist = CountHistogram(t, counts)
    assert g2_from_histogram(hist).value == pytest.approx(1.0, abs=1e-9)


def test_g2_scale_invariance_exact():
    base = CountHistogram(10, np.array([2, 4, 3, 1]))
    scaled = CountHistogram(30, np.array([6, 12, 9, 3]))
    assert g2_from_histogram(base).value == g2_from_histogram(scaled).value


def test_g2_undefined_when_empty():
    with pytest.raises(UndefinedStatisticError):
        g2_from_histogram(CountHistogram(5, np.array([5, 0])))


def test_g2_loss_invariance_distribution_level():
    # thin an exact distribution with a binomial kernel, g2 must not move
    dist = pmf_thermal(0.7)
    base = true_g2_of_dist(dist)
    k = np.arange(dist.probs.size)
    for eta in (0.05, 0.3, 0.9, 1.0):
        thin = stats.binom.pmf(k[:, None], k[None, :], eta) @ dist.probs
        thinned = PhotonNumberDistribution(
            thin, max(0.0, 1 - thin.sum()), float(k @ thin)
        )
        assert true_g2_of_dist(thinned) == pytest.approx(base, abs=1e-9)


def test_g2_error_scales_as_inverse_sqrt_trials():
    lam = 0.8
    kmax = 30
    errs = []
    for t in (10_000, 100_000, 1_000_000):
        counts = t * stats.poisson.pmf(np.arange(kmax), lam)
        errs.append(g2_from_histogram(CountHistogram(t, counts)).std_err)
    for bigger, smaller in zip(errs, errs[1:]):
        ratio = bigger / smaller
        assert abs(ratio / math.sqrt(10) - 1) < 0.2


def test_mean_counts_per_pulse():
    assert mean_counts_per_pulse(CountHistogram(5, np.array([0, 5]))) == 1.0
    assert mean_counts_per_pulse(CountHistogram(10, np.array([2, 4, 3, 1]))) == 1.3
    assert mean_counts_per_pulse(CountHistogram(7, np.array([7]))) == 0.0


def test_cross_g2_product_histogram():
    marg = np.array([8_000, 4_000, 4_000])
    joint = np.outer(marg, marg) / marg.sum()  # divides exactly
    jh = JointCountHistogram(int(marg.sum()), joint)
    est = g2_cross_from_joint(jh, seed=5)
    assert est.value == pytest.approx(1.0, abs=0.01)
    assert est.method == "bootstrap"


def test_cross_g2_correlated_thermal_pairs():
    # exact expected counts of identical pair numbers in both arms
    dist = pmf_thermal(1.0)
    t = 1_000_000
    counts = np.diag(t * dist.probs)
    jh = JointCountHistogram(t, counts)
    value = g2_cross_from_joint(jh, seed=1).value
    # truncated-summation oracle for <n^2>/<n>^2
    k = np.arange(dist.probs.size)
    oracle = float((k**2) @ dist.probs) / float(k @ dist.probs) ** 2
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(3.0, abs=1e-6)


def test_cross_g2_deterministic_counts():
    counts = np.zeros((3, 3))
    counts[1, 1] = 50
    jh = JointCountHistogram(50, counts)
    assert g2_cross_from_joint(jh, seed=2).value == pytest.approx(1.0, abs=1e-12)


def test_cross_g2_zero_marginal():
    counts = np.zeros((2, 2))
    counts[0, 0] = 10
    with pytest.raises(UndefinedStatisticError):
        g2_cross_from_joint(JointCountHistogram(10, counts), seed=0)


def test_nrf_diagonal_is_zero():
    counts = np.diag([10, 20, 30])
    est = nrf_from_joint(JointCountHistogram(60, counts), seed=0)
    assert est.value == 0.0


def test_nrf_hand_fixture():
    counts = np.zeros((3, 3))
    for s, i in [(0, 1), (1, 0), (1, 1), (2, 2)]:
        counts[s, i] += 1
    est = nrf_from_joint(JointCountHistogram(4, counts), seed=0)
    assert est.value == pytest.approx((2 / 3) / 2, abs=1e-12)


def test_nrf_product_form_identity():
    # on exact expected counts of a product joint, NRF reduces to
    # (Var_s + Var_i)/(mean_s + mean_i)
    pa = np.array([0.5, 0.3, 0.2])
    pb = np.array([0.6, 0.4])
    t = 10**12  # large enough that the (T-1) correction is below 1e-9
    joint = t * np.outer(pa, pb)
    jh = JointCountHistogram(t, joint)
    ka, kb = np.arange(3), np.arange(2)
    mean_a, mean_b = ka @ pa, kb @ pb
    var_a = (ka**2) @ pa - mean_a**2
    var_b = (kb**2) @ pb - mean_b**2
    expected = (var_a + var_b) / (mean_a + mean_b)
    assert nrf_from_joint(jh, seed=0).value == pytest.approx(expected, abs=1e-9)


def test_bootstrap_errors_are_seed_deterministic():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 50, size=(4, 4))
    jh = JointCountHistogram(int(counts.sum()), counts)
    a = nrf_from_joint(jh, seed=99)
    b = nrf_from_joint(jh, seed=99)
    c = nrf_from_joint(jh, seed=100)
    assert a.std_err == b.std_err
    assert a.std_err != c.std_err
    assert nrf_from_joint(jh, seed=101).std_err > 0


def _loop_bootstrap(joint, stat, n_boot, seed):
    """Reference: one replicate at a time, skipping undefined ones."""
    flat = joint.counts.ravel()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws = rng.multinomial(joint.trials, flat / flat.sum(), size=n_boot)
    vals = [stat(row.reshape(joint.counts.shape), joint.trials) for row in draws]
    return np.array([v for v in vals if v is not None])


def _loop_cross_g2(counts, trials):
    n_s, n_i = np.arange(counts.shape[0]), np.arange(counts.shape[1])
    mean_s = n_s @ counts.sum(axis=1) / trials
    mean_i = n_i @ counts.sum(axis=0) / trials
    if mean_s <= 0 or mean_i <= 0:
        return None
    return (n_s @ counts @ n_i / trials) / (mean_s * mean_i)


def _loop_nrf(counts, trials):
    n_s, n_i = np.arange(counts.shape[0]), np.arange(counts.shape[1])
    diff = n_s[:, None] - n_i[None, :]
    mean_sum = ((n_s[:, None] + n_i[None, :]) * counts).sum() / trials
    if mean_sum <= 0:
        return None
    mean_diff = (diff * counts).sum() / trials
    var = ((diff**2 * counts).sum() - trials * mean_diff**2) / (trials - 1)
    return var / mean_sum


@pytest.mark.parametrize(
    "counts",
    [
        np.random.default_rng(3).integers(0, 40, size=(6, 5)),
        # sparse: many replicates draw no counts in one arm or in both
        np.array([[57, 1, 0], [1, 1, 0]]),
    ],
)
@pytest.mark.parametrize(
    "estimator, stat",
    [(nrf_from_joint, _loop_nrf), (g2_cross_from_joint, _loop_cross_g2)],
)
def test_vectorised_bootstrap_matches_replicate_loop(counts, estimator, stat):
    joint = JointCountHistogram(int(counts.sum()), counts)
    est = estimator(joint, n_boot=300, seed=7)
    reps = _loop_bootstrap(joint, stat, 300, 7)
    if counts[0, 0] == 57:
        assert 1 < reps.size < 300  # undefined replicates were dropped
    assert est.value == pytest.approx(stat(counts, joint.trials), rel=1e-12)
    assert est.std_err == pytest.approx(reps.std(ddof=1), rel=1e-12)


def test_subtract_dark_identity_and_fixture():
    signal = CountHistogram(1_000_000, np.array([999_000, 1000]))
    dark0 = CountHistogram(1_000_000, np.array([1_000_000, 0]))
    same = subtract_dark(signal, dark0)
    assert np.allclose(same.counts, signal.counts)

    dark = CountHistogram(1_000_000, np.array([999_990, 10]))
    corr = subtract_dark(signal, dark)
    assert corr.counts[1] == pytest.approx(990.0, abs=1e-9)
    assert mean_counts_per_pulse(corr) == pytest.approx(9.9e-4, abs=1e-12)
    assert corr.meta["dark_corrected"] is True
    assert corr.trials == signal.trials


def test_subtract_dark_mean_rule():
    signal = CountHistogram(1000, np.array([800, 150, 50]))
    dark = CountHistogram(2000, np.array([1900, 100]))
    corr = subtract_dark(signal, dark)
    want = mean_counts_per_pulse(signal) - mean_counts_per_pulse(dark)
    assert mean_counts_per_pulse(corr) == pytest.approx(want, abs=1e-12)


def test_subtract_dark_clamps_and_warns():
    signal = CountHistogram(100, np.array([95, 5]))
    dark = CountHistogram(100, np.array([90, 10]))
    with pytest.warns(DarkSubtractionWarning):
        corr = subtract_dark(signal, dark)
    assert corr.counts[1] == 0.0
    assert corr.meta["dark_clamped_bins"] == [1]


def test_histogram_validation():
    with pytest.raises(ValueError):
        CountHistogram(10, np.array([3, 3]))  # sum mismatch
    with pytest.raises(ValueError):
        CountHistogram(0, np.array([0]))
    with pytest.raises(ValueError):
        JointCountHistogram(5, np.ones((2, 2)))
    for bad in ([np.nan, 3.0], [np.inf, 3.0], [-np.inf, 3.0]):
        with pytest.raises(ValueError, match="finite"):
            CountHistogram(3, np.array(bad))
    with pytest.raises(ValueError, match="finite"):
        JointCountHistogram(4, np.array([[np.nan, 2.0], [1.0, 1.0]]))
