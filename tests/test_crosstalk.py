import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mppcsim import (
    CountHistogram,
    CrosstalkRangeWarning,
    DetectorParams,
    apply_channel,
    coefficient_a,
    coefficient_b,
    expected_coincidences,
    expected_total_counts,
    invert_g2,
    measured_g2,
    pmf_coherent,
    transform_counts_exact,
)


def coeffs_oracle(p):
    """Independent rational recomputation of the model coefficients."""
    pf = Fraction(p) if not isinstance(p, float) else Fraction(str(p))
    a = (1 + 2 * pf + 4 * pf**2) / (1 + pf + 2 * pf**2) ** 2
    b = 2 * pf * (1 + 3 * pf) / (1 + pf + 2 * pf**2)
    return float(a), float(b)


def test_transform_fixture_exact():
    out = transform_counts_exact([0, 1000], "0.1")
    assert out == [Fraction(0), Fraction(890), Fraction(100), Fraction(10)]


def test_transform_identity_at_zero():
    counts = [5, 7, 11, 13]
    out = transform_counts_exact(counts, 0)
    assert [int(v) for v in out[:4]] == counts
    assert out[4] == 0 and out[5] == 0


def test_transform_conserves_events_exactly():
    rng = np.random.default_rng(7)
    for _ in range(300):
        counts = rng.integers(0, 10_000, size=rng.integers(2, 13)).tolist()
        p = Fraction(int(rng.integers(0, 301)), 1000)
        out = transform_counts_exact(counts, p)
        assert sum(out) == sum(counts)  # exact rational equality


def test_aggregates_match_direct_count_on_transformed_bins():
    rng = np.random.default_rng(11)
    for _ in range(100):
        counts = rng.integers(0, 10_000, size=rng.integers(2, 13)).tolist()
        p = Fraction(int(rng.integers(0, 301)), 1000)
        out = transform_counts_exact(counts, p)
        coinc = sum(Fraction(k * (k - 1), 2) * v for k, v in enumerate(out))
        total = sum(k * v for k, v in enumerate(out))
        hist = CountHistogram(max(int(sum(counts)), 1), np.array(counts, float))
        assert float(coinc) == pytest.approx(
            expected_coincidences(hist, p), rel=1e-12
        )
        assert float(total) == pytest.approx(expected_total_counts(hist, p), rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=15).filter(any),
    p=st.integers(0, 600).map(lambda m: f"0.{m:03d}"),
)
def test_aggregates_are_exact_sums_over_conserved_transform(counts, p):
    hist = CountHistogram(sum(counts), np.array(counts))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CrosstalkRangeWarning)  # p > 0.3
        out = transform_counts_exact(counts, p)
        coinc = expected_coincidences(hist, p)
        total = expected_total_counts(hist, p)
    assert sum(out) == sum(counts)
    assert coinc == float(sum(Fraction(k * (k - 1), 2) * v for k, v in enumerate(out)))
    assert total == float(sum(k * v for k, v in enumerate(out)))


def test_aggregate_fixtures():
    singles = CountHistogram(1000, np.array([0, 1000]))
    assert expected_coincidences(singles, "0.1") == pytest.approx(130.0, abs=1e-12)
    assert expected_total_counts(singles, "0.1") == pytest.approx(1120.0, abs=1e-12)
    # direct count on the transformed output: C(2,2)*100 + C(3,2)*10 = 130
    out = transform_counts_exact([0, 1000], "0.1")
    assert out[2] * 1 + out[3] * 3 == 130
    doubles = CountHistogram(100, np.array([50, 0, 50]))
    assert expected_total_counts(doubles, "0.1") == pytest.approx(112.0, abs=1e-12)
    plain = CountHistogram(10, np.array([2, 4, 3, 1]))
    assert expected_coincidences(plain, 0) == pytest.approx(6.0, abs=1e-12)
    assert expected_total_counts(plain, 0) == pytest.approx(13.0, abs=1e-12)


def test_p_validation_and_warning():
    counts = [0, 10]
    with pytest.raises(ValueError):
        transform_counts_exact(counts, 0.7)
    with pytest.warns(CrosstalkRangeWarning):
        transform_counts_exact(counts, 0.4)


def test_p_range_boundaries_are_exact():
    counts = [0, 10]
    with pytest.warns(CrosstalkRangeWarning):
        assert sum(transform_counts_exact(counts, "0.6")) == 10
    with warnings.catch_warnings():
        warnings.simplefilter("error", CrosstalkRangeWarning)
        transform_counts_exact(counts, "0.3")
    with pytest.raises(ValueError):
        transform_counts_exact(counts, "0.6000001")


def test_coefficients_against_oracle():
    for p in (0.05, 0.1, 0.177, 0.3):
        a_ref, b_ref = coeffs_oracle(p)
        assert coefficient_a(p) == pytest.approx(a_ref, abs=1e-14)
        assert coefficient_b(p) == pytest.approx(b_ref, abs=1e-14)
    assert coefficient_a(0.1) == pytest.approx(0.98852, abs=1e-5)
    assert coefficient_b(0.1) == pytest.approx(0.23214, abs=1e-5)
    assert coefficient_a(0.177) == pytest.approx(0.96263, abs=1e-5)
    assert coefficient_b(0.177) == pytest.approx(0.43720, abs=1e-5)
    assert coefficient_a(0.0) == 1.0
    assert coefficient_b(0.0) == 0.0


def test_coefficient_bounds():
    ps = np.linspace(0.0, 0.6, 61)
    a = np.array([coefficient_a(p) for p in ps])
    b = np.array([coefficient_b(p) for p in ps])
    assert np.all(a <= 1.0 + 1e-15)
    assert np.all(np.diff(b) > 0)


def test_model_coefficient_container():
    assert coefficient_a(0.177) == pytest.approx(0.96263, abs=1e-5)


def test_measured_g2_values():
    assert measured_g2(0.0, 1.7, 0.3) == pytest.approx(1.7, abs=1e-15)
    a, b = coeffs_oracle(0.177)
    assert measured_g2(0.177, 1.0, 0.5) == pytest.approx(a + b / 0.5, abs=1e-12)
    with pytest.raises(ValueError):
        measured_g2(0.1, 1.0, 0.0)
    # an array of rates gives the scalar law at each of them
    n = np.array([0.05, 0.5, 3.0, 40.0])
    expect = [measured_g2(0.177, 1.3, float(v)) for v in n]
    assert np.array_equal(measured_g2(0.177, 1.3, n), expect)
    for bad in ([0.5, 0.0], [-1.0, 0.5]):
        with pytest.raises(ValueError):
            measured_g2(0.1, 1.0, np.array(bad))


def test_invert_g2_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(500):
        g0 = rng.uniform(0.0, 3.0)
        n = rng.uniform(1e-3, 10.0)
        p = rng.uniform(0.0, 0.6)
        forward = measured_g2(p, g0, n)
        assert invert_g2(forward, n, p) == pytest.approx(g0, abs=1e-10)
    assert invert_g2(1.23, 0.7, 0.0) == 1.23


def test_invert_g2_fixture():
    # arithmetic oracle: (1.5 - B/0.5)/A at p = 0.177
    a, b = coeffs_oracle(0.177)
    expected = (1.5 - b / 0.5) / a
    assert invert_g2(1.5, 0.5, 0.177) == pytest.approx(expected, abs=1e-12)
    assert invert_g2(1.5, 0.5, 0.177) == pytest.approx(0.64989, abs=1e-5)


def test_first_order_agreement_with_channel_model():
    # The histogram algebra and the one-neighbor channel disagree only at
    # O(p^2); the gap carries a 1/N amplification from the B-term, so the
    # bound scales accordingly.
    for lam in (0.05, 0.1):
        for p in (0.01, 0.03, 0.05):
            params = DetectorParams(eta=1.0, p_xt=p, n_max=60)
            out = apply_channel(pmf_coherent(lam), params)
            n = np.arange(out.probs.size)
            mean = float(n @ out.probs)
            fac2 = float((n * (n - 1)) @ out.probs)
            g2_channel = fac2 / mean**2
            g2_algebra = measured_g2(p, 1.0, mean)
            assert abs(g2_algebra - g2_channel) < 7 * p**2 * (1 + 1 / mean)
            # and the gap shrinks quadratically: halving p cuts it ~4x
            out_h = apply_channel(
                pmf_coherent(lam), DetectorParams(eta=1.0, p_xt=p / 2, n_max=60)
            )
            mean_h = float(n[: out_h.probs.size] @ out_h.probs)
            fac2_h = float(
                (n[: out_h.probs.size] * (n[: out_h.probs.size] - 1)) @ out_h.probs
            )
            gap = abs(g2_algebra - g2_channel)
            gap_h = abs(measured_g2(p / 2, 1.0, mean_h) - fac2_h / mean_h**2)
            assert gap_h < 0.35 * gap
