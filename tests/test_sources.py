import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from mppcsim import (
    CountHistogram,
    PhotonNumberDistribution,
    SourceSpec,
    UndefinedStatisticError,
    g2_from_histogram,
    pmf_coherent,
    pmf_even_poisson,
    pmf_fock,
    pmf_thermal,
    pmf_twin_multimode,
    true_g2_of_dist,
)
from mppcsim.sources import SOURCE_KINDS, TAIL_TARGET


def brute_poisson(mean, kmax=400):
    k = np.arange(kmax + 1)
    logs = -mean + k * np.log(mean) - [math.lgamma(i + 1) for i in k]
    return np.exp(logs)


def test_coherent_basics():
    assert pmf_coherent(0.0).probs[0] == 1.0
    d = pmf_coherent(1.0)
    assert d.probs[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert true_g2_of_dist(pmf_coherent(0.5)) == pytest.approx(1.0, abs=1e-10)


def test_coherent_matches_brute_force_series():
    d = pmf_coherent(2.5)
    ref = brute_poisson(2.5, d.k_max)
    assert np.allclose(d.probs, ref, atol=1e-13)


def test_coherent_rejects_negative_mean():
    with pytest.raises(ValueError):
        pmf_coherent(-0.1)


def test_even_poisson_fixture():
    # oracle: truncated even-k Poisson series, renormalized by its own sum
    mu = 2.0
    ref = brute_poisson(mu, 200)
    ref[1::2] = 0.0
    ref /= ref.sum()
    d = pmf_even_poisson(mu)
    assert d.probs[0] == pytest.approx(ref[0], abs=1e-12)
    assert d.probs[0] == pytest.approx(0.265802, abs=1e-6)
    assert d.probs[2] == pytest.approx(2 * d.probs[0], rel=1e-12)
    assert np.all(d.probs[1::2] == 0.0)
    # analytic mean identity, cross-checked by direct summation
    assert d.mean == pytest.approx(mu * math.tanh(mu), abs=1e-9)
    assert d.mean == pytest.approx(float(np.arange(ref.size) @ ref), abs=1e-9)
    assert d.mean == pytest.approx(1.9280552, abs=1e-6)


def test_even_poisson_vacuum():
    assert pmf_even_poisson(0.0).probs[0] == 1.0


def test_thermal_fixture():
    d = pmf_thermal(1.0)
    assert d.probs[0] == pytest.approx(0.5, abs=1e-12)
    assert d.probs[1] == pytest.approx(0.25, abs=1e-12)
    # geometric series oracle
    n = np.arange(d.k_max + 1)
    ref = 1.0**n / 2.0 ** (n + 1)
    assert np.allclose(d.probs, ref, atol=1e-13)


def test_thermal_g2_is_two():
    # brute-force truncated sum oracle for <n(n-1)>/<n>^2
    d = pmf_thermal(0.7)
    k = np.arange(d.probs.size)
    brute = float((k * (k - 1)) @ d.probs) / float(k @ d.probs) ** 2
    assert true_g2_of_dist(d) == pytest.approx(brute, abs=1e-12)
    assert true_g2_of_dist(d) == pytest.approx(2.0, abs=1e-9)


def test_thermal_second_moment():
    # <n^2> = 2<n>^2 + <n> for the geometric weight
    assert pmf_thermal(1.0).moment(2) == pytest.approx(3.0, abs=1e-9)


def test_twin_multimode_reduces_to_thermal():
    tw = pmf_twin_multimode(1.3, 1.0)
    th = pmf_thermal(1.3)
    width = min(tw.probs.size, th.probs.size)
    assert np.all(np.abs(tw.probs[:width] - th.probs[:width]) <= 1e-12)


def test_twin_multimode_vacuum_weight():
    assert pmf_twin_multimode(2.0, 2.0).probs[0] == pytest.approx(0.25, abs=1e-12)


def test_twin_multimode_many_modes_approaches_poisson():
    d = pmf_twin_multimode(1.0, 1000.0)
    pois = pmf_coherent(1.0)
    width = max(d.probs.size, pois.probs.size)
    a = np.zeros(width)
    a[: d.probs.size] = d.probs
    b = np.zeros(width)
    b[: pois.probs.size] = pois.probs
    assert 0.5 * np.abs(a - b).sum() < 0.01


def test_twin_multimode_rejects_bad_modes():
    with pytest.raises(ValueError):
        pmf_twin_multimode(1.0, 0.5)


def test_fock_values():
    assert pmf_fock(0).probs[0] == 1.0
    assert true_g2_of_dist(pmf_fock(2)) == pytest.approx(0.5, abs=1e-15)
    assert true_g2_of_dist(pmf_fock(1)) == 0.0
    assert pmf_fock(3).moment(2) == 9.0
    assert pmf_coherent(2.0).moment(1) == pytest.approx(2.0, abs=1e-10)


def test_g2_undefined_for_vacuum():
    with pytest.raises(UndefinedStatisticError):
        true_g2_of_dist(pmf_fock(0))


@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0, 5.0])
def test_poisson_g2_is_one(lam):
    assert true_g2_of_dist(pmf_coherent(lam)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "dist, mean",
    [
        pytest.param(pmf_coherent(0.3), 0.3, id="coherent-0.3"),
        pytest.param(pmf_coherent(7.0), 7.0, id="coherent-7"),
        pytest.param(pmf_even_poisson(2.2), 2.2 * math.tanh(2.2), id="even_poisson-2.2"),
        pytest.param(pmf_thermal(1.7), 1.7, id="thermal-1.7"),
        pytest.param(pmf_twin_multimode(2.4, 3.5), 2.4, id="twin_multimode-2.4"),
        pytest.param(pmf_fock(4), 4.0, id="fock-4"),
    ],
)
def test_normalization_and_mean(dist, mean):
    assert abs(dist.probs.sum() + dist.tail_bound - 1.0) <= 1e-12
    assert dist.tail_bound <= 1e-12
    assert dist.mean == pytest.approx(mean, abs=1e-9)


def mass_beyond(spec, k_max):
    """Oracle: the source's mass beyond ``k_max``, summed term by term far
    past it."""
    if spec.kind == "fock":
        return float(spec.fock_n > k_max)
    m = spec.mean
    if m == 0:
        return 0.0
    k = np.arange(k_max + 1, k_max + 1000 + int(60 * (m + 10)))
    if spec.kind == "coherent":
        return stats.poisson.pmf(k, m).sum()
    if spec.kind == "even_poisson":
        return (stats.poisson.pmf(k, m) * (1 + (-1.0) ** k)).sum() / (1 + math.exp(-2 * m))
    r = spec.modes if spec.kind == "twin_multimode" else 1.0
    return stats.nbinom.pmf(k, r, 1 / (1 + m / r)).sum()


@pytest.mark.parametrize("kind", SOURCE_KINDS)
def test_true_g2_is_the_histogram_estimator_on_the_law(kind):
    # a probability vector is the histogram of one trial
    dist = SourceSpec(kind, mean=2.5, modes=3.0, fock_n=4).distribution()
    assert true_g2_of_dist(dist) == g2_from_histogram(CountHistogram(1, dist.probs)).value


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(SOURCE_KINDS),
    mean=st.floats(0.0, 300.0),
    modes=st.floats(1.0, 20.0),
    fock_n=st.integers(0, 60),
)
@example("coherent", 297.209, 1.0, 0)  # its pmf sums to 1 + 9.9e-14
def test_tail_bound_covers_the_mass_beyond_k_max(kind, mean, modes, fock_n):
    spec = SourceSpec(kind, mean, modes, fock_n)
    dist = spec.distribution()
    assert dist.tail_bound <= TAIL_TARGET
    # scipy's sf underflows to 0 below the smallest normal float
    tiny = np.finfo(float).tiny
    assert dist.tail_bound >= mass_beyond(spec, dist.k_max) * (1 - 1e-9) - tiny


def test_distribution_invariants_enforced():
    with pytest.raises(ValueError):
        PhotonNumberDistribution(np.array([0.5, 0.1]))  # mass missing
    with pytest.raises(ValueError):
        PhotonNumberDistribution(np.array([1.0]))  # k_max < 1
    for bad in ([np.nan, np.nan], [np.inf, 0.0], [1.0, -np.inf], [1.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            PhotonNumberDistribution(np.array(bad))
    with pytest.raises(ValueError):
        PhotonNumberDistribution(np.array([1.0, 0.0]), tail_bound=np.nan)


@pytest.mark.parametrize("mean", [1e4, 1e5, 1e6])
def test_bright_coherent_pmf_constructs(mean):
    d = pmf_coherent(mean)
    assert d.mean == pytest.approx(mean, rel=1e-9)


def test_normalization_still_rejects_a_visible_deficit():
    probs = pmf_coherent(3.0).probs.copy()
    probs[0] -= 1e-6
    with pytest.raises(ValueError, match="not normalized"):
        PhotonNumberDistribution(probs)
    big = pmf_coherent(1e4)
    with pytest.raises(ValueError, match="not normalized"):
        PhotonNumberDistribution(big.probs * (1 - 1e-6), big.tail_bound)


def test_source_spec_dispatch():
    spec = SourceSpec("even_poisson", mean=2.0)
    assert spec.distribution().probs[0] == pytest.approx(0.265802, abs=1e-6)
    assert not spec.is_twin
    assert SourceSpec("twin_thermal", mean=1.0).is_twin
    fock = SourceSpec("fock", fock_n=2)
    assert fock.distribution().probs[2] == 1.0
    with pytest.raises(ValueError):
        SourceSpec("squeezed")
    with pytest.raises(ValueError):
        SourceSpec("coherent", mean=-1.0)
    with pytest.raises(ValueError):
        SourceSpec("twin_multimode", mean=1.0, modes=0.2)
    for value in (np.nan, np.inf, -np.inf):
        for field in ("mean", "modes", "fock_n"):
            with pytest.raises(ValueError, match=field):
                SourceSpec("twin_multimode", **{field: value})


AFTER_LOSS_SPECS = [
    SourceSpec("coherent", mean=3.0),
    SourceSpec("even_poisson", mean=2.2),
    SourceSpec("even_poisson", mean=25.0),
    SourceSpec("fock", fock_n=5),
    SourceSpec("fock", fock_n=0),
    SourceSpec("thermal", mean=2.5),
    SourceSpec("twin_thermal", mean=1.5),
    SourceSpec("twin_multimode", mean=4.0, modes=3.5),
]


def _spec_id(spec):
    return f"{spec.kind}-{spec.fock_n if spec.kind == 'fock' else spec.mean}"


@pytest.mark.parametrize("eta", [0.0, 0.2, 0.63, 1.0])
@pytest.mark.parametrize("spec", AFTER_LOSS_SPECS, ids=_spec_id)
def test_after_loss_matches_explicit_thinning(spec, eta):
    # oracle: every photon of the source law survives with probability eta
    full = spec.distribution()
    k = np.arange(full.probs.size)
    thinned = stats.binom.pmf(k[:, None], k[None, :], eta) @ full.probs
    got = spec.after_loss(eta)
    width = max(got.probs.size, thinned.size)
    a = np.zeros(width)
    a[: got.probs.size] = got.probs
    b = np.zeros(width)
    b[: thinned.size] = thinned
    assert np.abs(a - b).max() <= 1e-12
    assert got.tail_bound <= 1e-12
    assert got.mean == pytest.approx(eta * full.mean, abs=1e-9)


@pytest.mark.parametrize("spec", AFTER_LOSS_SPECS, ids=_spec_id)
def test_after_loss_at_unit_efficiency_is_the_source(spec):
    full, kept = spec.distribution(), spec.after_loss(1.0)
    assert np.array_equal(kept.probs, full.probs)
    assert kept.tail_bound == full.tail_bound
    for eta in (-0.1, 1.1):
        with pytest.raises(ValueError):
            spec.after_loss(eta)
