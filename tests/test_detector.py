import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from mppcsim import (
    DetectorParams,
    JointPhotocountDistribution,
    PovmMatrix,
    UndefinedStatisticError,
    apply_channel,
    build_povm,
    channel_matrix,
    joint_independent,
    joint_photocount,
    nrf_analytic,
    nrf_limit_coherent,
    nrf_limit_sv,
    pmf_coherent,
    pmf_fock,
    pmf_thermal,
)
from mppcsim.detector import _binom_columns


def enumerate_crosstalk(n, p):
    """Oracle: each of n avalanches independently adds one extra count."""
    out = {}
    for pattern in itertools.product((0, 1), repeat=n):
        m = n + sum(pattern)
        w = math.prod(p if b else 1 - p for b in pattern)
        out[m] = out.get(m, 0.0) + w
    return out


def enumerate_loss(k, eta):
    """Oracle: each of k photons independently survives with probability eta."""
    out = {}
    for pattern in itertools.product((0, 1), repeat=k):
        n = sum(pattern)
        w = math.prod(eta if b else 1 - eta for b in pattern)
        out[n] = out.get(n, 0.0) + w
    return out


def crosstalk_column(n, p, n_max=64):
    """P(m counts | n avalanches) as column n of the channel at eta 1 with no
    dark counts; n_max lies above the support m <= 2n."""
    params = DetectorParams(eta=1.0, p_xt=p, n_max=n_max)
    return channel_matrix(params, max(n, 1))[:, n]


def loss_column(k, eta, n_max=64):
    """P(n avalanches | k photons) as column k of the channel at p_xt 0."""
    params = DetectorParams(eta=eta, p_xt=0.0, n_max=n_max)
    return channel_matrix(params, max(k, 1))[:, k]


def test_crosstalk_kernel_single_avalanche():
    assert crosstalk_column(1, 0.3)[1] == pytest.approx(0.7)
    assert crosstalk_column(1, 0.3)[2] == pytest.approx(0.3)
    assert crosstalk_column(0, 0.3)[0] == 1.0


def test_crosstalk_kernel_matches_enumeration():
    for n in (2, 3, 5):
        ref = enumerate_crosstalk(n, 0.2)
        for m in range(n, 2 * n + 1):
            assert crosstalk_column(n, 0.2)[m] == pytest.approx(ref[m], abs=1e-12)
    assert crosstalk_column(2, 0.2)[2] == pytest.approx(0.64, abs=1e-12)
    assert crosstalk_column(2, 0.2)[3] == pytest.approx(0.32, abs=1e-12)
    assert crosstalk_column(2, 0.2)[4] == pytest.approx(0.04, abs=1e-12)


def test_crosstalk_kernel_support_and_domain():
    assert crosstalk_column(2, 0.2)[5] == 0.0
    assert crosstalk_column(2, 0.2)[1] == 0.0
    with pytest.raises(ValueError):
        crosstalk_column(1, 1.0)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.6])
def test_crosstalk_kernel_normalization(p):
    for n in (0, 1, 5, 17, 30):
        total = sum(crosstalk_column(n, p)[m] for m in range(n, 2 * n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_efficiency_kernel_values():
    vals = [loss_column(3, 0.5)[n] for n in range(4)]
    assert vals == pytest.approx([0.125, 0.375, 0.375, 0.125])
    assert loss_column(4, 1.0)[4] == 1.0
    ref = enumerate_loss(2, 0.3)
    assert loss_column(2, 0.3)[1] == pytest.approx(ref[1], abs=1e-12)
    assert loss_column(2, 0.3)[1] == pytest.approx(0.42, abs=1e-12)
    assert loss_column(2, 0.3)[3] == 0.0  # out of support


def test_efficiency_kernel_normalization():
    for k in (0, 1, 7, 30):
        total = sum(loss_column(k, 0.37)[n] for n in range(k + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_povm_saturation_clamp():
    povm = build_povm(DetectorParams(eta=1.0, p_xt=0.0, n_max=2), 5)
    assert povm.q[2, 5] == pytest.approx(1.0, abs=1e-12)
    assert povm.q[0, 5] == 0.0


def test_povm_column_fixture():
    # hand composition: k=1 photon, eta=0.5, then one avalanche crosstalks at 0.2
    povm = build_povm(DetectorParams(eta=0.5, p_xt=0.2, n_max=5), 3)
    assert povm.q[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert povm.q[1, 1] == pytest.approx(0.4, abs=1e-12)
    assert povm.q[2, 1] == pytest.approx(0.1, abs=1e-12)


def test_povm_completeness_small_grid():
    for eta, p, n_max in itertools.product((0.3, 1.0), (0.0, 0.25), (3, 50)):
        povm = build_povm(DetectorParams(eta=eta, p_xt=p, n_max=n_max), 40)
        assert np.allclose(povm.q.sum(axis=0), 1.0, atol=1e-10)
        assert np.all(povm.q >= 0.0) and np.all(povm.q <= 1.0)


def test_povm_matrix_validates():
    params = DetectorParams(eta=0.5, p_xt=0.1, n_max=2)
    good = build_povm(params, 3)
    bad = good.q.copy()
    bad[0, 0] = 0.5
    with pytest.raises(ValueError):
        PovmMatrix(bad, params, 3)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            PovmMatrix(np.full_like(good.q, value), params, 3)
        bad = good.q.copy()
        bad[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            PovmMatrix(bad, params, 3)


def test_joint_table_validates():
    with pytest.raises(ValueError):
        JointPhotocountDistribution(np.full((2, 2), 0.3))  # mass 1.2
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            JointPhotocountDistribution(np.full((3, 3), value))
        table = np.full((2, 2), 0.25)
        table[0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            JointPhotocountDistribution(table)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 120),
    cols=st.integers(0, 300),
    # scipy's own pmf strays by up to 3e-14 at p below about 1e-16
    p=st.sampled_from([0.0, 1.0]) | st.floats(1e-9, 1.0),
)
@example(rows=400, cols=1404, p=0.2)
@example(rows=5, cols=30, p=0.0)
@example(rows=5, cols=30, p=1.0)
@example(rows=40, cols=30, p=1.0)
@example(rows=50, cols=3, p=0.4)
@example(rows=1, cols=200, p=0.3)
@example(rows=1, cols=0, p=0.5)
def test_binom_columns_match_scipy(rows, cols, p):
    m = _binom_columns(rows, cols, p)
    ref = stats.binom.pmf(np.arange(rows)[:, None], np.arange(cols + 1)[None, :], p)
    assert m.shape == (rows, cols + 1)
    # each column step rounds once; at tiny p the entries near 1 drift by
    # up to one unit in the last place per step, so wide grids get cols ulps
    assert np.max(np.abs(m - ref)) <= max(1e-14, cols * 2.0**-53)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    eta=st.floats(0.0, 1.0),
    p=st.floats(0.0, 0.95),
    n_max=st.integers(1, 400),
    dark_mean=st.sampled_from([0.0, 0.1, 5.0]),
    source=st.sampled_from([pmf_coherent, pmf_thermal]),
    mean=st.floats(0.0, 300.0),
)
@example(eta=0.5, p=0.3, n_max=8, dark_mean=0.0, source=pmf_coherent, mean=297.209)
@example(eta=0.2, p=0.177, n_max=400, dark_mean=0.1, source=pmf_coherent, mean=1000.0)
@example(eta=1.0, p=0.0, n_max=1, dark_mean=0.0, source=pmf_thermal, mean=0.0)
def test_apply_channel_is_the_channel_matrix_applied(eta, p, n_max, dark_mean, source, mean):
    params = DetectorParams(eta, p, n_max, dark_mean, pixel_count=n_max)
    dist = source(mean if source is pmf_coherent else mean / 6.0)
    out = apply_channel(dist, params)
    ref = channel_matrix(params, dist.k_max) @ dist.probs
    assert np.max(np.abs(out.probs[:-1] - ref[:-1])) <= 1e-14
    # the saturation bin completes the input's mass to 1 - tail, not to the
    # sum of its probabilities, which can differ from 1 - tail by rounding
    assert out.tail_bound == dist.tail_bound
    excess = abs(dist.probs.sum() + dist.tail_bound - 1.0)
    assert abs(out.probs.sum() - (1.0 - dist.tail_bound)) <= excess + 1e-14
    assert abs(out.probs[-1] - ref[-1]) <= excess + 1e-14


def test_apply_channel_keeps_saturated_inputs_in_range():
    # the coherent pmf sums to 1 + 9.9e-14 here, and all of it saturates
    dist = pmf_coherent(297.209)
    params = DetectorParams(eta=0.5, p_xt=0.3, n_max=8)
    out = apply_channel(dist, params)
    assert out.probs[-1] <= 1.0
    assert out.probs.sum() + out.tail_bound == pytest.approx(1.0, abs=1e-15)
    joint = joint_independent(dist, dist, params, params)
    assert joint.probs[-1, -1] == pytest.approx(1.0, abs=1e-15)


def test_apply_channel_fock_fixture():
    out = apply_channel(pmf_fock(1), DetectorParams(eta=0.5, p_xt=0.2, n_max=5))
    assert out.probs[0] == pytest.approx(0.5, abs=1e-12)
    assert out.probs[1] == pytest.approx(0.4, abs=1e-12)
    assert out.probs[2] == pytest.approx(0.1, abs=1e-12)


def test_apply_channel_vacuum():
    out = apply_channel(pmf_fock(0), DetectorParams(eta=0.7, p_xt=0.3, n_max=4))
    assert out.probs[0] == 1.0


def test_apply_channel_identity_when_ideal():
    dist = pmf_coherent(2.0)
    out = apply_channel(dist, DetectorParams(eta=1.0, p_xt=0.0, n_max=dist.k_max))
    assert np.all(np.abs(out.probs - dist.probs) <= 1e-12)


def test_apply_channel_mean_matches_moment_operator():
    dist = pmf_coherent(3.0)
    params = DetectorParams(eta=0.5, p_xt=0.1, n_max=10)
    out = apply_channel(dist, params)
    mean = float(np.arange(out.probs.size) @ out.probs)
    assert mean == pytest.approx(apply_channel(dist, params).moment(1), abs=1e-10)


def test_small_intensity_gain_is_eta_times_one_plus_p():
    lam = 1e-4
    params = DetectorParams(eta=0.4, p_xt=0.15, n_max=50)
    mean = apply_channel(pmf_coherent(lam), params).moment(1)
    assert mean / lam == pytest.approx(0.4 * 1.15, abs=1e-9)


def test_photocount_moments_fock_fixtures():
    ideal = DetectorParams(eta=1.0, p_xt=0.0, n_max=3)
    assert apply_channel(pmf_fock(1), ideal).moment(1) == pytest.approx(1.0)
    assert apply_channel(pmf_fock(1), ideal).moment(2) == pytest.approx(1.0)
    lossy = DetectorParams(eta=0.5, p_xt=0.2, n_max=3)
    assert apply_channel(pmf_fock(1), lossy).moment(1) == pytest.approx(0.6, abs=1e-12)
    assert apply_channel(pmf_fock(1), lossy).moment(2) == pytest.approx(0.8, abs=1e-12)


def test_saturation_monotone_in_n_max():
    dist = pmf_coherent(4.0)
    means = [
        apply_channel(dist, DetectorParams(eta=0.8, p_xt=0.1, n_max=n)).moment(1)
        for n in (20, 8, 4, 2, 1)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))


def test_dark_counts_match_compound_oracle():
    # vacuum input: counts are Poisson dark avalanches, each crosstalking once
    lam, p = 0.3, 0.2
    params = DetectorParams(eta=1.0, p_xt=p, n_max=30, dark_mean=lam)
    out = apply_channel(pmf_fock(0), params)
    ref = np.zeros(out.probs.size)
    for d in range(40):
        w = math.exp(-lam) * lam**d / math.factorial(d)
        for extra in range(d + 1):
            n = d + extra
            if n < ref.size:
                ref[n] += w * math.comb(d, extra) * p**extra * (1 - p) ** (d - extra)
    assert np.allclose(out.probs[:-1], ref[:-1], atol=1e-12)


def test_dark_free_channel_equals_povm():
    params = DetectorParams(eta=0.6, p_xt=0.15, n_max=6, dark_mean=0.0)
    assert np.array_equal(channel_matrix(params, 12), build_povm(params, 12).q)


def full_grid_response(eta, p, n_max, k_max, dark_mean, mode="binomial"):
    """Oracle: every avalanche row and, for ``binomial`` crosstalk, all 2a+1
    crosstalk rows (for ``cascade``, every row below the clamp), then the
    clamp."""
    ks = np.arange(k_max + 1)
    qe = stats.binom.pmf(ks[:, None], ks[None, :], eta)
    dark = pmf_coherent(dark_mean).probs
    avalanches = np.zeros((k_max + dark.size, k_max + 1))
    for d, w in enumerate(dark):
        avalanches[d : d + k_max + 1, :] += w * qe
    a_all = np.arange(avalanches.shape[0])
    if mode == "binomial":
        big_n = np.arange(2 * a_all[-1] + 1)
        xt = stats.binom.pmf(big_n[:, None] - a_all[None, :], a_all[None, :], p)
    else:
        big_n = np.arange(n_max)
        xt = np.zeros((n_max, a_all.size))
        xt[0, 0] = 1.0
        a = a_all[None, 1:]
        xt[:, 1:] = stats.nbinom.pmf(big_n[:, None] - a, a, 1.0 - p)
    unsat = xt @ avalanches
    q = np.zeros((n_max + 1, k_max + 1))
    rows = min(n_max, unsat.shape[0])
    q[:rows, :] = unsat[:rows, :]
    q[n_max, :] = np.maximum(1.0 - q[:n_max, :].sum(axis=0), 0.0)
    return q


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    eta=st.floats(0.0, 1.0),
    p=st.floats(0.0, 0.95),
    n_max=st.integers(1, 400),
    k_max=st.integers(1, 600),
    dark_mean=st.sampled_from([0.0, 0.1, 5.0]),
    crosstalk_mode=st.sampled_from(["binomial", "cascade"]),
)
@example(eta=0.6, p=0.3, n_max=400, k_max=3, dark_mean=5.0, crosstalk_mode="binomial")
@example(eta=0.6, p=0.3, n_max=20, k_max=3, dark_mean=0.0, crosstalk_mode="binomial")
@example(eta=0.6, p=0.3, n_max=1, k_max=50, dark_mean=0.1, crosstalk_mode="binomial")
@example(eta=0.0, p=0.5, n_max=7, k_max=30, dark_mean=0.1, crosstalk_mode="binomial")
@example(eta=1.0, p=0.5, n_max=7, k_max=30, dark_mean=0.0, crosstalk_mode="binomial")
@example(eta=1.0, p=0.0, n_max=40, k_max=30, dark_mean=5.0, crosstalk_mode="binomial")
@example(eta=0.6, p=0.3, n_max=400, k_max=3, dark_mean=5.0, crosstalk_mode="cascade")
@example(eta=0.6, p=0.3, n_max=1, k_max=50, dark_mean=0.1, crosstalk_mode="cascade")
@example(eta=1.0, p=0.0, n_max=40, k_max=30, dark_mean=5.0, crosstalk_mode="cascade")
@example(eta=0.2, p=0.6, n_max=400, k_max=600, dark_mean=0.1, crosstalk_mode="cascade")
def test_channel_matrix_matches_full_grid(eta, p, n_max, k_max, dark_mean, crosstalk_mode):
    params = DetectorParams(eta, p, n_max, dark_mean, pixel_count=n_max)
    q = channel_matrix(params, k_max, crosstalk_mode)
    ref = full_grid_response(eta, p, n_max, k_max, dark_mean, crosstalk_mode)
    assert q.shape == ref.shape
    # the package builds the cascade rows in logs, the oracle with scipy
    assert np.max(np.abs(q - ref)) <= (1e-13 if crosstalk_mode == "binomial" else 1e-12)
    assert np.all(np.abs(q.sum(axis=0) - 1.0) <= 1e-12)


def test_channel_matrix_rejects_unknown_crosstalk_mode():
    with pytest.raises(ValueError, match="crosstalk_mode"):
        channel_matrix(DetectorParams(eta=0.5, p_xt=0.1, n_max=4), 3, "paper")
    with pytest.raises(ValueError, match="crosstalk_mode"):
        joint_photocount(pmf_fock(1), DetectorParams(eta=0.5), DetectorParams(eta=0.5), "x")


@pytest.mark.parametrize("a", [1, 3, 8])
def test_cascade_columns_match_generational_branching(a):
    # independent reference: every avalanche triggers one more with
    # probability p, generation by generation, until the chain dies out
    p, n_max, trials = 0.35, 60, 200_000
    rng = np.random.default_rng(1000 + a)
    total = np.full(trials, a)
    active = total.copy()
    while active.any():
        active = rng.binomial(active, p)
        total += active
    observed = np.bincount(np.minimum(total, n_max), minlength=n_max + 1)
    column = channel_matrix(DetectorParams(eta=1.0, p_xt=p, n_max=n_max), a, "cascade")[:, a]
    expected = trials * column
    big = expected >= 5
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    assert stats.chi2.sf(((obs - exp) ** 2 / exp).sum(), obs.size - 1) > 1e-7


def test_joint_photocount_fixtures():
    ideal = DetectorParams(eta=1.0, p_xt=0.0, n_max=3)
    half = DetectorParams(eta=0.5, p_xt=0.0, n_max=3)
    j = joint_photocount(pmf_fock(1), ideal, ideal)
    assert j.probs[1, 1] == pytest.approx(1.0, abs=1e-12)
    j2 = joint_photocount(pmf_fock(1), ideal, half)
    assert j2.probs[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert j2.probs[1, 0] == pytest.approx(0.5, abs=1e-12)


def test_joint_marginals_match_single_arm():
    pair = pmf_thermal(0.8)
    a = DetectorParams(eta=0.4, p_xt=0.2, n_max=5, dark_mean=0.01)
    b = DetectorParams(eta=0.7, p_xt=0.1, n_max=4)
    j = joint_photocount(pair, a, b)
    assert np.allclose(j.probs.sum(axis=1), apply_channel(pair, a).probs, atol=1e-12)
    assert np.allclose(j.probs.sum(axis=0), apply_channel(pair, b).probs, atol=1e-12)


def test_joint_independent_factorizes():
    a = DetectorParams(eta=0.5, p_xt=0.1, n_max=4)
    d1, d2 = pmf_coherent(0.5), pmf_thermal(0.5)
    j = joint_independent(d1, d2, a, a)
    out1 = apply_channel(d1, a).probs
    out2 = apply_channel(d2, a).probs
    assert np.array_equal(j.probs, np.outer(out1, out2))
    vac = joint_independent(pmf_fock(0), pmf_fock(0), a, a)
    assert vac.probs[0, 0] == pytest.approx(1.0, abs=1e-12)


def nrf_moment_expansion(probs):
    """Oracle: Var(N_s - N_i)/<N_s + N_i> from the six moment terms."""
    n_s = np.arange(probs.shape[0], dtype=float)
    n_i = np.arange(probs.shape[1], dtype=float)
    ps, pi = probs.sum(axis=1), probs.sum(axis=0)
    m_s, m_i = n_s @ ps, n_i @ pi
    m_si = n_s @ probs @ n_i
    var = (n_s**2) @ ps - m_s**2 + (n_i**2) @ pi - m_i**2 - 2 * m_si + 2 * m_s * m_i
    return var / (m_s + m_i)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    mean=st.floats(1e-3, 8.0),
    eta=st.floats(0.05, 1.0),
    p=st.floats(0.0, 0.6),
    n_max=st.integers(1, 30),
    twin=st.booleans(),
)
def test_nrf_matches_moment_expansion(mean, eta, p, n_max, twin):
    params = DetectorParams(eta=eta, p_xt=p, n_max=n_max, dark_mean=0.01)
    if twin:
        joint = joint_photocount(pmf_thermal(mean), params, params)
    else:
        coh = pmf_coherent(mean)
        joint = joint_independent(coh, coh, params, params)
    ref = nrf_moment_expansion(joint.probs)
    assert nrf_analytic(joint) == pytest.approx(ref, rel=1e-13, abs=1e-15)


def test_nrf_trivial_cases():
    diag = np.zeros((3, 3))
    diag[1, 1] = 0.6
    diag[2, 2] = 0.4
    assert nrf_analytic(JointPhotocountDistribution(diag)) == pytest.approx(0.0)
    ideal = DetectorParams(eta=1.0, p_xt=0.0, n_max=60)
    lam = pmf_coherent(1.5)
    j = joint_independent(lam, lam, ideal, ideal)
    assert nrf_analytic(j) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(UndefinedStatisticError):
        vac = np.zeros((2, 2))
        vac[0, 0] = 1.0
        nrf_analytic(JointPhotocountDistribution(vac))


def brute_nrf(probs):
    """Oracle: plain-python moment sums over the joint table."""
    m_s = m_i = m_s2 = m_i2 = m_si = 0.0
    for i in range(probs.shape[0]):
        for j in range(probs.shape[1]):
            w = probs[i, j]
            m_s += i * w
            m_i += j * w
            m_s2 += i * i * w
            m_i2 += j * j * w
            m_si += i * j * w
    var = m_s2 - m_s**2 + m_i2 - m_i**2 - 2 * m_si + 2 * m_s * m_i
    return var / (m_s + m_i)


def test_nrf_reference_point_matches_closed_form():
    params = DetectorParams(eta=0.163, p_xt=0.28, n_max=3)
    j = joint_photocount(pmf_thermal(1e-3), params, params)
    value = nrf_analytic(j)
    assert value == pytest.approx(brute_nrf(j.probs), abs=1e-12)
    assert value == pytest.approx(1.22886, abs=2e-3)


def test_nrf_limits():
    assert nrf_limit_coherent(0.0) == 1.0
    assert nrf_limit_coherent(0.28) == pytest.approx(1.4375, abs=1e-12)
    assert nrf_limit_sv(0.28, 0.163) == pytest.approx(1.22886, abs=1e-5)
    p, eta = 0.17, 0.42
    assert nrf_limit_coherent(p) - nrf_limit_sv(p, eta) == pytest.approx(
        (1 + p) * eta, abs=1e-14
    )
    with pytest.raises(ValueError):
        nrf_limit_sv(0.2, 1.5)


def test_nrf_twin_below_coherent_across_intensities():
    params = DetectorParams(eta=0.163, p_xt=0.28, n_max=3)
    for mean in (1e-3, 0.1, 1.0, 3.0, 6.0):
        twin = nrf_analytic(joint_photocount(pmf_thermal(mean), params, params))
        coh_dist = pmf_coherent(mean)
        coh = nrf_analytic(joint_independent(coh_dist, coh_dist, params, params))
        assert twin < coh


def test_nrf_decreases_under_saturation():
    params = DetectorParams(eta=0.163, p_xt=0.28, n_max=3)
    means = np.geomspace(0.1, 6.0, 8)
    twin = [
        nrf_analytic(joint_photocount(pmf_thermal(m), params, params)) for m in means
    ]
    coh = [
        nrf_analytic(
            joint_independent(pmf_coherent(m), pmf_coherent(m), params, params)
        )
        for m in means
    ]
    assert all(a > b for a, b in zip(twin, twin[1:]))
    assert all(a > b for a, b in zip(coh, coh[1:]))


def test_detector_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(eta=1.2)
    with pytest.raises(ValueError):
        DetectorParams(eta=0.5, p_xt=1.0)
    with pytest.raises(ValueError):
        DetectorParams(eta=0.5, n_max=0)
    with pytest.raises(ValueError):
        DetectorParams(eta=0.5, dark_mean=-0.1)
    with pytest.raises(ValueError):
        DetectorParams(eta=0.5, n_max=500, pixel_count=400)
    for value in (np.nan, np.inf, -np.inf):
        for field in ("eta", "p_xt", "n_max", "dark_mean", "pixel_count"):
            with pytest.raises(ValueError, match=field):
                DetectorParams(**{"eta": 0.5, field: value})
