import csv
import gc
import hashlib
import io
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mppcsim import (
    DetectorParams,
    apply_channel,
    SimulationConfig,
    SourceSpec,
    channel_matrix,
    g2_cross_from_joint,
    joint_photocount,
    mean_counts_per_pulse,
    nrf_from_joint,
    pmf_coherent,
    simulate_independent,
    simulate_single,
    simulate_twin,
    sweep,
)
from mppcsim.detector import _count_law
from mppcsim.histograms import SweepSeries
from mppcsim import montecarlo
from mppcsim.montecarlo import CHUNK, EventRecord, read_events


def single_cfg(**kw):
    base = dict(
        source=SourceSpec("coherent", mean=1.0),
        detector_s=DetectorParams(eta=0.5, p_xt=0.1, n_max=10),
        trials=50_000,
        seed=11,
    )
    base.update(kw)
    return SimulationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        single_cfg(trials=0)
    with pytest.raises(ValueError):
        single_cfg(seed=-1)
    with pytest.raises(ValueError):
        single_cfg(seed=1.5)
    with pytest.raises(ValueError):
        single_cfg(crosstalk_mode="other")
    with pytest.raises(ValueError):
        SimulationConfig(
            source=SourceSpec("twin_thermal", mean=1.0),
            detector_s=DetectorParams(eta=1.0),
            trials=10,
        )


def test_deterministic_repeat():
    a = simulate_single(single_cfg(trials=2 * CHUNK + 177))
    b = simulate_single(single_cfg(trials=2 * CHUNK + 177))
    assert np.array_equal(a.counts, b.counts)


def test_chunk_streams_are_order_independent():
    # the first chunk's draws do not depend on how many trials follow
    long = simulate_single(single_cfg(trials=CHUNK + 500))
    short = simulate_single(single_cfg(trials=CHUNK))
    tail = simulate_single(single_cfg(trials=CHUNK + 500)).counts - short.counts
    assert np.all(tail >= 0)
    assert tail.sum() == 500
    assert long.counts.sum() == CHUNK + 500


def test_fock_deterministic_channel():
    cfg = single_cfg(
        source=SourceSpec("fock", fock_n=2),
        detector_s=DetectorParams(eta=1.0, p_xt=0.0, n_max=5),
        trials=1000,
    )
    hist = simulate_single(cfg)
    assert hist.counts[2] == 1000


def test_dark_and_source_off_gives_vacuum():
    cfg = single_cfg(
        source=SourceSpec("coherent", mean=0.0),
        detector_s=DetectorParams(eta=1.0, p_xt=0.2, n_max=5, dark_mean=0.0),
        trials=5000,
    )
    assert simulate_single(cfg).counts[0] == 5000


def test_totals_and_saturation():
    cfg = single_cfg(
        source=SourceSpec("coherent", mean=6.0),
        detector_s=DetectorParams(eta=0.9, p_xt=0.2, n_max=4),
        trials=30_000,
    )
    hist = simulate_single(cfg)
    assert hist.counts.sum() == cfg.trials
    assert hist.counts.size == 5  # nothing beyond n_max


def test_mean_against_moment_operator():
    dist = pmf_coherent(3.0)
    params = DetectorParams(eta=0.5, p_xt=0.1, n_max=10)
    cfg = single_cfg(
        source=SourceSpec("coherent", mean=3.0), detector_s=params, trials=200_000
    )
    hist = simulate_single(cfg)
    mean = mean_counts_per_pulse(hist)
    truth = apply_channel(dist, params).moment(1)
    m2 = apply_channel(dist, params).moment(2)
    se = np.sqrt((m2 - truth**2) / cfg.trials)
    assert abs(mean - truth) < 4 * se


def test_binomial_mode_matches_povm_column():
    params = DetectorParams(eta=0.5, p_xt=0.3, n_max=8)
    cfg = single_cfg(
        source=SourceSpec("fock", fock_n=3),
        detector_s=params,
        trials=200_000,
        seed=21,
    )
    hist = simulate_single(cfg)
    freq = hist.counts / cfg.trials
    column = channel_matrix(params, 3)[:, 3]
    se = np.sqrt(np.maximum(column * (1 - column), 1e-12) / cfg.trials)
    assert np.all(np.abs(freq - column) <= 5 * se + 1e-9)


def test_cascade_exceeds_binomial_by_p_squared():
    p = 0.1
    trials = 2_000_000
    params = DetectorParams(eta=1.0, p_xt=p, n_max=50)
    src = SourceSpec("fock", fock_n=1)
    mean_b = mean_counts_per_pulse(
        simulate_single(single_cfg(source=src, detector_s=params, trials=trials))
    )
    mean_c = mean_counts_per_pulse(
        simulate_single(
            single_cfg(
                source=src,
                detector_s=params,
                trials=trials,
                crosstalk_mode="cascade",
            )
        )
    )
    diff = mean_c - mean_b
    assert 0.5 * p**2 <= diff <= 2 * p**2


@pytest.mark.parametrize("fock_n", [1, 3])
def test_cascade_matches_negative_binomial_law(fock_n):
    # geometric branching: n avalanches register as n + NegBin(n, 1 - p)
    p, n_max = 0.2, 40
    cfg = single_cfg(
        source=SourceSpec("fock", fock_n=fock_n),
        detector_s=DetectorParams(eta=1.0, p_xt=p, n_max=n_max),
        trials=200_000,
        crosstalk_mode="cascade",
    )
    counts = simulate_single(cfg).counts
    law = stats.nbinom.pmf(np.arange(n_max + 1) - fock_n, fock_n, 1.0 - p)
    law[-1] += stats.nbinom.sf(n_max - fock_n, fock_n, 1.0 - p)
    assert counts[:fock_n].sum() == 0
    expected = cfg.trials * law
    # pool the tail into the last bin expecting at least 5 events
    top = int(np.nonzero(expected >= 5)[0].max())
    obs = counts[fock_n : top + 1].copy()
    exp = expected[fock_n : top + 1].copy()
    obs[-1] += counts[top + 1 :].sum()
    exp[-1] += expected[top + 1 :].sum()
    assert stats.chisquare(obs, exp).pvalue > 1e-6


@pytest.mark.parametrize("mode", ["binomial", "cascade"])
def test_signal_arm_ignores_the_idler_arm(mode):
    det_i = DetectorParams(eta=0.3, p_xt=0.2, n_max=4, dark_mean=0.1)
    cfg = single_cfg(
        detector_s=DetectorParams(eta=0.5, p_xt=0.1, n_max=10, dark_mean=0.05),
        trials=2 * CHUNK + 5,
        crosstalk_mode=mode,
    )
    single = simulate_single(cfg).counts
    joint = simulate_independent(replace(cfg, detector_i=det_i)).counts
    assert np.array_equal(single, joint.sum(axis=1))


def _pooled_pvalue(observed, probs):
    """Pearson chi-square p-value of counts against a law, pooling the
    cells expected to hold fewer than 5 events into one."""
    obs = np.asarray(observed, dtype=float).ravel()
    exp = obs.sum() * np.asarray(probs, dtype=float).ravel()
    big = exp >= 5
    obs = np.append(obs[big], obs[~big].sum())
    exp = np.append(exp[big], exp[~big].sum())
    return stats.chi2.sf(((obs - exp) ** 2 / exp).sum(), obs.size - 1)


UNSHARED_SOURCES = [
    SourceSpec("coherent", mean=20.0),
    SourceSpec("even_poisson", mean=12.0),
    SourceSpec("fock", fock_n=9),
    SourceSpec("thermal", mean=8.0),
]


@pytest.mark.parametrize(
    "source, dark, mode",
    [
        # binomial cases carry no mode suffix, so their ids stay stable
        pytest.param(source, dark, mode, id=f"{source.kind}-{dark}{suffix}")
        for mode, suffix in (("binomial", ""), ("cascade", "-cascade"))
        for source in UNSHARED_SOURCES
        for dark in (0.0, 0.3)
    ],
)
def test_unshared_arms_follow_the_analytic_channel(source, dark, mode):
    # simulate_single and each arm of simulate_independent against the
    # channel matrix, and the two arms independent of each other
    det_s = DetectorParams(eta=0.2, p_xt=0.177, n_max=400, dark_mean=dark)
    det_i = DetectorParams(eta=0.6, p_xt=0.3, n_max=12, dark_mean=dark)
    cfg = single_cfg(
        source=source, detector_s=det_s, detector_i=det_i, trials=3 * CHUNK + 11,
        crosstalk_mode=mode,
    )
    joint = simulate_independent(cfg).counts
    dist = source.distribution()
    law_s, law_i = (channel_matrix(det, dist.k_max, mode) @ dist.probs for det in (det_s, det_i))
    assert _pooled_pvalue(joint, np.outer(law_s, law_i)) > 1e-7
    single = simulate_single(replace(cfg, detector_i=None, seed=cfg.seed + 1)).counts
    assert _pooled_pvalue(single, law_s) > 1e-7


@pytest.mark.parametrize("mode", ["binomial", "cascade"])
@pytest.mark.parametrize("source", UNSHARED_SOURCES, ids=lambda s: s.kind)
def test_unshared_arm_law_equals_the_channel_matrix(source, mode):
    # the law an unshared arm draws from thins the source in closed form;
    # the matrix thins it by Pascal's rule, one column per photon number
    dist = source.distribution()
    for dark in (0.0, 0.05, 0.4):
        for n_max in (3, 12, 60):
            det = DetectorParams(eta=0.37, p_xt=0.3, n_max=n_max, dark_mean=dark)
            law = _count_law(source.after_loss(det.eta).probs, det, mode)
            expect = channel_matrix(det, dist.k_max, mode) @ dist.probs
            assert law.shape == expect.shape
            assert np.abs(law - expect).max() <= 1e-12


TWIN_SOURCES = [
    SourceSpec("twin_thermal", mean=3.0),
    SourceSpec("twin_multimode", mean=5.0, modes=3.0),
    SourceSpec("fock", fock_n=6),
]


@pytest.mark.parametrize("mode", ["binomial", "cascade"])
@pytest.mark.parametrize("source", TWIN_SOURCES, ids=lambda s: s.kind)
def test_twin_arms_follow_the_joint_channel(source, mode):
    det_s = DetectorParams(eta=0.3, p_xt=0.2, n_max=30, dark_mean=0.1)
    det_i = DetectorParams(eta=0.6, p_xt=0.3, n_max=12, dark_mean=0.2)
    cfg = single_cfg(
        source=source, detector_s=det_s, detector_i=det_i, trials=3 * CHUNK + 11,
        crosstalk_mode=mode,
    )
    joint = simulate_twin(cfg).counts
    law = joint_photocount(source.distribution(), det_s, det_i, crosstalk_mode=mode)
    assert _pooled_pvalue(joint, law.probs) > 1e-7


def test_unshared_cascade_arm_matches_the_shared_twin_arm():
    # a thermal arm drawn from its thinned law and a twin_thermal arm thinned
    # pulse by pulse register the same counts in law
    det = DetectorParams(eta=0.3, p_xt=0.25, n_max=30, dark_mean=0.2)
    cfg = single_cfg(
        source=SourceSpec("thermal", mean=6.0),
        detector_s=det,
        trials=3 * CHUNK,
        crosstalk_mode="cascade",
    )
    single = simulate_single(cfg).counts
    twin = simulate_twin(
        replace(cfg, source=SourceSpec("twin_thermal", mean=6.0), detector_i=det, seed=12)
    ).counts.sum(axis=1)
    table = np.stack([single, twin])
    keep = table.sum(axis=0) >= 10
    table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    assert stats.chi2_contingency(table).pvalue > 1e-7


def _digest(counts):
    return hashlib.sha256(np.asarray(counts, dtype="<i8").tobytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "kind, mode, digest",
    [
        ("single", "binomial", "00eda7537172584a"),
        ("independent", "cascade", "423e7ccd8ac9df39"),
        ("twin", "binomial", "6b3f109fca24c3cd"),
    ],
)
def test_outputs_are_pinned(kind, mode, digest):
    # any change to the seed -> histogram mapping must show here
    cfg = single_cfg(
        detector_s=DetectorParams(eta=0.5, p_xt=0.15, n_max=12, dark_mean=0.05),
        trials=CHUNK + 17,
        crosstalk_mode=mode,
    )
    assert _digest(_run_kind(kind, cfg, None).counts) == digest


def test_twin_requires_twin_source():
    with pytest.raises(ValueError):
        simulate_twin(single_cfg())
    with pytest.raises(ValueError):
        simulate_independent(
            SimulationConfig(
                source=SourceSpec("twin_thermal", mean=1.0),
                detector_s=DetectorParams(eta=1.0),
                detector_i=DetectorParams(eta=1.0),
                trials=10,
            )
        )
    with pytest.raises(ValueError):
        simulate_single(
            SimulationConfig(
                source=SourceSpec("twin_thermal", mean=1.0),
                detector_s=DetectorParams(eta=1.0),
                detector_i=DetectorParams(eta=1.0),
                trials=10,
            )
        )


def test_twin_fock_pair_perfectly_correlated():
    cfg = SimulationConfig(
        source=SourceSpec("fock", fock_n=1),
        detector_s=DetectorParams(eta=1.0, p_xt=0.0, n_max=3),
        detector_i=DetectorParams(eta=1.0, p_xt=0.0, n_max=3),
        trials=2000,
        seed=3,
    )
    joint = simulate_twin(cfg)
    assert joint.counts[1, 1] == 2000
    assert nrf_from_joint(joint).value == 0.0


def test_twin_thermal_nrf_near_model_limit():
    params = DetectorParams(eta=0.163, p_xt=0.28, n_max=3)
    cfg = SimulationConfig(
        source=SourceSpec("twin_thermal", mean=0.05),
        detector_s=params,
        detector_i=params,
        trials=400_000,
        seed=17,
    )
    joint = simulate_twin(cfg)
    est = nrf_from_joint(joint)
    from mppcsim import joint_photocount, nrf_analytic, pmf_thermal

    truth = nrf_analytic(joint_photocount(pmf_thermal(0.05), params, params))
    assert abs(est.value - truth) < 4 * est.std_err


def test_independent_arms_cross_g2_is_flat():
    params = DetectorParams(eta=0.3, p_xt=0.28, n_max=10)
    cfg = SimulationConfig(
        source=SourceSpec("coherent", mean=2.0),
        detector_s=params,
        detector_i=params,
        trials=300_000,
        seed=29,
    )
    est = g2_cross_from_joint(simulate_independent(cfg))
    assert abs(est.value - 1.0) < 4 * est.std_err


def test_sweep_single_arm_returns_series():
    cfg = single_cfg(trials=20_000)
    series = sweep(cfg, [0.2, 0.5, 1.0, 2.0])
    assert isinstance(series, SweepSeries)
    assert series.points.shape == (4, 3)
    assert np.all(np.diff(series.n_total) > 0)
    again = sweep(cfg, [0.2, 0.5, 1.0, 2.0])
    assert np.array_equal(series.points, again.points)


def test_sweep_rejects_two_arm_configs():
    det = DetectorParams(eta=0.5, p_xt=0.1, n_max=5)
    twin = SimulationConfig(
        source=SourceSpec("twin_thermal", mean=1.0),
        detector_s=det,
        detector_i=det,
        trials=5000,
        seed=5,
    )
    independent = replace(twin, source=SourceSpec("coherent", mean=1.0))
    for cfg in (twin, independent):
        with pytest.raises(ValueError, match="simulate_twin or simulate_independent"):
            sweep(cfg, [0.1, 0.5, 1.0])


def test_sweep_grid_validation():
    cfg = single_cfg(trials=100)
    with pytest.raises(ValueError):
        sweep(cfg, [])
    with pytest.raises(ValueError):
        sweep(cfg, [0.1, 0.2])
    with pytest.raises(ValueError):
        sweep(cfg, [0.1, -0.2, 0.3])


def test_event_stream_csv(tmp_path):
    path = tmp_path / "events.csv"
    cfg = single_cfg(trials=500)
    hist = simulate_single(cfg, events_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "pulse,counts_s,counts_i"
    assert len(lines) == 501
    events = read_events(path)
    assert [e.pulse_index for e in events] == list(range(500))
    assert all(e.counts_i is None for e in events)
    recorded = [e.counts_s for e in events]
    assert max(recorded) <= cfg.detector_s.n_max
    assert np.array_equal(
        np.bincount(recorded, minlength=hist.counts.size), hist.counts
    )


def test_event_stream_twin(tmp_path):
    path = tmp_path / "events.csv"
    cfg = SimulationConfig(
        source=SourceSpec("twin_thermal", mean=0.8),
        detector_s=DetectorParams(eta=0.7, p_xt=0.1, n_max=4),
        detector_i=DetectorParams(eta=0.7, p_xt=0.1, n_max=4),
        trials=300,
        seed=8,
    )
    joint = simulate_twin(cfg, events_path=str(path))
    events = read_events(path)
    assert len(events) == 300
    rebuilt = np.zeros_like(joint.counts)
    for e in events:
        rebuilt[e.counts_s, e.counts_i] += 1
    assert np.array_equal(rebuilt, joint.counts)


def test_event_stream_crosses_chunk_boundary(tmp_path):
    path = tmp_path / "events.csv"
    cfg = single_cfg(trials=CHUNK + 17)
    hist = simulate_single(cfg, events_path=str(path))
    assert path.read_bytes().startswith(b"pulse,counts_s,counts_i\r\n0,")
    events = read_events(path)
    assert [e.pulse_index for e in events] == list(range(cfg.trials))
    recorded = [e.counts_s for e in events]
    assert np.array_equal(
        np.bincount(recorded, minlength=hist.counts.size), hist.counts
    )


def _csv_writer_oracle(start, recs):
    """The event rows as ``csv.writer`` writes them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for j, counts in enumerate(zip(*(r.tolist() for r in recs))):
        writer.writerow((start + j, *counts, "")[:3])
    return buf.getvalue()


@pytest.mark.parametrize("start", [0, 3 * CHUNK + 5])
@pytest.mark.parametrize("arms", [1, 2])
def test_write_events_matches_csv_writer(start, arms):
    rng = np.random.default_rng(start + arms)
    recs = [rng.integers(0, 401, 2000) for _ in range(arms)]
    recs[0][:2] = (0, 400)  # both ends of n_max 400
    fh = io.StringIO(newline="")
    montecarlo._write_events(fh, start, recs)
    assert fh.getvalue() == _csv_writer_oracle(start, recs)


def _assert_plain_ints(events, arms):
    for e in events:
        assert type(e.pulse_index) is int and type(e.counts_s) is int
        assert type(e.counts_i) is (int if arms == 2 else type(None))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(1, 2 * CHUNK + 17),
    arms=st.sampled_from([1, 2]),
)
def test_read_events_returns_the_recorded_counts(tmp_path_factory, seed, trials, arms):
    path = tmp_path_factory.mktemp("events") / "e.csv"
    cfg = single_cfg(
        detector_s=DetectorParams(eta=0.8, p_xt=0.2, n_max=400, dark_mean=0.1),
        detector_i=DetectorParams(eta=0.3, p_xt=0.2, n_max=4, dark_mean=0.1),
        source=SourceSpec("coherent", mean=30.0),
        trials=trials,
        seed=seed,
    )
    recorded = []
    real = montecarlo._write_events

    def recording(fh, start, recs):
        recorded.extend(zip(range(start, start + recs[0].size), *(r.tolist() for r in recs)))
        real(fh, start, recs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_write_events", recording)
        if arms == 1:
            simulate_single(cfg, events_path=str(path))
        else:
            simulate_independent(cfg, events_path=str(path))
    events = read_events(path)
    assert type(events) is list and len(events) == trials
    assert all(type(e) is EventRecord for e in events)
    if arms == 1:
        recorded = [(*r, None) for r in recorded]
    assert events == recorded
    _assert_plain_ints(events, arms)


def test_event_record_is_a_named_tuple():
    record = EventRecord(4, 2)
    assert record.counts_i is None
    assert record == (4, 2, None)
    pulse, counts_s, counts_i = EventRecord(5, 3, 1)
    assert (pulse, counts_s, counts_i) == (5, 3, 1)
    with pytest.raises(AttributeError):
        record.counts_s = 1


@pytest.mark.parametrize("line_end", ["\r\n", "\n"])
@pytest.mark.parametrize("rows", [["0,3,", "1,0,", "2,7,"], ["0,3,1", "1,0,0", "2,7,2"]])
def test_read_events_accepts_crlf_and_lf(tmp_path, line_end, rows):
    path = tmp_path / "events.csv"
    path.write_bytes(line_end.join(["pulse,counts_s,counts_i", *rows, ""]).encode())
    events = read_events(path)
    arms = 1 if rows[0].endswith(",") else 2
    assert events == [
        (int(p), int(s), int(i) if i else None) for p, s, i in (r.split(",") for r in rows)
    ]
    _assert_plain_ints(events, arms)


@pytest.mark.parametrize(
    "text",
    [
        "pulse,counts_s,counts_i\r\n0,3,\r\n1\r\n",
        "pulse,counts_s,counts_i\r\n0,3,\r\n1,x,\r\n",
        "pulse,counts_s,counts_i\r\n0,1,\r\n1,2,3\r\n",
        "pulse,counts_s,counts_i\r\n0,1,2\r\n1,2,\r\n",
        "pulse,counts_s\r\n0,1\r\n",
        "pulse,counts_s,counts_i\r\n0,1,\r\n2,1,\r\n",
        "pulse,counts_s,counts_i\r\n1,1,\r\n",
        "pulse,counts_s,counts_i\r\n0,-1,\r\n",
    ],
    ids=[
        "missing-field",
        "non-integer-field",
        "one-arm-then-two-arm-row",
        "two-arm-then-one-arm-row",
        "wrong-header",
        "pulse-gap",
        "pulse-not-from-zero",
        "negative-field",
    ],
)
def test_read_events_rejects_malformed_file_naming_it(tmp_path, text):
    path = tmp_path / "events.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_events(path)


@pytest.fixture(scope="module")
def event_files(tmp_path_factory):
    """A one-arm and a two-arm event file of 2^17 pulses each."""
    root = tmp_path_factory.mktemp("gc_events")
    paths = {1: root / "one.csv", 2: root / "two.csv"}
    det = DetectorParams(eta=0.2, p_xt=0.177, n_max=400)
    simulate_single(single_cfg(detector_s=det, trials=1 << 17), events_path=str(paths[1]))
    simulate_twin(
        SimulationConfig(
            source=SourceSpec("twin_thermal", mean=1.0),
            detector_s=DetectorParams(eta=0.2, p_xt=0.177, n_max=3),
            detector_i=DetectorParams(eta=0.2, p_xt=0.177, n_max=3),
            trials=1 << 17,
            seed=1,
        ),
        events_path=str(paths[2]),
    )
    return paths


def _collections_during(call):
    """Generations of the cyclic collections that start while ``call`` runs."""
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        call()
    finally:
        gc.callbacks.remove(hook)
    return starts


@pytest.mark.parametrize("arms", [1, 2])
def test_read_events_sets_off_no_collection(event_files, arms):
    events = []
    assert _collections_during(lambda: events.extend(read_events(event_files[arms]))) == []
    assert len(events) == 1 << 17
    assert gc.isenabled()


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_read_events_restores_the_collector_state(event_files, gc_state):
    read_events(event_files[2])
    assert gc.isenabled() is gc_state


@pytest.mark.parametrize(
    "text",
    [
        "pulse,counts_s,counts_i\r\n0,3,\r\n1,x,\r\n",
        "pulse,counts_s,counts_i\r\n0,1,\r\n2,1,\r\n",
    ],
    ids=["non-integer-field", "pulse-gap"],
)
def test_read_events_restores_the_collector_state_when_it_raises(tmp_path, gc_state, text):
    path = tmp_path / "events.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_events(path)
    assert gc.isenabled() is gc_state


def test_read_events_restores_the_collector_state_when_the_build_fails(
    tmp_path, monkeypatch, gc_state
):
    path = tmp_path / "events.csv"
    path.write_bytes(b"pulse,counts_s,counts_i\r\n0,1,\r\n")
    monkeypatch.setattr(montecarlo, "EventRecord", int)  # not a tuple type
    with pytest.raises(TypeError):
        read_events(path)
    assert gc.isenabled() is gc_state


@pytest.mark.parametrize("existing", [None, "old events\n"])
def test_interrupted_run_leaves_no_event_file(tmp_path, monkeypatch, existing):
    real = montecarlo._run_chunk

    def fail_on_second_chunk(cdfs, shape, seed, chunk, size, keep_events):
        if chunk == 1:
            raise RuntimeError("interrupted")
        return real(cdfs, shape, seed, chunk, size, keep_events)

    monkeypatch.setattr(montecarlo, "_run_chunk", fail_on_second_chunk)
    path = tmp_path / "events.csv"
    if existing is not None:
        path.write_text(existing)
    with pytest.raises(RuntimeError):
        simulate_single(single_cfg(trials=CHUNK + 1), events_path=str(path))
    names = [p.name for p in tmp_path.iterdir()]
    if existing is None:
        assert names == []
    else:
        assert names == ["events.csv"]
        assert path.read_text() == existing


@pytest.mark.parametrize("existing", [None, "old events\n"])
def test_interrupted_threaded_run_leaves_no_event_file(tmp_path, monkeypatch, existing):
    monkeypatch.setattr(montecarlo, "_WORKERS", 3)
    test_interrupted_run_leaves_no_event_file(tmp_path, monkeypatch, existing)


def _run_kind(kind, cfg, events_path):
    if kind == "single":
        return simulate_single(cfg, events_path=events_path)
    twin = kind == "twin"
    cfg = replace(
        cfg,
        source=SourceSpec("twin_thermal", mean=1.5) if twin else cfg.source,
        detector_i=DetectorParams(eta=0.4, p_xt=0.25, n_max=5, dark_mean=0.1),
    )
    run = simulate_twin if twin else simulate_independent
    return run(cfg, events_path=events_path)


@pytest.mark.parametrize("mode", ["binomial", "cascade"])
@pytest.mark.parametrize("kind", ["single", "twin", "independent"])
def test_output_is_identical_for_any_worker_count(tmp_path, monkeypatch, kind, mode):
    cfg = single_cfg(
        detector_s=DetectorParams(eta=0.5, p_xt=0.15, n_max=12, dark_mean=0.05),
        trials=5 * CHUNK + 17,
        crosstalk_mode=mode,
    )
    runs = []
    for workers in (1, 2, 5):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        path = tmp_path / f"events-{workers}.csv"
        counts = _run_kind(kind, cfg, str(path)).counts
        runs.append((counts, path.read_bytes()))
    for counts, events in runs[1:]:
        assert np.array_equal(counts, runs[0][0])
        assert events == runs[0][1]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(1, 4 * CHUNK),
    workers=st.integers(1, 4),
    mode=st.sampled_from(["binomial", "cascade"]),
)
def test_chunk_split_invariance(seed, trials, workers, mode):
    cfg = single_cfg(
        detector_i=DetectorParams(eta=0.3, p_xt=0.2, n_max=4, dark_mean=0.1),
        trials=trials,
        seed=seed,
        crosstalk_mode=mode,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_WORKERS", 1)
        serial = simulate_independent(cfg).counts
        mp.setattr(montecarlo, "_WORKERS", workers)
        assert np.array_equal(simulate_independent(cfg).counts, serial)


@pytest.mark.parametrize("workers", [1, 3])
def test_chunks_start_at_most_one_window_ahead_of_the_merge(
    tmp_path, monkeypatch, workers
):
    real = montecarlo._run_chunk
    merged = [0]
    unmerged_at_start = []

    def counting_chunk(cdfs, shape, seed, chunk, size, keep_events):
        unmerged_at_start.append(chunk + 1 - merged[0])
        return real(cdfs, shape, seed, chunk, size, keep_events)

    def slow_merge(fh, start, recs):
        # a merge slower than a chunk lets an unbounded pool run far ahead
        time.sleep(0.02)
        merged[0] += 1

    monkeypatch.setattr(montecarlo, "_WORKERS", workers)
    monkeypatch.setattr(montecarlo, "_run_chunk", counting_chunk)
    monkeypatch.setattr(montecarlo, "_write_events", slow_merge)
    simulate_single(single_cfg(trials=10 * CHUNK), events_path=str(tmp_path / "e.csv"))
    assert merged[0] == len(unmerged_at_start) == 10
    assert max(unmerged_at_start) <= workers + 1


def test_meta_carries_run_parameters():
    hist = simulate_single(single_cfg(trials=1000))
    assert hist.meta["source"] == "coherent"
    assert hist.meta["seed"] == 11
    assert hist.meta["xt_mode"] == "binomial"
