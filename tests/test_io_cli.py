import hashlib
import json
import os
import re
import stat
import warnings

import numpy as np
import pytest

from mppcsim import (
    CountHistogram,
    DetectorParams,
    JointCountHistogram,
    SweepSeries,
    channel_matrix,
    measured_g2,
)
from mppcsim import io as mio
from mppcsim.cli import main


def test_histogram_round_trip(tmp_path):
    path = tmp_path / "h.json"
    hist = CountHistogram(100, np.array([90, 7, 3]), {"source": "coherent", "seed": 5})
    mio.write_histogram(path, hist)
    back = mio.read_histogram(path)
    assert back.trials == hist.trials
    assert np.array_equal(back.counts, hist.counts)
    assert back.meta == {"source": "coherent", "seed": 5}
    assert json.loads(path.read_text())["schema"] == "mppc-hist/1"


def test_joint_round_trip(tmp_path):
    path = tmp_path / "j.json"
    joint = JointCountHistogram(6, np.array([[1, 2], [3, 0]]), {"seed": 1})
    mio.write_joint_histogram(path, joint)
    back = mio.read_joint_histogram(path)
    assert np.array_equal(back.counts, joint.counts)
    assert json.loads(path.read_text())["schema"] == "mppc-joint/1"


def test_schema_mismatch_raises(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"schema": "other/9", "trials": 1, "counts": [1]}))
    with pytest.raises(mio.SchemaError):
        mio.read_histogram(path)
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"schema": "mppc-hist/1", "trials": 5, "counts": [1, 1]})
    )
    with pytest.raises(mio.SchemaError):
        mio.read_histogram(bad)


# (field, replacement or None to drop it, expected message)
MALFORMED_FIELDS = [
    ("trials", None, "missing trials"),
    ("counts", None, "missing counts"),
    ("counts", {"1": 2}, "counts must be integers"),
]


@pytest.mark.parametrize(
    "key, value, message",
    MALFORMED_FIELDS + [("counts", [1.5, 2.5], "counts must be integers")],
)
def test_histogram_malformed_field_is_schema_error(tmp_path, key, value, message):
    doc = {"schema": "mppc-hist/1", "trials": 3, "counts": [1, 2]}
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(mio.SchemaError, match=message):
        mio.read_histogram(path)


@pytest.mark.parametrize(
    "key, value, message",
    MALFORMED_FIELDS + [("counts", [[1.5, 2.5], [0, 0]], "counts must be integers")],
)
def test_joint_histogram_malformed_field_is_schema_error(tmp_path, key, value, message):
    doc = {"schema": "mppc-joint/1", "trials": 3, "counts": [[1, 2], [0, 0]]}
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path = tmp_path / "j.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(mio.SchemaError, match=message):
        mio.read_joint_histogram(path)


def test_sweep_round_trip_exact(tmp_path):
    path = tmp_path / "s.csv"
    pts = np.array([[0.1, 3.217891234567, 0.05], [0.7, 1.5, 0.01], [2.0, 1.1, 0.02]])
    series = SweepSeries(pts)
    mio.write_g2_sweep(path, series)
    back = mio.read_g2_sweep(path)
    assert np.array_equal(back.points, series.points)
    header = path.read_text().splitlines()[0]
    assert header == "mean_counts_per_pulse,g2,g2_err"


def test_sweep_sorted_validation(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "mean_counts_per_pulse,g2,g2_err\n1.0,1.5,0.1\n0.5,2.0,0.1\n2.0,1.2,0.1\n"
    )
    with pytest.raises(mio.SchemaError):
        mio.read_g2_sweep(path)


def test_povm_csv_round_trip(tmp_path):
    path = tmp_path / "q.csv"
    q = channel_matrix(DetectorParams(eta=0.37, p_xt=0.21, n_max=4), 9)
    mio.write_povm_csv(path, q)
    back = mio.read_povm_csv(path)
    assert back.shape == q.shape
    assert np.allclose(back, q, rtol=1e-11, atol=1e-14)
    assert np.allclose(back.sum(axis=0), 1.0, atol=1e-10)


@pytest.mark.parametrize(
    "text, message",
    [
        ("N,0,1,2\n0,1,0,0\n1,0,1\n", "as wide as the header"),
        ("N,0,1\n0,1,0\n1,x,1\n", "could not convert"),
        ("N,0,1\n", "as wide as the header"),
    ],
    ids=["missing-column", "non-numeric-entry", "no-rows"],
)
def test_povm_csv_bad_input_is_schema_error_naming_the_file(tmp_path, text, message):
    path = tmp_path / "q.csv"
    path.write_text(text)
    with pytest.raises(mio.SchemaError, match=f"^{re.escape(str(path))}: .*{message}"):
        mio.read_povm_csv(path)


G2_CSV = "mean_counts_per_pulse,g2,g2_err\n"
NRF_CSV = "mean_photons,nrf,nrf_err\n"


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (mio.read_g2_sweep, G2_CSV + "0.5,x,0.1\n", "could not convert"),
        (mio.read_nrf_sweep, NRF_CSV + "0.5,1.2,abc\n", "could not convert"),
        (mio.read_nrf_sweep, NRF_CSV + "0.5,nan,0.1\n", "finite"),
        (mio.read_nrf_sweep, NRF_CSV + "0.5,1.2,inf\n", "finite"),
        (mio.read_histogram, '{"schema": "mppc-hist/1", trials: 1}', "not a JSON document"),
        (mio.read_joint_histogram, "", "not a JSON document"),
    ],
    ids=["g2-non-numeric", "nrf-non-numeric", "nrf-nan", "nrf-inf", "hist-bad-json",
         "joint-empty"],
)
def test_reader_bad_input_is_schema_error_naming_the_file(tmp_path, reader, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(mio.SchemaError, match=f"^{re.escape(str(path))}: .*{message}"):
        reader(path)


def test_header_only_csv_files_read_without_warnings(tmp_path):
    g2, nrf, povm = (tmp_path / name for name in ("g2.csv", "nrf.csv", "q.csv"))
    g2.write_text(G2_CSV)
    nrf.write_text(NRF_CSV)
    povm.write_text("N,0,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="points must be rows"):
            mio.read_g2_sweep(g2)
        rows = mio.read_nrf_sweep(nrf)
        with pytest.raises(mio.SchemaError, match="as wide as the header"):
            mio.read_povm_csv(povm)
    assert rows.shape == (0,)


def test_numpy_meta_writes_the_json_of_plain_values(tmp_path):
    numpy_meta = {"n": np.int64(7), "u": np.uint8(3), "x": np.float64(0.1),
                  "y": np.float32(0.25), "flag": np.bool_(True),
                  "bins": np.array([1, 2]), "grid": np.array([0.5, 1.5])}
    plain_meta = {"n": 7, "u": 3, "x": 0.1, "y": 0.25, "flag": True,
                  "bins": [1, 2], "grid": [0.5, 1.5]}
    for name, meta in (("numpy", numpy_meta), ("plain", plain_meta)):
        mio.write_histogram(tmp_path / f"{name}.json", CountHistogram(3, [2, 1], meta))
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_atomic_write_leaves_no_droppings(tmp_path):
    path = tmp_path / "x.txt"
    mio.atomic_write_text(path, "hello")
    assert path.read_text() == "hello"
    assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
def test_atomic_write_applies_the_umask(tmp_path, umask, mode):
    path = tmp_path / "x.txt"
    old = os.umask(umask)
    try:
        mio.atomic_write_text(path, "hello")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_calibration_result_doc_sig_digits():
    from mppcsim import fit_crosstalk

    n = np.geomspace(0.01, 2, 8)
    pts = np.column_stack(
        [n, [measured_g2(0.177, 1.0, v) for v in n], np.full(8, 1e-4)]
    )
    doc = mio.calibration_result_doc(fit_crosstalk(SweepSeries(pts)))
    assert doc["method"] == "g2_fit"
    assert doc["p_hat"] == pytest.approx(0.177, abs=1e-4)
    assert len(f"{doc['p_hat']:.10g}".replace("0.", "").rstrip("0")) <= 6


# ---------------------------------------------------------------- CLI


def test_cli_simulate_vacuum(tmp_path, capsys):
    out = tmp_path / "h.json"
    rc = main(
        [
            "simulate", "--source", "coherent", "--mean", "0", "--trials", "100",
            "--seed", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    hist = mio.read_histogram(out)
    assert hist.counts[0] == 100
    assert "mean_counts_per_pulse=0" in capsys.readouterr().out


def test_cli_simulate_fock(tmp_path):
    out = tmp_path / "h.json"
    rc = main(
        [
            "simulate", "--source", "fock", "--fock-n", "2", "--eta", "1",
            "--xt", "0", "--nmax", "400", "--trials", "50", "--seed", "7",
            "--out", str(out), "--quiet",
        ]
    )
    assert rc == 0
    assert mio.read_histogram(out).counts[2] == 50


def test_cli_simulate_flag_validation(tmp_path, capsys):
    out = str(tmp_path / "h.json")
    rc = main(
        ["simulate", "--source", "coherent", "--trials", "10", "--out", out]
    )
    assert rc == 2
    assert "--mean" in capsys.readouterr().err
    rc = main(
        [
            "simulate", "--source", "coherent", "--mean", "1", "--modes", "2",
            "--trials", "10", "--out", out,
        ]
    )
    assert rc == 2
    assert "--modes" in capsys.readouterr().err
    rc = main(
        [
            "simulate", "--source", "fock", "--mean", "1", "--fock-n", "1",
            "--trials", "10", "--out", out,
        ]
    )
    assert rc == 2
    assert "--mean" in capsys.readouterr().err


def test_cli_simulate_rejects_zero_modes(tmp_path, capsys):
    out = tmp_path / "h.json"
    rc = main(
        [
            "simulate", "--source", "twin-multimode", "--mean", "1", "--modes", "0",
            "--trials", "10", "--out", str(out),
        ]
    )
    assert rc == 2
    assert "modes" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_twin_writes_joint(tmp_path):
    out = tmp_path / "j.json"
    rc = main(
        [
            "simulate", "--source", "twin-thermal", "--mean", "0.5", "--eta", "0.5",
            "--xt", "0.1", "--nmax", "5", "--trials", "2000", "--seed", "3",
            "--out", str(out), "--quiet",
        ]
    )
    assert rc == 0
    joint = mio.read_joint_histogram(out)
    assert joint.counts.sum() == 2000


def test_cli_simulate_two_independent_arms(tmp_path, capsys):
    out = tmp_path / "j.json"
    rc = main(
        [
            "simulate", "--source", "coherent", "--mean", "1.0", "--eta", "0.4",
            "--eta2", "0.8", "--nmax", "6", "--trials", "3000", "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "mean_counts_per_pulse_s=" in text
    joint = mio.read_joint_histogram(out)
    marg_i = joint.counts.sum(axis=0) @ np.arange(joint.counts.shape[1])
    marg_s = joint.counts.sum(axis=1) @ np.arange(joint.counts.shape[0])
    assert marg_i > marg_s  # arm 2 has twice the efficiency


def test_cli_g2_fixture(tmp_path, capsys):
    path = tmp_path / "h.json"
    mio.write_histogram(path, CountHistogram(100, np.array([0, 0, 100])))
    rc = main(["g2", str(path), "--json", str(tmp_path / "g2.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "g2=0.5" in out and "mean=2" in out
    doc = json.loads((tmp_path / "g2.json").read_text())
    assert doc["g2"] == pytest.approx(0.5)


def _spy_atomic_writes(monkeypatch):
    written = []
    real = mio.atomic_write_text

    def spy(path, text):
        written.append(os.fspath(path))
        real(path, text)

    monkeypatch.setattr(mio, "atomic_write_text", spy)
    return written


def test_cli_g2_json_written_atomically(tmp_path, monkeypatch, capsys):
    hist = tmp_path / "h.json"
    mio.write_histogram(hist, CountHistogram(100, np.array([0, 0, 100])))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "g2.json"
    written = _spy_atomic_writes(monkeypatch)
    assert main(["g2", str(hist), "--json", str(target)]) == 0
    printed = capsys.readouterr().out
    assert written == [str(target)]
    assert [p.name for p in out_dir.iterdir()] == ["g2.json"]
    doc = json.loads(target.read_text())
    assert set(doc) == {"g2", "err", "mean"}
    assert f"g2={doc['g2']:.6g} err={doc['err']:.6g} mean={doc['mean']:.6g}" in printed


def test_reproduce_report_written_atomically(tmp_path, monkeypatch):
    from mppcsim import reproduce

    lines = ["figure 3a", "CHECK stub PASS: canned"]
    monkeypatch.setattr(reproduce, "_figure_3a", lambda out_dir, seed, pulses: lines)
    written = _spy_atomic_writes(monkeypatch)
    text = reproduce.reproduce_figure("3a", tmp_path / "r")
    report = tmp_path / "r" / "report.txt"
    assert written == [str(report)]
    assert [p.name for p in (tmp_path / "r").iterdir()] == ["report.txt"]
    assert report.read_text() == text == "\n".join(lines) + "\n"


def test_cli_g2_small_fixture(tmp_path, capsys):
    path = tmp_path / "h.json"
    mio.write_histogram(path, CountHistogram(10, np.array([2, 4, 3, 1])))
    assert main(["g2", str(path)]) == 0
    assert "g2=0.710059" in capsys.readouterr().out


def test_cli_g2_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope", "trials": 1, "counts": [1]}))
    assert main(["g2", str(bad)]) == 2
    empty = tmp_path / "empty.json"
    mio.write_histogram(empty, CountHistogram(5, np.array([5])))
    assert main(["g2", str(empty)]) == 3
    capsys.readouterr()


def test_cli_g2_malformed_histogram_exits_2(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"schema": "mppc-hist/1", "counts": [1, 2]}))
    assert main(["g2", str(path)]) == 2
    assert "missing trials" in capsys.readouterr().err


def test_cli_g2_with_dark_subtraction(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    drk = tmp_path / "dark.json"
    mio.write_histogram(sig, CountHistogram(1000, np.array([900, 100])))
    mio.write_histogram(drk, CountHistogram(1000, np.array([990, 10])))
    assert main(["g2", str(sig), "--dark", str(drk)]) == 0
    assert "mean=0.09" in capsys.readouterr().out


def test_cli_calibrate_sweep_csv(tmp_path, capsys):
    n = np.geomspace(0.01, 2.0, 10)
    pts = np.column_stack(
        [n, [measured_g2(0.1, 1.0, v) for v in n], np.full(10, 1e-4)]
    )
    path = tmp_path / "sweep.csv"
    mio.write_g2_sweep(path, SweepSeries(pts))
    out_json = tmp_path / "fit.json"
    rc = main(["calibrate", str(path), "--out", str(out_json),
               "--curve", str(tmp_path / "curve.csv")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "p=0.100000" in text
    assert "p+2p^2=0.120000" in text
    doc = json.loads(out_json.read_text())
    assert doc["p_hat"] == pytest.approx(0.1, abs=1e-5)
    assert (tmp_path / "curve.csv").read_text().startswith(
        "mean_counts_per_pulse,g2_fit"
    )


def test_cli_calibrate_from_histogram_files(tmp_path, capsys):
    paths = []
    for idx, mean in enumerate((0.5, 1.5, 4.0, 8.0)):
        path = tmp_path / f"h{idx}.json"
        rc = main(
            ["simulate", "--source", "coherent", "--mean", str(mean),
             "--eta", "0.2", "--xt", "0.15", "--xt-mode", "cascade",
             "--trials", "50000", "--seed", str(40 + idx), "--out", str(path),
             "--quiet"]
        )
        assert rc == 0
        paths.append(str(path))
    rc = main(["calibrate", *paths])
    assert rc == 0
    out = capsys.readouterr().out
    p_hat = float(out.split("p=")[1].split()[0])
    assert 0.1 < p_hat < 0.2


def test_cli_calibrate_needs_three_points(tmp_path, capsys):
    h = tmp_path / "h.json"
    mio.write_histogram(h, CountHistogram(10, np.array([5, 5])))
    assert main(["calibrate", str(h), str(h)]) == 2
    capsys.readouterr()


def test_cli_calibrate_rejects_non_finite_input(tmp_path, capsys):
    n = np.geomspace(0.01, 2.0, 10)
    pts = np.column_stack([n, [measured_g2(0.18, 1.0, v) for v in n], np.full(10, 1e-3)])
    good = tmp_path / "sweep.csv"
    mio.write_g2_sweep(good, SweepSeries(pts))
    lines = good.read_text().splitlines()
    for col in range(3):
        fields = lines[5].split(",")
        fields[col] = "nan"
        bad = tmp_path / f"nan{col}.csv"
        bad.write_text("\n".join([*lines[:5], ",".join(fields), *lines[6:]]) + "\n")
        assert main(["calibrate", str(bad)]) == 2
    for g0 in ("nan", "inf"):
        assert main(["calibrate", str(good), "--g0", g0]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["calibrate", str(good), "--quiet"]) == 0


def test_cli_nrf(tmp_path, capsys):
    path = tmp_path / "j.json"
    counts = np.diag([500, 300, 200])
    mio.write_joint_histogram(path, JointCountHistogram(1000, counts))
    out = tmp_path / "nrf.csv"
    rc = main(["nrf", str(path), "--eta", "0.163", "--xt", "0.28", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "nrf=0" in text
    assert "nrf_limit_coherent=1.4375" in text
    assert "nrf_limit_sv=1.22886" in text
    data = mio.read_nrf_sweep(out)
    assert data[0, 1] == 0.0
    # photon conversion: mean counts 0.7 per arm over eta_eff
    assert data[0, 0] == pytest.approx(0.7 / (1.28 * 0.163), rel=1e-12)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eta", "0", "--xt", "0.1"], "--eta"),
        (["--eta", "1.5"], "--eta"),
        (["--xt", "1"], "--xt"),
        (["--eta", "0.5", "--xt", "-0.2"], "--xt"),
        (["--eta", "0.5"], "--xt"),
    ],
)
def test_cli_nrf_rejects_bad_eta_and_xt(tmp_path, capsys, flags, message):
    path = tmp_path / "j.json"
    mio.write_joint_histogram(path, JointCountHistogram(10, np.diag([5, 3, 2])))
    out = tmp_path / "nrf.csv"
    assert main(["nrf", str(path), "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_povm(tmp_path, capsys):
    out = tmp_path / "q.csv"
    rc = main(
        ["povm", "--eta", "0.5", "--xt", "0.2", "--nmax", "4", "--kmax", "6",
         "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    q = mio.read_povm_csv(out)
    assert q[0, 1] == pytest.approx(0.5, abs=1e-11)
    assert q[1, 1] == pytest.approx(0.4, abs=1e-11)
    assert q[2, 1] == pytest.approx(0.1, abs=1e-11)
    assert np.allclose(q.sum(axis=0), 1.0, atol=1e-10)
    # the README example, byte for byte
    rc = main(
        ["povm", "--eta", "0.5", "--xt", "0.2", "--nmax", "4", "--kmax", "50",
         "--out", str(out), "--quiet"]
    )
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "bf0d3feed3d4ba44"


def test_cli_preset_fills_detector_defaults(tmp_path):
    out = tmp_path / "h.json"
    rc = main(
        ["simulate", "--preset", "mppc-50um", "--source", "coherent", "--mean", "1",
         "--eta", "0.2", "--trials", "1000", "--seed", "3", "--out", str(out),
         "--quiet"]
    )
    assert rc == 0
    meta = mio.read_histogram(out).meta
    assert meta["xt"] == pytest.approx(0.1592676)
    assert meta["dark"] == 0.008
    assert meta["nmax"] == 400
    # explicit flags beat the preset
    rc = main(
        ["simulate", "--preset", "mppc-50um", "--source", "coherent", "--mean", "1",
         "--xt", "0.05", "--trials", "1000", "--seed", "3", "--out", str(out),
         "--quiet"]
    )
    assert rc == 0
    assert mio.read_histogram(out).meta["xt"] == 0.05


def test_cli_env_seed_override(tmp_path, monkeypatch):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["simulate", "--source", "coherent", "--mean", "1", "--eta", "0.5",
            "--trials", "5000", "--quiet"]
    monkeypatch.setenv("MPPC_SEED", "123")
    assert main(args + ["--out", str(out1)]) == 0
    monkeypatch.delenv("MPPC_SEED")
    assert main(args + ["--out", str(out2), "--seed", "123"]) == 0
    a = mio.read_histogram(out1)
    b = mio.read_histogram(out2)
    assert np.array_equal(a.counts, b.counts)


def test_cli_rejects_non_integer_env_seed(tmp_path, monkeypatch, capsys):
    args = ["simulate", "--source", "coherent", "--mean", "1", "--trials", "100",
            "--quiet", "--out", str(tmp_path / "a.json")]
    monkeypatch.setenv("MPPC_SEED", "abc")
    assert main(args) == 2
    assert "MPPC_SEED" in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()
    assert main(args + ["--seed", "4"]) == 0  # an explicit --seed wins


@pytest.mark.parametrize("on_boundary", [False, True])
def test_reproduce_figure_5_fails_a_boundary_fit(tmp_path, monkeypatch, on_boundary):
    from mppcsim import reproduce
    from mppcsim.calibration import CalibrationResult
    from mppcsim.errors import BoundaryFitWarning

    fits = iter([0.05, 0.15, 0.6 if on_boundary else 0.45])

    def fake_fit(series, g0=1.0):
        p_hat = next(fits)
        if p_hat == 0.6:
            warnings.warn("fitted p on the boundary", BoundaryFitWarning)
        return CalibrationResult(p_hat, 0.01, 1.0, 0.1, "g2_fit", cod=0.99)

    monkeypatch.setattr(reproduce, "fit_crosstalk", fake_fit)
    text = reproduce.reproduce_figure("5", tmp_path, seed=0, pulses=2000)
    assert "CHECK pixel_size_ordering PASS" in text
    if on_boundary:
        assert "CHECK no_boundary_fit FAIL" in text
        assert "(on the boundary: mppc-100um)" in text
    else:
        assert "CHECK no_boundary_fit PASS" in text


def test_cli_reproduce_unknown_figure(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--figure", "9z", "--out", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_reproduce_3a_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        rc = main(
            ["reproduce", "--figure", "3a", "--out", str(out), "--seed", "5",
             "--pulses-per-point", "40000"]
        )
        assert rc == 0
    text = capsys.readouterr().out
    assert "CHECK sv_above_coherent PASS" in text
    assert "CHECK coherent_decreasing PASS" in text
    for name in ("fig3a_coherent.csv", "fig3a_single_mode_sv.csv", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_reproduce_other_figures(tmp_path, capsys):
    rc = main(
        ["reproduce", "--figure", "5", "--out", str(tmp_path / "f5"), "--seed", "0",
         "--pulses-per-point", "30000"]
    )
    assert rc == 0
    assert "CHECK pixel_size_ordering PASS" in capsys.readouterr().out
    rc = main(
        ["reproduce", "--figure", "8a", "--out", str(tmp_path / "f8a"), "--seed", "0",
         "--pulses-per-point", "50000"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "CHECK sv_below_coherent PASS" in text
    assert "nrf_limit_coherent=1.43750" in text
    rc = main(
        ["reproduce", "--figure", "8b", "--out", str(tmp_path / "f8b"), "--seed", "0",
         "--pulses-per-point", "50000"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "CHECK coherent_flat_at_unity PASS" in text
    assert "CHECK inverse_mean_scaling PASS" in text


def test_cli_simulate_photon_bunching_scale_run(tmp_path, capsys):
    # cascade sampler at 0.5 counts/pulse: measured g2 tracks the
    # closed-form branching value 1 + 2p/((1-p) n), which sits within a
    # few percent of the histogram-algebra prediction 1.83702
    p = 0.177
    lam = 0.5 * (1 - p) / 0.2
    out = tmp_path / "run.json"
    rc = main(
        ["simulate", "--source", "coherent", "--mean", str(lam), "--eta", "0.2",
         "--xt", str(p), "--xt-mode", "cascade", "--nmax", "400",
         "--trials", "1000000", "--seed", "11", "--out", str(out), "--quiet"]
    )
    assert rc == 0
    capsys.readouterr()
    assert main(["g2", str(out)]) == 0
    text = capsys.readouterr().out
    g2 = float(text.split("g2=")[1].split()[0])
    err = float(text.split("err=")[1].split()[0])
    mean = float(text.split("mean=")[1].split()[0])
    branching = 1 + 2 * p / ((1 - p) * mean)
    assert abs(g2 - branching) < 4 * err
    algebra = measured_g2(p, 1.0, mean)
    assert abs(g2 - algebra) / algebra < 0.02
