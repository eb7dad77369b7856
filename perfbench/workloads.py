"""The four benchmark workloads.

A workload builds the inputs of one pass from (seed, pass index), runs the
pass as a fixed list of calls into mppcsim through ``call`` (see
``spans.Calls``), and checks that pass's outputs against the independent
model in ``reference.py``. ``check`` returns {operation key: reason} for
every output that fails.

Each pass draws fresh simulation seeds and moves every mean by up to 1 %,
so a pass is a new study: a cache that outlives one call can only help
within a pass, as it would help a user.

Statistical checks: goodness-of-fit tests reject at ``ALPHA`` and z-tests
at ``NSIG`` standard errors. A run makes up to a few hundred such tests,
and comparing two commits takes about a hundred runs, so these rates keep
a false alarm on correct code below one in a hundred such comparisons.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from mppcsim import calibration, cli, crosstalk, detector, estimators, io, montecarlo, sources
from mppcsim.detector import DetectorParams
from mppcsim.histograms import CountHistogram, SweepSeries
from mppcsim.montecarlo import SimulationConfig
from mppcsim.sources import SourceSpec

ALPHA = 1e-7
NSIG = 5.0
JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # (seed, pass index, pass directory) -> dict
    run: Callable  # (call, inputs) -> None
    check: Callable  # (inputs, results) -> {key: reason}


def _pass_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, index])


def _seeds(rng, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63, size=n)]


def _jitter(rng, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values * (1.0 + JITTER * (2.0 * rng.random(values.shape) - 1.0))


def _fit_problem(counts, probs, trials):
    pvalue = ref.gof_pvalue(counts, probs, trials)
    return None if pvalue >= ALPHA else f"goodness of fit p-value {pvalue:.3g}"


def _z_problem(value, expected, sigma, what):
    if not (math.isfinite(value) and math.isfinite(sigma) and sigma > 0):
        return f"{what}: non-finite value {value} or error {sigma}"
    z = (value - expected) / sigma
    return None if abs(z) <= NSIG else f"{what} {value:.6g} vs {expected:.6g}: {z:.1f} sigma"


def _close_problem(value, expected, tol, what):
    err = np.max(np.abs(np.asarray(value, dtype=float) - np.asarray(expected, dtype=float)))
    return None if err <= tol else f"{what} differs by {err:.3g} (> {tol:g})"


def _pad(vec, size):
    out = np.zeros(size)
    out[: min(size, len(vec))] = np.asarray(vec)[:size]
    return out


def _note(problems, key, problem):
    if problem and key not in problems:
        problems[key] = problem


def _reference_fit(series: SweepSeries, ref_points) -> float:
    """p fitted by the package to the noise-free reference sweep."""
    pts = np.column_stack([ref_points, series.g2_err])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return calibration.fit_crosstalk(SweepSeries(pts)).p_hat


def _cells(dist, *params) -> int:
    """Response-matrix entries a call evaluates: (n_max+1)(k_max+1) per arm."""
    if dist is None:
        return 0
    return sum((d.n_max + 1) * (max(dist.k_max, 1) + 1) for d in params)


def _nrf_of_counts(counts, trials) -> float:
    n_s = np.arange(counts.shape[0], dtype=float)[:, None]
    n_i = np.arange(counts.shape[1], dtype=float)[None, :]
    diff = n_s - n_i
    mean_diff = float((diff * counts).sum()) / trials
    var = (float((diff**2 * counts).sum()) - trials * mean_diff**2) / (trials - 1)
    return var / (float(((n_s + n_i) * counts).sum()) / trials)


def _estimate_problem(est, value, what):
    """An estimate equals the definition on the same counts and has an error."""
    if not (math.isfinite(est.std_err) and est.std_err > 0):
        return f"{what}: error {est.std_err}"
    return _close_problem(est.value / value, 1.0, 1e-12, what)


# single_arm_acquire ----------------------------------------------------------

SINGLE = DetectorParams(eta=0.2, p_xt=0.177, n_max=400)
SINGLE_SOURCES = (("coherent", 50.0), ("thermal", 500.0), ("even_poisson", 25.0))
SINGLE_PULSES = 1 << 20
DARK_MEAN = 0.05
SWEEP_PULSES = 1 << 18
SWEEP_COUNTS = np.geomspace(0.1, 2.0, 5)  # mean counts per pulse of the sweep


def _single_reference(cfg: SimulationConfig) -> np.ndarray:
    det = cfg.detector_s
    return ref.photocounts(
        cfg.source.kind, cfg.source.mean, det.eta, det.p_xt, det.n_max,
        det.dark_mean, cfg.crosstalk_mode,
    )


def single_arm_inputs(seed, index, _dir):
    rng = _pass_rng(seed, index)
    seeds = iter(_seeds(rng, 8))
    means = _jitter(rng, [m for _, m in SINGLE_SOURCES])
    acquisitions = {
        f"{kind}/{mode}": SimulationConfig(
            SourceSpec(kind, float(mean)), SINGLE, SINGLE_PULSES,
            seed=next(seeds), crosstalk_mode=mode,
        )
        for (kind, _), mean in zip(SINGLE_SOURCES, means)
        for mode in montecarlo.CROSSTALK_MODES
    }
    dark = SimulationConfig(
        SourceSpec("coherent", 0.0), replace(SINGLE, dark_mean=DARK_MEAN),
        SINGLE_PULSES, seed=next(seeds), crosstalk_mode="cascade",
    )
    sweep = SimulationConfig(
        SourceSpec("coherent", 1.0), SINGLE, SWEEP_PULSES,
        seed=next(seeds), crosstalk_mode="cascade",
    )
    grid = _jitter(rng, SWEEP_COUNTS / (SINGLE.eta / (1.0 - SINGLE.p_xt)))
    return {"acquisitions": acquisitions, "dark": dark, "sweep": sweep, "grid": grid}


def single_arm_run(call, inp):
    for key, cfg in inp["acquisitions"].items():
        hist = call(f"simulate/{key}", montecarlo.simulate_single, cfg,
                    work={"pulses": cfg.trials})
        call(f"g2/{key}", estimators.g2_from_histogram, hist)
    dark = call("simulate/dark", montecarlo.simulate_single, inp["dark"],
                work={"pulses": inp["dark"].trials})
    call("dark_noise_crosstalk", calibration.dark_noise_crosstalk, dark)
    series = call("sweep", montecarlo.sweep, inp["sweep"], inp["grid"],
                  work={"pulses": inp["sweep"].trials * len(inp["grid"])})
    call("fit_crosstalk", calibration.fit_crosstalk, series)


def single_arm_check(inp, res):
    problems = {}
    for key, cfg in inp["acquisitions"].items():
        probs = _single_reference(cfg)
        if (hist := res[f"simulate/{key}"]) is not None:
            _note(problems, f"simulate/{key}",
                  _fit_problem(_pad(hist.counts, probs.size), probs, cfg.trials))
        if (est := res[f"g2/{key}"]) is not None:
            _note(problems, f"g2/{key}", _z_problem(est.value, ref.g2(probs), est.std_err, "g2"))

    cfg = inp["dark"]
    if (hist := res["simulate/dark"]) is not None:
        probs = _single_reference(cfg)
        _note(problems, "simulate/dark",
              _fit_problem(_pad(hist.counts, probs.size), probs, cfg.trials))
    if (fit := res["dark_noise_crosstalk"]) is not None:
        _note(problems, "dark_noise_crosstalk",
              _z_problem(fit.p_hat, cfg.detector_s.p_xt, fit.p_err, "dark-noise p"))

    cfg = inp["sweep"]
    if (series := res["sweep"]) is not None:
        ref_points = []
        for mean, (n_total, g2, g2_err) in zip(inp["grid"], series.points):
            probs = _single_reference(replace(cfg, source=replace(cfg.source, mean=float(mean))))
            ref_mean, ref_var = ref.moments(probs)
            ref_points.append((ref_mean, ref.g2(probs)))
            _note(problems, "sweep", _z_problem(
                n_total, ref_mean, math.sqrt(ref_var / cfg.trials), "sweep mean counts"))
            _note(problems, "sweep", _z_problem(g2, ref.g2(probs), g2_err, "sweep g2"))
        if (fit := res["fit_crosstalk"]) is not None:
            p_ref = _reference_fit(series, ref_points)
            _note(problems, "fit_crosstalk",
                  _z_problem(fit.p_hat, p_ref, fit.p_err, "fitted p"))
    return problems


# two_arm_nrf -----------------------------------------------------------------

TWO_ARM = DetectorParams(eta=0.163, p_xt=0.28, n_max=3)
TWO_ARM_MEANS = np.geomspace(0.1, 6.0, 8)
TWO_ARM_PULSES = 1 << 19
TWIN_MODES = 4.0
# (source kind, simulate function, source-distribution function and its extra arguments)
TWO_ARM_SOURCES = (
    ("twin_thermal", montecarlo.simulate_twin, sources.pmf_thermal, ()),
    ("twin_multimode", montecarlo.simulate_twin, sources.pmf_twin_multimode, (TWIN_MODES,)),
    ("coherent", montecarlo.simulate_independent, sources.pmf_coherent, ()),
)
WIDE = replace(TWO_ARM, n_max=60)
WIDE_MEAN = 6.0
WIDE_PULSES = 1 << 18


def _source(kind, mean):
    return SourceSpec(kind, float(mean), modes=TWIN_MODES if kind == "twin_multimode" else 1.0)


def two_arm_inputs(seed, index, _dir):
    rng = _pass_rng(seed, index)
    means = _jitter(rng, TWO_ARM_MEANS)
    seeds = iter(_seeds(rng, len(means) * len(TWO_ARM_SOURCES) + 1))
    runs = {
        f"{kind}/{i}": SimulationConfig(
            _source(kind, mean), TWO_ARM, TWO_ARM_PULSES, detector_i=TWO_ARM, seed=next(seeds)
        )
        for i, mean in enumerate(means)
        for kind, *_ in TWO_ARM_SOURCES
    }
    wide = SimulationConfig(
        _source("twin_thermal", WIDE_MEAN * _jitter(rng, 1.0)), WIDE, WIDE_PULSES,
        detector_i=WIDE, seed=next(seeds),
    )
    return {"means": means, "runs": runs, "wide": wide}


def two_arm_run(call, inp):
    det = TWO_ARM
    for i, mean in enumerate(inp["means"]):
        for kind, simulate, pmf, extra in TWO_ARM_SOURCES:
            key = f"{kind}/{i}"
            cfg = inp["runs"][key]
            joint = call(f"simulate/{key}", simulate, cfg, work={"pulses": cfg.trials})
            call(f"nrf/{key}", estimators.nrf_from_joint, joint)
            call(f"g2x/{key}", estimators.g2_cross_from_joint, joint)
            dist = call(f"pmf/{key}", pmf, float(mean), *extra)
            cells = {"cells": _cells(dist, det, det)}
            if kind == "coherent":
                table = call(f"joint/{key}", detector.joint_independent, dist, dist, det, det,
                             work=cells)
            else:
                table = call(f"joint/{key}", detector.joint_photocount, dist, det, det,
                             work=cells)
            call(f"nrf_analytic/{key}", detector.nrf_analytic, table)
    cfg = inp["wide"]
    joint = call("simulate/wide", montecarlo.simulate_twin, cfg, work={"pulses": cfg.trials})
    call("nrf/wide", estimators.nrf_from_joint, joint)
    call("g2x/wide", estimators.g2_cross_from_joint, joint)


def _check_joint(problems, res, key, cfg, table):
    joint = res[f"simulate/{key}"]
    if joint is None:
        return
    _note(problems, f"simulate/{key}", _fit_problem(joint.counts, table, cfg.trials))
    if (est := res[f"nrf/{key}"]) is not None:
        _note(problems, f"nrf/{key}",
              _estimate_problem(est, _nrf_of_counts(joint.counts, joint.trials), "NRF"))
    if (est := res[f"g2x/{key}"]) is not None:
        _note(problems, f"g2x/{key}",
              _estimate_problem(est, ref.cross_g2(joint.counts / joint.trials), "cross g2"))


def two_arm_check(inp, res):
    problems = {}
    det = TWO_ARM
    for i, mean in enumerate(inp["means"]):
        for kind, *_ in TWO_ARM_SOURCES:
            key = f"{kind}/{i}"
            cfg = inp["runs"][key]
            table = ref.two_arm_table(kind, cfg.source.mean, det.eta, det.p_xt, det.n_max,
                                      modes=cfg.source.modes)
            _check_joint(problems, res, key, cfg, table)
            if (dist := res[f"pmf/{key}"]) is not None:
                photons = ref.photon_pmf(kind, float(mean), cfg.source.modes)
                _note(problems, f"pmf/{key}", _close_problem(
                    _pad(dist.probs, photons.size), photons, 1e-12, "source pmf"))
            if (analytic := res[f"joint/{key}"]) is not None:
                _note(problems, f"joint/{key}",
                      _close_problem(analytic.probs, table, 1e-10, "joint table"))
            if (value := res[f"nrf_analytic/{key}"]) is not None:
                _note(problems, f"nrf_analytic/{key}",
                      _close_problem(value, ref.nrf(table), 1e-9, "analytic NRF"))
        if (est := res[f"g2x/coherent/{i}"]) is not None:
            _note(problems, f"g2x/coherent/{i}",
                  _z_problem(est.value, 1.0, est.std_err, "independent-arm cross g2"))
        coherent = res[f"nrf/coherent/{i}"]
        for kind in ("twin_thermal", "twin_multimode"):
            twin = res[f"nrf/{kind}/{i}"]
            if twin is not None and coherent is not None and not twin.value < coherent.value:
                _note(problems, f"nrf/{kind}/{i}",
                      f"twin NRF {twin.value:.4g} not below coherent {coherent.value:.4g}")
    cfg = inp["wide"]
    table = ref.two_arm_table("twin_thermal", cfg.source.mean, WIDE.eta, WIDE.p_xt, WIDE.n_max)
    _check_joint(problems, res, "wide", cfg, table)
    return problems


# analytic_channel ------------------------------------------------------------

ANALYTIC = DetectorParams(eta=0.2, p_xt=0.177, n_max=400, dark_mean=0.1)
ANALYTIC_MEANS = np.geomspace(10.0, 1000.0, 5)
NARROW_K_MAX = 1000
POVM_K_MAX = 600
JOINT_MEANS = np.geomspace(1.0, 30.0, 5)
JOINT_N_MAX = 60
TRANSFORM_BINS = 2048
TRANSFORM_TRIALS = 10**9
FIT_COUNTS = np.geomspace(0.05, 3.0, 10)


def analytic_inputs(seed, index, _dir):
    rng = _pass_rng(seed, index)
    eta, p_xt = _jitter(rng, [ANALYTIC.eta, ANALYTIC.p_xt])
    det = replace(ANALYTIC, eta=float(eta), p_xt=float(p_xt))
    shape = np.exp(-np.arange(TRANSFORM_BINS) / (TRANSFORM_BINS / 8.0))
    counts = rng.multinomial(TRANSFORM_TRIALS, shape / shape.sum())
    p_fit = float(rng.uniform(0.05, 0.25))
    g2 = ref.g2_law(p_fit, 1.0, FIT_COUNTS)
    return {
        "channel": det,
        "means": _jitter(rng, ANALYTIC_MEANS),
        "narrow": replace(det, n_max=3),
        "povm": replace(det, dark_mean=0.0),
        "joint": replace(det, n_max=JOINT_N_MAX, dark_mean=0.0),
        "joint_means": _jitter(rng, JOINT_MEANS),
        "histogram": CountHistogram(TRANSFORM_TRIALS, counts),
        "counts": [int(c) for c in counts],
        "p_text": f"{p_xt:.6f}",
        "p_fit": p_fit,
        "sweep": SweepSeries(np.column_stack([FIT_COUNTS, g2, 1e-3 * g2])),
    }


def analytic_run(call, inp):
    det = inp["channel"]
    for i, mean in enumerate(inp["means"]):
        dist = call(f"pmf_coherent/{i}", sources.pmf_coherent, float(mean))
        call(f"apply_channel/{i}", detector.apply_channel, dist, det,
             work={"cells": _cells(dist, det)})
    narrow = inp["narrow"]
    call("channel_matrix", detector.channel_matrix, narrow, NARROW_K_MAX,
         work={"cells": (narrow.n_max + 1) * (NARROW_K_MAX + 1)})
    povm = inp["povm"]
    call("build_povm", detector.build_povm, povm, POVM_K_MAX,
         work={"cells": (povm.n_max + 1) * (POVM_K_MAX + 1)})
    joint = inp["joint"]
    for i, mean in enumerate(inp["joint_means"]):
        dist = call(f"pmf_twin_multimode/{i}", sources.pmf_twin_multimode,
                    float(mean), TWIN_MODES)
        table = call(f"joint_photocount/{i}", detector.joint_photocount, dist, joint, joint,
                     work={"cells": _cells(dist, joint, joint)})
        call(f"nrf_analytic/{i}", detector.nrf_analytic, table)
    hist, p_text = inp["histogram"], inp["p_text"]
    call("transform_counts_exact", crosstalk.transform_counts_exact, inp["counts"], p_text)
    call("expected_coincidences", crosstalk.expected_coincidences, hist, p_text)
    call("expected_total_counts", crosstalk.expected_total_counts, hist, p_text)
    call("fit_crosstalk", calibration.fit_crosstalk, inp["sweep"])


def analytic_check(inp, res):
    problems = {}
    det = inp["channel"]
    for i, mean in enumerate(inp["means"]):
        if (dist := res[f"pmf_coherent/{i}"]) is not None:
            photons = ref.photon_pmf("coherent", float(mean))
            _note(problems, f"pmf_coherent/{i}", _close_problem(
                _pad(dist.probs, photons.size), photons, 1e-12, "coherent pmf"))
        if (out := res[f"apply_channel/{i}"]) is None:
            continue
        key = f"apply_channel/{i}"
        probs = ref.photocounts("coherent", float(mean), det.eta, det.p_xt, det.n_max,
                                det.dark_mean)
        _note(problems, key, _close_problem(out.probs.sum(), 1.0, 1e-10, "total probability"))
        _note(problems, key, _close_problem(out.probs, probs, 1e-10, "photocount pmf"))
        mu = det.eta * float(mean) + det.dark_mean
        got_mean, got_var = ref.moments(out.probs)
        p = det.p_xt
        _note(problems, key, _close_problem(got_mean / (mu * (1 + p)), 1.0, 1e-9, "mean"))
        _note(problems, key, _close_problem(
            got_var / (mu * (1 + p) ** 2 + mu * p * (1 - p)), 1.0, 1e-8, "variance"))

    for key, params, k_max in (
        ("channel_matrix", inp["narrow"], NARROW_K_MAX),
        ("build_povm", inp["povm"], POVM_K_MAX),
    ):
        if (q := res[key]) is None:
            continue
        q = getattr(q, "q", q)
        expect = ref.response_matrix(params.eta, params.p_xt, params.n_max, k_max,
                                     params.dark_mean)
        _note(problems, key, _close_problem(q.sum(axis=0), 1.0, 1e-10, "column sums"))
        _note(problems, key, _close_problem(q, expect, 1e-10, "response matrix"))

    joint = inp["joint"]
    for i, mean in enumerate(inp["joint_means"]):
        table = ref.two_arm_table("twin_multimode", float(mean), joint.eta, joint.p_xt,
                                  joint.n_max, modes=TWIN_MODES)
        if (got := res[f"joint_photocount/{i}"]) is not None:
            _note(problems, f"joint_photocount/{i}",
                  _close_problem(got.probs, table, 1e-10, "joint table"))
        if (value := res[f"nrf_analytic/{i}"]) is not None:
            _note(problems, f"nrf_analytic/{i}",
                  _close_problem(value, ref.nrf(table), 1e-9, "analytic NRF"))

    hist = inp["histogram"]
    if (out := res["transform_counts_exact"]) is not None:
        if len(out) != hist.counts.size + 2 or sum(out) != TRANSFORM_TRIALS:
            problems["transform_counts_exact"] = "events not conserved"
        elif out[0] != int(hist.counts[0]):
            problems["transform_counts_exact"] = "bin 0 changed"
        else:
            k = range(len(out))
            for key, exact in (
                ("expected_coincidences", sum(j * (j - 1) // 2 * v for j, v in zip(k, out))),
                ("expected_total_counts", sum(j * v for j, v in zip(k, out))),
            ):
                if (value := res[key]) is not None:
                    _note(problems, key, _close_problem(value / float(exact), 1.0, 1e-12, key))

    if (fit := res["fit_crosstalk"]) is not None:
        _note(problems, "fit_crosstalk",
              _close_problem(fit.p_hat, inp["p_fit"], 1e-6, "fitted p"))
    return problems


# cli_events ------------------------------------------------------------------

CLI_PULSES = 1 << 17
CLI_SINGLE = ("--eta", "0.2", "--xt", "0.177", "--nmax", "400")
CLI_MEANS = (2.5, 5.0, 10.0)
CLI_TWIN = ("--eta", "0.163", "--xt", "0.28", "--nmax", "3")
CLI_TWIN_MEAN = 1.0
POVM = dict(eta=0.5, p=0.2, n_max=40, k_max=200)


def cli_inputs(seed, index, directory: Path):
    rng = _pass_rng(seed, index)
    seeds = _seeds(rng, 2)
    return {
        "dir": directory,
        "means": _jitter(rng, CLI_MEANS),
        "twin_mean": float(_jitter(rng, CLI_TWIN_MEAN)),
        "seeds": seeds,
    }


def _path(inp, name) -> str:
    return str(inp["dir"] / name)


def cli_run(call, inp):
    def simulate(key, argv, kind):
        call(key, cli.main, ["simulate", *argv, "--trials", str(CLI_PULSES), "--quiet"],
             work={"pulses": CLI_PULSES, "cli": kind})

    single = ("--source", "coherent", *CLI_SINGLE, "--seed", str(inp["seeds"][0]))
    for j, mean in enumerate(inp["means"]):
        simulate(f"cli/simulate/single/{j}",
                 [*single, "--mean", repr(float(mean)), "--out", _path(inp, f"h{j}.json")],
                 "simulate" if j == 0 else "calibration_inputs")
    simulate("cli/simulate_events/single",
             [*single, "--mean", repr(float(inp["means"][0])), "--out", _path(inp, "h0e.json"),
              "--events", _path(inp, "h0e.csv")], "simulate_events")
    twin = ("--source", "twin-thermal", "--mean", repr(inp["twin_mean"]), *CLI_TWIN,
            "--seed", str(inp["seeds"][1]))
    simulate("cli/simulate/twin", [*twin, "--out", _path(inp, "j.json")], "simulate")
    simulate("cli/simulate_events/twin",
             [*twin, "--out", _path(inp, "je.json"), "--events", _path(inp, "je.csv")],
             "simulate_events")

    call("read_events/single", montecarlo.read_events, _path(inp, "h0e.csv"))
    call("read_events/twin", montecarlo.read_events, _path(inp, "je.csv"))
    for name in ("h0", "h0e", "h1", "h2"):
        call(f"read_histogram/{name}", io.read_histogram, _path(inp, f"{name}.json"))
    for name in ("j", "je"):
        call(f"read_joint_histogram/{name}", io.read_joint_histogram, _path(inp, f"{name}.json"))

    analysis = {"cli": "analysis"}
    call("cli/g2", cli.main, ["g2", _path(inp, "h0.json"), "--json", _path(inp, "g2.json"),
                              "--quiet"], work=analysis)
    call("cli/nrf", cli.main, ["nrf", _path(inp, "j.json"), *CLI_TWIN[:4],
                               "--out", _path(inp, "nrf.csv"), "--quiet"], work=analysis)
    call("cli/calibrate", cli.main,
         ["calibrate", *(_path(inp, f"h{j}.json") for j in range(3)),
          "--out", _path(inp, "fit.json"), "--curve", _path(inp, "curve.csv"), "--quiet"],
         work=analysis)
    call("read_nrf_sweep", io.read_nrf_sweep, _path(inp, "nrf.csv"))
    call("cli/povm", cli.main,
         ["povm", "--eta", str(POVM["eta"]), "--xt", str(POVM["p"]), "--nmax",
          str(POVM["n_max"]), "--kmax", str(POVM["k_max"]), "--out", _path(inp, "povm.csv"),
          "--quiet"], work={"cli": "povm"})
    call("read_povm_csv", io.read_povm_csv, _path(inp, "povm.csv"))


def _g2_of_counts(counts, trials) -> float:
    k = np.arange(counts.size, dtype=float)
    return trials * float((k * (k - 1)) @ counts) / float(k @ counts) ** 2


def cli_check(inp, res):
    problems = {}
    for key, code in res.items():
        if key.startswith("cli/") and code is not None and code != 0:
            problems[key] = f"exit code {code}"

    def counts(key):
        hist = res[key]
        return None if hist is None else hist.counts

    def single(mean):
        return ref.photocounts("coherent", mean, 0.2, 0.177, 400)

    h0 = counts("read_histogram/h0")
    if h0 is not None:
        _note(problems, "cli/simulate/single/0",
              _fit_problem(h0, single(float(inp["means"][0])), CLI_PULSES))
        if (h0e := counts("read_histogram/h0e")) is not None and not np.array_equal(h0, h0e):
            _note(problems, "cli/simulate_events/single", "--events changed the histogram")
    j = counts("read_joint_histogram/j")
    if j is not None:
        table = ref.two_arm_table("twin_thermal", inp["twin_mean"], 0.163, 0.28, 3)
        _note(problems, "cli/simulate/twin", _fit_problem(j, table, CLI_PULSES))
        if (je := counts("read_joint_histogram/je")) is not None and not np.array_equal(j, je):
            _note(problems, "cli/simulate_events/twin", "--events changed the histogram")

    for key, written in (("read_events/single", "read_histogram/h0e"),
                         ("read_events/twin", "read_joint_histogram/je")):
        events, hist = res[key], counts(written)
        if events is None or hist is None:
            continue
        if [e.pulse_index for e in events] != list(range(CLI_PULSES)):
            _note(problems, key, "pulse indices are not 0..trials-1")
            continue
        rebuilt = np.zeros(hist.shape)
        if hist.ndim == 1:
            np.add.at(rebuilt, [e.counts_s for e in events], 1)
        else:
            np.add.at(rebuilt, ([e.counts_s for e in events], [e.counts_i for e in events]), 1)
        if not np.array_equal(rebuilt, hist):
            _note(problems, key, "events do not rebuild the written histogram")

    if h0 is not None and res["cli/g2"] == 0:
        doc = json.loads((inp["dir"] / "g2.json").read_text())
        _note(problems, "cli/g2",
              _close_problem(doc["g2"] / _g2_of_counts(h0, CLI_PULSES), 1.0, 1e-12, "g2"))
    if j is not None and (rows := res["read_nrf_sweep"]) is not None:
        if rows.shape != (1, 3):
            _note(problems, "cli/nrf", f"NRF table has shape {rows.shape}")
        else:
            _note(problems, "cli/nrf", _close_problem(
                rows[0, 1] / _nrf_of_counts(j, CLI_PULSES), 1.0, 1e-12, "NRF"))
    if res["cli/calibrate"] == 0 and all(counts(f"read_histogram/h{k}") is not None
                                         for k in (0, 1, 2)):
        fit = json.loads((inp["dir"] / "fit.json").read_text())
        points, ref_points = [], []
        for k, mean in enumerate(inp["means"]):
            c = counts(f"read_histogram/h{k}")
            est = estimators.g2_from_histogram(CountHistogram(CLI_PULSES, c))
            points.append((float(np.arange(c.size) @ c) / CLI_PULSES, est.value, est.std_err))
            probs = single(float(mean))
            ref_points.append((ref.moments(probs)[0], ref.g2(probs)))
        p_ref = _reference_fit(SweepSeries(np.asarray(points)), ref_points)
        _note(problems, "cli/calibrate", _z_problem(fit["p_hat"], p_ref, fit["p_err"], "p"))
        lines = (inp["dir"] / "curve.csv").read_text().splitlines()
        if len(lines) != 101:
            _note(problems, "cli/calibrate", f"fitted curve has {len(lines)} lines")
    if (q := res["read_povm_csv"]) is not None:
        expect = ref.response_matrix(POVM["eta"], POVM["p"], POVM["n_max"], POVM["k_max"])
        _note(problems, "cli/povm", _close_problem(q, expect, 1e-11, "response matrix CSV"))
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("single_arm_acquire", single_arm_inputs, single_arm_run, single_arm_check),
        Workload("two_arm_nrf", two_arm_inputs, two_arm_run, two_arm_check),
        Workload("analytic_channel", analytic_inputs, analytic_run, analytic_check),
        Workload("cli_events", cli_inputs, cli_run, cli_check),
    )
}
