"""Command-line surface.

Subcommands: simulate, g2, calibrate, nrf, povm, reproduce. Exit codes:
0 success, 2 usage or validation problems, 3 statistic undefined on the
given data. The environment variable MPPC_SEED overrides the default
seed of commands that draw randomness; an explicit --seed always wins.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io
from .calibration import fit_crosstalk
from .detector import DetectorParams, channel_matrix, nrf_limit_coherent, nrf_limit_sv
from .errors import UndefinedStatisticError
from .estimators import (
    _sweep_point,
    g2_from_histogram,
    mean_counts_per_pulse,
    nrf_from_joint,
    subtract_dark,
)
from .histograms import SweepSeries
from .montecarlo import (
    CROSSTALK_MODES,
    SimulationConfig,
    simulate_independent,
    simulate_single,
    simulate_twin,
)
from .reproduce import FIGURES, PRESETS, reproduce_figure
from .sources import SOURCE_KINDS, SourceSpec


class CliError(Exception):
    """Usage/validation failure; maps to exit code 2."""


def _default_seed() -> int:
    text = os.environ.get("MPPC_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise CliError(f"MPPC_SEED must be an integer, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mppc",
        description="Simulate and analyze photon counting with saturating "
        "crosstalk-prone multipixel detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded acquisition simulation")
    sim.add_argument(
        "--source",
        required=True,
        choices=sorted(kind.replace("_", "-") for kind in SOURCE_KINDS),
    )
    sim.add_argument("--mean", type=float, default=None)
    sim.add_argument("--modes", type=float, default=None)
    sim.add_argument("--fock-n", type=int, default=None)
    sim.add_argument("--preset", choices=sorted(PRESETS), default=None)
    sim.add_argument("--eta", type=float, default=None)
    sim.add_argument("--xt", type=float, default=None)
    sim.add_argument("--nmax", type=int, default=None)
    sim.add_argument("--dark", type=float, default=None)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--xt-mode", choices=CROSSTALK_MODES, default="binomial")
    sim.add_argument("--eta2", type=float, default=None)
    sim.add_argument("--xt2", type=float, default=None)
    sim.add_argument("--nmax2", type=int, default=None)
    sim.add_argument("--dark2", type=float, default=None)
    sim.add_argument("--out", required=True)
    sim.add_argument("--events", default=None, help="stream per-pulse counts to CSV")
    sim.add_argument("--quiet", action="store_true")

    g2p = sub.add_parser("g2", help="estimate g2 from a histogram file")
    g2p.add_argument("histogram")
    g2p.add_argument("--dark", default=None, help="dark histogram to subtract")
    g2p.add_argument("--json", default=None, help="also write the result as JSON")
    g2p.add_argument("--quiet", action="store_true")

    cal = sub.add_parser("calibrate", help="fit the crosstalk probability")
    cal.add_argument("inputs", nargs="+", help="a sweep CSV or >=3 histogram files")
    cal.add_argument("--g0", type=float, default=1.0)
    cal.add_argument("--out", default=None, help="write the result JSON here")
    cal.add_argument("--curve", default=None, help="write the fitted curve CSV here")
    cal.add_argument("--quiet", action="store_true")

    nrf = sub.add_parser("nrf", help="noise reduction factor from joint histograms")
    nrf.add_argument("inputs", nargs="+")
    nrf.add_argument("--eta", type=float, default=None)
    nrf.add_argument("--xt", type=float, default=None)
    nrf.add_argument("--out", required=True)
    nrf.add_argument("--quiet", action="store_true")

    pov = sub.add_parser("povm", help="export the detector response matrix")
    pov.add_argument("--eta", type=float, required=True)
    pov.add_argument("--xt", type=float, default=0.0)
    pov.add_argument("--nmax", type=int, required=True)
    pov.add_argument("--kmax", type=int, required=True)
    pov.add_argument("--out", required=True)
    pov.add_argument("--quiet", action="store_true")

    rep = sub.add_parser("reproduce", help="run a canned study scenario")
    rep.add_argument("--figure", required=True, choices=FIGURES)
    rep.add_argument("--out", required=True)
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--pulses-per-point", type=int, default=200_000)
    rep.add_argument("--quiet", action="store_true")

    return parser


def _detector_from_flags(args, preset, arm: str) -> DetectorParams:
    if preset is not None:
        p_preset, dark_preset, pixels = PRESETS[preset]
    else:
        p_preset, dark_preset, pixels = 0.0, 0.0, 400

    def pick(primary, secondary, fallback):
        if arm == "i" and secondary is not None:
            return secondary
        if primary is not None:
            return primary
        return fallback

    eta = pick(args.eta, args.eta2, 1.0)
    p_xt = pick(args.xt, args.xt2, p_preset)
    n_max = pick(args.nmax, args.nmax2, pixels)
    dark = pick(args.dark, args.dark2, dark_preset)
    return DetectorParams(
        eta=eta, p_xt=p_xt, n_max=n_max, dark_mean=dark, pixel_count=pixels
    )


def _source_from_flags(args) -> SourceSpec:
    kind = args.source.replace("-", "_")
    if kind == "fock":
        if args.mean is not None:
            raise CliError("--mean is not valid with --source fock (use --fock-n)")
        if args.fock_n is None:
            raise CliError("--fock-n is required with --source fock")
        return SourceSpec(kind, fock_n=args.fock_n)
    if args.fock_n is not None:
        raise CliError("--fock-n requires --source fock")
    if args.mean is None:
        raise CliError(f"--mean is required with --source {args.source}")
    if kind == "twin_multimode":
        return SourceSpec(kind, mean=args.mean, modes=args.modes or 1.0)
    if args.modes is not None:
        raise CliError("--modes requires --source twin-multimode")
    return SourceSpec(kind, mean=args.mean)


def _cmd_simulate(args) -> int:
    source = _source_from_flags(args)
    seed = args.seed if args.seed is not None else _default_seed()
    two_arm = source.is_twin or any(
        v is not None for v in (args.eta2, args.xt2, args.nmax2, args.dark2)
    )
    det_s = _detector_from_flags(args, args.preset, "s")
    det_i = _detector_from_flags(args, args.preset, "i") if two_arm else None
    config = SimulationConfig(
        source=source,
        detector_s=det_s,
        detector_i=det_i,
        trials=args.trials,
        seed=seed,
        crosstalk_mode=args.xt_mode,
    )
    if not two_arm:
        hist = simulate_single(config, events_path=args.events)
        io.write_histogram(args.out, hist)
        if not args.quiet:
            print(f"mean_counts_per_pulse={mean_counts_per_pulse(hist):.6g}")
        return 0
    runner = simulate_twin if source.is_twin else simulate_independent
    joint = runner(config, events_path=args.events)
    io.write_joint_histogram(args.out, joint)
    if not args.quiet:
        mean_s, mean_i = joint.mean_counts
        print(
            f"mean_counts_per_pulse_s={mean_s:.6g} "
            f"mean_counts_per_pulse_i={mean_i:.6g}"
        )
    return 0


def _cmd_g2(args) -> int:
    hist = io.read_histogram(args.histogram)
    if args.dark:
        hist = subtract_dark(hist, io.read_histogram(args.dark))
    est = g2_from_histogram(hist)
    mean = mean_counts_per_pulse(hist)
    if not args.quiet:
        print(f"g2={est.value:.6g} err={est.std_err:.6g} mean={mean:.6g}")
    if args.json:
        doc = {"g2": est.value, "err": est.std_err, "mean": mean}
        io.atomic_write_text(args.json, json.dumps(doc, indent=1) + "\n")
    return 0


def _load_sweep(paths) -> SweepSeries:
    if len(paths) == 1 and paths[0].endswith(".csv"):
        return io.read_g2_sweep(paths[0])
    if len(paths) < 3:
        raise CliError("calibration needs a sweep CSV or at least 3 histogram files")
    return SweepSeries(np.asarray([_sweep_point(io.read_histogram(path)) for path in paths]))


def _cmd_calibrate(args) -> int:
    sweep = _load_sweep(args.inputs)
    result = fit_crosstalk(sweep, g0=args.g0)
    if not args.quiet:
        print(f"p={result.p_hat:.6f} ± {result.p_err:.3g} COD={result.cod:.4f}")
        print(f"p+2p^2={result.p_plus_2p2:.6f}")
    if args.out:
        io.write_calibration_result(args.out, result)
    if args.curve:
        grid = np.geomspace(sweep.n_total.min(), sweep.n_total.max(), 100)
        model = result.a_coef * args.g0 + result.b_coef / grid
        lines = ["mean_counts_per_pulse,g2_fit"]
        lines.extend(f"{x!r},{y!r}" for x, y in zip(grid.tolist(), model.tolist()))
        io.atomic_write_text(args.curve, "\n".join(lines) + "\n")
    return 0


def _cmd_nrf(args) -> int:
    if args.eta is not None and not 0.0 < args.eta <= 1.0:
        raise CliError(f"--eta must lie in (0, 1], got {args.eta}")
    if args.xt is not None and not 0.0 <= args.xt < 1.0:
        raise CliError(f"--xt must lie in [0, 1), got {args.xt}")
    rows = []
    for path in args.inputs:
        joint = io.read_joint_histogram(path)
        est = nrf_from_joint(joint)
        x = 0.5 * sum(joint.mean_counts)
        if args.eta is not None and args.xt is not None:
            x /= (1.0 + args.xt) * args.eta  # photocounts -> photons
        rows.append((x, est.value, est.std_err))
    io.write_nrf_sweep(args.out, rows)
    if not args.quiet:
        for x, val, err in rows:
            print(f"mean_photons={x:.6g} nrf={val:.6g} err={err:.6g}")
        if args.xt is not None:
            print(f"nrf_limit_coherent={nrf_limit_coherent(args.xt):.6g}")
            if args.eta is not None:
                print(f"nrf_limit_sv={nrf_limit_sv(args.xt, args.eta):.6g}")
    return 0


def _cmd_povm(args) -> int:
    params = DetectorParams(eta=args.eta, p_xt=args.xt, n_max=args.nmax,
                            pixel_count=args.nmax)
    q = channel_matrix(params, args.kmax)
    io.write_povm_csv(args.out, q)
    if not args.quiet:
        print(f"wrote {q.shape[0]}x{q.shape[1]} response matrix to {args.out}")
    return 0


def _cmd_reproduce(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    report = reproduce_figure(
        args.figure, args.out, seed=seed, pulses=args.pulses_per_point
    )
    if not args.quiet:
        print(report, end="")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "g2": _cmd_g2,
    "calibrate": _cmd_calibrate,
    "nrf": _cmd_nrf,
    "povm": _cmd_povm,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except UndefinedStatisticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CliError, io.SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
