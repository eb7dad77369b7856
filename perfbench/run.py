"""mppcsim benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
A run sets up (imports mppcsim, builds the first pass's inputs), then
repeats whole passes over the workload's fixed list of calls until the
passes have taken S seconds, checking every pass's outputs after it is
timed. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: setup_s (median of several
fresh interpreters timed from start to first job), wall_s (median pass),
peak_rss_mb. ``--trace 1`` reports the per-layer metrics from spans around
each call. It first runs one memory pass, with tracemalloc around the
detector and read_events calls, then alternates untraced and traced passes;
trace.overhead_s is the median traced pass minus the median untraced one.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Calls, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
READY = "ready"

# single-threaded BLAS, set before numpy loads, so that a run does the same
# work whatever number of cores BLAS would find
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _import_package():
    """Import mppcsim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mppcsim" / "__init__.py").is_file():
        raise ImportError(f"no mppcsim package under {src}")
    sys.path.insert(0, str(src))
    import mppcsim

    if Path(mppcsim.__file__).resolve().parent != src / "mppcsim":
        raise ImportError(f"mppcsim imported from {mppcsim.__file__}, not {src}")
    import workloads

    return workloads


def _one_pass(workload, seed, index, workdir, tracer=None, memory=False):
    pass_dir = workdir / f"pass-{index}"
    pass_dir.mkdir()
    inputs = workload.make_inputs(seed, index, pass_dir)
    calls = Calls(tracer, memory)
    root = tracer.begin("pass", "bench") if tracer else None
    start = time.perf_counter()
    workload.run(calls, inputs)
    wall = time.perf_counter() - start
    if tracer:
        tracer.end(root)
    written = sum(f.stat().st_size for f in pass_dir.rglob("*") if f.is_file())
    problems = workload.check(inputs, calls.results)
    unknown = set(problems) - set(calls.results)
    if unknown:
        raise KeyError(f"checks name no operation: {sorted(unknown)}")
    for key, why in sorted(problems.items()):
        print(f"pass {index}: check failed: {key}: {why}", file=sys.stderr)
    shutil.rmtree(pass_dir)
    return {
        "wall": wall,
        "attempted": calls.attempted,
        "failed": len(calls.failed | set(problems)),
        "bytes_written": written,
        "peaks_mb": dict(calls.peaks_mb),
    }


def _setup_probe(args) -> float:
    """Time from a fresh interpreter's start to its first job."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line != READY or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return elapsed


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(workload, args, workdir):
    passes, setups, measured = [], [], 0.0
    while measured < args.seconds or not passes:
        passes.append(_one_pass(workload, args.seed, len(passes), workdir))
        measured += passes[-1]["wall"]
        # set-up probes run between passes, spread over the run, so that
        # they meet the same machine load as the passes
        due = len(setups) * args.seconds / SETUP_SAMPLES
        if len(setups) < SETUP_SAMPLES and measured >= due:
            setups.append(_setup_probe(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_probe(args))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    return passes, {k: _metric(metrics[k], unit) for k, unit in _units("end_to_end").items()}


def _traced(workload, args, workdir):
    passes = [_one_pass(workload, args.seed, 0, workdir, memory=True)]
    untraced, traced, figures = [], [], []
    index = 1
    while sum(untraced) + sum(traced) < args.seconds or not traced:
        tracer = Tracer() if index % 2 == 0 else None
        passes.append(_one_pass(workload, args.seed, index, workdir, tracer=tracer))
        if tracer:
            traced.append(passes[-1]["wall"])
            figures.append(layer_metrics(tracer))
            figures[-1]["io.bytes_written"] = passes[-1]["bytes_written"]
        else:
            untraced.append(passes[-1]["wall"])
        index += 1
    metrics = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    for name in ("detector.peak_alloc_mb", "montecarlo.read_events_peak_mb"):
        metrics[name] = passes[0]["peaks_mb"].get(name, 0.0)
    return passes, {k: _metric(metrics[k], unit) for k, unit in _units("per_layer").items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workloads = _import_package()
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=HERE, prefix="work-") as tmp:
            workload.make_inputs(args.seed, 0, Path(tmp))
        print(READY, flush=True)
        return 0

    import reference

    broken = reference.self_check()
    for failure in broken:
        print(f"reference self-check failed: {failure}", file=sys.stderr)
    workdir = Path(tempfile.mkdtemp(dir=HERE, prefix="work-"))
    try:
        measure = _traced if args.trace else _end_to_end
        passes, metrics = measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "correct": not broken and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
