"""Alternated parent/change benchmark pairs, written as one BENCH_<N>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --tag N \\
        --workload NAME [--workload NAME ...] [--pairs 10] [--seed 1000] \\
        [--seconds 20] [--trace 0|1] [--append]

DIR is a checkout of the repository (for the parent, for example a
``git worktree`` or a ``git clone`` of the parent commit). For each
workload the script runs ``python3 perfbench/run.py`` once in each
checkout per pair, with the same seed on both sides, and swaps which side
runs first on every other pair, so that slow phases of the machine fall on
both sides alike. Pair i uses seed ``--seed + i``.

It writes ``BENCH_<N>.json`` in the ``--change`` checkout: every run's raw
last output line and total elapsed seconds (set-up probes and checks
included, so the growth of a run's length shows), then per workload and
metric the median and quartiles of each side (``statistics.quantiles``,
n=4) and the number of pairs in which the change read lower. With
``--append`` the new runs are added to those already in the file and the
summary is rebuilt from all of them. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return {"last_line": json.loads(lines[-1]), "elapsed_s": elapsed}


def _spread(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _summary(runs: list) -> dict:
    """Per workload (traced runs apart) and metric: each side's spread and
    the pairs in which the change read lower."""
    table = {}
    for run in runs:
        group = run["workload"] + (" (traced)" if run["trace"] else "")
        metrics = dict(run["last_line"]["metrics"])
        metrics["elapsed_s"] = {"value": run["elapsed_s"], "unit": "s"}
        for name, metric in metrics.items():
            entry = table.setdefault(group, {}).setdefault(name, {"unit": metric["unit"]})
            entry.setdefault(run["side"], {})[(run["seed"], run["pair"])] = metric["value"]
    summary = {}
    for group, metrics in sorted(table.items()):
        summary[group] = {}
        for name, entry in metrics.items():
            parent, change = entry.get("parent", {}), entry.get("change", {})
            pairs = sorted(set(parent) & set(change))
            summary[group][name] = {
                "unit": entry["unit"],
                **{side: _spread(list(entry[side].values())) for side in SIDES if side in entry},
                "pairs": len(pairs),
                "change_lower_in_pairs": sum(change[k] < parent[k] for k in pairs),
            }
    return summary


def _machine() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=False).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy}


def _commit(checkout: Path) -> str:
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--tag", required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = checkouts["change"] / f"BENCH_{args.tag}.json"

    runs = json.loads(out.read_text())["runs"] if args.append and out.exists() else []
    for workload in args.workload:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = _run(checkouts[side], workload, seed, args.seconds, args.trace)
                runs.append({"workload": workload, "seed": seed, "seconds": args.seconds,
                             "trace": args.trace, "side": side, "pair": pair,
                             "order": list(order), **result})
                print(f"{workload} seed {seed} {side}: {result['elapsed_s']:.1f} s "
                      f"{json.dumps(result['last_line']['metrics'])}", file=sys.stderr)

    lines = [run["last_line"] for run in runs]
    report = {
        "description": (
            "Alternated parent/change runs of `python3 perfbench/run.py --workload W --seed S "
            "--seconds T [--trace 1]` by scripts/bench_pairs.py, the order of parent and "
            "change swapped every pair; each run's raw last output line and total elapsed "
            "seconds, then per-metric medians and quartiles (statistics.quantiles, n=4) per "
            "side, elapsed_s among them."
        ),
        "parent_commit": _commit(checkouts["parent"]),
        "change_commit": "the commit that adds this file (its parent is parent_commit)",
        "machine": _machine(),
        "checks": {
            "all_correct": all(line["correct"] for line in lines),
            "failed_total": sum(line["failed"] for line in lines),
            "runs": len(runs),
        },
        "summary": _summary(runs),
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
