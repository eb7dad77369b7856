"""Seeded stochastic simulation of pulses through source, loss, dark
counts, crosstalk and saturation, for one detector or two correlated arms.

Randomness is drawn from counter-based Philox streams keyed by
(seed, stage, chunk-of-pulses) with a fixed chunk size, so results are
bit-identical no matter how the chunks are executed or merged; histogram
merging across chunks is a plain sum. Chunks therefore run concurrently
on a thread pool sized to the CPUs the process may use (numpy's sampling
loops release the interpreter lock), and the output is bit-identical for
any worker count.

Every pulse is drawn in one step from the exact law of its recorded
counts, built once per run from the one detector chain of
:mod:`mppcsim.detector`, in either of its crosstalk laws. An arm that has
the source to itself (one arm, independent arms, sweeps) thins the source
by loss in closed form (``SourceSpec.after_loss``) and hands the survivors
to ``detector._count_law``, the only place the dark stage, crosstalk and
the clamp are written. Twin arms share the pair number, so they draw one
cell of the joint table of ``joint_photocount``. The ``cascade`` law
agrees with the histogram-level algebra of :mod:`mppcsim.crosstalk` to
first order in p only: a single avalanche reaches 2 counts with
probability p(1 - p) here and p in the algebra.

One chunk loop serves one arm and two. The main thread merges the
chunks' counts and writes the optional per-pulse event stream strictly in
chunk order, one format operation per chunk; the stream is written
atomically (temp file plus rename), so an interrupted run leaves no
partial file. :func:`read_events` parses such a file in bulk into integer
columns, then builds the records in one pass with the collector paused.
"""
from __future__ import annotations

import gc
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .detector import CROSSTALK_MODES, DetectorParams, _count_law, joint_photocount
from .estimators import _sweep_point
from .histograms import CountHistogram, JointCountHistogram, SweepSeries
from .io import atomic_open
from .sources import SourceSpec

CHUNK = 1 << 16

# chunk-pool threads: the CPUs this process may run on
_WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

# stage tags of the keyed RNG streams: the signal arm's (or the twin
# table's) draw and the idler arm's draw
_STAGES = (0, 4)


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulated acquisition run."""

    source: SourceSpec
    detector_s: DetectorParams
    trials: int
    detector_i: DetectorParams | None = None
    seed: int = 0
    crosstalk_mode: str = "binomial"

    def __post_init__(self):
        if self.trials < 1 or int(self.trials) != self.trials:
            raise ValueError("trials must be a positive integer")
        if not 0 <= self.seed < 2**64 or int(self.seed) != self.seed:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.crosstalk_mode not in CROSSTALK_MODES:
            raise ValueError(f"crosstalk_mode must be one of {CROSSTALK_MODES}")
        if self.source.is_twin and self.detector_i is None:
            raise ValueError("twin sources require detector_i")


class EventRecord(NamedTuple):
    """One pulse of the raw event stream; ``counts_i`` is ``None`` for one arm.

    A named tuple: records are immutable, unpack as
    ``pulse, counts_s, counts_i = record`` and compare equal to plain
    tuples of the same values.
    """

    pulse_index: int
    counts_s: int
    counts_i: int | None = None


def _rng(seed: int, stage: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(stage, chunk))
    return np.random.Generator(np.random.Philox(ss))


def _cdf(probs: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # absorb rounding and any truncation residual in the last cell
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="right").astype(np.int64, copy=False)


def _write_events(fh, start: int, recs) -> None:
    """Append one chunk of event rows with one format operation over the
    interleaved columns, byte-identical to ``csv.writer`` output (CRLF line
    ends, empty ``counts_i`` for one arm)."""
    size = recs[0].size
    row = "%d,%d,\r\n" if len(recs) == 1 else "%d,%d,%d\r\n"
    rows = np.stack((np.arange(start, start + size), *recs), axis=1)
    fh.write((row * size) % tuple(rows.ravel().tolist()))


def _run_meta(config: SimulationConfig) -> dict:
    meta = {
        "source": config.source.kind,
        "mean": config.source.mean,
        "trials": config.trials,
        "seed": config.seed,
        "xt_mode": config.crosstalk_mode,
        "eta": config.detector_s.eta,
        "xt": config.detector_s.p_xt,
        "nmax": config.detector_s.n_max,
        "dark": config.detector_s.dark_mean,
    }
    if config.source.kind == "twin_multimode":
        meta["modes"] = config.source.modes
    if config.source.kind == "fock":
        meta["fock_n"] = config.source.fock_n
    if config.detector_i is not None:
        meta.update(
            eta2=config.detector_i.eta,
            xt2=config.detector_i.p_xt,
            nmax2=config.detector_i.n_max,
            dark2=config.detector_i.dark_mean,
        )
    return meta


def _laws(config: SimulationConfig, dets, shared: bool) -> list:
    """The CDFs each chunk draws from: one per arm of ``dets``, or for
    ``shared`` arms one over the flattened (N_s, N_i) joint table."""
    source, mode = config.source, config.crosstalk_mode
    if shared:
        joint = joint_photocount(source.distribution(), *dets, crosstalk_mode=mode)
        return [_cdf(joint.probs.ravel())]
    return [_cdf(_count_law(source.after_loss(det.eta).probs, det, mode)) for det in dets]


def _run_chunk(cdfs, shape, seed, chunk, size, keep_events):
    """Draw one chunk of pulses, one recorded count (or twin cell) per CDF
    in ``cdfs``; return the chunk's flattened count table of ``shape`` and,
    if ``keep_events``, the recorded counts of each arm."""
    draws = [_draw(cdf, _rng(seed, stage, chunk), size) for cdf, stage in zip(cdfs, _STAGES)]
    flat = draws[0] if len(draws) == 1 else draws[0] * shape[1] + draws[1]
    counts = np.bincount(flat, minlength=math.prod(shape))
    return counts, np.unravel_index(flat, shape) if keep_events else None


def _simulate(config: SimulationConfig, arms: int, shared: bool, events_path):
    """Run every chunk through one arm or, for ``arms == 2``, both; return
    the count table, a vector for one arm and an (N_s, N_i) matrix for two.

    Chunks run on ``_WORKERS`` threads, with at most ``_WORKERS + 1``
    started and not yet merged; the merge adds counts and writes event rows
    in chunk order.
    """
    dets = (config.detector_s, config.detector_i)[:arms]
    shape = tuple(d.n_max + 1 for d in dets)
    cdfs = _laws(config, dets, shared)
    counts = np.zeros(math.prod(shape), dtype=np.int64)
    pending = deque()
    pool = ThreadPoolExecutor(_WORKERS)
    try:
        with atomic_open(events_path, newline="") if events_path else nullcontext() as fh:
            if fh is not None:
                fh.write("pulse,counts_s,counts_i\r\n")
            for chunk, start in enumerate(range(0, config.trials, CHUNK)):
                size = min(CHUNK, config.trials - start)
                job = (cdfs, shape, config.seed, chunk, size, fh is not None)
                pending.append((start, pool.submit(_run_chunk, *job)))
                last = start + size == config.trials
                while pending and (last or len(pending) > _WORKERS):
                    done_start, future = pending.popleft()
                    chunk_counts, recs = future.result()
                    counts += chunk_counts
                    if fh is not None:
                        _write_events(fh, done_start, recs)
    finally:
        # after an exception, drop the chunks no thread has started
        pool.shutdown(cancel_futures=True)
    return counts.reshape(shape)


def simulate_single(config: SimulationConfig, events_path=None) -> CountHistogram:
    """Simulate one detector; returns the photocount histogram (bin 0 included)."""
    if config.source.is_twin:
        raise ValueError("twin sources describe two arms; use simulate_twin")
    counts = _simulate(config, 1, False, events_path)
    return CountHistogram(config.trials, counts, _run_meta(config))


def _simulate_two_arms(config: SimulationConfig, shared: bool, events_path):
    if config.detector_i is None:
        raise ValueError("two-arm simulation requires detector_i")
    counts = _simulate(config, 2, shared, events_path)
    return JointCountHistogram(config.trials, counts, _run_meta(config))


def simulate_twin(config: SimulationConfig, events_path=None) -> JointCountHistogram:
    """Simulate correlated arms sharing the drawn pair number per pulse.

    Twin kinds draw the pair number from their distribution; a ``fock``
    source is also accepted as a deterministic pair number (useful as a
    perfectly correlated reference).
    """
    if not (config.source.is_twin or config.source.kind == "fock"):
        raise ValueError("simulate_twin needs a twin_* (or fock) source kind")
    return _simulate_two_arms(config, shared=True, events_path=events_path)


def simulate_independent(config: SimulationConfig, events_path=None) -> JointCountHistogram:
    """Simulate two arms fed by independent draws of the same source."""
    if config.source.is_twin:
        raise ValueError("independent arms need a non-twin source kind")
    return _simulate_two_arms(config, shared=False, events_path=events_path)


def read_events(path) -> list[EventRecord]:
    """Read back an event-stream CSV written by the simulate functions.

    The file is parsed in bulk into integer columns, then one
    :class:`EventRecord` per pulse is built in one C-level pass with the
    cyclic garbage collector paused (records hold only ints, so form no
    cycles). CRLF and LF line ends both read. A wrong header, a missing,
    negative or non-integer field, rows that mix one and two arms, or a pulse
    column other than 0, 1, ..., T-1 raise ``ValueError`` naming the path.
    """
    with open(path, "rb") as fh:
        header, _, body = fh.read().partition(b"\n")
    if header.rstrip(b"\r") != b"pulse,counts_s,counts_i":
        raise ValueError(f"{path}: not an event-stream file")
    if not body.strip():
        return []
    if b"-" in body:
        raise ValueError(f"{path}: negative field")
    # -1 marks the empty counts_i of a one-arm row, so every row has 3 fields
    body = body.rstrip(b"\r\n") + b"\n"
    body = body.replace(b",\r\n", b",-1\n").replace(b",\n", b",-1\n")
    try:
        cols = np.loadtxt(
            body.decode("ascii").splitlines(), dtype=np.int64, delimiter=",",
            comments=None, ndmin=2,
        ).T
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(cols) != 3:
        raise ValueError(f"{path}: rows need 3 fields, found {len(cols)}")
    one_arm = cols[2] < 0
    if one_arm.any() and not one_arm.all():
        raise ValueError(f"{path}: mixes one-arm and two-arm rows")
    if not np.array_equal(cols[0], np.arange(cols.shape[1])):
        raise ValueError(f"{path}: pulse column is not 0, 1, ..., {cols.shape[1] - 1}")
    counts_i = repeat(None) if one_arm[0] else cols[2].tolist()
    rows = zip(cols[0].tolist(), cols[1].tolist(), counts_i)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(map(tuple.__new__, repeat(EventRecord), rows))
    finally:
        if enabled:
            gc.enable()


def _subseed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=[int(seed), 0x5EED, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def sweep(config: SimulationConfig, intensities) -> SweepSeries:
    """Run one single-arm simulation per intensity with derived sub-seeds.

    Always returns a :class:`SweepSeries` of measured g2 versus mean counts
    per pulse. Two-arm configs raise ``ValueError``; run them point by
    point with :func:`simulate_twin` or :func:`simulate_independent`.
    """
    grid = np.asarray(intensities, dtype=float)
    if grid.size == 0:
        raise ValueError("intensity grid is empty")
    if grid.size < 3:
        raise ValueError("intensity grid needs at least 3 points")
    if np.any(grid <= 0):
        raise ValueError("intensities must be strictly positive")
    if config.source.is_twin or config.detector_i is not None:
        raise ValueError(
            "sweep runs one arm; run two-arm configs point by point with "
            "simulate_twin or simulate_independent"
        )

    points = []
    for idx, mean in enumerate(grid):
        cfg = replace(
            config,
            source=replace(config.source, mean=float(mean)),
            seed=_subseed(config.seed, idx),
        )
        points.append(_sweep_point(simulate_single(cfg)))
    meta = _run_meta(config)
    meta["mean"] = [float(v) for v in grid]
    return SweepSeries(np.array(points), meta=meta)
