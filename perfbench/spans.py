"""Operations and tracing for the benchmark.

``Calls`` runs each of the benchmark's calls into mppcsim as one
operation: it counts the attempt, records a raised exception as a failure
and keeps the result for the checks. With a ``Tracer`` it also records a
span per call (name, layer, start, end, parent), kept in memory until the
run ends. The layer of a call is the mppcsim module that defines the
function called.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

# calls whose peak allocation the memory pass records, by metric name
_MEMORY_PROBES = {
    "detector": "detector.peak_alloc_mb",
    "montecarlo.read_events": "montecarlo.read_events_peak_mb",
}


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, layer: str, work: dict | None = None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, layer, parent, time.perf_counter(), work=work or {}))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.remove(index)

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Calls:
    """One pass's operations: attempts, failures, results and spans.

    With ``memory=True`` the calls named in ``_MEMORY_PROBES`` run under
    tracemalloc and their peak allocation is kept in ``peaks_mb``.
    """

    def __init__(self, tracer: Tracer | None = None, memory: bool = False):
        self.tracer = tracer
        self.memory = memory
        self.results: dict = {}
        self.failed: set = set()
        self.peaks_mb: dict = defaultdict(float)

    def __call__(self, key: str, fn, *args, work: dict | None = None, **kwargs):
        if key in self.results:
            raise KeyError(f"operation {key!r} used twice in one pass")
        layer = _layer(fn)
        probe = self.memory and (
            _MEMORY_PROBES.get(layer) or _MEMORY_PROBES.get(f"{layer}.{fn.__name__}")
        )
        if probe:
            tracemalloc.start()
        span = self.tracer.begin(fn.__name__, layer, work) if self.tracer else None
        result = None
        try:
            result = fn(*args, **kwargs)
        except (Exception, SystemExit):
            # one failed operation must not end the pass
            print(f"operation {key} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.failed.add(key)
        finally:
            if span is not None:
                self.tracer.end(span)
            if probe:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks_mb[probe] = max(self.peaks_mb[probe], peak)
        self.results[key] = result
        return result

    @property
    def attempted(self) -> int:
        return len(self.results)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass; 0 where a layer has no calls."""
    spans = tracer.spans
    busy: dict = defaultdict(float)
    for span, self_time in zip(spans, tracer.self_times()):
        busy[span.layer] += self_time

    def total(select, what=lambda s: s.duration):
        return sum(what(s) for s in spans if select(s))

    def pulses(s):
        return s.work.get("pulses", 0)

    def cells(s):
        return s.work.get("cells", 0)

    def cli(kind):
        return total(lambda s: s.work.get("cli") == kind)

    def mc_sim(s):
        return s.layer == "montecarlo" and pulses(s) > 0

    boot = [s for s in spans if s.name in ("nrf_from_joint", "g2_cross_from_joint")]
    return {
        "montecarlo.busy_s": busy["montecarlo"],
        "montecarlo.ns_per_pulse": 1e9 * _ratio(total(mc_sim), total(mc_sim, pulses)),
        "sim_pulses_per_s": _ratio(
            total(lambda s: pulses(s) > 0, pulses), total(lambda s: pulses(s) > 0)
        ),
        "montecarlo.read_events_s": total(lambda s: s.name == "read_events"),
        "estimators.busy_s": busy["estimators"],
        "estimators.bootstrap_ms_per_call": 1e3
        * _ratio(sum(s.duration for s in boot), len(boot)),
        "detector.busy_s": busy["detector"],
        "detector.ns_per_cell": 1e9
        * _ratio(
            total(lambda s: s.layer == "detector" and cells(s) > 0),
            total(lambda s: s.layer == "detector", cells),
        ),
        "crosstalk.busy_s": busy["crosstalk"],
        "sources.busy_s": busy["sources"],
        "calibration.busy_s": busy["calibration"],
        "io.busy_s": busy["io"],
        "cli.simulate_s": cli("simulate"),
        "cli.simulate_events_s": cli("simulate_events"),
        "cli.events_overhead_s": cli("simulate_events") - cli("simulate"),
        "cli.analysis_s": cli("analysis"),
        "cli.povm_s": cli("povm"),
    }
