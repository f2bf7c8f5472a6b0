"""In-memory spans around calls into hetcache's public functions.

The benchmark records spans from its own files: it replaces module
attributes with timing wrappers, so no hetcache source changes. A call is
seen only where the caller looks the name up in the patched module, which
is why some functions are patched in several modules (``cli`` and
``experiments`` import ``estimate_outage`` by name, for example). Calls made
inside pool workers are not seen; attribution runs at one worker.
"""

from __future__ import annotations

import functools
import json
import time

#: (module, attribute, span name). The span name is the defining module's.
TARGETS = (
    ("cli", "setup_from_config", "params.setup_from_config"),
    ("cli", "sweep_spec_from_config", "experiments.sweep_spec_from_config"),
    ("cli", "run_sweep", "experiments.run_sweep"),
    ("cli", "estimate_outage", "geometry_sim.estimate_outage"),
    ("experiments", "average_outage", "analytic.average_outage"),
    ("experiments", "estimate_outage", "geometry_sim.estimate_outage"),
    ("analytic", "total_outage", "analytic.total_outage"),
    ("analytic", "kernels", "analytic.kernels"),
    ("analytic", "kernel_integral", "analytic.kernel_integral"),
    ("geometry_sim", "stream_rng", "geometry_sim.stream_rng"),
    ("geometry_sim", "realize_network", "geometry_sim.realize_network"),
    ("geometry_sim", "simulate_request", "geometry_sim.simulate_request"),
)


class SpanRecorder:
    """Spans as (name, start, end, parent index); parent -1 is the root."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self, package) -> None:
        """Patch every target in ``package`` (the imported hetcache)."""
        for module_name, attr, name in TARGETS:
            module = getattr(package, module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load(path: str) -> list[tuple[str, float, float, int]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(s) for s in json.load(handle)]


def summarize(spans: list[tuple[str, float, float, int]]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time, in seconds.

    Self time is a span's duration minus the durations of its direct
    children; nested calls of one name count once per call.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out
