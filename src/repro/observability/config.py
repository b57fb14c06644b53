"""Observability configuration: what a run records about itself.

Everything is **off by default**: a spec without an observability section
(or with every flag false) builds no-op tracer/metrics objects, so the
instrumented hot paths test one cached boolean and record nothing, and
training results are bit-identical with observability on or off (asserted
by ``scripts/bench_observability.py``) -- the tracer, the metrics registry
and the event bus only *read* run state.

The section travels inside :class:`~repro.api.RunSpec` (``observability``),
declaring its ``repro train`` flags as field metadata like every other run
field (see :func:`repro.api.spec.knob`), but is deliberately
excluded from the sweep cache key (:func:`repro.sweep.cache.spec_key`):
two specs that differ only in what they observe describe the same run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ObservabilitySpec"]


@dataclass
class ObservabilitySpec:
    """Flags controlling the run's observability layer.

    ``trace``
        Record per-worker, per-iteration spans (compute / sparsify /
        encode / collective / push_pull / aggregate / eval), stamped with
        both host time and :class:`~repro.execution.straggler.VirtualClock`
        simulated time, exportable as Chrome trace-event JSON
        (``repro train --trace out.json``; open in Perfetto or
        chrome://tracing).
    ``metrics``
        Record counters / gauges / histograms (with label sets) from the
        trainer hot path, the execution schedules and the topology router,
        snapshotted into :meth:`~repro.api.RunResult.to_dict`.
    """

    trace: bool = field(default=False, metadata={
        "flag": "--trace",
        "help": "record per-worker per-iteration spans; with a "
                "path, write a Chrome trace-event JSON openable "
                "in Perfetto (ui.perfetto.dev) or chrome://tracing",
        # The flag doubles as the trace's output path; present = enabled.
        "argparse": {"action": "store", "nargs": "?", "const": "",
                     "default": None, "metavar": "OUT.json"},
    })
    metrics: bool = field(default=False, metadata={
        "flag": "--observe-metrics",
        "help": "record counters/gauges/histograms over the run "
                "and print the snapshot summary",
    })

    @property
    def enabled(self) -> bool:
        """Whether any recording is active (the event bus is always live)."""
        return bool(self.trace or self.metrics)
