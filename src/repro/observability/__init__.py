"""End-to-end run observability: span tracing, metrics, event hooks.

Three collaborators, combined per run by :class:`Observability`:

- :class:`SpanTracer` -- named spans (compute / sparsify / encode /
  collective / push_pull / aggregate / eval) per worker per iteration,
  stamped with both host time and virtual-clock simulated time, exported
  as Chrome trace-event JSON (open in Perfetto or chrome://tracing);
- :class:`MetricsRegistry` -- counters, gauges and histograms with label
  sets, fed by the trainer hot path, the execution schedules, the
  topology router and the sweep engine;
- :class:`EventBus` -- before/after-aggregation, push/pull and
  round-complete hooks for controllers and tests.

Everything is off by default (``ObservabilitySpec()``), deterministic in
simulated time, and guaranteed non-perturbing: training results are
bit-identical with observability on or off, as
``scripts/bench_observability.py`` asserts.

On top of the per-run layer sits the durable half:

- :class:`RunLedger` -- an append-only, concurrency-safe JSONL history of
  runs keyed by the sweep cache's spec hash (``repro runs list|show``);
- :func:`render_openmetrics` / :func:`parse_openmetrics` -- the
  OpenMetrics text exposition of a metrics snapshot, and its inverse;
- :class:`LiveMonitor` -- a per-round JSONL stream over the event bus
  (``repro train --monitor out.jsonl``);
- :mod:`repro.observability.regress` -- the regression sentinel comparing
  a run against the ledger's historical distribution for the same spec
  (``repro check``) and diffing two runs or traces (``repro compare``).
"""

from repro.observability.config import ObservabilitySpec
from repro.observability.events import EVENTS, EventBus
from repro.observability.export import (
    LiveMonitor,
    parse_openmetrics,
    render_openmetrics,
)
from repro.observability.hub import Observability
from repro.observability.ledger import RunLedger, default_ledger_path
from repro.observability.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.observability.spans import NULL_TRACER, PHASES, NullSpanTracer, Span, SpanTracer

__all__ = [
    "ObservabilitySpec",
    "Observability",
    "EventBus",
    "EVENTS",
    "SpanTracer",
    "NullSpanTracer",
    "Span",
    "PHASES",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_METRICS",
    "NULL_TRACER",
    "RunLedger",
    "default_ledger_path",
    "LiveMonitor",
    "render_openmetrics",
    "parse_openmetrics",
]
