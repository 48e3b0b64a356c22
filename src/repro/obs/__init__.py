"""Observability layer: event bus, transaction log, metrics, analysis.

The measurement substrate for every scheduler stack (Table 1):

* :mod:`repro.obs.events` -- typed event bus; producers default to the
  zero-cost :data:`~repro.obs.events.NULL_BUS`.
* :mod:`repro.obs.txlog` -- TaskVine-style JSONL transaction log with a
  replay reader that reconstructs a live
  :class:`~repro.sim.trace.TraceRecorder` from disk.
* :mod:`repro.obs.metrics` -- counters/gauges/histograms plus a
  periodic sampler driven by the simulation clock.
* :mod:`repro.obs.analyze` -- straggler, transfer-hotspot,
  cache-pressure and critical-path reports (``python -m repro.obs``).
* :mod:`repro.obs.trace` -- causal span reconstruction and
  critical-path chain attribution over the event stream.
* :mod:`repro.obs.export` -- Chrome ``trace_event`` (Perfetto) and
  Prometheus text-exposition exporters.
* :mod:`repro.obs.live` -- streaming analyzer: the same sections,
  updated per event, with a streaming == batch guarantee
  (``python -m repro.obs watch``).
* :mod:`repro.obs.slo` -- declarative SLO rules with burn-rate
  alerts emitted as first-class bus events.
* :mod:`repro.obs.diff` -- differential diagnosis: attribute the
  makespan delta between two runs (``python -m repro.obs diff``).

This ``__init__`` deliberately imports only the dependency-free modules
so the schedulers can import :data:`NULL_BUS` without dragging in the
benchmark harness; :mod:`repro.obs.analyze`, :mod:`repro.obs.trace`,
:mod:`repro.obs.export` and the live/SLO/diff modules load lazily.
"""

from .events import (
    EVENT_TYPES,
    NULL_BUS,
    EventBus,
    NullBus,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sampler,
    install_standard_gauges,
)
from .txlog import (ReadStatus, TailReader, TransactionLog,
                    close_open_logs, install_signal_handlers,
                    read_records, replay, run_meta)

__all__ = [
    "EventBus", "NullBus", "NULL_BUS", "EVENT_TYPES",
    "TransactionLog", "read_records", "replay", "run_meta",
    "ReadStatus", "TailReader",
    "install_signal_handlers", "close_open_logs",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "Sampler",
    "install_standard_gauges",
    # lazily resolved from repro.obs.analyze:
    "RunLog", "load", "straggler_report", "transfer_hotspots",
    "cache_pressure", "critical_path", "render_report",
    # lazily resolved from repro.obs.trace:
    "Span", "SpanBuilder", "SpanRecorder", "NULL_SPAN_RECORDER",
    "build_spans", "critical_path_chain", "critical_path_by_tenant",
    "span_forest_digest",
    # lazily resolved from repro.obs.export:
    "chrome_trace", "write_chrome_trace", "prometheus_exposition",
    "registry_from_txlog",
    # lazily resolved from repro.obs.live / .slo / .diff:
    "LiveAnalyzer", "NULL_LIVE_ANALYZER",
    "SLORule", "SLOPolicy", "SLOMonitor", "NULL_SLO_MONITOR",
    "diff_runs", "explain_diff", "render_diff",
]

_ANALYZE_NAMES = {"RunLog", "load", "straggler_report",
                  "transfer_hotspots", "cache_pressure",
                  "critical_path", "render_report", "report_data"}

_LAZY_MODULES = {
    **{name: "analyze" for name in _ANALYZE_NAMES},
    **{name: "trace" for name in (
        "Span", "SpanBuilder", "SpanRecorder", "NULL_SPAN_RECORDER",
        "build_spans", "critical_path_chain", "critical_path_by_tenant",
        "span_forest_digest")},
    **{name: "export" for name in (
        "chrome_trace", "write_chrome_trace", "prometheus_exposition",
        "registry_from_txlog")},
    **{name: "live" for name in (
        "LiveAnalyzer", "NullLiveAnalyzer", "NULL_LIVE_ANALYZER")},
    **{name: "slo" for name in (
        "SLORule", "SLOPolicy", "SLOMonitor", "NullSLOMonitor",
        "NULL_SLO_MONITOR", "evaluate", "render_slo_report")},
    **{name: "diff" for name in (
        "diff_runs", "explain_diff", "render_diff")},
}


def __getattr__(name):
    module = _LAZY_MODULES.get(name)
    if module is not None:
        import importlib
        return getattr(importlib.import_module(f".{module}", __name__),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
