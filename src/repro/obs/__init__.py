"""Observability: tracing, time series, SLOs, profiling, dashboards.

- :mod:`repro.obs.trace` — causal spans keyed to simulated time.
- :mod:`repro.obs.document` — the document model every report is built
  as (sections of paragraphs, warnings, tables, bullets) and its three
  renderers: ``to_markdown``, ``to_html``, ``to_text``.
- :mod:`repro.obs.report` — trace analysis (latency tables, critical
  paths, hotspots); ``trace_sections`` is the report behind
  ``scripts/trace_report.py``.
- :mod:`repro.obs.timeseries` — the sim-time TSDB that periodically
  scrapes every :class:`~repro.metrics.counters.MetricsRegistry`.
- :mod:`repro.obs.slo` — declarative objectives with multi-window
  error-budget burn-rate alerts over TSDB windows.
- :mod:`repro.obs.profile` — the event-loop profiler (wall-clock CPU
  per event label, wall-vs-sim ratio, flamegraph export).
- :mod:`repro.obs.dashboard` — ``run_document`` merges one run's trace,
  TSDB export, fault log, and SLO verdicts into a single document
  (``scripts/dashboard_report.py``); ``study_document`` does the same
  for a multi-seed study (``scripts/study_run.py``).

Histogram metrics live with the other service metrics in
:mod:`repro.metrics.counters`.
"""

from repro.obs.document import (Document, Section, to_html, to_markdown,
                                to_text)
from repro.obs.profile import LoopProfiler
from repro.obs.report import (Trace, TraceRecord, critical_path, hotspots,
                              load_trace, report_json, slowest_span,
                              span_table, trace_sections)
from repro.obs.slo import (BurnRule, RatioSli, SloMonitor, SloSpec,
                           ThresholdSli, correlate_alerts)
from repro.obs.timeseries import Series, TimeSeriesDB
from repro.obs.trace import (NULL_SPAN, NULL_TRACER, NullTracer, Span,
                             Tracer)

__all__ = [
    "Span", "Tracer", "NullTracer", "NULL_SPAN", "NULL_TRACER",
    "Trace", "TraceRecord", "load_trace", "span_table", "slowest_span",
    "critical_path", "hotspots", "trace_sections", "report_json",
    "Document", "Section", "to_markdown", "to_html", "to_text",
    "Series", "TimeSeriesDB",
    "SloSpec", "SloMonitor", "BurnRule", "RatioSli", "ThresholdSli",
    "correlate_alerts",
    "LoopProfiler",
]
