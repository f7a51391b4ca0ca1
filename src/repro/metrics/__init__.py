"""Measurement: time series, host recorders, plain-text reports,
and per-phase breakdowns computed from trace spans."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "recorder": (
        "DEFAULT_RECORD_INTERVAL", "HostRecorder", "RECORDED_METRICS",
    ),
    "report": ("ascii_plot", "format_table"),
    "timeseries": ("TimeSeries",),
    "tracestats": (
        "format_phase_table", "phase_breakdown", "span_durations",
    ),
})
