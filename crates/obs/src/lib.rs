//! # obs — dependency-free observability for the DBG4ETH pipeline
//!
//! Three cooperating facilities, all thread-safe and all **off by default**
//! so instrumented hot paths pay one relaxed atomic load and nothing else:
//!
//! * **Structured events** — the [`error!`]..[`trace!`] macros, gated by a
//!   level parsed once from `DBG4ETH_LOG`. Disabled levels skip argument
//!   formatting entirely. Events go to *stderr*, so stdout stays
//!   machine-readable (tables only) for every experiment binary.
//! * **Metrics registry** — counters, gauges, histograms with fixed bucket
//!   edges, and span timers with RAII guards ([`fn@span`]). Collection is
//!   switched on by the presence of `DBG4ETH_METRICS` (or by
//!   [`set_metrics_enabled`] from tests and harnesses).
//! * **JSON run-reports** — a versioned, serde-free [`Json`] value
//!   ([`Report`]) assembled from a registry snapshot plus caller-provided
//!   sections, written to the path named by `DBG4ETH_METRICS`.
//! * **Timeline tracing** — per-thread ring buffers of span begin/end
//!   events, switched on by `DBG4ETH_TRACE` and exported as Chrome
//!   `trace_event` JSON loadable in Perfetto (see [`mod@trace`] docs).
//! * **Report diffing** — [`diff_reports`] compares two run-reports span
//!   by span; the `report-diff` bench binary turns a past-threshold
//!   regression on a gated span into a non-zero exit for CI.
//!
//! Determinism contract: nothing in this crate feeds back into the
//! computation it observes, and every aggregation is keyed by a stable
//! static name and combined order-independently (integer adds, min/max), so
//! enabling observability never changes pipeline outputs and report
//! *structure* is identical at any `DBG4ETH_THREADS` (timing values
//! naturally vary run to run). Span hierarchy is encoded in the dotted span
//! names themselves — never in wall-clock interleaving — so fan-out onto
//! worker threads cannot reshape the report.

mod diff;
mod json;
mod log;
mod registry;
mod report;
mod span;
pub mod trace;

pub use diff::{diff_reports, CounterDelta, DiffConfig, HistDelta, ReportDiff, SpanDelta};
pub use json::Json;
pub use log::{emit, log_enabled, log_level, set_log_level, Level, LOG_ENV};
pub use registry::{
    counter_add, gauge_max, gauge_set, log_edges, metrics_enabled, metrics_path, observe, reset,
    set_metrics_enabled, snapshot, span_duration, Histogram, Snapshot, SpanStat, METRICS_ENV,
};
pub use report::{self_time_table, snapshot_json, Report, REPORT_SCHEMA, REPORT_VERSION};
pub use span::{span, span_depth, span_path, Span};
pub use trace::{
    current_task_index, export_trace_json, reset_trace, set_task_index, set_trace_enabled,
    trace_enabled, trace_path, write_trace_if_requested, TRACE_BUF_ENV, TRACE_ENV,
};
