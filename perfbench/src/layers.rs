//! Per-layer measurement from outside the crates: the spans and counters
//! they already emit under `DBG4ETH_METRICS` / `DBG4ETH_TRACE`, and timers
//! around the benchmark's own calls into each crate's public functions.

use crate::common::{median, ms, Outcome};
use dbg4eth::{BranchScorer, Session};
use eth_graph::Subgraph;
use gnn::GraphTensors;
use obs::Json;
use std::collections::HashMap;
use std::time::Instant;

/// Accounts the per-account layer timers run on, at most.
pub const TIMED_ACCOUNTS: usize = 64;

/// The registry and the timeline as they stood at the end of a timed
/// phase. Empty (every read is 0) when metrics are off.
pub struct Captured {
    snap: obs::Snapshot,
    /// Span durations in ms, per span name, from the timeline trace.
    durations: HashMap<String, Vec<f64>>,
}

/// Name of the span wrapping every timed phase; trace events outside it
/// (set-up, output checks) are ignored.
pub const TIMED_SPAN: &str = "perfbench.timed";

/// Open the timed phase: clear the registry so set-up does not count, and
/// open the span that bounds the phase on the timeline.
pub fn begin_timed() -> obs::Span {
    obs::reset();
    obs::span(TIMED_SPAN)
}

/// Run `f` with metrics and tracing off, so work between the rounds of a
/// timed phase (output checks) stays out of the layer metrics.
pub fn unobserved<T>(f: impl FnOnce() -> T) -> T {
    let (metrics, trace) = (obs::metrics_enabled(), obs::trace_enabled());
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    let out = f();
    obs::set_metrics_enabled(metrics);
    obs::set_trace_enabled(trace);
    out
}

/// Snapshot the registry and pair the trace's begin/end events into span
/// durations, keeping only spans that lie inside the timed phase.
pub fn capture() -> Captured {
    let snap = obs::snapshot();
    let mut durations: HashMap<String, Vec<f64>> = HashMap::new();
    if obs::trace_enabled() {
        let doc = obs::export_trace_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
        // (name, tid, begin ts, end ts) of every completed span.
        let mut stacks: HashMap<u64, Vec<(String, f64)>> = HashMap::new();
        let mut spans: Vec<(String, f64, f64)> = Vec::new();
        for e in events {
            let (Some(name), Some(ph), Some(ts), Some(tid)) = (
                e.get("name").and_then(Json::as_str),
                e.get("ph").and_then(Json::as_str),
                e.get("ts").and_then(Json::as_f64),
                e.get("tid").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let stack = stacks.entry(tid as u64).or_default();
            if ph == "B" {
                stack.push((name.to_string(), ts));
            } else {
                while let Some((open, t0)) = stack.pop() {
                    if open == name {
                        spans.push((open, t0, ts));
                        break;
                    }
                }
            }
        }
        let window = spans
            .iter()
            .filter(|(n, _, _)| n == TIMED_SPAN)
            .map(|&(_, t0, t1)| (t0, t1))
            .fold(None, |acc: Option<(f64, f64)>, (t0, t1)| {
                Some(acc.map_or((t0, t1), |(a, b)| (a.min(t0), b.max(t1))))
            });
        if let Some((lo, hi)) = window {
            for (name, t0, t1) in spans {
                if t0 >= lo && t1 <= hi && name != TIMED_SPAN {
                    durations.entry(name).or_default().push((t1 - t0) / 1e3);
                }
            }
        }
    }
    Captured { snap, durations }
}

/// Snapshot the registry alone, without the timeline: enough for span
/// totals, counters and gauges.
pub fn capture_registry() -> Captured {
    Captured { snap: obs::snapshot(), durations: HashMap::new() }
}

impl Captured {
    pub fn counter(&self, name: &str) -> f64 {
        self.snap.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.snap.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Inclusive wall time of every closed span `name`, summed, in ms.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.snap.spans.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e6)
    }

    pub fn span_count(&self, name: &str) -> f64 {
        self.snap.spans.get(name).map_or(0.0, |s| s.count as f64)
    }

    pub fn span_max_ms(&self, name: &str) -> f64 {
        self.snap.spans.get(name).map_or(0.0, |s| s.max_ns as f64 / 1e6)
    }

    /// Every span of the timed phase with its exclusive (self) time in ms,
    /// largest first.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = self
            .snap
            .spans
            .iter()
            .filter(|(name, _)| name.as_str() != TIMED_SPAN)
            .map(|(name, s)| (name.clone(), s.self_ns as f64 / 1e6))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Per-instance durations of span `name` from the timeline, in ms.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of span `name`'s per-instance durations; 0 when it never ran.
    pub fn span_p50_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(d)
        }
    }

    /// Training-path metrics, per training: lowering, the branch
    /// encoders' forward and backward passes, their tensor pools and
    /// tapes, the calibration and GBDT fits and the hold-out scoring.
    pub fn training_layers(&self, out: &mut Outcome, trainings: f64) {
        let per = |name: &str| self.span_ms(name) / trainings;
        out.layer("features.lower_ms", per("pipeline.encode.lower"), "ms");
        out.layer("gnn.train.gsg.forward_ms", per("train.gsg.forward"), "ms");
        out.layer("gnn.train.gsg.backward_ms", per("train.gsg.backward"), "ms");
        out.layer("gnn.train.ldg.forward_ms", per("train.ldg.forward"), "ms");
        out.layer("gnn.train.ldg.backward_ms", per("train.ldg.backward"), "ms");
        out.layer("gnn.encode_batch_ms", per("encode.batch"), "ms");
        let count = |name: &str| self.counter(name) / trainings;
        out.layer("tensor.gsg.pool_bytes", count("train.gsg.pool.allocated_bytes"), "bytes");
        out.layer("tensor.ldg.pool_bytes", count("train.ldg.pool.allocated_bytes"), "bytes");
        out.layer(
            "tensor.ldg.pool_high_water_buffers",
            self.gauge("train.ldg.pool.high_water_buffers"),
            "count",
        );
        out.layer("tensor.gsg.tape_ops", count("train.gsg.tape_ops"), "count");
        out.layer("tensor.ldg.tape_ops", count("train.ldg.tape_ops"), "count");
        out.layer("calib.fit_ms", per("calib.adaptive.fit"), "ms");
        out.layer("boost.fit_ms", per("boost.gbdt.fit"), "ms");
        out.layer("core.holdout_score_ms", per("pipeline.encode.score"), "ms");
    }

    /// The `par` metrics: tasks dispatched per `unit`, and the busiest
    /// worker's task count over the mean worker's.
    pub fn par_layers(&self, out: &mut Outcome, units: f64) {
        let tasks = self.counter("par.tasks");
        out.layer("par.tasks", tasks / units.max(1.0), "count");
        let imbalance = self.snap.histograms.get("par.tasks_per_worker").map_or(0.0, |h| {
            if h.count == 0 || tasks == 0.0 {
                0.0
            } else {
                h.max / (tasks / h.count as f64)
            }
        });
        out.layer("par.tasks_per_worker_max_over_mean", imbalance, "ratio");
    }

    /// Infer-path metrics: `model.infer` p50 and the share of its time the
    /// per-account layer timers do not explain.
    pub fn infer_layers(&self, out: &mut Outcome, per_account: &AccountLayers) {
        out.layer("core.infer_ms_p50", self.span_p50_ms("model.infer"), "ms");
        let infer_ms = self.span_ms("model.infer");
        let accounts = self.counter("model.infer.accounts");
        let unattributed = if infer_ms > 0.0 {
            100.0 * (1.0 - accounts * per_account.total_ms() / infer_ms)
        } else {
            0.0
        };
        out.layer("core.unattributed_pct", unattributed, "%");
    }
}

/// Per-account cost of each layer on the scoring path, measured with the
/// benchmark's own timers on the workload's own accounts.
#[derive(Clone, Copy, Default)]
pub struct AccountLayers {
    pub lower_ms: f64,
    pub gsg_ms: f64,
    pub ldg_ms: f64,
    pub calib_ms: f64,
    pub boost_ms: f64,
}

impl AccountLayers {
    /// Time lowering, both branch encoders, calibration and the stacked
    /// classifier on up to [`TIMED_ACCOUNTS`] of `accounts`.
    pub fn measure(session: &Session, accounts: &[Subgraph]) -> Self {
        let accounts = &accounts[..accounts.len().min(TIMED_ACCOUNTS)];
        let n = accounts.len().max(1) as f64;
        let model = session.model();
        let t = Instant::now();
        let tensors: Vec<GraphTensors> = accounts
            .iter()
            .map(|g| GraphTensors::from_subgraph(g, model.config.t_slices))
            .collect();
        let lower_ms = ms(t.elapsed()) / n;

        let mut calib_ms = 0.0;
        let mut confs: Vec<Vec<f64>> = vec![Vec::new(); tensors.len()];
        let mut branch = |scorer: &dyn Fn(&GraphTensors) -> f64,
                          scaler: Option<calib::ConfidenceScaler>,
                          calibrator: Option<&calib::AdaptiveCalibrator>|
         -> f64 {
            let t = Instant::now();
            let raw: Vec<f64> = tensors.iter().map(scorer).collect();
            let score_ms = ms(t.elapsed()) / n;
            let scaled =
                scaler.unwrap_or_else(|| calib::ConfidenceScaler::fit(&raw)).scale_all(&raw);
            let t = Instant::now();
            let calibrated =
                calibrator.map_or_else(|| scaled.clone(), |c| c.calibrate_all(&scaled));
            calib_ms += ms(t.elapsed()) / n;
            for (row, c) in confs.iter_mut().zip(calibrated) {
                row.push(c);
            }
            score_ms
        };
        let gsg_ms = model
            .gsg
            .as_ref()
            .map_or(0.0, |b| branch(&|g| b.scorer.raw_score(g), b.scaler, b.calibrator.as_ref()));
        let ldg_ms = model
            .ldg
            .as_ref()
            .map_or(0.0, |b| branch(&|g| b.scorer.raw_score(g), b.scaler, b.calibrator.as_ref()));
        let t = Instant::now();
        let probs: Vec<f64> = confs.iter().map(|row| model.classifier.predict_proba(row)).collect();
        let boost_ms = ms(t.elapsed()) / n;
        std::hint::black_box(probs);
        Self { lower_ms, gsg_ms, ldg_ms, calib_ms, boost_ms }
    }

    pub fn total_ms(&self) -> f64 {
        self.lower_ms + self.gsg_ms + self.ldg_ms + self.calib_ms + self.boost_ms
    }

    pub fn report(&self, out: &mut Outcome) {
        out.layer("gnn.lower_ms_per_account", self.lower_ms, "ms");
        out.layer("gnn.gsg.score_ms_per_account", self.gsg_ms, "ms");
        out.layer("gnn.ldg.score_ms_per_account", self.ldg_ms, "ms");
        out.layer("calib.apply_us_per_account", self.calib_ms * 1e3, "us");
        out.layer("boost.predict_us_per_account", self.boost_ms * 1e3, "us");
    }
}

/// Client-side cost of building one request frame and of keying one
/// account in the score cache, as the server does before a lookup.
/// Returns both, in µs.
pub fn wire_layers(out: &mut Outcome, batches: &[Vec<Subgraph>]) -> (f64, f64) {
    let batches = &batches[..batches.len().min(TIMED_ACCOUNTS)];
    let mut encode = Vec::new();
    let mut keying = Vec::new();
    for batch in batches {
        let request = serve::Request::Score(serve::ScoreRequest {
            id: 1,
            deadline_ms: 0,
            accounts: batch.clone(),
        });
        let t = Instant::now();
        let payload = request.to_payload();
        encode.push(ms(t.elapsed()) * 1e3);
        std::hint::black_box(payload);
        for g in batch {
            let t = Instant::now();
            let mut w = model_io::SectionWriter::new();
            serve::proto::encode_subgraph(&mut w, g);
            let fp = serve::fingerprint(&w.into_bytes());
            keying.push(ms(t.elapsed()) * 1e3);
            std::hint::black_box(fp);
        }
    }
    let encode_us = if encode.is_empty() { 0.0 } else { median(&encode) };
    let keying_us = if keying.is_empty() { 0.0 } else { median(&keying) };
    out.layer("serve.encode_us_per_request", encode_us, "us");
    out.layer("serve.fingerprint_us", keying_us, "us");
    (encode_us, keying_us)
}

/// Write the run-report and the timeline trace the crates' `obs` layer
/// collected, to the paths `DBG4ETH_METRICS` / `DBG4ETH_TRACE` name.
pub fn write_artifacts(name: &str, out: &mut Outcome) {
    if obs::metrics_enabled() {
        let mut report = obs::Report::new(name);
        report.attach_registry();
        match report.write_if_requested() {
            Ok(Some(path)) => out.info("run_report", path.display().to_string()),
            Ok(None) => {}
            Err(e) => eprintln!("perfbench: cannot write run-report: {e}"),
        }
    }
    match obs::write_trace_if_requested() {
        Ok(Some(path)) => out.info("trace", path.display().to_string()),
        Ok(None) => {}
        Err(e) => eprintln!("perfbench: cannot write trace: {e}"),
    }
}
