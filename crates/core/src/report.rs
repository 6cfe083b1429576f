//! Pipeline run-reports (`DBG4ETH_METRICS`).
//!
//! [`crate::run`] records one JSON blob per completed run with
//! [`record_run`]; [`write_report`] assembles the versioned document —
//! schema header, every recorded run (epoch-loss curves, the adaptive
//! calibrator table, test metrics) and the metrics registry (stage
//! wall-times, counters, fan-out histograms) — and writes it to the path
//! named by `DBG4ETH_METRICS`. Experiment binaries call [`write_report`]
//! (via `bench::emit_report`) last, so the file on disk ends up holding the
//! complete multi-run report. See DESIGN.md ("Observability") for the
//! schema.

use crate::branch::Branch;
use crate::config::Dbg4EthConfig;
use crate::pipeline::{BranchDiagnostics, RunOutput};
use obs::{Json, Report};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

fn collected() -> &'static Mutex<Vec<Json>> {
    static RUNS: OnceLock<Mutex<Vec<Json>>> = OnceLock::new();
    RUNS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Record a completed run for the next [`write_report`] call.
pub fn record_run(label: &str, config: &Dbg4EthConfig, out: &RunOutput) {
    let json = run_json(label, config, out);
    collected().lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(json);
}

/// Every run recorded so far (in completion order).
#[must_use]
pub fn collected_runs() -> Vec<Json> {
    collected().lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Forget recorded runs (tests; harnesses emitting independent reports).
pub fn clear_runs() {
    collected().lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
}

/// One run's diagnostics as a JSON object: configuration fingerprint, test
/// metrics, and per-branch epoch curves plus the calibrator table.
#[must_use]
pub fn run_json(label: &str, config: &Dbg4EthConfig, out: &RunOutput) -> Json {
    let mut run = Json::obj();
    run.set("label", label);
    run.set("seed", config.seed);
    run.set("threads", config.threads());
    run.set("classifier", config.classifier.name());
    run.set("epochs", config.epochs);
    run.set("n_train", out.train_labels.len());
    run.set("n_test", out.test_labels.len());

    let mut metrics = Json::obj();
    metrics.set("precision", out.metrics.precision);
    metrics.set("recall", out.metrics.recall);
    metrics.set("f1", out.metrics.f1);
    metrics.set("accuracy", out.metrics.accuracy);
    run.set("metrics", metrics);

    let mut branches = Json::obj();
    for branch in Branch::ALL {
        if let Some(d) = branch.pick(&out.gsg, &out.ldg) {
            branches.set(branch.names().section, branch_json(d));
        }
    }
    run.set("branches", branches);
    run
}

fn branch_json(d: &BranchDiagnostics) -> Json {
    let mut b = Json::obj();
    b.set("epoch_loss", d.epochs.iter().map(|e| e.loss).collect::<Vec<f32>>());
    b.set("epoch_contrastive", d.epochs.iter().map(|e| e.contrastive).collect::<Vec<f32>>());
    b.set("base_ece", d.base_ece);
    b.set("calibrated_ece", d.calibrated_ece);
    let calibrators: Vec<Json> = d
        .weights
        .iter()
        .zip(&d.method_ece)
        .map(|(&(method, weight), &(_, ece))| {
            let mut c = Json::obj();
            c.set("method", method.name());
            c.set("weight", weight);
            c.set("ece", ece);
            c.set("delta_ece", d.base_ece - ece);
            c
        })
        .collect();
    b.set("calibrators", Json::Arr(calibrators));
    b
}

/// Assemble the report for `name`: recorded runs plus the registry
/// snapshot. Callers may attach further sections before writing.
#[must_use]
pub fn build_report(name: &str) -> Report {
    let mut report = Report::new(name);
    report.set("runs", Json::Arr(collected_runs()));
    report.attach_registry();
    report
}

/// Write the report for `name` to the `DBG4ETH_METRICS` path, if set.
pub fn write_report(name: &str) -> std::io::Result<Option<PathBuf>> {
    build_report(name).write_if_requested()
}
