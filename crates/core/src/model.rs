//! Train/serve split: train once, persist the fitted model, score new
//! accounts in a fresh process.
//!
//! [`crate::Session::train`] runs the same pipeline as [`crate::run`] but
//! keeps every fitted stage — the full-split GSG and LDG encoders, their
//! adaptive calibration ensembles and the stacked GBDT — inside a
//! [`TrainedModel`]. [`TrainedModel::save`]/[`TrainedModel::load`] move it
//! through the versioned, checksummed `model-io` container, and
//! [`crate::Session::score`] serves unlabelled account subgraphs through
//! the identical feature → encoder → calibration → classifier path.
//!
//! The contract, enforced by the tier-1 persistence suite: for the test
//! split of the training dataset, scoring `test_graphs` through the
//! session equals `run(..).test_scores` **bit for bit**, before and after
//! a save → load round trip, at any thread count. Corrupted or
//! version-mismatched files are rejected with a typed [`ModelIoError`];
//! loading never panics.

use crate::branch::{Branch, BranchScorer, Encoder, EpochStats, TrainedEncoder};
use crate::config::{CalibrationConfig, ClassifierKind, Dbg4EthConfig, FeatureMode};
use crate::pipeline::{
    assemble_output, calibrate_branches, encode_with_models, lower_one, RunOutput,
};
use boost::{Gbdt, GbdtConfig};
use calib::{AdaptiveCalibrator, ConfidenceScaler, MethodSubset};
use eth_graph::centrality::CentralityMeasure;
use eth_graph::Subgraph;
use eth_sim::GraphDataset;
use gnn::{AugmentConfig, GraphTensors, GsgConfig};
use model_io::{ModelIoError, ModelReader, ModelWriter, SectionReader, SectionWriter};
use nn::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Bucket edges of the `infer.account_latency_ms` histogram: log-spaced
/// from 10µs to 10s, cached because [`obs::observe`] requires identical
/// edges at every call.
fn account_latency_edges() -> &'static [f64] {
    static EDGES: OnceLock<Vec<f64>> = OnceLock::new();
    EDGES.get_or_init(|| obs::log_edges(0.01, 10_000.0, 25))
}

/// One trained encoder branch plus its fitted calibration ensemble
/// (`None` when the run was configured without calibration).
pub struct TrainedBranch {
    pub scorer: TrainedEncoder,
    pub calibrator: Option<AdaptiveCalibrator>,
    /// `true` when the calibrator was trained but could not be recovered
    /// from the container (damaged `gsg.cal`/`ldg.cal` section): the branch
    /// serves uncalibrated confidences and every score it contributes to is
    /// flagged degraded. Distinguishes "calibration disabled by config"
    /// (`calibrator: None`, not degraded) from "calibrator lost".
    pub calibrator_lost: bool,
    /// Confidence scaler fitted at train time on the holdout split's raw
    /// scores (format v3). Batch inference refits per batch — bit-identical
    /// to training — but a serving process scoring one account at a time
    /// must pin the scaler to keep scores independent of batch composition;
    /// see [`InferOptions::pinned_scaling`](crate::InferOptions).
    pub scaler: Option<ConfidenceScaler>,
}

/// Why one account could not be scored. Quarantine is per-account: a bad
/// subgraph (or an injected fault) never takes down the batch around it.
#[derive(Clone, Debug, PartialEq)]
pub enum ScoreError {
    /// The subgraph failed up-front validation (see
    /// [`eth_graph::SubgraphError`]) and was quarantined before lowering.
    Invalid(eth_graph::SubgraphError),
    /// Dropped by an injected `drop@account:<i>` fault.
    Dropped,
    /// A pipeline stage panicked while scoring this account; the panic was
    /// contained to the account.
    Panicked { stage: &'static str, message: String },
    /// Every enabled branch failed to produce a usable confidence for this
    /// account, so there is nothing to fall back on.
    NoUsableBranch,
    /// The request's deadline expired before this account reached a score.
    /// Deadline checks sit at stage boundaries, so an account either gets
    /// its full bit-exact score or this error — never a partial result.
    DeadlineExceeded,
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::Invalid(e) => write!(f, "invalid subgraph: {e}"),
            ScoreError::Dropped => write!(f, "dropped by fault injection"),
            ScoreError::Panicked { stage, message } => {
                write!(f, "stage {stage} panicked: {message}")
            }
            ScoreError::NoUsableBranch => write!(f, "no branch produced a usable confidence"),
            ScoreError::DeadlineExceeded => write!(f, "deadline exceeded before scoring finished"),
        }
    }
}

impl std::error::Error for ScoreError {}

/// One account's serving result: `P(positive)` plus whether any fallback
/// was taken on the way (lost branch, uncalibrated confidences, per-row
/// classifier fallback). A non-degraded score is bit-identical to what the
/// clean pipeline produces.
#[derive(Clone, Debug, PartialEq)]
pub struct AccountScore {
    pub score: f64,
    pub degraded: bool,
}

/// Everything [`crate::Session::score`] knows about a batch: one entry per input
/// account (in input order) plus the degradation tallies that feed the
/// obs counters and the JSON run-report.
#[derive(Clone, Debug)]
pub struct InferReport {
    pub scores: Vec<Result<AccountScore, ScoreError>>,
    /// Accounts rejected before scoring (validation failures and drops).
    pub quarantined: usize,
    /// Accounts scored through at least one fallback.
    pub degraded: usize,
}

impl InferReport {
    /// The scores of every successfully scored account, keyed by input
    /// position.
    pub fn ok_scores(&self) -> Vec<(usize, f64)> {
        self.scores
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().ok().map(|s| (i, s.score)))
            .collect()
    }
}

/// One section a lenient load gave up on, with the evidence for *why* —
/// a checksum mismatch carries its stored/computed CRCs, a missing section
/// says so, a malformed one keeps the parse error.
#[derive(Clone, Debug, PartialEq)]
pub struct LostSection {
    pub name: String,
    pub reason: String,
}

impl std::fmt::Display for LostSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.name, self.reason)
    }
}

/// What a lenient [`TrainedModel::load_degraded`] had to give up on:
/// the sections it could not recover, each with its failure evidence.
/// Empty means the load was byte-perfect.
#[derive(Clone, Debug, Default)]
pub struct DegradedLoad {
    pub lost_sections: Vec<LostSection>,
}

impl DegradedLoad {
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.lost_sections.is_empty()
    }

    /// Whether the named section was lost, whatever the reason.
    #[must_use]
    pub fn lost(&self, name: &str) -> bool {
        self.lost_sections.iter().any(|l| l.name == name)
    }
}

/// Every fitted stage of one DBG4ETH run, ready to serve.
pub struct TrainedModel {
    /// The configuration the model was trained under. Drives encoder
    /// reconstruction at load time and the serving-path feature mode.
    pub config: Dbg4EthConfig,
    pub gsg: Option<TrainedBranch>,
    pub ldg: Option<TrainedBranch>,
    /// The stacked classifier over the calibrated branch probabilities.
    pub classifier: Gbdt,
}

/// Result of training (surfaced through [`crate::Session::train`]): the
/// persistable model and the usual run output (metrics, diagnostics,
/// test-split scores) for reporting.
pub struct TrainOutput {
    pub model: TrainedModel,
    pub run: RunOutput,
}

/// Fit a confidence scaler the way the serving path does for a request
/// batch: on the finite raw scores only, so an injected NaN at train time
/// cannot skew the pinned statistics.
fn fit_pinned_scaler(raw: &[f64]) -> ConfidenceScaler {
    let finite: Vec<f64> = raw.iter().copied().filter(|v| v.is_finite()).collect();
    ConfidenceScaler::fit(&finite)
}

/// The GBDT configuration of a persistable classifier. Only the two GBDT
/// kinds can be saved; the Fig. 7 comparison classifiers (random forest,
/// AdaBoost, MLP) remain available through [`crate::run`].
pub(crate) fn gbdt_config(kind: ClassifierKind) -> Option<GbdtConfig> {
    match kind {
        ClassifierKind::LightGbm => Some(GbdtConfig::lightgbm()),
        ClassifierKind::XgBoost => Some(GbdtConfig::xgboost()),
        ClassifierKind::RandomForest | ClassifierKind::AdaBoost | ClassifierKind::Mlp => None,
    }
}

/// Train the full pipeline on `dataset` and keep every fitted stage — the
/// training body behind [`crate::Session::train`].
///
/// The training computation is shared with [`crate::run`]: the returned
/// `run.test_scores` are bit-identical to what `run` would produce for the
/// same inputs, and scoring the test graphs through the model reproduces
/// them.
pub(crate) fn train_impl(
    dataset: &GraphDataset,
    train_frac: f64,
    config: &Dbg4EthConfig,
    gbdt: GbdtConfig,
) -> TrainOutput {
    let _span = obs::span("model.train");
    obs::counter_add("model.trains", 1);
    let (encoded, models) = encode_with_models(dataset, train_frac, config);
    let cal = calibrate_branches(&encoded, config);
    let classifier = {
        let _span = obs::span("pipeline.classify");
        Gbdt::fit(&cal.train_features, &encoded.holdout_labels, gbdt)
    };
    let test_scores = classifier.predict_proba_all(&cal.test_features);
    let run = assemble_output(&cal, &encoded, test_scores);

    // The encoders and the calibrated branches both list the enabled
    // branches in pipeline order. Each branch's confidence scaler is pinned
    // to the holdout split it was calibrated against, so a serving process
    // can scale singleton batches exactly as training did instead of
    // refitting on whatever happens to share the request.
    let mut model = TrainedModel { config: *config, gsg: None, ldg: None, classifier };
    for (scorer, (branch, calibrated)) in models.into_iter().zip(cal.branches) {
        let encoding = branch.pick(&encoded.gsg, &encoded.ldg);
        let holdout_raw = &encoding.as_ref().expect("an encoding per trained branch").holdout_raw;
        *branch.pick(&mut model.gsg, &mut model.ldg) = Some(TrainedBranch {
            scorer,
            calibrator: calibrated.calibrator,
            calibrator_lost: false,
            scaler: Some(fit_pinned_scaler(holdout_raw)),
        });
    }
    TrainOutput { model, run }
}

/// Per-call serving controls threaded through [`infer_impl`], beyond the
/// worker count: the cooperative deadline and the scaling mode.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct InferRun {
    /// Cooperative cancellation: checked at stage boundaries (before
    /// lowering, before each branch, before classification). Once past,
    /// every unresolved account gets [`ScoreError::DeadlineExceeded`];
    /// already-resolved accounts keep their bit-exact scores.
    pub deadline: Option<Instant>,
    /// Scale confidences with the train-time pinned scaler instead of
    /// refitting on this batch, making scores independent of batch
    /// composition (required for the serve cache and singleton batches).
    pub pinned_scaling: bool,
}

/// Shared serving body behind [`crate::Session::score`] and
/// [`crate::Session::score_with`]. `threads` is the already-resolved worker
/// count; every setting produces bit-identical scores.
pub(crate) fn infer_impl(
    model: &TrainedModel,
    accounts: &[Subgraph],
    threads: usize,
    run: InferRun,
) -> InferReport {
    let _span = obs::span("model.infer");
    obs::counter_add("model.infers", 1);
    obs::counter_add("model.infer.accounts", accounts.len() as u64);
    // Per-account latency accumulators: lowering plus every branch's raw
    // scoring, summed per account across stages. Relaxed adds into
    // per-account slots are order-independent, so the histogram's *count*
    // and structure are identical at any thread count (the timing values
    // themselves naturally vary run to run). Empty when metrics are off —
    // the hot closures then skip the clock reads entirely.
    let observed = obs::metrics_enabled();
    let latency_ns: Vec<AtomicU64> = if observed {
        (0..accounts.len()).map(|_| AtomicU64::new(0)).collect()
    } else {
        Vec::new()
    };
    let mut results: Vec<Option<Result<AccountScore, ScoreError>>> = vec![None; accounts.len()];

    // Rung 1: validation + drop quarantine.
    let mut survivors: Vec<usize> = Vec::with_capacity(accounts.len());
    for (i, account) in accounts.iter().enumerate() {
        if faults::drops("account", Some(i)) {
            results[i] = Some(Err(ScoreError::Dropped));
        } else if let Err(e) = account.validate() {
            obs::warn!("model.infer", "account {i} quarantined: {e}");
            results[i] = Some(Err(ScoreError::Invalid(e)));
        } else {
            survivors.push(i);
        }
    }
    let quarantined = accounts.len() - survivors.len();
    obs::counter_add("infer.quarantined", quarantined as u64);

    // Cooperative cancellation: stages run to completion between checks,
    // so an account either receives its full bit-exact score or a typed
    // deadline error — never a partially-scored (timing-dependent) result.
    let deadline_ok = || run.deadline.is_none_or(|t| Instant::now() < t);

    'pipeline: {
        if !deadline_ok() {
            break 'pipeline;
        }

        // Rung 2: contained lowering — a panic costs one account.
        let lowered = par::try_par_map_indices(threads, survivors.len(), |k| {
            let started = observed.then(Instant::now);
            let out = lower_one(&accounts[survivors[k]], &model.config);
            if let Some(t) = started {
                let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                latency_ns[survivors[k]].fetch_add(ns, Ordering::Relaxed);
            }
            out
        });
        let mut tensors: Vec<GraphTensors> = Vec::with_capacity(survivors.len());
        let mut kept: Vec<usize> = Vec::with_capacity(survivors.len());
        for (k, r) in lowered.into_iter().enumerate() {
            match r {
                Ok(t) => {
                    tensors.push(t);
                    kept.push(survivors[k]);
                }
                Err(p) => {
                    obs::counter_add("infer.branch_failures", 1);
                    results[survivors[k]] =
                        Some(Err(ScoreError::Panicked { stage: "lower", message: p.message }));
                }
            }
        }
        if !deadline_ok() {
            break 'pipeline;
        }

        // Rungs 3-4: score each present branch with containment. A deadline
        // expiring between branches abandons the whole batch rather than
        // serving from whichever branch happened to finish first.
        let trained_branches = Branch::enabled_in(&model.config);
        let mut outcomes: Vec<BranchOutcome> = Vec::new();
        for &branch in &trained_branches {
            match branch.pick(&model.gsg, &model.ldg) {
                Some(b) => {
                    outcomes.push(score_branch(b, &tensors, &kept, threads, &latency_ns, run))
                }
                None => obs::warn!(
                    "model.infer",
                    "{} branch unavailable; serving from survivors",
                    branch.names().label
                ),
            }
            if !deadline_ok() {
                break 'pipeline;
            }
        }
        // A branch lost at load degrades every score: the classifier was
        // trained on feature rows the surviving branches alone cannot rebuild.
        let branch_lost = outcomes.len() < trained_branches.len();
        let branch_degraded = branch_lost
            || outcomes.iter().any(|o| o.uncalibrated)
            || outcomes.iter().any(|o| o.scaler_refit);

        // Rungs 5-6: classify per row inside a panic boundary, falling back
        // to the branch confidences themselves.
        for (k, &orig) in kept.iter().enumerate() {
            let confs: Vec<f64> = outcomes.iter().filter_map(|o| o.conf[k]).collect();
            if confs.is_empty() {
                let panicked = outcomes.iter().find_map(|o| o.fail[k].clone());
                results[orig] = Some(Err(match panicked {
                    Some((stage, message)) => ScoreError::Panicked { stage, message },
                    None => ScoreError::NoUsableBranch,
                }));
                continue;
            }
            let row_complete = confs.len() == trained_branches.len();
            let score = if row_complete {
                let row = confs.clone();
                let classifier = &model.classifier;
                let predicted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // `panic@boost.predict:<account>` injection point, keyed by
                    // the account's position in the input batch.
                    faults::maybe_panic("boost.predict", Some(orig));
                    classifier.predict_proba(&row)
                }));
                match predicted {
                    Ok(p) if p.is_finite() => Some(p),
                    _ => None,
                }
            } else {
                None
            };
            let (score, fell_back) = match score {
                Some(p) => (p, false),
                None => (confs.iter().sum::<f64>() / confs.len() as f64, true),
            };
            if fell_back && row_complete {
                obs::counter_add("infer.classifier_fallbacks", 1);
                obs::warn!("model.infer", "classifier fell back to branch mean for account {orig}");
            }
            if !row_complete {
                obs::counter_add("infer.branch_failures", 1);
            }
            let degraded = branch_degraded || fell_back || !row_complete;
            results[orig] = Some(Ok(AccountScore { score, degraded }));
        }
    }

    // Anything still unresolved hit the deadline at a stage boundary.
    let mut timed_out = 0u64;
    for slot in results.iter_mut().filter(|r| r.is_none()) {
        *slot = Some(Err(ScoreError::DeadlineExceeded));
        timed_out += 1;
    }
    if timed_out > 0 {
        obs::counter_add("infer.deadline_exceeded", timed_out);
        obs::warn!("model.infer", "{timed_out} of {} accounts hit the deadline", accounts.len());
    }

    // One histogram observation per account that reached the pipeline
    // (quarantined accounts have no timed stage and are skipped).
    if observed {
        for slot in &latency_ns {
            let ns = slot.load(Ordering::Relaxed);
            if ns > 0 {
                obs::observe("infer.account_latency_ms", account_latency_edges(), ns as f64 / 1e6);
            }
        }
    }

    let scores: Vec<Result<AccountScore, ScoreError>> =
        results.into_iter().map(|r| r.expect("every account resolved")).collect();
    let degraded = scores.iter().filter(|r| matches!(r, Ok(s) if s.degraded)).count();
    obs::counter_add("infer.degraded", degraded as u64);
    if degraded > 0 {
        obs::warn!("model.infer", "{degraded} of {} accounts served degraded", accounts.len());
    }
    InferReport { scores, quarantined, degraded }
}

/// One branch's contained serving pass over the surviving accounts.
struct BranchOutcome {
    /// Per-survivor confidence; `None` when this branch failed the account.
    conf: Vec<Option<f64>>,
    /// Per-survivor contained-panic evidence (stage, message).
    fail: Vec<Option<(&'static str, String)>>,
    /// The calibrator was lost or panicked: confidences are uncalibrated.
    uncalibrated: bool,
    /// Pinned scaling was requested but the container carried no scaler
    /// (pre-v3 model): the branch refitted on the batch, so the scores are
    /// batch-dependent and flagged degraded.
    scaler_refit: bool,
}

/// Rung 3-4 of the serving ladder for one branch: isolated raw scoring,
/// confidence scaling, calibration with uncalibrated fallback. Scaling is
/// either refitted on the finite survivors of this batch (the training
/// semantics — bit-identical to the clean pipeline) or, with
/// [`InferRun::pinned_scaling`], taken from the train-time scaler so scores
/// do not depend on what else shares the batch.
fn score_branch(
    branch: &TrainedBranch,
    tensors: &[GraphTensors],
    kept: &[usize],
    threads: usize,
    latency_ns: &[AtomicU64],
    run: InferRun,
) -> BranchOutcome {
    let encode_site = branch.scorer.branch().names().encode_site;
    let m = tensors.len();
    let raw = par::try_par_map_indices(threads, m, |k| {
        let started = (!latency_ns.is_empty()).then(Instant::now);
        // `nan@gsg.encode:<account>` / `nan@ldg.encode:<account>` injection
        // point, keyed by input-batch position so the blast radius is one
        // (account, branch) pair regardless of thread count.
        let raw =
            faults::poison_f64(encode_site, Some(kept[k]), branch.scorer.raw_score(&tensors[k]));
        if let Some(t) = started {
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            latency_ns[kept[k]].fetch_add(ns, Ordering::Relaxed);
        }
        raw
    });
    let mut conf: Vec<Option<f64>> = vec![None; m];
    let mut fail: Vec<Option<(&'static str, String)>> = vec![None; m];
    let mut finite_ks: Vec<usize> = Vec::with_capacity(m);
    let mut finite_raw: Vec<f64> = Vec::with_capacity(m);
    for (k, r) in raw.into_iter().enumerate() {
        match r {
            Ok(v) if v.is_finite() => {
                finite_ks.push(k);
                finite_raw.push(v);
            }
            Ok(v) => {
                obs::counter_add("infer.branch_failures", 1);
                obs::warn!("model.infer", "{encode_site} produced {v} for account {}", kept[k]);
            }
            Err(p) => {
                obs::counter_add("infer.branch_failures", 1);
                fail[k] = Some((encode_site, p.message));
            }
        }
    }
    if finite_raw.is_empty() {
        return BranchOutcome {
            conf,
            fail,
            uncalibrated: branch.calibrator_lost,
            scaler_refit: false,
        };
    }

    let (scaled, scaler_refit) = match (run.pinned_scaling, &branch.scaler) {
        (true, Some(sc)) => (sc.scale_all(&finite_raw), false),
        (true, None) => {
            obs::counter_add("infer.scaler_fallbacks", 1);
            obs::warn!(
                "model.infer",
                "{encode_site} has no pinned scaler; refitting on the batch (degraded)"
            );
            (ConfidenceScaler::fit(&finite_raw).scale_all(&finite_raw), true)
        }
        (false, _) => (ConfidenceScaler::fit(&finite_raw).scale_all(&finite_raw), false),
    };
    let calibrated = match (&branch.calibrator, branch.calibrator_lost) {
        (Some(cal), _) => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cal.calibrate_all(&scaled)
            })) {
                Ok(p) => Some(p),
                Err(_) => {
                    obs::counter_add("infer.calibrator_fallbacks", 1);
                    obs::warn!(
                        "model.infer",
                        "{encode_site} calibrator panicked; serving uncalibrated confidences"
                    );
                    None
                }
            }
        }
        (None, true) => {
            obs::counter_add("infer.calibrator_fallbacks", 1);
            None
        }
        // Calibration disabled by configuration: scaled confidences are the
        // branch's normal output, not a degradation.
        (None, false) => Some(scaled.clone()),
    };
    let uncalibrated = calibrated.is_none();
    for (j, &k) in finite_ks.iter().enumerate() {
        let v = match &calibrated {
            Some(c) if c[j].is_finite() => Some(c[j]),
            // A non-finite calibrated value (or no calibrator) falls back
            // to the scaled confidence if that is still usable.
            _ if scaled[j].is_finite() => Some(scaled[j]),
            _ => None,
        };
        match v {
            Some(p) => conf[k] = Some(p),
            None => {
                obs::counter_add("infer.branch_failures", 1);
                obs::warn!(
                    "model.infer",
                    "{encode_site} confidence unusable for account {}",
                    kept[k]
                );
            }
        }
    }
    BranchOutcome { conf, fail, uncalibrated, scaler_refit }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

const SEC_CONFIG: &str = "config";
const SEC_CLASSIFIER: &str = "classifier";

/// Apply any `corrupt@model.<section>` faults to serialised container
/// bytes. `corrupt@model.calib` is an alias hitting both calibrator
/// sections — the CI chaos job's train → corrupt → degraded-predict drill.
fn apply_save_faults(bytes: &mut [u8]) {
    if !faults::active() {
        return;
    }
    // Every section a container may carry: config, the branch sections,
    // the calibrator sections, classifier.
    let sections = [SEC_CONFIG]
        .into_iter()
        .chain(Branch::ALL.map(|b| b.names().section))
        .chain(Branch::ALL.map(|b| b.names().cal_section))
        .chain([SEC_CLASSIFIER]);
    for name in sections {
        let hit = faults::corrupts(&format!("model.{name}"))
            || (name.ends_with(".cal") && faults::corrupts("model.calib"));
        if hit {
            model_io::corrupt_section(bytes, name);
        }
    }
}

impl TrainedModel {
    /// Serialise into a `DBGM` container (in memory).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = self.writer().to_bytes();
        apply_save_faults(&mut bytes);
        bytes
    }

    /// Save [`TrainedModel::to_bytes`] to a file atomically: the bytes land
    /// in a temporary sibling which is then renamed over `path`, so no
    /// reader — and no crash mid-save — ever sees a truncated or
    /// half-written container there.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
        let _span = obs::span("model.save");
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let write =
            std::fs::write(&tmp, self.to_bytes()).and_then(|()| std::fs::rename(&tmp, path));
        if write.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        Ok(write?)
    }

    fn writer(&self) -> ModelWriter {
        let mut w = ModelWriter::new();
        let mut s = SectionWriter::new();
        write_config(&self.config, &mut s);
        w.push(SEC_CONFIG, s);
        for branch in Branch::ALL {
            if let Some(b) = branch.pick(&self.gsg, &self.ldg) {
                b.write(&mut w);
            }
        }
        let mut s = SectionWriter::new();
        self.classifier.write(&mut s);
        w.push(SEC_CLASSIFIER, s);
        w
    }

    /// Load from a file, validating magic, format version and every section
    /// checksum before reconstruction. All failure modes are typed
    /// [`ModelIoError`]s — corrupted input never panics.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelIoError> {
        let _span = obs::span("model.load");
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// [`TrainedModel::load`] from an in-memory container.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let r = ModelReader::from_bytes(bytes)?;
        Self::from_reader(&r, true).map(|(model, _)| model)
    }

    /// Load a model file, salvaging what single-section damage allows.
    ///
    /// The config and classifier sections (and at least one enabled branch)
    /// are load-bearing: if any of them is unusable this is still a typed
    /// error. A damaged calibrator section costs only calibration
    /// (`calibrator_lost`, served uncalibrated); a damaged branch section
    /// costs that branch (served from the survivor, `degraded: true`).
    /// Everything given up on is named in the returned [`DegradedLoad`] and
    /// counted under `model.load.lost_sections`.
    pub fn load_degraded(path: impl AsRef<Path>) -> Result<(Self, DegradedLoad), ModelIoError> {
        let _span = obs::span("model.load");
        Self::from_bytes_degraded(&std::fs::read(path)?)
    }

    /// [`TrainedModel::load_degraded`] from an in-memory container.
    pub fn from_bytes_degraded(bytes: &[u8]) -> Result<(Self, DegradedLoad), ModelIoError> {
        let (r, damaged) = ModelReader::from_bytes_lenient(bytes)?;
        for d in &damaged {
            obs::warn!(
                "model.load",
                "section '{}' failed its checksum (stored {:08x}, computed {:08x})",
                d.name,
                d.stored,
                d.computed
            );
        }
        let (model, degraded) = Self::from_reader(&r, false)?;
        obs::counter_add("model.load.lost_sections", degraded.lost_sections.len() as u64);
        Ok((model, degraded))
    }

    /// Shared reconstruction. `strict` propagates every section failure;
    /// lenient mode records recoverable losses in the returned
    /// [`DegradedLoad`] instead. (In strict mode the reader has already
    /// rejected checksum mismatches wholesale, so a "missing" section here
    /// covers both absent and damaged.)
    fn from_reader(r: &ModelReader, strict: bool) -> Result<(Self, DegradedLoad), ModelIoError> {
        let mut s = r.section(SEC_CONFIG)?;
        let config = read_config(&mut s)?;
        s.expect_end(SEC_CONFIG)?;

        let mut lost: Vec<LostSection> = Vec::new();
        let (mut gsg, mut ldg) = (None, None);
        for branch in Branch::enabled_in(&config) {
            *branch.pick(&mut gsg, &mut ldg) =
                TrainedBranch::read(r, branch, &config, strict, &mut lost)?;
        }
        if gsg.is_none() && ldg.is_none() {
            let lost: Vec<String> = lost.iter().map(LostSection::to_string).collect();
            return Err(ModelIoError::Corrupt {
                context: format!("every encoder branch is unusable: {}", lost.join("; ")),
            });
        }

        let mut s = r.section(SEC_CLASSIFIER)?;
        let classifier = Gbdt::read(&mut s)?;
        s.expect_end(SEC_CLASSIFIER)?;
        Ok((Self { config, gsg, ldg, classifier }, DegradedLoad { lost_sections: lost }))
    }
}

impl TrainedBranch {
    /// Push the encoder section and, when there is a calibrator, its own
    /// section (format version 2), so a damaged ensemble can be detected —
    /// and degraded around — without sacrificing the weights beside it.
    fn write(&self, w: &mut ModelWriter) {
        let names = self.scorer.branch().names();
        let mut s = SectionWriter::new();
        self.scorer.store.write_section(&mut s);
        // Records whether a calibrator section accompanies this branch, so a
        // lenient load can tell "trained without calibration" apart from
        // "calibrator section dropped as damaged".
        s.put_bool(self.calibrator.is_some());
        s.put_usize(self.scorer.history.len());
        for e in &self.scorer.history {
            s.put_f32(e.loss);
            s.put_f32(e.contrastive);
        }
        // Format v3: the train-time confidence scaler rides with the branch,
        // so a serving process can pin scaling instead of refitting per batch.
        s.put_bool(self.scaler.is_some());
        if let Some(sc) = self.scaler {
            s.put_f64(sc.mean);
            s.put_f64(sc.std);
        }
        w.push(names.section, s);
        if let Some(cal) = &self.calibrator {
            let mut s = SectionWriter::new();
            cal.write(&mut s);
            w.push(names.cal_section, s);
        }
    }

    /// Read `branch` from its sections and rebuild its encoder. `strict`
    /// propagates every failure; lenient mode records the lost section
    /// instead, the error itself as the evidence (a checksum mismatch
    /// carries the stored and computed CRCs). An unusable encoder section
    /// costs the branch (`Ok(None)`), an unusable calibrator section only
    /// its calibration.
    fn read(
        r: &ModelReader,
        branch: Branch,
        config: &Dbg4EthConfig,
        strict: bool,
        lost: &mut Vec<LostSection>,
    ) -> Result<Option<Self>, ModelIoError> {
        let names = branch.names();
        let mut give_up = |name: &str, e: ModelIoError| {
            if strict {
                return Err(e);
            }
            lost.push(LostSection { name: name.to_string(), reason: e.to_string() });
            Ok(None)
        };
        let read = (|| -> Result<_, ModelIoError> {
            let mut s = r.section(names.section)?;
            let store = ParamStore::read_section(&mut s)?;
            let has_calibrator = s.get_bool()?;
            let n = s.get_usize()?;
            if n.saturating_mul(8) > s.remaining() {
                return Err(ModelIoError::Truncated { context: "epoch history" });
            }
            let mut history = Vec::with_capacity(n);
            for _ in 0..n {
                history.push(EpochStats { loss: s.get_f32()?, contrastive: s.get_f32()? });
            }
            // Absent only in branch payloads written before v3: such models
            // serve with batch-refitted scaling and flag pinned-scaling
            // requests degraded.
            let scaler = if s.remaining() > 0 && s.get_bool()? {
                Some(ConfidenceScaler { mean: s.get_f64()?, std: s.get_f64()? })
            } else {
                None
            };
            s.expect_end(names.section)?;
            Ok((store, has_calibrator, history, scaler))
        })();
        let (store, has_calibrator, history, scaler) = match read {
            Ok(parts) => parts,
            Err(e) => return give_up(names.section, e),
        };
        // Trained without calibration: nothing to recover.
        let (mut calibrator, mut calibrator_lost) = (None, false);
        if has_calibrator {
            let read = (|| -> Result<AdaptiveCalibrator, ModelIoError> {
                let mut s = r.section(names.cal_section)?;
                let cal = AdaptiveCalibrator::read(&mut s)?;
                s.expect_end(names.cal_section)?;
                Ok(cal)
            })();
            match read {
                Ok(cal) => calibrator = Some(cal),
                Err(e) => {
                    give_up(names.cal_section, e)?;
                    calibrator_lost = true;
                }
            }
        }
        match rebuild(branch, config, &store, history) {
            Ok(scorer) => Ok(Some(Self { scorer, calibrator, calibrator_lost, scaler })),
            Err(e) => give_up(names.section, e),
        }
    }
}

/// Rebuild a branch's encoder from saved weights: construct a fresh
/// architecture from the saved configuration (the throwaway RNG only sets
/// initial values that are then overwritten) and restore every parameter by
/// name and shape. Anything short of a complete restoration means weights
/// and configuration disagree — a typed error, not a silently wrong model.
/// The configuration's upper bounds ([`Dbg4EthConfig::validate`]) cap what
/// the fresh architecture can allocate.
fn rebuild(
    branch: Branch,
    config: &Dbg4EthConfig,
    loaded: &ParamStore,
    history: Vec<EpochStats>,
) -> Result<TrainedEncoder, ModelIoError> {
    let mut store = ParamStore::new();
    let encoder = Encoder::new(branch, config, &mut store, &mut StdRng::seed_from_u64(0));
    let (restored, expected, saved) = (store.restore_from(loaded), store.len(), loaded.len());
    if restored != expected || saved != expected {
        return Err(ModelIoError::Corrupt {
            context: format!(
                "{} weights do not match the saved configuration \
                 ({restored}/{expected} parameters restored, {saved} saved)",
                branch.names().label
            ),
        });
    }
    Ok(TrainedEncoder { store, encoder, history })
}

// ---------------------------------------------------------------------------
// Config (de)serialisation
// ---------------------------------------------------------------------------

fn measure_tag(m: CentralityMeasure) -> u8 {
    match m {
        CentralityMeasure::Degree => 0,
        CentralityMeasure::Eigenvector => 1,
        CentralityMeasure::PageRank => 2,
    }
}

fn measure_from_tag(tag: u8) -> Result<CentralityMeasure, ModelIoError> {
    Ok(match tag {
        0 => CentralityMeasure::Degree,
        1 => CentralityMeasure::Eigenvector,
        2 => CentralityMeasure::PageRank,
        v => {
            return Err(ModelIoError::Corrupt {
                context: format!("unknown centrality measure tag {v}"),
            })
        }
    })
}

fn classifier_tag(k: ClassifierKind) -> u8 {
    match k {
        ClassifierKind::LightGbm => 0,
        ClassifierKind::XgBoost => 1,
        ClassifierKind::RandomForest => 2,
        ClassifierKind::AdaBoost => 3,
        ClassifierKind::Mlp => 4,
    }
}

fn classifier_from_tag(tag: u8) -> Result<ClassifierKind, ModelIoError> {
    Ok(match tag {
        0 => ClassifierKind::LightGbm,
        1 => ClassifierKind::XgBoost,
        2 => ClassifierKind::RandomForest,
        3 => ClassifierKind::AdaBoost,
        4 => ClassifierKind::Mlp,
        v => return Err(ModelIoError::Corrupt { context: format!("unknown classifier tag {v}") }),
    })
}

/// The trailing numerics byte: `0` (Strict) is the only contract. `1`
/// marks a model trained under the removed Fast profile, whose weights
/// were fit to other numerics, so it is refused rather than served.
fn check_numerics_tag(tag: u8) -> Result<(), ModelIoError> {
    match tag {
        0 => Ok(()),
        1 => Err(ModelIoError::Corrupt {
            context: "numerics tag 1: model was trained under the removed Fast profile".into(),
        }),
        v => Err(ModelIoError::Corrupt { context: format!("unknown numerics tag {v}") }),
    }
}

fn feature_tag(f: FeatureMode) -> u8 {
    match f {
        FeatureMode::LogAbsolute => 0,
        FeatureMode::ZScored => 1,
        FeatureMode::None => 2,
    }
}

fn feature_from_tag(tag: u8) -> Result<FeatureMode, ModelIoError> {
    Ok(match tag {
        0 => FeatureMode::LogAbsolute,
        1 => FeatureMode::ZScored,
        2 => FeatureMode::None,
        v => {
            return Err(ModelIoError::Corrupt { context: format!("unknown feature mode tag {v}") })
        }
    })
}

fn subset_tag(m: MethodSubset) -> u8 {
    match m {
        MethodSubset::All => 0,
        MethodSubset::ParametricOnly => 1,
        MethodSubset::NonParametricOnly => 2,
    }
}

fn subset_from_tag(tag: u8) -> Result<MethodSubset, ModelIoError> {
    Ok(match tag {
        0 => MethodSubset::All,
        1 => MethodSubset::ParametricOnly,
        2 => MethodSubset::NonParametricOnly,
        v => {
            return Err(ModelIoError::Corrupt { context: format!("unknown method subset tag {v}") })
        }
    })
}

fn write_augment(a: &AugmentConfig, s: &mut SectionWriter) {
    s.put_f64(a.p_edge);
    s.put_f64(a.p_feat);
    s.put_f64(a.p_tau);
    s.put_u8(measure_tag(a.measure));
}

fn read_augment(s: &mut SectionReader) -> Result<AugmentConfig, ModelIoError> {
    Ok(AugmentConfig {
        p_edge: s.get_f64()?,
        p_feat: s.get_f64()?,
        p_tau: s.get_f64()?,
        measure: measure_from_tag(s.get_u8()?)?,
    })
}

pub(crate) fn write_config(c: &Dbg4EthConfig, s: &mut SectionWriter) {
    write_config_pre_numerics(c, s);
    // Appended last so containers written before the numerics byte existed
    // still load (readers treat the missing byte as Strict).
    s.put_u8(0);
}

/// Every config field up to (and excluding) the trailing numerics byte —
/// the exact layout older containers carry. Split out so the compatibility
/// test can write a byte-faithful legacy section. The two input widths, the
/// LDG's `T` and cross-fitting are derived; [`read_config`] skips them.
fn write_config_pre_numerics(c: &Dbg4EthConfig, s: &mut SectionWriter) {
    s.put_usize(c.features.width());
    s.put_usize(c.gsg.hidden);
    s.put_usize(c.gsg.layers);
    s.put_usize(c.gsg.heads);
    s.put_usize(c.gsg.d_out);
    s.put_usize(c.gsg.n_classes);
    s.put_bool(c.gsg.use_center);
    s.put_usize(c.features.width());
    s.put_usize(c.ldg.hidden);
    s.put_usize(c.t_slices);
    for k in c.ldg.pool_clusters {
        s.put_usize(k);
    }
    s.put_usize(c.ldg.pool_layers);
    s.put_usize(c.ldg.d_out);
    s.put_usize(c.ldg.n_classes);
    s.put_bool(c.ldg.use_center);
    s.put_bool(c.use_gsg);
    s.put_bool(c.use_ldg);
    s.put_f32(c.contrastive_weight);
    write_augment(&c.aug1, s);
    write_augment(&c.aug2, s);
    s.put_usize(c.t_slices);
    s.put_usize(c.epochs);
    s.put_usize(c.batch_size);
    s.put_f32(c.lr);
    s.put_bool(c.calibration.enabled);
    s.put_u8(subset_tag(c.calibration.subset));
    s.put_bool(c.calibration.adaptive);
    s.put_u8(classifier_tag(c.classifier));
    s.put_u8(feature_tag(c.features));
    s.put_f64(c.holdout_frac);
    s.put_bool(c.holdout_frac == 0.0);
    s.put_usize(c.parallelism);
    s.put_u64(c.seed);
}

/// Read a config section, skipping its derived slots: [`rebuild`] refuses
/// weights whose shapes disagree with the derived width.
pub(crate) fn read_config(s: &mut SectionReader) -> Result<Dbg4EthConfig, ModelIoError> {
    s.get_usize()?; // GSG input width
    let gsg = GsgConfig {
        hidden: s.get_usize()?,
        layers: s.get_usize()?,
        heads: s.get_usize()?,
        d_out: s.get_usize()?,
        n_classes: s.get_usize()?,
        use_center: s.get_bool()?,
    };
    s.get_usize()?; // LDG input width
    let hidden = s.get_usize()?;
    s.get_usize()?; // LDG time slices
    let ldg = gnn::LdgConfig {
        hidden,
        pool_clusters: [s.get_usize()?, s.get_usize()?, s.get_usize()?],
        pool_layers: s.get_usize()?,
        d_out: s.get_usize()?,
        n_classes: s.get_usize()?,
        use_center: s.get_bool()?,
    };
    let config = Dbg4EthConfig {
        gsg,
        ldg,
        use_gsg: s.get_bool()?,
        use_ldg: s.get_bool()?,
        contrastive_weight: s.get_f32()?,
        aug1: read_augment(s)?,
        aug2: read_augment(s)?,
        t_slices: s.get_usize()?,
        epochs: s.get_usize()?,
        batch_size: s.get_usize()?,
        lr: s.get_f32()?,
        calibration: CalibrationConfig {
            enabled: s.get_bool()?,
            subset: subset_from_tag(s.get_u8()?)?,
            adaptive: s.get_bool()?,
        },
        classifier: classifier_from_tag(s.get_u8()?)?,
        features: feature_from_tag(s.get_u8()?)?,
        holdout_frac: s.get_f64()?,
        // The derived cross-fit slot lies between these two.
        parallelism: s.get_bool().and_then(|_| s.get_usize())?,
        seed: s.get_u64()?,
    };
    // Absent in containers from before the numerics byte existed: those
    // were trained under the only profile of the time, today's Strict.
    if s.remaining() > 0 {
        check_numerics_tag(s.get_u8()?)?;
    }
    // A tampered but checksummed file must fail with a typed error, not a
    // panic deep inside an encoder constructor.
    config.validate().map_err(|e| ModelIoError::Corrupt { context: e.to_string() })?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use model_io::ModelWriter;

    fn round_trip_config(c: &Dbg4EthConfig) -> Result<Dbg4EthConfig, ModelIoError> {
        let mut w = ModelWriter::new();
        let mut s = SectionWriter::new();
        write_config(c, &mut s);
        w.push("config", s);
        let r = ModelReader::from_bytes(&w.to_bytes())?;
        let mut s = r.section("config")?;
        let loaded = read_config(&mut s)?;
        s.expect_end("config")?;
        Ok(loaded)
    }

    #[test]
    fn config_round_trips_exactly() {
        for c in [Dbg4EthConfig::default(), Dbg4EthConfig::fast()] {
            let loaded = round_trip_config(&c).unwrap();
            assert_eq!(format!("{c:?}"), format!("{loaded:?}"));
        }
    }

    #[test]
    fn legacy_config_without_numerics_byte_loads_as_strict() {
        let c = Dbg4EthConfig::fast();
        let mut w = ModelWriter::new();
        let mut s = SectionWriter::new();
        write_config_pre_numerics(&c, &mut s); // pre-profile container layout
        w.push("config", s);
        let r = ModelReader::from_bytes(&w.to_bytes()).unwrap();
        let mut s = r.section("config").unwrap();
        let loaded = read_config(&mut s).unwrap();
        s.expect_end("config").unwrap();
        assert_eq!(format!("{c:?}"), format!("{loaded:?}"));
    }

    /// Load `bytes` strictly, leniently and from a file; each must fail with
    /// a typed `Corrupt` whose context names `needle`.
    fn assert_corrupt_on_every_load(bytes: &[u8], file_tag: &str, needle: &str) {
        let path =
            std::env::temp_dir().join(format!("dbg4eth-{file_tag}-{}.dbgm", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let loads = [
            ("strict", TrainedModel::from_bytes(bytes).err()),
            ("lenient", TrainedModel::from_bytes_degraded(bytes).err()),
            ("file", TrainedModel::load(&path).err()),
        ];
        std::fs::remove_file(&path).unwrap();
        for (load, err) in loads {
            match err {
                Some(ModelIoError::Corrupt { context }) => {
                    assert!(context.contains(needle), "{file_tag}, {load} load: {context}")
                }
                other => panic!("{file_tag}, {load} load: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// Tag 1 (a model trained under the removed Fast profile) and unknown
    /// tags are typed errors on strict, lenient and file loads alike.
    #[test]
    fn unknown_numerics_tag_is_a_typed_error() {
        for (tag, names) in [(1u8, "removed Fast profile"), (9, "unknown numerics tag 9")] {
            let mut w = ModelWriter::new();
            let mut s = SectionWriter::new();
            write_config_pre_numerics(&Dbg4EthConfig::fast(), &mut s);
            s.put_u8(tag);
            w.push(SEC_CONFIG, s);
            assert_corrupt_on_every_load(&w.to_bytes(), &format!("numerics-tag-{tag}"), names);
        }
    }

    /// A 304-byte container with valid checksums: its config asks for a GSG
    /// of hidden width 32768 with one head, and its `gsg` section holds an
    /// empty parameter store. Rebuilding that encoder before comparing it
    /// with the stored weights would allocate 4 GiB (one 32768×32768
    /// attention weight); the config's upper bounds must refuse it before
    /// anything is built.
    #[test]
    fn oversized_encoder_container_is_a_typed_error() {
        let mut c = Dbg4EthConfig::fast();
        c.gsg.hidden = 32768;
        c.gsg.heads = 1;
        c.use_ldg = false;
        let mut w = ModelWriter::new();
        let mut s = SectionWriter::new();
        write_config(&c, &mut s);
        w.push(SEC_CONFIG, s);
        let mut s = SectionWriter::new();
        ParamStore::new().write_section(&mut s);
        s.put_bool(false); // no calibrator
        s.put_usize(0); // no epoch history
        s.put_bool(false); // no pinned scaler
        w.push(Branch::Gsg.names().section, s);
        let bytes = w.to_bytes();
        assert_eq!(bytes.len(), 304);
        assert_corrupt_on_every_load(&bytes, "oversized-encoder", "hidden 32768");
    }

    /// A container whose feature-mode tag alone is rewritten (CRC
    /// recomputed) asks for encoders of another input width than its
    /// weights have. The width is derived from the tag, so `rebuild`'s
    /// shape check refuses it on every load, instead of a model that loads
    /// and then fails every account at scoring.
    #[test]
    fn rewritten_feature_mode_tag_is_a_typed_error() {
        use eth_sim::{AccountClass, Benchmark, DatasetScale};
        let scale = DatasetScale {
            exchange: 8,
            ico_wallet: 0,
            mining: 0,
            phish_hack: 0,
            bridge: 0,
            defi: 0,
        };
        let bench = Benchmark::generate(scale, eth_graph::SamplerConfig::new(10, 2), 23);
        let mut cfg = Dbg4EthConfig::fast();
        cfg.epochs = 1;
        cfg.gsg.hidden = 16;
        cfg.gsg.d_out = 8;
        cfg.ldg.hidden = 16;
        cfg.ldg.d_out = 8;
        cfg.ldg.pool_clusters = [4, 2, 1];
        cfg.t_slices = 3;
        cfg.parallelism = 1;
        let (session, _) =
            crate::Session::train(bench.dataset(AccountClass::Exchange), 0.7, &cfg).expect("train");
        let bytes = session.model().to_bytes();

        let section = |features| {
            let mut s = SectionWriter::new();
            write_config(&Dbg4EthConfig { features, ..cfg }, &mut s);
            s.into_bytes()
        };
        // The config section leads the container: its payload follows the
        // header (magic, version, section count), its name and its length.
        let payload = section(FeatureMode::LogAbsolute);
        let start = 12 + 4 + SEC_CONFIG.len() + 8;
        let end = start + payload.len();
        assert_eq!(bytes[start..end], payload[..]);
        // Log-absolute and z-scored features share their width, so their
        // sections differ in the tag byte alone.
        let tag = payload.iter().zip(section(FeatureMode::ZScored)).position(|(a, b)| *a != b);
        let mut tampered = bytes;
        tampered[start + tag.expect("the tags differ")] = feature_tag(FeatureMode::None);
        let crc = model_io::crc32(&[SEC_CONFIG.as_bytes(), &tampered[start..end]].concat());
        tampered[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        assert_corrupt_on_every_load(&tampered, "feature-tag", "weights do not match");
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let mut c = Dbg4EthConfig::fast();
        c.gsg.heads = 3; // 32 % 3 != 0
        assert!(matches!(round_trip_config(&c), Err(ModelIoError::Corrupt { .. })));

        let mut c = Dbg4EthConfig::fast();
        c.use_gsg = false;
        c.use_ldg = false;
        assert!(matches!(round_trip_config(&c), Err(ModelIoError::Corrupt { .. })));

        let mut c = Dbg4EthConfig::fast();
        c.ldg.pool_layers = 0;
        assert!(matches!(round_trip_config(&c), Err(ModelIoError::Corrupt { .. })));
    }

    /// `Session::train` persists its classifier, so the Fig. 7 comparison
    /// classifiers are a typed configuration error there, before any data
    /// is touched; `run` keeps accepting all five.
    #[test]
    fn non_gbdt_classifier_is_rejected_at_train() {
        let empty = GraphDataset { class: eth_sim::AccountClass::Exchange, graphs: Vec::new() };
        for kind in [ClassifierKind::RandomForest, ClassifierKind::AdaBoost, ClassifierKind::Mlp] {
            let mut c = Dbg4EthConfig::fast();
            c.classifier = kind;
            match crate::Session::train(&empty, 0.7, &c) {
                Err(crate::Error::Config(crate::ConfigError::NotPersistable(k))) => {
                    assert_eq!(k, kind)
                }
                Err(e) => panic!("{}: unexpected error {e}", kind.name()),
                Ok(_) => panic!("{} trained on an empty dataset", kind.name()),
            }
        }
        assert!(gbdt_config(ClassifierKind::LightGbm).is_some());
        assert!(gbdt_config(ClassifierKind::XgBoost).is_some());
    }
}
