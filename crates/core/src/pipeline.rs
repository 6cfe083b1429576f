//! The end-to-end DBG4ETH pipeline (Fig. 2): double-graph encoders →
//! confidence generation → adaptive calibration → account classification.

use crate::branch::{train_branch, Branch, BranchScorer, EpochStats, TrainedEncoder};
use crate::config::{ClassifierKind, Dbg4EthConfig, FeatureMode};
use boost::{
    AdaBoost, AdaBoostConfig, ForestConfig, Gbdt, GbdtConfig, MlpClassifier, MlpClassifierConfig,
    RandomForest,
};
use calib::{ece, AdaptiveCalibrator, CalibMethod, ConfidenceScaler, ECE_BINS};
use eth_sim::{GraphDataset, POSITIVE};
use gnn::GraphTensors;
use nn::metrics::Metrics;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Per-branch training and calibration diagnostics (feeding Fig. 6, the
/// run-report and EXPERIMENTS.md).
#[derive(Clone, Debug)]
pub struct BranchDiagnostics {
    /// Adaptive weight of each calibration method (Eq. 25).
    pub weights: Vec<(CalibMethod, f64)>,
    /// Holdout ECE of each individual method after calibration, aligned
    /// with `weights`; `base_ece - method_ece` is the ΔECE of Eq. 25.
    pub method_ece: Vec<(CalibMethod, f64)>,
    /// ECE of the scaled-but-uncalibrated scores on the holdout.
    pub base_ece: f64,
    /// ECE of the weighted calibrated scores on the holdout.
    pub calibrated_ece: f64,
    /// Per-epoch training statistics of the branch encoder (the full-split
    /// encoder when cross-fitting).
    pub epochs: Vec<EpochStats>,
}

/// Result of one DBG4ETH run on one dataset.
#[derive(Clone, Debug)]
pub struct RunOutput {
    pub metrics: Metrics,
    /// Final classifier probabilities on the test split.
    pub test_scores: Vec<f64>,
    pub test_labels: Vec<bool>,
    pub gsg: Option<BranchDiagnostics>,
    pub ldg: Option<BranchDiagnostics>,
    /// Calibrated feature rows `[P_g, P_l]` on the classifier-fitting split,
    /// exposed so Fig. 7 can compare alternative classifiers on identical
    /// inputs.
    pub train_features: Vec<Vec<f64>>,
    pub train_labels: Vec<bool>,
    pub test_features: Vec<Vec<f64>>,
}

/// Fit the configured classifier and return P(positive) on the test rows.
/// `threads` fans out the random forest's per-tree fits and per-row
/// predictions; every other classifier runs serially. The output is
/// bit-identical for every `threads` value.
pub fn fit_predict_classifier(
    kind: ClassifierKind,
    train_x: &[Vec<f64>],
    train_y: &[bool],
    test_x: &[Vec<f64>],
    threads: usize,
) -> Vec<f64> {
    match kind {
        ClassifierKind::LightGbm => {
            Gbdt::fit(train_x, train_y, GbdtConfig::lightgbm()).predict_proba_all(test_x)
        }
        ClassifierKind::XgBoost => {
            Gbdt::fit(train_x, train_y, GbdtConfig::xgboost()).predict_proba_all(test_x)
        }
        ClassifierKind::RandomForest => {
            let cfg = ForestConfig { parallelism: threads, ..ForestConfig::default() };
            RandomForest::fit(train_x, train_y, cfg).predict_proba_all(test_x)
        }
        ClassifierKind::AdaBoost => {
            AdaBoost::fit(train_x, train_y, AdaBoostConfig::default()).predict_proba_all(test_x)
        }
        ClassifierKind::Mlp => MlpClassifier::fit(train_x, train_y, MlpClassifierConfig::default())
            .predict_proba_all(test_x),
    }
}

/// One branch's calibration-stage output.
pub(crate) struct Calibrated {
    pub(crate) holdout_p: Vec<f64>,
    pub(crate) test_p: Vec<f64>,
    /// The fitted adaptive ensemble (`None` when calibration is disabled),
    /// kept so [`crate::Session::train`] can persist it for the serving path.
    pub(crate) calibrator: Option<AdaptiveCalibrator>,
    pub(crate) diagnostics: BranchDiagnostics,
}

/// Scale raw scores into confidences, calibrate them adaptively, and report
/// diagnostics. `holdout` fits the scaler and calibrators; `test` is mapped.
fn calibrate_branch(
    encoding: &BranchEncoding,
    holdout_labels: &[bool],
    config: &Dbg4EthConfig,
) -> Calibrated {
    let _span = obs::span("pipeline.calibrate");
    // Stage 1 — confidence generation: "scale the predicted values
    // according to their mean and standard deviation" (Section IV-C1).
    // Each batch is scaled by its *own* statistics: the encoder's raw
    // log-odds are systematically larger on data it was fitted on, so
    // z-scoring per batch is what makes train-fitted calibrators transfer
    // to the test distribution.
    let holdout_s = ConfidenceScaler::fit(&encoding.holdout_raw).scale_all(&encoding.holdout_raw);
    let test_s = ConfidenceScaler::fit(&encoding.test_raw).scale_all(&encoding.test_raw);
    let base_ece = ece(&holdout_s, holdout_labels, ECE_BINS);

    if !config.calibration.enabled {
        return Calibrated {
            holdout_p: holdout_s.clone(),
            test_p: test_s,
            calibrator: None,
            diagnostics: BranchDiagnostics {
                weights: Vec::new(),
                method_ece: Vec::new(),
                base_ece,
                calibrated_ece: base_ece,
                epochs: encoding.epochs.clone(),
            },
        };
    }

    // Stages 2-3 — per-method calibration and adaptive ΔECE weighting.
    let cal = AdaptiveCalibrator::fit(
        &holdout_s,
        holdout_labels,
        config.calibration.subset,
        config.calibration.adaptive,
    );
    let holdout_p = cal.calibrate_all(&holdout_s);
    let test_p = cal.calibrate_all(&test_s);
    let calibrated_ece = ece(&holdout_p, holdout_labels, ECE_BINS);
    obs::debug!("pipeline.calibrate", "holdout ECE {base_ece:.4} -> {calibrated_ece:.4}");
    let diagnostics = BranchDiagnostics {
        weights: cal.method_weights(),
        method_ece: cal.method_eces(),
        base_ece,
        calibrated_ece,
        epochs: encoding.epochs.clone(),
    };
    Calibrated { holdout_p, test_p, calibrator: Some(cal), diagnostics }
}

/// Encoder-stage output: raw prediction values per branch, before the
/// calibration and classification stages. Produced by [`encode`] and
/// consumed by [`finish`] — splitting the pipeline lets the Table IV
/// calibration/classifier ablations reuse one (expensive) encoder training.
#[derive(Clone, Debug)]
pub struct EncodedDataset {
    /// Raw log-odds and training history from the GSG branch.
    pub gsg: Option<BranchEncoding>,
    /// Raw log-odds and training history from the LDG branch.
    pub ldg: Option<BranchEncoding>,
    pub holdout_labels: Vec<bool>,
    pub test_labels: Vec<bool>,
}

/// One encoder branch's raw output on the calibration holdout and the test
/// split, plus its per-epoch training curve (the full-split encoder's when
/// cross-fitting).
#[derive(Clone, Debug)]
pub struct BranchEncoding {
    pub holdout_raw: Vec<f64>,
    pub test_raw: Vec<f64>,
    pub epochs: Vec<EpochStats>,
}

/// Stages 2-3 applied to every enabled branch: calibrated probabilities on
/// the holdout and test splits, stacked into classifier feature rows.
/// Shared by [`finish`] (fit-and-predict in one go) and
/// [`crate::Session::train`] (which additionally keeps the fitted
/// calibrators and classifier).
pub(crate) struct CalibratedBranches {
    /// Every enabled branch's calibration, in pipeline order.
    pub(crate) branches: Vec<(Branch, Calibrated)>,
    pub(crate) train_features: Vec<Vec<f64>>,
    pub(crate) test_features: Vec<Vec<f64>>,
}

impl CalibratedBranches {
    fn diagnostics(&self, branch: Branch) -> Option<BranchDiagnostics> {
        self.branches.iter().find(|(b, _)| *b == branch).map(|(_, c)| c.diagnostics.clone())
    }
}

pub(crate) fn calibrate_branches(
    encoded: &EncodedDataset,
    config: &Dbg4EthConfig,
) -> CalibratedBranches {
    let branches: Vec<(Branch, Calibrated)> = Branch::enabled_in(config)
        .into_iter()
        .map(|branch| {
            let encoding = branch
                .pick(&encoded.gsg, &encoded.ldg)
                .as_ref()
                .unwrap_or_else(|| panic!("{} branch not encoded", branch.names().label));
            (branch, calibrate_branch(encoding, &encoded.holdout_labels, config))
        })
        .collect();
    assert!(!branches.is_empty(), "at least one branch required");

    let stack = |get: &dyn Fn(&Calibrated) -> &Vec<f64>, n: usize| -> Vec<Vec<f64>> {
        (0..n).map(|r| branches.iter().map(|(_, c)| get(c)[r]).collect()).collect()
    };
    let train_features = stack(&|c| &c.holdout_p, encoded.holdout_labels.len());
    let test_features = stack(&|c| &c.test_p, encoded.test_labels.len());
    CalibratedBranches { branches, train_features, test_features }
}

/// Package classifier scores plus the calibration-stage artefacts into the
/// user-facing [`RunOutput`], logging the headline metrics.
pub(crate) fn assemble_output(
    cal: &CalibratedBranches,
    encoded: &EncodedDataset,
    test_scores: Vec<f64>,
) -> RunOutput {
    let metrics = Metrics::from_scores(&test_scores, &encoded.test_labels, 0.5);
    obs::info!(
        "pipeline",
        "classified {} test rows: P {:.2} R {:.2} F1 {:.2}",
        test_scores.len(),
        metrics.precision,
        metrics.recall,
        metrics.f1
    );
    RunOutput {
        metrics,
        test_scores,
        test_labels: encoded.test_labels.clone(),
        gsg: cal.diagnostics(Branch::Gsg),
        ldg: cal.diagnostics(Branch::Ldg),
        train_features: cal.train_features.clone(),
        train_labels: encoded.holdout_labels.clone(),
        test_features: cal.test_features.clone(),
    }
}

/// Stages 2-4 of the pipeline: confidence generation, adaptive calibration
/// and classification, applied to precomputed raw scores. The branch and
/// calibration switches of `config` select the Table IV ablations; branches
/// absent from `encoded` are ignored.
pub fn finish(encoded: &EncodedDataset, config: &Dbg4EthConfig) -> RunOutput {
    let _span = obs::span("pipeline.finish");
    let cal = calibrate_branches(encoded, config);
    let test_scores = {
        let _span = obs::span("pipeline.classify");
        fit_predict_classifier(
            config.classifier,
            &cal.train_features,
            &encoded.holdout_labels,
            &cal.test_features,
            config.threads(),
        )
    };
    assemble_output(&cal, encoded, test_scores)
}

/// Run DBG4ETH on one dataset with the given train fraction.
///
/// When `DBG4ETH_METRICS` is set, the run's diagnostics are recorded with
/// the report collector and a run-report is written to the named path (the
/// experiment binaries overwrite it at exit with the full multi-run
/// report).
pub fn run(dataset: &GraphDataset, train_frac: f64, config: &Dbg4EthConfig) -> RunOutput {
    let out = {
        let _span = obs::span("pipeline.run");
        finish(&encode(dataset, train_frac, config), config)
    };
    if obs::metrics_enabled() {
        crate::report::record_run(dataset.class.name(), config, &out);
        if let Err(e) = crate::report::write_report("pipeline") {
            obs::warn!("pipeline", "failed to write run-report: {e}");
        }
    }
    out
}

/// Lower account subgraphs into tensors, honouring the configured feature
/// mode. Pure per-graph work fanned out over `threads`; shared by the
/// training pipeline and the [`crate::Session::score`] serving path so both
/// score accounts through byte-identical features.
pub(crate) fn lower_graphs(
    graphs: &[eth_graph::Subgraph],
    config: &Dbg4EthConfig,
    threads: usize,
) -> Vec<GraphTensors> {
    let _span = obs::span("pipeline.encode.lower");
    par::par_map(threads, graphs, |g| lower_one(g, config))
}

/// Lower a single subgraph — the per-graph body of [`lower_graphs`], also
/// called directly by the quarantining serving path so a lowering panic can
/// be contained to the one account that caused it.
pub(crate) fn lower_one(g: &eth_graph::Subgraph, config: &Dbg4EthConfig) -> GraphTensors {
    match config.features {
        FeatureMode::LogAbsolute => GraphTensors::from_subgraph(g, config.t_slices),
        FeatureMode::ZScored => {
            let mut x = features::log_compress(&features::raw_features(g));
            features::standardize_columns(&mut x);
            GraphTensors::new(g, x, config.t_slices)
        }
        FeatureMode::None => GraphTensors::without_node_features(g, config.t_slices),
    }
}

/// Stage 1-2 of the pipeline: lower the graphs, split, train the enabled
/// branches and compute their raw prediction values.
pub fn encode(dataset: &GraphDataset, train_frac: f64, config: &Dbg4EthConfig) -> EncodedDataset {
    encode_with_models(dataset, train_frac, config).0
}

/// [`encode`], additionally returning the trained full-split encoder of
/// each enabled branch, in pipeline order, which [`crate::Session::train`]
/// packages into a persistable [`crate::TrainedModel`].
pub(crate) fn encode_with_models(
    dataset: &GraphDataset,
    train_frac: f64,
    config: &Dbg4EthConfig,
) -> (EncodedDataset, Vec<TrainedEncoder>) {
    assert!(config.use_gsg || config.use_ldg, "at least one branch required");
    let _span = obs::span("pipeline.encode");
    let threads = config.threads();
    obs::gauge_set("pipeline.threads", threads as f64);
    obs::counter_add("pipeline.encodes", 1);
    obs::info!(
        "pipeline",
        "encoding {} ({} graphs, {} threads)",
        dataset.class.name(),
        dataset.graphs.len(),
        threads
    );
    let (train_idx, test_idx) = dataset.split(train_frac, config.seed);

    // Lower every graph once, honouring the feature mode. Lowering is a
    // pure per-graph function, so the fan-out is trivially deterministic.
    let tensors: Vec<GraphTensors> = lower_graphs(&dataset.graphs, config, threads);
    if obs::metrics_enabled() {
        // Sparse-workload gauges: how much adjacency the CSR kernels chew
        // through per encode. Sums over the whole dataset, so the values
        // are thread-count independent.
        let gsg_nnz: usize = tensors.iter().map(|t| t.gsg_adj.nnz()).sum();
        let ldg_nnz: usize = tensors.iter().flat_map(|t| &t.slice_adj).map(|c| c.nnz()).sum();
        obs::gauge_set("pipeline.encode.graphs", tensors.len() as f64);
        obs::gauge_set("pipeline.encode.gsg_nnz", gsg_nnz as f64);
        obs::gauge_set("pipeline.encode.ldg_nnz", ldg_nnz as f64);
    }
    let labels: Vec<bool> = dataset.graphs.iter().map(|g| g.label == Some(POSITIVE)).collect();

    // Holdout construction for fitting the calibrators and the stacked
    // classifier. With `holdout_frac = 0` (the default under label
    // scarcity) the training split is **cross-fitted**: it is cut into two
    // stratified folds, each fold is scored by an encoder trained on the
    // other, and the final encoder (trained on the full split) scores the
    // test set. Cross-fitting is the standard way to build a stacked
    // meta-learner's training features (Wolpert, 1992): scoring the
    // training data with an encoder fitted on it yields saturated,
    // error-free features from which LightGBM cannot learn which branch to
    // trust. With `holdout_frac > 0` a plain disjoint holdout is used
    // instead.
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x401D);
    let cross_fit = config.holdout_frac == 0.0;
    let mut fit_idx = Vec::new();
    let mut holdout_idx = Vec::new();
    let mut fold_a = Vec::new();
    let mut fold_b = Vec::new();
    if cross_fit {
        fit_idx = train_idx.clone();
        for positive in [true, false] {
            let mut part: Vec<usize> =
                train_idx.iter().copied().filter(|&i| labels[i] == positive).collect();
            part.shuffle(&mut rng);
            let half = part.len() / 2;
            fold_a.extend_from_slice(&part[..half]);
            fold_b.extend_from_slice(&part[half..]);
        }
        holdout_idx.extend_from_slice(&fold_a);
        holdout_idx.extend_from_slice(&fold_b);
    } else {
        for positive in [true, false] {
            let mut part: Vec<usize> =
                train_idx.iter().copied().filter(|&i| labels[i] == positive).collect();
            part.shuffle(&mut rng);
            let n_hold = ((part.len() as f64) * config.holdout_frac).round() as usize;
            // A stratum must never be exhausted on either side: the fit
            // split keeps at least one example of every class (so cap at
            // `len - 1`), and a singleton stratum stays entirely in the
            // fit split (the old lower clamp of 1 would hand its only
            // sample to the holdout, leaving the encoder a class it had
            // never seen).
            let n_hold = if part.len() > 1 { n_hold.clamp(1, part.len() - 1) } else { 0 };
            holdout_idx.extend_from_slice(&part[..n_hold]);
            fit_idx.extend_from_slice(&part[n_hold..]);
        }
    }

    let graphs_of =
        |idx: &[usize]| -> Vec<&GraphTensors> { idx.iter().map(|&i| &tensors[i]).collect() };
    let fit_graphs = graphs_of(&fit_idx);
    let test_graphs = graphs_of(&test_idx);
    let holdout_labels: Vec<bool> = holdout_idx.iter().map(|&i| labels[i]).collect();
    let test_labels: Vec<bool> = test_idx.iter().map(|&i| labels[i]).collect();

    let holdout_graphs = graphs_of(&holdout_idx);
    let fold_a_graphs = graphs_of(&fold_a);
    let fold_b_graphs = graphs_of(&fold_b);

    // Each fit with the splits its encoder scores. The first is always the
    // full fit split, whose encoder scores the test split last and is the
    // one kept; when cross-fitting, each fold is scored by the encoder
    // trained on the other fold, so the holdout (fold A then fold B) is
    // never scored by an encoder that saw it.
    let fits: Vec<(&[&GraphTensors], Vec<&[&GraphTensors]>)> =
        if cross_fit && !fold_a.is_empty() && !fold_b.is_empty() {
            vec![
                (&fit_graphs, vec![&test_graphs]),
                (&fold_b_graphs, vec![&fold_a_graphs]),
                (&fold_a_graphs, vec![&fold_b_graphs]),
            ]
        } else {
            vec![(&fit_graphs, vec![&holdout_graphs, &test_graphs])]
        };
    // One flat task list over (enabled branch × fit), branch-major. Each
    // task trains one branch's encoder on its fit split, then scores each of
    // its splits in order. The branches have separate parameter stores and
    // seed streams, each seeded from `config.seed` alone, so a task's output
    // depends only on its identity, and any fan-out inside one runs inline
    // on its worker. A full-split fit costs about as much as its branch's
    // two fold fits together, so on two workers each branch's tasks split
    // evenly.
    let branches = Branch::enabled_in(config);
    let outs = par::par_map_indices(threads, branches.len() * fits.len(), |t| {
        let (fit, score) = &fits[t % fits.len()];
        let model = train_branch(branches[t / fits.len()], fit, config);
        let raw: Vec<Vec<f64>> = score
            .iter()
            .map(|graphs| {
                let _span = obs::span("pipeline.encode.score");
                model.raw_scores(graphs, threads)
            })
            .collect();
        (model, raw)
    });

    let mut encoded = EncodedDataset { gsg: None, ldg: None, holdout_labels, test_labels };
    let mut models = Vec::with_capacity(branches.len());
    let mut outs = outs.into_iter();
    for branch in branches {
        let (model, mut raw) = outs.next().expect("the full-split fit");
        let test_raw = raw.pop().expect("the full-split encoder scores the test split");
        let folds = outs.by_ref().take(fits.len() - 1).flat_map(|(_, raw)| raw);
        let holdout_raw = raw.into_iter().chain(folds).flatten().collect();
        let epochs = model.history.clone();
        *branch.pick(&mut encoded.gsg, &mut encoded.ldg) =
            Some(BranchEncoding { holdout_raw, test_raw, epochs });
        models.push(model);
    }
    (encoded, models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_graph::SamplerConfig;
    use eth_sim::{AccountClass, Benchmark, DatasetScale};

    fn tiny_benchmark() -> Benchmark {
        let scale = DatasetScale {
            exchange: 14,
            ico_wallet: 0,
            mining: 0,
            phish_hack: 0,
            bridge: 0,
            defi: 0,
        };
        Benchmark::generate(scale, SamplerConfig::new(12, 2), 5)
    }

    fn tiny_config() -> Dbg4EthConfig {
        let mut cfg = Dbg4EthConfig::fast();
        cfg.epochs = 4;
        cfg.gsg.hidden = 16;
        cfg.gsg.d_out = 8;
        cfg.ldg.hidden = 16;
        cfg.ldg.d_out = 8;
        cfg.ldg.pool_clusters = [4, 2, 1];
        cfg.t_slices = 3;
        cfg
    }

    #[test]
    fn end_to_end_run_produces_consistent_output() {
        let b = tiny_benchmark();
        let d = b.dataset(AccountClass::Exchange);
        let out = run(d, 0.7, &tiny_config());
        assert_eq!(out.test_scores.len(), out.test_labels.len());
        assert!(!out.test_scores.is_empty());
        assert!(out.test_scores.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!(out.gsg.is_some() && out.ldg.is_some());
        let g = out.gsg.unwrap();
        assert_eq!(g.weights.len(), 6);
        let wsum: f64 = g.weights.iter().map(|(_, w)| w).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        // Metrics are percentages.
        assert!(out.metrics.accuracy >= 0.0 && out.metrics.accuracy <= 100.0);
        // Feature rows have one column per branch.
        assert!(out.train_features.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn single_branch_ablations_run() {
        let b = tiny_benchmark();
        let d = b.dataset(AccountClass::Exchange);
        let mut cfg = tiny_config();
        cfg.use_ldg = false;
        let out = run(d, 0.7, &cfg);
        assert!(out.ldg.is_none());
        assert!(out.train_features.iter().all(|r| r.len() == 1));

        let mut cfg = tiny_config();
        cfg.use_gsg = false;
        cfg.contrastive_weight = 0.0;
        let out = run(d, 0.7, &cfg);
        assert!(out.gsg.is_none());
    }

    #[test]
    fn without_calibration_reports_no_weights() {
        let b = tiny_benchmark();
        let d = b.dataset(AccountClass::Exchange);
        let mut cfg = tiny_config();
        cfg.use_ldg = false;
        cfg.calibration.enabled = false;
        let out = run(d, 0.7, &cfg);
        let diag = out.gsg.unwrap();
        assert!(diag.weights.is_empty());
        assert_eq!(diag.base_ece, diag.calibrated_ece);
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let b = tiny_benchmark();
        let d = b.dataset(AccountClass::Exchange);
        let mut cfg = tiny_config();
        cfg.use_ldg = false; // keep it quick
        let a = run(d, 0.7, &cfg);
        let c = run(d, 0.7, &cfg);
        assert_eq!(a.test_scores, c.test_scores);
        assert_eq!(a.metrics, c.metrics);
    }

    #[test]
    fn runs_are_thread_count_invariant() {
        // The parallel layer's core guarantee: the same configuration run
        // serially and with a worker pool produces bit-identical outputs.
        let b = tiny_benchmark();
        let d = b.dataset(AccountClass::Exchange);
        let mut cfg = tiny_config();
        cfg.use_ldg = false; // keep it quick
        cfg.parallelism = 1;
        let serial = run(d, 0.7, &cfg);
        cfg.parallelism = 4;
        let parallel = run(d, 0.7, &cfg);
        assert_eq!(serial.test_scores, parallel.test_scores);
        assert_eq!(serial.metrics, parallel.metrics);
    }

    #[test]
    fn singleton_stratum_stays_in_the_fit_split() {
        // Regression test for holdout exhaustion: with one positive in the
        // training split and `holdout_frac > 0`, the old lower clamp of 1
        // handed the only positive to the holdout, leaving the encoders a
        // class they had never seen. A singleton stratum must stay in the
        // fit split, giving a negatives-only holdout.
        let b = tiny_benchmark();
        let full = b.dataset(AccountClass::Exchange);
        let mut graphs = Vec::new();
        let mut kept_pos = 0;
        for g in &full.graphs {
            if g.label == Some(POSITIVE) {
                if kept_pos < 2 {
                    kept_pos += 1;
                    graphs.push(g.clone());
                }
            } else {
                graphs.push(g.clone());
            }
        }
        let d = GraphDataset { class: AccountClass::Exchange, graphs };
        // split(0.7) puts round(2 * 0.7) = 1 positive into the train split.
        let mut cfg = tiny_config();
        cfg.use_ldg = false;
        cfg.holdout_frac = 0.5;
        let encoded = encode(&d, 0.7, &cfg);
        assert!(!encoded.holdout_labels.is_empty());
        assert!(
            encoded.holdout_labels.iter().all(|&y| !y),
            "the singleton positive leaked into the holdout"
        );
        // The single-class holdout must still calibrate and classify.
        let out = finish(&encoded, &cfg);
        assert!(out.test_scores.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p)));
    }
}
