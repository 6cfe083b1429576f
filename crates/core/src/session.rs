//! The serving-session handle: one loaded (or freshly trained) model plus
//! everything needed to score accounts with it.
//!
//! [`Session`] is the one train/serve surface — the free-function trio
//! `train` / `infer` / `infer_detailed` it replaced is gone:
//!
//! ```no_run
//! use dbg4eth::{InferOptions, Session};
//! # let accounts: Vec<eth_graph::Subgraph> = Vec::new();
//! let session = Session::open_lenient("model.dbgm")?;
//! let report = session.score(&accounts);
//! // Or, strict serving on an explicit thread count:
//! let opts = InferOptions { strict: true, threads: Some(1), ..InferOptions::default() };
//! let report = session.score_with(&accounts, &opts)?;
//! # Ok::<(), dbg4eth::Error>(())
//! ```
//!
//! Scores are bit-identical for every option combination — the session
//! only routes, it never recomputes.

use crate::config::{ConfigError, Dbg4EthConfig};
use crate::error::Error;
use crate::model::{infer_impl, train_impl, DegradedLoad, InferReport, InferRun, TrainedModel};
use crate::pipeline::RunOutput;
use eth_graph::Subgraph;
use eth_sim::GraphDataset;
use std::path::Path;
use std::time::Instant;

/// How [`Session::score_with`] serves a batch.
///
/// The default (`strict: false`, `threads: None`, no deadline, batch
/// scaling) reproduces [`Session::score`]: graceful per-account degradation
/// on the model's configured thread count.
#[derive(Clone, Copy, Debug, Default)]
pub struct InferOptions {
    /// Fail the whole batch with the first account's typed
    /// [`crate::ScoreError`] instead of returning per-account errors.
    pub strict: bool,
    /// Worker-thread override; `None` uses the model configuration's
    /// resolved count. Either way `DBG4ETH_THREADS` wins, and the scores
    /// are bit-identical at every setting.
    pub threads: Option<usize>,
    /// Cooperative per-request deadline, checked at stage boundaries.
    /// Accounts unresolved when it passes get
    /// [`crate::ScoreError::DeadlineExceeded`]; resolved accounts keep
    /// their bit-exact scores. `None` never cancels.
    pub deadline: Option<Instant>,
    /// Scale branch confidences with the scaler pinned at train time
    /// (format v3) instead of refitting on this batch, so an account's
    /// score does not depend on what else shares the request — the
    /// invariant the serve cache and singleton batches need. Models saved
    /// before v3 carry no scaler; they fall back to batch refitting and
    /// flag the scores degraded (`infer.scaler_fallbacks`).
    pub pinned_scaling: bool,
}

/// A trained model ready to score accounts.
pub struct Session {
    model: TrainedModel,
    degradation: DegradedLoad,
}

impl Session {
    /// Train the full pipeline and return the ready-to-serve session plus
    /// the run output (metrics, diagnostics, test-split scores).
    ///
    /// Validates `config` and `train_frac` up front, so a bad setting is a
    /// typed [`enum@Error`] instead of a panic inside an encoder
    /// constructor.
    pub fn train(
        dataset: &GraphDataset,
        train_frac: f64,
        config: &Dbg4EthConfig,
    ) -> Result<(Self, RunOutput), Error> {
        config.validate()?;
        if !(train_frac > 0.0 && train_frac < 1.0) {
            return Err(ConfigError::TrainFrac(train_frac).into());
        }
        let out = train_impl(dataset, train_frac, config);
        Ok((Self::from_model(out.model), out.run))
    }

    /// Open a model file strictly: magic, format version and every section
    /// checksum must validate (see [`TrainedModel::load`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        Ok(Self::from_model(TrainedModel::load(path)?))
    }

    /// Open a model file leniently, salvaging what single-section damage
    /// allows (see [`TrainedModel::load_degraded`]). What was given up on
    /// is available from [`Session::degradation`].
    pub fn open_lenient(path: impl AsRef<Path>) -> Result<Self, Error> {
        let (model, degradation) = TrainedModel::load_degraded(path)?;
        Ok(Self { model, degradation })
    }

    /// The same strict open as [`Session::open`]. Kept only because the
    /// `perfbench/` workloads call it by this name; once they call `open`,
    /// delete it.
    pub fn open_mmap(path: impl AsRef<Path>) -> Result<Self, Error> {
        Self::open(path)
    }

    /// Wrap an already-loaded model (no degradation).
    #[must_use]
    pub fn from_model(model: TrainedModel) -> Self {
        Self { model, degradation: DegradedLoad::default() }
    }

    /// The underlying model (configuration, branches, classifier).
    #[must_use]
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Give the model back, dropping the session.
    #[must_use]
    pub fn into_model(self) -> TrainedModel {
        self.model
    }

    /// What a lenient open had to give up on; clean for strictly opened,
    /// wrapped and freshly trained sessions.
    #[must_use]
    pub fn degradation(&self) -> &DegradedLoad {
        &self.degradation
    }

    /// Persist the model container (see [`TrainedModel::save`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        Ok(self.model.save(path)?)
    }

    /// Score accounts with per-account containment and graceful
    /// degradation, on the model's configured thread count.
    ///
    /// The ladder, applied independently per account so damage never
    /// spreads:
    ///
    /// 1. **Quarantine** — the subgraph is validated up front
    ///    ([`Subgraph::validate`]); invalid or fault-dropped accounts get
    ///    a typed [`crate::ScoreError`] and never touch the pipeline.
    /// 2. **Contained lowering** — each account lowers in its own panic
    ///    boundary; a lowering panic fails only that account.
    /// 3. **Branch scoring** — each enabled branch scores survivors in
    ///    parallel with per-task isolation. A panicking or non-finite raw
    ///    score fails the (account, branch) pair, not the batch; the
    ///    confidence scaler is fitted on the finite survivors.
    /// 4. **Calibrator fallback** — a panicking or lost calibrator
    ///    downgrades its branch to uncalibrated scaled confidences
    ///    (`degraded: true`).
    /// 5. **Classifier** — per-row prediction in a panic boundary; a
    ///    failing row falls back to the mean of the branch confidences.
    /// 6. **Surviving branch** — an account with one usable branch
    ///    confidence is scored from it directly (`degraded: true`); with
    ///    none, it gets [`crate::ScoreError::NoUsableBranch`].
    ///
    /// Every degradation is counted in the obs registry
    /// (`infer.quarantined`, `infer.degraded`, `infer.branch_failures`,
    /// `infer.calibrator_fallbacks`, `infer.classifier_fallbacks`) and
    /// lands in the JSON run-report.
    pub fn score(&self, accounts: &[Subgraph]) -> InferReport {
        infer_impl(&self.model, accounts, self.model.config.threads(), InferRun::default())
    }

    /// [`Session::score`] with explicit [`InferOptions`]. With
    /// `strict: true` the first unscorable account fails the batch with its
    /// typed reason; scores themselves are unchanged by any option (a
    /// deadline can replace them with typed errors, and `pinned_scaling`
    /// switches to the batch-independent train-time scaler).
    pub fn score_with(
        &self,
        accounts: &[Subgraph],
        options: &InferOptions,
    ) -> Result<InferReport, Error> {
        let threads =
            options.threads.map_or_else(|| self.model.config.threads(), par::resolve_threads);
        let run = InferRun { deadline: options.deadline, pinned_scaling: options.pinned_scaling };
        let report = infer_impl(&self.model, accounts, threads, run);
        if options.strict {
            if let Some(e) = report.scores.iter().find_map(|r| r.as_ref().err()) {
                return Err(e.clone().into());
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_graph::SamplerConfig;
    use eth_sim::{AccountClass, Benchmark, DatasetScale};

    fn tiny() -> (GraphDataset, Dbg4EthConfig) {
        let scale = DatasetScale {
            exchange: 8,
            ico_wallet: 0,
            mining: 0,
            phish_hack: 0,
            bridge: 0,
            defi: 0,
        };
        let bench = Benchmark::generate(scale, SamplerConfig::new(10, 2), 23);
        let graphs = bench.dataset(AccountClass::Exchange).graphs.clone();
        let dataset = GraphDataset { class: AccountClass::Exchange, graphs };
        let mut cfg = Dbg4EthConfig::fast();
        cfg.epochs = 2;
        cfg.gsg.hidden = 16;
        cfg.gsg.d_out = 8;
        cfg.ldg.hidden = 16;
        cfg.ldg.d_out = 8;
        cfg.ldg.pool_clusters = [4, 2, 1];
        cfg.t_slices = 3;
        cfg.parallelism = 1;
        (dataset, cfg)
    }

    fn test_accounts(dataset: &GraphDataset, seed: u64) -> Vec<Subgraph> {
        let (_, test_idx) = dataset.split(0.7, seed);
        test_idx.iter().map(|&i| dataset.graphs[i].clone()).collect()
    }

    #[test]
    fn session_round_trip_reproduces_training_scores_bitwise() {
        let (dataset, cfg) = tiny();
        let (session, run) = Session::train(&dataset, 0.7, &cfg).expect("train");
        let accounts = test_accounts(&dataset, cfg.seed);

        // score == the pipeline's test-split scores, bit for bit.
        let new = session.score(&accounts);
        let bits = |r: &InferReport| -> Vec<Option<u64>> {
            r.scores.iter().map(|s| s.as_ref().ok().map(|a| a.score.to_bits())).collect()
        };
        assert_eq!(
            run.test_scores.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            new.scores.iter().map(|s| s.as_ref().unwrap().score.to_bits()).collect::<Vec<_>>()
        );

        // Thread override and strict mode change nothing on clean inputs.
        let opts = InferOptions { strict: true, threads: Some(8), ..InferOptions::default() };
        let eight = session.score_with(&accounts, &opts).expect("strict clean scoring");
        assert_eq!(bits(&new), bits(&eight));

        // Save → open (strict) and open_lenient both reproduce the bits.
        let path =
            std::env::temp_dir().join(format!("dbg4eth-session-test-{}.dbgm", std::process::id()));
        session.save(&path).expect("save");
        let reopened = Session::open(&path).expect("open");
        assert!(reopened.degradation().is_clean());
        assert_eq!(bits(&new), bits(&reopened.score(&accounts)));
        let lenient = Session::open_lenient(&path).expect("open_lenient");
        assert!(lenient.degradation().is_clean());
        assert_eq!(bits(&new), bits(&lenient.score(&accounts)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn train_rejects_bad_config_and_train_frac() {
        let (dataset, mut cfg) = tiny();
        assert!(matches!(
            Session::train(&dataset, 1.0, &cfg),
            Err(Error::Config(ConfigError::TrainFrac(_)))
        ));
        cfg.epochs = 0;
        assert!(matches!(
            Session::train(&dataset, 0.7, &cfg),
            Err(Error::Config(ConfigError::Epochs(0)))
        ));
    }

    #[test]
    fn strict_scoring_surfaces_the_first_typed_error() {
        let (dataset, cfg) = tiny();
        let (session, _) = Session::train(&dataset, 0.7, &cfg).expect("train");
        let mut accounts = test_accounts(&dataset, cfg.seed);
        accounts[0].nodes.clear(); // fails Subgraph::validate
        let strict = InferOptions { strict: true, ..InferOptions::default() };
        assert!(matches!(
            session.score_with(&accounts, &strict),
            Err(Error::Score(crate::model::ScoreError::Invalid(_)))
        ));
        // Lenient mode serves the rest and types the failure per account.
        let report = session.score_with(&accounts, &InferOptions::default()).expect("lenient");
        assert_eq!(report.quarantined, 1);
        assert!(report.scores[0].is_err());
        assert!(report.scores[1..].iter().all(Result::is_ok));
    }
}
