//! # dbg4eth — Double Graph inference-based account de-anonymization
//!
//! Rust reproduction of *Know Your Account: Double Graph Inference-based
//! Account De-anonymization on Ethereum* (ICDE 2025). The pipeline:
//!
//! 1. sample account-centred subgraphs and extract 15-dim deep features
//!    (`eth-graph`, `features`),
//! 2. encode the **Global Static Graph** with hierarchical attention +
//!    contrastive regularisation, and the **Local Dynamic Graph** with
//!    GCN+GRU+DiffPool (`gnn`),
//! 3. scale and adaptively calibrate both branches' confidences (`calib`),
//! 4. classify the calibrated pair with a LightGBM-style GBDT (`boost`).
//!
//! Entry points: [`run`] for a one-shot train-and-evaluate on an
//! `eth_sim::GraphDataset` with a [`Dbg4EthConfig`], and [`Session`] for
//! the train/persist/serve lifecycle ([`Session::train`],
//! [`Session::open`], [`Session::score`]).
//!
//! ```no_run
//! use dbg4eth::{run, Dbg4EthConfig};
//! use eth_graph::SamplerConfig;
//! use eth_sim::{AccountClass, Benchmark, DatasetScale};
//!
//! let bench = Benchmark::generate(DatasetScale::small(), SamplerConfig::default(), 7);
//! let out = run(bench.dataset(AccountClass::Exchange), 0.8, &Dbg4EthConfig::fast());
//! println!("F1 = {:.2}", out.metrics.f1);
//! ```

mod branch;
mod config;
mod error;
mod model;
mod multiclass;
mod pipeline;
pub mod report;
mod session;

pub use branch::{train_branch, Branch, BranchScorer, Encoder, EpochStats, TrainedEncoder};
pub use config::{
    CalibrationConfig, ClassifierKind, ConfigError, Dbg4EthConfig, Dbg4EthConfigBuilder,
    FeatureMode,
};
pub use error::Error;
pub use model::{
    AccountScore, DegradedLoad, InferReport, LostSection, ScoreError, TrainOutput, TrainedBranch,
    TrainedModel,
};
pub use model_io::ModelIoError;
pub use multiclass::{run_multiclass, MultiClassResult};
pub use pipeline::{
    encode, finish, fit_predict_classifier, run, BranchDiagnostics, BranchEncoding, EncodedDataset,
    RunOutput,
};
pub use session::{InferOptions, Session};
