//! # eth-sim — synthetic Ethereum transaction world
//!
//! The paper evaluates on real on-chain data plus label clouds, which this
//! reproduction does not have (see DESIGN.md, substitutions). This crate
//! generates the closest synthetic equivalent: six labelled account
//! categories with distinct behavioural profiles ([`fn@profile`]), a simulated
//! 2015-2024 transaction stream ([`World`]), and per-category binary
//! graph-classification datasets ([`Benchmark`]) matching Table II's shape.

mod dataset;
pub mod dist;
mod obfuscate;
mod profile;
mod stream;
mod world;

pub use dataset::{
    multiclass_graphs, multiclass_label, multiclass_names, Benchmark, DatasetScale, DatasetStats,
    GraphDataset, NEGATIVE, POSITIVE,
};
pub use obfuscate::{
    denomination_for, obfuscate_dataset, obfuscate_subgraph, MixerConfig, DENOMINATIONS,
};
pub use profile::{profile, AccountClass, ClassProfile, TemporalPattern};
pub use stream::{StreamScenario, StreamWindow};
pub use world::{World, WorldConfig, EPOCH_END, EPOCH_START};
