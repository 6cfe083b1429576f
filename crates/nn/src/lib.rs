//! # nn — parameters, optimisers, layers and metrics
//!
//! Training infrastructure shared by every model in the DBG4ETH
//! reproduction:
//!
//! * [`ParamStore`] / [`Ctx`] — persistent parameters bridged onto a fresh
//!   autodiff tape each forward pass; a store persists as a checksummed
//!   `model-io` section (`write_section` / `read_section`),
//! * [`Adam`] / [`Sgd`] — optimisers,
//! * [`Linear`], [`Mlp`], [`GruCell`] — layers (the GRU implements the
//!   paper's Eqs. 15-18 exactly),
//! * [`metrics`] — precision / recall / F1 / accuracy and ROC-AUC.

mod layers;
mod optim;
mod params;
mod persist;

pub mod metrics;

pub use layers::{Activation, GruCell, Linear, Mlp};
pub use optim::{Adam, Sgd};
pub use params::{Ctx, ParamId, ParamStore};
