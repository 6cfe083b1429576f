//! # gnn — graph neural networks for the double-graph pipeline
//!
//! Hand-rolled message passing on the `tensor` autodiff tape:
//!
//! * [`GraphTensors`] — subgraph → tensors lowering (GSG edges with `[w, t]`
//!   features; the static and per-slice normalised adjacencies, each built
//!   once as a CSR matrix straight from its edge list),
//! * [`layers`] — GCN / GAT / GIN / GraphSAGE / APPNP building blocks; GCN
//!   and APPNP propagate over the CSR adjacencies with `Tape::spmm`,
//! * [`GsgEncoder`] — the global static encoder: alignment (Eq. 6),
//!   node-level attention (Eqs. 7-9), graph-level attention pooling
//!   (Eqs. 10-13),
//! * [`LdgEncoder`] — the local dynamic encoder: GCN + GRU evolution
//!   (Eqs. 14-18), DiffPool (Eqs. 19-21), time-slice read-out (Eqs. 22-23),
//! * [`fn@augment`] / [`nt_xent`] — adaptive augmentation and the contrastive
//!   objective (Section IV-A3),
//! * [`GsgBatch`] / [`LdgBatch`] — block-diagonal packing feeding each
//!   encoder's one forward, `forward_batch`: training packs a mini-batch,
//!   scoring packs one account alone, and a batch of `N` graphs is
//!   bit-identical row for row to `N` batches of one.

mod augment;
mod batch;
mod contrast;
mod dynamic;
mod graphdata;
mod hier;
pub mod layers;

pub use augment::{augment, edge_drop_probs, AugmentConfig, AugmentedView};
pub use batch::{GsgBatch, GsgItem, LdgBatch};
pub use contrast::nt_xent;
pub use dynamic::{LdgConfig, LdgEncoder, LdgOutput};
pub use graphdata::{GraphTensors, CENTER_SEQ_LEN};
pub use hier::{GsgConfig, GsgEncoder, GsgOutput};
