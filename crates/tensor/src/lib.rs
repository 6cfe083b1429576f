//! # tensor — dense matrices with tape-based reverse-mode autodiff
//!
//! This crate is the numerical substrate of the DBG4ETH reproduction. The
//! Rust GNN ecosystem is thin, so message passing, attention, recurrence and
//! differentiable pooling are all built from scratch on two types:
//!
//! * [`Tensor`] — a dense row-major `f32` matrix,
//! * [`Tape`] / [`Var`] — a define-by-run autodiff tape over tensors.
//!
//! A fresh [`Tape`] is created per forward pass; parameters live outside the
//! tape (see the `nn` crate's `ParamStore`) and are re-inserted as leaves
//! each pass, PyTorch-style.
//!
//! ```
//! use tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(1, 2, vec![2.0, -3.0]));
//! let w = tape.leaf(Tensor::from_vec(2, 1, vec![0.5, 0.25]));
//! let y = tape.matmul(x, w);          // 2*0.5 + (-3)*0.25 = 0.25
//! let loss = tape.sum_all(y);
//! tape.backward(loss);
//! assert_eq!(tape.grad(w).unwrap().data(), &[2.0, -3.0]);
//! ```

mod csr;
pub mod exact;
mod profile;
mod tape;
mod tensor;

pub use csr::Csr;
pub use profile::NumericsProfile;
pub use tape::{softmax_into, BufferPool, PoolStats, Tape, Var};
pub use tensor::Tensor;
