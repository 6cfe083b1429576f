//! # calib — confidence calibration (Section IV-C)
//!
//! The joint prediction and calibration module: [`fn@ece`] (expected
//! calibration error), six calibration methods ([`Calibrator`] /
//! [`CalibMethod`]: temperature scaling, beta, logistic, histogram binning,
//! isotonic regression, BBQ) and the adaptive ΔECE-weighted ensemble
//! ([`AdaptiveCalibrator`], Eqs. 24-25) with the mean/std confidence
//! generation step ([`ConfidenceScaler`]).

mod adaptive;
mod ece;
mod extra_metrics;
mod methods;
mod persist;

pub use adaptive::{AdaptiveCalibrator, ConfidenceScaler, MethodSubset, ECE_BINS};
pub use ece::{ece, reliability_diagram, ReliabilityBin};
pub use extra_metrics::{brier, brier_decomposition, mce, BrierDecomposition};
pub use methods::{CalibMethod, Calibrator};
