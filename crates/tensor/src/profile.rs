//! The numerics contract every kernel in this crate keeps.
//!
//! Dense kernels accumulate in one order — the ikj loop with exact zeros of
//! the left operand skipped — so outputs are bit-identical across thread
//! counts, buffer-pool generations, and sparse/dense paths. The
//! transcendentals are the crate's own exact, vectorised ports of glibc's
//! `tanhf` and `expf` ([`crate::exact`]), so the bits do not depend on the
//! host libm either. That contract is what the golden-trace test pins.

/// The accumulation contract of the dense kernels. There is one: reports
/// name it so a run's numerics are stated, not assumed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NumericsProfile {
    /// Bit-identical accumulation: ikj order, inner dimension ascending,
    /// exact zeros of the left operand skipped. The golden-trace contract.
    #[default]
    Strict,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_strict() {
        assert_eq!(NumericsProfile::default(), NumericsProfile::Strict);
        assert_eq!(format!("{:?}", NumericsProfile::default()), "Strict");
    }
}
