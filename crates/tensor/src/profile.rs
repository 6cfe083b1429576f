//! Numerics profiles: the contract between speed and bit-reproducibility.
//!
//! Every kernel in this crate historically promised one accumulation order —
//! the ikj loop with exact zeros skipped — so that outputs are bit-identical
//! across thread counts, buffer-pool generations, and sparse/dense paths.
//! That promise is what the golden-trace test pins. It also forbids the two
//! cheapest wins on modern x86: fused multiply-add and reassociated
//! (register-blocked) accumulation.
//!
//! [`NumericsProfile`] makes the trade explicit. [`NumericsProfile::Strict`]
//! (the default) keeps the historical order bit-for-bit. Its
//! transcendentals are the crate's own exact, vectorised ports of glibc's
//! `tanhf` and `expf` ([`crate::exact`]), so Strict bits do not depend on
//! the host libm: `tanh`, `sigmoid` and `elu` use them under Strict, and
//! the exp sites both profiles share (`softmax_into` / `softmax_rows`,
//! `segment_softmax`, `cross_entropy`) use them under either.
//! [`NumericsProfile::Fast`] lets the dense GEMM kernels use FMA and
//! reassociation, and swaps the exact transcendentals in the exp-based
//! activations for the polynomial [`fast_exp`] family below;
//! results differ from Strict by rounding only, and the
//! workspace's statistical-tolerance harness (`tests/tolerance.rs` in the
//! root crate) bounds the end-to-end drift. Fast remains deterministic for a
//! fixed build: kernels are single-threaded, so the same inputs give the
//! same bits at any thread count — Fast trades *cross-profile* identity, not
//! run-to-run identity.
//!
//! Sparse (CSR) kernels stay strict under both profiles: their zero-skip
//! semantics carry graph structure, and SpMM is memory-bound enough that FMA
//! buys little.

/// How dense kernels are allowed to accumulate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NumericsProfile {
    /// Bit-identical accumulation: ikj order, inner dimension ascending,
    /// exact zeros of the left operand skipped. The golden-trace contract.
    #[default]
    Strict,
    /// FMA + reassociated register-blocked accumulation in dense GEMM.
    /// Deterministic per build, but not bit-identical to [`Self::Strict`].
    Fast,
}

impl NumericsProfile {
    /// True for [`NumericsProfile::Fast`].
    #[inline]
    pub fn is_fast(self) -> bool {
        matches!(self, NumericsProfile::Fast)
    }

    /// Stable lowercase name, used in reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            NumericsProfile::Strict => "strict",
            NumericsProfile::Fast => "fast",
        }
    }

    /// Parse a profile name as written in config files or environment
    /// variables (case-insensitive `strict` / `fast`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "strict" => Some(NumericsProfile::Strict),
            "fast" => Some(NumericsProfile::Fast),
            _ => None,
        }
    }
}

impl std::fmt::Display for NumericsProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `eˣ` for the Fast profile: `2^(x·log₂e)` with the fractional exponent
/// mapped through a degree-5 polynomial and the integer part applied as an
/// exponent-field bit shift. Branch-free straight-line arithmetic, so the
/// elementwise activation loops auto-vectorize instead of calling scalar
/// libm — about an order of magnitude faster — at ~1e-7 relative error.
/// Inputs are clamped to the finite `f32` exponent range (the activations
/// that call this saturate far earlier anyway).
#[inline]
#[allow(clippy::excessive_precision)] // LN2_HI is spelled to its exact f32 value
pub(crate) fn fast_exp(x: f32) -> f32 {
    // Cody–Waite reduction: n = round(x·log₂e), r = x − n·ln2 with ln2
    // split into a high part exact under multiplication by |n| ≤ 126 and a
    // low correction, keeping r accurate to f32 eps on [−ln2/2, ln2/2].
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = x.clamp(-87.0, 87.0);
    let n = (x * std::f32::consts::LOG2_E).round();
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // e^r by degree-6 Taylor: remainder < 2e-7 relative on the interval.
    let p = 1.0
        + r * (1.0
            + r * (0.5
                + r * (0.166_666_67
                    + r * (0.041_666_668 + r * (0.008_333_334 + r * 0.001_388_888_9)))));
    let scale = f32::from_bits(((n as i32 + 127) as u32) << 23);
    p * scale
}

/// Fast-profile sigmoid `1 / (1 + e⁻ˣ)` built on [`fast_exp`].
#[inline]
pub(crate) fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

/// Fast-profile tanh `1 − 2 / (e²ˣ + 1)` built on [`fast_exp`]; saturates
/// to ±1 exactly where the clamped exponent bottoms out.
#[inline]
pub(crate) fn fast_tanh(x: f32) -> f32 {
    1.0 - 2.0 / (fast_exp(2.0 * x) + 1.0)
}

#[cfg(test)]
mod fast_math_tests {
    use super::*;

    #[test]
    fn fast_exp_tracks_libm() {
        for i in -4000..4000 {
            let x = i as f32 * 0.01;
            let got = fast_exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 2e-6, "exp({x}): {got} vs {want} (rel {rel})");
        }
    }

    #[test]
    fn fast_sigmoid_and_tanh_bounds() {
        for i in -2000..2000 {
            let x = i as f32 * 0.02;
            let s = fast_sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
            assert!((s - 1.0 / (1.0 + (-x).exp())).abs() < 1e-6, "sigmoid({x})");
            let t = fast_tanh(x);
            assert!((-1.0..=1.0).contains(&t));
            assert!((t - x.tanh()).abs() < 2e-6, "tanh({x}): {t} vs {}", x.tanh());
        }
        assert_eq!(fast_tanh(100.0), 1.0);
        assert_eq!(fast_tanh(-100.0), -1.0);
        assert_eq!(fast_sigmoid(0.0), 0.5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_strict() {
        assert_eq!(NumericsProfile::default(), NumericsProfile::Strict);
        assert!(!NumericsProfile::default().is_fast());
    }

    #[test]
    fn parse_roundtrip() {
        for p in [NumericsProfile::Strict, NumericsProfile::Fast] {
            assert_eq!(NumericsProfile::parse(p.name()), Some(p));
        }
        assert_eq!(NumericsProfile::parse(" FAST "), Some(NumericsProfile::Fast));
        assert_eq!(NumericsProfile::parse("loose"), None);
    }
}
