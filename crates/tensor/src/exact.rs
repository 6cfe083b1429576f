//! Exact ports of the libm transcendentals the Strict profile depends on.
//!
//! Strict promises bit-identical outputs, and its exp-based activations
//! were defined by glibc's `tanhf` and `expf`. Calling them costs a scalar
//! library call per element, and the GRU applies tanh and σ to every node
//! row of every time slice. This module ports the two routines to
//! branch-free code over slices, so they vectorise, while still producing
//! glibc's exact bits:
//!
//! * [`tanh_in_place`] — glibc's fdlibm `tanhf` (`sysdeps/ieee754/flt-32/
//!   s_tanhf.c`) and the part of its `expm1f` (`s_expm1f.c`) that `tanhf`
//!   reaches;
//! * [`exp_in_place`] — glibc's table-driven `expf` (`e_expf.c` with the
//!   32-entry `__exp2f_data` table), with `f64::mul_add` exactly where
//!   glibc's FMA-dispatched x86-64 build contracts a multiply and an add;
//! * [`sigmoid_in_place`] — `1 / (1 + e⁻ˣ)` over [`exp_in_place`]'s lanes.
//!
//! The bits are the crate's own and do not depend on the host libm. On
//! x86-64 with AVX2 and FMA, eight lanes are processed at a time (`expf`
//! gathers its table entries); the scalar lane function, doing the same
//! operations, handles the remainder of each slice and every other target.
//! The `f64::mul_add` steps are correctly rounded on every target (a fused
//! instruction where the build has one, libm's exact `fma` otherwise), so
//! no output bit depends on `+fma`. The `#[ignore]`d tests below sweep all
//! 2³² inputs against a transliteration of the glibc C routines and against
//! the host libm.

// ---- tanhf / expm1f (fdlibm) --------------------------------------------

/// `ln 2` split so `k · LN2_HI` is exact for the `k` `expm1f` produces.
const LN2_HI: u32 = 0x3f31_7180;
const LN2_LO: u32 = 0x3717_f7d1;
const INV_LN2: u32 = 0x3fb8_aa3b;
/// `expm1f`'s scaled rational-approximation coefficients Q1..Q5.
const Q: [u32; 5] = [0xbd08_8889, 0x3ad0_0d01, 0xb8a6_70cd, 0x3686_7e54, 0xb457_edbb];

/// `|x|` bit thresholds: `tanhf` saturates at 22, returns `x·(1+x)` below
/// 2⁻⁵⁵ and switches formula at 1; `expm1f` reduces its argument above
/// ½·ln 2, takes `k = ±1` below 1½·ln 2 and returns its argument below 2⁻²⁵.
const TANH_SAT: u32 = 0x41b0_0000;
const TANH_TINY: u32 = 0x2400_0000;
const TANH_ONE: u32 = 0x3f80_0000;
const EM1_REDUCE: u32 = 0x3eb1_7218;
const EM1_NEAR: u32 = 0x3f85_1592;
const EM1_TINY: u32 = 0x3300_0000;

#[inline(always)]
fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

/// Reduction multiple `k` of glibc's `expm1f` for `u`: 0 for `|u| ≤ ½ ln 2`,
/// `±1` below 1½ ln 2, else `(int)(u / ln 2 ± ½)`.
#[inline(always)]
fn expm1f_k(u: f32) -> i32 {
    let hx = u.to_bits() & 0x7fff_ffff;
    if hx <= EM1_REDUCE {
        0
    } else if hx < EM1_NEAR {
        if u < 0.0 {
            -1
        } else {
            1
        }
    } else {
        (f(INV_LN2) * u + if u < 0.0 { -0.5 } else { 0.5 }) as i32
    }
}

/// glibc's `expm1f(u)` on the arguments `tanhf` passes it: `u = 2|x|` for
/// `1 ≤ |x| < 22` and `u = −2|x|` for `2⁻⁵⁵ ≤ |x| < 1`. On that domain `k`
/// is 0, −1, −2, −3 or in 3..=63, so the overflow filters and the `k = 1`
/// case of the C routine never run and are left out.
///
/// The C routine writes the `k = ±1` reduction as `u ∓ ln2_hi`, `±ln2_lo`;
/// here every `k` goes through `u − k·ln2_hi`, `k·ln2_lo`, which is the same
/// arithmetic (multiplying by ±1 or 0 is exact), so one formula covers all.
#[inline(always)]
fn expm1f_tanh_domain(u: f32) -> f32 {
    if u.to_bits() & 0x7fff_ffff < EM1_TINY {
        return u;
    }
    let k = expm1f_k(u);
    let t = k as f32;
    let hi = u - t * f(LN2_HI);
    let lo = t * f(LN2_LO);
    let x = hi - lo;
    let c = (hi - x) - lo;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 =
        1.0 + hxs * (f(Q[0]) + hxs * (f(Q[1]) + hxs * (f(Q[2]) + hxs * (f(Q[3]) + hxs * f(Q[4])))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    match k {
        -1 => 0.5 * (x - e) - 0.5,
        2..=22 => scale(f(0x3f80_0000 - (0x0100_0000 >> k)) - (e - x)),
        23..=56 => scale((x - (e + f(((0x7f - k) as u32) << 23))) + 1.0),
        _ => scale(1.0 - (e - x)) - 1.0,
    }
}

/// glibc's `tanhf(x)`, bit for bit: the scalar lane of [`tanh_in_place`].
#[inline]
fn tanhf(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // glibc's `1/x ± 1`: ±1 for ±∞, the quieted NaN for a NaN.
        return if x.is_nan() { x + x } else { 1.0f32.copysign(x) };
    }
    if ix < TANH_TINY {
        return x * (1.0 + x);
    }
    let big = ix >= TANH_ONE;
    let z = if ix >= TANH_SAT {
        1.0 - 1.0e-30
    } else {
        // `1 − 2/(t+2)` for |x| ≥ 1 and `−t/(t+2)` below, as one division.
        let t = expm1f_tanh_domain(if big { 2.0 } else { -2.0 } * f(ix));
        let q = if big { 2.0 } else { -t } / (t + 2.0);
        if big {
            1.0 - q
        } else {
            q
        }
    };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}

// ---- expf (table-driven) ------------------------------------------------

/// `EXP2F_TABLE_BITS = 5`: `TAB[i] = bits(2^(i/32)) − (i << 47)`, so
/// `TAB[k % 32] + (k << 47)` is the bit pattern of `2^(k/32)`.
const TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `32 / ln 2`, the round-to-integer shift `1.5·2⁵²`, and the degree-3
/// polynomial for `2^(r/32)` scaled by 32⁻³, 32⁻², 32⁻¹.
const INV_LN2_N: u64 = 0x4047_1547_652b_82fe;
const SHIFT: u64 = 0x4338_0000_0000_0000;
const C: [u64; 3] = [0x3ebc_6af8_4b91_2394, 0x3f2e_bfce_50fa_c4f3, 0x3f96_2e42_ff0c_52d6];
/// Special-case thresholds: overflow above `log(2¹²⁸)`, `+0` below
/// `log(2⁻¹⁵⁰)`, glibc's "may underflow" value `0x1.4p-75f²` (which
/// rounds to the least subnormal) below `log(2⁻¹⁴⁹)`.
const EXP_OFLOW: u32 = 0x42b1_7217;
const EXP_UFLOW: u32 = 0xc2cf_f1b4;
const EXP_MAY_UFLOW: u32 = 0xc2ce_8ecf;

#[inline(always)]
fn d(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// glibc's `expf(x)`, bit for bit: the scalar lane of [`exp_in_place`].
#[inline]
fn expf(x: f32) -> f32 {
    if x.is_nan() {
        return x + x;
    }
    if x > f(EXP_OFLOW) {
        return f32::INFINITY;
    }
    if x < f(EXP_UFLOW) {
        return 0.0;
    }
    if x < f(EXP_MAY_UFLOW) {
        return f32::from_bits(1);
    }
    let xd = f64::from(x);
    // z = x·32/ln2 is fused into both of its uses, as the FMA build does.
    let kd = d(INV_LN2_N).mul_add(xd, d(SHIFT));
    let ki = kd.to_bits();
    let kd = kd - d(SHIFT);
    let r = d(INV_LN2_N).mul_add(xd, -kd);
    let s = d(TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = d(C[0]).mul_add(r, d(C[1]));
    let r2 = r * r;
    let y = d(C[2]).mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

#[inline]
fn sigmoidf(x: f32) -> f32 {
    1.0 / (1.0 + expf(-x))
}

// ---- slice kernels ------------------------------------------------------

#[derive(Clone, Copy)]
enum Kernel {
    Tanh,
    Exp,
    Sigmoid,
}

impl Kernel {
    #[inline(always)]
    fn lane(self, x: f32) -> f32 {
        match self {
            Kernel::Tanh => tanhf(x),
            Kernel::Exp => expf(x),
            Kernel::Sigmoid => sigmoidf(x),
        }
    }
}

#[inline(always)]
fn apply(xs: &mut [f32], k: Kernel) {
    for x in simd::blocks(xs, k) {
        *x = k.lane(*x);
    }
}

/// `x ← tanh(x)` over `xs`, bit-identical to glibc's `tanhf`.
pub fn tanh_in_place(xs: &mut [f32]) {
    apply(xs, Kernel::Tanh);
}

/// `x ← eˣ` over `xs`, bit-identical to glibc's `expf`.
pub fn exp_in_place(xs: &mut [f32]) {
    apply(xs, Kernel::Exp);
}

/// `x ← 1 / (1 + e⁻ˣ)` over `xs`, with `e⁻ˣ` bit-identical to glibc's `expf`.
pub fn sigmoid_in_place(xs: &mut [f32]) {
    apply(xs, Kernel::Sigmoid);
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
mod simd {
    /// No vector path on this target: every element is a scalar lane.
    #[inline(always)]
    pub(super) fn blocks(xs: &mut [f32], _: super::Kernel) -> &mut [f32] {
        xs
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
mod simd {
    //! Eight-lane AVX2 versions of the scalar lanes above: every branch is
    //! computed and the right one selected per lane, with the same
    //! operations in the same order, so each lane's bits equal the scalar
    //! function's.
    use super::*;
    use std::arch::x86_64::*;

    /// Run `k` over the whole 8-lane blocks of `xs`; returns the remainder.
    #[inline(always)]
    pub(super) fn blocks(xs: &mut [f32], k: Kernel) -> &mut [f32] {
        // SAFETY: this module is only compiled when AVX2 and FMA are
        // enabled for the whole build.
        unsafe { blocks_avx2(xs, k) }
    }

    #[target_feature(enable = "avx2,fma")]
    fn blocks_avx2(xs: &mut [f32], k: Kernel) -> &mut [f32] {
        let mut it = xs.chunks_exact_mut(8);
        for b in &mut it {
            // SAFETY: `b` is exactly eight f32; the accesses are unaligned.
            let x = unsafe { _mm256_loadu_ps(b.as_ptr()) };
            let y = match k {
                Kernel::Tanh => tanh8(x),
                Kernel::Exp => exp8(x),
                Kernel::Sigmoid => sigmoid8(x),
            };
            // SAFETY: as for the load.
            unsafe { _mm256_storeu_ps(b.as_mut_ptr(), y) };
        }
        it.into_remainder()
    }

    #[target_feature(enable = "avx2,fma")]
    fn splat(bits: u32) -> __m256 {
        _mm256_castsi256_ps(_mm256_set1_epi32(bits as i32))
    }

    #[target_feature(enable = "avx2,fma")]
    fn int(v: i32) -> __m256i {
        _mm256_set1_epi32(v)
    }

    /// Lanes where `a > b` as signed 32-bit integers, as a float mask.
    #[target_feature(enable = "avx2,fma")]
    fn gt(a: __m256i, b: __m256i) -> __m256 {
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(a, b))
    }

    /// `expm1f_tanh_domain` on eight lanes.
    #[target_feature(enable = "avx2,fma")]
    fn expm1_8(u: __m256) -> __m256 {
        let (add, sub, mul, div) = (_mm256_add_ps, _mm256_sub_ps, _mm256_mul_ps, _mm256_div_ps);
        let hx = _mm256_and_si256(_mm256_castps_si256(u), int(0x7fff_ffff));
        // k, as `expm1f_k`: the far formula, then ±1, then 0.
        let half = _mm256_blendv_ps(_mm256_set1_ps(0.5), _mm256_set1_ps(-0.5), u);
        let k = _mm256_cvttps_epi32(add(mul(splat(INV_LN2), u), half));
        let pm1 = _mm256_castps_si256(_mm256_blendv_ps(
            _mm256_castsi256_ps(int(1)),
            _mm256_castsi256_ps(int(-1)),
            u,
        ));
        let near = gt(int(EM1_NEAR as i32), hx);
        let k = _mm256_castps_si256(_mm256_blendv_ps(
            _mm256_castsi256_ps(k),
            _mm256_castsi256_ps(pm1),
            near,
        ));
        let k = _mm256_and_si256(k, _mm256_castps_si256(gt(hx, int(EM1_REDUCE as i32))));

        let t = _mm256_cvtepi32_ps(k);
        let hi = sub(u, mul(t, splat(LN2_HI)));
        let lo = mul(t, splat(LN2_LO));
        let x = sub(hi, lo);
        let c = sub(sub(hi, x), lo);
        let one = _mm256_set1_ps(1.0);
        let hfx = mul(_mm256_set1_ps(0.5), x);
        let hxs = mul(x, hfx);
        let p = add(splat(Q[3]), mul(hxs, splat(Q[4])));
        let p = add(splat(Q[2]), mul(hxs, p));
        let p = add(splat(Q[1]), mul(hxs, p));
        let p = add(splat(Q[0]), mul(hxs, p));
        let r1 = add(one, mul(hxs, p));
        let t = sub(_mm256_set1_ps(3.0), mul(r1, hfx));
        let e = mul(hxs, div(sub(r1, t), sub(_mm256_set1_ps(6.0), mul(x, t))));
        let y0 = sub(x, sub(mul(x, e), hxs));
        let e = sub(sub(mul(x, sub(e, c)), c), hxs);

        let scale = |y: __m256| {
            _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)))
        };
        let e_minus_x = sub(e, x);
        let y_m1 = sub(mul(_mm256_set1_ps(0.5), sub(x, e)), _mm256_set1_ps(0.5));
        let y_mid = scale(sub(
            _mm256_castsi256_ps(_mm256_sub_epi32(
                int(0x3f80_0000),
                _mm256_srlv_epi32(int(0x0100_0000), k),
            )),
            e_minus_x,
        ));
        let t_hi = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_sub_epi32(int(0x7f), k), 23));
        let y_hi = scale(add(sub(x, add(e, t_hi)), one));
        let y_far = sub(scale(sub(one, e_minus_x)), one);

        let mut y = y_far;
        y = _mm256_blendv_ps(y, y_mid, _mm256_and_ps(gt(k, int(1)), gt(int(23), k)));
        y = _mm256_blendv_ps(y, y_hi, _mm256_and_ps(gt(k, int(22)), gt(int(57), k)));
        y = _mm256_blendv_ps(y, y_m1, _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, int(-1))));
        y = _mm256_blendv_ps(y, y0, _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, int(0))));
        _mm256_blendv_ps(y, u, gt(int(EM1_TINY as i32), hx))
    }

    /// `tanhf` on eight lanes.
    #[target_feature(enable = "avx2,fma")]
    fn tanh8(x: __m256) -> __m256 {
        let (add, sub, mul, div) = (_mm256_add_ps, _mm256_sub_ps, _mm256_mul_ps, _mm256_div_ps);
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let ix = _mm256_and_si256(_mm256_castps_si256(x), int(0x7fff_ffff));
        let ax = _mm256_castsi256_ps(ix);
        let sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0));
        let big = gt(ix, int(TANH_ONE as i32 - 1));
        let u = mul(_mm256_blendv_ps(_mm256_set1_ps(-2.0), two, big), ax);
        let t = expm1_8(u);
        // `1 − 2/(t+2)` for |x| ≥ 1 and `−t/(t+2)` below, as one division.
        let q =
            div(_mm256_blendv_ps(_mm256_xor_ps(t, _mm256_set1_ps(-0.0)), two, big), add(t, two));
        let z = _mm256_blendv_ps(q, sub(one, q), big);
        let z = _mm256_blendv_ps(
            z,
            sub(one, _mm256_set1_ps(1.0e-30)),
            gt(ix, int(TANH_SAT as i32 - 1)),
        );
        let z = _mm256_xor_ps(z, sign);
        let z = _mm256_blendv_ps(z, mul(x, add(one, x)), gt(int(TANH_TINY as i32), ix));
        let non_finite = _mm256_blendv_ps(
            _mm256_or_ps(sign, one),
            add(x, x),
            _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x),
        );
        _mm256_blendv_ps(z, non_finite, gt(ix, int(0x7f7f_ffff)))
    }

    /// The table-driven core of `expf` on four lanes, in double precision.
    #[target_feature(enable = "avx2,fma")]
    fn exp4(x: __m128) -> __m128 {
        let xd = _mm256_cvtps_pd(x);
        let inv = _mm256_set1_pd(d(INV_LN2_N));
        let shift = _mm256_set1_pd(d(SHIFT));
        let kd = _mm256_fmadd_pd(inv, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv, xd, kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every index is masked into 0..32, the table's length.
        let t = unsafe { _mm256_i64gather_epi64::<8>(TAB.as_ptr().cast::<i64>(), idx) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(d(C[0])), r, _mm256_set1_pd(d(C[1])));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(d(C[2])), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// `expf` on eight lanes: the core everywhere, then glibc's special
    /// cases selected over it.
    #[target_feature(enable = "avx2,fma")]
    fn exp8(x: __m256) -> __m256 {
        let lo = exp4(_mm256_castps256_ps128(x));
        let hi = exp4(_mm256_extractf128_ps::<1>(x));
        let y = _mm256_set_m128(hi, lo);
        let y = _mm256_blendv_ps(y, splat(1), _mm256_cmp_ps::<_CMP_LT_OQ>(x, splat(EXP_MAY_UFLOW)));
        let y = _mm256_blendv_ps(
            y,
            _mm256_setzero_ps(),
            _mm256_cmp_ps::<_CMP_LT_OQ>(x, splat(EXP_UFLOW)),
        );
        let y = _mm256_blendv_ps(
            y,
            splat(0x7f80_0000),
            _mm256_cmp_ps::<_CMP_GT_OQ>(x, splat(EXP_OFLOW)),
        );
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }

    #[target_feature(enable = "avx2,fma")]
    fn sigmoid8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let e = exp8(_mm256_xor_ps(x, _mm256_set1_ps(-0.0)));
        _mm256_div_ps(one, _mm256_add_ps(one, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line-by-line transliterations of the glibc C routines, branches and
    /// all: the host-independent contract the kernels are held to.
    mod glibc {
        fn word(x: f32) -> u32 {
            x.to_bits()
        }

        /// `sysdeps/ieee754/flt-32/s_expm1f.c`.
        pub fn expm1f(x: f32) -> f32 {
            const HUGE: f32 = 1.0e+30;
            const TINY: f32 = 1.0e-30;
            let ln2_hi = f32::from_bits(0x3f31_7180);
            let ln2_lo = f32::from_bits(0x3717_f7d1);
            let invln2 = f32::from_bits(0x3fb8_aa3b);
            let q = [
                f32::from_bits(0xbd08_8889),
                f32::from_bits(0x3ad0_0d01),
                f32::from_bits(0xb8a6_70cd),
                f32::from_bits(0x3686_7e54),
                f32::from_bits(0xb457_edbb),
            ];
            let mut x = x;
            let mut hx = word(x);
            let xsb = hx & 0x8000_0000;
            hx &= 0x7fff_ffff;
            if hx >= 0x4195_b844 {
                if hx >= 0x42b1_7218 {
                    if hx > 0x7f80_0000 {
                        return x + x;
                    }
                    if hx == 0x7f80_0000 {
                        return if xsb == 0 { x } else { -1.0 };
                    }
                    if xsb == 0 && hx > 0x42b1_7217 {
                        return HUGE * HUGE;
                    }
                }
                if xsb != 0 {
                    return TINY - 1.0;
                }
            }
            let (k, c);
            if hx > 0x3eb1_7218 {
                let (hi, lo);
                if hx < 0x3f85_1592 {
                    if xsb == 0 {
                        hi = x - ln2_hi;
                        lo = ln2_lo;
                        k = 1;
                    } else {
                        hi = x + ln2_hi;
                        lo = -ln2_lo;
                        k = -1;
                    }
                } else {
                    k = (invln2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
                    let t = k as f32;
                    hi = x - t * ln2_hi;
                    lo = t * ln2_lo;
                }
                x = hi - lo;
                c = (hi - x) - lo;
            } else if hx < 0x3300_0000 {
                let t = HUGE + x;
                return x - (t - HUGE);
            } else {
                k = 0;
                c = 0.0;
            }
            let hfx = 0.5 * x;
            let hxs = x * hfx;
            let r1 = 1.0 + hxs * (q[0] + hxs * (q[1] + hxs * (q[2] + hxs * (q[3] + hxs * q[4]))));
            let t = 3.0 - r1 * hfx;
            let mut e = hxs * ((r1 - t) / (6.0 - x * t));
            if k == 0 {
                return x - (x * e - hxs);
            }
            e = x * (e - c) - c;
            e -= hxs;
            if k == -1 {
                return 0.5 * (x - e) - 0.5;
            }
            if k == 1 {
                return if x < -0.25 { -2.0 * (e - (x + 0.5)) } else { 1.0 + 2.0 * (x - e) };
            }
            let add_exp = |y: f32| f32::from_bits((word(y) as i32).wrapping_add(k << 23) as u32);
            if k <= -2 || k > 56 {
                let y = 1.0 - (e - x);
                return add_exp(y) - 1.0;
            }
            if k < 23 {
                let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32);
                add_exp(t - (e - x))
            } else {
                let t = f32::from_bits(((0x7f - k) << 23) as u32);
                add_exp((x - (e + t)) + 1.0)
            }
        }

        /// `sysdeps/ieee754/flt-32/s_tanhf.c`.
        pub fn tanhf(x: f32) -> f32 {
            let jx = word(x) as i32;
            let ix = jx & 0x7fff_ffff;
            if ix >= 0x7f80_0000 {
                return if jx >= 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
            }
            let z;
            if ix < 0x41b0_0000 {
                if ix == 0 {
                    return x;
                }
                if ix < 0x2400_0000 {
                    return x * (1.0 + x);
                }
                if ix >= 0x3f80_0000 {
                    let t = expm1f(2.0 * x.abs());
                    z = 1.0 - 2.0 / (t + 2.0);
                } else {
                    let t = expm1f(-2.0 * x.abs());
                    z = -t / (t + 2.0);
                }
            } else {
                z = 1.0 - 1.0e-30;
            }
            if jx >= 0 {
                z
            } else {
                -z
            }
        }

        /// `sysdeps/ieee754/flt-32/e_expf.c` as glibc's FMA-dispatched
        /// x86-64 build compiles it: `z = InvLn2N * xd` is contracted into
        /// both `z + SHIFT` and `z - kd`, and the polynomial's
        /// multiply-adds are fused. `WANT_ERRNO_UFLOW` is on.
        pub fn expf(x: f32) -> f32 {
            let top12 = |x: f32| word(x) >> 20;
            let abstop = top12(x) & 0x7ff;
            if abstop >= top12(88.0) {
                if word(x) == word(f32::NEG_INFINITY) {
                    return 0.0;
                }
                if abstop >= top12(f32::INFINITY) {
                    return x + x;
                }
                if x > f32::from_bits(0x42b1_7217) {
                    let y = f32::from_bits(0x7000_0000); // 0x1p97f
                    return y * y;
                }
                if x < f32::from_bits(0xc2cf_f1b4) {
                    let y = f32::from_bits(0x1000_0000); // 0x1p-95f
                    return y * y;
                }
                if x < f32::from_bits(0xc2ce_8ecf) {
                    let y = f32::from_bits(0x1a20_0000); // 0x1.4p-75f
                    return y * y;
                }
            }
            let inv_ln2_n = f64::from_bits(0x3ff7_1547_652b_82fe) * 32.0;
            let shift = f64::from_bits(0x4338_0000_0000_0000);
            let c = [
                f64::from_bits(0x3fac_6af8_4b91_2394) / 32.0 / 32.0 / 32.0,
                f64::from_bits(0x3fce_bfce_50fa_c4f3) / 32.0 / 32.0,
                f64::from_bits(0x3fe6_2e42_ff0c_52d6) / 32.0,
            ];
            let xd = f64::from(x);
            let kd = inv_ln2_n.mul_add(xd, shift);
            let ki = kd.to_bits();
            let kd = kd - shift;
            let r = inv_ln2_n.mul_add(xd, -kd);
            let mut t = super::TAB[(ki % 32) as usize];
            t = t.wrapping_add(ki << 47);
            let s = f64::from_bits(t);
            let z = c[0].mul_add(r, c[1]);
            let r2 = r * r;
            let y = c[2].mul_add(r, 1.0);
            let y = z.mul_add(r2, y);
            (y * s) as f32
        }
    }

    /// One kernel under test: the slice kernel the tape calls, the glibc
    /// reference and the host libm.
    struct Case {
        name: &'static str,
        kernel: fn(&mut [f32]),
        reference: fn(f32) -> f32,
        host: fn(f32) -> f32,
    }

    const TANH: Case =
        Case { name: "tanh", kernel: tanh_in_place, reference: glibc::tanhf, host: f32::tanh };
    const EXP: Case =
        Case { name: "exp", kernel: exp_in_place, reference: glibc::expf, host: f32::exp };
    const SIGMOID: Case = Case {
        name: "sigmoid",
        kernel: sigmoid_in_place,
        reference: |x| 1.0 / (1.0 + glibc::expf(-x)),
        host: |x| 1.0 / (1.0 + (-x).exp()),
    };

    /// The host libm is compared only where it is glibc: elsewhere its
    /// bits were never the Strict contract.
    const HOST_IS_GLIBC: bool = cfg!(all(target_os = "linux", target_env = "gnu"));

    /// Count the inputs of `xs` whose output differs in any bit (NaN
    /// payloads included) from the reference or, on glibc hosts, the host
    /// libm. `xs` goes through the slice kernel twice: whole (the vector
    /// lanes, plus a remainder if `xs.len() % 8 != 0`) and in 7-element
    /// pieces (the scalar remainder path alone).
    fn mismatches(case: &Case, xs: &[f32], report: &mut Vec<String>) -> u64 {
        let mut whole = xs.to_vec();
        (case.kernel)(&mut whole);
        let mut pieces = xs.to_vec();
        for piece in pieces.chunks_mut(7) {
            (case.kernel)(piece);
        }
        let mut bad = 0;
        for (i, &x) in xs.iter().enumerate() {
            let want = (case.reference)(x).to_bits();
            let host = HOST_IS_GLIBC.then(|| (case.host)(x).to_bits());
            for (path, got) in [("slice", whole[i]), ("remainder", pieces[i])] {
                let got = got.to_bits();
                if got != want || host.is_some_and(|h| h != got) {
                    bad += 1;
                    if report.len() < 8 {
                        report.push(format!(
                            "{}({:#010x}) {path}: {got:#010x}, glibc port {want:#010x}, host {host:x?}",
                            case.name,
                            x.to_bits()
                        ));
                    }
                }
            }
        }
        bad
    }

    /// A fast sample of the input space: a stride through all bit
    /// patterns plus every threshold the routines branch on, in both signs.
    fn sampled_inputs() -> Vec<f32> {
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(40_009).collect();
        let edges = [
            0,
            1,
            0x007f_ffff,
            0x0080_0000,
            TANH_TINY,
            TANH_ONE,
            TANH_SAT,
            EM1_REDUCE,
            EM1_NEAR,
            EM1_TINY,
            0x3f00_0000,
            0x4000_0000,
            0x41b0_0000,
            0x42b0_0000,
            0x7f7f_ffff,
            0x7f80_0000,
            0x7f80_0001,
            0x7fc0_0000,
            0x7fff_ffff,
        ];
        // expf's special-case thresholds, and the two inputs where only
        // glibc's fused `x·32/ln2` gets the last bit right.
        let signed = [EXP_OFLOW, EXP_UFLOW, EXP_MAY_UFLOW, 0x4202_422f, 0xc27c_65d9];
        for e in edges.into_iter().chain(signed.map(|b| b & 0x7fff_ffff)) {
            for sign in [0, 0x8000_0000] {
                for delta in -3i32..=3 {
                    bits.push((e as i32).wrapping_add(delta) as u32 ^ sign);
                }
            }
        }
        bits.into_iter().map(f32::from_bits).collect()
    }

    fn assert_sampled(case: &Case) {
        let xs = sampled_inputs();
        let mut report = Vec::new();
        let bad = mismatches(case, &xs, &mut report);
        assert_eq!(
            bad,
            0,
            "{} of {} sampled {} outputs differ:\n{}",
            bad,
            2 * xs.len(),
            case.name,
            report.join("\n")
        );
    }

    #[test]
    fn tanh_matches_glibc_on_sampled_inputs() {
        assert_sampled(&TANH);
    }

    #[test]
    fn exp_matches_glibc_on_sampled_inputs() {
        assert_sampled(&EXP);
    }

    #[test]
    fn sigmoid_matches_glibc_on_sampled_inputs() {
        assert_sampled(&SIGMOID);
    }

    #[test]
    fn exp_table_is_two_to_the_i_over_32() {
        for (i, &t) in TAB.iter().enumerate() {
            let got = f64::from_bits(t + ((i as u64) << 47));
            let want = 2f64.powf(i as f64 / 32.0);
            assert!((got - want).abs() <= f64::EPSILON * want, "TAB[{i}]: {got} vs {want}");
        }
    }

    /// Every one of the 2³² inputs, in 2¹⁶-input blocks over all cores.
    fn assert_exhaustive(case: &Case) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;
        const BLOCK: u64 = 1 << 16;
        let next = AtomicU64::new(0);
        let bad = AtomicU64::new(0);
        let report = Mutex::new(Vec::new());
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let start = next.fetch_add(BLOCK, Ordering::Relaxed);
                    if start > u64::from(u32::MAX) {
                        break;
                    }
                    let xs: Vec<f32> =
                        (start..start + BLOCK).map(|b| f32::from_bits(b as u32)).collect();
                    let mut local = Vec::new();
                    bad.fetch_add(mismatches(case, &xs, &mut local), Ordering::Relaxed);
                    report.lock().unwrap().extend(local);
                });
            }
        });
        let bad = bad.into_inner();
        let report = report.into_inner().unwrap();
        eprintln!(
            "{}: {bad} mismatches over all 2^32 inputs (host libm compared: {HOST_IS_GLIBC})",
            case.name
        );
        assert_eq!(
            bad,
            0,
            "{} outputs differ:\n{}",
            case.name,
            report[..report.len().min(8)].join("\n")
        );
    }

    #[test]
    #[ignore = "all 2^32 inputs; run with `cargo test --release -p tensor -- --ignored`"]
    fn tanh_matches_glibc_on_every_input() {
        assert_exhaustive(&TANH);
    }

    #[test]
    #[ignore = "all 2^32 inputs; run with `cargo test --release -p tensor -- --ignored`"]
    fn exp_matches_glibc_on_every_input() {
        assert_exhaustive(&EXP);
    }

    #[test]
    #[ignore = "all 2^32 inputs; run with `cargo test --release -p tensor -- --ignored`"]
    fn sigmoid_matches_glibc_on_every_input() {
        assert_exhaustive(&SIGMOID);
    }
}
