//! Dense row-major `f32` matrices.
//!
//! Everything in this workspace is expressible with rank-2 tensors: node
//! feature matrices `(n, d)`, adjacency matrices `(n, n)`, per-edge score
//! columns `(e, 1)` and scalars `(1, 1)`. Restricting the engine to matrices
//! keeps shape logic simple and the autodiff tape (see [`crate::tape`]) easy
//! to verify with finite differences.

use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from raw data. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape ({rows}, {cols})",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// A `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// A `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// A `rows x cols` tensor of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// A `1 x 1` tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Build a tensor by calling `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The IEEE-754 bit pattern of every element, row-major. The lossless
    /// dual of [`Tensor::from_bits_vec`], used by model persistence so
    /// saved weights reload bit-identically (including NaN payloads and
    /// signed zeros that a decimal round-trip would mangle).
    pub fn to_bits_vec(&self) -> Vec<u32> {
        self.data.iter().map(|x| x.to_bits()).collect()
    }

    /// Rebuild a tensor from bit patterns produced by
    /// [`Tensor::to_bits_vec`]. Panics if `bits.len() != rows * cols`.
    pub fn from_bits_vec(rows: usize, cols: usize, bits: &[u32]) -> Self {
        Self::from_vec(rows, cols, bits.iter().map(|&b| f32::from_bits(b)).collect())
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The single element of a `1 x 1` tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a scalar tensor");
        self.data[0]
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ other`, by [`Tensor::matmul_into`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self @ other` written into `out`, which must have shape
    /// `(self.rows, other.cols)`; prior contents are overwritten. The
    /// allocation-free kernel behind [`Tensor::matmul`]; the tape calls it
    /// with pooled buffers that need no zeroing pass.
    ///
    /// Accumulation order is the ikj loop with the inner dimension ascending
    /// and exact zeros of `self` skipped — the ordering contract every other
    /// matmul kernel in this crate (CSR SpMM, [`Tensor::matmul_tn_into`])
    /// reproduces bit-for-bit. See `gemm_nn` for how the kernel tiles the
    /// product and skips the zeros without a branch per element.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: ({}, {}) @ ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul output shape");
        gemm_nn(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// `selfᵀ @ other` written into `out` (shape `(self.cols, other.cols)`;
    /// prior contents are overwritten) without materialising the transpose.
    ///
    /// Bit-identical to `self.transpose().matmul(other)`: for each output
    /// row `i` the contributions `self[p][i] * other[p][..]` arrive with `p`
    /// ascending — exactly the ikj order of [`Tensor::matmul_into`] on the
    /// transposed operand — and exact zeros of `self` are skipped the same
    /// way. Used by the tape's Matmul backward for `gb = aᵀ @ g`, where the
    /// explicit transpose of the (tall) activation matrix would cost a
    /// strided copy per step. See `gemm_tn`.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}, {})^T @ ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul_tn output shape");
        gemm_tn(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        transpose_into(self.rows, self.cols, &self.data, &mut out.data);
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Elementwise combination of two equally-shaped tensors.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place elementwise map: `self[i] = f(self[i])`. The allocation-free
    /// variant of [`Tensor::map`] for hot elementwise ops.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// In-place elementwise combine: `self[i] = f(self[i], other[i])`. The
    /// allocation-free variant of [`Tensor::zip`].
    pub fn zip_assign(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Concatenate columns: `(n, a)` and `(n, b)` -> `(n, a + b)`.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Tensor::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Stack rows: `(a, d)` over `(b, d)` -> `(a + b, d)`.
    pub fn concat_rows(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "concat_rows col mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Select rows by index (rows may repeat).
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(idx.len(), self.cols);
        for (r, &i) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i));
        }
        out
    }

    /// True iff every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Write the transpose of the row-major `rows × cols` matrix `src` into
/// `dst` (`cols × rows`).
pub(crate) fn transpose_into(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!((src.len(), dst.len()), (rows * cols, rows * cols));
    for (r, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Column-tile width of the register-blocked matmul kernels: 16 f32 is two
/// AVX2 vectors, so a 4-row tile holds its partial sums in eight vector
/// registers with room left for broadcasts and `b` loads.
pub(crate) const MM_JT: usize = 16;

/// `c[t] += x * b[t]` over one register tile, skipped entirely when
/// `x == 0.0` — the same per-element zero-skip the scalar loops apply.
#[inline]
pub(crate) fn tile_axpy_nonzero(c: &mut [f32; MM_JT], x: f32, b: &[f32]) {
    if x == 0.0 {
        return;
    }
    for t in 0..MM_JT {
        c[t] += x * b[t];
    }
}

/// The Strict product `out = a @ b` on row-major slices: `a` is `m × k`,
/// `b` is `k × n`, `out` is `m × n` and overwritten. Every output element
/// receives `+= a[i][p] · b[p][j]` with `p` ascending from zero, exact
/// zeros (±0.0) of `a` skipped — the scalar ikj loop's sequence
/// ([`gemm_reference`]), bit for bit.
///
/// A one-term contraction is [`outer`]. On x86-64 with AVX2 the rest runs
/// the register tiles of [`tiles::gemm_nn`]; other targets run the
/// reference loop itself.
pub(crate) fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n), "gemm_nn operands");
    match k {
        0 => out.fill(0.0),
        1 => outer(a, b, out),
        _ => tiles::gemm_nn(m, k, n, a, b, out),
    }
}

/// The Strict product `out = aᵀ @ b` on row-major slices: `a` is `m × k`,
/// `b` is `m × n`, `out` is `k × n` and overwritten. Output row `i`
/// receives `+= a[p][i] · b[p][..]` with `p` ascending from zero, exact
/// zeros of `a` skipped — [`gemm_nn`]'s sequence on the transposed `a`,
/// bit for bit, without materialising the transpose.
pub(crate) fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, m * n, k * n), "gemm_tn operands");
    match m {
        0 => out.fill(0.0),
        1 => outer(a, b, out),
        _ => tiles::gemm_tn(m, k, n, a, b, out),
    }
}

/// The scalar reference of both Strict products, the contract itself:
/// `out[i][..] = Σ_p x(i, p) · b[p][..]` over `i < rows` and `p < len`
/// ascending, with `x(i, p) = a[i · stride.0 + p · stride.1]`, every
/// element starting at `+0.0` and exact zeros of `x` skipped. `(k, 1)`
/// strides give `a @ b`, `(1, k)` give `aᵀ @ b`.
///
/// A zero's term is skipped, not added as `±0.0`: `0 · inf` and `0 · NaN`
/// are NaN, so a kernel must skip the term or discard its product to keep
/// the contract for every `b`.
// With AVX2 only the tests call it, as their oracle.
#[cfg_attr(all(target_arch = "x86_64", target_feature = "avx2"), allow(dead_code))]
pub(crate) fn gemm_reference(
    rows: usize,
    len: usize,
    a: &[f32],
    stride: (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    let n = out.len() / rows.max(1);
    out.fill(0.0);
    for (i, row) in out.chunks_exact_mut(n.max(1)).enumerate() {
        for (p, b_row) in b.chunks_exact(n.max(1)).take(len).enumerate() {
            let x = a[i * stride.0 + p * stride.1];
            if x == 0.0 {
                continue;
            }
            for (o, &v) in row.iter_mut().zip(b_row) {
                *o += x * v;
            }
        }
    }
}

/// A one-term contraction: row `i` of `out` is `0.0 + x[i] · b`, or `+0.0`
/// where `x[i]` is an exact zero — the reference loop's single step, with
/// none of the tiles' set-up. The `0.0 +` is not a no-op: it turns a
/// `-0.0` product into `+0.0`, as the reference does.
fn outer(x: &[f32], b: &[f32], out: &mut [f32]) {
    for (row, &x) in out.chunks_exact_mut(b.len().max(1)).zip(x) {
        if x == 0.0 {
            row.fill(0.0);
        } else {
            for (o, &v) in row.iter_mut().zip(b) {
                *o = 0.0 + x * v;
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
mod tiles {
    //! No vector tiles on this target: both products run the scalar
    //! reference loop.
    use super::gemm_reference;

    pub(super) fn gemm_nn(m: usize, k: usize, _: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_reference(m, k, a, (k, 1), b, out);
    }

    pub(super) fn gemm_tn(m: usize, k: usize, _: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_reference(k, m, a, (1, k), b, out);
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[allow(clippy::needless_range_loop)] // `r` and `v` index several arrays
mod tiles {
    //! The Strict products as AVX2 register tiles. Each output element's
    //! partial sum lives in a vector lane and takes `acc + x·b` as a
    //! `vmulps` and then a `vaddps` (never fused), `p` ascending from
    //! `+0.0`; an exact zero `x` leaves `acc` as it was. Left operands are
    //! row pointers plus a stride, read by broadcasting straight from
    //! memory, so a tile's contraction loop holds no bounds check, and the
    //! accumulators load from and store to `out` itself — the last `n % 16`
    //! columns through lane masks, so no padded copy of `b` is made.
    //!
    //! Output rows go in groups of four (then singly), over the contraction
    //! in [`CHUNK`]s. How a group skips zeros depends only on how many its
    //! rows hold in the chunk ([`COMPACT_ABOVE`]):
    //!
    //! * none: [`dense_tile`], where one `b` load feeds all four rows;
    //! * few: the same tile with a compare that masks the product to
    //!   `+0.0` wherever `x` is an exact zero ([`add_nonzero`]). That is
    //!   exact for every `b`: the discarded product may be NaN (`0 · inf`),
    //!   no accumulator ever sees it;
    //! * more: each row's nonzero positions are compacted
    //!   ([`nonzero_positions`]) and [`sparse_tile`] multiplies only those.
    //!   A data-dependent branch per entry mispredicts on ReLU outputs,
    //!   which carry 40–70 % zeros in no pattern; a list costs the same
    //!   wherever the zeros fall and does none of the skipped work.
    //!
    //! A one-column product puts output rows in the lanes instead
    //! ([`column`]), each lane masking its own zeros the same way.
    //!
    //! The kernels are `unsafe`: they read and write through the pointers
    //! they are given, which must cover the shapes they are given.
    //! [`gemm_nn`] and [`gemm_tn`] derive all of them from slices whose
    //! lengths the callers have checked.
    use super::MM_JT;
    use std::arch::x86_64::*;

    /// Contraction indices per pass. A chunk's nonzero positions fit a
    /// `u8`, so the index scratch is a few hundred bytes on the stack; the
    /// `b` rows of one chunk (`256 · n · 4` bytes, 64 KiB at `n = 64`)
    /// stay cache-resident while every output group sweeps them.
    const CHUNK: usize = 256;

    /// Capacity of one group member's position list: a chunk plus the
    /// eight lanes [`nonzero_positions`] may write past the last kept
    /// position.
    const NZ_CAP: usize = CHUNK + 8;

    /// Column width of the one-row tiles [`sparse_group`] runs on outputs
    /// at least this wide: eight vector accumulators, so one row alone has
    /// enough independent chains, and one index lookup feeds eight `b`
    /// vectors. On the `kernels` bench's 60 %-zero `gemm/{nn,tn}/n64`
    /// cases they take 0.65–0.72× the time of four-row 16-wide tiles over
    /// the same lists.
    const WIDE: usize = 4 * MM_JT;

    /// Ascending bit positions of every byte value, packed one per byte of
    /// a little-endian `u64`: the left-pack table of [`nonzero_positions`].
    const LEFT_PACK: [u64; 256] = {
        let mut table = [0u64; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut word, mut slot, mut bit) = (0u64, 0, 0);
            while bit < 8 {
                if mask & (1 << bit) != 0 {
                    word |= (bit as u64) << (8 * slot);
                    slot += 1;
                }
                bit += 1;
            }
            table[mask] = word;
            mask += 1;
        }
        table
    };

    /// Write the positions of `x`'s entries that are not exact zeros (NaN
    /// included, ±0.0 excluded) into `pos`, ascending, and return their
    /// count. Branch-free: eight entries become a byte mask, the mask
    /// selects their packed positions from [`LEFT_PACK`], and all eight
    /// bytes are stored while the count advances only by the kept ones —
    /// so the cost does not depend on where the zeros are. `x.len()` is at
    /// most [`CHUNK`].
    fn nonzero_positions(x: &[f32], pos: &mut [u8; NZ_CAP]) -> usize {
        debug_assert!(x.len() <= CHUNK);
        let mut len = 0;
        let mut base = 0u64;
        let mut eights = x.chunks_exact(8);
        for e in &mut eights {
            let mut mask = 0;
            for (t, &v) in e.iter().enumerate() {
                mask |= usize::from(v != 0.0) << t;
            }
            let packed = LEFT_PACK[mask] + base * 0x0101_0101_0101_0101;
            pos[len..len + 8].copy_from_slice(&packed.to_le_bytes());
            len += mask.count_ones() as usize;
            base += 8;
        }
        for (t, &v) in eights.remainder().iter().enumerate() {
            pos[len] = (base as usize + t) as u8;
            len += usize::from(v != 0.0);
        }
        len
    }

    /// Number of exact zeros (±0.0) in `x`: a vectorised count, a fraction
    /// of the multiply-adds of the rows it sizes up.
    #[inline]
    fn zero_count(x: &[f32]) -> usize {
        x.iter().map(|&v| u32::from(v == 0.0)).sum::<u32>() as usize
    }

    /// A group of left-operand entries goes through the compacted path
    /// when more than `1 / COMPACT_ABOVE` of them are exact zeros, and
    /// through the shared-load [`dense_tile`] otherwise. Measured on the
    /// `kernels` bench's `gemm/` cases, run also at 3, 10, 20 and 30 %
    /// zeros with each path forced in turn, the compacted path against a
    /// per-entry-branch tile on the same operands took 1.4–2.1× as long at
    /// 3 % zeros and widths ≤ 32 (0.8–1.1× at 64), 0.8–1.2× at 10 % (94 and
    /// 1311 rows), 0.4–0.9× at 20 % and 0.2–0.4× at 60 %.
    const COMPACT_ABOVE: usize = 8;

    /// Whether `zeros` exact zeros among `entries` send a group to the
    /// compacted path (see [`COMPACT_ABOVE`]).
    #[inline]
    fn compacts(zeros: usize, entries: usize) -> bool {
        zeros * COMPACT_ABOVE > entries
    }

    /// One contraction chunk of a GEMM pass: `b`'s rows `p0..p0 + len`,
    /// row stride `n`, starting at `b`.
    struct Chunk {
        p0: usize,
        len: usize,
        b: *const f32,
        n: usize,
    }

    impl Chunk {
        /// Whether the output holds no partial sums yet: accumulators start
        /// at `+0.0` on the first chunk and at `out`'s running sums after
        /// it. A round trip through memory is exact, so chunking never
        /// changes a bit.
        fn first(&self) -> bool {
            self.p0 == 0
        }
    }

    /// Hand `pass` the contraction `0..len` in [`CHUNK`]s.
    fn for_each_chunk(len: usize, b: &[f32], n: usize, mut pass: impl FnMut(&Chunk)) {
        let mut p0 = 0;
        while p0 < len {
            let p1 = (p0 + CHUNK).min(len);
            pass(&Chunk { p0, len: p1 - p0, b: b[p0 * n..].as_ptr(), n });
            p0 = p1;
        }
    }

    /// Sixteen lanes on, then sixteen off: `TAIL_MASK[16 - w..]` holds the
    /// masks of a 16-wide tile's first `w` lanes.
    const TAIL_MASK: [i32; 2 * MM_JT] = {
        let mut m = [0; 2 * MM_JT];
        let mut t = 0;
        while t < MM_JT {
            m[t] = -1;
            t += 1;
        }
        m
    };

    /// The lane masks of a tile's first `w` columns (below `8 · V`), one
    /// per vector.
    #[inline(always)]
    fn tail_mask<const V: usize>(w: usize) -> [__m256i; V] {
        let m = &TAIL_MASK[MM_JT - w..][..8 * V];
        // SAFETY: `m` holds the `8 · V` lanes read; AVX2 is enabled for the
        // whole build, as this module's `cfg` requires.
        std::array::from_fn(|v| unsafe { _mm256_loadu_si256(m[8 * v..].as_ptr().cast()) })
    }

    /// Eight lanes from `p`: all of them, or with `TAIL` those `m` selects
    /// (the others read as `+0.0`, their memory untouched).
    ///
    /// # Safety
    ///
    /// `p` must be valid for reading the lanes read.
    #[inline(always)]
    unsafe fn load<const TAIL: bool>(p: *const f32, m: __m256i) -> __m256 {
        if TAIL {
            _mm256_maskload_ps(p, m)
        } else {
            _mm256_loadu_ps(p)
        }
    }

    /// Store eight lanes to `p`, or with `TAIL` only those `m` selects.
    ///
    /// # Safety
    ///
    /// `p` must be valid for writing the lanes written.
    #[inline(always)]
    unsafe fn store<const TAIL: bool>(p: *mut f32, m: __m256i, v: __m256) {
        if TAIL {
            _mm256_maskstore_ps(p, m, v)
        } else {
            _mm256_storeu_ps(p, v)
        }
    }

    /// `acc + x·b`, or `acc` itself in the lanes where `x` is an exact
    /// zero: there the product, whatever it is (NaN for `0 · inf`), is
    /// masked to `+0.0` before the add, and `acc + 0.0` is `acc` bit for
    /// bit, because an accumulator is never `-0.0` — it starts at `+0.0`,
    /// and a round-to-nearest sum is `-0.0` only when both addends are —
    /// nor a signalling NaN, which the add would quiet: it only ever holds
    /// `+0.0` and sums.
    /// (A `vblendvps` keeping the old accumulator gives the same bits, but
    /// made the `kernels` bench's 5 %-zero `gemm/` cases take 1.5–1.6× as
    /// long as this mask.)
    #[inline(always)]
    fn add_nonzero(acc: __m256, x: __m256, b: __m256) -> __m256 {
        // SAFETY: AVX2 is enabled for the whole build, as this module's
        // `cfg` requires.
        unsafe {
            let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(x, _mm256_setzero_ps());
            _mm256_add_ps(acc, _mm256_and_ps(_mm256_mul_ps(x, b), keep))
        }
    }

    /// `R` rows of `V` accumulator vectors at `out` (row stride `n`):
    /// `+0.0` on the chunk's first pass, `out`'s running sums after it.
    ///
    /// # Safety
    ///
    /// Each row's lanes must be valid for [`load`]; [`store_acc`] the same.
    #[inline(always)]
    unsafe fn load_acc<const R: usize, const V: usize, const TAIL: bool>(
        out: *const f32,
        n: usize,
        first: bool,
        m: [__m256i; V],
    ) -> [[__m256; V]; R] {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        if !first {
            for r in 0..R {
                for v in 0..V {
                    acc[r][v] = load::<TAIL>(out.add(r * n).wrapping_add(8 * v), m[v]);
                }
            }
        }
        acc
    }

    #[inline(always)]
    unsafe fn store_acc<const R: usize, const V: usize, const TAIL: bool>(
        out: *mut f32,
        n: usize,
        m: [__m256i; V],
        acc: [[__m256; V]; R],
    ) {
        for r in 0..R {
            for v in 0..V {
                store::<TAIL>(out.add(r * n).wrapping_add(8 * v), m[v], acc[r][v]);
            }
        }
    }

    /// `out[r][j..j + 8V] (+)= Σ_p x(r, p) · b[p][j..j + 8V]` over the
    /// chunk, `x(r, p)` at `x[r] + p · step`: the shared-load tile, where
    /// one `b` load feeds all `R` rows. With `ZEROS` every step masks the
    /// products of zeros ([`add_nonzero`]); without, the caller has counted
    /// none. The unmasked form pays for itself: forcing the mask on every
    /// zero-free group makes the `kernels` bench's dense `gemm/` cases take
    /// 1.4–1.8× as long. With `TAIL` only the lanes `m` selects exist.
    ///
    /// # Safety
    ///
    /// `x[r] + p · step` must be readable for every `r < R` and
    /// `p < ch.len`, `ch` must describe rows of `b`, and `out` must be `R`
    /// rows of `ch.n` values (stride `ch.n`); both with the columns the
    /// tile covers.
    #[inline(always)]
    unsafe fn dense_tile<const R: usize, const V: usize, const ZEROS: bool, const TAIL: bool>(
        x: [*const f32; R],
        step: usize,
        ch: &Chunk,
        j: usize,
        out: *mut f32,
        m: [__m256i; V],
    ) {
        let (n, out) = (ch.n, out.add(j));
        let mut acc = load_acc::<R, V, TAIL>(out, n, ch.first(), m);
        for p in 0..ch.len {
            let b = ch.b.add(p * ch.n + j);
            let mut bv = [_mm256_setzero_ps(); V];
            for v in 0..V {
                bv[v] = load::<TAIL>(b.wrapping_add(8 * v), m[v]);
            }
            for r in 0..R {
                let xv = _mm256_broadcast_ss(&*x[r].add(p * step));
                for v in 0..V {
                    acc[r][v] = if ZEROS {
                        add_nonzero(acc[r][v], xv, bv[v])
                    } else {
                        _mm256_add_ps(acc[r][v], _mm256_mul_ps(xv, bv[v]))
                    };
                }
            }
        }
        store_acc::<R, V, TAIL>(out, n, m, acc);
    }

    /// `R` output rows at `out` over one chunk, every column, through
    /// [`dense_tile`] 16 columns at a time; the last `n % 16` through lane
    /// masks, in one vector where they fit one.
    ///
    /// # Safety
    ///
    /// As for [`dense_tile`], over all `ch.n` columns.
    #[inline(never)]
    unsafe fn tile_group<const R: usize, const ZEROS: bool>(
        x: [*const f32; R],
        step: usize,
        ch: &Chunk,
        out: *mut f32,
    ) {
        let mut j = 0;
        while j + MM_JT <= ch.n {
            dense_tile::<R, 2, ZEROS, false>(x, step, ch, j, out, [_mm256_setzero_si256(); 2]);
            j += MM_JT;
        }
        match ch.n - j {
            0 => {}
            w @ 1..=8 => dense_tile::<R, 1, ZEROS, true>(x, step, ch, j, out, tail_mask(w)),
            w => dense_tile::<R, 2, ZEROS, true>(x, step, ch, j, out, tail_mask(w)),
        }
    }

    /// `acc += x · b[p][..]` over `V` vectors, `x` broadcast from memory.
    ///
    /// # Safety
    ///
    /// `x` must be readable and `b` valid for [`load`] of each vector.
    #[inline(always)]
    unsafe fn axpy<const V: usize, const TAIL: bool>(
        acc: &mut [__m256; V],
        x: *const f32,
        b: *const f32,
        m: [__m256i; V],
    ) {
        let xv = _mm256_broadcast_ss(&*x);
        for v in 0..V {
            let bv = load::<TAIL>(b.wrapping_add(8 * v), m[v]);
            acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(xv, bv));
        }
    }

    /// `out[r][j..j + 8V] (+)= x[r][p] · b[p][j..j + 8V]` for the listed
    /// positions `p` of `pos[r]` only, in list (ascending) order. The `R`
    /// rows advance in lockstep over their common length, so `R`
    /// independent accumulator chains hide the add latency; each row then
    /// finishes its own list.
    ///
    /// # Safety
    ///
    /// As for [`dense_tile`], with `x[r] + p` readable at every listed `p`,
    /// all of which are below `ch.len`.
    #[inline(always)]
    unsafe fn sparse_tile<const R: usize, const V: usize, const TAIL: bool>(
        x: [*const f32; R],
        pos: [&[u8]; R],
        ch: &Chunk,
        j: usize,
        out: *mut f32,
        m: [__m256i; V],
    ) {
        let (n, b, out) = (ch.n, ch.b.add(j), out.add(j));
        let mut acc = load_acc::<R, V, TAIL>(out, n, ch.first(), m);
        let common = pos.iter().map(|l| l.len()).min().unwrap_or(0);
        let (heads, rests): ([&[u8]; R], [&[u8]; R]) =
            (pos.map(|l| &l[..common]), pos.map(|l| &l[common..]));
        for q in 0..common {
            for r in 0..R {
                let p = usize::from(heads[r][q]);
                axpy::<V, TAIL>(&mut acc[r], x[r].add(p), b.add(p * n), m);
            }
        }
        for r in 0..R {
            for &p in rests[r] {
                let p = usize::from(p);
                axpy::<V, TAIL>(&mut acc[r], x[r].add(p), b.add(p * n), m);
            }
        }
        store_acc::<R, V, TAIL>(out, n, m, acc);
    }

    /// `R` output rows at `out` over one chunk that skip zeros: each row's
    /// nonzero positions are compacted once, then every column tile
    /// multiplies only those — one row at a time in [`WIDE`] tiles where
    /// the output is that wide, the remaining columns in `R`-row 16-wide
    /// tiles and a masked tail, as in [`tile_group`].
    ///
    /// # Safety
    ///
    /// `vals` must hold `ch.len` values each; `ch` and `out` as for
    /// [`tile_group`].
    #[inline(never)]
    unsafe fn sparse_group<const R: usize>(vals: [&[f32]; R], ch: &Chunk, out: *mut f32) {
        let mut pos = [[0u8; NZ_CAP]; R];
        let cnt: [usize; R] = std::array::from_fn(|r| nonzero_positions(vals[r], &mut pos[r]));
        let lists: [&[u8]; R] = std::array::from_fn(|r| &pos[r][..cnt[r]]);
        let x = vals.map(<[f32]>::as_ptr);
        let n = ch.n;
        let wide_end = n - n % WIDE;
        for r in 0..R {
            for j in (0..wide_end).step_by(WIDE) {
                let none = [_mm256_setzero_si256(); 8];
                sparse_tile::<1, 8, false>([x[r]], [lists[r]], ch, j, out.add(r * n), none);
            }
        }
        let mut j = wide_end;
        while j + MM_JT <= n {
            sparse_tile::<R, 2, false>(x, lists, ch, j, out, [_mm256_setzero_si256(); 2]);
            j += MM_JT;
        }
        match n - j {
            0 => {}
            w @ 1..=8 => sparse_tile::<R, 1, true>(x, lists, ch, j, out, tail_mask(w)),
            w => sparse_tile::<R, 2, true>(x, lists, ch, j, out, tail_mask(w)),
        }
    }

    /// `R` output rows at `out` over one chunk, their left values `vals[r]`
    /// given contiguously: [`sparse_group`] if [`compacts`] says so, else
    /// [`tile_group`], with the zero mask only if a value is zero.
    ///
    /// # Safety
    ///
    /// As for [`sparse_group`].
    #[inline(always)]
    unsafe fn group<const R: usize>(vals: [&[f32]; R], ch: &Chunk, out: *mut f32) {
        let zeros = vals.iter().map(|v| zero_count(v)).sum();
        if compacts(zeros, R * ch.len) {
            sparse_group(vals, ch, out);
        } else if zeros > 0 {
            tile_group::<R, true>(vals.map(<[f32]>::as_ptr), 1, ch, out);
        } else {
            tile_group::<R, false>(vals.map(<[f32]>::as_ptr), 1, ch, out);
        }
    }

    /// [`super::gemm_nn`] for `k ≥ 2`.
    pub(super) fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n), "gemm_nn operands");
        if n == 1 {
            // SAFETY: `a` is `m × k`, `b` `k × 1` and `out` `m × 1` (checked
            // above), so `x(i, p) = a[i·k + p]`, `b[p]` and `out[i]` are in
            // bounds for `i < m`, `p < k`.
            return unsafe { column::<true>(m, k, a.as_ptr(), k, 1, b.as_ptr(), out.as_mut_ptr()) };
        }
        for_each_chunk(k, b, n, |ch| {
            let row = |i: usize| &a[i * k + ch.p0..][..ch.len];
            let out = out.as_mut_ptr();
            // SAFETY: `out` is `m × n` and `ch` holds `ch.len` whole rows of
            // the `k × n` `b` (checked above), so each group's output rows
            // `i..i + R` are in bounds; its left values are slices of `a`.
            unsafe {
                let mut i = 0;
                while i + 4 <= m {
                    group::<4>(std::array::from_fn(|r| row(i + r)), ch, out.add(i * n));
                    i += 4;
                }
                for i in i..m {
                    group::<1>([row(i)], ch, out.add(i * n));
                }
            }
        });
    }

    /// [`super::gemm_tn`] for `m ≥ 2`.
    ///
    /// The contraction runs in [`CHUNK`]s of `a`/`b` rows, so the tall
    /// operands stream from cache once per chunk sweep instead of once per
    /// output tile. Output rows (columns of `a`) go in groups of four. A
    /// chunk of `a` with too few zeros to compact runs every group through
    /// [`tile_group`], reading `a` in place. Otherwise each group's columns
    /// are copied out contiguously and take [`group`]'s choice between the
    /// shared-load and the compacted tiles.
    pub(super) fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!((a.len(), b.len(), out.len()), (m * k, m * n, k * n), "gemm_tn operands");
        if n == 1 {
            // SAFETY: `a` is `m × k`, `b` `m × 1` and `out` `k × 1` (checked
            // above), so `x(i, p) = a[p·k + i]`, `b[p]` and `out[i]` are in
            // bounds for `i < k`, `p < m`.
            return unsafe {
                column::<false>(k, m, a.as_ptr(), 1, k, b.as_ptr(), out.as_mut_ptr())
            };
        }
        for_each_chunk(m, b, n, |ch| {
            let a_ch = &a[ch.p0 * k..(ch.p0 + ch.len) * k];
            let zeros = zero_count(a_ch);
            let mut cols = None;
            let out = out.as_mut_ptr();
            // SAFETY: `out` is `k × n` and `ch` holds `ch.len` whole rows of
            // the `m × n` `b` (checked above), so each group's output rows
            // `i..i + R` are in bounds, and `a_ch` holds the chunk's
            // `ch.len` rows of `a` with `i + R ≤ k`.
            unsafe {
                let mut i = 0;
                while i + 4 <= k {
                    tn_group::<4>(ch, zeros, a_ch, k, i, &mut cols, out.add(i * n));
                    i += 4;
                }
                for i in i..k {
                    tn_group::<1>(ch, zeros, a_ch, k, i, &mut cols, out.add(i * n));
                }
            }
        });
    }

    /// Output rows `i..i + R` of [`gemm_tn`] over one chunk, whose rows of
    /// `a` are `a_ch` (row stride `k`) and hold `zeros` exact zeros in all.
    /// Too few to compact anywhere: the group runs [`tile_group`] reading
    /// `a` in place. Otherwise its columns are copied into `cols` for
    /// [`group`] to size up; the buffer is zeroed on first use in the
    /// chunk.
    ///
    /// Reading in place pays for itself: copying the columns out for every
    /// group made the `kernels` bench's dense `gemm/tn` cases take
    /// 1.13–2.0× as long, since the copy is a strided load and store per
    /// entry of `a` against `n` multiply-adds.
    ///
    /// # Safety
    ///
    /// `a_ch` must hold `ch.len` rows of `k` values and `i + R ≤ k`; `ch`
    /// and `out` as for [`tile_group`].
    #[inline(always)]
    unsafe fn tn_group<const R: usize>(
        ch: &Chunk,
        zeros: usize,
        a_ch: &[f32],
        k: usize,
        i: usize,
        cols: &mut Option<[[f32; CHUNK]; 4]>,
        out: *mut f32,
    ) {
        if !compacts(zeros, a_ch.len()) {
            let x = std::array::from_fn(|r| a_ch[i + r..].as_ptr());
            return if zeros > 0 {
                tile_group::<R, true>(x, k, ch, out)
            } else {
                tile_group::<R, false>(x, k, ch, out)
            };
        }
        let cols = cols.get_or_insert([[0.0f32; CHUNK]; 4]);
        for (p, row) in a_ch.chunks_exact(k).enumerate() {
            for (r, &v) in row[i..i + R].iter().enumerate() {
                cols[r][p] = v;
            }
        }
        group::<R>(std::array::from_fn(|r| &cols[r][..ch.len]), ch, out);
    }

    /// A one-column product, `out[i] = Σ_p x(i, p) · b[p]` over `i < rows`
    /// and `p < len` ascending, `x(i, p)` at `a + i · lane + p · step`:
    /// output rows sit in vector lanes, 32 at a time (then 8, then a
    /// masked rest), each lane masking its own zeros ([`add_nonzero`]).
    /// With `GATHER` (`a @ b`, lanes `k` apart) the lanes are gathered;
    /// without (`aᵀ @ b`, lanes adjacent) they load as one vector.
    ///
    /// # Safety
    ///
    /// `x(i, p)` must be readable for every `i < rows` and `p < len`, `b`
    /// must hold `len` values and `out` `rows`.
    unsafe fn column<const GATHER: bool>(
        rows: usize,
        len: usize,
        a: *const f32,
        lane: usize,
        step: usize,
        b: *const f32,
        out: *mut f32,
    ) {
        assert!(lane <= i32::MAX as usize / 8, "gather offsets overflow");
        let all = _mm256_set1_epi32(-1);
        let mut i = 0;
        while i + 32 <= rows {
            column_block::<4, GATHER, false>(a.add(i * lane), lane, step, len, b, out.add(i), all);
            i += 32;
        }
        while i + 8 <= rows {
            column_block::<1, GATHER, false>(a.add(i * lane), lane, step, len, b, out.add(i), all);
            i += 8;
        }
        if i < rows {
            let m = _mm256_cmpgt_epi32(
                _mm256_set1_epi32((rows - i) as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            column_block::<1, GATHER, true>(a.add(i * lane), lane, step, len, b, out.add(i), m);
        }
    }

    /// `V` vectors of [`column`]'s output rows from `out`; with `TAIL`
    /// (and `V = 1`) only the lanes `m` selects exist.
    ///
    /// # Safety
    ///
    /// As for [`column`], over the block's rows.
    #[inline(always)]
    unsafe fn column_block<const V: usize, const GATHER: bool, const TAIL: bool>(
        a: *const f32,
        lane: usize,
        step: usize,
        len: usize,
        b: *const f32,
        out: *mut f32,
        m: __m256i,
    ) {
        let idx = _mm256_mullo_epi32(
            _mm256_set1_epi32(lane as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut acc = [_mm256_setzero_ps(); V];
        for p in 0..len {
            let bv = _mm256_broadcast_ss(&*b.add(p));
            for v in 0..V {
                let x = a.add(8 * v * lane + p * step);
                let xv = match (GATHER, TAIL) {
                    (false, _) => load::<TAIL>(x, m),
                    (true, false) => _mm256_i32gather_ps::<4>(x, idx),
                    (true, true) => _mm256_mask_i32gather_ps::<4>(
                        _mm256_setzero_ps(),
                        x,
                        idx,
                        _mm256_castsi256_ps(m),
                    ),
                };
                acc[v] = add_nonzero(acc[v], xv, bv);
            }
        }
        for v in 0..V {
            store::<TAIL>(out.add(8 * v), m, acc[v]);
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor({} x {}) [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_fn(2, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(3, 1), a.get(1, 3));
    }

    #[test]
    fn concat_and_gather() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 1, vec![5.0, 6.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        let d = a.concat_rows(&Tensor::from_vec(1, 2, vec![9.0, 9.0]));
        assert_eq!(d.shape(), (3, 2));
        assert_eq!(d.row(2), &[9.0, 9.0]);
        let g = a.gather_rows(&[1, 1, 0]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.row(0), &[3.0, 4.0]);
        assert_eq!(g.row(2), &[1.0, 2.0]);
    }

    /// The scalar reference loop on tensors: the order contract every
    /// Strict kernel must reproduce bit for bit.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        gemm_reference(a.rows(), a.cols(), a.data(), (a.cols(), 1), b.data(), out.data_mut());
        out
    }

    fn mixed_tensor(rows: usize, cols: usize, salt: u32) -> Tensor {
        // Deterministic mix of positives, negatives, exact and signed zeros.
        Tensor::from_fn(rows, cols, |r, c| {
            let h = (r as u32)
                .wrapping_mul(2654435761)
                .wrapping_add((c as u32).wrapping_mul(40503))
                .wrapping_add(salt);
            match h % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => ((h % 1000) as f32 - 500.0) * 1.7e-3,
            }
        })
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_reference() {
        // Shapes straddling the 4-row block boundary, plus tiny remainders.
        for (m, k, n, salt) in
            [(1, 1, 1, 1), (3, 5, 2, 2), (4, 8, 8, 3), (7, 16, 5, 4), (13, 64, 64, 5), (8, 3, 1, 6)]
        {
            let a = mixed_tensor(m, k, salt);
            let b = mixed_tensor(k, n, salt.wrapping_mul(31));
            let expected = matmul_reference(&a, &b);
            let mut got = Tensor::zeros(m, n);
            a.matmul_into(&b, &mut got);
            assert_eq!(
                got.to_bits_vec(),
                expected.to_bits_vec(),
                "bit drift at shape ({m},{k})@({k},{n})"
            );
        }
    }

    /// The zero densities the kernel tests sweep, in percent: dense, few
    /// enough zeros that no group compacts (the tiles' zero mask), and the
    /// 30–95 % exact-zero share of ReLU activations and their gradients.
    const ZERO_PCTS: [u32; 5] = [0, 5, 30, 60, 95];

    /// A left operand with exact zeros (±0.0, sign by hash) at about
    /// `pct` percent of its entries. A third of the rows and a third of
    /// the columns are left dense, so 4-row groups (`matmul_into`) and
    /// 4-column groups (`matmul_tn_into`) mix dense and sparse members.
    fn zeroed_tensor(rows: usize, cols: usize, pct: u32, salt: u32) -> Tensor {
        let hash = |x: u32| x.wrapping_mul(2654435761).wrapping_add(salt).rotate_left(13);
        Tensor::from_fn(rows, cols, |r, c| {
            let h = hash(r as u32 ^ hash(c as u32 ^ 0x5bd1));
            let dense = hash(r as u32).is_multiple_of(3) || hash(!(c as u32)).is_multiple_of(3);
            if !dense && (h >> 7) % 100 < pct {
                if h & 1 == 0 {
                    0.0
                } else {
                    -0.0
                }
            } else {
                ((h % 997) as f32 + 1.0) * if h & 2 == 0 { 1.3e-3 } else { -1.1e-3 }
            }
        })
    }

    /// Zero every entry of `a` along contraction index `p` for every `p` of
    /// `poisoned`, and fill `b`'s row `p` with ±inf and NaN. Under the
    /// skip-zeros contract those rows never reach an output; a kernel that
    /// multiplies `0 · inf` or `0 · NaN` instead of skipping writes a NaN.
    /// `a` is the plain left operand (`transposed == false`: contraction
    /// over its columns) or the `matmul_tn_into` left operand (contraction
    /// over its rows).
    fn poison(a: &mut Tensor, b: &mut Tensor, transposed: bool, poisoned: &[usize]) {
        for &p in poisoned {
            if transposed {
                a.row_mut(p).fill(-0.0);
            } else {
                for i in 0..a.rows() {
                    a.set(i, p, 0.0);
                }
            }
            for (j, v) in b.row_mut(p).iter_mut().enumerate() {
                *v = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][j % 3];
            }
        }
    }

    /// Both Strict kernels against the scalar reference at one shape and
    /// zero density. Every fourth salt runs `matmul_tn_into` over more
    /// rows than its 256-row chunk, every eighth runs `matmul_into` over a
    /// contraction longer than 256; odd salts poison the contraction
    /// indices `p ≡ salt (mod 5)`.
    fn check_strict_kernels(m: usize, k: usize, n: usize, pct: u32, salt: u32) {
        let poisoned = |len: usize| -> Vec<usize> {
            if salt % 2 == 1 {
                (0..len).filter(|p| p % 5 == salt as usize % 5).collect()
            } else {
                Vec::new()
            }
        };
        let k_nn = if salt % 8 == 4 { k + 270 } else { k };
        let mut a = zeroed_tensor(m, k_nn, pct, salt);
        let mut b = zeroed_tensor(k_nn, n, 0, salt ^ 0x9e37);
        poison(&mut a, &mut b, false, &poisoned(k_nn));
        let mut got = Tensor::full(m, n, f32::NAN);
        a.matmul_into(&b, &mut got);
        let want = matmul_reference(&a, &b);
        assert!(want.all_finite());
        assert_eq!(
            got.to_bits_vec(),
            want.to_bits_vec(),
            "NN ({m},{k_nn})@({k_nn},{n}) at {pct}% zeros"
        );

        let rows = if salt.is_multiple_of(4) { 300 + m } else { m };
        let mut a = zeroed_tensor(rows, k, pct, salt ^ 7);
        let mut b = zeroed_tensor(rows, n, 0, salt ^ 11);
        poison(&mut a, &mut b, true, &poisoned(rows));
        let mut got = Tensor::full(k, n, f32::NAN);
        a.matmul_tn_into(&b, &mut got);
        let want = matmul_reference(&a.transpose(), &b);
        assert!(want.all_finite());
        assert_eq!(
            got.to_bits_vec(),
            want.to_bits_vec(),
            "TN ({rows},{k})^T@({rows},{n}) at {pct}% zeros"
        );
    }

    /// Every output width 1..=140 — one to eight whole 16-wide tiles, the
    /// 32- and 64-wide boundaries and every padded tail — at every zero
    /// density, with row counts straddling the 4-row group.
    #[test]
    fn strict_kernels_match_reference_at_widths_1_to_140() {
        for n in 1..=140 {
            for (d, &pct) in ZERO_PCTS.iter().enumerate() {
                let salt = (n * 4 + d) as u32;
                check_strict_kernels(9, 1 + (n * 7 + d) % 37, n, pct, salt);
            }
        }
    }

    /// One-column products (output rows in vector lanes: 32, 8 and a
    /// masked rest at a time) over row counts 1..=80, and one-term
    /// contractions, at every zero density. A one-term `b` also holds
    /// zeros: a negative `x` opposite one makes a `-0.0` product, which
    /// the reference's `+0.0 +` turns into `+0.0`.
    #[test]
    fn strict_kernels_match_reference_on_one_column_and_one_term() {
        for m in 1..=80 {
            for (d, &pct) in ZERO_PCTS.iter().enumerate() {
                let salt = (m * 8 + d) as u32;
                check_strict_kernels(m, 1 + m % 70, 1, pct, salt);
                check_strict_kernels(m, 1, 1 + m % 40, pct, salt);
                let a = zeroed_tensor(m, 1, pct, salt);
                let b = zeroed_tensor(1, 1 + m % 40, 50, salt ^ 3);
                let want = matmul_reference(&a, &b).to_bits_vec();
                assert_eq!(a.matmul(&b).to_bits_vec(), want, "NN ({m},1)@(1,{})", b.cols());
                let mut got = Tensor::full(m, b.cols(), f32::NAN);
                a.transpose().matmul_tn_into(&b, &mut got);
                assert_eq!(got.to_bits_vec(), want, "TN (1,{m})^T@(1,{})", b.cols());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random shapes — widths 1..=140, row counts around the 4-row
        /// group, contraction lengths past a 64-wide row — at every zero
        /// density, with `p` runs longer than `matmul_tn_into`'s 256-row
        /// chunk and ±inf / NaN opposite zeros: both Strict kernels stay
        /// bit-identical to the scalar reference loop.
        #[test]
        fn strict_kernels_match_reference_at_every_width(
            (m, k, n, salt, d) in (1usize..=13, 1usize..=70, 1usize..=140, 0u32..1000, 0usize..5)
        ) {
            check_strict_kernels(m, k, n, ZERO_PCTS[d], salt);
        }
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(2, 2, vec![1.0, -2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.max(), 4.0);
        assert!((a.norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }
}
