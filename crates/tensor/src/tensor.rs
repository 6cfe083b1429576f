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

    /// Matrix product `self @ other`. Naive ikj loop; fast enough for the
    /// small graphs (≲ a few thousand nodes) this workspace trains on.
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
    /// reproduces bit-for-bit.
    ///
    /// The kernel processes four output rows per pass so each `b` row load
    /// is shared, and accumulates each 4×16 output tile in registers (the
    /// column tile of `MM_JT`) so partial sums never round-trip through
    /// memory — but every output element still receives exactly the per-row
    /// sequence of `+= a * b` operations above: tiling changes which
    /// elements are in flight, never the order of any single element's
    /// accumulation. Columns past the last whole tile (all of them when
    /// `other` is narrower than `MM_JT`, like DiffPool's assignment
    /// GEMM) run through the same register tile over a zero-padded copy of
    /// `other`'s tail columns; the padding lanes are discarded.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: ({}, {}) @ ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul output shape");
        let n = other.cols;
        let k_dim = self.cols;
        let j_tail = n - n % MM_JT;
        let tail = if j_tail < n && self.rows >= 4 {
            padded_tail(other, 0..k_dim, j_tail)
        } else {
            Vec::new()
        };
        let mut i = 0;
        while i + 4 <= self.rows {
            let a = [self.row(i), self.row(i + 1), self.row(i + 2), self.row(i + 3)];
            let (o0, rest) = out.data[i * n..(i + 4) * n].split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            let mut j = 0;
            while j < j_tail {
                let c = strict_tile(a, k_dim, |p| &other.row(p)[j..j + MM_JT]);
                o0[j..j + MM_JT].copy_from_slice(&c[0]);
                o1[j..j + MM_JT].copy_from_slice(&c[1]);
                o2[j..j + MM_JT].copy_from_slice(&c[2]);
                o3[j..j + MM_JT].copy_from_slice(&c[3]);
                j += MM_JT;
            }
            if j < n {
                let w = n - j;
                let c = strict_tile(a, k_dim, |p| &tail[p * MM_JT..(p + 1) * MM_JT]);
                o0[j..].copy_from_slice(&c[0][..w]);
                o1[j..].copy_from_slice(&c[1][..w]);
                o2[j..].copy_from_slice(&c[2][..w]);
                o3[j..].copy_from_slice(&c[3][..w]);
            }
            i += 4;
        }
        for r in i..self.rows {
            let a_row = self.row(r);
            let out_row = out.row_mut(r);
            out_row.fill(0.0);
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(p);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
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
    /// strided copy per step.
    /// Like [`Tensor::matmul_into`], 4×16 output tiles accumulate in
    /// registers, narrow column tails included. The `p` dimension is
    /// additionally processed in L1-sized chunks: each chunk reloads the
    /// running tile from `out`, extends the accumulation, and spills back —
    /// so the tall operands stream from cache once per chunk sweep instead
    /// of once per output tile, while every output element still sees the
    /// exact scalar sequence (`+= a * b` with `p` ascending, zeros of `self`
    /// skipped).
    #[allow(clippy::needless_range_loop)] // r indexes both a_row and out rows
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}, {})^T @ ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul_tn output shape");
        let (m, k) = (self.rows, self.cols);
        let n = other.cols;
        out.data.fill(0.0);
        // ~`TN_PB * (k + n) * 4` bytes of operand rows per chunk; 256 rows
        // at the typical k = n = 64 is 128 KiB — L2-resident, streamed once.
        const TN_PB: usize = 256;
        let j_tail = n - n % MM_JT;
        let mut tail = Vec::new();
        let mut p0 = 0;
        while p0 < m {
            let p1 = (p0 + TN_PB).min(m);
            if j_tail < n && k >= 4 {
                tail = padded_tail(other, p0..p1, j_tail);
            }
            let mut i = 0;
            while i + 4 <= k {
                let mut j = 0;
                while j + MM_JT <= n {
                    let mut c0 = [0.0f32; MM_JT];
                    let mut c1 = [0.0f32; MM_JT];
                    let mut c2 = [0.0f32; MM_JT];
                    let mut c3 = [0.0f32; MM_JT];
                    c0.copy_from_slice(&out.row(i)[j..j + MM_JT]);
                    c1.copy_from_slice(&out.row(i + 1)[j..j + MM_JT]);
                    c2.copy_from_slice(&out.row(i + 2)[j..j + MM_JT]);
                    c3.copy_from_slice(&out.row(i + 3)[j..j + MM_JT]);
                    for p in p0..p1 {
                        let a_row = self.row(p);
                        let b = &other.row(p)[j..j + MM_JT];
                        tile_axpy_nonzero(&mut c0, a_row[i], b);
                        tile_axpy_nonzero(&mut c1, a_row[i + 1], b);
                        tile_axpy_nonzero(&mut c2, a_row[i + 2], b);
                        tile_axpy_nonzero(&mut c3, a_row[i + 3], b);
                    }
                    out.row_mut(i)[j..j + MM_JT].copy_from_slice(&c0);
                    out.row_mut(i + 1)[j..j + MM_JT].copy_from_slice(&c1);
                    out.row_mut(i + 2)[j..j + MM_JT].copy_from_slice(&c2);
                    out.row_mut(i + 3)[j..j + MM_JT].copy_from_slice(&c3);
                    j += MM_JT;
                }
                if j < n {
                    let w = n - j;
                    let mut c = [[0.0f32; MM_JT]; 4];
                    for (r, c) in c.iter_mut().enumerate() {
                        c[..w].copy_from_slice(&out.row(i + r)[j..]);
                    }
                    for p in p0..p1 {
                        let a_row = self.row(p);
                        let b = &tail[(p - p0) * MM_JT..(p - p0 + 1) * MM_JT];
                        for (r, c) in c.iter_mut().enumerate() {
                            tile_axpy_nonzero(c, a_row[i + r], b);
                        }
                    }
                    for (r, c) in c.iter().enumerate() {
                        out.row_mut(i + r)[j..].copy_from_slice(&c[..w]);
                    }
                }
                i += 4;
            }
            if i < k {
                for p in p0..p1 {
                    let a_row = self.row(p);
                    for r in i..k {
                        axpy_nonzero(out.row_mut(r), a_row[r], other.row(p));
                    }
                }
            }
            p0 = p1;
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
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

/// `out += x * b` elementwise, skipped entirely when `x` is an exact zero —
/// the strict kernel's per-row zero-skip, factored for the blocked path.
#[inline]
fn axpy_nonzero(out: &mut [f32], x: f32, b: &[f32]) {
    if x == 0.0 {
        return;
    }
    for (o, &bv) in out.iter_mut().zip(b.iter()) {
        *o += x * bv;
    }
}

/// Rows `rows` of `b`'s columns `j..` (fewer than [`MM_JT`] of them), each
/// zero-padded to a whole register tile: the `b` operand of a narrow-tail
/// tile, packed so the tile loop reads whole vectors.
fn padded_tail(b: &Tensor, rows: std::ops::Range<usize>, j: usize) -> Vec<f32> {
    let w = b.cols - j;
    debug_assert!(w > 0 && w < MM_JT);
    let mut tail = vec![0.0f32; rows.len() * MM_JT];
    for (dst, p) in tail.chunks_exact_mut(MM_JT).zip(rows) {
        dst[..w].copy_from_slice(&b.row(p)[j..]);
    }
    tail
}

/// One Strict 4×[`MM_JT`] register tile: `c[r][t] += a[r][p] * b(p)[t]`
/// with `p` ascending from zero-initialised accumulators, zeros of `a`
/// skipped per row — exactly the scalar loop's per-element sequence.
#[inline(always)]
fn strict_tile<'b>(
    a: [&[f32]; 4],
    k_dim: usize,
    b: impl Fn(usize) -> &'b [f32],
) -> [[f32; MM_JT]; 4] {
    let [a0, a1, a2, a3] = a;
    let [mut c0, mut c1, mut c2, mut c3] = [[0.0f32; MM_JT]; 4];
    for p in 0..k_dim {
        let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
        if x0 == 0.0 && x1 == 0.0 && x2 == 0.0 && x3 == 0.0 {
            continue;
        }
        let b = &b(p)[..MM_JT];
        if x0 != 0.0 && x1 != 0.0 && x2 != 0.0 && x3 != 0.0 {
            for t in 0..MM_JT {
                c0[t] += x0 * b[t];
                c1[t] += x1 * b[t];
                c2[t] += x2 * b[t];
                c3[t] += x3 * b[t];
            }
        } else {
            // Per-row zero skips, exactly as the scalar loop decides.
            tile_axpy_nonzero(&mut c0, x0, b);
            tile_axpy_nonzero(&mut c1, x1, b);
            tile_axpy_nonzero(&mut c2, x2, b);
            tile_axpy_nonzero(&mut c3, x3, b);
        }
    }
    [c0, c1, c2, c3]
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

    /// The unblocked scalar reference loop: the order contract that
    /// `matmul_into`'s 4-row-blocked kernel must reproduce bit-for-bit.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for p in 0..a.cols() {
                let x = a.get(i, p);
                if x == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out.set(i, j, out.get(i, j) + x * b.get(p, j));
                }
            }
        }
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Every output width 1..=40 (whole 16-wide tiles, narrow tails and
        /// both), row counts around the 4-row block, and `p` runs longer
        /// than `matmul_tn_into`'s 256-row chunk: both Strict kernels stay
        /// bit-identical to the scalar reference loop.
        #[test]
        fn strict_kernels_match_reference_at_every_width(
            (m, k, n, salt) in (1usize..=13, 1usize..=70, 1usize..=40, 0u32..1000)
        ) {
            let a = mixed_tensor(m, k, salt);
            let b = mixed_tensor(k, n, salt.wrapping_mul(31));
            let mut got = Tensor::zeros(m, n);
            a.matmul_into(&b, &mut got);
            proptest::prop_assert_eq!(got.to_bits_vec(), matmul_reference(&a, &b).to_bits_vec());

            let rows = if salt % 4 == 0 { 300 + m } else { m };
            let a = mixed_tensor(rows, k, salt ^ 7);
            let b = mixed_tensor(rows, n, salt ^ 11);
            let mut got = Tensor::zeros(k, n);
            a.matmul_tn_into(&b, &mut got);
            let want = matmul_reference(&a.transpose(), &b);
            proptest::prop_assert_eq!(got.to_bits_vec(), want.to_bits_vec());
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
