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

/// Contraction indices per pass of the GEMM kernels. A chunk's nonzero
/// positions fit a `u8`, so the index scratch is a few hundred bytes on the
/// stack; the `b` rows of one chunk (`256 · n · 4` bytes, 64 KiB at
/// `n = 64`) stay cache-resident while every output group sweeps them.
const CHUNK: usize = 256;

/// Capacity of one group member's position list: a chunk plus the eight
/// lanes [`nonzero_positions`] may write past the last kept position.
const NZ_CAP: usize = CHUNK + 8;

/// Column width of the one-row tiles [`sparse_group`] runs on outputs at
/// least this wide: eight vector accumulators, so one row alone has enough
/// independent chains, and one index lookup feeds eight `b` vectors. On
/// the `kernels` bench's 60 %-zero `gemm/{nn,tn}/n64` cases they take
/// 0.65–0.72× the time of four-row 16-wide tiles over the same lists.
const WIDE: usize = 4 * MM_JT;

/// Ascending bit positions of every byte value, packed one per byte of a
/// little-endian `u64`: the left-pack table of [`nonzero_positions`].
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
/// included, ±0.0 excluded) into `pos`, ascending, and return their count.
/// Branch-free: eight entries become a byte mask, the mask selects their
/// packed positions from [`LEFT_PACK`], and all eight bytes are stored while
/// the count advances only by the kept ones — so the cost does not depend on
/// where the zeros are. `x.len()` is at most [`CHUNK`].
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

/// Number of exact zeros (±0.0) in `x`: a vectorised count, a fraction of
/// the multiply-adds of the rows it sizes up.
#[inline]
fn zero_count(x: &[f32]) -> usize {
    x.iter().map(|&v| u32::from(v == 0.0)).sum::<u32>() as usize
}

/// A group of left-operand entries goes through the compacted path when
/// more than `1 / COMPACT_ABOVE` of them are exact zeros, and through the
/// shared-load [`strict_tile`] otherwise. Measured on the `kernels`
/// bench's `gemm/` cases, run also at 3, 10, 20 and 30 % zeros with each
/// path forced in turn, the compacted path against the per-entry-branch
/// tile on the same operands takes 1.4–2.1× as long at 3 % zeros and
/// widths ≤ 32 (0.8–1.1× at 64), 0.8–1.2× at 10 % (94 and 1311 rows),
/// 0.4–0.9× at 20 % and 0.2–0.4× at 60 %. A zero-free group runs the tile
/// without its zero test.
const COMPACT_ABOVE: usize = 8;

/// Whether `zeros` exact zeros among `entries` send a group to the
/// compacted path (see [`COMPACT_ABOVE`]).
#[inline]
fn compacts(zeros: usize, entries: usize) -> bool {
    zeros * COMPACT_ABOVE > entries
}

/// Run `f(r, row)` on each row of a register tile (at most four), every
/// index a constant after inlining: a loop over `r` that the compiler
/// leaves rolled would index the tile at run time and keep it in memory.
#[inline(always)]
fn each_row<const R: usize, const W: usize>(
    acc: &mut [[f32; W]; R],
    mut f: impl FnMut(usize, &mut [f32; W]),
) {
    const { assert!(R <= 4) };
    if let Some(c) = acc.get_mut(0) {
        f(0, c);
    }
    if let Some(c) = acc.get_mut(1) {
        f(1, c);
    }
    if let Some(c) = acc.get_mut(2) {
        f(2, c);
    }
    if let Some(c) = acc.get_mut(3) {
        f(3, c);
    }
}

/// `c[r] += x[r] · b(p)` for every `p` of `0..len` with `x[r]` not an exact
/// zero: the shared-load tile, where one `b` load feeds all `R` rows. With
/// `ZEROS` it tests each entry for zero, which costs little while the
/// groups it runs hold few zeros (see [`COMPACT_ABOVE`]); without, the
/// caller has counted none. The untested form pays for itself: sending
/// every zero-free group through the tested one, whose all-nonzero arm
/// still tests the `R` entries of each `p`, makes the `kernels` bench's
/// dense `gemm/nn` cases take 1.16–1.34× as long (1.1–1.4× with the `R`
/// tests folded into one vector compare).
#[inline(always)]
fn strict_tile<'b, const R: usize, const ZEROS: bool>(
    c: &mut [[f32; MM_JT]; R],
    len: usize,
    x: impl Fn(usize) -> [f32; R],
    b: impl Fn(usize) -> &'b [f32; MM_JT],
) {
    // Accumulate in a local so the partial sums stay in registers: `c`
    // itself would have to be kept current in memory at every bounds check
    // that could unwind.
    let mut acc = *c;
    for p in 0..len {
        let (x, b) = (x(p), b(p));
        let axpy = |c: &mut [f32; MM_JT], x: f32| {
            for t in 0..MM_JT {
                c[t] += x * b[t];
            }
        };
        if !ZEROS || x.iter().all(|&v| v != 0.0) {
            each_row(&mut acc, |r, c| axpy(c, x[r]));
        } else {
            each_row(&mut acc, |r, c| {
                if x[r] != 0.0 {
                    axpy(c, x[r]);
                }
            });
        }
    }
    *c = acc;
}

/// `c[r] += vals[r][p] · b(p)` for the listed positions `p` of `pos[r]`
/// only, in list (ascending) order. The `R` rows advance in lockstep over
/// their common length, so `R` independent accumulator chains hide the add
/// latency; each row then finishes its own list.
#[allow(clippy::needless_range_loop)] // q indexes every row's list
#[inline(always)]
fn sparse_tile<'b, const R: usize, const W: usize>(
    c: &mut [[f32; W]; R],
    vals: &[&[f32]; R],
    pos: &[&[u8]; R],
    b: impl Fn(usize) -> &'b [f32; W],
) {
    let common = pos.iter().map(|l| l.len()).min().unwrap_or(0);
    let mut acc = *c; // in registers, as in `strict_tile`
    let axpy = |c: &mut [f32; W], r: usize, p: u8| {
        let p = usize::from(p);
        let (x, b) = (vals[r][p], b(p));
        for t in 0..W {
            c[t] += x * b[t];
        }
    };
    for q in 0..common {
        each_row(&mut acc, |r, c| axpy(c, r, pos[r][q]));
    }
    each_row(&mut acc, |r, c| {
        for &p in &pos[r][common..] {
            axpy(c, r, p);
        }
    });
    *c = acc;
}

/// One contraction chunk of a GEMM pass, with its `b` operand.
struct Chunk<'t> {
    /// First contraction index of the chunk (0: accumulators start at zero).
    p0: usize,
    /// Contraction indices in the chunk.
    len: usize,
    /// The whole right operand, row stride `n`.
    b: &'t [f32],
    n: usize,
    /// `b`'s padded tail columns over the chunk's rows ([`pack_tail`]).
    tail: &'t [f32],
}

impl Chunk<'_> {
    /// `b`'s `W` columns from `j` at the chunk's row `p`.
    #[inline(always)]
    fn b_tile<const W: usize>(&self, p: usize, j: usize) -> &[f32; W] {
        self.b[(self.p0 + p) * self.n + j..][..W].try_into().expect("tile width")
    }

    /// The padded tail columns at the chunk's row `p`.
    #[inline(always)]
    fn tail_tile(&self, p: usize) -> &[f32; MM_JT] {
        self.tail[p * MM_JT..][..MM_JT].try_into().expect("tile width")
    }
}

/// Run `tile(acc, j)` over the `W`-wide column tiles from `j` in `cols`
/// of the `R` output rows in `out` (row stride `n`). The accumulators
/// start at zero on the first contraction chunk and at `out`'s running
/// sums after it, and are stored back after the tile; a round trip through
/// memory is exact, so chunking never changes a bit. Only a last tile at
/// `n` can be narrower than `W`; the caller's tile reads it from
/// [`Chunk::tail_tile`].
#[inline(always)]
fn sweep_columns<const R: usize, const W: usize>(
    out: &mut [f32],
    n: usize,
    cols: std::ops::Range<usize>,
    first: bool,
    mut tile: impl FnMut(&mut [[f32; W]; R], usize),
) {
    let mut j = cols.start;
    while j < cols.end {
        let w = (cols.end - j).min(W);
        let mut c = [[0.0f32; W]; R];
        if !first {
            for (r, c) in c.iter_mut().enumerate() {
                c[..w].copy_from_slice(&out[r * n + j..][..w]);
            }
        }
        tile(&mut c, j);
        for (r, c) in c.iter().enumerate() {
            out[r * n + j..][..w].copy_from_slice(&c[..w]);
        }
        j += W;
    }
}

/// Rows `rows` of `b`'s columns past the last whole tile (fewer than
/// [`MM_JT`] of them), each zero-padded to a whole register tile, into
/// `tail`: the `b` operand of the narrow last tile, packed once per chunk
/// so the tile loop reads whole vectors. The padding lanes only ever meet
/// accumulator lanes that are discarded.
fn pack_tail(tail: &mut [f32], b: &[f32], n: usize, rows: std::ops::Range<usize>) {
    let j = n - n % MM_JT;
    for (dst, p) in tail.chunks_exact_mut(MM_JT).zip(rows) {
        dst[..n - j].copy_from_slice(&b[p * n + j..(p + 1) * n]);
    }
}

/// `R` output rows over one chunk, their left values `vals[r][p]` given
/// contiguously: [`sparse_group`] if [`compacts`] says so, else
/// [`tile_group`].
#[inline(always)]
fn group<const R: usize>(ch: &Chunk, out: &mut [f32], vals: [&[f32]; R]) {
    let zeros = vals.iter().map(|v| zero_count(v)).sum();
    if compacts(zeros, R * ch.len) {
        sparse_group(ch, out, vals);
    } else {
        tile_group::<R>(ch, out, zeros > 0, |p| std::array::from_fn(|r| vals[r][p]));
    }
}

/// `R` output rows over one chunk through the shared-load [`strict_tile`],
/// `x(p)` giving the `R` left values at `p`; the tile tests entries for
/// zero only when the group `has_zeros`.
#[inline(never)]
fn tile_group<const R: usize>(
    ch: &Chunk,
    out: &mut [f32],
    has_zeros: bool,
    x: impl Fn(usize) -> [f32; R] + Copy,
) {
    sweep_columns::<R, MM_JT>(out, ch.n, 0..ch.n, ch.p0 == 0, |c, j| {
        match (has_zeros, j + MM_JT <= ch.n) {
            (false, true) => strict_tile::<R, false>(c, ch.len, x, |p| ch.b_tile(p, j)),
            (false, false) => strict_tile::<R, false>(c, ch.len, x, |p| ch.tail_tile(p)),
            (true, true) => strict_tile::<R, true>(c, ch.len, x, |p| ch.b_tile(p, j)),
            (true, false) => strict_tile::<R, true>(c, ch.len, x, |p| ch.tail_tile(p)),
        }
    });
}

/// `R` output rows over one chunk that skip zeros: each row's nonzero
/// positions are compacted once, then every column tile multiplies only
/// those — one row at a time in [`WIDE`] tiles where the output is that
/// wide, the remaining columns in `R`-row [`MM_JT`] tiles.
#[inline(never)]
fn sparse_group<const R: usize>(ch: &Chunk, out: &mut [f32], vals: [&[f32]; R]) {
    let mut pos = [[0u8; NZ_CAP]; R];
    let cnt: [usize; R] = std::array::from_fn(|r| nonzero_positions(vals[r], &mut pos[r]));
    let lists: [&[u8]; R] = std::array::from_fn(|r| &pos[r][..cnt[r]]);
    let n = ch.n;
    let wide_end = n - n % WIDE;
    if wide_end > 0 {
        for (r, row) in out.chunks_exact_mut(n).enumerate() {
            sweep_columns::<1, WIDE>(row, n, 0..wide_end, ch.p0 == 0, |c, j| {
                sparse_tile(c, &[vals[r]], &[lists[r]], |p| ch.b_tile(p, j));
            });
        }
    }
    sweep_columns::<R, MM_JT>(out, n, wide_end..n, ch.p0 == 0, |c, j| {
        if j + MM_JT <= n {
            sparse_tile(c, &vals, &lists, |p| ch.b_tile(p, j));
        } else {
            sparse_tile(c, &vals, &lists, |p| ch.tail_tile(p));
        }
    });
}

/// The Strict product `out = a @ b` on row-major slices: `a` is `m × k`,
/// `b` is `k × n`, `out` is `m × n` and overwritten. Every output element
/// receives `+= a[i][p] · b[p][j]` with `p` ascending from zero, exact
/// zeros (±0.0) of `a` skipped — the scalar ikj loop's sequence, bit for
/// bit.
///
/// Output rows go in groups of four (then singly), over the contraction in
/// [`CHUNK`]s, in register tiles whose partial sums never touch memory
/// within a chunk. How a group skips zeros depends only on how many its
/// rows hold in the chunk ([`COMPACT_ABOVE`]):
///
/// * few or none: [`strict_tile`], where one `b` load feeds all four rows
///   and each entry is tested for zero;
/// * more: each row's nonzero positions are compacted
///   ([`nonzero_positions`]) and [`sparse_tile`] multiplies only those. A
///   data-dependent branch per entry mispredicts on ReLU outputs, which
///   carry 40–70 % zeros in no pattern; a list costs the same wherever the
///   zeros fall and does none of the skipped work.
///
/// A zero is never multiplied, not even where that would add `±0.0`:
/// `0 · inf` and `0 · NaN` are NaN, so only skipping keeps the contract for
/// every `b`. Columns past the last whole tile run the same tiles over a
/// zero-padded copy of `b`'s tail columns.
pub(crate) fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
    if k == 0 {
        out.fill(0.0);
        return;
    }
    for_each_chunk(k, b, n, |ch| {
        let row = |i: usize| &a[i * k + ch.p0..][..ch.len];
        let mut i = 0;
        while i + 4 <= m {
            group::<4>(ch, &mut out[i * n..(i + 4) * n], std::array::from_fn(|r| row(i + r)));
            i += 4;
        }
        for i in i..m {
            group::<1>(ch, &mut out[i * n..(i + 1) * n], [row(i)]);
        }
    });
}

/// Hand `pass` the contraction `0..len` in [`CHUNK`]s, each with `b`'s
/// padded tail columns over its rows packed (when `n` leaves a tail).
fn for_each_chunk(len: usize, b: &[f32], n: usize, mut pass: impl FnMut(&Chunk)) {
    let mut tail = if n.is_multiple_of(MM_JT) { None } else { Some([0.0f32; CHUNK * MM_JT]) };
    let mut p0 = 0;
    while p0 < len {
        let p1 = (p0 + CHUNK).min(len);
        if let Some(tail) = &mut tail {
            pack_tail(tail, b, n, p0..p1);
        }
        let tail = tail.as_ref().map_or(&[][..], |t| &t[..]);
        pass(&Chunk { p0, len: p1 - p0, b, n, tail });
        p0 = p1;
    }
}

/// The Strict product `out = aᵀ @ b` on row-major slices: `a` is `m × k`,
/// `b` is `m × n`, `out` is `k × n` and overwritten. Output row `i`
/// receives `+= a[p][i] · b[p][..]` with `p` ascending from zero, exact
/// zeros of `a` skipped — [`gemm_nn`]'s sequence on the transposed `a`,
/// bit for bit, without materialising the transpose.
///
/// The contraction runs in [`CHUNK`]s of `a`/`b` rows, so the tall operands
/// stream from cache once per chunk sweep instead of once per output tile.
/// Output rows (columns of `a`) go in groups of four. A chunk of `a` with
/// too few zeros to compact runs every group through [`strict_tile`],
/// reading `a` in place. Otherwise each group's columns are copied out
/// contiguously and take [`gemm_nn`]'s choice between the shared-load and
/// the compacted tiles — with the same reason never to multiply a zero.
pub(crate) fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!((a.len(), b.len(), out.len()), (m * k, m * n, k * n));
    if m == 0 {
        out.fill(0.0);
        return;
    }
    for_each_chunk(m, b, n, |ch| {
        let a_ch = &a[ch.p0 * k..(ch.p0 + ch.len) * k];
        let zeros = zero_count(a_ch);
        let mut cols = None;
        let mut i = 0;
        while i + 4 <= k {
            tn_group::<4>(ch, zeros, a_ch, k, i, &mut cols, &mut out[i * n..(i + 4) * n]);
            i += 4;
        }
        for i in i..k {
            tn_group::<1>(ch, zeros, a_ch, k, i, &mut cols, &mut out[i * n..(i + 1) * n]);
        }
    });
}

/// Output rows `i..i + R` of [`gemm_tn`] over one chunk, whose rows of `a`
/// are `a_ch` (row stride `k`) and hold `zeros` exact zeros in all. Too
/// few to compact anywhere: the group runs [`strict_tile`] reading `a` in
/// place. Otherwise its columns are copied into `cols` for [`group`] to
/// size up; the buffer is zeroed on first use in the chunk.
///
/// Reading in place pays for itself: copying the columns out for every
/// group makes the `kernels` bench's dense `gemm/tn` cases take 1.13–2.0×
/// as long, since the copy is a strided load and store per entry of `a`
/// against `n` multiply-adds.
#[inline(always)]
fn tn_group<const R: usize>(
    ch: &Chunk,
    zeros: usize,
    a_ch: &[f32],
    k: usize,
    i: usize,
    cols: &mut Option<[[f32; CHUNK]; 4]>,
    out: &mut [f32],
) {
    if !compacts(zeros, a_ch.len()) {
        let x = |p: usize| -> [f32; R] { a_ch[p * k + i..][..R].try_into().expect("group") };
        return tile_group(ch, out, zeros > 0, x);
    }
    let cols = cols.get_or_insert([[0.0f32; CHUNK]; 4]);
    for (p, row) in a_ch.chunks_exact(k).enumerate() {
        for (r, &v) in row[i..i + R].iter().enumerate() {
            cols[r][p] = v;
        }
    }
    group::<R>(ch, out, std::array::from_fn(|r| &cols[r][..ch.len]));
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

    /// The zero densities the kernel tests sweep, in percent: dense, and
    /// the 30–95 % exact-zero share of ReLU activations and their
    /// gradients.
    const ZERO_PCTS: [u32; 4] = [0, 30, 60, 95];

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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random shapes — widths 1..=140, row counts around the 4-row
        /// group, contraction lengths past a 64-wide row — at every zero
        /// density, with `p` runs longer than `matmul_tn_into`'s 256-row
        /// chunk and ±inf / NaN opposite zeros: both Strict kernels stay
        /// bit-identical to the scalar reference loop.
        #[test]
        fn strict_kernels_match_reference_at_every_width(
            (m, k, n, salt, d) in (1usize..=13, 1usize..=70, 1usize..=140, 0u32..1000, 0usize..4)
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
