//! Compressed sparse row adjacency matrices and SpMM kernels.
//!
//! The encoder hot path multiplies graph adjacencies — overwhelmingly sparse
//! (the sampled subgraphs have 11–183 nodes and 11–813 transactions) — with
//! dense feature matrices. [`Csr`] stores only the nonzero entries, and its
//! kernels are written so the result is **bit-identical** to the dense
//! [`Tensor::matmul`] path:
//!
//! * `Tensor::matmul` is an ikj loop that skips entries with `a == 0.0`
//!   (which also skips `-0.0`) and accumulates `out[i] += a * b[p]` for `p`
//!   ascending. A CSR built by [`Csr::from_dense`] keeps exactly the entries
//!   with `v != 0.0` in ascending column order, so [`Csr::matmul_dense`]
//!   performs the *same* additions in the *same* order.
//! * The backward product `Aᵀ @ g` is served by a transpose (CSC) index
//!   built at construction, whose per-column entries are ordered by ascending
//!   row — again matching `A.transpose().matmul(&g)` addition-for-addition.
//!
//! Float addition is not associative, so this ordering contract is what lets
//! the sparse path slot under the golden-trace regression test without
//! changing a single bit of the model outputs.

use crate::tensor::Tensor;

/// A sparse matrix in compressed sparse row form, with a precomputed
/// transpose index for the backward pass.
///
/// Invariants (enforced by the constructors):
/// * `row_ptr` has `rows + 1` entries, is non-decreasing, starts at 0 and
///   ends at `nnz`,
/// * column indices within each row are strictly ascending (no duplicates),
/// * every column index is `< cols`.
///
/// Stored values may include explicit zeros (e.g. from
/// [`Csr::from_triplets`]); the kernels re-apply the dense loop's
/// `a == 0.0` skip so such entries still contribute nothing, exactly like
/// the dense path.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f32>,
    /// Transpose (CSC) index: `t_row_ptr[j]..t_row_ptr[j + 1]` spans column
    /// `j`'s entries, listing original row indices in ascending order.
    t_row_ptr: Vec<usize>,
    t_row_idx: Vec<usize>,
    t_vals: Vec<f32>,
}

impl Csr {
    /// Build from a dense matrix, keeping entries with `v != 0.0` — the
    /// exact complement of the dense matmul's zero skip, so `-0.0` entries
    /// are dropped while subnormals and NaNs are kept.
    ///
    /// Graph lowering never materialises a dense adjacency; this is the
    /// reference conversion tests and benches check sparse builders and
    /// kernels against.
    pub fn from_dense(a: &Tensor) -> Self {
        let (rows, cols) = a.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for i in 0..rows {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self::from_parts(rows, cols, row_ptr, col_idx, vals)
    }

    /// Build from `(row, col, value)` triplets in any order. Panics on
    /// out-of-bounds indices or duplicate `(row, col)` pairs.
    pub fn from_triplets(rows: usize, cols: usize, entries: &[(usize, usize, f32)]) -> Self {
        let mut sorted: Vec<(usize, usize, f32)> = entries.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut vals = Vec::with_capacity(sorted.len());
        let mut cursor = 0;
        for i in 0..rows {
            while cursor < sorted.len() && sorted[cursor].0 == i {
                let (_, c, v) = sorted[cursor];
                assert!(
                    col_idx.len() == row_ptr[i] || *col_idx.last().unwrap() != c,
                    "duplicate entry at ({i}, {c})"
                );
                col_idx.push(c);
                vals.push(v);
                cursor += 1;
            }
            row_ptr.push(col_idx.len());
        }
        assert_eq!(cursor, sorted.len(), "triplet row index out of bounds {rows}");
        Self::from_parts(rows, cols, row_ptr, col_idx, vals)
    }

    /// Stack matrices along the diagonal: block `g` occupies rows
    /// `row_off[g]..row_off[g + 1]` and columns `col_off[g]..col_off[g + 1]`,
    /// where the offsets are running sums of the blocks' shapes; everything
    /// off the blocks is structurally zero.
    ///
    /// This is how a mini-batch of per-subgraph adjacencies becomes one
    /// adjacency over the packed node set: multiplying the result with
    /// row-stacked per-graph features is *bit-identical* to multiplying each
    /// block with its own features — each packed output row draws on exactly
    /// the entries of its own block, in the same ascending-column order the
    /// per-graph kernel visits them.
    pub fn block_diagonal(blocks: &[&Csr]) -> Self {
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        let mut col_off = 0;
        for b in blocks {
            let base = *row_ptr.last().unwrap();
            row_ptr.extend(b.row_ptr[1..].iter().map(|&e| base + e));
            col_idx.extend(b.col_idx.iter().map(|&c| col_off + c));
            vals.extend_from_slice(&b.vals);
            col_off += b.cols;
        }
        Self::from_parts(rows, cols, row_ptr, col_idx, vals)
    }

    fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f32>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), vals.len(), "col_idx/vals length");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "row_ptr end");
        for i in 0..rows {
            assert!(row_ptr[i] <= row_ptr[i + 1], "row_ptr must be non-decreasing");
            let cs = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in cs.windows(2) {
                assert!(w[0] < w[1], "columns must be strictly ascending in row {i}");
            }
            if let Some(&last) = cs.last() {
                assert!(last < cols, "column {last} out of bounds {cols}");
            }
        }

        // Transpose index. Scattering row-by-row in ascending `i` leaves
        // each column's entries ordered by ascending row — the order
        // `A.transpose().matmul(&g)` visits them in.
        let nnz = vals.len();
        let mut counts = vec![0usize; cols];
        for &c in &col_idx {
            counts[c] += 1;
        }
        let mut t_row_ptr = Vec::with_capacity(cols + 1);
        t_row_ptr.push(0);
        for c in 0..cols {
            t_row_ptr.push(t_row_ptr[c] + counts[c]);
        }
        let mut next = t_row_ptr[..cols].to_vec();
        let mut t_row_idx = vec![0usize; nnz];
        let mut t_vals = vec![0.0f32; nnz];
        for i in 0..rows {
            for e in row_ptr[i]..row_ptr[i + 1] {
                let c = col_idx[e];
                let slot = next[c];
                t_row_idx[slot] = i;
                t_vals[slot] = vals[e];
                next[c] += 1;
            }
        }

        Self { rows, cols, row_ptr, col_idx, vals, t_row_ptr, t_row_idx, t_vals }
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

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Fraction of stored entries (0.0 for an empty matrix).
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Materialise as a dense [`Tensor`].
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for e in self.row_ptr[i]..self.row_ptr[i + 1] {
                out.set(i, self.col_idx[e], self.vals[e]);
            }
        }
        out
    }

    /// `self @ b`, bit-identical to `self.to_dense().matmul(b)`.
    pub fn matmul_dense(&self, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, b.cols());
        self.matmul_dense_into(b, &mut out);
        out
    }

    /// `self @ b` written into `out` (shape `(self.rows, b.cols)`; prior
    /// contents are overwritten).
    pub fn matmul_dense_into(&self, b: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols,
            b.rows(),
            "spmm shape mismatch: ({}, {}) @ ({}, {})",
            self.rows,
            self.cols,
            b.rows(),
            b.cols()
        );
        assert_eq!(out.shape(), (self.rows, b.cols()), "spmm output shape");
        spmm_rows(&self.row_ptr, &self.col_idx, &self.vals, b, out);
    }

    /// `selfᵀ @ g`, bit-identical to `self.to_dense().transpose().matmul(g)`
    /// — the backward product of an SpMM with respect to its dense operand.
    pub fn transpose_matmul_dense(&self, g: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, g.cols());
        self.transpose_matmul_dense_into(g, &mut out);
        out
    }

    /// `selfᵀ @ g` written into `out` (shape `(self.cols, g.cols)`; prior
    /// contents are overwritten).
    pub fn transpose_matmul_dense_into(&self, g: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows,
            g.rows(),
            "spmm^T shape mismatch: ({}, {})^T @ ({}, {})",
            self.rows,
            self.cols,
            g.rows(),
            g.cols()
        );
        assert_eq!(out.shape(), (self.cols, g.cols()), "spmm^T output shape");
        spmm_rows(&self.t_row_ptr, &self.t_row_idx, &self.t_vals, g, out);
    }
}

/// Shared row kernel of [`Csr::matmul_dense_into`] and
/// [`Csr::transpose_matmul_dense_into`]: `out[i] = Σ_e vals[e] * b[idx[e]]`
/// over each row's entry range, in entry order with exact zeros skipped.
/// Partial sums accumulate in 16-wide register tiles (re-streaming the
/// row's entries per tile) instead of read-modify-writing the output row
/// once per entry; every output element still sees the identical `+= a * b`
/// sequence, so results stay bit-for-bit those of the scalar loop.
fn spmm_rows(row_ptr: &[usize], idx: &[usize], vals: &[f32], b: &Tensor, out: &mut Tensor) {
    use crate::tensor::{tile_axpy_nonzero, MM_JT};
    let n = b.cols();
    for i in 0..out.rows() {
        let entries = row_ptr[i]..row_ptr[i + 1];
        let out_row = out.row_mut(i);
        let mut j = 0;
        while j + MM_JT <= n {
            let mut c = [0.0f32; MM_JT];
            for e in entries.clone() {
                tile_axpy_nonzero(&mut c, vals[e], &b.row(idx[e])[j..j + MM_JT]);
            }
            out_row[j..j + MM_JT].copy_from_slice(&c);
            j += MM_JT;
        }
        if j < n {
            out_row[j..].fill(0.0);
            for e in entries.clone() {
                let a = vals[e];
                if a == 0.0 {
                    continue;
                }
                let b_row = &b.row(idx[e])[j..];
                for (o, &bv) in out_row[j..].iter_mut().zip(b_row.iter()) {
                    *o += a * bv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_fixture() -> Tensor {
        Tensor::from_vec(3, 4, vec![0.0, 2.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 3.5, 0.0, 0.25, 0.0])
    }

    #[test]
    fn from_dense_roundtrip_and_nnz() {
        let d = dense_fixture();
        let s = Csr::from_dense(&d);
        assert_eq!(s.shape(), (3, 4));
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn spmm_matches_dense_matmul_bitwise() {
        let d = dense_fixture();
        let s = Csr::from_dense(&d);
        let b = Tensor::from_fn(4, 3, |r, c| (r as f32 - 1.5) * 0.3 + c as f32 * 0.7);
        let dense = d.matmul(&b);
        let sparse = s.matmul_dense(&b);
        assert_eq!(dense.to_bits_vec(), sparse.to_bits_vec());
    }

    #[test]
    fn transpose_spmm_matches_dense_bitwise() {
        let d = dense_fixture();
        let s = Csr::from_dense(&d);
        let g = Tensor::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.11 - 0.6);
        let dense = d.transpose().matmul(&g);
        let sparse = s.transpose_matmul_dense(&g);
        assert_eq!(dense.to_bits_vec(), sparse.to_bits_vec());
    }

    #[test]
    fn negative_zero_subnormal_and_min_positive_pin_bit_identity() {
        // The dense loop's `a == 0.0` skip also skips `-0.0`; CSR
        // construction must mirror that exactly, while keeping subnormals
        // and f32::MIN_POSITIVE, whose products still accumulate.
        let sub = f32::from_bits(1); // smallest positive subnormal
        let d = Tensor::from_vec(2, 3, vec![-0.0, f32::MIN_POSITIVE, sub, 0.0, -sub, -0.0]);
        let s = Csr::from_dense(&d);
        // Only the two -0.0 and the one +0.0 entries are dropped.
        assert_eq!(s.nnz(), 3);
        let b = Tensor::from_fn(3, 2, |r, c| (r + c) as f32 * 0.5 - 0.25);
        assert_eq!(d.matmul(&b).to_bits_vec(), s.matmul_dense(&b).to_bits_vec());
        let g = Tensor::from_fn(2, 2, |r, c| 1.0 + (r * 2 + c) as f32);
        assert_eq!(
            d.transpose().matmul(&g).to_bits_vec(),
            s.transpose_matmul_dense(&g).to_bits_vec()
        );
    }

    #[test]
    fn empty_rows_and_columns_are_fine() {
        let d = Tensor::zeros(4, 4);
        let s = Csr::from_dense(&d);
        assert_eq!(s.nnz(), 0);
        let b = Tensor::ones(4, 2);
        assert_eq!(s.matmul_dense(&b).to_bits_vec(), d.matmul(&b).to_bits_vec());
        assert_eq!(
            s.transpose_matmul_dense(&b).to_bits_vec(),
            d.transpose().matmul(&b).to_bits_vec()
        );
    }

    #[test]
    fn from_triplets_matches_from_dense() {
        let d = dense_fixture();
        let trips = vec![(2usize, 2usize, 0.25f32), (0, 1, 2.0), (2, 0, 3.5), (0, 3, -1.0)];
        let s = Csr::from_triplets(3, 4, &trips);
        assert_eq!(s, Csr::from_dense(&d));
    }

    #[test]
    #[should_panic(expected = "duplicate entry")]
    fn duplicate_triplets_panic() {
        let _ = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0)]);
    }

    #[test]
    fn block_diagonal_matches_per_block_spmm_bitwise() {
        let d0 = dense_fixture(); // (3, 4)
        let d1 = Tensor::from_vec(2, 2, vec![1.5, 0.0, -0.0, 2.5]);
        let d2 = Tensor::zeros(1, 3); // empty block
        let (s0, s1, s2) = (Csr::from_dense(&d0), Csr::from_dense(&d1), Csr::from_dense(&d2));
        let packed = Csr::block_diagonal(&[&s0, &s1, &s2]);
        assert_eq!(packed.shape(), (6, 9));
        assert_eq!(packed.nnz(), s0.nnz() + s1.nnz() + s2.nnz());

        // Forward: packed @ stacked features == per-block products, stacked.
        let f = |off: usize| move |r: usize, c: usize| ((off + r) as f32 - 2.0) * 0.3 + c as f32;
        let (b0, b1, b2) =
            (Tensor::from_fn(4, 2, f(0)), Tensor::from_fn(2, 2, f(4)), Tensor::from_fn(3, 2, f(6)));
        let stacked = b0.concat_rows(&b1).concat_rows(&b2);
        let got = packed.matmul_dense(&stacked);
        let expected = s0
            .matmul_dense(&b0)
            .concat_rows(&s1.matmul_dense(&b1))
            .concat_rows(&s2.matmul_dense(&b2));
        assert_eq!(got.to_bits_vec(), expected.to_bits_vec());

        // Backward: packedᵀ @ stacked gradients decomposes the same way.
        let g = Tensor::from_fn(6, 2, |r, c| (r * 2 + c) as f32 * 0.21 - 0.7);
        let g0 = Tensor::from_fn(3, 2, |r, c| g.get(r, c));
        let g1 = Tensor::from_fn(2, 2, |r, c| g.get(3 + r, c));
        let g2 = Tensor::from_fn(1, 2, |r, c| g.get(5 + r, c));
        let got_t = packed.transpose_matmul_dense(&g);
        let expected_t = s0
            .transpose_matmul_dense(&g0)
            .concat_rows(&s1.transpose_matmul_dense(&g1))
            .concat_rows(&s2.transpose_matmul_dense(&g2));
        assert_eq!(got_t.to_bits_vec(), expected_t.to_bits_vec());
    }

    #[test]
    fn block_diagonal_of_nothing_is_empty() {
        let e = Csr::block_diagonal(&[]);
        assert_eq!(e.shape(), (0, 0));
        assert_eq!(e.nnz(), 0);
    }
}
