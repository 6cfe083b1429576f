//! Mini-batch packing: many subgraphs → one block-diagonal problem.
//!
//! The encoders' only forward (`forward_batch`) runs on a packed batch. These
//! packers concatenate subgraphs into a single node-feature matrix plus
//! block-diagonal adjacency structure so each encoder layer runs once per
//! batch — a training mini-batch, or a single account when scoring:
//!
//! * dense weight matmuls become one fused `(Σn, d) @ (d, d')` product —
//!   row-independent, so every output row is bit-identical to the product
//!   of that graph alone;
//! * sparse propagation uses [`Csr::block_diagonal`], whose per-row kernels
//!   never cross block boundaries (see the ordering contract on `Csr`);
//! * graph-level reductions (pooling, graph attention, DiffPool) use the
//!   tape's segment ops, each pinned bit-identical to the per-graph op chain
//!   it fuses.
//!
//! The net contract, pinned by `tests/batch_equivalence.rs`: a batch of
//! `N` graphs equals `N` batches of one — forward outputs are bit-identical row for row, and gradients on the
//! packed input leaf decompose row-for-row into the one-graph gradients.

use crate::augment::AugmentedView;
use crate::graphdata::GraphTensors;
use std::sync::Arc;
use tensor::{Csr, Tensor};

/// Borrowed view of one subgraph's GSG inputs. Lets [`GsgBatch::pack`]
/// accept both original graphs and augmented views.
pub struct GsgItem<'a> {
    pub n: usize,
    pub x: &'a Tensor,
    pub src: &'a [usize],
    pub dst: &'a [usize],
    pub edge_feat: &'a Tensor,
}

impl<'a> From<&'a GraphTensors> for GsgItem<'a> {
    fn from(g: &'a GraphTensors) -> Self {
        Self { n: g.n, x: &g.x, src: &g.src, dst: &g.dst, edge_feat: &g.edge_feat }
    }
}

impl<'a> From<&'a AugmentedView> for GsgItem<'a> {
    fn from(v: &'a AugmentedView) -> Self {
        Self { n: v.n, x: &v.x, src: &v.src, dst: &v.dst, edge_feat: &v.edge_feat }
    }
}

/// A mini-batch of subgraphs packed for `GsgEncoder::forward_batch`.
///
/// Node rows of graph `g` occupy `offsets[g]..offsets[g + 1]` of `x`; edge
/// endpoints are pre-shifted into that global row space. The `all_*` index
/// vectors describe the graph-attention block's `[c_g ‖ h_g]` row layout:
/// graph `g`'s pooled row `c_g` sits at `all_offsets[g]` (i.e.
/// `offsets[g] + g`), followed by its node rows.
pub struct GsgBatch {
    /// Node-row offsets per graph, length `B + 1`.
    pub offsets: Arc<Vec<usize>>,
    /// Packed node features, `(Σn, d_in)`.
    pub x: Tensor,
    /// Edge sources in global node rows (self-loops included, per graph).
    pub src: Arc<Vec<usize>>,
    /// Edge destinations in global node rows.
    pub dst: Arc<Vec<usize>>,
    /// Packed edge features, `(Σe, 2)`.
    pub edge_feat: Tensor,
    /// Row offsets of each graph's `[c_g ‖ h_g]` segment, length `B + 1`.
    pub all_offsets: Arc<Vec<usize>>,
    /// Permutation building the packed `all` matrix from
    /// `concat_rows(c_batch, h)`: graph `g` contributes row `g` (its pooled
    /// `c_g`) then rows `B + offsets[g] .. B + offsets[g + 1]`.
    pub all_perm: Arc<Vec<usize>>,
    /// Graph id per `all` row (segment ids for the graph-attention softmax).
    pub all_seg: Arc<Vec<usize>>,
    /// Per `all` row, the row index of its graph's `c_g` (for `c_rep`).
    pub c_rep_idx: Arc<Vec<usize>>,
    /// Global node row of each graph's centre account (= `offsets[g]`,
    /// because lowering always places the centre at local node 0).
    pub center_rows: Arc<Vec<usize>>,
}

impl GsgBatch {
    /// Number of graphs in the batch.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total packed node count.
    pub fn n_total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Total packed edge count (self-loops included).
    pub fn e_total(&self) -> usize {
        self.src.len()
    }

    pub fn pack<'a>(items: impl IntoIterator<Item = GsgItem<'a>>) -> Self {
        let items: Vec<GsgItem<'a>> = items.into_iter().collect();
        assert!(!items.is_empty(), "cannot pack an empty GSG batch");
        let b = items.len();
        let d = items[0].x.cols();
        let d_edge = items[0].edge_feat.cols();

        let mut offsets = Vec::with_capacity(b + 1);
        offsets.push(0usize);
        let mut x_data = Vec::new();
        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut edge_data = Vec::new();
        let mut all_offsets = Vec::with_capacity(b + 1);
        let mut all_perm = Vec::new();
        let mut all_seg = Vec::new();
        let mut c_rep_idx = Vec::new();
        let mut center_rows = Vec::with_capacity(b);

        for (g, item) in items.iter().enumerate() {
            let base = *offsets.last().unwrap();
            assert_eq!(item.x.rows(), item.n, "node feature rows must match n");
            assert_eq!(item.x.cols(), d, "node feature widths must agree across the batch");
            assert_eq!(item.edge_feat.cols(), d_edge, "edge feature widths must agree");
            assert_eq!(item.src.len(), item.dst.len(), "edge endpoint lists must align");
            assert_eq!(item.edge_feat.rows(), item.src.len(), "edge features must align");
            x_data.extend_from_slice(item.x.data());
            edge_data.extend_from_slice(item.edge_feat.data());
            src.extend(item.src.iter().map(|&s| base + s));
            dst.extend(item.dst.iter().map(|&t| base + t));
            center_rows.push(base);
            // `all` layout for graph g: [c_g, h_{base}, .., h_{base + n - 1}].
            let c_row = all_perm.len();
            all_offsets.push(c_row);
            all_perm.push(g);
            all_perm.extend((base..base + item.n).map(|r| b + r));
            all_seg.extend(std::iter::repeat_n(g, item.n + 1));
            c_rep_idx.extend(std::iter::repeat_n(c_row, item.n + 1));
            offsets.push(base + item.n);
        }
        all_offsets.push(all_perm.len());

        let n_total = *offsets.last().unwrap();
        let e_total = src.len();
        Self {
            offsets: Arc::new(offsets),
            x: Tensor::from_vec(n_total, d, x_data),
            src: Arc::new(src),
            dst: Arc::new(dst),
            edge_feat: Tensor::from_vec(e_total, d_edge, edge_data),
            all_offsets: Arc::new(all_offsets),
            all_perm: Arc::new(all_perm),
            all_seg: Arc::new(all_seg),
            c_rep_idx: Arc::new(c_rep_idx),
            center_rows: Arc::new(center_rows),
        }
    }
}

/// A mini-batch of subgraphs packed for `LdgEncoder::forward_batch`.
///
/// Each time slice's adjacency becomes one block-diagonal CSR over the packed
/// node rows; per-graph slice lists shorter than `t_slices` repeat their last
/// slice.
pub struct LdgBatch {
    /// Node-row offsets per graph, length `B + 1`.
    pub offsets: Arc<Vec<usize>>,
    /// Packed node features, `(Σn, d_in)`.
    pub x: Tensor,
    /// One block-diagonal adjacency per time slice, length `t_slices`.
    pub slice_csr: Vec<Arc<Csr>>,
    /// Global node row of each graph's centre account.
    pub center_rows: Arc<Vec<usize>>,
    /// Permutation turning the slice-major pooled stack (row `t·B + g`) into
    /// the graph-major layout (row `g·T + t`) used by the time attention.
    pub stack_perm: Arc<Vec<usize>>,
    /// Per graph-major stack row, its slice index `t` (tiles the transposed
    /// `(T, 1)` attention weights across graphs).
    pub alpha_tile: Arc<Vec<usize>>,
    /// Uniform offsets `[0, T, 2T, ..]` segmenting the graph-major stack.
    pub time_offsets: Arc<Vec<usize>>,
    /// Total non-zeros across all packed slice adjacencies (for gauges).
    pub nnz_total: usize,
}

impl LdgBatch {
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn n_total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    pub fn pack(graphs: &[&GraphTensors], t_slices: usize) -> Self {
        assert!(!graphs.is_empty(), "cannot pack an empty LDG batch");
        assert!(t_slices > 0, "LDG needs at least one time slice");
        let b = graphs.len();
        let d = graphs[0].x.cols();

        let mut offsets = Vec::with_capacity(b + 1);
        offsets.push(0usize);
        let mut x_data = Vec::new();
        let mut center_rows = Vec::with_capacity(b);
        for g in graphs {
            assert!(!g.slice_adj.is_empty(), "LDG needs time slices");
            assert_eq!(g.x.cols(), d, "node feature widths must agree across the batch");
            let base = *offsets.last().unwrap();
            x_data.extend_from_slice(g.x.data());
            center_rows.push(base);
            offsets.push(base + g.n);
        }
        let n_total = *offsets.last().unwrap();

        let mut nnz_total = 0usize;
        let slice_csr: Vec<Arc<Csr>> = (0..t_slices)
            .map(|t| {
                let blocks: Vec<&Csr> = graphs
                    .iter()
                    .map(|g| {
                        g.slice_adj.get(t).unwrap_or_else(|| g.slice_adj.last().unwrap()).as_ref()
                    })
                    .collect();
                let packed = Csr::block_diagonal(&blocks);
                nnz_total += packed.nnz();
                Arc::new(packed)
            })
            .collect();

        let mut stack_perm = Vec::with_capacity(b * t_slices);
        let mut alpha_tile = Vec::with_capacity(b * t_slices);
        for g in 0..b {
            for t in 0..t_slices {
                stack_perm.push(t * b + g);
                alpha_tile.push(t);
            }
        }
        let time_offsets = (0..=b).map(|g| g * t_slices).collect();

        Self {
            offsets: Arc::new(offsets),
            x: Tensor::from_vec(n_total, d, x_data),
            slice_csr,
            center_rows: Arc::new(center_rows),
            stack_perm: Arc::new(stack_perm),
            alpha_tile: Arc::new(alpha_tile),
            time_offsets: Arc::new(time_offsets),
            nnz_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_graph::{AccountKind, LocalTx, Subgraph};

    fn toy(n: usize, label: usize) -> GraphTensors {
        let g = Subgraph::from_parts(
            (0..n).collect(),
            vec![AccountKind::Eoa; n],
            (0..2 * n)
                .map(|i| LocalTx {
                    src: i % n,
                    dst: (i + 1) % n,
                    value: 1.0 + i as f64,
                    timestamp: (i as u64) * 700,
                    fee: 0.001,
                    contract_call: i % 3 == 0,
                })
                .collect(),
            Some(label),
        );
        GraphTensors::from_subgraph(&g, 4)
    }

    #[test]
    fn gsg_pack_layout() {
        let g0 = toy(3, 0);
        let g1 = toy(5, 1);
        let batch = GsgBatch::pack([GsgItem::from(&g0), GsgItem::from(&g1)]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.offsets.as_slice(), &[0, 3, 8]);
        assert_eq!(batch.n_total(), 8);
        assert_eq!(batch.x.rows(), 8);
        assert_eq!(batch.e_total(), g0.src.len() + g1.src.len());
        // Graph 1's edges are shifted by graph 0's node count.
        assert!(batch.src[g0.src.len()..].iter().all(|&s| (3..8).contains(&s)));
        // `all` rows: [c0, 3 nodes, c1, 5 nodes]; c rows at offsets[g] + g.
        assert_eq!(batch.all_offsets.as_slice(), &[0, 4, 10]);
        assert_eq!(batch.all_perm.as_slice(), &[0, 2, 3, 4, 1, 5, 6, 7, 8, 9]);
        assert_eq!(batch.all_seg.as_slice(), &[0, 0, 0, 0, 1, 1, 1, 1, 1, 1]);
        assert_eq!(batch.c_rep_idx.as_slice(), &[0, 0, 0, 0, 4, 4, 4, 4, 4, 4]);
        assert_eq!(batch.center_rows.as_slice(), &[0, 3]);
    }

    #[test]
    fn ldg_pack_repeats_last_slice_and_counts_nnz() {
        let g0 = toy(3, 0);
        let g1 = toy(4, 1);
        let t = g0.slice_adj.len().max(g1.slice_adj.len()) + 2;
        let batch = LdgBatch::pack(&[&g0, &g1], t);
        assert_eq!(batch.slice_csr.len(), t);
        for csr in &batch.slice_csr {
            assert_eq!(csr.shape(), (7, 7));
        }
        // Slices beyond each graph's list repeat its last adjacency: graph 0's
        // block of the final packed slice equals its own last slice.
        let last = batch.slice_csr[t - 1].to_dense();
        let g0_last = g0.slice_adj.last().unwrap().to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(last.get(r, c).to_bits(), g0_last.get(r, c).to_bits());
            }
        }
        assert_eq!(batch.nnz_total, batch.slice_csr.iter().map(|c| c.nnz()).sum::<usize>());
        assert_eq!(batch.stack_perm.len(), 2 * t);
        assert_eq!(batch.stack_perm[0], 0); // (g=0, t=0) -> slice-major row 0
        assert_eq!(batch.stack_perm[t], 1); // (g=1, t=0) -> slice-major row 1
        assert_eq!(batch.alpha_tile[t - 1], t - 1);
        assert_eq!(batch.time_offsets.as_slice(), &[0, t, 2 * t]);
    }
}
