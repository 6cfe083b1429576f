//! Conversion from [`eth_graph::Subgraph`] to the tensors a GNN consumes.

use eth_graph::adj::{gcn_norm_adjacency, log_scale_weight};
use eth_graph::Subgraph;
use std::sync::Arc;
use tensor::{Csr, Tensor};

/// A subgraph lowered to tensors.
///
/// * `x` — node features `(n, d)` (15-dim deep features by default),
/// * `src` / `dst` — directed merged GSG edges **plus one self-loop per
///   node** (appended at the end), for attention-style layers,
/// * `edge_feat` — per-edge features `[log(1+w), log(1+t)]`, zeros for the
///   self-loops (Section III-B3's `r_ij = [w, t]`),
/// * `gsg_adj` — symmetrically normalised weighted adjacency of the static
///   view, for GCN-style layers,
/// * `slice_adj` — per-time-slice normalised adjacencies for the LDG.
///
/// Both adjacencies are built once, straight from the edge lists, as shared
/// [`Csr`] matrices (see [`gcn_norm_adjacency`]).
pub struct GraphTensors {
    pub n: usize,
    pub x: Tensor,
    pub src: Arc<Vec<usize>>,
    pub dst: Arc<Vec<usize>>,
    pub edge_feat: Tensor,
    pub gsg_adj: Arc<Csr>,
    pub slice_adj: Vec<Arc<Csr>>,
    /// The centre account's transaction sequence, time-ordered and capped at
    /// [`CENTER_SEQ_LEN`] rows of `[log-value, direction, log-fee,
    /// normalised time, is-contract-call]` — consumed by sequence models
    /// (the BERT4ETH baseline).
    pub center_seq: Tensor,
    pub label: Option<usize>,
}

/// Maximum length of the centre transaction sequence.
pub const CENTER_SEQ_LEN: usize = 64;

fn build_center_seq(graph: &Subgraph) -> Tensor {
    let mut txs: Vec<&eth_graph::LocalTx> = graph
        .txs
        .iter()
        .filter(|t| t.src == Subgraph::CENTER || t.dst == Subgraph::CENTER)
        .collect();
    txs.sort_by_key(|t| t.timestamp);
    if txs.len() > CENTER_SEQ_LEN {
        // Keep the most recent transactions, like BERT4ETH's truncation.
        txs.drain(..txs.len() - CENTER_SEQ_LEN);
    }
    if txs.is_empty() {
        return Tensor::zeros(1, 5);
    }
    let t_min = txs.first().unwrap().timestamp as f64;
    let t_max = txs.last().unwrap().timestamp as f64;
    let span = (t_max - t_min).max(1.0);
    Tensor::from_fn(txs.len(), 5, |r, c| {
        let t = txs[r];
        match c {
            0 => 0.2 * (1.0 + t.value.max(0.0)).ln() as f32,
            1 => {
                if t.src == Subgraph::CENTER {
                    1.0
                } else {
                    -1.0
                }
            }
            2 => 0.2 * (1.0 + t.fee.max(0.0) * 1e3).ln() as f32,
            3 => ((t.timestamp as f64 - t_min) / span) as f32,
            _ => t.contract_call as u8 as f32,
        }
    })
}

impl GraphTensors {
    /// Lower a subgraph with precomputed node features `x` and `t_slices`
    /// LDG time slices.
    pub fn new(graph: &Subgraph, x: Tensor, t_slices: usize) -> Self {
        let n = graph.n();
        assert_eq!(x.rows(), n, "feature rows must match node count");
        // `nan@gnn.lower` injection point: poison the lowered feature
        // matrix, simulating tensor conversion going wrong after the
        // subgraph itself validated clean.
        let mut x = x;
        if faults::active() && n > 0 {
            let v = x.get(0, 0);
            x.set(0, 0, faults::poison_f32("gnn.lower", None, v));
        }
        let merged = graph.merged_edges();
        let mut src = Vec::with_capacity(merged.len() + n);
        let mut dst = Vec::with_capacity(merged.len() + n);
        let mut edge_feat = Tensor::zeros(merged.len() + n, 2);
        let mut weighted: Vec<(usize, usize, f64)> = Vec::with_capacity(merged.len());
        for (i, e) in merged.iter().enumerate() {
            src.push(e.src);
            dst.push(e.dst);
            edge_feat.set(i, 0, log_scale_weight(e.total_value) as f32);
            edge_feat.set(i, 1, (1.0 + e.count as f64).ln() as f32);
            weighted.push((e.src, e.dst, log_scale_weight(e.total_value)));
        }
        // Self-loops with zero edge features (the centre-node alignment of
        // Eq. 6 uses r_ii = 0 since no self-transactions are merged).
        for v in 0..n {
            src.push(v);
            dst.push(v);
        }
        let gsg_adj = Arc::new(gcn_norm_adjacency(n, &weighted));
        let slice_adj = graph
            .time_slices(t_slices)
            .into_iter()
            .map(|s| {
                let edges: Vec<(usize, usize, f64)> =
                    s.edges.iter().map(|&(u, v, w)| (u, v, log_scale_weight(w))).collect();
                Arc::new(gcn_norm_adjacency(n, &edges))
            })
            .collect();
        Self {
            n,
            x,
            src: Arc::new(src),
            dst: Arc::new(dst),
            edge_feat,
            gsg_adj,
            slice_adj,
            center_seq: build_center_seq(graph),
            label: graph.label,
        }
    }

    /// Lower using the standard 15-dim deep feature pipeline.
    pub fn from_subgraph(graph: &Subgraph, t_slices: usize) -> Self {
        Self::new(graph, features::node_features(graph), t_slices)
    }

    /// Lower with constant (all-ones, 1-dim) node features — the
    /// "w/o node feature" ablation rows of Table III.
    pub fn without_node_features(graph: &Subgraph, t_slices: usize) -> Self {
        Self::new(graph, Tensor::ones(graph.n(), 1), t_slices)
    }

    /// Number of edges including self-loops.
    pub fn n_edges(&self) -> usize {
        self.src.len()
    }

    /// Edge list without the trailing self-loops.
    pub fn real_edges(&self) -> Vec<(usize, usize)> {
        let real = self.src.len() - self.n;
        (0..real).map(|i| (self.src[i], self.dst[i])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_graph::{AccountKind, LocalTx};

    fn graph() -> Subgraph {
        Subgraph::from_parts(
            vec![0, 1, 2],
            vec![AccountKind::Eoa; 3],
            vec![
                LocalTx {
                    src: 0,
                    dst: 1,
                    value: 3.0,
                    timestamp: 0,
                    fee: 0.0,
                    contract_call: false,
                },
                LocalTx {
                    src: 0,
                    dst: 1,
                    value: 1.0,
                    timestamp: 10,
                    fee: 0.0,
                    contract_call: false,
                },
                LocalTx {
                    src: 2,
                    dst: 0,
                    value: 2.0,
                    timestamp: 20,
                    fee: 0.0,
                    contract_call: false,
                },
            ],
            Some(1),
        )
    }

    #[test]
    fn edges_include_self_loops_at_end() {
        let g = graph();
        let t = GraphTensors::from_subgraph(&g, 4);
        assert_eq!(t.n_edges(), 2 + 3); // two merged edges + three loops
        assert_eq!(t.real_edges(), vec![(0, 1), (2, 0)]);
        for i in 0..3 {
            assert_eq!(t.src[2 + i], i);
            assert_eq!(t.dst[2 + i], i);
        }
    }

    #[test]
    fn edge_features_are_log_scaled_w_and_t() {
        let g = graph();
        let t = GraphTensors::from_subgraph(&g, 4);
        // Edge (0,1): w = 4.0, count = 2.
        assert!((t.edge_feat.get(0, 0) - (5.0f32).ln()).abs() < 1e-5);
        assert!((t.edge_feat.get(0, 1) - (3.0f32).ln()).abs() < 1e-5);
        // Self-loop features are zero.
        assert_eq!(t.edge_feat.get(2, 0), 0.0);
    }

    #[test]
    fn slice_adjacencies_cover_all_slices() {
        let g = graph();
        let t = GraphTensors::from_subgraph(&g, 4);
        assert_eq!(t.slice_adj.len(), 4);
        for a in &t.slice_adj {
            assert_eq!(a.shape(), (3, 3));
            // Normalised adjacency always has positive diagonal.
            let a = a.to_dense();
            for i in 0..3 {
                assert!(a.get(i, i) > 0.0);
            }
        }
    }

    #[test]
    fn center_seq_is_time_ordered_and_direction_signed() {
        let g = graph();
        let t = GraphTensors::from_subgraph(&g, 2);
        // Centre (node 0) participates in all three transactions.
        assert_eq!(t.center_seq.shape(), (3, 5));
        // Direction column: first two are outgoing (+1), last incoming (-1).
        assert_eq!(t.center_seq.get(0, 1), 1.0);
        assert_eq!(t.center_seq.get(2, 1), -1.0);
        // Normalised time is monotone.
        assert!(t.center_seq.get(0, 3) <= t.center_seq.get(2, 3));
    }

    #[test]
    fn adjacencies_are_built_from_the_merged_and_sliced_edges() {
        let g = graph();
        let t = GraphTensors::from_subgraph(&g, 4);
        let weighted: Vec<(usize, usize, f64)> = g
            .merged_edges()
            .iter()
            .map(|e| (e.src, e.dst, log_scale_weight(e.total_value)))
            .collect();
        assert_eq!(*t.gsg_adj, gcn_norm_adjacency(3, &weighted));
        // Edges (0,1) and (2,0) plus three self-loops, both directions.
        assert_eq!(t.gsg_adj.nnz(), 7);
        let slices = g.time_slices(4);
        assert_eq!(t.slice_adj.len(), slices.len());
        for (a, s) in t.slice_adj.iter().zip(&slices) {
            let edges: Vec<(usize, usize, f64)> =
                s.edges.iter().map(|&(u, v, w)| (u, v, log_scale_weight(w))).collect();
            assert_eq!(**a, gcn_norm_adjacency(3, &edges));
        }
    }

    #[test]
    fn featureless_variant_has_one_dim() {
        let g = graph();
        let t = GraphTensors::without_node_features(&g, 2);
        assert_eq!(t.x.shape(), (3, 1));
        assert!(t.x.data().iter().all(|&v| v == 1.0));
    }
}
