//! Ethereum-specific de-anonymization baselines: TSGN, Ethident and
//! TEGDetector (Table III rows 15-17).

use crate::harness::{all_rows, GraphModel};
use gnn::layers::GcnLayer;
use gnn::{GraphTensors, GsgBatch, GsgConfig, GsgEncoder, GsgItem};
use nn::{Activation, Ctx, GruCell, Linear, ParamId, ParamStore};
use rand::Rng;
use std::sync::Arc;
use tensor::{Csr, Tape, Tensor, Var};

/// TSGN (Wang et al.): classify the **transaction subgraph network** — the
/// line graph whose nodes are the original merged edges (with `[w, t]`
/// features) and whose edges connect transactions sharing an endpoint.
pub struct TsgnBaseline {
    l1: GcnLayer,
    l2: GcnLayer,
    head: Linear,
}

impl TsgnBaseline {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, hidden: usize) -> Self {
        Self {
            l1: GcnLayer::new(store, rng, "tsgn.l1", 2, hidden, Activation::Relu),
            l2: GcnLayer::new(store, rng, "tsgn.l2", hidden, hidden, Activation::Relu),
            head: Linear::new(store, rng, "tsgn.head", hidden, 2, Activation::None),
        }
    }

    /// Build the line-graph adjacency (normalised with self-loops) and the
    /// per-transaction `[w, t]` features from a lowered subgraph.
    fn line_graph(g: &GraphTensors) -> (Arc<Csr>, Tensor) {
        let edges = g.real_edges();
        let e = edges.len();
        if e == 0 {
            return (Arc::new(Csr::from_triplets(1, 1, &[(0, 0, 1.0)])), Tensor::zeros(1, 2));
        }
        let mut feats = Tensor::zeros(e, 2);
        for i in 0..e {
            feats.set(i, 0, g.edge_feat.get(i, 0));
            feats.set(i, 1, g.edge_feat.get(i, 1));
        }
        // Transactions sharing an endpoint are adjacent; each transaction
        // is adjacent to itself (the self-loop). Each endpoint indexes its
        // incident transactions in ascending order, so a transaction's
        // neighbours are the sorted, deduplicated union of its two
        // endpoints' lists.
        let nodes = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        for (j, &(a, b)) in edges.iter().enumerate() {
            incident[a].push(j);
            incident[b].push(j);
        }
        let neighbours: Vec<Vec<usize>> = edges
            .iter()
            .map(|&(a, b)| {
                let mut nb = [&incident[a][..], &incident[b][..]].concat();
                nb.sort_unstable();
                nb.dedup();
                nb
            })
            .collect();
        // Symmetric normalisation.
        let deg: Vec<f32> = neighbours.iter().map(|nb| nb.len() as f32).collect();
        let mut entries = Vec::new();
        for (r, nb) in neighbours.iter().enumerate() {
            for &c in nb {
                entries.push((r, c, 1.0 / (deg[r] * deg[c]).sqrt()));
            }
        }
        (Arc::new(Csr::from_triplets(e, e, &entries)), feats)
    }
}

impl GraphModel for TsgnBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let (adj, feat_t) = Self::line_graph(g);
        let x = tape.constant(feat_t);
        let h = self.l1.forward(tape, ctx, store, &adj, x);
        let h = self.l2.forward(tape, ctx, store, &adj, h);
        let pooled = tape.segment_mean_pool_rows(h, all_rows(tape, h));
        self.head.forward(tape, ctx, store, pooled)
    }
}

/// Ethident (Zhou et al.): a hierarchical graph-attention account encoder.
/// Architecturally this is the paper's GSG branch used stand-alone (the GSG
/// module is explicitly Ethident-style), trained with plain cross-entropy.
pub struct EthidentBaseline {
    encoder: GsgEncoder,
}

impl EthidentBaseline {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, d_in: usize, hidden: usize) -> Self {
        let cfg = GsgConfig { hidden, d_out: hidden / 2, ..GsgConfig::default() };
        Self { encoder: GsgEncoder::new(store, rng, d_in, cfg) }
    }
}

impl GraphModel for EthidentBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let batch = GsgBatch::pack([GsgItem::from(g)]);
        self.encoder.forward_batch(tape, ctx, store, &batch).logits
    }
}

/// TEGDetector (Zheng et al.): per-time-slice GCN embeddings combined by a
/// GRU and learned time coefficients.
pub struct TegDetectorBaseline {
    input_proj: Linear,
    gcn: GcnLayer,
    gru: GruCell,
    time_attn: ParamId,
    head: Linear,
    t_slices: usize,
}

impl TegDetectorBaseline {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        d_in: usize,
        hidden: usize,
        t_slices: usize,
    ) -> Self {
        Self {
            input_proj: Linear::new(store, rng, "teg.in", d_in, hidden, Activation::Tanh),
            gcn: GcnLayer::new(store, rng, "teg.gcn", hidden, hidden, Activation::Relu),
            gru: GruCell::new(store, rng, "teg.gru", hidden),
            time_attn: store.zeros("teg.attn", 1, t_slices),
            head: Linear::new(store, rng, "teg.head", hidden, 2, Activation::None),
            t_slices,
        }
    }
}

impl GraphModel for TegDetectorBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let x = tape.constant(g.x.clone());
        let node_h = self.input_proj.forward(tape, ctx, store, x);
        // Per-slice graph embedding: GCN then mean pool, evolved by a GRU
        // over the (1, hidden) slice summaries.
        let mut slice_embs: Option<Var> = None;
        let mut state: Option<Var> = None;
        for t in 0..self.t_slices {
            let adj = g.slice_adj.get(t).unwrap_or_else(|| g.slice_adj.last().unwrap());
            let u = self.gcn.forward(tape, ctx, store, adj, node_h);
            let pooled = tape.segment_mean_pool_rows(u, all_rows(tape, u));
            let new_state = match state {
                None => pooled,
                Some(prev) => self.gru.forward(tape, ctx, store, pooled, prev),
            };
            state = Some(new_state);
            slice_embs = Some(match slice_embs {
                None => new_state,
                Some(acc) => tape.concat_rows(acc, new_state),
            });
        }
        let stack = slice_embs.expect("slices"); // (T, hidden)
        let attn = ctx.var(tape, store, self.time_attn);
        let alpha = tape.softmax_rows(attn);
        let summary = tape.matmul(alpha, stack);
        self.head.forward(tape, ctx, store, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{predict_model, train_model, TrainConfig};
    use eth_graph::{AccountKind, LocalTx, Subgraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(label: usize, big: bool) -> GraphTensors {
        let v = if big { 60.0 } else { 0.1 };
        let g = Subgraph::from_parts(
            (0..4).collect(),
            vec![AccountKind::Eoa; 4],
            (0..6)
                .map(|i| LocalTx {
                    src: i % 4,
                    dst: (i + 1) % 4,
                    value: v,
                    timestamp: if big { i as u64 } else { i as u64 * 500 },
                    fee: 0.002,
                    contract_call: false,
                })
                .collect(),
            Some(label),
        );
        GraphTensors::from_subgraph(&g, 4)
    }

    fn fits<M: GraphModel>(model: M, mut store: ParamStore) {
        let (pos, neg) = (toy(1, true), toy(0, false));
        let graphs = vec![&pos, &neg];
        train_model(
            &model,
            &mut store,
            &graphs,
            TrainConfig { epochs: 120, batch_size: 2, lr: 0.02, seed: 5 },
        );
        let s = predict_model(&model, &store, &graphs);
        assert!(s[0] > 0.7 && s[1] < 0.3, "{s:?}");
    }

    #[test]
    fn tsgn_line_graph_is_valid() {
        let g = toy(1, true);
        let (adj, feats) = TsgnBaseline::line_graph(&g);
        let e = g.real_edges().len();
        assert_eq!(adj.shape(), (e, e));
        assert_eq!(feats.shape(), (e, 2));
        // Symmetric.
        let adj = adj.to_dense();
        for i in 0..e {
            for j in 0..e {
                assert!((adj.get(i, j) - adj.get(j, i)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn tsgn_fits_toy() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let model = TsgnBaseline::new(&mut store, &mut rng, 16);
        fits(model, store);
    }

    #[test]
    fn ethident_fits_toy() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let model = EthidentBaseline::new(&mut store, &mut rng, 15, 16);
        fits(model, store);
    }

    #[test]
    fn tegdetector_fits_toy() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let model = TegDetectorBaseline::new(&mut store, &mut rng, 15, 16, 4);
        fits(model, store);
    }
}
