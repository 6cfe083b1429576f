//! GNN graph-classification baselines: GCN, GAT, GIN, GraphSAGE, APPNP and
//! I²BGNN (Table III rows 3-11, 13-14).

use crate::harness::{all_rows, GraphModel};
use gnn::layers::{appnp_propagate, GatLayer, GcnLayer, GinLayer, SageLayer};
use gnn::GraphTensors;
use nn::{Activation, Ctx, Linear, Mlp, ParamStore};
use rand::Rng;
use std::sync::Arc;
use tensor::{Csr, Tape, Var};

/// Mean-pool node embeddings and classify (the pooling the paper uses for
/// the GCN/GAT/GIN baselines).
fn mean_pool_head(
    tape: &mut Tape,
    ctx: &mut Ctx,
    store: &ParamStore,
    head: &Linear,
    h: Var,
) -> Var {
    let pooled = tape.segment_mean_pool_rows(h, all_rows(tape, h));
    head.forward(tape, ctx, store, pooled)
}

/// The undirected neighbour pairs of the real merged edges, sorted and
/// without self-loops. A reciprocal pair of transactions gives both
/// `(u, v)` and `(v, u)` as merged edges, so each pair is kept once.
fn neighbour_pairs(g: &GraphTensors) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = g
        .real_edges()
        .into_iter()
        .filter(|&(u, v)| u != v)
        .flat_map(|(u, v)| [(u, v), (v, u)])
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Binary (0/1) neighbour-sum operator without self-loops (GIN).
fn sum_operator(g: &GraphTensors) -> Arc<Csr> {
    let entries: Vec<_> = neighbour_pairs(g).into_iter().map(|(u, v)| (u, v, 1.0)).collect();
    Arc::new(Csr::from_triplets(g.n, g.n, &entries))
}

/// Row-normalised neighbour-mean operator without self-loops (GraphSAGE):
/// each neighbour of `u` weighs `1 / deg(u)`.
fn mean_operator(g: &GraphTensors) -> Arc<Csr> {
    let pairs = neighbour_pairs(g);
    let mut deg = vec![0u32; g.n];
    for &(u, _) in &pairs {
        deg[u] += 1;
    }
    let entries: Vec<_> = pairs.into_iter().map(|(u, v)| (u, v, 1.0 / deg[u] as f32)).collect();
    Arc::new(Csr::from_triplets(g.n, g.n, &entries))
}

/// Two-layer GCN with mean pooling.
pub struct GcnBaseline {
    l1: GcnLayer,
    l2: GcnLayer,
    head: Linear,
}

impl GcnBaseline {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, d_in: usize, hidden: usize) -> Self {
        Self {
            l1: GcnLayer::new(store, rng, "gcn.l1", d_in, hidden, Activation::Relu),
            l2: GcnLayer::new(store, rng, "gcn.l2", hidden, hidden, Activation::Relu),
            head: Linear::new(store, rng, "gcn.head", hidden, 2, Activation::None),
        }
    }
}

impl GraphModel for GcnBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let x = tape.constant(g.x.clone());
        let h = self.l1.forward(tape, ctx, store, &g.gsg_adj, x);
        let h = self.l2.forward(tape, ctx, store, &g.gsg_adj, h);
        mean_pool_head(tape, ctx, store, &self.head, h)
    }
}

/// Two-layer multi-head GAT with mean pooling.
pub struct GatBaseline {
    l1: GatLayer,
    l2: GatLayer,
    proj: Linear,
    head: Linear,
}

impl GatBaseline {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        d_in: usize,
        hidden: usize,
        heads: usize,
    ) -> Self {
        assert!(hidden.is_multiple_of(heads));
        Self {
            proj: Linear::new(store, rng, "gat.proj", d_in, hidden, Activation::None),
            l1: GatLayer::new(store, rng, "gat.l1", hidden, hidden / heads, heads),
            l2: GatLayer::new(store, rng, "gat.l2", hidden, hidden / heads, heads),
            head: Linear::new(store, rng, "gat.head", hidden, 2, Activation::None),
        }
    }
}

impl GraphModel for GatBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let x = tape.constant(g.x.clone());
        let h = self.proj.forward(tape, ctx, store, x);
        let h = self.l1.forward(tape, ctx, store, h, None, &g.src, &g.dst, g.n);
        let h = self.l2.forward(tape, ctx, store, h, None, &g.src, &g.dst, g.n);
        mean_pool_head(tape, ctx, store, &self.head, h)
    }
}

/// Two-layer GIN with mean pooling.
pub struct GinBaseline {
    l1: GinLayer,
    l2: GinLayer,
    head: Linear,
}

impl GinBaseline {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, d_in: usize, hidden: usize) -> Self {
        Self {
            l1: GinLayer::new(store, rng, "gin.l1", d_in, hidden),
            l2: GinLayer::new(store, rng, "gin.l2", hidden, hidden),
            head: Linear::new(store, rng, "gin.head", hidden, 2, Activation::None),
        }
    }
}

impl GraphModel for GinBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let adj = sum_operator(g);
        let x = tape.constant(g.x.clone());
        let h = self.l1.forward(tape, ctx, store, &adj, x);
        let h = self.l2.forward(tape, ctx, store, &adj, h);
        mean_pool_head(tape, ctx, store, &self.head, h)
    }
}

/// Two-layer GraphSAGE (mean aggregator) with mean pooling.
pub struct SageBaseline {
    l1: SageLayer,
    l2: SageLayer,
    head: Linear,
}

impl SageBaseline {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, d_in: usize, hidden: usize) -> Self {
        Self {
            l1: SageLayer::new(store, rng, "sage.l1", d_in, hidden, Activation::Relu),
            l2: SageLayer::new(store, rng, "sage.l2", hidden, hidden, Activation::Relu),
            head: Linear::new(store, rng, "sage.head", hidden, 2, Activation::None),
        }
    }
}

impl GraphModel for SageBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let adj = mean_operator(g);
        let x = tape.constant(g.x.clone());
        let h = self.l1.forward(tape, ctx, store, &adj, x);
        let h = self.l2.forward(tape, ctx, store, &adj, h);
        mean_pool_head(tape, ctx, store, &self.head, h)
    }
}

/// APPNP: feature MLP followed by personalised-PageRank propagation.
pub struct AppnpBaseline {
    mlp: Mlp,
    head: Linear,
    alpha: f32,
    k: usize,
}

impl AppnpBaseline {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, d_in: usize, hidden: usize) -> Self {
        Self {
            mlp: Mlp::new(store, rng, "appnp.mlp", &[d_in, hidden, hidden], Activation::Relu),
            head: Linear::new(store, rng, "appnp.head", hidden, 2, Activation::None),
            alpha: 0.1,
            k: 10,
        }
    }
}

impl GraphModel for AppnpBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let x = tape.constant(g.x.clone());
        let z0 = self.mlp.forward(tape, ctx, store, x);
        let z = appnp_propagate(tape, &g.gsg_adj, z0, self.alpha, self.k);
        mean_pool_head(tape, ctx, store, &self.head, z)
    }
}

/// I²BGNN (Shen et al., 2021): weighted-adjacency GCN with **max** pooling,
/// mapping transaction-subgraph patterns to identities.
pub struct I2BgnnBaseline {
    l1: GcnLayer,
    l2: GcnLayer,
    head: Linear,
}

impl I2BgnnBaseline {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, d_in: usize, hidden: usize) -> Self {
        Self {
            l1: GcnLayer::new(store, rng, "i2b.l1", d_in, hidden, Activation::Relu),
            l2: GcnLayer::new(store, rng, "i2b.l2", hidden, hidden, Activation::Relu),
            head: Linear::new(store, rng, "i2b.head", hidden, 2, Activation::None),
        }
    }
}

impl GraphModel for I2BgnnBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let x = tape.constant(g.x.clone());
        let h = self.l1.forward(tape, ctx, store, &g.gsg_adj, x);
        let h = self.l2.forward(tape, ctx, store, &g.gsg_adj, h);
        let pooled = tape.segment_max_pool_rows(h, all_rows(tape, h));
        self.head.forward(tape, ctx, store, pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{predict_model, train_model, TrainConfig};
    use eth_graph::{AccountKind, LocalTx, Subgraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Tensor;

    fn tx(src: usize, dst: usize) -> LocalTx {
        LocalTx { src, dst, value: 1.0, timestamp: 0, fee: 0.0, contract_call: false }
    }

    /// The dense operators the sparse builders replaced: both directions of
    /// every non-self merged edge set to 1, then each non-empty row divided
    /// by its sum for the mean.
    fn dense_reference(g: &GraphTensors, mean: bool) -> Tensor {
        let mut a = Tensor::zeros(g.n, g.n);
        for (u, v) in g.real_edges() {
            if u != v {
                a.set(u, v, 1.0);
                a.set(v, u, 1.0);
            }
        }
        for r in 0..g.n {
            let s: f32 = a.row(r).iter().sum();
            if mean && s > 0.0 {
                for x in a.row_mut(r) {
                    *x /= s;
                }
            }
        }
        a
    }

    #[test]
    fn sparse_operators_match_the_dense_construction_bitwise() {
        // 0 <-> 1 is a reciprocal pair, 2 -> 2 a self-transaction and 3 an
        // isolated node, so its rows stay empty.
        let sub = Subgraph::from_parts(
            (0..4).collect(),
            vec![AccountKind::Eoa; 4],
            vec![tx(0, 1), tx(1, 0), tx(2, 2), tx(1, 2)],
            Some(0),
        );
        let g = GraphTensors::from_subgraph(&sub, 3);
        let edges = g.real_edges();
        assert!(edges.contains(&(0, 1)) && edges.contains(&(1, 0)), "{edges:?}");
        assert!(edges.contains(&(2, 2)), "{edges:?}");
        for (sparse, mean) in [(sum_operator(&g), false), (mean_operator(&g), true)] {
            let dense = dense_reference(&g, mean);
            assert_eq!(*sparse, Csr::from_dense(&dense), "mean = {mean}");
            assert_eq!(sparse.to_dense().to_bits_vec(), dense.to_bits_vec(), "mean = {mean}");
        }
    }

    /// Dense high-value star vs sparse chain: separable by any GNN.
    fn toy_pair() -> (GraphTensors, GraphTensors) {
        let star = Subgraph::from_parts(
            (0..5).collect(),
            vec![AccountKind::Eoa; 5],
            (1..5)
                .map(|i| LocalTx {
                    src: 0,
                    dst: i,
                    value: 50.0,
                    timestamp: i as u64 * 10,
                    fee: 0.01,
                    contract_call: false,
                })
                .collect(),
            Some(1),
        );
        let chain = Subgraph::from_parts(
            (0..3).collect(),
            vec![AccountKind::Eoa; 3],
            vec![LocalTx {
                src: 0,
                dst: 1,
                value: 0.1,
                timestamp: 7,
                fee: 0.0,
                contract_call: false,
            }],
            Some(0),
        );
        (GraphTensors::from_subgraph(&star, 3), GraphTensors::from_subgraph(&chain, 3))
    }

    fn fits_toy<M: GraphModel>(build: impl Fn(&mut ParamStore, &mut StdRng) -> M) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let model = build(&mut store, &mut rng);
        let (pos, neg) = toy_pair();
        let graphs = vec![&pos, &neg];
        train_model(
            &model,
            &mut store,
            &graphs,
            TrainConfig { epochs: 120, batch_size: 2, lr: 0.02, seed: 1 },
        );
        let scores = predict_model(&model, &store, &graphs);
        assert!(scores[0] > 0.7 && scores[1] < 0.3, "model failed to fit toy pair: {scores:?}");
    }

    #[test]
    fn gcn_fits_toy() {
        fits_toy(|s, r| GcnBaseline::new(s, r, 15, 16));
    }

    #[test]
    fn gat_fits_toy() {
        fits_toy(|s, r| GatBaseline::new(s, r, 15, 16, 2));
    }

    #[test]
    fn gin_fits_toy() {
        fits_toy(|s, r| GinBaseline::new(s, r, 15, 16));
    }

    #[test]
    fn sage_fits_toy() {
        fits_toy(|s, r| SageBaseline::new(s, r, 15, 16));
    }

    #[test]
    fn appnp_fits_toy() {
        fits_toy(|s, r| AppnpBaseline::new(s, r, 15, 16));
    }

    #[test]
    fn i2bgnn_fits_toy() {
        fits_toy(|s, r| I2BgnnBaseline::new(s, r, 15, 16));
    }
}
