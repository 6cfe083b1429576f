//! Transformer-style baselines: GRIT (graph transformer without message
//! passing) and BERT4ETH (sequence transformer over the centre account's
//! transactions). Both are reduced-scale reimplementations that keep the
//! architectural shape of the originals.

use crate::harness::{all_rows, GraphModel};
use gnn::GraphTensors;
use nn::{Activation, Ctx, Linear, Mlp, ParamId, ParamStore};
use rand::Rng;
use tensor::{Tape, Tensor, Var};

/// One pre-norm-free self-attention block with a feed-forward sublayer and
/// residual connections.
pub struct AttentionBlock {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    ffn: Mlp,
    scale: f32,
}

impl AttentionBlock {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, name: &str, d: usize) -> Self {
        Self {
            wq: store.xavier(format!("{name}.wq"), d, d, rng),
            wk: store.xavier(format!("{name}.wk"), d, d, rng),
            wv: store.xavier(format!("{name}.wv"), d, d, rng),
            ffn: Mlp::new(store, rng, &format!("{name}.ffn"), &[d, 2 * d, d], Activation::Relu),
            scale: 1.0 / (d as f32).sqrt(),
        }
    }

    /// `bias` is an optional `(n, n)` additive attention bias (GRIT injects
    /// graph structure here); `x` is `(n, d)`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        x: Var,
        bias: Option<Var>,
    ) -> Var {
        let wq = ctx.var(tape, store, self.wq);
        let wk = ctx.var(tape, store, self.wk);
        let wv = ctx.var(tape, store, self.wv);
        let q = tape.matmul(x, wq);
        let k = tape.matmul(x, wk);
        let v = tape.matmul(x, wv);
        let kt = tape.transpose(k);
        let scores = tape.matmul(q, kt);
        let mut scores = tape.scale(scores, self.scale);
        if let Some(b) = bias {
            scores = tape.add(scores, b);
        }
        let attn = tape.softmax_rows(scores);
        let mixed = tape.matmul(attn, v);
        let res1 = tape.add(x, mixed);
        let ffn_out = self.ffn.forward(tape, ctx, store, res1);
        tape.add(res1, ffn_out)
    }
}

/// GRIT-lite: tokens are nodes; graph structure enters only through a
/// learned additive attention bias on the adjacency and a degree channel —
/// no message passing.
pub struct GritBaseline {
    embed: Linear,
    blocks: Vec<AttentionBlock>,
    /// Scalar weight of the adjacency attention bias.
    adj_bias: ParamId,
    head: Linear,
}

impl GritBaseline {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, d_in: usize, hidden: usize) -> Self {
        Self {
            // +1 input channel for the degree encoding.
            embed: Linear::new(store, rng, "grit.embed", d_in + 1, hidden, Activation::None),
            blocks: (0..2)
                .map(|i| AttentionBlock::new(store, rng, &format!("grit.b{i}"), hidden))
                .collect(),
            adj_bias: store.add("grit.adj_bias", Tensor::scalar(1.0)),
            head: Linear::new(store, rng, "grit.head", hidden, 2, Activation::None),
        }
    }
}

impl GraphModel for GritBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        // Degree encoding appended to node features.
        let mut deg = vec![0.0f32; g.n];
        for (u, v) in g.real_edges() {
            deg[u] += 1.0;
            deg[v] += 1.0;
        }
        let deg_col = Tensor::from_fn(g.n, 1, |r, _| (1.0 + deg[r]).ln() * 0.2);
        let x = tape.constant(g.x.concat_cols(&deg_col));
        let h0 = self.embed.forward(tape, ctx, store, x);

        // Additive structural bias: b · Â (learned scalar times normalised
        // adjacency).
        let adj = tape.constant(g.gsg_adj.to_dense());
        let b = ctx.var(tape, store, self.adj_bias);
        let ones = tape.constant(Tensor::ones(g.n, 1));
        let b_col = tape.matmul(ones, b); // (n, 1) of b
        let bias = tape.mul_col_broadcast(adj, b_col);

        let mut h = h0;
        for block in &self.blocks {
            h = block.forward(tape, ctx, store, h, Some(bias));
        }
        let pooled = tape.segment_mean_pool_rows(h, all_rows(tape, h));
        self.head.forward(tape, ctx, store, pooled)
    }
}

/// Sinusoidal positional encodings, `(len, d)`.
fn positional_encoding(len: usize, d: usize) -> Tensor {
    Tensor::from_fn(len, d, |pos, i| {
        let rate = 1.0 / 10_000f32.powf((2 * (i / 2)) as f32 / d as f32);
        let angle = pos as f32 * rate;
        if i % 2 == 0 {
            angle.sin()
        } else {
            angle.cos()
        }
    })
}

/// BERT4ETH-lite: a small Transformer encoder over the centre account's
/// transaction sequence, trained from scratch (the original is pre-trained
/// at scale; the architectural shape — sequence attention over transaction
/// tokens — is preserved).
pub struct Bert4EthBaseline {
    embed: Linear,
    blocks: Vec<AttentionBlock>,
    head: Linear,
    hidden: usize,
}

impl Bert4EthBaseline {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, hidden: usize) -> Self {
        Self {
            embed: Linear::new(store, rng, "bert.embed", 5, hidden, Activation::None),
            blocks: (0..2)
                .map(|i| AttentionBlock::new(store, rng, &format!("bert.b{i}"), hidden))
                .collect(),
            head: Linear::new(store, rng, "bert.head", hidden, 2, Activation::None),
            hidden,
        }
    }
}

impl GraphModel for Bert4EthBaseline {
    fn forward(&self, tape: &mut Tape, ctx: &mut Ctx, store: &ParamStore, g: &GraphTensors) -> Var {
        let seq = tape.constant(g.center_seq.clone());
        let mut h = self.embed.forward(tape, ctx, store, seq);
        let pe = tape.constant(positional_encoding(g.center_seq.rows(), self.hidden));
        h = tape.add(h, pe);
        for block in &self.blocks {
            h = block.forward(tape, ctx, store, h, None);
        }
        let pooled = tape.segment_mean_pool_rows(h, all_rows(tape, h));
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

    fn toy(label: usize, big: bool) -> GraphTensors {
        let v = if big { 80.0 } else { 0.05 };
        let g = Subgraph::from_parts(
            (0..4).collect(),
            vec![AccountKind::Eoa; 4],
            (1..4)
                .map(|i| LocalTx {
                    src: 0,
                    dst: i,
                    value: v,
                    timestamp: i as u64 * 100,
                    fee: 0.001,
                    contract_call: false,
                })
                .collect(),
            Some(label),
        );
        GraphTensors::from_subgraph(&g, 3)
    }

    #[test]
    fn positional_encoding_values() {
        let pe = positional_encoding(4, 6);
        assert_eq!(pe.shape(), (4, 6));
        assert_eq!(pe.get(0, 0), 0.0); // sin(0)
        assert_eq!(pe.get(0, 1), 1.0); // cos(0)
        assert!((pe.get(1, 0) - 1f32.sin()).abs() < 1e-6);
    }

    #[test]
    fn grit_fits_toy_pair() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let model = GritBaseline::new(&mut store, &mut rng, 15, 16);
        let (pos, neg) = (toy(1, true), toy(0, false));
        let graphs = vec![&pos, &neg];
        train_model(
            &model,
            &mut store,
            &graphs,
            TrainConfig { epochs: 100, batch_size: 2, lr: 0.02, seed: 2 },
        );
        let s = predict_model(&model, &store, &graphs);
        assert!(s[0] > 0.7 && s[1] < 0.3, "{s:?}");
    }

    #[test]
    fn bert4eth_fits_toy_pair() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let model = Bert4EthBaseline::new(&mut store, &mut rng, 16);
        let (pos, neg) = (toy(1, true), toy(0, false));
        let graphs = vec![&pos, &neg];
        train_model(
            &model,
            &mut store,
            &graphs,
            TrainConfig { epochs: 100, batch_size: 2, lr: 0.02, seed: 3 },
        );
        let s = predict_model(&model, &store, &graphs);
        assert!(s[0] > 0.7 && s[1] < 0.3, "{s:?}");
    }
}
