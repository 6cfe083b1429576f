//! Message-passing layers: GCN, GAT, GIN, GraphSAGE and APPNP propagation.
//!
//! All layers are built on the autodiff tape. The operators GCN, APPNP,
//! GIN and GraphSAGE propagate over stay off it as shared constant [`Csr`]
//! matrices multiplied with [`Tape::spmm`].

use nn::{Activation, Ctx, Linear, Mlp, ParamId, ParamStore};
use rand::Rng;
use std::sync::Arc;
use tensor::{Csr, Tape, Var};

/// Graph convolution (Kipf & Welling): `act(Â H W + b)` where `Â` is the
/// symmetrically normalised adjacency.
pub struct GcnLayer {
    linear: Linear,
}

impl GcnLayer {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_out: usize,
        act: Activation,
    ) -> Self {
        Self { linear: Linear::new(store, rng, name, d_in, d_out, act) }
    }

    /// `Â H` with the adjacency off the tape as a constant [`Csr`]:
    /// O(nnz · d) per product, bit-identical to the dense zero-skipping
    /// matmul (see the ordering contract on [`Csr`]), and the adjacency
    /// never gets a gradient.
    pub fn forward(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        adj: &Arc<Csr>,
        h: Var,
    ) -> Var {
        let agg = tape.spmm(adj, h);
        self.linear.forward(tape, ctx, store, agg)
    }

    /// The same layer over a stack of `B` dense square adjacencies on the
    /// tape — the learned, pooled graphs of DiffPool's later stages: `adj`
    /// is `(B·c, c)` with block `s` in rows `s·c..(s+1)·c`, and `h` is
    /// `(B·c, d)`. Each block's product is bit-identical to a per-graph
    /// dense matmul (see `Tape::seg_block_matmul`).
    pub fn forward_blocked(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        adj: Var,
        h: Var,
    ) -> Var {
        let agg = tape.seg_block_matmul(adj, h);
        self.linear.forward(tape, ctx, store, agg)
    }
}

/// One single-head graph attention layer (Velickovic et al.), matching
/// Eqs. 7-9: per-edge scores from `[H_i || H_j]`, per-destination softmax,
/// ELU aggregation. Multi-head attention concatenates several of these.
pub struct GatHead {
    w: ParamId,
    attn: ParamId,
    pub negative_slope: f32,
}

impl GatHead {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_out: usize,
    ) -> Self {
        Self {
            w: store.xavier(format!("{name}.w"), d_in, d_out, rng),
            attn: store.xavier(format!("{name}.a"), 2 * d_out, 1, rng),
            negative_slope: 0.2,
        }
    }

    /// `src_h` optionally overrides the per-edge source representations
    /// (used by the alignment layer of Eq. 6 where neighbour features are
    /// fused with edge features); when `None` they are gathered from `h`.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        h: Var,
        src_h: Option<Var>,
        src: &Arc<Vec<usize>>,
        dst: &Arc<Vec<usize>>,
        n: usize,
    ) -> Var {
        let w = ctx.var(tape, store, self.w);
        let a = ctx.var(tape, store, self.attn);
        let hs = match src_h {
            Some(s) => tape.matmul(s, w),
            None => {
                let hw = tape.matmul(h, w);
                tape.gather_rows(hw, src.clone())
            }
        };
        let hw = tape.matmul(h, w);
        let hd = tape.gather_rows(hw, dst.clone());
        let cat = tape.concat_cols(hs, hd);
        let score = tape.matmul(cat, a);
        let score = tape.leaky_relu(score, self.negative_slope);
        let alpha = tape.segment_softmax(score, dst.clone());
        let msg = tape.mul_col_broadcast(hs, alpha);
        let agg = tape.scatter_add_rows(msg, dst.clone(), n);
        tape.elu(agg, 1.0)
    }
}

/// Multi-head GAT: heads are concatenated (the usual hidden-layer variant).
pub struct GatLayer {
    pub heads: Vec<GatHead>,
}

impl GatLayer {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_out_per_head: usize,
        n_heads: usize,
    ) -> Self {
        let heads = (0..n_heads)
            .map(|k| GatHead::new(store, rng, &format!("{name}.h{k}"), d_in, d_out_per_head))
            .collect();
        Self { heads }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        h: Var,
        src_h: Option<Var>,
        src: &Arc<Vec<usize>>,
        dst: &Arc<Vec<usize>>,
        n: usize,
    ) -> Var {
        let mut out: Option<Var> = None;
        for head in &self.heads {
            let o = head.forward(tape, ctx, store, h, src_h, src, dst, n);
            out = Some(match out {
                None => o,
                Some(acc) => tape.concat_cols(acc, o),
            });
        }
        out.expect("GAT layer needs at least one head")
    }
}

/// Graph isomorphism layer (Xu et al.): `MLP((1 + ε) h_i + Σ_j h_j)`.
/// `ε` is fixed to 0 (GIN-0), the common strong default.
pub struct GinLayer {
    mlp: Mlp,
}

impl GinLayer {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_out: usize,
    ) -> Self {
        Self { mlp: Mlp::new(store, rng, name, &[d_in, d_out, d_out], Activation::Relu) }
    }

    /// `adj_unnorm` is the raw (0/1 or weighted) adjacency without
    /// self-loops; the `(1 + ε) h` term supplies the self-contribution.
    pub fn forward(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        adj_unnorm: &Arc<Csr>,
        h: Var,
    ) -> Var {
        let agg = tape.spmm(adj_unnorm, h);
        let summed = tape.add(agg, h);
        self.mlp.forward(tape, ctx, store, summed)
    }
}

/// GraphSAGE with mean aggregation: `act([h_i || mean_j h_j] W + b)`.
pub struct SageLayer {
    linear: Linear,
}

impl SageLayer {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_out: usize,
        act: Activation,
    ) -> Self {
        Self { linear: Linear::new(store, rng, name, 2 * d_in, d_out, act) }
    }

    /// `adj_rownorm` must be a row-normalised neighbour-mean operator.
    pub fn forward(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        adj_rownorm: &Arc<Csr>,
        h: Var,
    ) -> Var {
        let mean = tape.spmm(adj_rownorm, h);
        let cat = tape.concat_cols(h, mean);
        self.linear.forward(tape, ctx, store, cat)
    }
}

/// APPNP propagation (Klicpera et al.): `Z ← (1 − α) Â Z + α Z₀`, iterated
/// `k` times after a feature MLP (which the caller owns).
pub fn appnp_propagate(tape: &mut Tape, adj: &Arc<Csr>, z0: Var, alpha: f32, k: usize) -> Var {
    let mut z = z0;
    for _ in 0..k {
        let prop = tape.spmm(adj, z);
        let scaled = tape.scale(prop, 1.0 - alpha);
        let teleport = tape.scale(z0, alpha);
        z = tape.add(scaled, teleport);
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Tensor;

    fn setup() -> (ParamStore, StdRng) {
        (ParamStore::new(), StdRng::seed_from_u64(9))
    }

    fn line_graph_edges() -> (Arc<Vec<usize>>, Arc<Vec<usize>>) {
        // 0 -> 1 -> 2, plus self-loops.
        (Arc::new(vec![0, 1, 0, 1, 2]), Arc::new(vec![1, 2, 0, 1, 2]))
    }

    #[test]
    fn gcn_layer_shapes() {
        let (mut store, mut rng) = setup();
        let layer = GcnLayer::new(&mut store, &mut rng, "g", 4, 8, Activation::Relu);
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let adj = Arc::new(Csr::from_dense(&Tensor::eye(3)));
        let h = tape.leaf(Tensor::ones(3, 4));
        let out = layer.forward(&mut tape, &mut ctx, &store, &adj, h);
        assert_eq!(tape.value(out).shape(), (3, 8));
    }

    #[test]
    fn gcn_sparse_forward_and_backward_bit_equal_dense() {
        let (mut store, mut rng) = setup();
        let layer = GcnLayer::new(&mut store, &mut rng, "g", 4, 8, Activation::Relu);
        let adj_dense = Tensor::from_vec(3, 3, vec![0.7, 0.0, 0.1, 0.0, 0.5, 0.0, 0.1, 0.0, 0.9]);
        let h0 = Tensor::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1 - 0.5);

        let mut td = Tape::new();
        let mut cd = Ctx::new(&store);
        let adj = td.leaf(adj_dense.clone());
        let hd = td.leaf(h0.clone());
        let agg = td.matmul(adj, hd);
        let outd = layer.linear.forward(&mut td, &mut cd, &store, agg);
        let lossd = td.sum_all(outd);
        td.backward(lossd);

        let csr = Arc::new(Csr::from_dense(&adj_dense));
        let mut ts = Tape::new();
        let mut cs = Ctx::new(&store);
        let hs = ts.leaf(h0);
        let outs = layer.forward(&mut ts, &mut cs, &store, &csr, hs);
        let losss = ts.sum_all(outs);
        ts.backward(losss);

        assert_eq!(td.value(outd).to_bits_vec(), ts.value(outs).to_bits_vec());
        assert_eq!(td.grad(hd).unwrap().to_bits_vec(), ts.grad(hs).unwrap().to_bits_vec());
        // Parameter gradients must agree too.
        store.zero_grad();
        cd.accumulate_grads(&td, &mut store);
        let dense_grads: Vec<Vec<u32>> =
            store.ids().map(|id| store.grad(id).to_bits_vec()).collect();
        store.zero_grad();
        cs.accumulate_grads(&ts, &mut store);
        let sparse_grads: Vec<Vec<u32>> =
            store.ids().map(|id| store.grad(id).to_bits_vec()).collect();
        assert_eq!(dense_grads, sparse_grads);
    }

    #[test]
    fn gat_attention_normalised_and_differentiable() {
        let (mut store, mut rng) = setup();
        let layer = GatLayer::new(&mut store, &mut rng, "gat", 4, 5, 2);
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let (src, dst) = line_graph_edges();
        let h = tape.leaf(Tensor::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1));
        let out = layer.forward(&mut tape, &mut ctx, &store, h, None, &src, &dst, 3);
        assert_eq!(tape.value(out).shape(), (3, 10)); // 2 heads x 5
        let loss = tape.sum_all(out);
        tape.backward(loss);
        ctx.accumulate_grads(&tape, &mut store);
        assert!(store.grad_norm() > 0.0, "no gradient reached GAT params");
    }

    #[test]
    fn gat_isolated_node_keeps_self_message() {
        // A node with only its self-loop must still produce finite output.
        let (mut store, mut rng) = setup();
        let layer = GatHead::new(&mut store, &mut rng, "g", 2, 3);
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let src = Arc::new(vec![0usize, 1]);
        let dst = Arc::new(vec![0usize, 1]);
        let h = tape.leaf(Tensor::from_vec(2, 2, vec![1.0, 2.0, -1.0, 0.5]));
        let out = layer.forward(&mut tape, &mut ctx, &store, h, None, &src, &dst, 2);
        assert!(tape.value(out).all_finite());
    }

    /// The path 0 - 1 - 2 as its neighbour operator with `weight(deg)` per
    /// entry, and integer node features `h[r][c] = 4r² + c + 1`.
    fn path_graph(weight: impl Fn(f32) -> f32) -> (Arc<Csr>, Tensor) {
        let deg = [1.0, 2.0, 1.0];
        let pairs = [(0, 1), (1, 0), (1, 2), (2, 1)];
        let entries: Vec<_> = pairs.iter().map(|&(u, v)| (u, v, weight(deg[u]))).collect();
        let h = Tensor::from_fn(3, 2, |r, c| (4 * r * r + c + 1) as f32);
        (Arc::new(Csr::from_triplets(3, 3, &entries)), h)
    }

    #[test]
    fn gin_layer_uses_sum_aggregation() {
        let (mut store, mut rng) = setup();
        let layer = GinLayer::new(&mut store, &mut rng, "gin", 2, 6);
        let (adj, h0) = path_graph(|_| 1.0);
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let h = tape.leaf(h0);
        let out = layer.forward(&mut tape, &mut ctx, &store, &adj, h);
        assert_eq!(tape.value(out).shape(), (3, 6));
        // h_i + Σ_j h_j: rows [1, 2], [5, 6], [17, 18] sum to these exactly.
        let summed = tape.leaf(Tensor::from_vec(3, 2, vec![6.0, 8.0, 23.0, 26.0, 22.0, 24.0]));
        let want = layer.mlp.forward(&mut tape, &mut ctx, &store, summed);
        assert_eq!(tape.value(out).to_bits_vec(), tape.value(want).to_bits_vec());
    }

    #[test]
    fn sage_layer_concatenates_self_and_mean() {
        let (mut store, mut rng) = setup();
        let layer = SageLayer::new(&mut store, &mut rng, "sage", 2, 4, Activation::Relu);
        let (adj, h0) = path_graph(|deg| 1.0 / deg);
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let h = tape.leaf(h0);
        let out = layer.forward(&mut tape, &mut ctx, &store, &adj, h);
        assert_eq!(tape.value(out).shape(), (3, 4));
        // [h_i || mean_j h_j]: node 1 averages rows [1, 2] and [17, 18].
        let cat = tape.leaf(Tensor::from_vec(
            3,
            4,
            vec![1.0, 2.0, 5.0, 6.0, 5.0, 6.0, 9.0, 10.0, 17.0, 18.0, 5.0, 6.0],
        ));
        let want = layer.linear.forward(&mut tape, &mut ctx, &store, cat);
        assert_eq!(tape.value(out).to_bits_vec(), tape.value(want).to_bits_vec());
    }

    #[test]
    fn appnp_zero_alpha_is_pure_propagation_one_is_identity() {
        let mut tape = Tape::new();
        let adj = Arc::new(Csr::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]));
        let z0 = tape.leaf(Tensor::from_vec(2, 1, vec![1.0, 0.0]));
        let z_id = appnp_propagate(&mut tape, &adj, z0, 1.0, 3);
        assert_eq!(tape.value(z_id).data(), &[1.0, 0.0]);
        let z_prop = appnp_propagate(&mut tape, &adj, z0, 0.0, 1);
        assert_eq!(tape.value(z_prop).data(), &[0.0, 1.0]); // swapped by A
    }
}
