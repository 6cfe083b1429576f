//! The global static account transaction encoding module (Section IV-A):
//! node feature alignment (Eq. 6), a stack of node-level graph attention
//! layers (Eqs. 7-9) and graph-level attention pooling (Eqs. 10-13).

use crate::batch::GsgBatch;
use nn::{Activation, Ctx, Linear, ParamId, ParamStore};
use rand::Rng;
use tensor::{Tape, Tensor, Var};

use crate::layers::GatLayer;

/// Configuration of the GSG encoder.
#[derive(Clone, Copy, Debug)]
pub struct GsgConfig {
    /// Hidden width (paper: 128).
    pub hidden: usize,
    /// Number of node-level GAT layers (paper: 2).
    pub layers: usize,
    /// Attention heads per layer (hidden must be divisible by heads).
    pub heads: usize,
    /// Output embedding width.
    pub d_out: usize,
    /// Number of classes for the logits head.
    pub n_classes: usize,
    /// Concatenate the centre account's final representation to the graph
    /// embedding before the heads (on by default; the subgraph label is a
    /// property of its centre). Disable for the design ablation.
    pub use_center: bool,
}

impl Default for GsgConfig {
    fn default() -> Self {
        Self { hidden: 64, layers: 2, heads: 2, d_out: 32, n_classes: 2, use_center: true }
    }
}

/// Hierarchical attention encoder for the Global Static Graph.
pub struct GsgEncoder {
    pub config: GsgConfig,
    /// Θx of Eq. 6: aligns `[x_j || r_ij]` to the hidden width.
    align: Linear,
    gats: Vec<GatLayer>,
    /// Θs of Eq. 11: graph-level attention scores from `[c || H_j]`.
    s_attn: ParamId,
    /// Θg of Eq. 13.
    theta_g: ParamId,
    /// Classification head producing the GSG's raw prediction value `g`.
    head: Linear,
    /// Projection head for the contrastive objective.
    proj: Linear,
}

/// Output of one GSG forward pass over a packed batch of `B` graphs; row
/// `g` of each output belongs to graph `g`.
pub struct GsgOutput {
    /// Graph embedding `g` of Eq. 13 (with the centre embedding appended
    /// when `use_center`), shape `(B, emb_width)`.
    pub embedding: Var,
    /// Class logits, shape `(B, n_classes)`.
    pub logits: Var,
    /// Contrastive projection, shape `(B, d_out)`.
    pub projection: Var,
}

impl GsgEncoder {
    /// An encoder over `d_in`-wide node features (15 for the deep
    /// features, 1 without node features).
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, d_in: usize, config: GsgConfig) -> Self {
        assert!(config.hidden.is_multiple_of(config.heads), "hidden must divide by heads");
        let per_head = config.hidden / config.heads;
        let align = Linear::new(
            store,
            rng,
            "gsg.align",
            d_in + 2,
            config.hidden,
            Activation::LeakyRelu(0.2),
        );
        let gats = (0..config.layers)
            .map(|l| {
                GatLayer::new(
                    store,
                    rng,
                    &format!("gsg.gat{l}"),
                    config.hidden,
                    per_head,
                    config.heads,
                )
            })
            .collect();
        let s_attn = store.xavier("gsg.s_attn", 2 * config.hidden, 1, rng);
        let theta_g = store.xavier("gsg.theta_g", config.hidden, config.d_out, rng);
        let emb_width = if config.use_center { 2 * config.d_out } else { config.d_out };
        let head =
            Linear::new(store, rng, "gsg.head", emb_width, config.n_classes, Activation::None);
        let proj = Linear::new(store, rng, "gsg.proj", emb_width, config.d_out, Activation::None);
        Self { config, align, gats, s_attn, theta_g, head, proj }
    }

    /// Encode a packed mini-batch in one pass. This is the encoder's only
    /// forward: training packs a mini-batch, scoring packs one account
    /// alone. Row `g` of every output is bit-identical to the output of
    /// graph `g` packed alone.
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        batch: &GsgBatch,
    ) -> GsgOutput {
        let xv = tape.constant_copy(&batch.x);
        self.forward_batch_with_x(tape, ctx, store, batch, xv)
    }

    /// [`GsgEncoder::forward_batch`] with the packed node features already on
    /// the tape (gradient-carrying when the caller needs input gradients).
    ///
    /// Dense layers are row-independent, message passing uses the
    /// pre-shifted global edge lists, and the per-graph reductions are
    /// segment ops (each pinned bit-identical to the per-graph chain it
    /// fuses — see the op docs on `Tape`), so no output row depends on what
    /// else shares the batch.
    ///
    /// Only `h` carries from one GAT layer into the next, and only the
    /// three outputs leave the forward, so at each layer's end and at the
    /// forward's end [`Tape::release_since`] hands the pool every value
    /// recorded here that no backward arm reads (on a scoring tape, every
    /// one): the next layer, or the next forward on the same tape (training
    /// runs the batch and its two augmented views), draws those buffers.
    pub fn forward_batch_with_x(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        batch: &GsgBatch,
        xv: Var,
    ) -> GsgOutput {
        let n_total = batch.n_total();
        let mark = tape.len();
        let ef = tape.constant_copy(&batch.edge_feat);

        // Eq. 6 — alignment, fused across the whole batch.
        let x_src = tape.gather_rows(xv, batch.src.clone());
        let edge_in = tape.concat_cols(x_src, ef);
        let aligned_edges = self.align.forward(tape, ctx, store, edge_in);
        // A pooled copy: a buffer made here and given to the pool at
        // `into_pool` would stay parked there, one more on every forward.
        let zeros = tape.constant_copy(&Tensor::zeros(n_total, 2));
        let node_in = tape.concat_cols(xv, zeros);
        let mut h = self.align.forward(tape, ctx, store, node_in);

        // Eqs. 7-9 — node-level attention. The first layer consumes the
        // aligned per-edge neighbour features; deeper layers gather from h.
        // Destinations never cross graph boundaries, so each softmax segment
        // and scatter row sees only its own graph.
        for (l, gat) in self.gats.iter().enumerate() {
            let src_h = if l == 0 { Some(aligned_edges) } else { None };
            h = gat.forward(tape, ctx, store, h, src_h, &batch.src, &batch.dst, n_total);
            tape.release_since(mark, &[h]);
        }

        // Eq. 10 — per-graph global max pooling, `(B, hidden)`.
        let c = tape.segment_max_pool_rows(h, batch.offsets.clone());

        // Eqs. 11-12 — graph-level attention over nodes ∪ {c}. `all`
        // interleaves each graph's pooled row with its node rows: graph g's
        // segment is `[c_g ‖ h_g]`, with c_g at `all_offsets[g]`.
        let s_attn = ctx.var(tape, store, self.s_attn);
        let stacked = tape.concat_rows(c, h);
        let all = tape.gather_rows(stacked, batch.all_perm.clone());
        let c_rep = tape.gather_rows(all, batch.c_rep_idx.clone());
        let cat = tape.concat_cols(c_rep, all);
        let scores = tape.matmul(cat, s_attn);
        let scores = tape.leaky_relu(scores, 0.2);
        let beta = tape.segment_softmax(scores, batch.all_seg.clone());

        // Eq. 13 — g = Elu(βᵀ (all Θg)) per graph; `seg_matmul_tn` replays
        // a transpose + matmul per segment bit for bit.
        let theta_g = ctx.var(tape, store, self.theta_g);
        let transformed = tape.matmul(all, theta_g);
        let g = tape.seg_matmul_tn(beta, transformed, batch.all_offsets.clone());
        let g = tape.elu(g, 1.0);

        // The subgraph is centred on the target account (local node 0);
        // its final h-hop representation H⁰ʰ "represents the embedded
        // features of the target node" (Section IV-A2). Classify from the
        // graph embedding concatenated with the centre embedding.
        let combined = if self.config.use_center {
            let center_h = tape.gather_rows(h, batch.center_rows.clone());
            let center_e = tape.matmul(center_h, theta_g);
            let center_e = tape.elu(center_e, 1.0);
            tape.concat_cols(g, center_e)
        } else {
            g
        };

        let logits = self.head.forward(tape, ctx, store, combined);
        let projection = self.proj.forward(tape, ctx, store, combined);
        tape.release_since(mark, &[combined, logits, projection]);
        GsgOutput { embedding: combined, logits, projection }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::GsgItem;
    use crate::graphdata::GraphTensors;
    use eth_graph::{AccountKind, LocalTx, Subgraph};
    use features::N_FEATURES;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn pack_one(g: &GraphTensors) -> GsgBatch {
        GsgBatch::pack([GsgItem::from(g)])
    }

    fn toy_graph(label: usize) -> GraphTensors {
        let g = Subgraph::from_parts(
            vec![0, 1, 2, 3],
            vec![AccountKind::Eoa; 4],
            vec![
                LocalTx {
                    src: 0,
                    dst: 1,
                    value: 5.0,
                    timestamp: 10,
                    fee: 0.01,
                    contract_call: false,
                },
                LocalTx {
                    src: 1,
                    dst: 2,
                    value: 2.0,
                    timestamp: 20,
                    fee: 0.01,
                    contract_call: false,
                },
                LocalTx {
                    src: 3,
                    dst: 0,
                    value: 9.0,
                    timestamp: 30,
                    fee: 0.02,
                    contract_call: false,
                },
                LocalTx {
                    src: 2,
                    dst: 0,
                    value: 1.0,
                    timestamp: 45,
                    fee: 0.01,
                    contract_call: true,
                },
            ],
            Some(label),
        );
        GraphTensors::from_subgraph(&g, 3)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let enc = GsgEncoder::new(&mut store, &mut rng, N_FEATURES, GsgConfig::default());
        let g = toy_graph(1);
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let out = enc.forward_batch(&mut tape, &mut ctx, &store, &pack_one(&g));
        assert_eq!(tape.value(out.embedding).shape(), (1, 64));
        assert_eq!(tape.value(out.logits).shape(), (1, 2));
        assert_eq!(tape.value(out.projection).shape(), (1, 32));
        assert!(tape.value(out.logits).all_finite());
    }

    /// A scoring pool serves forward after forward (one per scored
    /// account) without parking one more buffer each time.
    #[test]
    fn repeated_forwards_park_no_extra_buffers() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let enc = GsgEncoder::new(&mut store, &mut rng, N_FEATURES, GsgConfig::default());
        let batch = pack_one(&toy_graph(1));
        let mut pool = tensor::BufferPool::new();
        let mut parked = Vec::new();
        for _ in 0..6 {
            let mut tape = Tape::scoring(pool);
            let mut ctx = Ctx::new(&store);
            enc.forward_batch(&mut tape, &mut ctx, &store, &batch);
            pool = tape.into_pool();
            parked.push(pool.buffers());
        }
        // The first forwards grow and reshuffle the pool; then it settles.
        assert_eq!(parked[3], parked[5], "buffers parked after each forward: {parked:?}");
    }

    #[test]
    fn gradients_flow_to_every_parameter_family() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let enc = GsgEncoder::new(&mut store, &mut rng, N_FEATURES, GsgConfig::default());
        let g = toy_graph(1);
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let out = enc.forward_batch(&mut tape, &mut ctx, &store, &pack_one(&g));
        let loss = tape.cross_entropy(out.logits, Arc::new(vec![1]));
        tape.backward(loss);
        ctx.accumulate_grads(&tape, &mut store);
        // Alignment, attention, pooling and head parameters all get grads.
        for name in ["gsg.align.w", "gsg.gat0.h0.w", "gsg.s_attn", "gsg.theta_g", "gsg.head.w"] {
            let id = store.find(name).unwrap_or_else(|| panic!("param {name} not found"));
            let norm: f32 = store.grad(id).data().iter().map(|x| x * x).sum();
            assert!(norm > 0.0, "no gradient for {name}");
        }
    }

    /// A second toy graph: a five-account star around the centre plus one
    /// rim edge.
    fn star_graph(label: usize) -> GraphTensors {
        let tx = |src: usize, dst: usize, i: u64| LocalTx {
            src,
            dst,
            value: 0.5 + i as f64,
            timestamp: 100 * i,
            fee: 0.001,
            contract_call: i.is_multiple_of(3),
        };
        let g = Subgraph::from_parts(
            (0..5).collect(),
            vec![AccountKind::Eoa; 5],
            vec![tx(1, 0, 1), tx(2, 0, 2), tx(0, 3, 3), tx(0, 4, 4), tx(3, 4, 5)],
            Some(label),
        );
        GraphTensors::from_subgraph(&g, 3)
    }

    /// Every gradient bit of one GSG training step with two GAT layers, as
    /// the trainer runs it: the batch and both augmented views forwarded on
    /// one tape, cross-entropy plus the weighted contrastive loss.
    #[test]
    fn training_step_gradients_are_pinned() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let cfg = GsgConfig { hidden: 16, heads: 2, d_out: 8, layers: 2, ..Default::default() };
        let enc = GsgEncoder::new(&mut store, &mut rng, N_FEATURES, cfg);
        let graphs = [toy_graph(1), star_graph(0), toy_graph(0)];
        let views: Vec<_> = graphs
            .iter()
            .map(|g| {
                let v1 = crate::augment(g, crate::AugmentConfig::view1(), &mut rng);
                let v2 = crate::augment(g, crate::AugmentConfig::view2(), &mut rng);
                (v1, v2)
            })
            .collect();
        let mut tape = Tape::with_pool(tensor::BufferPool::new());
        let mut ctx = Ctx::new(&store);
        let batch = GsgBatch::pack(graphs.iter().map(GsgItem::from));
        let out = enc.forward_batch(&mut tape, &mut ctx, &store, &batch);
        let b1 = GsgBatch::pack(views.iter().map(|(v1, _)| GsgItem::from(v1)));
        let o1 = enc.forward_batch(&mut tape, &mut ctx, &store, &b1);
        let b2 = GsgBatch::pack(views.iter().map(|(_, v2)| GsgItem::from(v2)));
        let o2 = enc.forward_batch(&mut tape, &mut ctx, &store, &b2);
        let targets = graphs.iter().map(|g| g.label.unwrap()).collect();
        let ce = tape.cross_entropy(out.logits, Arc::new(targets));
        let con = crate::nt_xent(&mut tape, o1.projection, o2.projection, 0.5);
        let weighted = tape.scale(con, 0.3);
        let loss = tape.add(ce, weighted);
        tape.backward(loss);
        ctx.accumulate_grads(&tape, &mut store);
        let got = crate::testutil::grad_digest(&store, tape.value(loss).item());
        assert_eq!(got, 0xaafd_0a60_d95b_b30a, "GSG training-step gradient digest");
    }

    /// A training tape frees each GAT layer's and each forward's values
    /// that its backward never reads, and the next forward on the tape
    /// draws them. A GSG training step as the trainer runs it (the batch
    /// and its two augmented views, cross-entropy plus NT-Xent, backward)
    /// peaks under 2.44× the live bytes of one forward with cross-entropy;
    /// 2.37× with the release, 2.50× when a training tape keeps every value.
    #[test]
    fn training_tape_frees_what_backward_never_reads() {
        let ring = |n: usize, label: usize| {
            let txs = (0..2 * n)
                .map(|i| LocalTx {
                    src: i % n,
                    dst: if i < n { (i + 1) % n } else { (i * 7 + 3) % n },
                    value: 1.0 + i as f64,
                    timestamp: 10 * i as u64,
                    fee: 0.001,
                    contract_call: i.is_multiple_of(5),
                })
                .collect();
            let ids = (0..n).collect();
            let g = Subgraph::from_parts(ids, vec![AccountKind::Eoa; n], txs, Some(label));
            GraphTensors::from_subgraph(&g, 3)
        };
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let enc = GsgEncoder::new(&mut store, &mut rng, N_FEATURES, GsgConfig::default());
        let graphs = [ring(40, 1), ring(31, 0), ring(23, 1)];
        let views: Vec<_> = graphs
            .iter()
            .map(|g| {
                let v1 = crate::augment(g, crate::AugmentConfig::view1(), &mut rng);
                let v2 = crate::augment(g, crate::AugmentConfig::view2(), &mut rng);
                (v1, v2)
            })
            .collect();
        let live = |with_views: bool| {
            let mut tape = Tape::with_pool(tensor::BufferPool::new());
            let mut ctx = Ctx::new(&store);
            let batch = GsgBatch::pack(graphs.iter().map(GsgItem::from));
            let out = enc.forward_batch(&mut tape, &mut ctx, &store, &batch);
            let targets = graphs.iter().map(|g| g.label.unwrap()).collect();
            let mut loss = tape.cross_entropy(out.logits, Arc::new(targets));
            if with_views {
                let b1 = GsgBatch::pack(views.iter().map(|(v1, _)| GsgItem::from(v1)));
                let o1 = enc.forward_batch(&mut tape, &mut ctx, &store, &b1);
                let b2 = GsgBatch::pack(views.iter().map(|(_, v2)| GsgItem::from(v2)));
                let o2 = enc.forward_batch(&mut tape, &mut ctx, &store, &b2);
                let con = crate::nt_xent(&mut tape, o1.projection, o2.projection, 0.5);
                loss = tape.add(loss, con);
            }
            tape.backward(loss);
            tape.into_pool().stats().peak_live_bytes
        };
        let (one, three) = (live(false), live(true));
        assert!(three * 100 < one * 244, "three forwards peak at {three} live B, one {one} B");
    }

    #[test]
    fn training_separates_two_toy_classes() {
        // Class 0: chain topology with small values; class 1: star with a
        // huge hub. The encoder should fit these two graphs perfectly.
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let cfg = GsgConfig { hidden: 16, heads: 2, d_out: 8, ..Default::default() };
        let enc = GsgEncoder::new(&mut store, &mut rng, N_FEATURES, cfg);
        let g1 = toy_graph(1);
        let g0 = {
            let g = Subgraph::from_parts(
                vec![0, 1],
                vec![AccountKind::Eoa; 2],
                vec![LocalTx {
                    src: 0,
                    dst: 1,
                    value: 0.1,
                    timestamp: 5,
                    fee: 0.0,
                    contract_call: false,
                }],
                Some(0),
            );
            GraphTensors::from_subgraph(&g, 3)
        };
        let (b1, b0) = (pack_one(&g1), pack_one(&g0));
        let mut opt = nn::Adam::new(0.01);
        let mut last = f32::MAX;
        for _ in 0..60 {
            store.zero_grad();
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(&store);
            let o1 = enc.forward_batch(&mut tape, &mut ctx, &store, &b1);
            let o0 = enc.forward_batch(&mut tape, &mut ctx, &store, &b0);
            let logits = tape.concat_rows(o1.logits, o0.logits);
            let loss = tape.cross_entropy(logits, Arc::new(vec![1, 0]));
            last = tape.value(loss).item();
            tape.backward(loss);
            ctx.accumulate_grads(&tape, &mut store);
            opt.step(&mut store);
        }
        assert!(last < 0.1, "GSG failed to fit toy pair: loss {last}");
    }
}
