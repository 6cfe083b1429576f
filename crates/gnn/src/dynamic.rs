//! The local dynamic account transaction encoding module (Section IV-B):
//! per-slice GCN topological features (Eq. 14), GRU evolution (Eqs. 15-18),
//! DiffPool hierarchical coarsening (Eqs. 19-21) and attention read-out over
//! time slices (Eq. 22) feeding the LDG prediction head (Eq. 23).

use crate::batch::LdgBatch;
use crate::layers::GcnLayer;
use nn::{Activation, Ctx, GruCell, Linear, ParamId, ParamStore};
use rand::Rng;
use std::sync::Arc;
use tensor::{Csr, Tape, Var};

/// Configuration of the LDG encoder.
#[derive(Clone, Copy, Debug)]
pub struct LdgConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Cluster counts of the DiffPool stages; the paper uses two poolings
    /// with `N₁' = 0.1 N` and `N₂' = 1`. We use fixed cluster counts so the
    /// assignment GNNs have fixed shapes across graphs.
    pub pool_clusters: [usize; 3],
    /// Number of pooling stages actually applied (1..=3; paper default 2).
    pub pool_layers: usize,
    /// Output embedding width.
    pub d_out: usize,
    pub n_classes: usize,
    /// Concatenate the centre account's final evolutionary features to the
    /// read-out (on by default; disable for the design ablation).
    pub use_center: bool,
}

impl Default for LdgConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            pool_clusters: [12, 4, 1],
            pool_layers: 2,
            d_out: 32,
            n_classes: 2,
            use_center: true,
        }
    }
}

/// The local dynamic graph encoder.
pub struct LdgEncoder {
    pub config: LdgConfig,
    /// Number of time slices `T` the encoder reads out over (paper: 10).
    pub t_slices: usize,
    input_proj: Linear,
    gcn: GcnLayer,
    gru: GruCell,
    /// One assignment GNN per DiffPool stage (Eq. 19).
    assign: Vec<GcnLayer>,
    /// Read-out time-slice attention logits (Eq. 22's adaptive αₜ).
    time_attn: ParamId,
    /// Θg of Eq. 23.
    theta_g: Linear,
    head: Linear,
}

/// Output of one LDG forward pass over a packed batch of `B` graphs; row
/// `g` of each output belongs to graph `g`.
pub struct LdgOutput {
    /// Read-out embedding `γ` after Eq. 23's ReLU projection, `(B, d_out)`.
    pub embedding: Var,
    /// Class logits `(B, n_classes)`.
    pub logits: Var,
}

impl LdgEncoder {
    /// An encoder over `d_in`-wide node features and `t_slices` time
    /// slices.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        d_in: usize,
        t_slices: usize,
        config: LdgConfig,
    ) -> Self {
        assert!(
            (1..=config.pool_clusters.len()).contains(&config.pool_layers),
            "pool_layers must be within the configured stages"
        );
        let input_proj = Linear::new(store, rng, "ldg.in", d_in, config.hidden, Activation::Tanh);
        let gcn =
            GcnLayer::new(store, rng, "ldg.gcn", config.hidden, config.hidden, Activation::Relu);
        let gru = GruCell::new(store, rng, "ldg.gru", config.hidden);
        let assign = (0..config.pool_layers)
            .map(|i| {
                GcnLayer::new(
                    store,
                    rng,
                    &format!("ldg.assign{i}"),
                    config.hidden,
                    config.pool_clusters[i],
                    Activation::None,
                )
            })
            .collect();
        let time_attn = store.zeros("ldg.time_attn", 1, t_slices);
        let gamma_width = if config.use_center { 2 * config.hidden } else { config.hidden };
        let theta_g =
            Linear::new(store, rng, "ldg.theta_g", gamma_width, config.d_out, Activation::Relu);
        let head =
            Linear::new(store, rng, "ldg.head", config.d_out, config.n_classes, Activation::None);
        Self { config, t_slices, input_proj, gcn, gru, assign, time_attn, theta_g, head }
    }

    /// DiffPool chain for one time slice (Eqs. 19-21 followed by a mean over
    /// the final clusters): `adj_csr` is the slice's block-diagonal
    /// adjacency over the packed node rows, `node_offsets` the per-graph
    /// node segments. Returns `(B, hidden)`.
    ///
    /// Stage 0 consumes the constant CSR adjacency (the `A` side of Eq. 21's
    /// Mᵀ A M goes through the sparse kernel); coarsened stages operate on
    /// small per-graph dense blocks that carry gradients through `M`. The
    /// `gather_rows` identity copy of `M` gives `M`'s gradient a two-level
    /// accumulation tree (`h`-product and `A`-product contributions summed
    /// in a side buffer, then folded into the softmax output's gradient
    /// after the `Â M` contribution), the same tree a `transpose` of `M`
    /// would build; a flat three-way accumulation would associate the same
    /// sums differently and move the golden-trace bits.
    #[allow(clippy::too_many_arguments)]
    fn pool_slice_batch(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        adj_csr: &Arc<Csr>,
        mut h: Var,
        node_offsets: &Arc<Vec<usize>>,
        b: usize,
    ) -> Var {
        let mut adj: Option<Var> = None;
        let mut offsets = node_offsets.clone();
        for (i, stage) in self.assign.iter().enumerate() {
            // Eq. 19: M_t = softmax(GNN(A_t, h_t)), per graph.
            let scores = match adj {
                None => stage.forward(tape, ctx, store, adj_csr, h),
                Some(a) => stage.forward_blocked(tape, ctx, store, a, h),
            };
            let m = tape.softmax_rows(scores);
            let rows = *offsets.last().unwrap();
            let m2 = tape.gather_rows(m, Arc::new((0..rows).collect()));
            // Eq. 20: h_pool = Mᵀ h. Eq. 21: A_pool = Mᵀ A M, per segment.
            h = tape.seg_matmul_tn(m2, h, offsets.clone());
            let am = match adj {
                None => tape.spmm(adj_csr, m),
                Some(a) => tape.seg_block_matmul(a, m),
            };
            adj = Some(tape.seg_matmul_tn(m2, am, offsets.clone()));
            let c = self.config.pool_clusters[i];
            offsets = Arc::new((0..=b).map(|g| g * c).collect());
        }
        tape.segment_mean_pool_rows(h, offsets)
    }

    /// Encode a packed mini-batch in one pass. This is the encoder's only
    /// forward: training packs a mini-batch, scoring packs one account
    /// alone. Row `g` of every output is bit-identical to the output of
    /// graph `g` packed alone. Graphs with fewer than `t_slices` slices reuse
    /// their last adjacency (the packer repeats it).
    ///
    /// Only `h_t` and the pooled slice stack carry from one slice into the
    /// next (Eq. 22), so at each slice's end [`Tape::release_since`] hands
    /// the pool every other value of the slice that no backward arm reads,
    /// and the next slice reuses those buffers while they are still in
    /// cache. A scoring tape ([`Tape::scoring`]) has no backward and
    /// releases every such value; a training tape keeps what its backward
    /// pass reads (GEMM operands, activation inputs or outputs) and frees
    /// the rest of the slice's GCN, GRU and DiffPool temporaries.
    pub fn forward_batch(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        batch: &LdgBatch,
    ) -> LdgOutput {
        let x = tape.constant_copy(&batch.x);
        self.forward_batch_with_x(tape, ctx, store, batch, x)
    }

    /// [`LdgEncoder::forward_batch`] with the packed node features already on
    /// the tape (gradient-carrying when the caller needs input gradients).
    pub fn forward_batch_with_x(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        batch: &LdgBatch,
        x: Var,
    ) -> LdgOutput {
        assert!(!batch.slice_csr.is_empty(), "LDG needs time slices");
        let b = batch.len();
        let mark = tape.len();
        let mut h = self.input_proj.forward(tape, ctx, store, x);

        let mut pooled: Option<Var> = None;
        for t in 0..self.t_slices {
            let adj_csr = batch.slice_csr.get(t).unwrap_or_else(|| batch.slice_csr.last().unwrap());
            // Eq. 14: topological features from the previous evolutionary
            // state. Eqs. 15-18: GRU update. Both are row-local (SpMM never
            // crosses block-diagonal boundaries).
            let u_t = self.gcn.forward(tape, ctx, store, adj_csr, h);
            h = self.gru.forward(tape, ctx, store, u_t, h);
            // Eqs. 19-21: per-slice hierarchical pooling, `(B, hidden)`.
            let p = self.pool_slice_batch(tape, ctx, store, adj_csr, h, &batch.offsets, b);
            let acc = match pooled {
                None => p,
                Some(acc) => tape.concat_rows(acc, p),
            };
            pooled = Some(acc);
            // Everything since `mark` but the new state is dead to later
            // ops, including the previous slice's `h` and stack.
            tape.release_since(mark, &[h, acc]);
        }
        // Slice-major `(T·B, hidden)` → graph-major `(B·T, hidden)` so each
        // graph's stack is one contiguous segment.
        let stack_tb = pooled.expect("at least one slice");
        let stack = tape.gather_rows(stack_tb, batch.stack_perm.clone());

        // Eq. 22: γ_g = α stack_g. The attention row is shared across the
        // batch (it depends only on the learned logits), so it is tiled down
        // the graph-major stack and contracted per segment — `seg_matmul_tn`
        // with a single-column left operand replays each graph's
        // `matmul(alpha, stack)` bit for bit.
        let attn_logits = ctx.var(tape, store, self.time_attn);
        let alpha = tape.softmax_rows(attn_logits); // (1, T)
        let alpha_col = tape.transpose(alpha); // (T, 1)
        let alpha_rep = tape.gather_rows(alpha_col, batch.alpha_tile.clone()); // (B·T, 1)
        let gamma = tape.seg_matmul_tn(alpha_rep, stack, batch.time_offsets.clone());

        // The read-out targets "a unique representation of the central node
        // v_i" (Section IV-B): combine the pooled slice summary with the
        // centre account's final evolutionary features h_T[0].
        let gamma = if self.config.use_center {
            let center = tape.gather_rows(h, batch.center_rows.clone());
            tape.concat_cols(gamma, center)
        } else {
            gamma
        };

        // Eq. 23: l = ReLU(Θg γ), then the logits head — row-independent.
        let embedding = self.theta_g.forward(tape, ctx, store, gamma);
        let logits = self.head.forward(tape, ctx, store, embedding);
        LdgOutput { embedding, logits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphdata::GraphTensors;
    use eth_graph::{AccountKind, LocalTx, Subgraph};
    use features::N_FEATURES;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tensor::BufferPool;

    /// A ring of `n` accounts with two transactions per account. Bursty
    /// graphs concentrate all transactions in the first slice; uniform
    /// graphs spread them out.
    fn ring(n: usize, label: usize, bursty: bool) -> Subgraph {
        let ts = |i: usize| if bursty { i as u64 } else { i as u64 * 1000 };
        Subgraph::from_parts(
            (0..n).collect(),
            vec![AccountKind::Eoa; n],
            (0..2 * n)
                .map(|i| LocalTx {
                    src: i % n,
                    dst: (i + 1) % n,
                    value: 1.0 + i as f64,
                    timestamp: ts(i) + if bursty && i == 2 * n - 1 { 10_000 } else { 0 },
                    fee: 0.001,
                    contract_call: false,
                })
                .collect(),
            Some(label),
        )
    }

    fn toy(label: usize, bursty: bool) -> GraphTensors {
        GraphTensors::from_subgraph(&ring(3, label, bursty), 5)
    }

    fn encoder(pool_layers: usize) -> (ParamStore, LdgEncoder) {
        encoder_with_slices(pool_layers, 5)
    }

    fn encoder_with_slices(pool_layers: usize, t_slices: usize) -> (ParamStore, LdgEncoder) {
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = ParamStore::new();
        let cfg = LdgConfig { hidden: 16, d_out: 8, pool_layers, ..Default::default() };
        let enc = LdgEncoder::new(&mut store, &mut rng, N_FEATURES, t_slices, cfg);
        (store, enc)
    }

    fn pack_one(enc: &LdgEncoder, g: &GraphTensors) -> LdgBatch {
        LdgBatch::pack(&[g], enc.t_slices)
    }

    #[test]
    fn forward_shapes_for_each_pool_depth() {
        for layers in 1..=3 {
            let (store, enc) = encoder(layers);
            let g = toy(1, false);
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(&store);
            let out = enc.forward_batch(&mut tape, &mut ctx, &store, &pack_one(&enc, &g));
            assert_eq!(tape.value(out.embedding).shape(), (1, 8));
            assert_eq!(tape.value(out.logits).shape(), (1, 2));
            assert!(tape.value(out.logits).all_finite());
        }
    }

    /// Bits of the embedding and logits of one forward over `batch` on
    /// `tape`, and the pool the tape leaves behind.
    fn run_forward(
        enc: &LdgEncoder,
        store: &ParamStore,
        batch: &LdgBatch,
        mut tape: Tape,
    ) -> (Vec<u32>, Vec<u32>, BufferPool) {
        let mut ctx = Ctx::new(store);
        let out = enc.forward_batch(&mut tape, &mut ctx, store, batch);
        let embedding = tape.value(out.embedding).to_bits_vec();
        let logits = tape.value(out.logits).to_bits_vec();
        (embedding, logits, tape.into_pool())
    }

    /// A scoring tape releases each slice's dead activations without
    /// moving an output bit, and holds about one slice live: ten slices
    /// peak at less than twice the live bytes of two, where a tape that
    /// keeps every activation grows with the slice count.
    #[test]
    fn scoring_tape_matches_training_tape_and_holds_one_slice() {
        let g = ring(24, 1, false);
        let full = GraphTensors::from_subgraph(&g, 5);
        // Two slices packed for a five-slice encoder: slices 2..5 reuse the
        // last packed adjacency.
        let short = GraphTensors::from_subgraph(&g, 2);
        for layers in 1..=3 {
            let (store, enc) = encoder(layers);
            let cases = [
                ("full", LdgBatch::pack(&[&full], 5)),
                ("fewer slices", LdgBatch::pack(&[&short], 2)),
            ];
            for (what, batch) in &cases {
                let (emb, logits, _) =
                    run_forward(&enc, &store, batch, Tape::with_pool(BufferPool::new()));
                let (s_emb, s_logits, _) =
                    run_forward(&enc, &store, batch, Tape::scoring(BufferPool::new()));
                assert_eq!(s_logits, logits, "logits moved: {what}, {layers} pool layers");
                assert_eq!(s_emb, emb, "embedding moved: {what}, {layers} pool layers");
            }

            let live = |t_slices: usize| {
                let (store, enc) = encoder_with_slices(layers, t_slices);
                let batch = LdgBatch::pack(&[&full], t_slices);
                let (.., pool) =
                    run_forward(&enc, &store, &batch, Tape::scoring(BufferPool::new()));
                pool.stats().peak_live_bytes
            };
            let (two, ten) = (live(2), live(10));
            assert!(
                ten < 2 * two,
                "{layers} pool layers: 10 slices peak at {ten} live B, 2 slices {two} B"
            );
        }
    }

    /// Digest of the loss and every parameter gradient after one training
    /// step (forward, cross-entropy, backward) over `graphs` packed with
    /// `packed_slices` slices for an encoder of `t_slices`.
    fn train_step_digest(
        layers: usize,
        t_slices: usize,
        graphs: &[GraphTensors],
        packed_slices: usize,
    ) -> u64 {
        let (mut store, enc) = encoder_with_slices(layers, t_slices);
        let refs: Vec<&GraphTensors> = graphs.iter().collect();
        let batch = LdgBatch::pack(&refs, packed_slices);
        let targets: Vec<usize> = graphs.iter().map(|g| g.label.unwrap()).collect();
        let mut tape = Tape::with_pool(BufferPool::new());
        let mut ctx = Ctx::new(&store);
        let out = enc.forward_batch(&mut tape, &mut ctx, &store, &batch);
        let loss = tape.cross_entropy(out.logits, Arc::new(targets));
        tape.backward(loss);
        ctx.accumulate_grads(&tape, &mut store);
        crate::testutil::grad_digest(&store, tape.value(loss).item())
    }

    /// Every gradient bit of one LDG training step, pinned at T = 10 for
    /// pool depths 1..=3, over a mixed batch and over a pack with fewer
    /// slices than `T` (the `slice_csr.last()` reuse branch).
    #[test]
    fn training_step_gradients_are_pinned() {
        let mixed = |slices: usize| -> Vec<GraphTensors> {
            [(24, 1, false), (7, 0, true), (3, 1, false), (11, 0, false)]
                .iter()
                .map(|&(n, label, bursty)| {
                    GraphTensors::from_subgraph(&ring(n, label, bursty), slices)
                })
                .collect()
        };
        let (full, short) = (mixed(10), mixed(2));
        let got: Vec<[u64; 2]> = (1..=3)
            .map(|layers| {
                [train_step_digest(layers, 10, &full, 10), train_step_digest(layers, 10, &short, 2)]
            })
            .collect();
        let want: [[u64; 2]; 3] = [
            [0x6a3e_bc06_9549_4b0f, 0x218d_32b5_dab7_7bd4],
            [0x083e_d873_25f7_31d3, 0xc589_32ae_6846_220b],
            [0x783e_6c59_1497_29a9, 0x5eae_c50a_7049_d775],
        ];
        assert_eq!(got, want, "per pool depth 1..=3: [full, fewer slices]");
    }

    /// A training tape frees each slice's values that its backward never
    /// reads, so its live bytes grow with the slice count more slowly than
    /// the tape does. One training step (forward, cross-entropy, backward)
    /// over ten slices peaks under 3.4× the live bytes of two slices;
    /// 3.06–3.24× with the release, 3.84× or more when a training tape
    /// keeps every value.
    #[test]
    fn training_tape_frees_what_backward_never_reads() {
        let full = GraphTensors::from_subgraph(&ring(24, 1, false), 10);
        for layers in 1..=3 {
            let live = |t_slices: usize| {
                let (store, enc) = encoder_with_slices(layers, t_slices);
                let batch = LdgBatch::pack(&[&full], t_slices);
                let mut tape = Tape::with_pool(BufferPool::new());
                let mut ctx = Ctx::new(&store);
                let out = enc.forward_batch(&mut tape, &mut ctx, &store, &batch);
                let loss = tape.cross_entropy(out.logits, Arc::new(vec![1]));
                tape.backward(loss);
                tape.into_pool().stats().peak_live_bytes
            };
            let (two, ten) = (live(2), live(10));
            assert!(
                ten * 10 < two * 34,
                "{layers} pool layers: 10 slices peak at {ten} live B, 2 slices {two} B"
            );
        }
    }

    #[test]
    fn gradients_reach_gru_and_time_attention() {
        let (mut store, enc) = encoder(2);
        let g = toy(1, true);
        let mut tape = Tape::new();
        let mut ctx = Ctx::new(&store);
        let out = enc.forward_batch(&mut tape, &mut ctx, &store, &pack_one(&enc, &g));
        let loss = tape.cross_entropy(out.logits, Arc::new(vec![1]));
        tape.backward(loss);
        ctx.accumulate_grads(&tape, &mut store);
        for name in ["ldg.gru.w_u", "ldg.time_attn", "ldg.assign0.w", "ldg.theta_g.w"] {
            let id = store.find(name).unwrap();
            let norm: f32 = store.grad(id).data().iter().map(|x| x * x).sum();
            assert!(norm > 0.0, "no gradient for {name}");
        }
    }

    #[test]
    fn learns_to_separate_bursty_from_uniform() {
        let (mut store, enc) = encoder(2);
        let g_burst = toy(1, true);
        let g_unif = toy(0, false);
        let (b_burst, b_unif) = (pack_one(&enc, &g_burst), pack_one(&enc, &g_unif));
        let mut opt = nn::Adam::new(0.02);
        let mut last = f32::MAX;
        for _ in 0..80 {
            store.zero_grad();
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(&store);
            let o1 = enc.forward_batch(&mut tape, &mut ctx, &store, &b_burst);
            let o0 = enc.forward_batch(&mut tape, &mut ctx, &store, &b_unif);
            let logits = tape.concat_rows(o1.logits, o0.logits);
            let loss = tape.cross_entropy(logits, Arc::new(vec![1, 0]));
            last = tape.value(loss).item();
            tape.backward(loss);
            ctx.accumulate_grads(&tape, &mut store);
            opt.step(&mut store);
        }
        assert!(last < 0.15, "LDG failed to fit temporal toy pair: {last}");
    }
}
