//! Training loops for the two encoder branches.

use crate::config::Dbg4EthConfig;
use gnn::{
    augment, nt_xent, AugmentedView, GraphTensors, GsgBatch, GsgEncoder, GsgItem, LdgBatch,
    LdgEncoder,
};
use nn::{Adam, Ctx, ParamStore};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use std::cell::RefCell;
use std::sync::Arc;
use tensor::{BufferPool, Tape, Var};

/// Per-epoch training statistics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    pub loss: f32,
    pub contrastive: f32,
}

/// A trained GSG branch.
pub struct TrainedGsg {
    pub store: ParamStore,
    pub encoder: GsgEncoder,
    pub history: Vec<EpochStats>,
}

/// A trained LDG branch.
pub struct TrainedLdg {
    pub store: ParamStore,
    pub encoder: LdgEncoder,
    pub history: Vec<EpochStats>,
}

fn batches(n: usize, batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.chunks(batch_size.max(1)).map(<[usize]>::to_vec).collect()
}

/// Flush a buffer pool's lifetime counters into the run-report under
/// `<prefix>.pool.*` / `<prefix>.tape_ops`. Counter adds and the gauge max
/// are order-independent, so concurrent branch trainings (separate pools)
/// report the same totals at any thread count.
pub(crate) fn flush_pool_stats(prefix: &str, stats: tensor::PoolStats) {
    if !obs::metrics_enabled() {
        return;
    }
    obs::counter_add(&format!("{prefix}.pool.hits"), stats.hits);
    obs::counter_add(&format!("{prefix}.pool.misses"), stats.misses);
    obs::counter_add(&format!("{prefix}.pool.allocated_bytes"), stats.allocated_bytes);
    obs::counter_add(&format!("{prefix}.tape_ops"), stats.tape_ops);
    obs::gauge_max(&format!("{prefix}.pool.high_water_buffers"), stats.high_water_buffers as f64);
}

/// Train the global static encoder with cross-entropy plus the contrastive
/// objective over two adaptively augmented views (Section IV-A3).
pub fn train_gsg(graphs: &[&GraphTensors], config: &Dbg4EthConfig) -> TrainedGsg {
    let _span = obs::span("train.gsg");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x65C6);
    let mut store = ParamStore::new();
    let encoder = GsgEncoder::new(&mut store, &mut rng, config.gsg);
    let mut opt = Adam::new(config.lr);
    let mut history = Vec::with_capacity(config.epochs);
    // Forward values and gradients reuse freed buffers across batches and
    // epochs instead of allocating per tape node.
    let mut pool = BufferPool::new();

    for epoch in 0..config.epochs {
        let _epoch_span = obs::span("train.gsg.epoch");
        let mut epoch_loss = 0.0f32;
        let mut epoch_con = 0.0f32;
        let mut n_batches = 0;
        for batch in batches(graphs.len(), config.batch_size, &mut rng) {
            store.zero_grad();
            let mut tape = Tape::with_pool(std::mem::take(&mut pool));
            let mut ctx = Ctx::new(&store);
            let fwd_span = obs::span("train.gsg.forward");
            let targets: Vec<usize> = batch
                .iter()
                .map(|&gi| graphs[gi].label.expect("training graph must be labelled"))
                .collect();
            // Augmentation draws stay per graph (v1 then v2, in batch
            // order), exactly as the per-account loop consumed the RNG.
            let views: Option<Vec<(AugmentedView, AugmentedView)>> =
                (config.contrastive_weight > 0.0).then(|| {
                    batch
                        .iter()
                        .map(|&gi| {
                            let g = graphs[gi];
                            let v1 = augment(g, config.aug1, &mut rng);
                            let v2 = augment(g, config.aug2, &mut rng);
                            (v1, v2)
                        })
                        .collect()
                });
            // One block-diagonal pack + fused forward per mini-batch (and
            // per augmented view) instead of one tape walk per account.
            let enc_span = obs::span("encode.batch");
            let packed = GsgBatch::pack(batch.iter().map(|&gi| GsgItem::from(graphs[gi])));
            if obs::metrics_enabled() {
                obs::gauge_max("encode.batch.nodes", packed.n_total() as f64);
                obs::counter_add("encode.batch.edges", packed.e_total() as u64);
            }
            let out = encoder.forward_batch(&mut tape, &mut ctx, &store, &packed);
            let logits = out.logits;
            let projs: Option<(Var, Var)> = views.as_ref().map(|vs| {
                let b1 = GsgBatch::pack(vs.iter().map(|(v1, _)| GsgItem::from(v1)));
                let o1 = encoder.forward_batch(&mut tape, &mut ctx, &store, &b1);
                let b2 = GsgBatch::pack(vs.iter().map(|(_, v2)| GsgItem::from(v2)));
                let o2 = encoder.forward_batch(&mut tape, &mut ctx, &store, &b2);
                (o1.projection, o2.projection)
            });
            drop(enc_span);
            let ce = tape.cross_entropy(logits, Arc::new(targets));
            let (loss, con_val) = match projs {
                Some((z1, z2)) if batch.len() > 1 => {
                    let con = nt_xent(&mut tape, z1, z2, 0.5);
                    let weighted = tape.scale(con, config.contrastive_weight);
                    (tape.add(ce, weighted), tape.value(con).item())
                }
                _ => (ce, 0.0),
            };
            epoch_loss += tape.value(loss).item();
            epoch_con += con_val;
            n_batches += 1;
            drop(fwd_span);
            {
                let _s = obs::span("train.gsg.backward");
                tape.backward(loss);
                ctx.accumulate_grads(&tape, &mut store);
            }
            {
                let _s = obs::span("train.gsg.step");
                store.clip_grad_norm(5.0);
                opt.step(&mut store);
            }
            pool = tape.into_pool();
        }
        let stats = EpochStats {
            loss: epoch_loss / n_batches.max(1) as f32,
            contrastive: epoch_con / n_batches.max(1) as f32,
        };
        obs::debug!(
            "train.gsg",
            "epoch {}/{}: loss {:.4} contrastive {:.4}",
            epoch + 1,
            config.epochs,
            stats.loss,
            stats.contrastive
        );
        history.push(stats);
    }
    obs::counter_add("train.gsg.fits", 1);
    obs::counter_add("train.gsg.epochs", config.epochs as u64);
    flush_pool_stats("train.gsg", pool.stats());
    TrainedGsg { store, encoder, history }
}

/// Train the local dynamic encoder with cross-entropy.
pub fn train_ldg(graphs: &[&GraphTensors], config: &Dbg4EthConfig) -> TrainedLdg {
    let _span = obs::span("train.ldg");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1D6);
    let mut store = ParamStore::new();
    let mut ldg_cfg = config.ldg;
    ldg_cfg.t_slices = config.t_slices;
    let encoder = LdgEncoder::new(&mut store, &mut rng, ldg_cfg);
    let mut opt = Adam::new(config.lr);
    let mut history = Vec::with_capacity(config.epochs);
    let mut pool = BufferPool::new();

    for epoch in 0..config.epochs {
        let _epoch_span = obs::span("train.ldg.epoch");
        let mut epoch_loss = 0.0f32;
        let mut n_batches = 0;
        for batch in batches(graphs.len(), config.batch_size, &mut rng) {
            store.zero_grad();
            let mut tape = Tape::with_pool(std::mem::take(&mut pool));
            let mut ctx = Ctx::new(&store);
            let fwd_span = obs::span("train.ldg.forward");
            let targets: Vec<usize> = batch
                .iter()
                .map(|&gi| graphs[gi].label.expect("training graph must be labelled"))
                .collect();
            // One block-diagonal pack (every time slice) + fused forward per
            // mini-batch instead of one tape walk per account.
            let enc_span = obs::span("encode.batch");
            let refs: Vec<&GraphTensors> = batch.iter().map(|&gi| graphs[gi]).collect();
            let packed = LdgBatch::pack(&refs, config.t_slices);
            if obs::metrics_enabled() {
                obs::gauge_max("encode.batch.nodes", packed.n_total() as f64);
                obs::counter_add("encode.batch.nnz", packed.nnz_total as u64);
            }
            let out = encoder.forward_batch(&mut tape, &mut ctx, &store, &packed);
            drop(enc_span);
            let loss = tape.cross_entropy(out.logits, Arc::new(targets));
            epoch_loss += tape.value(loss).item();
            n_batches += 1;
            drop(fwd_span);
            {
                let _s = obs::span("train.ldg.backward");
                tape.backward(loss);
                ctx.accumulate_grads(&tape, &mut store);
            }
            {
                let _s = obs::span("train.ldg.step");
                store.clip_grad_norm(5.0);
                opt.step(&mut store);
            }
            pool = tape.into_pool();
        }
        let stats = EpochStats { loss: epoch_loss / n_batches.max(1) as f32, contrastive: 0.0 };
        obs::debug!("train.ldg", "epoch {}/{}: loss {:.4}", epoch + 1, config.epochs, stats.loss);
        history.push(stats);
    }
    obs::counter_add("train.ldg.fits", 1);
    obs::counter_add("train.ldg.epochs", config.epochs as u64);
    flush_pool_stats("train.ldg", pool.stats());
    TrainedLdg { store, encoder, history }
}

/// A trained encoder branch that can score graphs. Inference packs each
/// graph alone onto a fresh forward-only scoring tape ([`Tape::scoring`]),
/// so scoring different graphs from different worker threads is safe and
/// each graph's result is independent of thread count and of what else is
/// scored beside it. A scoring tape runs the training op chain bit for bit;
/// it only recycles the LDG encoder's dead activations slice by slice.
pub trait BranchScorer: Sync {
    /// Raw prediction value (positive-class log-odds) for one graph.
    fn raw_score(&self, graph: &GraphTensors) -> f64;

    /// Per-epoch training statistics of this encoder (empty when the
    /// scorer has no training loop).
    fn history(&self) -> &[EpochStats] {
        &[]
    }

    /// Raw prediction values for each graph, fanned out over `threads`
    /// workers with index-ordered collection (bit-identical to serial).
    fn raw_scores(&self, graphs: &[&GraphTensors], threads: usize) -> Vec<f64> {
        par::par_map(threads, graphs, |g| self.raw_score(g))
    }
}

/// Class logits of one graph's forward pass, run on this thread's pooled
/// scoring tape — the only scoring entry (serve, stream re-scoring, holdout
/// scoring and multiclass all come through here).
///
/// The tape is forward-only ([`Tape::scoring`]): the LDG encoder hands each
/// time slice's dead activations back to the pool at the slice's end, so
/// the pool holds about one slice rather than all `T`. With metrics on, the
/// pool's lifetime allocation and buffer high-water mark are recorded as
/// the `score.pool.allocated_bytes` and `score.pool.high_water_buffers`
/// gauges (the maximum over scoring threads).
fn pooled_logits(store: &ParamStore, forward: impl FnOnce(&mut Tape, &mut Ctx) -> Var) -> Vec<f32> {
    // Each scoring worker thread keeps its own buffer pool, so parallel
    // inference reuses allocations without sharing state across threads.
    thread_local! {
        static SCORE_POOL: RefCell<BufferPool> = RefCell::new(BufferPool::new());
    }
    SCORE_POOL.with(|pool| {
        let mut tape = Tape::scoring(std::mem::take(&mut *pool.borrow_mut()));
        let mut ctx = Ctx::new(store);
        let logits = forward(&mut tape, &mut ctx);
        let row = tape.value(logits).row(0).to_vec();
        let recycled = tape.into_pool();
        if obs::metrics_enabled() {
            let stats = recycled.stats();
            obs::gauge_max("score.pool.allocated_bytes", stats.allocated_bytes as f64);
            obs::gauge_max("score.pool.high_water_buffers", stats.high_water_buffers as f64);
        }
        *pool.borrow_mut() = recycled;
        row
    })
}

/// Positive-class log-odds of a binary logits row.
fn log_odds(logits: &[f32]) -> f64 {
    (logits[1] - logits[0]) as f64
}

impl TrainedGsg {
    /// Class logits of one graph: the graph packed alone through the
    /// encoder's `forward_batch`, on this thread's pooled tape — the op
    /// chain training ran.
    pub fn logits(&self, graph: &GraphTensors) -> Vec<f32> {
        let batch = GsgBatch::pack([GsgItem::from(graph)]);
        pooled_logits(&self.store, |tape, ctx| {
            self.encoder.forward_batch(tape, ctx, &self.store, &batch).logits
        })
    }
}

impl TrainedLdg {
    /// Class logits of one graph; see [`TrainedGsg::logits`].
    pub fn logits(&self, graph: &GraphTensors) -> Vec<f32> {
        let batch = LdgBatch::pack(&[graph], self.encoder.config.t_slices);
        pooled_logits(&self.store, |tape, ctx| {
            self.encoder.forward_batch(tape, ctx, &self.store, &batch).logits
        })
    }
}

impl BranchScorer for TrainedGsg {
    fn raw_score(&self, graph: &GraphTensors) -> f64 {
        log_odds(&self.logits(graph))
    }

    fn history(&self) -> &[EpochStats] {
        &self.history
    }
}

impl BranchScorer for TrainedLdg {
    fn raw_score(&self, graph: &GraphTensors) -> f64 {
        log_odds(&self.logits(graph))
    }

    fn history(&self) -> &[EpochStats] {
        &self.history
    }
}
