//! The one encoder-branch path. Both DBG4ETH branches train, score and
//! rebuild through the same code; only [`Encoder`]'s match arms hold what
//! differs between the Global Static Graph and the Local Dynamic Graph
//! (construction, packing and the GSG's contrastive views), and
//! [`Branch`] names each branch's spans, counters, sections and fault site.

use crate::config::Dbg4EthConfig;
use gnn::{augment, nt_xent, GraphTensors, GsgBatch, GsgEncoder, GsgItem, LdgBatch, LdgEncoder};
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

/// One of the two encoder branches of Fig. 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// The Global Static Graph: hierarchical attention plus contrastive
    /// regularisation (Section IV-A).
    Gsg,
    /// The Local Dynamic Graph: per-slice GCN, GRU and DiffPool
    /// (Section IV-B).
    Ldg,
}

/// The static names one branch is observed and persisted under.
pub(crate) struct BranchNames {
    /// Label of the branch in error and warn messages.
    pub(crate) label: &'static str,
    /// Training span, debug-log target and pool-counter prefix.
    pub(crate) train: &'static str,
    epoch: &'static str,
    forward: &'static str,
    backward: &'static str,
    step: &'static str,
    /// Serving fault site of the raw score (`nan@gsg.encode:<account>`).
    pub(crate) encode_site: &'static str,
    /// Container section of the encoder weights, also the branch's key in
    /// run-reports.
    pub(crate) section: &'static str,
    /// Container section of the calibration ensemble.
    pub(crate) cal_section: &'static str,
    /// Salt of the training RNG's seed.
    seed_salt: u64,
}

const GSG_NAMES: BranchNames = BranchNames {
    label: "GSG",
    train: "train.gsg",
    epoch: "train.gsg.epoch",
    forward: "train.gsg.forward",
    backward: "train.gsg.backward",
    step: "train.gsg.step",
    encode_site: "gsg.encode",
    section: "gsg",
    cal_section: "gsg.cal",
    seed_salt: 0x65C6,
};

const LDG_NAMES: BranchNames = BranchNames {
    label: "LDG",
    train: "train.ldg",
    epoch: "train.ldg.epoch",
    forward: "train.ldg.forward",
    backward: "train.ldg.backward",
    step: "train.ldg.step",
    encode_site: "ldg.encode",
    section: "ldg",
    cal_section: "ldg.cal",
    seed_salt: 0x1D6,
};

impl Branch {
    /// Both branches in pipeline order: GSG first, the order of the stacked
    /// classifier's feature columns and of the container's sections.
    pub(crate) const ALL: [Branch; 2] = [Branch::Gsg, Branch::Ldg];

    pub(crate) fn names(self) -> &'static BranchNames {
        self.pick(&GSG_NAMES, &LDG_NAMES)
    }

    /// The branches `config` enables, in pipeline order.
    pub(crate) fn enabled_in(config: &Dbg4EthConfig) -> Vec<Branch> {
        Self::ALL.into_iter().filter(|b| b.pick(config.use_gsg, config.use_ldg)).collect()
    }

    /// This branch's half of a per-branch pair, such as the `gsg`/`ldg`
    /// fields of the model, the run output and the encoded dataset.
    pub(crate) fn pick<T>(self, gsg: T, ldg: T) -> T {
        match self {
            Branch::Gsg => gsg,
            Branch::Ldg => ldg,
        }
    }
}

/// A branch's encoder architecture.
pub enum Encoder {
    Gsg(GsgEncoder),
    Ldg(LdgEncoder),
}

impl Encoder {
    /// Build `branch`'s encoder under `config`, registering its parameters
    /// in `store`. The one place the input width ([`crate::FeatureMode::width`])
    /// and the LDG's `T` ([`Dbg4EthConfig::t_slices`]) are set.
    pub fn new(
        branch: Branch,
        config: &Dbg4EthConfig,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Self {
        let d_in = config.features.width();
        match branch {
            Branch::Gsg => Self::Gsg(GsgEncoder::new(store, rng, d_in, config.gsg)),
            Branch::Ldg => {
                Self::Ldg(LdgEncoder::new(store, rng, d_in, config.t_slices, config.ldg))
            }
        }
    }

    /// One training mini-batch's forward: the class logits and, for the GSG
    /// with contrastive regularisation on, the projections of the batch's
    /// two adaptively augmented views (Section IV-A3). Augmentation draws
    /// stay per graph, view 1 then view 2, in batch order. The block-diagonal
    /// packs and fused forwards run under the `encode.batch` span.
    fn train_forward(
        &self,
        tape: &mut Tape,
        ctx: &mut Ctx,
        store: &ParamStore,
        graphs: &[&GraphTensors],
        config: &Dbg4EthConfig,
        rng: &mut StdRng,
    ) -> (Var, Option<(Var, Var)>) {
        match self {
            Self::Gsg(enc) => {
                let views: Option<Vec<_>> = (config.contrastive_weight > 0.0).then(|| {
                    graphs
                        .iter()
                        .map(|&g| (augment(g, config.aug1, rng), augment(g, config.aug2, rng)))
                        .collect()
                });
                let _span = obs::span("encode.batch");
                let packed = GsgBatch::pack(graphs.iter().map(|&g| GsgItem::from(g)));
                if obs::metrics_enabled() {
                    obs::gauge_max("encode.batch.nodes", packed.n_total() as f64);
                    obs::counter_add("encode.batch.edges", packed.e_total() as u64);
                }
                let logits = enc.forward_batch(tape, ctx, store, &packed).logits;
                let projs = views.map(|vs| {
                    let b1 = GsgBatch::pack(vs.iter().map(|(v1, _)| GsgItem::from(v1)));
                    let z1 = enc.forward_batch(tape, ctx, store, &b1).projection;
                    let b2 = GsgBatch::pack(vs.iter().map(|(_, v2)| GsgItem::from(v2)));
                    (z1, enc.forward_batch(tape, ctx, store, &b2).projection)
                });
                (logits, projs)
            }
            Self::Ldg(enc) => {
                let _span = obs::span("encode.batch");
                let packed = LdgBatch::pack(graphs, enc.t_slices);
                if obs::metrics_enabled() {
                    obs::gauge_max("encode.batch.nodes", packed.n_total() as f64);
                    obs::counter_add("encode.batch.nnz", packed.nnz_total as u64);
                }
                (enc.forward_batch(tape, ctx, store, &packed).logits, None)
            }
        }
    }
}

/// One trained encoder branch: its weights, architecture and training
/// curve.
pub struct TrainedEncoder {
    pub store: ParamStore,
    pub encoder: Encoder,
    pub history: Vec<EpochStats>,
}

fn batches(n: usize, batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.chunks(batch_size.max(1)).map(<[usize]>::to_vec).collect()
}

/// Train `branch`'s encoder on labelled `graphs`: Adam over shuffled
/// mini-batches, each packed into one block-diagonal batch and run through
/// one fused forward on a pooled tape (forward values and gradients reuse
/// freed buffers across batches and epochs). The loss is cross-entropy,
/// plus on the GSG the weighted contrastive objective over two augmented
/// views (Section IV-A3).
pub fn train_branch(
    branch: Branch,
    graphs: &[&GraphTensors],
    config: &Dbg4EthConfig,
) -> TrainedEncoder {
    let names = branch.names();
    let _span = obs::span(names.train);
    let mut rng = StdRng::seed_from_u64(config.seed ^ names.seed_salt);
    let mut store = ParamStore::new();
    let encoder = Encoder::new(branch, config, &mut store, &mut rng);
    let mut opt = Adam::new(config.lr);
    let mut history = Vec::with_capacity(config.epochs);
    let mut pool = BufferPool::new();

    for epoch in 0..config.epochs {
        let _epoch_span = obs::span(names.epoch);
        let (mut epoch_loss, mut epoch_con, mut n_batches) = (0.0f32, 0.0f32, 0);
        for batch in batches(graphs.len(), config.batch_size, &mut rng) {
            store.zero_grad();
            let mut tape = Tape::with_pool(std::mem::take(&mut pool));
            let mut ctx = Ctx::new(&store);
            let fwd_span = obs::span(names.forward);
            let batch: Vec<&GraphTensors> = batch.iter().map(|&gi| graphs[gi]).collect();
            let targets: Vec<usize> =
                batch.iter().map(|g| g.label.expect("training graph must be labelled")).collect();
            let (logits, projs) =
                encoder.train_forward(&mut tape, &mut ctx, &store, &batch, config, &mut rng);
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
                let _s = obs::span(names.backward);
                tape.backward(loss);
                ctx.accumulate_grads(&tape, &mut store);
            }
            {
                let _s = obs::span(names.step);
                store.clip_grad_norm(5.0);
                opt.step(&mut store);
            }
            pool = tape.into_pool();
        }
        let stats = EpochStats {
            loss: epoch_loss / n_batches.max(1) as f32,
            contrastive: epoch_con / n_batches.max(1) as f32,
        };
        let (done, total, loss) = (epoch + 1, config.epochs, stats.loss);
        match branch {
            Branch::Gsg => obs::debug!(
                names.train,
                "epoch {done}/{total}: loss {loss:.4} contrastive {:.4}",
                stats.contrastive
            ),
            Branch::Ldg => obs::debug!(names.train, "epoch {done}/{total}: loss {loss:.4}"),
        }
        history.push(stats);
    }
    // The pool's lifetime counters land under `<train>.pool.*` and
    // `<train>.tape_ops`, summed over fits; the gauges keep the largest fit's
    // value (`pool.fit_allocated_bytes` beside `pool.peak_live_bytes`).
    // Counter adds and gauge maxima are order-independent, so concurrent
    // branch trainings (separate pools) report the same at any thread count.
    if obs::metrics_enabled() {
        let (prefix, stats) = (names.train, pool.stats());
        obs::counter_add(&format!("{prefix}.fits"), 1);
        obs::counter_add(&format!("{prefix}.epochs"), config.epochs as u64);
        obs::counter_add(&format!("{prefix}.pool.hits"), stats.hits);
        obs::counter_add(&format!("{prefix}.pool.misses"), stats.misses);
        obs::counter_add(&format!("{prefix}.pool.allocated_bytes"), stats.allocated_bytes);
        obs::counter_add(&format!("{prefix}.tape_ops"), stats.tape_ops);
        obs::gauge_max(
            &format!("{prefix}.pool.high_water_buffers"),
            stats.high_water_buffers as f64,
        );
        obs::gauge_max(&format!("{prefix}.pool.peak_live_bytes"), stats.peak_live_bytes as f64);
        obs::gauge_max(&format!("{prefix}.pool.fit_allocated_bytes"), stats.allocated_bytes as f64);
    }
    TrainedEncoder { store, encoder, history }
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

    /// Raw prediction values for each graph, fanned out over `threads`
    /// workers with index-ordered collection (bit-identical to serial).
    fn raw_scores(&self, graphs: &[&GraphTensors], threads: usize) -> Vec<f64> {
        par::par_map(threads, graphs, |g| self.raw_score(g))
    }
}

impl TrainedEncoder {
    /// The branch this encoder belongs to.
    pub(crate) fn branch(&self) -> Branch {
        match self.encoder {
            Encoder::Gsg(_) => Branch::Gsg,
            Encoder::Ldg(_) => Branch::Ldg,
        }
    }

    /// Class logits of one graph: the graph packed alone through the
    /// encoder's `forward_batch` — the op chain training ran — on this
    /// thread's pooled scoring tape. The only scoring entry: serve, stream
    /// re-scoring, holdout scoring and multiclass all come through here.
    ///
    /// The tape is forward-only ([`Tape::scoring`]): the LDG encoder hands
    /// each time slice's dead activations back to the pool at the slice's
    /// end, so the pool holds about one slice rather than all `T`. With
    /// metrics on, the pool's lifetime allocation, buffer high-water mark
    /// and live peak are recorded as the `score.pool.allocated_bytes`,
    /// `score.pool.high_water_buffers` and `score.pool.peak_live_bytes`
    /// gauges (the maximum over scoring threads).
    pub fn logits(&self, graph: &GraphTensors) -> Vec<f32> {
        // Each scoring worker thread keeps its own buffer pool, so parallel
        // inference reuses allocations without sharing state across threads.
        thread_local! {
            static SCORE_POOL: RefCell<BufferPool> = RefCell::new(BufferPool::new());
        }
        let store = &self.store;
        SCORE_POOL.with(|pool| {
            let mut tape = Tape::scoring(std::mem::take(&mut *pool.borrow_mut()));
            let mut ctx = Ctx::new(store);
            let logits = match &self.encoder {
                Encoder::Gsg(enc) => {
                    let batch = GsgBatch::pack([GsgItem::from(graph)]);
                    enc.forward_batch(&mut tape, &mut ctx, store, &batch).logits
                }
                Encoder::Ldg(enc) => {
                    let batch = LdgBatch::pack(&[graph], enc.t_slices);
                    enc.forward_batch(&mut tape, &mut ctx, store, &batch).logits
                }
            };
            let row = tape.value(logits).row(0).to_vec();
            let recycled = tape.into_pool();
            if obs::metrics_enabled() {
                let stats = recycled.stats();
                obs::gauge_max("score.pool.allocated_bytes", stats.allocated_bytes as f64);
                obs::gauge_max("score.pool.high_water_buffers", stats.high_water_buffers as f64);
                obs::gauge_max("score.pool.peak_live_bytes", stats.peak_live_bytes as f64);
            }
            *pool.borrow_mut() = recycled;
            row
        })
    }
}

impl BranchScorer for TrainedEncoder {
    fn raw_score(&self, graph: &GraphTensors) -> f64 {
        let logits = self.logits(graph);
        (logits[1] - logits[0]) as f64
    }
}
