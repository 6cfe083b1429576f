//! Criterion micro-benchmarks of the computational kernels behind every
//! table and figure: sampling (Table II), feature extraction (Table I,
//! Figs. 4-5), GSG / LDG training steps (Tables III-VI, Figs. 8-9),
//! augmentation (Fig. 9a), calibration (Fig. 6), classifiers (Fig. 7),
//! walk embeddings (Table III rows 1-2, 12), the per-account LDG scoring
//! forward, the Strict activation kernels of the GSG / LDG forward and the
//! two Strict GEMM kernels every tape matmul runs on.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use baselines::{EmbedConfig, EmbedKind};
use calib::{AdaptiveCalibrator, MethodSubset};
use dbg4eth::Dbg4EthConfig;
use eth_graph::{sample_subgraph, SamplerConfig, Subgraph, TxGraph};
use eth_sim::{AccountClass, Benchmark, DatasetScale, World, WorldConfig};
use gnn::{
    augment, AugmentConfig, GraphTensors, GsgBatch, GsgEncoder, GsgItem, LdgBatch, LdgEncoder,
};
use nn::{Ctx, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tensor::{BufferPool, Tape, Tensor};

fn small_world() -> (World, TxGraph) {
    let world = World::generate(
        WorldConfig { n_background: 800, seed: 3, ..Default::default() },
        &[(AccountClass::Exchange, 6), (AccountClass::Normal, 6)],
    );
    let graph = TxGraph::build(world.kinds.clone(), world.txs.clone());
    (world, graph)
}

fn one_subgraph() -> Subgraph {
    let (world, graph) = small_world();
    let center = world.centers_of(AccountClass::Exchange)[0];
    sample_subgraph(&graph, center, SamplerConfig::new(2000, 2), Some(1))
}

/// Table II kernel: top-K neighbour sampling.
fn bench_sampling(c: &mut Criterion) {
    let (world, graph) = small_world();
    let center = world.centers_of(AccountClass::Exchange)[0];
    c.bench_function("table2/sample_subgraph_2hop", |b| {
        b.iter(|| {
            black_box(sample_subgraph(
                &graph,
                black_box(center),
                SamplerConfig::new(2000, 2),
                Some(1),
            ))
        })
    });
}

/// Table I / Figs. 4-5 kernels: deep features and their correlation matrix.
fn bench_features(c: &mut Criterion) {
    let sg = one_subgraph();
    c.bench_function("table1/deep_features", |b| {
        b.iter(|| black_box(features::node_features(black_box(&sg))))
    });
    let f = features::node_features(&sg);
    c.bench_function("fig4/correlation_matrix", |b| {
        b.iter(|| black_box(features::stats::correlation_matrix(black_box(&f))))
    });
}

/// Tables III-VI kernel: one GSG forward+backward pass over one account
/// packed alone.
fn bench_gsg_step(c: &mut Criterion) {
    let sg = one_subgraph();
    let g = GraphTensors::from_subgraph(&sg, 10);
    let batch = GsgBatch::pack([GsgItem::from(&g)]);
    let cfg = Dbg4EthConfig::fast();
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let enc = GsgEncoder::new(&mut store, &mut rng, cfg.gsg);
    c.bench_function("table3/gsg_forward_backward", |b| {
        b.iter(|| {
            store.zero_grad();
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(&store);
            let out = enc.forward_batch(&mut tape, &mut ctx, &store, &batch);
            let loss = tape.cross_entropy(out.logits, Arc::new(vec![1]));
            tape.backward(loss);
            ctx.accumulate_grads(&tape, &mut store);
            black_box(tape.value(loss).item())
        })
    });
}

/// An LDG encoder under `cfg` and one account packed alone for it.
fn ldg_one_account(cfg: &Dbg4EthConfig) -> (ParamStore, LdgEncoder, LdgBatch) {
    let g = GraphTensors::from_subgraph(&one_subgraph(), cfg.t_slices);
    let mut rng = StdRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let mut ldg_cfg = cfg.ldg;
    ldg_cfg.t_slices = cfg.t_slices;
    let enc = LdgEncoder::new(&mut store, &mut rng, ldg_cfg);
    let batch = LdgBatch::pack(&[&g], cfg.t_slices);
    (store, enc, batch)
}

/// Tables III-VI / Fig. 9b kernel: one LDG forward+backward pass over one
/// account packed alone.
fn bench_ldg_step(c: &mut Criterion) {
    let (mut store, enc, batch) = ldg_one_account(&Dbg4EthConfig::fast());
    c.bench_function("table4/ldg_forward_backward", |b| {
        b.iter(|| {
            store.zero_grad();
            let mut tape = Tape::new();
            let mut ctx = Ctx::new(&store);
            let out = enc.forward_batch(&mut tape, &mut ctx, &store, &batch);
            let loss = tape.cross_entropy(out.logits, Arc::new(vec![1]));
            tape.backward(loss);
            ctx.accumulate_grads(&tape, &mut store);
            black_box(tape.value(loss).item())
        })
    });
}

/// Serving kernel: the paper-config LDG forward for one account packed
/// alone, on a forward-only scoring tape over a warm pool — what a serve
/// worker runs per account, with each slice's activations recycled.
fn bench_ldg_score(c: &mut Criterion) {
    let (store, enc, batch) = ldg_one_account(&Dbg4EthConfig::default());
    let mut pool = BufferPool::new();
    c.bench_function("table4/ldg_score_one_account", |b| {
        b.iter(|| {
            let mut tape = Tape::scoring(std::mem::take(&mut pool));
            let mut ctx = Ctx::new(&store);
            let out = enc.forward_batch(&mut tape, &mut ctx, &store, black_box(&batch));
            let logit = tape.value(out.logits).get(0, 1);
            pool = tape.into_pool();
            black_box(logit)
        })
    });
}

/// Fig. 9a kernel: one adaptive augmentation.
fn bench_augment(c: &mut Criterion) {
    let sg = one_subgraph();
    let g = GraphTensors::from_subgraph(&sg, 4);
    c.bench_function("fig9a/adaptive_augmentation", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(augment(&g, AugmentConfig::view1(), &mut rng)))
    });
}

/// Fig. 6 kernel: fitting all six calibrators plus adaptive weights.
fn bench_calibration(c: &mut Criterion) {
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for i in 0..400 {
        scores.push(if i % 2 == 0 { 0.9 } else { 0.15 });
        labels.push(i % 10 < 6);
    }
    c.bench_function("fig6/adaptive_calibrator_fit", |b| {
        b.iter(|| {
            black_box(AdaptiveCalibrator::fit(
                black_box(&scores),
                black_box(&labels),
                MethodSubset::All,
                true,
            ))
        })
    });
}

/// Fig. 7 kernel: LightGBM-style GBDT fit on calibrated pairs.
fn bench_gbdt(c: &mut Criterion) {
    let x: Vec<Vec<f64>> =
        (0..200).map(|i| vec![(i % 17) as f64 / 17.0, (i % 23) as f64 / 23.0]).collect();
    let y: Vec<bool> = (0..200).map(|i| (i % 17) > 8).collect();
    c.bench_function("fig7/lightgbm_fit", |b| {
        b.iter(|| black_box(boost::Gbdt::fit(&x, &y, boost::GbdtConfig::lightgbm())))
    });
}

/// Table III rows 1-2, 12 kernel: walk-based graph embedding.
fn bench_embedding(c: &mut Criterion) {
    let sg = one_subgraph();
    let cfg = EmbedConfig::default();
    c.bench_function("table3/deepwalk_graph_embedding", |b| {
        b.iter(|| black_box(baselines::embed_graph(EmbedKind::DeepWalk, &sg, &cfg)))
    });
}

/// Table II end-to-end kernel: full benchmark generation at tiny scale.
fn bench_generation(c: &mut Criterion) {
    c.bench_function("table2/benchmark_generation_tiny", |b| {
        b.iter(|| {
            let scale = DatasetScale {
                exchange: 4,
                ico_wallet: 0,
                mining: 0,
                phish_hack: 0,
                bridge: 0,
                defi: 0,
            };
            black_box(Benchmark::generate(scale, SamplerConfig::new(50, 2), 9))
        })
    });
}

/// GRU / GAT activation kernels on one 94×64 activation (the mean pool
/// account's node count by the LDG hidden width): the Strict profile's
/// vectorised glibc ports as the tape runs them (copy, then the in-place
/// kernel), each beside the scalar libm loop they replace. Both produce the
/// same bits.
fn bench_activations(c: &mut Criterion) {
    let mut state = 0x9e37_79b9_u32;
    let x: Vec<f32> = (0..94 * 64)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 * 6.0 - 3.0
        })
        .collect();
    let mut out = vec![0.0f32; x.len()];
    c.bench_function("activations/strict_tanh", |b| {
        b.iter(|| {
            out.copy_from_slice(black_box(&x));
            tensor::exact::tanh_in_place(&mut out);
            black_box(out[0])
        })
    });
    c.bench_function("activations/libm_tanh", |b| {
        b.iter(|| {
            for (o, &v) in out.iter_mut().zip(black_box(&x)) {
                *o = v.tanh();
            }
            black_box(out[0])
        })
    });
    c.bench_function("activations/strict_sigmoid", |b| {
        b.iter(|| {
            out.copy_from_slice(black_box(&x));
            tensor::exact::sigmoid_in_place(&mut out);
            black_box(out[0])
        })
    });
    c.bench_function("activations/libm_sigmoid", |b| {
        b.iter(|| {
            for (o, &v) in out.iter_mut().zip(black_box(&x)) {
                *o = 1.0 / (1.0 + (-v).exp());
            }
            black_box(out[0])
        })
    });
}

/// A `rows × cols` operand of nonzero values with exact zeros (±0.0) at
/// `zero_pct` percent of its entries, as a ReLU output carries them.
fn gemm_operand(rows: usize, cols: usize, zero_pct: u32, salt: u32) -> Tensor {
    let mut state = salt.wrapping_mul(0x9e37_79b9) | 1;
    Tensor::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let h = state >> 8;
        if h % 100 < zero_pct {
            if h & 1 == 0 {
                0.0
            } else {
                -0.0
            }
        } else {
            ((h >> 8) % 1000 + 1) as f32 * 1e-3 - 0.5005
        }
    })
}

/// The Strict GEMM kernels at the shapes the models run: contraction 64
/// (the GSG/LDG hidden width), output widths 1 (the GAT and attention
/// scores, output rows in vector lanes), 4/8/12 (DiffPool's assignment
/// columns, masked tails), 16/32 (`Dbg4EthConfig::fast()`) and 64, over
/// 30 (a small account), 94 (the mean account) and 1311 (a packed
/// mini-batch) rows, on a left operand with no exact zeros, 5 % and 60 %:
/// one case on each side of each choice the kernels make from zero counts
/// (the tile without its zero test, with it, and the compacted path).
/// `nn` is `(rows, 64) @ (64, n)` (`Tensor::matmul_into`, the tape forward
/// and `g @ bᵀ`); `tn` is `(rows, 64)ᵀ @ (rows, n)`
/// (`Tensor::matmul_tn_into`, the weight gradient `aᵀ @ g`).
fn bench_gemm(c: &mut Criterion) {
    const K: usize = 64;
    for n in [1, 4, 8, 12, 16, 32, 64] {
        for rows in [30, 94, 1311] {
            for zero_pct in [0, 5, 60] {
                // A branch predictor memorises the zero pattern of a small
                // operand timed over and over, which a training run never
                // repeats: small shapes rotate through eight operands.
                let variants = if rows * K < 16_384 { 8 } else { 1 };
                let a: Vec<Tensor> = (0..variants)
                    .map(|v| gemm_operand(rows, K, zero_pct, (rows * n + v) as u32))
                    .collect();
                let mut turn = 0;
                let b = gemm_operand(K, n, 0, 7);
                let mut out = Tensor::zeros(rows, n);
                c.bench_function(&format!("gemm/nn/n{n}/rows{rows}/zeros{zero_pct}"), |bch| {
                    bch.iter(|| {
                        turn = (turn + 1) % variants;
                        black_box(&a[turn]).matmul_into(black_box(&b), &mut out);
                        black_box(out.data()[0])
                    })
                });
                let b = gemm_operand(rows, n, 0, 11);
                let mut out = Tensor::zeros(K, n);
                c.bench_function(&format!("gemm/tn/n{n}/rows{rows}/zeros{zero_pct}"), |bch| {
                    bch.iter(|| {
                        turn = (turn + 1) % variants;
                        black_box(&a[turn]).matmul_tn_into(black_box(&b), &mut out);
                        black_box(out.data()[0])
                    })
                });
            }
        }
    }
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_sampling, bench_features, bench_gsg_step, bench_ldg_step,
        bench_ldg_score, bench_augment, bench_calibration, bench_gbdt, bench_embedding,
        bench_generation, bench_activations
}
criterion_group! {
    name = gemm;
    config = Criterion::default().sample_size(200);
    targets = bench_gemm
}
criterion_main!(kernels, gemm);
