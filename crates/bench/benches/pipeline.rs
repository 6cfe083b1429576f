//! Criterion benchmarks of reduced end-to-end experiments — one per
//! results table/figure family, so `cargo bench` exercises the exact code
//! paths the experiment binaries use (at much smaller scale).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use baselines::{run_baseline, Baseline, BaselineConfig};
use dbg4eth::{run, ClassifierKind, Dbg4EthConfig};
use eth_graph::SamplerConfig;
use eth_sim::{AccountClass, Benchmark, DatasetScale};

fn tiny_benchmark() -> Benchmark {
    let scale =
        DatasetScale { exchange: 10, ico_wallet: 0, mining: 0, phish_hack: 0, bridge: 10, defi: 0 };
    Benchmark::generate(scale, SamplerConfig::new(20, 2), 13)
}

fn tiny_config() -> Dbg4EthConfig {
    let mut cfg = Dbg4EthConfig::fast();
    cfg.epochs = 3;
    cfg.gsg.hidden = 16;
    cfg.gsg.d_out = 8;
    cfg.ldg.hidden = 16;
    cfg.ldg.d_out = 8;
    cfg.ldg.pool_clusters = [6, 3, 1];
    cfg.t_slices = 4;
    cfg
}

/// Tables III / V-VI: a full DBG4ETH run.
fn bench_dbg4eth_run(c: &mut Criterion) {
    let bench = tiny_benchmark();
    let cfg = tiny_config();
    c.bench_function("table3/dbg4eth_end_to_end", |b| {
        b.iter(|| black_box(run(bench.dataset(AccountClass::Exchange), 0.7, &cfg)))
    });
}

/// Table IV: a single-branch ablation run (w/o LDG).
fn bench_ablation_run(c: &mut Criterion) {
    let bench = tiny_benchmark();
    let mut cfg = tiny_config();
    cfg.use_ldg = false;
    c.bench_function("table4/ablation_wo_ldg", |b| {
        b.iter(|| black_box(run(bench.dataset(AccountClass::Exchange), 0.7, &cfg)))
    });
}

/// Table III baseline path: one GNN baseline end-to-end.
fn bench_baseline_run(c: &mut Criterion) {
    let bench = tiny_benchmark();
    let mut bcfg = BaselineConfig::default();
    bcfg.train.epochs = 3;
    bcfg.hidden = 16;
    bcfg.t_slices = 4;
    c.bench_function("table3/baseline_gcn", |b| {
        b.iter(|| {
            black_box(run_baseline(
                Baseline::Gcn,
                bench.dataset(AccountClass::Exchange),
                0.7,
                &bcfg,
            ))
        })
    });
}

/// Fig. 7: classifier comparison on fixed calibrated features.
fn bench_classifier_comparison(c: &mut Criterion) {
    let bench = tiny_benchmark();
    let cfg = tiny_config();
    let out = run(bench.dataset(AccountClass::Exchange), 0.7, &cfg);
    c.bench_function("fig7/classifier_comparison", |b| {
        b.iter(|| {
            for kind in ClassifierKind::ALL {
                black_box(dbg4eth::fit_predict_classifier(
                    kind,
                    &out.train_features,
                    &out.train_labels,
                    &out.test_features,
                    1,
                ));
            }
        })
    });
}

/// Fig. 8: a low-train-fraction run (novel type bridge).
fn bench_low_train_fraction(c: &mut Criterion) {
    let bench = tiny_benchmark();
    let cfg = tiny_config();
    c.bench_function("fig8/bridge_30pct_train", |b| {
        b.iter(|| black_box(run(bench.dataset(AccountClass::Bridge), 0.3, &cfg)))
    });
}

/// Fig. 9b: LDG with three pooling layers.
fn bench_pool_depth(c: &mut Criterion) {
    let bench = tiny_benchmark();
    let mut cfg = tiny_config();
    cfg.use_gsg = false;
    cfg.contrastive_weight = 0.0;
    cfg.ldg.pool_layers = 3;
    c.bench_function("fig9b/ldg_three_pool_layers", |b| {
        b.iter(|| black_box(run(bench.dataset(AccountClass::Exchange), 0.7, &cfg)))
    });
}

criterion_group! {
    name = pipeline;
    config = Criterion::default().sample_size(10);
    targets = bench_dbg4eth_run, bench_ablation_run, bench_baseline_run,
        bench_classifier_comparison, bench_low_train_fraction, bench_pool_depth
}
criterion_main!(pipeline);
