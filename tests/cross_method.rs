//! Integration tests across methods (DBG4ETH vs baselines) on a shared tiny
//! benchmark — the code path behind Table III at smoke-test scale.

use baselines::{
    predict_model, run_baseline, train_model, AppnpBaseline, Baseline, BaselineConfig,
    Bert4EthBaseline, GatBaseline, GcnBaseline, GinBaseline, GraphModel, GritBaseline,
    I2BgnnBaseline, LoweredDataset, SageBaseline, TegDetectorBaseline, TsgnBaseline,
};
use bench::f64_bits_digest;
use dbg4eth::{run, Dbg4EthConfig};
use eth_graph::SamplerConfig;
use eth_sim::{AccountClass, Benchmark, DatasetScale};
use nn::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny() -> Benchmark {
    let scale =
        DatasetScale { exchange: 14, ico_wallet: 0, mining: 0, phish_hack: 0, bridge: 0, defi: 0 };
    Benchmark::generate(scale, SamplerConfig::new(15, 2), 8)
}

fn tiny_baseline_config() -> BaselineConfig {
    let mut cfg = BaselineConfig::default();
    cfg.train.epochs = 4;
    cfg.hidden = 16;
    cfg.t_slices = 4;
    cfg.embed.walks.walks_per_node = 3;
    cfg.embed.skipgram.dim = 16;
    cfg
}

#[test]
fn representative_baselines_produce_valid_metrics() {
    let bench = tiny();
    let d = bench.dataset(AccountClass::Exchange);
    let cfg = tiny_baseline_config();
    // One representative per family keeps the smoke test quick; the full
    // 18-method sweep runs in `cargo run -p bench --bin table3`.
    for b in [
        Baseline::DeepWalk,
        Baseline::Gcn,
        Baseline::GcnNoFeatures,
        Baseline::Ethident,
        Baseline::TegDetector,
        Baseline::Bert4Eth,
    ] {
        let m = run_baseline(b, d, 0.7, &cfg);
        assert!(m.precision >= 0.0 && m.precision <= 100.0, "{}: {m:?}", b.name());
        assert!(m.f1 <= 100.0);
        assert!(m.accuracy > 0.0, "{} got 0 accuracy", b.name());
    }
}

#[test]
fn node_features_help_the_gcn_baseline() {
    // The Table III shape: GCN with deep features ≥ GCN without, on a
    // dataset whose classes differ mostly in feature scales.
    let bench = tiny();
    let d = bench.dataset(AccountClass::Exchange);
    let mut cfg = tiny_baseline_config();
    cfg.train.epochs = 8;
    let with = run_baseline(Baseline::Gcn, d, 0.7, &cfg);
    let without = run_baseline(Baseline::GcnNoFeatures, d, 0.7, &cfg);
    assert!(
        with.f1 + 1e-9 >= without.f1,
        "features hurt GCN: with {:.2} vs without {:.2}",
        with.f1,
        without.f1
    );
}

#[test]
fn dbg4eth_is_competitive_with_single_branch_ablations() {
    let bench = tiny();
    let d = bench.dataset(AccountClass::Exchange);
    let mut cfg = Dbg4EthConfig::fast();
    cfg.epochs = 6;
    cfg.gsg.hidden = 16;
    cfg.gsg.d_out = 8;
    cfg.ldg.hidden = 16;
    cfg.ldg.d_out = 8;
    cfg.ldg.pool_clusters = [6, 3, 1];
    cfg.t_slices = 4;
    let full = run(d, 0.7, &cfg);

    let mut wo_ldg = cfg;
    wo_ldg.use_ldg = false;
    let gsg_only = run(d, 0.7, &wo_ldg);

    // At smoke scale exact ordering is noisy; require the combination not
    // to collapse relative to its own branch.
    assert!(
        full.metrics.f1 + 25.0 >= gsg_only.metrics.f1,
        "full {:.2} collapsed vs GSG-only {:.2}",
        full.metrics.f1,
        gsg_only.metrics.f1
    );
}

/// Train a freshly built baseline on `lowered`'s train split and digest the
/// bit patterns of its test-split probabilities.
fn prediction_digest<M: GraphModel>(
    lowered: &LoweredDataset,
    cfg: &BaselineConfig,
    build: impl FnOnce(&mut ParamStore, &mut StdRng) -> M,
) -> u64 {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(cfg.train.seed ^ 0xBA5E11);
    let model = build(&mut store, &mut rng);
    train_model(&model, &mut store, &lowered.train_graphs(), cfg.train);
    f64_bits_digest(&predict_model(&model, &store, &lowered.test_graphs()))
}

#[test]
fn adjacency_baselines_output_bits_are_pinned() {
    // Every baseline that propagates over an adjacency or an edge list, or
    // pools node rows, trained and scored on the tiny dataset. The digests
    // pin how adjacencies are stored and multiplied and how rows are
    // pooled: changing either must not move a single bit of any prediction.
    let bench = tiny();
    let d = bench.dataset(AccountClass::Exchange);
    let cfg = tiny_baseline_config();
    let lowered = LoweredDataset::new(d, cfg.t_slices, true, 0.7, cfg.train.seed);
    let (d_in, h, t) = (lowered.tensors[0].x.cols(), cfg.hidden, cfg.t_slices);
    let got = [
        ("GCN", prediction_digest(&lowered, &cfg, |s, r| GcnBaseline::new(s, r, d_in, h))),
        ("APPNP", prediction_digest(&lowered, &cfg, |s, r| AppnpBaseline::new(s, r, d_in, h))),
        ("I2BGNN", prediction_digest(&lowered, &cfg, |s, r| I2BgnnBaseline::new(s, r, d_in, h))),
        (
            "TEGDetector",
            prediction_digest(&lowered, &cfg, |s, r| TegDetectorBaseline::new(s, r, d_in, h, t)),
        ),
        ("GRIT", prediction_digest(&lowered, &cfg, |s, r| GritBaseline::new(s, r, d_in, h))),
        ("TSGN", prediction_digest(&lowered, &cfg, |s, r| TsgnBaseline::new(s, r, h))),
        ("GAT", prediction_digest(&lowered, &cfg, |s, r| GatBaseline::new(s, r, d_in, h, 2))),
        ("GIN", prediction_digest(&lowered, &cfg, |s, r| GinBaseline::new(s, r, d_in, h))),
        ("GraphSAGE", prediction_digest(&lowered, &cfg, |s, r| SageBaseline::new(s, r, d_in, h))),
        ("BERT4ETH", prediction_digest(&lowered, &cfg, |s, r| Bert4EthBaseline::new(s, r, h))),
    ];
    let want = [
        ("GCN", 0x82af_1251_1b15_42f6),
        ("APPNP", 0x6122_c721_26ca_3c4e),
        ("I2BGNN", 0x5ccd_8c4a_5807_e914),
        ("TEGDetector", 0x62f8_3061_63b4_36de),
        ("GRIT", 0x6a31_132d_a2a2_24b3),
        ("TSGN", 0x3356_bf17_bb39_ad18),
        ("GAT", 0x626b_a41a_c304_afb2),
        ("GIN", 0x6ed3_8f89_e103_4461),
        ("GraphSAGE", 0xcd1e_0239_7750_ffb7),
        ("BERT4ETH", 0x6e72_55f1_5666_09ef),
    ];
    for ((name, g), (_, w)) in got.iter().zip(&want) {
        println!("{name}: got {g:#018x}, want {w:#018x}");
    }
    assert_eq!(got, want);
}
