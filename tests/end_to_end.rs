//! Integration test spanning the whole stack: world generation →
//! transaction graph → top-K sampling → deep features → double-graph
//! encoders → calibration → classification.

use dbg4eth::{run, Dbg4EthConfig};
use eth_graph::{sample_subgraph, SamplerConfig, TxGraph};
use eth_sim::{AccountClass, Benchmark, DatasetScale, World, WorldConfig, POSITIVE};
use gnn::GraphTensors;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The run-report registry is process-global: a `run()` on another test
/// thread while the observability test has metrics on would be recorded
/// into its report. Every test that calls `run()` holds this lock.
static RUNS: Mutex<()> = Mutex::new(());

fn exclusive_runs() -> MutexGuard<'static, ()> {
    RUNS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny_scale() -> DatasetScale {
    DatasetScale { exchange: 12, ico_wallet: 0, mining: 0, phish_hack: 12, bridge: 0, defi: 0 }
}

fn tiny_config() -> Dbg4EthConfig {
    let mut cfg = Dbg4EthConfig::fast();
    cfg.epochs = 5;
    cfg.gsg.hidden = 16;
    cfg.gsg.d_out = 8;
    cfg.ldg.hidden = 16;
    cfg.ldg.d_out = 8;
    cfg.ldg.pool_clusters = [6, 3, 1];
    cfg.t_slices = 4;
    cfg
}

#[test]
fn world_to_subgraph_to_tensors_round_trip() {
    let world = World::generate(
        WorldConfig { n_background: 400, seed: 9, ..Default::default() },
        &[(AccountClass::Exchange, 3)],
    );
    let graph = TxGraph::build(world.kinds.clone(), world.txs.clone());
    for center in world.centers_of(AccountClass::Exchange) {
        let sg = sample_subgraph(&graph, center, SamplerConfig::default(), Some(POSITIVE));
        assert_eq!(sg.nodes[0], center);
        assert!(sg.n() > 5, "exchange subgraph too small: {}", sg.n());
        // Feature extraction agrees with graph size.
        let x = features::node_features(&sg);
        assert_eq!(x.rows(), sg.n());
        assert_eq!(x.cols(), features::N_FEATURES);
        assert!(x.all_finite());
        // Lowering produces consistent tensors.
        let t = GraphTensors::from_subgraph(&sg, 6);
        assert_eq!(t.n, sg.n());
        assert_eq!(t.slice_adj.len(), 6);
        for adj in std::iter::once(&t.gsg_adj).chain(&t.slice_adj) {
            assert_eq!(adj.shape(), (sg.n(), sg.n()));
            // Sparse: every self-loop plus at most both directions of
            // each merged edge.
            assert!(adj.nnz() >= sg.n());
            assert!(adj.nnz() <= sg.n() + 2 * sg.merged_edges().len());
        }
        // Value conservation: sum of slice edge mass equals merged mass.
        let merged_total: f64 = sg.merged_edges().iter().map(|e| e.total_value).sum();
        let slices_total: f64 =
            sg.time_slices(6).iter().flat_map(|s| s.edges.iter().map(|e| e.2)).sum();
        assert!((merged_total - slices_total).abs() < 1e-6 * merged_total.max(1.0));
    }
}

#[test]
fn pipeline_beats_chance_on_separable_data() {
    let _runs = exclusive_runs();
    let bench = Benchmark::generate(tiny_scale(), SamplerConfig::new(15, 2), 4);
    let out = run(bench.dataset(AccountClass::Exchange), 0.7, &tiny_config());
    // With 12+12 graphs the tiny config will not be perfect, but it must be
    // far above coin-flipping.
    assert!(out.metrics.accuracy > 60.0, "accuracy barely above chance: {:?}", out.metrics);
    assert!(out.test_scores.iter().all(|p| (0.0..=1.0).contains(p)));
}

#[test]
fn calibration_diagnostics_are_consistent() {
    let _runs = exclusive_runs();
    let bench = Benchmark::generate(tiny_scale(), SamplerConfig::new(15, 2), 5);
    let out = run(bench.dataset(AccountClass::PhishHack), 0.7, &tiny_config());
    for diag in [out.gsg.as_ref().unwrap(), out.ldg.as_ref().unwrap()] {
        assert_eq!(diag.weights.len(), 6);
        let sum: f64 = diag.weights.iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        assert!(diag.base_ece >= 0.0 && diag.calibrated_ece >= 0.0);
    }
}

#[test]
fn branch_features_match_split_sizes() {
    let _runs = exclusive_runs();
    let bench = Benchmark::generate(tiny_scale(), SamplerConfig::new(15, 2), 6);
    let dataset = bench.dataset(AccountClass::Exchange);
    let (train_idx, test_idx) = dataset.split(0.7, tiny_config().seed);
    let out = run(dataset, 0.7, &tiny_config());
    // holdout_frac = 0 ⇒ classifier features cover the whole train split.
    assert_eq!(out.train_features.len(), train_idx.len());
    assert_eq!(out.test_features.len(), test_idx.len());
    assert_eq!(out.test_scores.len(), test_idx.len());
}

/// Enabling metrics must not perturb predictions (at any thread count),
/// and the emitted run-report must round-trip through the JSON parser.
#[test]
fn observability_is_invisible_to_predictions_and_reports_round_trip() {
    let _runs = exclusive_runs();
    let bench = Benchmark::generate(tiny_scale(), SamplerConfig::new(15, 2), 4);
    let dataset = bench.dataset(AccountClass::Exchange);
    let mut cfg = tiny_config();
    cfg.parallelism = 1;
    let baseline = run(dataset, 0.7, &cfg);

    obs::set_metrics_enabled(true);
    dbg4eth::report::clear_runs();
    let serial = run(dataset, 0.7, &cfg);
    cfg.parallelism = 4;
    let parallel = run(dataset, 0.7, &cfg);
    let report = dbg4eth::report::build_report("end_to_end");
    obs::set_metrics_enabled(false);
    dbg4eth::report::clear_runs();

    // Observability is pure observation: byte-identical scores with metrics
    // off, on at 1 thread, and on at 4 threads.
    assert_eq!(baseline.test_scores, serial.test_scores);
    assert_eq!(serial.test_scores, parallel.test_scores);
    assert_eq!(baseline.metrics.f1, parallel.metrics.f1);

    // The report parses back to the same document (round-trip identity).
    let text = report.render();
    let parsed = obs::Json::parse(&text).expect("report parses");
    assert_eq!(parsed.render(), report.as_json().render(), "parse → render identity");
    assert_eq!(parsed.get("schema").and_then(obs::Json::as_str), Some(obs::REPORT_SCHEMA));
    assert_eq!(parsed.get("version").and_then(obs::Json::as_f64), Some(2.0));
    let runs = parsed.get("runs").and_then(obs::Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 2, "one recorded run per metrics-enabled run()");
    let gsg = runs[0].get("branches").and_then(|b| b.get("gsg")).expect("gsg branch");
    let calibrators = gsg.get("calibrators").and_then(obs::Json::as_arr).expect("calibrators");
    assert_eq!(calibrators.len(), 6, "all six calibration methods reported");
    for c in calibrators {
        assert!(c.get("weight").and_then(obs::Json::as_f64).is_some());
        assert!(c.get("delta_ece").and_then(obs::Json::as_f64).is_some());
    }
    let losses = gsg.get("epoch_loss").and_then(obs::Json::as_arr).expect("epoch_loss");
    assert_eq!(losses.len(), cfg.epochs, "one loss per training epoch");
    assert!(parsed.get("spans").and_then(|s| s.get("pipeline.run")).is_some());
    // The scoring tapes' pool footprint is attributable in the report.
    let gauges = parsed.get("gauges").expect("gauges section");
    for name in [
        "score.pool.allocated_bytes",
        "score.pool.high_water_buffers",
        "score.pool.peak_live_bytes",
    ] {
        let v = gauges.get(name).and_then(obs::Json::as_f64);
        assert!(v.is_some_and(|v| v > 0.0), "gauge {name} missing or zero: {v:?}");
    }

    // Schema v2: spans carry exclusive self-time, the report carries a
    // ranked self-time table, and per-account inference latency quantiles.
    let run_span = parsed.get("spans").and_then(|s| s.get("pipeline.run")).unwrap();
    let total = run_span.get("total_ms").and_then(obs::Json::as_f64).expect("total_ms");
    let own = run_span.get("self_ms").and_then(obs::Json::as_f64).expect("self_ms");
    assert!(own >= 0.0 && own <= total + 1e-9, "self {own}ms exceeds total {total}ms");
    let table = parsed.get("self_time").and_then(obs::Json::as_arr).expect("self_time table");
    assert!(!table.is_empty(), "self-time table is empty");
    let ranked: Vec<f64> =
        table.iter().map(|r| r.get("self_ms").and_then(obs::Json::as_f64).unwrap()).collect();
    assert!(ranked.windows(2).all(|w| w[0] >= w[1]), "self-time table not ranked: {ranked:?}");
}
