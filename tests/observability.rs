//! Tier-1 observability suite.
//!
//! These tests own the process-global metric registry and timeline tracer,
//! so this file is its own test binary (its own process) and every test
//! serialises on [`OBS_LOCK`]. The contracts under test:
//!
//! * **Self-time is an exact decomposition** — at one worker thread, a
//!   span's exclusive time equals its inclusive time minus the inclusive
//!   time of its direct children, to the nanosecond.
//! * **Per-account latency quantiles** — `Session::score` records one
//!   histogram observation per scored account, at any thread count.
//! * **Trace validity** — a traced pipeline run exports Chrome
//!   `trace_event` JSON with balanced, monotone begin/end pairs per thread.
//! * **Inert probes** — with metrics and tracing off, spans and counters
//!   are a single atomic load; nothing is recorded and nothing is slow.

use dbg4eth::{run, Dbg4EthConfig, Session};
use eth_graph::{SamplerConfig, Subgraph};
use eth_sim::{AccountClass, Benchmark, DatasetScale, GraphDataset};
use std::sync::Mutex;
use std::time::Instant;

/// Serialises tests in this binary: they all mutate global obs state.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn tiny_scale() -> DatasetScale {
    DatasetScale { exchange: 10, ico_wallet: 0, mining: 0, phish_hack: 10, bridge: 0, defi: 0 }
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
    cfg.parallelism = 1;
    cfg
}

fn tiny_bench(seed: u64) -> Benchmark {
    Benchmark::generate(tiny_scale(), SamplerConfig::new(12, 2), seed)
}

fn test_split_graphs(dataset: &GraphDataset, train_frac: f64, seed: u64) -> Vec<Subgraph> {
    let (_, test_idx) = dataset.split(train_frac, seed);
    test_idx.iter().map(|&i| dataset.graphs[i].clone()).collect()
}

/// At one worker thread every stage of `pipeline.encode` nests under it on
/// the same thread, so the aggregated self-time identity is exact:
/// `encode.self == encode.total − Σ direct-children.total`, in integer
/// nanoseconds — not approximately, *exactly*.
#[test]
fn encode_self_time_decomposes_exactly_at_one_thread() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // `DBG4ETH_THREADS` overrides the configured parallelism; the exact
    // identity only holds when the stages genuinely nest on one thread.
    let serial = par::resolve_threads(1) == 1;
    obs::reset();
    obs::set_metrics_enabled(true);
    let bench = tiny_bench(21);
    let _ = run(bench.dataset(AccountClass::Exchange), 0.7, &tiny_config());
    let snap = obs::snapshot();
    obs::set_metrics_enabled(false);
    obs::reset();

    let total = |name: &str| snap.spans.get(name).map_or(0u128, |s| s.total_ns);
    let encode = snap.spans.get("pipeline.encode").expect("pipeline.encode span recorded");
    let children = total("pipeline.encode.lower")
        + total("train.gsg")
        + total("train.ldg")
        + total("pipeline.encode.score");
    assert!(children > 0, "no child stages recorded under pipeline.encode");
    assert!(encode.self_ns <= encode.total_ns, "exclusive exceeds inclusive");
    if serial {
        assert!(children <= encode.total_ns, "children exceed parent inclusive time");
        assert_eq!(
            encode.self_ns,
            encode.total_ns - children,
            "exclusive time must equal inclusive minus direct children \
             (self {} ≠ total {} − children {})",
            encode.self_ns,
            encode.total_ns,
            children
        );
    }
    // The deeper levels obey the same inequality at any thread count.
    let gsg = snap.spans.get("train.gsg").expect("train.gsg span recorded");
    assert!(gsg.self_ns <= gsg.total_ns);
}

/// perfbench's per-layer table reads these names from a training run; a
/// renamed span or counter would read as 0 there without failing anything
/// else, so one `Session::train` must record every one of them.
#[test]
fn training_records_the_per_branch_metrics_perfbench_reads() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    obs::reset();
    obs::set_metrics_enabled(true);
    let bench = tiny_bench(24);
    Session::train(bench.dataset(AccountClass::Exchange), 0.7, &tiny_config())
        .expect("training succeeds");
    let snap = obs::snapshot();
    obs::set_metrics_enabled(false);
    obs::reset();

    for span in [
        "train.gsg.forward",
        "train.gsg.backward",
        "train.ldg.forward",
        "train.ldg.backward",
        "encode.batch",
        "pipeline.encode.score",
    ] {
        assert!(snap.spans.get(span).is_some_and(|s| s.count > 0), "span {span} not recorded");
    }
    for counter in [
        "train.gsg.pool.allocated_bytes",
        "train.ldg.pool.allocated_bytes",
        "train.gsg.tape_ops",
        "train.ldg.tape_ops",
    ] {
        assert!(
            snap.counters.get(counter).is_some_and(|&v| v > 0),
            "counter {counter} not recorded"
        );
    }
    for gauge in [
        "train.ldg.pool.high_water_buffers",
        "train.gsg.pool.peak_live_bytes",
        "train.ldg.pool.peak_live_bytes",
        "train.gsg.pool.fit_allocated_bytes",
        "train.ldg.pool.fit_allocated_bytes",
    ] {
        assert!(snap.gauges.get(gauge).is_some_and(|&v| v > 0.0), "gauge {gauge} not recorded");
    }
    // The counter sums every fit's footprint, the gauge keeps the largest
    // one: with cross-fitting each branch fits three times.
    for branch in ["gsg", "ldg"] {
        let summed = snap.counters[&format!("train.{branch}.pool.allocated_bytes")];
        let largest = snap.gauges[&format!("train.{branch}.pool.fit_allocated_bytes")];
        assert_eq!(snap.counters[&format!("train.{branch}.fits")], 3, "{branch} fits");
        assert!(largest < summed as f64, "{branch}: largest fit {largest} B of {summed} B");
    }
}

/// Serving-path latency: one histogram observation per scored account,
/// with finite, ordered quantiles — and the same count at 1 and 4 threads.
#[test]
fn per_account_latency_histogram_covers_every_scored_account() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let bench = tiny_bench(22);
    let dataset = bench.dataset(AccountClass::Exchange);
    let cfg = tiny_config();
    let (session, _) = Session::train(dataset, 0.7, &cfg).expect("training succeeds");
    let accounts = test_split_graphs(dataset, 0.7, cfg.seed);
    assert!(!accounts.is_empty());

    for threads in [1usize, 4] {
        obs::reset();
        obs::set_metrics_enabled(true);
        let opts = dbg4eth::InferOptions { threads: Some(threads), ..Default::default() };
        let report = session.score_with(&accounts, &opts).expect("scoring succeeds");
        let snap = obs::snapshot();
        obs::set_metrics_enabled(false);
        obs::reset();

        assert!(report.scores.iter().all(Result::is_ok), "all accounts score cleanly");
        let hist = snap
            .histograms
            .get("infer.account_latency_ms")
            .expect("per-account latency histogram recorded");
        assert_eq!(
            hist.count,
            accounts.len() as u64,
            "one observation per scored account at {threads} threads"
        );
        let [p50, p90, p99] = hist.percentiles();
        assert!(p50.is_finite() && p90.is_finite() && p99.is_finite());
        assert!(p50 >= 0.0 && p50 <= p90 && p90 <= p99, "quantiles out of order");
    }
}

/// A traced pipeline run exports valid Chrome `trace_event` JSON: every
/// thread's events are time-ordered, begin/end pairs balance in LIFO
/// order, and the pipeline stages all appear by name. The cross-fit
/// encoder trainings are one flat fan-out, so no more of them are live at
/// once than the run has worker threads.
#[test]
fn traced_pipeline_run_exports_valid_chrome_trace_json() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    obs::reset_trace();
    obs::set_trace_enabled(true);
    let bench = tiny_bench(23);
    let mut cfg = tiny_config();
    cfg.parallelism = 2; // worker threads ⇒ multiple tids in the trace
    let _ = run(bench.dataset(AccountClass::PhishHack), 0.7, &cfg);
    let doc = obs::export_trace_json();
    obs::set_trace_enabled(false);
    obs::reset_trace();

    // Round-trips through the JSON parser.
    let parsed = obs::Json::parse(&doc.render()).expect("trace JSON parses");
    assert_eq!(parsed.get("displayTimeUnit").and_then(obs::Json::as_str), Some("ms"));
    let events = parsed.get("traceEvents").and_then(obs::Json::as_arr).expect("traceEvents");
    assert!(!events.is_empty(), "trace is empty");

    use std::collections::{BTreeMap, BTreeSet};
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    // (timestamp, +1 at a training's begin / -1 at its end).
    let mut trainings: Vec<(f64, i32)> = Vec::new();
    for ev in events {
        let name = ev.get("name").and_then(obs::Json::as_str).expect("event name").to_owned();
        let ph = ev.get("ph").and_then(obs::Json::as_str).expect("event phase");
        let ts = ev.get("ts").and_then(obs::Json::as_f64).expect("event timestamp");
        let tid = ev.get("tid").and_then(obs::Json::as_f64).expect("event tid") as u64;
        assert!(ev.get("pid").is_some(), "event missing pid");
        let prev = last_ts.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
        assert!(ts >= prev, "timestamps regress on tid {tid}: {prev} → {ts}");
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(name.clone()),
            "E" => {
                let open = stack.pop().unwrap_or_else(|| panic!("E without B on tid {tid}"));
                assert_eq!(open, name, "unbalanced spans on tid {tid}");
            }
            other => panic!("unexpected phase {other:?}"),
        }
        if name == "train.gsg" || name == "train.ldg" {
            trainings.push((ts, if ph == "B" { 1 } else { -1 }));
        }
        names.insert(name);
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    for expected in ["pipeline.run", "pipeline.encode", "train.gsg", "train.ldg"] {
        assert!(names.contains(expected), "stage {expected} missing from trace");
    }
    // Sweep the begin/end edges in time order, ends first on a tie.
    trainings.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut live, mut most_live) = (0, 0);
    for (_, edge) in trainings {
        live += edge;
        most_live = most_live.max(live);
    }
    let threads = par::resolve_threads(2);
    assert!(
        most_live as usize <= threads,
        "{most_live} encoder trainings were live at once on {threads} worker threads"
    );
}

/// With metrics and tracing both off, probes must cost a single relaxed
/// atomic load: a million disabled spans + counters finish fast and leave
/// no state behind. The bound is deliberately generous (CI machines are
/// noisy); a probe that takes a lock or allocates blows past it anyway.
#[test]
fn disabled_probes_are_inert_and_cheap() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::reset();

    let started = Instant::now();
    for i in 0..1_000_000u64 {
        let _span = obs::span("inert.probe");
        obs::counter_add("inert.count", i);
        obs::gauge_set("inert.gauge", i as f64);
    }
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs_f64() < 2.0, "1M inert probes took {elapsed:?}");

    let snap = obs::snapshot();
    assert!(snap.spans.is_empty(), "disabled spans were recorded: {:?}", snap.spans.keys());
    assert!(snap.counters.is_empty(), "disabled counters were recorded");
    assert!(snap.gauges.is_empty(), "disabled gauges were recorded");
    assert_eq!(obs::span_depth(), 0, "disabled spans touched the thread stack");
}
