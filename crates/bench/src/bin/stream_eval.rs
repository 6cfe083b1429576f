//! `stream-eval` — sliding-window evaluation of a frozen model over a
//! drifting transaction stream.
//!
//! ```text
//! stream-eval [--class NAME] [--pos N] [--drift F] [--windows N]
//!             [--train-windows N] [--seed S] [--out PATH]
//! ```
//!
//! Generates an [`eth_sim::StreamScenario`] (one world whose labelled
//! centres drift toward `Normal` behaviour as their lifetimes progress),
//! trains a [`dbg4eth::Session`] on subgraphs sampled from the stream's
//! time **prefix**, then feeds the remaining windows one at a time through
//! [`eth_graph::GraphStore::apply`]. Each window, exactly the centres named
//! in the returned [`IngestDelta`](eth_graph::IngestDelta) are re-sampled
//! and re-scored — the online-invalidation path `serve` runs in production
//! — and the wall time of that re-score feeds the
//! `stream.rescore_latency_ms` histogram, so a run with `DBG4ETH_METRICS`
//! set leaves a run-report that `report-diff --hist
//! stream.rescore_latency_ms` can gate in CI.
//!
//! The per-window F1/ECE of the *current* score table (re-scored centres
//! fresh, untouched centres carrying their last score) is written to
//! `BENCH_stream.json` (schema `dbg4eth.bench.stream`): with `--drift > 0`
//! the frozen early model decays window over window, which is the paper's
//! temporal-generalisation failure mode reproduced synthetically.

use dbg4eth::Session;
use eth_graph::{GraphStore, StoreConfig, Subgraph};
use eth_sim::{GraphDataset, StreamScenario};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    class: Option<String>,
    pos: usize,
    drift: f64,
    windows: usize,
    train_windows: usize,
    seed: u64,
    out: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: stream-eval [--class NAME] [--pos N] [--drift F] [--windows N] \
         [--train-windows N] [--seed S] [--out PATH]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        class: None,
        pos: 24,
        drift: 0.8,
        windows: 8,
        train_windows: 4,
        seed: bench::seed(),
        out: "BENCH_stream.json".to_string(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        macro_rules! value {
            () => {
                match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => return Err(usage()),
                }
            };
        }
        match arg.as_str() {
            "--class" => {
                args.class = Some(match it.next() {
                    Some(v) => v.clone(),
                    None => return Err(usage()),
                })
            }
            "--pos" => args.pos = value!(),
            "--drift" => args.drift = value!(),
            "--windows" => args.windows = value!(),
            "--train-windows" => args.train_windows = value!(),
            "--seed" => args.seed = value!(),
            "--out" => {
                args.out = match it.next() {
                    Some(v) => v.clone(),
                    None => return Err(usage()),
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => {
                eprintln!("unknown argument {other:?}");
                return Err(usage());
            }
        }
    }
    if args.windows < 2 || args.train_windows == 0 || args.train_windows >= args.windows {
        eprintln!("stream-eval: need 0 < --train-windows < --windows (and --windows >= 2)");
        return Err(usage());
    }
    Ok(args)
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let pos = (q * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[pos.min(sorted_ms.len() - 1)]
}

fn sample_centres(store: &GraphStore, scenario: &StreamScenario, ids: &[usize]) -> Vec<Subgraph> {
    let sampler = bench::sampler();
    ids.iter()
        .map(|&id| {
            let positive = scenario
                .centers
                .iter()
                .find(|(a, _)| *a == id)
                .map(|(_, p)| usize::from(*p))
                .expect("centre id");
            store.sample(id, sampler, Some(positive))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let class = bench::class_arg(args.class.as_deref());
    let scenario = StreamScenario::generate(class, args.pos, args.drift, args.seed);
    let windows = scenario.windows(args.windows);
    let centre_ids: Vec<usize> = scenario.centers.iter().map(|(a, _)| *a).collect();
    let labels: Vec<bool> = scenario.centers.iter().map(|(_, p)| *p).collect();

    // Build the store over the training prefix and fit the model there.
    // The delta radius must cover the sampler's hops.
    let config = StoreConfig::new(
        bench::sampler().hops,
        StoreConfig::default().slice_secs,
        scenario.t_start,
    );
    let mut store = GraphStore::new(scenario.kinds.clone(), config);
    for w in &windows[..args.train_windows] {
        store.apply(scenario.window_txs(w));
    }
    let dataset = GraphDataset { class, graphs: sample_centres(&store, &scenario, &centre_ids) };
    let mut cfg = dbg4eth::Dbg4EthConfig::fast();
    cfg.seed = args.seed;
    cfg.parallelism = bench::threads();
    let (session, _) = match Session::train(&dataset, 0.8, &cfg) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("stream-eval: training on the stream prefix failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Initial score table: every centre scored against the prefix graph.
    let score = |session: &Session, graphs: &[Subgraph]| -> Vec<f64> {
        session.score(graphs).scores.into_iter().map(|r| r.map_or(0.5, |s| s.score)).collect()
    };
    let mut current: Vec<f64> = score(&session, &dataset.graphs);

    let edges = obs::log_edges(0.1, 10_000.0, 24);
    let mut rows = Vec::new();
    let mut latencies = Vec::new();
    println!("window      txs  rescored      F1     ECE   rescore_ms");
    for (w_idx, window) in windows.iter().enumerate().skip(args.train_windows) {
        let _span = obs::span("stream.window");
        let delta = store.apply(scenario.window_txs(window));
        // Exactly the centres the delta names get fresh subgraphs and
        // fresh scores; everyone else keeps their cached score, same as a
        // serve cache that only evicts affected fingerprints.
        let touched: Vec<usize> = centre_ids
            .iter()
            .enumerate()
            .filter(|(_, id)| delta.accounts.binary_search(id).is_ok())
            .map(|(i, _)| i)
            .collect();
        let t = Instant::now();
        let rescored = if touched.is_empty() {
            Vec::new()
        } else {
            let ids: Vec<usize> = touched.iter().map(|&i| centre_ids[i]).collect();
            let graphs = sample_centres(&store, &scenario, &ids);
            score(&session, &graphs)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        obs::observe("stream.rescore_latency_ms", &edges, ms);
        obs::counter_add("stream.rescored", touched.len() as u64);
        latencies.push(ms);
        for (&i, &s) in touched.iter().zip(rescored.iter()) {
            current[i] = s;
        }

        let m = nn::metrics::Metrics::from_scores(&current, &labels, 0.5);
        let ece = calib::ece(&current, &labels, 10);
        println!(
            "{w_idx:>6} {:>8} {:>9} {:>7.2} {:>7.3} {ms:>12.2}",
            delta.applied,
            touched.len(),
            m.f1,
            ece,
        );
        let mut row = obs::Json::obj();
        row.set("window", w_idx);
        row.set("t_start", window.t_start);
        row.set("t_end", window.t_end);
        row.set("txs_applied", delta.applied);
        row.set("delta_accounts", delta.accounts.len());
        row.set("rescored", touched.len());
        row.set("f1", m.f1);
        row.set("precision", m.precision);
        row.set("recall", m.recall);
        row.set("ece", ece);
        row.set("rescore_ms", ms);
        rows.push(row);
    }

    let first_f1 = rows.first().and_then(|r| r.get("f1")).and_then(obs::Json::as_f64);
    let last_f1 = rows.last().and_then(|r| r.get("f1")).and_then(obs::Json::as_f64);
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);

    let mut out = obs::Json::obj();
    out.set("schema", "dbg4eth.bench.stream");
    out.set("version", 1u64);
    out.set("class", class.name());
    out.set("drift", args.drift);
    out.set("seed", args.seed);
    out.set("pos_centres", args.pos);
    out.set("windows", args.windows);
    out.set("train_windows", args.train_windows);
    out.set("eval_windows", rows.len());
    out.set("f1_first", first_f1.unwrap_or(0.0));
    out.set("f1_last", last_f1.unwrap_or(0.0));
    out.set("f1_decay", first_f1.unwrap_or(0.0) - last_f1.unwrap_or(0.0));
    out.set("rescore_p50_ms", percentile(&sorted, 0.50));
    out.set("rescore_p99_ms", percentile(&sorted, 0.99));
    let n_eval = rows.len();
    out.set("per_window", rows);
    if let Err(e) = std::fs::write(&args.out, out.render_pretty()) {
        eprintln!("stream-eval: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "evaluated {} windows ({} {} centres, drift {}): F1 {:.2} -> {:.2} → {}",
        n_eval,
        scenario.centers.len(),
        class.name(),
        args.drift,
        first_f1.unwrap_or(0.0),
        last_f1.unwrap_or(0.0),
        args.out,
    );
    bench::emit_report("stream-eval");
    ExitCode::SUCCESS
}
