//! `train`: the analyst's cost — `Session::train` of the paper's GSG+LDG
//! model on reduced-scale exchange datasets. Serving, the score cache and
//! `GraphStore` are bypassed.

use crate::common::{
    cpu_s, cpu_ticks, median, ms, peak_rss_mb, reset_peak_rss, steal_pct, sub_seed, timed_setup,
    Args, Outcome, Size, SETUP_REPS, THREADS,
};
use crate::layers::{self, AccountLayers};
use bench::{f64_bits_digest, sampler};
use dbg4eth::{Dbg4EthConfig, InferOptions, RunOutput, Session};
use eth_graph::Subgraph;
use eth_sim::{AccountClass, Benchmark, DatasetScale, GraphDataset};
use std::time::{Duration, Instant};

/// Share of each dataset the model trains on; the rest is held out.
const TRAIN_FRAC: f64 = 0.8;
/// Accounts per `Session::score_with` call in the traced run's infer
/// measurement, as serve-bulk batches them.
const INFER_BATCH: usize = 8;

struct Shape {
    /// Datasets trained per cycle, each from its own world seed. Their
    /// mean keeps the training cost and `test_f1` steady across seeds,
    /// where one world's heavy-tailed subgraph sizes would not.
    datasets: usize,
    scale: DatasetScale,
    /// Scale of a second world per dataset whose exchange accounts are
    /// scored as extra held-out accounts, so `test_f1` rests on hundreds
    /// of accounts instead of a 16-account test split.
    eval_scale: DatasetScale,
    epochs: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        // `bench::scale()` with 40 exchange centres: 80 graphs per dataset.
        Size::Full => Shape {
            datasets: 6,
            scale: DatasetScale {
                exchange: 40,
                ico_wallet: 40,
                mining: 36,
                phish_hack: 70,
                bridge: 40,
                defi: 40,
            },
            eval_scale: DatasetScale {
                exchange: 50,
                ico_wallet: 40,
                mining: 36,
                phish_hack: 70,
                bridge: 40,
                defi: 40,
            },
            epochs: 2,
        },
        Size::Tiny => Shape {
            datasets: 1,
            scale: DatasetScale {
                exchange: 6,
                ico_wallet: 3,
                mining: 3,
                phish_hack: 3,
                bridge: 3,
                defi: 3,
            },
            eval_scale: DatasetScale {
                exchange: 6,
                ico_wallet: 3,
                mining: 3,
                phish_hack: 3,
                bridge: 3,
                defi: 3,
            },
            epochs: 1,
        },
    }
}

/// The paper architecture (`Dbg4EthConfig::default()`: GAT heads, 10 LDG
/// slices, cross-fitting) with fewer epochs and a pinned thread count.
fn config(seed: u64, k: usize, epochs: usize) -> Dbg4EthConfig {
    let mut cfg = Dbg4EthConfig::default();
    cfg.epochs = epochs;
    cfg.parallelism = THREADS;
    cfg.seed = sub_seed(seed, "train.model", k as u64);
    cfg
}

fn held_out(dataset: &GraphDataset, cfg: &Dbg4EthConfig) -> Vec<Subgraph> {
    let (_, test) = dataset.split(TRAIN_FRAC, cfg.seed);
    test.iter().map(|&i| dataset.graphs[i].clone()).collect()
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let shape = shape(args.size);
    let mut generate_ms = Vec::new();
    let (inputs, setup) = timed_setup(|| {
        let t = Instant::now();
        let inputs: Vec<(GraphDataset, GraphDataset)> = (0..shape.datasets)
            .map(|k| {
                let world = sub_seed(args.seed, "train.world", k as u64);
                let eval = sub_seed(args.seed, "train.eval", k as u64);
                (
                    exchange(Benchmark::generate(shape.scale, sampler(), world)),
                    exchange(Benchmark::generate(shape.eval_scale, sampler(), eval)),
                )
            })
            .collect();
        generate_ms.push(ms(t.elapsed()));
        Ok(inputs)
    })?;
    let (datasets, evals): (Vec<GraphDataset>, Vec<GraphDataset>) = inputs.into_iter().unzip();
    let configs: Vec<Dbg4EthConfig> =
        (0..datasets.len()).map(|k| config(args.seed, k, shape.epochs)).collect();

    // Timed phase: whole cycles over the datasets until --seconds pass.
    let steal = cpu_ticks();
    let span = layers::begin_timed();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let mut per_training_s = Vec::new();
    let mut per_training_cpu_s = Vec::new();
    let mut trained: Vec<(Session, RunOutput)> = Vec::new();
    let mut cycles = 0usize;
    // Peak RSS of each training of the first cycle.
    let mut peaks_mb = Vec::new();
    loop {
        let (c, t) = (cpu_s(), Instant::now());
        for (k, (dataset, cfg)) in datasets.iter().zip(&configs).enumerate() {
            out.attempted += 1;
            let peak_tracked = cycles == 0 && reset_peak_rss();
            let trained_now = Session::train(dataset, TRAIN_FRAC, cfg);
            if peak_tracked {
                peaks_mb.push(peak_rss_mb());
            }
            match trained_now {
                Ok((session, run)) => {
                    if cycles == 0 {
                        trained.push((session, run));
                    } else if bits(&run.test_scores) != bits(&trained[k].1.test_scores) {
                        // Training is deterministic: a later cycle must
                        // reproduce the first bit for bit.
                        out.fail("mismatch", 1);
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: training dataset {k} failed: {e}");
                    out.fail("train_error", 1);
                }
            }
        }
        per_training_s.push(t.elapsed().as_secs_f64() / datasets.len() as f64);
        per_training_cpu_s.push((cpu_s() - c) / datasets.len() as f64);
        cycles += 1;
        if Instant::now() >= end {
            break;
        }
    }
    drop(span);
    let timed_s = start.elapsed().as_secs_f64();
    let steal_pct = steal_pct(steal);
    let captured = layers::capture();
    if trained.len() != datasets.len() {
        return Err("a training failed; no model to check".to_string());
    }

    // Output check: scoring the held-out accounts through the trained
    // session reproduces the pipeline's test-split scores bit for bit.
    // `test_f1` pools those scores with the extra held-out accounts'.
    let mut all_scores = Vec::new();
    let mut all_labels = Vec::new();
    layers::unobserved(|| {
        check(&datasets, &evals, &configs, &trained, out, &mut all_scores, &mut all_labels)
    });
    out.digest = f64_bits_digest(&all_scores);
    let f1 = nn::metrics::Metrics::from_scores(&all_scores, &all_labels, 0.5).f1;

    setup.report(out);
    // Peak RSS of one training, the median over the cycle's datasets, so
    // one world's outsized account does not set it; the whole process's
    // peak where the high-water mark cannot be reset.
    let peak = if peaks_mb.len() == datasets.len() { median(&peaks_mb) } else { peak_rss_mb() };
    out.metric("peak_rss_mb", peak, "MB");
    out.metric("cpu_ms_per_op", median(&per_training_cpu_s) * 1e3, "ms");
    let training_ms = median(&per_training_s) * 1e3;
    out.figure("train_s", training_ms / 1e3, "s");
    out.figure("test_f1", f1, "pt");
    out.info("datasets", datasets.len());
    out.info("graphs_per_dataset", datasets[0].graphs.len());
    out.info("epochs", shape.epochs);
    out.info("cycles", cycles);
    out.info("test_f1_accounts", all_scores.len());
    out.info("peak_rss_per_training", peaks_mb.len() == datasets.len());
    out.info("par_threads", THREADS);
    out.info("numerics", format!("{:?}", configs[0].numerics_profile()));
    out.info("timed_phase_s", timed_s);
    out.info("steal_pct", steal_pct);

    if args.layers {
        let trainings = (cycles * datasets.len()) as f64;
        let per = |name: &str| captured.span_ms(name) / trainings;
        out.layer("eth-sim.generate_ms", median(&generate_ms), "ms");
        captured.training_layers(out, trainings);
        captured.par_layers(out, trainings);

        model_io_layers(args, &trained[0].0, out)?;
        let accounts = held_out(&datasets[0], &configs[0]);
        let per_account = AccountLayers::measure(&trained[0].0, &accounts);
        per_account.report(out);
        // The analyst scores the first dataset's extra held-out accounts
        // in 8-account calls on one thread, as a serving worker would: the
        // infer path, which training never takes. The output check ran
        // unobserved, so these are the registry's only `model.infer` spans.
        let opts = InferOptions { threads: Some(1), ..InferOptions::default() };
        let span = obs::span(layers::TIMED_SPAN);
        for chunk in evals[0].graphs.chunks(INFER_BATCH) {
            let report = trained[0].0.score_with(chunk, &opts).map_err(|e| e.to_string())?;
            std::hint::black_box(report);
        }
        drop(span);
        layers::capture().infer_layers(out, &per_account);

        // Attribution of the wall time: `model.train` and its stages run
        // on the calling thread, so their totals decompose `train_s`. The
        // encoders run fanned out on the `par` workers, so their exclusive
        // span times are busy time summed over threads, not wall time.
        let wall_ms = training_ms;
        let stages = ["pipeline.encode", "pipeline.calibrate", "pipeline.classify"];
        out.report.push(format!("train_s {wall_ms:.1} ms per training, on the calling thread:"));
        let mut attributed = 0.0;
        for name in stages {
            let v = per(name);
            attributed += v;
            out.report.push(format!("  {name:<28} {v:>10.1} ms  {:>5.1} %", 100.0 * v / wall_ms));
        }
        out.report.push(format!(
            "  {:<28} {:>10.1} ms  {:>5.1} %  (outside the model.train stages)",
            "unattributed",
            wall_ms - attributed,
            100.0 * (wall_ms - attributed) / wall_ms
        ));
        out.report
            .push(format!("exclusive span time per training, summed over {THREADS} workers:"));
        for (name, self_ms) in captured.self_times() {
            let v = self_ms / trainings;
            if v >= 0.001 * wall_ms && name != "model.train" && !stages.contains(&name.as_str()) {
                out.report.push(format!("  {name:<28} {v:>10.1} ms"));
            }
        }
    }
    Ok(())
}

/// Score each dataset's held-out accounts through its trained session and
/// compare with the pipeline's test-split scores; collect those scores and
/// the extra held-out accounts' with their labels.
fn check(
    datasets: &[GraphDataset],
    evals: &[GraphDataset],
    configs: &[Dbg4EthConfig],
    trained: &[(Session, RunOutput)],
    out: &mut Outcome,
    all_scores: &mut Vec<f64>,
    all_labels: &mut Vec<bool>,
) {
    for (((dataset, eval), cfg), (session, run)) in
        datasets.iter().zip(evals).zip(configs).zip(trained)
    {
        let accounts = held_out(dataset, cfg);
        let report = session.score(&accounts);
        out.attempted += accounts.len() as u64;
        for (r, expected) in report.scores.iter().zip(&run.test_scores) {
            match r {
                Ok(s) if s.score.to_bits() == expected.to_bits() => {}
                Ok(_) => out.fail("mismatch", 1),
                Err(_) => out.fail("score_error", 1),
            }
        }
        if report.scores.len() != run.test_scores.len() {
            out.fail("mismatch", 1);
        }
        all_scores.extend_from_slice(&run.test_scores);
        all_labels.extend_from_slice(&run.test_labels);
        let report = session.score(&eval.graphs);
        out.attempted += eval.graphs.len() as u64;
        for (r, g) in report.scores.iter().zip(&eval.graphs) {
            match r {
                Ok(s) => {
                    all_scores.push(s.score);
                    all_labels.push(g.label == Some(eth_sim::POSITIVE));
                }
                Err(_) => out.fail("score_error", 1),
            }
        }
    }
}

/// Take the exchange dataset out of a generated benchmark.
pub fn exchange(bench: Benchmark) -> GraphDataset {
    bench
        .datasets
        .into_iter()
        .find(|d| d.class == AccountClass::Exchange)
        .expect("exchange dataset")
}

/// Time `Session::save` and `Session::open_mmap` of a trained model, as
/// the analyst hands it to the score service; medians of
/// [`SETUP_REPS`] round trips.
fn model_io_layers(args: &Args, session: &Session, out: &mut Outcome) -> Result<(), String> {
    let path = args.out_dir.join(format!("train-{}.dbgm", std::process::id()));
    let (mut save_ms, mut open_ms) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        session.save(&path).map_err(|e| e.to_string())?;
        save_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let opened = Session::open_mmap(&path).map_err(|e| e.to_string())?;
        open_ms.push(ms(t.elapsed()));
        drop(opened);
    }
    std::fs::remove_file(&path).ok();
    out.layer("model-io.save_ms", median(&save_ms), "ms");
    out.layer("model-io.open_ms", median(&open_ms), "ms");
    Ok(())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
