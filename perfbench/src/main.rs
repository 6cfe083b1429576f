//! `perfbench` — one workload of the benchmark of record, in one process.
//!
//! ```text
//! perfbench --workload train|serve-bulk|stream-live --seed N --seconds S
//!           [--size full|tiny] [--layers] [--out-dir DIR]
//! ```
//!
//! Normally started by `perfbench/run.py`, which builds this binary,
//! scrubs `DBG4ETH_*` from the environment, and for a traced run starts it
//! twice (plain, then with `DBG4ETH_METRICS` / `DBG4ETH_TRACE` and
//! `--layers`). The last line of standard output is one JSON object with
//! the run's end-to-end metrics, per-layer metrics (with `--layers`),
//! failure counts, sample counts and run facts.

mod common;
mod layers;
mod serve_bulk;
mod stream_live;
mod train;

use common::{Args, Outcome, Size};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["train", "serve-bulk", "stream-live"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload train|serve-bulk|stream-live --seed N --seconds S \
         [--size full|tiny] [--layers] [--out-dir DIR]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        size: Size::Full,
        layers: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let (mut seed, mut seconds) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next()?,
            "--seed" => seed = it.next()?.parse().ok(),
            "--seconds" => seconds = it.next()?.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--size" => {
                args.size = match it.next()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return None,
                }
            }
            "--layers" => args.layers = true,
            "--out-dir" => args.out_dir = PathBuf::from(it.next()?),
            _ => return None,
        }
    }
    args.seed = seed?;
    args.seconds = seconds?;
    WORKLOADS.contains(&args.workload.as_str()).then_some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { return usage() };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut out = Outcome::default();
    let run = match args.workload.as_str() {
        "train" => train::run(&args, &mut out),
        "serve-bulk" => serve_bulk::run(&args, &mut out),
        _ => stream_live::run(&args, &mut out),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    out.info("seed", args.seed);
    out.info("size", format!("{:?}", args.size).to_lowercase());
    if args.layers {
        layers::write_artifacts(&args.workload, &mut out);
    }
    println!("{}", out.to_json(&args.workload).render());
    ExitCode::SUCCESS
}
