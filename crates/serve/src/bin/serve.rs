//! The score-service daemon.
//!
//! ```text
//! serve [MODEL_PATH]        # default: model.dbgm
//! ```
//!
//! Loads the model once with [`Session::open`] — every section checksum is
//! verified before the first request is accepted — then accepts scoring
//! requests until a client sends `Shutdown`.
//!
//! Exit codes: `0` after a clean shutdown (request-level faults, shed
//! load and expired deadlines are normal operation and never change the
//! exit code), `1` when the model cannot be loaded or the socket cannot
//! be bound, `2` for an invalid `DBG4ETH_FAULTS` plan — a typo in a chaos
//! run must fail loudly at startup, not silently become a clean run.
//!
//! Configuration comes from the environment (`DBG4ETH_SERVE_ADDR`,
//! `DBG4ETH_QUEUE_DEPTH`, `DBG4ETH_DEADLINE_MS`, `DBG4ETH_SERVE_WORKERS`,
//! `DBG4ETH_SERVE_IDLE_MS`, `DBG4ETH_SERVE_CACHE`). The bound address is
//! printed to stdout and, when `DBG4ETH_SERVE_ADDR_FILE` names a path,
//! written there atomically for harnesses that background the daemon.
//! When `DBG4ETH_METRICS` is set, the run-report is rewritten atomically
//! every two seconds, so a SIGKILL'd daemon still leaves a complete,
//! parseable report behind.

use dbg4eth::Session;
use serve::{ScoreServer, ServeConfig};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn write_report() {
    if !obs::metrics_enabled() {
        return;
    }
    let mut report = obs::Report::new("serve");
    report.attach_registry();
    if let Err(e) = report.write_if_requested() {
        obs::warn!("serve", "failed to write run-report: {e}");
    }
}

fn main() -> ExitCode {
    let model_path = std::env::args().nth(1).unwrap_or_else(|| "model.dbgm".to_string());

    // A malformed or misaddressed fault plan must not boot a daemon that
    // silently runs clean: validate before anything else.
    if let Ok(spec) = std::env::var(faults::FAULTS_ENV) {
        match faults::FaultPlan::parse(&spec) {
            Ok(plan) => {
                let unknown = plan.unknown_sites();
                if !unknown.is_empty() {
                    eprintln!(
                        "serve: {} names unknown site(s) {:?}; known sites: {:?}",
                        faults::FAULTS_ENV,
                        unknown,
                        faults::sites()
                    );
                    return ExitCode::from(2);
                }
            }
            Err(e) => {
                eprintln!("serve: invalid {}: {e}", faults::FAULTS_ENV);
                return ExitCode::from(2);
            }
        }
    }

    let session = match Session::open(&model_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot load model {model_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let config = ServeConfig::from_env();
    let mut server = match ScoreServer::bind(session, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind listener: {e}");
            return ExitCode::FAILURE;
        }
    };

    let addr = server.addr();
    println!("serve: listening on {addr} (model {model_path})");
    let _ = std::io::stdout().flush();
    if let Ok(path) = std::env::var("DBG4ETH_SERVE_ADDR_FILE") {
        let tmp = format!("{path}.tmp");
        let write =
            std::fs::write(&tmp, addr.to_string()).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = write {
            eprintln!("serve: cannot write address file {path}: {e}");
        }
    }

    // Periodic atomic report writes: a SIGKILL mid-flight leaves the last
    // complete report on disk, never a truncated one.
    let stop_reporting = Arc::new(AtomicBool::new(false));
    let reporter = {
        let stop = Arc::clone(&stop_reporting);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2000));
                write_report();
            }
        })
    };

    server.wait_for_shutdown();
    obs::info!("serve", "shutdown requested; draining");
    server.shutdown();
    stop_reporting.store(true, Ordering::Relaxed);
    let _ = reporter.join();
    let stats = server.stats();
    println!(
        "serve: done — {} requests ({} completed, {} shed, {} malformed, \
         {} deadline-exceeded, {} worker panics, cache {}/{} hits)",
        stats.requests,
        stats.completed,
        stats.shed,
        stats.malformed,
        stats.deadline_exceeded,
        stats.worker_panics,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
    );
    write_report();
    ExitCode::SUCCESS
}
