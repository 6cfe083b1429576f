//! `serve-bulk`: the compliance screen's cost — a closed loop of
//! multi-account `Score` requests against an in-process `ScoreServer`,
//! over loopback, on accounts the server has never seen. Training,
//! `GraphStore` and the cache-hit path are bypassed.

use crate::common::{
    cpu_s, cpu_ticks, median, ms, peak_rss_mb, reset_peak_rss, samples_for, steal_pct, sub_seed,
    timed_setup, Args, Outcome, Size, ROUNDS, SETUP_REPS, THREADS,
};
use crate::layers::{self, AccountLayers};
use crate::train::exchange;
use bench::{f64_bits_digest, sampler};
use dbg4eth::{Dbg4EthConfig, InferOptions, Session};
use eth_graph::Subgraph;
use eth_sim::{Benchmark, DatasetScale};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serve::{ErrorCode, Reply, ScoreClient, ScoreServer, ServeConfig, StatsReply, WireResult};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Accounts per client slice covered by the score digest.
const DIGEST_ACCOUNTS: usize = 128;

struct Shape {
    /// Worlds the account pool is drawn from; every centre of every world
    /// enters the pool once.
    pool_worlds: usize,
    pool_scale: DatasetScale,
    /// Scale of the world whose exchange dataset trains the serving model.
    model_scale: DatasetScale,
    batch: usize,
}

fn uniform(n: usize) -> DatasetScale {
    DatasetScale { exchange: n, ico_wallet: n, mining: n, phish_hack: n, bridge: n, defi: n }
}

fn shape(size: Size) -> Shape {
    match size {
        // ~140 distinct centres per world: a ~6700-account pool, enough
        // for 840 requests of 8 without a repeat. A 9 s run sent ~530 on
        // the 2-vCPU machine the benchmark was sized on.
        Size::Full => Shape {
            pool_worlds: 48,
            pool_scale: uniform(20),
            model_scale: DatasetScale { exchange: 12, ..uniform(10) },
            batch: 8,
        },
        Size::Tiny => Shape {
            pool_worlds: 60,
            pool_scale: uniform(3),
            model_scale: DatasetScale { exchange: 6, ..uniform(3) },
            batch: 2,
        },
    }
}

/// The serving model: the paper architecture, one epoch, trained with
/// `parallelism: 1` so each of the THREADS workers scores on one thread.
fn model_config(seed: u64) -> Dbg4EthConfig {
    let mut cfg = Dbg4EthConfig::default();
    cfg.epochs = 1;
    cfg.parallelism = 1;
    cfg.seed = sub_seed(seed, "serve.model", 1);
    cfg
}

/// Every centre of `worlds` seeded worlds, once each, in a seeded order.
fn account_pool(seed: u64, shape: &Shape) -> Vec<Subgraph> {
    let mut pool = Vec::new();
    for w in 0..shape.pool_worlds {
        let bench = Benchmark::generate(
            shape.pool_scale,
            sampler(),
            sub_seed(seed, "serve.pool", w as u64),
        );
        let mut seen = HashSet::new();
        for g in bench.datasets.iter().flat_map(|d| &d.graphs) {
            if seen.insert(g.nodes[0]) {
                pool.push(g.clone());
            }
        }
    }
    pool.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, "serve.order", 0)));
    pool
}

struct Ready {
    pool: Vec<Subgraph>,
    /// The trained session, kept for the in-process output check.
    session: Session,
    server: ScoreServer,
    generate_ms: f64,
    save_ms: f64,
    open_ms: f64,
}

fn setup(args: &Args, shape: &Shape) -> Result<Ready, String> {
    let t = Instant::now();
    let pool = account_pool(args.seed, shape);
    let dataset = exchange(Benchmark::generate(
        shape.model_scale,
        sampler(),
        sub_seed(args.seed, "serve.model", 0),
    ));
    let generate_ms = ms(t.elapsed());
    let (session, _) =
        Session::train(&dataset, 0.8, &model_config(args.seed)).map_err(|e| e.to_string())?;
    let path = args.out_dir.join(format!("serve-bulk-{}.dbgm", std::process::id()));
    let t = Instant::now();
    session.save(&path).map_err(|e| e.to_string())?;
    let save_ms = ms(t.elapsed());
    let t = Instant::now();
    let served = Session::open_mmap(&path).map_err(|e| e.to_string())?;
    let open_ms = ms(t.elapsed());
    let config =
        ServeConfig { addr: "127.0.0.1:0".to_string(), workers: THREADS, ..ServeConfig::default() };
    let server = ScoreServer::bind(served, config).map_err(|e| e.to_string())?;
    // Warm up every worker and connection path on accounts outside the
    // pool, so the timed phase starts hot and the pool stays unseen.
    let warmup: Vec<Subgraph> =
        dataset.graphs.iter().take(2 * shape.batch * THREADS).cloned().collect();
    let addr = server.addr();
    std::thread::scope(|s| {
        for chunk in warmup.chunks(shape.batch) {
            s.spawn(move || {
                ScoreClient::connect(addr).and_then(|mut c| c.score(chunk.to_vec(), 0))
            });
        }
    });
    Ok(Ready { pool, session, server, generate_ms, save_ms, open_ms })
}

/// One client's log of the timed phase.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    /// `(pool index, served score bits)` of every account scored.
    scored: Vec<(usize, u64)>,
    attempted: u64,
    failures: Vec<(&'static str, u64)>,
    degraded: u64,
    cached: u64,
}

fn stats(addr: SocketAddr) -> Result<StatsReply, String> {
    match ScoreClient::connect(addr).and_then(|mut c| c.stats()) {
        Ok(Reply::Stats(s)) => Ok(s),
        other => Err(format!("Stats request failed: {other:?}")),
    }
}

/// What the client threads of one round share.
struct Round<'a> {
    pool: &'a [Subgraph],
    addr: SocketAddr,
    batch: usize,
    end: Instant,
    min_requests: usize,
    /// Requests sent this round, over all clients.
    requests: &'a AtomicUsize,
}

impl Round<'_> {
    /// One closed-loop client: send the next batch of its slice as soon as
    /// the last reply lands, until the round's time is up and the round
    /// has enough requests for its percentiles, or the slice runs out.
    fn client(
        &self,
        slice: &[usize],
        cursor: &mut usize,
        client: &mut Option<ScoreClient>,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        while *cursor < slice.len() {
            if Instant::now() >= self.end
                && self.requests.load(Ordering::Relaxed) >= self.min_requests
            {
                break;
            }
            self.requests.fetch_add(1, Ordering::Relaxed);
            let chunk = &slice[*cursor..(*cursor + self.batch).min(slice.len())];
            *cursor += chunk.len();
            let n = chunk.len() as u64;
            log.attempted += n;
            let batch: Vec<Subgraph> = chunk.iter().map(|&i| self.pool[i].clone()).collect();
            let t = Instant::now();
            let reply = match client.as_mut() {
                Some(c) => c.score(batch, 0),
                None => Err(serve::ProtoError::Malformed("not connected".to_string())),
            };
            let lat = ms(t.elapsed());
            let ok_before = log.scored.len();
            match reply {
                Ok(Reply::Scores(rep)) if rep.results.len() == chunk.len() => {
                    for (&i, r) in chunk.iter().zip(&rep.results) {
                        match r {
                            WireResult::Ok { score, degraded, cached } => {
                                log.scored.push((i, score.to_bits()));
                                log.degraded += u64::from(*degraded);
                                log.cached += u64::from(*cached);
                            }
                            WireResult::Err { code: ErrorCode::Invalid, .. } => {
                                log.failures.push(("quarantined", 1));
                            }
                            WireResult::Err { code: ErrorCode::DeadlineExceeded, .. } => {
                                log.failures.push(("deadline", 1));
                            }
                            WireResult::Err { .. } => log.failures.push(("score_error", 1)),
                        }
                    }
                }
                Ok(Reply::Overloaded { .. }) => log.failures.push(("shed", n)),
                Ok(_) => log.failures.push(("protocol", n)),
                Err(_) => {
                    log.failures.push(("transport", n));
                    *client = ScoreClient::connect(self.addr).ok();
                }
            }
            // A request with any failed account misses every latency limit.
            let clean = log.scored.len() - ok_before == chunk.len();
            log.latencies_ms.push(if clean { lat } else { f64::INFINITY });
        }
        log
    }
}

/// The served bits of `scored` equal in-process pinned-scaling scores of
/// the same accounts.
fn check(ready: &Ready, scored: &[(usize, u64)], out: &mut Outcome) -> Result<(), String> {
    let opts =
        InferOptions { pinned_scaling: true, threads: Some(THREADS), ..InferOptions::default() };
    for chunk in scored.chunks(64) {
        let accounts: Vec<Subgraph> = chunk.iter().map(|&(i, _)| ready.pool[i].clone()).collect();
        let report = ready.session.score_with(&accounts, &opts).map_err(|e| e.to_string())?;
        for (&(_, served), r) in chunk.iter().zip(&report.scores) {
            if !matches!(r, Ok(s) if s.score.to_bits() == served) {
                out.fail("mismatch", 1);
            }
        }
    }
    Ok(())
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let shape = shape(args.size);
    let mut generate_ms = Vec::new();
    let mut save_ms = Vec::new();
    let mut open_ms = Vec::new();
    let (ready, setup) = timed_setup(|| {
        let r = setup(args, &shape)?;
        generate_ms.push(r.generate_ms);
        save_ms.push(r.save_ms);
        open_ms.push(r.open_ms);
        Ok(r)
    })?;
    // The serving model's trainings in set-up, for the training-path
    // layer metrics.
    let setup_registry = layers::capture_registry();
    let addr = ready.server.addr();
    let before = stats(addr)?;

    // Disjoint, seeded client slices: concurrent clients never ask for
    // the same account, and no account repeats within the run. Each round
    // continues where the last one stopped.
    let slices: Vec<Vec<usize>> =
        (0..THREADS).map(|c| (c..ready.pool.len()).step_by(THREADS).collect()).collect();
    let mut cursors = [0usize; THREADS];
    // Enough requests per round that the pooled p95 has its samples.
    let min_requests = samples_for(0.95).div_ceil(ROUNDS);
    let round_time = Duration::from_secs_f64(args.seconds / ROUNDS as f64);

    let mut round_latencies: Vec<Vec<f64>> = Vec::new();
    let mut round_rates = Vec::new();
    let mut round_cpu_ms = Vec::new();
    let mut round_peaks = Vec::new();
    let mut served: HashMap<usize, u64> = HashMap::new();
    let (mut degraded, mut cached, mut timed_s) = (0, 0, 0.0);
    let steal = cpu_ticks();
    let mut first = Some(layers::begin_timed());
    for r in 0..ROUNDS {
        // Peak RSS of each round: what serving holds on top of the
        // resident model and pool, not the set-up's transient training.
        let peak_tracked = reset_peak_rss();
        // Fresh connections per round: the server reaps connections idle
        // through the previous round's output check.
        let mut clients: Vec<Option<ScoreClient>> =
            (0..THREADS).map(|_| ScoreClient::connect(addr).ok()).collect();
        let span = first.take().unwrap_or_else(|| obs::span(layers::TIMED_SPAN));
        let requests = AtomicUsize::new(0);
        let (cpu0, start) = (cpu_s(), Instant::now());
        let round = Round {
            pool: &ready.pool,
            addr,
            batch: shape.batch,
            end: start + round_time,
            min_requests,
            requests: &requests,
        };
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = slices
                .iter()
                .zip(cursors.iter_mut())
                .zip(clients.iter_mut())
                .map(|((slice, cursor), client)| {
                    let round = &round;
                    // A round draws on its own third of the slice at most,
                    // so a faster machine shortens rounds instead of
                    // leaving the last ones without accounts.
                    let share = &slice[..(r + 1) * slice.len() / ROUNDS];
                    s.spawn(move || round.client(share, cursor, client))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let cpu = cpu_s() - cpu0;
        drop(span);
        timed_s += wall;
        round_peaks.push(if peak_tracked { peak_rss_mb() } else { f64::NAN });

        let mut latencies = Vec::new();
        let mut scored = Vec::new();
        for log in logs {
            latencies.extend(log.latencies_ms);
            scored.extend(log.scored);
            out.attempted += log.attempted;
            degraded += log.degraded;
            cached += log.cached;
            for (kind, n) in log.failures {
                out.fail(kind, n);
            }
        }
        round_rates.push(scored.len() as f64 / wall);
        round_cpu_ms.push(cpu * 1e3 / latencies.len() as f64);
        round_latencies.push(latencies);
        // Output check between rounds, outside the timed intervals: the
        // served bits equal in-process pinned-scaling scores.
        layers::unobserved(|| check(&ready, &scored, out))?;
        served.extend(scored);
    }
    let steal_pct = steal_pct(steal);
    let captured = layers::capture();
    let after = stats(addr)?;
    let latencies: Vec<f64> = round_latencies.concat();

    // Digest the first DIGEST_ACCOUNTS of every client's slice, which any
    // clean run scores, so runs of equal code print equal digests.
    let prefix: Vec<f64> = slices
        .iter()
        .flat_map(|slice| slice.iter().take(DIGEST_ACCOUNTS))
        .map(|i| served.get(i).map_or(f64::NAN, |&b| f64::from_bits(b)))
        .collect();
    out.digest = f64_bits_digest(&prefix);

    let rss = round_peaks.iter().copied().fold(f64::NAN, f64::max);
    setup.report(out);
    out.metric("peak_rss_mb", if rss.is_nan() { peak_rss_mb() } else { rss }, "MB");
    out.metric("cpu_ms_per_op", median(&round_cpu_ms), "ms");
    out.figure("scores_per_s", median(&round_rates), "1/s");
    let p50 = out.round_percentile("request_p50_ms", &round_latencies, 0.50);
    out.figure("request_p50_ms", p50, "ms");
    // Pooled over the rounds: one round has too few requests for a p95.
    let p95 = out.round_percentile("request_p95_ms", std::slice::from_ref(&latencies), 0.95);
    out.figure("request_p95_ms", p95, "ms");
    out.info("pool_accounts", ready.pool.len());
    out.info("scored_accounts", served.len());
    out.info("requests", latencies.len());
    out.info("rounds", ROUNDS);
    out.info("round_scores_per_s", format!("{round_rates:.1?}"));
    out.info("batch", shape.batch);
    out.info("clients", THREADS);
    out.info("serve_workers", THREADS);
    out.info("model_threads", ready.session.model().config.threads());
    out.info("numerics", format!("{:?}", ready.session.model().config.numerics_profile()));
    out.info("degraded_scores", degraded);
    out.info("cached_scores", cached);
    out.info("timed_phase_s", timed_s);
    out.info("steal_pct", steal_pct);

    if args.layers {
        let n_requests = latencies.len() as f64;
        let request_p50 = median(&latencies);
        out.layer("eth-sim.generate_ms", median(&generate_ms), "ms");
        out.layer("model-io.save_ms", median(&save_ms), "ms");
        out.layer("model-io.open_ms", median(&open_ms), "ms");
        setup_registry.training_layers(out, SETUP_REPS as f64);
        let served = serve_layers(out, &captured, &before, &after, request_p50);
        let batches: Vec<Vec<Subgraph>> = ready
            .pool
            .chunks(shape.batch)
            .take(layers::TIMED_ACCOUNTS)
            .map(<[_]>::to_vec)
            .collect();
        layers::wire_layers(out, &batches);
        let per_account = AccountLayers::measure(&ready.session, &ready.pool);
        per_account.report(out);
        captured.infer_layers(out, &per_account);
        captured.par_layers(out, n_requests);

        let infer = captured.span_p50_ms("model.infer");
        let batch = shape.batch as f64;
        out.report.push(format!("request_p50_ms {request_p50:.3} ms (batch {})", shape.batch));
        out.report.push(format!("  serve.wire_ms_p50            {:>9.3} ms", request_p50 - served));
        out.report.push(format!("  serve.score_ms_p50           {served:>9.3} ms"));
        out.report.push(format!("    core.infer_ms_p50          {infer:>9.3} ms"));
        for (name, v) in [
            ("gnn.lower", per_account.lower_ms),
            ("gnn.gsg.score", per_account.gsg_ms),
            ("gnn.ldg.score", per_account.ldg_ms),
            ("calib.apply", per_account.calib_ms),
            ("boost.predict", per_account.boost_ms),
        ] {
            out.report.push(format!("      {name:<22} {:>9.3} ms  ({v:.3} ms/account)", v * batch));
        }
        out.report.push(format!(
            "      {:<22} {:>9.3} ms",
            "unattributed",
            infer - per_account.total_ms() * batch
        ));
        out.report.push(format!(
            "  serve.queue_wait_ms_mean     {:>9.3} ms (outside the request's worker time)",
            captured.span_ms("serve.queue_wait") / captured.span_count("serve.queue_wait").max(1.0)
        ));
    }
    std::fs::remove_file(args.out_dir.join(format!("serve-bulk-{}.dbgm", std::process::id()))).ok();
    Ok(())
}

/// Request-path serve metrics; returns `serve.score` p50 in ms.
pub fn serve_layers(
    out: &mut Outcome,
    captured: &layers::Captured,
    before: &StatsReply,
    after: &StatsReply,
    client_p50_ms: f64,
) -> f64 {
    let waits = captured.span_count("serve.queue_wait");
    out.layer(
        "serve.queue_wait_ms_mean",
        if waits > 0.0 { captured.span_ms("serve.queue_wait") / waits } else { 0.0 },
        "ms",
    );
    out.layer("serve.queue_wait_ms_max", captured.span_max_ms("serve.queue_wait"), "ms");
    let score = captured.span_p50_ms("serve.score");
    out.layer("serve.score_ms_p50", score, "ms");
    out.layer("serve.wire_ms_p50", client_p50_ms - score, "ms");
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    out.layer(
        "serve.cache_hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        "ratio",
    );
    out.layer(
        "serve.queue_depth_high_water",
        captured.gauge("serve.queue_depth.high_water"),
        "count",
    );
    out.layer("serve.shed", (after.shed - before.shed) as f64, "count");
    score
}
