//! Tier-2 chaos suite for the score service.
//!
//! Boots real [`ScoreServer`]s (in-process, on loopback) against a model
//! trained once and reopened through `Session::open` — the same strict
//! open the daemon uses — then drives faults through the serving sites:
//! connections dropped at accept, frames corrupted on the wire, workers
//! panicking or stalling past deadlines, clients slow-lorising mid-frame,
//! and more load than the admission queue can hold. The invariants:
//!
//! * every failure is typed, counted, and scoped to its own request;
//! * unaffected accounts score **byte-identically** to the clean run, at
//!   one worker and at eight, cached or freshly computed, alone in a
//!   request or sharing it (pinned scaling makes scores batch-independent);
//! * the server object survives all of it and shuts down cleanly.
//!
//! The fault plan is process-global, so every test — including the clean
//! ones — serialises on one mutex and clears the plan on exit.

use dbg4eth::{Dbg4EthConfig, InferOptions, Session};
use eth_graph::{SamplerConfig, Subgraph};
use eth_sim::{AccountClass, Benchmark, DatasetScale};
use faults::FaultPlan;
use serve::proto::{read_frame, write_frame};
use serve::{
    ErrorCode, Reply, Request, ScoreClient, ScoreRequest, ScoreServer, ServeConfig, WireResult,
};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Serialise tests and guarantee the plan is cleared afterwards even if
/// an assertion fails while it is installed.
fn with_plan<T>(spec: &str, f: impl FnOnce() -> T) -> T {
    let _guard: MutexGuard<'_, ()> = PLAN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    struct Clear;
    impl Drop for Clear {
        fn drop(&mut self) {
            faults::set_plan(None);
        }
    }
    let _clear = Clear;
    faults::set_plan(if spec.is_empty() {
        None
    } else {
        Some(FaultPlan::parse(spec).expect("test plan parses"))
    });
    f()
}

struct Fixture {
    /// Saved v3 container; every server reopens it through `Session::open`.
    model_path: PathBuf,
    accounts: Vec<Subgraph>,
    /// Clean pinned-scaling score bits, the baseline for every blast
    /// radius (serving always pins the train-time scaler).
    clean: Vec<u64>,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let scale = DatasetScale {
            exchange: 12,
            ico_wallet: 0,
            mining: 0,
            phish_hack: 0,
            bridge: 0,
            defi: 0,
        };
        let bench = Benchmark::generate(scale, SamplerConfig::new(12, 2), 29);
        let dataset = bench.dataset(AccountClass::Exchange);
        let mut cfg = Dbg4EthConfig::fast();
        cfg.epochs = 4;
        cfg.gsg.hidden = 16;
        cfg.gsg.d_out = 8;
        cfg.ldg.hidden = 16;
        cfg.ldg.d_out = 8;
        cfg.ldg.pool_clusters = [4, 2, 1];
        cfg.t_slices = 3;
        cfg.parallelism = 1;
        let (session, _) = Session::train(dataset, 0.7, &cfg).expect("train");
        let (_, test_idx) = dataset.split(0.7, cfg.seed);
        let accounts: Vec<Subgraph> = test_idx.iter().map(|&i| dataset.graphs[i].clone()).collect();
        let model_path =
            std::env::temp_dir().join(format!("dbg4eth-serve-chaos-{}.dbgm", std::process::id()));
        session.save(&model_path).expect("save model");

        // The serving baseline: the reopened model, pinned scaling.
        let reopened = Session::open(&model_path).expect("open");
        let opts = InferOptions { pinned_scaling: true, ..InferOptions::default() };
        let report = reopened.score_with(&accounts, &opts).expect("clean scoring");
        let clean = report
            .scores
            .iter()
            .map(|r| {
                let s = r.as_ref().expect("clean account scores");
                assert!(!s.degraded, "train-time scaler must be present in a v3 container");
                s.score.to_bits()
            })
            .collect();
        Fixture { model_path, accounts, clean }
    })
}

fn server(workers: usize, queue_depth: usize, idle: Duration, cache: usize) -> ScoreServer {
    let session = Session::open(&fixture().model_path).expect("open");
    let config = ServeConfig {
        workers,
        queue_depth,
        idle_timeout: idle,
        cache_capacity: cache,
        ..ServeConfig::default()
    };
    ScoreServer::bind(session, config).expect("bind server")
}

/// Bit-level shape of one reply's results.
fn reply_bits(reply: &Reply) -> Vec<Result<(u64, bool), ErrorCode>> {
    let Reply::Scores(rep) = reply else { panic!("expected Scores, got {reply:?}") };
    rep.results
        .iter()
        .map(|r| match r {
            WireResult::Ok { score, cached, .. } => Ok((score.to_bits(), *cached)),
            WireResult::Err { code, .. } => Err(*code),
        })
        .collect()
}

#[test]
fn clean_round_trip_is_byte_identical_and_batch_invariant() {
    with_plan("", || {
        let fx = fixture();
        let mut srv = server(2, 32, Duration::from_millis(2000), 0);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");

        // One request carrying the whole batch.
        let reply = client.score(fx.accounts.clone(), 0).expect("batch request");
        let bits: Vec<u64> =
            reply_bits(&reply).into_iter().map(|r| r.expect("clean batch scores").0).collect();
        assert_eq!(bits, fx.clean, "served batch diverged from direct pinned scoring");

        // Every account alone in its own request: identical bits — score
        // composition must not depend on what shares the request.
        for (i, account) in fx.accounts.iter().enumerate() {
            let reply = client.score(vec![account.clone()], 0).expect("singleton request");
            let got = reply_bits(&reply)[0].expect("clean singleton score").0;
            assert_eq!(got, fx.clean[i], "account {i} scored differently alone");
        }

        let stats = srv.stats();
        assert_eq!(stats.worker_panics, 0);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.malformed, 0);
        srv.shutdown();
    });
}

#[test]
fn cache_hits_are_bit_identical_and_single_flight_collapses_racers() {
    with_plan("", || {
        let fx = fixture();
        let srv = server(4, 32, Duration::from_millis(2000), 64);
        let account = fx.accounts[0].clone();
        let expected = fx.clean[0];

        // Four racing clients ask for the same account at once.
        let addr = srv.addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let account = account.clone();
                std::thread::spawn(move || {
                    let mut client = ScoreClient::connect(addr).expect("connect");
                    let reply = client.score(vec![account], 0).expect("request");
                    reply_bits(&reply)[0].expect("clean score")
                })
            })
            .collect();
        let results: Vec<(u64, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for &(bits, _) in &results {
            assert_eq!(bits, expected, "cached and fresh scores must be bit-identical");
        }

        // Single-flight: exactly one racer scored; the rest hit the cache
        // (either while waiting or after publication).
        let mut client = ScoreClient::connect(addr).expect("connect");
        let Reply::Stats(stats) = client.stats().expect("stats") else { panic!("stats reply") };
        assert_eq!(stats.cache_misses, 1, "single-flight must collapse concurrent misses");
        assert_eq!(stats.cache_hits, 3);

        // A later request is a plain hit, marked as such.
        let reply = client.score(vec![account], 0).expect("request");
        assert_eq!(reply_bits(&reply)[0], Ok((expected, true)));
    });
}

#[test]
fn overload_sheds_with_typed_overloaded_and_recovers() {
    // Stalled workers pin the queue full; queue_depth 1 guarantees sheds.
    with_plan("stall@serve.worker", || {
        let fx = fixture();
        let srv = server(1, 1, Duration::from_millis(2000), 0);
        let addr = srv.addr();
        let account = fx.accounts[0].clone();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let account = account.clone();
                std::thread::spawn(move || {
                    let mut client = ScoreClient::connect(addr).expect("connect");
                    client.score(vec![account], 0).expect("request")
                })
            })
            .collect();
        let replies: Vec<Reply> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let shed = replies.iter().filter(|r| matches!(r, Reply::Overloaded { .. })).count();
        assert!(shed >= 1, "6 concurrent requests into a 1-deep queue must shed");
        for r in &replies {
            match r {
                Reply::Overloaded { retry_after_ms } => assert!(*retry_after_ms > 0),
                Reply::Scores(_) => {}
                other => panic!("unexpected reply under overload: {other:?}"),
            }
        }
        let mut client = ScoreClient::connect(addr).expect("connect");
        let Reply::Stats(stats) = client.stats().expect("stats") else { panic!("stats reply") };
        assert_eq!(stats.shed as usize, shed, "server-side shed counter disagrees");
    });
    // The same server design recovers the moment load subsides — prove it
    // on a fresh plan-free server.
    with_plan("", || {
        let fx = fixture();
        let srv = server(1, 1, Duration::from_millis(2000), 0);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        let reply = client.score(vec![fx.accounts[0].clone()], 0).expect("request");
        assert_eq!(reply_bits(&reply)[0], Ok((fx.clean[0], false)));
    });
}

#[test]
fn deadline_expiry_is_typed_never_partial() {
    with_plan("stall@serve.worker", || {
        let fx = fixture();
        let srv = server(1, 8, Duration::from_millis(2000), 0);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        // The stalled worker sleeps past the 40 ms budget, so every
        // account gets the typed deadline error — no partial scores.
        let reply = client.score(fx.accounts[..3].to_vec(), 40).expect("request");
        for (i, r) in reply_bits(&reply).iter().enumerate() {
            assert_eq!(*r, Err(ErrorCode::DeadlineExceeded), "account {i}: {r:?}");
        }
        let Reply::Stats(stats) = client.stats().expect("stats") else { panic!("stats reply") };
        assert!(stats.deadline_exceeded >= 1);
    });
    // Without the stall the same accounts score clean and bit-identical —
    // a deadline can only replace scores with typed errors, never change
    // them.
    with_plan("", || {
        let fx = fixture();
        let srv = server(1, 8, Duration::from_millis(2000), 0);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        let reply = client.score(fx.accounts[..3].to_vec(), 60_000).expect("request");
        let bits: Vec<u64> =
            reply_bits(&reply).into_iter().map(|r| r.expect("clean scores").0).collect();
        assert_eq!(bits, fx.clean[..3].to_vec());
    });
}

#[test]
fn worker_panic_is_contained_and_typed() {
    with_plan("panic@serve.worker", || {
        let fx = fixture();
        let srv = server(1, 8, Duration::from_millis(2000), 0);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        let reply = client.score(fx.accounts[..2].to_vec(), 0).expect("request");
        for r in reply_bits(&reply) {
            assert_eq!(r, Err(ErrorCode::Panicked));
        }
        // The server is still alive and accounting.
        let Reply::Stats(stats) = client.stats().expect("stats") else { panic!("stats reply") };
        assert!(stats.worker_panics >= 1);
        assert_eq!(stats.completed, stats.requests, "panicked requests still complete");
    });
    with_plan("", || {
        let fx = fixture();
        let srv = server(1, 8, Duration::from_millis(2000), 0);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        let reply = client.score(fx.accounts[..2].to_vec(), 0).expect("request");
        let bits: Vec<u64> =
            reply_bits(&reply).into_iter().map(|r| r.expect("clean scores").0).collect();
        assert_eq!(bits, fx.clean[..2].to_vec());
    });
}

#[test]
fn malformed_frames_poison_only_their_own_request() {
    with_plan("", || {
        let fx = fixture();
        let srv = server(1, 8, Duration::from_millis(2000), 0);
        let mut stream = TcpStream::connect(srv.addr()).expect("connect");

        // Garbage payload inside a well-formed frame: typed error back,
        // connection stays usable.
        write_frame(&mut stream, &[0x55, 0xAA, 0x00]).expect("write garbage");
        let reply = read_frame(&mut stream, usize::MAX).expect("read").expect("reply");
        assert!(matches!(Reply::from_payload(&reply).expect("parse"), Reply::ProtocolError(_)));

        // The very next frame on the same connection scores fine.
        let req = Request::Score(ScoreRequest {
            id: 1,
            deadline_ms: 0,
            accounts: vec![fx.accounts[0].clone()],
        });
        write_frame(&mut stream, &req.to_payload()).expect("write request");
        let reply = read_frame(&mut stream, usize::MAX).expect("read").expect("reply");
        let reply = Reply::from_payload(&reply).expect("parse");
        assert_eq!(reply_bits(&reply)[0], Ok((fx.clean[0], false)));

        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        let Reply::Stats(stats) = client.stats().expect("stats") else { panic!("stats reply") };
        assert_eq!(stats.malformed, 1);
    });
}

#[test]
fn injected_frame_corruption_is_typed_and_scoped() {
    with_plan("corrupt@serve.frame", || {
        let fx = fixture();
        let srv = server(1, 8, Duration::from_millis(2000), 0);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        // Every frame is corrupted mid-payload by the fault, so every
        // request gets a typed protocol error — and nothing else dies.
        for _ in 0..3 {
            match client.score(vec![fx.accounts[0].clone()], 0).expect("request") {
                Reply::ProtocolError(msg) => {
                    assert!(!msg.is_empty());
                }
                other => panic!("corrupted frame must be rejected, got {other:?}"),
            }
        }
    });
    with_plan("", || {
        let fx = fixture();
        let srv = server(1, 8, Duration::from_millis(2000), 0);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        let reply = client.score(vec![fx.accounts[0].clone()], 0).expect("request");
        assert_eq!(reply_bits(&reply)[0], Ok((fx.clean[0], false)));
    });
}

/// The headline invariant: a mixed fault plan — a dropped connection, a
/// slow-loris client, an account-level drop — at one worker and at eight,
/// and every unaffected account comes back byte-identical to the clean
/// baseline.
#[test]
fn mixed_fault_plan_blast_radius_at_one_and_eight_workers() {
    for workers in [1usize, 8] {
        let observed = with_plan("drop@serve.conn:0,stall@serve.client:1,drop@account:2", || {
            let fx = fixture();
            let srv = server(workers, 32, Duration::from_millis(50), 0);

            // Connection 0 is severed at accept: the client sees EOF or a
            // reset when it tries to use it.
            let mut dropped = ScoreClient::connect(srv.addr()).expect("tcp connect");
            assert!(
                dropped.score(vec![fx.accounts[0].clone()], 0).is_err(),
                "conn 0 must be dropped by the fault"
            );

            // Client index 1 slow-lorises mid-frame; the 50 ms idle reap
            // wins against its 200 ms stall.
            let mut loris = ScoreClient::connect(srv.addr()).expect("connect");
            loris.client_idx = Some(1);
            assert!(
                loris.score(vec![fx.accounts[0].clone()], 0).is_err(),
                "slow-loris client must be reaped"
            );

            // A healthy client sends the whole batch: account 2 is dropped
            // by the pipeline fault, everyone else scores clean.
            let mut client = ScoreClient::connect(srv.addr()).expect("connect");
            let reply = client.score(fx.accounts.clone(), 0).expect("batch request");
            let bits = reply_bits(&reply);
            for (i, r) in bits.iter().enumerate() {
                if i == 2 {
                    assert_eq!(*r, Err(ErrorCode::Dropped), "account 2 must be dropped");
                } else {
                    assert_eq!(
                        *r,
                        Ok((fx.clean[i], false)),
                        "unaffected account {i} diverged under the mixed plan ({workers} workers)"
                    );
                }
            }
            bits
        });
        // The blast radius itself is identical at both worker counts.
        assert_eq!(observed.len(), fixture().accounts.len());
    }
}

/// Regression guard for the cross-request single-flight deadlock: a
/// worker used to acquire cache leases in *request* order while blocking
/// on other requests' in-flight fingerprints — so `[a, b]` racing
/// `[b, a]` with no deadline could wedge both workers (and their
/// connection threads) forever. Leases are now acquired in ascending
/// fingerprint order, so the race below must always drain.
#[test]
fn opposite_order_shared_fingerprints_cannot_deadlock() {
    with_plan("", || {
        let fx = fixture();
        // Cache capacity 0: hits never short-circuit `begin`, so the two
        // workers contend on the same pair of fingerprints every single
        // iteration — the densest possible race on the lease order.
        let srv = server(2, 32, Duration::from_millis(2000), 0);
        let addr = srv.addr();
        let fwd: Vec<Subgraph> = fx.accounts[..2].to_vec();
        let rev: Vec<Subgraph> = fwd.iter().rev().cloned().collect();
        let threads: Vec<_> = [fwd, rev]
            .into_iter()
            .map(|batch| {
                std::thread::spawn(move || {
                    let mut client = ScoreClient::connect(addr).expect("connect");
                    for _ in 0..100 {
                        let reply = client.score(batch.clone(), 0).expect("request");
                        for r in reply_bits(&reply) {
                            r.expect("clean score");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("both opposite-order clients drained");
        }
        // The surviving server still serves the clean baseline bits.
        let mut client = ScoreClient::connect(addr).expect("connect");
        let reply = client.score(fx.accounts[..2].to_vec(), 0).expect("request");
        let bits: Vec<u64> =
            reply_bits(&reply).into_iter().map(|r| r.expect("clean score").0).collect();
        assert_eq!(bits, fx.clean[..2]);
    });
}

#[test]
fn shutdown_drains_and_is_idempotent() {
    with_plan("", || {
        let fx = fixture();
        let mut srv = server(2, 8, Duration::from_millis(2000), 64);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        let reply = client.score(vec![fx.accounts[0].clone()], 0).expect("request");
        assert!(matches!(reply, Reply::Scores(_)));
        assert!(!srv.shutdown_requested());
        assert!(matches!(client.shutdown().expect("shutdown"), Reply::ShutdownAck));
        assert!(srv.shutdown_requested());
        srv.shutdown();
        srv.shutdown(); // idempotent
        let stats = srv.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.completed, 1);
    });
}

/// Tentpole invariant of streaming ingest: after an `Ingest` frame names
/// an account, no cache entry whose sampled subgraph contains it is ever
/// served again — the next request for that fingerprint recomputes
/// (`cached: false`) and still returns the clean bits. Fingerprints whose
/// members the batch did not touch keep their cache hits.
#[test]
fn ingest_evicts_touched_fingerprints_and_spares_the_rest() {
    with_plan("", || {
        let fx = fixture();
        let srv = server(2, 16, Duration::from_millis(2000), 64);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        let a = fx.accounts[0].clone();
        let b = fx.accounts[1].clone();

        // Warm the cache with both accounts, then prove both are hits.
        for (i, acct) in [&a, &b].into_iter().enumerate() {
            let reply = client.score(vec![acct.clone()], 0).expect("request");
            assert_eq!(reply_bits(&reply)[0], Ok((fx.clean[i], false)));
            let reply = client.score(vec![acct.clone()], 0).expect("request");
            assert_eq!(reply_bits(&reply)[0], Ok((fx.clean[i], true)));
        }

        // Ingest a batch touching a member of `a`'s subgraph only.
        let touched: Vec<usize> =
            a.nodes.iter().copied().filter(|n| !b.nodes.contains(n)).take(1).collect();
        assert!(!touched.is_empty(), "test accounts must not share every node");
        match client.ingest(touched, 3).expect("ingest") {
            Reply::IngestAck { evicted, .. } => assert_eq!(evicted, 1, "exactly `a` evicted"),
            other => panic!("expected IngestAck, got {other:?}"),
        }

        // `a` is stale: recomputed, never served from cache — same bits.
        let reply = client.score(vec![a.clone()], 0).expect("request");
        assert_eq!(reply_bits(&reply)[0], Ok((fx.clean[0], false)), "stale entry must not serve");
        // `b` was untouched: still a hit.
        let reply = client.score(vec![b], 0).expect("request");
        assert_eq!(reply_bits(&reply)[0], Ok((fx.clean[1], true)));

        // An ingest naming no cached member evicts nothing.
        match client.ingest(vec![usize::MAX - 1], 1).expect("ingest") {
            Reply::IngestAck { evicted, .. } => assert_eq!(evicted, 0),
            other => panic!("expected IngestAck, got {other:?}"),
        }
        let Reply::Stats(stats) = client.stats().expect("stats") else { panic!("stats reply") };
        assert_eq!(stats.ingests, 2);
        assert_eq!(stats.evicted, 1);
    });
}

/// `corrupt@ingest.batch` truncates ingest frames on the wire: the reply
/// is a typed protocol error, **nothing** is evicted (a half-applied
/// invalidation would be worse than none), and the connection survives.
/// With the plan cleared the same ingest goes through.
#[test]
fn corrupted_ingest_batches_are_rejected_without_evicting() {
    let addr_accounts = with_plan("corrupt@ingest.batch", || {
        let fx = fixture();
        let srv = server(1, 8, Duration::from_millis(2000), 64);
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");

        // Warm the cache; score frames are untouched by the ingest site.
        let a = fx.accounts[0].clone();
        let reply = client.score(vec![a.clone()], 0).expect("request");
        assert_eq!(reply_bits(&reply)[0], Ok((fx.clean[0], false)));

        // Every ingest frame is corrupted: typed error, no eviction.
        for _ in 0..2 {
            match client.ingest(a.nodes.clone(), 1).expect("ingest") {
                Reply::ProtocolError(msg) => assert!(!msg.is_empty()),
                other => panic!("corrupted ingest must be rejected, got {other:?}"),
            }
        }

        // The same connection still serves, and the entry is still a hit
        // — the corrupted batches evicted nothing.
        let reply = client.score(vec![a.clone()], 0).expect("request");
        assert_eq!(reply_bits(&reply)[0], Ok((fx.clean[0], true)));
        let Reply::Stats(stats) = client.stats().expect("stats") else { panic!("stats reply") };
        assert_eq!(stats.ingests, 0, "a corrupted batch must not count as ingested");
        assert_eq!(stats.evicted, 0);
        (srv, a)
    });

    // Plan cleared: the identical ingest now evicts the entry.
    with_plan("", || {
        let (srv, a) = addr_accounts;
        let mut client = ScoreClient::connect(srv.addr()).expect("connect");
        match client.ingest(a.nodes.clone(), 1).expect("ingest") {
            Reply::IngestAck { evicted, .. } => assert_eq!(evicted, 1),
            other => panic!("expected IngestAck, got {other:?}"),
        }
        let reply = client.score(vec![a], 0).expect("request");
        assert_eq!(reply_bits(&reply)[0], Ok((fixture().clean[0], false)));
    });
}
