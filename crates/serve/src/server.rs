//! The long-lived score service: admission control, deadlines, workers.
//!
//! ```text
//!            ┌────────────┐   bounded sync_channel    ┌──────────┐
//!  accept ──▶│ conn thread│──try_send──▶ queue ──────▶│ worker i │──▶ score
//!            └────────────┘     │(full)               └──────────┘
//!                 ▲             └──▶ Overloaded{retry_after_ms}
//!                 └── reply frame ◀── per-job reply channel ◀──┘
//! ```
//!
//! Overload never cascades: the queue is bounded, a full queue sheds with
//! a typed [`Reply::Overloaded`] (the client backs off), and every
//! request-level failure — malformed frame, quarantined subgraph, worker
//! panic, expired deadline — poisons only its own request and is counted.
//! The daemon's exit code reflects infrastructure failures only; load and
//! faults are part of normal operation.
//!
//! Determinism: workers score with `pinned_scaling`, so an account's score
//! is byte-identical no matter which worker scored it, what else shared
//! the request, or whether it came out of the fingerprint cache.

use crate::cache::{fingerprint, Lease, ScoreCache};
use crate::proto::{
    encode_subgraph, read_frame, write_frame, ErrorCode, IngestRequest, ProtoError, Reply, Request,
    ScoreReply, ScoreRequest, StatsReply, WireResult, MAX_FRAME_LEN, TAG_INGEST,
};
use dbg4eth::{AccountScore, InferOptions, ScoreError, Session};
use model_io::SectionWriter;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `DBG4ETH_SERVE_ADDR` — listen address (default `127.0.0.1:0`).
pub const ADDR_ENV: &str = "DBG4ETH_SERVE_ADDR";
/// `DBG4ETH_QUEUE_DEPTH` — admission-queue bound (default 32).
pub const QUEUE_ENV: &str = "DBG4ETH_QUEUE_DEPTH";
/// `DBG4ETH_DEADLINE_MS` — default per-request deadline; 0 disables.
pub const DEADLINE_ENV: &str = "DBG4ETH_DEADLINE_MS";
/// `DBG4ETH_SERVE_WORKERS` — scoring worker threads (default 2).
pub const WORKERS_ENV: &str = "DBG4ETH_SERVE_WORKERS";
/// `DBG4ETH_SERVE_IDLE_MS` — per-connection read timeout (default 5000).
pub const IDLE_ENV: &str = "DBG4ETH_SERVE_IDLE_MS";
/// `DBG4ETH_SERVE_CACHE` — score-cache capacity (default 1024).
pub const CACHE_ENV: &str = "DBG4ETH_SERVE_CACHE";

/// Backoff hint attached to [`Reply::Overloaded`].
const RETRY_AFTER_MS: u64 = 25;

/// Tunables of one [`ScoreServer`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (see [`ScoreServer::addr`]).
    pub addr: String,
    /// Scoring worker threads.
    pub workers: usize,
    /// Bounded admission-queue depth; a full queue sheds with
    /// [`Reply::Overloaded`].
    pub queue_depth: usize,
    /// Default per-request deadline; `None` never cancels. A request's
    /// `deadline_ms` field overrides this.
    pub default_deadline: Option<Duration>,
    /// Per-connection read timeout: idle and slow-loris connections are
    /// reaped after this long without a complete read.
    pub idle_timeout: Duration,
    /// Fingerprint-cache capacity (scores); 0 disables caching but keeps
    /// single-flight deduplication.
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            default_deadline: None,
            idle_timeout: Duration::from_millis(5000),
            cache_capacity: 1024,
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

impl ServeConfig {
    /// Read the `DBG4ETH_SERVE_*` / `DBG4ETH_QUEUE_DEPTH` /
    /// `DBG4ETH_DEADLINE_MS` environment, falling back to defaults.
    #[must_use]
    pub fn from_env() -> Self {
        let d = Self::default();
        let deadline_ms = env_u64(DEADLINE_ENV, 0);
        Self {
            addr: std::env::var(ADDR_ENV).unwrap_or(d.addr),
            workers: env_u64(WORKERS_ENV, d.workers as u64).max(1) as usize,
            queue_depth: env_u64(QUEUE_ENV, d.queue_depth as u64).max(1) as usize,
            default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            idle_timeout: Duration::from_millis(
                env_u64(IDLE_ENV, d.idle_timeout.as_millis() as u64).max(1),
            ),
            cache_capacity: env_u64(CACHE_ENV, d.cache_capacity as u64) as usize,
        }
    }
}

/// Lifetime counters, mirrored into the obs registry as `serve.*`.
#[derive(Default)]
struct ServeStats {
    accepted_conns: AtomicU64,
    requests: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
    deadline_exceeded: AtomicU64,
    worker_panics: AtomicU64,
    ingests: AtomicU64,
    evicted: AtomicU64,
}

impl ServeStats {
    fn bump(counter: &AtomicU64, name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        obs::counter_add(name, 1);
    }
}

struct Shared {
    session: Session,
    config: ServeConfig,
    stats: ServeStats,
    cache: ScoreCache,
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
    queued: AtomicU64,
    in_flight: AtomicU64,
}

struct ScoreJob {
    request: ScoreRequest,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: SyncSender<Reply>,
}

enum Job {
    Score(ScoreJob),
    Stop,
}

/// A running score service bound to a socket (see module docs).
pub struct ScoreServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    queue: SyncSender<Job>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ScoreServer {
    /// Bind the listener, start the acceptor and the worker pool, and
    /// return the running server. The model inside `session` is shared
    /// read-only by every worker.
    pub fn bind(session: Session, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (queue, rx) = sync_channel::<Job>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            cache: ScoreCache::new(config.cache_capacity),
            session,
            config,
            stats: ServeStats::default(),
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            queued: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
        });

        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx, i))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let acceptor = {
            let shared = Arc::clone(&shared);
            let queue = queue.clone();
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, &listener, &queue))?
        };

        Ok(Self { addr, shared, queue, acceptor: Some(acceptor), workers })
    }

    /// The bound address (with the kernel-chosen port when the config
    /// asked for port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client sent [`Request::Shutdown`].
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Lifetime counters (the same numbers [`Request::Stats`] returns).
    #[must_use]
    pub fn stats(&self) -> StatsReply {
        snapshot_stats(&self.shared)
    }

    /// Block until a client requests shutdown, polling the flag.
    pub fn wait_for_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stop accepting, drain queued requests, and join every thread the
    /// server owns. Connection threads exit on their own via the read
    /// timeout. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for _ in 0..self.workers.len() {
            // Blocking send: sentinels line up behind queued work, so
            // workers drain gracefully before exiting.
            let _ = self.queue.send(Job::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ScoreServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn snapshot_stats(shared: &Shared) -> StatsReply {
    let (cache_hits, cache_misses) = shared.cache.stats();
    StatsReply {
        accepted_conns: shared.stats.accepted_conns.load(Ordering::Relaxed),
        requests: shared.stats.requests.load(Ordering::Relaxed),
        completed: shared.stats.completed.load(Ordering::Relaxed),
        shed: shared.stats.shed.load(Ordering::Relaxed),
        malformed: shared.stats.malformed.load(Ordering::Relaxed),
        cache_hits,
        cache_misses,
        deadline_exceeded: shared.stats.deadline_exceeded.load(Ordering::Relaxed),
        worker_panics: shared.stats.worker_panics.load(Ordering::Relaxed),
        ingests: shared.stats.ingests.load(Ordering::Relaxed),
        evicted: shared.stats.evicted.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Acceptor + connection threads
// ---------------------------------------------------------------------------

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener, queue: &SyncSender<Job>) {
    let mut conn_idx = 0usize;
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let _span = obs::span("serve.accept");
        let Ok(stream) = stream else { continue };
        let idx = conn_idx;
        conn_idx += 1;
        // drop@serve.conn: the accepted connection is severed before any
        // frame is read — clients see a reset, the server sees nothing.
        if faults::drops("serve.conn", Some(idx)) {
            obs::counter_add("serve.conn_dropped", 1);
            continue;
        }
        ServeStats::bump(&shared.stats.accepted_conns, "serve.accepted_conns");
        let shared = Arc::clone(shared);
        let queue = queue.clone();
        // Connection threads are detached: they exit on EOF, on a reaped
        // timeout, or once the queue disconnects at shutdown.
        let _ = std::thread::Builder::new()
            .name(format!("serve-conn-{idx}"))
            .spawn(move || conn_loop(&shared, stream, &queue));
    }
}

fn conn_loop(shared: &Arc<Shared>, mut stream: TcpStream, queue: &SyncSender<Job>) {
    // Slow-loris protection: any read that stalls longer than the idle
    // timeout errors out and the connection is reaped.
    if stream.set_read_timeout(Some(shared.config.idle_timeout)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    loop {
        let mut payload = match read_frame(&mut stream, MAX_FRAME_LEN) {
            Ok(Some(p)) => p,
            // Clean EOF between frames: the client hung up.
            Ok(None) => return,
            // Timeout, reset, or an unsyncable length prefix: reap.
            Err(ProtoError::Io(_)) => return,
            Err(ProtoError::Malformed(m)) => {
                ServeStats::bump(&shared.stats.malformed, "serve.malformed");
                let _ = write_frame(&mut stream, &Reply::ProtocolError(m).to_payload());
                return;
            }
        };
        // corrupt@serve.frame: wire damage inside one frame's payload. The
        // tag byte is flipped because that is deterministically detectable
        // — the protocol carries no checksums (integrity is the
        // transport's job), so damage elsewhere could parse as a
        // different, valid request. The frame boundary survives, so only
        // this request is poisoned.
        if faults::corrupts("serve.frame") && !payload.is_empty() {
            payload[0] ^= 0xFF;
        }
        // corrupt@ingest.batch: an ingest frame arrives truncated — the
        // last payload byte is lost in transit. Decoding fails with a
        // typed error, *nothing* is evicted (a partial delta must not be
        // applied), and the connection survives for the client's retry.
        if payload.first() == Some(&TAG_INGEST) && faults::corrupts("ingest.batch") {
            payload.pop();
        }
        let request = match Request::from_payload(&payload) {
            Ok(r) => r,
            Err(e) => {
                ServeStats::bump(&shared.stats.malformed, "serve.malformed");
                if write_frame(&mut stream, &Reply::ProtocolError(e.to_string()).to_payload())
                    .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let reply = match request {
            Request::Stats => Reply::Stats(snapshot_stats(shared)),
            Request::Shutdown => {
                shared.shutdown_requested.store(true, Ordering::SeqCst);
                let _ = write_frame(&mut stream, &Reply::ShutdownAck.to_payload());
                return;
            }
            Request::Score(req) => admit(shared, queue, req),
            // Ingest notifications bypass the scoring queue: invalidation
            // must not wait behind queued score work, or a racing Score on
            // another connection could be served a stale cached entry
            // after the ingest was acknowledged.
            Request::Ingest(req) => handle_ingest(shared, &req),
        };
        if write_frame(&mut stream, &reply.to_payload()).is_err() {
            return;
        }
    }
}

/// Apply a streaming-ingest delta to the score cache: every fingerprint
/// whose subgraph contains an account named in the delta is evicted (or
/// doomed, if mid-flight), so no score computed on the pre-ingest graph
/// outlives the acknowledgement.
fn handle_ingest(shared: &Arc<Shared>, request: &IngestRequest) -> Reply {
    let _span = obs::span("serve.ingest");
    ServeStats::bump(&shared.stats.ingests, "serve.ingests");
    let evicted = shared.cache.invalidate(&request.accounts);
    shared.stats.evicted.fetch_add(evicted, Ordering::Relaxed);
    obs::counter_add("serve.cache_evicted", evicted);
    obs::counter_add("serve.ingested_txs", request.applied);
    Reply::IngestAck { id: request.id, evicted }
}

/// Admission control: enqueue the request or shed it with a typed
/// `Overloaded`, then wait for the worker's reply.
fn admit(shared: &Arc<Shared>, queue: &SyncSender<Job>, request: ScoreRequest) -> Reply {
    ServeStats::bump(&shared.stats.requests, "serve.requests");
    let deadline = if request.deadline_ms > 0 {
        Some(Instant::now() + Duration::from_millis(request.deadline_ms))
    } else {
        shared.config.default_deadline.map(|d| Instant::now() + d)
    };
    let (reply_tx, reply_rx) = sync_channel::<Reply>(1);
    let job = Job::Score(ScoreJob { request, deadline, enqueued: Instant::now(), reply: reply_tx });
    // Count the job before it becomes visible to workers, so the dequeue
    // decrement can never race ahead of this increment.
    let q = shared.queued.fetch_add(1, Ordering::Relaxed) + 1;
    match queue.try_send(job) {
        Ok(()) => {
            obs::gauge_set("serve.queue_depth", q as f64);
            obs::gauge_max("serve.queue_depth.high_water", q as f64);
        }
        Err(TrySendError::Full(_)) => {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            ServeStats::bump(&shared.stats.shed, "serve.shed");
            return Reply::Overloaded { retry_after_ms: RETRY_AFTER_MS };
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            return Reply::ProtocolError("server is shutting down".to_string());
        }
    }
    // The worker always replies, even when the job panics (the panic is
    // caught and typed). A dropped sender means shutdown won the race.
    reply_rx.recv().unwrap_or_else(|_| Reply::ProtocolError("server is shutting down".to_string()))
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Job>>>, worker_idx: usize) {
    loop {
        let job = {
            let guard = rx.lock().expect("queue lock");
            guard.recv()
        };
        let job = match job {
            Ok(Job::Score(job)) => job,
            Ok(Job::Stop) | Err(_) => return,
        };
        let q = shared.queued.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        obs::gauge_set("serve.queue_depth", q as f64);
        obs::span_duration("serve.queue_wait", job.enqueued.elapsed());
        let n = shared.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        obs::gauge_set("serve.in_flight", n as f64);
        obs::gauge_max("serve.in_flight.high_water", n as f64);

        let ScoreJob { request, deadline, reply, .. } = job;
        let id = request.id;
        let n_accounts = request.accounts.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            score_request(shared, &request, deadline, worker_idx)
        }));
        let reply_msg = match outcome {
            Ok(r) => Reply::Scores(r),
            Err(payload) => {
                // panic@serve.worker (or an organic bug): contained to this
                // request. Cache leases were retracted by their guards.
                ServeStats::bump(&shared.stats.worker_panics, "serve.worker_panics");
                let message = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_string());
                Reply::Scores(ScoreReply {
                    id,
                    quarantined: n_accounts as u64,
                    degraded: 0,
                    results: (0..n_accounts)
                        .map(|_| WireResult::Err {
                            code: ErrorCode::Panicked,
                            message: format!("serve.worker panicked: {message}"),
                        })
                        .collect(),
                })
            }
        };
        // Count completion before replying, so a Stats request racing the
        // reply can never observe completed < requests for finished work.
        ServeStats::bump(&shared.stats.completed, "serve.completed");
        let _ = reply.send(reply_msg);
        let n = shared.in_flight.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        obs::gauge_set("serve.in_flight", n as f64);
    }
}

/// Retract un-fulfilled cache leases when the request unwinds, so a
/// panicking leader can never wedge the waiters on its fingerprints.
struct LeaseGuard<'a> {
    cache: &'a ScoreCache,
    pending: Vec<u64>,
}

impl LeaseGuard<'_> {
    fn fulfil(&mut self, fp: u64, outcome: Option<AccountScore>) {
        if let Some(pos) = self.pending.iter().position(|&p| p == fp) {
            self.pending.swap_remove(pos);
            self.cache.fulfil(fp, outcome);
        }
    }
}

impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        for fp in self.pending.drain(..) {
            self.cache.fulfil(fp, None);
        }
    }
}

fn wire_error(e: &ScoreError) -> WireResult {
    let code = match e {
        ScoreError::Invalid(_) => ErrorCode::Invalid,
        ScoreError::Dropped => ErrorCode::Dropped,
        ScoreError::Panicked { .. } => ErrorCode::Panicked,
        ScoreError::NoUsableBranch => ErrorCode::NoUsableBranch,
        ScoreError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
    };
    WireResult::Err { code, message: e.to_string() }
}

fn score_request(
    shared: &Shared,
    request: &ScoreRequest,
    deadline: Option<Instant>,
    worker_idx: usize,
) -> ScoreReply {
    // stall@serve.worker: the worker wedges long enough for the request
    // deadline to expire — the deterministic way to exercise the deadline
    // path without depending on machine speed.
    if faults::stalls("serve.worker", Some(worker_idx)) {
        let until = deadline.unwrap_or_else(|| Instant::now() + Duration::from_millis(100));
        let pad = until.saturating_duration_since(Instant::now()) + Duration::from_millis(5);
        std::thread::sleep(pad.min(Duration::from_millis(500)));
    }
    faults::maybe_panic("serve.worker", Some(worker_idx));

    // Fingerprint every account and deduplicate within the request: a
    // fingerprint is scored at most once per request, and single-flight
    // extends that across concurrent requests.
    let fps: Vec<u64> = request
        .accounts
        .iter()
        .map(|g| {
            let mut w = SectionWriter::new();
            encode_subgraph(&mut w, g);
            fingerprint(&w.into_bytes())
        })
        .collect();
    let mut first_idx: HashMap<u64, usize> = HashMap::new();
    let mut unique: Vec<(u64, usize)> = Vec::new(); // (fp, first account idx)
    for (i, &fp) in fps.iter().enumerate() {
        if first_idx.contains_key(&fp) {
            continue; // same subgraph earlier in this request
        }
        first_idx.insert(fp, i);
        unique.push((fp, i));
    }
    // Acquire leases in ascending fingerprint order, NOT request order.
    // `begin` can block on another request's in-flight fingerprint while
    // this request still holds unfulfilled leases of its own, and leases
    // are only fulfilled after scoring — so acquisition order is lock
    // order. With a global total order, a worker only ever blocks on a
    // fingerprint strictly greater than every lease it holds, which makes
    // a wait-for cycle impossible; in request order, two requests sharing
    // two fingerprints in opposite positions could wedge both workers
    // forever (no deadline ⇒ unbounded condvar wait ⇒ the conn threads
    // hang in admit()).
    let mut acquisition = unique.clone();
    acquisition.sort_unstable_by_key(|&(fp, _)| fp);

    let mut slots: Vec<Option<WireResult>> = vec![None; request.accounts.len()];
    let mut guard = LeaseGuard { cache: &shared.cache, pending: Vec::new() };
    for &(fp, i) in &acquisition {
        // Register the subgraph's global node ids with the lease so a
        // later `Ingest` can find this fingerprint by member account.
        match shared.cache.begin(fp, &request.accounts[i].nodes, deadline) {
            Lease::Hit(score) => {
                obs::counter_add("serve.cache_hits", 1);
                slots[i] = Some(WireResult::Ok {
                    score: score.score,
                    degraded: score.degraded,
                    cached: true,
                });
            }
            Lease::Lead => {
                obs::counter_add("serve.cache_misses", 1);
                guard.pending.push(fp);
            }
            Lease::Expired => {
                ServeStats::bump(&shared.stats.deadline_exceeded, "serve.deadline_exceeded");
                slots[i] = Some(wire_error(&ScoreError::DeadlineExceeded));
            }
        }
    }
    // The scoring batch keeps first-occurrence request order: only lease
    // *acquisition* is fingerprint-sorted. Logical-index fault sites
    // (`drop@account:<i>`, …) and the latency histogram key on batch
    // position, so that order must stay a deterministic function of the
    // request, not of per-process fingerprint values. (Scores themselves
    // are batch-composition-invariant under pinned scaling either way.)
    let to_score: Vec<(u64, usize)> =
        unique.iter().copied().filter(|(fp, _)| guard.pending.contains(fp)).collect();

    let mut quarantined = 0u64;
    let mut degraded = 0u64;
    if !to_score.is_empty() {
        let batch: Vec<_> = to_score.iter().map(|&(_, i)| request.accounts[i].clone()).collect();
        let opts = InferOptions { deadline, pinned_scaling: true, ..InferOptions::default() };
        let _span = obs::span("serve.score");
        let report = shared
            .session
            .score_with(&batch, &opts)
            .expect("non-strict scoring returns per-account errors, not Err");
        quarantined = report.quarantined as u64;
        degraded = report.degraded as u64;
        for (&(fp, i), result) in to_score.iter().zip(&report.scores) {
            match result {
                Ok(score) => {
                    // Only clean scores enter the cache; a degraded score
                    // must not outlive the fault that produced it.
                    let cacheable = (!score.degraded).then(|| score.clone());
                    guard.fulfil(fp, cacheable);
                    slots[i] = Some(WireResult::Ok {
                        score: score.score,
                        degraded: score.degraded,
                        cached: false,
                    });
                }
                Err(e) => {
                    if matches!(e, ScoreError::DeadlineExceeded) {
                        ServeStats::bump(
                            &shared.stats.deadline_exceeded,
                            "serve.deadline_exceeded",
                        );
                    }
                    guard.fulfil(fp, None);
                    slots[i] = Some(wire_error(e));
                }
            }
        }
    }
    drop(guard);

    // Duplicate accounts echo their first occurrence's result.
    let results: Vec<WireResult> = fps
        .iter()
        .enumerate()
        .map(|(i, fp)| match &slots[i] {
            Some(r) => r.clone(),
            None => slots[first_idx[fp]]
                .clone()
                .unwrap_or_else(|| wire_error(&ScoreError::DeadlineExceeded)),
        })
        .collect();
    ScoreReply { id: request.id, results, quarantined, degraded }
}
