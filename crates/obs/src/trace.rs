//! Timeline tracing: per-thread ring-buffered begin/end events exported as
//! Chrome `trace_event` JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! Tracing is enabled by the presence of `DBG4ETH_TRACE=<path>` (checked
//! once, cached in an atomic — an inert probe is a single relaxed load).
//! Every [`fn@crate::span`] then records a begin and an end event into a ring
//! buffer owned by the recording thread: monotonic nanoseconds since the
//! first event of the process, the thread's stable trace id, and — when the
//! span runs inside a `par` worker — the logical task index (see
//! [`set_task_index`]). Rings are fixed-capacity (`DBG4ETH_TRACE_BUF`,
//! default [`DEFAULT_RING_CAPACITY`] events per thread); when full, the
//! oldest events are overwritten and counted, so tracing never grows
//! unboundedly and never blocks the traced thread on anything but its own
//! uncontended mutex.
//!
//! Export ([`export_trace_json`] / [`write_trace_if_requested`]) walks each
//! thread's ring in recording order and emits only **balanced** B/E pairs:
//! an end whose begin was overwritten, or a begin still open at export, is
//! dropped rather than emitted, so the file is always a valid trace — per
//! thread, timestamps are monotone and every `"B"` has a matching `"E"`.
//! Like everything in this crate, tracing observes and never steers: the
//! traced computation's outputs are byte-identical with tracing on or off.

use crate::json::Json;
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable: when set, timeline tracing is enabled and the
/// value names the Chrome `trace_event` JSON output path.
pub const TRACE_ENV: &str = "DBG4ETH_TRACE";

/// Environment variable: per-thread ring capacity in events (begin and end
/// each count as one). Values below 2 are clamped to 2.
pub const TRACE_BUF_ENV: &str = "DBG4ETH_TRACE_BUF";

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

const STATE_UNSET: u8 = u8::MAX;
static ENABLED: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Whether the tracer is recording, initialised from `DBG4ETH_TRACE` on
/// first use. One relaxed load on the hot path.
#[inline]
#[must_use]
pub fn trace_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => false,
        STATE_UNSET => {
            let on = std::env::var_os(TRACE_ENV).is_some_and(|v| !v.is_empty());
            ENABLED.store(u8::from(on), Ordering::Relaxed);
            on
        }
        _ => true,
    }
}

/// Force tracing on or off (tests and harnesses).
pub fn set_trace_enabled(on: bool) {
    ENABLED.store(u8::from(on), Ordering::Relaxed);
}

/// The trace output path from `DBG4ETH_TRACE`, if any.
#[must_use]
pub fn trace_path() -> Option<PathBuf> {
    std::env::var_os(TRACE_ENV).filter(|v| !v.is_empty()).map(PathBuf::from)
}

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var(TRACE_BUF_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_RING_CAPACITY)
            .max(2)
    })
}

/// The process-wide trace epoch: every timestamp is nanoseconds since the
/// first traced event, so traces from one process share one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    Begin,
    End,
}

#[derive(Clone, Copy, Debug)]
struct Event {
    name: &'static str,
    phase: Phase,
    ts_ns: u64,
    /// Logical `par` task index active when the event was recorded.
    task: Option<usize>,
}

/// Fixed-capacity ring: `events` grows to `cap` then wraps, overwriting the
/// oldest entries. `next` is the write cursor; `dropped` counts overwrites.
struct Ring {
    cap: usize,
    events: Vec<Event>,
    next: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Self { cap, events: Vec::new(), next: 0, dropped: 0 }
    }

    fn push(&mut self, e: Event) {
        if self.events.len() < self.cap {
            self.events.push(e);
        } else {
            self.events[self.next] = e;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Events in recording order (oldest first).
    fn ordered(&self) -> Vec<Event> {
        if self.events.len() < self.cap {
            self.events.clone()
        } else {
            let mut out = Vec::with_capacity(self.events.len());
            out.extend_from_slice(&self.events[self.next..]);
            out.extend_from_slice(&self.events[..self.next]);
            out
        }
    }
}

type SharedRing = Arc<Mutex<Ring>>;

/// Every thread's ring, in registration order, keyed by its trace tid.
/// Rings outlive their threads so short-lived workers still export.
fn rings() -> &'static Mutex<Vec<(u64, SharedRing)>> {
    static RINGS: OnceLock<Mutex<Vec<(u64, SharedRing)>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL_RING: SharedRing = {
        let ring = Arc::new(Mutex::new(Ring::new(ring_capacity())));
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        rings()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((tid, Arc::clone(&ring)));
        ring
    };
    /// The logical task index of the `par` task running on this thread.
    static TASK_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Install the logical task index for the current thread, returning the
/// previous value so fan-out layers can restore it when the task body
/// returns. Called by `crates/par` around every task; `None` outside tasks.
pub fn set_task_index(index: Option<usize>) -> Option<usize> {
    TASK_INDEX.with(|c| c.replace(index))
}

/// The logical task index installed by the innermost enclosing `par` task
/// on this thread, if any.
#[must_use]
pub fn current_task_index() -> Option<usize> {
    TASK_INDEX.with(Cell::get)
}

pub(crate) fn record(name: &'static str, phase: Phase) {
    if !trace_enabled() {
        return;
    }
    let ts_ns = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    let event = Event { name, phase, ts_ns, task: current_task_index() };
    LOCAL_RING.with(|ring| {
        ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(event);
    });
}

/// Forget every recorded event and ring (tests; harnesses emitting several
/// traces). Registered threads re-register a fresh ring on their next
/// event only if still alive under the same thread-local, so this is meant
/// for single-threaded test setup, not mid-flight truncation.
pub fn reset_trace() {
    // Touch LOCAL_RING *before* clearing the registry: its lazy initializer
    // registers the ring, and doing that first means the clear below removes
    // it too, leaving exactly one registration for this thread.
    LOCAL_RING.with(|ring| {
        {
            let mut r = ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let cap = r.cap;
            *r = Ring::new(cap);
        }
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let mut list = rings().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        list.clear();
        list.push((tid, Arc::clone(ring)));
    });
}

/// Keep only balanced begin/end pairs: ends whose begin was overwritten by
/// the ring and begins still open at export are filtered out, so every
/// emitted `"B"` has a matching `"E"` on its thread.
fn balanced(events: &[Event]) -> Vec<Event> {
    let mut keep = vec![false; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.phase {
            Phase::Begin => stack.push(i),
            Phase::End => {
                // Unwind to the matching begin; names mismatch only when
                // the ring overwrote part of the nesting, in which case the
                // orphaned frames are dropped.
                while let Some(b) = stack.pop() {
                    if events[b].name == e.name {
                        keep[b] = true;
                        keep[i] = true;
                        break;
                    }
                }
            }
        }
    }
    events.iter().zip(keep).filter_map(|(e, k)| k.then_some(*e)).collect()
}

/// Assemble the Chrome `trace_event` document from every thread's ring:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`, one `"B"`/`"E"` pair
/// per completed span, timestamps in microseconds with nanosecond
/// precision, `pid` = process id, `tid` = stable per-thread trace id.
#[must_use]
pub fn export_trace_json() -> Json {
    let pid = u64::from(std::process::id());
    let mut events: Vec<Json> = Vec::new();
    let mut dropped_total: u64 = 0;
    let rings: Vec<(u64, SharedRing)> = rings()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(tid, r)| (*tid, Arc::clone(r)))
        .collect();
    for (tid, ring) in rings {
        let (ordered, dropped) = {
            let r = ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            (r.ordered(), r.dropped)
        };
        dropped_total += dropped;
        for e in balanced(&ordered) {
            let mut o = Json::obj();
            o.set("name", e.name);
            o.set(
                "ph",
                match e.phase {
                    Phase::Begin => "B",
                    Phase::End => "E",
                },
            );
            o.set("ts", e.ts_ns as f64 / 1e3);
            o.set("pid", pid);
            o.set("tid", tid);
            if let (Phase::Begin, Some(task)) = (e.phase, e.task) {
                let mut args = Json::obj();
                args.set("task", task);
                o.set("args", args);
            }
            events.push(o);
        }
    }
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events));
    doc.set("displayTimeUnit", "ms");
    if dropped_total > 0 {
        let mut meta = Json::obj();
        meta.set("dropped_events", dropped_total);
        doc.set("otherData", meta);
    }
    doc
}

/// Write the trace to `DBG4ETH_TRACE`, if tracing is on and a path is set.
/// The file is written to a temporary sibling and atomically renamed, so a
/// crash mid-write never leaves a truncated trace. Returns the path.
pub fn write_trace_if_requested() -> std::io::Result<Option<PathBuf>> {
    if !trace_enabled() {
        return Ok(None);
    }
    match trace_path() {
        Some(path) => {
            crate::report::write_atomically(&path, &export_trace_json().render_pretty())?;
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::test_guard;
    use crate::span::span;

    fn collect_events(doc: &Json) -> Vec<(String, String, f64, f64)> {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array")
            .iter()
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap().to_string(),
                    e.get("ph").and_then(Json::as_str).unwrap().to_string(),
                    e.get("ts").and_then(Json::as_f64).unwrap(),
                    e.get("tid").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect()
    }

    /// Per thread: timestamps monotone, every B has a matching E (LIFO).
    fn assert_valid_trace(doc: &Json) {
        let events = collect_events(doc);
        let mut tids: Vec<f64> = events.iter().map(|e| e.3).collect();
        tids.sort_by(f64::total_cmp);
        tids.dedup();
        for tid in tids {
            let thread: Vec<_> = events.iter().filter(|e| e.3 == tid).collect();
            let mut last_ts = f64::NEG_INFINITY;
            let mut stack: Vec<&str> = Vec::new();
            for (name, ph, ts, _) in thread {
                assert!(*ts >= last_ts, "timestamps must be sorted per thread");
                last_ts = *ts;
                match ph.as_str() {
                    "B" => stack.push(name),
                    "E" => assert_eq!(stack.pop(), Some(name.as_str()), "balanced B/E"),
                    other => panic!("unexpected phase {other}"),
                }
            }
            assert!(stack.is_empty(), "unclosed spans in exported trace");
        }
    }

    #[test]
    fn spans_record_balanced_events_across_threads() {
        let _g = test_guard();
        set_trace_enabled(true);
        reset_trace();
        {
            let _outer = span("test.trace.outer");
            let _inner = span("test.trace.inner");
        }
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _s = span("test.trace.worker");
                });
            }
        });
        set_trace_enabled(false);
        let doc = export_trace_json();
        assert_valid_trace(&doc);
        let events = collect_events(&doc);
        assert_eq!(events.iter().filter(|e| e.0 == "test.trace.outer").count(), 2);
        assert_eq!(events.iter().filter(|e| e.0 == "test.trace.worker").count(), 4);
        // The document itself round-trips through the JSON writer/parser.
        let text = doc.render_pretty();
        assert_eq!(Json::parse(&text).expect("trace parses"), doc);
    }

    #[test]
    fn ring_overwrites_oldest_and_export_stays_balanced() {
        let _g = test_guard();
        set_trace_enabled(true);
        reset_trace();
        // Drive a tiny ring directly: capacity 6 holds three B/E pairs.
        let mut ring = Ring::new(6);
        let mut ts = 0u64;
        let mut push = |ring: &mut Ring, name: &'static str, phase: Phase| {
            ts += 1;
            ring.push(Event { name, phase, ts_ns: ts, task: None });
        };
        for name in ["a", "b", "c", "d", "e"] {
            // Leak is fine in tests: names must be 'static.
            let name: &'static str = Box::leak(name.to_string().into_boxed_str());
            push(&mut ring, name, Phase::Begin);
            push(&mut ring, name, Phase::End);
        }
        assert_eq!(ring.dropped, 4);
        let ordered = ring.ordered();
        assert_eq!(ordered.len(), 6);
        // Oldest surviving events are c's pair.
        assert_eq!(ordered[0].name, "c");
        let kept = balanced(&ordered);
        assert_eq!(kept.len(), 6, "all surviving pairs are balanced");
        set_trace_enabled(false);
    }

    #[test]
    fn torn_nesting_is_dropped_not_emitted() {
        // An End without its Begin (overwritten) and a Begin without an End
        // (still open) must both vanish from the export.
        let events = vec![
            Event { name: "lost", phase: Phase::End, ts_ns: 1, task: None },
            Event { name: "ok", phase: Phase::Begin, ts_ns: 2, task: Some(3) },
            Event { name: "ok", phase: Phase::End, ts_ns: 3, task: Some(3) },
            Event { name: "open", phase: Phase::Begin, ts_ns: 4, task: None },
        ];
        let kept = balanced(&events);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|e| e.name == "ok"));
    }

    #[test]
    fn task_index_nests_and_restores() {
        assert_eq!(current_task_index(), None);
        let prev = set_task_index(Some(7));
        assert_eq!(prev, None);
        assert_eq!(current_task_index(), Some(7));
        let prev = set_task_index(Some(9));
        assert_eq!(prev, Some(7));
        set_task_index(prev);
        assert_eq!(current_task_index(), Some(7));
        set_task_index(None);
        assert_eq!(current_task_index(), None);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = test_guard();
        set_trace_enabled(false);
        reset_trace();
        {
            let _s = span("test.trace.disabled");
        }
        set_trace_enabled(true);
        let doc = export_trace_json();
        let events = collect_events(&doc);
        assert!(events.iter().all(|e| e.0 != "test.trace.disabled"));
        set_trace_enabled(false);
    }
}
