//! Deterministic task-parallel execution layer.
//!
//! The DBG4ETH pipeline fans work out at *task* granularity — one graph to
//! lower, one (branch, fit) encoder training, one tree to fit, one dataset
//! to score. Every task here is a pure function of its index and inputs
//! (any randomness comes from a per-task seed owned by the task itself), so
//! running tasks on worker threads and collecting results **in index
//! order** yields output bit-identical to a serial run, for any thread
//! count. `rayon` itself is not vendored in this offline build environment;
//! this crate implements the small deterministic subset the workspace needs
//! on top of `std::thread::scope`.
//!
//! Fan-out is **one level deep by construction**: a fan-out issued on a
//! thread this crate spawned runs inline on that thread, as a serial loop
//! with the same index-ordered collection, per-task `catch_unwind` and
//! `par.task` fault probe. A tree of nested fan-outs therefore never runs
//! more tasks at once than its widest call allows, and needs no shared
//! pool. A fan-out called from any other thread is unaffected.
//!
//! The thread count is resolved from (highest priority first) the
//! `DBG4ETH_THREADS` environment variable, the caller's requested value,
//! and finally [`std::thread::available_parallelism`] when the request is
//! `0` ("auto"). A resolved count of `1` executes on the calling thread
//! with no pool at all, reproducing the historical serial behaviour
//! exactly.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Environment variable overriding every requested thread count.
pub const THREADS_ENV: &str = "DBG4ETH_THREADS";

/// A task body panicked. Each task runs under `catch_unwind`, so one
/// panicking task becomes one typed error keyed by its *logical index* —
/// never a torn-down thread pool — and the error set is identical at any
/// thread count. [`try_par_map_indices`] returns these per slot; the
/// infallible entry points re-raise the lowest-index panic after every task
/// has run, so even the propagated panic is deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanicked {
    /// Index of the task that panicked.
    pub index: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanicked {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one task body under `catch_unwind`, mapping a panic (organic or the
/// injected `panic@par.task:<i>` fault) to a [`TaskPanicked`].
fn run_caught<R, F>(f: &F, i: usize) -> Result<R, TaskPanicked>
where
    F: Fn(usize) -> R + Sync,
{
    // Tag the worker thread with the logical task index while the body
    // runs, so timeline trace events and trace-level span logs attribute
    // work to tasks rather than to anonymous threads. Installed only when
    // something is observing — the off path stays a pair of atomic loads —
    // and restored even when the body panics (catch_unwind runs first).
    let tagged = obs::trace_enabled() || obs::log_enabled(obs::Level::Trace);
    let prev = if tagged { obs::set_task_index(Some(i)) } else { None };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        faults::maybe_panic("par.task", Some(i));
        f(i)
    }))
    .map_err(|payload| {
        obs::counter_add("par.task_panics", 1);
        TaskPanicked { index: i, message: panic_message(payload.as_ref()) }
    });
    if tagged {
        obs::set_task_index(prev);
    }
    result
}

thread_local! {
    /// Set on the worker threads [`try_par_map_indices`] spawns, so a
    /// fan-out issued from inside a task runs inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Bucket edges of the `par.tasks_per_worker` histogram.
const TASKS_EDGES: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Bucket edges of the `par.worker_utilisation` histogram (busy fraction of
/// the fan-out's wall time each worker spends inside task bodies).
const UTIL_EDGES: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Resolve a requested degree of parallelism (`0` = auto) against the
/// `DBG4ETH_THREADS` override and the machine's available parallelism.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    let requested = match std::env::var(THREADS_ENV) {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(requested),
        Err(_) => requested,
    };
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

/// Map `f` over `0..n`, collecting per-task results in index order, with
/// each task isolated under `catch_unwind`.
///
/// With `threads <= 1` (after [`resolve_threads`]-style resolution by the
/// caller), or when called on a worker thread of another fan-out, this is a
/// plain serial loop on the calling thread. Otherwise tasks are claimed
/// from a shared atomic counter by `min(threads, n)` scoped workers, which
/// run any fan-out of their own inline; because each result is keyed by
/// its task index, the output is independent of which worker ran which
/// task. A panicking task yields `Err(TaskPanicked)` in its own slot and
/// every other task still runs, so the result vector is identical for any
/// thread count.
pub fn try_par_map_indices<R, F>(threads: usize, n: usize, f: F) -> Vec<Result<R, TaskPanicked>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = if IN_WORKER.get() { 1 } else { threads.min(n) };
    // Observation only: counters/histograms feed the run-report and never
    // influence scheduling, so outputs stay bit-identical with metrics on.
    let observed = obs::metrics_enabled();
    if observed {
        obs::counter_add("par.dispatches", 1);
        obs::counter_add("par.tasks", n as u64);
    }
    if workers <= 1 {
        if observed && n > 0 {
            obs::observe("par.tasks_per_worker", &TASKS_EDGES, n as f64);
        }
        return (0..n).map(|i| run_caught(&f, i)).collect();
    }
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, TaskPanicked>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                IN_WORKER.set(true);
                let mut local: Vec<(usize, Result<R, TaskPanicked>)> = Vec::new();
                let mut busy = Duration::ZERO;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if observed {
                        let t = Instant::now();
                        local.push((i, run_caught(f, i)));
                        busy += t.elapsed();
                    } else {
                        local.push((i, run_caught(f, i)));
                    }
                }
                (local, busy)
            }));
        }
        for handle in handles {
            let (local, busy) = handle.join().expect("par worker panicked");
            if observed {
                obs::observe("par.tasks_per_worker", &TASKS_EDGES, local.len() as f64);
                let wall = start.elapsed().as_secs_f64();
                if wall > 0.0 {
                    let util = (busy.as_secs_f64() / wall).min(1.0);
                    obs::observe("par.worker_utilisation", &UTIL_EDGES, util);
                }
            }
            for (i, r) in local {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("par task not executed")).collect()
}

/// Map `f` over `0..n`, collecting results in index order.
///
/// Panics are isolated per task and re-raised only after every task has
/// completed, always for the **lowest** panicking index — so a panic
/// propagating out of a fan-out carries the same message at any thread
/// count, rather than whichever worker happened to die first.
pub fn par_map_indices<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out = Vec::with_capacity(n);
    let mut first: Option<TaskPanicked> = None;
    for r in try_par_map_indices(threads, n, f) {
        match r {
            Ok(v) => out.push(v),
            Err(e) => {
                if first.is_none() {
                    first = Some(e);
                }
            }
        }
    }
    if let Some(e) = first {
        panic!("{e}");
    }
    out
}

/// Map `f` over a slice, collecting results in input order.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indices(threads, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::RwLock;

    /// The fault plan is process-global: the injection test takes the
    /// write lock while every other test (whose fan-outs also probe
    /// `par.task`) takes the read lock, so a plan installed by one test
    /// can never fire inside another.
    static FAULT_PLAN: RwLock<()> = RwLock::new(());

    #[test]
    fn par_map_matches_serial_for_any_thread_count() {
        let _plan = FAULT_PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let items: Vec<u64> = (0..103).collect();
        let serial = par_map(1, &items, |&x| x * x + 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map(threads, &items, |&x| x * x + 1), serial);
        }
    }

    #[test]
    fn par_map_indices_preserves_order() {
        let _plan = FAULT_PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let out = par_map_indices(4, 50, |i| i);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _plan = FAULT_PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(par_map_indices(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indices(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn metrics_collection_does_not_change_results() {
        let _plan = FAULT_PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        obs::set_metrics_enabled(true);
        let items: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 4] {
            assert_eq!(par_map(threads, &items, |&x| x * 3 + 1), expect);
        }
        let snap = obs::snapshot();
        // Both dispatches above were recorded (other tests may add more).
        assert!(snap.counters.get("par.tasks").copied().unwrap_or(0) >= 114);
        assert!(snap.histograms.contains_key("par.tasks_per_worker"));
    }

    #[test]
    fn resolve_threads_auto_is_positive() {
        assert!(resolve_threads(0) >= 1);
        // DBG4ETH_THREADS wins over the explicit request (the CI matrix
        // pins it), so only assert the pass-through when it is unset.
        match std::env::var(THREADS_ENV) {
            Ok(v) => assert_eq!(resolve_threads(3), v.trim().parse().unwrap_or(3)),
            Err(_) => assert_eq!(resolve_threads(3), 3),
        }
    }

    #[test]
    fn try_par_map_isolates_panicking_tasks() {
        let _plan = FAULT_PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        for threads in [1, 4] {
            let results = try_par_map_indices(threads, 20, |i| {
                if i == 5 || i == 11 {
                    panic!("boom {i}");
                }
                i * 2
            });
            assert_eq!(results.len(), 20);
            for (i, r) in results.iter().enumerate() {
                if i == 5 || i == 11 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, i);
                    assert_eq!(e.message, format!("boom {i}"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2);
                }
            }
        }
    }

    #[test]
    fn par_map_indices_propagates_lowest_panicking_index() {
        let _plan = FAULT_PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        for threads in [1, 8] {
            let caught = std::panic::catch_unwind(|| {
                par_map_indices(threads, 30, |i| {
                    if i >= 12 {
                        panic!("boom {i}");
                    }
                    i
                })
            })
            .unwrap_err();
            let msg = caught.downcast_ref::<String>().unwrap();
            assert_eq!(msg, "task 12 panicked: boom 12");
        }
    }

    #[test]
    fn injected_par_task_panic_is_typed_and_indexed() {
        let _plan = FAULT_PLAN.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        faults::set_plan(Some(faults::FaultPlan::parse("panic@par.task:3").unwrap()));
        let results = try_par_map_indices(4, 6, |i| i);
        faults::set_plan(None);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert!(e.message.contains("injected fault: panic@par.task:3"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn nested_fan_outs_run_inline_on_their_task_thread() {
        let _plan = FAULT_PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let live = AtomicUsize::new(0);
        let high_water = AtomicUsize::new(0);
        let out = par_map_indices(2, 4, |outer| {
            let task_thread = std::thread::current().id();
            par_map_indices(4, 4, |inner| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                live.fetch_sub(1, Ordering::SeqCst);
                assert_eq!(std::thread::current().id(), task_thread, "nested task left its thread");
                outer * 4 + inner
            })
        });
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..16).collect::<Vec<_>>());
        let high_water = high_water.load(Ordering::SeqCst);
        assert!(high_water <= 2, "{high_water} task bodies ran at once under a 2-thread fan-out");
    }

    #[test]
    fn tasks_see_their_logical_index_when_tracing() {
        let _plan = FAULT_PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        obs::set_trace_enabled(true);
        let seen = try_par_map_indices(4, 16, |i| (i, obs::current_task_index()));
        obs::set_trace_enabled(false);
        for (i, r) in seen.into_iter().enumerate() {
            let (task, index) = r.expect("no panics");
            assert_eq!(task, i);
            assert_eq!(index, Some(i), "task body must see its own logical index");
        }
        // Outside any task the index is cleared again.
        assert_eq!(obs::current_task_index(), None);
    }
}
