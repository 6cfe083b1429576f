//! Span timers: RAII guards that time a stage and record into the registry.
//!
//! Spans nest: each thread keeps a stack of active span frames, visible via
//! [`span_path`] / [`span_depth`] and used to indent trace-level events.
//! Aggregation, however, is keyed by the span's *declared* name alone —
//! hierarchy is encoded in the dotted names chosen at the call site
//! (`"pipeline.encode.lower"`), never derived from the runtime stack. A
//! task fanned out to a worker thread therefore lands in exactly the same
//! report key as when it runs inline, which is what keeps report structure
//! independent of `DBG4ETH_THREADS`.
//!
//! The stack *is* used for two per-thread derived signals that never change
//! report structure:
//!
//! * **Self-time** — when a span closes, its duration is charged to the
//!   enclosing frame's child-time, so each span's **exclusive** time
//!   (`total - time spent in nested spans on the same thread`) accumulates
//!   into [`crate::SpanStat::self_ns`]. A worker-thread span with no
//!   enclosing frame is its own root: its time stays attributed to itself,
//!   not to the fan-out span on the dispatching thread.
//! * **Timeline events** — with `DBG4ETH_TRACE` set, every span records a
//!   begin/end pair into the per-thread trace ring (see [`mod@crate::trace`]),
//!   tagged with the logical `par` task index when inside a worker task.

use crate::log::{log_enabled, Level};
use crate::registry::{metrics_enabled, span_record};
use crate::trace::{current_task_index, record, trace_enabled, Phase};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

/// One active span on the current thread's stack.
struct Frame {
    name: &'static str,
    /// Nanoseconds spent in already-closed spans nested inside this one
    /// (on this thread). Subtracted from the span's own duration at close
    /// to yield its exclusive self-time.
    child_ns: u128,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// An active span; records its duration when dropped. Created by [`span`].
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    // Guards must drop on the thread that created them (the nesting stack
    // is thread-local), so keep the type !Send.
    _pin: PhantomData<*const ()>,
}

/// Start a span. Inert (no clock read, no allocation) unless metrics
/// collection, timeline tracing or trace-level events are enabled.
#[must_use]
pub fn span(name: &'static str) -> Span {
    if !metrics_enabled() && !trace_enabled() && !log_enabled(Level::Trace) {
        return Span { name, start: None, _pin: PhantomData };
    }
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Frame { name, child_ns: 0 });
        s.len() - 1
    });
    if log_enabled(Level::Trace) {
        match current_task_index() {
            Some(task) => crate::emit(
                Level::Trace,
                "span",
                format_args!("{:depth$}-> {name} [task {task}]", "", depth = depth * 2),
            ),
            None => crate::emit(
                Level::Trace,
                "span",
                format_args!("{:depth$}-> {name}", "", depth = depth * 2),
            ),
        }
    }
    record(name, Phase::Begin);
    Span { name, start: Some(Instant::now()), _pin: PhantomData }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        record(self.name, Phase::End);
        let dur_ns = dur.as_nanos();
        let (depth, self_ns) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(
                s.last().map(|f| f.name),
                Some(self.name),
                "span guards must drop LIFO"
            );
            let frame = s.pop();
            let child_ns = frame.map_or(0, |f| f.child_ns);
            // Charge this span's full duration to the enclosing frame, so
            // the parent's self-time excludes it.
            if let Some(parent) = s.last_mut() {
                parent.child_ns += dur_ns;
            }
            (s.len(), dur_ns.saturating_sub(child_ns))
        });
        span_record(self.name, dur, self_ns);
        if log_enabled(Level::Trace) {
            crate::emit(
                Level::Trace,
                "span",
                format_args!(
                    "{:depth$}<- {} ({:.3} ms)",
                    "",
                    self.name,
                    dur.as_secs_f64() * 1e3,
                    depth = depth * 2
                ),
            );
        }
    }
}

/// Number of active spans on the current thread.
#[must_use]
pub fn span_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

/// The current thread's span stack, dot-joined (empty when no span is
/// active). Diagnostic only — aggregation never uses it.
#[must_use]
pub fn span_path() -> String {
    STACK.with(|s| s.borrow().iter().map(|f| f.name).collect::<Vec<_>>().join("."))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{set_metrics_enabled, snapshot, test_guard};

    #[test]
    fn spans_nest_and_unwind_lifo() {
        let _g = test_guard();
        set_metrics_enabled(true);
        assert_eq!(span_depth(), 0);
        {
            let _outer = span("test.span.outer");
            assert_eq!(span_depth(), 1);
            assert_eq!(span_path(), "test.span.outer");
            {
                let _inner = span("test.span.inner");
                assert_eq!(span_depth(), 2);
                assert_eq!(span_path(), "test.span.outer.test.span.inner");
            }
            assert_eq!(span_depth(), 1);
        }
        assert_eq!(span_depth(), 0);
        let s = snapshot();
        assert_eq!(s.spans["test.span.outer"].count, 1);
        assert_eq!(s.spans["test.span.inner"].count, 1);
        // The outer span was open for at least as long as the inner one.
        assert!(s.spans["test.span.outer"].total_ns >= s.spans["test.span.inner"].total_ns);
    }

    #[test]
    fn span_keys_do_not_depend_on_the_calling_thread() {
        let _g = test_guard();
        set_metrics_enabled(true);
        let run = || {
            let _s = span("test.span.worker");
        };
        run();
        std::thread::scope(|scope| {
            scope.spawn(run);
            scope.spawn(run);
        });
        assert_eq!(snapshot().spans["test.span.worker"].count, 3);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = test_guard();
        set_metrics_enabled(false);
        {
            let _s = span("test.span.disabled");
            assert_eq!(span_depth(), 0, "inert span must not touch the stack");
        }
        set_metrics_enabled(true);
        assert!(!snapshot().spans.contains_key("test.span.disabled"));
    }

    #[test]
    fn self_time_is_total_minus_nested_children_exactly() {
        let _g = test_guard();
        set_metrics_enabled(true);
        {
            let _outer = span("test.self.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _a = span("test.self.a");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _aa = span("test.self.aa");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            {
                let _b = span("test.self.b");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let s = snapshot();
        let outer = &s.spans["test.self.outer"];
        let a = &s.spans["test.self.a"];
        let aa = &s.spans["test.self.aa"];
        let b = &s.spans["test.self.b"];
        // Exact arithmetic identities: the parent's self-time is its own
        // measured duration minus its *direct* children's measured
        // durations (grandchildren are charged to their parent, not here).
        assert_eq!(outer.self_ns, outer.total_ns - a.total_ns - b.total_ns);
        assert_eq!(a.self_ns, a.total_ns - aa.total_ns);
        assert_eq!(aa.self_ns, aa.total_ns);
        assert_eq!(b.self_ns, b.total_ns);
        for span in [outer, a, aa, b] {
            assert!(span.self_ns <= span.total_ns);
        }
    }

    #[test]
    fn worker_thread_spans_are_their_own_roots() {
        let _g = test_guard();
        set_metrics_enabled(true);
        {
            let _outer = span("test.selfroot.outer");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _w = span("test.selfroot.worker");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            });
        }
        let s = snapshot();
        let worker = &s.spans["test.selfroot.worker"];
        // The worker span had no enclosing frame on its own thread, so all
        // of its time is self-time and none of it was charged to the outer
        // span's children.
        assert_eq!(worker.self_ns, worker.total_ns);
        let outer = &s.spans["test.selfroot.outer"];
        assert_eq!(outer.self_ns, outer.total_ns);
    }
}
