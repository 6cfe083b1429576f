//! The global metrics registry: counters, gauges, histograms with fixed
//! bucket edges, and span statistics.
//!
//! Collection is enabled by the presence of `DBG4ETH_METRICS` (checked once,
//! cached in an atomic) or by [`set_metrics_enabled`]. When disabled every
//! mutator returns after one relaxed atomic load. All aggregation is
//! order-independent — integer adds and min/max — so the registry's contents
//! are identical for any thread count modulo the timing *values* themselves.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Environment variable: when set, metrics collection is enabled and the
/// value names the run-report output path.
pub const METRICS_ENV: &str = "DBG4ETH_METRICS";

const STATE_UNSET: u8 = u8::MAX;
static ENABLED: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Whether the registry is collecting, initialised from `DBG4ETH_METRICS`
/// on first use. One relaxed load on the hot path.
#[inline]
#[must_use]
pub fn metrics_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => false,
        STATE_UNSET => {
            let on = std::env::var_os(METRICS_ENV).is_some_and(|v| !v.is_empty());
            ENABLED.store(u8::from(on), Ordering::Relaxed);
            on
        }
        _ => true,
    }
}

/// Force collection on or off (tests and harnesses).
pub fn set_metrics_enabled(on: bool) {
    ENABLED.store(u8::from(on), Ordering::Relaxed);
}

/// The run-report output path from `DBG4ETH_METRICS`, if any.
#[must_use]
pub fn metrics_path() -> Option<PathBuf> {
    std::env::var_os(METRICS_ENV).filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// Aggregated timings of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    /// Inclusive wall time: everything between the span's open and close.
    pub total_ns: u128,
    pub max_ns: u128,
    /// Exclusive (self) wall time: `total_ns` minus the time spent inside
    /// spans nested within this one *on the same thread*. Summed over a
    /// span's direct children, `children.total_ns + parent.self_ns ==
    /// parent.total_ns` when the children run inline; children fanned out
    /// to worker threads keep their time as their own self-time instead.
    pub self_ns: u128,
}

impl SpanStat {
    fn record(&mut self, dur: Duration, self_ns: u128) {
        self.count += 1;
        self.total_ns += dur.as_nanos();
        self.max_ns = self.max_ns.max(dur.as_nanos());
        self.self_ns += self_ns;
    }
}

/// A histogram over fixed, caller-supplied bucket edges. Bucket `i` counts
/// observations `<= edges[i]`; the last bucket counts the overflow. Only
/// integer counts and min/max are kept — no floating-point sums — so the
/// contents are exactly order- and thread-count-independent for a given
/// multiset of observations.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    pub edges: Vec<f64>,
    /// `edges.len() + 1` counts; the last is the overflow bucket.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub min: f64,
    pub max: f64,
}

impl Histogram {
    fn new(edges: &[f64]) -> Self {
        Self {
            edges: edges.to_vec(),
            buckets: vec![0; edges.len() + 1],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, v: f64) {
        let i = self.edges.iter().position(|&e| v <= e).unwrap_or(self.edges.len());
        self.buckets[i] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket holding the target rank, clamped to the observed
    /// `[min, max]`. Resolution is bucket width — with log-spaced edges
    /// (see [`log_edges`]) the relative error is bounded by the edge ratio.
    /// Returns NaN for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= target {
                // Bucket `i` spans (edges[i-1], edges[i]]; the first bucket
                // starts at the observed min and the overflow bucket ends
                // at the observed max.
                let lo = if i == 0 { self.min } else { self.edges[i - 1].max(self.min) };
                let hi = if i < self.edges.len() { self.edges[i].min(self.max) } else { self.max };
                if hi <= lo {
                    return lo;
                }
                let frac = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            cum = next;
        }
        self.max
    }

    /// p50 / p90 / p99 estimates, the serving-latency trio.
    #[must_use]
    pub fn percentiles(&self) -> [f64; 3] {
        [self.quantile(0.50), self.quantile(0.90), self.quantile(0.99)]
    }
}

/// `n` log-spaced bucket edges covering `[lo, hi]` (geometric progression,
/// first edge `lo`, last edge `hi`). The standard layout for latency
/// histograms, where relative — not absolute — resolution matters. Callers
/// must cache the result (e.g. in a `OnceLock`): [`observe`] requires the
/// same edges at every call site, and the construction is exact enough to
/// reproduce bit-identically from the same `(lo, hi, n)`.
#[must_use]
pub fn log_edges(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && n >= 2, "log_edges needs 0 < lo < hi and n >= 2");
    let step = (hi / lo).ln() / (n - 1) as f64;
    (0..n).map(|i| if i == n - 1 { hi } else { lo * (step * i as f64).exp() }).collect()
}

/// A point-in-time copy of the registry (also its storage representation).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub spans: BTreeMap<String, SpanStat>,
}

fn registry() -> &'static Mutex<Snapshot> {
    static REGISTRY: OnceLock<Mutex<Snapshot>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Snapshot::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Snapshot> {
    // Observability must never take the pipeline down with it: a panic
    // while holding the registry lock only poisons observation state.
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Add `n` to a counter.
pub fn counter_add(name: &str, n: u64) {
    if !metrics_enabled() {
        return;
    }
    let mut r = lock();
    match r.counters.get_mut(name) {
        Some(c) => *c += n,
        None => {
            r.counters.insert(name.to_string(), n);
        }
    }
}

/// Set a gauge to its latest value. Gauges are last-write-wins; only use
/// them for values every writer agrees on (thread count, dataset size).
pub fn gauge_set(name: &str, v: f64) {
    if !metrics_enabled() {
        return;
    }
    lock().gauges.insert(name.to_string(), v);
}

/// Raise a gauge to `max(current, v)` — a high-water mark. Unlike
/// [`gauge_set`], the result is order-independent, so concurrent writers
/// leave the same value at any thread count.
pub fn gauge_max(name: &str, v: f64) {
    if !metrics_enabled() {
        return;
    }
    let mut r = lock();
    match r.gauges.get_mut(name) {
        Some(g) => *g = g.max(v),
        None => {
            r.gauges.insert(name.to_string(), v);
        }
    }
}

/// Observe `v` in the named histogram. `edges` fixes the bucket layout on
/// first use; later calls must pass the same edges (debug-asserted).
pub fn observe(name: &str, edges: &[f64], v: f64) {
    if !metrics_enabled() {
        return;
    }
    let mut r = lock();
    let h = match r.histograms.get_mut(name) {
        Some(h) => h,
        None => {
            r.histograms.insert(name.to_string(), Histogram::new(edges));
            r.histograms.get_mut(name).unwrap()
        }
    };
    debug_assert_eq!(h.edges, edges, "histogram {name} re-registered with different edges");
    h.observe(v);
}

/// Record a completed span measured outside the RAII [`fn@crate::span`] API —
/// a duration that crosses threads, such as a request's queue wait between
/// the accepting connection and the worker that drains it. The whole
/// duration counts as self time (there is no on-thread nesting to deduct).
pub fn span_duration(name: &str, dur: Duration) {
    span_record(name, dur, dur.as_nanos());
}

pub(crate) fn span_record(name: &str, dur: Duration, self_ns: u128) {
    if !metrics_enabled() {
        return;
    }
    let mut r = lock();
    match r.spans.get_mut(name) {
        Some(s) => s.record(dur, self_ns),
        None => {
            let mut s = SpanStat::default();
            s.record(dur, self_ns);
            r.spans.insert(name.to_string(), s);
        }
    }
}

/// Copy the registry's current contents.
#[must_use]
pub fn snapshot() -> Snapshot {
    lock().clone()
}

/// Clear every metric (tests; harnesses that emit several reports).
pub fn reset() {
    *lock() = Snapshot::default();
}

/// Serialises tests that toggle the global enable flag or assert on
/// absolute registry contents.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let _g = test_guard();
        set_metrics_enabled(true);
        counter_add("test.reg.counter", 2);
        counter_add("test.reg.counter", 3);
        gauge_set("test.reg.gauge", 1.5);
        gauge_set("test.reg.gauge", 2.5);
        let s = snapshot();
        assert_eq!(s.counters["test.reg.counter"], 5);
        assert_eq!(s.gauges["test.reg.gauge"], 2.5);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = test_guard();
        set_metrics_enabled(false);
        counter_add("test.reg.off", 1);
        observe("test.reg.off_hist", &[1.0], 0.5);
        assert!(!snapshot().counters.contains_key("test.reg.off"));
        assert!(!snapshot().histograms.contains_key("test.reg.off_hist"));
        set_metrics_enabled(true);
    }

    #[test]
    fn histogram_contents_are_order_and_thread_independent() {
        let _g = test_guard();
        set_metrics_enabled(true);
        let edges = [1.0, 2.0, 4.0, 8.0];
        let values: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.05).collect();
        // Serial ascending.
        for &v in &values {
            observe("test.reg.hist_serial", &edges, v);
        }
        // Reversed, interleaved from 8 threads.
        std::thread::scope(|scope| {
            for chunk in values.rchunks(25) {
                scope.spawn(move || {
                    for &v in chunk.iter().rev() {
                        observe("test.reg.hist_threads", &edges, v);
                    }
                });
            }
        });
        let s = snapshot();
        assert_eq!(s.histograms["test.reg.hist_serial"], s.histograms["test.reg.hist_threads"]);
        let h = &s.histograms["test.reg.hist_serial"];
        assert_eq!(h.count, 200);
        assert_eq!(h.buckets.iter().sum::<u64>(), 200);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 199.0 * 0.05);
        // Overflow bucket counts values above the last edge.
        assert_eq!(h.buckets[4], values.iter().filter(|&&v| v > 8.0).count() as u64);
    }

    #[test]
    fn gauge_max_is_order_independent() {
        let _g = test_guard();
        set_metrics_enabled(true);
        gauge_max("test.reg.hw", 3.0);
        gauge_max("test.reg.hw", 9.0);
        gauge_max("test.reg.hw", 5.0);
        assert_eq!(snapshot().gauges["test.reg.hw"], 9.0);
    }

    #[test]
    fn log_edges_are_geometric_and_pinned_at_both_ends() {
        let edges = log_edges(0.01, 10_000.0, 19);
        assert_eq!(edges.len(), 19);
        assert_eq!(edges[0], 0.01);
        assert_eq!(edges[18], 10_000.0);
        for w in edges.windows(2) {
            assert!(w[1] > w[0]);
            // Constant ratio between consecutive edges (within float noise).
            let r = w[1] / w[0];
            let r0 = edges[1] / edges[0];
            assert!((r / r0 - 1.0).abs() < 1e-9, "ratio drifted: {r} vs {r0}");
        }
    }

    #[test]
    fn quantiles_estimate_within_bucket_resolution() {
        let _g = test_guard();
        set_metrics_enabled(true);
        let edges = log_edges(1.0, 1024.0, 11); // ratio 2 per bucket
                                                // A known multiset: 0..1000 uniform on [1, 1000].
        for i in 0..1000 {
            observe("test.reg.quant", &edges, 1.0 + i as f64);
        }
        let h = snapshot().histograms["test.reg.quant"].clone();
        // With ratio-2 buckets, the estimate is within one bucket of truth.
        let p50 = h.quantile(0.50);
        assert!((250.0..=1001.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((512.0..=1000.0).contains(&p99), "p99 {p99}");
        let [q50, q90, q99] = h.percentiles();
        assert!(q50 <= q90 && q90 <= q99, "quantiles must be monotone");
        // Extremes clamp to observed min/max.
        assert_eq!(h.quantile(0.0), h.min);
        assert_eq!(h.quantile(1.0), h.max);
        // Empty histograms have no quantiles.
        assert!(Histogram::new(&edges).quantile(0.5).is_nan());
    }

    #[test]
    fn span_self_time_accumulates() {
        let _g = test_guard();
        set_metrics_enabled(true);
        span_record("test.reg.span_self", Duration::from_nanos(100), 60);
        span_record("test.reg.span_self", Duration::from_nanos(50), 50);
        let s = snapshot().spans["test.reg.span_self"];
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 150);
        assert_eq!(s.self_ns, 110);
        assert!(s.self_ns <= s.total_ns);
    }
}
