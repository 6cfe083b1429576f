//! Shared plumbing: arguments, seeds, percentiles, failure accounting and
//! the result record every workload fills in.

use obs::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker threads of the pinned `par` pool in `train`, and scoring workers
/// of the in-process server. Serving models are trained with
/// `parallelism: 1`, so workers × per-worker threads stays at 2.
pub const THREADS: usize = 2;
/// How often set-up runs per process; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Rounds the serving workloads split their timed phase into. Each round
/// reports its own throughput and percentiles and the run reports their
/// median, so a burst of interference on a shared machine spoils one round,
/// not the run.
pub const ROUNDS: usize = 3;
/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;
/// Input scale: `full` is the benchmark of record, `tiny` the smoke run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Command-line arguments of one workload process.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    /// Per-layer mode: the process runs with `DBG4ETH_METRICS` /
    /// `DBG4ETH_TRACE` set and reports layer metrics after its timed phase.
    pub layers: bool,
    /// Scratch directory for model files, run-reports and traces.
    pub out_dir: PathBuf,
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the `i`-th input seed of stream `tag` from the workload seed, so
/// every generated input is a pure function of `--seed`.
pub fn sub_seed(seed: u64, tag: &str, i: u64) -> u64 {
    let t = tag.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    mix(mix(seed ^ t).wrapping_add(i))
}

/// Nearest-rank `q`-quantile of `samples`, with the number of samples
/// strictly beyond it. Failed operations are recorded as `+inf`, so they
/// count as missing any latency limit.
pub fn quantile(samples: &[f64], q: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (f64::NAN, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Samples needed so the `q`-quantile has [`MIN_BEYOND`] samples beyond it.
pub fn samples_for(q: f64) -> usize {
    ((MIN_BEYOND as f64) / (1.0 - q)).ceil() as usize + 1
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).0
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time this process has used, user and system, summed over its
/// threads, in seconds. The kernel leaves out time the hypervisor stole, so
/// on a shared virtual machine this counts the work the process did, where
/// wall time also counts its neighbours.
pub fn cpu_s() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
        #[repr(C)]
        struct Rusage {
            utime: [i64; 2],
            stime: [i64; 2],
            rest: [i64; 14],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        const RUSAGE_SELF: i32 = 0;
        let mut u = Rusage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
        // SAFETY: getrusage fills one `struct rusage`, laid out as above.
        if unsafe { getrusage(RUSAGE_SELF, &mut u) } == 0 {
            let secs = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
            return secs(u.utime) + secs(u.stime);
        }
    }
    f64::NAN
}

/// Cumulative `(steal, total)` CPU ticks of the machine, from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time the hypervisor stole since `since` (from
/// [`cpu_ticks`]), in percent: a diagnostic for noisy runs.
pub fn steal_pct(since: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    let total = now.1.saturating_sub(since.1);
    if total == 0 {
        0.0
    } else {
        100.0 * now.0.saturating_sub(since.0) as f64 / total as f64
    }
}

/// Restart the peak-RSS high-water mark at the current RSS, so
/// [`peak_rss_mb`] reports the peak of what runs next. Freed heap is
/// returned to the kernel first, so the new baseline holds live data, not
/// what earlier work left in the allocator. Returns `false` where the
/// kernel offers no reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free memory.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// What [`timed_setup`] measured: medians over the repetitions.
pub struct SetupTime {
    /// CPU seconds of one set-up (see [`cpu_s`]).
    pub cpu_s: f64,
    /// Wall seconds of one set-up.
    pub wall_s: f64,
}

impl SetupTime {
    /// Report `setup_s` (CPU) and the `setup_wall_s` figure.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("setup_s", self.cpu_s, "s");
        out.figure("setup_wall_s", self.wall_s, "s");
    }
}

/// Run `setup` [`SETUP_REPS`] times, returning the last result and the
/// median CPU and wall time. Earlier results are dropped before the next
/// repetition starts, so only one set-up's memory is live at a time.
pub fn timed_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTime), String> {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (c, t) = (cpu_s(), Instant::now());
        last = Some(setup()?);
        wall.push(t.elapsed().as_secs_f64());
        cpu.push(cpu_s() - c);
    }
    let time = SetupTime { cpu_s: median(&cpu), wall_s: median(&wall) };
    Ok((last.expect("at least one set-up"), time))
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed operations by kind (shed, transport, mismatch, ...).
    pub failures: BTreeMap<&'static str, u64>,
    /// End-to-end metrics every workload reports: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// End-to-end figures of this workload alone: printed with the
    /// metrics, but not in the result line, which holds only metrics every
    /// workload reports.
    pub figures: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (layer mode only).
    pub layers: Vec<(String, f64, &'static str)>,
    /// Sample count behind each percentile: `metric -> (n, beyond)`.
    pub samples: BTreeMap<String, (usize, usize)>,
    /// Run facts recorded next to the metrics (sizes, shares, settings).
    pub info: Vec<(String, Json)>,
    /// Digest of every score the run produced, in a fixed order.
    pub digest: u64,
    /// The attribution report printed in layer mode.
    pub report: Vec<String>,
}

/// Failure kinds that mean an output was wrong, not merely unavailable.
const INCORRECT: [&str; 4] = ["mismatch", "stale", "cache_miss", "too_few_samples"];

impl Outcome {
    pub fn fail(&mut self, kind: &'static str, n: u64) {
        if n > 0 {
            *self.failures.entry(kind).or_insert(0) += n;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn correct(&self) -> bool {
        INCORRECT.iter().all(|k| !self.failures.contains_key(k))
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn figure(&mut self, name: &str, value: f64, unit: &'static str) {
        self.figures.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, key: &str, value: impl Into<Json>) {
        self.info.push((key.to_string(), value.into()));
    }

    /// The median over rounds of each round's `q`-quantile, recording
    /// its sample counts under `name`. Every round must have
    /// [`MIN_BEYOND`] samples beyond its quantile; the smallest round's
    /// counts are kept.
    pub fn round_percentile(&mut self, name: &str, rounds: &[Vec<f64>], q: f64) -> f64 {
        let per_round: Vec<(f64, usize, usize)> = rounds
            .iter()
            .map(|r| {
                let (v, beyond) = quantile(r, q);
                (v, r.len(), beyond)
            })
            .collect();
        let n = per_round.iter().map(|r| r.1).min().unwrap_or(0);
        let beyond = per_round.iter().map(|r| r.2).min().unwrap_or(0);
        self.samples.insert(name.to_string(), (n, beyond));
        if beyond < MIN_BEYOND {
            self.fail("too_few_samples", 1);
        }
        median(&per_round.iter().map(|r| r.0).collect::<Vec<_>>())
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let named = |list: &[(String, f64, &'static str)]| {
            let mut o = Json::obj();
            for (name, value, unit) in list {
                let mut m = Json::obj();
                m.set("value", *value);
                m.set("unit", *unit);
                o.set(name, m);
            }
            o
        };
        let mut out = Json::obj();
        out.set("workload", workload);
        out.set("correct", self.correct());
        out.set("attempted", self.attempted);
        out.set("failed", self.failed());
        out.set("metrics", named(&self.metrics));
        out.set("figures", named(&self.figures));
        out.set("layers", named(&self.layers));
        let mut failures = Json::obj();
        for (k, v) in &self.failures {
            failures.set(k, *v);
        }
        out.set("failures", failures);
        let mut samples = Json::obj();
        for (k, (n, beyond)) in &self.samples {
            let mut s = Json::obj();
            s.set("n", *n);
            s.set("beyond", *beyond);
            samples.set(k, s);
        }
        out.set("samples", samples);
        let mut info = Json::obj();
        for (k, v) in &self.info {
            info.set(k, v.clone());
        }
        out.set("info", info);
        out.set("digest", format!("{:016x}", self.digest));
        out.set("report", Json::Arr(self.report.iter().map(|l| Json::from(l.as_str())).collect()));
        out
    }
}
