//! Shared measurement plumbing: the result record every workload fills,
//! order statistics, the process's peak memory, the load budget, the
//! seeded generator, and golden-file access.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Errors crossing the benchmark's own code (library errors are boxed).
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Units a run needs before its 95th percentile has five beyond it.
const TAIL_UNITS: usize = 100;

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (iterations, requests, replayed units).
    pub attempted: u64,
    /// Operations that returned an error or output differing from its
    /// golden or from the run's own first result.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The end-to-end metrics every workload reports: the median set-up
    /// time, the median unit time and its tail, requests completed per
    /// second, and the process's peak memory. The tail is the 95th
    /// percentile when at least five units lie beyond it, else the median
    /// (too few units for a tail).
    pub fn push_end_to_end(&mut self, setups: &[f64], units: &[f64], requests_per_s: f64) {
        let tail = if units.len() >= TAIL_UNITS {
            quantile(units, 0.95)
        } else {
            median(units)
        };
        self.push("setup_s", median(setups), "s");
        self.push("wall_s", median(units), "s");
        self.push("wall_p95_s", tail, "s");
        self.push("requests_per_s", requests_per_s, "req/s");
        self.push("peak_rss_mb", peak_rss_mb(), "MB");
    }

    /// Counts one operation; `ok == false` counts it failed and prints why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("cimbench: FAILED: {}", what());
        }
    }

    /// Counts an operation that returned an error.
    pub fn error(&mut self, context: &str, e: &dyn std::fmt::Display) {
        self.check(false, || format!("{context}: {e}"));
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The median of `samples` (mean of the middle pair for even counts).
pub(crate) fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The nearest-rank `q`-quantile of `samples`, `q` in `(0, 1]`.
pub(crate) fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub(crate) fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Draws per reference-kernel sample, and the sample's time on a quiet
/// host (2-core x86-64, no other load), seconds.
const REFERENCE_DRAWS: u64 = 500_000;
const REFERENCE_NOMINAL_S: f64 = 0.006;
/// Reference samples taken before and after a unit that runs alone.
pub(crate) const REFERENCE_BLOCK: usize = 8;

/// The host-speed reference: a fixed kernel of the benchmark's own —
/// SplitMix draws and a binary search over a 256-entry table, the shape
/// of the value-exact simulator's inner loop — timed around or during the
/// units of work. A shared host's speed drifts by tens of percent over
/// seconds, so a unit's time is scaled by the nominal over the measured
/// reference time; program changes move the unit, never the reference.
#[derive(Debug, Default)]
pub(crate) struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times `n` more reference samples, in this thread's CPU time where
    /// the kernel reports it, so that the benchmark's own busy threads
    /// taking turns on a core do not read as a slow host.
    pub(crate) fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let cpu_before = thread_cpu_s();
            let (_, wall) =
                timed(|| std::hint::black_box(reference(std::hint::black_box(REFERENCE_DRAWS))));
            let t = match (cpu_before, thread_cpu_s()) {
                (Some(before), Some(after)) if after > before => after - before,
                _ => wall,
            };
            self.samples.push(t);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// Nominal over median measured reference time, over the samples
    /// taken since the first `from` (1 when there are none).
    pub(crate) fn factor_since(&self, from: usize) -> f64 {
        match &self.samples[from.min(self.samples.len())..] {
            [] => 1.0,
            since => REFERENCE_NOMINAL_S / median(since),
        }
    }

    pub(crate) fn factor(&self) -> f64 {
        self.factor_since(0)
    }
}

/// The calling thread's time on a CPU, seconds (`/proc/thread-self/schedstat`).
fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns * 1e-9)
}

fn reference(draws: u64) -> u64 {
    let table: Vec<f64> = (1..=256)
        .map(|i| (f64::from(i) / 256.0).powf(1.7))
        .collect();
    let mut rng = SplitMix::new(0x5EED);
    let mut acc = 0;
    for _ in 0..draws {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        acc += table.partition_point(|&c| c < u) as u64;
    }
    acc
}

/// `f`'s result and its wall time, seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, secs(start.elapsed()))
}

/// The process's peak resident set (`VmHWM`), MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The load budget: every thread pool and connection count the
/// benchmark controls is capped at the machine's `nproc`.
#[derive(Debug, Clone, Copy)]
pub struct Caps {
    pub nproc: usize,
    /// What the library's own pools resolve to when the benchmark cannot
    /// set them (`NetworkEngine`/`Explorer` inside `run_scenario_with`).
    pub library_default: usize,
}

impl Caps {
    pub fn detect() -> Self {
        let library_default = std::thread::available_parallelism().map_or(1, |n| n.get());
        let nproc = std::process::Command::new("nproc")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.trim().parse::<usize>().ok())
            .unwrap_or(library_default)
            .max(1);
        Caps {
            nproc,
            library_default,
        }
    }

    /// `want` threads or connections, capped at `nproc`.
    pub fn cap(&self, want: usize) -> usize {
        want.clamp(1, self.nproc)
    }
}

/// SplitMix64: a tiny seeded generator for workload ordering.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The committed inputs and goldens, read from the checkout root.
#[derive(Debug, Clone)]
pub struct Repo {
    root: PathBuf,
}

impl Repo {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Repo { root: root.into() }
    }

    pub fn spec(&self, stem: &str) -> Res<String> {
        self.read(&Path::new("examples/specs").join(format!("{stem}.yaml")))
    }

    pub fn golden(&self, stem: &str) -> Res<String> {
        self.read(&Path::new("results").join(format!("{stem}.tsv")))
    }

    fn read(&self, rel: &Path) -> Res<String> {
        let path = self.root.join(rel);
        std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.9), 4.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.9), 9.0);
        assert_eq!(quantile(&ten, 0.5), 5.0);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..6).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.push("wall_s", 1.5, "s");
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
