//! The repository benchmark. Three workloads run through the crates'
//! public entry points, every output checked against the committed
//! goldens:
//!
//! - `resnet18_cold` — fig02b from nothing each iteration (the
//!   column-sum convolution dominates);
//! - `serve_warm` — closed-loop sessions against a warm in-process
//!   daemon (the caches answer; the statistics layer sits idle);
//! - `fig06_exact` — the Fig 6 accuracy run beside the value-exact
//!   simulator.
//!
//! An untraced run reports the end-to-end metrics; a traced run replays
//! one unit of work a public call at a time and reports each layer's
//! share. All timings are host time; end-to-end timings are scaled to a
//! nominal host speed by a reference kernel timed alongside them
//! ([`measure`]'s `HostSpeed`), traced ones are not.

#![forbid(unsafe_code)]

pub mod cold;
pub mod exact;
pub mod layers;
pub mod measure;
pub mod replay;
pub mod served;
pub mod trace;

use measure::{Caps, Outcome, Repo, Res};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["resnet18_cold", "serve_warm", "fig06_exact"];

/// Command-line options of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: String,
    /// Workload seed: the exact simulator's seed offset from the golden
    /// one, and the order of `serve_warm` sessions. 0 is the golden seed.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Replay one unit of work with per-layer spans instead.
    pub trace: bool,
}

impl Opts {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
            match flag.as_str() {
                "--workload" => opts.workload = value,
                "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    };
                }
                _ => return Err(format!("unknown option `{flag}`")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(opts)
    }
}

/// Runs one workload from the checkout at `root`.
///
/// # Errors
///
/// Missing inputs or goldens, and set-up failures; failures of measured
/// operations are counted in the [`Outcome`] instead.
pub fn run(root: &std::path::Path, opts: &Opts) -> Res<Outcome> {
    let repo = Repo::new(root);
    let caps = Caps::detect();
    println!(
        "load budget: nproc {}, library pools {} (available_parallelism, capped at nproc), \
         MALLOC_ARENA_MAX {}",
        caps.nproc,
        caps.cap(caps.library_default),
        std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "unset".to_owned())
    );
    match opts.workload.as_str() {
        "resnet18_cold" => cold::run(&repo, caps, opts),
        "serve_warm" => served::run(&repo, caps, opts),
        _ => exact::run(&repo, opts),
    }
}

/// Prints every metric by name and unit, then the result line last.
pub fn report(out: &Outcome) {
    for m in &out.metrics {
        println!("metric {:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric {:<28} {:>18} fraction ({} of {} operations failed)",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!("{}", out.json());
}
