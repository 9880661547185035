//! The spec-driven experiment front-end behind the `cimloop` binary.
//!
//! Users describe architectures, workloads, data-value models, and run
//! configuration in *scenario files* (the experiment-document extension
//! of the yamlite dialect, [`cimloop_spec::scenario`]) instead of editing
//! simulator code — the paper's flexibility claim, opened up as a front
//! door. Every run — the binary's, the daemon's, a library caller's —
//! goes through one function, [`run`]: it checks the document against
//! its schemas, then runs its `experiment:` kind. Subcommands:
//!
//! - `cimloop evaluate <spec>…` — run each scenario's experiment (any
//!   kind) and write `results/<name>.tsv`. `--checkpoint`, `--resume`,
//!   `--shard` and `--max-evals` ([`DseOptions`]) control an
//!   `experiment: dse` run.
//! - `cimloop merge-fronts <spec> <checkpoint>…` — recombine the shard
//!   checkpoints of one dse scenario into its TSV ([`merge_fronts`]).
//! - `cimloop validate <spec>…` — parse and resolve without running,
//!   reporting the resolved configuration and configuration smells (the
//!   [`cimloop_core::Evaluator::DEFAULT_CYCLE_TIME`] fallback).
//! - `cimloop convert` and `cimloop diff` — re-encode a spec, or compare
//!   two specs or two TSVs field by field.
//! - `cimloop serve` and `cimloop request` — the resident daemon
//!   ([`serve`]) and its client.
//!
//! The committed `examples/specs/*.yaml` scenarios reproduce the
//! committed `results/*.tsv` goldens **bit-identically**, and CI diffs
//! them. For fig02b, fig09_noise, fig12, and table02 the spec is the
//! only code path to the experiment.

#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use cimloop_bench::ExperimentTable;
use cimloop_core::{CoreError, EnergyTableCache};
use cimloop_sim::{mc_layer, mc_workload, McConfig};
use cimloop_spec::{ScenarioDoc, SpecError};

pub mod resolve;
mod runners;
pub mod schema;
pub mod serve;

pub use runners::{merge_fronts, DseOptions};

/// Shared state a scenario run amortizes against: the energy-table cache.
///
/// A batch invocation builds a fresh, unbounded context per process; the
/// resident `cimloop serve` daemon builds **one** (usually bounded)
/// context at startup and routes every request through it, so the
/// expensive value-statistics work is shared across requests. Results are
/// bit-identical either way — the cache only changes timing.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    cache: Arc<EnergyTableCache>,
}

impl RunContext {
    /// A fresh context with an unbounded cache (the batch configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// A context amortizing against an existing shared cache.
    pub fn with_cache(cache: Arc<EnergyTableCache>) -> Self {
        RunContext { cache }
    }

    /// The context's energy-table cache.
    pub fn cache(&self) -> &Arc<EnergyTableCache> {
        &self.cache
    }
}

/// Errors of the scenario front-end.
#[derive(Debug)]
pub enum CliError {
    /// Scenario parse/validation problem.
    Spec(SpecError),
    /// Engine problem (evaluator, mapper, models).
    Core(CoreError),
    /// A scenario that parses but cannot be run as requested.
    Usage(String),
    /// A result file that could not be written.
    Io(std::io::Error),
}

impl CliError {
    pub(crate) fn usage(message: String) -> Self {
        CliError::Usage(message)
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Spec(e) => write!(f, "{e}"),
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Usage(message) => f.write_str(message),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Spec(e) => Some(e),
            CliError::Core(e) => Some(e),
            CliError::Io(e) => Some(e),
            CliError::Usage(_) => None,
        }
    }
}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Spec(e)
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::Core(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Runs a scenario document with a fresh, unbounded [`RunContext`] and
/// returns its result table: [`run`] with default options.
///
/// # Errors
///
/// See [`run`].
pub fn run_scenario(doc: &ScenarioDoc) -> Result<ExperimentTable, CliError> {
    run_scenario_with(doc, &RunContext::new())
}

/// Runs a scenario document against a shared [`RunContext`] — the
/// resident-service entry point: [`run`] with default options.
/// Bit-identical to [`run_scenario`] for any context: the shared cache
/// amortizes timing, never values.
///
/// # Errors
///
/// See [`run`].
pub fn run_scenario_with(doc: &ScenarioDoc, ctx: &RunContext) -> Result<ExperimentTable, CliError> {
    run(doc, ctx, &DseOptions::default())?.ok_or_else(|| {
        CliError::usage("internal: an unsharded, unbudgeted dse run yielded no table".to_owned())
    })
}

/// Runs a scenario document: checks it against its schemas, then runs
/// its `experiment:` kind. The one path of every run — the binary's,
/// the daemon's and the library's.
///
/// `opts` are the production-scale controls of an `experiment: dse`
/// run. It returns `None` only when such a run stops early by design (a
/// shard, or a spent `--max-evals` budget); its progress is then in the
/// checkpoint.
///
/// # Errors
///
/// Propagates schema, resolution, engine and checkpoint errors. An
/// unknown experiment kind, and dse options on any other kind, are
/// usage errors.
pub fn run(
    doc: &ScenarioDoc,
    ctx: &RunContext,
    opts: &DseOptions,
) -> Result<Option<ExperimentTable>, CliError> {
    schema::check_document(doc)?;
    let kind = doc.experiment();
    if kind == "dse" {
        return runners::dse(doc, ctx, opts);
    }
    if !opts.is_default() {
        return Err(CliError::usage(format!(
            "--checkpoint/--resume/--shard/--max-evals require `experiment: dse`, \
             got `experiment: {kind}`"
        )));
    }
    match kind {
        "evaluate" => runners::evaluate(doc, ctx),
        "sweep" => runners::sweep(doc, ctx),
        "compare" => runners::compare(doc, ctx),
        "output_reuse" => runners::output_reuse(doc, ctx),
        "speed_record" => runners::speed_record(doc, ctx),
        other => Err(CliError::usage(format!(
            "unknown experiment kind `{other}` (expected evaluate, sweep, dse, compare, \
             output_reuse, or speed_record)"
        ))),
    }
    .map(Some)
}

/// The documented analytic-vs-Monte-Carlo SNR agreement bound, dB (see
/// `docs/accuracy.md`). `cimloop validate --monte-carlo` warns when a
/// layer's empirical SNR strays further than this from the analytic
/// prediction.
pub const MC_VALIDATE_TOLERANCE_DB: f64 = 0.5;

/// Options of [`validate_doc_with`]: the optional Monte-Carlo
/// cross-check (`cimloop validate --monte-carlo N [--seed S]`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidateOptions {
    /// Monte-Carlo trials per layer; `None` skips the sampled check.
    pub monte_carlo: Option<u64>,
    /// PRNG seed override; `None` uses the pinned [`McConfig`] default,
    /// so repeated runs are byte-identical.
    pub seed: Option<u64>,
}

impl ValidateOptions {
    fn mc_config(&self) -> Option<McConfig> {
        let trials = self.monte_carlo?;
        let cfg = McConfig::new(trials);
        Some(match self.seed {
            Some(seed) => cfg.with_seed(seed),
            None => cfg,
        })
    }
}

/// Validates a scenario without running its experiment: parses the
/// document, resolves architectures/workload/noise and any `!Space`
/// design space, builds the scoped evaluator, and reports configuration
/// smells. Returns warning lines (also printed) so tooling can assert on
/// them.
///
/// # Errors
///
/// Returns the first parse/resolution error.
pub fn validate_text(text: &str) -> Result<Vec<String>, CliError> {
    let doc = ScenarioDoc::parse(text)?;
    validate_doc(&doc)
}

/// [`validate_text`] for an already-parsed document (the entry point the
/// JSON front-end shares): schema-checks every section, resolves, and
/// additionally verifies the document survives its own canonical writer
/// (parse → write → parse must be structurally lossless); any drift is
/// reported as field-level warnings through the structural differ.
///
/// # Errors
///
/// Returns the first schema/resolution error.
pub fn validate_doc(doc: &ScenarioDoc) -> Result<Vec<String>, CliError> {
    validate_doc_with(doc, &ValidateOptions::default())
}

/// [`validate_doc`] with options: `opts.monte_carlo` additionally runs
/// the sampled noise-injection engine over every architecture × layer
/// pair and reports the empirical SNR next to the analytic prediction
/// (plus the end-to-end `task_accuracy`), warning when any layer
/// deviates by more than [`MC_VALIDATE_TOLERANCE_DB`].
///
/// # Errors
///
/// See [`validate_doc`].
pub fn validate_doc_with(
    doc: &ScenarioDoc,
    opts: &ValidateOptions,
) -> Result<Vec<String>, CliError> {
    schema::check_document(doc)?;
    let name = doc.name()?;
    let kind = doc.experiment().to_owned();
    let mut warnings = Vec::new();
    println!("scenario `{name}` (experiment: {kind})");

    if doc.architectures().is_empty() {
        warnings.push("no !Architecture section — nothing to evaluate".to_owned());
    }
    let scope = resolve::scope(doc.scenario())?;
    // Workload-less scenarios are valid for experiment kinds that derive
    // their workloads from the !Sweep section (output_reuse builds a
    // matched-utilization shape per grouping); everything else needs one.
    let net = if doc.section("Workload").is_some() {
        Some(resolve::workload(doc)?)
    } else if kind == "output_reuse" {
        None
    } else {
        return Err(CliError::usage(
            "scenario has no !Workload section".to_owned(),
        ));
    };
    match &net {
        Some(net) => println!(
            "  workload: {} ({} layers, {:.3} GMACs)",
            net.name(),
            net.layers().len(),
            net.total_macs() as f64 / 1e9
        ),
        None => println!("  workload: derived per sweep point (experiment: {kind})"),
    }

    for arch in doc.architectures() {
        let m = resolve::architecture(doc, arch)?;
        let (evaluator, rep) = resolve::evaluator_for(&m, scope)?;
        let hierarchy_len = evaluator.hierarchy().len();
        println!(
            "  architecture `{}`: {}x{} array, {} hierarchy nodes, ADC {:?} bits, noise {}",
            m.name(),
            m.rows(),
            m.cols(),
            hierarchy_len,
            evaluator.output_adc_bits(),
            if evaluator.noise().is_ideal() {
                "ideal".to_owned()
            } else {
                format!(
                    "var={} rn={} off={}",
                    evaluator.noise().cell_variation(),
                    evaluator.noise().read_noise(),
                    evaluator.noise().adc_offset()
                )
            }
        );
        // Probe one layer's energy table for configuration smells: the
        // workload's first layer, or a matched matrix-vector probe when
        // the workload is sweep-derived.
        let probe;
        let layer = match &net {
            Some(net) => &net.layers()[0],
            None => {
                probe = cimloop_workload::models::mvm(m.rows(), m.cols());
                &probe.layers()[0]
            }
        };
        let table = evaluator.action_energies(layer, &rep)?;
        if table.cycle_time_defaulted() {
            warnings.push(format!(
                "architecture `{}`: no per-cycle component declares a latency; cycle time \
                 fell back to DEFAULT_CYCLE_TIME = {:.0e} s, so GOPS/latency numbers are \
                 placeholders",
                m.name(),
                cimloop_core::Evaluator::DEFAULT_CYCLE_TIME,
            ));
        }
        // The optional Monte-Carlo cross-check: sample the declared noise
        // over every layer and report the empirical SNR next to the
        // analytic prediction. Fixed trial count + pinned seed ⇒ the
        // printout is byte-identical across runs and thread counts.
        if let (Some(cfg), Some(net)) = (opts.mc_config(), &net) {
            println!(
                "  monte-carlo cross-check ({} trials, seed {}):",
                cfg.trials, cfg.seed
            );
            for layer in net.layers() {
                let analytic = evaluator.evaluate_layer(layer, &rep)?.output_snr_db();
                let empirical = mc_layer(&m, layer, &cfg)?;
                match analytic {
                    Some(analytic) => {
                        let deviation = (analytic - empirical.snr_db).abs();
                        println!(
                            "    layer `{}`: analytic {analytic:.3} dB vs empirical {:.3} dB \
                             (deviation {deviation:.3} dB), task accuracy {:.4}",
                            layer.name(),
                            empirical.snr_db,
                            empirical.task_accuracy
                        );
                        if deviation > MC_VALIDATE_TOLERANCE_DB {
                            warnings.push(format!(
                                "architecture `{}`, layer `{}`: empirical SNR {:.3} dB deviates \
                                 {deviation:.3} dB from the analytic {analytic:.3} dB (tolerance \
                                 {MC_VALIDATE_TOLERANCE_DB} dB) — the analytic model and the \
                                 sampled engine disagree",
                                m.name(),
                                layer.name(),
                                empirical.snr_db,
                            ));
                        }
                    }
                    // Noise-free digital readout has no analytic noise
                    // report; the sampled engine must then be exact.
                    None => println!(
                        "    layer `{}`: exact digital readout, task accuracy {:.4}",
                        layer.name(),
                        empirical.task_accuracy
                    ),
                }
            }
            let run = mc_workload(&m, net, &cfg)?;
            println!(
                "    end-to-end task accuracy: {:.4} ({} layers, MAC-weighted)",
                run.task_accuracy,
                run.layers.len()
            );
        }
    }
    // Build the design space as a dse run would, so a bad `!Space` axis
    // fails validation with the same line-numbered error.
    if doc.section("Space").is_some() && !doc.architectures().is_empty() {
        runners::space_for(doc)?;
    }
    // Likewise an `output_reuse` sweep's groupings and workloads lists.
    if kind == "output_reuse" {
        runners::output_reuse_plan(doc)?;
    }
    // Reflection fixpoint check: the document must survive its own
    // canonical writer. Drift here means a raw token or a field would be
    // silently rewritten on the next round-trip — reported field by
    // field through the structural differ, not as a byte mismatch.
    let canonical = doc.write();
    match ScenarioDoc::parse(&canonical) {
        Ok(reparsed) => {
            for entry in cimloop_spec::diff(&doc.to_value(), &reparsed.to_value()) {
                warnings.push(format!("canonical-form drift: {entry}"));
            }
        }
        Err(e) => warnings.push(format!("canonical form does not re-parse: {e}")),
    }

    for warning in &warnings {
        println!("  warning: {warning}");
    }
    if warnings.is_empty() {
        println!("  ok: no warnings");
    }
    Ok(warnings)
}
