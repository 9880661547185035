//! The experiment runners behind [`crate::run`], one per scenario
//! `experiment:` kind.
//!
//! Each runner drives the library's engines directly (`NetworkEngine`
//! for network evaluations, `Explorer` for design grids, the value-exact
//! simulator for speed records), so a scenario spec and the same calls
//! made programmatically produce **bit-identical** TSVs. The committed
//! `examples/specs/*.yaml` reproduce the committed `results/*.tsv`
//! goldens byte for byte, and CI enforces it; for fig02b, fig09_noise,
//! fig12, and table02 the spec and its runner are the only code path.
//!
//! Every runner amortizes against the caller's [`RunContext`] cache, so
//! a resident daemon shares one cache across requests. Because a served
//! request must fail the *request* and never the process, runners
//! propagate every malformed-spec condition as a [`CliError`] — no
//! panicking unwraps on spec-derived values.

// The panic policy: malformed specs surface as CliError, never as a panic.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use cimloop_bench::{fmt, ExperimentTable};
use cimloop_dse::{
    AccuracyObjective, Checkpoint, CheckpointError, DesignSpace, EvalScope, Exploration, Explorer,
    ParetoFront, SweepPlan,
};
use cimloop_macros::{ArrayMacro, OutputCombine};
use cimloop_sim::{simulate_layer, ExactConfig};
use cimloop_spec::{ScenarioDoc, Section, SpecError};
use cimloop_system::NetworkEngine;
use cimloop_workload::scenario::{display_name, zoo_model};
use cimloop_workload::{Layer, LayerKind, Shape, Workload};

use crate::resolve::{self, Scope};
use crate::schema::ScenarioSection;
use crate::{CliError, RunContext};

fn table(doc: &ScenarioDoc, headers: &[&str]) -> Result<ExperimentTable, CliError> {
    let name = doc.name()?;
    let title = doc.scenario().str_or("title", "scenario experiment");
    Ok(ExperimentTable::new(name, title, headers))
}

fn sweep_section(doc: &ScenarioDoc) -> Result<&Section, CliError> {
    doc.section("Sweep")
        .ok_or_else(|| CliError::usage("this experiment needs a !Sweep section".to_owned()))
}

/// `experiment: evaluate` — one architecture, one workload, a per-layer
/// report through the amortized [`NetworkEngine`].
pub fn evaluate(doc: &ScenarioDoc, ctx: &RunContext) -> Result<ExperimentTable, CliError> {
    let arch = doc
        .architecture()
        .ok_or_else(|| CliError::usage("scenario has no !Architecture section".to_owned()))?;
    let m = resolve::architecture(doc, arch)?;
    let scope = resolve::scope(doc.scenario())?;
    let net = resolve::workload(doc)?;
    let (evaluator, rep) = resolve::evaluator_for(&m, scope)?;
    let engine = NetworkEngine::new(&evaluator).with_cache(ctx.cache().clone());
    let report = engine.evaluate_network(&net, &rep)?;

    let mut out = table(
        doc,
        &[
            "layer",
            "count",
            "energy (J)",
            "J/MAC",
            "GOPS",
            "TOPS/W",
            "utilization",
        ],
    )?;
    for (count, layer) in report.layers() {
        out.row(vec![
            layer.layer_name().to_owned(),
            count.to_string(),
            format!("{:.6e}", layer.energy_total()),
            format!("{:.6e}", layer.energy_per_mac()),
            fmt(layer.gops()),
            fmt(layer.tops_per_watt()),
            fmt(layer.spatial_utilization()),
        ]);
    }
    out.row(vec![
        "TOTAL".to_owned(),
        report
            .layers()
            .iter()
            .map(|(c, _)| c)
            .sum::<u64>()
            .to_string(),
        format!("{:.6e}", report.energy_total()),
        format!("{:.6e}", report.energy_per_mac()),
        "-".to_owned(),
        fmt(report.tops_per_watt()),
        "-".to_owned(),
    ]);
    if let Some(snr) = report.output_snr_db() {
        println!("  worst-layer output SNR: {snr:.3} dB");
    }
    Ok(out)
}

/// One axis of a generic `!Sweep` grid: how each value configures the
/// macro, and how it displays.
struct Axis {
    title: &'static str,
    raws: Vec<String>,
    values: Vec<f64>,
    apply: fn(ArrayMacro, f64) -> ArrayMacro,
}

fn axis_for(section: &Section, key: &str) -> Result<Option<Axis>, CliError> {
    let (title, integer, apply): (&'static str, bool, fn(ArrayMacro, f64) -> ArrayMacro) = match key
    {
        "variations" => ("variation", false, ArrayMacro::with_cell_variation),
        "adc_bits" => ("ADC bits", true, |m, v| m.with_adc_bits(v as u32)),
        "dac_bits" => ("DAC bits", true, |m, v| m.with_dac_resolution(v as u32)),
        "square_arrays" => ("array", true, |m, v| m.with_array(v as u64, v as u64)),
        _ => return Ok(None),
    };
    // Integer axes must parse as integers: `adc_bits: [6.5]` evaluating a
    // truncated 6-bit design while the row echoes "6.5" would misstate
    // the evaluated configuration.
    let values: Vec<f64> = if integer {
        section
            .u64_list(key)?
            .unwrap_or_default()
            .into_iter()
            .map(|v| v as f64)
            .collect()
    } else {
        section.f64_list(key)?.unwrap_or_default()
    };
    if values.is_empty() {
        return Err(CliError::usage(format!(
            "!Sweep axis `{key}` is an empty list"
        )));
    }
    let raws = section.str_list(key)?.unwrap_or_default();
    Ok(Some(Axis {
        title,
        raws,
        values,
        apply,
    }))
}

/// `experiment: sweep` — a cartesian grid of macro-axis values (declared
/// nesting order, first axis outermost), each cell evaluated on the
/// workload through one shared energy-table cache, reporting the declared
/// metric columns. `examples/specs/fig09_noise.yaml` runs the Fig 9-style
/// noise grid through it.
pub fn sweep(doc: &ScenarioDoc, ctx: &RunContext) -> Result<ExperimentTable, CliError> {
    let arch = doc
        .architecture()
        .ok_or_else(|| CliError::usage("scenario has no !Architecture section".to_owned()))?;
    let base = resolve::architecture(doc, arch)?;
    let scope = resolve::scope(doc.scenario())?;
    let net = resolve::workload(doc)?;
    let section = sweep_section(doc)?;

    let mut axes: Vec<Axis> = Vec::new();
    let mut metrics: Vec<String> = Vec::new();
    for entry in section.entries() {
        if entry.key == "metrics" {
            metrics = section.str_list("metrics")?.unwrap_or_default();
            continue;
        }
        match axis_for(section, &entry.key)? {
            Some(axis) => axes.push(axis),
            None => {
                return Err(CliError::usage(format!(
                    "unknown sweep key `{}` (expected variations, adc_bits, dac_bits, \
                     square_arrays, or metrics)",
                    entry.key
                )))
            }
        }
    }
    if axes.is_empty() {
        return Err(CliError::usage("!Sweep declares no axes".to_owned()));
    }
    if metrics.is_empty() {
        metrics = vec!["energy".to_owned(), "tops_per_watt".to_owned()];
    }

    let metric_title = |key: &str| -> Result<&'static str, CliError> {
        Ok(match key {
            "snr_db" => "SNR (dB)",
            "enob" => "ENOB",
            "energy" => "energy (J)",
            "energy_per_mac" => "J/MAC",
            "tops_per_watt" => "TOPS/W",
            "gops" => "GOPS",
            other => {
                return Err(CliError::usage(format!(
                    "unknown metric `{other}` (expected snr_db, enob, energy, \
                     energy_per_mac, tops_per_watt, or gops)"
                )))
            }
        })
    };
    let mut headers: Vec<&str> = axes.iter().map(|a| a.title).collect();
    for metric in &metrics {
        headers.push(metric_title(metric)?);
    }
    let mut out = table(doc, &headers)?;

    // Odometer over the axes (first axis outermost), all cells sharing
    // the context's energy-table cache — values are bit-identical either
    // way; the cache only amortizes the column-sum statistics across
    // cells (and, under `cimloop serve`, across requests).
    let cache = ctx.cache();
    let mut index = vec![0usize; axes.len()];
    'grid: loop {
        let mut m = base.clone();
        let mut cells: Vec<String> = Vec::new();
        for (axis, &i) in axes.iter().zip(&index) {
            m = (axis.apply)(m, axis.values[i]);
            cells.push(axis.raws[i].clone());
        }
        let (evaluator, rep) = resolve::evaluator_for(&m, scope)?;
        let report = evaluator.evaluate_cached(&net, &rep, cache)?;
        for metric in &metrics {
            cells.push(match metric.as_str() {
                "snr_db" => report
                    .output_snr_db()
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "-".to_owned()),
                "enob" => report
                    .output_enob()
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "-".to_owned()),
                "energy" => format!("{:.6e}", report.energy_total()),
                "energy_per_mac" => format!("{:.6e}", report.energy_per_mac()),
                "tops_per_watt" => fmt(report.tops_per_watt()),
                "gops" => {
                    let latency = report.latency_total();
                    let gops = if latency > 0.0 {
                        2.0 * report.macs_total() as f64 / latency / 1e9
                    } else {
                        0.0
                    };
                    fmt(gops)
                }
                _ => unreachable!("metric validated above"),
            });
        }
        out.row(cells);

        // Advance the odometer, last axis fastest.
        for pos in (0..axes.len()).rev() {
            index[pos] += 1;
            if index[pos] < axes[pos].values.len() {
                continue 'grid;
            }
            index[pos] = 0;
        }
        break;
    }
    Ok(out)
}

/// Builds the design space from the document's `!Architecture` variants
/// and its `!Space` axes.
pub(crate) fn space_for(doc: &ScenarioDoc) -> Result<DesignSpace, CliError> {
    if doc.architectures().is_empty() {
        return Err(CliError::usage(
            "scenario has no !Architecture section".to_owned(),
        ));
    }
    let mut space = DesignSpace::new();
    for (i, arch) in doc.architectures().iter().enumerate() {
        let name = arch
            .settings
            .str("name")
            .map(str::to_owned)
            .unwrap_or_else(|| format!("design{i}"));
        space = space.variant(name, resolve::architecture(doc, arch)?);
    }
    if let Some(section) = doc.section("Space") {
        space = space.with_section(section)?;
    }
    Ok(space)
}

fn explorer_for(doc: &ScenarioDoc) -> Result<Explorer, CliError> {
    let scope = match resolve::scope(doc.scenario())? {
        Scope::Macro => EvalScope::MacroOnly,
        Scope::System(storage) => EvalScope::System(storage),
    };
    let name = ScenarioSection::decode(doc.scenario())?.accuracy;
    let accuracy = AccuracyObjective::parse(&name).ok_or_else(|| {
        CliError::usage(format!(
            "unknown accuracy objective `{name}` (expected snr, adc_coverage, or task_accuracy)"
        ))
    })?;
    Ok(Explorer::new().with_accuracy(accuracy).with_scope(scope))
}

fn checkpoint_error(e: CheckpointError) -> CliError {
    match e {
        CheckpointError::Spec(e) => CliError::Spec(e),
        other => CliError::usage(other.to_string()),
    }
}

/// The Pareto-front TSV every dse-flavoured path (batch, staged,
/// merge-fronts) renders — one renderer, so shard/merge output is
/// byte-identical to a single-process run by construction.
fn front_table(
    doc: &ScenarioDoc,
    front: &ParetoFront<cimloop_dse::DesignReport>,
) -> Result<ExperimentTable, CliError> {
    // Under the task_accuracy objective the front carries the sampled
    // task accuracy; surface it as an extra column. Other objectives
    // keep the historic column set so their goldens stay byte-identical.
    let task_accuracy = ScenarioSection::decode(doc.scenario())?.accuracy == "task_accuracy";
    let mut headers = vec![
        "design",
        "J/MAC",
        "TOPS/W",
        "area (mm2)",
        "SNR (dB)",
        "energy (J)",
    ];
    if task_accuracy {
        headers.push("task accuracy");
    }
    let mut out = table(doc, &headers)?;
    for member in front.members() {
        let r = &member.value;
        let mut row = vec![
            r.point.label(),
            format!("{:.6e}", r.energy_per_mac),
            fmt(r.tops_per_watt),
            fmt(r.area_mm2),
            r.output_snr_db
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".to_owned()),
            format!("{:.6e}", r.energy_total),
        ];
        if task_accuracy {
            row.push(
                r.task_accuracy
                    .map(|v| format!("{v:.4}"))
                    .unwrap_or_else(|| "-".to_owned()),
            );
        }
        out.row(row);
    }
    Ok(out)
}

/// Production-scale controls for a dse run, all defaulting to the plain
/// full sweep. Whether to stage is the scenario's `staged:` key.
#[derive(Debug, Clone, Default)]
pub struct DseOptions {
    /// Where to save (and with [`Self::resume`], load) sweep progress.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Resume from [`Self::checkpoint`] if it exists (a missing file
    /// starts fresh, so kill/rerun loops need no special casing).
    pub resume: bool,
    /// Evaluate only one shard of the candidate grid.
    pub shard: Option<cimloop_dse::Shard>,
    /// Stop after claiming this many candidates, checkpointing progress.
    pub max_evaluations: Option<usize>,
}

impl DseOptions {
    /// Whether any production-scale control is set (such runs are only
    /// meaningful for `experiment: dse`, not `compare`).
    pub fn is_default(&self) -> bool {
        self.checkpoint.is_none()
            && !self.resume
            && self.shard.is_none()
            && self.max_evaluations.is_none()
    }
}

/// `experiment: dse` — explore the design grid and report the Pareto
/// front (ascending design id), with the production-scale options:
/// sharding, evaluation budgets, and checkpoint/resume. Returns `None`
/// when the run intentionally produces no result table — a shard run
/// (its front lives in its checkpoint until `cimloop merge-fronts`
/// recombines the shards) or a budget-stopped run (resume it to
/// completion first).
///
/// # Errors
///
/// Resolution and engine errors, plus checkpoint I/O and mismatch
/// errors; a `!Space` that yields zero candidates is reported as a
/// line-numbered spec error on the `!Space` section.
pub fn dse(
    doc: &ScenarioDoc,
    ctx: &RunContext,
    opts: &DseOptions,
) -> Result<Option<ExperimentTable>, CliError> {
    let space = space_for(doc)?;
    let net = resolve::workload(doc)?;
    let explorer = explorer_for(doc)?.with_cache(ctx.cache().clone());
    let mut plan = SweepPlan {
        staged: ScenarioSection::decode(doc.scenario())?.staged,
        shard: opts.shard,
        max_evaluations: opts.max_evaluations,
        resume: None,
    };
    if opts.resume {
        let Some(path) = opts.checkpoint.as_ref() else {
            return Err(CliError::usage(
                "--resume requires --checkpoint FILE".to_owned(),
            ));
        };
        if path.exists() {
            let checkpoint = Checkpoint::load(path).map_err(checkpoint_error)?;
            plan.resume = Some(
                checkpoint
                    .resume_state(&space, explorer.accuracy())
                    .map_err(checkpoint_error)?,
            );
        }
    }

    let exploration = match explorer.sweep(&space, &net, &plan) {
        Ok(exploration) => exploration,
        Err(cimloop_core::CoreError::EmptySpace { message }) => {
            // A zero-candidate grid is a spec mistake; cite the section
            // that declared it rather than failing with a bare engine
            // error.
            let line = doc
                .section("Space")
                .map_or_else(|| doc.scenario().line(), Section::line);
            return Err(CliError::Spec(SpecError::Parse {
                line,
                message: format!("design space yields zero candidates: {message}"),
            }));
        }
        Err(e) => return Err(e.into()),
    };

    report_sweep(&exploration, &plan);
    if let Some(path) = &opts.checkpoint {
        let checkpoint =
            Checkpoint::capture(doc.name()?, &space, explorer.accuracy(), &exploration);
        checkpoint.save(path).map_err(checkpoint_error)?;
        println!(
            "  checkpoint: {} ({} processed, {} on front)",
            path.display(),
            checkpoint.processed().len(),
            checkpoint.front_len()
        );
    }
    if plan.shard.is_some() || !exploration.completed {
        return Ok(None);
    }
    front_table(doc, &exploration.front).map(Some)
}

fn report_sweep(exploration: &Exploration, plan: &SweepPlan) {
    let mut notes = Vec::new();
    if exploration.pruned > 0 {
        notes.push(format!("{} pruned by fingerprint", exploration.pruned));
    }
    if exploration.screened > 0 {
        notes.push(format!("{} screened by constraints", exploration.screened));
    }
    if let Some(shard) = plan.shard {
        notes.push(format!("shard {shard}"));
    }
    if !exploration.completed {
        notes.push("budget exhausted — resume to continue".to_owned());
    }
    let notes = if notes.is_empty() {
        String::new()
    } else {
        format!(" ({})", notes.join(", "))
    };
    println!(
        "  {} designs evaluated, {} on the Pareto front{notes}",
        exploration.evaluated,
        exploration.front.len()
    );
}

/// `cimloop merge-fronts` — recombine per-shard checkpoints of the same
/// dse scenario into the single-process Pareto front and result table.
/// Every checkpoint must have been captured on this scenario's design
/// space under its accuracy objective (fingerprint-verified). The merged
/// TSV is byte-identical to an unsharded run because the front is
/// insertion-order-independent.
///
/// # Errors
///
/// Usage errors for non-dse scenarios or an empty checkpoint list, and
/// checkpoint load/mismatch errors.
pub fn merge_fronts(
    doc: &ScenarioDoc,
    checkpoints: &[std::path::PathBuf],
) -> Result<ExperimentTable, CliError> {
    crate::schema::check_document(doc)?;
    if doc.experiment() != "dse" {
        return Err(CliError::usage(format!(
            "merge-fronts needs an `experiment: dse` scenario, got `{}`",
            doc.experiment()
        )));
    }
    if checkpoints.is_empty() {
        return Err(CliError::usage(
            "merge-fronts needs at least one checkpoint file".to_owned(),
        ));
    }
    let space = space_for(doc)?;
    let explorer = explorer_for(doc)?;
    let mut front = ParetoFront::new();
    let mut processed = 0usize;
    for path in checkpoints {
        let checkpoint = Checkpoint::load(path).map_err(checkpoint_error)?;
        let state = checkpoint
            .resume_state(&space, explorer.accuracy())
            .map_err(checkpoint_error)?;
        processed += state.processed.len();
        front.merge(state.front);
    }
    println!(
        "  merged {} checkpoint(s): {} designs processed, {} on the Pareto front",
        checkpoints.len(),
        processed,
        front.len()
    );
    front_table(doc, &front)
}

/// `experiment: compare` — labeled configurations (`!Row` sections)
/// selected out of an explored design grid, energies normalized over the
/// selected rows. `examples/specs/fig02b.yaml` runs the Fig 2b co-design
/// experiment through it.
pub fn compare(doc: &ScenarioDoc, ctx: &RunContext) -> Result<ExperimentTable, CliError> {
    let space = space_for(doc)?;
    let net = resolve::workload(doc)?;
    let explorer = explorer_for(doc)?.with_cache(ctx.cache().clone());
    let reports = cimloop_bench::explore_collect(&explorer, &space, &net)?;

    let rows: Vec<&Section> = doc.sections("Row").collect();
    if rows.is_empty() {
        return Err(CliError::usage(
            "experiment `compare` needs at least one !Row section".to_owned(),
        ));
    }
    let mut selected = Vec::with_capacity(rows.len());
    for row in &rows {
        let sel = crate::schema::RowSection::decode(row)?;
        let label = sel.label;
        let want_rows = sel.rows;
        let want_dac = sel.dac_bits;
        let want_adc = sel.adc_bits;
        let report = reports
            .iter()
            .find(|r| {
                want_rows.map_or(true, |v| r.point.rows() == v)
                    && want_dac.map_or(true, |v| r.point.dac_bits() == v)
                    && want_adc.map_or(true, |v| r.point.adc_bits() == v)
            })
            .ok_or_else(|| {
                CliError::usage(format!("!Row `{label}` matches no design in the grid"))
            })?;
        selected.push((label, report));
    }
    let max = selected
        .iter()
        .map(|(_, r)| r.energy_total)
        .fold(0.0, f64::max);

    let mut out = table(
        doc,
        &["configuration", "array", "DAC bits", "energy (norm)", "J"],
    )?;
    for (label, r) in &selected {
        out.row(vec![
            label.clone(),
            format!("{}x{}", r.point.rows(), r.point.cols()),
            r.point.dac_bits().to_string(),
            fmt(r.energy_total / max),
            format!("{:.3e}", r.energy_total),
        ]);
    }
    Ok(out)
}

/// The base architecture and the `!Sweep` `groupings:` and `workloads:`
/// lists of an `output_reuse` scenario, checked: neither list may be
/// empty, and every grouping must satisfy `1 <= g <= cols`. `validate`
/// runs the same checks.
pub(crate) fn output_reuse_plan(
    doc: &ScenarioDoc,
) -> Result<(ArrayMacro, Vec<u64>, Vec<String>), CliError> {
    let arch = doc
        .architecture()
        .ok_or_else(|| CliError::usage("scenario has no !Architecture section".to_owned()))?;
    let base = resolve::architecture(doc, arch)?;
    let section = sweep_section(doc)?;
    let groupings = section
        .u64_list("groupings")?
        .ok_or_else(|| CliError::usage("!Sweep needs a `groupings:` list".to_owned()))?;
    let workload_keys = section
        .str_list("workloads")?
        .ok_or_else(|| CliError::usage("!Sweep needs a `workloads:` list".to_owned()))?;
    let spec_error = |key: &str, message: String| {
        CliError::Spec(SpecError::Parse {
            line: section.get(key).map_or(section.line(), |e| e.line),
            message,
        })
    };
    // An empty list would write a header-only table.
    for (key, len) in [
        ("groupings", groupings.len()),
        ("workloads", workload_keys.len()),
    ] {
        if len == 0 {
            return Err(spec_error(
                key,
                format!("`{key}: []` is invalid: an output_reuse sweep needs at least one entry"),
            ));
        }
    }
    // A grouping divides the array's columns into wire-summed groups:
    // `0` would divide by zero deriving the matched-utilization shape,
    // and `g > cols` would build a degenerate zero-column workload.
    if let Some(g) = groupings.iter().find(|&&g| g == 0 || g > base.cols()) {
        return Err(spec_error(
            "groupings",
            format!(
                "`groupings:` value {g} is invalid: each grouping must satisfy \
                 1 <= g <= cols ({} columns on architecture `{}`)",
                base.cols(),
                base.name()
            ),
        ));
    }
    Ok((base, groupings, workload_keys))
}

/// `experiment: output_reuse` — the Fig 12 sweep: wire-sum output reuse
/// across N columns, per workload, energies split into ADC+accumulate /
/// DAC / other and normalized per workload.
pub fn output_reuse(doc: &ScenarioDoc, ctx: &RunContext) -> Result<ExperimentTable, CliError> {
    let (base, groupings, workload_keys) = output_reuse_plan(doc)?;

    // The matched-utilization workload: a convolution whose window matches
    // the column group and whose channels fill the rows.
    let max_util = |g: u64| -> Result<Workload, CliError> {
        let shape = Shape::conv(base.cols() / g, base.rows(), 16, 16, g.min(8), 1)
            .map_err(|e| CliError::usage(format!("derived max_util shape invalid: {e}")))?;
        Workload::new(
            "max_util",
            vec![Layer::new("mvm", LayerKind::Conv, shape)
                .with_input_bits(1)
                .with_weight_bits(1)],
        )
        .map_err(|e| CliError::usage(format!("derived max_util workload invalid: {e}")))
    };

    let mut out = table(
        doc,
        &[
            "workload",
            "columns/output",
            "ADC+Accum",
            "DAC",
            "Other",
            "total (norm)",
            "utilization",
        ],
    )?;
    for key in &workload_keys {
        let display = if key == "max_util" {
            "Max-Utilization".to_owned()
        } else {
            display_name(key).to_owned()
        };
        let fixed: Option<Workload> = if key == "max_util" {
            None
        } else {
            Some(zoo_model(key, 256, 256, 256).ok_or_else(|| {
                CliError::usage(format!("unknown workload `{key}` in output_reuse sweep"))
            })?)
        };
        let mut rows = Vec::new();
        for &g in &groupings {
            let m = base.clone().with_output_combine(OutputCombine::WireSum {
                columns_per_group: g,
            });
            let evaluator = m.evaluator()?;
            let rep = m.representation();
            let owned;
            let workload = match &fixed {
                Some(w) => w,
                None => {
                    owned = max_util(g)?;
                    &owned
                }
            };
            let engine = NetworkEngine::new(&evaluator).with_cache(ctx.cache().clone());
            let report = engine.evaluate_network(workload, &rep)?;
            let dac = report.energy_of("dac");
            let adc = report.energy_of("adc") + report.energy_of("accumulator");
            let other = report.energy_total() - dac - adc;
            let util: f64 = report
                .layers()
                .iter()
                .map(|(c, l)| *c as f64 * l.macs() as f64 * l.spatial_utilization())
                .sum::<f64>()
                / report
                    .layers()
                    .iter()
                    .map(|(c, l)| *c as f64 * l.macs() as f64)
                    .sum::<f64>();
            rows.push((g, dac, adc, other, report.energy_total(), util));
        }
        let max_total = rows.iter().map(|r| r.4).fold(0.0, f64::max);
        for &(g, dac, adc, other, total, util) in &rows {
            out.row(vec![
                display.clone(),
                g.to_string(),
                fmt(adc / max_total),
                fmt(dac / max_total),
                fmt(other / max_total),
                fmt(total / max_total),
                fmt(util),
            ]);
        }
    }
    Ok(out)
}

/// `experiment: speed_record` — the deterministic work/energy record of
/// the Table II speed experiment: value-exact simulation of the last
/// layers, the statistical model over the whole network, a streaming
/// mapping search, and an amortized engine sweep. Measured rates never
/// enter a golden TSV, so this runner records only the deterministic
/// quantities; the Table II timings come from the `model_speed` bench.
pub fn speed_record(doc: &ScenarioDoc, ctx: &RunContext) -> Result<ExperimentTable, CliError> {
    let arch = doc
        .architecture()
        .ok_or_else(|| CliError::usage("scenario has no !Architecture section".to_owned()))?;
    let m = resolve::architecture(doc, arch)?;
    let net = resolve::workload(doc)?;
    let header = ScenarioSection::decode(doc.scenario())?;
    let exact_layer_count = header.exact_layers as usize;
    let search_layers = header.search_layers as usize;
    let limit = header.mappings_per_layer as usize;
    let engine_key = header.engine_model.as_str();
    let model_key = doc
        .section("Workload")
        .and_then(|w| w.str("model"))
        .unwrap_or("custom");

    let evaluator = m.evaluator()?;
    let rep = m.representation();
    let cfg = ExactConfig::full();

    let mut out = table(doc, &["quantity", "value"])?;

    // Value-exact baseline over the final layers.
    let mut events = 0u64;
    let mut exact_energy = 0.0f64;
    for layer in net.layers().iter().rev().take(exact_layer_count) {
        let report = simulate_layer(&m, layer, &cfg)?;
        events += report.cell_events();
        exact_energy += report.energy_total();
    }
    out.row(vec![
        format!(
            "value-exact cell events ({exact_layer_count} layers, seed {:#X}, 1 thread)",
            cfg.seed
        ),
        events.to_string(),
    ]);
    out.row(vec![
        "value-exact energy (J)".to_owned(),
        format!("{exact_energy:.6e}"),
    ]);

    // Statistical model over the whole network, amortized against the
    // caller's shared cache (energies are cache-invariant).
    let mut statistical_energy = 0.0f64;
    for layer in net.layers() {
        statistical_energy += evaluator
            .evaluate_layer_cached(layer, &rep, ctx.cache())?
            .energy_total();
    }
    out.row(vec![
        format!(
            "statistical energy, {} {} layers (J)",
            net.layers().len(),
            display_name(model_key)
        ),
        format!("{statistical_energy:.6e}"),
    ]);

    // Streaming mapping search against the amortized table.
    let mut streamed = 0u64;
    for layer in net.layers().iter().take(search_layers) {
        let energies = evaluator.action_energies(layer, &rep)?;
        let shape = evaluator.shape_for(layer, &rep)?;
        let mut failure: Option<cimloop_core::CoreError> = None;
        cimloop_map::Mapper::default()
            .stream(
                evaluator.hierarchy(),
                shape,
                limit,
                |mapping| match evaluator.evaluate_mapping(layer, &rep, &energies, mapping) {
                    Ok(_) => {
                        streamed += 1;
                        true
                    }
                    Err(e) => {
                        failure = Some(e);
                        false
                    }
                },
            )
            .map_err(cimloop_core::CoreError::from)?;
        if let Some(e) = failure {
            return Err(e.into());
        }
    }
    out.row(vec![
        format!("mapping-search candidates streamed ({search_layers} layers, limit {limit})"),
        streamed.to_string(),
    ]);

    // Amortized engine sweep of an unrolled zoo network. Deliberately a
    // *fresh* engine cache, not the shared one: the "distinct energy
    // tables" row below records this experiment's own working set, which
    // must stay byte-identical whether the run is batch or served from a
    // warm daemon.
    let engine_net = zoo_model(engine_key, 256, 256, 256)
        .ok_or_else(|| CliError::usage(format!("unknown engine model `{engine_key}`")))?
        .unrolled();
    let engine = NetworkEngine::new(&evaluator);
    let report = engine.evaluate_network(&engine_net, &rep)?;
    out.row(vec![
        format!(
            "engine sweep layers ({} unrolled)",
            display_name(engine_key)
        ),
        engine_net.layers().len().to_string(),
    ]);
    out.row(vec![
        "engine distinct energy tables".to_owned(),
        engine.cache().len().to_string(),
    ]);
    out.row(vec![
        "engine sweep energy (J)".to_owned(),
        format!("{:.6e}", report.energy_total()),
    ]);
    Ok(out)
}
