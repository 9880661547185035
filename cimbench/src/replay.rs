//! The traced replay: the same (design, layer) evaluations a scenario
//! runner performs inside `run_scenario_with`, issued one public call at
//! a time so each layer's share of the time shows. Runners hide their
//! loops (`compare` for fig02b, `output_reuse` for fig12), so the replay
//! rebuilds the designs and workloads exactly as they do; the caller then
//! checks the replay's counts against the cache counters of an untraced
//! run of the same document.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cimloop_cli::resolve::{self, Scope};
use cimloop_core::{
    EnergyTableCache, Evaluator, LayerReport, Representation, StatsSignature, ValueStats,
};
use cimloop_dse::{
    task_accuracy_of, AccuracyObjective, DesignPoint, DesignSpace, EvalScope, Explorer, SweepPlan,
};
use cimloop_macros::{ArrayMacro, OutputCombine};
use cimloop_spec::ScenarioDoc;
use cimloop_workload::scenario::zoo_model;
use cimloop_workload::{Layer, LayerKind, Shape, Workload};

use crate::measure::Res;
use crate::trace::Tracer;

/// What a replay saw that the cache counters do not.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Work {
    /// Candidates `Explorer::sweep` fully evaluated.
    pub dse_evaluated: u64,
    /// Candidates its staged pre-pass pruned by fingerprint.
    pub dse_pruned: u64,
    /// Wall time of the phase that fanned designs over worker threads,
    /// and how many threads it used (0 when nothing fanned out).
    pub parallel_wall_s: f64,
    pub parallel_threads: usize,
}

impl Work {
    pub(crate) fn add(&mut self, other: Work) {
        self.dse_evaluated += other.dse_evaluated;
        self.dse_pruned += other.dse_pruned;
        self.parallel_wall_s += other.parallel_wall_s;
        self.parallel_threads = self.parallel_threads.max(other.parallel_threads);
    }
}

/// The traced layer loop every runner's engine performs per design:
/// value statistics (through the stats level, so a hit computes
/// nothing), the energy-table fold, the mapper, and the dataflow model.
pub(crate) fn layers(
    tr: &mut Tracer,
    ev: &Evaluator,
    rep: &Representation,
    net: &[Layer],
    cache: &EnergyTableCache,
) -> Res<Vec<LayerReport>> {
    let rows = ev.reduction_rows();
    let mut reports = Vec::with_capacity(net.len());
    for layer in net {
        cache.stats_or_try_insert_with(StatsSignature::new(rows, layer, rep), || {
            tr.span("stats.compute", |_| ValueStats::compute(layer, rep, rows))
        })?;
        let table = tr.span("core.fold", |_| {
            ev.action_energies_cached(layer, rep, cache)
        })?;
        let mapping = tr.span("map", |_| ev.map_layer(layer, rep))?;
        let report = tr.span("dataflow", |_| {
            ev.evaluate_mapping(layer, rep, &table, &mapping)
        })?;
        reports.push(report);
    }
    Ok(reports)
}

/// One design's whole-network evaluation (`system.network`), as
/// `NetworkEngine::evaluate_network` and `Explorer` run it per design.
fn network(
    tr: &mut Tracer,
    build: impl FnOnce() -> Res<(Evaluator, Representation)>,
    net: &Workload,
    cache: &EnergyTableCache,
) -> Res<()> {
    tr.span("system.network", |tr| {
        let (ev, rep) = tr.span("core.build", |_| build())?;
        layers(tr, &ev, &rep, net.layers(), cache).map(drop)
    })
}

/// Replays one parsed scenario document against `cache`, with
/// `threads` workers where the runner fans designs out.
///
/// # Errors
///
/// Resolution and engine errors, and a replay whose pruning disagrees
/// with the explorer's own count.
pub fn document(
    tr: &mut Tracer,
    doc: &ScenarioDoc,
    cache: &Arc<EnergyTableCache>,
    threads: usize,
) -> Res<Work> {
    match doc.experiment() {
        "compare" => compare(tr, doc, cache, threads),
        "output_reuse" => output_reuse(tr, doc, cache).map(|()| Work::default()),
        "sweep" => sweep(tr, doc, cache).map(|()| Work::default()),
        "evaluate" => evaluate(tr, doc, cache).map(|()| Work::default()),
        "dse" => dse(tr, doc, cache, threads),
        other => Err(format!("no replay for experiment kind `{other}`").into()),
    }
}

fn first_architecture(doc: &ScenarioDoc) -> Res<ArrayMacro> {
    let arch = doc
        .architecture()
        .ok_or("scenario has no !Architecture section")?;
    Ok(resolve::architecture(doc, arch)?)
}

/// The first architecture, the scope, and the workload.
fn resolved(tr: &mut Tracer, doc: &ScenarioDoc) -> Res<(ArrayMacro, Scope, Workload)> {
    tr.span("core.build", |_| {
        Ok((
            first_architecture(doc)?,
            resolve::scope(doc.scenario())?,
            resolve::workload(doc)?,
        ))
    })
}

/// The design space the `compare` and `dse` runners explore.
pub(crate) fn space_for(doc: &ScenarioDoc) -> Res<DesignSpace> {
    let mut space = DesignSpace::new();
    for (i, arch) in doc.architectures().iter().enumerate() {
        let name = arch
            .settings
            .str("name")
            .map_or_else(|| format!("design{i}"), str::to_owned);
        space = space.variant(name, resolve::architecture(doc, arch)?);
    }
    if let Some(section) = doc.section("Space") {
        space = space.with_section(section)?;
    }
    Ok(space)
}

/// `experiment: compare` (fig02b): every grid design through the
/// scoped evaluator, designs fanned over `threads` workers as
/// `Explorer` does, layers sequential within a design.
fn compare(
    tr: &mut Tracer,
    doc: &ScenarioDoc,
    cache: &EnergyTableCache,
    threads: usize,
) -> Res<Work> {
    let (designs, net, scope) = tr.span("core.build", |_| -> Res<_> {
        Ok((
            space_for(doc)?.designs(),
            resolve::workload(doc)?,
            resolve::scope(doc.scenario())?,
        ))
    })?;
    let threads = threads.clamp(1, designs.len().max(1));
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<(Tracer, Res<()>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Tracer::new();
                    let result = (|| {
                        while let Some(point) = designs.get(next.fetch_add(1, Ordering::Relaxed)) {
                            network(
                                &mut local,
                                || Ok(resolve::evaluator_for(point.cim_macro(), scope)?),
                                &net,
                                cache,
                            )?;
                        }
                        Ok(())
                    })();
                    (local, result)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| (Tracer::new(), Err("replay worker panicked".into())))
            })
            .collect()
    });
    let parallel_wall_s = start.elapsed().as_secs_f64();
    for (local, result) in results {
        tr.merge(local);
        result?;
    }
    Ok(Work {
        parallel_wall_s,
        parallel_threads: threads,
        ..Work::default()
    })
}

/// `experiment: output_reuse` (fig12): each workload at each wire-sum
/// grouping, with the runner's matched-utilization shape.
fn output_reuse(tr: &mut Tracer, doc: &ScenarioDoc, cache: &EnergyTableCache) -> Res<()> {
    let base = tr.span("core.build", |_| first_architecture(doc))?;
    let section = doc
        .section("Sweep")
        .ok_or("output_reuse needs a !Sweep section")?;
    let groupings = section.u64_list("groupings")?.unwrap_or_default();
    let keys = section.str_list("workloads")?.unwrap_or_default();
    for key in &keys {
        let fixed = match key.as_str() {
            "max_util" => None,
            other => Some(zoo_model(other, 256, 256, 256).ok_or("unknown zoo workload")?),
        };
        for &g in &groupings {
            let net = match &fixed {
                Some(net) => net.clone(),
                None => max_util(&base, g)?,
            };
            let m = base.clone().with_output_combine(OutputCombine::WireSum {
                columns_per_group: g,
            });
            network(tr, || Ok((m.evaluator()?, m.representation())), &net, cache)?;
        }
    }
    Ok(())
}

/// The runner's matched-utilization workload for grouping `g`.
fn max_util(base: &ArrayMacro, g: u64) -> Res<Workload> {
    let shape = Shape::conv(base.cols() / g, base.rows(), 16, 16, g.min(8), 1)?;
    Ok(Workload::new(
        "max_util",
        vec![Layer::new("mvm", LayerKind::Conv, shape)
            .with_input_bits(1)
            .with_weight_bits(1)],
    )?)
}

/// `experiment: sweep` (fig09_noise): the cartesian grid of macro axes.
fn sweep(tr: &mut Tracer, doc: &ScenarioDoc, cache: &EnergyTableCache) -> Res<()> {
    let (base, scope, net) = resolved(tr, doc)?;
    let section = doc.section("Sweep").ok_or("sweep needs a !Sweep section")?;
    let mut cells = vec![base];
    for entry in section.entries() {
        let key = entry.key.as_str();
        let values: Vec<f64> = match key {
            "metrics" => continue,
            "variations" => section.f64_list(key)?.unwrap_or_default(),
            _ => section
                .u64_list(key)?
                .unwrap_or_default()
                .into_iter()
                .map(|v| v as f64)
                .collect(),
        };
        cells = cells
            .iter()
            .flat_map(|m| values.iter().map(move |&v| apply_axis(m.clone(), key, v)))
            .collect::<Res<Vec<_>>>()?;
    }
    for m in &cells {
        network(tr, || Ok(resolve::evaluator_for(m, scope)?), &net, cache)?;
    }
    Ok(())
}

fn apply_axis(m: ArrayMacro, key: &str, v: f64) -> Res<ArrayMacro> {
    Ok(match key {
        "variations" => {
            let noise = m.noise().with_cell_variation(v);
            m.with_noise(noise)
        }
        "adc_bits" => m.with_adc_bits(v as u32),
        "dac_bits" => m.with_dac_resolution(v as u32),
        "square_arrays" => m.with_array(v as u64, v as u64),
        other => return Err(format!("no replay for sweep axis `{other}`").into()),
    })
}

/// `experiment: evaluate`: one architecture over the workload.
fn evaluate(tr: &mut Tracer, doc: &ScenarioDoc, cache: &EnergyTableCache) -> Res<()> {
    let (m, scope, net) = resolved(tr, doc)?;
    network(tr, || Ok(resolve::evaluator_for(&m, scope)?), &net, cache)
}

/// `experiment: dse`: the explorer's staged sweep replayed design by
/// design — the pre-pass, each survivor's network, and the Monte-Carlo
/// objective's `task_accuracy_of` — then checked against the counts of
/// one untraced `Explorer::sweep` over the same space and cache.
fn dse(
    tr: &mut Tracer,
    doc: &ScenarioDoc,
    cache: &Arc<EnergyTableCache>,
    threads: usize,
) -> Res<Work> {
    let (space, net, scope, accuracy, staged) = tr.span("core.build", |_| -> Res<_> {
        let accuracy = AccuracyObjective::parse(doc.scenario().str_or("accuracy", "snr"))
            .ok_or("unknown accuracy objective")?;
        Ok((
            space_for(doc)?,
            resolve::workload(doc)?,
            resolve::scope(doc.scenario())?,
            accuracy,
            doc.scenario().bool_or("staged", false)?,
        ))
    })?;
    let survivors = tr.span("dse.sweep", |tr| -> Res<usize> {
        let survivors = staged_survivors(&space, accuracy, staged);
        for point in &survivors {
            network(
                tr,
                || Ok(resolve::evaluator_for(point.cim_macro(), scope)?),
                &net,
                cache,
            )?;
            if accuracy == AccuracyObjective::TaskAccuracy {
                tr.span("sim.mc", |_| task_accuracy_of(point.cim_macro(), &net))?;
            }
        }
        Ok(survivors.len())
    })?;

    let explorer = Explorer::new()
        .with_accuracy(accuracy)
        .with_scope(match scope {
            Scope::Macro => EvalScope::MacroOnly,
            Scope::System(storage) => EvalScope::System(storage),
        })
        .with_threads(threads)
        .with_cache(Arc::clone(cache));
    let plan = SweepPlan {
        staged,
        ..SweepPlan::default()
    };
    let exploration = tr.untraced(|| explorer.sweep(&space, &net, &plan))?;
    let pruned = space.designs().len() - survivors;
    if survivors != exploration.evaluated || pruned != exploration.pruned {
        return Err(format!(
            "replayed pre-pass keeps {survivors} and prunes {pruned}; \
             the explorer evaluated {} and pruned {}",
            exploration.evaluated, exploration.pruned
        )
        .into());
    }
    Ok(Work {
        dse_evaluated: exploration.evaluated as u64,
        dse_pruned: exploration.pruned as u64,
        ..Work::default()
    })
}

/// The candidates the staged pre-pass keeps: the smallest-id design of
/// each configuration-fingerprint class (noise counts unless the
/// objective is ADC coverage). The committed spaces declare no screens.
fn staged_survivors(
    space: &DesignSpace,
    accuracy: AccuracyObjective,
    staged: bool,
) -> Vec<DesignPoint> {
    let mut designs = space.designs();
    if staged {
        let include_noise = accuracy != AccuracyObjective::AdcCoverage;
        let mut seen = std::collections::BTreeSet::new();
        designs.retain(|p| seen.insert(p.cim_macro().config_fingerprint(include_noise)));
    }
    designs
}
