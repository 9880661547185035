//! The parallel design-space explorer.
//!
//! Candidate designs fan out over [`par_try_map`], the one place
//! evaluation threads are spawned (work-stealing by design index, the
//! pool [`Evaluator::evaluate`] fans a workload's layers over; here each
//! design evaluates its layers on its own worker), all workers sharing
//! one [`EnergyTableCache`]. Table signatures differ per design (each design
//! is its own hierarchy), but the expensive hierarchy-independent value
//! statistics are keyed only by `(layer values, representation, reduction
//! width)` — so designs that differ in ADC resolution, output-combining
//! topology, or cell technology amortize the column-sum convolution across
//! each other, and layers within a design share finished tables. Under
//! the sampled task-accuracy objective each design's Monte-Carlo score is
//! kept in the cache too, so a sweep repeated against the same cache
//! samples nothing again.
//!
//! Results stream into a [`ParetoFront`] as workers finish; only the
//! non-dominated [`DesignReport`]s are retained, so sweeps of 10k+
//! designs never materialize all reports. The front is bit-identical to a
//! naive sequential sweep without the cache: cached statistics are
//! computed by the same code as fresh ones, and the front is
//! insertion-order-independent.
//!
//! Production-scale sweeps go through [`Explorer::sweep`] with a
//! [`SweepPlan`], which layers three mechanisms on the same streaming
//! core without changing the resulting front:
//!
//! - **Staged evaluation** (`staged`): a cheap stage-one pass prunes
//!   objective-equivalent duplicate configurations by fingerprint and
//!   screens candidates against the space's declared area/coverage
//!   constraints before any value statistics are computed.
//! - **Budgeted runs + resume** (`max_evaluations`, `resume`): a budget
//!   deterministically claims a prefix of the remaining candidates; the
//!   resulting [`Exploration::processed`] ids plus front round-trip
//!   through [`crate::Checkpoint`] and seed a later resumed run whose
//!   final front is bit-identical to an uninterrupted sweep.
//! - **Sharding** (`shard`): candidate `i` of the filtered grid belongs
//!   to shard `i % count`; per-shard fronts recombine with
//!   [`ParetoFront::merge`] into the same front a single process
//!   produces, because the front is insertion-order-independent and
//!   equal-objective classes collapse to the globally smallest id.

use std::sync::{Arc, Mutex};

use cimloop_core::{
    par_try_map, AccuracySignature, CoreError, EnergyTableCache, Evaluator, Representation,
    RunReport,
};
use cimloop_macros::ArrayMacro;
use cimloop_noise::SNR_CAP_DB;
use cimloop_sim::{mc_workload, McConfig};
use cimloop_system::{CimSystem, StorageScenario};
use cimloop_workload::Workload;

use crate::pareto::{Objectives, ParetoFront};
use crate::shard::Shard;
use crate::space::{DesignPoint, DesignSpace};

/// What each candidate design is evaluated as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalScope {
    /// The bare macro (paper Fig 2a's "macro-optimal" view).
    #[default]
    MacroOnly,
    /// The macro nested in a full [`CimSystem`] (DRAM + global buffer +
    /// NoC) under the given storage scenario — the view in which Fig 2's
    /// co-design conclusion holds.
    System(StorageScenario),
}

/// How a design's accuracy axis is scored for Pareto comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccuracyObjective {
    /// The noise-derived expected output SNR (dB) from the statistical
    /// non-ideality subsystem: quantization, cell variation, read noise,
    /// and ADC offset, composed over the data-value distributions. The
    /// default.
    #[default]
    OutputSnr,
    /// The legacy ADC-coverage proxy (fraction of the column-sum
    /// bit-width the converter resolves). Kept behind this constructor
    /// for golden continuity with pre-noise sweeps.
    AdcCoverage,
    /// Empirical end-to-end task accuracy from seeded Monte-Carlo noise
    /// injection (`cimloop_sim::mc_workload`): the MAC-weighted fraction
    /// of column readouts landing on the ideal ADC code. Trades energy
    /// against real accuracy cliffs instead of the SNR proxy; costs one
    /// fixed-seed sampling run per surviving design, once per shared
    /// cache.
    TaskAccuracy,
}

impl AccuracyObjective {
    /// Parses the spec-level objective name (`snr`, `adc_coverage`, or
    /// `task_accuracy`); `None` for anything else.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "snr" => Some(AccuracyObjective::OutputSnr),
            "adc_coverage" => Some(AccuracyObjective::AdcCoverage),
            "task_accuracy" => Some(AccuracyObjective::TaskAccuracy),
            _ => None,
        }
    }

    /// The spec-level objective name ([`Self::parse`]'s inverse).
    pub fn as_str(self) -> &'static str {
        match self {
            AccuracyObjective::OutputSnr => "snr",
            AccuracyObjective::AdcCoverage => "adc_coverage",
            AccuracyObjective::TaskAccuracy => "task_accuracy",
        }
    }
}

/// The retained summary of one evaluated design: its configuration, the
/// objective scalars, and workload-level aggregates. Deliberately *not*
/// the full [`RunReport`] — a streaming sweep holds one of these per
/// front member, not per design.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// The evaluated design point (configuration record).
    pub point: DesignPoint,
    /// Total workload energy, joules.
    pub energy_total: f64,
    /// Energy per useful word-level MAC, joules.
    pub energy_per_mac: f64,
    /// Energy efficiency, TOPS/W.
    pub tops_per_watt: f64,
    /// Total workload latency, seconds.
    pub latency: f64,
    /// Total silicon area, mm².
    pub area_mm2: f64,
    /// The ADC-coverage accuracy proxy, in `[0, 1]`.
    pub accuracy_proxy: f64,
    /// The workload's worst-layer expected output SNR in dB from the
    /// noise subsystem (`None` when no analog readout is modeled, i.e.
    /// digital designs that resolve every bit).
    pub output_snr_db: Option<f64>,
    /// Empirical MAC-weighted end-to-end task accuracy from the seeded
    /// Monte-Carlo engine, in `[0, 1]`. Populated only when the
    /// [`AccuracyObjective::TaskAccuracy`] objective asked for it
    /// (sampling is not free); `None` otherwise.
    pub task_accuracy: Option<f64>,
    /// Total useful MACs of the workload.
    pub macs: u64,
}

impl DesignReport {
    /// The design's objective vector under the legacy ADC-coverage
    /// accuracy proxy (what pre-noise sweeps scored).
    ///
    /// Note this is **not** the [`Explorer::new`] default
    /// ([`AccuracyObjective::OutputSnr`]): when hand-building a baseline
    /// front to compare against an explorer's, score both sides with
    /// [`Self::objectives_for`] and one explicit objective.
    pub fn objectives(&self) -> Objectives {
        self.objectives_for(AccuracyObjective::AdcCoverage)
    }

    /// The design's objective vector with the accuracy axis scored per
    /// `accuracy`. Digital (no-ADC) designs resolve every bit, so under
    /// [`AccuracyObjective::OutputSnr`] they score the SNR cap and under
    /// [`AccuracyObjective::TaskAccuracy`] a perfect `1.0` (a readout
    /// that resolves every bit always lands on the ideal code).
    pub fn objectives_for(&self, accuracy: AccuracyObjective) -> Objectives {
        let accuracy_proxy = match accuracy {
            AccuracyObjective::AdcCoverage => self.accuracy_proxy,
            AccuracyObjective::OutputSnr => self.output_snr_db.unwrap_or(SNR_CAP_DB),
            AccuracyObjective::TaskAccuracy => self.task_accuracy.unwrap_or(1.0),
        };
        Objectives {
            energy_per_mac: self.energy_per_mac,
            tops_per_watt: self.tops_per_watt,
            area_mm2: self.area_mm2,
            accuracy_proxy,
        }
    }
}

/// The accuracy proxy of a macro configuration: the fraction of the full
/// column-sum bit-width the output converter resolves.
///
/// A column sum over `rows` products of `dac_bits`-bit inputs and
/// `cell_bits`-bit weights spans `dac_bits + cell_bits + ⌈log₂ rows⌉`
/// bits; an ADC of fewer bits quantizes it and loses output fidelity
/// (paper §III-D3). Digital readout resolves every bit. This is a
/// *proxy* — a monotone stand-in for simulated task accuracy, not a
/// simulated accuracy itself.
pub fn accuracy_proxy(m: &ArrayMacro) -> f64 {
    let no_adc = m
        .hierarchy()
        .map(|h| h.component("adc").is_none())
        .unwrap_or(false);
    if no_adc {
        return 1.0;
    }
    // ⌈log₂ rows⌉ extra bits to hold a `rows`-way sum without overflow.
    let sum_carry_bits = 64 - m.rows().max(1).saturating_sub(1).leading_zeros();
    let sum_bits = m.dac_bits() + m.cell_bits() + sum_carry_bits;
    f64::from(m.adc_bits().min(sum_bits)) / f64::from(sum_bits)
}

/// How a [`Explorer::sweep`] run is shaped: staging, sharding, budgets,
/// and resume state. [`Default`] is a plain full sweep (what
/// [`Explorer::explore`] runs).
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    /// Enables the stage-one pre-pass: fingerprint deduplication of
    /// objective-equivalent configurations, plus the cheap
    /// area/coverage screens of the space (which apply regardless).
    pub staged: bool,
    /// Restricts the run to one shard of the filtered candidate list
    /// (candidate `i` belongs to shard `i % count`). An empty shard is
    /// legal and yields an empty front.
    pub shard: Option<Shard>,
    /// Stops after claiming this many candidates (the *prefix* of the
    /// remaining work list, deterministically, regardless of thread
    /// timing). `None` runs to completion.
    pub max_evaluations: Option<usize>,
    /// Prior progress to resume from: its processed ids are skipped and
    /// its front seeds this run's front.
    pub resume: Option<SweepState>,
}

impl SweepPlan {
    /// A plain full-sweep plan.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Resumable sweep progress: what a [`crate::Checkpoint`] stores and
/// what [`SweepPlan::resume`] replays.
#[derive(Debug, Clone)]
pub struct SweepState {
    /// The Pareto front accumulated so far.
    pub front: ParetoFront<DesignReport>,
    /// Ids of every candidate already processed (evaluated *or*
    /// screened out by the cheap stage-one constraints).
    pub processed: Vec<u64>,
}

/// The result of one exploration.
#[derive(Debug)]
pub struct Exploration {
    /// The non-dominated designs, ascending by design id.
    pub front: ParetoFront<DesignReport>,
    /// How many designs were fully evaluated this run (stage two:
    /// value statistics + energy/latency).
    pub evaluated: usize,
    /// How many candidates the cheap stage-one constraints screened out
    /// this run (evaluator built, no value statistics).
    pub screened: usize,
    /// How many candidates stage-one fingerprint deduplication pruned
    /// this run (no evaluator built at all). Always 0 unless
    /// [`SweepPlan::staged`] is set.
    pub pruned: usize,
    /// Ids of every processed candidate — this run's plus any resumed
    /// prior progress — ascending. This is what a checkpoint persists.
    pub processed: Vec<u64>,
    /// `false` iff a [`SweepPlan::max_evaluations`] budget stopped the
    /// sweep before the work list was exhausted.
    pub completed: bool,
}

impl Exploration {
    /// This exploration's resumable progress (front + processed ids),
    /// for checkpointing a budget-stopped run.
    pub fn state(&self) -> SweepState {
        SweepState {
            front: self.front.clone(),
            processed: self.processed.clone(),
        }
    }
}

/// A parallel, cache-amortized design-space explorer.
///
/// # Example
///
/// ```
/// use cimloop_dse::{DesignSpace, Explorer};
/// use cimloop_macros::base_macro;
/// use cimloop_workload::{Layer, LayerKind, Shape, Workload};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = DesignSpace::new()
///     .variant("base", base_macro().uncalibrated())
///     .adc_bits([4, 8]);
/// let net = Workload::new(
///     "net",
///     vec![Layer::new("a", LayerKind::Linear, Shape::linear(2, 24, 24)?)],
/// )?;
/// let exploration = Explorer::new().with_threads(1).explore(&space, &net)?;
/// assert_eq!(exploration.evaluated, 2);
/// assert!(!exploration.front.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Explorer {
    scope: EvalScope,
    threads: usize,
    accuracy: AccuracyObjective,
    cache: Arc<EnergyTableCache>,
}

impl Default for Explorer {
    fn default() -> Self {
        Self::new()
    }
}

impl Explorer {
    /// A macro-scope explorer using every available core, a fresh cache,
    /// and the noise-derived [`AccuracyObjective::OutputSnr`] accuracy
    /// axis.
    pub fn new() -> Self {
        Explorer {
            scope: EvalScope::default(),
            threads: 0,
            accuracy: AccuracyObjective::default(),
            cache: Arc::new(EnergyTableCache::new()),
        }
    }

    /// Sets the evaluation scope.
    pub fn with_scope(mut self, scope: EvalScope) -> Self {
        self.scope = scope;
        self
    }

    /// Sets the accuracy objective of the Pareto front's accuracy axis.
    pub fn with_accuracy(mut self, accuracy: AccuracyObjective) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// The configured accuracy objective.
    pub fn accuracy(&self) -> AccuracyObjective {
        self.accuracy
    }

    /// Sets the worker-thread count. `0` (the default) resolves to
    /// [`std::thread::available_parallelism`]; `1` evaluates designs
    /// sequentially on the calling thread (still cached).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Shares an existing cache (e.g. between a macro-scope and a
    /// system-scope exploration of the same grid, which have equal
    /// reduction widths and so share all value statistics).
    pub fn with_cache(mut self, cache: Arc<EnergyTableCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The shared cache (for hit/miss introspection).
    pub fn cache(&self) -> &EnergyTableCache {
        &self.cache
    }

    /// Explores `space` on `workload`, streaming results into a Pareto
    /// front.
    ///
    /// # Errors
    ///
    /// Propagates evaluator and evaluation errors; on the first failure
    /// the sweep aborts (workers stop pulling designs) and the error of
    /// the earliest claimed failing design is returned.
    pub fn explore(
        &self,
        space: &DesignSpace,
        workload: &Workload,
    ) -> Result<Exploration, CoreError> {
        self.explore_with(space, workload, |_| {})
    }

    /// Like [`Self::explore`], additionally passing every finished
    /// [`DesignReport`] to `sink` (called from worker threads, in
    /// completion order — not id order).
    ///
    /// # Errors
    ///
    /// See [`Self::explore`].
    pub fn explore_with(
        &self,
        space: &DesignSpace,
        workload: &Workload,
        sink: impl Fn(&DesignReport) + Sync,
    ) -> Result<Exploration, CoreError> {
        self.sweep_with(space, workload, &SweepPlan::default(), sink)
    }

    /// Runs a planned sweep: staged, sharded, budgeted, or resumed per
    /// `plan` (see [`SweepPlan`]). The resulting front is bit-identical
    /// to [`Self::explore`]'s on the same space (modulo plan-declared
    /// restrictions: a shard's front covers only its candidates, a
    /// budget-stopped run only the claimed prefix).
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptySpace`] when the unsharded space yields zero
    /// candidates (no variants, or everything filtered away) — a
    /// misconfigured sweep must not masquerade as a completed one.
    /// Evaluation errors abort the sweep as in [`Self::explore`].
    pub fn sweep(
        &self,
        space: &DesignSpace,
        workload: &Workload,
        plan: &SweepPlan,
    ) -> Result<Exploration, CoreError> {
        self.sweep_with(space, workload, plan, |_| {})
    }

    /// [`Self::sweep`] with a per-report `sink` (see
    /// [`Self::explore_with`]).
    ///
    /// # Errors
    ///
    /// See [`Self::sweep`].
    pub fn sweep_with(
        &self,
        space: &DesignSpace,
        workload: &Workload,
        plan: &SweepPlan,
        sink: impl Fn(&DesignReport) + Sync,
    ) -> Result<Exploration, CoreError> {
        let mut candidates = space.designs();
        if candidates.is_empty() && plan.shard.is_none() {
            let message = if space.grid_len() == 0 {
                "the space declares no design variants".to_owned()
            } else {
                format!(
                    "all {} grid candidate(s) were removed by the space filter",
                    space.grid_len()
                )
            };
            return Err(CoreError::EmptySpace { message });
        }
        if let Some(shard) = plan.shard {
            candidates = candidates
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i % shard.count() == shard.index())
                .map(|(_, p)| p)
                .collect();
        }

        // Stage one, part A: fingerprint deduplication. Designs with equal
        // configuration fingerprints score identical objectives, so only
        // the smallest-id representative of each class can survive the
        // front's equal-twin rule — prune the rest before building
        // anything. Under the SNR objective the noise spec participates in
        // the class key; under ADC coverage, noise provably changes no
        // objective, so noise-twin designs collapse too. Dedup runs on the
        // full (sharded) list *before* the resume skip so the class
        // representative never shifts between a run and its resume.
        let mut pruned = 0usize;
        if plan.staged {
            let include_noise = matches!(
                self.accuracy,
                AccuracyObjective::OutputSnr | AccuracyObjective::TaskAccuracy
            );
            let mut seen = std::collections::BTreeSet::new();
            candidates.retain(|p| {
                if seen.insert(p.cim_macro().config_fingerprint(include_noise)) {
                    true
                } else {
                    pruned += 1;
                    false
                }
            });
        }

        let mut prior: Vec<u64> = Vec::new();
        let mut seed = ParetoFront::new();
        if let Some(state) = &plan.resume {
            let done: std::collections::BTreeSet<u64> = state.processed.iter().copied().collect();
            candidates.retain(|p| !done.contains(&p.id()));
            prior = state.processed.clone();
            seed = state.front.clone();
        }

        // A budget claims a deterministic prefix of the remaining work
        // list: workers stop pulling at `limit`, so the claimed set is
        // the first `limit` candidates regardless of thread timing.
        let limit = plan
            .max_evaluations
            .map_or(candidates.len(), |k| k.min(candidates.len()));
        let completed = limit == candidates.len();
        let claimed = &candidates[..limit];

        // Reports stream into the front as workers finish; each task
        // returns only whether its design survived the screens.
        let front = Mutex::new(seed);
        let survived = par_try_map(self.threads, limit, |i| -> Result<bool, CoreError> {
            let point = &claimed[i];
            let Some(report) = self.screened_report(point, space, workload)? else {
                return Ok(false);
            };
            sink(&report);
            front.lock().expect("front lock poisoned").insert(
                point.id(),
                report.objectives_for(self.accuracy),
                report,
            );
            Ok(true)
        })?;
        let evaluated = survived.iter().filter(|&&s| s).count();

        let mut processed = prior;
        processed.extend(claimed.iter().map(DesignPoint::id));
        processed.sort_unstable();
        Ok(Exploration {
            front: front.into_inner().expect("front lock poisoned"),
            evaluated,
            screened: limit - evaluated,
            pruned,
            processed,
            completed,
        })
    }

    /// One candidate through both stages: build the evaluator, apply the
    /// cheap stage-one screens (total area against
    /// [`DesignSpace::area_cap`], coverage proxy against
    /// [`DesignSpace::coverage_floor`] — no value statistics yet), and
    /// only then run the full cached evaluation. `None` means screened
    /// out.
    fn screened_report(
        &self,
        point: &DesignPoint,
        space: &DesignSpace,
        workload: &Workload,
    ) -> Result<Option<DesignReport>, CoreError> {
        let (evaluator, rep) = self.evaluator_for(point)?;
        let cheap = evaluator.cheap_metrics();
        if let Some(cap) = space.area_cap() {
            if cheap.area_mm2 > cap {
                return Ok(None);
            }
        }
        if let Some(floor) = space.coverage_floor() {
            if accuracy_proxy(point.cim_macro()) < floor {
                return Ok(None);
            }
        }
        let run = evaluator.evaluate(workload, &rep, &self.cache, 1)?;
        let mut report = summarize(point, &evaluator, &run);
        if self.accuracy == AccuracyObjective::TaskAccuracy {
            report.task_accuracy = Some(self.task_accuracy(point.cim_macro(), workload)?);
        }
        Ok(Some(report))
    }

    /// [`task_accuracy_of`] through the accuracy level of the shared
    /// cache, keyed by the design's noise-inclusive configuration
    /// fingerprint and the workload: explorers sharing a cache sample
    /// each (design, workload) pair once. An ideal noise spec keeps the
    /// exact `1.0` fast path and never touches the level.
    fn task_accuracy(&self, m: &ArrayMacro, workload: &Workload) -> Result<f64, CoreError> {
        if m.noise().is_ideal() {
            return Ok(1.0);
        }
        let signature = AccuracySignature::new(m.config_fingerprint(true), workload);
        self.cache
            .accuracy_or_try_insert_with(signature, || task_accuracy_of(m, workload))
    }

    /// Builds the scoped evaluator and representation for one design.
    fn evaluator_for(&self, point: &DesignPoint) -> Result<(Evaluator, Representation), CoreError> {
        match self.scope {
            EvalScope::MacroOnly => Ok((
                point.cim_macro().evaluator()?,
                point.cim_macro().representation(),
            )),
            EvalScope::System(scenario) => {
                let system = CimSystem::new(point.cim_macro().clone()).with_scenario(scenario);
                Ok((system.evaluator()?, system.representation()))
            }
        }
    }
}

/// Trials of the fixed Monte-Carlo configuration the
/// [`AccuracyObjective::TaskAccuracy`] objective scores designs with.
/// Pinned (with the engine's default seed) so sweep fronts are
/// deterministic goldens.
pub const TASK_ACCURACY_TRIALS: u64 = 2048;

/// The end-to-end Monte-Carlo task accuracy the
/// [`AccuracyObjective::TaskAccuracy`] objective scores `m` with: the
/// fixed-seed, [`TASK_ACCURACY_TRIALS`]-trial `cimloop_sim::mc_workload`
/// reduction. An ideal noise spec short-circuits to exactly `1.0` — the
/// engine's zero-sigma identity guarantees the sampled path would return
/// the same bits, so the fast path is not an approximation.
///
/// The uncached reference: naive sweeps call it directly, and the
/// explorer fills its cache's accuracy level with it, so the explorer ==
/// naive bit-identity property extends to this objective.
///
/// # Errors
///
/// Propagates evaluator construction and distribution errors.
pub fn task_accuracy_of(m: &ArrayMacro, workload: &Workload) -> Result<f64, CoreError> {
    if m.noise().is_ideal() {
        return Ok(1.0);
    }
    let cfg = McConfig::new(TASK_ACCURACY_TRIALS);
    Ok(mc_workload(m, workload, &cfg)?.task_accuracy)
}

/// Folds a finished run into the retained per-design summary. Shared by
/// the explorer and by naive sweeps that want comparable reports. The
/// `task_accuracy` field stays `None` — only the
/// [`AccuracyObjective::TaskAccuracy`] objective pays for sampling (see
/// [`task_accuracy_of`]).
pub fn summarize(point: &DesignPoint, evaluator: &Evaluator, run: &RunReport) -> DesignReport {
    DesignReport {
        point: point.clone(),
        energy_total: run.energy_total(),
        energy_per_mac: run.energy_per_mac(),
        tops_per_watt: run.tops_per_watt(),
        latency: run.latency_total(),
        area_mm2: evaluator.area().total_mm2(),
        accuracy_proxy: accuracy_proxy(point.cim_macro()),
        output_snr_db: run.output_snr_db(),
        task_accuracy: None,
        macs: run.macs_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;
    use cimloop_macros::base_macro;
    use cimloop_workload::{Layer, LayerKind, Shape};

    fn tiny_workload() -> Workload {
        Workload::new(
            "tiny",
            vec![
                Layer::new("a", LayerKind::Linear, Shape::linear(2, 24, 24).unwrap()),
                Layer::new("b", LayerKind::Linear, Shape::linear(2, 48, 24).unwrap())
                    .with_input_bits(4),
            ],
        )
        .unwrap()
    }

    /// The naive reference: uncached per-layer `evaluate_layer` calls,
    /// which [`Evaluator::evaluate`] must equal at one and four threads,
    /// on a cold and then a warm cache.
    fn naive_run(evaluator: &Evaluator, net: &Workload, rep: &Representation) -> RunReport {
        let layers = net
            .layers()
            .iter()
            .map(|l| (l.count(), evaluator.evaluate_layer(l, rep).unwrap()))
            .collect();
        let reference = RunReport::from_layer_reports(net.name(), layers);
        for threads in [1, 4] {
            let cache = EnergyTableCache::new();
            for state in ["cold", "warm"] {
                let run = evaluator.evaluate(net, rep, &cache, threads).unwrap();
                assert_eq!(run, reference, "{state} cache, {threads} threads");
            }
        }
        reference
    }

    fn tiny_space() -> DesignSpace {
        DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .variant("adc4", base_macro().uncalibrated().with_adc_bits(4))
            .square_arrays([16, 32])
            .dac_bits([1, 2])
    }

    #[test]
    fn explorer_matches_naive_sequential_sweep() {
        let space = tiny_space().noise_specs([
            cimloop_noise::NoiseSpec::ideal(),
            cimloop_noise::NoiseSpec::new().with_cell_variation(0.15),
        ]);
        let net = tiny_workload();
        // Every objective, at both scopes, must match a naive uncached
        // sweep bit-for-bit.
        let scopes = [
            EvalScope::MacroOnly,
            EvalScope::System(StorageScenario::AllTensorsFromDram),
        ];
        let objectives = [
            AccuracyObjective::AdcCoverage,
            AccuracyObjective::OutputSnr,
            AccuracyObjective::TaskAccuracy,
        ];
        for (scope, accuracy) in scopes.into_iter().flat_map(|s| objectives.map(|a| (s, a))) {
            let explorer = Explorer::new()
                .with_scope(scope)
                .with_accuracy(accuracy)
                .with_threads(2);
            let exploration = explorer.explore(&space, &net).unwrap();
            assert_eq!(exploration.evaluated, 16);

            // Naive: fresh evaluator per design, no cache, the shared
            // summarize + task-accuracy helpers.
            let mut naive = ParetoFront::new();
            for point in space.designs() {
                let (evaluator, rep) = match scope {
                    EvalScope::MacroOnly => (
                        point.cim_macro().evaluator().unwrap(),
                        point.cim_macro().representation(),
                    ),
                    EvalScope::System(scenario) => {
                        let system =
                            CimSystem::new(point.cim_macro().clone()).with_scenario(scenario);
                        (system.evaluator().unwrap(), system.representation())
                    }
                };
                let run = naive_run(&evaluator, &net, &rep);
                let mut report = summarize(&point, &evaluator, &run);
                if accuracy == AccuracyObjective::TaskAccuracy {
                    report.task_accuracy = Some(task_accuracy_of(point.cim_macro(), &net).unwrap());
                }
                naive.insert(point.id(), report.objectives_for(accuracy), report);
            }

            assert_eq!(exploration.front.len(), naive.len());
            for (a, b) in exploration.front.members().iter().zip(naive.members()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.objectives, b.objectives);
                assert_eq!(a.value.energy_total, b.value.energy_total);
                assert_eq!(a.value.task_accuracy, b.value.task_accuracy);
            }
        }
    }

    #[test]
    fn task_accuracy_objective_separates_noisy_twins_and_is_exact_when_ideal() {
        let quiet = base_macro().uncalibrated();
        let noisy = base_macro()
            .uncalibrated()
            .with_noise(cimloop_noise::NoiseSpec::new().with_cell_variation(0.2));
        let net = tiny_workload();
        // Ideal spec short-circuits to exactly 1.0; a sampled run agrees
        // bit-for-bit (the engine's zero-sigma identity).
        assert_eq!(task_accuracy_of(&quiet, &net).unwrap(), 1.0);
        let sampled = cimloop_sim::mc_workload(&quiet, &net, &McConfig::new(TASK_ACCURACY_TRIALS))
            .unwrap()
            .task_accuracy;
        assert_eq!(sampled, 1.0);
        // Variation must cost real accuracy under the sampled objective.
        let lossy = task_accuracy_of(&noisy, &net).unwrap();
        assert!(lossy < 1.0, "variation left task accuracy at {lossy}");
        // And the explorer populates the report field under the objective.
        let space = DesignSpace::new().variant("noisy", noisy);
        let explorer = Explorer::new()
            .with_accuracy(AccuracyObjective::TaskAccuracy)
            .with_threads(1);
        let front = explorer.explore(&space, &net).unwrap().front;
        assert_eq!(front.members()[0].value.task_accuracy, Some(lossy));
    }

    #[test]
    fn accuracy_objective_defaults_to_output_snr() {
        assert_eq!(Explorer::new().accuracy(), AccuracyObjective::OutputSnr);
        let explorer = Explorer::new().with_accuracy(AccuracyObjective::AdcCoverage);
        assert_eq!(explorer.accuracy(), AccuracyObjective::AdcCoverage);
    }

    #[test]
    fn snr_objective_separates_noisy_designs_where_the_proxy_cannot() {
        // Two designs identical except for cell variation: the ADC
        // coverage proxy scores them equally, the SNR objective does not.
        let quiet = base_macro().uncalibrated();
        let noisy = base_macro()
            .uncalibrated()
            .with_noise(cimloop_noise::NoiseSpec::new().with_cell_variation(0.2));
        let space = DesignSpace::new()
            .variant("quiet", quiet)
            .variant("noisy", noisy);
        let net = tiny_workload();
        let reports = Mutex::new(Vec::new());
        Explorer::new()
            .with_threads(1)
            .explore_with(&space, &net, |r| reports.lock().unwrap().push(r.clone()))
            .unwrap();
        let reports: Vec<DesignReport> = reports.into_inner().unwrap();
        assert_eq!(reports[0].accuracy_proxy, reports[1].accuracy_proxy);
        let quiet_snr = reports[0].output_snr_db.unwrap();
        let noisy_snr = reports[1].output_snr_db.unwrap();
        assert!(noisy_snr < quiet_snr, "{noisy_snr} vs {quiet_snr}");
        let o_quiet = reports[0].objectives_for(AccuracyObjective::OutputSnr);
        let o_noisy = reports[1].objectives_for(AccuracyObjective::OutputSnr);
        assert!(o_quiet.accuracy_proxy > o_noisy.accuracy_proxy);
    }

    #[test]
    fn stats_are_shared_across_designs() {
        let space = tiny_space();
        let net = tiny_workload();
        let explorer = Explorer::new().with_threads(1);
        let exploration = explorer.explore(&space, &net).unwrap();
        assert_eq!(exploration.evaluated, 8);
        // 8 designs × 2 layers = 16 table computations (every design is a
        // distinct hierarchy) …
        assert_eq!(explorer.cache().misses(), 16);
        // … but the ADC variant shares all value statistics with the base
        // variant: 2 sizes × 2 dacs × 2 layer signatures = 8 distinct.
        assert_eq!(explorer.cache().stats_len(), 8);
        assert_eq!(explorer.cache().stats_misses(), 8);
        assert_eq!(explorer.cache().stats_hits(), 8);
    }

    #[test]
    fn system_scope_exceeds_macro_scope_energy() {
        let space = DesignSpace::new().variant("base", base_macro().uncalibrated());
        let net = tiny_workload();
        let macro_front = Explorer::new().explore(&space, &net).unwrap().front;
        let system_front = Explorer::new()
            .with_scope(EvalScope::System(StorageScenario::AllTensorsFromDram))
            .explore(&space, &net)
            .unwrap()
            .front;
        assert!(
            system_front.members()[0].value.energy_total
                > macro_front.members()[0].value.energy_total
        );
    }

    #[test]
    fn accuracy_proxy_tracks_adc_coverage() {
        let m = base_macro().uncalibrated().with_array(256, 256);
        // Full sum width: 1 (dac) + 2 (cell) + 8 (log2 rows) = 11 bits.
        let full = m.clone().with_adc_bits(11);
        let half = m.clone().with_adc_bits(5);
        assert!((accuracy_proxy(&full) - 1.0).abs() < 1e-12);
        assert!(accuracy_proxy(&half) < accuracy_proxy(&full));
        assert!((accuracy_proxy(&half) - 5.0 / 11.0).abs() < 1e-12);
        // Digital readout resolves every bit.
        let digital = cimloop_macros::digital_cim().uncalibrated();
        assert!((accuracy_proxy(&digital) - 1.0).abs() < 1e-12);
    }

    fn assert_fronts_identical(a: &ParetoFront<DesignReport>, b: &ParetoFront<DesignReport>) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.members().iter().zip(b.members()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.objectives, y.objectives);
            assert_eq!(
                x.value.energy_total.to_bits(),
                y.value.energy_total.to_bits()
            );
            assert_eq!(x.value.latency.to_bits(), y.value.latency.to_bits());
        }
    }

    #[test]
    fn staged_sweep_prunes_noise_twins_and_matches_plain_front() {
        // Under the ADC-coverage objective, noise specs change no
        // objective: the staged pre-pass prunes noise twins without
        // evaluating them, and the front stays bit-identical.
        let space = tiny_space().noise_specs([
            cimloop_noise::NoiseSpec::ideal(),
            cimloop_noise::NoiseSpec::new().with_cell_variation(0.1),
        ]);
        let net = tiny_workload();
        let explorer = Explorer::new()
            .with_accuracy(AccuracyObjective::AdcCoverage)
            .with_threads(2);
        let plain = explorer.explore(&space, &net).unwrap();
        assert_eq!(plain.evaluated, 16);
        let staged = explorer
            .sweep(
                &space,
                &net,
                &SweepPlan {
                    staged: true,
                    ..SweepPlan::default()
                },
            )
            .unwrap();
        assert_eq!(staged.evaluated, 8, "one representative per energy class");
        assert_eq!(staged.pruned, 8);
        assert!(staged.completed);
        assert_fronts_identical(&staged.front, &plain.front);

        // Under the SNR objective noise twins differ, so nothing prunes.
        let snr = Explorer::new().with_threads(2);
        let staged_snr = snr
            .sweep(
                &space,
                &net,
                &SweepPlan {
                    staged: true,
                    ..SweepPlan::default()
                },
            )
            .unwrap();
        assert_eq!(staged_snr.pruned, 0);
        assert_fronts_identical(&staged_snr.front, &snr.explore(&space, &net).unwrap().front);
    }

    #[test]
    fn sharded_fronts_merge_into_the_single_process_front() {
        let space = tiny_space();
        let net = tiny_workload();
        let explorer = Explorer::new().with_threads(2);
        let whole = explorer.explore(&space, &net).unwrap();
        let mut merged = ParetoFront::new();
        let mut total = 0;
        for index in 0..3 {
            let plan = SweepPlan {
                shard: Some(Shard::new(index, 3).unwrap()),
                ..SweepPlan::default()
            };
            let part = explorer.sweep(&space, &net, &plan).unwrap();
            total += part.evaluated;
            merged.merge(part.front);
        }
        assert_eq!(total, whole.evaluated);
        assert_fronts_identical(&merged, &whole.front);
    }

    #[test]
    fn budgeted_run_resumes_to_the_full_front() {
        let space = tiny_space();
        let net = tiny_workload();
        let explorer = Explorer::new().with_threads(2);
        let whole = explorer.explore(&space, &net).unwrap();

        let first = explorer
            .sweep(
                &space,
                &net,
                &SweepPlan {
                    max_evaluations: Some(3),
                    ..SweepPlan::default()
                },
            )
            .unwrap();
        assert!(!first.completed);
        assert_eq!(
            first.processed,
            vec![0, 1, 2],
            "budget claims the id prefix"
        );

        let resumed = explorer
            .sweep(
                &space,
                &net,
                &SweepPlan {
                    resume: Some(first.state()),
                    ..SweepPlan::default()
                },
            )
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.processed, (0..8).collect::<Vec<u64>>());
        assert_fronts_identical(&resumed.front, &whole.front);
    }

    #[test]
    fn area_cap_screens_without_changing_survivor_reports() {
        let net = tiny_workload();
        let explorer = Explorer::new().with_threads(1);
        let open = tiny_space();
        let full = explorer.explore(&open, &net).unwrap();
        // Pick a cap that splits the space by the evaluated areas.
        let areas: Vec<f64> = {
            let mut v: Vec<f64> = open
                .designs()
                .iter()
                .map(|p| p.cim_macro().evaluator().unwrap().area().total_mm2())
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let cap = (areas[3] + areas[4]) / 2.0;
        let capped_space = tiny_space().max_area_mm2(cap);
        let capped = explorer.explore(&capped_space, &net).unwrap();
        assert_eq!(capped.evaluated + capped.screened, 8);
        assert!(capped.screened > 0, "the cap must bite");
        for member in capped.front.members() {
            assert!(member.value.area_mm2 <= cap);
            let twin = full.front.members().iter().find(|m| m.id == member.id);
            if let Some(twin) = twin {
                assert_eq!(
                    member.value.energy_total.to_bits(),
                    twin.value.energy_total.to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_space_is_an_error_but_empty_shard_is_not() {
        let net = tiny_workload();
        let explorer = Explorer::new();
        let err = explorer.explore(&DesignSpace::new(), &net).unwrap_err();
        assert!(matches!(err, CoreError::EmptySpace { .. }), "{err}");
        let filtered_out = tiny_space().filter(|_| false);
        let err = explorer.explore(&filtered_out, &net).unwrap_err();
        assert!(
            err.to_string().contains("removed by the space filter"),
            "{err}"
        );

        // A shard of a 1-candidate space may legitimately be empty.
        let one = DesignSpace::new().variant("base", base_macro().uncalibrated());
        let plan = SweepPlan {
            shard: Some(Shard::new(1, 2).unwrap()),
            ..SweepPlan::default()
        };
        let part = explorer.sweep(&one, &net, &plan).unwrap();
        assert!(part.front.is_empty());
        assert!(part.completed);
    }

    #[test]
    fn failing_design_aborts_the_sweep() {
        // An ADC wider than the model supports → evaluator construction
        // error. (Resolution 99 has no regression entry.)
        let space =
            DesignSpace::new().variant("bad", base_macro().uncalibrated().with_adc_bits(99));
        let err = Explorer::new().explore(&space, &tiny_workload());
        assert!(err.is_err());
    }
}
