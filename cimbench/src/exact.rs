//! `fig06_exact`: the Fig 6 accuracy run. For each of ResNet18's 21
//! layers on `base_macro`, the value-exact simulator (`simulate_layer`,
//! seeded from the workload seed) runs beside the statistical model
//! (`Evaluator::evaluate_layer`) and the fixed-energy baseline
//! (`fixed_energy_table` + `evaluate_mapping`). At the golden seed the
//! table equals `results/fig06.tsv`; at any seed the simulated cell
//! events and the whole table repeat exactly across iterations, and the
//! statistical model stays inside the accuracy bound.

use std::time::Instant;

use cimloop_bench::{pct, ExperimentTable};
use cimloop_core::{ActionEnergyTable, EnergyTableCache, Evaluator, Representation};
use cimloop_macros::{base_macro, ArrayMacro};
use cimloop_sim::{fixed_energy_table, simulate_layer, ExactConfig};
use cimloop_workload::{models, Workload};

use crate::layers::{Figures, Traffic};
use crate::measure::{median, secs, timed, HostSpeed, Outcome, Repo, Res};
use crate::replay;
use crate::trace::Tracer;
use crate::Opts;

/// The seed `results/fig06.tsv` was produced at; workload seed 0.
const GOLDEN_SEED: u64 = 0xF16;
/// Sampled array activations per layer in the golden configuration.
const ACTIVATIONS: u64 = 1024;
/// The statistical model's mean energy error must stay under this share
/// of ground truth (the bound `crates/sim/tests/accuracy.rs` enforces).
const ERROR_BOUND_PCT: f64 = 15.0;
/// A set-up is timed after every this many layers, so the samples
/// spread over the whole run (one set-up takes milliseconds).
const LAYERS_PER_SETUP: usize = 3;
/// Host-speed reference samples taken before each row.
const REFERENCE_PER_ROW: usize = 2;

/// The macro, its evaluator, the network, and the fixed-energy table.
struct Setup {
    m: ArrayMacro,
    ev: Evaluator,
    rep: Representation,
    net: Workload,
    fixed: ActionEnergyTable,
}

fn setup() -> Res<Setup> {
    let m = base_macro();
    let ev = m.evaluator()?;
    let rep = m.representation();
    let net = models::resnet18();
    let fixed = fixed_energy_table(&m, &net)?;
    Ok(Setup {
        m,
        ev,
        rep,
        net,
        fixed,
    })
}

/// The exact-simulator configuration of workload seed `seed`.
pub fn config(seed: u64) -> ExactConfig {
    ExactConfig {
        seed: GOLDEN_SEED.wrapping_add(seed),
        max_activations: ACTIVATIONS,
        threads: 1,
    }
}

/// What one Fig 6 table yields.
#[derive(Debug, Clone, PartialEq)]
struct Fig06 {
    tsv: String,
    cell_events: u64,
    /// Mean over layers of |statistical − exact| / exact, percent.
    energy_error_pct: f64,
    /// Statistical energy per layer (for the replay's bit-identity check).
    statistical: Vec<f64>,
    /// Host time of each layer's row, seconds.
    row_walls: Vec<f64>,
}

/// One iteration: the whole Fig 6 table, exactly as the `fig06` binary
/// builds it. `after_layer` runs between rows, outside their timing.
fn table(
    s: &Setup,
    cfg: &ExactConfig,
    mut after_layer: impl FnMut(usize) -> Res<()>,
) -> Res<Fig06> {
    let mut table = ExperimentTable::new(
        "fig06",
        "full-macro energy error vs value-exact ground truth (ResNet18)",
        &["layer", "CiMLoop err", "fixed-energy err"],
    );
    let mut stat_errs = Vec::new();
    let mut fixed_errs = Vec::new();
    let mut statistical = Vec::new();
    let mut row_walls = Vec::new();
    let mut cell_events = 0;
    for (i, layer) in s.net.layers().iter().enumerate() {
        let start = Instant::now();
        let exact = simulate_layer(&s.m, layer, cfg)?;
        let stat = s.ev.evaluate_layer(layer, &s.rep)?;
        let mapping = s.ev.map_layer(layer, &s.rep)?;
        let fixed = s.ev.evaluate_mapping(layer, &s.rep, &s.fixed, &mapping)?;
        row_walls.push(secs(start.elapsed()));
        after_layer(i)?;
        let truth = exact.energy_total();
        let stat_err = (stat.energy_total() - truth).abs() / truth;
        let fixed_err = (fixed.energy_total() - truth).abs() / truth;
        cell_events += exact.cell_events();
        statistical.push(stat.energy_total());
        stat_errs.push(stat_err);
        fixed_errs.push(fixed_err);
        table.row(vec![
            format!("{} ({})", i + 1, layer.name()),
            pct(stat_err),
            pct(fixed_err),
        ]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    table.row(vec![
        "Average".to_owned(),
        pct(avg(&stat_errs)),
        pct(avg(&fixed_errs)),
    ]);
    table.row(vec![
        "Max".to_owned(),
        pct(max(&stat_errs)),
        pct(max(&fixed_errs)),
    ]);
    Ok(Fig06 {
        tsv: table.to_tsv(),
        cell_events,
        energy_error_pct: 100.0 * avg(&stat_errs),
        statistical,
        row_walls,
    })
}

pub(crate) fn run(repo: &Repo, opts: &Opts) -> Res<Outcome> {
    let golden = repo.golden("fig06")?;
    let (s, setup_wall) = timed(setup);
    let s = s?;
    let mut setups = vec![setup_wall];
    let cfg = config(opts.seed);
    println!(
        "fig06_exact: exact-sim seed {:#X}{}",
        cfg.seed,
        if cfg.seed == GOLDEN_SEED {
            " (golden)"
        } else {
            ""
        }
    );

    let mut out = Outcome::default();
    let mut first: Option<Fig06> = None;
    let mut check = |out: &mut Outcome, result: Res<Fig06>| match result {
        Ok(fig) => {
            let reference = first.get_or_insert_with(|| fig.clone());
            let mut problems = Vec::new();
            if cfg.seed == GOLDEN_SEED && fig.tsv != golden {
                problems.push("the table differs from results/fig06.tsv".to_owned());
            }
            if fig.cell_events != reference.cell_events {
                problems.push(format!(
                    "{} cell events; the first iteration had {}",
                    fig.cell_events, reference.cell_events
                ));
            }
            if fig.tsv != reference.tsv {
                problems.push("the table differs from the first iteration's".to_owned());
            }
            if fig.energy_error_pct >= ERROR_BOUND_PCT {
                problems.push(format!(
                    "mean energy error {:.2}% is not under {ERROR_BOUND_PCT}%",
                    fig.energy_error_pct
                ));
            }
            out.check(problems.is_empty(), || {
                format!("fig06: {}", problems.join("; "))
            });
            Some(fig)
        }
        Err(e) => {
            out.error("fig06", &*e);
            None
        }
    };

    if opts.trace {
        let (result, untraced) = timed(|| table(&s, &cfg, |_| Ok(())));
        let fig = check(&mut out, result).ok_or("the untraced Fig 6 iteration failed")?;
        let figures = traced(&s, &cfg, &fig, untraced, &mut out)?;
        figures.push(&mut out);
        return Ok(out);
    }

    // A table runs for seconds, long enough for the host's speed to
    // change inside it, so reference samples are taken between its rows
    // and the table's time is scaled by them (see `HostSpeed`).
    let mut speed = HostSpeed::default();
    let mut tables = Vec::new();
    let mut spent = 0.0;
    while spent == 0.0 || spent < opts.seconds {
        let mark = speed.len();
        speed.sample(REFERENCE_PER_ROW);
        let (result, wall) = timed(|| {
            table(&s, &cfg, |i| {
                speed.sample(REFERENCE_PER_ROW);
                if i % LAYERS_PER_SETUP == LAYERS_PER_SETUP - 1 {
                    let (rebuilt, setup_wall) = timed(setup);
                    rebuilt?;
                    setups.push(setup_wall);
                }
                Ok(())
            })
        });
        spent += wall;
        if let Some(fig) = check(&mut out, result) {
            let raw: f64 = fig.row_walls.iter().sum();
            let factor = speed.factor_since(mark);
            println!(
                "fig06_exact: {raw:.3} s ({:.3} s at nominal host speed), {} cell events, \
                     energy error {:.4}%",
                raw * factor,
                fig.cell_events,
                fig.energy_error_pct
            );
            tables.push(raw * factor);
        }
    }
    let table_wall = median(&tables);
    let setups: Vec<f64> = setups.iter().map(|t| t * speed.factor()).collect();
    out.push_end_to_end(&setups, &[table_wall], 1.0 / table_wall);
    Ok(out)
}

/// The traced replay of one table: the exact simulator, then the
/// statistical model one layer call at a time (through a fresh cache,
/// which the library guarantees bit-identical to `evaluate_layer`), then
/// the fixed-energy baseline's second mapping and dataflow pass.
fn traced(
    s: &Setup,
    cfg: &ExactConfig,
    untraced: &Fig06,
    untraced_wall_s: f64,
    out: &mut Outcome,
) -> Res<Figures> {
    let cache = EnergyTableCache::new();
    let mut tr = Tracer::new();
    let mut cell_events = 0;
    let mut statistical = Vec::new();
    let start = Instant::now();
    for layer in s.net.layers() {
        let exact = tr.span("sim.exact", |_| simulate_layer(&s.m, layer, cfg))?;
        cell_events += exact.cell_events();
        let stat = replay::layers(&mut tr, &s.ev, &s.rep, std::slice::from_ref(layer), &cache)?;
        statistical.extend(stat.iter().map(|r| r.energy_total()));
        let mapping = tr.span("map", |_| s.ev.map_layer(layer, &s.rep))?;
        tr.span("dataflow", |_| {
            s.ev.evaluate_mapping(layer, &s.rep, &s.fixed, &mapping)
        })?;
    }
    let traced_wall_s = secs(start.elapsed());

    out.check(cell_events == untraced.cell_events, || {
        format!(
            "replay simulated {cell_events} cell events; the run simulated {}",
            untraced.cell_events
        )
    });
    out.check(statistical == untraced.statistical, || {
        "cached statistical energies differ from evaluate_layer's".into()
    });
    let traffic = Traffic::of(&cache.stats_snapshot());
    Ok(Figures {
        tracer: tr,
        traffic,
        tables: traffic.table_misses,
        traced_capacity_s: traced_wall_s,
        traced_wall_s,
        untraced_wall_s,
        cell_events,
        energy_error_pct: untraced.energy_error_pct,
        cell_events_per_s: untraced.cell_events as f64 / untraced_wall_s,
        ..Figures::default()
    })
}
