//! `resnet18_cold`: `examples/specs/fig02b.yaml` through
//! `run_scenario_with` with a fresh `RunContext` each iteration — four
//! macro_c designs × 21 ResNet18 layers at system scope, every value
//! statistic computed from nothing. The output must equal
//! `results/fig02b.tsv` byte for byte.

use std::sync::Arc;
use std::time::Instant;

use cimloop_cli::{resolve, run_scenario_with, RunContext};
use cimloop_core::EnergyTableCache;
use cimloop_spec::ScenarioDoc;

use crate::layers::{Figures, Traffic};
use crate::measure::{median, secs, timed, Caps, HostSpeed, Outcome, Repo, Res, REFERENCE_BLOCK};
use crate::replay;
use crate::trace::Tracer;
use crate::Opts;

/// Spec parse plus macro and evaluator build for every design the runner
/// will evaluate.
fn setup(text: &str) -> Res<ScenarioDoc> {
    let doc = ScenarioDoc::parse(text)?;
    let scope = resolve::scope(doc.scenario())?;
    resolve::workload(&doc)?;
    for point in replay::space_for(&doc)?.designs() {
        resolve::evaluator_for(point.cim_macro(), scope)?;
    }
    Ok(doc)
}

/// One iteration: the whole document on a fresh context. Returns the
/// TSV and the context's cache traffic.
fn iteration(doc: &ScenarioDoc) -> Res<(String, Traffic)> {
    let ctx = RunContext::new();
    let table = run_scenario_with(doc, &ctx)?;
    Ok((table.to_tsv(), Traffic::of(&ctx.cache().stats_snapshot())))
}

pub(crate) fn run(repo: &Repo, caps: Caps, opts: &Opts) -> Res<Outcome> {
    let text = repo.spec("fig02b")?;
    let golden = repo.golden("fig02b")?;
    let (doc, setup_wall) = timed(|| setup(&text));
    let doc = doc?;
    let mut setups = vec![setup_wall];

    let mut out = Outcome::default();
    let mut first: Option<Traffic> = None;
    let mut check = |out: &mut Outcome, result: Res<(String, Traffic)>| match result {
        Ok((tsv, traffic)) => {
            let reference = *first.get_or_insert(traffic);
            out.check(tsv == golden && traffic == reference, || {
                format!(
                    "fig02b output equals results/fig02b.tsv: {}; cache traffic {traffic:?} \
                     (first iteration {reference:?})",
                    tsv == golden
                )
            });
            Some(traffic)
        }
        Err(e) => {
            out.error("fig02b", &*e);
            None
        }
    };

    if opts.trace {
        let (result, untraced) = timed(|| iteration(&doc));
        let traffic = check(&mut out, result).unwrap_or_default();
        let figures = traced(&text, traffic, untraced, caps, &mut out)?;
        figures.push(&mut out);
        return Ok(out);
    }

    // Iterate until the measured time is spent, timing one more set-up
    // after each iteration so set-up samples span the whole run. An
    // iteration runs for seconds, so it is scaled by the host-speed
    // reference samples taken just before and just after it.
    let mut speed = HostSpeed::default();
    speed.sample(REFERENCE_BLOCK);
    let mut walls = Vec::new();
    let mut spent = 0.0;
    while spent == 0.0 || spent < opts.seconds {
        let mark = speed.len() - REFERENCE_BLOCK;
        let (result, wall) = timed(|| iteration(&doc));
        speed.sample(REFERENCE_BLOCK);
        spent += wall;
        if check(&mut out, result).is_some() {
            let factor = speed.factor_since(mark);
            println!(
                "resnet18_cold: {wall:.3} s ({:.3} s at nominal host speed)",
                wall * factor
            );
            walls.push(wall * factor);
        }
        let (rebuilt, setup_wall) = timed(|| setup(&text));
        rebuilt?;
        setups.push(setup_wall);
    }
    let setups: Vec<f64> = setups.iter().map(|t| t * speed.factor()).collect();
    // One request per iteration, at the median pace.
    out.push_end_to_end(&setups, &walls, 1.0 / median(&walls));
    Ok(out)
}

/// The traced replay of one iteration, checked against the untraced
/// iteration's cache traffic.
fn traced(
    text: &str,
    traffic: Traffic,
    untraced_wall_s: f64,
    caps: Caps,
    out: &mut Outcome,
) -> Res<Figures> {
    let cache = Arc::new(EnergyTableCache::new());
    let mut tr = Tracer::new();
    let start = Instant::now();
    let doc = tr.span("spec.parse", |_| ScenarioDoc::parse(text))?;
    // As many design workers as the untraced run's `Explorer` resolves.
    let work = replay::document(&mut tr, &doc, &cache, caps.cap(caps.library_default))?;
    let traced_wall_s = secs(start.elapsed()) - secs(tr.excluded());

    let replayed = Traffic::of(&cache.stats_snapshot());
    let computes = tr.get("stats.compute").calls;
    let maps = tr.get("map").calls;
    out.check(computes == traffic.stats_misses, || {
        format!(
            "replay computed {computes} value statistics; the run missed {}",
            traffic.stats_misses
        )
    });
    out.check(replayed.table_misses == traffic.table_misses, || {
        format!(
            "replay folded {} tables; the run folded {}",
            replayed.table_misses, traffic.table_misses
        )
    });
    out.check(maps == traffic.table_lookups(), || {
        format!(
            "replay mapped {maps} layers; the run looked up {} tables",
            traffic.table_lookups()
        )
    });

    let threads = work.parallel_threads.max(1);
    Ok(Figures {
        tables: replayed.table_misses,
        traffic,
        threads,
        network_wall_s: work.parallel_wall_s,
        traced_capacity_s: traced_wall_s + (threads - 1) as f64 * work.parallel_wall_s,
        traced_wall_s,
        untraced_wall_s,
        work,
        tracer: tr,
        ..Figures::default()
    })
}
