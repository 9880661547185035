//! Pins the benchmark's deterministic work counters at a small size, so
//! a lost cache hit or an extra convolution fails here instead of hiding
//! in timing noise.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cimloop_cli::{run_scenario_with, RunContext};
use cimloop_core::EnergyTableCache;
use cimloop_macros::base_macro;
use cimloop_perfbench::exact;
use cimloop_perfbench::layers::Traffic;
use cimloop_perfbench::measure::Repo;
use cimloop_perfbench::replay;
use cimloop_perfbench::served::{self, Daemon};
use cimloop_perfbench::trace::Tracer;
use cimloop_perfbench::Opts;
use cimloop_sim::simulate_layer;
use cimloop_spec::ScenarioDoc;
use cimloop_workload::models;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The counters one document's replay produces, next to the cache
/// traffic of the same document run through `run_scenario_with`.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    computes: u64,
    tables: u64,
    maps: u64,
    dataflows: u64,
    evaluated: u64,
    pruned: u64,
}

/// The replay's counters and the untraced run's cache traffic.
fn counts(stem: &str) -> (Counts, Traffic) {
    let doc = ScenarioDoc::parse(&Repo::new(root()).spec(stem).expect("spec")).expect("parse");
    let ctx = RunContext::new();
    run_scenario_with(&doc, &ctx).expect("run");
    let run = Traffic::of(&ctx.cache().stats_snapshot());

    let cache = Arc::new(EnergyTableCache::new());
    let mut tr = Tracer::new();
    let work = replay::document(&mut tr, &doc, &cache, 2).expect("replay");
    let replayed = Traffic::of(&cache.stats_snapshot());
    let counts = Counts {
        computes: tr.get("stats.compute").calls,
        tables: replayed.table_misses,
        maps: tr.get("map").calls,
        dataflows: tr.get("dataflow").calls,
        evaluated: work.dse_evaluated,
        pruned: work.dse_pruned,
    };
    (counts, run)
}

#[test]
fn replay_counters_are_pinned_and_match_the_run() {
    let cases = [
        ("custom_macro", [2, 2, 2, 2, 0, 0]),
        ("fig09_noise", [1, 20, 20, 20, 0, 0]),
        ("dse_grid", [12, 24, 24, 24, 12, 24]),
        ("dse_accuracy", [4, 8, 8, 8, 4, 0]),
    ];
    for (stem, [computes, tables, maps, dataflows, evaluated, pruned]) in cases {
        let (got, run) = counts(stem);
        let want = Counts {
            computes,
            tables,
            maps,
            dataflows,
            evaluated,
            pruned,
        };
        assert_eq!(got, want, "{stem}");
        // The replay repeats the run's work: one fold per table miss and
        // one mapping per table lookup.
        assert_eq!(got.tables, run.table_misses, "{stem}");
        assert_eq!(got.maps, run.table_lookups(), "{stem}");
        // One value statistic per stats miss — except that the explorer's
        // concurrent designs may both miss one signature and compute it
        // twice, so a dse run can only count more.
        if stem.starts_with("dse") {
            assert!(got.computes <= run.stats_misses, "{stem}: {run:?}");
        } else {
            assert_eq!(got.computes, run.stats_misses, "{stem}");
        }
    }
}

#[test]
fn exact_cell_events_repeat_at_a_fixed_seed() {
    let m = base_macro();
    let net = models::resnet18();
    let cfg = cimloop_sim::ExactConfig {
        max_activations: 4,
        ..exact::config(3)
    };
    let events = || {
        net.layers()
            .iter()
            .take(2)
            .map(|layer| {
                simulate_layer(&m, layer, &cfg)
                    .expect("simulate")
                    .cell_events()
            })
            .sum::<u64>()
    };
    let first = events();
    assert_eq!(first, 130_048);
    assert_eq!(events(), first);
}

#[test]
fn warm_daemon_computes_no_statistics_after_warm_up() {
    let mix: Vec<_> = served::mix(&Repo::new(root()))
        .expect("mix")
        .into_iter()
        .filter(|r| matches!(r.label, "custom_macro" | "custom_macro_json" | "dse_grid"))
        .collect();
    assert_eq!(mix.len(), 3);
    let daemon = served::warm_daemon(&mix, 2).expect("warm-up");
    let warm = daemon.traffic();
    let mut client = cimloop_cli::serve::client::Client::connect(daemon.addr).expect("connect");
    for request in &mix {
        request
            .verify(request.send(&mut client))
            .expect("golden reply");
    }
    let session = daemon.traffic().since(&warm);
    Daemon::stop(daemon).expect("stop");
    assert_eq!(session.stats_misses, 0);
    assert_eq!(session.table_misses, 0);
    assert_eq!(session.table_hits, 2 + 2 + 24);
}

#[test]
fn a_checkout_without_inputs_is_an_error() {
    let opts = Opts::parse(
        [
            "--workload",
            "resnet18_cold",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]
        .map(String::from),
    )
    .expect("options");
    assert!(cimloop_perfbench::run(Path::new("no-such-checkout"), &opts).is_err());
    assert!(Opts::parse(["--workload", "nope"].map(String::from)).is_err());
    assert!(Opts::parse(["--trace", "2"].map(String::from)).is_err());
}
