//! The per-layer metrics of a traced run, in one place so every workload
//! reports the same names (zero where a layer does not take part).

use cimloop_core::CacheStats;

use crate::measure::{secs, Outcome};
use crate::replay::Work;
use crate::trace::Tracer;

/// Cache traffic: lookups served (hits) and computed (misses) per level.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    pub stats_hits: u64,
    pub stats_misses: u64,
    pub table_hits: u64,
    pub table_misses: u64,
}

impl Traffic {
    pub fn of(stats: &CacheStats) -> Self {
        Traffic {
            stats_hits: stats.stats_hits,
            stats_misses: stats.stats_misses,
            table_hits: stats.table_hits,
            table_misses: stats.table_misses,
        }
    }

    /// The traffic since `before` (counters only grow).
    pub fn since(&self, before: &Traffic) -> Self {
        Traffic {
            stats_hits: self.stats_hits - before.stats_hits,
            stats_misses: self.stats_misses - before.stats_misses,
            table_hits: self.table_hits - before.table_hits,
            table_misses: self.table_misses - before.table_misses,
        }
    }

    pub fn table_lookups(&self) -> u64 {
        self.table_hits + self.table_misses
    }
}

/// Everything a traced run measured, beyond its spans.
#[derive(Debug, Default)]
pub(crate) struct Figures {
    pub tracer: Tracer,
    /// Cache traffic of the untraced run of the same unit of work.
    pub traffic: Traffic,
    /// Tables the replay folded (its own table misses).
    pub tables: u64,
    pub work: Work,
    /// Threads the replay fanned designs over, and the wall time of that
    /// phase (0 when the workload runs no network engine).
    pub threads: usize,
    pub network_wall_s: f64,
    /// Thread-seconds the replay had available: its wall time times its
    /// threads, phase by phase.
    pub traced_capacity_s: f64,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub cell_events: u64,
    pub energy_error_pct: f64,
    pub cell_events_per_s: f64,
    pub serve_overhead_ms: f64,
}

/// Span names whose time is a layer call on the evaluation path.
const LAYER_CALLS: [&str; 4] = ["stats.compute", "core.fold", "map", "dataflow"];

impl Figures {
    pub fn push(&self, out: &mut Outcome) {
        let tr = &self.tracer;
        let s = |name: &str| secs(tr.get(name).total);
        let n = |name: &str| tr.get(name).calls as f64;
        let ratio = |hits: u64, misses: u64| {
            let lookups = hits + misses;
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            }
        };
        let t = &self.traffic;
        out.push("spec.parse_ms", s("spec.parse") * 1e3, "ms");
        out.push("stats.compute_s", s("stats.compute"), "s");
        out.push("stats.computes", n("stats.compute"), "count");
        out.push("core.build_s", s("core.build"), "s");
        out.push("core.fold_s", s("core.fold"), "s");
        out.push("core.tables", self.tables as f64, "count");
        out.push("cache.stats_hits", t.stats_hits as f64, "count");
        out.push("cache.stats_misses", t.stats_misses as f64, "count");
        out.push("cache.table_hits", t.table_hits as f64, "count");
        out.push("cache.table_misses", t.table_misses as f64, "count");
        out.push(
            "cache.stats_hit_ratio",
            ratio(t.stats_hits, t.stats_misses),
            "fraction",
        );
        out.push(
            "cache.table_hit_ratio",
            ratio(t.table_hits, t.table_misses),
            "fraction",
        );
        out.push("map.map_s", s("map"), "s");
        out.push("map.calls", n("map"), "count");
        out.push("dataflow.s", s("dataflow"), "s");
        out.push("dataflow.calls", n("dataflow"), "count");
        out.push("system.network_s", s("system.network"), "s");
        let busy: f64 = LAYER_CALLS.iter().map(|name| s(name)).sum();
        let efficiency = if self.network_wall_s > 0.0 {
            busy / (self.threads.max(1) as f64 * self.network_wall_s)
        } else {
            0.0
        };
        out.push("system.parallel_efficiency", efficiency, "fraction");
        out.push("dse.sweep_s", s("dse.sweep"), "s");
        out.push("dse.evaluated", self.work.dse_evaluated as f64, "count");
        out.push("dse.pruned", self.work.dse_pruned as f64, "count");
        out.push("sim.exact_s", s("sim.exact"), "s");
        out.push("sim.cell_events", self.cell_events as f64, "count");
        let ns_per_event = if self.cell_events > 0 {
            s("sim.exact") * 1e9 / self.cell_events as f64
        } else {
            0.0
        };
        out.push("sim.ns_per_event", ns_per_event, "ns");
        out.push("sim.mc_s", s("sim.mc"), "s");
        out.push("cell_events_per_s", self.cell_events_per_s, "events/s");
        out.push("energy_error_pct", self.energy_error_pct, "%");
        out.push("serve.overhead_ms", self.serve_overhead_ms, "ms");
        let coverage = if self.traced_capacity_s > 0.0 {
            secs(tr.self_total()) / self.traced_capacity_s
        } else {
            0.0
        };
        out.push("trace.coverage", coverage, "fraction");
        let overhead = if self.untraced_wall_s > 0.0 {
            100.0 * (self.traced_wall_s - self.untraced_wall_s) / self.untraced_wall_s
        } else {
            0.0
        };
        out.push("trace.overhead_pct", overhead, "%");
    }
}
