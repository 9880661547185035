//! Benchmark-side spans around calls into the workspace's public
//! functions. Nothing inside the library is instrumented: a span opens
//! before the benchmark calls into a layer and closes when the call
//! returns. Spans aggregate in memory per name (total time, self time,
//! calls) and are read out when the traced run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Aggregate of every span recorded under one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Agg {
    /// Summed span durations.
    pub total: Duration,
    /// Summed durations minus the time their child spans cover.
    pub self_time: Duration,
    /// Spans recorded.
    pub calls: u64,
}

/// One thread's span recorder. Worker threads each own one and
/// [`Tracer::merge`] into the caller's when they finish.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Child time accumulated by each open span, innermost last.
    open: Vec<Duration>,
    aggs: BTreeMap<&'static str, Agg>,
    /// Time spent in [`Tracer::untraced`] work, kept out of the traced
    /// wall.
    excluded: Duration,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` inside a span named `name`, nested under any open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.open.push(Duration::ZERO);
        let start = Instant::now();
        let out = f(self);
        let elapsed = start.elapsed();
        let children = self.open.pop().unwrap_or_default();
        if let Some(parent) = self.open.last_mut() {
            *parent += elapsed;
        }
        self.record(name, elapsed, elapsed.saturating_sub(children));
        out
    }

    /// Runs `f` outside any span and keeps its time out of the traced
    /// wall: reference work the replay checks itself against.
    pub fn untraced<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.excluded += start.elapsed();
        out
    }

    fn record(&mut self, name: &'static str, total: Duration, self_time: Duration) {
        let agg = self.aggs.entry(name).or_default();
        agg.total += total;
        agg.self_time += self_time;
        agg.calls += 1;
    }

    /// Folds a worker thread's spans into this recorder.
    pub fn merge(&mut self, other: Tracer) {
        for (name, agg) in other.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.total += agg.total;
            mine.self_time += agg.self_time;
            mine.calls += agg.calls;
        }
        self.excluded += other.excluded;
    }

    /// The aggregate of `name` (zero when no such span ran).
    pub fn get(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Self time summed over every span name.
    pub fn self_total(&self) -> Duration {
        self.aggs.values().map(|a| a.self_time).sum()
    }

    /// Time to keep out of the traced wall.
    pub fn excluded(&self) -> Duration {
        self.excluded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_merge_adds() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            tr.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let outer = tr.get("outer");
        let inner = tr.get("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total >= inner.total);
        assert_eq!(outer.self_time, outer.total - inner.total);

        let mut other = Tracer::new();
        other.span("inner", |_| ());
        tr.merge(other);
        assert_eq!(tr.get("inner").calls, 2);
        assert_eq!(tr.get("missing"), Agg::default());
    }

    #[test]
    fn untraced_work_records_no_span() {
        let mut tr = Tracer::new();
        tr.untraced(|| std::thread::sleep(Duration::from_millis(1)));
        assert!(tr.excluded() >= Duration::from_millis(1));
        assert_eq!(tr.self_total(), Duration::ZERO);
    }
}
