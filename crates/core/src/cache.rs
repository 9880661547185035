//! Cross-layer amortization of the data-value-dependent pipeline.
//!
//! Algorithm 1's expensive work (lines 5–7: encoding, slicing, column-sum
//! convolution, per-component energy reduction) depends only on a layer's
//! *value-relevant signature* — operand precisions, signedness, and value
//! profiles — plus the [`Representation`] and the hierarchy. It never
//! depends on the layer's Einsum shape: the shape enters through the
//! mapper and dataflow analysis (lines 9–10), which are cheap.
//!
//! DNN zoos repeat layer signatures ubiquitously (every transformer block,
//! every same-precision CNN stage), so an [`EnergyTableCache`] lets a
//! whole-network sweep derive each distinct [`ActionEnergyTable`] once and
//! amortize it across all layers — and, via interior mutability, across
//! the threads of a parallel network evaluation.
//!
//! A design-space exploration under the sampled task-accuracy objective
//! pays one Monte-Carlo run per design on top of that; the cache's third
//! level keeps each sampled accuracy, so an explorer that shares the
//! cache — a repeated sweep, or every request of a resident daemon —
//! samples each (design, workload) pair once.
//!
//! A batch binary lives for one sweep, so its cache could afford to only
//! grow. A resident evaluation service (`cimloop serve`) shares **one**
//! process-wide cache across every request it will ever run, so each level
//! is *bounded*: an entry-count capacity with least-recently-used eviction
//! ([`EnergyTableCache::bounded`]). Eviction can never change results —
//! an evicted signature is simply recomputed on its next lookup, and the
//! computation is deterministic — it only changes timing. Counters for
//! hits, misses, and evictions are exposed in a [`CacheStats`] snapshot.

// The panic policy: a shared cache must not take a resident service down.
#![warn(clippy::unwrap_used, clippy::expect_used)]

#[expect(
    clippy::disallowed_types,
    reason = "the LevelInner map; see its field for why order is invisible"
)]
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cimloop_noise::NoiseSpec;
use cimloop_workload::{Layer, ValueProfile, Workload};

use crate::pipeline::ValueStats;
use crate::{ActionEnergyTable, CoreError, Representation};

/// The value-relevant identity of a `(layer, representation)` pair: the
/// fields the data-value-dependent pipeline reads — operand precisions and
/// signedness, both operand value profiles, and the representation
/// (encodings and slice widths). Deliberately excludes the layer's Einsum
/// shape and name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ValueSignature {
    input_bits: u32,
    weight_bits: u32,
    input_signed: bool,
    weight_signed: bool,
    rep: Representation,
    input_profile: Vec<u64>,
    weight_profile: Vec<u64>,
}

impl ValueSignature {
    fn new(layer: &Layer, rep: &Representation) -> Self {
        ValueSignature {
            input_bits: layer.input_bits(),
            weight_bits: layer.weight_bits(),
            input_signed: layer.input_signed(),
            weight_signed: layer.weight_signed(),
            rep: *rep,
            input_profile: encode_profile(layer.input_profile()),
            weight_profile: encode_profile(layer.weight_profile()),
        }
    }
}

/// The value-relevant identity of an `(evaluator, layer, representation)`
/// triple: two layers with equal signatures are guaranteed to produce
/// bit-identical [`ActionEnergyTable`]s on the same evaluator.
///
/// The signature is the layer/representation value signature plus a
/// fingerprint of the evaluator's hierarchy (so one cache can safely serve
/// several evaluators) plus the evaluator's resolved [`NoiseSpec`] — an
/// evaluator whose noise was overridden after construction computes
/// different accuracy metrics and must not share tables with the
/// attr-derived configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableSignature {
    hierarchy_fingerprint: u64,
    noise: [u64; 3],
    value: ValueSignature,
}

impl TableSignature {
    /// Builds the signature of `layer` under `rep` for an evaluator whose
    /// hierarchy hashes to `hierarchy_fingerprint` and whose resolved
    /// non-ideality spec is `noise`.
    pub fn new(
        hierarchy_fingerprint: u64,
        layer: &Layer,
        rep: &Representation,
        noise: &NoiseSpec,
    ) -> Self {
        TableSignature {
            hierarchy_fingerprint,
            noise: noise.signature_bits(),
            value: ValueSignature::new(layer, rep),
        }
    }
}

/// The identity of a [`ValueStats`] computation: the layer/representation
/// value signature plus the hierarchy's output-reduction width — the
/// *only* architectural parameter the statistics read.
///
/// Unlike [`TableSignature`], the full hierarchy fingerprint is absent:
/// candidate designs that differ in ADC resolution, output-combining
/// topology, cell technology, process node, or column count (but agree on
/// reduction width and representation) share one bit-identical
/// [`ValueStats`]. This is the cross-design amortization a design-space
/// exploration leans on. Signatures that differ only in a width that
/// divides the other's by a power of two also share work, though not an
/// entry: [`EnergyTableCache::value_stats`] continues the narrower
/// entry's squaring ladder.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StatsSignature {
    reduction_rows: u64,
    value: ValueSignature,
}

impl StatsSignature {
    /// Builds the signature of `layer` under `rep` for a hierarchy with
    /// output-reduction width `reduction_rows`.
    pub fn new(reduction_rows: u64, layer: &Layer, rep: &Representation) -> Self {
        StatsSignature {
            reduction_rows,
            value: ValueSignature::new(layer, rep),
        }
    }
}

/// The identity of a sampled task accuracy: the design's configuration
/// fingerprint, noise spec included (`ArrayMacro::config_fingerprint(true)`
/// in `cimloop-macros`), and a digest of the workload taken the same way,
/// from its `Debug` rendering, which covers every layer field (shape,
/// precisions, value profiles) with round-trip float precision.
///
/// The Monte-Carlo objective reads nothing else but its trial count and
/// seed, which the objective fixes, so two lookups with equal signatures
/// would sample bit-identical accuracies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccuracySignature {
    design: u64,
    workload: u64,
}

impl AccuracySignature {
    /// Builds the signature of sampling `workload` on the design whose
    /// noise-inclusive configuration fingerprint is `design`.
    pub fn new(design: u64, workload: &Workload) -> Self {
        use std::hash::Hasher;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        format!("{workload:?}").hash(&mut hasher);
        AccuracySignature {
            design,
            workload: hasher.finish(),
        }
    }
}

/// Encodes a [`ValueProfile`] as a hashable word sequence: a variant tag
/// followed by parameter bit patterns (f64s compared bit-for-bit, exactly
/// matching when the realized PMFs are identical).
fn encode_profile(profile: &ValueProfile) -> Vec<u64> {
    match profile {
        ValueProfile::ReluActivations { sparsity, sigma } => {
            vec![0, sparsity.to_bits(), sigma.to_bits()]
        }
        ValueProfile::DenseSigned { sigma } => vec![1, sigma.to_bits()],
        ValueProfile::GaussianWeights { sigma } => vec![2, sigma.to_bits()],
        ValueProfile::UniformUnsigned => vec![3],
        ValueProfile::UniformSigned => vec![4],
        ValueProfile::Constant(v) => vec![5, *v as u64],
        ValueProfile::Custom(pmf) => {
            let mut words = Vec::with_capacity(1 + 2 * pmf.len());
            words.push(6);
            for (v, p) in pmf.iter() {
                words.push(v.to_bits());
                words.push(p.to_bits());
            }
            words
        }
    }
}

/// A point-in-time snapshot of an [`EnergyTableCache`]'s occupancy and
/// traffic, per level: energy tables, value statistics and sampled task
/// accuracies. `*_capacity == usize::MAX` means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct energy tables currently held.
    pub table_len: usize,
    /// Entry-count cap of the table level.
    pub table_capacity: usize,
    /// Table lookups served from the cache.
    pub table_hits: u64,
    /// Table lookups that had to compute.
    pub table_misses: u64,
    /// Tables evicted to respect the cap.
    pub table_evictions: u64,
    /// Distinct value statistics currently held.
    pub stats_len: usize,
    /// Entry-count cap of the statistics level.
    pub stats_capacity: usize,
    /// Statistics lookups served from the cache.
    pub stats_hits: u64,
    /// Statistics lookups that had to compute.
    pub stats_misses: u64,
    /// Statistics evicted to respect the cap.
    pub stats_evictions: u64,
    /// Distinct sampled task accuracies currently held.
    pub accuracy_len: usize,
    /// Entry-count cap of the accuracy level (the table level's cap).
    pub accuracy_capacity: usize,
    /// Accuracy lookups served from the cache.
    pub accuracy_hits: u64,
    /// Accuracy lookups that had to sample.
    pub accuracy_misses: u64,
    /// Accuracies evicted to respect the cap.
    pub accuracy_evictions: u64,
}

impl CacheStats {
    /// The snapshot as a single JSON object (the shape the `cimloop serve`
    /// `STATS` command returns and the CI perf artifacts record).
    /// Unbounded capacities serialize as `null`.
    pub fn to_json(&self) -> String {
        let cap = |c: usize| {
            if c == usize::MAX {
                "null".to_owned()
            } else {
                c.to_string()
            }
        };
        format!(
            "{{\"table_len\": {}, \"table_capacity\": {}, \"table_hits\": {}, \
             \"table_misses\": {}, \"table_evictions\": {}, \"stats_len\": {}, \
             \"stats_capacity\": {}, \"stats_hits\": {}, \"stats_misses\": {}, \
             \"stats_evictions\": {}, \"accuracy_len\": {}, \"accuracy_capacity\": {}, \
             \"accuracy_hits\": {}, \"accuracy_misses\": {}, \"accuracy_evictions\": {}}}",
            self.table_len,
            cap(self.table_capacity),
            self.table_hits,
            self.table_misses,
            self.table_evictions,
            self.stats_len,
            cap(self.stats_capacity),
            self.stats_hits,
            self.stats_misses,
            self.stats_evictions,
            self.accuracy_len,
            cap(self.accuracy_capacity),
            self.accuracy_hits,
            self.accuracy_misses,
            self.accuracy_evictions,
        )
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cap = |c: usize| {
            if c == usize::MAX {
                "unbounded".to_owned()
            } else {
                c.to_string()
            }
        };
        writeln!(
            f,
            "tables: {} held (cap {}), {} hits, {} misses, {} evictions",
            self.table_len,
            cap(self.table_capacity),
            self.table_hits,
            self.table_misses,
            self.table_evictions
        )?;
        writeln!(
            f,
            "stats: {} held (cap {}), {} hits, {} misses, {} evictions",
            self.stats_len,
            cap(self.stats_capacity),
            self.stats_hits,
            self.stats_misses,
            self.stats_evictions
        )?;
        write!(
            f,
            "accuracies: {} held (cap {}), {} hits, {} misses, {} evictions",
            self.accuracy_len,
            cap(self.accuracy_capacity),
            self.accuracy_hits,
            self.accuracy_misses,
            self.accuracy_evictions
        )
    }
}

/// One bounded, thread-safe cache level: a map from signature to shared
/// entry with least-recently-used eviction over an entry-count cap.
///
/// "Least recently used" is tracked with a monotonic logical clock: every
/// hit or insert stamps the entry; eviction removes the entry with the
/// smallest stamp. The victim scan is O(len), which is O(capacity) —
/// bounded caches are small by definition, and the scan only runs on
/// inserts that overflow the cap, so the cost is negligible next to the
/// table computation the insert just paid for.
#[derive(Debug)]
struct Level<K, V> {
    inner: Mutex<LevelInner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct LevelInner<K, V> {
    #[expect(
        clippy::disallowed_types,
        reason = "lookup/entry only; eviction min-scans unique logical-clock stamps, \
                  so the victim is order-independent and iteration order never reaches results"
    )]
    map: HashMap<K, Slot<V>>,
    capacity: usize,
    clock: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V> Level<K, V> {
    #[expect(
        clippy::disallowed_types,
        reason = "same map as the LevelInner field: keyed lookups plus an order-independent min-scan eviction"
    )]
    fn new(capacity: usize) -> Self {
        Level {
            inner: Mutex::new(LevelInner {
                map: HashMap::new(),
                capacity,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks the level, recovering from poison: every critical section
    /// completes its mutation before unlocking (no torn states), and a
    /// panicking evaluation elsewhere must not wedge the shared cache.
    fn locked(&self) -> std::sync::MutexGuard<'_, LevelInner<K, V>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns the cached entry for `key`, computing and inserting it via
    /// `compute` on a miss, then evicting down to the cap.
    ///
    /// The computation runs *outside* the lock: entries are expensive and
    /// other signatures must not serialize behind this miss. Concurrent
    /// misses on one key may compute it twice; the result is deterministic,
    /// so whichever insertion wins is bit-identical.
    fn get_or_try_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        {
            let mut inner = self.locked();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(slot) = inner.map.get_mut(&key) {
                slot.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&slot.value));
            }
        }
        let value = Arc::new(compute()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.locked();
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner
            .map
            .entry(key)
            .and_modify(|slot| slot.last_used = clock)
            .or_insert_with(|| Slot {
                value: Arc::clone(&value),
                last_used: clock,
            });
        let shared = Arc::clone(&entry.value);
        while inner.map.len() > inner.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    inner.map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        Ok(shared)
    }

    /// The entry for `key` if the level holds one, without counting a hit
    /// or stamping the clock: a peek leaves eviction order and the
    /// counters as they were.
    fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.locked()
            .map
            .get(key)
            .map(|slot| Arc::clone(&slot.value))
    }

    fn len(&self) -> usize {
        self.locked().map.len()
    }

    fn capacity(&self) -> usize {
        self.locked().capacity
    }

    fn clear(&self) {
        let mut inner = self.locked();
        inner.map.clear();
        inner.clock = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// A thread-safe, bounded, three-level cache for the amortizable work of
/// layer evaluation and design scoring.
///
/// - **Table level** ([`ActionEnergyTable`] keyed by [`TableSignature`]):
///   shares finished per-action energy tables between layers with equal
///   value signatures on the *same* hierarchy.
/// - **Stats level** ([`ValueStats`] keyed by [`StatsSignature`]): shares
///   the expensive hierarchy-independent statistics (encoded streams and
///   the column-sum convolution) across *different* hierarchies — i.e.
///   across the evaluators of a design-space sweep — whenever their
///   reduction widths agree. A miss filled through [`Self::value_stats`]
///   continues the squaring ladder of the same values at half, a quarter,
///   … of its width when the level holds one, sharing its streams.
/// - **Accuracy level** (sampled task accuracy keyed by
///   [`AccuracySignature`]): the Monte-Carlo score of one design on one
///   workload, so explorers that share the cache sample each (design,
///   workload) pair once. Bounded by the table level's capacity.
///
/// Entries are handed out as [`Arc`]s so concurrent layer evaluations share
/// one allocation. Each level holds at most its configured entry-count
/// capacity ([`Self::bounded`]; [`Self::new`] is unbounded), evicting the
/// least-recently-used entry on overflow — eviction is invisible to
/// results (the next lookup deterministically recomputes) and visible to
/// timing and the [`CacheStats`] counters only.
#[derive(Debug)]
pub struct EnergyTableCache {
    tables: Level<TableSignature, ActionEnergyTable>,
    stats: Level<StatsSignature, ValueStats>,
    accuracies: Level<AccuracySignature, f64>,
}

impl Default for EnergyTableCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EnergyTableCache {
    /// Creates an empty cache with no entry-count bound (the batch-binary
    /// configuration: the process lives for one sweep).
    pub fn new() -> Self {
        Self::bounded(usize::MAX, usize::MAX)
    }

    /// Creates an empty cache holding at most `table_capacity` energy
    /// tables, `stats_capacity` value statistics and `table_capacity`
    /// sampled task accuracies, evicting least-recently-used entries on
    /// overflow. A capacity of `0` disables retention entirely (every
    /// lookup computes) — still correct, never fast.
    pub fn bounded(table_capacity: usize, stats_capacity: usize) -> Self {
        EnergyTableCache {
            tables: Level::new(table_capacity),
            stats: Level::new(stats_capacity),
            accuracies: Level::new(table_capacity),
        }
    }

    /// Returns the cached table for `signature`, computing and inserting it
    /// via `compute` on a miss.
    ///
    /// # Errors
    ///
    /// Propagates `compute` errors; nothing is inserted on failure.
    pub fn get_or_try_insert_with(
        &self,
        signature: TableSignature,
        compute: impl FnOnce() -> Result<ActionEnergyTable, CoreError>,
    ) -> Result<Arc<ActionEnergyTable>, CoreError> {
        self.tables.get_or_try_insert_with(signature, compute)
    }

    /// Returns the cached hierarchy-independent statistics for `signature`,
    /// computing and inserting them via `compute` on a miss.
    ///
    /// # Errors
    ///
    /// Propagates `compute` errors; nothing is inserted on failure.
    pub fn stats_or_try_insert_with(
        &self,
        signature: StatsSignature,
        compute: impl FnOnce() -> Result<ValueStats, CoreError>,
    ) -> Result<Arc<ValueStats>, CoreError> {
        self.stats.get_or_try_insert_with(signature, compute)
    }

    /// The statistics of `layer` under `rep` at `reduction_rows`, from
    /// the stats level: the fill path the evaluator's table misses take.
    ///
    /// On a miss it first peeks at the same value signature at half,
    /// a quarter, … of the width while the width is even, and continues
    /// the squaring ladder of the first entry whose last rung divides the
    /// width, sharing its streams, instead of computing from the slice
    /// product. A peek counts no hit,
    /// refreshes no entry and inserts nothing, and a resumed entry is
    /// bit-identical to a computed one, so entries and counters are what
    /// [`Self::stats_or_try_insert_with`] with [`ValueStats::compute`]
    /// gives; only the time a miss takes depends on what the level holds.
    ///
    /// # Errors
    ///
    /// Propagates [`ValueStats::compute`] errors; nothing is inserted on
    /// failure.
    pub fn value_stats(
        &self,
        layer: &Layer,
        rep: &Representation,
        reduction_rows: u64,
    ) -> Result<Arc<ValueStats>, CoreError> {
        let signature = StatsSignature::new(reduction_rows, layer, rep);
        self.stats.get_or_try_insert_with(signature, || {
            let mut width = reduction_rows;
            while width > 1 && width % 2 == 0 {
                width /= 2;
                let narrower = self.stats.peek(&StatsSignature::new(width, layer, rep));
                if let Some(stats) = narrower.and_then(|s| s.resume(reduction_rows)) {
                    return Ok(stats);
                }
            }
            ValueStats::compute(layer, rep, reduction_rows)
        })
    }

    /// Returns the cached task accuracy for `signature`, sampling it via
    /// `sample` on a miss.
    ///
    /// # Errors
    ///
    /// Propagates `sample` errors; nothing is inserted on failure.
    pub fn accuracy_or_try_insert_with(
        &self,
        signature: AccuracySignature,
        sample: impl FnOnce() -> Result<f64, CoreError>,
    ) -> Result<f64, CoreError> {
        self.accuracies
            .get_or_try_insert_with(signature, sample)
            .map(|accuracy| *accuracy)
    }

    /// Number of distinct tables held.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the cache holds no tables.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Table lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.tables.hits.load(Ordering::Relaxed)
    }

    /// Table lookups that had to compute a table.
    pub fn misses(&self) -> u64 {
        self.tables.misses.load(Ordering::Relaxed)
    }

    /// Tables evicted to respect the entry-count cap.
    pub fn evictions(&self) -> u64 {
        self.tables.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct hierarchy-independent statistics held.
    pub fn stats_len(&self) -> usize {
        self.stats.len()
    }

    /// Statistics lookups served from the cache.
    pub fn stats_hits(&self) -> u64 {
        self.stats.hits.load(Ordering::Relaxed)
    }

    /// Statistics lookups that had to compute the statistics.
    pub fn stats_misses(&self) -> u64 {
        self.stats.misses.load(Ordering::Relaxed)
    }

    /// Statistics evicted to respect the entry-count cap.
    pub fn stats_evictions(&self) -> u64 {
        self.stats.evictions.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot of occupancy and traffic (each field
    /// is read atomically; the set is not one atomic transaction).
    pub fn stats_snapshot(&self) -> CacheStats {
        CacheStats {
            table_len: self.tables.len(),
            table_capacity: self.tables.capacity(),
            table_hits: self.hits(),
            table_misses: self.misses(),
            table_evictions: self.evictions(),
            stats_len: self.stats.len(),
            stats_capacity: self.stats.capacity(),
            stats_hits: self.stats_hits(),
            stats_misses: self.stats_misses(),
            stats_evictions: self.stats_evictions(),
            accuracy_len: self.accuracies.len(),
            accuracy_capacity: self.accuracies.capacity(),
            accuracy_hits: self.accuracies.hits.load(Ordering::Relaxed),
            accuracy_misses: self.accuracies.misses.load(Ordering::Relaxed),
            accuracy_evictions: self.accuracies.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops all cached tables, statistics and accuracies and resets
    /// every counter.
    pub fn clear(&self) {
        self.tables.clear();
        self.stats.clear();
        self.accuracies.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoding;
    use cimloop_workload::{LayerKind, Shape};

    fn rep() -> Representation {
        Representation::new(Encoding::TwosComplement, Encoding::Offset, 1, 4).unwrap()
    }

    fn layer(name: &str, k: u64) -> Layer {
        Layer::new(name, LayerKind::Linear, Shape::linear(4, k, 32).unwrap())
    }

    #[test]
    fn signature_ignores_shape_and_name() {
        let a = TableSignature::new(7, &layer("a", 16), &rep(), &NoiseSpec::ideal());
        let b = TableSignature::new(7, &layer("b", 256), &rep(), &NoiseSpec::ideal());
        assert_eq!(a, b);
    }

    #[test]
    fn signature_tracks_value_relevant_fields() {
        let base = TableSignature::new(7, &layer("l", 16), &rep(), &NoiseSpec::ideal());
        let bits = TableSignature::new(
            7,
            &layer("l", 16).with_input_bits(4),
            &rep(),
            &NoiseSpec::ideal(),
        );
        let signed = TableSignature::new(
            7,
            &layer("l", 16).with_input_signed(true),
            &rep(),
            &NoiseSpec::ideal(),
        );
        let profile = TableSignature::new(
            7,
            &layer("l", 16).with_input_profile(ValueProfile::UniformUnsigned),
            &rep(),
            &NoiseSpec::ideal(),
        );
        let other_rep = TableSignature::new(
            7,
            &layer("l", 16),
            &rep().with_slicing(2, 4).unwrap(),
            &NoiseSpec::ideal(),
        );
        let other_hierarchy = TableSignature::new(8, &layer("l", 16), &rep(), &NoiseSpec::ideal());
        for other in [bits, signed, profile, other_rep, other_hierarchy] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn profile_parameters_distinguish_signatures() {
        let narrow =
            layer("l", 16).with_weight_profile(ValueProfile::GaussianWeights { sigma: 0.1 });
        let wide = layer("l", 16).with_weight_profile(ValueProfile::GaussianWeights { sigma: 0.2 });
        assert_ne!(
            TableSignature::new(1, &narrow, &rep(), &NoiseSpec::ideal()),
            TableSignature::new(1, &wide, &rep(), &NoiseSpec::ideal())
        );
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = EnergyTableCache::new();
        let sig = TableSignature::new(1, &layer("l", 16), &rep(), &NoiseSpec::ideal());
        let make = || Ok(ActionEnergyTable::empty_for_tests());
        let first = cache.get_or_try_insert_with(sig.clone(), make).unwrap();
        let second = cache.get_or_try_insert_with(sig, make).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.evictions(), 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn stats_level_shares_across_hierarchy_fingerprints() {
        // Two evaluator-level signatures differ (fingerprints 1 vs 2), but
        // their stats signature — same reduction width, same values — is
        // one entry.
        let l = layer("l", 16);
        let r = rep();
        assert_ne!(
            TableSignature::new(1, &l, &r, &NoiseSpec::ideal()),
            TableSignature::new(2, &l, &r, &NoiseSpec::ideal())
        );
        assert_eq!(
            StatsSignature::new(64, &l, &r),
            StatsSignature::new(64, &l, &r)
        );
        assert_ne!(
            StatsSignature::new(64, &l, &r),
            StatsSignature::new(128, &l, &r)
        );

        let cache = EnergyTableCache::new();
        let make = || ValueStats::compute(&l, &r, 64);
        let first = cache
            .stats_or_try_insert_with(StatsSignature::new(64, &l, &r), make)
            .unwrap();
        let second = cache
            .stats_or_try_insert_with(StatsSignature::new(64, &l, &r), make)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats_len(), 1);
        assert_eq!(cache.stats_hits(), 1);
        assert_eq!(cache.stats_misses(), 1);
        // A fresh computation is bit-identical to the shared one.
        let fresh = make().unwrap();
        assert_eq!(format!("{:?}", fresh.sum()), format!("{:?}", first.sum()));
        cache.clear();
        assert_eq!(cache.stats_len(), 0);
        assert_eq!(cache.stats_hits(), 0);
    }

    #[test]
    fn failed_compute_inserts_nothing() {
        let cache = EnergyTableCache::new();
        let sig = TableSignature::new(1, &layer("l", 16), &rep(), &NoiseSpec::ideal());
        let err = cache.get_or_try_insert_with(sig, || {
            Err(CoreError::Representation {
                message: "boom".to_owned(),
            })
        });
        assert!(err.is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn bounded_cache_caps_entry_count() {
        let cache = EnergyTableCache::bounded(1, 1);
        let make = || Ok(ActionEnergyTable::empty_for_tests());
        for fp in 0..4u64 {
            let sig = TableSignature::new(fp, &layer("l", 16), &rep(), &NoiseSpec::ideal());
            cache.get_or_try_insert_with(sig, make).unwrap();
            assert!(cache.len() <= 1);
        }
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.evictions(), 3);
        let snapshot = cache.stats_snapshot();
        assert_eq!(snapshot.table_capacity, 1);
        assert_eq!(snapshot.table_evictions, 3);
        assert_eq!(snapshot.table_len, 1);
    }

    #[test]
    fn eviction_prefers_the_least_recently_used_entry() {
        let cache = EnergyTableCache::bounded(2, usize::MAX);
        let sig = |fp| TableSignature::new(fp, &layer("l", 16), &rep(), &NoiseSpec::ideal());
        let make = || Ok(ActionEnergyTable::empty_for_tests());
        cache.get_or_try_insert_with(sig(1), make).unwrap(); // miss
        cache.get_or_try_insert_with(sig(2), make).unwrap(); // miss
        cache.get_or_try_insert_with(sig(1), make).unwrap(); // hit, refreshes 1
        cache.get_or_try_insert_with(sig(3), make).unwrap(); // miss, evicts 2
        assert_eq!(cache.evictions(), 1);
        // 1 survived (refreshed); 2 is gone.
        cache.get_or_try_insert_with(sig(1), make).unwrap();
        assert_eq!(cache.hits(), 2);
        cache.get_or_try_insert_with(sig(2), make).unwrap();
        assert_eq!(cache.misses(), 4, "sig 2 was evicted and recomputed");
    }

    #[test]
    fn capacity_zero_retains_nothing_but_stays_correct() {
        let l = layer("l", 16);
        let r = rep();
        let cache = EnergyTableCache::bounded(0, 0);
        let make = || ValueStats::compute(&l, &r, 64);
        let via_cache = cache
            .stats_or_try_insert_with(StatsSignature::new(64, &l, &r), make)
            .unwrap();
        assert_eq!(cache.stats_len(), 0);
        assert_eq!(cache.stats_evictions(), 1);
        let fresh = make().unwrap();
        assert_eq!(
            format!("{:?}", fresh.sum()),
            format!("{:?}", via_cache.sum()),
            "a retention-free cache still hands back the exact computation"
        );
    }

    #[test]
    fn compute_runs_outside_the_level_lock() {
        use std::sync::mpsc::{self, RecvTimeoutError};
        use std::time::Duration;

        // Each compute closure reads its own level. If a level ever computed
        // while holding its lock, the read would deadlock; the worker thread
        // turns that hang into a timeout.
        let (done, finished) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let cache = EnergyTableCache::new();
            let l = layer("l", 16);
            let r = rep();
            let sig = TableSignature::new(1, &l, &r, &NoiseSpec::ideal());
            cache
                .get_or_try_insert_with(sig, || {
                    assert_eq!(cache.len(), 0);
                    Ok(ActionEnergyTable::empty_for_tests())
                })
                .unwrap();
            cache
                .stats_or_try_insert_with(StatsSignature::new(64, &l, &r), || {
                    assert_eq!(cache.stats_len(), 0);
                    ValueStats::compute(&l, &r, 64)
                })
                .unwrap();
            let _ = done.send((cache.len(), cache.stats_len()));
        });
        let lens = finished.recv_timeout(Duration::from_secs(10));
        assert_ne!(
            lens,
            Err(RecvTimeoutError::Timeout),
            "a compute closure deadlocked: the level computes under its lock"
        );
        worker.join().expect("the compute thread panicked");
        assert_eq!(lens, Ok((1, 1)));
    }

    /// A stand-in for `ArrayMacro::config_fingerprint(true)`, which this
    /// crate cannot build: the digest of a design's ADC bits and noise
    /// spec, taken from their `Debug` rendering.
    fn design(adc_bits: u32, noise: NoiseSpec) -> u64 {
        use std::hash::Hasher;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        format!("{adc_bits:?} {noise:?}").hash(&mut hasher);
        hasher.finish()
    }

    fn net(weight_sigma: f64) -> Workload {
        let b = layer("b", 32).with_weight_profile(ValueProfile::GaussianWeights {
            sigma: weight_sigma,
        });
        Workload::new("net", vec![layer("a", 16), b]).unwrap()
    }

    #[test]
    fn accuracy_level_keys_on_the_design_and_the_workload() {
        let varied = |sigma| NoiseSpec::new().with_cell_variation(sigma);
        let base = AccuracySignature::new(design(8, varied(0.1)), &net(0.1));
        let cache = EnergyTableCache::new();
        let first = cache.accuracy_or_try_insert_with(base, || Ok(0.5));
        assert_eq!(first.unwrap(), 0.5);
        // A noise sigma, the ADC bits, or one layer's value profile: each
        // differs from the base alone, and each misses with its own sample.
        let others = [
            AccuracySignature::new(design(8, varied(0.2)), &net(0.1)),
            AccuracySignature::new(design(6, varied(0.1)), &net(0.1)),
            AccuracySignature::new(design(8, varied(0.1)), &net(0.2)),
        ];
        for (i, other) in others.into_iter().enumerate() {
            assert_ne!(other, base);
            let sampled = 0.125 * i as f64;
            let got = cache.accuracy_or_try_insert_with(other, || Ok(sampled));
            assert_eq!(got.unwrap(), sampled);
        }
        // An equal signature, built afresh, hits without sampling.
        let again = AccuracySignature::new(design(8, varied(0.1)), &net(0.1));
        assert_eq!(again, base);
        let hit = cache.accuracy_or_try_insert_with(again, || unreachable!("an equal key hits"));
        assert_eq!(hit.unwrap(), 0.5);
        let snapshot = cache.stats_snapshot();
        assert_eq!(
            (
                snapshot.accuracy_len,
                snapshot.accuracy_hits,
                snapshot.accuracy_misses
            ),
            (4, 1, 4)
        );
        // A failed sample inserts nothing.
        let failed = AccuracySignature::new(design(4, varied(0.1)), &net(0.1));
        let boom = || {
            Err(CoreError::Representation {
                message: "boom".to_owned(),
            })
        };
        assert!(cache.accuracy_or_try_insert_with(failed, boom).is_err());
        assert_eq!(cache.stats_snapshot().accuracy_len, 4);

        cache.clear();
        let cleared = cache.stats_snapshot();
        assert_eq!(
            (
                cleared.accuracy_len,
                cleared.accuracy_hits,
                cleared.accuracy_misses
            ),
            (0, 0, 0)
        );
        let resampled = cache.accuracy_or_try_insert_with(base, || Ok(0.75));
        assert_eq!(resampled.unwrap(), 0.75);
    }

    #[test]
    fn accuracy_level_evicts_at_the_table_capacity() {
        let cache = EnergyTableCache::bounded(2, 5);
        let sig = |design| AccuracySignature::new(design, &net(0.1));
        for design in 0..4 {
            cache
                .accuracy_or_try_insert_with(sig(design), || Ok(0.5))
                .unwrap();
        }
        let snapshot = cache.stats_snapshot();
        assert_eq!(snapshot.accuracy_capacity, 2);
        assert_eq!(snapshot.accuracy_len, 2);
        assert_eq!(snapshot.accuracy_misses, 4);
        assert_eq!(snapshot.accuracy_evictions, 2);
        // The two most recent survive; the oldest samples again.
        cache
            .accuracy_or_try_insert_with(sig(3), || unreachable!("design 3 is held"))
            .unwrap();
        cache
            .accuracy_or_try_insert_with(sig(0), || Ok(0.5))
            .unwrap();
        let snapshot = cache.stats_snapshot();
        assert_eq!((snapshot.accuracy_hits, snapshot.accuracy_misses), (1, 5));
        // A zero table capacity retains no accuracy, and still answers.
        let none = EnergyTableCache::bounded(0, 5);
        let unretained = none.accuracy_or_try_insert_with(sig(0), || Ok(0.25));
        assert_eq!(unretained.unwrap(), 0.25);
        assert_eq!(none.stats_snapshot().accuracy_len, 0);
    }

    #[test]
    fn stats_snapshot_serializes() {
        let cache = EnergyTableCache::bounded(8, usize::MAX);
        let snapshot = cache.stats_snapshot();
        let json = snapshot.to_json();
        assert!(json.contains("\"table_capacity\": 8"));
        assert!(json.contains("\"stats_capacity\": null"));
        assert!(json.contains("\"accuracy_capacity\": 8"));
        assert!(json.ends_with("\"accuracy_misses\": 0, \"accuracy_evictions\": 0}"));
        let text = snapshot.to_string();
        assert!(text.contains("cap 8"));
        assert!(text.contains("cap unbounded"));
        assert!(text.contains("accuracies: 0 held (cap 8)"));
    }
}
