use std::collections::BTreeMap;

use cimloop_spec::{Hierarchy, Node, Reuse, Tensor};
use cimloop_workload::{relevant_dims, Dim, Shape};

use crate::{MapError, Mapping};

/// Read/write action counts for one component and tensor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Actions {
    /// Read-like actions: serves, converts, additions, MAC reads.
    pub reads: f64,
    /// Write-like actions: fills, updates, emissions.
    pub writes: f64,
}

impl Actions {
    /// Total actions of both kinds.
    pub fn total(&self) -> f64 {
        self.reads + self.writes
    }
}

/// The result of dataflow analysis: per-component, per-tensor action counts
/// plus mapping-level summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowResult {
    components: BTreeMap<String, [Actions; 3]>,
    external: [f64; 3],
    padded_macs: u64,
    actual_macs: u64,
    temporal_steps: u64,
    spatial_used: u64,
    spatial_total: u64,
}

impl DataflowResult {
    /// Action counts of `component` for `tensor` (zero if inactive).
    pub fn actions(&self, component: &str, tensor: Tensor) -> Actions {
        self.components
            .get(component)
            .map(|per| per[tensor as usize])
            .unwrap_or_default()
    }

    /// Iterates `(component, per-tensor actions)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Actions; 3])> {
        self.components.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Traffic of `tensor` left unabsorbed at the hierarchy root (supplied
    /// externally, e.g., pre-loaded weights when no DRAM is modeled).
    pub fn external_traffic(&self, tensor: Tensor) -> f64 {
        self.external[tensor as usize]
    }

    /// Slice-granular MAC events the mapped hardware performs (includes
    /// padding and bit-slice repetition).
    pub fn padded_macs(&self) -> u64 {
        self.padded_macs
    }

    /// Useful word-level MACs of the workload.
    pub fn actual_macs(&self) -> u64 {
        self.actual_macs
    }

    /// Sequential steps (array activations) implied by the temporal loops.
    pub fn temporal_steps(&self) -> u64 {
        self.temporal_steps
    }

    /// Fraction of mapped iteration space doing useful work
    /// (`actual × slices / padded`).
    pub fn utilization(&self) -> f64 {
        if self.padded_macs == 0 {
            return 0.0;
        }
        let useful = self.actual_macs as f64 * self.slice_factor();
        useful / self.padded_macs as f64
    }

    /// Fraction of available spatial instances the mapping uses.
    pub fn spatial_utilization(&self) -> f64 {
        if self.spatial_total == 0 {
            return 0.0;
        }
        self.spatial_used as f64 / self.spatial_total as f64
    }

    fn slice_factor(&self) -> f64 {
        // padded includes Is/Ws; actual counts words. The ratio of slice
        // events per useful word-MAC is padded-slices (both slice bounds).
        1.0
    }
}

/// Runs dataflow analysis for `mapping` of `shape` onto `hierarchy`.
///
/// Walks the implied loop nest from the innermost compute outward,
/// transforming link traffic according to each node's reuse directives (see
/// the crate docs for the rules) and billing actions to every active
/// component.
///
/// # Errors
///
/// Returns any [`MapError`] from [`Mapping::validate`].
pub fn analyze(
    hierarchy: &Hierarchy,
    shape: Shape,
    mapping: &Mapping,
) -> Result<DataflowResult, MapError> {
    mapping.validate(hierarchy, shape)?;
    let nodes = hierarchy.nodes();
    let entries = mapping.entries();
    let n = nodes.len();

    // Per-node, per-dim factor products.
    let mut temporal = vec![[1u64; 9]; n];
    let mut spatial = vec![[1u64; 9]; n];
    for (i, e) in entries.iter().enumerate() {
        for &(d, b) in &e.temporal {
            temporal[i][d as usize] *= b;
        }
        for &(d, b) in &e.spatial {
            spatial[i][d as usize] *= b;
        }
    }

    // inside[i][d]: product of factors strictly inside node i, plus node i's
    // own temporal factors (its loops iterate its contents) — the per-
    // instance tile extent for dimension d at node i.
    let mut inside = vec![[1u64; 9]; n];
    {
        let mut suffix = [1u64; 9]; // ∏_{j>i} temporal×spatial
        for i in (0..n).rev() {
            for d in 0..9 {
                inside[i][d] = temporal[i][d] * suffix[d];
            }
            for d in 0..9 {
                suffix[d] *= temporal[i][d] * spatial[i][d];
            }
        }
    }

    // instances[i]: used instances of node i (product of used fanouts of all
    // nodes at or above i, including node i's own spatial factors).
    let mut instances = vec![1u64; n];
    {
        let mut acc = 1u64;
        for i in 0..n {
            acc = acc.saturating_mul(entries[i].used_fanout().max(1));
            instances[i] = acc;
        }
    }

    // Flat list of temporal loops in execution order (outer→inner) with the
    // node index they belong to.
    let mut flat_loops: Vec<(usize, Dim, u64)> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        for &(d, b) in &e.temporal {
            flat_loops.push((i, d, b));
        }
    }

    let padded_macs: u64 = Dim::ALL.iter().map(|&d| mapping.padded_bound(d)).product();

    let mut components: BTreeMap<String, [Actions; 3]> = BTreeMap::new();
    for node in nodes {
        if let Node::Component(c) = node {
            components.insert(c.name().to_owned(), [Actions::default(); 3]);
        }
    }
    let mut external = [0.0f64; 3];

    for tensor in Tensor::ALL {
        let rel = relevant_dims(tensor);
        let is_rel = |d: Dim| rel.contains(&d);

        // Refetch multiplier M(i): over the flat temporal loops belonging to
        // nodes strictly above i, the product of bounds of every loop at or
        // outside the innermost loop relevant to this tensor.
        let refetch = |i: usize| -> f64 {
            let above: Vec<&(usize, Dim, u64)> =
                flat_loops.iter().filter(|&&(j, _, _)| j < i).collect();
            let last_rel = above.iter().rposition(|&&(_, d, _)| is_rel(d));
            match last_rel {
                None => 1.0,
                Some(pos) => above[..=pos].iter().map(|&&(_, _, b)| b as f64).product(),
            }
        };
        // Like `refetch` but counting only relevant loops: the number of
        // distinct tile versions (used for output partial-sum accounting).
        let distinct_mult = |i: usize| -> f64 {
            flat_loops
                .iter()
                .filter(|&&(j, d, _)| j < i && is_rel(d))
                .map(|&(_, _, b)| b as f64)
                .product()
        };
        // Per-instance tile of `tensor` at node i, in the granularity the
        // node stores: word-granular storage divides out slice factors held
        // inside it (slices of one operand live in the same word).
        let tile = |i: usize, slice_granular: bool| -> f64 {
            rel.iter()
                .filter(|d| slice_granular || !d.is_slice())
                .map(|&d| inside[i][d as usize] as f64)
                .product()
        };

        let mut traffic = padded_macs as f64;
        let mut dup = 1.0f64; // spatially-parallel duplicates not yet merged

        for i in (0..n).rev() {
            let node = &nodes[i];
            // 1. Component function, billed at the inside-link traffic.
            if let Node::Component(c) = node {
                let reuse = c.reuse(tensor);
                if reuse.is_active() {
                    let bill = &mut components.get_mut(c.name()).expect("component registered")
                        [tensor as usize];
                    match reuse {
                        Reuse::Temporal => {
                            let slice_granular =
                                c.attributes().bool("slice_storage").unwrap_or(false);
                            let fills = tile(i, slice_granular) * refetch(i) * instances[i] as f64;
                            if tensor == Tensor::Outputs {
                                // Updates arrive from below; partials bounce
                                // to/from the parent per the refetch rule.
                                let distinct = tile(i, slice_granular)
                                    * distinct_mult(i)
                                    * instances[i] as f64;
                                bill.writes += traffic;
                                bill.reads += (fills - distinct).max(0.0) + fills;
                            } else {
                                bill.reads += traffic;
                                bill.writes += fills;
                            }
                            traffic = fills;
                            dup = 1.0;
                        }
                        Reuse::NoCoalesce => {
                            bill.reads += traffic;
                        }
                        Reuse::Coalesce => {
                            bill.reads += traffic;
                            traffic /= dup;
                            dup = 1.0;
                            bill.writes += traffic;
                        }
                        Reuse::Bypass => unreachable!("is_active filtered bypass"),
                    }
                }
            }
            // 2. The node's own spatial fanout: multicast/reduce in-network,
            // or carry duplicates outward unmerged.
            let irr: f64 = Dim::ALL
                .iter()
                .filter(|&&d| !is_rel(d))
                .map(|&d| spatial[i][d as usize] as f64)
                .product();
            if irr > 1.0 {
                if node.spatial_reuse(tensor) {
                    traffic /= irr;
                } else {
                    dup *= irr;
                }
            }
        }
        external[tensor as usize] = traffic;
    }

    let spatial_used: u64 = entries.iter().map(|e| e.used_fanout().max(1)).product();
    let spatial_total: u64 = nodes.iter().map(|nd| nd.spatial().fanout()).product();

    Ok(DataflowResult {
        components,
        external,
        padded_macs,
        actual_macs: shape.macs(),
        temporal_steps: mapping.temporal_steps(),
        spatial_used,
        spatial_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeMapping;
    use cimloop_spec::{Component, Container, Spatial};

    /// The paper's Fig 5a/5b macro with a buffer on top:
    /// buffer → macro { DAC → column×4 { ADC → cell×4 } }.
    fn fig5_hierarchy(cols: u64, rows: u64) -> Hierarchy {
        Hierarchy::builder()
            .component(
                Component::new("buffer")
                    .with_reuse(Tensor::Inputs, Reuse::Temporal)
                    .with_reuse(Tensor::Outputs, Reuse::Temporal),
            )
            .container(Container::new("macro"))
            .component(Component::new("adder").with_reuse(Tensor::Outputs, Reuse::Coalesce))
            .component(Component::new("DAC").with_reuse(Tensor::Inputs, Reuse::NoCoalesce))
            .container(
                Container::new("column")
                    .with_spatial(Spatial::new(cols, 1))
                    .with_spatial_reuse(Tensor::Inputs),
            )
            .component(Component::new("ADC").with_reuse(Tensor::Outputs, Reuse::NoCoalesce))
            .component(
                Component::new("cell")
                    .with_reuse(Tensor::Weights, Reuse::Temporal)
                    .with_spatial(Spatial::new(1, rows))
                    .with_spatial_reuse(Tensor::Outputs),
            )
            .build()
            .unwrap()
    }

    fn simple_mapping(n: u64, k: u64, c: u64) -> Mapping {
        Mapping::new(vec![
            NodeMapping::new("buffer").with_temporal(Dim::N, n),
            NodeMapping::new("macro"),
            NodeMapping::new("adder"),
            NodeMapping::new("DAC"),
            NodeMapping::new("column").with_spatial(Dim::K, k),
            NodeMapping::new("ADC"),
            NodeMapping::new("cell").with_spatial(Dim::C, c),
        ])
    }

    #[test]
    fn base_macro_action_counts() {
        let h = fig5_hierarchy(4, 4);
        let shape = Shape::linear(2, 4, 4).unwrap();
        let m = simple_mapping(2, 4, 4);
        let r = analyze(&h, shape, &m).unwrap();

        assert_eq!(r.padded_macs(), 32);
        assert_eq!(r.actual_macs(), 32);
        assert_eq!(r.temporal_steps(), 2);
        assert!((r.utilization() - 1.0).abs() < 1e-12);

        // DAC converts: one per row per step = 4 × 2 (inputs multicast
        // across the 4 columns).
        assert_eq!(r.actions("DAC", Tensor::Inputs).reads, 8.0);
        // ADC converts: one per column per step (4 rows reduced on wire).
        assert_eq!(r.actions("ADC", Tensor::Outputs).reads, 8.0);
        // Cells: one weight-read per MAC; 16 weights programmed once.
        assert_eq!(r.actions("cell", Tensor::Weights).reads, 32.0);
        assert_eq!(r.actions("cell", Tensor::Weights).writes, 16.0);
        // Buffer serves 8 input reads and receives 8 output updates.
        assert_eq!(r.actions("buffer", Tensor::Inputs).reads, 8.0);
        assert_eq!(r.actions("buffer", Tensor::Outputs).writes, 8.0);
        // Inputs filled once each: N×C = 8 words.
        assert_eq!(r.actions("buffer", Tensor::Inputs).writes, 8.0);
    }

    #[test]
    fn no_spatial_reuse_of_inputs_multiplies_dac_converts() {
        // Same array but inputs unicast to each column: DAC converts 4x.
        let h = Hierarchy::builder()
            .component(
                Component::new("buffer")
                    .with_reuse(Tensor::Inputs, Reuse::Temporal)
                    .with_reuse(Tensor::Outputs, Reuse::Temporal),
            )
            .container(Container::new("macro"))
            .component(Component::new("DAC").with_reuse(Tensor::Inputs, Reuse::NoCoalesce))
            .container(Container::new("column").with_spatial(Spatial::new(4, 1)))
            .component(Component::new("ADC").with_reuse(Tensor::Outputs, Reuse::NoCoalesce))
            .component(
                Component::new("cell")
                    .with_reuse(Tensor::Weights, Reuse::Temporal)
                    .with_spatial(Spatial::new(1, 4))
                    .with_spatial_reuse(Tensor::Outputs),
            )
            .build()
            .unwrap();
        let shape = Shape::linear(2, 4, 4).unwrap();
        let m = Mapping::new(vec![
            NodeMapping::new("buffer").with_temporal(Dim::N, 2),
            NodeMapping::new("macro"),
            NodeMapping::new("DAC"),
            NodeMapping::new("column").with_spatial(Dim::K, 4),
            NodeMapping::new("ADC"),
            NodeMapping::new("cell").with_spatial(Dim::C, 4),
        ]);
        let r = analyze(&h, shape, &m).unwrap();
        // Without multicast the DAC re-converts per column: 8 × 4.
        assert_eq!(r.actions("DAC", Tensor::Inputs).reads, 32.0);
    }

    #[test]
    fn coalescing_adder_merges_unreduced_columns() {
        // Columns mapped over C (bits of different weights summed): outputs
        // are NOT reduced in-network between columns, so the adder coalesces.
        let h = Hierarchy::builder()
            .component(
                Component::new("buffer")
                    .with_reuse(Tensor::Inputs, Reuse::Temporal)
                    .with_reuse(Tensor::Outputs, Reuse::Temporal),
            )
            .container(Container::new("macro"))
            .component(Component::new("adder").with_reuse(Tensor::Outputs, Reuse::Coalesce))
            .container(Container::new("column").with_spatial(Spatial::new(4, 1)))
            .component(Component::new("ADC").with_reuse(Tensor::Outputs, Reuse::NoCoalesce))
            .component(
                Component::new("cell")
                    .with_reuse(Tensor::Weights, Reuse::Temporal)
                    .with_spatial(Spatial::new(1, 4))
                    .with_spatial_reuse(Tensor::Outputs),
            )
            .build()
            .unwrap();
        let shape = Shape::new(2, 1, 16, 1, 1, 1, 1).unwrap(); // one output, C=16
        let m = Mapping::new(vec![
            NodeMapping::new("buffer").with_temporal(Dim::N, 2),
            NodeMapping::new("macro"),
            NodeMapping::new("adder"),
            NodeMapping::new("column").with_spatial(Dim::C, 4),
            NodeMapping::new("ADC"),
            NodeMapping::new("cell").with_spatial(Dim::C, 4),
        ]);
        let r = analyze(&h, shape, &m).unwrap();
        // 16 partials per step: 4 reduced on rows → 4 column outputs → ADC
        // converts 4 per step (8 total). The adder consumes 8 and emits 2.
        assert_eq!(r.actions("ADC", Tensor::Outputs).reads, 8.0);
        assert_eq!(r.actions("adder", Tensor::Outputs).reads, 8.0);
        assert_eq!(r.actions("adder", Tensor::Outputs).writes, 2.0);
        // Buffer receives the coalesced outputs only.
        assert_eq!(r.actions("buffer", Tensor::Outputs).writes, 2.0);
    }

    #[test]
    fn weight_refetch_follows_permutation() {
        let h = fig5_hierarchy(2, 2);
        // C=4 over 2 rows: temporal C loop needed. Order 1: C outer, N inner
        // (weights fetched once per C-tile). Order 2: N outer, C inner
        // (weights refetched every N iteration).
        let shape = Shape::linear(3, 2, 4).unwrap();
        let weights_stationary = Mapping::new(vec![
            NodeMapping::new("buffer")
                .with_temporal(Dim::C, 2)
                .with_temporal(Dim::N, 3),
            NodeMapping::new("macro"),
            NodeMapping::new("adder"),
            NodeMapping::new("DAC"),
            NodeMapping::new("column").with_spatial(Dim::K, 2),
            NodeMapping::new("ADC"),
            NodeMapping::new("cell").with_spatial(Dim::C, 2),
        ]);
        let weights_thrash = Mapping::new(vec![
            NodeMapping::new("buffer")
                .with_temporal(Dim::N, 3)
                .with_temporal(Dim::C, 2),
            NodeMapping::new("macro"),
            NodeMapping::new("adder"),
            NodeMapping::new("DAC"),
            NodeMapping::new("column").with_spatial(Dim::K, 2),
            NodeMapping::new("ADC"),
            NodeMapping::new("cell").with_spatial(Dim::C, 2),
        ]);
        let stationary = analyze(&h, shape, &weights_stationary).unwrap();
        let thrash = analyze(&h, shape, &weights_thrash).unwrap();
        // Stationary: each of the 8 weights programmed once per C-chunk: the
        // 2-row array holds C=2 × K=2 = 4 weights; 2 chunks → 8 programs.
        assert_eq!(stationary.actions("cell", Tensor::Weights).writes, 8.0);
        // Thrashing: reprogrammed for every N: 8 × 3 = 24.
        assert_eq!(thrash.actions("cell", Tensor::Weights).writes, 24.0);
        // MAC read counts are mapping-order-invariant.
        assert_eq!(
            stationary.actions("cell", Tensor::Weights).reads,
            thrash.actions("cell", Tensor::Weights).reads
        );
    }

    #[test]
    fn output_partials_bounce_without_accumulator() {
        let h = fig5_hierarchy(2, 2);
        // C=4 over 2 rows with C temporal loop OUTSIDE N: output partials
        // written to the buffer twice per output.
        let shape = Shape::linear(3, 2, 4).unwrap();
        let m = Mapping::new(vec![
            NodeMapping::new("buffer")
                .with_temporal(Dim::C, 2)
                .with_temporal(Dim::N, 3),
            NodeMapping::new("macro"),
            NodeMapping::new("adder"),
            NodeMapping::new("DAC"),
            NodeMapping::new("column").with_spatial(Dim::K, 2),
            NodeMapping::new("ADC"),
            NodeMapping::new("cell").with_spatial(Dim::C, 2),
        ]);
        let r = analyze(&h, shape, &m).unwrap();
        // 6 outputs, each updated once per C-chunk (2 chunks) = 12 writes.
        assert_eq!(r.actions("buffer", Tensor::Outputs).writes, 12.0);
    }

    #[test]
    fn padding_reduces_utilization() {
        let h = fig5_hierarchy(4, 4);
        // K=3 padded onto 4 columns.
        let shape = Shape::linear(2, 3, 4).unwrap();
        let m = simple_mapping(2, 4, 4);
        let r = analyze(&h, shape, &m).unwrap();
        assert_eq!(r.padded_macs(), 32);
        assert_eq!(r.actual_macs(), 24);
        assert!((r.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn slice_dims_multiply_converter_traffic_not_buffer_words() {
        let h = fig5_hierarchy(4, 4);
        // 8 input slices (bit-serial): Is temporal at the buffer.
        let shape = Shape::linear(2, 4, 4).unwrap().with_slices(8, 1).unwrap();
        let mut m = simple_mapping(2, 4, 4);
        m.entry_mut("buffer").unwrap().temporal.push((Dim::Is, 8));
        let r = analyze(&h, shape, &m).unwrap();
        // DAC converts one slice per row per step: 4 rows × 2 N × 8 slices.
        assert_eq!(r.actions("DAC", Tensor::Inputs).reads, 64.0);
        // Buffer still fills only 8 input WORDS from outside.
        assert_eq!(r.actions("buffer", Tensor::Inputs).writes, 8.0);
        // ADC converts multiply by slices: 4 cols × 2 N × 8 slices.
        assert_eq!(r.actions("ADC", Tensor::Outputs).reads, 64.0);
        assert_eq!(r.temporal_steps(), 16);
    }

    #[test]
    fn external_traffic_reports_unabsorbed_tensors() {
        let h = fig5_hierarchy(4, 4);
        let shape = Shape::linear(2, 4, 4).unwrap();
        let r = analyze(&h, shape, &simple_mapping(2, 4, 4)).unwrap();
        // Weights have no storage above the cells: 16 arrive externally.
        assert_eq!(r.external_traffic(Tensor::Weights), 16.0);
        // Inputs/outputs are rooted at the buffer: external = buffer fills.
        assert_eq!(r.external_traffic(Tensor::Inputs), 8.0);
    }

    #[test]
    fn spatial_utilization_counts_idle_units() {
        let h = fig5_hierarchy(8, 8); // 64 cells available
        let shape = Shape::linear(2, 4, 4).unwrap();
        let r = analyze(&h, shape, &simple_mapping(2, 4, 4)).unwrap();
        assert!((r.spatial_utilization() - 16.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_mapping_propagates_error() {
        let h = fig5_hierarchy(4, 4);
        let shape = Shape::linear(2, 4, 4).unwrap();
        let bad = Mapping::new(vec![NodeMapping::new("buffer")]);
        assert!(analyze(&h, shape, &bad).is_err());
    }
}
