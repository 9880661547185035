//! The data-value-dependent pipeline (paper §III-C): derives, for every
//! component, the distribution of values it propagates.
//!
//! Steps (per layer):
//!
//! 1. Workload operand distributions (from the workload substrate).
//! 2. Encoding and slicing (via [`crate::Encoding`] /
//!    [`crate::Representation`]): word-level level streams and per-slice
//!    distributions.
//! 3. Analog column sums: the distribution of the value an ADC / analog
//!    adder / accumulator reads is the `rows`-fold convolution of the
//!    slice-product distribution, where `rows` is the in-network reduction
//!    width of the architecture (mapping-invariant, paper §III-D3).
//!
//! The per-tensor independence assumption (paper §III-D1) is what the
//! value-exact simulator quantifies in Fig 6.

use std::collections::BTreeMap;
use std::sync::Arc;

use cimloop_circuits::ValueContext;
use cimloop_noise::{NoiseAnalysis, NoiseSpec};
use cimloop_spec::{Component, Hierarchy, Reuse, Tensor};
use cimloop_stats::{Pmf, Rung};
use cimloop_workload::Layer;

use crate::{CoreError, EncodedStream, Representation};

/// Support cap for intermediate convolution results.
const SUM_SUPPORT: usize = 512;

/// Component classes that compute MACs against a stored operand.
const CELL_CLASSES: [&str; 3] = ["sram_cim_cell", "reram_cim_cell", "c2c_mac"];

/// The in-network output-reduction width of `hierarchy`: the product of
/// mesh fanouts of nodes that spatially reduce outputs (typically the
/// array rows). An architectural constant, which keeps per-action energy
/// mapping-invariant.
pub fn reduction_rows_of(hierarchy: &Hierarchy) -> u64 {
    hierarchy
        .nodes()
        .iter()
        .filter(|n| n.spatial_reuse(Tensor::Outputs))
        .map(|n| n.spatial().fanout())
        .product::<u64>()
        .max(1)
}

/// The hierarchy-independent prefix of the data-value-dependent pipeline:
/// encoded operand streams, slice streams, and the raw column-sum
/// distribution over a given reduction width.
///
/// Everything here depends only on the layer's value-relevant fields, the
/// [`Representation`], and `reduction_rows` — not on which components the
/// hierarchy contains, their classes, or their resolutions. Two hierarchies
/// with equal reduction width (e.g. two candidate designs in a sweep that
/// differ only in ADC resolution, output-combining topology, cell
/// technology, or column count) share these statistics bit-for-bit, which
/// is what makes cross-design amortization in a design-space exploration
/// sound. The column-sum convolution dominates the whole evaluation cost,
/// so sharing it is where network- and sweep-scale speedups come from.
///
/// The width-independent half ([`OperandStats`]) sits behind one [`Arc`],
/// and the column sum keeps the last [`Rung`] of its squaring ladder. A
/// wider reduction that the rung's width divides continues that ladder,
/// sharing the half ([`crate::EnergyTableCache::value_stats`]), so
/// designs whose widths differ by a power of two (128 and 512 rows)
/// share the ladder too.
#[derive(Debug, Clone)]
pub struct ValueStats {
    operands: Arc<OperandStats>,
    /// Raw (unnormalized) column-sum distribution over `reduction_rows`.
    sum: Pmf,
    /// The last rung of the ladder `sum` was summed from.
    rung: Rung,
    reduction_rows: u64,
}

impl ValueStats {
    /// Computes the statistics of `layer` under `rep` for a hierarchy whose
    /// output-reduction width is `reduction_rows`.
    ///
    /// This is the single code path for these values: cached and uncached
    /// evaluations both call it, and a resumed ladder takes the same steps
    /// from a narrower width's rung, so shared statistics are
    /// bit-identical to freshly computed ones.
    ///
    /// # Errors
    ///
    /// Propagates distribution and encoding errors.
    pub fn compute(
        layer: &Layer,
        rep: &Representation,
        reduction_rows: u64,
    ) -> Result<Self, CoreError> {
        let (operands, product) = OperandStats::with_product(layer, rep)?;
        let stats = Self::climb(Arc::new(operands), Rung::base(product), reduction_rows);
        Ok(stats.expect("rung 0's width, 1, divides every reduction width"))
    }

    /// The statistics at `reduction_rows`, climbing on from this column
    /// sum's last rung and sharing its [`OperandStats`]: bit-identical to
    /// [`Self::compute`] at that width, at the cost of only the squarings
    /// past this rung. `None` when the rung's width does not divide
    /// `reduction_rows` (at 96 rows the last rung sums 64, so 192 rows
    /// resume from it and 160 do not).
    pub(crate) fn resume(&self, reduction_rows: u64) -> Option<Self> {
        Self::climb(
            Arc::clone(&self.operands),
            self.rung.clone(),
            reduction_rows,
        )
    }

    fn climb(operands: Arc<OperandStats>, rung: Rung, reduction_rows: u64) -> Option<Self> {
        let reduction_rows = reduction_rows.max(1);
        // The column sum: the slice product summed over the reduction rows.
        let (sum, rung) = rung.climb(reduction_rows, SUM_SUPPORT)?;
        Some(ValueStats {
            operands,
            sum,
            rung,
            reduction_rows,
        })
    }

    /// The reduction width the column sum was convolved over.
    pub fn reduction_rows(&self) -> u64 {
        self.reduction_rows
    }

    /// The raw column-sum distribution (before per-resolution
    /// normalization).
    pub fn sum(&self) -> &Pmf {
        &self.sum
    }

    /// The largest possible raw column sum (the normalization and ADC
    /// full scale).
    pub fn sum_max(&self) -> f64 {
        self.operands.sum_max(self.reduction_rows)
    }

    /// `E[p²]` of one slice-granular analog product (one cell's
    /// contribution to the column sum).
    pub fn product_second_moment(&self) -> f64 {
        self.operands.product_sq_mean
    }

    /// Average input slice stream (what a DAC drives onto one row).
    pub fn input_slice(&self) -> &EncodedStream {
        &self.operands.input_slice
    }

    /// Average weight slice stream (what one cell stores).
    pub fn weight_slice(&self) -> &EncodedStream {
        &self.operands.weight_slice
    }
}

/// The half of [`ValueStats`] that no reduction width changes: the
/// operands' encoded word and slice streams, and what one row's slice
/// product contributes to a column sum.
#[derive(Debug)]
pub struct OperandStats {
    input_word: EncodedStream,
    weight_word: EncodedStream,
    input_slice: EncodedStream,
    weight_slice: EncodedStream,
    /// `E[p²]` of one slice-granular product — what one cell contributes
    /// to the column sum; programming-variation noise scales with it.
    product_sq_mean: f64,
    /// The largest slice product: one row's share of the full scale.
    row_max: f64,
}

impl OperandStats {
    /// Encodes and slices `layer`'s operands under `rep`.
    ///
    /// # Errors
    ///
    /// Propagates distribution and encoding errors.
    pub fn new(layer: &Layer, rep: &Representation) -> Result<Self, CoreError> {
        Ok(Self::with_product(layer, rep)?.0)
    }

    /// [`Self::new`], and the distribution of one slice-granular analog
    /// MAC product: the base of the column sum's ladder.
    fn with_product(layer: &Layer, rep: &Representation) -> Result<(Self, Pmf), CoreError> {
        let input_encoded = rep.input_encoding().encode(
            &layer.input_pmf()?,
            layer.input_bits(),
            layer.input_signed(),
        )?;
        let weight_encoded = rep.weight_encoding().encode(
            &layer.weight_pmf()?,
            layer.weight_bits(),
            layer.weight_signed(),
        )?;
        let input_word = input_encoded.mixed();
        let weight_word = weight_encoded.mixed();
        let input_slice = input_word.average_slice(rep.dac_bits());
        let weight_slice = weight_word.average_slice(rep.cell_bits());
        let product = input_slice
            .pmf()
            .product(weight_slice.pmf())
            .coarsen(SUM_SUPPORT);
        let operands = OperandStats {
            input_word,
            weight_word,
            input_slice,
            weight_slice,
            product_sq_mean: product.second_moment(),
            row_max: slice_max(rep.dac_bits()) * slice_max(rep.cell_bits()),
        };
        Ok((operands, product))
    }

    /// The largest possible raw column sum over `reduction_rows` rows.
    pub fn sum_max(&self, reduction_rows: u64) -> f64 {
        self.row_max * reduction_rows as f64
    }

    /// Average input slice stream (what a DAC drives onto one row).
    pub fn input_slice(&self) -> &EncodedStream {
        &self.input_slice
    }

    /// Average weight slice stream (what one cell stores).
    pub fn weight_slice(&self) -> &EncodedStream {
        &self.weight_slice
    }
}

/// Per-layer value distributions for every component of a hierarchy.
#[derive(Debug, Clone)]
pub struct Pipeline {
    stats: Arc<ValueStats>,
    /// Normalized column-sum distribution per output-component width.
    sums_by_bits: BTreeMap<u32, Pmf>,
}

impl Pipeline {
    /// Builds the pipeline for `layer` represented per `rep` on `hierarchy`.
    ///
    /// # Errors
    ///
    /// Propagates distribution and encoding errors.
    pub fn new(
        hierarchy: &Hierarchy,
        layer: &Layer,
        rep: &Representation,
    ) -> Result<Self, CoreError> {
        let reduction_rows = reduction_rows_of(hierarchy);
        let stats = Arc::new(ValueStats::compute(layer, rep, reduction_rows)?);
        Ok(Self::from_stats(hierarchy, stats))
    }

    /// Builds the pipeline from precomputed (possibly shared)
    /// [`ValueStats`]: only the cheap per-resolution normalization of the
    /// column sum remains hierarchy-specific.
    pub fn from_stats(hierarchy: &Hierarchy, stats: Arc<ValueStats>) -> Self {
        // Pre-normalize the sum for every output-side resolution present in
        // the hierarchy.
        let mut sums_by_bits = BTreeMap::new();
        for component in hierarchy.components() {
            if component.reuse(Tensor::Outputs).is_active() {
                let bits = output_bits(component);
                sums_by_bits
                    .entry(bits)
                    .or_insert_with(|| normalize_sum(&stats.sum, stats.sum_max(), bits));
            }
        }
        // Always provide an 8-bit view for callers outside the hierarchy.
        sums_by_bits
            .entry(8)
            .or_insert_with(|| normalize_sum(&stats.sum, stats.sum_max(), 8));

        Pipeline {
            stats,
            sums_by_bits,
        }
    }

    /// The in-network output-reduction width used for column sums.
    pub fn reduction_rows(&self) -> u64 {
        self.stats.reduction_rows
    }

    /// Word-level encoded input stream.
    pub fn input_word(&self) -> &EncodedStream {
        &self.stats.operands.input_word
    }

    /// Word-level encoded weight stream.
    pub fn weight_word(&self) -> &EncodedStream {
        &self.stats.operands.weight_word
    }

    /// Average input slice stream (what a DAC sees).
    pub fn input_slice(&self) -> &EncodedStream {
        self.stats.input_slice()
    }

    /// Average weight slice stream (what a cell stores).
    pub fn weight_slice(&self) -> &EncodedStream {
        self.stats.weight_slice()
    }

    /// The column-sum distribution normalized to `bits` (what an ADC of
    /// that resolution reads). Falls back to the 8-bit view for widths not
    /// present in the hierarchy.
    pub fn column_sum(&self, bits: u32) -> &Pmf {
        self.sums_by_bits
            .get(&bits)
            .or_else(|| self.sums_by_bits.get(&8))
            .expect("8-bit view always present")
    }

    /// Composes the statistical non-ideality transforms into the
    /// pipeline *after* the column-sum convolution: the raw column sum is
    /// perturbed by the spec's (input-referred, data-value-scaled)
    /// Gaussian sources and passed through the output converter's
    /// clamp-and-quantize transfer, yielding the output-error
    /// distribution and the derived SNR/ENOB accuracy metrics.
    ///
    /// `adc_bits` is the output converter resolution, or `None` for
    /// digital readout (no quantization). Deterministic: equal pipelines
    /// and specs give bit-identical analyses.
    pub fn noise_analysis(&self, spec: &NoiseSpec, adc_bits: Option<u32>) -> NoiseAnalysis {
        let stats = &*self.stats;
        NoiseAnalysis::analyze(
            &stats.sum,
            stats.sum_max(),
            stats.reduction_rows,
            stats.product_second_moment(),
            adc_bits,
            spec,
        )
    }

    /// The value context `component` sees when acting on `tensor`
    /// (paper §III-C1c: each component uses the distributions differently).
    pub fn context_for(&self, component: &Component, tensor: Tensor) -> ValueContext<'_> {
        let stats = &*self.stats.operands;
        match tensor {
            Tensor::Inputs => {
                if is_word_storage(component) {
                    ValueContext::driven(stats.input_word.pmf(), stats.input_word.bits())
                } else {
                    ValueContext::driven(stats.input_slice.pmf(), stats.input_slice.bits())
                }
            }
            Tensor::Weights => {
                if CELL_CLASSES.contains(&component.class()) {
                    ValueContext::cell(
                        stats.input_slice.pmf(),
                        stats.input_slice.bits(),
                        stats.weight_slice.pmf(),
                        stats.weight_slice.bits(),
                    )
                } else if is_word_storage(component) {
                    ValueContext::driven(stats.weight_word.pmf(), stats.weight_word.bits())
                } else {
                    ValueContext::driven(stats.weight_slice.pmf(), stats.weight_slice.bits())
                }
            }
            Tensor::Outputs => {
                let bits = output_bits(component);
                ValueContext::driven(self.column_sum(bits), bits)
            }
        }
    }
}

fn slice_max(bits: u32) -> f64 {
    ((1u64 << bits) - 1) as f64
}

fn output_bits(component: &Component) -> u32 {
    component
        .attributes()
        .int("resolution")
        .or_else(|| component.attributes().int("bits"))
        .unwrap_or(8)
        .clamp(1, 16) as u32
}

fn is_word_storage(component: &Component) -> bool {
    let temporal = Tensor::ALL
        .iter()
        .any(|&t| component.reuse(t) == Reuse::Temporal);
    temporal
        && !component
            .attributes()
            .bool("slice_storage")
            .unwrap_or(false)
}

fn normalize_sum(sum: &Pmf, sum_max: f64, bits: u32) -> Pmf {
    let target_max = slice_max(bits);
    if sum_max <= 0.0 {
        return Pmf::delta(0.0).expect("0 is finite");
    }
    sum.map(|v| (v / sum_max * target_max).round().clamp(0.0, target_max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoding;
    use cimloop_spec::{Component, Container, Hierarchy, Spatial};
    use cimloop_workload::{LayerKind, Shape, ValueProfile};

    fn hierarchy(rows: u64) -> Hierarchy {
        Hierarchy::builder()
            .component(
                Component::new("buffer")
                    .with_class("sram_buffer")
                    .with_reuse(Tensor::Inputs, Reuse::Temporal)
                    .with_reuse(Tensor::Outputs, Reuse::Temporal),
            )
            .container(Container::new("macro"))
            .component(
                Component::new("DAC")
                    .with_class("dac")
                    .with_reuse(Tensor::Inputs, Reuse::NoCoalesce),
            )
            .container(
                Container::new("column")
                    .with_spatial(Spatial::new(4, 1))
                    .with_spatial_reuse(Tensor::Inputs),
            )
            .component(
                Component::new("ADC")
                    .with_class("sar_adc")
                    .with_attr("resolution", 6i64)
                    .with_reuse(Tensor::Outputs, Reuse::NoCoalesce),
            )
            .component(
                Component::new("cell")
                    .with_class("sram_cim_cell")
                    .with_attr("slice_storage", true)
                    .with_spatial(Spatial::new(1, rows))
                    .with_reuse(Tensor::Weights, Reuse::Temporal)
                    .with_spatial_reuse(Tensor::Outputs),
            )
            .build()
            .unwrap()
    }

    fn layer() -> Layer {
        Layer::new("l", LayerKind::Linear, Shape::linear(4, 16, 16).unwrap())
            .with_input_profile(ValueProfile::ReluActivations {
                sparsity: 0.5,
                sigma: 0.2,
            })
            .with_weight_profile(ValueProfile::GaussianWeights { sigma: 0.15 })
    }

    fn rep() -> Representation {
        Representation::new(Encoding::TwosComplement, Encoding::Offset, 1, 4).unwrap()
    }

    #[test]
    fn reduction_rows_from_architecture() {
        let p = Pipeline::new(&hierarchy(16), &layer(), &rep()).unwrap();
        assert_eq!(p.reduction_rows(), 16);
    }

    #[test]
    fn slice_streams_have_requested_widths() {
        let p = Pipeline::new(&hierarchy(16), &layer(), &rep()).unwrap();
        assert_eq!(p.input_slice().bits(), 1);
        assert_eq!(p.weight_slice().bits(), 4);
        assert!(p.input_slice().pmf().max() <= 1.0);
        assert!(p.weight_slice().pmf().max() <= 15.0);
    }

    #[test]
    fn column_sum_normalized_to_component_resolution() {
        let p = Pipeline::new(&hierarchy(16), &layer(), &rep()).unwrap();
        let sum6 = p.column_sum(6);
        assert!(sum6.max() <= 63.0);
        assert!(sum6.min() >= 0.0);
    }

    #[test]
    fn sparse_inputs_yield_small_sums() {
        let sparse_layer = layer().with_input_profile(ValueProfile::ReluActivations {
            sparsity: 0.9,
            sigma: 0.1,
        });
        let dense_layer = layer().with_input_profile(ValueProfile::UniformUnsigned);
        let p_sparse = Pipeline::new(&hierarchy(16), &sparse_layer, &rep()).unwrap();
        let p_dense = Pipeline::new(&hierarchy(16), &dense_layer, &rep()).unwrap();
        assert!(p_sparse.column_sum(8).mean() < p_dense.column_sum(8).mean());
    }

    #[test]
    fn contexts_route_the_right_distributions() {
        let h = hierarchy(16);
        let p = Pipeline::new(&h, &layer(), &rep()).unwrap();

        // The DAC sees input slices (1-bit here).
        let dac_ctx = p.context_for(h.component("DAC").unwrap(), Tensor::Inputs);
        assert_eq!(dac_ctx.bits, 1);

        // The buffer sees whole words.
        let buf_ctx = p.context_for(h.component("buffer").unwrap(), Tensor::Inputs);
        assert_eq!(buf_ctx.bits, 8);

        // The cell sees both operands.
        let cell_ctx = p.context_for(h.component("cell").unwrap(), Tensor::Weights);
        assert!(cell_ctx.driven.is_some());
        assert!(cell_ctx.stored.is_some());
        assert_eq!(cell_ctx.stored_bits, 4);

        // The ADC sees the 6-bit-normalized column sum.
        let adc_ctx = p.context_for(h.component("ADC").unwrap(), Tensor::Outputs);
        assert_eq!(adc_ctx.bits, 6);
        assert!(adc_ctx.driven.unwrap().max() <= 63.0);
    }

    #[test]
    fn noise_analysis_composes_after_column_sum() {
        let p = Pipeline::new(&hierarchy(64), &layer(), &rep()).unwrap();
        // Quantization-limited accuracy at the hierarchy's 6-bit ADC.
        let clean = p.noise_analysis(&NoiseSpec::ideal(), Some(6));
        // Adding programming variation can only lose fidelity.
        let noisy = p.noise_analysis(&NoiseSpec::new().with_cell_variation(0.2), Some(6));
        assert!(noisy.snr_db() < clean.snr_db());
        assert!(noisy.enob() <= clean.enob());
        // Digital readout with an ideal spec has zero output error.
        let digital = p.noise_analysis(&NoiseSpec::ideal(), None);
        assert_eq!(digital.noise_power(), 0.0);
    }

    /// Every value `stats` hands out, as bits.
    fn bits(stats: &ValueStats) -> Vec<u64> {
        let pmfs = [
            stats.sum(),
            stats.input_slice().pmf(),
            stats.weight_slice().pmf(),
        ];
        let points = pmfs.into_iter().flat_map(|pmf| pmf.iter());
        points
            .flat_map(|(v, p)| [v.to_bits(), p.to_bits()])
            .chain([stats.sum_max(), stats.product_second_moment()].map(f64::to_bits))
            .collect()
    }

    #[test]
    fn a_miss_resumes_the_ladder_of_a_narrower_width() {
        let (l, r) = (layer(), rep());
        let cache = crate::EnergyTableCache::new();
        let narrow = cache.value_stats(&l, &r, 128).unwrap();
        let wide = cache.value_stats(&l, &r, 512).unwrap();
        assert!(
            Arc::ptr_eq(&narrow.operands, &wide.operands),
            "512 rows continue the 128-row ladder"
        );
        assert_eq!(
            bits(&wide),
            bits(&ValueStats::compute(&l, &r, 512).unwrap())
        );
        // The peek at 256 rows and the resume count no hit.
        assert_eq!((cache.stats_hits(), cache.stats_misses()), (0, 2));
    }

    #[test]
    fn a_miss_resumes_only_a_rung_that_divides_its_width() {
        let (l, r) = (layer(), rep());
        // 80 rows end their ladder at rung 6 (64 rows), which 160 rows
        // never pass: 160 computes afresh.
        let cache = crate::EnergyTableCache::new();
        let eighty = cache.value_stats(&l, &r, 80).unwrap();
        let fresh = cache.value_stats(&l, &r, 160).unwrap();
        assert!(!Arc::ptr_eq(&eighty.operands, &fresh.operands));
        assert_eq!(
            bits(&fresh),
            bits(&ValueStats::compute(&l, &r, 160).unwrap())
        );
        // With 40 rows (rung 5, 32 rows) held too, 160 resumes from 40.
        let cache = crate::EnergyTableCache::new();
        cache.value_stats(&l, &r, 80).unwrap();
        let forty = cache.value_stats(&l, &r, 40).unwrap();
        let resumed = cache.value_stats(&l, &r, 160).unwrap();
        assert!(Arc::ptr_eq(&forty.operands, &resumed.operands));
        assert_eq!(bits(&resumed), bits(&fresh));
    }

    #[test]
    fn wider_reduction_shifts_sum_distribution() {
        let few = Pipeline::new(&hierarchy(4), &layer(), &rep()).unwrap();
        let many = Pipeline::new(&hierarchy(256), &layer(), &rep()).unwrap();
        // Relative to full scale, more rows concentrate the normalized sum
        // (averaging effect) — the distributions must differ.
        let d = few.column_sum(8).total_variation(many.column_sum(8));
        assert!(d > 0.05, "distributions too similar: {d}");
    }
}
