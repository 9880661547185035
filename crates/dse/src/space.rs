//! Declarative design spaces: parameter axes over [`ArrayMacro`] builders.
//!
//! A [`DesignSpace`] is a cartesian grid — named macro *variants* crossed
//! with array-dimension, DAC-resolution, ADC-resolution, cell-width, and
//! non-ideality (noise-spec) axes — optionally thinned by a user filter. Every grid cell gets a
//! stable `id` (its cartesian index, assigned *before* filtering), which
//! the explorer uses for deterministic ordering and Pareto tie-breaking:
//! adding a filter never renumbers the surviving designs.

use std::sync::Arc;

use cimloop_core::{Encoding, Representation, ADC_RESOLUTION, DAC_RESOLUTION};
use cimloop_macros::ArrayMacro;
use cimloop_noise::NoiseSpec;

cimloop_spec::reflect_section! {
    /// The reflected schema of a `!Space` scenario section: the
    /// design-space axes (variants come from `!Architecture` sections,
    /// which the caller resolves) and the stage-one screening
    /// constraints.
    pub struct SpaceSection: "Space" {
        square_arrays: [list count], "array-size axis: each n builds an nxn array";
        dac_bits: [list u32 in DAC_RESOLUTION], "DAC-resolution axis, bits";
        adc_bits: [list u32 in ADC_RESOLUTION], "ADC-resolution axis, bits";
        cell_bits: [list u32], "cell bit-width axis";
        variations: [list sigma], "cell-variation sigma axis, layered onto each variant's declared noise";
        max_area_mm2: [opt f64], "stage-one screen: drop candidates whose total area exceeds this, mm2";
        min_coverage: [opt f64], "stage-one screen: drop candidates whose ADC coverage proxy falls below this, in [0, 1]";
    }
}

/// One fully-configured candidate design of a [`DesignSpace`].
#[derive(Debug, Clone)]
pub struct DesignPoint {
    id: u64,
    variant: String,
    cim_macro: ArrayMacro,
}

impl DesignPoint {
    /// The design's stable cartesian index within its space.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The name of the variant the design was derived from.
    pub fn variant(&self) -> &str {
        &self.variant
    }

    /// The configured macro.
    pub fn cim_macro(&self) -> &ArrayMacro {
        &self.cim_macro
    }

    /// Array rows.
    pub fn rows(&self) -> u64 {
        self.cim_macro.rows()
    }

    /// Array columns.
    pub fn cols(&self) -> u64 {
        self.cim_macro.cols()
    }

    /// DAC resolution, bits.
    pub fn dac_bits(&self) -> u32 {
        self.cim_macro.dac_bits()
    }

    /// ADC resolution, bits.
    pub fn adc_bits(&self) -> u32 {
        self.cim_macro.adc_bits()
    }

    /// The design's non-ideality spec (ideal unless set by the variant, a
    /// [`DesignSpace::noise_specs`] axis or a `!Space` `variations` axis).
    pub fn noise(&self) -> NoiseSpec {
        self.cim_macro.noise()
    }

    /// A compact human-readable label, e.g. `c-direct/256x256/dac2/adc8`;
    /// designs with declared noise append each nonzero sigma, e.g.
    /// `.../var0.1`, `.../rn0.005`, `.../off0.25`, so specs differing in
    /// any source stay distinguishable.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}x{}/dac{}/adc{}",
            self.variant,
            self.rows(),
            self.cols(),
            self.dac_bits(),
            self.adc_bits()
        );
        let noise = self.noise();
        if noise.cell_variation() > 0.0 {
            label.push_str(&format!("/var{}", noise.cell_variation()));
        }
        if noise.read_noise() > 0.0 {
            label.push_str(&format!("/rn{}", noise.read_noise()));
        }
        if noise.adc_offset() > 0.0 {
            label.push_str(&format!("/off{}", noise.adc_offset()));
        }
        label
    }
}

type Filter = Arc<dyn Fn(&DesignPoint) -> bool + Send + Sync>;

/// One value of the noise axis.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Noise {
    /// A whole spec that replaces the variant's ([`DesignSpace::noise_specs`]).
    Spec(NoiseSpec),
    /// A cell-variation sigma layered onto the variant's declared noise
    /// (a `!Space` `variations` axis).
    CellVariation(f64),
}

/// A declarative cartesian design space over macro builders.
///
/// Axes left empty keep the variant's own value. Iteration order (and the
/// `id` numbering) is variants-outermost:
/// `variant × array size × DAC bits × ADC bits × cell bits × noise spec`.
///
/// # Example
///
/// ```
/// use cimloop_dse::DesignSpace;
/// use cimloop_macros::base_macro;
///
/// let space = DesignSpace::new()
///     .variant("base", base_macro().uncalibrated())
///     .square_arrays([64, 128])
///     .dac_bits([1, 2]);
/// assert_eq!(space.grid_len(), 4);
/// // Ids are stable cartesian indices; `point_at` is random access.
/// let last = space.point_at(3).unwrap();
/// assert_eq!(last.rows(), 128);
/// assert_eq!(last.dac_bits(), 2);
/// assert_eq!(space.designs().len(), 4);
/// ```
#[derive(Clone, Default)]
pub struct DesignSpace {
    variants: Vec<(String, ArrayMacro)>,
    array_sizes: Vec<(u64, u64)>,
    dac_bits: Vec<u32>,
    adc_bits: Vec<u32>,
    cell_bits: Vec<u32>,
    noises: Vec<Noise>,
    filter: Option<Filter>,
    max_area_mm2: Option<f64>,
    min_coverage: Option<f64>,
}

impl std::fmt::Debug for DesignSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignSpace")
            .field(
                "variants",
                &self.variants.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .field("array_sizes", &self.array_sizes)
            .field("dac_bits", &self.dac_bits)
            .field("adc_bits", &self.adc_bits)
            .field("cell_bits", &self.cell_bits)
            .field("noises", &self.noises)
            .field("filtered", &self.filter.is_some())
            .field("max_area_mm2", &self.max_area_mm2)
            .field("min_coverage", &self.min_coverage)
            .finish()
    }
}

impl DesignSpace {
    /// An empty space (add at least one variant before exploring).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named base macro. Pass frozen macros
    /// ([`ArrayMacro::frozen`]) when the variant carries a calibration
    /// anchor: deriving candidates from one frozen base is what keeps a
    /// sweep from re-anchoring every variant to the same headline number.
    pub fn variant(mut self, name: impl Into<String>, cim_macro: ArrayMacro) -> Self {
        self.variants.push((name.into(), cim_macro));
        self
    }

    /// Adds square `n`×`n` array sizes to the array-dimension axis.
    pub fn square_arrays(mut self, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.array_sizes.extend(sizes.into_iter().map(|n| (n, n)));
        self
    }

    /// Sets the DAC-resolution axis (applied via
    /// [`ArrayMacro::with_dac_resolution`], which also picks the matching
    /// converter class).
    pub fn dac_bits(mut self, bits: impl IntoIterator<Item = u32>) -> Self {
        self.dac_bits.extend(bits);
        self
    }

    /// Sets the ADC-resolution axis.
    pub fn adc_bits(mut self, bits: impl IntoIterator<Item = u32>) -> Self {
        self.adc_bits.extend(bits);
        self
    }

    /// Sets the cell-width (weight bits per device) axis.
    pub fn cell_bits(mut self, bits: impl IntoIterator<Item = u32>) -> Self {
        self.cell_bits.extend(bits);
        self
    }

    /// Adds whole specs to the non-ideality axis (each replaces the
    /// variant's noise via [`ArrayMacro::with_noise`]) so sweeps can
    /// explore variation tolerance: how much accuracy each design gives up
    /// as its cells and converters get noisier.
    pub fn noise_specs(mut self, specs: impl IntoIterator<Item = NoiseSpec>) -> Self {
        self.noises.extend(specs.into_iter().map(Noise::Spec));
        self
    }

    /// Adds cell-variation sigmas to the non-ideality axis. Each keeps the
    /// variant's declared read noise and ADC offset
    /// ([`ArrayMacro::with_cell_variation`]), as a `!Sweep` `variations`
    /// axis does.
    fn variations(mut self, sigmas: impl IntoIterator<Item = f64>) -> Self {
        self.noises
            .extend(sigmas.into_iter().map(Noise::CellVariation));
        self
    }

    /// Parses a `!Space` scenario section's axes onto a space that already
    /// carries its variants (variants come from `!Architecture` sections,
    /// which the caller resolves — the space crate knows axes, not macro
    /// presets).
    ///
    /// Recognized keys: `square_arrays` (list of `n` for n×n arrays),
    /// `dac_bits`, `adc_bits`, `cell_bits` (bit-width lists),
    /// `variations` (cell-variation sigmas layered onto each variant's
    /// declared noise, see [`ArrayMacro::with_cell_variation`]), and the
    /// stage-one screening constraints `max_area_mm2` / `min_coverage`.
    ///
    /// # Errors
    ///
    /// Returns [`cimloop_spec::SpecError::Parse`] on unknown keys,
    /// malformed lists, or an axis that is declared but empty (an empty
    /// axis would multiply the grid down to zero candidates — the
    /// explorer refuses to "sweep" nothing, so the mistake is reported
    /// here with the axis's own line number). A `dac_bits` value outside
    /// [`DAC_RESOLUTION`], an `adc_bits` value outside [`ADC_RESOLUTION`],
    /// and a `cell_bits` value that would build a design outside `1..=16`
    /// bits are reported at their axis's line too.
    pub fn with_section(
        self,
        section: &cimloop_spec::Section,
    ) -> Result<Self, cimloop_spec::SpecError> {
        let axes = SpaceSection::decode(section)?;
        for key in [
            "square_arrays",
            "dac_bits",
            "adc_bits",
            "cell_bits",
            "variations",
        ] {
            if let Some(entry) = section.get(key) {
                if matches!(&entry.value, cimloop_spec::SpecValue::List(v) if v.is_empty()) {
                    return Err(cimloop_spec::SpecError::Parse {
                        line: entry.line,
                        message: format!(
                            "!Space axis `{key}` is declared but empty — the design grid \
                             would yield zero candidates (drop the key to use the \
                             variant's own configuration)"
                        ),
                    });
                }
            }
        }
        let mut space = self
            .square_arrays(axes.square_arrays)
            .dac_bits(axes.dac_bits)
            .adc_bits(axes.adc_bits)
            .cell_bits(axes.cell_bits)
            .variations(axes.variations);
        if let Some(cap) = axes.max_area_mm2 {
            space = space.max_area_mm2(cap);
        }
        if let Some(floor) = axes.min_coverage {
            space = space.min_coverage(floor);
        }
        // `ArrayMacro::representation` relies on valid slice widths. The
        // variants were validated when resolved and the schema bounds
        // `dac_bits`, so only a `cell_bits` value can break it: check each
        // with the bound `Representation::new` enforces (the DAC width is
        // a placeholder).
        for &cell in &space.cell_bits {
            Representation::new(Encoding::TwosComplement, Encoding::Offset, 1, cell).map_err(
                |e| cimloop_spec::SpecError::Parse {
                    line: section
                        .get("cell_bits")
                        .map_or(section.line(), |entry| entry.line),
                    message: format!("!Space axis `cell_bits`: {e}"),
                },
            )?;
        }
        Ok(space)
    }

    /// Screens out candidates whose total silicon area exceeds `cap` mm².
    /// Area is a *cheap* metric (circuit models only, no value
    /// statistics), so the explorer applies this cap before any expensive
    /// evaluation — and identically on the naive path, so constrained
    /// sweeps stay bit-identical between the two.
    pub fn max_area_mm2(mut self, cap: f64) -> Self {
        self.max_area_mm2 = Some(cap);
        self
    }

    /// Screens out candidates whose ADC-coverage accuracy proxy
    /// ([`crate::accuracy_proxy`]) falls below `floor` (in `[0, 1]`).
    /// Coverage is pure arithmetic over the macro configuration, so the
    /// screen costs nothing per candidate.
    pub fn min_coverage(mut self, floor: f64) -> Self {
        self.min_coverage = Some(floor);
        self
    }

    /// The declared stage-one area cap, mm², if any.
    pub fn area_cap(&self) -> Option<f64> {
        self.max_area_mm2
    }

    /// The declared stage-one ADC-coverage floor, if any.
    pub fn coverage_floor(&self) -> Option<f64> {
        self.min_coverage
    }

    /// Thins the grid: only designs for which `keep` returns `true` are
    /// evaluated. Ids are assigned before filtering, so they are stable
    /// across filter changes.
    pub fn filter(mut self, keep: impl Fn(&DesignPoint) -> bool + Send + Sync + 'static) -> Self {
        self.filter = Some(Arc::new(keep));
        self
    }

    /// The size of the unfiltered cartesian grid.
    pub fn grid_len(&self) -> usize {
        let axis = |len: usize| len.max(1);
        self.variants.len()
            * axis(self.array_sizes.len())
            * axis(self.dac_bits.len())
            * axis(self.adc_bits.len())
            * axis(self.cell_bits.len())
            * axis(self.noises.len())
    }

    /// Builds the design at cartesian index `id` without materializing the
    /// rest of the grid — random access for sharded and resumed sweeps.
    ///
    /// The index decomposes with the noise axis innermost and the variant
    /// axis outermost, matching [`DesignSpace::designs`] iteration order
    /// exactly. Returns `None` when the space has no variants or `id` is
    /// past the end of the grid. The user [`DesignSpace::filter`] is *not*
    /// consulted here — callers that honor filtering go through
    /// [`DesignSpace::admits`].
    pub fn point_at(&self, id: u64) -> Option<DesignPoint> {
        if self.variants.is_empty() || id as usize >= self.grid_len() {
            return None;
        }
        let sizes = axis(&self.array_sizes);
        let dacs = axis(&self.dac_bits);
        let adcs = axis(&self.adc_bits);
        let cells = axis(&self.cell_bits);
        let noises = axis(&self.noises);

        let mut rem = id as usize;
        let noise = noises[rem % noises.len()];
        rem /= noises.len();
        let cell = cells[rem % cells.len()];
        rem /= cells.len();
        let adc = adcs[rem % adcs.len()];
        rem /= adcs.len();
        let dac = dacs[rem % dacs.len()];
        rem /= dacs.len();
        let size = sizes[rem % sizes.len()];
        rem /= sizes.len();
        let (name, base) = &self.variants[rem];

        let mut m = base.clone();
        if let Some((rows, cols)) = size {
            m = m.with_array(rows, cols);
        }
        if let Some(bits) = cell {
            let dac_now = m.dac_bits();
            m = m.with_slicing(dac_now, bits);
        }
        if let Some(bits) = dac {
            m = m.with_dac_resolution(bits);
        }
        if let Some(bits) = adc {
            m = m.with_adc_bits(bits);
        }
        match noise {
            Some(Noise::Spec(spec)) => m = m.with_noise(spec),
            Some(Noise::CellVariation(sigma)) => m = m.with_cell_variation(sigma),
            None => {}
        }
        Some(DesignPoint {
            id,
            variant: name.clone(),
            cim_macro: m,
        })
    }

    /// Whether the user [`DesignSpace::filter`] keeps this design (`true`
    /// when no filter is set). Stage-one screening constraints are *not*
    /// applied here: they need an evaluator for the area metric, so the
    /// explorer owns them.
    pub fn admits(&self, point: &DesignPoint) -> bool {
        match &self.filter {
            Some(keep) => keep(point),
            None => true,
        }
    }

    /// Materializes the (filtered) candidate designs in id order.
    ///
    /// Design *points* are small configuration records — it is the
    /// evaluation *reports* that a streaming exploration avoids holding.
    pub fn designs(&self) -> Vec<DesignPoint> {
        (0..self.grid_len() as u64)
            .filter_map(|id| self.point_at(id))
            .filter(|point| self.admits(point))
            .collect()
    }

    /// A stable structural fingerprint of the space: variant names and
    /// configurations (noise included), every axis value list, and the
    /// stage-one constraints. Checkpoints embed this so a resume against a
    /// *different* space is rejected instead of silently misnumbering ids.
    ///
    /// The user [`DesignSpace::filter`] closure cannot be fingerprinted;
    /// two spaces differing only in their filter hash identically.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for (name, base) in &self.variants {
            name.hash(&mut hasher);
            base.config_fingerprint(true).hash(&mut hasher);
        }
        self.array_sizes.hash(&mut hasher);
        self.dac_bits.hash(&mut hasher);
        self.adc_bits.hash(&mut hasher);
        self.cell_bits.hash(&mut hasher);
        for noise in &self.noises {
            format!("{noise:?}").hash(&mut hasher);
        }
        self.max_area_mm2.map(f64::to_bits).hash(&mut hasher);
        self.min_coverage.map(f64::to_bits).hash(&mut hasher);
        hasher.finish()
    }
}

/// Empty axes keep the variant's own value, expressed as a single `None`
/// entry so the cartesian product stays uniform.
fn axis<T: Copy>(values: &[T]) -> Vec<Option<T>> {
    if values.is_empty() {
        vec![None]
    } else {
        values.iter().copied().map(Some).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimloop_macros::base_macro;

    fn space() -> DesignSpace {
        DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .square_arrays([64, 128])
            .dac_bits([1, 2, 4])
    }

    #[test]
    fn cartesian_grid_in_id_order() {
        let designs = space().designs();
        assert_eq!(designs.len(), 6);
        assert_eq!(space().grid_len(), 6);
        let ids: Vec<u64> = designs.iter().map(DesignPoint::id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(designs[0].rows(), 64);
        assert_eq!(designs[0].dac_bits(), 1);
        assert_eq!(designs[5].rows(), 128);
        assert_eq!(designs[5].dac_bits(), 4);
        assert_eq!(designs[3].label(), "base/128x128/dac1/adc5");
    }

    #[test]
    fn filter_keeps_ids_stable() {
        let filtered = space().filter(|d| d.dac_bits() >= 2).designs();
        assert_eq!(filtered.len(), 4);
        let ids: Vec<u64> = filtered.iter().map(DesignPoint::id).collect();
        assert_eq!(ids, vec![1, 2, 4, 5], "ids keep their unfiltered slots");
    }

    #[test]
    fn empty_axes_keep_variant_values() {
        let designs = DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .designs();
        assert_eq!(designs.len(), 1);
        assert_eq!(designs[0].rows(), base_macro().rows());
        assert_eq!(designs[0].adc_bits(), base_macro().adc_bits());
    }

    #[test]
    fn noise_axis_parameterizes_variation_tolerance() {
        let quiet = NoiseSpec::ideal();
        let noisy = NoiseSpec::new().with_cell_variation(0.1);
        let designs = DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .adc_bits([4, 8])
            .noise_specs([quiet, noisy])
            .designs();
        assert_eq!(designs.len(), 4);
        assert!(designs[0].noise().is_ideal());
        assert_eq!(designs[1].noise(), noisy);
        assert_eq!(designs[1].label(), "base/128x128/dac1/adc4/var0.1");
        assert_eq!(designs[0].label(), "base/128x128/dac1/adc4");
        // The noise axis is innermost: ids interleave specs per ADC width.
        assert!(designs[2].noise().is_ideal());
        assert_eq!(designs[2].adc_bits(), 8);
    }

    #[test]
    fn labels_distinguish_every_noise_source() {
        let specs = [
            NoiseSpec::new().with_read_noise(0.005),
            NoiseSpec::new().with_read_noise(0.02),
            NoiseSpec::new().with_adc_offset(0.25),
            NoiseSpec::new()
                .with_cell_variation(0.1)
                .with_read_noise(0.01),
        ];
        let designs = DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .noise_specs(specs)
            .designs();
        let labels: Vec<String> = designs.iter().map(DesignPoint::label).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b, "noise specs must not collide in labels");
            }
        }
        assert_eq!(labels[0], "base/128x128/dac1/adc5/rn0.005");
        assert_eq!(labels[2], "base/128x128/dac1/adc5/off0.25");
        assert_eq!(labels[3], "base/128x128/dac1/adc5/var0.1/rn0.01");
    }

    #[test]
    fn section_axes_match_programmatic_axes() {
        let doc = cimloop_spec::ScenarioDoc::parse(
            "!Scenario\nname: s\n!Space\nsquare_arrays: [64, 128]\ndac_bits: [1, 2, 4]\n",
        )
        .unwrap();
        let from_spec = DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .with_section(doc.section("Space").unwrap())
            .unwrap();
        let programmatic = space();
        let a = from_spec.designs();
        let b = programmatic.designs();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id(), y.id());
            assert_eq!(x.label(), y.label());
        }
    }

    #[test]
    fn section_variations_build_a_noise_axis() {
        let doc = cimloop_spec::ScenarioDoc::parse(
            "!Scenario\nname: s\n!Space\nvariations: [0.0, 0.1]\n",
        )
        .unwrap();
        let designs = DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .with_section(doc.section("Space").unwrap())
            .unwrap()
            .designs();
        assert_eq!(designs.len(), 2);
        assert!(designs[0].noise().is_ideal());
        assert_eq!(designs[1].noise().cell_variation(), 0.1);
    }

    #[test]
    fn variations_keep_the_variants_declared_noise() {
        // A swept sigma replaces only the cell variation: the variant's
        // read noise and ADC offset stay, as they do under `!Sweep`.
        let declared = NoiseSpec::new().with_read_noise(0.02).with_adc_offset(0.5);
        let doc = cimloop_spec::ScenarioDoc::parse(
            "!Scenario\nname: s\n!Space\nvariations: [0.0, 0.1]\n",
        )
        .unwrap();
        let space = DesignSpace::new()
            .variant("base", base_macro().uncalibrated().with_noise(declared))
            .with_section(doc.section("Space").unwrap())
            .unwrap();
        let designs = space.designs();
        assert_eq!(designs[0].noise(), declared);
        assert_eq!(designs[1].noise(), declared.with_cell_variation(0.1));
        assert_eq!(
            designs[1].label(),
            "base/128x128/dac1/adc5/var0.1/rn0.02/off0.5"
        );
        // A whole-spec axis still replaces, and the fingerprint tells the
        // two axes apart.
        let replaced = DesignSpace::new()
            .variant("base", base_macro().uncalibrated().with_noise(declared))
            .noise_specs([0.0, 0.1].map(|s| NoiseSpec::new().with_cell_variation(s)));
        assert!(replaced.designs()[0].noise().is_ideal());
        assert_ne!(replaced.fingerprint(), space.fingerprint());
    }

    #[test]
    fn section_unknown_axis_is_an_error() {
        let doc = cimloop_spec::ScenarioDoc::parse(
            "!Scenario\nname: s\n!Space\nsquare_array: [64]\n", // sic
        )
        .unwrap();
        assert!(DesignSpace::new()
            .variant("base", base_macro().uncalibrated())
            .with_section(doc.section("Space").unwrap())
            .is_err());
    }

    #[test]
    fn dac_axis_swaps_converter_class() {
        let designs = space().designs();
        let h1 = designs[0].cim_macro().hierarchy().unwrap();
        assert_eq!(h1.component("dac").unwrap().class(), "pulse_driver");
        let h4 = designs[2].cim_macro().hierarchy().unwrap();
        assert_eq!(h4.component("dac").unwrap().class(), "capacitive_dac");
    }
}
