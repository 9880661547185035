use cimloop_core::{CoreError, Encoding, Evaluator, Representation};
use cimloop_noise::NoiseSpec;
use cimloop_spec::{AttrValue, Component, Container, Hierarchy, Reuse, Spatial, Tensor};

use crate::calibrate;
use crate::reference::Anchor;

/// How a macro combines analog outputs beyond the in-array row sum
/// (the ADC-energy-reduction strategies of the paper's Fig 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputCombine {
    /// Rows sum on the bitline; one ADC per column (the base macro and
    /// Macro D).
    None,
    /// Outputs of `columns_per_group` adjacent columns (holding bits of
    /// *different* weights) sum on wires before one shared ADC (Macro A).
    WireSum {
        /// Columns sharing one output/ADC.
        columns_per_group: u64,
    },
    /// An analog adder sums `operands` adjacent columns holding different
    /// bits of the *same* weight before one shared ADC (Macro B).
    AnalogAdder {
        /// Analog operands per adder.
        operands: u32,
    },
    /// An analog accumulator integrates column outputs across input-bit
    /// cycles; the ADC converts once per accumulated group (Macro C).
    AnalogAccumulator,
}

/// A configurable CiM macro: array geometry, converters, data
/// representation, and output-combining strategy.
///
/// Builders return `self` so configurations chain; see the crate-level
/// constructors ([`crate::macro_a`] …) for the published configurations.
#[derive(Debug, Clone)]
pub struct ArrayMacro {
    name: String,
    node_nm: f64,
    rows: u64,
    cols: u64,
    adc_bits: u32,
    adc_rate: f64,
    dac_class: String,
    cell_class: String,
    dac_bits: u32,
    cell_bits: u32,
    input_encoding: Encoding,
    weight_encoding: Encoding,
    combine: OutputCombine,
    digital_readout: bool,
    storage_banks: u64,
    supply_voltage: Option<f64>,
    buffer_entries: u64,
    energy_scale: f64,
    latency_scale: f64,
    component_energy: Vec<(String, f64)>,
    component_area: Vec<(String, f64)>,
    calibration: Option<Anchor>,
    noise: NoiseSpec,
    attr_pins: Vec<(String, String, AttrValue)>,
}

impl ArrayMacro {
    /// Creates an uncalibrated macro with sensible defaults.
    pub fn new(name: impl Into<String>, node_nm: f64, rows: u64, cols: u64) -> Self {
        ArrayMacro {
            name: name.into(),
            node_nm,
            rows: rows.max(1),
            cols: cols.max(1),
            adc_bits: 8,
            adc_rate: 100e6,
            dac_class: "pulse_driver".to_owned(),
            cell_class: "sram_cim_cell".to_owned(),
            dac_bits: 1,
            cell_bits: 1,
            input_encoding: Encoding::TwosComplement,
            weight_encoding: Encoding::Offset,
            combine: OutputCombine::None,
            digital_readout: false,
            storage_banks: 1,
            supply_voltage: None,
            buffer_entries: 65536,
            energy_scale: 1.0,
            latency_scale: 1.0,
            component_energy: Vec::new(),
            component_area: Vec::new(),
            calibration: None,
            noise: NoiseSpec::ideal(),
            attr_pins: Vec::new(),
        }
    }

    /// Pins one component attribute to an exact value, applied *after* all
    /// derived attributes. This is how [`Self::from_hierarchy`] reproduces
    /// imported hierarchies bit-exactly (e.g. the per-component
    /// `energy_scale` left behind by a frozen calibration), without
    /// round-tripping the value through a scale factorization that could
    /// perturb its last bit. Pins are exact: they do not track later
    /// geometry changes ([`Self::with_array`] etc.), so prefer the typed
    /// builders for anything you intend to sweep.
    pub fn with_pinned_attr(
        mut self,
        component: &str,
        attr: &str,
        value: impl Into<AttrValue>,
    ) -> Self {
        self.attr_pins
            .push((component.to_owned(), attr.to_owned(), value.into()));
        self
    }

    /// Declares the macro's statistical non-idealities (cell
    /// programming variation, column read noise, ADC offset). The spec is
    /// attached to the hierarchy as `noise_*` component attributes — the
    /// cells carry the variation, the ADC carries read noise and offset —
    /// so it survives spec serialization and reaches the evaluator's
    /// accuracy model. An ideal spec attaches nothing: the hierarchy (and
    /// every evaluation result) is bit-identical to a noise-free build.
    pub fn with_noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the cell-variation sigma and keeps the rest of the declared
    /// noise (read noise, ADC offset). This is what a swept `variations`
    /// axis means, in `!Sweep` and `!Space` alike.
    pub fn with_cell_variation(self, sigma: f64) -> Self {
        let noise = self.noise.with_cell_variation(sigma);
        self.with_noise(noise)
    }

    /// Applies a per-component energy multiplier (the paper's component
    /// calibration: each component's energy is matched to published
    /// values).
    pub fn with_component_energy(mut self, component: &str, scale: f64) -> Self {
        self.component_energy.push((component.to_owned(), scale));
        self
    }

    /// Applies a per-component area multiplier.
    pub fn with_component_area(mut self, component: &str, scale: f64) -> Self {
        self.component_area.push((component.to_owned(), scale));
        self
    }

    /// Sets the memory-cell component class.
    pub fn with_cell_class(mut self, class: &str) -> Self {
        self.cell_class = class.to_owned();
        self
    }

    /// Sets the input-converter component class.
    pub fn with_dac_class(mut self, class: &str) -> Self {
        self.dac_class = class.to_owned();
        self
    }

    /// Sets ADC resolution and conversion rate.
    pub fn with_adc(mut self, bits: u32, rate: f64) -> Self {
        self.adc_bits = bits;
        self.adc_rate = rate;
        self
    }

    /// Sets only the ADC resolution (architecture sweeps).
    pub fn with_adc_bits(mut self, bits: u32) -> Self {
        self.adc_bits = bits;
        self
    }

    /// Sets the input/weight slice widths (DAC bits and cell bits).
    pub fn with_slicing(mut self, dac_bits: u32, cell_bits: u32) -> Self {
        self.dac_bits = dac_bits;
        self.cell_bits = cell_bits;
        self
    }

    /// Sets the DAC resolution alone (keeping the cell width) and picks the
    /// matching converter class: multi-bit inputs need a real capacitive
    /// DAC, 1-bit inputs use pulse drivers as in the published chips. This
    /// is the circuits axis of Fig 2b, packaged for design sweeps.
    pub fn with_dac_resolution(mut self, dac_bits: u32) -> Self {
        self.dac_bits = dac_bits.max(1);
        self.dac_class = if self.dac_bits > 1 {
            "capacitive_dac".to_owned()
        } else {
            "pulse_driver".to_owned()
        };
        self
    }

    /// Sets the operand encodings.
    pub fn with_encodings(mut self, input: Encoding, weight: Encoding) -> Self {
        self.input_encoding = input;
        self.weight_encoding = weight;
        self
    }

    /// Sets the output-combining strategy.
    pub fn with_output_combine(mut self, combine: OutputCombine) -> Self {
        self.combine = combine;
        self
    }

    /// Replaces ADC readout with a digital adder tree (digital CiM).
    pub fn with_digital_readout(mut self) -> Self {
        self.digital_readout = true;
        self
    }

    /// Extra weight-storage banks counted as array area but not compute
    /// parallelism (Macro D's 512-row array with a 64-row active subset).
    pub fn with_storage_banks(mut self, banks: u64) -> Self {
        self.storage_banks = banks.max(1);
        self
    }

    /// Overrides the supply voltage (energy ∝ V², alpha-power-law delay).
    pub fn with_supply_voltage(mut self, volts: f64) -> Self {
        self.supply_voltage = Some(volts);
        self
    }

    /// Clears any supply override (back to the node nominal).
    pub fn at_nominal_voltage(mut self) -> Self {
        self.supply_voltage = None;
        self
    }

    /// Resizes the array.
    pub fn with_array(mut self, rows: u64, cols: u64) -> Self {
        self.rows = rows.max(1);
        self.cols = cols.max(1);
        self
    }

    /// Moves the macro to a different process node (cross-macro studies).
    pub fn with_node(mut self, node_nm: f64) -> Self {
        self.node_nm = node_nm;
        self
    }

    /// Sets the I/O buffer capacity in words.
    pub fn with_buffer_entries(mut self, entries: u64) -> Self {
        self.buffer_entries = entries.max(1);
        self
    }

    /// Attaches a calibration anchor: the evaluator scales component
    /// energy/latency so the macro reproduces the anchor's published
    /// TOPS/W and GOPS at the anchor operating point.
    pub fn with_calibration(mut self, anchor: Anchor) -> Self {
        self.calibration = Some(anchor);
        self
    }

    /// Removes calibration (raw analytical models).
    pub fn uncalibrated(mut self) -> Self {
        self.calibration = None;
        self
    }

    /// Freezes calibration: computes the energy/latency scales at the
    /// *current* (published default) configuration once and bakes them in
    /// as plain multipliers, dropping the anchor. Manual
    /// [`Self::with_scales`] multipliers multiply in, as in
    /// [`Self::evaluator`].
    ///
    /// Design sweeps must derive every candidate from one frozen base:
    /// re-anchoring each variant to the same headline number would erase
    /// exactly the differences under study, and freezing once also makes
    /// calibration cost independent of sweep size.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors. A macro without an anchor is
    /// returned unchanged.
    pub fn frozen(&self) -> Result<Self, CoreError> {
        match self.calibration {
            Some(anchor) => {
                let (e, l) = calibrate::calibrate(self, anchor)?;
                Ok(self
                    .clone()
                    .uncalibrated()
                    .with_scales(self.energy_scale * e, self.latency_scale * l))
            }
            None => Ok(self.clone()),
        }
    }

    /// Applies explicit energy/latency multipliers (used internally by
    /// calibration; exposed for manual tuning).
    pub fn with_scales(mut self, energy: f64, latency: f64) -> Self {
        self.energy_scale = energy;
        self.latency_scale = latency;
        self
    }

    /// A digest of the macro's complete configuration — every field the
    /// hierarchy, representation, and evaluation pipeline are derived
    /// from. Two macros with equal fingerprints produce bit-identical
    /// hierarchies and therefore bit-identical evaluation results.
    ///
    /// With `include_noise: false` the statistical non-ideality spec is
    /// excluded, yielding the macro's *energy class*: noise attributes
    /// change only the reported output SNR, never energy, latency, or
    /// area (property-tested in `cimloop-core`), so designs sharing a
    /// noise-stripped fingerprint are interchangeable on every
    /// noise-blind objective. The DSE explorer's staged path uses this to
    /// evaluate one representative per class.
    pub fn config_fingerprint(&self, include_noise: bool) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        // The derived Debug form covers every configuration field and
        // renders floats with round-trip precision, so it is a faithful
        // (if verbose) serialization of the config.
        if include_noise {
            format!("{self:?}").hash(&mut hasher);
        } else {
            let stripped = self.clone().with_noise(NoiseSpec::ideal());
            format!("{stripped:?}").hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The macro's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Active array rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Array columns.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Process node in nanometers.
    pub fn node_nm(&self) -> f64 {
        self.node_nm
    }

    /// ADC resolution in bits.
    pub fn adc_bits(&self) -> u32 {
        self.adc_bits
    }

    /// Input bits per DAC conversion.
    pub fn dac_bits(&self) -> u32 {
        self.dac_bits
    }

    /// Weight bits per cell.
    pub fn cell_bits(&self) -> u32 {
        self.cell_bits
    }

    /// Storage-bank multiplier (area only).
    pub fn storage_banks(&self) -> u64 {
        self.storage_banks
    }

    /// The output-combining strategy.
    pub fn output_combine(&self) -> OutputCombine {
        self.combine
    }

    /// The calibration anchor, if any.
    pub fn calibration(&self) -> Option<Anchor> {
        self.calibration
    }

    /// The macro's declared non-ideality spec.
    pub fn noise(&self) -> NoiseSpec {
        self.noise
    }

    /// The macro's data representation.
    pub fn representation(&self) -> Representation {
        Representation::new(
            self.input_encoding,
            self.weight_encoding,
            self.dac_bits,
            self.cell_bits,
        )
        .expect("macro slice widths validated at construction sites")
    }

    /// Builds the container-hierarchy for this configuration.
    ///
    /// # Errors
    ///
    /// Propagates spec validation errors (e.g., inconsistent grouping).
    pub fn hierarchy(&self) -> Result<Hierarchy, CoreError> {
        let mut b = Hierarchy::builder();

        // I/O staging at the macro edge: published macro-level numbers
        // exclude the big system SRAM (modeled by `cimloop-system`), so the
        // macro itself carries cheap register-file staging.
        let mut buffer = Component::new("buffer")
            .with_class("regfile")
            .with_reuse(Tensor::Inputs, Reuse::Temporal)
            .with_reuse(Tensor::Outputs, Reuse::Temporal)
            .with_attr("entries", (self.rows.max(self.cols) * 2) as i64)
            .with_attr("width", 16i64);
        if self.digital_readout {
            buffer = buffer.with_attr("temporal_dims", "Is");
        }
        b = b.component(self.common(buffer));
        b = b.container(Container::new(format!("{}_macro", self.name)));

        if self.digital_readout {
            b = self.digital_inner(b);
        } else {
            b = self.analog_inner(b);
        }
        Ok(b.build()?)
    }

    /// The inverse import path: reconstructs an [`ArrayMacro`] from a
    /// macro-shaped [`Hierarchy`] (one produced by [`Self::hierarchy`],
    /// or a spec file of the same shape).
    ///
    /// Structural configuration (array geometry, converter resolutions,
    /// output-combining topology, cell technology, noise attributes,
    /// supply voltage) is recovered from the component tree; any remaining
    /// attribute differences — per-component calibration scales, frozen
    /// energy/latency multipliers, hand-edited buffer capacities — are
    /// carried as exact attribute pins ([`Self::with_pinned_attr`]), so
    /// `ArrayMacro::from_hierarchy(&m.hierarchy()?)` re-serializes
    /// **bit-identically** for every macro `m`. The result carries no
    /// calibration anchor (scales are already baked into the attributes).
    ///
    /// Operand *encodings* are not part of a hierarchy (they live in the
    /// [`Representation`]); the import defaults to two's-complement
    /// inputs and offset weights — override with [`Self::with_encodings`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Spec`] when the hierarchy is not macro-shaped
    /// (missing `cell`/`dac` components, no `*_macro` container, or a
    /// structure the reconstruction cannot reproduce exactly).
    pub fn from_hierarchy(h: &Hierarchy) -> Result<Self, CoreError> {
        let missing = |name: &str| {
            CoreError::Spec(cimloop_spec::SpecError::UnknownNode {
                name: name.to_owned(),
            })
        };
        let shape_err =
            |message: String| CoreError::Spec(cimloop_spec::SpecError::Parse { line: 0, message });
        // A count attribute, at least 1, that must fit a `u32`.
        let count = |node: &Component, key: &str, default: i64| -> Result<u32, CoreError> {
            let value = node.attributes().int_or(key, default).max(1);
            u32::try_from(value).map_err(|_| {
                shape_err(format!(
                    "`{}` attribute `{key}` is {value}, which does not fit in 32 bits",
                    node.name()
                ))
            })
        };

        let name = h
            .containers()
            .find_map(|c| c.name().strip_suffix("_macro"))
            .ok_or_else(|| missing("<name>_macro"))?
            .to_owned();
        let cell = h.component("cell").ok_or_else(|| missing("cell"))?;
        let dac = h.component("dac").ok_or_else(|| missing("dac"))?;
        let rows = cell.spatial().fanout().max(1);
        let node_nm = cell
            .attributes()
            .float("technology")
            .ok_or_else(|| shape_err("cell has no `technology` attribute".to_owned()))?;

        let digital = h.component("adder_tree").is_some();
        let column_fanout = |container: &str| -> Result<u64, CoreError> {
            Ok(h.node(container)
                .ok_or_else(|| missing(container))?
                .spatial()
                .fanout())
        };
        let (combine, cols) = if digital {
            (OutputCombine::None, column_fanout("column")?)
        } else if let Some(adder) = h.component("analog_adder") {
            let operands = count(adder, "operands", 1)?;
            let groups = column_fanout("column_group")?;
            (
                OutputCombine::AnalogAdder { operands },
                groups * column_fanout("column")?,
            )
        } else if h.component("analog_accumulator").is_some() {
            (OutputCombine::AnalogAccumulator, column_fanout("column")?)
        } else if h.node("column_group").is_some() {
            let g = column_fanout("column")?;
            (
                OutputCombine::WireSum {
                    columns_per_group: g,
                },
                column_fanout("column_group")? * g,
            )
        } else {
            (OutputCombine::None, column_fanout("column")?)
        };

        let dac_bits = count(dac, "resolution", 1)?;
        let cell_bits = count(cell, "bits", 1)?;
        let mut noise = NoiseSpec::new()
            .with_cell_variation(cell.attributes().float_or("noise_variation_sigma", 0.0));

        let mut m = ArrayMacro::new(name, node_nm, rows, cols)
            .with_cell_class(cell.class())
            .with_dac_class(dac.class())
            .with_slicing(dac_bits, cell_bits)
            .with_output_combine(combine);
        if digital {
            m = m.with_digital_readout();
        }
        if let Some(adc) = h.component("adc") {
            m = m.with_adc(
                count(adc, "resolution", 8)?,
                adc.attributes().float_or("sample_rate", 100e6),
            );
            noise = noise
                .with_read_noise(adc.attributes().float_or("noise_read_sigma", 0.0))
                .with_adc_offset(adc.attributes().float_or("noise_offset_sigma", 0.0));
        }
        m = m.with_noise(noise);
        if let Some(v) = cell.attributes().float("supply_voltage") {
            m = m.with_supply_voltage(v);
        }

        // Reconcile every remaining attribute difference with exact pins:
        // regenerate once, diff attributes per component, pin the deltas.
        let regen = m.hierarchy()?;
        for component in h.components() {
            let Some(candidate) = regen.component(component.name()) else {
                return Err(shape_err(format!(
                    "hierarchy is not macro-shaped: component `{}` has no counterpart \
                     in the reconstructed macro",
                    component.name()
                )));
            };
            for (key, value) in component.attributes().iter() {
                if candidate.attributes().get(key) != Some(value) {
                    m = m.with_pinned_attr(component.name(), key, value.clone());
                }
            }
        }

        // The reconstruction must reproduce the input's structure (node
        // sequence, reuse directives, fanouts) and every attribute the
        // input declares. Attributes only the reconstruction carries are
        // fine — they are the macro's own derived defaults (unit scale
        // factors and the like) that a hand-written spec simply omitted;
        // a hierarchy exported by [`Self::hierarchy`] declares everything
        // and therefore round-trips bit-identically.
        let check = m.hierarchy()?;
        if check.len() != h.len() {
            return Err(shape_err(format!(
                "hierarchy is not macro-shaped: reconstruction has {} nodes, input has {}",
                check.len(),
                h.len()
            )));
        }
        for (ours, theirs) in check.nodes().iter().zip(h.nodes()) {
            let mismatch = |what: &str| {
                shape_err(format!(
                    "hierarchy is not macro-shaped: node `{}` differs from the \
                     reconstruction in {what}",
                    theirs.name()
                ))
            };
            if ours.name() != theirs.name() {
                return Err(mismatch("name/order"));
            }
            if ours.spatial() != theirs.spatial() {
                return Err(mismatch("spatial fanout"));
            }
            for tensor in Tensor::ALL {
                if ours.spatial_reuse(tensor) != theirs.spatial_reuse(tensor) {
                    return Err(mismatch("spatial reuse"));
                }
            }
            match (ours, theirs) {
                (cimloop_spec::Node::Component(ours), cimloop_spec::Node::Component(theirs)) => {
                    if ours.class() != theirs.class() {
                        return Err(mismatch("class"));
                    }
                    for tensor in Tensor::ALL {
                        if ours.reuse(tensor) != theirs.reuse(tensor) {
                            return Err(mismatch("reuse directives"));
                        }
                    }
                    for (key, value) in theirs.attributes().iter() {
                        if ours.attributes().get(key) != Some(value) {
                            return Err(mismatch(&format!("attribute `{key}`")));
                        }
                    }
                }
                (cimloop_spec::Node::Container(ours), cimloop_spec::Node::Container(theirs)) => {
                    for (key, value) in theirs.attributes().iter() {
                        if ours.attributes().get(key) != Some(value) {
                            return Err(mismatch(&format!("attribute `{key}`")));
                        }
                    }
                }
                _ => return Err(mismatch("node kind")),
            }
        }
        Ok(m)
    }

    /// Builds a calibrated evaluator for this macro.
    ///
    /// # Errors
    ///
    /// Propagates hierarchy, model-building, and calibration errors.
    pub fn evaluator(&self) -> Result<Evaluator, CoreError> {
        let configured = match self.calibration {
            Some(anchor) => {
                let (e, l) = calibrate::calibrate(self, anchor)?;
                self.clone()
                    .with_scales(self.energy_scale * e, self.latency_scale * l)
            }
            None => self.clone(),
        };
        Evaluator::new(configured.hierarchy()?)
    }

    /// Builds an uncalibrated evaluator (raw analytical models).
    ///
    /// # Errors
    ///
    /// Propagates hierarchy and model-building errors.
    pub fn raw_evaluator(&self) -> Result<Evaluator, CoreError> {
        Evaluator::new(self.hierarchy()?)
    }

    /// Shared attributes every component carries. Per-component
    /// calibration multiplies into the macro-wide scales and any scale the
    /// component already set.
    fn common(&self, component: Component) -> Component {
        let e_cal = self.component_scale(&self.component_energy, component.name());
        let a_cal = self.component_scale(&self.component_area, component.name());
        let e_prior = component.attributes().float_or("energy_scale", 1.0);
        let a_prior = component.attributes().float_or("area_scale", 1.0);
        let mut c = component
            .with_attr("technology", self.node_nm)
            .with_attr("energy_scale", self.energy_scale * e_cal * e_prior)
            .with_attr("area_scale", a_cal * a_prior)
            .with_attr("latency_scale", self.latency_scale);
        if let Some(v) = self.supply_voltage {
            c = c.with_attr("supply_voltage", v);
        }
        for (component_name, attr, value) in &self.attr_pins {
            if component_name == c.name() {
                c = c.with_attr(attr.clone(), value.clone());
            }
        }
        c
    }

    fn component_scale(&self, table: &[(String, f64)], name: &str) -> f64 {
        table
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, s)| s)
            .product()
    }

    /// The analog readout chain: accumulator → DAC → (grouping) → ADC →
    /// cells, per the configured combine strategy.
    fn analog_inner(
        &self,
        mut b: cimloop_spec::HierarchyBuilder,
    ) -> cimloop_spec::HierarchyBuilder {
        // Digital shift-add accumulator merging slice partials across
        // cycles; owns the input-bit-serial loop unless Macro C's analog
        // accumulator takes it.
        let mut accumulator = Component::new("accumulator")
            .with_class("shift_add")
            .with_attr("bits", 24i64)
            .with_reuse(Tensor::Outputs, Reuse::Temporal);
        if self.combine != OutputCombine::AnalogAccumulator {
            accumulator = accumulator.with_attr("temporal_dims", "Is");
        }
        b = b.component(self.common(accumulator));

        // Row control (decoders, pulse sequencing): one action per input
        // delivery; area for all rows.
        let control = Component::new("control")
            .with_class("decoder")
            .with_attr("address_bits", 8i64)
            .with_attr("area_scale", self.rows as f64)
            .with_reuse(Tensor::Inputs, Reuse::NoCoalesce);
        b = b.component(self.common(control));

        // Input converters: one per row, outside the column fanout so
        // inputs multicast across columns.
        let dac = Component::new("dac")
            .with_class(self.dac_class.as_str())
            .with_attr("resolution", self.dac_bits as i64)
            .with_attr("cols", self.cols as i64)
            .with_attr("area_scale", self.rows as f64)
            .with_reuse(Tensor::Inputs, Reuse::NoCoalesce);
        b = b.component(self.common(dac));

        match self.combine {
            OutputCombine::None | OutputCombine::AnalogAccumulator => {
                let column = Container::new("column")
                    .with_spatial(Spatial::new(self.cols, 1))
                    .with_spatial_reuse(Tensor::Inputs)
                    .with_attr("spatial_dims", "K, Ws");
                b = b.container(column);
                b = b.component(self.common(self.adc()));
                if self.combine == OutputCombine::AnalogAccumulator {
                    let accum = Component::new("analog_accumulator")
                        .with_class("analog_accumulator")
                        .with_reuse(Tensor::Outputs, Reuse::Temporal)
                        .with_attr("temporal_dims", "Is")
                        .with_attr("resolution", self.adc_bits as i64);
                    b = b.component(self.common(accum));
                }
                b.component(self.common(self.cell()))
            }
            OutputCombine::WireSum { columns_per_group } => {
                let g = columns_per_group.clamp(1, self.cols);
                let groups = Container::new("column_group")
                    .with_spatial(Spatial::new(self.cols / g.max(1), 1))
                    .with_spatial_reuse(Tensor::Inputs)
                    .with_attr("spatial_dims", "K, Ws");
                b = b.container(groups);
                b = b.component(self.common(self.adc()));
                // Outputs sum on wires between the group's columns. Grouped
                // columns are adjacent along the filter window first (the
                // fabricated chip maps one output's R/S taps to a group), so
                // kernels smaller than the group underutilize it (Fig 12).
                let column = Container::new("column")
                    .with_spatial(Spatial::new(g, 1))
                    .with_spatial_reuse(Tensor::Inputs)
                    .with_spatial_reuse(Tensor::Outputs)
                    .with_attr("spatial_dims", "R, S, C");
                b = b.container(column);
                b.component(self.common(self.cell()))
            }
            OutputCombine::AnalogAdder { operands } => {
                let ops = u64::from(operands.max(1)).min(self.cols);
                let groups = Container::new("column_group")
                    .with_spatial(Spatial::new(self.cols / ops, 1))
                    .with_spatial_reuse(Tensor::Inputs)
                    .with_attr("spatial_dims", "K");
                b = b.container(groups);
                b = b.component(self.common(self.adc()));
                let adder = Component::new("analog_adder")
                    .with_class("analog_adder")
                    .with_attr("operands", operands.max(1) as i64)
                    .with_attr("resolution", self.adc_bits as i64)
                    .with_reuse(Tensor::Outputs, Reuse::Coalesce);
                b = b.component(self.common(adder));
                // Adjacent columns hold different bits of the same weight.
                let column = Container::new("column")
                    .with_spatial(Spatial::new(ops, 1))
                    .with_spatial_reuse(Tensor::Inputs)
                    .with_attr("spatial_dims", "Ws");
                b = b.container(column);
                b.component(self.common(self.cell()))
            }
        }
    }

    /// Digital CiM readout: a per-column adder tree instead of an ADC.
    fn digital_inner(
        &self,
        mut b: cimloop_spec::HierarchyBuilder,
    ) -> cimloop_spec::HierarchyBuilder {
        let accumulator = Component::new("accumulator")
            .with_class("shift_add")
            .with_attr("bits", 24i64)
            .with_reuse(Tensor::Outputs, Reuse::Temporal);
        b = b.component(self.common(accumulator));

        let dac = Component::new("dac")
            .with_class(self.dac_class.as_str())
            .with_attr("resolution", 1i64)
            .with_attr("cols", self.cols as i64)
            .with_attr("area_scale", self.rows as f64)
            .with_reuse(Tensor::Inputs, Reuse::NoCoalesce);
        b = b.component(self.common(dac));

        let column = Container::new("column")
            .with_spatial(Spatial::new(self.cols, 1))
            .with_spatial_reuse(Tensor::Inputs)
            .with_attr("spatial_dims", "K, Ws");
        b = b.container(column);

        // The adder tree sums the column's rows digitally: billed once per
        // column output, sized (energy/area) as rows-1 adders.
        let tree = Component::new("adder_tree")
            .with_class("digital_adder")
            .with_attr("bits", 16i64)
            .with_attr("energy_scale", (self.rows as f64 - 1.0).max(1.0))
            .with_attr("area_scale", (self.rows as f64 - 1.0).max(1.0))
            .with_reuse(Tensor::Outputs, Reuse::NoCoalesce);
        b = b.component(self.common(tree));

        b.component(self.common(self.cell()))
    }

    fn adc(&self) -> Component {
        let mut c = Component::new("adc")
            .with_class("sar_adc")
            .with_attr("resolution", self.adc_bits as i64)
            .with_attr("sample_rate", self.adc_rate)
            .with_reuse(Tensor::Outputs, Reuse::NoCoalesce);
        if self.noise.read_noise() > 0.0 {
            c = c.with_attr("noise_read_sigma", self.noise.read_noise());
        }
        if self.noise.adc_offset() > 0.0 {
            c = c.with_attr("noise_offset_sigma", self.noise.adc_offset());
        }
        c
    }

    fn cell(&self) -> Component {
        let mut c = Component::new("cell")
            .with_class(self.cell_class.as_str())
            .with_attr("bits", self.cell_bits as i64)
            .with_attr("slice_storage", true)
            .with_attr("area_scale", self.storage_banks as f64)
            .with_spatial(Spatial::new(1, self.rows))
            .with_reuse(Tensor::Weights, Reuse::Temporal)
            .with_spatial_reuse(Tensor::Outputs)
            .with_attr("spatial_dims", "C, R, S");
        if self.noise.cell_variation() > 0.0 {
            c = c.with_attr("noise_variation_sigma", self.noise.cell_variation());
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_structure_base() {
        let m = ArrayMacro::new("t", 45.0, 128, 64);
        let h = m.hierarchy().unwrap();
        assert!(h.component("buffer").is_some());
        assert!(h.component("dac").is_some());
        assert!(h.component("adc").is_some());
        let cell = h.component("cell").unwrap();
        assert_eq!(cell.spatial().fanout(), 128);
        let column = h.node("column").unwrap();
        assert_eq!(column.spatial().fanout(), 64);
        // 128×64 cells in total.
        assert_eq!(h.total_fanout(), 128 * 64);
    }

    #[test]
    fn wire_sum_grouping() {
        let m = ArrayMacro::new("t", 65.0, 16, 12).with_output_combine(OutputCombine::WireSum {
            columns_per_group: 3,
        });
        let h = m.hierarchy().unwrap();
        assert_eq!(h.node("column_group").unwrap().spatial().fanout(), 4);
        assert_eq!(h.node("column").unwrap().spatial().fanout(), 3);
        // Outputs are wire-summed within the group.
        assert!(h.node("column").unwrap().spatial_reuse(Tensor::Outputs));
    }

    #[test]
    fn analog_adder_macro_has_coalescing_adder() {
        let m = ArrayMacro::new("t", 7.0, 8, 8)
            .with_output_combine(OutputCombine::AnalogAdder { operands: 2 });
        let h = m.hierarchy().unwrap();
        let adder = h.component("analog_adder").unwrap();
        assert_eq!(adder.reuse(Tensor::Outputs), Reuse::Coalesce);
        assert_eq!(h.node("column").unwrap().spatial().fanout(), 2);
    }

    #[test]
    fn accumulator_owns_input_slice_loop() {
        let plain = ArrayMacro::new("t", 45.0, 8, 8);
        let h = plain.hierarchy().unwrap();
        assert_eq!(
            h.component("accumulator")
                .unwrap()
                .attributes()
                .str("temporal_dims"),
            Some("Is")
        );
        let c_style = plain.with_output_combine(OutputCombine::AnalogAccumulator);
        let h = c_style.hierarchy().unwrap();
        assert_eq!(
            h.component("analog_accumulator")
                .unwrap()
                .attributes()
                .str("temporal_dims"),
            Some("Is")
        );
        assert!(h
            .component("accumulator")
            .unwrap()
            .attributes()
            .str("temporal_dims")
            .is_none());
    }

    #[test]
    fn supply_voltage_propagates_to_all_components() {
        let m = ArrayMacro::new("t", 22.0, 8, 8).with_supply_voltage(0.7);
        let h = m.hierarchy().unwrap();
        for c in h.components() {
            assert_eq!(
                c.attributes().float("supply_voltage"),
                Some(0.7),
                "{}",
                c.name()
            );
        }
    }

    #[test]
    fn dac_resolution_picks_converter_class() {
        let m = ArrayMacro::new("t", 45.0, 8, 8).with_slicing(1, 4);
        let multi = m.clone().with_dac_resolution(4);
        assert_eq!(multi.dac_bits(), 4);
        assert_eq!(multi.cell_bits(), 4, "cell width untouched");
        let h = multi.hierarchy().unwrap();
        assert_eq!(h.component("dac").unwrap().class(), "capacitive_dac");
        let single = m.with_dac_resolution(1);
        let h = single.hierarchy().unwrap();
        assert_eq!(h.component("dac").unwrap().class(), "pulse_driver");
    }

    #[test]
    fn frozen_bakes_scales_and_drops_anchor() {
        let m = crate::macro_c();
        let f = m.frozen().unwrap();
        assert!(f.calibration().is_none());
        // Freezing an unanchored macro is the identity.
        let raw = ArrayMacro::new("t", 45.0, 8, 8);
        assert!(raw.frozen().unwrap().calibration().is_none());
        // The frozen macro reproduces the calibrated macro at the default
        // configuration (same evaluator output).
        let layer = cimloop_workload::Layer::new(
            "l",
            cimloop_workload::LayerKind::Linear,
            cimloop_workload::Shape::linear(2, 32, 32).unwrap(),
        );
        let a = m
            .evaluator()
            .unwrap()
            .evaluate_layer(&layer, &m.representation())
            .unwrap();
        let b = f
            .evaluator()
            .unwrap()
            .evaluate_layer(&layer, &f.representation())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn frozen_keeps_manual_scales() {
        let m = crate::base_macro().with_scales(2.0, 0.5);
        let layer = cimloop_workload::Layer::new(
            "l",
            cimloop_workload::LayerKind::Linear,
            cimloop_workload::Shape::linear(2, 32, 32).unwrap(),
        );
        let report = |m: &ArrayMacro| {
            m.evaluator()
                .unwrap()
                .evaluate_layer(&layer, &m.representation())
                .unwrap()
        };
        assert_eq!(report(&m.frozen().unwrap()), report(&m));
    }

    #[test]
    fn ideal_noise_leaves_hierarchy_untouched() {
        let base = ArrayMacro::new("t", 45.0, 64, 64);
        let with_ideal = base.clone().with_noise(NoiseSpec::ideal());
        assert_eq!(
            cimloop_spec::yamlite::write(&base.hierarchy().unwrap()),
            cimloop_spec::yamlite::write(&with_ideal.hierarchy().unwrap()),
            "an ideal spec must not perturb the serialized hierarchy"
        );
    }

    #[test]
    fn noise_spec_attaches_attributes_and_reaches_the_evaluator() {
        let spec = NoiseSpec::new()
            .with_cell_variation(0.1)
            .with_read_noise(0.005)
            .with_adc_offset(0.25);
        let m = ArrayMacro::new("t", 45.0, 64, 64).with_noise(spec);
        assert_eq!(m.noise(), spec);
        let h = m.hierarchy().unwrap();
        assert_eq!(
            h.component("cell")
                .unwrap()
                .attributes()
                .float("noise_variation_sigma"),
            Some(0.1)
        );
        let adc = h.component("adc").unwrap();
        assert_eq!(adc.attributes().float("noise_read_sigma"), Some(0.005));
        assert_eq!(adc.attributes().float("noise_offset_sigma"), Some(0.25));
        // The evaluator resolves the same spec back from the attributes.
        let e = m.evaluator().unwrap();
        assert_eq!(e.noise(), spec);
        assert_eq!(e.output_adc_bits(), Some(8));
    }

    #[test]
    fn noise_survives_the_spec_round_trip() {
        let spec = NoiseSpec::new()
            .with_cell_variation(0.07)
            .with_read_noise(0.01);
        let m = ArrayMacro::new("t", 45.0, 32, 32)
            .with_cell_class("reram_cim_cell")
            .with_noise(spec);
        let text = cimloop_spec::yamlite::write(&m.hierarchy().unwrap());
        let parsed = Hierarchy::from_yamlite(&text).unwrap();
        let e = Evaluator::new(parsed).unwrap();
        assert_eq!(e.noise(), spec);
    }

    #[test]
    fn from_hierarchy_round_trips_every_preset_bit_identically() {
        // The acceptance bar for the inverse import path: exporting any
        // macro (uncalibrated, frozen, component-calibrated, noisy) and
        // importing it back reproduces the identical serialized spec.
        let noisy = ArrayMacro::new("noisy", 45.0, 64, 64).with_noise(
            NoiseSpec::new()
                .with_cell_variation(0.1)
                .with_read_noise(0.005)
                .with_adc_offset(0.25),
        );
        let macros: Vec<ArrayMacro> = vec![
            ArrayMacro::new("plain", 45.0, 128, 64),
            crate::base_macro().frozen().unwrap(),
            crate::macro_a().frozen().unwrap(),
            crate::macro_b().frozen().unwrap(),
            crate::macro_c().frozen().unwrap(),
            crate::macro_d().frozen().unwrap(),
            crate::digital_cim().frozen().unwrap(),
            noisy,
            ArrayMacro::new("volted", 22.0, 16, 16).with_supply_voltage(0.7),
        ];
        for m in macros {
            let exported = m.hierarchy().unwrap();
            let imported = ArrayMacro::from_hierarchy(&exported)
                .unwrap_or_else(|e| panic!("{}: import failed: {e}", m.name()));
            assert_eq!(
                cimloop_spec::yamlite::write(&imported.hierarchy().unwrap()),
                cimloop_spec::yamlite::write(&exported),
                "{}: import must re-serialize bit-identically",
                m.name()
            );
            assert_eq!(imported.rows(), m.rows(), "{}", m.name());
            assert_eq!(imported.cols(), m.cols(), "{}", m.name());
            assert_eq!(imported.noise(), m.noise(), "{}", m.name());
            assert!(imported.calibration().is_none());
        }
    }

    #[test]
    fn imported_macro_evaluates_identically() {
        let m = crate::macro_c().frozen().unwrap();
        let imported = ArrayMacro::from_hierarchy(&m.hierarchy().unwrap()).unwrap();
        let layer = cimloop_workload::Layer::new(
            "l",
            cimloop_workload::LayerKind::Linear,
            cimloop_workload::Shape::linear(2, 32, 32).unwrap(),
        );
        // Same hierarchy, same representation defaults for this macro.
        let a = m
            .evaluator()
            .unwrap()
            .evaluate_layer(&layer, &m.representation())
            .unwrap();
        let b = imported
            .evaluator()
            .unwrap()
            .evaluate_layer(&layer, &imported.representation())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_hierarchy_rejects_non_macro_shapes() {
        // A perfectly valid spec hierarchy that is not a macro export.
        let h = Hierarchy::from_yamlite(
            "!Component\nname: buffer\ntemporal_reuse: [Inputs, Outputs]\n",
        )
        .unwrap();
        assert!(ArrayMacro::from_hierarchy(&h).is_err());
    }

    #[test]
    fn pinned_attrs_override_derived_values() {
        let m = ArrayMacro::new("t", 45.0, 8, 8).with_pinned_attr("adc", "resolution", 11i64);
        let h = m.hierarchy().unwrap();
        assert_eq!(
            h.component("adc").unwrap().attributes().int("resolution"),
            Some(11)
        );
    }

    #[test]
    fn storage_banks_scale_cell_area_only() {
        let m = ArrayMacro::new("t", 22.0, 64, 128).with_storage_banks(8);
        let h = m.hierarchy().unwrap();
        assert_eq!(
            h.component("cell")
                .unwrap()
                .attributes()
                .float("area_scale"),
            Some(8.0)
        );
        // Active compute stays 64 rows.
        assert_eq!(h.component("cell").unwrap().spatial().fanout(), 64);
    }
}
