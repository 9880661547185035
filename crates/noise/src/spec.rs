/// The statistical non-ideality specification of one analog macro: how
/// noisy its cells, columns, and converters are.
///
/// All three parameters are standard deviations of independent zero-mean
/// perturbations, each expressed in the unit that its physical source is
/// usually reported in:
///
/// - **Cell variation** (`cell_variation`): relative sigma of the
///   multiplicative conductance/programming error of one cell
///   (`G' = G·(1+ε)`, `ε ~ N(0, σ²)`). NVM programming variation is
///   typically 3–20%.
/// - **Read noise** (`read_noise`): sigma of the additive thermal/shot
///   noise one column read picks up, as a fraction of the column full
///   scale.
/// - **ADC offset** (`adc_offset`): sigma of the converter's input
///   offset, in ADC LSBs.
///
/// A spec with every sigma at zero is *ideal*: the noise path is skipped
/// entirely and evaluation is bit-identical to a build without the noise
/// subsystem.
///
/// # Example
///
/// ```
/// use cimloop_noise::NoiseSpec;
///
/// let spec = NoiseSpec::new()
///     .with_cell_variation(0.10)
///     .with_read_noise(0.002)
///     .with_adc_offset(0.25);
/// assert!(!spec.is_ideal());
/// assert!(NoiseSpec::ideal().is_ideal());
/// // Zero sigmas are the identity configuration.
/// assert!(NoiseSpec::new().is_ideal());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseSpec {
    cell_variation: f64,
    read_noise: f64,
    adc_offset: f64,
}

impl NoiseSpec {
    /// An all-zero (ideal) spec; add sigmas with the builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ideal spec: no variation, no noise, no offset.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// Sets the relative per-cell conductance/programming variation
    /// sigma. Negative or non-finite values are clamped to zero.
    pub fn with_cell_variation(mut self, sigma: f64) -> Self {
        self.cell_variation = sanitize(sigma);
        self
    }

    /// Sets the column read-noise sigma as a fraction of full scale.
    /// Negative or non-finite values are clamped to zero.
    pub fn with_read_noise(mut self, sigma: f64) -> Self {
        self.read_noise = sanitize(sigma);
        self
    }

    /// Sets the ADC input-offset sigma in LSBs. Negative or non-finite
    /// values are clamped to zero.
    pub fn with_adc_offset(mut self, sigma: f64) -> Self {
        self.adc_offset = sanitize(sigma);
        self
    }

    /// Relative per-cell variation sigma.
    pub fn cell_variation(&self) -> f64 {
        self.cell_variation
    }

    /// Read-noise sigma, fraction of full scale.
    pub fn read_noise(&self) -> f64 {
        self.read_noise
    }

    /// ADC offset sigma, LSBs.
    pub fn adc_offset(&self) -> f64 {
        self.adc_offset
    }

    /// Whether every sigma is zero (the noise path is an exact identity).
    pub fn is_ideal(&self) -> bool {
        self.cell_variation == 0.0 && self.read_noise == 0.0 && self.adc_offset == 0.0
    }

    /// The spec's identity as bit patterns, for cache keys: two specs with
    /// equal signatures produce bit-identical noise transforms.
    pub fn signature_bits(&self) -> [u64; 3] {
        [
            self.cell_variation.to_bits(),
            self.read_noise.to_bits(),
            self.adc_offset.to_bits(),
        ]
    }

    /// Component-wise maximum of two specs (used to merge per-component
    /// noise declarations into one macro-level spec).
    pub fn max(&self, other: &NoiseSpec) -> NoiseSpec {
        NoiseSpec {
            cell_variation: self.cell_variation.max(other.cell_variation),
            read_noise: self.read_noise.max(other.read_noise),
            adc_offset: self.adc_offset.max(other.adc_offset),
        }
    }
}

cimloop_spec::reflect_section! {
    /// The reflected schema of a `!Noise` scenario section (the typed
    /// view the generic schema walk decodes into; a negative or
    /// non-finite sigma fails there at its line, where the builders
    /// would clamp it to zero).
    pub struct NoiseSection: "Noise" {
        cell_variation: [sigma] = 0.0, "relative per-cell conductance/programming variation sigma";
        read_noise: [sigma] = 0.0, "column read-noise sigma, as a fraction of full scale";
        adc_offset: [sigma] = 0.0, "ADC input-offset sigma, in LSBs";
    }
}

impl NoiseSpec {
    /// Parses a `!Noise` scenario section into a spec via the reflected
    /// [`NoiseSection`] schema.
    ///
    /// Recognized keys (all optional; absent sigmas stay zero):
    /// `cell_variation`, `read_noise`, `adc_offset`.
    ///
    /// # Example
    ///
    /// ```
    /// use cimloop_noise::NoiseSpec;
    /// use cimloop_spec::ScenarioDoc;
    ///
    /// let doc = ScenarioDoc::parse(
    ///     "!Scenario\nname: n\n!Noise\ncell_variation: 0.1\nadc_offset: 0.25\n",
    /// ).unwrap();
    /// let spec = NoiseSpec::from_section(doc.section("Noise").unwrap()).unwrap();
    /// assert_eq!(spec.cell_variation(), 0.1);
    /// assert_eq!(spec.adc_offset(), 0.25);
    /// assert_eq!(spec.read_noise(), 0.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`cimloop_spec::SpecError::Parse`] on non-numeric, negative
    /// or non-finite sigmas or unknown keys (a typo'd or invalid sigma
    /// silently becoming zero would be exactly the failure mode this
    /// crate exists to model); unknown keys name the nearest valid field.
    pub fn from_section(section: &cimloop_spec::Section) -> Result<Self, cimloop_spec::SpecError> {
        let view = NoiseSection::decode(section)?;
        Ok(NoiseSpec::new()
            .with_cell_variation(view.cell_variation)
            .with_read_noise(view.read_noise)
            .with_adc_offset(view.adc_offset))
    }
}

fn sanitize(sigma: f64) -> f64 {
    if sigma.is_finite() && sigma > 0.0 {
        sigma
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_getters() {
        let s = NoiseSpec::new()
            .with_cell_variation(0.1)
            .with_read_noise(0.01)
            .with_adc_offset(0.5);
        assert_eq!(s.cell_variation(), 0.1);
        assert_eq!(s.read_noise(), 0.01);
        assert_eq!(s.adc_offset(), 0.5);
        assert!(!s.is_ideal());
    }

    #[test]
    fn invalid_sigmas_clamp_to_zero() {
        let s = NoiseSpec::new()
            .with_cell_variation(-1.0)
            .with_read_noise(f64::NAN)
            .with_adc_offset(f64::INFINITY);
        assert!(s.is_ideal());
    }

    #[test]
    fn signature_distinguishes_specs() {
        let a = NoiseSpec::new().with_cell_variation(0.1);
        let b = NoiseSpec::new().with_cell_variation(0.2);
        assert_ne!(a.signature_bits(), b.signature_bits());
        assert_eq!(a.signature_bits(), a.signature_bits());
    }

    #[test]
    fn from_section_rejects_typos_and_bad_values() {
        let doc = cimloop_spec::ScenarioDoc::parse(
            "!Scenario\nname: n\n!Noise\ncell_variaton: 0.1\n", // sic
        )
        .unwrap();
        let err = NoiseSpec::from_section(doc.section("Noise").unwrap()).unwrap_err();
        let cimloop_spec::SpecError::Parse { line, message } = &err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!(*line, 4);
        assert!(
            message.contains("did you mean `cell_variation`?"),
            "the misspelled sigma must be diagnosed with the nearest valid field: {message}"
        );

        let doc =
            cimloop_spec::ScenarioDoc::parse("!Scenario\nname: n\n!Noise\nread_noise: lots\n")
                .unwrap();
        assert!(NoiseSpec::from_section(doc.section("Noise").unwrap()).is_err());

        // Regression: these used to be clamped to an ideal spec.
        for value in ["cell_variation: inf", "adc_offset: -0.5", "read_noise: nan"] {
            let doc =
                cimloop_spec::ScenarioDoc::parse(&format!("!Scenario\nname: n\n!Noise\n{value}\n"))
                    .unwrap();
            let err = NoiseSpec::from_section(doc.section("Noise").unwrap()).unwrap_err();
            assert!(
                matches!(err, cimloop_spec::SpecError::Parse { line: 4, .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn max_merges_componentwise() {
        let a = NoiseSpec::new()
            .with_cell_variation(0.1)
            .with_adc_offset(0.2);
        let b = NoiseSpec::new()
            .with_cell_variation(0.05)
            .with_read_noise(0.01);
        let m = a.max(&b);
        assert_eq!(m.cell_variation(), 0.1);
        assert_eq!(m.read_noise(), 0.01);
        assert_eq!(m.adc_offset(), 0.2);
    }
}
