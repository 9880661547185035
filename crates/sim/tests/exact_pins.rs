//! Bit pins of the two sampled engines: the value-exact simulator and the
//! Monte-Carlo noise-injection engine.
//!
//! Each test folds every report it produces into one FNV-1a hash of the
//! reports' raw bits (`f64::to_bits`, counters as `u64`). The constants
//! were computed before either engine's inner loop was optimized; a
//! speed-up that changes one RNG draw or reorders one float addition
//! changes the hash. A deliberate change of results must update the
//! constant and say why.

use cimloop_core::{CoreError, Encoding};
use cimloop_macros::{
    base_macro, digital_cim, macro_a, macro_b, macro_c, macro_d, ArrayMacro, OutputCombine,
};
use cimloop_noise::NoiseSpec;
use cimloop_sim::{
    mc_column_readout, mc_ideal_column_readout, simulate_layer, ExactConfig, ExactReport, McConfig,
    McReadout,
};
use cimloop_stats::Pmf;
use cimloop_workload::models;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn exact(&mut self, r: &ExactReport) {
        for (name, energy) in r.iter() {
            self.bytes(name.as_bytes());
            self.f64(energy);
        }
        self.u64(r.cell_events());
        self.u64(r.simulated_activations());
        self.u64(r.total_activations());
    }

    fn mc(&mut self, r: &McReadout) {
        self.u64(r.trials);
        for v in [
            r.signal_power,
            r.noise_power,
            r.snr_db,
            r.enob,
            r.error_rms,
            r.task_accuracy,
        ] {
            self.f64(v);
        }
    }
}

/// ResNet18 layers: the first convolution, a stage-3 layer, and `fc`.
const LAYERS: [usize; 3] = [0, 13, 20];

/// The reports of `layers` on `m`, each at thread counts 1 and 3. Layer
/// `i` simulates `4 + i % 5` activations (4, 7 and 4 above), so three
/// threads split them into uneven shares.
fn reports(m: &ArrayMacro, layers: &[usize]) -> Result<Vec<ExactReport>, CoreError> {
    let net = models::resnet18();
    let mut out = Vec::new();
    for &i in layers {
        for threads in [1, 3] {
            let cfg = ExactConfig {
                seed: 0x5EED ^ i as u64,
                max_activations: 4 + i as u64 % 5,
                threads,
            };
            out.push(simulate_layer(m, &net.layers()[i], &cfg)?);
        }
    }
    Ok(out)
}

/// The FNV-1a hash of `presets`' reports on [`LAYERS`].
fn preset_pin(presets: &[ArrayMacro]) -> u64 {
    let mut h = Fnv::new();
    for m in presets {
        h.bytes(m.name().as_bytes());
        for r in reports(m, &LAYERS).unwrap_or_else(|e| panic!("{}: {e}", m.name())) {
            h.exact(&r);
        }
    }
    h.0
}

/// SRAM and C-2C cells charge energy at input level 0, so these presets
/// have no silent row: every row draws a weight word, and their stream
/// has not moved since the constant was computed.
#[test]
fn exact_reports_of_presets_without_silent_rows_are_pinned() {
    let pin = preset_pin(&[macro_a(), macro_b(), macro_d(), digital_cim()]);
    assert_eq!(
        pin, 0x7864_22cf_81ac_9ac1,
        "exact-simulator pin moved: {pin:#018x}"
    );
}

/// ReRAM cells draw no energy at input level 0 (E = G·V²·t). The
/// constant moved when silent rows stopped drawing their weight word:
/// the reports became a different sample of the same distribution
/// (docs/accuracy.md, "Exact simulator stream").
#[test]
fn exact_reports_of_reram_presets_are_pinned() {
    let pin = preset_pin(&[base_macro(), macro_c()]);
    assert_eq!(
        pin, 0x9acd_8d2f_d7bf_6649,
        "ReRAM exact-simulator pin moved: {pin:#018x}"
    );
}

/// Every pair runs on `base_macro`'s ReRAM array, so the constant moved
/// with the ReRAM presets' when silent rows stopped drawing.
#[test]
fn exact_reports_of_every_encoding_pair_are_pinned() {
    let mut h = Fnv::new();
    let mut pairs = 0;
    for input in Encoding::ALL {
        for weight in Encoding::ALL {
            let m = base_macro().with_encodings(input, weight);
            // XNOR needs 1-bit operands, so its pairs do not validate on
            // ResNet18's 8-bit layers.
            let Ok(fc) = reports(&m, &[20]) else {
                continue;
            };
            pairs += 1;
            h.bytes(input.name().as_bytes());
            h.bytes(weight.name().as_bytes());
            for r in &fc {
                h.exact(r);
            }
        }
    }
    assert_eq!(pairs, 16, "every non-XNOR pair validates");
    assert_eq!(
        h.0, 0xdd9c_fbc5_935d_b55f,
        "encoding-pair pin moved: {:#018x}",
        h.0
    );
}

/// ReRAM cells draw no energy at input level 0 (E = G·V²·t), so these
/// macros have rows whose cell events cost nothing. No preset has their
/// shapes: `base_macro`'s array behind an analog adder, behind an analog
/// accumulator, and driven by a 2-bit DAC. The constant moved when
/// silent rows stopped drawing their weight word.
#[test]
fn exact_reports_of_silent_row_shapes_are_pinned() {
    let mut h = Fnv::new();
    for (shape, m) in [
        (
            "analog_adder",
            base_macro().with_output_combine(OutputCombine::AnalogAdder { operands: 2 }),
        ),
        (
            "analog_accumulator",
            base_macro().with_output_combine(OutputCombine::AnalogAccumulator),
        ),
        ("dac_2", base_macro().with_dac_resolution(2)),
    ] {
        h.bytes(shape.as_bytes());
        for r in reports(&m, &LAYERS).unwrap_or_else(|e| panic!("{shape}: {e}")) {
            h.exact(&r);
        }
    }
    assert_eq!(
        h.0, 0xa6aa_f950_8105_52fd,
        "silent-row pin moved: {:#018x}",
        h.0
    );
}

#[test]
fn monte_carlo_readouts_are_pinned() {
    let sparse = Pmf::from_weights(vec![(0.0, 0.75), (1.0, 0.25)]).unwrap();
    let weights = Pmf::uniform_ints(0, 3).unwrap();
    // A support holding -0.0 next to signed weights: products of either
    // zero sign reach the noisy sum.
    let signed_zero = Pmf::from_weights(vec![(-0.0, 0.5), (2.0, 0.3), (3.0, 0.2)]).unwrap();
    let signed_weights = Pmf::uniform_ints(-2, 2).unwrap();
    let specs = [
        NoiseSpec::ideal(),
        NoiseSpec::new().with_cell_variation(0.1),
        NoiseSpec::new()
            .with_cell_variation(0.05)
            .with_read_noise(0.01)
            .with_adc_offset(0.3),
        // Large enough that `σ·g` overflows to ±inf for |g| > 1.8, so a
        // zero product times `1 + σ·g` can be NaN.
        NoiseSpec::new().with_cell_variation(1e308),
    ];
    let mut h = Fnv::new();
    for (x, w) in [(&sparse, &weights), (&signed_zero, &signed_weights)] {
        for adc in [Some(6), None] {
            for threads in [1, 3] {
                let cfg = McConfig::new(3000).with_seed(17).with_threads(threads);
                for spec in &specs {
                    h.mc(&mc_column_readout(x, w, 24, 72.0, adc, spec, &cfg));
                }
                h.mc(&mc_ideal_column_readout(x, w, 24, 72.0, adc, &cfg));
            }
        }
    }
    assert_eq!(
        h.0, 0xfbaa_bf24_5a0b_c679,
        "Monte-Carlo pin moved: {:#018x}",
        h.0
    );
}
