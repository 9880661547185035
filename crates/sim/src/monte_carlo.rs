//! Monte-Carlo noise injection: the sampled, empirical counterpart of the
//! analytic [`cimloop_noise::NoiseAnalysis`] accuracy model.
//!
//! The analytic model composes programming variation, read noise, and ADC
//! offset as one input-referred Gaussian and derives the expected output
//! SNR from closed-form distribution transforms. Nothing in that chain is
//! sampled — which is what makes it fast and bit-reproducible, but also
//! means nothing in the repo independently checks it. This module is that
//! check, in the style the field's reference tools (NeuroSim V1.5,
//! MICSim) use: materialize concrete operand values, perturb every cell's
//! analog product with its *own* sampled programming error, add sampled
//! column read noise and converter offset, pass the perturbed sum through
//! the exact ADC transfer, and reduce many such trials to an *empirical*
//! SNR/ENOB plus an end-to-end `task_accuracy` (the fraction of readouts
//! that land on the same ADC code the ideal sum would have produced).
//!
//! # Determinism
//!
//! Trials are processed in fixed-size chunks; chunk `c` derives two
//! independent RNG streams (operands, noise) from `(seed, c)` with a
//! SplitMix64-style mixer, and chunk accumulators merge in chunk order.
//! The reduction is therefore byte-identical across thread counts and run
//! repetitions — only the seed changes results.
//!
//! # The zero-sigma identity
//!
//! With an all-zero [`NoiseSpec`] the injected perturbations are exact
//! IEEE identities (`p·(1+±0) = p`, `S+±0 = S` for the non-negative sums
//! an analog column produces), so the noisy path is bit-identical to
//! [`mc_ideal_column_readout`] — the sampled analogue of the analytic
//! model's "disabled noise cannot perturb the ideal path" guarantee —
//! and `task_accuracy` is exactly `1.0`.

use std::convert::Infallible;

use cimloop_core::{par_try_map, CoreError, OperandStats};
use cimloop_macros::ArrayMacro;
use cimloop_noise::{AdcTransfer, NoiseSpec, SNR_CAP_DB};
use cimloop_stats::{Pmf, Sampler};
use cimloop_workload::{Layer, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trials per deterministic chunk. Each chunk owns its RNG streams, so
/// this is the unit of thread-schedule independence; it never changes
/// results, only how work is sliced.
const CHUNK_TRIALS: u64 = 1024;

/// Stream selectors for [`chunk_seed`]: operand draws and noise draws
/// come from independent generators so that disabling injection (or
/// zeroing every sigma) cannot shift the operand sequence.
const OPERAND_STREAM: u64 = 0;
const NOISE_STREAM: u64 = 1;
const LAYER_STREAM: u64 = 2;

/// Configuration of one Monte-Carlo accuracy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Column-readout trials to sample (at least 1).
    pub trials: u64,
    /// RNG seed; equal seeds give byte-identical results.
    pub seed: u64,
    /// Worker threads (1 = single-threaded). Never affects results.
    pub threads: usize,
}

impl McConfig {
    /// A run of `trials` trials with the default seed, single-threaded.
    pub fn new(trials: u64) -> Self {
        McConfig {
            trials: trials.max(1),
            seed: 0xC1A0,
            threads: 1,
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl Default for McConfig {
    /// 4096 trials: empirical SNR settles to within a few tenths of a dB,
    /// cheap enough for test tiers and per-design DSE probes.
    fn default() -> Self {
        McConfig::new(4096)
    }
}

/// The empirical accuracy of one column readout, reduced from all trials.
///
/// The derived metrics use the *same* formulas, caps, and floors as the
/// analytic [`cimloop_noise::NoiseAnalysis`], so the two sides are
/// directly comparable: `signal_power` is the empirical variance of the ideal
/// sum, `noise_power` the mean squared output error `readout − S`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McReadout {
    /// Trials sampled.
    pub trials: u64,
    /// Empirical variance of the ideal column sum.
    pub signal_power: f64,
    /// Empirical mean squared output error (readout minus ideal sum).
    pub noise_power: f64,
    /// Empirical output SNR, dB, capped at [`SNR_CAP_DB`].
    pub snr_db: f64,
    /// Effective number of bits derived from the SNR.
    pub enob: f64,
    /// RMS output error, raw column-sum units.
    pub error_rms: f64,
    /// Fraction of trials whose noisy readout lands on the ADC code the
    /// ideal sum produces (exactly `1.0` under an ideal spec).
    pub task_accuracy: f64,
}

/// One layer's Monte-Carlo result alongside its workload weight.
#[derive(Debug, Clone)]
pub struct McLayer {
    /// Layer name.
    pub name: String,
    /// MACs the layer performs (the end-to-end weighting).
    pub macs: u64,
    /// The layer's empirical readout accuracy.
    pub readout: McReadout,
}

/// A whole-workload Monte-Carlo accuracy run.
#[derive(Debug, Clone)]
pub struct McRun {
    /// Per-layer results, in workload order.
    pub layers: Vec<McLayer>,
    /// MAC-weighted end-to-end task accuracy over all layers.
    pub task_accuracy: f64,
}

/// A standard normal draw via Box-Muller. `1 − u1` lies in `(0, 1]`, so
/// the log never sees zero and the draw is always finite — required for
/// the zero-sigma identity (`0·∞` would poison it with NaN). Its
/// magnitude is at most `√(2·53·ln 2) ≈ 8.58`.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen();
    let u2: f64 = rng.gen();
    (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Advances `rng` past one [`normal`] draw without computing it: the
/// same two words, no `ln`, `sqrt` or `cos`.
fn skip_normal(rng: &mut StdRng) {
    rng.gen::<u64>();
    rng.gen::<u64>();
}

/// Derives the seed of one `(chunk, stream)` RNG from the run seed with a
/// SplitMix64-style finalizer, so nearby seeds/chunks still get
/// well-separated streams.
fn chunk_seed(seed: u64, chunk: u64, stream: u64) -> u64 {
    let mut z = seed
        ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed per-run sampling context one chunk works against.
struct Column {
    /// The operand distributions: a sampler each, and the support values
    /// its indices select.
    input: Sampler,
    input_values: Vec<f64>,
    weight: Sampler,
    weight_values: Vec<f64>,
    rows: u64,
    adc: Option<AdcTransfer>,
    /// Relative per-cell programming-variation sigma.
    sigma_cell: f64,
    /// Whether `1 + sigma_cell·g` is finite for every [`normal`] draw
    /// `g`, so a zero product stays a signed zero under injection.
    zero_products_stay_zero: bool,
    /// Absolute read-noise sigma, raw column-sum units.
    sigma_read: f64,
    /// Absolute ADC-offset sigma, raw column-sum units.
    sigma_offset: f64,
}

/// Per-chunk accumulator; merged sequentially in chunk order.
#[derive(Debug, Default, Clone, Copy)]
struct Partial {
    trials: u64,
    sum_s: f64,
    sum_s2: f64,
    sum_err2: f64,
    matches: u64,
}

impl Partial {
    fn merge(&mut self, other: &Partial) {
        self.trials += other.trials;
        self.sum_s += other.sum_s;
        self.sum_s2 += other.sum_s2;
        self.sum_err2 += other.sum_err2;
        self.matches += other.matches;
    }

    /// Reduces the accumulated moments with the analytic model's exact
    /// formulas, caps, and floors.
    fn reduce(&self) -> McReadout {
        let n = self.trials.max(1) as f64;
        let mean = self.sum_s / n;
        let signal_power = (self.sum_s2 / n - mean * mean).max(0.0);
        let noise_power = self.sum_err2 / n;
        let snr_db = if noise_power <= 0.0 {
            SNR_CAP_DB
        } else if signal_power <= 0.0 {
            0.0
        } else {
            (10.0 * (signal_power / noise_power).log10()).clamp(-SNR_CAP_DB, SNR_CAP_DB)
        };
        let enob = ((snr_db - 1.76) / 6.02).max(0.0);
        McReadout {
            trials: self.trials,
            signal_power,
            noise_power,
            snr_db,
            enob,
            error_rms: noise_power.sqrt(),
            task_accuracy: self.matches as f64 / n,
        }
    }
}

/// Samples `trials` column readouts of one chunk.
///
/// A zero product skips the Box–Muller arithmetic but still draws its
/// two noise words, bit-identically: `p·(1 + σ·g)` is a signed zero when
/// `1 + σ·g` is finite (checked once per [`Column`]), and adding a signed
/// zero leaves `noisy` unchanged because `noisy` starts at `+0` and a sum
/// of IEEE doubles is `−0` only when both addends are.
fn run_chunk(col: &Column, trials: u64, seed: u64, chunk: u64, inject: bool) -> Partial {
    let mut operands = StdRng::seed_from_u64(chunk_seed(seed, chunk, OPERAND_STREAM));
    let mut noise = StdRng::seed_from_u64(chunk_seed(seed, chunk, NOISE_STREAM));
    let mut out = Partial::default();
    for _ in 0..trials {
        let mut ideal = 0.0f64;
        let mut noisy = 0.0f64;
        for _ in 0..col.rows {
            let x = col.input_values[col.input.index(operands.gen())];
            let w = col.weight_values[col.weight.index(operands.gen())];
            let p = x * w;
            ideal += p;
            if !inject {
                noisy += p;
            } else if p == 0.0 && col.zero_products_stay_zero {
                skip_normal(&mut noise);
            } else {
                noisy += p * (1.0 + col.sigma_cell * normal(&mut noise));
            }
        }
        if inject {
            noisy += col.sigma_read * normal(&mut noise);
            noisy += col.sigma_offset * normal(&mut noise);
        }
        let (readout, reference) = match &col.adc {
            Some(adc) => (adc.apply(noisy), adc.apply(ideal)),
            None => (noisy, ideal),
        };
        let err = readout - ideal;
        out.trials += 1;
        out.sum_s += ideal;
        out.sum_s2 += ideal * ideal;
        out.sum_err2 += err * err;
        out.matches += u64::from(readout == reference);
    }
    out
}

fn run_column(col: &Column, cfg: &McConfig, inject: bool) -> McReadout {
    let trials = cfg.trials.max(1);
    let chunks = trials.div_ceil(CHUNK_TRIALS);
    let chunk_len = |c: u64| {
        if c + 1 == chunks {
            trials - (chunks - 1) * CHUNK_TRIALS
        } else {
            CHUNK_TRIALS
        }
    };
    let partials = par_try_map(cfg.threads.max(1), chunks as usize, |c| {
        let c = c as u64;
        Ok::<_, Infallible>(run_chunk(col, chunk_len(c), cfg.seed, c, inject))
    })
    .unwrap_or_else(|never| match never {});
    // Sequential merge in chunk order: the same bytes at any thread count.
    let mut total = Partial::default();
    for p in &partials {
        total.merge(p);
    }
    total.reduce()
}

fn column(
    input_slice: &Pmf,
    weight_slice: &Pmf,
    rows: u64,
    full_scale: f64,
    adc_bits: Option<u32>,
    spec: &NoiseSpec,
) -> Column {
    let adc = adc_bits.map(|bits| AdcTransfer::new(full_scale, bits));
    Column {
        input: Sampler::new(input_slice),
        input_values: input_slice.support().to_vec(),
        weight: Sampler::new(weight_slice),
        weight_values: weight_slice.support().to_vec(),
        rows: rows.max(1),
        adc,
        sigma_cell: spec.cell_variation(),
        // |g| < 9 (see `normal`).
        zero_products_stay_zero: (spec.cell_variation() * 9.0).is_finite(),
        sigma_read: spec.read_noise() * full_scale.max(0.0),
        sigma_offset: spec.adc_offset() * adc.map(|a| a.step()).unwrap_or(0.0),
    }
}

/// Samples `cfg.trials` noisy column readouts and reduces them to an
/// empirical accuracy summary.
///
/// Inputs mirror [`cimloop_noise::NoiseAnalysis::analyze`]: the per-slice
/// operand distributions the statistical pipeline derives, the in-network
/// reduction width, the column full scale, the output converter
/// resolution (`None` = digital readout), and the non-ideality sigmas.
/// Deterministic for a fixed `(cfg.trials, cfg.seed)` at any thread
/// count.
pub fn mc_column_readout(
    input_slice: &Pmf,
    weight_slice: &Pmf,
    rows: u64,
    full_scale: f64,
    adc_bits: Option<u32>,
    spec: &NoiseSpec,
    cfg: &McConfig,
) -> McReadout {
    let col = column(input_slice, weight_slice, rows, full_scale, adc_bits, spec);
    run_column(&col, cfg, true)
}

/// The noise-free reference: identical operand streams and reduction, no
/// injected perturbations. An all-zero spec passed to
/// [`mc_column_readout`] reproduces this bit-for-bit (the zero-sigma
/// identity), which the validation tier asserts.
pub fn mc_ideal_column_readout(
    input_slice: &Pmf,
    weight_slice: &Pmf,
    rows: u64,
    full_scale: f64,
    adc_bits: Option<u32>,
    cfg: &McConfig,
) -> McReadout {
    let col = column(
        input_slice,
        weight_slice,
        rows,
        full_scale,
        adc_bits,
        &NoiseSpec::ideal(),
    );
    run_column(&col, cfg, false)
}

/// Monte-Carlo accuracy of `layer` on `m`: derives the slice
/// distributions, reduction width, full scale, converter resolution, and
/// noise spec from the macro's own (uncalibrated) evaluator — the same
/// sources the analytic analysis reads — then samples.
///
/// # Errors
///
/// Propagates evaluator construction and distribution errors.
pub fn mc_layer(m: &ArrayMacro, layer: &Layer, cfg: &McConfig) -> Result<McReadout, CoreError> {
    Ok(mc_layers(m, std::slice::from_ref(layer), |_| *cfg)?[0])
}

/// Monte-Carlo accuracy of a whole workload on `m`: every layer sampled
/// with its own derived RNG stream, reduced to a MAC-weighted end-to-end
/// `task_accuracy` (heavier layers gate more of the network's output).
///
/// # Errors
///
/// Propagates evaluator construction and distribution errors.
pub fn mc_workload(
    m: &ArrayMacro,
    workload: &Workload,
    cfg: &McConfig,
) -> Result<McRun, CoreError> {
    let readouts = mc_layers(m, workload.layers(), |i| {
        cfg.with_seed(chunk_seed(cfg.seed, i, LAYER_STREAM))
    })?;
    let mut layers = Vec::with_capacity(readouts.len());
    let mut weighted = 0.0;
    let mut total_macs = 0u64;
    for (layer, readout) in workload.layers().iter().zip(readouts) {
        let macs = layer.macs();
        weighted += macs as f64 * readout.task_accuracy;
        total_macs += macs;
        layers.push(McLayer {
            name: layer.name().to_owned(),
            macs,
            readout,
        });
    }
    let task_accuracy = if total_macs == 0 {
        1.0
    } else {
        weighted / total_macs as f64
    };
    Ok(McRun {
        layers,
        task_accuracy,
    })
}

/// The readouts of `layers` on `m`, layer `i` sampled with `cfg_of(i)`.
///
/// The reduction rows, converter resolution and noise spec come from the
/// raw evaluator: calibration scales only energies and latencies, so a
/// calibrated macro need not run it to give them. The engine samples the
/// column sum itself, so it takes only the operand half of the value
/// statistics and never convolves the analytic sum.
fn mc_layers(
    m: &ArrayMacro,
    layers: &[Layer],
    cfg_of: impl Fn(u64) -> McConfig,
) -> Result<Vec<McReadout>, CoreError> {
    let evaluator = m.raw_evaluator()?;
    let rep = m.representation();
    let rows = evaluator.reduction_rows();
    let (adc_bits, spec) = (evaluator.output_adc_bits(), evaluator.noise());
    let mut readouts = Vec::with_capacity(layers.len());
    for (layer, i) in layers.iter().zip(0..) {
        let operands = OperandStats::new(layer, &rep)?;
        readouts.push(mc_column_readout(
            operands.input_slice().pmf(),
            operands.weight_slice().pmf(),
            rows,
            operands.sum_max(rows),
            adc_bits,
            &spec,
            &cfg_of(i),
        ));
    }
    Ok(readouts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice_pmfs() -> (Pmf, Pmf) {
        // 1-bit inputs (25% active) and uniform 2-bit weights — the same
        // shape the analytic analysis unit tests use.
        let input = Pmf::from_weights(vec![(0.0, 0.75), (1.0, 0.25)]).unwrap();
        let weight = Pmf::uniform_ints(0, 3).unwrap();
        (input, weight)
    }

    #[test]
    fn zero_sigma_is_bit_identical_to_the_ideal_engine() {
        let (x, w) = slice_pmfs();
        let cfg = McConfig::new(2048).with_seed(7);
        let noisy = mc_column_readout(&x, &w, 32, 96.0, Some(6), &NoiseSpec::ideal(), &cfg);
        let ideal = mc_ideal_column_readout(&x, &w, 32, 96.0, Some(6), &cfg);
        assert_eq!(noisy, ideal);
        assert_eq!(noisy.task_accuracy, 1.0);
    }

    #[test]
    fn same_seed_same_bytes_any_thread_count() {
        let (x, w) = slice_pmfs();
        let spec = NoiseSpec::new()
            .with_cell_variation(0.1)
            .with_adc_offset(0.3);
        let base = McConfig::new(4096).with_seed(11);
        let one = mc_column_readout(&x, &w, 32, 96.0, Some(6), &spec, &base);
        for threads in [2, 3, 8] {
            let t = mc_column_readout(
                &x,
                &w,
                32,
                96.0,
                Some(6),
                &spec,
                &base.with_threads(threads),
            );
            assert_eq!(one, t, "thread count {threads} changed the bytes");
        }
    }

    #[test]
    fn noise_lowers_empirical_snr_and_accuracy() {
        let (x, w) = slice_pmfs();
        let cfg = McConfig::new(4096);
        let clean = mc_column_readout(&x, &w, 64, 192.0, Some(8), &NoiseSpec::ideal(), &cfg);
        let noisy = mc_column_readout(
            &x,
            &w,
            64,
            192.0,
            Some(8),
            &NoiseSpec::new().with_cell_variation(0.2),
            &cfg,
        );
        assert!(noisy.snr_db < clean.snr_db);
        assert!(noisy.task_accuracy < 1.0);
        assert!(clean.task_accuracy == 1.0);
    }

    #[test]
    fn normal_draws_are_always_finite() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100_000 {
            let n = normal(&mut rng);
            assert!(n.is_finite());
            assert!(n.abs() < 10.0, "implausible normal draw {n}");
        }
    }

    #[test]
    fn mc_layer_and_mc_workload_agree_with_and_without_calibration() {
        let net = cimloop_workload::models::resnet18();
        let workload = Workload::new(
            "two",
            vec![net.layers()[0].clone(), net.layers()[20].clone()],
        )
        .unwrap();
        let cfg = McConfig::new(512).with_seed(3);
        let bits = |r: &McReadout| {
            [
                r.signal_power,
                r.noise_power,
                r.snr_db,
                r.enob,
                r.error_rms,
                r.task_accuracy,
            ]
            .map(f64::to_bits)
        };
        // Calibrated first, then raw.
        let runs: Vec<McRun> = [
            cimloop_macros::base_macro(),
            cimloop_macros::base_macro().uncalibrated(),
        ]
        .iter()
        .map(|m| {
            let run = mc_workload(m, &workload, &cfg).unwrap();
            for (i, (layer, sampled)) in workload.layers().iter().zip(&run.layers).enumerate() {
                let layer_cfg = cfg.with_seed(chunk_seed(cfg.seed, i as u64, LAYER_STREAM));
                let alone = mc_layer(m, layer, &layer_cfg).unwrap();
                assert_eq!(bits(&alone), bits(&sampled.readout), "{}", layer.name());
            }
            run
        })
        .collect();
        assert_eq!(
            runs[0].task_accuracy.to_bits(),
            runs[1].task_accuracy.to_bits()
        );
        for (c, r) in runs[0].layers.iter().zip(&runs[1].layers) {
            assert_eq!(bits(&c.readout), bits(&r.readout), "{}", c.name);
        }
    }

    #[test]
    fn chunk_seed_separates_streams() {
        assert_ne!(chunk_seed(1, 0, 0), chunk_seed(1, 0, 1));
        assert_ne!(chunk_seed(1, 0, 0), chunk_seed(1, 1, 0));
        assert_ne!(chunk_seed(1, 0, 0), chunk_seed(2, 0, 0));
    }
}
