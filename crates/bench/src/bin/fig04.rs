//! Fig 4: data-value-dependence can affect circuit energy by >2.5×, and
//! its effect differs per DAC, per encoding, and per layer — the best
//! encoding changes with the workload.
//!
//! Energy per convert for two DAC flavours (current-steering "DAC A" and
//! capacitive "DAC B") under differential vs offset encodings, for a CNN
//! layer (unsigned sparse inputs) and a transformer layer (signed dense
//! inputs). Values normalized to the smallest bar.

use cimloop_bench::{fmt, ExperimentTable};
use cimloop_circuits::dac::{CapacitiveDac, CurrentDac};
use cimloop_circuits::{ComponentModel, ValueContext};
use cimloop_core::Encoding;
use cimloop_tech::TechNode;
use cimloop_workload::models;

fn main() -> std::io::Result<()> {
    let resnet = models::resnet18();
    let gpt2 = models::gpt2_small();
    // [CNN workload] unsigned sparse inputs; [transformer] signed dense.
    let workloads = [
        ("CNN (unsigned sparse)", &resnet.layers()[5], false),
        ("Transformer (signed dense)", &gpt2.layers()[0], true),
    ];
    let encodings = [Encoding::Differential, Encoding::Offset];
    let dac_bits = 4u32;

    let dac_a = CurrentDac::new(dac_bits, TechNode::N22).expect("dac a");
    let dac_b = CapacitiveDac::new(dac_bits, TechNode::N22).expect("dac b");

    let mut bars: Vec<(String, f64, f64)> = Vec::new();
    for (wl_name, layer, _signed) in &workloads {
        for encoding in encodings {
            let pmf = layer.input_pmf().expect("input pmf");
            let encoded = encoding
                .encode(&pmf, layer.input_bits(), layer.input_signed())
                .expect("encode");
            let slice = encoded.mixed().average_slice(dac_bits);
            let ctx = ValueContext::driven(slice.pmf(), slice.bits());
            bars.push((
                format!("{wl_name} / {encoding}"),
                dac_a.read_energy(&ctx),
                dac_b.read_energy(&ctx),
            ));
        }
    }
    let min = bars
        .iter()
        .flat_map(|(_, a, b)| [*a, *b])
        .fold(f64::INFINITY, f64::min);

    let mut table = ExperimentTable::new(
        "fig04",
        "DAC energy per convert vs encoding and workload (normalized to min)",
        &["workload / encoding", "DAC A (norm)", "DAC B (norm)"],
    );
    for (label, a, b) in &bars {
        table.row(vec![label.clone(), fmt(a / min), fmt(b / min)]);
    }
    table.finish()?;

    let max = bars
        .iter()
        .flat_map(|(_, a, b)| [*a, *b])
        .fold(0.0f64, f64::max);
    println!(
        "  data-value-dependence swing: {:.2}x (paper: >2.5x)",
        max / min
    );

    // Per-layer best encoding: the paper notes the best encoding differs
    // per layer.
    let mut best = ExperimentTable::new(
        "fig04_per_layer",
        "best encoding per layer (DAC B energy per convert)",
        &["layer", "differential (J)", "offset (J)", "best"],
    );
    let mut winners = [0usize; 2];
    for layer in resnet
        .layers()
        .iter()
        .take(6)
        .chain(gpt2.layers().iter().take(2))
    {
        let pmf = layer.input_pmf().expect("pmf");
        let mut per_enc = Vec::new();
        for encoding in encodings {
            let encoded = encoding
                .encode(&pmf, layer.input_bits(), layer.input_signed())
                .expect("encode");
            let slice = encoded.mixed().average_slice(dac_bits);
            let ctx = ValueContext::driven(slice.pmf(), slice.bits());
            // Account for differential needing two converts per operand.
            let converts = encoding.devices_per_operand() as f64;
            per_enc.push(dac_b.read_energy(&ctx) * converts);
        }
        let best_idx = if per_enc[0] <= per_enc[1] { 0 } else { 1 };
        winners[best_idx] += 1;
        best.row(vec![
            layer.name().to_owned(),
            format!("{:.3e}", per_enc[0]),
            format!("{:.3e}", per_enc[1]),
            encodings[best_idx].to_string(),
        ]);
    }
    best.finish()?;
    println!(
        "  encoding winners: differential {} layers, offset {} layers (paper: best encoding differs per layer)",
        winners[0], winners[1]
    );
    Ok(())
}
