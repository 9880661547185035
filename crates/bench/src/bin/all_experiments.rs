//! Runs every paper experiment in sequence (figures and tables), writing
//! `results/*.tsv`. Equivalent to invoking each binary individually; see
//! EXPERIMENTS.md for the paper-vs-measured summary.
//!
//! Heavy experiments (fig06 ground-truth simulation, table02 timing) run
//! last; pass `--fast` to skip them.

use std::process::Command;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let mut experiments: Vec<&str> = vec![
        "table03", "fig04", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16", "fig02a", "fig02b",
    ];
    if !fast {
        experiments.extend(["fig06", "table02"]);
    }

    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe directory")
        .to_path_buf();

    let mut failures = Vec::new();
    for name in &experiments {
        println!("\n########## {name} ##########");
        let status = Command::new(exe_dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            failures.push(*name);
        }
    }
    if failures.is_empty() {
        println!(
            "\nall {} experiments completed; see results/",
            experiments.len()
        );
    } else {
        eprintln!("\nfailed experiments: {failures:?}");
        std::process::exit(1);
    }
}
