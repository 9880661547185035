//! `cimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`,
//! run from the root of a checkout. The last stdout line is the result
//! object; see `BENCHMARK.json` for the metrics.

use std::process::{Command, ExitCode};

use cimloop_perfbench::measure::Caps;

/// glibc's cap on malloc arenas. Its default, eight per core, lets the
/// serve workload's thread churn touch a varying number of arenas, which
/// moved its peak memory by a third from run to run; capping it at
/// `nproc` is part of the load budget. glibc reads it only at start-up.
const ARENA_VAR: &str = "MALLOC_ARENA_MAX";

fn main() -> ExitCode {
    if std::env::var_os(ARENA_VAR).is_none() {
        return rerun_with_arena_cap();
    }
    let opts = match cimloop_perfbench::Opts::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("cimbench: {e}");
            return ExitCode::from(2);
        }
    };
    match cimloop_perfbench::run(std::path::Path::new("."), &opts) {
        Ok(out) => {
            cimloop_perfbench::report(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cimbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs this program again with the arena cap set, waits for it, and
/// passes its exit status on.
fn rerun_with_arena_cap() -> ExitCode {
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(ARENA_VAR, Caps::detect().nproc.to_string())
            .status()
    });
    match status {
        Ok(status) => ExitCode::from(status.code().map_or(1, |c| c.clamp(0, 255) as u8)),
        Err(e) => {
            eprintln!("cimbench: cannot re-run with {ARENA_VAR} set: {e}");
            ExitCode::FAILURE
        }
    }
}
