//! The `cimloop` binary: spec-driven experiments from scenario files.
//!
//! ```text
//! cimloop evaluate <spec>… [--out DIR] [--format yamlite|json]
//!                                              # run any scenario, write TSV
//! cimloop sweep    <spec>… [--out DIR]         # sweep-family scenarios only
//! cimloop dse      <spec>… [--out DIR] [--staged] [--checkpoint FILE]
//!                  [--resume] [--shard i/n] [--max-evals N]
//!                                              # design-space scenarios only
//! cimloop merge-fronts <spec> <checkpoint>… [--out DIR]
//!                                              # recombine shard checkpoints
//! cimloop validate <spec>… [--monte-carlo N] [--seed S]
//!                                              # resolve + report, don't run;
//!                                              # optionally cross-check the
//!                                              # analytic SNR by sampling
//! cimloop convert  <spec>… [--to yamlite|json] # re-encode via reflection
//! cimloop diff     <old> <new>                 # structural field-level diff
//! cimloop serve    <addr> [--once] [--workers N] [--queue-depth N]
//!                  [--table-cap N] [--stats-cap N]
//!                                              # resident evaluation daemon
//! cimloop request  <addr> <spec>… [--out DIR] [--stats FILE]
//!                  [--shutdown]                # client for a running daemon
//! ```
//!
//! Scenario files ending in `.json` are decoded as the reflection-backed
//! JSON interchange encoding; everything else parses as yamlite (the
//! pinned frontend). `--format` overrides the extension; `cimloop
//! request` sends `.json` files as `RUNJSON` frames.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cimloop_cli::serve::client::{Client, Response};
use cimloop_cli::serve::{ServeConfig, Server, SpecFormat};
use cimloop_cli::{
    dse_with, merge_fronts, run_scenario, validate_doc_with, CliError, DseOptions, RunContext,
    ValidateOptions, DSE_KINDS, SWEEP_KINDS,
};
use cimloop_spec::ScenarioDoc;

const USAGE: &str =
    "usage: cimloop <evaluate|sweep|dse|validate> <spec>... [--out DIR] [--format yamlite|json]
       cimloop validate <spec>... [--monte-carlo N] [--seed S]
       cimloop dse <spec>... [--staged] [--checkpoint FILE] [--resume] [--shard i/n] [--max-evals N]
       cimloop merge-fronts <spec> <checkpoint>... [--out DIR]
       cimloop convert <spec>... [--to yamlite|json]
       cimloop diff <old.tsv|old-spec> <new.tsv|new-spec>
       cimloop serve <addr> [--once] [--workers N] [--queue-depth N] [--table-cap N] [--stats-cap N]
       cimloop request <addr> <spec>... [--out DIR] [--stats FILE] [--shutdown]";

/// Parses a `--format`/`--to` value.
fn format_name(value: &str) -> Option<SpecFormat> {
    match value {
        "yamlite" | "yaml" => Some(SpecFormat::Yamlite),
        "json" => Some(SpecFormat::Json),
        _ => None,
    }
}

/// The encoding of a spec file: forced by `--format` when given, else
/// `.json` files are JSON and everything else is yamlite.
fn detect_format(path: &Path, forced: Option<SpecFormat>) -> SpecFormat {
    forced.unwrap_or_else(|| {
        if path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"))
        {
            SpecFormat::Json
        } else {
            SpecFormat::Yamlite
        }
    })
}

/// Decodes one spec source in the given encoding.
fn parse_spec(text: &str, format: SpecFormat) -> Result<ScenarioDoc, CliError> {
    Ok(match format {
        SpecFormat::Yamlite => ScenarioDoc::parse(text)?,
        SpecFormat::Json => ScenarioDoc::from_json(text)?,
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest: Vec<String> = args.collect();
    match command.as_str() {
        "serve" => return serve_main(&rest),
        "request" => return request_main(&rest),
        "convert" => return convert_main(&rest),
        "diff" => return diff_main(&rest),
        "merge-fronts" => return merge_main(&rest),
        _ => {}
    }
    let mut specs: Vec<PathBuf> = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut forced: Option<SpecFormat> = None;
    let mut dse_opts = DseOptions::default();
    let mut validate_opts = ValidateOptions::default();
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out needs a directory argument\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref().and_then(format_name) {
                Some(format) => forced = Some(format),
                None => {
                    eprintln!("--format needs `yamlite` or `json`\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--staged" => dse_opts.staged = Some(true),
            "--resume" => dse_opts.resume = true,
            "--checkpoint" => match args.next() {
                Some(file) => dse_opts.checkpoint = Some(PathBuf::from(file)),
                None => return usage_error("--checkpoint needs a file argument"),
            },
            "--shard" => match args.next().map(|s| s.parse()) {
                Some(Ok(shard)) => dse_opts.shard = Some(shard),
                Some(Err(e)) => return usage_error(&e.to_string()),
                None => return usage_error("--shard needs an `i/n` argument"),
            },
            "--max-evals" => match parse_count("--max-evals", args.next()) {
                Ok(n) => dse_opts.max_evaluations = Some(n),
                Err(e) => return usage_error(&e),
            },
            "--monte-carlo" => match parse_count("--monte-carlo", args.next()) {
                Ok(n) => validate_opts.monte_carlo = Some(n as u64),
                Err(e) => return usage_error(&e),
            },
            "--seed" => match parse_count("--seed", args.next()) {
                Ok(n) => validate_opts.seed = Some(n as u64),
                Err(e) => return usage_error(&e),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            path => specs.push(PathBuf::from(path)),
        }
    }
    if specs.is_empty() {
        eprintln!("no scenario files given\n{USAGE}");
        return ExitCode::from(2);
    }
    if (validate_opts.monte_carlo.is_some() || validate_opts.seed.is_some())
        && command != "validate"
    {
        return usage_error("--monte-carlo/--seed only apply to `cimloop validate`");
    }
    if validate_opts.seed.is_some() && validate_opts.monte_carlo.is_none() {
        return usage_error("--seed requires --monte-carlo N");
    }
    if !dse_opts.is_default() {
        if command != "dse" {
            return usage_error(
                "--staged/--checkpoint/--resume/--shard/--max-evals only apply to `cimloop dse`",
            );
        }
        // Sharded fronts and budget-stopped progress live in checkpoints;
        // without one the work would be unrecoverable.
        if dse_opts.checkpoint.is_none()
            && (dse_opts.resume || dse_opts.shard.is_some() || dse_opts.max_evaluations.is_some())
        {
            return usage_error("--resume, --shard, and --max-evals require --checkpoint FILE");
        }
        if dse_opts.checkpoint.is_some() && specs.len() > 1 {
            return usage_error("--checkpoint runs one scenario at a time");
        }
    }

    for spec in &specs {
        let text = match std::fs::read_to_string(spec) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{}: {e}", spec.display());
                return ExitCode::FAILURE;
            }
        };
        let format = detect_format(spec, forced);
        let result: Result<(), CliError> = match command.as_str() {
            "validate" => parse_spec(&text, format)
                .and_then(|doc| validate_doc_with(&doc, &validate_opts).map(|_| ())),
            "evaluate" | "sweep" | "dse" => parse_spec(&text, format)
                .and_then(|doc| run_kind(&command, &doc, &out_dir, &dse_opts)),
            other => {
                eprintln!("unknown subcommand `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = result {
            eprintln!("{}: {e}", spec.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn run_kind(
    command: &str,
    doc: &ScenarioDoc,
    out_dir: &std::path::Path,
    dse_opts: &DseOptions,
) -> Result<(), CliError> {
    let kind = doc.experiment();
    let allowed = match command {
        "sweep" => SWEEP_KINDS.contains(&kind),
        "dse" => DSE_KINDS.contains(&kind),
        _ => true, // `evaluate` runs every kind
    };
    if !allowed {
        return Err(CliError::Usage(format!(
            "`cimloop {command}` cannot run an `experiment: {kind}` scenario \
             (use `cimloop evaluate`)"
        )));
    }
    if kind == "dse" {
        // The dse runner can stop early (shard or budget); then the front
        // lives in the checkpoint and no TSV is written.
        match dse_with(doc, &RunContext::new(), dse_opts)? {
            Some(table) => table.finish_to(out_dir)?,
            None => println!("  partial run: no TSV written (merge or resume to finish)"),
        }
        return Ok(());
    }
    if !dse_opts.is_default() {
        return Err(CliError::Usage(format!(
            "--staged/--checkpoint/--resume/--shard/--max-evals require `experiment: dse`, \
             got `experiment: {kind}`"
        )));
    }
    run_scenario(doc)?.finish_to(out_dir)?;
    Ok(())
}

/// `cimloop merge-fronts <spec> <checkpoint>… [--out DIR]`: recombine
/// shard checkpoints of one dse scenario into the single-process Pareto
/// front and write its TSV. The merge is byte-identical to running the
/// sweep unsharded.
fn merge_main(args: &[String]) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut forced: Option<SpecFormat> = None;
    let mut iter = args.iter().cloned();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage_error("--out needs a directory argument"),
            },
            "--format" => match iter.next().as_deref().and_then(format_name) {
                Some(format) => forced = Some(format),
                None => return usage_error("--format needs `yamlite` or `json`"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown flag `{other}`"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [spec, checkpoints @ ..] = paths.as_slice() else {
        return usage_error("merge-fronts needs a <spec> and at least one <checkpoint>");
    };
    if checkpoints.is_empty() {
        return usage_error("merge-fronts needs a <spec> and at least one <checkpoint>");
    }
    let text = match std::fs::read_to_string(spec) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{}: {e}", spec.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = match parse_spec(&text, detect_format(spec, forced)) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{}: {e}", spec.display());
            return ExitCode::FAILURE;
        }
    };
    match merge_fronts(&doc, checkpoints).and_then(|table| Ok(table.finish_to(&out_dir)?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}: {e}", spec.display());
            ExitCode::FAILURE
        }
    }
}

/// `cimloop convert <spec>… [--to yamlite|json]`: decode each spec by
/// its extension and re-emit it through the reflected data model to
/// stdout (yamlite via the canonical writer, JSON via the codec).
fn convert_main(args: &[String]) -> ExitCode {
    let mut specs: Vec<PathBuf> = Vec::new();
    let mut target = SpecFormat::Yamlite;
    let mut forced: Option<SpecFormat> = None;
    let mut iter = args.iter().cloned();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--to" => match iter.next().as_deref().and_then(format_name) {
                Some(format) => target = format,
                None => return usage_error("--to needs `yamlite` or `json`"),
            },
            "--format" => match iter.next().as_deref().and_then(format_name) {
                Some(format) => forced = Some(format),
                None => return usage_error("--format needs `yamlite` or `json`"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown flag `{other}`"));
            }
            path => specs.push(PathBuf::from(path)),
        }
    }
    if specs.is_empty() {
        return usage_error("convert needs at least one spec file");
    }
    for spec in &specs {
        let text = match std::fs::read_to_string(spec) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{}: {e}", spec.display());
                return ExitCode::FAILURE;
            }
        };
        let doc = match parse_spec(&text, detect_format(spec, forced)) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{}: {e}", spec.display());
                return ExitCode::FAILURE;
            }
        };
        match target {
            SpecFormat::Yamlite => print!("{}", doc.write()),
            SpecFormat::Json => print!("{}", doc.to_json()),
        }
    }
    ExitCode::SUCCESS
}

/// `cimloop diff <old> <new>`: a field-level structural comparison.
/// `.tsv` files compare as result tables (row/column paths); anything
/// else compares as scenario documents through the reflected data
/// model. Exits 1 when the files differ structurally.
fn diff_main(args: &[String]) -> ExitCode {
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let [old, new] = paths.as_slice() else {
        return usage_error("diff needs exactly two files");
    };
    let read = |p: &str| match std::fs::read_to_string(p) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("{p}: {e}");
            None
        }
    };
    let (Some(old_text), Some(new_text)) = (read(old), read(new)) else {
        return ExitCode::FAILURE;
    };
    let is_tsv = |p: &str| {
        Path::new(p)
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("tsv"))
    };
    let report = if is_tsv(old) && is_tsv(new) {
        cimloop_bench::diff_tsv(&old_text, &new_text)
    } else {
        let parse = |p: &str, text: &str| match parse_spec(text, detect_format(Path::new(p), None))
        {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!("{p}: {e}");
                None
            }
        };
        let (Some(old_doc), Some(new_doc)) = (parse(old, &old_text), parse(new, &new_text)) else {
            return ExitCode::FAILURE;
        };
        cimloop_spec::render_diff(&cimloop_spec::diff(
            &old_doc.to_value(),
            &new_doc.to_value(),
        ))
    };
    if report.is_empty() {
        println!("{old} and {new} are structurally identical");
        ExitCode::SUCCESS
    } else {
        print!("{report}");
        ExitCode::FAILURE
    }
}

/// Parses a `--flag N` numeric argument.
fn parse_count(flag: &str, value: Option<String>) -> Result<usize, String> {
    let Some(value) = value else {
        return Err(format!("{flag} needs a numeric argument"));
    };
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got `{value}`"))
}

/// `cimloop serve <addr> [--once] [--workers N] [--queue-depth N]
/// [--table-cap N] [--stats-cap N]`
fn serve_main(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut config = ServeConfig::default();
    let mut iter = args.iter().cloned();
    while let Some(arg) = iter.next() {
        let numeric = |v: Option<String>| parse_count(&arg, v);
        match arg.as_str() {
            "--once" => config.once = true,
            "--workers" => match numeric(iter.next()) {
                Ok(n) => config.workers = n.max(1),
                Err(e) => return usage_error(&e),
            },
            "--queue-depth" => match numeric(iter.next()) {
                Ok(n) => config.queue_depth = n.max(1),
                Err(e) => return usage_error(&e),
            },
            "--table-cap" => match numeric(iter.next()) {
                Ok(n) => config.table_capacity = n,
                Err(e) => return usage_error(&e),
            },
            "--stats-cap" => match numeric(iter.next()) {
                Ok(n) => config.stats_capacity = n,
                Err(e) => return usage_error(&e),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown flag `{other}`"));
            }
            a if addr.is_none() => addr = Some(a.to_owned()),
            extra => return usage_error(&format!("unexpected argument `{extra}`")),
        }
    }
    let Some(addr) = addr else {
        return usage_error("serve needs an <addr> (e.g. 127.0.0.1:7878)");
    };
    let server = match Server::bind(addr.as_str(), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cimloop serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(local) => {
            // The "listening" line is the readiness signal harnesses wait
            // for, so flush it before blocking in accept().
            println!("cimloop-serve listening on {local}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("cimloop serve: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            println!("cimloop-serve: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cimloop serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cimloop request <addr> <spec.yaml>… [--out DIR] [--stats FILE]
/// [--shutdown]`
fn request_main(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut specs: Vec<PathBuf> = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut stats_file: Option<String> = None;
    let mut shutdown = false;
    let mut iter = args.iter().cloned();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage_error("--out needs a directory argument"),
            },
            "--stats" => match iter.next() {
                Some(file) => stats_file = Some(file),
                None => return usage_error("--stats needs a file argument (`-` for stdout)"),
            },
            "--shutdown" => shutdown = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown flag `{other}`"));
            }
            a if addr.is_none() => addr = Some(a.to_owned()),
            path => specs.push(PathBuf::from(path)),
        }
    }
    let Some(addr) = addr else {
        return usage_error("request needs an <addr> first (e.g. 127.0.0.1:7878)");
    };
    if specs.is_empty() && stats_file.is_none() && !shutdown {
        return usage_error("request needs scenario files, --stats, or --shutdown");
    }
    let mut client = match Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("cimloop request: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for spec in &specs {
        let text = match std::fs::read_to_string(spec) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{}: {e}", spec.display());
                failed = true;
                continue;
            }
        };
        // `.json` specs travel as RUNJSON frames; the daemon decodes
        // them through the same reflected schemas, so the served TSV is
        // byte-identical to the yamlite path.
        let response = match detect_format(spec, None) {
            SpecFormat::Json => client.run_json(&text),
            SpecFormat::Yamlite => client.run(&text),
        };
        match response {
            Ok(Response::Ok { name, body }) => {
                match cimloop_bench::write_tsv(&out_dir, &name, &body) {
                    Ok(path) => {
                        println!("{}: served `{name}` -> {}", spec.display(), path.display())
                    }
                    Err(e) => {
                        eprintln!("cimloop request: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Ok(Response::Err(message)) => {
                eprintln!("{}: {message}", spec.display());
                failed = true;
            }
            Err(e) => {
                eprintln!("{}: protocol error: {e}", spec.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(stats_file) = stats_file {
        match client.stats() {
            Ok(Response::Ok { body, .. }) => {
                if stats_file == "-" {
                    println!("{}", String::from_utf8_lossy(&body));
                } else if let Err(e) = std::fs::write(&stats_file, &body) {
                    eprintln!("cimloop request: cannot write {stats_file}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Ok(Response::Err(message)) => {
                eprintln!("cimloop request: STATS failed: {message}");
                failed = true;
            }
            Err(e) => {
                eprintln!("cimloop request: protocol error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if shutdown {
        match client.shutdown() {
            Ok(Response::Ok { .. }) => println!("cimloop request: daemon shutting down"),
            Ok(Response::Err(message)) => {
                eprintln!("cimloop request: SHUTDOWN failed: {message}");
                failed = true;
            }
            Err(e) => {
                eprintln!("cimloop request: protocol error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}
