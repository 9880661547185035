//! The `cimloop` binary: spec-driven experiments from scenario files.
//!
//! ```text
//! cimloop evaluate <spec>… [--out DIR] [--checkpoint FILE] [--resume]
//!                  [--shard i/n] [--max-evals N]
//!                                              # run any scenario, write TSV
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
//! pinned frontend). `cimloop request` sends `.json` files as `RUNJSON`
//! frames. The exit code is 2 for a usage error, 1 for a failed run (and
//! for `diff` of files that differ), 0 otherwise.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use cimloop_bench::{outln, print_stdout};
use cimloop_cli::serve::client::{Client, Response};
use cimloop_cli::serve::{ServeConfig, Server};
use cimloop_cli::{merge_fronts, run, validate_doc_with, DseOptions, RunContext, ValidateOptions};
use cimloop_spec::ScenarioDoc;

const USAGE: &str = "usage: cimloop evaluate <spec>... [--out DIR] [--checkpoint FILE] [--resume] [--shard i/n] [--max-evals N]
       cimloop validate <spec>... [--monte-carlo N] [--seed S]
       cimloop merge-fronts <spec> <checkpoint>... [--out DIR]
       cimloop convert <spec>... [--to yamlite|json]
       cimloop diff <old.tsv|old-spec> <new.tsv|new-spec>
       cimloop serve <addr> [--once] [--workers N] [--queue-depth N] [--table-cap N] [--stats-cap N]
       cimloop request <addr> <spec>... [--out DIR] [--stats FILE] [--shutdown]";

/// Why a subcommand stopped before its normal end.
enum Stop {
    /// `-h` or `--help`: the usage on stdout, exit 0.
    Help,
    /// A malformed command line: the message and the usage, exit 2.
    Usage(String),
    /// A failed run: the message, exit 1.
    Failed(String),
}

fn usage(message: impl Into<String>) -> Stop {
    Stop::Usage(message.into())
}

/// A failed run, prefixed with the file or the step it concerns.
fn failed(what: impl Display, e: impl Display) -> Stop {
    Stop::Failed(format!("{what}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "evaluate" => evaluate(rest),
        "validate" => validate(rest),
        "merge-fronts" => merge(rest),
        "convert" => convert(rest),
        "diff" => diff(rest),
        "serve" => serve(rest),
        "request" => request(rest),
        "-h" | "--help" => Err(Stop::Help),
        other => Err(usage(format!("unknown subcommand `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Help) => {
            outln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(Stop::Usage(message)) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Stop::Failed(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand's command line: its positional arguments and the flags
/// given, each with its value (`None` for a switch).
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args` by the subcommand's flags: one in `valued` takes the
    /// next argument as its value, one in `switches` takes none. Any other
    /// argument starting with `-` is a usage error, and `-h`/`--help`
    /// stops with the usage.
    fn parse(args: &'a [String], valued: &[&str], switches: &[&str]) -> Result<Self, Stop> {
        let mut parsed = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut iter = args.iter().map(String::as_str);
        while let Some(arg) = iter.next() {
            if arg == "-h" || arg == "--help" {
                return Err(Stop::Help);
            } else if valued.contains(&arg) {
                let value = iter
                    .next()
                    .ok_or_else(|| usage(format!("{arg} needs a value")))?;
                parsed.flags.push((arg, Some(value)));
            } else if switches.contains(&arg) {
                parsed.flags.push((arg, None));
            } else if arg.starts_with('-') {
                return Err(usage(format!("unknown flag `{arg}`")));
            } else {
                parsed.positional.push(arg);
            }
        }
        Ok(parsed)
    }

    /// The value of the last `flag VALUE` given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|&(_, value)| value)
    }

    /// Whether the switch `flag` was given.
    fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of `flag` parsed as a `T`.
    fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Stop>
    where
        T::Err: Display,
    {
        self.value(flag)
            .map(|value| {
                value
                    .parse()
                    .map_err(|e| usage(format!("{flag} `{value}`: {e}")))
            })
            .transpose()
    }

    /// `--out DIR`, `results` when not given.
    fn out_dir(&self) -> &'a Path {
        Path::new(self.value("--out").unwrap_or("results"))
    }

    /// The positional arguments as scenario files, at least one.
    fn specs(&self) -> Result<&[&'a str], Stop> {
        if self.positional.is_empty() {
            return Err(usage("no scenario files given"));
        }
        Ok(&self.positional)
    }
}

fn has_extension(path: &str, extension: &str) -> bool {
    Path::new(path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case(extension))
}

fn read(path: &str) -> Result<String, Stop> {
    std::fs::read_to_string(path).map_err(|e| failed(path, e))
}

/// Reads one scenario file and decodes it by its extension (`.json` as
/// JSON, anything else as yamlite); the errors name the file.
fn load(path: &str) -> Result<ScenarioDoc, Stop> {
    let text = read(path)?;
    let doc = if has_extension(path, "json") {
        ScenarioDoc::from_json(&text)
    } else {
        ScenarioDoc::parse(&text)
    };
    doc.map_err(|e| failed(path, e))
}

/// `cimloop evaluate`: runs each scenario and writes its TSV. The dse
/// flags apply to an `experiment: dse` scenario; on any other kind the
/// run fails with a usage error.
fn evaluate(args: &[String]) -> Result<(), Stop> {
    let args = Args::parse(
        args,
        &["--out", "--checkpoint", "--shard", "--max-evals"],
        &["--resume"],
    )?;
    let specs = args.specs()?;
    let opts = DseOptions {
        checkpoint: args.value("--checkpoint").map(PathBuf::from),
        resume: args.switch("--resume"),
        shard: args.parsed("--shard")?,
        max_evaluations: args.parsed("--max-evals")?,
    };
    // Sharded fronts and budget-stopped progress live in checkpoints;
    // without one the work would be unrecoverable.
    if opts.checkpoint.is_none()
        && (opts.resume || opts.shard.is_some() || opts.max_evaluations.is_some())
    {
        return Err(usage(
            "--resume, --shard, and --max-evals require --checkpoint FILE",
        ));
    }
    if opts.checkpoint.is_some() && specs.len() > 1 {
        return Err(usage("--checkpoint runs one scenario at a time"));
    }
    for &spec in specs {
        let doc = load(spec)?;
        // A shard or a budget-stopped run has no TSV yet: its front is in
        // the checkpoint.
        match run(&doc, &RunContext::new(), &opts).map_err(|e| failed(spec, e))? {
            Some(table) => table
                .finish_to(args.out_dir())
                .map_err(|e| failed(spec, e))?,
            None => outln!("  partial run: no TSV written (merge or resume to finish)"),
        }
    }
    Ok(())
}

/// `cimloop validate`: resolves and reports each scenario without
/// running it.
fn validate(args: &[String]) -> Result<(), Stop> {
    let args = Args::parse(args, &["--monte-carlo", "--seed"], &[])?;
    let specs = args.specs()?;
    let opts = ValidateOptions {
        monte_carlo: args.parsed("--monte-carlo")?,
        seed: args.parsed("--seed")?,
    };
    if opts.seed.is_some() && opts.monte_carlo.is_none() {
        return Err(usage("--seed requires --monte-carlo N"));
    }
    for &spec in specs {
        validate_doc_with(&load(spec)?, &opts).map_err(|e| failed(spec, e))?;
    }
    Ok(())
}

/// `cimloop merge-fronts`: recombines shard checkpoints of one dse
/// scenario into the single-process Pareto front and writes its TSV,
/// byte-identical to running the sweep unsharded.
fn merge(args: &[String]) -> Result<(), Stop> {
    let args = Args::parse(args, &["--out"], &[])?;
    let Some((&spec, checkpoints)) = args
        .positional
        .split_first()
        .filter(|(_, checkpoints)| !checkpoints.is_empty())
    else {
        return Err(usage(
            "merge-fronts needs a <spec> and at least one <checkpoint>",
        ));
    };
    let checkpoints: Vec<PathBuf> = checkpoints.iter().map(PathBuf::from).collect();
    let table = merge_fronts(&load(spec)?, &checkpoints).map_err(|e| failed(spec, e))?;
    table.finish_to(args.out_dir()).map_err(|e| failed(spec, e))
}

/// `cimloop convert`: re-emits each spec through the reflected data
/// model to stdout (yamlite via the canonical writer, JSON via the
/// codec).
fn convert(args: &[String]) -> Result<(), Stop> {
    let args = Args::parse(args, &["--to"], &[])?;
    let specs = args.specs()?;
    let to_json = match args.value("--to").unwrap_or("yamlite") {
        "yamlite" | "yaml" => false,
        "json" => true,
        other => {
            return Err(usage(format!(
                "--to needs `yamlite` or `json`, got `{other}`"
            )))
        }
    };
    for &spec in specs {
        let doc = load(spec)?;
        let text = if to_json { doc.to_json() } else { doc.write() };
        print_stdout(format_args!("{text}"));
    }
    Ok(())
}

/// `cimloop diff <old> <new>`: a field-level structural comparison.
/// `.tsv` files compare as result tables (row/column paths); anything
/// else compares as scenario documents through the reflected data
/// model. Files that differ exit 1.
fn diff(args: &[String]) -> Result<(), Stop> {
    let args = Args::parse(args, &[], &[])?;
    let &[old, new] = args.positional.as_slice() else {
        return Err(usage("diff needs exactly two files"));
    };
    let report = if has_extension(old, "tsv") && has_extension(new, "tsv") {
        cimloop_bench::diff_tsv(&read(old)?, &read(new)?)
    } else {
        cimloop_spec::render_diff(&cimloop_spec::diff(
            &load(old)?.to_value(),
            &load(new)?.to_value(),
        ))
    };
    if !report.is_empty() {
        print_stdout(format_args!("{report}"));
        return Err(Stop::Failed(format!("{old} and {new} differ")));
    }
    outln!("{old} and {new} are structurally identical");
    Ok(())
}

/// `cimloop serve`: binds the daemon and serves until `SHUTDOWN`.
fn serve(args: &[String]) -> Result<(), Stop> {
    let args = Args::parse(
        args,
        &["--workers", "--queue-depth", "--table-cap", "--stats-cap"],
        &["--once"],
    )?;
    let &[addr] = args.positional.as_slice() else {
        return Err(usage("serve needs one <addr> (e.g. 127.0.0.1:7878)"));
    };
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: args.parsed("--workers")?.unwrap_or(defaults.workers),
        queue_depth: args
            .parsed("--queue-depth")?
            .unwrap_or(defaults.queue_depth),
        table_capacity: args
            .parsed("--table-cap")?
            .unwrap_or(defaults.table_capacity),
        stats_capacity: args
            .parsed("--stats-cap")?
            .unwrap_or(defaults.stats_capacity),
        once: args.switch("--once"),
    };
    for (flag, count) in [
        ("--workers", config.workers),
        ("--queue-depth", config.queue_depth),
    ] {
        if count == 0 {
            return Err(usage(format!("{flag} must be at least 1")));
        }
    }
    let server = Server::bind(addr, config)
        .map_err(|e| failed(format!("cimloop serve: cannot bind {addr}"), e))?;
    let local = server
        .local_addr()
        .map_err(|e| failed("cimloop serve", e))?;
    // The "listening" line is the readiness signal harnesses wait for;
    // `outln!` flushes it before the daemon blocks in accept().
    outln!("cimloop-serve listening on {local}");
    server.run().map_err(|e| failed("cimloop serve", e))?;
    outln!("cimloop-serve: shut down cleanly");
    Ok(())
}

/// `cimloop request`: sends scenarios to a running daemon and writes the
/// served TSVs; optionally fetches `STATS` and stops the daemon. Any
/// failed request exits 1 once the rest are done.
fn request(args: &[String]) -> Result<(), Stop> {
    let args = Args::parse(args, &["--out", "--stats"], &["--shutdown"])?;
    let Some((&addr, specs)) = args.positional.split_first() else {
        return Err(usage("request needs an <addr> first (e.g. 127.0.0.1:7878)"));
    };
    let stats_file = args.value("--stats");
    let shutdown = args.switch("--shutdown");
    if specs.is_empty() && stats_file.is_none() && !shutdown {
        return Err(usage(
            "request needs scenario files, --stats, or --shutdown",
        ));
    }
    let mut client = Client::connect(addr)
        .map_err(|e| failed(format!("cimloop request: cannot connect to {addr}"), e))?;
    let protocol = |e| failed("cimloop request: protocol error", e);
    let mut failures = 0;
    for &spec in specs {
        // `.json` specs travel as RUNJSON frames; the daemon decodes
        // them through the same reflected schemas, so the served TSV is
        // byte-identical to the yamlite path.
        let response = match std::fs::read_to_string(spec) {
            Ok(text) if has_extension(spec, "json") => client.run_json(&text),
            Ok(text) => client.run(&text),
            Err(e) => {
                eprintln!("{spec}: {e}");
                failures += 1;
                continue;
            }
        };
        match response.map_err(protocol)? {
            Response::Ok { name, body } => {
                let path = cimloop_bench::write_tsv(args.out_dir(), &name, &body)
                    .map_err(|e| failed("cimloop request", e))?;
                outln!("{spec}: served `{name}` -> {}", path.display());
            }
            Response::Err(message) => {
                eprintln!("{spec}: {message}");
                failures += 1;
            }
        }
    }
    if let Some(stats_file) = stats_file {
        match client.stats().map_err(protocol)? {
            Response::Ok { body, .. } if stats_file == "-" => {
                outln!("{}", String::from_utf8_lossy(&body));
            }
            Response::Ok { body, .. } => std::fs::write(stats_file, &body)
                .map_err(|e| failed(format!("cimloop request: cannot write {stats_file}"), e))?,
            Response::Err(message) => {
                eprintln!("cimloop request: STATS failed: {message}");
                failures += 1;
            }
        }
    }
    if shutdown {
        match client.shutdown().map_err(protocol)? {
            Response::Ok { .. } => outln!("cimloop request: daemon shutting down"),
            Response::Err(message) => {
                eprintln!("cimloop request: SHUTDOWN failed: {message}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(Stop::Failed(format!(
            "cimloop request: {failures} command(s) failed"
        )));
    }
    Ok(())
}
