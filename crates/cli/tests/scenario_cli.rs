//! Integration tests of the scenario front-end: the committed example
//! specs reproduce their committed goldens byte-for-byte, and spec-driven
//! runs are bit-identical to the programmatic API — the two paths are
//! the same engine.

use std::path::PathBuf;

use cimloop_cli::{
    merge_fronts, run, run_scenario, validate_doc_with, validate_text, CliError, DseOptions,
    RunContext, ValidateOptions,
};
use cimloop_core::EnergyTableCache;
use cimloop_dse::{DesignSpace, Explorer, Shard};
use cimloop_macros::base_macro;
use cimloop_spec::{ScenarioDoc, SpecError};
use cimloop_workload::{Layer, LayerKind, Shape, Workload};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn committed_specs_reproduce_their_committed_goldens() {
    // The specs that run in well under a second even in a debug build;
    // fig02b, fig12, and table02 are left to the release-mode
    // golden-results CI job.
    for (spec, golden) in [
        ("custom_macro.yaml", "scenario_custom.tsv"),
        ("fig09_noise.yaml", "fig09_noise.tsv"),
        ("dse_grid.yaml", "dse_grid.tsv"),
        ("dse_accuracy.yaml", "dse_accuracy.tsv"),
    ] {
        let text = std::fs::read_to_string(repo_root().join("examples/specs").join(spec))
            .expect("committed spec exists");
        let expected = std::fs::read_to_string(repo_root().join("results").join(golden))
            .expect("committed golden exists");
        let doc = ScenarioDoc::parse(&text).expect("spec parses");
        let table = run_scenario(&doc).expect("scenario runs");
        assert_eq!(
            table.to_tsv(),
            expected,
            "{spec} must reproduce results/{golden} byte-for-byte"
        );
    }
}

#[test]
fn committed_custom_spec_validates_cleanly() {
    let spec = std::fs::read_to_string(repo_root().join("examples/specs/custom_macro.yaml"))
        .expect("committed spec exists");
    let warnings = validate_text(&spec).expect("spec validates");
    assert!(warnings.is_empty(), "unexpected warnings: {warnings:?}");
}

fn tiny_workload_spec() -> &'static str {
    "!Workload\nname: tiny\n\
     !Layer\nname: a\nkind: linear\nn: 2\nk: 24\nc: 24\n\
     !Layer\nname: b\nkind: linear\nn: 2\nk: 48\nc: 24\ninput_bits: 4\n"
}

fn tiny_workload() -> Workload {
    Workload::new(
        "tiny",
        vec![
            Layer::new("a", LayerKind::Linear, Shape::linear(2, 24, 24).unwrap()),
            Layer::new("b", LayerKind::Linear, Shape::linear(2, 48, 24).unwrap())
                .with_input_bits(4),
        ],
    )
    .unwrap()
}

#[test]
fn spec_driven_dse_matches_the_programmatic_explorer() {
    let text = format!(
        "!Scenario\nname: tiny_dse\nexperiment: dse\naccuracy: snr\n\
         !Architecture\nname: base\nmacro: base\ncalibrated: false\n\
         !Space\nsquare_arrays: [16, 32]\ndac_bits: [1, 2]\n{}",
        tiny_workload_spec()
    );
    let doc = ScenarioDoc::parse(&text).unwrap();
    let spec_table = run_scenario(&doc).expect("dse scenario runs");

    // The programmatic twin: same grid, same explorer configuration.
    let space = DesignSpace::new()
        .variant("base", base_macro().uncalibrated())
        .square_arrays([16, 32])
        .dac_bits([1, 2]);
    let exploration = Explorer::new().explore(&space, &tiny_workload()).unwrap();

    // Front membership and ordering agree: the table has one row per
    // front member, in id order, labeled identically.
    let tsv = spec_table.to_tsv();
    let rows: Vec<&str> = tsv.lines().skip(1).collect();
    assert_eq!(rows.len(), exploration.front.len());
    for (row, member) in rows.iter().zip(exploration.front.members()) {
        let label = row.split('\t').next().unwrap();
        assert_eq!(label, member.value.point.label());
        let energy = row.split('\t').next_back().unwrap();
        assert_eq!(
            energy,
            format!("{:.6e}", member.value.energy_total),
            "{label}"
        );
    }
}

#[test]
fn spec_driven_evaluate_matches_the_programmatic_evaluator() {
    let text = format!(
        "!Scenario\nname: tiny_eval\nexperiment: evaluate\n\
         !Architecture\nmacro: base\ncalibrated: false\nrows: 32\ncols: 32\n{}",
        tiny_workload_spec()
    );
    let doc = ScenarioDoc::parse(&text).unwrap();
    let table = run_scenario(&doc).expect("evaluate scenario runs");

    let m = base_macro().uncalibrated().with_array(32, 32);
    let report = m
        .evaluator()
        .unwrap()
        .evaluate(
            &tiny_workload(),
            &m.representation(),
            &EnergyTableCache::new(),
            1,
        )
        .unwrap();
    let tsv = table.to_tsv();
    let total_row = tsv
        .lines()
        .find(|l| l.starts_with("TOTAL"))
        .expect("total row");
    let energy = total_row.split('\t').nth(2).unwrap();
    assert_eq!(energy, format!("{:.6e}", report.energy_total()));
}

#[test]
fn task_accuracy_dse_gains_its_column_and_monte_carlo_validate_agrees() {
    let text = format!(
        "!Scenario\nname: tiny_acc\nexperiment: dse\naccuracy: task_accuracy\n\
         !Architecture\nname: base\nmacro: base\ncalibrated: false\n\
         !Noise\ncell_variation: 0.15\n\
         !Space\nsquare_arrays: [16, 32]\n{}",
        tiny_workload_spec()
    );
    let doc = ScenarioDoc::parse(&text).unwrap();
    let table = run_scenario(&doc).expect("task-accuracy dse runs");
    let tsv = table.to_tsv();
    assert!(
        tsv.lines().next().unwrap().ends_with("task accuracy"),
        "the task_accuracy objective must surface its column: {tsv}"
    );
    for row in tsv.lines().skip(1) {
        let acc: f64 = row
            .rsplit('\t')
            .next()
            .unwrap()
            .parse()
            .expect("task-accuracy cell parses");
        assert!((0.0..=1.0).contains(&acc), "accuracy {acc} out of range");
    }
    // The sampled objective is seeded: reruns are byte-identical.
    assert_eq!(tsv, run_scenario(&doc).unwrap().to_tsv());

    // `cimloop validate --monte-carlo`: the analytic chain and the
    // sampled engine agree within tolerance, so validation stays clean.
    let warnings = validate_doc_with(
        &doc,
        &ValidateOptions {
            monte_carlo: Some(4096),
            seed: Some(7),
        },
    )
    .expect("monte-carlo validation runs");
    assert!(
        warnings.iter().all(|w| !w.contains("deviates")),
        "unexpected analytic-vs-MC tolerance warnings: {warnings:?}"
    );
}

#[test]
fn subcommand_kind_gating_and_errors() {
    // Unknown experiment kinds are usage errors.
    let doc = ScenarioDoc::parse(
        "!Scenario\nname: x\nexperiment: frobnicate\n!Architecture\nmacro: base\n\
         !Workload\nmodel: mvm\nrows: 16\ncols: 16\n",
    )
    .unwrap();
    assert!(matches!(run_scenario(&doc), Err(CliError::Usage(_))));

    // `compare` without !Row sections is a usage error.
    let doc = ScenarioDoc::parse(
        "!Scenario\nname: x\nexperiment: compare\n!Architecture\nmacro: base\n\
         calibrated: false\n!Workload\nmodel: mvm\nrows: 16\ncols: 16\nbatch: 4\n",
    )
    .unwrap();
    assert!(matches!(run_scenario(&doc), Err(CliError::Usage(_))));

    // Unknown presets carry the section's line number.
    let doc = ScenarioDoc::parse(
        "!Scenario\nname: x\n!Architecture\nmacro: warp_core\n!Workload\nmodel: mvm\n",
    )
    .unwrap();
    match run_scenario(&doc) {
        Err(CliError::Spec(cimloop_spec::SpecError::Parse { line, .. })) => assert_eq!(line, 3),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn every_committed_spec_validates() {
    // The golden-results CI job runs `cimloop validate` over every
    // committed spec; workload-less kinds (fig12's output_reuse derives
    // its workloads from the sweep) must validate too.
    let dir = repo_root().join("examples/specs");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("specs directory exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("yaml") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("spec readable");
        validate_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        seen += 1;
    }
    assert!(
        seen >= 7,
        "expected the seven committed specs, found {seen}"
    );
}

#[test]
fn sweep_rejects_empty_and_fractional_integer_axes() {
    let base = "!Scenario\nname: s\nexperiment: sweep\n\
                !Architecture\nmacro: base\ncalibrated: false\nrows: 16\ncols: 16\n\
                !Workload\nmodel: mvm\nrows: 16\ncols: 16\nbatch: 4\n";
    // An empty axis list is a diagnostic, not an index panic.
    let doc = ScenarioDoc::parse(&format!(
        "{base}!Sweep\nvariations: []\nmetrics: [snr_db]\n"
    ))
    .unwrap();
    assert!(matches!(run_scenario(&doc), Err(CliError::Usage(_))));
    // Fractional values on integer axes are rejected, not truncated
    // (the row would echo the raw token while evaluating a different
    // design).
    let doc = ScenarioDoc::parse(&format!(
        "{base}!Sweep\nadc_bits: [6.5]\nmetrics: [snr_db]\n"
    ))
    .unwrap();
    assert!(run_scenario(&doc).is_err());
}

#[test]
fn sweep_variations_layer_onto_declared_noise() {
    // A !Noise section's read noise/ADC offset must survive a
    // variations sweep: sweeping layers the cell sigma onto the declared
    // spec instead of replacing it.
    let run = |noise_section: &str| {
        let text = format!(
            "!Scenario\nname: s\nexperiment: sweep\n\
             !Architecture\nmacro: base\ncalibrated: false\nrows: 32\ncols: 32\n\
             !Workload\nmodel: mvm\nrows: 32\ncols: 32\nbatch: 4\n{noise_section}\
             !Sweep\nvariations: [0.1]\nmetrics: [snr_db]\n"
        );
        let doc = ScenarioDoc::parse(&text).unwrap();
        run_scenario(&doc).expect("sweep runs").to_tsv()
    };
    let with_offset = run("!Noise\nadc_offset: 0.5\n");
    let without = run("");
    assert_ne!(
        with_offset, without,
        "the declared ADC offset must degrade the swept SNR"
    );
}

#[test]
fn space_variations_layer_onto_declared_noise() {
    // Regression: a `!Space` variations axis replaced the declared noise
    // with a bare cell-variation spec, so the front dropped the `!Noise`
    // read noise and ADC offset and showed the noise-free SNR. It must
    // agree with a `!Sweep` over the same sigmas.
    let sections = "!Architecture\nname: base\nmacro: base\ncalibrated: false\n\
                    rows: 32\ncols: 32\nadc_bits: 8\n\
                    !Noise\nread_noise: 0.02\nadc_offset: 0.5\n\
                    !Workload\nmodel: mvm\nrows: 32\ncols: 32\nbatch: 4\n";
    let tsv = |text: String| {
        run_scenario(&ScenarioDoc::parse(&text).unwrap())
            .unwrap()
            .to_tsv()
    };
    let front = tsv(format!(
        "!Scenario\nname: d\nexperiment: dse\n{sections}!Space\nvariations: [0.0, 0.1]\n"
    ));
    let swept = tsv(format!(
        "!Scenario\nname: s\nexperiment: sweep\n{sections}\
         !Sweep\nvariations: [0.0, 0.1]\nmetrics: [snr_db]\n"
    ));
    let best: Vec<&str> = front
        .lines()
        .nth(1)
        .expect("a front row")
        .split('\t')
        .collect();
    assert_eq!(best[0], "base/32x32/dac1/adc8/rn0.02/off0.5");
    let swept_snr = swept
        .lines()
        .nth(1)
        .expect("a sweep row")
        .split('\t')
        .nth(1);
    assert_eq!(
        Some(best[4]),
        swept_snr,
        "front SNR vs !Sweep SNR at sigma 0"
    );
}

#[test]
fn validate_warns_on_defaulted_cycle_time() {
    // An architecture with a declared latency validates without warnings;
    // the defaulted-cycle-time warning is exercised at the unit level
    // (core::evaluator) because every macro-shaped architecture carries a
    // converter with a real latency. Validate must, however, reject
    // broken scenarios loudly rather than warn.
    let err = validate_text("!Scenario\nname: broken\n").unwrap_err();
    assert!(matches!(err, CliError::Usage(_) | CliError::Spec(_)));
}

#[test]
fn dse_rejects_an_empty_space_axis_with_a_line_numbered_error() {
    // Regression: an explicitly empty `!Space` axis used to fall back to
    // the variant's default silently (and a zero-candidate grid swept to
    // an empty front without complaint). It must now fail with a spec
    // error citing the axis's own line.
    let text = format!(
        "!Scenario\nname: empty_axis\nexperiment: dse\n\
         !Architecture\nmacro: base\ncalibrated: false\n\
         !Space\nsquare_arrays: []\n{}",
        tiny_workload_spec()
    );
    let doc = ScenarioDoc::parse(&text).unwrap();
    match run_scenario(&doc) {
        Err(CliError::Spec(cimloop_spec::SpecError::Parse { line, message })) => {
            assert_eq!(line, 8, "error must cite the `square_arrays:` line");
            assert!(
                message.contains("square_arrays") && message.contains("zero candidates"),
                "unhelpful message `{message}`"
            );
        }
        other => panic!("expected a line-numbered spec error, got {other:?}"),
    }
}

/// A four-design dse scenario shared by the checkpoint/shard tests.
fn tiny_dse_doc(name: &str, staged: bool) -> ScenarioDoc {
    let text = format!(
        "!Scenario\nname: {name}\nexperiment: dse\naccuracy: snr\nstaged: {staged}\n\
         !Architecture\nname: base\nmacro: base\ncalibrated: false\n\
         !Space\nsquare_arrays: [16, 32]\ndac_bits: [1, 2]\n{}",
        tiny_workload_spec()
    );
    ScenarioDoc::parse(&text).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cimloop_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn budgeted_dse_checkpoints_and_resumes_to_the_full_front() {
    let dir = temp_dir("resume");
    let ckpt = dir.join("tiny.ckpt");
    let ctx = RunContext::new();
    let whole = run(
        &tiny_dse_doc("tiny_resume", false),
        &ctx,
        &DseOptions::default(),
    )
    .expect("full run")
    .expect("full run yields a table");

    // A budget-stopped run writes the checkpoint and returns no table…
    let doc = tiny_dse_doc("tiny_resume", false);
    let partial = run(
        &doc,
        &ctx,
        &DseOptions {
            checkpoint: Some(ckpt.clone()),
            max_evaluations: Some(2),
            ..DseOptions::default()
        },
    )
    .expect("budgeted run");
    assert!(
        partial.is_none(),
        "a budget-stopped run must not emit a TSV"
    );
    assert!(ckpt.exists(), "the checkpoint must be saved");

    // …and resuming from it completes to the bit-identical full table.
    let resumed = run(
        &doc,
        &ctx,
        &DseOptions {
            checkpoint: Some(ckpt.clone()),
            resume: true,
            ..DseOptions::default()
        },
    )
    .expect("resumed run")
    .expect("resumed run completes to a table");
    assert_eq!(resumed.to_tsv(), whole.to_tsv());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_dse_merges_byte_identically_to_a_single_process_run() {
    let dir = temp_dir("shards");
    let ctx = RunContext::new();
    // Staged single-process run: the reference TSV (staged and plain
    // fronts are bit-identical by construction — cross-check it too).
    let whole = run(
        &tiny_dse_doc("tiny_shards", true),
        &ctx,
        &DseOptions::default(),
    )
    .expect("staged run")
    .expect("table");
    let plain = run(
        &tiny_dse_doc("tiny_shards", false),
        &ctx,
        &DseOptions::default(),
    )
    .expect("plain run")
    .expect("table");
    assert_eq!(
        whole.to_tsv(),
        plain.to_tsv(),
        "staged must not change the front"
    );

    // Four shard runs, each writing its checkpoint (one shard of a
    // 4-candidate grid is a single design; order is deliberately shuffled
    // at merge to prove insertion-order independence).
    let doc = tiny_dse_doc("tiny_shards", true);
    let mut checkpoints = Vec::new();
    for index in 0..4 {
        let path = dir.join(format!("shard{index}.ckpt"));
        let out = run(
            &doc,
            &ctx,
            &DseOptions {
                checkpoint: Some(path.clone()),
                shard: Some(Shard::new(index, 4).unwrap()),
                ..DseOptions::default()
            },
        )
        .expect("shard run");
        assert!(out.is_none(), "a shard run must not emit a TSV");
        checkpoints.push(path);
    }
    checkpoints.reverse();
    let merged = merge_fronts(&doc, &checkpoints).expect("merge");
    assert_eq!(
        merged.to_tsv(),
        whole.to_tsv(),
        "a 4-shard merge must be byte-identical to the single-process run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_fronts_rejects_foreign_checkpoints_and_non_dse_scenarios() {
    let dir = temp_dir("mismatch");
    let ctx = RunContext::new();
    let doc = tiny_dse_doc("tiny_a", false);
    let ckpt = dir.join("a.ckpt");
    run(
        &doc,
        &ctx,
        &DseOptions {
            checkpoint: Some(ckpt.clone()),
            ..DseOptions::default()
        },
    )
    .expect("checkpointed run");

    // A checkpoint captured on a different design space must be refused
    // (space fingerprints disagree), not silently merged.
    let other = ScenarioDoc::parse(&format!(
        "!Scenario\nname: other\nexperiment: dse\n\
         !Architecture\nmacro: base\ncalibrated: false\n\
         !Space\nsquare_arrays: [64]\n{}",
        tiny_workload_spec()
    ))
    .unwrap();
    let err = merge_fronts(&other, std::slice::from_ref(&ckpt)).unwrap_err();
    assert!(
        err.to_string().contains("mismatch"),
        "expected a checkpoint mismatch, got {err}"
    );

    // merge-fronts is dse-only.
    let sweep =
        ScenarioDoc::parse("!Scenario\nname: s\nexperiment: sweep\n!Architecture\nmacro: base\n")
            .unwrap();
    assert!(matches!(
        merge_fronts(&sweep, std::slice::from_ref(&ckpt)),
        Err(CliError::Usage(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn output_reuse_rejects_zero_and_oversized_groupings() {
    // Regression: `groupings: [0]` used to reach `base.cols() / g` and
    // panic with a divide-by-zero, and an oversized grouping silently
    // built a degenerate sweep shape. Both must now fail spec validation
    // with a line-numbered error — and, when served, fail the *request*,
    // never the daemon.
    let spec = |groupings: &str| {
        format!(
            "!Scenario\nname: reuse_bad\nexperiment: output_reuse\n\
             !Architecture\nmacro: macro_a\nfrozen: true\n\
             !Sweep\ngroupings: {groupings}\nworkloads: [max_util]\n"
        )
    };
    // `groupings:` sits on line 8 of the document built above.
    for (bad, why) in [
        ("[0]", "a zero grouping"),
        ("[1, 0, 3]", "a zero grouping hidden among valid ones"),
        ("[100000]", "a grouping wider than the array"),
    ] {
        let doc = ScenarioDoc::parse(&spec(bad)).expect("spec parses");
        let err = run_scenario(&doc).expect_err(&format!("{why} must be rejected, not run"));
        match err {
            CliError::Spec(cimloop_spec::SpecError::Parse { line, message }) => {
                assert_eq!(line, 8, "{why}: error must cite the `groupings:` line");
                assert!(
                    message.contains("groupings") && message.contains("invalid"),
                    "{why}: unhelpful message `{message}`"
                );
            }
            other => panic!("{why}: expected a line-numbered spec error, got {other}"),
        }
    }
}

#[test]
fn output_reuse_rejects_empty_groupings_and_workloads() {
    // Regression: an empty list wrote a header-only table and exited 0,
    // and `validate` passed it. Both paths must fail at the list's line.
    for (lists, cited, key) in [
        (
            "groupings: []\nworkloads: [max_util]",
            "groupings: []",
            "groupings",
        ),
        (
            "groupings: [1, 2]\nworkloads: []",
            "workloads: []",
            "workloads",
        ),
    ] {
        let spec = format!(
            "!Scenario\nname: reuse_empty\nexperiment: output_reuse\n\
             !Architecture\nmacro: base\n!Sweep\n{lists}\n"
        );
        let line = 1 + spec.lines().position(|l| l == cited).expect("cited line");
        let doc = ScenarioDoc::parse(&spec).expect("spec parses");
        let validated = validate_doc_with(&doc, &ValidateOptions::default()).map(|_| ());
        for result in [validated, run_scenario(&doc).map(|_| ())] {
            match result {
                Err(CliError::Spec(SpecError::Parse { line: at, message })) => {
                    assert_eq!(at, line, "error must point at `{cited}`: {message}");
                    assert!(message.contains(key), "{message}");
                }
                Err(other) => panic!("expected a line-numbered parse error, got {other}"),
                Ok(()) => panic!("`{cited}` must be rejected"),
            }
        }
    }
}

/// A `speed_record` scenario over one custom layer, with `counts` in its
/// `!Scenario` header: `validate` and the run must both reject it at the
/// line of `key`.
fn assert_speed_record_rejects(counts: &str, key: &str) {
    let spec = format!(
        "!Scenario\nname: speed_bad\nexperiment: speed_record\n{counts}\n\
         !Architecture\nmacro: base\n!Workload\nname: one_layer\n\
         !Layer\nname: fc\nkind: linear\nn: 1\nk: 16\nc: 32\n"
    );
    let line = 1 + spec
        .lines()
        .position(|l| l.starts_with(key))
        .expect("cited line");
    let doc = ScenarioDoc::parse(&spec).expect("spec parses");
    let validated = validate_doc_with(&doc, &ValidateOptions::default()).map(|_| ());
    for result in [validated, run_scenario(&doc).map(|_| ())] {
        match result {
            Err(CliError::Spec(SpecError::Parse { line: at, message })) => {
                assert_eq!(at, line, "error must point at `{key}`: {message}");
                assert!(
                    message.contains(key) && message.contains("1-layer workload"),
                    "{message}"
                );
            }
            Err(other) => panic!("expected a line-numbered parse error, got {other}"),
            Ok(()) => panic!("`{key}` above the layer count must be rejected"),
        }
    }
}

#[test]
fn speed_record_rejects_more_exact_layers_than_the_workload_has() {
    // Regression: the table read "value-exact cell events (5 layers, …)"
    // and simulated the one layer there is.
    assert_speed_record_rejects("exact_layers: 5\nsearch_layers: 1", "exact_layers");
}

#[test]
fn speed_record_rejects_more_search_layers_than_the_workload_has() {
    // Regression: the table read "mapping-search candidates streamed
    // (9 layers, …)" and searched the one layer there is.
    assert_speed_record_rejects("exact_layers: 1\nsearch_layers: 9", "search_layers");
}

#[test]
fn evaluate_exits_nonzero_when_the_tsv_cannot_be_written() {
    // Regression: a failed write printed a warning and exited 0, so a CI
    // diff of results/ would compare the committed file with itself.
    let dir = temp_dir("unwritable_out");
    let out = dir.join("a_file");
    std::fs::write(&out, "").expect("placeholder file");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_cimloop"))
        .arg("evaluate")
        .arg(repo_root().join("examples/specs/custom_macro.yaml"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("cimloop runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&out.join("scenario_custom.tsv").display().to_string()),
        "the error must name the path: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evaluate_whose_stdout_reader_has_gone_still_writes_its_tsv() {
    // Regression: the table print panicked on the broken pipe (exit 101)
    // before the TSV was written.
    let dir = temp_dir("closed_stdout");
    let mut evaluate = std::process::Command::new(env!("CARGO_BIN_EXE_cimloop"))
        .arg("evaluate")
        .arg(repo_root().join("examples/specs/custom_macro.yaml"))
        .arg("--out")
        .arg(&dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("cimloop runs");
    // Close the only reader before the run can print its first line.
    drop(evaluate.stdout.take());
    let output = evaluate.wait_with_output().expect("cimloop exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let written = std::fs::read(dir.join("scenario_custom.tsv")).expect("TSV written");
    let golden = std::fs::read(repo_root().join("results/scenario_custom.tsv")).expect("golden");
    assert_eq!(written, golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evaluate_and_validate_reject_a_misspelled_dse_section_at_its_line() {
    // Regression: the binary ran `experiment: dse` on a second path that
    // skipped the schema check, so `evaluate` ran `!Spcae` as a
    // one-design space, wrote its TSV and exited 0. `evaluate`,
    // `validate` and the daemon's entry point must all cite line 26.
    let dir = temp_dir("misspelled_space");
    let spec = dir.join("dse_grid.yaml");
    let grid = std::fs::read_to_string(repo_root().join("examples/specs/dse_grid.yaml"))
        .expect("committed spec exists");
    let misspelled = grid.replacen("\n!Space\n", "\n!Spcae\n", 1);
    std::fs::write(&spec, &misspelled).expect("spec written");
    let out = dir.join("out");
    let out_args = [std::ffi::OsStr::new("--out"), out.as_os_str()];
    for (command, extra) in [("evaluate", &out_args[..]), ("validate", &[][..])] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_cimloop"))
            .arg(command)
            .arg(&spec)
            .args(extra)
            .output()
            .expect("cimloop runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("line 26") && stderr.contains("`Spcae`"),
            "{command}: {stderr}"
        );
    }
    assert!(!out.exists(), "evaluate must write no TSV");
    let doc = ScenarioDoc::parse(&misspelled).expect("spec parses");
    match run_scenario(&doc) {
        Err(CliError::Spec(SpecError::Parse { line, .. })) => assert_eq!(line, 26),
        other => panic!("expected a line-numbered spec error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_checkpoint_is_a_usage_error_not_a_panic() {
    // Regression: `--resume` with no `--checkpoint FILE` used to hit an
    // `expect` deep in the runner. The panic policy (P001) demands a
    // propagated CliError instead, so the serve daemon can fail the
    // request and keep running.
    let doc = tiny_dse_doc("tiny_resume_no_ckpt", false);
    let err = run(
        &doc,
        &RunContext::new(),
        &DseOptions {
            resume: true,
            ..DseOptions::default()
        },
    )
    .expect_err("resume without a checkpoint path must be rejected");
    match err {
        CliError::Usage(message) => assert!(
            message.contains("--checkpoint"),
            "the error must name the missing flag, got `{message}`"
        ),
        other => panic!("expected a usage error, got {other}"),
    }
}

#[test]
fn malformed_spec_is_a_spec_error_not_a_panic() {
    // Regression companion to the unwrap sweep in schema.rs: a document
    // that lies about its own structure must surface as a line-numbered
    // spec error through every entry point, never a panic.
    for bad in [
        // A dse scenario with no `!Space` section at all.
        "!Scenario\nname: bad\nexperiment: dse\n!Architecture\nmacro: base\n",
        // A `!Space` whose axis value is not a list.
        "!Scenario\nname: bad\nexperiment: dse\n!Architecture\nmacro: base\n\
         !Space\nsquare_arrays: nope\n",
    ] {
        match ScenarioDoc::parse(bad) {
            Ok(doc) => {
                let err = run(&doc, &RunContext::new(), &DseOptions::default())
                    .expect_err("a malformed dse spec must be rejected");
                assert!(
                    matches!(err, CliError::Spec(_) | CliError::Usage(_)),
                    "expected a spec/usage error, got {err}"
                );
            }
            Err(e) => {
                // Failing at parse time is equally acceptable — the point
                // is an error value, which reaching this arm proves.
                let _ = e.to_string();
            }
        }
    }
}

#[test]
fn out_of_range_widths_and_counts_are_line_numbered_errors() {
    // Regressions: a cell wider than 16 bits reached the `expect` in
    // `ArrayMacro::representation`, so `validate` and `evaluate` panicked;
    // a zero or oversized count was silently clamped into range and the
    // clamped design evaluated. Both architecture paths, an inline
    // component tree and a preset override, must fail at the
    // `!Architecture` line for a bad width or tree shape, a count or
    // sigma at its key's line, and a `!Space` or `!Sweep` axis at the
    // axis's own line.
    let read = |name: &str| {
        std::fs::read_to_string(repo_root().join("examples/specs").join(name))
            .expect("committed spec exists")
    };
    let (custom, grid) = (read("custom_macro.yaml"), read("dse_grid.yaml"));
    let preset = |settings: &str| {
        format!(
            "!Scenario\nname: wide\nexperiment: evaluate\n\
             !Architecture\nmacro: base\n{settings}\n\
             !Workload\nname: tiny\n\
             !Layer\nname: fc\nkind: linear\nn: 1\nk: 8\nc: 8\n"
        )
    };
    let space_cell = grid.replacen("!Space\n", "!Space\ncell_bits: [64]\n", 1);
    let space_dac = grid.replacen("dac_bits: [1, 2]", "dac_bits: [1, 64]", 1);
    let space_array = grid.replacen("square_arrays: [32, 64, 128]", "square_arrays: [32, 0]", 1);
    let sweep_array = read("fig09_noise.yaml").replacen(
        "variations: [0.00, 0.05, 0.10, 0.20]",
        "square_arrays: [0]",
        1,
    );
    // (spec, the line the error must cite, the key it must name)
    let mut cases = vec![
        (preset("cell_bits: 64"), "!Architecture", "cell_bits"),
        (space_cell, "cell_bits: [64]", "cell_bits"),
        (space_dac, "dac_bits: [1, 64]", "dac_bits"),
        (space_array, "square_arrays: [32, 0]", "square_arrays"),
        (sweep_array, "square_arrays: [0]", "square_arrays"),
    ];
    for bits in [33, 64] {
        let spec = custom.replacen("\nbits: 2\n", &format!("\nbits: {bits}\n"), 1);
        cases.push((spec, "!Architecture", "cell_bits"));
    }
    // Converter widths outside what the circuit models accept used to
    // fail `evaluate` with no line and pass `validate`, and a 0-bit DAC
    // was clamped to 1 bit and evaluated.
    let fig09 = read("fig09_noise.yaml");
    cases.extend([
        (
            grid.replacen("dac_bits: [1, 2]", "dac_bits: [0, 1]", 1),
            "dac_bits: [0, 1]",
            "dac_bits",
        ),
        (
            grid.replacen("adc_bits: [4, 8]", "adc_bits: [4, 15]", 1),
            "adc_bits: [4, 15]",
            "adc_bits",
        ),
        (
            fig09.replacen("adc_bits: [12, 10, 8, 6, 4]", "adc_bits: [16, 4]", 1),
            "adc_bits: [16, 4]",
            "adc_bits",
        ),
        (
            fig09.replacen("adc_bits: [12, 10, 8, 6, 4]", "dac_bits: [0, 1, 2]", 1),
            "dac_bits: [0, 1, 2]",
            "dac_bits",
        ),
    ]);
    // A tree that is not macro-shaped used to fail with no line at all.
    let renamed = custom.replacen("name: custom_macro\n", "name: custom_array\n", 1);
    cases.push((renamed, "!Architecture", "_macro"));
    // Zero workload counts used to be clamped to 1, and negative or
    // non-finite sigmas zeroed, so each evaluated as another design.
    let sections = |body: &str| {
        format!(
            "!Scenario\nname: zero\nexperiment: evaluate\n\
             !Architecture\nmacro: base\n{body}\n"
        )
    };
    for (body, key) in [
        ("!Workload\nmodel: mvm\nrows: 0", "rows"),
        ("!Workload\nmodel: mvm\ncols: 0", "cols"),
        ("!Workload\nmodel: mvm\nbatch: 0", "batch"),
        ("!Workload\nmodel: resnet18\nprefix: 0", "prefix"),
        (
            "!Workload\nname: tiny\n!Layer\nname: fc\nkind: linear\nk: 8\nc: 8\ncount: 0",
            "count",
        ),
        (
            "!Workload\nmodel: mvm\n!Noise\ncell_variation: inf",
            "cell_variation",
        ),
        (
            "!Workload\nmodel: mvm\n!Noise\nread_noise: nan",
            "read_noise",
        ),
        (
            "!Workload\nmodel: mvm\n!Noise\nadc_offset: -0.5",
            "adc_offset",
        ),
    ] {
        let cited = body.lines().last().expect("one key line");
        cases.push((sections(body), cited, key));
    }
    let sweep_sigma = read("fig09_noise.yaml").replacen(
        "variations: [0.00, 0.05, 0.10, 0.20]",
        "variations: [0.0, -0.5, nan, 0.5]",
        1,
    );
    cases.push((
        sweep_sigma,
        "variations: [0.0, -0.5, nan, 0.5]",
        "variations",
    ));
    let space_sigma = grid.replacen("variations: [0.0, 0.05, 0.1]", "variations: [-0.1, 0.1]", 1);
    cases.push((space_sigma, "variations: [-0.1, 0.1]", "variations"));
    for (settings, key) in [
        // Past `u32`: cited at the key's line, not the section's.
        ("cell_bits: 4294967297", "cell_bits"),
        ("dac_bits: 0", "dac_bits"),
        ("dac_bits: 13", "dac_bits"),
        ("adc_bits: 0", "adc_bits"),
        ("adc_bits: 15", "adc_bits"),
        ("rows: 0", "rows"),
        ("cols: 0", "cols"),
        ("storage_banks: 0", "storage_banks"),
        ("buffer_entries: 0", "buffer_entries"),
        ("combine: analog_adder\noperands: 0", "operands"),
        (
            "combine: wire_sum\ncolumns_per_group: 0",
            "columns_per_group",
        ),
        (
            "combine: wire_sum\ncolumns_per_group: 1000",
            "columns_per_group",
        ),
    ] {
        let cited = settings.lines().last().expect("one setting line");
        cases.push((preset(settings), cited, key));
    }
    for (spec, cited, key) in &cases {
        let line = 1 + spec
            .lines()
            .position(|l| l == *cited)
            .expect("the rewrite left the cited line");
        let doc = ScenarioDoc::parse(spec).expect("spec parses");
        let validated = validate_doc_with(&doc, &ValidateOptions::default()).map(|_| ());
        let evaluated = run_scenario(&doc).map(|_| ());
        for result in [validated, evaluated] {
            match result {
                Err(CliError::Spec(SpecError::Parse { line: at, message })) => {
                    assert_eq!(at, line, "error must point at `{cited}`: {message}");
                    assert!(message.contains(key), "{message}");
                }
                Err(other) => panic!("expected a line-numbered parse error, got {other}"),
                Ok(()) => panic!("`{cited}` must be rejected"),
            }
        }
    }

    // A width past u32 must not wrap around to a valid one (2^32 + 1 → 1).
    let spec = custom.replacen("\nbits: 2\n", "\nbits: 4294967297\n", 1);
    let doc = ScenarioDoc::parse(&spec).expect("spec parses");
    let err = run_scenario(&doc).expect_err("an overflowing cell width must be rejected");
    assert!(err.to_string().contains("4294967297"), "{err}");
}
