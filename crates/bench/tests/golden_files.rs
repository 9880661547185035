//! Golden regression guard: the committed result TSVs must be byte-for-
//! byte what the code produces.
//!
//! Two layers of defense share this job: the `golden-results` CI job
//! *regenerates* every golden (the spec'd ones with `cimloop evaluate
//! examples/specs/*.yaml`, the rest with the argument-free `figures`
//! binary) and diffs it against the committed file, while this test pins
//! the committed bytes themselves (FNV-1a hash + length), so an
//! accidental local regeneration under different code is caught by plain
//! `cargo test` without paying for the regeneration.
//!
//! If a hash mismatch is *intended* (a deliberate modeling change),
//! regenerate the golden with its spec or the `figures` binary, update
//! the constants here, and say why in the commit message.

use std::fs;
use std::path::PathBuf;

/// `(file, fnv1a64 hash, length in bytes)` for every enforced golden.
///
/// Seven goldens come from the `cimloop` CLI: `scenario_custom.tsv` from
/// `examples/specs/custom_macro.yaml`, and `dse_accuracy`, `dse_grid`
/// (the shard/merge smoke's single-process reference), `fig02b`,
/// `fig09_noise`, `fig12`, and `table02` from the spec of the same name.
/// The `figures` binary writes the other sixteen, one per function of
/// `cimloop_bench::figures`; `network_sweep.tsv` is the tiny network's
/// deterministic engine record.
const GOLDENS: [(&str, u64, usize); 23] = [
    ("dse_accuracy.tsv", 0xfe46868d9c67f4fc, 227),
    ("dse_grid.tsv", 0xee3927f97530d0a3, 721),
    ("fig02a.tsv", 0x95c47b92e420049d, 260),
    ("fig02b.tsv", 0x410b189704181cef, 224),
    ("fig04.tsv", 0x8e78e4a8747f5948, 232),
    ("fig04_per_layer.tsv", 0x6977cfbb668f3017, 368),
    ("fig06.tsv", 0x24fc1bcfc9fab5e0, 695),
    ("fig07.tsv", 0xc7200b0c40e38654, 427),
    ("fig08.tsv", 0xcfa5502dc4d1f92f, 338),
    ("fig09.tsv", 0xb019b9a051c8e30a, 502),
    ("fig09_noise.tsv", 0xa8673e0e8db5a8f1, 440),
    ("fig10.tsv", 0xc7b74b1575e4b140, 490),
    ("fig11.tsv", 0xeec6f95b838a15bb, 382),
    ("fig12.tsv", 0x0578d35b7a2801e7, 841),
    ("fig13.tsv", 0x523470f59bfe3b37, 285),
    ("fig14.tsv", 0x1b8f86b915faef98, 1108),
    ("fig15.tsv", 0x6fa9b067672ec7e4, 523),
    ("fig16.tsv", 0xba31acc713e6d731, 771),
    ("fig_mc_accuracy.tsv", 0x228b919f8c7108ef, 350),
    ("network_sweep.tsv", 0x11e5fa94ca0ef252, 88),
    ("scenario_custom.tsv", 0x5a7cbbe24c63efdd, 195),
    ("table02.tsv", 0x350fbb373c3d1780, 343),
    ("table03.tsv", 0x491da45eba33e8f6, 235),
];

/// FNV-1a, 64-bit: stable across platforms and Rust versions (unlike
/// `DefaultHasher`, whose algorithm is unspecified).
fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// The golden as last committed (`git show HEAD:results/<name>`), when
/// a git checkout is available — the "expected" side of the structural
/// diff a mismatch prints.
fn committed_version(name: &str) -> Option<String> {
    let output = std::process::Command::new("git")
        .args(["show", &format!("HEAD:results/{name}")])
        .current_dir(results_dir())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).into_owned())
}

#[test]
fn committed_goldens_are_bit_identical() {
    for (name, expected_hash, expected_len) in GOLDENS {
        let path = results_dir().join(name);
        let data =
            fs::read(&path).unwrap_or_else(|e| panic!("golden {} must exist: {e}", path.display()));
        if data.len() == expected_len && fnv1a64(&data) == expected_hash {
            continue;
        }
        // Not the pinned bytes: report *which fields* moved, not just
        // that bytes did. The committed version (when git is available
        // and the file drifted from HEAD) anchors the structural diff;
        // otherwise fall back to the hash message.
        let current = String::from_utf8_lossy(&data);
        let report = committed_version(name)
            .map(|head| cimloop_bench::diff_tsv(&head, &current))
            .filter(|report| !report.is_empty());
        match report {
            Some(report) => panic!(
                "golden {name} changed — regenerate deliberately or revert; \
                 structural diff vs HEAD:\n{report}"
            ),
            None => panic!(
                "golden {name} changed content (len {} vs pinned {expected_len}, \
                 fnv1a64 {:#x} vs pinned {expected_hash:#x}) — the working tree \
                 matches HEAD, so update the pinned constants if the change is \
                 deliberate",
                data.len(),
                fnv1a64(&data),
            ),
        }
    }
}

#[test]
fn goldens_parse_as_tsv_tables() {
    for (name, _, _) in GOLDENS {
        let text = fs::read_to_string(results_dir().join(name)).expect("golden exists");
        let mut lines = text.lines();
        let header = lines.next().expect("non-empty golden");
        let columns = header.split('\t').count();
        assert!(columns >= 2, "{name}: header has {columns} column(s)");
        for (i, line) in lines.enumerate() {
            assert_eq!(
                line.split('\t').count(),
                columns,
                "{name}: row {} is ragged",
                i + 2
            );
        }
    }
}
