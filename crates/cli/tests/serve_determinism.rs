//! Served-vs-batch determinism: a scenario answered by a resident
//! `cimloop serve` daemon must be **byte-identical** to the batch CLI's
//! output for the same document — across every committed example spec,
//! under a tiny cache cap (eviction churn), and under concurrent
//! clients sharing one cache. The daemon must also survive misbehaving
//! clients: a disconnect aborts the request, never the process. Neither
//! the daemon nor the client may panic when the reader of its stdout has
//! gone. And `cimloop serve` must refuse a zero worker count or queue
//! depth rather than start.

use std::io::{BufRead as _, BufReader, Read as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Duration;

use cimloop_cli::run_scenario;
use cimloop_cli::serve::client::{Client, Response};
use cimloop_cli::serve::{ServeConfig, Server};
use cimloop_spec::ScenarioDoc;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Binds a daemon on an OS-assigned port and runs it on a background
/// thread; returns the client address and the join handle.
fn spawn_server(
    config: ServeConfig,
) -> (
    std::net::SocketAddr,
    thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn expect_table(response: Response) -> (String, Vec<u8>) {
    match response {
        Response::Ok { name, body } => (name, body),
        Response::Err(message) => panic!("request failed: {message}"),
    }
}

/// The daemon's `STATS` body, asserting that no request panicked.
fn stats_without_panics(client: &mut Client) -> String {
    let (_, stats) = expect_table(client.stats().expect("stats"));
    let stats = String::from_utf8_lossy(&stats).into_owned();
    assert!(stats.contains("\"jobs_panicked\": 0"), "{stats}");
    stats
}

/// Every committed example spec, served through one warm daemon with a
/// deliberately tiny cache cap (so eviction churns between requests),
/// answers with exactly the bytes the batch path produces.
#[test]
#[ignore = "runs every committed spec twice; minutes in a debug build — the \
            serve-smoke CI job runs this in release with --include-ignored"]
fn every_committed_spec_is_byte_identical_served_vs_batch() {
    let dir = repo_root().join("examples/specs");
    let mut specs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("committed spec dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "yaml"))
        .collect();
    specs.sort();
    assert!(
        specs.len() >= 5,
        "expected the committed specs, found {specs:?}"
    );

    let (addr, handle) = spawn_server(ServeConfig {
        table_capacity: 2,
        stats_capacity: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    for spec in &specs {
        let text = std::fs::read_to_string(spec).expect("committed spec reads");
        let doc = ScenarioDoc::parse(&text).expect("committed spec parses");
        let batch = run_scenario(&doc).expect("batch run succeeds");
        let (name, body) = expect_table(client.run(&text).expect("served run succeeds"));
        assert_eq!(name, batch.name(), "{}: name mismatch", spec.display());
        assert_eq!(
            String::from_utf8_lossy(&body),
            batch.to_tsv(),
            "{}: served bytes differ from batch bytes",
            spec.display()
        );
    }
    // The tiny cap must actually have evicted — otherwise this test
    // isn't exercising what it claims to.
    let stats = stats_without_panics(&mut client);
    assert!(
        !stats.contains("\"stats_evictions\": 0,") && !stats.contains("\"stats_evictions\": 0}"),
        "expected eviction churn under the tiny cap, got {stats}"
    );
    expect_table(client.shutdown().expect("shutdown"));
    handle
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// A tiny scenario whose parameters vary per client, so concurrent
/// clients both share cache entries and insert distinct ones.
fn tiny_spec(rows: usize) -> String {
    format!(
        "!Scenario\nname: tiny_{rows}\nexperiment: evaluate\n\
         !Architecture\nmacro: base\ncalibrated: false\nrows: {rows}\ncols: 16\n\
         !Workload\nmodel: mvm\nrows: {rows}\ncols: 16\n"
    )
}

/// N clients hammering one daemon concurrently — all sharing one
/// bounded cache — get bit-identical answers to a sequential batch run.
#[test]
fn concurrent_clients_share_one_cache_and_stay_bit_identical() {
    let (addr, handle) = spawn_server(ServeConfig {
        workers: 4,
        stats_capacity: 3,
        ..ServeConfig::default()
    });
    let rows = [8usize, 16, 24, 8, 16, 24];
    let served: Vec<(usize, String)> = thread::scope(|scope| {
        let threads: Vec<_> = rows
            .iter()
            .map(|&r| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let (_, body) = expect_table(client.run(&tiny_spec(r)).expect("served run"));
                    (r, String::from_utf8_lossy(&body).into_owned())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    for (r, body) in served {
        let doc = ScenarioDoc::parse(&tiny_spec(r)).expect("spec parses");
        let batch = run_scenario(&doc).expect("batch run").to_tsv();
        assert_eq!(
            body, batch,
            "rows={r}: concurrent served bytes differ from batch"
        );
    }
    let mut client = Client::connect(addr).expect("connect");
    stats_without_panics(&mut client);
    expect_table(client.shutdown().expect("shutdown"));
    handle
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// An abruptly disconnecting client cancels its own request and leaves
/// the daemon fully alive for everyone else.
#[test]
fn client_disconnect_aborts_the_request_not_the_daemon() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    {
        // Submit a request, then vanish without reading the response.
        let mut rude = Client::connect(addr).expect("connect");
        let spec = tiny_spec(16);
        // Send the frame by hand so we can drop mid-conversation; the
        // public client would block on the reply.
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(format!("RUN {}\n{spec}", spec.len()).as_bytes())
            .expect("send frame");
        drop(raw);
        // A half-sent frame (header promises more bytes than arrive)
        // must also be harmless.
        let mut torn = std::net::TcpStream::connect(addr).expect("torn connect");
        torn.write_all(b"RUN 99999\npartial")
            .expect("send torn frame");
        drop(torn);
        // The polite client still gets correct service afterwards.
        expect_table(rude.ping().expect("ping"));
        let (_, body) = expect_table(rude.run(&spec).expect("served run"));
        let doc = ScenarioDoc::parse(&spec).expect("spec parses");
        let batch = run_scenario(&doc).expect("batch run").to_tsv();
        assert_eq!(String::from_utf8_lossy(&body), batch);
        stats_without_panics(&mut rude);
        expect_table(rude.shutdown().expect("shutdown"));
    }
    handle
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// A hostile RUNJSON frame nesting far past the JSON depth cap (about
/// 100 KB, well under the body limit) fails its own request with `ERR`;
/// without the cap it overflowed the serving thread's stack and aborted
/// the daemon.
#[test]
fn deeply_nested_runjson_fails_the_request_not_the_daemon() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let deep = "[".repeat(50_000);
    match client.run_json(&deep).expect("deep frame answered") {
        Response::Err(message) => assert!(message.contains("nesting"), "{message}"),
        Response::Ok { name, .. } => panic!("a 50,000-deep document must fail, got `{name}`"),
    }
    let (name, body) = expect_table(client.ping().expect("ping after the deep frame"));
    assert_eq!((name.as_str(), body.len()), ("pong", 0));
    stats_without_panics(&mut client);
    expect_table(client.shutdown().expect("shutdown"));
    handle
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// The shared daemon context really is shared: a repeated request hits
/// the cache instead of recomputing (timing changes, bytes never do).
#[test]
fn repeated_requests_hit_the_shared_cache() {
    let config = ServeConfig::default();
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let ctx = server.context();
    let handle = thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    let spec = tiny_spec(16);
    let (_, first) = expect_table(client.run(&spec).expect("first run"));
    // A repeat request is answered from the *table* level of the shared
    // cache (a table hit short-circuits before any value statistics are
    // looked up), so the table counters are the ones that must move.
    let misses_after_first = ctx.cache().misses();
    let (_, second) = expect_table(client.run(&spec).expect("second run"));
    assert_eq!(
        first, second,
        "identical requests must serve identical bytes"
    );
    assert_eq!(
        ctx.cache().misses(),
        misses_after_first,
        "the second identical request must be answered from the shared cache"
    );
    assert!(ctx.cache().hits() > 0, "expected shared-cache table hits");
    stats_without_panics(&mut client);
    expect_table(client.shutdown().expect("shutdown"));
    handle
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// A repeated `dse_accuracy` request is answered from the shared cache's
/// accuracy level: the first samples each of the four designs' task
/// accuracy, the repeat samples none and serves the same bytes.
#[test]
fn a_repeated_dse_accuracy_request_samples_nothing_again() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let ctx = server.context();
    let handle = thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    let root = repo_root();
    let spec = std::fs::read_to_string(root.join("examples/specs/dse_accuracy.yaml"))
        .expect("committed spec reads");
    let golden = std::fs::read(root.join("results/dse_accuracy.tsv")).expect("golden reads");

    let (name, first) = expect_table(client.run(&spec).expect("first run"));
    assert_eq!(name, "dse_accuracy");
    assert_eq!(first, golden, "served bytes differ from the golden");
    let cold = ctx.cache().stats_snapshot();
    assert_eq!((cold.accuracy_misses, cold.accuracy_hits), (4, 0));

    let (_, second) = expect_table(client.run(&spec).expect("second run"));
    assert_eq!(second, first, "the repeat must serve identical bytes");
    let warm = ctx.cache().stats_snapshot();
    assert_eq!(
        (
            warm.accuracy_misses - cold.accuracy_misses,
            warm.accuracy_hits - cold.accuracy_hits
        ),
        (0, 4),
        "the repeat must sample no design again"
    );
    assert_eq!(warm.accuracy_len, 4);
    let stats = stats_without_panics(&mut client);
    assert!(
        stats.contains("\"accuracy_hits\": 4, \"accuracy_misses\": 4,"),
        "{stats}"
    );
    expect_table(client.shutdown().expect("shutdown"));
    handle
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

/// A spawned `cimloop` process, killed if a failing test leaves it
/// running.
struct Spawned(Child);

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A daemon whose stdout reader goes after the listening line keeps
/// serving: the `custom_macro` runner's SNR line and the shut-down line
/// used to panic on the broken pipe, failing the request and then the
/// process.
#[test]
fn a_daemon_whose_stdout_reader_has_gone_keeps_serving() {
    let mut daemon = Spawned(
        Command::new(env!("CARGO_BIN_EXE_cimloop"))
            .args(["serve", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cimloop serve runs"),
    );
    let mut first = String::new();
    {
        let stdout = daemon.0.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("the listening line");
    }
    let addr = first
        .trim()
        .strip_prefix("cimloop-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
        .to_owned();

    let root = repo_root();
    let spec = std::fs::read_to_string(root.join("examples/specs/custom_macro.yaml"))
        .expect("committed spec reads");
    let golden = std::fs::read(root.join("results/scenario_custom.tsv")).expect("golden reads");
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let (name, body) = expect_table(client.run(&spec).expect("served run"));
    assert_eq!(name, "scenario_custom");
    assert_eq!(body, golden, "served bytes differ from the golden");
    stats_without_panics(&mut client);
    expect_table(client.shutdown().expect("shutdown"));

    let status = daemon.0.wait().expect("the daemon exits");
    let mut stderr = String::new();
    if let Some(mut pipe) = daemon.0.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    assert!(status.success(), "daemon exit {status}: {stderr}");
}

/// `cimloop request … --stats -` whose stdout reader has gone before its
/// first line exits 0 without a panic.
#[test]
fn a_client_whose_stdout_reader_has_gone_exits_cleanly() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let out = std::env::temp_dir().join(format!("cimloop_closed_stdout_{}", std::process::id()));
    let spec = repo_root().join("examples/specs/custom_macro.yaml");
    let mut request = Command::new(env!("CARGO_BIN_EXE_cimloop"))
        .arg("request")
        .arg(addr.to_string())
        .arg(&spec)
        .arg("--out")
        .arg(&out)
        .args(["--stats", "-", "--shutdown"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cimloop request runs");
    // Close the only reader before the client can print its first line.
    drop(request.stdout.take());
    let output = request.wait_with_output().expect("the client exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    handle
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    let served = std::fs::read(out.join("scenario_custom.tsv")).expect("served TSV written");
    let _ = std::fs::remove_dir_all(&out);
    let golden = std::fs::read(repo_root().join("results/scenario_custom.tsv")).expect("golden");
    assert_eq!(served, golden);
}

/// `cimloop serve` with `flag 0` must exit 2 naming the flag, before it
/// binds. A daemon that starts instead is killed after about five seconds.
fn assert_serve_rejects_zero(flag: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cimloop"))
        .args(["serve", "127.0.0.1:0", flag, "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cimloop runs");
    let mut status = None;
    for _ in 0..250 {
        status = child.try_wait().expect("poll cimloop serve");
        if status.is_some() {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    if status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    assert_eq!(
        status.and_then(|s| s.code()),
        Some(2),
        "`cimloop serve {flag} 0` must be a usage error: {stderr}"
    );
    assert!(
        stderr.contains(flag),
        "the error must name {flag}: {stderr}"
    );
}

#[test]
fn serve_rejects_zero_workers() {
    assert_serve_rejects_zero("--workers");
}

#[test]
fn serve_rejects_a_zero_queue_depth() {
    assert_serve_rejects_zero("--queue-depth");
}
