//! Served-vs-batch determinism: a scenario answered by a resident
//! `cimloop serve` daemon must be **byte-identical** to the batch CLI's
//! output for the same document — across every committed example spec,
//! under a tiny cache cap (eviction churn), and under concurrent
//! clients sharing one cache. The daemon must also survive misbehaving
//! clients: a disconnect aborts the request, never the process.

use std::path::PathBuf;
use std::thread;

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
