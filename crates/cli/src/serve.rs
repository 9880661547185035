//! Evaluation-as-a-service: the resident daemon behind `cimloop serve`.
//!
//! Every batch entry point pays the expensive value-statistics work from
//! nothing on each invocation; the engine's own numbers
//! (`results/BENCH_engine.json`: ~166 µs warm-cache vs ~55 ms uncached
//! per network sweep) say the payoff of staying resident is ~330x. This
//! module keeps one process alive, shares **one** process-wide (bounded)
//! [`EnergyTableCache`] across every request, and guarantees that a
//! served response is byte-identical to the batch CLI's TSV for the same
//! scenario — the cache amortizes timing, never values.
//!
//! # Protocol
//!
//! Hand-rolled over [`std::net::TcpListener`]; newline-delimited command
//! frames with length-prefixed bodies (scenario documents are multi-line,
//! so bodies carry an explicit byte count instead of a line terminator).
//!
//! Client → server, one command per line:
//!
//! ```text
//! RUN <nbytes>\n<nbytes of yamlite scenario document>
//! RUNJSON <nbytes>\n<nbytes of JSON scenario document>
//! STATS\n
//! PING\n
//! SHUTDOWN\n
//! ```
//!
//! `RUNJSON` carries the same scenario as JSON (the reflection-backed
//! interchange encoding, [`cimloop_spec::scenario::ScenarioDoc::from_json`]);
//! both frames resolve through the same reflected schemas and produce
//! byte-identical TSV responses for equivalent documents. A JSON body
//! nesting arrays/objects deeper than [`cimloop_spec::json::MAX_DEPTH`]
//! (128) levels is answered `ERR` with the line of the first bracket
//! past the cap; the parser stops there instead of recursing further.
//!
//! Server → client, one response per command:
//!
//! ```text
//! OK <nbytes> <name>\n<nbytes of body>     (RUN: body is the TSV the
//!                                           batch CLI would write to
//!                                           results/<name>.tsv)
//! ERR <nbytes>\n<nbytes of error message>
//! ```
//!
//! # Concurrency, bounding, cancellation
//!
//! Each connection has its own thread, and each request runs on the
//! thread of the connection that sent it. An **admission gate** bounds
//! the work: at most [`ServeConfig::workers`] requests are evaluated at
//! once and at most [`ServeConfig::queue_depth`] wait for a slot; a
//! request arriving at a full gate is rejected immediately
//! (`ERR job queue full …`) instead of buffering without bound. While a
//! request waits, its connection is polled, and a **client disconnect
//! aborts it**: the waiting request is skipped (counted in
//! `jobs_aborted`); a running request's result is discarded. A malformed
//! or failing scenario fails the *request* (`ERR` response, counted in
//! `jobs_failed`), never the process; a panic is caught, fails only its
//! own request and is counted in `jobs_panicked`.

// The panic policy: a failing request must never take the daemon down.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cimloop_core::EnergyTableCache;
use cimloop_spec::ScenarioDoc;

use crate::{run_scenario_with, CliError, RunContext};

/// How often waiting loops wake to poll for disconnects and shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Largest accepted request body; a scenario document is a few KiB.
const MAX_BODY_BYTES: u64 = 4 * 1024 * 1024;
/// How long a client may stall mid-body before the request is dropped.
const BODY_DEADLINE: Duration = Duration::from_secs(10);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Requests evaluated at once. Each request's engine parallelizes
    /// internally, so a small number saturates the machine.
    pub workers: usize,
    /// Requests that may wait for an evaluation slot; a request arriving
    /// while this many wait is rejected.
    pub queue_depth: usize,
    /// Entry-count cap of the shared cache's energy-table level
    /// (`usize::MAX` = unbounded).
    pub table_capacity: usize,
    /// Entry-count cap of the shared cache's value-statistics level.
    pub stats_capacity: usize,
    /// Serve exactly one connection, then exit — the deterministic CI
    /// harness mode.
    pub once: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            table_capacity: usize::MAX,
            stats_capacity: usize::MAX,
            once: false,
        }
    }
}

/// The encoding of one request body (`RUN` vs `RUNJSON`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFormat {
    /// The pinned yamlite frontend.
    Yamlite,
    /// The reflection-backed JSON interchange encoding.
    Json,
}

/// The admission gate: at most `workers` requests run at once and at
/// most `queue_depth` wait for a slot. Closing it refuses new requests;
/// those already waiting still run.
struct Gate {
    counts: Mutex<GateCounts>,
    freed: Condvar,
    workers: usize,
    queue_depth: usize,
}

#[derive(Default)]
struct GateCounts {
    running: usize,
    waiting: usize,
    closed: bool,
}

/// Why the gate did not admit a request.
#[derive(Debug, PartialEq, Eq)]
enum Refused {
    Full,
    Closed,
    /// The client left while its request waited.
    Left,
}

/// A running request's evaluation slot, given back on drop.
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.locked().running -= 1;
        self.0.freed.notify_one();
    }
}

impl Gate {
    fn new(workers: usize, queue_depth: usize) -> Self {
        Gate {
            counts: Mutex::new(GateCounts::default()),
            freed: Condvar::new(),
            workers: workers.max(1),
            queue_depth: queue_depth.max(1),
        }
    }

    /// Locks the counts, recovering from poison: every critical section
    /// leaves them consistent before it can panic, and a failing request
    /// must never take the daemon down.
    fn locked(&self) -> MutexGuard<'_, GateCounts> {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one request, waiting for a slot while the gate is busy.
    /// `left` is polled while the request waits; when it reports that the
    /// client is gone, the request gives up its place.
    fn admit(&self, left: impl Fn() -> bool) -> Result<Permit<'_>, Refused> {
        let mut counts = self.locked();
        if counts.closed {
            return Err(Refused::Closed);
        }
        if counts.running >= self.workers && counts.waiting >= self.queue_depth {
            return Err(Refused::Full);
        }
        counts.waiting += 1;
        while counts.running >= self.workers {
            let (guard, wait) = self
                .freed
                .wait_timeout(counts, POLL_INTERVAL)
                .unwrap_or_else(PoisonError::into_inner);
            counts = guard;
            if wait.timed_out() && counts.running >= self.workers {
                // Poll the client without holding the lock: the probe
                // may block for up to one poll interval.
                drop(counts);
                let gone = left();
                counts = self.locked();
                if gone {
                    counts.waiting -= 1;
                    return Err(Refused::Left);
                }
            }
        }
        counts.waiting -= 1;
        counts.running += 1;
        Ok(Permit(self))
    }

    fn close(&self) {
        self.locked().closed = true;
    }
}

/// Shared daemon state: the gate, the process-wide cache, counters.
struct ServerState {
    gate: Gate,
    ctx: RunContext,
    shutdown: AtomicBool,
    local: SocketAddr,
    jobs_run: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_panicked: AtomicU64,
    jobs_aborted: AtomicU64,
}

impl ServerState {
    fn new(gate: Gate, ctx: RunContext, local: SocketAddr) -> Self {
        ServerState {
            gate,
            ctx,
            shutdown: AtomicBool::new(false),
            local,
            jobs_run: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
            jobs_aborted: AtomicU64::new(0),
        }
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.gate.close();
        // Wake a blocking accept() so the listener notices the flag.
        let _ = TcpStream::connect(self.local);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Admits one request through the gate, runs it and counts the
    /// outcome: `(name, tsv)`, or the message of the `ERR` reply. `left`
    /// reports whether the client is gone while the request waits.
    /// Never panics outward: a panicking request fails only itself.
    fn execute(
        &self,
        left: impl Fn() -> bool,
        request: impl FnOnce(&RunContext) -> Result<(String, String), CliError>,
    ) -> Result<(String, String), String> {
        let _permit = match self.gate.admit(left) {
            Ok(permit) => permit,
            Err(Refused::Full) => {
                return Err(format!("job queue full (depth {})", self.gate.queue_depth))
            }
            Err(Refused::Closed) => return Err("server is shutting down".to_owned()),
            Err(Refused::Left) => {
                self.jobs_aborted.fetch_add(1, Ordering::Relaxed);
                return Err("request cancelled".to_owned());
            }
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| request(&self.ctx))) {
            Ok(Ok(reply)) => {
                self.jobs_run.fetch_add(1, Ordering::Relaxed);
                Ok(reply)
            }
            Ok(Err(e)) => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                Err(e.to_string())
            }
            Err(panic) => {
                self.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                Err(format!("request panicked: {what}"))
            }
        }
    }

    /// The STATS response body: cache occupancy/traffic plus request
    /// counters, as one JSON object.
    fn stats_json(&self) -> String {
        format!(
            "{{\"cache\": {}, \"server\": {{\"jobs_run\": {}, \"jobs_failed\": {}, \
             \"jobs_panicked\": {}, \"jobs_aborted\": {}}}}}",
            self.ctx.cache().stats_snapshot().to_json(),
            self.jobs_run.load(Ordering::Relaxed),
            self.jobs_failed.load(Ordering::Relaxed),
            self.jobs_panicked.load(Ordering::Relaxed),
            self.jobs_aborted.load(Ordering::Relaxed),
        )
    }
}

/// Parses and runs one scenario, returning `(name, tsv)` — exactly the
/// bytes the batch CLI would write to `results/<name>.tsv`.
fn run_request(
    spec: &str,
    format: SpecFormat,
    ctx: &RunContext,
) -> Result<(String, String), CliError> {
    let doc = match format {
        SpecFormat::Yamlite => ScenarioDoc::parse(spec)?,
        SpecFormat::Json => ScenarioDoc::from_json(spec)?,
    };
    let table = run_scenario_with(&doc, ctx)?;
    Ok((table.name().to_owned(), table.to_tsv()))
}

/// The resident `cimloop serve` daemon: bind, then [`Server::run`].
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an OS-assigned port) and
    /// builds the process-wide bounded cache.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let cache = Arc::new(EnergyTableCache::bounded(
            config.table_capacity,
            config.stats_capacity,
        ));
        let state = Arc::new(ServerState::new(
            Gate::new(config.workers, config.queue_depth),
            RunContext::with_cache(cache),
            local,
        ));
        Ok(Server {
            listener,
            config,
            state,
        })
    }

    /// The bound address (the OS-assigned port when bound to port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared run context (introspection: cache stats in tests).
    pub fn context(&self) -> RunContext {
        self.state.ctx.clone()
    }

    /// Serves until `SHUTDOWN` (or, with [`ServeConfig::once`], until the
    /// single accepted connection closes). Waiting requests finish before
    /// the call returns — shutdown is graceful.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures; per-connection and per-request
    /// failures are handled in-protocol and never end the daemon.
    pub fn run(self) -> io::Result<()> {
        if self.config.once {
            let (stream, _) = self.listener.accept()?;
            if let Err(e) = handle_connection(stream, &self.state) {
                eprintln!("cimloop-serve: connection error: {e}");
            }
            return Ok(());
        }
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.state.shutting_down() {
                break;
            }
            // Release the threads of closed connections: each one keeps
            // its stack mapped until its handle is joined or dropped.
            connections.retain(|c| !c.is_finished());
            let state = Arc::clone(&self.state);
            connections.push(std::thread::spawn(move || {
                if let Err(e) = handle_connection(stream, &state) {
                    eprintln!("cimloop-serve: connection error: {e}");
                }
            }));
        }
        // Graceful drain: the gate is closed (begin_shutdown), admitted
        // and waiting requests finish on their connections, and idle
        // connections unwind on the shutdown flag.
        for connection in connections {
            let _ = connection.join();
        }
        Ok(())
    }
}

/// Reads one `\n`-terminated line, tolerating read timeouts (used to poll
/// the shutdown flag). Returns `None` on EOF or shutdown.
fn read_command(
    reader: &mut BufReader<TcpStream>,
    state: &ServerState,
) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                // EOF; a final unterminated line still counts.
                break;
            }
            Ok(_) => {
                if buf.ends_with(b"\n") {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.shutting_down() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if buf.is_empty() {
        return Ok(None);
    }
    let line = String::from_utf8_lossy(&buf).trim().to_owned();
    Ok(Some(line))
}

/// Reads exactly `len` body bytes, tolerating timeouts up to
/// [`BODY_DEADLINE`].
#[expect(
    clippy::disallowed_methods,
    reason = "the body-read deadline guards connection liveness and cannot reach results"
)]
fn read_body(reader: &mut BufReader<TcpStream>, len: u64) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len as usize];
    let mut filled = 0usize;
    let deadline = Instant::now() + BODY_DEADLINE;
    while filled < body.len() {
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "request body stalled",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(body)
}

fn write_ok(writer: &mut TcpStream, name: &str, body: &[u8]) -> io::Result<()> {
    writer.write_all(format!("OK {} {name}\n", body.len()).as_bytes())?;
    writer.write_all(body)?;
    writer.flush()
}

fn write_err(writer: &mut TcpStream, message: &str) -> io::Result<()> {
    writer.write_all(format!("ERR {}\n", message.len()).as_bytes())?;
    writer.write_all(message.as_bytes())?;
    writer.flush()
}

/// Whether the peer behind `stream` has disconnected (half-closed its
/// write side). Uses `peek`, so pipelined request bytes are untouched.
fn peer_disconnected(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            false
        }
        Err(_) => true,
    }
}

/// Serves one client connection: command loop until EOF/SHUTDOWN.
fn handle_connection(stream: TcpStream, state: &ServerState) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    while let Some(line) = read_command(&mut reader, state)? {
        if line.is_empty() {
            continue;
        }
        let (command, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        match command {
            "PING" => write_ok(&mut writer, "pong", b"")?,
            "STATS" => write_ok(&mut writer, "cache-stats", state.stats_json().as_bytes())?,
            "SHUTDOWN" => {
                write_ok(&mut writer, "bye", b"")?;
                state.begin_shutdown();
                return Ok(());
            }
            "RUN" | "RUNJSON" => {
                let format = if command == "RUNJSON" {
                    SpecFormat::Json
                } else {
                    SpecFormat::Yamlite
                };
                let Ok(len) = rest.trim().parse::<u64>() else {
                    write_err(
                        &mut writer,
                        &format!("{command} needs a byte count: `{command} <nbytes>`"),
                    )?;
                    continue;
                };
                if len > MAX_BODY_BYTES {
                    write_err(
                        &mut writer,
                        &format!(
                            "request body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
                        ),
                    )?;
                    continue;
                }
                let body = read_body(&mut reader, len)?;
                let spec = String::from_utf8_lossy(&body);
                // The connection is polled while the request waits, so a
                // client disconnect cancels it.
                let probe = reader.get_ref();
                match state.execute(
                    || peer_disconnected(probe),
                    |ctx| run_request(&spec, format, ctx),
                ) {
                    Ok((name, tsv)) => write_ok(&mut writer, &name, tsv.as_bytes())?,
                    Err(message) => write_err(&mut writer, &message)?,
                }
            }
            other => write_err(
                &mut writer,
                &format!(
                    "unknown command `{other}` (expected RUN, RUNJSON, STATS, PING, or SHUTDOWN)"
                ),
            )?,
        }
    }
    Ok(())
}

/// A minimal blocking client for the serve protocol, shared by
/// `cimloop request` and the test suites.
pub mod client {
    use super::*;

    /// One response frame.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        /// `OK <name>` with its body.
        Ok {
            /// The response name (`RUN`: the TSV file stem).
            name: String,
            /// The response body (`RUN`: the TSV bytes).
            body: Vec<u8>,
        },
        /// `ERR` with its message.
        Err(String),
    }

    /// A connected protocol client.
    pub struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        /// Connects to a running daemon.
        ///
        /// # Errors
        ///
        /// Propagates connection failures.
        pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            let writer = stream.try_clone()?;
            Ok(Client {
                reader: BufReader::new(stream),
                writer,
            })
        }

        /// Submits one scenario document and awaits its response.
        ///
        /// # Errors
        ///
        /// Propagates protocol I/O failures (an `ERR` response is an
        /// `Ok(Response::Err)`, not an `Err`).
        pub fn run(&mut self, spec: &str) -> io::Result<Response> {
            self.submit("RUN", spec)
        }

        /// Submits one JSON-encoded scenario document (a `RUNJSON` frame)
        /// and awaits its response.
        ///
        /// # Errors
        ///
        /// Propagates protocol I/O failures (an `ERR` response is an
        /// `Ok(Response::Err)`, not an `Err`).
        pub fn run_json(&mut self, spec: &str) -> io::Result<Response> {
            self.submit("RUNJSON", spec)
        }

        fn submit(&mut self, verb: &str, spec: &str) -> io::Result<Response> {
            self.writer
                .write_all(format!("{verb} {}\n", spec.len()).as_bytes())?;
            self.writer.write_all(spec.as_bytes())?;
            self.writer.flush()?;
            self.read_response()
        }

        /// Requests the daemon's cache/server statistics JSON.
        ///
        /// # Errors
        ///
        /// Propagates protocol I/O failures.
        pub fn stats(&mut self) -> io::Result<Response> {
            self.command("STATS")
        }

        /// Pings the daemon.
        ///
        /// # Errors
        ///
        /// Propagates protocol I/O failures.
        pub fn ping(&mut self) -> io::Result<Response> {
            self.command("PING")
        }

        /// Asks the daemon to shut down gracefully.
        ///
        /// # Errors
        ///
        /// Propagates protocol I/O failures.
        pub fn shutdown(&mut self) -> io::Result<Response> {
            self.command("SHUTDOWN")
        }

        fn command(&mut self, verb: &str) -> io::Result<Response> {
            self.writer.write_all(format!("{verb}\n").as_bytes())?;
            self.writer.flush()?;
            self.read_response()
        }

        fn read_response(&mut self) -> io::Result<Response> {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a response header arrived",
                ));
            }
            let header = header.trim_end_matches('\n');
            let (status, rest) = header.split_once(' ').ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed response header `{header}`"),
                )
            })?;
            let (len, name) = match rest.split_once(' ') {
                Some((len, name)) => (len, name.to_owned()),
                None => (rest, String::new()),
            };
            let len: usize = len.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed response length in `{header}`"),
                )
            })?;
            // A daemon dying mid-response leaves a short body behind the
            // header; a bare `read_exact` would surface only "failed to
            // fill whole buffer". Count what actually arrived so a torn
            // frame names both byte counts.
            let mut body = vec![0u8; len];
            let mut received = 0;
            while received < len {
                match self.reader.read(&mut body[received..]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!(
                                "torn response frame: header `{header}` promised {len} bytes \
                                 but the connection closed after {received}"
                            ),
                        ))
                    }
                    Ok(n) => received += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            match status {
                "OK" => Ok(Response::Ok { name, body }),
                "ERR" => Ok(Response::Err(String::from_utf8_lossy(&body).into_owned())),
                other => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown response status `{other}`"),
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(workers: usize, queue_depth: usize) -> ServerState {
        ServerState::new(
            Gate::new(workers, queue_depth),
            RunContext::new(),
            "127.0.0.1:1".parse().expect("literal addr"),
        )
    }

    /// Serves one yamlite request from a client that stays connected.
    fn serve(state: &ServerState, spec: &str) -> Result<(String, String), String> {
        state.execute(|| false, |ctx| run_request(spec, SpecFormat::Yamlite, ctx))
    }

    /// Blocks until `n` requests wait at the gate.
    fn await_waiting(gate: &Gate, n: usize) {
        while gate.locked().waiting < n {
            std::thread::yield_now();
        }
    }

    const TINY_SPEC: &str = "!Scenario\nname: tiny\nexperiment: evaluate\n\
                             !Architecture\nmacro: base\ncalibrated: false\nrows: 16\ncols: 16\n\
                             !Workload\nmodel: mvm\nrows: 16\ncols: 16\n";

    #[test]
    fn gate_rejects_when_full_and_runs_waiters_after_close() {
        let gate = Gate::new(1, 1);
        let running = gate.admit(|| false).expect("a free slot admits");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.admit(|| false).map(drop));
            await_waiting(&gate, 1);
            // One request runs and one waits: the gate is full.
            assert_eq!(gate.admit(|| false).err(), Some(Refused::Full));
            // Closing refuses new requests; the waiting one still runs
            // once the slot frees — shutdown is graceful.
            gate.close();
            assert_eq!(gate.admit(|| false).err(), Some(Refused::Closed));
            drop(running);
            assert_eq!(waiter.join().expect("waiter thread"), Ok(()));
        });
        let counts = gate.locked();
        assert_eq!((counts.running, counts.waiting), (0, 0));
    }

    #[test]
    fn waiting_request_whose_client_left_is_skipped_not_run() {
        let state = test_state(1, 4);
        let running = state.gate.admit(|| false).expect("a free slot admits");
        let reply = state.execute(|| true, |_| panic!("a cancelled request must not run"));
        assert_eq!(reply, Err("request cancelled".to_owned()));
        assert_eq!(state.jobs_aborted.load(Ordering::Relaxed), 1);
        assert_eq!(state.jobs_run.load(Ordering::Relaxed), 0);
        assert_eq!(state.jobs_panicked.load(Ordering::Relaxed), 0);
        assert_eq!(state.gate.locked().waiting, 0);
        drop(running);
    }

    #[test]
    fn malformed_spec_fails_the_request_not_the_worker() {
        let state = test_state(1, 4);
        let message =
            serve(&state, "!Scenario\nname: broken\n").expect_err("a malformed spec fails");
        assert!(!message.is_empty());
        assert_eq!(state.jobs_failed.load(Ordering::Relaxed), 1);
        // The next request is served as usual.
        assert!(serve(&state, TINY_SPEC).is_ok());
        assert_eq!(state.jobs_run.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_request_fails_alone_and_is_counted() {
        let state = test_state(1, 1);
        let reply = state.execute(|| false, |_| panic!("boom"));
        assert_eq!(reply, Err("request panicked: boom".to_owned()));
        assert_eq!(state.jobs_panicked.load(Ordering::Relaxed), 1);
        assert_eq!(state.jobs_failed.load(Ordering::Relaxed), 0);
        // The panicking request gave its slot back.
        assert!(serve(&state, TINY_SPEC).is_ok());
        let stats = state.stats_json();
        assert!(stats.contains("\"jobs_panicked\": 1"), "{stats}");
    }

    #[test]
    fn good_job_returns_the_batch_tsv() {
        let state = test_state(1, 4);
        let (name, tsv) = serve(&state, TINY_SPEC).expect("the request runs");
        assert_eq!(name, "tiny");
        let doc = ScenarioDoc::parse(TINY_SPEC).unwrap();
        let batch = crate::run_scenario(&doc).unwrap().to_tsv();
        assert_eq!(tsv, batch, "served TSV must equal the batch TSV");
        let stats = state.stats_json();
        assert!(stats.contains("\"jobs_run\": 1"), "{stats}");
    }

    #[test]
    fn runjson_request_is_byte_identical_to_run() {
        // custom_macro carries an inline component tree, which JSON
        // encodes as `{tag, entries}` node sections.
        let custom = include_str!("../../../examples/specs/custom_macro.yaml");
        let ctx = RunContext::new();
        for spec in [TINY_SPEC, custom] {
            let (name_y, tsv_y) = run_request(spec, SpecFormat::Yamlite, &ctx).unwrap();
            let json = ScenarioDoc::parse(spec).unwrap().to_json();
            let (name_j, tsv_j) = run_request(&json, SpecFormat::Json, &ctx).unwrap();
            assert_eq!(name_y, name_j);
            assert_eq!(tsv_y, tsv_j, "RUNJSON must serve the batch TSV bytes");
        }
    }

    /// A fake daemon that accepts one connection, reads the request
    /// frame, sends the given response bytes, and drops the connection.
    fn truncating_server(response: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("request header");
            // Drain the body as well: closing a socket with unread input
            // sends a reset, which can reach the client before the torn
            // frame does and turn its EOF into `ConnectionReset`.
            let len: usize = line
                .split_whitespace()
                .nth(1)
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).expect("request body");
            stream.write_all(response).expect("partial response");
            // Dropping the stream closes the connection mid-frame.
        });
        addr
    }

    #[test]
    fn client_names_both_byte_counts_on_a_torn_response_frame() {
        // Regression: a daemon dying mid-response used to surface the
        // raw io error ("failed to fill whole buffer"); the client must
        // say what the header promised and what actually arrived.
        let addr = truncating_server(b"OK 100 tiny\npartial body");
        let mut client = client::Client::connect(addr).expect("connect");
        let err = client.run(TINY_SPEC).expect_err("torn frame must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let message = err.to_string();
        assert!(
            message.contains("promised 100 bytes") && message.contains("after 12"),
            "torn-frame error must name expected/received counts, got `{message}`"
        );
    }

    #[test]
    fn client_reports_a_connection_closed_before_any_header() {
        // The degenerate torn frame: the daemon dies before writing a
        // header at all.
        let addr = truncating_server(b"");
        let mut client = client::Client::connect(addr).expect("connect");
        let err = client
            .run(TINY_SPEC)
            .expect_err("missing header must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            err.to_string().contains("before a response header"),
            "got `{}`",
            err
        );
    }
}
