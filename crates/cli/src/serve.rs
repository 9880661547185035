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
//! Requests flow through a **bounded job queue** ([`ServeConfig::queue_depth`])
//! drained by a fixed worker pool; when the queue is full the request is
//! rejected immediately (`ERR … queue full`) instead of buffering without
//! bound. Each request carries a cancellation flag: while a request waits
//! for its result, its connection is polled, and a **client disconnect
//! aborts the job** — a still-queued job is skipped (counted in
//! `jobs_aborted`), a running job has its result discarded. A malformed
//! or failing scenario fails the *request* (`ERR` response), never the
//! process; worker panics are caught and reported the same way.

// The panic policy: a failing request must never take the daemon down.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
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
    /// Worker threads draining the job queue. Each job's engine
    /// parallelizes internally, so a small pool saturates the machine.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue rejects new requests.
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

/// What one request resolved to, sent from a worker back to the
/// connection that submitted it.
enum JobOutcome {
    /// The scenario ran; `name` is the TSV file stem, `tsv` its bytes.
    Table { name: String, tsv: String },
    /// The scenario failed (parse/resolution/engine error, or a caught
    /// worker panic).
    Failed(String),
    /// The job was cancelled before it started.
    Aborted,
}

/// The encoding of one request body (`RUN` vs `RUNJSON`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFormat {
    /// The pinned yamlite frontend.
    Yamlite,
    /// The reflection-backed JSON interchange encoding.
    Json,
}

/// One queued request.
struct Job {
    spec: String,
    format: SpecFormat,
    cancel: Arc<AtomicBool>,
    reply: mpsc::Sender<JobOutcome>,
}

/// A bounded MPMC job queue: rejects when full, blocks consumers when
/// empty, drains remaining jobs after close (graceful shutdown).
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

struct QueueInner {
    jobs: std::collections::VecDeque<Job>,
    closed: bool,
}

/// Why a push was refused.
enum PushError {
    Full,
    Closed,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: std::collections::VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Locks the queue, recovering from poison: a worker that panicked
    /// mid-push/pop cannot leave the deque in a torn state (every
    /// critical section completes its mutation before unlocking), and a
    /// failing request must never take the whole daemon down.
    fn locked(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, job: Job) -> Result<(), PushError> {
        let mut inner = self.locked();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or the queue is closed *and*
    /// drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.locked();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.locked().closed = true;
        self.ready.notify_all();
    }
}

/// Shared daemon state: the queue, the process-wide cache, counters.
struct ServerState {
    queue: JobQueue,
    ctx: RunContext,
    shutdown: AtomicBool,
    local: SocketAddr,
    jobs_run: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_aborted: AtomicU64,
}

impl ServerState {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        // Wake a blocking accept() so the listener notices the flag.
        let _ = TcpStream::connect(self.local);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Runs one job to completion (or skips it when already cancelled).
    /// Never panics outward: a panicking scenario fails its request.
    fn execute(&self, job: Job) {
        if job.cancel.load(Ordering::SeqCst) {
            self.jobs_aborted.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(JobOutcome::Aborted);
            return;
        }
        let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_request(&job.spec, job.format, &self.ctx)
        })) {
            Ok(Ok((name, tsv))) => {
                self.jobs_run.fetch_add(1, Ordering::Relaxed);
                JobOutcome::Table { name, tsv }
            }
            Ok(Err(e)) => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                JobOutcome::Failed(e.to_string())
            }
            Err(panic) => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                JobOutcome::Failed(format!("request panicked: {what}"))
            }
        };
        // A send failure means the requester disconnected while the job
        // ran; the result is simply discarded.
        let _ = job.reply.send(outcome);
    }

    /// The STATS response body: cache occupancy/traffic plus request
    /// counters, as one JSON object.
    fn stats_json(&self) -> String {
        format!(
            "{{\"cache\": {}, \"server\": {{\"jobs_run\": {}, \"jobs_failed\": {}, \
             \"jobs_aborted\": {}}}}}",
            self.ctx.cache().stats_snapshot().to_json(),
            self.jobs_run.load(Ordering::Relaxed),
            self.jobs_failed.load(Ordering::Relaxed),
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
        let state = Arc::new(ServerState {
            queue: JobQueue::new(config.queue_depth.max(1)),
            ctx: RunContext::with_cache(cache),
            shutdown: AtomicBool::new(false),
            local,
            jobs_run: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_aborted: AtomicU64::new(0),
        });
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
    /// single accepted connection closes). Queued jobs finish before the
    /// call returns — shutdown is graceful.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures; per-connection and per-request
    /// failures are handled in-protocol and never end the daemon.
    pub fn run(self) -> io::Result<()> {
        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&self.state);
                std::thread::spawn(move || {
                    while let Some(job) = state.queue.pop() {
                        state.execute(job);
                    }
                })
            })
            .collect();

        let mut connections = Vec::new();
        if self.config.once {
            let (stream, _) = self.listener.accept()?;
            let state = Arc::clone(&self.state);
            if let Err(e) = handle_connection(stream, &state) {
                eprintln!("cimloop-serve: connection error: {e}");
            }
            self.state.begin_shutdown();
        } else {
            loop {
                let (stream, _) = self.listener.accept()?;
                if self.state.shutting_down() {
                    break;
                }
                let state = Arc::clone(&self.state);
                connections.push(std::thread::spawn(move || {
                    if let Err(e) = handle_connection(stream, &state) {
                        eprintln!("cimloop-serve: connection error: {e}");
                    }
                }));
            }
        }

        // Graceful drain: the queue is closed (begin_shutdown), workers
        // finish what was already accepted, connections unwind on the
        // shutdown flag.
        for worker in workers {
            let _ = worker.join();
        }
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
fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) -> io::Result<()> {
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
                let spec = String::from_utf8_lossy(&body).into_owned();
                serve_run(&mut writer, reader.get_ref(), state, spec, format)?;
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

/// Submits one RUN request to the bounded queue and relays its outcome,
/// polling the connection so a client disconnect cancels the job.
fn serve_run(
    writer: &mut TcpStream,
    probe: &TcpStream,
    state: &Arc<ServerState>,
    spec: String,
    format: SpecFormat,
) -> io::Result<()> {
    let cancel = Arc::new(AtomicBool::new(false));
    let (reply, outcome) = mpsc::channel();
    let job = Job {
        spec,
        format,
        cancel: Arc::clone(&cancel),
        reply,
    };
    match state.queue.push(job) {
        Err(PushError::Full) => {
            return write_err(
                writer,
                &format!("job queue full (depth {})", state.queue.capacity),
            )
        }
        Err(PushError::Closed) => return write_err(writer, "server is shutting down"),
        Ok(()) => {}
    }
    loop {
        match outcome.recv_timeout(POLL_INTERVAL) {
            Ok(JobOutcome::Table { name, tsv }) => return write_ok(writer, &name, tsv.as_bytes()),
            Ok(JobOutcome::Failed(message)) => return write_err(writer, &message),
            Ok(JobOutcome::Aborted) => {
                // The requester is gone (that is what cancelled it); the
                // write fails silently, which is fine.
                return write_err(writer, "request cancelled");
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if peer_disconnected(probe) {
                    cancel.store(true, Ordering::SeqCst);
                    return Ok(());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return write_err(writer, "worker pool unavailable")
            }
        }
    }
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

    fn test_state(queue_depth: usize) -> Arc<ServerState> {
        Arc::new(ServerState {
            queue: JobQueue::new(queue_depth),
            ctx: RunContext::new(),
            shutdown: AtomicBool::new(false),
            local: "127.0.0.1:1".parse().expect("literal addr"),
            jobs_run: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_aborted: AtomicU64::new(0),
        })
    }

    fn job(spec: &str, cancel: &Arc<AtomicBool>) -> (Job, mpsc::Receiver<JobOutcome>) {
        let (reply, rx) = mpsc::channel();
        (
            Job {
                spec: spec.to_owned(),
                format: SpecFormat::Yamlite,
                cancel: Arc::clone(cancel),
                reply,
            },
            rx,
        )
    }

    const TINY_SPEC: &str = "!Scenario\nname: tiny\nexperiment: evaluate\n\
                             !Architecture\nmacro: base\ncalibrated: false\nrows: 16\ncols: 16\n\
                             !Workload\nmodel: mvm\nrows: 16\ncols: 16\n";

    #[test]
    fn queue_rejects_when_full_and_drains_after_close() {
        let queue = JobQueue::new(2);
        let cancel = Arc::new(AtomicBool::new(false));
        let (a, _ra) = job("a", &cancel);
        let (b, _rb) = job("b", &cancel);
        let (c, _rc) = job("c", &cancel);
        assert!(queue.push(a).is_ok());
        assert!(queue.push(b).is_ok());
        assert!(matches!(queue.push(c), Err(PushError::Full)));
        queue.close();
        let (d, _rd) = job("d", &cancel);
        assert!(matches!(queue.push(d), Err(PushError::Closed)));
        // The two accepted jobs still drain after close — graceful.
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
    }

    #[test]
    fn cancelled_job_is_skipped_not_run() {
        let state = test_state(4);
        let cancel = Arc::new(AtomicBool::new(true));
        let (j, rx) = job(TINY_SPEC, &cancel);
        state.execute(j);
        assert!(matches!(rx.recv().unwrap(), JobOutcome::Aborted));
        assert_eq!(state.jobs_aborted.load(Ordering::Relaxed), 1);
        assert_eq!(state.jobs_run.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn malformed_spec_fails_the_request_not_the_worker() {
        let state = test_state(4);
        let cancel = Arc::new(AtomicBool::new(false));
        let (j, rx) = job("!Scenario\nname: broken\n", &cancel);
        state.execute(j);
        match rx.recv().unwrap() {
            JobOutcome::Failed(message) => {
                assert!(!message.is_empty());
            }
            other => panic!(
                "expected a Failed outcome, got {}",
                match other {
                    JobOutcome::Table { name, .. } => format!("Table({name})"),
                    JobOutcome::Aborted => "Aborted".to_owned(),
                    JobOutcome::Failed(_) => unreachable!(),
                }
            ),
        }
        assert_eq!(state.jobs_failed.load(Ordering::Relaxed), 1);
        // The same worker happily serves the next request.
        let (j, rx) = job(TINY_SPEC, &cancel);
        state.execute(j);
        assert!(matches!(rx.recv().unwrap(), JobOutcome::Table { .. }));
        assert_eq!(state.jobs_run.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn good_job_returns_the_batch_tsv() {
        let state = test_state(4);
        let cancel = Arc::new(AtomicBool::new(false));
        let (j, rx) = job(TINY_SPEC, &cancel);
        state.execute(j);
        match rx.recv().unwrap() {
            JobOutcome::Table { name, tsv } => {
                assert_eq!(name, "tiny");
                let doc = ScenarioDoc::parse(TINY_SPEC).unwrap();
                let batch = crate::run_scenario(&doc).unwrap().to_tsv();
                assert_eq!(tsv, batch, "served TSV must equal the batch TSV");
            }
            JobOutcome::Failed(e) => panic!("job failed: {e}"),
            JobOutcome::Aborted => panic!("job aborted"),
        }
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
