//! `serve_warm`: an in-process `cimloop_cli::serve::Server` warmed by one
//! pass over the request mix, then closed-loop clients each sending
//! sessions — one pass over the mix in a seeded order — and byte-comparing
//! every reply with its golden. The caches answer with hits, so the value
//! statistics sit idle; a session's time goes to spec parsing, mapping,
//! dataflow, the staged explorer, the Monte-Carlo objective and the serve
//! protocol.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cimloop_cli::serve::client::{Client, Response};
use cimloop_cli::serve::{ServeConfig, Server};
use cimloop_cli::{run_scenario_with, RunContext};
use cimloop_spec::ScenarioDoc;

use crate::layers::{Figures, Traffic};
use crate::measure::{
    median, quantile, secs, timed, Caps, HostSpeed, Outcome, Repo, Res, SplitMix, REFERENCE_BLOCK,
};
use crate::replay::{self, Work};
use crate::trace::Tracer;
use crate::Opts;

/// Daemon start-ups (bind + warm-up pass) timed per run: the first
/// daemon serves the measured sessions, the rest start after them; the
/// median is reported.
const SETUP_SAMPLES: usize = 3;
/// Daemon workers and client connections wanted, before the `nproc` cap.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// How often the measured phase samples the host's speed.
const SAMPLE_PERIOD: std::time::Duration = std::time::Duration::from_millis(100);
/// Sessions per request timed by the traced run's served/direct split.
const TRACE_REPS: usize = 3;

/// One request of the mix: its frame, body, and golden reply.
#[derive(Debug, Clone)]
pub struct Request {
    pub label: &'static str,
    json: bool,
    body: String,
    /// The reply's expected name (the golden's file stem).
    stem: &'static str,
    golden: String,
}

impl Request {
    fn parse(&self) -> Res<ScenarioDoc> {
        Ok(if self.json {
            ScenarioDoc::from_json(&self.body)?
        } else {
            ScenarioDoc::parse(&self.body)?
        })
    }

    pub fn send(&self, client: &mut Client) -> std::io::Result<Response> {
        if self.json {
            client.run_json(&self.body)
        } else {
            client.run(&self.body)
        }
    }

    /// Whether `reply` is the golden reply, or why not.
    pub fn verify(&self, reply: std::io::Result<Response>) -> Result<(), String> {
        match reply {
            Ok(Response::Ok { name, body })
                if name == self.stem && body == self.golden.as_bytes() =>
            {
                Ok(())
            }
            Ok(Response::Ok { name, .. }) => Err(format!(
                "{}: reply `{name}` differs from results/{}.tsv",
                self.label, self.stem
            )),
            Ok(Response::Err(message)) => Err(format!("{}: ERR {message}", self.label)),
            Err(e) => Err(format!("{}: {e}", self.label)),
        }
    }
}

/// The session mix: fig12, fig09_noise, custom_macro as `RUN` and as
/// `RUNJSON`, dse_grid, and dse_accuracy.
pub fn mix(repo: &Repo) -> Res<Vec<Request>> {
    let request = |label, spec: &str, stem| -> Res<Request> {
        Ok(Request {
            label,
            json: false,
            body: repo.spec(spec)?,
            stem,
            golden: repo.golden(stem)?,
        })
    };
    let custom = request("custom_macro", "custom_macro", "scenario_custom")?;
    let custom_json = Request {
        label: "custom_macro_json",
        json: true,
        body: ScenarioDoc::parse(&custom.body)?.to_json(),
        ..custom.clone()
    };
    Ok(vec![
        request("fig12", "fig12", "fig12")?,
        request("fig09_noise", "fig09_noise", "fig09_noise")?,
        custom,
        custom_json,
        request("dse_grid", "dse_grid", "dse_grid")?,
        request("dse_accuracy", "dse_accuracy", "dse_accuracy")?,
    ])
}

/// A running in-process daemon.
pub struct Daemon {
    pub addr: SocketAddr,
    ctx: RunContext,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds an OS-assigned local port and starts serving on a thread.
    fn start(workers: usize) -> Res<Self> {
        let config = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config)?;
        let addr = server.local_addr()?;
        let ctx = server.context();
        let handle = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, ctx, handle })
    }

    /// The daemon's cache traffic so far.
    pub fn traffic(&self) -> Traffic {
        Traffic::of(&self.ctx.cache().stats_snapshot())
    }

    /// Asks the daemon to shut down and waits for it to drain.
    pub fn stop(self) -> Res<()> {
        Client::connect(self.addr)?.shutdown()?;
        self.handle.join().map_err(|_| "serve thread panicked")??;
        Ok(())
    }
}

/// Set-up: start a daemon and warm it with one pass over the mix.
pub fn warm_daemon(mix: &[Request], workers: usize) -> Res<Daemon> {
    let daemon = Daemon::start(workers)?;
    let mut client = Client::connect(daemon.addr)?;
    for request in mix {
        request.verify(request.send(&mut client))?;
    }
    Ok(daemon)
}

/// What one closed-loop client measured.
#[derive(Debug, Default)]
struct ClientRun {
    sessions: Vec<f64>,
    /// When each reply arrived, seconds after the measured phase began.
    replies: Vec<f64>,
    failures: Vec<String>,
}

/// One closed-loop client: sessions in a seeded order from `start`
/// until `deadline`.
fn client_loop(
    addr: SocketAddr,
    mix: &[Request],
    seed: u64,
    start: Instant,
    deadline: Instant,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            run.failures.push(format!("connect: {e}"));
            return run;
        }
    };
    let mut rng = SplitMix::new(seed);
    let mut order: Vec<usize> = (0..mix.len()).collect();
    while Instant::now() < deadline {
        rng.shuffle(&mut order);
        let session = Instant::now();
        for &i in &order {
            if let Err(why) = mix[i].verify(mix[i].send(&mut client)) {
                run.failures.push(why);
            }
            run.replies.push(secs(start.elapsed()));
        }
        run.sessions.push(secs(session.elapsed()));
    }
    run
}

/// Requests completed per second: the median over the measured phase's
/// one-second windows, so a slow burst of the host moves a few windows
/// rather than the rate.
fn rate(replies: &[f64], seconds: f64) -> f64 {
    let windows = (seconds.floor() as usize).max(1);
    let width = seconds / windows as f64;
    let mut counts = vec![0.0; windows];
    for &t in replies {
        if let Some(count) = counts.get_mut((t / width) as usize) {
            *count += 1.0;
        }
    }
    median(&counts) / width
}

pub(crate) fn run(repo: &Repo, caps: Caps, opts: &Opts) -> Res<Outcome> {
    let mix = mix(repo)?;
    let workers = caps.cap(WORKERS);
    let clients = caps.cap(CLIENTS);
    println!("serve_warm: {workers} daemon workers, {clients} closed-loop clients");
    // Every timing is scaled to the nominal host speed (see `HostSpeed`):
    // set-ups by reference samples around each, sessions by samples taken
    // while they run.
    let mut speed = HostSpeed::default();
    speed.sample(REFERENCE_BLOCK);
    let (daemon, setup_wall) = timed(|| warm_daemon(&mix, workers));
    speed.sample(REFERENCE_BLOCK);
    let daemon = daemon?;
    let mut setups = vec![setup_wall * speed.factor()];

    let mut out = Outcome::default();
    if opts.trace {
        let figures = traced(&daemon, &mix, caps, &mut out);
        daemon.stop()?;
        figures?.push(&mut out);
        return Ok(out);
    }

    let before = daemon.traffic();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(opts.seconds);
    let mut session_speed = HostSpeed::default();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let mix = &mix;
                let seed = opts.seed.wrapping_mul(1000).wrapping_add(c);
                s.spawn(move || client_loop(daemon.addr, mix, seed, start, deadline))
            })
            .collect();
        // The host's speed while the clients run: one reference sample per
        // period on this otherwise idle thread (a few percent of one core).
        loop {
            session_speed.sample(1);
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(SAMPLE_PERIOD);
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientRun {
                    failures: vec!["client thread panicked".to_owned()],
                    ..ClientRun::default()
                })
            })
            .collect()
    });
    let elapsed = secs(start.elapsed());
    let after = daemon.traffic();
    daemon.stop()?;

    let mut sessions = Vec::new();
    let mut replies = Vec::new();
    for run in runs {
        for why in &run.failures {
            eprintln!("cimbench: FAILED: {why}");
        }
        out.attempted += run.replies.len().max(run.failures.len()) as u64;
        out.failed += run.failures.len() as u64;
        sessions.extend(run.sessions);
        replies.extend(run.replies);
    }
    let misses = after.stats_misses - before.stats_misses;
    out.check(misses == 0, || {
        format!("{misses} value statistics computed during warm sessions")
    });
    println!(
        "serve_warm: {} sessions, {} requests in {elapsed:.3} s; cache traffic {:?}",
        sessions.len(),
        replies.len(),
        after.since(&before)
    );
    let ms = |q: f64| 1e3 * quantile(&sessions, q);
    println!(
        "serve_warm: session ms p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1} p95 {:.1} p99 {:.1}",
        ms(0.1),
        ms(0.25),
        ms(0.5),
        ms(0.75),
        ms(0.9),
        ms(0.95),
        ms(0.99)
    );
    for _ in 1..SETUP_SAMPLES {
        let mark = speed.len();
        speed.sample(REFERENCE_BLOCK);
        let (warmed, wall) = timed(|| warm_daemon(&mix, workers));
        speed.sample(REFERENCE_BLOCK);
        warmed?.stop()?;
        setups.push(wall * speed.factor_since(mark));
    }
    let factor = session_speed.factor();
    println!("serve_warm: host-speed factor {factor:.4} over the sessions");
    let sessions: Vec<f64> = sessions.iter().map(|t| t * factor).collect();
    out.push_end_to_end(&setups, &sessions, rate(&replies, opts.seconds) / factor);
    Ok(out)
}

/// The traced run on the warm daemon: served and in-process latency of
/// each request (their difference is the serve protocol's overhead),
/// then one session replayed layer call by layer call on the daemon's
/// own warm cache.
fn traced(daemon: &Daemon, mix: &[Request], caps: Caps, out: &mut Outcome) -> Res<Figures> {
    let mut client = Client::connect(daemon.addr)?;
    let mut served = vec![Vec::new(); mix.len()];
    let mut traffic = Traffic::default();
    for rep in 0..TRACE_REPS {
        let before = daemon.traffic();
        for (i, request) in mix.iter().enumerate() {
            let (reply, wall) = timed(|| request.send(&mut client));
            let result = request.verify(reply);
            out.check(result.is_ok(), || result.clone().err().unwrap_or_default());
            served[i].push(wall);
        }
        if rep == 0 {
            traffic = daemon.traffic().since(&before);
        }
    }
    let mut direct = vec![Vec::new(); mix.len()];
    for _ in 0..TRACE_REPS {
        for (i, request) in mix.iter().enumerate() {
            let (tsv, wall) = timed(|| -> Res<String> {
                Ok(run_scenario_with(&request.parse()?, &daemon.ctx)?.to_tsv())
            });
            let tsv = tsv?;
            out.check(tsv == request.golden, || {
                format!(
                    "{}: in-process output differs from results/{}.tsv",
                    request.label, request.stem
                )
            });
            direct[i].push(wall);
        }
    }
    let served: Vec<f64> = served.iter().map(|w| median(w)).collect();
    let direct: Vec<f64> = direct.iter().map(|w| median(w)).collect();
    let overhead_ms =
        1e3 * (served.iter().sum::<f64>() - direct.iter().sum::<f64>()) / mix.len() as f64;

    let cache = Arc::clone(daemon.ctx.cache());
    let before = daemon.traffic();
    let mut tr = Tracer::new();
    let mut work = Work::default();
    let start = Instant::now();
    for request in mix {
        let doc = tr.span("spec.parse", |_| request.parse())?;
        work.add(replay::document(
            &mut tr,
            &doc,
            &cache,
            caps.cap(caps.library_default),
        )?);
    }
    let traced_wall_s = secs(start.elapsed()) - secs(tr.excluded());
    let replayed = daemon.traffic().since(&before);

    let computes = tr.get("stats.compute").calls;
    out.check(computes == 0 && traffic.stats_misses == 0, || {
        format!(
            "warm session computed value statistics: replay {computes}, served {}",
            traffic.stats_misses
        )
    });
    let maps = tr.get("map").calls;
    out.check(maps == traffic.table_lookups(), || {
        format!(
            "replay mapped {maps} layers; the served session looked up {} tables",
            traffic.table_lookups()
        )
    });
    let network_wall_s = secs(tr.get("system.network").total);
    Ok(Figures {
        tracer: tr,
        traffic,
        tables: replayed.table_misses,
        work,
        threads: 1,
        network_wall_s,
        traced_capacity_s: traced_wall_s,
        traced_wall_s,
        untraced_wall_s: direct.iter().sum(),
        serve_overhead_ms: overhead_ms,
        ..Figures::default()
    })
}
