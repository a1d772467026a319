//! The `serve-warm` workload: an in-process `keq-server` on loopback TCP,
//! warmed by one pass over the request mix, then driven by a closed loop
//! of two connections that each wait for their reply before sending the
//! next request, as `keq_client` does.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use keq_harness::protocol::{ClientRequest, ServerResponse, StatsSnapshot};
use keq_harness::{connect, ClientConn, HarnessOptions, Server, ServerOptions, ServerSummary};
use keq_isel::PassId;
use keq_llvm::ast::Module;

use crate::corpus::{self, Expected, Observed, ServeUnit, Workload};
use crate::util::{self, median, ms};

/// Client connections of the closed loop (and of the warm-up).
pub const CONNS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// No-op `stats` round trips timed for `transport.rtt_ms`.
pub const RTT_PROBES: usize = 21;

/// The request mix: the serve range of the default pool, split into one
/// share per connection, each request with its IR text.
pub struct Mix {
    pub shares: Vec<Vec<(ServeUnit, String)>>,
}

impl Mix {
    pub fn new(expected: &Expected, seed: u64) -> Mix {
        let pool = corpus::default_pool(corpus::SERVE_TO);
        let module = Module {
            globals: pool.globals.clone(),
            functions: pool.functions[corpus::SERVE_FROM..corpus::SERVE_TO].to_vec(),
            declarations: pool.declarations.clone(),
        };
        let shares = corpus::serve_shares(&module.functions, expected, CONNS, seed)
            .into_iter()
            .map(|share| {
                share
                    .into_iter()
                    .map(|u| {
                        let ir =
                            corpus::request_module(&module, &module.functions[u.func]).to_string();
                        (u, ir)
                    })
                    .collect()
            })
            .collect();
        Mix { shares }
    }

    /// Every request once, shares interleaved (the order of the warm-up
    /// and of the traced pass).
    pub fn interleaved(&self) -> Vec<&(ServeUnit, String)> {
        let longest = self.shares.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| self.shares.iter().filter_map(move |s| s.get(i)))
            .collect()
    }
}

/// One answered request.
pub struct Answer {
    pub class: String,
    pub rtt: Duration,
    /// Server-side time: submit to verdict, minus queueing.
    pub busy: Duration,
}

/// Sends one validate request and waits for its verdict.
pub fn validate(
    conn: &mut ClientConn,
    tag: u64,
    unit: &ServeUnit,
    ir: &str,
) -> Result<Answer, String> {
    let req = ClientRequest::Validate {
        tag,
        unit: tag,
        pass: unit.pass,
        ir: ir.to_owned(),
        deadline_ms: None,
        max_attempts: None,
    };
    let t = Instant::now();
    let resp = conn
        .roundtrip(&req)
        .map_err(|e| format!("{}: {e}", unit.name))?;
    let rtt = t.elapsed();
    match resp {
        ServerResponse::Validated { results, .. } if results.len() == 1 => {
            let v = &results[0];
            Ok(Answer {
                class: v.result.clone(),
                rtt,
                busy: Duration::from_micros(v.wall_us.saturating_sub(v.queue_us)),
            })
        }
        other => Err(format!("{}: unexpected response {other:?}", unit.name)),
    }
}

/// Fetches the server's live counters.
pub fn stats(conn: &mut ClientConn) -> Result<StatsSnapshot, String> {
    match conn
        .roundtrip(&ClientRequest::Stats)
        .map_err(|e| e.to_string())?
    {
        ServerResponse::Stats(s) => Ok(s),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// A running server.
pub struct Live {
    pub addr: String,
    thread: JoinHandle<ServerSummary>,
}

impl Live {
    pub fn boot() -> Live {
        let opts = ServerOptions {
            harness: HarnessOptions {
                workers: WORKERS,
                deadline: Some(crate::batch::ISEL_DEADLINE),
                passes: vec![PassId::Isel],
                ..HarnessOptions::default()
            },
            ..ServerOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", &opts).expect("bind a loopback port");
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        Live { addr, thread }
    }

    /// Sends `shutdown` and waits for the drain.
    pub fn stop(self) -> ServerSummary {
        if let Ok(mut c) = connect(&self.addr) {
            let _ = c.roundtrip(&ClientRequest::Shutdown);
        }
        self.thread.join().expect("server thread")
    }
}

/// What one closed-loop connection saw.
#[derive(Default)]
struct ConnLog {
    answers: Vec<(usize, Answer)>,
    errors: Vec<String>,
    /// Requests and not-validated answers over this connection's completed
    /// passes through its share.
    full_attempted: usize,
    full_failed: usize,
}

/// Runs `f(conn_index, share)` on one thread per share and collects the
/// results in share order.
fn per_share<T: Send>(
    mix: &Mix,
    addr: &str,
    f: impl Fn(&mut ClientConn, &[(ServeUnit, String)], usize) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = mix
            .shares
            .iter()
            .enumerate()
            .map(|(c, share)| {
                let f = &f;
                s.spawn(move || {
                    let mut conn = connect(addr).expect("connect to the server");
                    f(&mut conn, share, c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// One cold pass over every share, one connection per share.
fn warm_up(mix: &Mix, addr: &str, expected: &Expected, observed: &mut Observed) -> Vec<String> {
    let logs = per_share(mix, addr, |conn, share, c| {
        let mut out = Vec::new();
        for (i, (u, ir)) in share.iter().enumerate() {
            let tag = (c * 1_000_000 + i) as u64;
            out.push((u.clone(), validate(conn, tag, u, ir)));
        }
        out
    });
    let mut errors = Vec::new();
    for (u, r) in logs.into_iter().flatten() {
        match r {
            Ok(a) => observed.record(expected, Workload::ServeWarm, u.pass, &u.name, &a.class),
            Err(e) => errors.push(e),
        }
    }
    errors
}

/// Boots a server and warms it; returns it with the set-up time.
pub fn setup(
    mix: &Mix,
    expected: &Expected,
    observed: &mut Observed,
    errors: &mut Vec<String>,
) -> (Live, f64) {
    let t = Instant::now();
    let live = Live::boot();
    errors.extend(warm_up(mix, &live.addr, expected, observed));
    (live, t.elapsed().as_secs_f64())
}

/// What the untraced part of a `serve-warm` run measured.
pub struct ServeRun {
    /// The measured server's set-up time: boot plus the cold warm-up.
    pub setup_s: f64,
    pub window: Duration,
    /// Client round trips of every answered request, ms.
    pub rtt_ms: Vec<f64>,
    pub answered: usize,
    pub succeeded: usize,
    pub errors: Vec<String>,
    /// Not-validated share over completed passes through each share.
    pub failed_ratio: f64,
    pub busy_ratio: f64,
    /// Median no-op `stats` round trip, ms.
    pub transport_rtt_ms: f64,
    /// Server-side median request latency from the `stats` op, ms.
    pub server_p50_ms: f64,
    /// Peak resident memory over the server's set-up and the window, MiB.
    pub peak_rss_mb: f64,
    /// The still-running server, warm, for the traced pass.
    pub live: Live,
}

/// Sets up one server (boot and a cold warm-up), then runs the closed loop
/// for `seconds` against it; the server stays up.
pub fn run(mix: &Mix, seconds: u64, expected: &Expected, observed: &mut Observed) -> ServeRun {
    let mut errors = Vec::new();
    let (live, setup_s) = setup(mix, expected, observed, &mut errors);

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let logs = per_share(mix, &live.addr, |conn, share, c| {
        let mut log = ConnLog::default();
        let mut pass_failed = 0;
        let mut i = 0usize;
        while start.elapsed() < budget && !share.is_empty() {
            let (u, ir) = &share[i % share.len()];
            let tag = (10_000_000 + c * 1_000_000 + i) as u64;
            match validate(conn, tag, u, ir) {
                Ok(a) => {
                    if a.class != "succeeded" {
                        pass_failed += 1;
                    }
                    log.answers.push((i % share.len(), a));
                }
                Err(e) => log.errors.push(e),
            }
            i += 1;
            if i.is_multiple_of(share.len()) {
                log.full_attempted += share.len();
                log.full_failed += pass_failed;
                pass_failed = 0;
            }
        }
        log
    });
    let window = start.elapsed();
    // Read before any other server has run in this process: freed memory of
    // an earlier server would otherwise count towards this one's peak.
    let peak_rss_mb = util::peak_rss_mb();

    let mut rtt_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let (mut answered, mut succeeded) = (0, 0);
    let (mut full_attempted, mut full_failed, mut partial_failed) = (0, 0, 0);
    for (log, share) in logs.iter().zip(&mix.shares) {
        for (k, a) in &log.answers {
            let u = &share[*k].0;
            observed.record(expected, Workload::ServeWarm, u.pass, &u.name, &a.class);
            rtt_ms.push(ms(a.rtt));
            busy += a.busy;
            answered += 1;
            if a.class == "succeeded" {
                succeeded += 1;
            } else {
                partial_failed += 1;
            }
        }
        errors.extend(log.errors.iter().cloned());
        full_attempted += log.full_attempted;
        full_failed += log.full_failed;
    }
    // A window that ends mid-pass would make the share of rejections hinge
    // on where it stopped; completed passes carry the exact request mix.
    let failed_ratio = if full_attempted > 0 {
        full_failed as f64 / full_attempted as f64
    } else {
        partial_failed as f64 / answered.max(1) as f64
    };

    let mut ctl = connect(&live.addr).expect("connect the control connection");
    let mut probes = Vec::with_capacity(RTT_PROBES);
    let mut server_p50_ms = 0.0;
    for _ in 0..RTT_PROBES {
        let t = Instant::now();
        match stats(&mut ctl) {
            Ok(s) => server_p50_ms = s.p50_us as f64 / 1e3,
            Err(e) => errors.push(e),
        }
        probes.push(ms(t.elapsed()));
    }

    ServeRun {
        setup_s,
        window,
        rtt_ms,
        answered,
        succeeded,
        errors,
        failed_ratio,
        busy_ratio: busy.as_secs_f64() / (WORKERS as f64 * window.as_secs_f64()),
        transport_rtt_ms: median(&probes),
        server_p50_ms,
        peak_rss_mb,
        live,
    }
}
