//! `serve-open`: open-loop Poisson arrivals into an in-process
//! `salam_serve::Server` on 127.0.0.1 with the default `ServeConfig` (two
//! slots, verify and telemetry on) and a fresh cache directory. Kernel
//! jobs come from 16 tenants over a seeded knob space in which seven in
//! ten requests repeat an earlier config; every Nth request is a small
//! sweep.
//! The load runs at a fixed `lo` rate, a fixed `hi` rate, and up a fixed
//! rate ladder for `max_rps`. Admission, the scheduler, coalescing, the
//! shared cache and the wire protocol sit on the request path only here.
//!
//! Each request is timed from when it was due to be sent to when the
//! client saw it finish. One thread submits on schedule over the native
//! line protocol, on a fresh connection per request: a persistent
//! connection stalls about 40 ms per request, because the server writes
//! each response and its newline separately and Nagle's algorithm holds
//! the newline until the client's delayed ACK. The other thread polls
//! `ServeCore::status` in process for every job in flight every [`POLL`]
//! (the stated resolution of a completion time), then reads the job's
//! result artifact for the digest.
//!
//! This workload runs by name but is not one of `BENCHMARK.json`'s: on a
//! two-core box its latencies move with host noise by more than any bound
//! `BENCHMARK.json` may set (see README.md).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use salam_obs::json::{self, Value};
use salam_obs::SplitMix64;
use salam_serve::{JobState, ServeConfig, ServeCore, Server};

use crate::common::{ms, ratio, Report};
use crate::spans::Tracer;
use crate::stats::{self, digest_of};
use crate::ScratchDir;

/// Completion polling interval: the resolution of every completion time.
const POLL: Duration = Duration::from_millis(1);
const TENANTS: u64 = 16;
/// Kernels a request may name: the suite minus GEMM and MD-Grid, whose
/// 60-120 ms runs would put a gap in the latency distribution right
/// where its percentiles are read.
const BENCHES: [&str; 7] = [
    "bfs",
    "fft",
    "md-knn",
    "nw",
    "spmv",
    "stencil2d",
    "stencil3d",
];
const PORTS: [u64; 6] = [1, 2, 3, 4, 6, 8];
const LATENCY: [u64; 4] = [1, 2, 3, 4];
const WINDOW: [u64; 9] = [32, 48, 64, 96, 128, 192, 256, 384, 512];
/// Of every [`REPEAT_BLOCK`] kernel requests, this many repeat an earlier
/// config (at seeded positions); the rest are new configs.
const REPEATS_PER_BLOCK: usize = 7;
const REPEAT_BLOCK: usize = 10;
/// Distinct kernel configs run during set-up.
const HISTORY: usize = 24;
/// Every Nth request is a sweep job.
const SWEEP_EVERY: usize = 25;
/// Pause between phases so one phase's tail does not queue ahead of the
/// next phase's arrivals.
const GAP: Duration = Duration::from_millis(300);
/// Lateness of the generator beyond which a run is invalid.
const MAX_GEN_LAG_MS: f64 = 50.0;

/// Rates and the latency limit, from `pins.json`.
struct Load {
    lo_rps: f64,
    hi_rps: f64,
    ladder_rps: Vec<f64>,
    p90_limit_ms: f64,
}

impl Load {
    fn from_pins(pins: &Value) -> Load {
        let s = pins.get("serve").expect("pins.json has a serve section");
        let num = |k: &str| {
            s.get(k)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("pins.json serve.{k} is a number"))
        };
        Load {
            lo_rps: num("lo_rps"),
            hi_rps: num("hi_rps"),
            ladder_rps: s
                .get("ladder_rps")
                .and_then(Value::as_array)
                .expect("pins.json serve.ladder_rps is an array")
                .iter()
                .map(|v| v.as_f64().expect("ladder rates are numbers"))
                .collect(),
            p90_limit_ms: num("p90_limit_ms"),
        }
    }
}

/// One scheduled request.
#[derive(Clone)]
struct Req {
    phase: usize,
    due: Duration,
    tenant: u64,
    /// Result key: the job's kind and inputs.
    key: String,
    line: String,
    sweep: bool,
}

/// Draws values so that each appears equally often: a seeded shuffle of
/// the whole set, refilled when used up. Seeds then differ in order, not
/// in how often each kernel or knob value occurs.
struct Deck<T: Copy> {
    values: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(values: &[T]) -> Self {
        Deck {
            values: values.to_vec(),
            left: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut SplitMix64) -> T {
        if self.left.is_empty() {
            self.left = self.values.clone();
            rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("deck was just refilled")
    }
}

/// A kernel job's result key and its `job` JSON.
fn kernel_job((b, ports, lat, window): (&str, u64, u64, u64)) -> (String, String) {
    (
        format!("kernel/{b}/p={ports}/l={lat}/w={window}"),
        format!(
            "{{\"type\":\"kernel\",\"bench\":\"{b}\",\"knobs\":{{\"ports\":{ports},\
             \"spm-latency\":{lat},\"window\":{window}}}}}"
        ),
    )
}

/// Requests scheduled over the phases, each phase's `(rate, start, end)`,
/// and the history: kernel jobs run during set-up, which the first
/// requests may already repeat, so every phase sees the same share of
/// reuse. Phase 0 is `lo`, phase 1 is `hi`, phase 2.. are the ladder rungs.
fn schedule(seed: u64, seconds: f64, load: &Load) -> Schedule {
    let mut rng = SplitMix64::new(seed).split(6);
    let mut benches = Deck::new(&BENCHES);
    let mut ports = Deck::new(&PORTS);
    let mut lats = Deck::new(&LATENCY);
    let mut windows = Deck::new(&WINDOW);
    let mut repeat: Deck<bool> = Deck::new(
        &(0..REPEAT_BLOCK)
            .map(|i| i < REPEATS_PER_BLOCK)
            .collect::<Vec<_>>(),
    );
    let mut new_cfg = |rng: &mut SplitMix64| {
        (
            benches.draw(rng),
            ports.draw(rng),
            lats.draw(rng),
            windows.draw(rng),
        )
    };
    let mut seen: Vec<(&str, u64, u64, u64)> = (0..HISTORY).map(|_| new_cfg(&mut rng)).collect();
    let history = seen.iter().map(|&c| kernel_job(c)).collect();
    let mut phases = vec![(load.lo_rps, 0.35), (load.hi_rps, 0.35)];
    let rung_share = 0.3 / load.ladder_rps.len() as f64;
    phases.extend(load.ladder_rps.iter().map(|&r| (r, rung_share)));
    let mut reqs = Vec::new();
    let mut bounds = Vec::new();
    let mut start = Duration::ZERO;
    for (phase, &(rate, share)) in phases.iter().enumerate() {
        let len = Duration::from_secs_f64(seconds * share);
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            if t >= len.as_secs_f64() {
                break;
            }
            let tenant = rng.range_u64(0, TENANTS);
            let n = reqs.len();
            let (key, line, sweep) = if n % SWEEP_EVERY == SWEEP_EVERY - 1 {
                let b = BENCHES[rng.range_usize(0, BENCHES.len())];
                let lat = LATENCY[rng.range_usize(0, LATENCY.len())];
                let job = format!(
                    "{{\"type\":\"sweep\",\"name\":\"perf\",\"kernels\":[\"{b}\"],\"replay\":true,\
                     \"axes\":[{{\"knob\":\"ports\",\"values\":[1,2,4]}},\
                     {{\"knob\":\"spm-latency\",\"values\":[{lat}]}}]}}"
                );
                (format!("sweep/{b}/lat={lat}"), job, true)
            } else {
                let cfg = if repeat.draw(&mut rng) {
                    *rng.choose(&seen)
                } else {
                    let c = new_cfg(&mut rng);
                    seen.push(c);
                    c
                };
                let (key, job) = kernel_job(cfg);
                (key, job, false)
            };
            reqs.push(Req {
                phase,
                due: start + Duration::from_secs_f64(t),
                tenant,
                line: format!("{{\"op\":\"submit\",\"tenant\":\"t{tenant:02}\",\"job\":{line}}}\n"),
                key,
                sweep,
            });
        }
        bounds.push((rate, start, start + len));
        start += len + GAP;
    }
    Schedule {
        reqs,
        bounds,
        history,
    }
}

struct Schedule {
    reqs: Vec<Req>,
    bounds: Vec<(f64, Duration, Duration)>,
    /// `(key, job)` of each kernel job run during set-up.
    history: Vec<(String, String)>,
}

/// Sends one request line on a fresh connection and parses the reply.
fn call(addr: std::net::SocketAddr, line: &str) -> Result<Value, String> {
    let mut w = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    w.set_nodelay(true).map_err(|e| e.to_string())?;
    w.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    let mut resp = String::new();
    BufReader::new(&w)
        .read_line(&mut resp)
        .map_err(|e| e.to_string())?;
    json::parse(&resp)
}

/// What the submitting thread saw for one request; `id` is `None` when
/// the request was skipped because an earlier ladder rung already failed.
struct Submitted {
    idx: usize,
    sent: Instant,
    submit_us: f64,
    id: Option<Result<u64, String>>,
}

/// What the client saw for one request.
#[derive(Clone, Default)]
struct Seen {
    sent: bool,
    /// Latency from the due time; `None` when refused or failed.
    e2e_ms: Option<f64>,
    submit_us: f64,
    lag_ms: f64,
}

struct Setup {
    server: Server,
    _cache: ScratchDir,
    reqs: Vec<Req>,
    bounds: Vec<(f64, Duration, Duration)>,
    history_keys: Vec<String>,
}

fn setup(seed: u64, seconds: f64, load: &Load) -> std::io::Result<Setup> {
    let cache = ScratchDir::new("serve-cache");
    let cfg = ServeConfig {
        cache_dir: Some(cache.0.clone()),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg)?;
    let Schedule {
        reqs,
        bounds,
        history,
    } = schedule(seed, seconds, load);
    // Run the history over the wire, as a server that has been up a while.
    let addr = server.local_addr();
    let history_keys = history.iter().map(|(k, _)| k.clone()).collect();
    for (_, job) in history {
        let line = format!("{{\"op\":\"submit\",\"tenant\":\"history\",\"job\":{job}}}\n");
        let id = call(addr, &line)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_f64))
            .ok_or_else(|| std::io::Error::other(format!("history job refused: {job}")))?;
        let done = server.core().wait(id as u64).map(|s| s.state);
        if !matches!(done, Ok(JobState::Done)) {
            return Err(std::io::Error::other(format!("history job failed: {job}")));
        }
    }
    Ok(Setup {
        server,
        _cache: cache,
        reqs,
        bounds,
        history_keys,
    })
}

/// Submits every request at its due time, skipping the phases after
/// `last_phase`.
fn generate(
    addr: std::net::SocketAddr,
    reqs: &[Req],
    t0: Instant,
    last_phase: &AtomicUsize,
    tx: mpsc::Sender<Submitted>,
) {
    for (idx, r) in reqs.iter().enumerate() {
        let mut sub = Submitted {
            idx,
            sent: Instant::now(),
            submit_us: 0.0,
            id: None,
        };
        if r.phase <= last_phase.load(Ordering::SeqCst) {
            let due = t0 + r.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            sub.sent = Instant::now();
            let resp = call(addr, &r.line);
            sub.submit_us = sub.sent.elapsed().as_secs_f64() * 1e6;
            sub.id = Some(resp.and_then(|v| {
                match v.get("id").and_then(Value::as_f64) {
                    Some(id) => Ok(id as u64),
                    None => Err(v
                        .get("code")
                        .and_then(Value::as_str)
                        .unwrap_or("bad response")
                        .to_string()),
                }
            }));
        }
        if tx.send(sub).is_err() {
            return;
        }
    }
}

/// A ladder rung passes when its p90 (unfinished or refused requests
/// count as infinite) is within the limit and no more of its jobs end
/// later than one limit after its last arrival than could arrive within
/// one limit (no growing backlog). Evaluated one limit after the rung's
/// end, it needs only completions seen by then.
fn rung_passes(
    reqs: &[Req],
    seen: &[Seen],
    phase: usize,
    bound: (f64, Duration, Duration),
    limit_ms: f64,
) -> (bool, f64) {
    let (rate, _, end) = bound;
    let deadline = end + Duration::from_secs_f64(limit_ms / 1e3);
    let mut lat = Vec::new();
    let mut late = 0usize;
    for (r, s) in reqs.iter().zip(seen).filter(|(r, _)| r.phase == phase) {
        let done = s
            .e2e_ms
            .map(|v| r.due + Duration::from_secs_f64(v / 1e3))
            .filter(|d| *d <= deadline);
        if done.is_none() {
            late += 1;
        }
        lat.push(s.e2e_ms.unwrap_or(f64::INFINITY));
    }
    let p90 = p(&lat, 90.0);
    (p90 <= limit_ms && late as f64 <= rate * limit_ms / 1e3, p90)
}

/// Polls every job in flight until each request is accounted for, judges
/// each ladder rung one limit after it ends, and stops the generator after
/// the first rung that fails.
fn observe(
    core: &ServeCore,
    su: &Setup,
    t0: Instant,
    limit_ms: f64,
    last_phase: &AtomicUsize,
    rx: mpsc::Receiver<Submitted>,
    rep: &mut Report,
) -> Vec<Seen> {
    let reqs = &su.reqs;
    let mut seen = vec![Seen::default(); reqs.len()];
    let mut flight: Vec<(usize, u64)> = Vec::new();
    let mut pending = reqs.len();
    let mut next_rung = 2;
    while pending > 0 {
        while let Ok(sub) = rx.try_recv() {
            let s = &mut seen[sub.idx];
            let Some(id) = sub.id else {
                pending -= 1;
                continue;
            };
            s.sent = true;
            s.submit_us = sub.submit_us;
            s.lag_ms = ms(sub.sent.saturating_duration_since(t0 + reqs[sub.idx].due));
            match id {
                Ok(id) => flight.push((sub.idx, id)),
                Err(code) => {
                    pending -= 1;
                    refused(rep, &reqs[sub.idx], &code);
                }
            }
        }
        let mut still = Vec::with_capacity(flight.len());
        for (idx, id) in flight.drain(..) {
            let r = &reqs[idx];
            match core.status(id).map(|s| s.state) {
                Ok(JobState::Done) => {
                    let done = Instant::now();
                    pending -= 1;
                    match core.artifact(id, if r.sweep { "table" } else { "report" }) {
                        Ok(text) if r.sweep || text.contains("\"verified\": true") => {
                            if rep.result(&r.key, digest_of(&text)) {
                                seen[idx].e2e_ms = Some(ms(done - (t0 + r.due)));
                            }
                        }
                        Ok(_) => rep.fail(format!("{}: golden check failed", r.key)),
                        Err(e) => rep.fail(format!("{}: {e}", r.key)),
                    }
                }
                Ok(JobState::Queued | JobState::Running) => still.push((idx, id)),
                Ok(JobState::Failed) => {
                    pending -= 1;
                    refused(rep, r, "failed");
                }
                Err(e) => {
                    pending -= 1;
                    refused(rep, r, e.code());
                }
            }
        }
        flight = still;
        if let Some(&bound) = su.bounds.get(next_rung) {
            let judge_at = t0 + bound.2 + Duration::from_secs_f64(limit_ms / 1e3);
            if Instant::now() >= judge_at && next_rung <= last_phase.load(Ordering::SeqCst) {
                if !rung_passes(reqs, &seen, next_rung, bound, limit_ms).0 {
                    last_phase.store(next_rung, Ordering::SeqCst);
                }
                next_rung += 1;
            }
        }
        std::thread::sleep(POLL);
    }
    seen
}

/// A refusal or failure misses every latency limit. Ladder rungs may
/// refuse work past capacity; refusals there only fail the rung.
fn refused(rep: &mut Report, r: &Req, why: &str) {
    if r.phase < 2 {
        rep.fail(format!("{} (tenant t{:02}): {why}", r.key, r.tenant));
    }
}

/// Upper bound of the bucket holding the `q` quantile of an unlabeled
/// histogram in Prometheus text.
fn prom_quantile(prom: &str, family: &str, q: f64) -> f64 {
    let prefix = format!("{family}_bucket{{le=\"");
    let buckets: Vec<(f64, f64)> = prom
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            Some((le.parse().unwrap_or(f64::INFINITY), count.parse().ok()?))
        })
        .collect();
    let total = buckets.last().map_or(0.0, |b| b.1);
    buckets
        .iter()
        .find(|b| b.1 >= q * total)
        .map_or(0.0, |b| b.0)
}

fn p(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        f64::INFINITY
    } else {
        stats::percentile(&stats::sorted(values), q)
    }
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&mut Tracer>, pins: &Value) -> Report {
    let mut rep = Report::default();
    let load = Load::from_pins(pins);
    // Each set-up starts a server; all but the last are shut down again,
    // outside the timed part.
    let mut su: Option<std::io::Result<Setup>> = None;
    for _ in 0..3 {
        if let Some(Ok(old)) = su.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        su = Some(setup(seed, seconds, &load));
        rep.setup_s.push(t.elapsed().as_secs_f64());
    }
    let su = match su.expect("set-up ran") {
        Ok(s) => s,
        Err(e) => {
            rep.attempted = 1;
            rep.fail(format!("set-up: {e}"));
            return rep;
        }
    };
    let addr = su.server.local_addr();
    let limit = load.p90_limit_ms;
    let last_phase = AtomicUsize::new(usize::MAX);
    let t0 = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel();
    let seen = std::thread::scope(|scope| {
        let (reqs, last) = (&su.reqs, &last_phase);
        let gen = scope.spawn(move || generate(addr, reqs, t0, last, tx));
        let seen = observe(su.server.core(), &su, t0, limit, &last_phase, rx, &mut rep);
        gen.join().expect("generator thread does not panic");
        seen
    });
    rep.attempted = seen.iter().filter(|s| s.sent).count() as u64;
    // Only `lo` and `hi` always run in full, so only they enter the
    // workload digest; ladder results are still checked for consistency.
    rep.results
        .retain(|k, _| su.reqs.iter().any(|r| r.phase < 2 && &r.key == k));
    let phase_lat = |phase: usize| -> Vec<f64> {
        su.reqs
            .iter()
            .zip(&seen)
            .filter(|(r, _)| r.phase == phase)
            .map(|(_, s)| s.e2e_ms.unwrap_or(f64::INFINITY))
            .collect()
    };
    let (lo, hi) = (phase_lat(0), phase_lat(1));
    rep.op_ms_p50 = p(&lo, 50.0);
    rep.op_ms_p90 = p(&hi, 90.0);
    let served: Vec<f64> = lo
        .iter()
        .chain(&hi)
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    rep.op_ms_gmean = crate::stats::geomean(&served);
    rep.tail_note(lo.len().min(hi.len()));
    rep.metric("lo.e2e_ms_p50", p(&lo, 50.0), "ms");
    rep.metric("lo.e2e_ms_p90", p(&lo, 90.0), "ms");
    rep.metric("hi.e2e_ms_p50", p(&hi, 50.0), "ms");
    rep.metric("hi.e2e_ms_p90", rep.op_ms_p90, "ms");
    // Share of each fixed-rate phase whose inputs an earlier request
    // already named: these can be answered from the cache or coalesced.
    let mut named: std::collections::HashSet<&str> =
        su.history_keys.iter().map(String::as_str).collect();
    let mut repeats = [0usize; 2];
    for r in &su.reqs {
        if !named.insert(r.key.as_str()) && r.phase < 2 {
            repeats[r.phase] += 1;
        }
    }
    rep.metric(
        "lo.repeat_share",
        ratio(repeats[0] as f64, lo.len() as f64),
        "ratio",
    );
    rep.metric(
        "hi.repeat_share",
        ratio(repeats[1] as f64, hi.len() as f64),
        "ratio",
    );
    // max_rps: the highest passing rung, interpolated linearly towards the
    // first failing rung to where its p90 crosses the limit.
    let mut max_rps = 0.0;
    let mut prev: Option<f64> = None;
    let last = last_phase.load(Ordering::SeqCst);
    for phase in 2..su.bounds.len().min(last.saturating_add(1)) {
        let bound = su.bounds[phase];
        let (pass, p90) = rung_passes(&su.reqs, &seen, phase, bound, limit);
        rep.metric(format!("ladder.{}.e2e_ms_p90", bound.0), p90, "ms");
        if pass {
            max_rps = bound.0;
            prev = Some(p90);
            continue;
        }
        if let Some(p0) = prev.filter(|_| p90.is_finite()) {
            let r0 = su.bounds[phase - 1].0;
            max_rps = r0 + (bound.0 - r0) * ((limit - p0) / (p90 - p0)).clamp(0.0, 1.0);
        }
        break;
    }
    rep.metric("max_rps", max_rps, "1/s");
    // The gated throughput is the rate served at `hi`: jobs finished per
    // second of the phase. `max_rps` sits on the knee of the latency
    // curve, where this box's host noise moves it by more than any bound.
    let hi_len = (su.bounds[1].2 - su.bounds[1].1).as_secs_f64();
    rep.ops_per_s = hi.iter().filter(|v| v.is_finite()).count() as f64 / hi_len;
    rep.metric("hi.served_rps", rep.ops_per_s, "1/s");
    // Generator lateness over the fixed-rate phases; the ladder drives the
    // server past capacity, where a late generator is expected.
    let lags: Vec<f64> = su
        .reqs
        .iter()
        .zip(&seen)
        .filter(|(r, s)| r.phase < 2 && s.sent)
        .map(|(_, s)| s.lag_ms)
        .collect();
    let lag_p90 = p(&lags, 90.0);
    rep.metric("gen_lag_ms_p90", lag_p90, "ms");
    let submits: Vec<f64> = seen
        .iter()
        .filter(|s| s.sent)
        .map(|s| s.submit_us)
        .collect();
    rep.metric("submit_us_p50", p(&submits, 50.0), "us");
    rep.metric("poll_resolution_ms", ms(POLL), "ms");
    if lag_p90 > MAX_GEN_LAG_MS {
        rep.fail(format!(
            "invalid run: generator lateness p90 {lag_p90:.1} ms exceeds {MAX_GEN_LAG_MS} ms"
        ));
    }
    let core = su.server.core();
    let metrics = core.metrics();
    let get = |k: &str| metrics.get(k).unwrap_or(0.0);
    let reuse = ratio(
        get("serve.cache_hits") + get("serve.jobs.coalesced"),
        get("serve.jobs.submitted"),
    );
    rep.metric("serve.reuse_ratio", reuse, "ratio");
    if let Some(tr) = tracer {
        let prom = core.metrics_prom();
        rep.layers.insert("serve.submit_us_p50", p(&submits, 50.0));
        rep.layers.insert(
            "serve.queue_ms_p90",
            prom_quantile(&prom, "serve_latency_queue_us", 0.9) / 1e3,
        );
        rep.layers.insert(
            "serve.run_ms_p90",
            prom_quantile(&prom, "serve_latency_run_us", 0.9) / 1e3,
        );
        rep.layers.insert("serve.reuse_ratio", reuse);
        rep.layers.insert("serve.gen_lag_ms_p90", lag_p90);
        probe_admission(&mut rep, tr);
    }
    su.server.shutdown();
    rep
}

/// Admission runs the verifier gate and the flow bounds check inside the
/// server; this drives the same checks through their own public
/// functions on every kernel the workload requests.
fn probe_admission(rep: &mut Report, tr: &mut Tracer) {
    for (op, b) in machsuite::Bench::ALL.iter().enumerate() {
        let id = b.label().to_ascii_lowercase();
        if !BENCHES.contains(&id.as_str()) {
            continue;
        }
        let k = b.build_standard();
        let op = op as u64;
        for _ in 0..10 {
            if tr
                .span("verify.gate", op, || salam_verify::gate(&k.func))
                .is_err()
            {
                rep.fail(format!("{id}: verify gate rejected"));
            }
            if !crate::kernel_suite::flow_check(tr, &k, op) {
                rep.fail(format!("{id}: flow check rejected"));
            }
        }
    }
    let l = tr.layers();
    for (name, layer) in [
        ("verify.gate_us", "verify.gate"),
        ("flow.check_us", "flow.check"),
    ] {
        rep.layers
            .insert(name, l.get(layer).map_or(0.0, |s| s.mean_self_us()));
    }
}
