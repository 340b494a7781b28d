//! `kernel-suite`: closed loop, one client. Each operation parses one
//! MachSuite kernel from IR text printed in set-up, gates it through the
//! verifier and runs it on the engine under one of seven configurations,
//! ending with the kernel's golden check. The engine does nearly all the
//! work; replay, the DSE cache and serve do none.

use std::time::{Duration, Instant};

use hw_profile::{FuKind, SramSpec};
use machsuite::{bfs, spmv, Bench, BuiltKernel};
use salam::standalone::{HierarchyPort, StandaloneConfig};
use salam::RunReport;
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::SparseMemory;
use salam_ir::Function;
use salam_obs::SplitMix64;
use salam_runtime::{Engine, MemAccess, MemCompletion, MemPort, Rejection, SimpleMem};

use crate::common::{ms, ratio, thread_cpu, timed_setup, Passes, Report};
use crate::spans::Tracer;
use crate::speed::Probe;
use crate::stats::digest_of;

/// How much more than the host-speed probe this workload slows down on a
/// slower host (see `speed`).
const SENSITIVITY: f64 = 1.5;

/// One standalone configuration of the suite.
struct Cfg {
    label: &'static str,
    cfg: StandaloneConfig,
    /// `Some` runs against an L1 cache + DRAM instead of a private SPM.
    cache: Option<memsys::CacheConfig>,
}

/// The seven configurations: the default, a datapath with one unit of
/// every kind, a 1R/1W SPM, a 4-cycle SPM, a 512-entry window, and a
/// cache smaller (1 KiB) and larger (16 KiB) than every kernel's 1.5–6 KiB
/// footprint.
fn configs() -> Vec<Cfg> {
    let base = StandaloneConfig::default();
    let starved = FuKind::ALL
        .iter()
        .fold(FuConstraints::unconstrained(), |c, &k| c.with_limit(k, 1));
    let mut lat4 = base.clone();
    lat4.spm_latency = 4;
    let mut window = base.clone();
    window.engine.reservation_entries = 512;
    let spm = |label, cfg| Cfg {
        label,
        cfg,
        cache: None,
    };
    let cached = |label, bytes| Cfg {
        label,
        cfg: StandaloneConfig::default(),
        cache: Some(memsys::CacheConfig::default().with_size(bytes)),
    };
    vec![
        spm("default", base.clone()),
        spm("fu-starved", base.clone().with_constraints(starved)),
        spm("spm-1r1w", base.with_ports(1)),
        spm("spm-lat4", lat4),
        spm("window-512", window),
        cached("cache-1k", 1024),
        cached("cache-16k", 16 * 1024),
    ]
}

/// The nine kernels; BFS and SPMV get datasets drawn from `rng`.
pub fn build_kernels(rng: &mut SplitMix64) -> Vec<BuiltKernel> {
    Bench::ALL
        .iter()
        .map(|&b| match b {
            Bench::Bfs => bfs::build(&bfs::Params {
                seed: rng.next_u64(),
                ..Default::default()
            }),
            Bench::SpmvCrs => spmv::build(&spmv::Params {
                seed: rng.next_u64(),
                ..Default::default()
            }),
            _ => b.build_standard(),
        })
        .collect()
}

struct Suite {
    kernels: Vec<BuiltKernel>,
    texts: Vec<String>,
    configs: Vec<Cfg>,
    build_ms: f64,
}

fn setup(seed: u64) -> Result<Suite, String> {
    let t = Instant::now();
    let mut kernels = build_kernels(&mut SplitMix64::new(seed).split(1));
    let build_ms = ms(t.elapsed());
    let mut texts = Vec::with_capacity(kernels.len());
    for k in &kernels {
        let text = k.func.to_string();
        // The printed IR must parse back to the same text.
        let mut m = salam_ir::parse_module(&text).map_err(|e| format!("{}: {e}", k.name))?;
        if take_function(&mut m)?.to_string() != text {
            return Err(format!("{}: IR does not round-trip", k.name));
        }
        texts.push(text);
    }
    let configs = configs();
    // Warm-up: one default-config run per kernel, so the first timed pass
    // does not pay for first-touch allocation.
    for (k, text) in kernels.iter_mut().zip(&texts) {
        if !run_op(k, text, &configs[0])?.verified {
            return Err(format!("{}: warm-up run failed its golden check", k.name));
        }
    }
    Ok(Suite {
        kernels,
        texts,
        configs,
        build_ms,
    })
}

fn take_function(m: &mut salam_ir::Module) -> Result<Function, String> {
    let f = m
        .functions_mut()
        .first_mut()
        .ok_or("module holds no function")?;
    Ok(std::mem::replace(f, Function::new("", Vec::new())))
}

/// The untraced operation: public one-call entry points only.
fn run_op(k: &mut BuiltKernel, text: &str, c: &Cfg) -> Result<RunReport, String> {
    let mut m = salam_ir::parse_module(text).map_err(|e| e.to_string())?;
    k.func = take_function(&mut m)?;
    salam_verify::gate(&k.func).map_err(|d| format!("verify: {} error(s)", d.len()))?;
    match c.cache {
        None => salam::try_run_kernel(k, &c.cfg).map_err(|e| e.to_string()),
        Some(cache) => Ok(salam::run_kernel_cached(k, &c.cfg, cache)),
    }
}

/// Counts and times every call into a memory port.
struct TimedPort<'a> {
    inner: &'a mut dyn MemPort,
    time: Duration,
    calls: u64,
    accepted: u64,
    rejected: u64,
}

impl<'a> TimedPort<'a> {
    fn new(inner: &'a mut dyn MemPort) -> Self {
        TimedPort {
            inner,
            time: Duration::ZERO,
            calls: 0,
            accepted: 0,
            rejected: 0,
        }
    }
}

impl MemPort for TimedPort<'_> {
    fn begin_cycle(&mut self) {
        let t = Instant::now();
        self.inner.begin_cycle();
        self.time += t.elapsed();
        self.calls += 1;
    }

    fn try_issue(&mut self, access: MemAccess) -> Result<(), Rejection> {
        let t = Instant::now();
        let r = self.inner.try_issue(access);
        self.time += t.elapsed();
        self.calls += 1;
        match r {
            Ok(()) => self.accepted += 1,
            Err(_) => self.rejected += 1,
        }
        r
    }

    fn poll(&mut self) -> Vec<MemCompletion> {
        let t = Instant::now();
        let r = self.inner.poll();
        self.time += t.elapsed();
        self.calls += 1;
        r
    }
}

/// Memory-port totals of the traced run.
#[derive(Default)]
struct PortTotals {
    accepted: u64,
    rejected: u64,
}

/// Runs `engine` on `port` inside a `runtime.engine` span, with the port
/// calls recorded as `memsys.port` child time.
fn engine_span(
    tr: &mut Tracer,
    op: u64,
    engine: &mut Engine,
    port: &mut dyn MemPort,
    totals: &mut PortTotals,
) -> Result<(), String> {
    let id = tr.begin("runtime.engine", op);
    let mut timed = TimedPort::new(port);
    let run = engine.try_run_to_completion(&mut timed);
    tr.aggregate("memsys.port", timed.time, timed.calls);
    totals.accepted += timed.accepted;
    totals.rejected += timed.rejected;
    tr.end(id);
    run.map(|_| ()).map_err(|e| e.to_string())
}

/// The traced operation: the same path as [`run_op`] built from the
/// public pieces behind `try_run_kernel` and `run_kernel_cached`, so each
/// layer can be timed. Its report must equal the untraced one.
fn run_op_traced(
    k: &mut BuiltKernel,
    text: &str,
    c: &Cfg,
    tr: &mut Tracer,
    op: u64,
    totals: &mut PortTotals,
) -> Result<RunReport, String> {
    let mut m = tr
        .span("llvm-ir.parse", op, || salam_ir::parse_module(text))
        .map_err(|e| e.to_string())?;
    k.func = take_function(&mut m)?;
    tr.span("verify.gate", op, || salam_verify::gate(&k.func))
        .map_err(|d| format!("verify: {} error(s)", d.len()))?;
    let cfg = &c.cfg;
    cfg.validate().map_err(|e| e.to_string())?;
    let cdfg = tr.span("cdfg.elaborate", op, || {
        StaticCdfg::elaborate(&k.func, &cfg.profile, &cfg.constraints)
    });
    let mut engine = Engine::new(
        k.func.clone(),
        cdfg.clone(),
        cfg.profile.clone(),
        cfg.engine,
        k.args.clone(),
    );
    let (verified, spm) = match c.cache {
        None => {
            let mut mem = SimpleMem::new(cfg.spm_latency, cfg.spm_read_ports, cfg.spm_write_ports);
            k.load_into(mem.memory_mut());
            engine_span(tr, op, &mut engine, &mut mem, totals)?;
            let verified = tr.span("machsuite.check", op, || k.check(mem.memory_mut()).is_ok());
            let (lo, hi) = k.init_span();
            let footprint = (hi.saturating_sub(lo)).next_power_of_two().max(1024);
            let spm = SramSpec::new(footprint, cfg.spm_word_bytes)
                .with_ports(cfg.spm_read_ports, cfg.spm_write_ports);
            (verified, spm)
        }
        Some(cache) => {
            let mut port = HierarchyPort::cache_hierarchy(
                k,
                cache,
                cfg.engine.clock_period_ps,
                cfg.spm_read_ports,
            );
            engine_span(tr, op, &mut engine, &mut port, totals)?;
            let verified = tr.span("machsuite.check", op, || check_through_cache(k, port));
            (
                verified,
                SramSpec::new(cache.size_bytes.max(1024), 8).with_ports(1, 1),
            )
        }
    };
    Ok(RunReport::assemble(
        &k.name,
        engine.stats(),
        &cdfg,
        &cfg.profile,
        Some(&spm),
        cfg.engine.clock_period_ps,
        verified,
    ))
}

/// The flow gate the server runs at admission (`salam_flow::analyze` and
/// the bounds check over the kernel's footprint), in a `flow.check` span;
/// returns whether the kernel passes.
pub fn flow_check(tr: &mut Tracer, k: &BuiltKernel, op: u64) -> bool {
    tr.span("flow.check", op, || {
        let facts = salam_flow::analyze(&k.func, &k.args);
        let (lo, hi) = k.footprint;
        let region = salam_verify::MemRegion {
            lo,
            hi,
            label: "footprint".into(),
        };
        salam_verify::errors_only(salam_verify::check_bounds_flow(
            &k.func,
            &facts,
            &k.args,
            &[region],
        ))
        .is_empty()
    })
}

/// Reads the kernel's footprint back through the cache (so dirty lines
/// win over stale DRAM) and runs the golden check on it, as
/// `run_kernel_cached` does.
fn check_through_cache(k: &BuiltKernel, port: HierarchyPort) -> bool {
    use salam_ir::interp::Memory as _;
    let l1 = port.target();
    let mut sim = port.into_simulation();
    let (lo, hi) = k.footprint;
    let sink = sim.add_component(memsys::test_util::Collector::new());
    let now = sim.now();
    let mut id = 1u64 << 40;
    let mut addr = lo;
    while addr < hi {
        let chunk = 64.min(hi - addr) as u32;
        sim.post(
            l1,
            now + 1,
            memsys::MemMsg::Req(memsys::MemReq::read(id, addr, chunk, sink)),
        );
        id += 1;
        addr += u64::from(chunk);
    }
    sim.run();
    let mut mem = SparseMemory::new();
    let col = sim
        .component_as::<memsys::test_util::Collector>(sink)
        .expect("sink is a collector");
    for r in &col.resps {
        if let Some(d) = &r.data {
            mem.write(r.addr, d);
        }
    }
    k.check(&mut mem).is_ok()
}

/// Runs whole passes over all 63 (kernel, config) pairs, each pass in a
/// fresh seeded order, for about `seconds` and at least two passes.
pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Report {
    let mut rep = Report::default();
    let probe = Probe::new(thread_cpu, SENSITIVITY);
    let suite = timed_setup(&mut rep, 5, thread_cpu, &probe, || setup(seed));
    let mut suite = match suite {
        Ok(s) => s,
        Err(e) => {
            rep.attempted = 1;
            rep.fail(format!("set-up: {e}"));
            return rep;
        }
    };
    let mut order_rng = SplitMix64::new(seed).split(2);
    let pairs: Vec<(usize, usize)> = (0..suite.kernels.len())
        .flat_map(|k| (0..suite.configs.len()).map(move |c| (k, c)))
        .collect();
    let (mut cycles, mut insts, mut stalls) = (0u64, 0u64, 0u64);
    let mut totals = PortTotals::default();
    let mut passes = Passes::new(seconds, 2);
    while passes.next() {
        let mut order = pairs.clone();
        order_rng.shuffle(&mut order);
        let mut before = probe.run(1);
        for (ki, ci) in order {
            let op = rep.attempted;
            rep.attempted += 1;
            let c = &suite.configs[ci];
            let k = &mut suite.kernels[ki];
            let key = format!("{}/{}", k.name, c.label);
            let t = thread_cpu();
            let res = match tracer.as_deref_mut() {
                None => run_op(k, &suite.texts[ki], c),
                Some(tr) => {
                    let id = tr.begin("kernel-suite.op", op);
                    let r = run_op_traced(k, &suite.texts[ki], c, tr, op, &mut totals);
                    tr.end(id);
                    r
                }
            };
            let raw = ms(thread_cpu() - t);
            let after = probe.run(1);
            rep.time(&key, raw, probe.between(before, after));
            before = after;
            match res {
                Ok(r) if r.verified => {
                    cycles += r.cycles;
                    insts += r.stats.total_issued();
                    stalls += r.stats.stall_cycles;
                    rep.result(&key, digest_of(&r.to_json()));
                }
                Ok(_) => rep.fail(format!("{key}: golden check failed")),
                Err(e) => rep.fail(format!("{key}: {e}")),
            }
        }
        rep.end_pass();
    }
    rep.finish_passes(pairs.len());
    let secs = rep.raw_seconds();
    rep.metric("raw.sim_cycles_per_s", cycles as f64 / secs, "1/s");
    rep.metric("raw.sim_insts_per_s", insts as f64 / secs, "1/s");
    rep.metric("run_ms_p50", rep.op_ms_p50, "ms");
    rep.metric("run_ms_p90", rep.op_ms_p90, "ms");
    if let Some(tr) = tracer {
        // The admission flow gate is not on this workload's path; it is
        // driven here on the suite's kernels so its cost has a baseline.
        for (i, k) in suite.kernels.iter().enumerate() {
            for _ in 0..10 {
                if !flow_check(tr, k, i as u64) {
                    rep.fail(format!("{}: flow check rejected", k.name));
                }
            }
        }
        let l = tr.layers();
        let runs = l.get("runtime.engine").copied().unwrap_or_default();
        let port = l.get("memsys.port").copied().unwrap_or_default();
        let n = runs.count.max(1) as f64;
        rep.layers.insert("machsuite.build_ms", suite.build_ms);
        for (name, layer) in [
            ("machsuite.check_ms", "machsuite.check"),
            ("runtime.self_ms", "runtime.engine"),
        ] {
            rep.layers
                .insert(name, l.get(layer).map_or(0.0, |s| s.mean_self_ms()));
        }
        for (name, layer) in [
            ("llvm-ir.parse_us", "llvm-ir.parse"),
            ("verify.gate_us", "verify.gate"),
            ("cdfg.elaborate_us", "cdfg.elaborate"),
            ("flow.check_us", "flow.check"),
        ] {
            rep.layers
                .insert(name, l.get(layer).map_or(0.0, |s| s.mean_self_us()));
        }
        rep.layers.insert(
            "runtime.ns_per_cycle",
            ratio(runs.self_ns as f64, cycles as f64),
        );
        rep.layers.insert(
            "runtime.ns_per_inst",
            ratio(runs.self_ns as f64, insts as f64),
        );
        rep.layers.insert("runtime.cycles", cycles as f64 / n);
        rep.layers.insert("runtime.insts", insts as f64 / n);
        rep.layers.insert(
            "runtime.stall_cycle_share",
            ratio(stalls as f64, cycles as f64),
        );
        rep.layers
            .insert("memsys.port_ms", port.total_ns as f64 / 1e6 / n);
        rep.layers
            .insert("memsys.accesses", totals.accepted as f64 / n);
        rep.layers.insert(
            "memsys.reject_ratio",
            ratio(
                totals.rejected as f64,
                (totals.accepted + totals.rejected) as f64,
            ),
        );
    }
    rep
}
