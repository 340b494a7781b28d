//! `dse-sweep`: one replay-accelerated sweep of 216 points (9 kernels x
//! SPM ports {1,2,4,8} x SPM latency {1,2,4} x outstanding reads {8,64}) on
//! two workers into a fresh cache directory (`cold`), then the identical
//! sweep again (`warm`, all hits). Replay and cache I/O do the work; the
//! engine runs only the nine baselines.

use std::time::Instant;

use machsuite::{bfs, spmv, Bench};
use salam::standalone::{try_run_kernel_profiled, StandaloneConfig};
use salam::RunReport;
use salam_cdfg::StaticCdfg;
use salam_dse::{
    baseline_config, replay_config, run_replay_sweep, Axis, CacheId, DseOptions, KernelSpec,
    Lookup, ReplayOptions, ReplayRun, ResultCache, StandalonePoint, SweepSpec,
};
use salam_obs::SplitMix64;

use crate::common::{ms, ratio, timed_setup, wall, Passes, Report};
use crate::spans::Tracer;
use crate::speed::Probe;
use crate::stats::{digest_of, median};
use crate::ScratchDir;

/// Sweep workers; the box this benchmark targets has two cores.
const WORKERS: usize = 2;

/// Host-speed probe runs between cold+warm pairs.
const PAIR_PROBES: u32 = 20;

/// How much more than the host-speed probe this workload slows down on a
/// slower host (see `speed`).
const SENSITIVITY: f64 = 1.25;

struct Sweep {
    points: Vec<StandalonePoint>,
    build_ms: f64,
    /// The warm-up sweep verified every baseline.
    warmed: bool,
}

/// Builds the nine kernel specs (BFS and SPMV on the same seeded
/// datasets as `kernel-suite`, named by their seed so cache identities stay
/// unique), instantiates each once, lists the 216 points in a seeded
/// order, and warms up with an uncached sweep of the nine baselines.
fn setup(seed: u64) -> Sweep {
    let mut data = SplitMix64::new(seed).split(1);
    let specs: Vec<KernelSpec> = Bench::ALL
        .iter()
        .map(|&b| match b {
            Bench::Bfs => {
                let seed = data.next_u64();
                KernelSpec::custom(format!("bfs[seed={seed}]"), move || {
                    bfs::build(&bfs::Params {
                        seed,
                        ..Default::default()
                    })
                })
            }
            Bench::SpmvCrs => {
                let seed = data.next_u64();
                KernelSpec::custom(format!("spmv[seed={seed}]"), move || {
                    spmv::build(&spmv::Params {
                        seed,
                        ..Default::default()
                    })
                })
            }
            _ => KernelSpec::bench(b),
        })
        .collect();
    let t = Instant::now();
    for k in &specs {
        std::hint::black_box(k.build());
    }
    let build_ms = ms(t.elapsed());
    let outstanding = [8usize, 64].iter().fold(Axis::new("outstanding"), |a, &v| {
        a.setting(v.to_string(), move |c| c.engine.max_outstanding_reads = v)
    });
    let mut points = specs
        .into_iter()
        .fold(
            SweepSpec::new("perf", StandaloneConfig::default()),
            |s, k| s.kernel(k),
        )
        .axis(Axis::spm_ports(&[1, 2, 4, 8]))
        .axis(Axis::spm_latency(&[1, 2, 4]))
        .axis(outstanding)
        .points();
    SplitMix64::new(seed).split(5).shuffle(&mut points);
    let mut seen = Vec::new();
    let baselines: Vec<StandalonePoint> = points
        .iter()
        .filter(|p| {
            let first = !seen.contains(&p.kernel.id);
            seen.push(p.kernel.id.clone());
            first
        })
        .map(|p| StandalonePoint {
            config: baseline_config(&StandaloneConfig::default()),
            coords: Vec::new(),
            ..p.clone()
        })
        .collect();
    let warm = run_replay_sweep(
        &baselines,
        &StandaloneConfig::default(),
        &ReplayOptions {
            inner: DseOptions::default().with_workers(WORKERS).without_cache(),
            check: false,
        },
    );
    let warmed = warm.failed == 0
        && warm
            .outcomes
            .iter()
            .all(|o| o.payload().is_some_and(|r| r.verified));
    Sweep {
        points,
        build_ms,
        warmed,
    }
}

fn sweep(points: &[StandalonePoint], dir: &ScratchDir) -> ReplayRun {
    let opts = ReplayOptions {
        inner: DseOptions::default()
            .with_workers(WORKERS)
            .with_cache_dir(&dir.0),
        check: false,
    };
    run_replay_sweep(points, &StandaloneConfig::default(), &opts)
}

/// Checks one sweep's rows and records their digests; returns whether
/// every point produced a verified report.
fn record(rep: &mut Report, points: &[StandalonePoint], run: &ReplayRun, phase: &str) -> bool {
    let mut ok = true;
    for ((p, o), prov) in points.iter().zip(&run.outcomes).zip(&run.provenance) {
        let key = p.label();
        match o.payload() {
            Some(r) if r.verified => {
                let row = format!("{}\n{}", prov.engine.label(), r.to_json());
                ok &= rep.result(&key, digest_of(&row));
            }
            _ => {
                rep.fail(format!("{phase} {key}: no verified report"));
                ok = false;
            }
        }
    }
    ok
}

/// Drives the layers `run_replay_sweep` calls internally through their
/// own public functions, on the same kernels and points: baseline
/// recording on the engine, `Prepared::new`, `replay_prepared` per point,
/// and result-cache stores and lookups of the cold sweep's reports.
fn probe_layers(rep: &mut Report, tr: &mut Tracer, points: &[StandalonePoint], cold: &ReplayRun) {
    let base = baseline_config(&StandaloneConfig::default());
    let (mut cycles, mut insts, mut runs, mut stalls) = (0u64, 0u64, 0u64, 0u64);
    let mut kernels: Vec<&KernelSpec> = Vec::new();
    for p in points {
        if !kernels.iter().any(|k| k.id == p.kernel.id) {
            kernels.push(&p.kernel);
        }
    }
    for (op, spec) in kernels.into_iter().enumerate() {
        let op = op as u64;
        let k = spec.build();
        let recorded = tr.span("runtime.engine", op, || try_run_kernel_profiled(&k, &base));
        let Ok((report, stream)) = recorded else {
            rep.fail(format!("{}: baseline recording failed", spec.id));
            continue;
        };
        runs += 1;
        cycles += report.cycles;
        insts += report.stats.total_issued();
        stalls += report.stats.stall_cycles;
        let Ok(prep) = tr.span("replay.prepare", op, || {
            salam_replay::Prepared::new(&stream)
        }) else {
            rep.fail(format!("{}: replay rejected the baseline", spec.id));
            continue;
        };
        for p in points.iter().filter(|p| p.kernel.id == spec.id) {
            let cfg = &p.config;
            let cdfg = StaticCdfg::elaborate(&k.func, &cfg.profile, &cfg.constraints);
            let rc = replay_config(cfg, &cdfg);
            if tr
                .span("replay.point", op, || {
                    salam_replay::replay_prepared(&prep, &rc)
                })
                .is_err()
            {
                rep.fail(format!("{}: replay rejected", p.label()));
            }
        }
    }
    let dir = ScratchDir::new("dse-probe");
    let cache = ResultCache::at(&dir.0);
    let ids: Vec<(CacheId, &RunReport)> = points
        .iter()
        .zip(&cold.outcomes)
        .filter_map(|(p, o)| {
            let id = CacheId::new(
                format!("standalone/{}", p.kernel.id),
                p.config.canonical_repr(),
            );
            o.payload().map(|r| (id, r))
        })
        .collect();
    for (i, (id, r)) in ids.iter().enumerate() {
        if tr
            .span("dse.cache_store", i as u64, || cache.store(id, *r))
            .is_err()
        {
            rep.fail(format!("cache store {} failed", id.key_hex()));
        }
    }
    let bytes = cache.disk_bytes();
    for (i, (id, r)) in ids.iter().enumerate() {
        let hit = tr.span("dse.cache_lookup", i as u64, || {
            cache.lookup::<RunReport>(id)
        });
        if !matches!(hit, Lookup::Hit(h) if h.to_json() == r.to_json()) {
            rep.fail(format!("cache lookup {} missed", id.key_hex()));
        }
    }
    let l = tr.layers();
    let us = |name: &str| l.get(name).map_or(0.0, |s| s.mean_self_us());
    let n = runs.max(1) as f64;
    let engine = l.get("runtime.engine").copied().unwrap_or_default();
    rep.layers.insert("runtime.self_ms", engine.mean_self_ms());
    rep.layers.insert(
        "runtime.ns_per_cycle",
        ratio(engine.self_ns as f64, cycles as f64),
    );
    rep.layers.insert(
        "runtime.ns_per_inst",
        ratio(engine.self_ns as f64, insts as f64),
    );
    rep.layers.insert("runtime.cycles", cycles as f64 / n);
    rep.layers.insert("runtime.insts", insts as f64 / n);
    rep.layers.insert(
        "runtime.stall_cycle_share",
        ratio(stalls as f64, cycles as f64),
    );
    rep.layers
        .insert("replay.prepare_ms", us("replay.prepare") / 1e3);
    rep.layers.insert("replay.point_us", us("replay.point"));
    rep.layers
        .insert("dse.cache_store_us", us("dse.cache_store"));
    rep.layers
        .insert("dse.cache_lookup_us", us("dse.cache_lookup"));
    rep.layers.insert("dse.bytes_written", bytes as f64);
}

/// Runs cold+warm sweep pairs, each in a fresh cache directory, for about
/// `seconds` and at least three pairs.
pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Report {
    let mut rep = Report::default();
    // The sweeps run on two workers, so they and the probe are timed on
    // the wall clock.
    let probe = Probe::new(wall, SENSITIVITY);
    let sw = timed_setup(&mut rep, 3, wall, &probe, || setup(seed));
    if !sw.warmed {
        rep.attempted = 1;
        rep.fail("set-up: the warm-up sweep failed".into());
        return rep;
    }
    let n = sw.points.len();
    let (mut pair_ms, mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut lookups, mut replayed) = (0usize, 0usize, 0usize);
    let mut first_cold = None;
    let mut passes = Passes::new(seconds, 3);
    let mut before = probe.run(PAIR_PROBES);
    while passes.next() {
        let op = pair_ms.len() as u64;
        rep.attempted += 2;
        let dir = ScratchDir::new("dse-cache");
        let t = Instant::now();
        let span = tracer.as_deref_mut().map(|tr| tr.begin("dse.pair", op));
        let cold = sweep(&sw.points, &dir);
        let tc = t.elapsed();
        let warm = sweep(&sw.points, &dir);
        let elapsed = t.elapsed();
        if let (Some(tr), Some(id)) = (tracer.as_deref_mut(), span) {
            tr.end(id);
        }
        pair_ms.push(ms(elapsed));
        cold_ms.push(ms(tc));
        warm_ms.push(ms(elapsed - tc));
        let after = probe.run(PAIR_PROBES);
        let speed = probe.between(before, after);
        before = after;
        rep.time("cold", ms(tc), speed);
        rep.time("warm", ms(elapsed - tc), speed);
        hits += warm.hits;
        lookups += warm.hits + warm.misses;
        replayed += cold.replayed;
        if !record(&mut rep, &sw.points, &cold, "cold") || cold.failed + cold.invalid > 0 {
            rep.fail(format!("cold sweep: {}", cold.summary()));
        }
        if !record(&mut rep, &sw.points, &warm, "warm") || warm.misses + warm.baseline_misses > 0 {
            rep.fail(format!("warm sweep was not all hits: {}", warm.summary()));
        }
        if first_cold.is_none() {
            first_cold = Some(cold);
        }
        rep.end_pass();
    }
    let pairs = pair_ms.len() as f64;
    // The gated latency is the geometric mean of the cold and the warm
    // sweep's median, so cache writes and cache reads weigh alike.
    rep.finish_passes(2 * n);
    let per_s = |ms: &[f64]| n as f64 * 1e3 / median(ms);
    rep.metric("raw.cold_points_per_s", per_s(&cold_ms), "1/s");
    rep.metric("raw.warm_points_per_s", per_s(&warm_ms), "1/s");
    rep.metric("pair_ms_p50", median(&pair_ms), "ms");
    rep.metric("pairs", pairs, "count");
    if let (Some(tr), Some(cold)) = (tracer, first_cold) {
        rep.layers.insert("machsuite.build_ms", sw.build_ms);
        rep.layers
            .insert("dse.hit_ratio", ratio(hits as f64, lookups as f64));
        rep.layers
            .insert("dse.replayed_ratio", replayed as f64 / (n as f64 * pairs));
        probe_layers(&mut rep, tr, &sw.points, &cold);
    }
    rep
}
