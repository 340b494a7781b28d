//! `soc-cluster`: closed loop, one client. Each operation is one Fig. 16
//! producer-consumer scenario (private SPM + DMA, shared SPM, or stream
//! buffers) under seeded integration parameters. The host, MMRs, DMA,
//! crossbars, stream buffers and the `sim-core` event queue do work here
//! that no other workload gives them.

use salam::{AcceleratorConfig, ClusterBuilder, ClusterConfig, MemoryStyle};
use salam_bench::cnn;
use salam_bench::fig16::{run_scenario_with, Fig16Params, Fig16Record, Scenario};
use salam_dse::CachePayload;
use salam_obs::SplitMix64;

use crate::common::{ms, thread_cpu, timed_setup, Passes, Report};
use crate::spans::Tracer;
use crate::speed::Probe;
use crate::stats::digest_of;

/// How much more than the host-speed probe this workload slows down on a
/// slower host (see `speed`).
const SENSITIVITY: f64 = 1.25;

/// Parameter sets per seed. SPM ports and stream depth move host time
/// the most, so every seed covers their full 3x3 grid; DMA burst and
/// crossbar width are drawn per seed, each value equally often.
const PARAM_SETS: usize = 9;

fn draw_params(rng: &mut SplitMix64) -> Vec<Fig16Params> {
    let mut column = |values: [u32; 3]| {
        let mut col: Vec<u32> = (0..PARAM_SETS).map(|i| values[i % 3]).collect();
        rng.shuffle(&mut col);
        col
    };
    let burst = column([16, 64, 256]);
    let xbar = column([4, 8, 16]);
    (0..PARAM_SETS)
        .map(|i| Fig16Params {
            dma_burst: burst[i],
            xbar_width: xbar[i],
            stream_capacity: [4, 16, 64][i % 3],
            spm_ports: [2, 4, 8][i / 3],
        })
        .collect()
}

/// Set-up: draws the parameters, builds every scenario's cluster once,
/// which validates each configuration before the timed loop, and runs
/// each scenario once at the paper's parameters as a warm-up.
fn setup(seed: u64) -> Result<Vec<(Scenario, Fig16Params)>, String> {
    let params = draw_params(&mut SplitMix64::new(seed).split(3));
    let pairs: Vec<(Scenario, Fig16Params)> = Scenario::ALL
        .iter()
        .flat_map(|&s| params.iter().map(move |p| (s, *p)))
        .collect();
    for (s, p) in &pairs {
        build_cluster(*s, p);
    }
    for s in Scenario::ALL {
        let ok = std::panic::catch_unwind(|| run_scenario_with(s, &Fig16Params::default()))
            .is_ok_and(|r| r.verified);
        if !ok {
            return Err(format!("{}: warm-up scenario failed", s.label()));
        }
    }
    Ok(pairs)
}

fn key(s: Scenario, p: &Fig16Params) -> String {
    format!(
        "{}/burst={}/xbar={}/stream={}/ports={}",
        s.label(),
        p.dma_burst,
        p.xbar_width,
        p.stream_capacity,
        p.spm_ports
    )
}

/// Builds (without running) the cluster the scenario uses, through the
/// public `ClusterBuilder` / `build_system` API, so that cluster
/// construction can be timed apart from the run.
fn build_cluster(s: Scenario, p: &Fig16Params) {
    let mut sim: sim_core::Simulation<memsys::MemMsg> = sim_core::Simulation::new();
    let spm = memsys::ScratchpadConfig::default().with_ports(p.spm_ports, p.spm_ports);
    let mut cfg = ClusterConfig {
        dma_burst: p.dma_burst,
        xbar_width: p.xbar_width,
        shared_spm: spm,
        ..ClusterConfig::default()
    };
    if s != Scenario::SharedSpm {
        cfg.shared_spm_bytes = 0;
    }
    let mut builder = ClusterBuilder::new(cfg, hw_profile::HardwareProfile::default_40nm());
    let stream = s == Scenario::Stream;
    if stream {
        let sc = memsys::StreamBufferConfig {
            capacity_beats: p.stream_capacity,
            beat_bytes: 4,
            ..Default::default()
        };
        for (i, base) in [0x3000_0000u64, 0x3000_1000].into_iter().enumerate() {
            let id = sim.add_component(memsys::StreamBuffer::new(&format!("stream_{i}"), sc));
            builder.add_local_range(base, base + 0x100, id);
        }
    }
    let private = |base| MemoryStyle::PrivateSpm {
        base,
        size: 0x4000,
        spm,
    };
    let styles = match s {
        Scenario::PrivateSpm => [
            private(0x1000_0000),
            private(0x1100_0000),
            private(0x1200_0000),
        ],
        Scenario::SharedSpm => [
            MemoryStyle::GlobalOnly,
            MemoryStyle::GlobalOnly,
            MemoryStyle::GlobalOnly,
        ],
        Scenario::Stream => [
            private(0x1000_0000),
            MemoryStyle::GlobalOnly,
            private(0x1200_0000),
        ],
    };
    let funcs = [
        cnn::conv_kernel(stream),
        cnn::relu_kernel(stream, stream),
        cnn::pool_kernel(stream),
    ];
    for (i, ((name, func), style)) in ["conv", "relu", "pool"]
        .into_iter()
        .zip(funcs)
        .zip(styles)
        .enumerate()
    {
        let mut acc = AcceleratorConfig::new(name);
        acc.engine.reservation_entries = 512;
        builder.add_accelerator(acc, func, style, 0x4000_0000 + 0x1000 * i as u64, None);
    }
    std::hint::black_box(salam::build_system(&mut sim, builder, 0x8000_0000, 1 << 20));
}

/// Runs whole passes over every (scenario, parameter set) pair, each pass
/// in a fresh seeded order, for about `seconds` and at least two passes.
pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Report {
    let mut rep = Report::default();
    let probe = Probe::new(thread_cpu, SENSITIVITY);
    let pairs = timed_setup(&mut rep, 5, thread_cpu, &probe, || setup(seed));
    let pairs = match pairs {
        Ok(p) => p,
        Err(e) => {
            rep.attempted = 1;
            rep.fail(format!("set-up: {e}"));
            return rep;
        }
    };
    let mut order_rng = SplitMix64::new(seed).split(4);
    let (mut run_ms, mut sim_ns, mut build_ms) = (Vec::new(), 0.0, Vec::new());
    let mut passes = Passes::new(seconds, 2);
    while passes.next() {
        let mut order = pairs.clone();
        order_rng.shuffle(&mut order);
        let mut before = probe.run(1);
        for (s, p) in order {
            let op = rep.attempted;
            rep.attempted += 1;
            let k = key(s, &p);
            if let Some(tr) = tracer.as_deref_mut() {
                let t = thread_cpu();
                tr.span("core.cluster_build", op, || build_cluster(s, &p));
                build_ms.push(ms(thread_cpu() - t));
            }
            let t = thread_cpu();
            let res = match tracer.as_deref_mut() {
                None => std::panic::catch_unwind(|| run_scenario_with(s, &p)),
                Some(tr) => tr.span("core.scenario", op, || {
                    std::panic::catch_unwind(|| run_scenario_with(s, &p))
                }),
            };
            let raw = ms(thread_cpu() - t);
            let after = probe.run(1);
            run_ms.push(raw);
            rep.time(&k, raw, probe.between(before, after));
            before = after;
            match res {
                Ok(r) if r.verified => {
                    sim_ns += r.total_ns;
                    rep.result(&k, digest_of(&Fig16Record::from(&r).payload_to_json()));
                }
                Ok(_) => rep.fail(format!("{k}: golden check failed")),
                Err(_) => rep.fail(format!("{k}: scenario panicked")),
            }
        }
        rep.end_pass();
    }
    rep.finish_passes(pairs.len());
    // The cluster runs at 1 GHz, so simulated ns are simulated cycles.
    rep.metric("raw.sim_cycles_per_s", sim_ns / rep.raw_seconds(), "1/s");
    rep.metric("run_ms_p50", rep.op_ms_p50, "ms");
    rep.metric("run_ms_p90", rep.op_ms_p90, "ms");
    rep.metric("scenarios", run_ms.len() as f64, "count");
    if tracer.is_some() {
        let build = crate::stats::median(&build_ms);
        rep.layers.insert("core.cluster_build_ms", build);
        rep.layers
            .insert("core.cluster_run_ms", crate::stats::median(&run_ms) - build);
    }
    rep
}
