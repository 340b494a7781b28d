//! Fig. 15 — GEMM memory/compute co-design exploration with the
//! floating-point adder pool fixed at 64 units.
//!
//! (a) stalls vs. new-execution per configuration; (b) memory-parallelism
//! mix vs. FP-multiplier occupancy; (c) scheduling-mix vs. execution time;
//! (d) scheduling-mix vs. power.
//!
//! Runs on the DSE engine: `SALAM_JOBS` sets the worker count, and results
//! persist under `target/dse-cache/` (`SALAM_DSE_CACHE` overrides, and
//! `SALAM_DSE_NO_CACHE=1` disables), so a re-run after the first is served
//! entirely from the cache.

use hw_profile::FuKind;
use salam::standalone::StandaloneConfig;
use salam_bench::runners::wide_window;
use salam_cdfg::FuConstraints;
use salam_dse::{
    metrics_rollup, objectives, pareto_frontier, run_sweep, Axis, DseOptions, KernelSpec,
    SweepSpec, SweepTable,
};
use salam_runtime::IssueClass;

fn main() {
    let base = wide_window(
        StandaloneConfig::default()
            .with_constraints(FuConstraints::unconstrained().with_limit(FuKind::FpAddF64, 64)),
    );
    let spec = SweepSpec::new("fig15", base)
        .kernel(KernelSpec::custom("gemm[n=16,u=16]", || {
            machsuite::gemm::build(&machsuite::gemm::Params { n: 16, unroll: 16 })
        }))
        .axis(Axis::fu_limit(FuKind::FpMulF64, &[2, 4, 8, 16]).named("fmul"))
        .axis(Axis::spm_ports(&[4, 8, 16, 32, 64]));
    let points = spec.points();
    let run = run_sweep(&points, &DseOptions::default());

    let mut t = SweepTable::new(
        "Fig 15: co-design sweep (FADD pool fixed at 64)",
        &[
            "fmul",
            "ports",
            "stall%",
            "exec%",
            "ld-only%",
            "st-only%",
            "ld+st%",
            "fmul-occ%",
            "float-sched%",
            "mem-sched%",
            "cycles",
            "power(mW)",
            "dominant_bottleneck",
        ],
    );
    for (point, outcome) in points.iter().zip(&run.outcomes) {
        let r = outcome.expect_payload();
        assert!(r.verified);
        let st = &r.stats;
        let total = st.cycles as f64;
        let execp = st.new_exec_cycles as f64 / total * 100.0;
        // Percentages are over all cycles, like the paper's per-cycle
        // scheduling-activity plots.
        let pct = |n: u64| n as f64 / total * 100.0;
        let [load_only, load_store, store_only] = st.mem_mix_cycles.map(pct);
        let sched = |c: IssueClass| pct(st.class_active_cycles[c as usize]);
        let mut row: Vec<String> = point.coords.iter().map(|(_, v)| v.clone()).collect();
        row.extend([
            format!("{:.1}", st.stall_cycles as f64 / total * 100.0),
            format!("{execp:.1}"),
            format!("{load_only:.1}"),
            format!("{store_only:.1}"),
            format!("{load_store:.1}"),
            format!("{:.1}", st.fu_occupancy(FuKind::FpMulF64) * 100.0),
            format!("{:.1}", sched(IssueClass::Float)),
            format!("{:.1}", sched(IssueClass::Load) + sched(IssueClass::Store)),
            st.cycles.to_string(),
            format!("{:.2}", r.power.total_mw()),
            r.dominant_bottleneck().to_string(),
        ]);
        t.row(row);
    }
    println!("{}", t.render_auto());

    // The (cycles, area, power) Pareto frontier of the swept space.
    let objs: Vec<[f64; 3]> = run
        .outcomes
        .iter()
        .map(|o| objectives(o.expect_payload()))
        .collect();
    let frontier = pareto_frontier(&objs);
    let labels: Vec<String> = frontier
        .iter()
        .map(|&i| {
            format!(
                "{} [{}]",
                points[i].label(),
                run.outcomes[i].expect_payload().dominant_bottleneck()
            )
        })
        .collect();
    println!("pareto frontier (cycles/area/power): {}", labels.join(", "));

    let reg = metrics_rollup(
        &spec.name,
        points
            .iter()
            .zip(&run.outcomes)
            .map(|(p, o)| (p.label(), o.expect_payload())),
    );
    println!("metrics rollup: {} series exported", reg.gauges().count());
    println!("dse: {}", run.summary());
    println!(
        "(a)=stall/exec columns, (b)=memory-mix vs fmul occupancy,\n\
         (c)=scheduling mix vs cycles, (d)=scheduling mix vs power"
    );
}
