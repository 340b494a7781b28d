//! Full-stack integration: every MachSuite benchmark, every execution model.

use gem5_salam_repro::run_verified;
use hw_profile::HardwareProfile;
use machsuite::Bench;
use salam::standalone::{run_kernel, StandaloneConfig};
use salam_aladdin::{derive_datapath, generate_trace, simulate_trace, AladdinMemModel};
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_hls::HlsConfig;
use salam_ir::interp::SparseMemory;

#[test]
fn all_benchmarks_verify_on_the_engine() {
    for bench in Bench::ALL {
        let r = run_verified(bench);
        assert!(r.cycles > 0);
        assert!(r.power.total_mw() > 0.0);
        assert!(r.datapath_area_um2 > 0.0);
    }
}

#[test]
fn engine_cycle_counts_are_reproducible() {
    for bench in [Bench::GemmNcubed, Bench::SpmvCrs, Bench::Bfs] {
        let a = run_verified(bench).cycles;
        let b = run_verified(bench).cycles;
        assert_eq!(a, b, "{bench:?} must be deterministic");
    }
}

#[test]
fn all_three_models_run_every_benchmark() {
    let profile = HardwareProfile::default_40nm();
    for bench in Bench::ALL {
        let k = bench.build_standard();
        // Engine.
        let engine = run_kernel(&k, &StandaloneConfig::default());
        assert!(engine.verified, "{bench:?} engine run wrong");
        // Aladdin trace flow.
        let mut mem = SparseMemory::new();
        k.load_into(&mut mem);
        let trace = generate_trace(&k.func, &k.args, &mut mem);
        let dp = derive_datapath(&k.func, &trace, &profile, &AladdinMemModel::default_spm());
        let ala_cycles = simulate_trace(
            &k.func,
            &trace,
            &dp,
            &profile,
            &AladdinMemModel::default_spm(),
        );
        assert!(ala_cycles > 0, "{bench:?} aladdin produced zero cycles");
        // HLS static schedule (BFS's data-dependent while-loop is excluded,
        // as in the paper's Fig. 10).
        if bench != Bench::Bfs {
            let hls = salam_bench::runners::hls_cycles(
                &k,
                &FuConstraints::unconstrained(),
                &HlsConfig::default(),
            );
            assert!(hls.cycles > 0, "{bench:?} HLS estimate empty");
        }
    }
}

#[test]
fn salam_and_hls_agree_within_a_factor() {
    // Coarse bound on the Fig. 10 relationship for fast CI: the two models
    // must land within 2x of each other on every benchmark.
    for bench in Bench::ALL.into_iter().filter(|b| *b != Bench::Bfs) {
        let k = bench.build_standard();
        let cfg = salam_bench::runners::tuned_standalone(bench);
        let salam = run_kernel(&k, &cfg);
        let hls = salam_bench::runners::hls_cycles(
            &k,
            &FuConstraints::unconstrained(),
            &HlsConfig {
                engine_window: cfg.engine.reservation_entries,
                ..HlsConfig::default()
            },
        );
        let ratio = salam.cycles as f64 / hls.cycles as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "{bench:?}: SALAM {} vs HLS {} (ratio {ratio:.2})",
            salam.cycles,
            hls.cycles
        );
    }
}

#[test]
fn datapath_constraints_compose_across_the_stack() {
    use hw_profile::FuKind;
    let k = machsuite::md_knn::build(&machsuite::md_knn::Params::default());
    let profile = HardwareProfile::default_40nm();
    // Enforcing FU reuse shrinks area monotonically and never breaks
    // correctness.
    let mut last_area = f64::INFINITY;
    for limit in [16u32, 4, 1] {
        let constraints = FuConstraints::unconstrained()
            .with_limit(FuKind::FpMulF64, limit)
            .with_limit(FuKind::FpAddF64, limit);
        let cdfg = StaticCdfg::elaborate(&k.func, &profile, &constraints);
        let area = cdfg.area_report(&profile).total_um2;
        assert!(area <= last_area);
        last_area = area;
        let r = run_kernel(
            &k,
            &StandaloneConfig::default().with_constraints(constraints),
        );
        assert!(r.verified, "limit {limit} broke correctness");
    }
}

#[test]
fn ir_level_unrolling_is_a_real_dse_knob() {
    // The paper's workflow: apply `#pragma unroll`-style transforms to the
    // IR and watch the datapath widen and the cycle count drop. Here the
    // *pass* does the unrolling on the rolled kernel.
    let rolled = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 });
    let mut unrolled_func = rolled.func.clone();
    let report = salam_ir::passes::unroll_loops_by(&mut unrolled_func, 4, 1024);
    assert!(report.unrolled >= 1, "the inner k-loop must unroll");
    salam_ir::verify_function(&unrolled_func).unwrap();

    let profile = HardwareProfile::default_40nm();
    let narrow = StaticCdfg::elaborate(&rolled.func, &profile, &FuConstraints::unconstrained());
    let wide = StaticCdfg::elaborate(&unrolled_func, &profile, &FuConstraints::unconstrained());
    assert!(
        wide.fu_count(hw_profile::FuKind::FpMulF64) > narrow.fu_count(hw_profile::FuKind::FpMulF64),
        "unrolling must widen the datapath"
    );

    // Cycle win on the engine with ample bandwidth.
    let cfg = StandaloneConfig::default().with_ports(8);
    let base = run_kernel(&rolled, &cfg);
    assert!(base.verified);
    let unrolled_kernel = machsuite::BuiltKernel::new(
        "gemm-pass-unrolled",
        unrolled_func,
        rolled.args.clone(),
        rolled.init.clone(),
        Box::new(|_| Ok(())), // cycle comparison only; correctness is checked below
    );
    let faster = run_kernel(&unrolled_kernel, &cfg);
    assert!(
        faster.cycles < base.cycles,
        "unrolled {} vs rolled {}",
        faster.cycles,
        base.cycles
    );

    // And the unrolled function still computes the right matrix.
    let mut mem = salam_ir::interp::SparseMemory::new();
    rolled.load_into(&mut mem);
    salam_ir::interp::run_function(
        &unrolled_kernel.func,
        &unrolled_kernel.args,
        &mut mem,
        &mut salam_ir::interp::NullObserver,
        100_000_000,
    )
    .unwrap();
    rolled.check(&mut mem).unwrap();
}
