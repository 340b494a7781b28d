//! Direct tests of the engine's modeling knobs (ablation switches).

use hw_profile::{FuKind, HardwareProfile};
use salam_cdfg::{FuConstraints, StaticCdfg};
use salam_ir::interp::RtVal;
use salam_ir::{Function, FunctionBuilder, Type};
use salam_runtime::{Engine, EngineConfig, IssueClass, SimpleMem};

/// A chain of dependent double multiplies per iteration, 16 iterations.
fn serial_fmul_loop() -> Function {
    let mut fb = FunctionBuilder::new("serial", &[("a", Type::Ptr), ("n", Type::I64)]);
    let a = fb.arg(0);
    let n = fb.arg(1);
    let zero = fb.i64c(0);
    fb.counted_loop("i", zero, n, |fb, iv| {
        let p = fb.gep1(Type::F64, a, iv, "p");
        let x = fb.load(Type::F64, p, "x");
        let y = fb.fmul(x, x, "y");
        fb.store(y, p);
    });
    fb.ret();
    fb.finish()
}

/// The serial loop unrolled 8 times: each iteration squares 8 independent
/// elements, so loads, multiplies and stores of one iteration can issue in
/// the same cycle.
fn unrolled_fmul_loop() -> Function {
    let mut fb = FunctionBuilder::new("unrolled", &[("a", Type::Ptr), ("n", Type::I64)]);
    let a = fb.arg(0);
    let n = fb.arg(1);
    let zero = fb.i64c(0);
    let width = fb.i64c(8);
    fb.counted_loop("i", zero, n, |fb, iv| {
        let base = fb.mul(iv, width, "base");
        for k in 0..8 {
            let off = fb.i64c(k);
            let idx = fb.add(base, off, "idx");
            let p = fb.gep1(Type::F64, a, idx, "p");
            let x = fb.load(Type::F64, p, "x");
            let y = fb.fmul(x, x, "y");
            fb.store(y, p);
        }
    });
    fb.ret();
    fb.finish()
}

fn run_cycles(f: &Function, cfg: EngineConfig, n: i64) -> u64 {
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(f, &profile, &FuConstraints::unconstrained());
    let mut mem = SimpleMem::new(1, 4, 4);
    mem.memory_mut()
        .write_f64_slice(0x1000, &vec![1.5; n as usize]);
    let mut e = Engine::new(
        f.clone(),
        cdfg,
        profile,
        cfg,
        vec![RtVal::P(0x1000), RtVal::I(n)],
    );
    let cycles = e.run_to_completion(&mut mem);
    // Correctness regardless of the knob settings.
    let got = mem.memory_mut().read_f64_slice(0x1000, n as usize);
    assert!(got.iter().all(|&v| v == 2.25));
    cycles
}

#[test]
fn pipelined_fus_speed_up_fu_bound_loops() {
    let f = serial_fmul_loop();
    let unpiped = run_cycles(&f, EngineConfig::default(), 32);
    let piped = run_cycles(
        &f,
        EngineConfig {
            pipelined_fus: true,
            ..EngineConfig::default()
        },
        32,
    );
    // One shared multiplier (1:1 static map → 1 unit) at 3 cycles: the
    // unpipelined engine serializes at ~3/iter; II=1 pipelining beats it.
    assert!(
        piped < unpiped,
        "pipelined {piped} vs unpipelined {unpiped}"
    );
}

#[test]
fn strict_hazards_never_faster_and_always_correct() {
    let f = serial_fmul_loop();
    let relaxed = run_cycles(&f, EngineConfig::default(), 32);
    let strict = run_cycles(
        &f,
        EngineConfig {
            strict_register_hazards: true,
            ..EngineConfig::default()
        },
        32,
    );
    assert!(strict >= relaxed);
}

#[test]
fn window_size_monotonically_helps_until_saturation() {
    let f = serial_fmul_loop();
    let mut last = u64::MAX;
    for window in [16usize, 64, 256] {
        let c = run_cycles(
            &f,
            EngineConfig {
                reservation_entries: window,
                ..EngineConfig::default()
            },
            64,
        );
        assert!(c <= last, "window {window} regressed: {c} > {last}");
        last = c;
    }
}

#[test]
fn outstanding_memory_limits_throttle() {
    let f = serial_fmul_loop();
    let wide = run_cycles(
        &f,
        EngineConfig {
            max_outstanding_reads: 64,
            ..EngineConfig::default()
        },
        64,
    );
    let narrow = run_cycles(
        &f,
        EngineConfig {
            max_outstanding_reads: 1,
            ..EngineConfig::default()
        },
        64,
    );
    assert!(narrow >= wide);
}

#[test]
fn fu_pool_stats_report_allocation() {
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(
        &f,
        &profile,
        &FuConstraints::unconstrained().with_limit(FuKind::FpMulF64, 1),
    );
    let mut mem = SimpleMem::new(1, 2, 2);
    mem.memory_mut().write_f64_slice(0x1000, &[1.5; 8]);
    let mut e = Engine::new(
        f,
        cdfg,
        profile,
        EngineConfig::default(),
        vec![RtVal::P(0x1000), RtVal::I(8)],
    );
    e.run_to_completion(&mut mem);
    assert_eq!(e.stats().fu_pool[&FuKind::FpMulF64], 1);
    assert!(e.stats().fu_occupancy(FuKind::FpMulF64) > 0.0);
}

#[test]
fn timeline_records_every_cycle() {
    let f = unrolled_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
    let mut mem = SimpleMem::new(1, 8, 8);
    mem.memory_mut().write_f64_slice(0x1000, &[1.5; 32]);
    let mut e = Engine::new(
        f,
        cdfg,
        profile,
        EngineConfig {
            record_timeline: true,
            reservation_entries: 512,
            ..EngineConfig::default()
        },
        vec![RtVal::P(0x1000), RtVal::I(4)],
    );
    let cycles = e.run_to_completion(&mut mem);
    let st = e.stats();
    assert_eq!(st.timeline.len(), cycles as usize);
    // Records count operations, not classes: summed over the run they
    // equal the issue counters, and the unrolled body issues several
    // loads in one cycle.
    let mut logged = [0u64; IssueClass::COUNT];
    for r in &st.timeline {
        for (sum, &n) in logged.iter_mut().zip(&r.issued) {
            *sum += u64::from(n);
        }
    }
    assert_eq!(logged, st.issued);
    assert!(st
        .timeline
        .iter()
        .any(|r| r.issued[IssueClass::Load as usize] > 1));
    // Multiplier busyness shows up in the middle of the run.
    assert!(st
        .timeline
        .iter()
        .any(|r| r.fu_busy.get(&FuKind::FpMulF64).copied().unwrap_or(0) > 0));
    // Off by default: a second run records nothing.
    let f2 = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f2, &profile, &FuConstraints::unconstrained());
    let mut mem2 = SimpleMem::new(1, 2, 2);
    mem2.memory_mut().write_f64_slice(0x1000, &[1.5; 16]);
    let mut e2 = Engine::new(
        f2,
        cdfg,
        profile,
        EngineConfig::default(),
        vec![RtVal::P(0x1000), RtVal::I(16)],
    );
    e2.run_to_completion(&mut mem2);
    assert!(e2.stats().timeline.is_empty());
}

#[test]
#[should_panic(expected = "argument count mismatch")]
fn wrong_arity_is_rejected_at_construction() {
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
    let _ = Engine::new(f, cdfg, profile, EngineConfig::default(), vec![RtVal::I(1)]);
}

#[test]
fn deadlock_detection_returns_a_populated_snapshot() {
    // A port that never completes anything wedges the engine; the watchdog
    // must report it as a typed error carrying its queue snapshot instead
    // of spinning forever (or panicking).
    struct BlackHole;
    impl salam_runtime::MemPort for BlackHole {
        fn begin_cycle(&mut self) {}
        fn try_issue(
            &mut self,
            _a: salam_runtime::MemAccess,
        ) -> Result<(), salam_runtime::Rejection> {
            Ok(()) // accepted, never completed
        }
        fn poll(&mut self) -> Vec<salam_runtime::MemCompletion> {
            Vec::new()
        }
    }
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
    let cfg = EngineConfig {
        deadlock_cycles: 2_000,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(f, cdfg, profile, cfg, vec![RtVal::P(0), RtVal::I(4)]);
    let mut hole = BlackHole;
    let err = e
        .try_run_to_completion(&mut hole)
        .expect_err("a black-hole port must deadlock");
    let salam_runtime::SimError::Deadlock(snap) = &err else {
        panic!("expected Deadlock, got {err:?}");
    };
    assert_eq!(snap.kernel, "serial");
    assert!(snap.mem_outstanding > 0, "reads are stuck in flight");
    assert!(
        snap.cycle - snap.last_progress_cycle > cfg.deadlock_cycles,
        "watchdog fired at cycle {} with last progress at {}",
        snap.cycle,
        snap.last_progress_cycle
    );
    assert!(
        snap.reservation_occupancy > 0 || snap.compute_occupancy > 0 || snap.pending_blocks > 0,
        "a wedged engine still holds work"
    );
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("@serial"), "{msg}");
}

#[test]
fn nonsense_configs_are_rejected_before_the_run() {
    let f = serial_fmul_loop();
    let profile = HardwareProfile::default_40nm();
    for (label, cfg) in [
        (
            "deadlock_cycles",
            EngineConfig {
                deadlock_cycles: 0,
                ..EngineConfig::default()
            },
        ),
        (
            "reservation_entries",
            EngineConfig {
                reservation_entries: 0,
                ..EngineConfig::default()
            },
        ),
        (
            "max_outstanding_reads",
            EngineConfig {
                max_outstanding_reads: 0,
                ..EngineConfig::default()
            },
        ),
        (
            "clock_period_ps",
            EngineConfig {
                clock_period_ps: 0,
                ..EngineConfig::default()
            },
        ),
    ] {
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut mem = SimpleMem::new(1, 4, 4);
        let mut e = Engine::new(
            f.clone(),
            cdfg,
            profile.clone(),
            cfg,
            vec![RtVal::P(0x1000), RtVal::I(4)],
        );
        let err = e
            .try_run_to_completion(&mut mem)
            .expect_err("invalid config must be rejected");
        let salam_runtime::SimError::Config(c) = &err else {
            panic!("expected Config error for {label}, got {err:?}");
        };
        assert_eq!(c.field, label);
    }
}

#[test]
fn zero_rate_fault_plan_changes_nothing() {
    let f = serial_fmul_loop();
    let run = |with_plan: bool| -> (u64, u64) {
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut mem = SimpleMem::new(1, 4, 4);
        mem.memory_mut().write_f64_slice(0x1000, &[1.5; 16]);
        let mut e = Engine::new(
            f.clone(),
            cdfg,
            profile,
            EngineConfig::default(),
            vec![RtVal::P(0x1000), RtVal::I(16)],
        );
        if with_plan {
            e.set_fault(&salam_runtime::FaultPlan::seeded(99));
        }
        let cycles = e.run_to_completion(&mut mem);
        (cycles, e.stats().total_faults())
    };
    let (clean_cycles, clean_faults) = run(false);
    let (planned_cycles, planned_faults) = run(true);
    assert_eq!(clean_cycles, planned_cycles);
    assert_eq!(clean_faults, 0);
    assert_eq!(planned_faults, 0);
}

#[test]
fn fu_bitflips_fire_deterministically_and_are_counted() {
    let f = serial_fmul_loop();
    let run = |seed: u64| -> (u64, Vec<f64>) {
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut mem = SimpleMem::new(1, 4, 4);
        mem.memory_mut().write_f64_slice(0x1000, &[1.5; 16]);
        let mut e = Engine::new(
            f.clone(),
            cdfg,
            profile,
            EngineConfig::default(),
            vec![RtVal::P(0x1000), RtVal::I(16)],
        );
        e.set_fault(&salam_runtime::FaultPlan {
            fu_bitflip_rate: 0.5,
            ..salam_runtime::FaultPlan::seeded(seed)
        });
        e.run_to_completion(&mut mem);
        let flips = e
            .stats()
            .fault_counts
            .get("fu_bitflip")
            .copied()
            .unwrap_or(0);
        (flips, mem.memory_mut().read_f64_slice(0x1000, 16))
    };
    let (flips_a, data_a) = run(7);
    let (flips_b, data_b) = run(7);
    assert!(flips_a > 0, "a 50% rate over 16 fmuls must fire");
    assert_eq!(flips_a, flips_b, "same seed, same schedule");
    assert_eq!(data_a, data_b, "same seed, same corrupted output");
    let (_, data_c) = run(8);
    assert_ne!(data_a, data_c, "a different seed flips different bits");
}

#[test]
fn fu_jitter_slows_the_run_but_keeps_it_correct() {
    let f = serial_fmul_loop();
    let run = |rate: f64| -> u64 {
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut mem = SimpleMem::new(1, 4, 4);
        mem.memory_mut().write_f64_slice(0x1000, &[1.5; 32]);
        let mut e = Engine::new(
            f.clone(),
            cdfg,
            profile,
            EngineConfig::default(),
            vec![RtVal::P(0x1000), RtVal::I(32)],
        );
        e.set_fault(&salam_runtime::FaultPlan {
            fu_jitter_rate: rate,
            fu_jitter_cycles: 8,
            ..salam_runtime::FaultPlan::seeded(3)
        });
        let cycles = e.run_to_completion(&mut mem);
        let got = mem.memory_mut().read_f64_slice(0x1000, 32);
        assert!(got.iter().all(|&v| v == 2.25), "jitter is timing-only");
        cycles
    };
    assert!(run(1.0) > run(0.0));
}
