//! Fig. 10 — performance validation: gem5-SALAM cycle counts vs. the HLS
//! static-schedule reference, per benchmark.

use machsuite::Bench;
use salam_bench::runners::{hls_cycles, run_kernel, tuned_standalone};
use salam_bench::table::{mean_abs_pct, pct_err, Table};
use salam_cdfg::FuConstraints;
use salam_hls::HlsConfig;

fn main() {
    let mut t = Table::new(
        "Fig 10: performance validation (cycles)",
        &["bench", "gem5-SALAM", "HLS", "error%"],
    );
    let mut errors = Vec::new();
    // The paper's Fig. 10 shows 8 benchmarks; BFS's dynamic work queue has
    // no meaningful static schedule, as in the original evaluation.
    for bench in Bench::ALL.into_iter().filter(|b| *b != Bench::Bfs) {
        let k = bench.build_standard();
        // Both models see the same device config: 2-cycle 2R/2W memory and
        // the per-benchmark tuned reservation window.
        let salam_cfg = tuned_standalone(bench);
        let hls_cfg = HlsConfig {
            engine_window: salam_cfg.engine.reservation_entries,
            ..HlsConfig::default()
        };
        let salam = run_kernel(&k, &salam_cfg);
        assert!(salam.verified, "{} failed verification", k.name);
        let hls = hls_cycles(&k, &FuConstraints::unconstrained(), &hls_cfg);
        let err = pct_err(salam.cycles as f64, hls.cycles as f64);
        errors.push(err);
        t.row(vec![
            bench.label().into(),
            salam.cycles.to_string(),
            hls.cycles.to_string(),
            format!("{err:+.2}"),
        ]);
    }
    println!("{}", t.render_auto());
    println!(
        "average |error|: {:.2}%  (paper: ~1%)",
        mean_abs_pct(&errors)
    );
}
