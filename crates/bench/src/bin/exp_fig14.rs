//! Fig. 14 — GEMM stall breakdown vs. memory bandwidth.
//!
//! (a) stalled vs. new-execution cycle shares as read/write ports sweep
//!     64 → 4; (b) the stalled cycles broken down by which unfinished
//!     operation types were pending.
//!
//! Set `SALAM_TRACE=/path/to/trace.json` to also record the 4-port run
//! (the most stall-heavy point) as a Chrome trace_event file — open it in
//! Perfetto to see each op's issue→retire span and the stall instants.

use salam::standalone::{run_kernel, StandaloneConfig};
use salam_bench::runners::{run_kernel_observed, wide_window};
use salam_bench::table::Table;
use salam_runtime::StallMix;

fn main() {
    let kernel = machsuite::gemm::build(&machsuite::gemm::Params { n: 16, unroll: 16 });

    let mut a = Table::new(
        "Fig 14a: scheduling vs stalls (% of total cycles)",
        &["ports", "new-exec%", "stall%", "cycles"],
    );
    let mut b = Table::new(
        "Fig 14b: stall-source breakdown (% of stalled cycles)",
        &["ports", "load+compute%", "load+store+compute%", "other%"],
    );
    for ports in [64u32, 32, 16, 8, 4] {
        let r = run_kernel(
            &kernel,
            &wide_window(StandaloneConfig::default().with_ports(ports)),
        );
        assert!(r.verified);
        let st = &r.stats;
        let total = st.cycles as f64;
        a.row(vec![
            ports.to_string(),
            format!("{:.1}", st.new_exec_cycles as f64 / total * 100.0),
            format!("{:.1}", st.stall_cycles as f64 / total * 100.0),
            st.cycles.to_string(),
        ]);
        let stalls = st.stall_cycles.max(1) as f64;
        let get = |store| {
            let mix = StallMix {
                load: true,
                store,
                compute: true,
            };
            st.stall_breakdown[mix.index()] as f64
        };
        let lc = get(false);
        let lsc = get(true);
        let other = st.stall_cycles as f64 - lc - lsc;
        b.row(vec![
            ports.to_string(),
            format!("{:.1}", lc / stalls * 100.0),
            format!("{:.1}", lsc / stalls * 100.0),
            format!("{:.1}", other / stalls * 100.0),
        ]);
    }
    println!("{}", a.render_auto());
    println!("{}", b.render_auto());

    if let Ok(path) = std::env::var("SALAM_TRACE") {
        let path = std::path::PathBuf::from(path);
        let cfg = wide_window(StandaloneConfig::default().with_ports(4));
        let (r, reg) = run_kernel_observed(&kernel, &cfg, Some(&path));
        assert!(r.verified);
        println!(
            "\nwrote Chrome trace for the 4-port run to {}",
            path.display()
        );
        println!("{}", reg.to_table());
    }
}
