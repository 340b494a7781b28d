//! Per-cycle statistics collected by the runtime engine.
//!
//! These counters feed the paper's profiling figures directly: stall/new-
//! execution splits (Fig. 14a), stall-source breakdowns (Fig. 14b),
//! scheduling mixes and FU occupancy (Fig. 15), and the dynamic-energy terms
//! of the power model (Fig. 4, Fig. 11).

use std::collections::BTreeMap;

use hw_profile::FuKind;

/// Classification of issued operations. Variants are declared in label
/// order, so `class as usize` indexes the per-class counter arrays
/// ([`EngineStats::issued`], [`CycleRecord::issued`], …) and walking an
/// array yields labels sorted, as the report JSON writes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IssueClass {
    /// Floating-point compute.
    Float,
    /// Integer / address compute.
    Int,
    /// Memory read.
    Load,
    /// Control, phi, casts and other wiring.
    Other,
    /// Memory write.
    Store,
}

impl IssueClass {
    /// Number of classes: the length of the per-class counter arrays.
    pub const COUNT: usize = 5;
    /// Class labels, indexed by `class as usize` (sorted).
    pub const LABELS: [&'static str; IssueClass::COUNT] =
        ["float", "int", "load", "other", "store"];

    /// Short stable label.
    pub fn label(self) -> &'static str {
        IssueClass::LABELS[self as usize]
    }
}

/// Memory scheduling mix labels (sorted): cycles in which only loads
/// issued, loads and stores both issued, or only stores issued — the
/// index set of [`EngineStats::mem_mix_cycles`].
pub const MEM_MIX_LABELS: [&str; 3] = ["load", "load+store", "store"];

/// The `(label, count)` pairs of a counter array whose count is non-zero,
/// in label order — the sparse form the report JSON and the metrics export
/// write, where a label appears exactly when it was counted.
pub fn labeled_counts<'a>(
    labels: &'a [&'static str],
    counts: &'a [u64],
) -> impl Iterator<Item = (&'static str, u64)> + 'a {
    labels
        .iter()
        .zip(counts)
        .filter(|(_, &n)| n != 0)
        .map(|(&l, &n)| (l, n))
}

/// Which kinds of unfinished work were pending during a stalled cycle —
/// the paper breaks GEMM stalls down exactly this way (Fig. 14b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct StallMix {
    /// An outstanding load was pending.
    pub load: bool,
    /// An outstanding store was pending.
    pub store: bool,
    /// An outstanding (or blocked) compute op was pending.
    pub compute: bool,
}

impl StallMix {
    /// Number of mixes: the length of [`EngineStats::stall_breakdown`].
    pub const COUNT: usize = 8;
    /// Mix labels, indexed by [`StallMix::index`] (sorted).
    pub const LABELS: [&'static str; StallMix::COUNT] = [
        "compute",
        "load",
        "load+compute",
        "load+store",
        "load+store+compute",
        "none",
        "store",
        "store+compute",
    ];

    /// This mix's position in [`StallMix::LABELS`].
    pub fn index(self) -> usize {
        // LABELS position of each `load | store << 1 | compute << 2`.
        const BY_BITS: [usize; 8] = [5, 1, 6, 3, 0, 2, 7, 4];
        BY_BITS[self.load as usize | (self.store as usize) << 1 | (self.compute as usize) << 2]
    }

    /// Canonical label like `"load+compute"`.
    pub fn label(self) -> &'static str {
        StallMix::LABELS[self.index()]
    }
}

/// One cycle's activity snapshot (recorded when
/// [`crate::EngineConfig::record_timeline`] is set) — the paper's per-cycle
/// scheduling log that drives fine-grained occupancy exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleRecord {
    /// Operations issued this cycle, indexed by `IssueClass as usize`.
    pub issued: [u32; IssueClass::COUNT],
    /// Busy functional units, per kind.
    pub fu_busy: BTreeMap<FuKind, u32>,
    /// Outstanding memory operations at cycle end.
    pub mem_outstanding: u32,
    /// Whether a ready operation was blocked this cycle (a stall).
    pub stalled: bool,
}

/// Aggregate statistics for one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Total engine cycles.
    pub cycles: u64,
    /// Cycles in which at least one new operation issued.
    pub new_exec_cycles: u64,
    /// Cycles with pending work but no issue.
    pub stall_cycles: u64,
    /// Stalled cycles per pending-work mix, indexed by
    /// [`StallMix::index`].
    pub stall_breakdown: [u64; StallMix::COUNT],
    /// Issued operations, indexed by `IssueClass as usize`.
    pub issued: [u64; IssueClass::COUNT],
    /// Cycles in which each class issued at least once, indexed by
    /// `IssueClass as usize`.
    pub class_active_cycles: [u64; IssueClass::COUNT],
    /// Memory scheduling mix — cycles in which only loads, loads and
    /// stores, or only stores issued, indexed like [`MEM_MIX_LABELS`]:
    /// Fig. 15b's memory-parallelism view.
    pub mem_mix_cycles: [u64; 3],
    /// Sum over cycles of busy units, per FU kind (occupancy numerator).
    pub fu_busy_cycle_sum: BTreeMap<FuKind, u64>,
    /// Allocated pool size per FU kind (occupancy denominator).
    pub fu_pool: BTreeMap<FuKind, u32>,
    /// Dynamic functional-unit energy in picojoules.
    pub fu_dynamic_pj: f64,
    /// Dynamic internal-register read energy in picojoules.
    pub reg_read_pj: f64,
    /// Dynamic internal-register write energy in picojoules.
    pub reg_write_pj: f64,
    /// Loads issued to the memory port.
    pub loads: u64,
    /// Stores issued to the memory port.
    pub stores: u64,
    /// Bytes loaded.
    pub load_bytes: u64,
    /// Bytes stored.
    pub store_bytes: u64,
    /// Cycles in which a ready memory op was refused by the port
    /// (bandwidth saturation).
    pub port_reject_cycles: u64,
    /// Per-cycle attribution: every engine cycle charged to exactly one
    /// [`salam_obs::CycleClass`]. `attribution.total() == cycles` always.
    pub attribution: salam_obs::Attribution,
    /// Port rejections by [`crate::RejectCause`] label — one count per
    /// rejected access (an op can be rejected on many cycles).
    pub reject_causes: BTreeMap<String, u64>,
    /// Injected faults by kind (`fu_bitflip`, `mem_drop`, …), merged from
    /// the engine's own hooks and any [`crate::FaultyPort`] wrapping the
    /// memory path. Empty for clean runs — including runs with a zero-rate
    /// [`salam_fault::FaultPlan`] attached, which are observationally free.
    pub fault_counts: BTreeMap<String, u64>,
    /// The producer→consumer dependency stream (only populated when
    /// [`crate::EngineConfig::record_depstream`] is enabled); input to
    /// [`salam_obs::critpath::analyze`].
    pub depstream: Option<salam_obs::DepStream>,
    /// Per-cycle activity log (only populated when
    /// [`crate::EngineConfig::record_timeline`] is enabled).
    pub timeline: Vec<CycleRecord>,
}

impl EngineStats {
    /// Average occupancy (0..1) of the pool for `kind` over the whole run.
    pub fn fu_occupancy(&self, kind: FuKind) -> f64 {
        let busy = self.fu_busy_cycle_sum.get(&kind).copied().unwrap_or(0) as f64;
        let pool = self.fu_pool.get(&kind).copied().unwrap_or(0) as f64;
        if pool == 0.0 || self.cycles == 0 {
            0.0
        } else {
            busy / (pool * self.cycles as f64)
        }
    }

    /// Fraction of cycles that stalled.
    pub fn stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Total issued operations across classes.
    pub fn total_issued(&self) -> u64 {
        self.issued.iter().sum()
    }

    /// Issued count for one class.
    pub fn issued_class(&self, class: IssueClass) -> u64 {
        self.issued[class as usize]
    }

    /// Total dynamic datapath energy (FUs + registers) in picojoules.
    pub fn dynamic_datapath_pj(&self) -> f64 {
        self.fu_dynamic_pj + self.reg_read_pj + self.reg_write_pj
    }

    /// Publish every counter as a gauge of `reg` under `prefix`
    /// (dotted-path convention, e.g. `accel.gemm.engine`).
    pub fn export_metrics(&self, reg: &mut salam_telemetry::Telemetry, prefix: &str) {
        let p = |s: &str| format!("{prefix}.{s}");
        reg.gauge_set(&p("cycles"), self.cycles as f64);
        reg.gauge_set(&p("new_exec_cycles"), self.new_exec_cycles as f64);
        reg.gauge_set(&p("stall_cycles"), self.stall_cycles as f64);
        reg.gauge_set(&p("stall_fraction"), self.stall_fraction());
        let maps: [(&str, &[&'static str], &[u64]); 4] = [
            ("stall", &StallMix::LABELS, &self.stall_breakdown),
            ("issued", &IssueClass::LABELS, &self.issued),
            (
                "active_cycles",
                &IssueClass::LABELS,
                &self.class_active_cycles,
            ),
            ("mem_mix", &MEM_MIX_LABELS, &self.mem_mix_cycles),
        ];
        for (group, labels, counts) in maps {
            for (label, n) in labeled_counts(labels, counts) {
                reg.gauge_set(&p(&format!("{group}.{label}")), n as f64);
            }
        }
        reg.gauge_set(&p("issued.total"), self.total_issued() as f64);
        for kind in self.fu_pool.keys() {
            reg.gauge_set(
                &p(&format!("fu_occupancy.{kind:?}")),
                self.fu_occupancy(*kind),
            );
        }
        reg.gauge_set(&p("energy.fu_dynamic_pj"), self.fu_dynamic_pj);
        reg.gauge_set(&p("energy.reg_read_pj"), self.reg_read_pj);
        reg.gauge_set(&p("energy.reg_write_pj"), self.reg_write_pj);
        reg.gauge_set(&p("mem.loads"), self.loads as f64);
        reg.gauge_set(&p("mem.stores"), self.stores as f64);
        reg.gauge_set(&p("mem.load_bytes"), self.load_bytes as f64);
        reg.gauge_set(&p("mem.store_bytes"), self.store_bytes as f64);
        reg.gauge_set(&p("mem.port_reject_cycles"), self.port_reject_cycles as f64);
        for (class, n) in self.attribution.iter() {
            reg.gauge_set(&p(&format!("attribution.{}", class.label())), n as f64);
        }
        for (cause, n) in &self.reject_causes {
            reg.gauge_set(&p(&format!("reject.{cause}")), *n as f64);
        }
        for (kind, n) in &self.fault_counts {
            reg.gauge_set(&p(&format!("fault.{kind}")), *n as f64);
        }
    }

    /// Total injected faults across kinds.
    pub fn total_faults(&self) -> u64 {
        self.fault_counts.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_tables_are_sorted_and_match_their_indices() {
        // By `load | store << 1 | compute << 2`; all distinct, so
        // `StallMix::index` is a bijection onto the table.
        let by_bits = [
            "none",
            "load",
            "store",
            "load+store",
            "compute",
            "load+compute",
            "store+compute",
            "load+store+compute",
        ];
        for (bits, want) in by_bits.into_iter().enumerate() {
            let mix = StallMix {
                load: bits & 1 != 0,
                store: bits & 2 != 0,
                compute: bits & 4 != 0,
            };
            assert_eq!(mix.label(), want);
        }
        assert!(StallMix::LABELS.is_sorted() && IssueClass::LABELS.is_sorted());
        assert!(MEM_MIX_LABELS.is_sorted());
        let got: Vec<_> = labeled_counts(&IssueClass::LABELS, &[0, 3, 0, 0, 1]).collect();
        assert_eq!(got, [("int", 3), ("store", 1)]);
    }

    #[test]
    fn occupancy_math() {
        let mut s = EngineStats {
            cycles: 10,
            ..Default::default()
        };
        s.fu_pool.insert(FuKind::FpAddF64, 4);
        s.fu_busy_cycle_sum.insert(FuKind::FpAddF64, 20);
        assert!((s.fu_occupancy(FuKind::FpAddF64) - 0.5).abs() < 1e-12);
        assert_eq!(s.fu_occupancy(FuKind::Mux), 0.0);
    }

    #[test]
    fn fractions_guard_zero() {
        let s = EngineStats::default();
        assert_eq!(s.stall_fraction(), 0.0);
        assert_eq!(s.total_issued(), 0);
    }
}
