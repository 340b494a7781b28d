//! Static resource-constrained list scheduling with loop pipelining.

use std::collections::HashMap;

use salam_cdfg::StaticCdfg;
use salam_ir::analysis::{find_natural_loops, Cfg, DomTree};
use salam_ir::{BlockId, Function, InstId, Opcode, ValueKind};

/// Per-block dynamic execution counts, obtained by profiling the kernel with
/// the reference interpreter (the HLS analogue of a co-simulation run).
#[derive(Debug, Clone, Default)]
pub struct BlockTrips {
    counts: HashMap<BlockId, u64>,
}

impl BlockTrips {
    /// Builds from an interpreter profile.
    pub fn from_profile(p: &salam_ir::interp::ProfileObserver) -> Self {
        BlockTrips {
            counts: p.block_entries.clone(),
        }
    }

    /// Builds from raw counts.
    pub fn from_counts(counts: HashMap<BlockId, u64>) -> Self {
        BlockTrips { counts }
    }

    /// Executions of `b`.
    pub fn trips(&self, b: BlockId) -> u64 {
        self.counts.get(&b).copied().unwrap_or(0)
    }
}

/// Memory interface assumptions of the static schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HlsConfig {
    /// Reads per cycle.
    pub mem_read_ports: u32,
    /// Writes per cycle.
    pub mem_write_ports: u32,
    /// Load latency in cycles.
    pub mem_latency: u32,
    /// Pipeline innermost loops (HLS `#pragma pipeline`).
    pub pipeline_inner_loops: bool,
    /// Reservation-window size of the engine being modeled; bounds how far
    /// a recurrence-limited loop can defer unissued work before block fetch
    /// stalls and the pipeline drains at instance boundaries.
    pub engine_window: usize,
}

impl Default for HlsConfig {
    /// 2R/2W ports, 2-cycle loads, pipelining on.
    fn default() -> Self {
        HlsConfig {
            mem_read_ports: 2,
            mem_write_ports: 2,
            mem_latency: 2,
            pipeline_inner_loops: true,
            engine_window: 128,
        }
    }
}

/// The static schedule estimate.
#[derive(Debug, Clone, Default)]
pub struct HlsReport {
    /// Estimated total cycles.
    pub cycles: u64,
    /// Per innermost loop: `(header, initiation interval, depth)`.
    pub loops: Vec<(BlockId, u64, u64)>,
}

/// Estimates total cycles for `f` by statically scheduling each region.
///
/// Innermost loops are software-pipelined: one instance of a loop executing
/// `n` iterations costs `depth + (n - 1) * II`, where `II` bounds both
/// resource reuse (FU pools, memory ports) and loop-carried recurrences.
/// Blocks outside innermost loops contribute their list-schedule length per
/// execution.
pub fn estimate_cycles(
    f: &Function,
    cdfg: &StaticCdfg,
    cfg_hls: &HlsConfig,
    trips: &BlockTrips,
    memdeps: Option<&salam_verify::memdep::MemDeps>,
) -> HlsReport {
    let cfg = Cfg::new(f);
    let dom = DomTree::new(f, &cfg);
    let loops = find_natural_loops(f, &cfg, &dom);

    // Innermost loops: no other loop's header inside their body.
    let innermost: Vec<_> = loops
        .iter()
        .filter(|l| {
            cfg_hls.pipeline_inner_loops
                && !loops
                    .iter()
                    .any(|other| other.header != l.header && l.blocks.contains(&other.header))
        })
        .collect();

    let mut covered: Vec<BlockId> = Vec::new();
    let mut report = HlsReport::default();

    for l in &innermost {
        let blocks: Vec<BlockId> = {
            let mut v: Vec<_> = l.blocks.iter().copied().collect();
            v.sort();
            v
        };
        let ops: Vec<InstId> = blocks
            .iter()
            .flat_map(|&b| f.block(b).insts.clone())
            .collect();
        let depth = schedule_length(f, cdfg, cfg_hls, &ops);
        let mut ii = initiation_interval(f, cdfg, cfg_hls, l.header, &ops);
        // Internal data-dependent branches serialize basic-block fetch in
        // the runtime engine: the next block cannot be imported before the
        // branch condition resolves, so II is bounded by the latency chain
        // to every conditional terminator inside the loop.
        ii = ii.max(branch_fetch_ii(f, cdfg, cfg_hls, &blocks, &ops));
        let iters = trips.trips(l.latch);
        let instances = trips.trips(l.header).saturating_sub(iters).max(1);
        let iters_per_instance = iters / instances.max(1);
        let mut refills = false;
        if let Some(md) = memdeps {
            let deps = md.for_header(l.header);
            let ii_mem = memory_recurrence_ii(f, cdfg, cfg_hls, &ops, deps);
            // When a memory recurrence (not resource pressure) bounds the
            // loop, unissued work backs up behind the serial chain; if one
            // instance's backlog exceeds the engine's reservation window,
            // block fetch stalls and the pipeline drains at every re-entry
            // (NW's row boundaries). Resource-bound loops keep pace and
            // flow across instances (FFT stages, GEMM).
            if ii_mem > ii {
                // One instance's in-flight footprint: every iteration's ops
                // queued behind the serial chain.
                let instance_footprint = iters_per_instance as usize * ops.len();
                refills = instance_footprint > cfg_hls.engine_window * 2;
                ii = ii_mem;
            }
        }
        if iters > 0 {
            if refills {
                report.cycles += instances * depth + iters.saturating_sub(instances) * ii;
            } else {
                report.cycles += depth + iters.saturating_sub(1) * ii;
            }
        }
        report.loops.push((l.header, ii, depth));
        covered.extend(blocks);
    }

    // Blocks of enclosing (non-innermost) loops execute concurrently with
    // the inner pipeline in the dataflow engine; they only consume the
    // memory bandwidth they actually use. Blocks outside all loops run at
    // their full schedule length.
    let in_some_loop: Vec<BlockId> = loops
        .iter()
        .flat_map(|l| l.blocks.iter().copied())
        .collect();
    for (bid, b) in f.blocks() {
        if covered.contains(&bid) || trips.trips(bid) == 0 {
            continue;
        }
        let cost = if cfg_hls.pipeline_inner_loops && in_some_loop.contains(&bid) {
            let loads = b
                .insts
                .iter()
                .filter(|&&i| f.inst(i).op == Opcode::Load)
                .count() as u64;
            let stores = b
                .insts
                .iter()
                .filter(|&&i| f.inst(i).op == Opcode::Store)
                .count() as u64;
            loads
                .div_ceil(cfg_hls.mem_read_ports as u64)
                .max(stores.div_ceil(cfg_hls.mem_write_ports as u64))
                .max(1)
        } else {
            schedule_length(f, cdfg, cfg_hls, &b.insts)
        };
        report.cycles += cost * trips.trips(bid);
    }
    report
}

/// Resource-constrained list-schedule length of an op sequence, honoring
/// intra-sequence SSA dependencies; operands defined outside are ready at 0.
fn schedule_length(f: &Function, cdfg: &StaticCdfg, cfg: &HlsConfig, ops: &[InstId]) -> u64 {
    let mut finish: HashMap<InstId, u64> = HashMap::new();
    // resource usage per cycle: (fu kind counts, mem ports)
    let mut fu_used: HashMap<(u64, hw_profile::FuKind), u32> = HashMap::new();
    let mut reads_used: HashMap<u64, u32> = HashMap::new();
    let mut writes_used: HashMap<u64, u32> = HashMap::new();
    let mut makespan = 0u64;

    for &iid in ops {
        let inst = f.inst(iid);
        let sop = cdfg.op(iid);
        let mut ready = 0u64;
        for &v in &inst.operands {
            if let ValueKind::Inst(def) = f.value_kind(v) {
                if let Some(&t) = finish.get(def) {
                    ready = ready.max(t);
                }
            }
        }
        let latency = match inst.op {
            Opcode::Load | Opcode::Store => cfg.mem_latency as u64,
            _ => sop.latency as u64,
        };
        // Find the earliest start >= ready with a free resource slot.
        let mut start = ready;
        loop {
            let ok = match inst.op {
                Opcode::Load => {
                    let u = reads_used.get(&start).copied().unwrap_or(0);
                    if u < cfg.mem_read_ports {
                        reads_used.insert(start, u + 1);
                        true
                    } else {
                        false
                    }
                }
                Opcode::Store => {
                    let u = writes_used.get(&start).copied().unwrap_or(0);
                    if u < cfg.mem_write_ports {
                        writes_used.insert(start, u + 1);
                        true
                    } else {
                        false
                    }
                }
                _ => match sop.fu {
                    Some(k) => {
                        let pool = cdfg.fu_count(k).max(1);
                        let u = fu_used.get(&(start, k)).copied().unwrap_or(0);
                        if u < pool {
                            fu_used.insert((start, k), u + 1);
                            true
                        } else {
                            false
                        }
                    }
                    None => true,
                },
            };
            if ok {
                break;
            }
            start += 1;
        }
        let t = start + latency;
        finish.insert(iid, t);
        makespan = makespan.max(t.max(start + 1));
    }
    makespan
}

/// Initiation interval: max of resource pressure and loop-carried recurrence.
fn initiation_interval(
    f: &Function,
    cdfg: &StaticCdfg,
    cfg: &HlsConfig,
    header: BlockId,
    ops: &[InstId],
) -> u64 {
    // Resource II with *non-pipelined* functional units (as in the runtime
    // engine, where a unit stays allocated until its result commits): a
    // kind with total busy-time B and pool P sustains one iteration per
    // ceil(B / P) cycles.
    let mut kind_busy: HashMap<hw_profile::FuKind, u64> = HashMap::new();
    let mut loads = 0u64;
    let mut stores = 0u64;
    for &iid in ops {
        match f.inst(iid).op {
            Opcode::Load => loads += 1,
            Opcode::Store => stores += 1,
            _ => {
                if let Some(k) = cdfg.op(iid).fu {
                    *kind_busy.entry(k).or_insert(0) += (cdfg.op(iid).latency as u64).max(1);
                }
            }
        }
    }
    let mut ii_res = 1u64;
    for (k, busy) in kind_busy {
        let pool = cdfg.fu_count(k).max(1) as u64;
        ii_res = ii_res.max(busy.div_ceil(pool));
    }
    ii_res = ii_res.max(loads.div_ceil(cfg.mem_read_ports as u64));
    ii_res = ii_res.max(stores.div_ceil(cfg.mem_write_ports as u64));

    // Recurrence II: the longest latency chain from a header phi back to its
    // latch-incoming value within one iteration.
    let mut ii_rec = 1u64;
    let phis: Vec<InstId> = f
        .block(header)
        .insts
        .iter()
        .copied()
        .filter(|&i| f.inst(i).op == Opcode::Phi)
        .collect();
    for &phi in &phis {
        let phi_v = f.inst_result(phi).expect("phi has result");
        // Longest path from phi value to each op, then check latch operands.
        let mut dist: HashMap<InstId, u64> = HashMap::new();
        for &iid in ops {
            let inst = f.inst(iid);
            let lat = match inst.op {
                Opcode::Load | Opcode::Store => cfg.mem_latency as u64,
                _ => cdfg.op(iid).latency as u64,
            };
            let mut best: Option<u64> = None;
            for &v in &inst.operands {
                match f.value_kind(v) {
                    ValueKind::Inst(def) if f.inst_result(*def) == Some(v) => {
                        if v == phi_v {
                            best = Some(best.unwrap_or(0));
                        } else if let Some(&d) = dist.get(def) {
                            best = Some(best.unwrap_or(0).max(d));
                        }
                    }
                    _ => {}
                }
            }
            if let Some(b) = best {
                dist.insert(iid, b + lat);
            }
        }
        // The phi's incoming value from inside the loop closes the cycle.
        let inst = f.inst(phi);
        for &v in &inst.operands {
            if let ValueKind::Inst(def) = f.value_kind(v) {
                if let Some(&d) = dist.get(def) {
                    ii_rec = ii_rec.max(d);
                }
            }
        }
    }
    ii_res.max(ii_rec)
}

/// Fetch-serialization bound: the longest latency chain from loop entry to
/// the condition of any conditional branch inside the loop body (excluding
/// the header's own exit test, whose inputs are ready at iteration start).
fn branch_fetch_ii(
    f: &Function,
    cdfg: &StaticCdfg,
    cfg: &HlsConfig,
    blocks: &[BlockId],
    ops: &[InstId],
) -> u64 {
    // Longest-path distances from iteration start over the op list.
    let mut dist: HashMap<InstId, u64> = HashMap::new();
    for &iid in ops {
        let inst = f.inst(iid);
        let lat = match inst.op {
            Opcode::Load | Opcode::Store => cfg.mem_latency as u64,
            _ => cdfg.op(iid).latency as u64,
        };
        let mut base = 0u64;
        for &v in &inst.operands {
            if let ValueKind::Inst(def) = f.value_kind(v) {
                if let Some(&d) = dist.get(def) {
                    base = base.max(d);
                }
            }
        }
        dist.insert(iid, base + lat);
    }
    let mut ii = 1u64;
    // Conditional branches in non-header blocks gate block fetch.
    for &b in blocks.iter().skip(1) {
        if let Some(term) = f.terminator(b) {
            if f.inst(term).op == Opcode::CondBr {
                if let Some(&d) = dist.get(&term) {
                    ii = ii.max(d + 1);
                }
            }
        }
    }
    ii
}

/// Initiation-interval bound from profiled loop-carried memory RAW
/// dependences: the path load → … → store plus both memory latencies, per
/// iteration of distance.
fn memory_recurrence_ii(
    f: &Function,
    cdfg: &StaticCdfg,
    cfg: &HlsConfig,
    ops: &[InstId],
    deps: &[(InstId, InstId, u64)],
) -> u64 {
    let mut ii = 1u64;
    for &(load, store, distance) in deps {
        // Longest latency path from `load` to `store` within one iteration.
        let mut dist: HashMap<InstId, u64> = HashMap::new();
        dist.insert(load, cfg.mem_latency as u64);
        for &iid in ops {
            let inst = f.inst(iid);
            let mut best: Option<u64> = None;
            for &v in &inst.operands {
                if let ValueKind::Inst(def) = f.value_kind(v) {
                    if let Some(&d) = dist.get(def) {
                        best = Some(best.unwrap_or(0).max(d));
                    }
                }
            }
            if let Some(b) = best {
                let lat = match inst.op {
                    Opcode::Load | Opcode::Store => cfg.mem_latency as u64,
                    _ => cdfg.op(iid).latency as u64,
                };
                dist.insert(iid, b + lat);
            }
            if iid == store {
                // dist[store] already includes the store's own commit
                // latency via the propagation step.
                if let Some(&d) = dist.get(&store) {
                    ii = ii.max(d.div_ceil(distance.max(1)));
                }
            }
        }
    }
    ii
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_profile::HardwareProfile;
    use salam_cdfg::FuConstraints;
    use salam_ir::interp::{run_function, ProfileObserver, SparseMemory};
    use salam_ir::{FunctionBuilder, Type};

    fn profile_trips(k: &machsuite::BuiltKernel) -> BlockTrips {
        let mut mem = SparseMemory::new();
        k.load_into(&mut mem);
        let mut obs = ProfileObserver::default();
        run_function(&k.func, &k.args, &mut mem, &mut obs, 200_000_000).unwrap();
        BlockTrips::from_profile(&obs)
    }

    #[test]
    fn straightline_schedule_length() {
        // load(2) -> fmul(3) -> store(2) with chaining-free ops: ~7 cycles.
        let mut fb = FunctionBuilder::new("f", &[("p", Type::Ptr)]);
        let p = fb.arg(0);
        let x = fb.load(Type::F64, p, "x");
        let y = fb.fmul(x, x, "y");
        fb.store(y, p);
        fb.ret();
        let f = fb.finish();
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut trips = HashMap::new();
        trips.insert(f.entry(), 1);
        let rep = estimate_cycles(
            &f,
            &cdfg,
            &HlsConfig::default(),
            &BlockTrips::from_counts(trips),
            None,
        );
        assert_eq!(rep.cycles, 7);
    }

    #[test]
    fn port_limits_raise_ii() {
        // A loop with 4 loads per iteration at 2 read ports has II >= 2.
        let mut fb = FunctionBuilder::new("f", &[("p", Type::Ptr), ("n", Type::I64)]);
        let p = fb.arg(0);
        let n = fb.arg(1);
        let zero = fb.i64c(0);
        fb.counted_loop("i", zero, n, |fb, iv| {
            let mut acc = fb.f64c(0.0);
            for j in 0..4i64 {
                let jc = fb.i64c(j);
                let idx = fb.add(iv, jc, "idx");
                let g = fb.gep1(Type::F64, p, idx, "g");
                let x = fb.load(Type::F64, g, "x");
                acc = fb.fadd(acc, x, "acc");
            }
            let out = fb.gep1(Type::F64, p, iv, "out");
            fb.store(acc, out);
        });
        fb.ret();
        let f = fb.finish();
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&f, &profile, &FuConstraints::unconstrained());
        let mut counts = HashMap::new();
        let header = f.block_by_name("i.header").unwrap();
        let body = f.block_by_name("i.body").unwrap();
        counts.insert(f.entry(), 1);
        counts.insert(header, 11);
        counts.insert(body, 10);
        counts.insert(f.block_by_name("i.exit").unwrap(), 1);
        let rep = estimate_cycles(
            &f,
            &cdfg,
            &HlsConfig::default(),
            &BlockTrips::from_counts(counts),
            None,
        );
        let (_, ii, depth) = rep.loops[0];
        assert!(ii >= 2, "4 loads / 2 ports needs II>=2, got {ii}");
        assert!(depth > ii);
    }

    #[test]
    fn pipelining_beats_serial_execution() {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 });
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&k.func, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&k);
        let piped = estimate_cycles(&k.func, &cdfg, &HlsConfig::default(), &trips, None);
        let serial = estimate_cycles(
            &k.func,
            &cdfg,
            &HlsConfig {
                pipeline_inner_loops: false,
                ..HlsConfig::default()
            },
            &trips,
            None,
        );
        assert!(piped.cycles < serial.cycles);
        assert!(piped.cycles > 0);
    }

    #[test]
    fn recurrence_limits_ii() {
        // A serial FP accumulation (acc = acc + x) carries a 3-cycle fadd:
        // II must be at least 3 even with infinite resources.
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 8, unroll: 1 });
        let profile = HardwareProfile::default_40nm();
        let cdfg = StaticCdfg::elaborate(&k.func, &profile, &FuConstraints::unconstrained());
        let trips = profile_trips(&k);
        let rep = estimate_cycles(&k.func, &cdfg, &HlsConfig::default(), &trips, None);
        let inner = rep.loops.iter().map(|&(_, ii, _)| ii).max().unwrap();
        assert!(inner >= 3, "fadd recurrence should bound II, got {inner}");
    }
}
