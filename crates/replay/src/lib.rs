//! `salam-replay` — the trace-replay fast path.
//!
//! The runtime engine's dependence stream ([`salam_obs::DepStream`],
//! recorded under `record_depstream`) captures everything *dynamic* about a
//! run: which ops executed, their data dependences, which block import
//! produced them and which terminator triggered that import, and the
//! addresses memory ops touched. None of that changes when only *resource*
//! knobs change — FU counts, SPM port widths, SPM latency, outstanding-op
//! caps. So instead of re-simulating, this crate re-runs the recorded DAG
//! through a list scheduler that mirrors the engine's cycle structure
//! exactly (LightningSim's "simulate once, schedule after" idea): memory
//! completions, compute commits, block import, address publication, then
//! an in-order issue pass with the same resource checks and the same
//! per-cycle attribution priority. On replay-safe knob changes the result
//! is the schedule the engine *would* have produced, in a fraction of the
//! time — frozen stretches of the schedule are fast-forwarded in one jump.
//!
//! What replay cannot see (and why the DSE layer falls back to full
//! simulation for these axes): anything that changes the *recorded DAG
//! itself* — a different hardware profile (op latencies), a different
//! reservation-window size (changes import timing and therefore `group`
//! boundaries are still valid but occupancy differs — kept as a baseline
//! axis out of caution), value-dependent control flow under fault
//! injection, and strict register hazards (their issue-ordering deps are
//! approximated as commit deps, which is conservative).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

use hw_profile::FuKind;
use salam_obs::{Attribution, CycleClass, DepStream, OpKind};

/// Resource constraints to re-schedule the recorded stream under.
///
/// Defaults mirror the engine's defaults (128-entry window, 64+64
/// outstanding, unpipelined FUs, 1-cycle SPM with 2R/2W ports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Reservation-window capacity in dynamic instructions.
    pub reservation_entries: usize,
    /// Maximum outstanding reads.
    pub max_outstanding_reads: usize,
    /// Maximum outstanding writes.
    pub max_outstanding_writes: usize,
    /// Fully pipelined FUs (release one cycle after issue).
    pub pipelined_fus: bool,
    /// Memory latency in cycles (replaces the recorded SPM latency).
    pub mem_latency: u64,
    /// SPM read ports per cycle.
    pub spm_read_ports: u32,
    /// SPM write ports per cycle.
    pub spm_write_ports: u32,
    /// Functional-unit pool sizes. Kinds absent from the map have a pool
    /// of zero — exactly the engine's semantics — so callers must cover
    /// every FU class the stream uses.
    pub fu_pool: HashMap<FuKind, u32>,
    /// Hard cycle ceiling; exceeded ⇒ [`ReplayError::CycleLimit`].
    pub max_cycles: u64,
    /// Build the retimed stream in [`ReplayOutcome::retimed`]. Costs one
    /// pass over the ops plus a sort; sweeps that only need cycle counts
    /// and attribution turn it off.
    pub want_retimed: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            reservation_entries: 128,
            max_outstanding_reads: 64,
            max_outstanding_writes: 64,
            pipelined_fus: false,
            mem_latency: 1,
            spm_read_ports: 2,
            spm_write_ports: 2,
            fu_pool: HashMap::new(),
            max_cycles: 1_000_000_000,
            want_retimed: true,
        }
    }
}

/// What the replay scheduler produced: the re-scheduled cycle count plus
/// the per-cycle counters a [`salam_obs::Attribution`]-consuming report
/// needs, and the retimed stream for critical-path analysis.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Total cycles of the re-scheduled run.
    pub cycles: u64,
    /// Per-cycle attribution, charged with the engine's exact priority.
    pub attribution: Attribution,
    /// Busy-FU cycle integral per kind (the utilization numerator).
    pub fu_busy_cycle_sum: HashMap<FuKind, u64>,
    /// Cycles where a dependency-free op could not launch.
    pub stall_cycles: u64,
    /// Unstalled cycles with at least one issue.
    pub new_exec_cycles: u64,
    /// Cycles with at least one SPM port rejection.
    pub port_reject_cycles: u64,
    /// The input stream with issue/commit retimed to the replayed
    /// schedule (same ops, deps and metadata). `None` when the config
    /// set [`ReplayConfig::want_retimed`] to `false`.
    pub retimed: Option<DepStream>,
}

/// Why a stream could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The stream is structurally unusable (missing metadata, non-dense
    /// uids, out-of-order groups, …).
    BadStream(String),
    /// The schedule wedged: ops remain but no future event can unblock
    /// them under the given constraints.
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Ops that had committed by then.
        committed: usize,
        /// Ops in the stream.
        total: usize,
    },
    /// `max_cycles` exceeded.
    CycleLimit {
        /// The configured cycle budget.
        limit: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadStream(m) => write!(f, "replay: bad stream: {m}"),
            ReplayError::Deadlock {
                cycle,
                committed,
                total,
            } => write!(
                f,
                "replay: deadlock at cycle {cycle} ({committed}/{total} ops committed)"
            ),
            ReplayError::CycleLimit { limit } => {
                write!(f, "replay: cycle limit {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// One recorded op, resolved into the scheduler's working form.
struct ROp {
    uid: u64,
    kind: OpKind,
    fu: Option<FuKind>,
    latency: u64,
    group: u32,
    ctrl: u64,
    addr_dep: u64,
    addr: u64,
    size: u32,
}

/// A block-import group: contiguous uid range plus the terminator uid that
/// fetched it (0 for the entry group).
struct Group {
    start: usize,
    len: usize,
    ctrl: u64,
}

/// A validated stream resolved into the scheduler's working form, ready to
/// be re-scheduled many times. Building this once per kernel and replaying
/// it per sweep point amortizes all per-op resolution (uid checks, FU
/// lookup, group shaping, consumer adjacency) across the whole sweep.
pub struct Prepared {
    ops: Vec<ROp>,
    groups: Vec<Group>,
    /// Per-op producer count (the initial dependence counters).
    dep_count: Vec<u32>,
    /// Consumer adjacency in CSR form, indexed by producer uid:
    /// `cons_adj[cons_off[uid]..cons_off[uid + 1]]`.
    cons_off: Vec<u32>,
    cons_adj: Vec<u32>,
    /// Ops whose issue can unlock a block import (group terminators).
    fetches_a_group: Vec<bool>,
    /// uid → position in the stream's commit-ordered op list.
    stream_pos: Vec<usize>,
    /// Per-op FU index (`FuKind as u8`), 15 = no FU.
    fuidx: Vec<u8>,
}

impl Prepared {
    /// Validates and resolves `stream`.
    ///
    /// # Errors
    ///
    /// [`ReplayError::BadStream`] when the stream lacks replay metadata or
    /// is structurally inconsistent.
    pub fn new(stream: &DepStream) -> Result<Self, ReplayError> {
        let (ops, groups) = prepare(stream)?;
        let n = ops.len();
        let at = |uid: u64| -> usize { (uid - 1) as usize };

        let mut fetches_a_group = vec![false; n];
        for g in &groups {
            if g.ctrl != 0 {
                fetches_a_group[at(g.ctrl)] = true;
            }
        }
        let mut stream_pos = vec![0usize; n];
        let mut dep_count = vec![0u32; n];
        let mut cons_off: Vec<u32> = vec![0; n + 2];
        for (i, op) in stream.ops().iter().enumerate() {
            stream_pos[at(op.uid)] = i;
            dep_count[at(op.uid)] = op.deps.len() as u32;
            for &d in &op.deps {
                cons_off[d as usize + 1] += 1;
            }
        }
        for i in 1..cons_off.len() {
            cons_off[i] += cons_off[i - 1];
        }
        let mut cons_adj: Vec<u32> = vec![0; cons_off[n + 1] as usize];
        let mut fill: Vec<u32> = cons_off[..=n].to_vec();
        for op in stream.ops() {
            for &d in &op.deps {
                cons_adj[fill[d as usize] as usize] = op.uid as u32;
                fill[d as usize] += 1;
            }
        }

        let fuidx = ops.iter().map(|o| o.fu.map_or(15u8, |k| k as u8)).collect();
        Ok(Prepared {
            ops,
            groups,
            dep_count,
            cons_off,
            cons_adj,
            fetches_a_group,
            stream_pos,
            fuidx,
        })
    }
}

/// Re-schedules `stream` under `cfg`.
///
/// # Errors
///
/// [`ReplayError::BadStream`] when the stream lacks replay metadata or is
/// structurally inconsistent; [`ReplayError::Deadlock`] /
/// [`ReplayError::CycleLimit`] when the constraints wedge the schedule.
pub fn replay(stream: &DepStream, cfg: &ReplayConfig) -> Result<ReplayOutcome, ReplayError> {
    let prep = Prepared::new(stream)?;
    run(&prep, Some(stream), cfg)
}

/// Re-schedules an already-[`Prepared`] stream under `cfg`. This is the
/// sweep fast path: the per-op resolution work was paid once in
/// [`Prepared::new`]. [`ReplayOutcome::retimed`] is always `None` here —
/// the prepared form does not keep the metadata needed to rebuild a
/// stream; use [`replay`] when the retimed stream is wanted.
///
/// # Errors
///
/// Same as [`replay`], minus the stream-shape cases caught by
/// [`Prepared::new`].
pub fn replay_prepared(prep: &Prepared, cfg: &ReplayConfig) -> Result<ReplayOutcome, ReplayError> {
    run(prep, None, cfg)
}

fn run(
    prep: &Prepared,
    retime_src: Option<&DepStream>,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    if cfg.reservation_entries == 0
        || cfg.max_outstanding_reads == 0
        || cfg.max_outstanding_writes == 0
        || cfg.spm_read_ports == 0
        || cfg.spm_write_ports == 0
    {
        return Err(ReplayError::BadStream(
            "zero-sized resource in config".into(),
        ));
    }
    let ops = &prep.ops;
    let groups = &prep.groups;
    let (cons_off, cons_adj) = (&prep.cons_off, &prep.cons_adj);
    let fetches_a_group = &prep.fetches_a_group;
    let n = ops.len();

    // uid → op index (uids are dense from 1, so a vector suffices).
    let at = |uid: u64| -> usize { (uid - 1) as usize };

    let mut committed = vec![false; n];
    let mut issued = vec![false; n];
    // Reservation-window occupancy. Issue candidates live in `ready`
    // (imported, all deps committed, not yet issued), kept sorted by uid
    // so the pass visits them in the engine's in-order sequence without
    // touching dep-blocked entries at all.
    let mut resv_count = 0usize;
    let mut in_resv = vec![false; n];
    let mut ready: Vec<usize> = Vec::new();
    // Dependence bookkeeping in O(edges) total: each op counts its
    // uncommitted producers; a commit decrements every consumer's counter
    // through the prepared CSR adjacency (instead of re-scanning dep
    // lists every cycle).
    let mut remaining: Vec<u32> = prep.dep_count.clone();
    // (op index, commit cycle, fu release cycle, fu already released)
    let mut compute_q: Vec<(usize, u64, u64, bool)> = Vec::new();
    // (op index, commit cycle)
    let mut mem_inflight: Vec<(usize, u64)> = Vec::new();
    // Memory ordering window, decomposed for cheap scans: the uid list
    // stays sorted (groups import in uid order), spans/presence are
    // indexed by op, and each waiting mem op caches the uid that blocked
    // it last — re-checking one entry instead of re-scanning the window
    // while nothing relevant has changed.
    let mut win_uids: Vec<u64> = Vec::new();
    let mut in_win = vec![false; n];
    let mut win_span: Vec<Option<(u64, u32)>> = vec![None; n];
    // Ordering-check memo per mem op: 0 = unknown, `u64::MAX` = proven
    // ordered (monotonic — the scanned set only shrinks and spans are
    // write-once, so a pass can never regress), anything else = the uid
    // that blocked the last scan.
    const ORDER_OK: u64 = u64::MAX;
    let mut blocker = vec![0u64; n];
    // Mem ops in the reservation window whose span is not yet published.
    let mut unpublished: Vec<usize> = Vec::new();
    // FU bookkeeping on flat arrays (FuKind has 15 unit variants);
    // index 15 is the "no FU" sentinel.
    let fuidx = &prep.fuidx;
    let mut fu_pool = [0u32; 15];
    for (&k, &v) in &cfg.fu_pool {
        fu_pool[k as usize] = v;
    }
    // An FU-classed op with a zero pool could never issue; refuse up
    // front instead of deadlocking mid-replay.
    for (i, &f) in fuidx.iter().enumerate() {
        if f < 15 && fu_pool[f as usize] == 0 {
            return Err(ReplayError::BadStream(format!(
                "op uid {} needs FU kind {} but the config allocates none",
                ops[i].uid,
                FuKind::ALL[f as usize].name()
            )));
        }
    }
    let mut fu_busy = [0u32; 15];
    let mut busy_sum = [0u64; 15];
    // Ready ops whose FU is saturated are parked per kind instead of
    // being revisited every cycle: saturation can only end when a unit of
    // that kind releases, so the queue merges back into `ready` exactly
    // then. A nonzero parked count is by construction an FU-blocked
    // stall, so the per-cycle flags are unchanged.
    let mut fu_wait: [Vec<usize>; 15] = Default::default();
    let mut parked = 0usize;
    let mut outstanding_reads = 0usize;
    let mut outstanding_writes = 0usize;
    let mut next_group = 0usize;

    let mut cycle = 0u64;
    let mut attribution = Attribution::default();
    let mut stall_cycles = 0u64;
    let mut new_exec_cycles = 0u64;
    let mut port_reject_cycles = 0u64;
    let mut committed_count = 0usize;
    // (issue, commit) per op, for the retimed stream.
    let mut times: Vec<(u64, u64)> = vec![(0, 0); n];

    // Inserts an op into the ready list at its uid position. Newly ready
    // ops always carry a higher uid than the op whose commit or import
    // unblocked them, so mid-pass insertions land ahead of the cursor and
    // are visited in this same pass — exactly the old full-scan order.
    macro_rules! mark_ready {
        ($idx:expr) => {{
            let i_ = $idx;
            let pos = ready.partition_point(|&r| ops[r].uid < ops[i_].uid);
            ready.insert(pos, i_);
        }};
    }

    // Commits one op: marks it, retires its consumers' dependence
    // counters (promoting in-window consumers whose last producer this
    // was), and stamps the retimed commit cycle.
    macro_rules! commit_op {
        ($idx:expr) => {{
            let idx_ = $idx;
            committed[idx_] = true;
            committed_count += 1;
            times[idx_].1 = cycle;
            let u_ = ops[idx_].uid as usize;
            for &c in &cons_adj[cons_off[u_] as usize..cons_off[u_ + 1] as usize] {
                let r_ = (c - 1) as usize;
                remaining[r_] -= 1;
                if remaining[r_] == 0 && in_resv[r_] {
                    mark_ready!(r_);
                }
            }
        }};
    }

    // Import groups while the window has room (a group larger than the
    // whole window is admitted into an empty one), in group order, gated
    // on the fetching terminator having issued.
    macro_rules! import_ready {
        () => {{
            let mut any = false;
            while next_group < groups.len() {
                let g = &groups[next_group];
                if g.ctrl != 0 && !issued[at(g.ctrl)] {
                    break;
                }
                let used = resv_count.min(cfg.reservation_entries);
                let room = cfg.reservation_entries - used;
                if g.len > room && resv_count > 0 {
                    break;
                }
                for i in g.start..g.start + g.len {
                    if ops[i].kind != OpKind::Compute {
                        // Groups import in uid order, so the sorted uid
                        // list stays sorted by appending.
                        win_uids.push(ops[i].uid);
                        in_win[i] = true;
                        unpublished.push(i);
                    }
                    in_resv[i] = true;
                    if remaining[i] == 0 {
                        mark_ready!(i);
                    }
                }
                resv_count += g.len;
                next_group += 1;
                any = true;
            }
            any
        }};
    }

    let producer_ready = |uid: u64, committed: &[bool]| uid == 0 || committed[at(uid)];

    loop {
        if cycle > cfg.max_cycles {
            return Err(ReplayError::CycleLimit {
                limit: cfg.max_cycles,
            });
        }

        // 1. Memory completions commit first.
        let mut i = 0;
        while i < mem_inflight.len() {
            let (idx, commit_at) = mem_inflight[i];
            if commit_at <= cycle {
                mem_inflight.swap_remove(i);
                commit_op!(idx);
                if let Ok(p) = win_uids.binary_search(&ops[idx].uid) {
                    win_uids.remove(p);
                }
                in_win[idx] = false;
                if ops[idx].kind == OpKind::Store {
                    outstanding_writes -= 1;
                } else {
                    outstanding_reads -= 1;
                }
            } else {
                i += 1;
            }
        }

        // 2. Compute commits; FUs release at their release cycle (one
        //    cycle after issue when pipelined, at commit otherwise).
        let mut q = 0;
        let mut freed: u16 = 0;
        while q < compute_q.len() {
            let (idx, commit_at, fu_release_at, released) = compute_q[q];
            if fu_release_at <= cycle && !released {
                let f = fuidx[idx] as usize;
                if f < 15 {
                    fu_busy[f] -= 1;
                    freed |= 1 << f;
                }
                compute_q[q].3 = true;
            }
            if commit_at <= cycle {
                commit_op!(idx);
                compute_q.swap_remove(q);
            } else {
                q += 1;
            }
        }
        // Unpark every op whose FU kind released at least one unit.
        while freed != 0 {
            let f = freed.trailing_zeros() as usize;
            freed &= freed - 1;
            parked -= fu_wait[f].len();
            while let Some(i) = fu_wait[f].pop() {
                mark_ready!(i);
            }
        }

        // 3. Top-of-cycle block import.
        let mut imported = import_ready!();

        // 4a. Publish memory spans to the ordering window once the
        //     address producer has committed — only for ops still waiting
        //     in the reservation window, exactly like the engine. Issued
        //     ops leave the list without publishing (their window entry
        //     stays unresolved until the access commits).
        let mut u = 0;
        while u < unpublished.len() {
            let idx = unpublished[u];
            if issued[idx] {
                unpublished.swap_remove(u);
                continue;
            }
            if producer_ready(ops[idx].addr_dep, &committed) {
                win_span[idx] = Some((ops[idx].addr, ops[idx].size));
                unpublished.swap_remove(u);
                continue;
            }
            u += 1;
        }

        // 4b. In-order issue pass with the engine's resource checks.
        let mut issued_this_cycle = 0u64;
        let mut blocked_any = false;
        let mut fu_blocked = false;
        let mut mem_limit_blocked = false;
        let mut port_rejected = false;
        let mut read_budget = cfg.spm_read_ports;
        let mut write_budget = cfg.spm_write_ports;
        let mut idx_pos = 0usize;
        while idx_pos < ready.len() {
            let idx = ready[idx_pos];
            debug_assert_eq!(remaining[idx], 0);
            // FU pool availability. A saturated kind parks the op until
            // one of its units releases — nothing else can unblock it.
            let f = fuidx[idx] as usize;
            if f < 15 && fu_busy[f] >= fu_pool[f] {
                ready.remove(idx_pos);
                fu_wait[f].push(idx);
                parked += 1;
                blocked_any = true;
                fu_blocked = true;
                continue;
            }
            if ops[idx].kind != OpKind::Compute {
                let o = &ops[idx];
                let is_store = o.kind == OpKind::Store;
                // Address resolvable + memory ordering against every older
                // conflicting (or unresolved) access in the window. The
                // cached blocker is re-checked first: while it is still in
                // the window and still conflicts, the full scan would fail
                // at or before it, so the op stays blocked in O(1).
                let conflicts = |r: usize| -> bool {
                    if !(ops[r].kind == OpKind::Store || is_store) {
                        return false;
                    }
                    match win_span[r] {
                        None => true,
                        Some((a, s)) => o.addr < a + s as u64 && a < o.addr + o.size as u64,
                    }
                };
                let order_ok = producer_ready(o.addr_dep, &committed)
                    && (blocker[idx] == ORDER_OK || {
                        let b = blocker[idx];
                        if b != 0 && in_win[at(b)] && conflicts(at(b)) {
                            false
                        } else {
                            let mut hit = 0u64;
                            for &uid in &win_uids {
                                if uid >= o.uid {
                                    break;
                                }
                                if conflicts(at(uid)) {
                                    hit = uid;
                                    break;
                                }
                            }
                            blocker[idx] = if hit == 0 { ORDER_OK } else { hit };
                            hit == 0
                        }
                    });
                if !order_ok {
                    blocked_any = true;
                    idx_pos += 1;
                    continue;
                }
                let limit_ok = if is_store {
                    outstanding_writes < cfg.max_outstanding_writes
                } else {
                    outstanding_reads < cfg.max_outstanding_reads
                };
                if !limit_ok {
                    blocked_any = true;
                    mem_limit_blocked = true;
                    idx_pos += 1;
                    continue;
                }
                let budget = if is_store {
                    &mut write_budget
                } else {
                    &mut read_budget
                };
                if *budget == 0 {
                    // SPM port reject.
                    blocked_any = true;
                    mem_limit_blocked = true;
                    port_rejected = true;
                    idx_pos += 1;
                    continue;
                }
                *budget -= 1;
                ready.remove(idx_pos);
                in_resv[idx] = false;
                resv_count -= 1;
                issued[idx] = true;
                times[idx].0 = cycle;
                if is_store {
                    outstanding_writes += 1;
                } else {
                    outstanding_reads += 1;
                }
                mem_inflight.push((idx, cycle + cfg.mem_latency.max(1)));
                issued_this_cycle += 1;
                continue;
            }

            // Compute / control issue.
            ready.remove(idx_pos);
            in_resv[idx] = false;
            resv_count -= 1;
            issued[idx] = true;
            times[idx].0 = cycle;
            issued_this_cycle += 1;
            // A terminator's issue unlocks the next group's import, inline,
            // so the new block can begin issuing this same cycle. Only
            // terminators re-check the fetch gate — room freed by ordinary
            // issues is picked up at the next top-of-cycle import, exactly
            // like the engine.
            if fetches_a_group[idx] && import_ready!() {
                imported = true;
            }
            if ops[idx].latency == 0 {
                // Chained op: commits within the issue cycle; a chained FU
                // op holds its unit for this one cycle.
                if fuidx[idx] < 15 {
                    busy_sum[fuidx[idx] as usize] += 1;
                }
                commit_op!(idx);
            } else {
                if fuidx[idx] < 15 {
                    fu_busy[fuidx[idx] as usize] += 1;
                }
                let commit_at = cycle + ops[idx].latency;
                let fu_release_at = if cfg.pipelined_fus {
                    cycle + 1
                } else {
                    commit_at
                };
                compute_q.push((idx, commit_at, fu_release_at, false));
            }
        }

        // Parked ops are ready ops blocked on a saturated FU — exactly
        // what the per-visit flags used to record.
        if parked > 0 {
            blocked_any = true;
            fu_blocked = true;
        }

        // 5. Cycle bookkeeping: attribution by the engine's exact priority.
        let cycle_class = if issued_this_cycle > 0 {
            CycleClass::Compute
        } else if fu_blocked {
            CycleClass::FuLimit
        } else if port_rejected || mem_limit_blocked {
            CycleClass::MemPort
        } else if !mem_inflight.is_empty() {
            CycleClass::DmaWait
        } else if resv_count > 0 || !compute_q.is_empty() {
            CycleClass::DepStall
        } else {
            CycleClass::Control
        };
        attribution.charge(cycle_class);
        for (sum, &busy) in busy_sum.iter_mut().zip(&fu_busy) {
            *sum += busy as u64;
        }
        if blocked_any {
            stall_cycles += 1;
        } else if issued_this_cycle > 0 {
            new_exec_cycles += 1;
        }
        if port_rejected {
            port_reject_cycles += 1;
        }

        cycle += 1;
        let drained = next_group == groups.len()
            && resv_count == 0
            && compute_q.is_empty()
            && mem_inflight.is_empty();
        if drained {
            break;
        }

        // Fast-forward: with nothing issued and nothing imported this
        // cycle, the whole scheduler state is frozen until the next commit
        // or FU-release event — every intervening cycle charges the same
        // class and the same busy integral, so jump there in one step.
        if issued_this_cycle == 0 && !imported {
            let next_event = compute_q
                .iter()
                .flat_map(|&(_, c, r, released)| {
                    [Some(c), (!released).then_some(r)].into_iter().flatten()
                })
                .chain(mem_inflight.iter().map(|&(_, c)| c))
                .min();
            match next_event {
                Some(e) if e > cycle => {
                    let gap = e - cycle;
                    attribution.add(cycle_class, gap);
                    for (sum, &busy) in busy_sum.iter_mut().zip(&fu_busy) {
                        *sum += busy as u64 * gap;
                    }
                    if blocked_any {
                        stall_cycles += gap;
                    }
                    cycle = e;
                }
                Some(_) => {}
                None => {
                    return Err(ReplayError::Deadlock {
                        cycle,
                        committed: committed_count,
                        total: n,
                    })
                }
            }
        }
    }

    // Retimed stream: identical ops/deps/metadata, replayed issue/commit,
    // appended in commit order (uid-stable within a cycle) so critical-path
    // analysis works on replayed points just like on simulated ones.
    let retimed = retime_src.filter(|_| cfg.want_retimed).map(|stream| {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (times[i].1, ops[i].uid));
        let mut retimed = DepStream::new();
        for i in order {
            let src = &stream.ops()[prep.stream_pos[i]];
            retimed
                .record(
                    src.uid,
                    stream.name(src.name),
                    stream.class(src.class),
                    times[i].0,
                    times[i].1,
                    src.deps.clone(),
                )
                .meta = src.meta;
        }
        retimed
    });

    let mut fu_busy_cycle_sum: HashMap<FuKind, u64> = HashMap::new();
    for k in FuKind::ALL {
        if busy_sum[k as usize] > 0 {
            fu_busy_cycle_sum.insert(k, busy_sum[k as usize]);
        }
    }

    Ok(ReplayOutcome {
        cycles: cycle,
        attribution,
        fu_busy_cycle_sum,
        stall_cycles,
        new_exec_cycles,
        port_reject_cycles,
        retimed,
    })
}

/// Validates the stream and resolves it into uid-ordered ops + groups.
fn prepare(stream: &DepStream) -> Result<(Vec<ROp>, Vec<Group>), ReplayError> {
    let bad = |m: String| Err(ReplayError::BadStream(m));
    if stream.is_empty() {
        return bad("empty stream".into());
    }
    let n = stream.len();
    let mut ops: Vec<Option<ROp>> = Vec::new();
    ops.resize_with(n, || None);
    for op in stream.ops() {
        if op.uid == 0 || op.uid > n as u64 {
            return bad(format!("uid {} outside dense range 1..={n}", op.uid));
        }
        let slot = (op.uid - 1) as usize;
        if ops[slot].is_some() {
            return bad(format!("duplicate uid {}", op.uid));
        }
        let class = stream.class(op.class);
        let fu = FuKind::from_name(class);
        // Memory ops carry their kind in the metadata; a stream recorded
        // without metadata (legacy `record`) would classify them as
        // Compute — catch that here instead of mis-replaying.
        if (class == "load" || class == "store") && op.meta.kind == OpKind::Compute {
            return bad(
                "stream lacks replay metadata (recorded without setting DepOp::meta?)".into(),
            );
        }
        for &d in &op.deps {
            if d == 0 || d > n as u64 {
                return bad(format!("dep {d} of uid {} outside dense range", op.uid));
            }
        }
        ops[slot] = Some(ROp {
            uid: op.uid,
            kind: op.meta.kind,
            fu,
            latency: op.meta.latency as u64,
            group: op.meta.group,
            ctrl: op.meta.ctrl,
            addr_dep: op.meta.addr_dep,
            addr: op.meta.addr,
            size: op.meta.size,
        });
    }
    let ops: Vec<ROp> = ops
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.ok_or_else(|| ReplayError::BadStream(format!("missing uid {}", i + 1))))
        .collect::<Result<_, _>>()?;

    // Groups: contiguous, nondecreasing runs in uid order.
    let mut groups: Vec<Group> = Vec::new();
    for (i, o) in ops.iter().enumerate() {
        let count = groups.len();
        if !groups.is_empty() && o.group as usize == count - 1 {
            groups.last_mut().expect("nonempty").len += 1;
        } else if o.group as usize == count {
            groups.push(Group {
                start: i,
                len: 1,
                ctrl: 0,
            });
        } else {
            return bad(format!(
                "group {} out of order at uid {} (expected {} or {})",
                o.group,
                o.uid,
                count.saturating_sub(1),
                count
            ));
        }
    }
    for (gi, g) in groups.iter_mut().enumerate() {
        let ctrl = ops[g.start].ctrl;
        if ops[g.start..g.start + g.len].iter().any(|o| o.ctrl != ctrl) {
            return bad(format!("group {gi} has mixed ctrl uids"));
        }
        if gi == 0 && ctrl != 0 {
            return bad("entry group has a nonzero ctrl uid".into());
        }
        if ctrl as usize > g.start {
            return bad(format!("group {gi} fetched by a later/own uid {ctrl}"));
        }
        g.ctrl = ctrl;
    }
    Ok((ops, groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use salam_obs::DepMeta;

    fn meta(kind: OpKind, latency: u32, group: u32, ctrl: u64) -> DepMeta {
        DepMeta {
            kind,
            latency,
            group,
            ctrl,
            ..DepMeta::default()
        }
    }

    fn pool(entries: &[(FuKind, u32)]) -> HashMap<FuKind, u32> {
        entries.iter().copied().collect()
    }

    /// add(1) → add(2) → add(3), one-cycle adder each, unlimited pool.
    #[test]
    fn serial_chain_takes_latency_sum_plus_drain() {
        let mut s = DepStream::new();
        s.record(1, "add", "int_adder", 0, 0, vec![]).meta = meta(OpKind::Compute, 1, 0, 0);
        s.record(2, "add", "int_adder", 0, 0, vec![1]).meta = meta(OpKind::Compute, 1, 0, 0);
        s.record(3, "ret", "other", 0, 0, vec![2]).meta = meta(OpKind::Compute, 0, 0, 0);
        let cfg = ReplayConfig {
            fu_pool: pool(&[(FuKind::IntAdder, 4)]),
            ..ReplayConfig::default()
        };
        let out = replay(&s, &cfg).unwrap();
        // c0: issue add1; c1: add1 commits, issue add2; c2: add2 commits,
        // ret issues+chains. Total = 3 cycles.
        assert_eq!(out.cycles, 3);
        assert_eq!(out.attribution.total(), out.cycles);
        assert_eq!(out.attribution.get(CycleClass::Compute), 3);
    }

    /// Two independent adds on a single adder serialize; two adders don't.
    #[test]
    fn fu_pool_limit_serializes_and_charges_fu_limit() {
        let build = || {
            let mut s = DepStream::new();
            s.record(1, "add", "int_adder", 0, 0, vec![]).meta = meta(OpKind::Compute, 3, 0, 0);
            s.record(2, "add", "int_adder", 0, 0, vec![]).meta = meta(OpKind::Compute, 3, 0, 0);
            s.record(3, "ret", "other", 0, 0, vec![1, 2]).meta = meta(OpKind::Compute, 0, 0, 0);
            s
        };
        let wide = replay(
            &build(),
            &ReplayConfig {
                fu_pool: pool(&[(FuKind::IntAdder, 2)]),
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        let narrow = replay(
            &build(),
            &ReplayConfig {
                fu_pool: pool(&[(FuKind::IntAdder, 1)]),
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        assert!(narrow.cycles > wide.cycles);
        assert!(narrow.attribution.get(CycleClass::FuLimit) > 0);
        assert_eq!(wide.attribution.get(CycleClass::FuLimit), 0);
        assert_eq!(narrow.attribution.total(), narrow.cycles);
    }

    /// Four independent loads: 2 read ports take 2 issue cycles, 1 port 4.
    #[test]
    fn read_port_width_gates_parallel_loads() {
        let build = || {
            let mut s = DepStream::new();
            for uid in 1..=4u64 {
                s.record(uid, "load", "load", 0, 0, vec![]).meta = DepMeta {
                    kind: OpKind::Load,
                    latency: 1,
                    addr: uid * 8,
                    size: 8,
                    ..DepMeta::default()
                };
            }
            s.record(5, "ret", "other", 0, 0, vec![1, 2, 3, 4]).meta =
                meta(OpKind::Compute, 0, 0, 0);
            s
        };
        let two = replay(
            &build(),
            &ReplayConfig {
                spm_read_ports: 2,
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        let one = replay(
            &build(),
            &ReplayConfig {
                spm_read_ports: 1,
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        assert!(one.cycles > two.cycles);
        assert!(one.port_reject_cycles > 0);
    }

    /// One outstanding read at a time: the second load waits a full memory
    /// round-trip charged to MemPort.
    #[test]
    fn outstanding_cap_charges_mem_port() {
        let mut s = DepStream::new();
        for uid in 1..=2u64 {
            s.record(uid, "load", "load", 0, 0, vec![]).meta = DepMeta {
                kind: OpKind::Load,
                latency: 1,
                addr: uid * 8,
                size: 8,
                ..DepMeta::default()
            };
        }
        s.record(3, "ret", "other", 0, 0, vec![1, 2]).meta = meta(OpKind::Compute, 0, 0, 0);
        let out = replay(
            &s,
            &ReplayConfig {
                max_outstanding_reads: 1,
                mem_latency: 3,
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        assert!(out.attribution.get(CycleClass::MemPort) > 0);
        assert_eq!(out.attribution.total(), out.cycles);
    }

    /// Store→load to the same address must respect memory ordering.
    #[test]
    fn store_load_conflict_orders_and_mem_latency_retimes() {
        let build = || {
            let mut s = DepStream::new();
            s.record(1, "store", "store", 0, 0, vec![]).meta = DepMeta {
                kind: OpKind::Store,
                latency: 1,
                addr: 64,
                size: 8,
                ..DepMeta::default()
            };
            s.record(2, "load", "load", 0, 0, vec![]).meta = DepMeta {
                kind: OpKind::Load,
                latency: 1,
                addr: 64,
                size: 8,
                ..DepMeta::default()
            };
            s.record(3, "ret", "other", 0, 0, vec![2]).meta = meta(OpKind::Compute, 0, 0, 0);
            s
        };
        let lat1 = replay(&build(), &ReplayConfig::default()).unwrap();
        let lat4 = replay(
            &build(),
            &ReplayConfig {
                mem_latency: 4,
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        // Load cannot issue until the store commits: latency on the
        // serialized pair is paid twice.
        assert_eq!(lat4.cycles - lat1.cycles, 2 * 3);
        assert!(lat4.attribution.get(CycleClass::DmaWait) > 0);
    }

    /// Block-import gating: group 1 cannot start before its terminator.
    #[test]
    fn group_import_waits_for_its_terminator() {
        let mut s = DepStream::new();
        s.record(1, "add", "int_adder", 0, 0, vec![]).meta = meta(OpKind::Compute, 5, 0, 0);
        s.record(2, "br", "other", 0, 0, vec![1]).meta = meta(OpKind::Compute, 0, 0, 0);
        s.record(3, "add", "int_adder", 0, 0, vec![]).meta = meta(OpKind::Compute, 1, 1, 2);
        s.record(4, "ret", "other", 0, 0, vec![3]).meta = meta(OpKind::Compute, 0, 1, 2);
        let out = replay(
            &s,
            &ReplayConfig {
                fu_pool: pool(&[(FuKind::IntAdder, 4)]),
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        // c0: add1 issues (5 cycles); c1–c4 frozen (fast-forwarded);
        // c5: add1 commits, br issues+chains, group 1 imports inline,
        // add3 issues; c6: add3 commits, ret chains. Total 7.
        assert_eq!(out.cycles, 7);
        let retimed: Vec<(u64, u64)> = out
            .retimed
            .expect("retimed is on by default")
            .ops()
            .iter()
            .map(|o| (o.uid, o.issue))
            .collect();
        assert!(retimed.contains(&(3, 5)), "{retimed:?}");
    }

    #[test]
    fn missing_metadata_is_rejected_loudly() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, vec![]); // legacy record(): no meta
        let err = replay(&s, &ReplayConfig::default()).unwrap_err();
        assert!(matches!(err, ReplayError::BadStream(_)), "{err}");
        assert!(err.to_string().contains("metadata"), "{err}");
    }

    #[test]
    fn impossible_constraints_are_rejected_up_front() {
        let mut s = DepStream::new();
        // An FU class with no pool entry could never issue; replay refuses
        // before scheduling instead of deadlocking mid-run.
        s.record(1, "fmul", "fp_mul_dp", 0, 0, vec![]).meta = meta(OpKind::Compute, 4, 0, 0);
        let err = replay(&s, &ReplayConfig::default()).unwrap_err();
        assert!(matches!(err, ReplayError::BadStream(_)), "{err}");
        assert!(err.to_string().contains("fp_mul_dp"), "{err}");
    }

    #[test]
    fn retimed_stream_keeps_ops_and_attribution_totals_match() {
        let mut s = DepStream::new();
        s.record(1, "add", "int_adder", 0, 0, vec![]).meta = meta(OpKind::Compute, 1, 0, 0);
        s.record(2, "ret", "other", 0, 0, vec![1]).meta = meta(OpKind::Compute, 0, 0, 0);
        let out = replay(
            &s,
            &ReplayConfig {
                fu_pool: pool(&[(FuKind::IntAdder, 1)]),
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.retimed.as_ref().expect("on by default").len(), s.len());
        assert_eq!(out.attribution.total(), out.cycles);

        // Sweeps that only need cycles can skip building the stream.
        let mut s2 = DepStream::new();
        s2.record(1, "add", "int_adder", 0, 0, vec![]).meta = meta(OpKind::Compute, 1, 0, 0);
        s2.record(2, "ret", "other", 0, 0, vec![1]).meta = meta(OpKind::Compute, 0, 0, 0);
        let lean = replay(
            &s2,
            &ReplayConfig {
                fu_pool: pool(&[(FuKind::IntAdder, 1)]),
                want_retimed: false,
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        assert_eq!(lean.cycles, out.cycles);
        assert!(lean.retimed.is_none());
    }
}
