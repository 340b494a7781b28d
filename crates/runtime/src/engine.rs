//! The runtime scheduler: reservation, compute and memory queues.

use std::collections::{HashMap, VecDeque};

use hw_profile::{FuKind, HardwareProfile};
use salam_cdfg::StaticCdfg;
use salam_fault::{FaultPlan, SimError, SiteRng, WatchdogSnapshot};
use salam_ir::interp::{eval_pure, InterpError, RtVal};
use salam_ir::{BlockId, Function, InstId, Opcode, Type, ValueKind};
use salam_obs::{SharedTrace, SpanId, TrackId};
use salam_resilience::CancelToken;
use salam_telemetry::FlightRecorder;

use crate::port::{MemAccess, MemPort};
use crate::stats::{EngineStats, IssueClass, StallMix};

/// Cycles between cooperative-cancellation polls (power of two; the poll
/// also fires at cycle 0). A cancel or expired deadline therefore stops a
/// run within one cycle batch of being requested.
pub const CANCEL_BATCH: u64 = 1024;

/// Tunables of the runtime engine (the paper's "device config" scheduler
/// options).
///
/// Memory note: the engine's value tables grow with the number of dynamic
/// instructions executed (~26 bytes each). The *scheduling* state is bounded
/// by `reservation_entries`, but a single invocation running billions of
/// dynamic instructions will accumulate gigabytes of value history; split
/// such workloads into multiple invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Accelerator clock period in picoseconds (energy accounting).
    pub clock_period_ps: u64,
    /// Reservation-queue capacity in dynamic instructions.
    pub reservation_entries: usize,
    /// Maximum outstanding reads in the read queue.
    pub max_outstanding_reads: usize,
    /// Maximum outstanding writes in the write queue.
    pub max_outstanding_writes: usize,
    /// Cycles without progress before the engine declares a deadlock.
    pub deadlock_cycles: u64,
    /// Model functional units as fully pipelined (initiation interval 1):
    /// a unit accepts a new operation the cycle after issue instead of
    /// staying busy until commit. gem5-SALAM's default (and ours) is
    /// unpipelined occupancy; this knob exists for ablation studies.
    pub pipelined_fus: bool,
    /// Record a per-cycle activity log in [`EngineStats::timeline`] — the
    /// paper's cycle-granularity scheduling log. Off by default (it grows
    /// with runtime).
    pub record_timeline: bool,
    /// Record the producer→consumer dependency stream in
    /// [`EngineStats::depstream`] for critical-path analysis. Off by
    /// default (one record per dynamic op); observability-only, never
    /// changes the schedule.
    pub record_depstream: bool,
    /// Enforce strict WAR/WAW register hazards between dynamic instances of
    /// the same instruction. The paper's reservation queue only requires
    /// previous instances and readers to be "in-flight or completed", and
    /// each dynamic instance carries its own operand context (implicit
    /// renaming), so the default is off; enabling this models a datapath
    /// without pipeline registers (ablation knob).
    pub strict_register_hazards: bool,
}

impl Default for EngineConfig {
    /// 1 GHz clock, 128-entry reservation window (the paper's runtime keeps
    /// small queues), 64 outstanding reads and writes.
    fn default() -> Self {
        EngineConfig {
            clock_period_ps: 1000,
            reservation_entries: 128,
            max_outstanding_reads: 64,
            max_outstanding_writes: 64,
            deadlock_cycles: 1_000_000,
            pipelined_fus: false,
            record_timeline: false,
            record_depstream: false,
            strict_register_hazards: false,
        }
    }
}

impl EngineConfig {
    /// A canonical `key=value` line covering every knob that can change
    /// simulated behaviour. Equal configs always produce equal strings —
    /// the design-space-exploration cache keys on this. `record_timeline`
    /// and `record_depstream` are deliberately excluded: they only add
    /// logging, never change the schedule.
    pub fn canonical_repr(&self) -> String {
        format!(
            "clock_period_ps={};reservation_entries={};max_outstanding_reads={};\
             max_outstanding_writes={};deadlock_cycles={};pipelined_fus={};\
             strict_register_hazards={}",
            self.clock_period_ps,
            self.reservation_entries,
            self.max_outstanding_reads,
            self.max_outstanding_writes,
            self.deadlock_cycles,
            self.pipelined_fus,
            self.strict_register_hazards,
        )
    }

    /// Rejects nonsense knob settings before they turn into deep-in-the-run
    /// panics or silent infinite loops: a zero-entry reservation window can
    /// never import a block, zero outstanding-op limits wedge every memory
    /// op, a zero deadlock threshold cannot distinguish a stall from a
    /// hang, and a zero clock period breaks energy accounting.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |field: &str, detail: &str| Err(SimError::config("engine", field, detail));
        if self.clock_period_ps == 0 {
            return bad("clock_period_ps", "must be nonzero");
        }
        if self.reservation_entries == 0 {
            return bad("reservation_entries", "must be nonzero");
        }
        if self.max_outstanding_reads == 0 {
            return bad("max_outstanding_reads", "must be nonzero");
        }
        if self.max_outstanding_writes == 0 {
            return bad("max_outstanding_writes", "must be nonzero");
        }
        if self.deadlock_cycles == 0 {
            return bad("deadlock_cycles", "must be nonzero");
        }
        Ok(())
    }
}

/// The engine's own injection state: per-site decision streams for FU
/// result flips and latency jitter.
#[derive(Debug)]
struct EngineFault {
    plan: FaultPlan,
    flip: SiteRng,
    jitter: SiteRng,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepKind {
    /// Producer must have committed (RAW, WAW).
    Commit,
    /// Reader must have issued (WAR on register overwrite).
    Issue,
}

#[derive(Debug, Clone, Copy)]
struct Dep {
    uid: u64,
    kind: DepKind,
}

#[derive(Debug, Clone)]
enum Operand {
    Imm(RtVal),
    Inst(u64),
}

#[derive(Debug, Clone)]
struct DynInst {
    uid: u64,
    inst: InstId,
    class: IssueClass,
    fu: Option<FuKind>,
    latency: u32,
    bits: u32,
    operands: Vec<Operand>,
    deps: Vec<Dep>,
    /// For phis: index of the chosen incoming edge (operands reduced to one).
    is_store: bool,
    is_load: bool,
    is_term: bool,
    /// Memory ops: whether this op's address was published to the window.
    span_resolved: bool,
    /// Cached `(addr, size)` once resolved.
    span: Option<(u64, u32)>,
    /// Open trace span (issue → retire), invalid when tracing is off.
    tspan: SpanId,
    /// Cycle this op issued (depstream timestamp; 0 until issue).
    issue_cycle: u64,
    /// Resource class for attribution: the FU name for compute ops, the
    /// issue-class label for everything else.
    res_class: &'static str,
    /// Producer uids captured at import, *before* dependency pruning
    /// (only filled when `record_depstream` is on).
    all_deps: Vec<u64>,
    /// Block-import sequence number this op arrived with (depstream
    /// metadata: ops of one `import_block` call share a group).
    group: u32,
    /// Uid of the terminator whose issue imported this op's block (0 for
    /// the entry block) — the control dependence the replay layer needs.
    ctrl: u64,
    /// Memory ops: uid of the pointer-operand producer (0 when the
    /// address comes from an immediate or argument).
    addr_dep: u64,
}

/// Trace tracks the engine emits onto, registered once at `set_trace`.
#[derive(Debug, Clone, Copy)]
struct TraceTracks {
    /// One span per dynamic op, issue → retire.
    ops: TrackId,
    /// Scheduler events: stall/port-reject instants, queue-depth counters.
    sched: TrackId,
}

#[derive(Debug)]
struct MemRec {
    uid: u64,
    is_store: bool,
    /// `(addr, size)` once the address operand is resolvable.
    span: Option<(u64, u32)>,
}

/// The dynamic LLVM runtime engine. See the [crate docs](crate) for an
/// end-to-end example.
#[derive(Debug)]
pub struct Engine {
    func: Function,
    cdfg: StaticCdfg,
    profile: HardwareProfile,
    cfg: EngineConfig,
    args: Vec<RtVal>,

    reservation: VecDeque<DynInst>,
    compute_q: Vec<(DynInst, u64, u64)>, // (op, commit cycle, fu release cycle)
    mem_wait: HashMap<u64, DynInst>,     // token -> op
    mem_window: Vec<MemRec>,

    // Value/state tables indexed by uid (uids are dense and monotonic).
    values: Vec<Option<RtVal>>,
    committed: Vec<bool>,
    issued: Vec<bool>,
    last_instance: Vec<Option<u64>>, // indexed by InstId
    readers_of: HashMap<u64, Vec<u64>>,

    /// Blocks awaiting import: `(block, taken predecessor, uid of the
    /// terminator that scheduled the fetch — 0 for the entry block)`.
    pending_fetch: VecDeque<(BlockId, Option<BlockId>, u64)>,
    fetch_stopped: bool,
    ret_value: Option<RtVal>,

    fu_busy: HashMap<FuKind, u32>,
    uid_next: u64,
    import_seq: u32,
    token_next: u64,
    outstanding_reads: usize,
    outstanding_writes: usize,

    cycle: u64,
    last_progress: u64,
    stats: EngineStats,
    done: bool,

    trace: SharedTrace,
    trace_tracks: Option<TraceTracks>,
    trace_offset_ps: u64,

    flight: FlightRecorder,
    flight_trace_id: u64,

    fault: Option<EngineFault>,

    cancel: CancelToken,
}

impl Engine {
    /// Creates an engine for one invocation of `func` with the given MMR-
    /// programmed arguments.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the function signature.
    pub fn new(
        func: Function,
        cdfg: StaticCdfg,
        profile: HardwareProfile,
        cfg: EngineConfig,
        args: Vec<RtVal>,
    ) -> Self {
        assert_eq!(args.len(), func.params.len(), "argument count mismatch");
        let mut stats = EngineStats::default();
        for (k, n) in cdfg.fu_counts() {
            stats.fu_pool.insert(k, n);
        }
        stats.depstream = cfg.record_depstream.then(salam_obs::DepStream::new);
        let entry = func.entry();
        let mut e = Engine {
            func,
            cdfg,
            profile,
            cfg,
            args,
            reservation: VecDeque::new(),
            compute_q: Vec::new(),
            mem_wait: HashMap::new(),
            mem_window: Vec::new(),
            values: vec![None],
            committed: vec![false],
            issued: vec![false],
            last_instance: Vec::new(),
            readers_of: HashMap::new(),
            pending_fetch: VecDeque::new(),
            fetch_stopped: false,
            ret_value: None,
            fu_busy: HashMap::new(),
            uid_next: 1,
            import_seq: 0,
            token_next: 1,
            outstanding_reads: 0,
            outstanding_writes: 0,
            cycle: 0,
            last_progress: 0,
            stats,
            done: false,
            trace: SharedTrace::disabled(),
            trace_tracks: None,
            trace_offset_ps: 0,
            flight: FlightRecorder::disabled(),
            flight_trace_id: 0,
            fault: None,
            cancel: CancelToken::none(),
        };
        e.last_instance = vec![None; e.func.num_insts()];
        e.pending_fetch.push_back((entry, None, 0));
        e
    }

    /// Attaches a trace sink. Each dynamic op becomes a span (issue →
    /// retire) on the `engine.<func>.ops` track; stalls, port rejects and
    /// queue-depth samples go to `engine.<func>.sched`. A disabled handle
    /// (the default) keeps every hook down to a single branch.
    pub fn set_trace(&mut self, trace: SharedTrace) {
        self.trace_tracks = trace.is_enabled().then(|| TraceTracks {
            ops: trace.track(&format!("engine.{}.ops", self.func.name)),
            sched: trace.track(&format!("engine.{}.sched", self.func.name)),
        });
        self.trace = trace;
    }

    /// Offsets trace timestamps by `offset` picoseconds, so an engine
    /// embedded in a full-system simulation stamps absolute sim time.
    pub fn set_trace_offset_ps(&mut self, offset: u64) {
        self.trace_offset_ps = offset;
    }

    /// Attaches the serving layer's flight recorder; run starts/ends,
    /// errors and a coarse heartbeat land in the shared ring tagged with
    /// `trace_id`. A disabled recorder (the default) keeps every hook down
    /// to a single branch — the recorder never observes or perturbs
    /// simulation state.
    pub fn set_flight(&mut self, flight: FlightRecorder, trace_id: u64) {
        self.flight = flight;
        self.flight_trace_id = trace_id;
    }

    /// Attaches a cooperative cancel/deadline token. The engine polls it
    /// every [`CANCEL_BATCH`] cycles (and at cycle 0) and stops with
    /// [`SimError::Cancelled`] when it fires, so a wedged or over-deadline
    /// run releases its worker within one cycle batch. The disabled token
    /// (the default) keeps the poll down to a single branch.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Attaches a fault-injection plan. The engine draws from per-site
    /// streams derived from the plan seed (`engine.fu_bitflip`,
    /// `engine.fu_jitter`), so the injection schedule is a pure function
    /// of the plan and the executed instruction stream. A zero-rate plan
    /// installs the hooks but never fires and never consumes stream state.
    pub fn set_fault(&mut self, plan: &FaultPlan) {
        self.fault = Some(EngineFault {
            plan: *plan,
            flip: plan.site_rng("engine.fu_bitflip"),
            jitter: plan.site_rng("engine.fu_jitter"),
        });
    }

    /// Merges fault counters from an external component (e.g. a
    /// [`crate::FaultyPort`] wrapped around this engine's memory port) into
    /// the engine's stats, so one report carries the whole campaign.
    pub fn merge_fault_counts(&mut self, counts: &salam_fault::FaultCounts) {
        for (kind, n) in counts {
            *self.stats.fault_counts.entry(kind.clone()).or_insert(0) += n;
        }
    }

    /// Counts one injected fault and emits a `fault:<kind>` trace instant.
    fn note_fault(&mut self, kind: &str, cycle: u64) {
        *self.stats.fault_counts.entry(kind.to_string()).or_insert(0) += 1;
        if let Some(t) = &self.trace_tracks {
            self.trace
                .instant(t.sched, &format!("fault:{kind}"), self.trace_ts(cycle));
        }
    }

    /// The watchdog's view of the engine at deadlock-detection time.
    fn watchdog_snapshot(&self) -> WatchdogSnapshot {
        WatchdogSnapshot {
            kernel: self.func.name.clone(),
            cycle: self.cycle,
            last_progress_cycle: self.last_progress,
            reservation_occupancy: self.reservation.len(),
            compute_occupancy: self.compute_q.len(),
            mem_outstanding: self.mem_wait.len(),
            pending_blocks: self.pending_fetch.len(),
            dominant_reject_cause: self
                .stats
                .reject_causes
                .iter()
                .max_by(|(ka, va), (kb, vb)| va.cmp(vb).then_with(|| kb.cmp(ka)))
                .map(|(k, _)| k.clone()),
        }
    }

    #[inline]
    fn trace_ts(&self, cycle: u64) -> u64 {
        self.trace_offset_ps + cycle * self.cfg.clock_period_ps
    }

    /// The engine's statistics so far (or final, once done).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Cycles elapsed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the invocation has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The value returned by `ret`, if the function returned one.
    pub fn result(&self) -> Option<RtVal> {
        self.ret_value
    }

    /// Runs the engine to completion against `port`; returns final cycles.
    ///
    /// Thin panicking wrapper over [`Engine::try_run_to_completion`] for
    /// callers that treat a hung or faulting design as a test failure.
    ///
    /// # Panics
    ///
    /// Panics if the engine deadlocks (no progress for the configured
    /// threshold), on a runtime fault in the modeled kernel, or on an
    /// invalid [`EngineConfig`].
    pub fn run_to_completion(&mut self, port: &mut dyn MemPort) -> u64 {
        match self.try_run_to_completion(port) {
            Ok(cycles) => cycles,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the engine to completion against `port`; returns final cycles.
    ///
    /// # Errors
    ///
    /// * [`SimError::Config`] if the [`EngineConfig`] fails validation.
    /// * [`SimError::Deadlock`] with a [`WatchdogSnapshot`] if no queue
    ///   makes progress for `deadlock_cycles`.
    /// * [`SimError::KernelFault`] if the modeled kernel faults (division
    ///   by zero, undef use, …).
    pub fn try_run_to_completion(&mut self, port: &mut dyn MemPort) -> Result<u64, SimError> {
        self.cfg.validate()?;
        if self.flight.is_enabled() {
            self.flight.record(
                self.flight_trace_id,
                "engine",
                format!("run-start kernel={}", self.func.name),
            );
        }
        loop {
            match self.try_step(port) {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    if self.flight.is_enabled() {
                        self.flight.record(
                            self.flight_trace_id,
                            "engine",
                            format!(
                                "run-error kernel={} cycle={} kind={}: {e}",
                                self.func.name,
                                self.cycle,
                                e.label()
                            ),
                        );
                    }
                    return Err(e);
                }
            }
        }
        if self.flight.is_enabled() {
            self.flight.record(
                self.flight_trace_id,
                "engine",
                format!("run-end kernel={} cycles={}", self.func.name, self.cycle),
            );
        }
        Ok(self.cycle)
    }

    // ---- import ------------------------------------------------------------

    fn operand_of(&mut self, uid: u64, v: salam_ir::ValueId) -> Operand {
        match self.func.value_kind(v) {
            ValueKind::Arg(i) => Operand::Imm(self.args[*i as usize]),
            ValueKind::Const(c) => Operand::Imm(const_rt(c)),
            ValueKind::Inst(def) => {
                let def_uid = self.last_instance[def.index()]
                    .unwrap_or_else(|| panic!("use of value with no dynamic instance"));
                if self.cfg.strict_register_hazards {
                    self.readers_of.entry(def_uid).or_default().push(uid);
                }
                Operand::Inst(def_uid)
            }
        }
    }

    fn import_block(&mut self, block: BlockId, pred: Option<BlockId>, ctrl: u64) {
        let group = self.import_seq;
        self.import_seq += 1;
        let inst_ids = self.func.block(block).insts.clone();
        for iid in inst_ids {
            let inst = self.func.inst(iid);
            let (inst_op_is_phi, inst_has_result, inst_is_term) = (
                inst.op == Opcode::Phi,
                inst.has_result(),
                inst.op.is_terminator(),
            );
            let uid = self.uid_next;
            self.uid_next += 1;
            self.values.push(None);
            self.committed.push(false);
            self.issued.push(false);
            let sop = self.cdfg.op(iid).clone();

            // Resolve operands; phis keep only the chosen incoming edge.
            let static_ops: Vec<salam_ir::ValueId> = if inst_op_is_phi {
                let pred = pred.expect("phi requires a predecessor");
                let k = inst
                    .block_refs
                    .iter()
                    .position(|&b| b == pred)
                    .expect("phi has an edge for the taken predecessor");
                vec![inst.operands[k]]
            } else {
                inst.operands.clone()
            };
            let mut operands = Vec::with_capacity(static_ops.len());
            let mut deps: Vec<Dep> = Vec::new();
            for &v in &static_ops {
                let op = self.operand_of(uid, v);
                if let Operand::Inst(def_uid) = op {
                    if !self.committed[def_uid as usize] {
                        deps.push(Dep {
                            uid: def_uid,
                            kind: DepKind::Commit,
                        });
                    }
                }
                operands.push(op);
            }

            // Optional strict hazards: WAW (previous dynamic instance of this
            // instruction must have committed) and WAR (everything reading
            // the old value must have issued before the overwrite).
            if inst_has_result {
                if self.cfg.strict_register_hazards {
                    if let Some(prev) = self.last_instance[iid.index()] {
                        if !self.committed[prev as usize] {
                            deps.push(Dep {
                                uid: prev,
                                kind: DepKind::Commit,
                            });
                        }
                        if let Some(readers) = self.readers_of.get(&prev) {
                            for &r in readers {
                                if r != uid && !self.issued[r as usize] {
                                    deps.push(Dep {
                                        uid: r,
                                        kind: DepKind::Issue,
                                    });
                                }
                            }
                        }
                    }
                }
                self.last_instance[iid.index()] = Some(uid);
            }

            let mut all_deps: Vec<u64> = Vec::new();
            if self.cfg.record_depstream {
                for op in &operands {
                    if let Operand::Inst(def_uid) = op {
                        all_deps.push(*def_uid);
                    }
                }
                for dep in &deps {
                    all_deps.push(dep.uid);
                }
                all_deps.sort_unstable();
                all_deps.dedup();
            }

            let inst = self.func.inst(iid);
            let is_load = inst.op == Opcode::Load;
            let is_store = inst.op == Opcode::Store;
            let class = classify(&inst.op);
            let res_class = sop.fu.map(FuKind::name).unwrap_or(class.label());
            // The pointer-operand producer of a memory op gates when its
            // address can be published to the ordering window — recorded so
            // replay can mirror publication timing.
            let addr_dep = if is_load || is_store {
                let ptr_idx = if is_store { 1 } else { 0 };
                match operands.get(ptr_idx) {
                    Some(Operand::Inst(def_uid)) => *def_uid,
                    _ => 0,
                }
            } else {
                0
            };
            let d = DynInst {
                uid,
                inst: iid,
                class,
                fu: sop.fu,
                latency: sop.latency,
                bits: sop.bits,
                operands,
                deps,
                is_store,
                is_load,
                is_term: inst_is_term,
                span_resolved: false,
                span: None,
                tspan: SpanId::INVALID,
                issue_cycle: 0,
                res_class,
                all_deps,
                group,
                ctrl,
                addr_dep,
            };
            if is_load || is_store {
                self.mem_window.push(MemRec {
                    uid,
                    is_store,
                    span: None,
                });
            }
            self.reservation.push_back(d);
        }
    }

    // ---- value plumbing ------------------------------------------------------

    fn operand_value(&self, op: &Operand) -> Option<RtVal> {
        match op {
            Operand::Imm(v) => Some(*v),
            Operand::Inst(uid) => {
                if self.committed[*uid as usize] {
                    self.values[*uid as usize]
                } else {
                    None
                }
            }
        }
    }

    /// `(addr, size)` of a ready memory op, if its pointer is resolvable.
    fn mem_span(&self, d: &DynInst) -> Option<(u64, u32)> {
        let inst = self.func.inst(d.inst);
        let (ptr_idx, size) = if d.is_store {
            (
                1,
                self.func.value_type(inst.operands[0]).size_bytes() as u32,
            )
        } else {
            (0, inst.ty.size_bytes() as u32)
        };
        let ptr = self.operand_value(&d.operands[ptr_idx])?;
        Some((ptr.as_p(), size))
    }

    /// Memory ordering: an op may issue only when every older conflicting
    /// (or unresolved) access in the window has committed.
    fn mem_order_ok(&self, d: &DynInst) -> bool {
        let Some((addr, size)) = d.span.or_else(|| self.mem_span(d)) else {
            return false;
        };
        for rec in &self.mem_window {
            if rec.uid >= d.uid {
                break;
            }
            // Only store→load, load→store and store→store order; loads
            // never conflict with loads.
            if !(rec.is_store || d.is_store) {
                continue;
            }
            match rec.span {
                None => return false, // older access with unknown address
                Some((a, s)) => {
                    let overlap = addr < a + s as u64 && a < addr + size as u64;
                    if overlap {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn store_bytes(&self, d: &DynInst) -> Vec<u8> {
        let inst = self.func.inst(d.inst);
        let ty = self.func.value_type(inst.operands[0]);
        let v = self
            .operand_value(&d.operands[0])
            .expect("store value ready");
        encode_scalar(&ty, v)
    }

    fn eval_compute(&self, d: &DynInst) -> Result<Option<RtVal>, InterpError> {
        let inst = self.func.inst(d.inst);
        match inst.op {
            Opcode::Phi => Ok(Some(
                self.operand_value(&d.operands[0]).expect("phi value ready"),
            )),
            Opcode::Br | Opcode::CondBr => Ok(None),
            Opcode::Ret => Ok(inst
                .operands
                .first()
                .map(|_| self.operand_value(&d.operands[0]).expect("ret value ready"))),
            _ => {
                // Map static operand ids to this instance's values.
                let static_ops = &inst.operands;
                let vals: Vec<RtVal> = d
                    .operands
                    .iter()
                    .map(|o| self.operand_value(o).expect("operand ready"))
                    .collect();
                let get = |v: salam_ir::ValueId| -> Result<RtVal, InterpError> {
                    let k = static_ops
                        .iter()
                        .position(|&s| s == v)
                        .expect("operand belongs to instruction");
                    Ok(vals[k])
                };
                eval_pure(&self.func, &inst.op, &inst.ty, static_ops, get).map(Some)
            }
        }
    }

    // ---- the cycle loop -------------------------------------------------------

    /// Advances one accelerator cycle. Returns `true` once the invocation
    /// has fully drained. Thin panicking wrapper over [`Engine::try_step`].
    ///
    /// # Panics
    ///
    /// Panics on deadlock or on a runtime fault in the modeled kernel
    /// (e.g. division by zero).
    pub fn step(&mut self, port: &mut dyn MemPort) -> bool {
        match self.try_step(port) {
            Ok(done) => done,
            Err(e) => panic!("{e}"),
        }
    }

    /// Advances one accelerator cycle. Returns `Ok(true)` once the
    /// invocation has fully drained.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] (with a populated [`WatchdogSnapshot`]) when
    /// no queue has progressed for `deadlock_cycles`; [`SimError::KernelFault`]
    /// when the modeled kernel faults (e.g. division by zero). After an
    /// error the engine is wedged: further steps keep returning errors.
    pub fn try_step(&mut self, port: &mut dyn MemPort) -> Result<bool, SimError> {
        if self.done {
            return Ok(true);
        }
        port.begin_cycle();
        let mut progressed = false;

        // 1. Memory completions commit first (the asynchronous memory
        //    queues of the paper).
        for completion in port.poll() {
            let mut d = self
                .mem_wait
                .remove(&completion.token)
                .expect("completion for unknown token");
            if d.is_store {
                self.outstanding_writes -= 1;
            } else {
                self.outstanding_reads -= 1;
            }
            let value = if d.is_load {
                let inst = self.func.inst(d.inst);
                let bytes = completion.data.expect("load completion carries data");
                Some(decode_scalar(&inst.ty, &bytes))
            } else {
                None
            };
            if value.is_some() {
                self.stats.reg_write_pj +=
                    self.profile.register.write_energy_pj_per_bit * d.bits as f64;
            }
            self.values[d.uid as usize] = value;
            self.committed[d.uid as usize] = true;
            self.mem_window.retain(|r| r.uid != d.uid);
            if let Some(ds) = self.stats.depstream.as_mut() {
                record_dep(ds, &self.func, &mut d, self.cycle);
            }
            self.trace.end_span(d.tspan, self.trace_ts(self.cycle));
            progressed = true;
        }

        // 2. Compute commits.
        let cycle = self.cycle;
        let commit_ts = self.trace_ts(cycle);
        let mut still_busy = Vec::new();
        for (mut d, commit_at, fu_release_at) in self.compute_q.drain(..) {
            if fu_release_at <= cycle {
                if let Some(k) = d.fu.take() {
                    *self.fu_busy.get_mut(&k).expect("fu pool exists") -= 1;
                }
            }
            if commit_at <= cycle {
                debug_assert!(d.fu.is_none(), "FU released no later than commit");
                self.committed[d.uid as usize] = true;
                if self.func.inst(d.inst).has_result() {
                    self.stats.reg_write_pj +=
                        self.profile.register.write_energy_pj_per_bit * d.bits as f64;
                }
                if let Some(ds) = self.stats.depstream.as_mut() {
                    record_dep(ds, &self.func, &mut d, cycle);
                }
                self.trace.end_span(d.tspan, commit_ts);
                progressed = true;
            } else {
                still_busy.push((d, commit_at, fu_release_at));
            }
        }
        self.compute_q = still_busy;

        // 3. Import the next basic block(s) while there is room. A block
        //    larger than the whole window is admitted into an empty queue
        //    (blocks cannot be split).
        while let Some(&(block, pred, ctrl)) = self.pending_fetch.front() {
            let room = self.cfg.reservation_entries
                - self.reservation.len().min(self.cfg.reservation_entries);
            if self.func.block(block).insts.len() > room && !self.reservation.is_empty() {
                break;
            }
            self.pending_fetch.pop_front();
            self.import_block(block, pred, ctrl);
            progressed = true;
        }

        // 4a. Publish memory addresses as soon as pointer operands resolve,
        //     independent of data readiness — a store whose value is still
        //     in flight must not hide its (known) address from younger loads.
        for i in 0..self.reservation.len() {
            let needs = (self.reservation[i].is_load || self.reservation[i].is_store)
                && !self.reservation[i].span_resolved;
            if needs {
                if let Some(span) = self.mem_span(&self.reservation[i]) {
                    let uid = self.reservation[i].uid;
                    self.reservation[i].span_resolved = true;
                    self.reservation[i].span = Some(span);
                    if let Some(rec) = self.mem_window.iter_mut().find(|r| r.uid == uid) {
                        rec.span = Some(span);
                    }
                }
            }
        }

        // 4b. Issue ready operations from the reservation queue.
        let mut issued_this_cycle = 0u64;
        let mut class_issued = [0u32; IssueClass::COUNT];
        // Ready (dependency-free) ops that could not launch this cycle —
        // the paper's notion of a stall.
        let mut blocked_mix = StallMix::default();
        let mut blocked_any = false;
        let mut port_rejected = false;
        // Attribution causes: a ready op hit an FU pool limit / a memory
        // limit (outstanding cap or port reject) this cycle.
        let mut fu_blocked = false;
        let mut mem_limit_blocked = false;
        let mut idx = 0;
        while idx < self.reservation.len() {
            let ready = {
                // Prune satisfied dependencies so later cycles re-check only
                // the outstanding ones.
                let committed = &self.committed;
                let issued = &self.issued;
                let d = &mut self.reservation[idx];
                d.deps.retain(|dep| match dep.kind {
                    DepKind::Commit => !committed[dep.uid as usize],
                    DepKind::Issue => !(issued[dep.uid as usize] || committed[dep.uid as usize]),
                });
                d.deps.is_empty()
            };
            if !ready {
                idx += 1;
                continue;
            }
            let d = &self.reservation[idx];
            // Functional-unit pool availability (user-enforced reuse).
            if let Some(k) = d.fu {
                let pool = self.stats.fu_pool.get(&k).copied().unwrap_or(0);
                let busy = self.fu_busy.get(&k).copied().unwrap_or(0);
                if busy >= pool {
                    blocked_any = true;
                    blocked_mix.compute = true;
                    fu_blocked = true;
                    idx += 1;
                    continue;
                }
            }
            if d.is_load || d.is_store {
                if !self.mem_order_ok(d) {
                    blocked_any = true;
                    if d.is_store {
                        blocked_mix.store = true;
                    } else {
                        blocked_mix.load = true;
                    }
                    idx += 1;
                    continue;
                }
                let limit_ok = if d.is_store {
                    self.outstanding_writes < self.cfg.max_outstanding_writes
                } else {
                    self.outstanding_reads < self.cfg.max_outstanding_reads
                };
                if !limit_ok {
                    blocked_any = true;
                    mem_limit_blocked = true;
                    if d.is_store {
                        blocked_mix.store = true;
                    } else {
                        blocked_mix.load = true;
                    }
                    idx += 1;
                    continue;
                }
                let (addr, size) = d.span.or_else(|| self.mem_span(d)).expect("span resolved");
                let token = self.token_next;
                let data = d.is_store.then(|| self.store_bytes(d));
                let access = MemAccess {
                    token,
                    addr,
                    size,
                    is_write: d.is_store,
                    data,
                };
                match port.try_issue(access) {
                    Ok(()) => {
                        self.token_next += 1;
                        let mut d = self.reservation.remove(idx).expect("index valid");
                        d.issue_cycle = cycle;
                        // Cache the span so the depstream completion record
                        // carries the touched address even when the op
                        // issued before its window publication.
                        d.span = Some((addr, size));
                        d.tspan = self.register_issue(&d, &mut class_issued);
                        if d.is_store {
                            self.outstanding_writes += 1;
                            self.stats.stores += 1;
                            self.stats.store_bytes += size as u64;
                        } else {
                            self.outstanding_reads += 1;
                            self.stats.loads += 1;
                            self.stats.load_bytes += size as u64;
                        }
                        self.mem_wait.insert(token, d);
                        issued_this_cycle += 1;
                    }
                    Err(rejected) => {
                        *self
                            .stats
                            .reject_causes
                            .entry(rejected.cause.label().to_string())
                            .or_insert(0) += 1;
                        port_rejected = true;
                        mem_limit_blocked = true;
                        blocked_any = true;
                        if d.is_store {
                            blocked_mix.store = true;
                        } else {
                            blocked_mix.load = true;
                        }
                        idx += 1;
                    }
                }
                continue;
            }

            // Compute / control issue.
            let mut d = self.reservation.remove(idx).expect("index valid");
            d.issue_cycle = cycle;
            let mut value = match self.eval_compute(&d) {
                Ok(v) => v,
                Err(e) => {
                    return Err(SimError::KernelFault {
                        kernel: self.func.name.clone(),
                        cycle,
                        detail: e.to_string(),
                    })
                }
            };
            // Fault hooks: transient single-bit flips in the FU result and
            // latency jitter, each from its own seeded site stream. Flips
            // default to float results only — integer flips can corrupt
            // loop counters into hangs the watchdog never sees.
            let (mut flipped, mut jittered) = (false, false);
            if let Some(f) = self.fault.as_mut() {
                match value {
                    Some(RtVal::F(x)) if f.flip.roll(f.plan.fu_bitflip_rate) => {
                        let bit = f.flip.bit(64);
                        value = Some(RtVal::F(f64::from_bits(x.to_bits() ^ (1u64 << bit))));
                        flipped = true;
                    }
                    Some(RtVal::I(x))
                        if f.plan.fu_flip_any && f.flip.roll(f.plan.fu_bitflip_rate) =>
                    {
                        value = Some(RtVal::I(x ^ (1i64 << f.flip.bit(64))));
                        flipped = true;
                    }
                    _ => {}
                }
                if d.latency > 0 && f.jitter.roll(f.plan.fu_jitter_rate) {
                    d.latency += f.plan.fu_jitter_cycles;
                    jittered = true;
                }
            }
            if flipped {
                self.note_fault("fu_bitflip", cycle);
            }
            if jittered {
                self.note_fault("fu_jitter", cycle);
            }
            d.tspan = self.register_issue(&d, &mut class_issued);
            issued_this_cycle += 1;
            if d.is_term {
                self.handle_terminator(&d);
                // "Terminators trigger the reservation queue to load the
                // next basic block immediately after evaluation" — import
                // inline so the new block can begin issuing this cycle.
                while let Some(&(block, pred, ctrl)) = self.pending_fetch.front() {
                    let used = self.reservation.len().min(self.cfg.reservation_entries);
                    let room = self.cfg.reservation_entries - used;
                    if self.func.block(block).insts.len() > room && !self.reservation.is_empty() {
                        break;
                    }
                    self.pending_fetch.pop_front();
                    self.import_block(block, pred, ctrl);
                }
            }
            if let Some(k) = d.fu {
                if d.latency > 0 {
                    *self.fu_busy.entry(k).or_insert(0) += 1;
                }
                self.stats.fu_dynamic_pj += self
                    .profile
                    .spec(k)
                    .dynamic_energy_pj(self.cfg.clock_period_ps);
            }
            self.values[d.uid as usize] = value;
            if d.latency == 0 {
                // Chainable op (mux, comparator, wiring): completes within
                // this cycle, so dependents later in the queue can issue in
                // the same cycle — HLS operator chaining.
                if let Some(k) = d.fu {
                    *self.stats.fu_busy_cycle_sum.entry(k).or_insert(0) += 1;
                }
                if self.func.inst(d.inst).has_result() {
                    self.stats.reg_write_pj +=
                        self.profile.register.write_energy_pj_per_bit * d.bits as f64;
                }
                self.committed[d.uid as usize] = true;
                if let Some(ds) = self.stats.depstream.as_mut() {
                    record_dep(ds, &self.func, &mut d, cycle);
                }
                // Chained op: a zero-duration span at the issue cycle.
                self.trace.end_span(d.tspan, self.trace_ts(cycle));
            } else {
                // The value becomes architecturally visible to dependents
                // when the op commits after its FU latency.
                let commit_at = cycle + d.latency as u64;
                let fu_release_at = if self.cfg.pipelined_fus {
                    cycle + 1
                } else {
                    commit_at
                };
                self.compute_q.push((d, commit_at, fu_release_at));
            }
        }

        // 5. Cycle bookkeeping.
        if self.cfg.record_timeline {
            let mut rec = crate::stats::CycleRecord {
                issued: class_issued,
                mem_outstanding: (self.outstanding_reads + self.outstanding_writes) as u32,
                stalled: blocked_any,
                ..Default::default()
            };
            for (&k, &busy) in &self.fu_busy {
                if busy > 0 {
                    rec.fu_busy.insert(k, busy);
                }
            }
            self.stats.timeline.push(rec);
        }
        self.stats.cycles += 1;
        // Cycle attribution: charge this cycle to exactly one class, by
        // strict priority — progress beats any stall cause, resource limits
        // beat waiting, waiting beats dependence, dependence beats drain.
        // One charge per step keeps `attribution.total() == cycles` exact.
        let cycle_class = if issued_this_cycle > 0 {
            salam_obs::CycleClass::Compute
        } else if fu_blocked {
            salam_obs::CycleClass::FuLimit
        } else if port_rejected || mem_limit_blocked {
            salam_obs::CycleClass::MemPort
        } else if !self.mem_wait.is_empty() {
            salam_obs::CycleClass::DmaWait
        } else if !self.reservation.is_empty() || !self.compute_q.is_empty() {
            salam_obs::CycleClass::DepStall
        } else {
            salam_obs::CycleClass::Control
        };
        self.stats.attribution.charge(cycle_class);
        for (&k, &busy) in &self.fu_busy {
            if busy > 0 {
                *self.stats.fu_busy_cycle_sum.entry(k).or_insert(0) += busy as u64;
            }
        }
        if issued_this_cycle > 0 {
            let ld = class_issued[IssueClass::Load as usize] > 0;
            let st = class_issued[IssueClass::Store as usize] > 0;
            // Indexed like `MEM_MIX_LABELS`: load, load+store, store.
            match (ld, st) {
                (true, false) => self.stats.mem_mix_cycles[0] += 1,
                (true, true) => self.stats.mem_mix_cycles[1] += 1,
                (false, true) => self.stats.mem_mix_cycles[2] += 1,
                (false, false) => {}
            }
            for (active, &n) in self.stats.class_active_cycles.iter_mut().zip(&class_issued) {
                *active += u64::from(n > 0);
            }
            progressed = true;
        }
        // A cycle counts as *stalled* (the paper's Fig. 14 definition) when
        // a dependency-free operation could not launch — resource or
        // bandwidth pressure — regardless of whether other ops issued.
        if blocked_any {
            self.stats.stall_cycles += 1;
            let mut mix = blocked_mix;
            if !self.compute_q.is_empty() {
                mix.compute = true;
            }
            for dd in self.mem_wait.values() {
                if dd.is_store {
                    mix.store = true;
                } else {
                    mix.load = true;
                }
            }
            if let Some(t) = &self.trace_tracks {
                self.trace.instant(
                    t.sched,
                    &format!("stall:{}", mix.label()),
                    self.trace_ts(cycle),
                );
            }
            self.stats.stall_breakdown[mix.index()] += 1;
        } else if issued_this_cycle > 0 {
            self.stats.new_exec_cycles += 1;
        }
        if port_rejected {
            self.stats.port_reject_cycles += 1;
            if let Some(t) = &self.trace_tracks {
                self.trace
                    .instant(t.sched, "port_reject", self.trace_ts(cycle));
            }
        }
        if let Some(t) = &self.trace_tracks {
            let ts = self.trace_ts(cycle);
            self.trace.counter(
                t.sched,
                "reservation_depth",
                ts,
                self.reservation.len() as f64,
            );
            self.trace.counter(
                t.sched,
                "mem_outstanding",
                ts,
                (self.outstanding_reads + self.outstanding_writes) as f64,
            );
        }

        if progressed {
            self.last_progress = self.cycle;
        } else if self.cycle - self.last_progress > self.cfg.deadlock_cycles {
            return Err(SimError::Deadlock(self.watchdog_snapshot()));
        }

        // Cooperative cancellation, polled once per cycle batch (including
        // cycle 0, so an already-expired deadline stops before any real
        // work). The disabled token keeps this to a single branch.
        if self.cancel.is_enabled() && self.cycle & (CANCEL_BATCH - 1) == 0 {
            if let Some(reason) = self.cancel.poll() {
                return Err(SimError::Cancelled {
                    kernel: self.func.name.clone(),
                    cycle: self.cycle,
                    timeout: reason.is_timeout(),
                });
            }
        }

        // Coarse liveness heartbeat for the flight recorder: one event per
        // 65536 cycles, so even a wedged-but-not-yet-deadlocked run leaves
        // a recent-history trail. The enabled check keeps the disabled
        // path to a single branch.
        if self.flight.is_enabled() && self.cycle & 0xFFFF == 0 && self.cycle > 0 {
            self.flight.record(
                self.flight_trace_id,
                "engine",
                format!(
                    "heartbeat kernel={} cycle={} resv={} compute={} mem={}",
                    self.func.name,
                    self.cycle,
                    self.reservation.len(),
                    self.compute_q.len(),
                    self.outstanding_reads + self.outstanding_writes
                ),
            );
        }

        self.cycle += 1;
        if self.fetch_stopped
            && self.pending_fetch.is_empty()
            && self.reservation.is_empty()
            && self.compute_q.is_empty()
            && self.mem_wait.is_empty()
        {
            self.done = true;
        }
        Ok(self.done)
    }

    fn register_issue(
        &mut self,
        d: &DynInst,
        class_issued: &mut [u32; IssueClass::COUNT],
    ) -> SpanId {
        self.issued[d.uid as usize] = true;
        self.stats.issued[d.class as usize] += 1;
        class_issued[d.class as usize] += 1;
        // Register-file read energy for non-immediate operands.
        for o in &d.operands {
            if matches!(o, Operand::Inst(_)) {
                self.stats.reg_read_pj +=
                    self.profile.register.read_energy_pj_per_bit * d.bits as f64;
            }
        }
        match &self.trace_tracks {
            Some(t) => self.trace.begin_span(
                t.ops,
                self.func.inst(d.inst).op.mnemonic(),
                self.trace_ts(self.cycle),
            ),
            None => SpanId::INVALID,
        }
    }

    fn handle_terminator(&mut self, d: &DynInst) {
        let inst = self.func.inst(d.inst);
        match inst.op {
            Opcode::Br => {
                let target = inst.block_refs[0];
                self.pending_fetch
                    .push_back((target, Some(self.cdfg.op(d.inst).block), d.uid));
            }
            Opcode::CondBr => {
                let c = self
                    .operand_value(&d.operands[0])
                    .expect("cond ready")
                    .as_i();
                let target = if c != 0 {
                    inst.block_refs[0]
                } else {
                    inst.block_refs[1]
                };
                self.pending_fetch
                    .push_back((target, Some(self.cdfg.op(d.inst).block), d.uid));
            }
            Opcode::Ret => {
                self.fetch_stopped = true;
                self.ret_value = inst
                    .operands
                    .first()
                    .map(|_| self.operand_value(&d.operands[0]).expect("ret value ready"));
            }
            _ => unreachable!("not a terminator"),
        }
    }
}

/// Appends `d`'s commit at `cycle` to the dependency stream. Kept out of
/// line: recording is off on every run but the profiling ones.
#[cold]
fn record_dep(ds: &mut salam_obs::DepStream, func: &Function, d: &mut DynInst, cycle: u64) {
    let deps = std::mem::take(&mut d.all_deps);
    let name = func.inst(d.inst).op.mnemonic();
    ds.record(d.uid, name, d.res_class, d.issue_cycle, cycle, deps)
        .meta = dep_meta(d);
}

/// The replay metadata of a dynamic op at record time (see
/// [`salam_obs::DepMeta`]).
fn dep_meta(d: &DynInst) -> salam_obs::DepMeta {
    let (addr, size) = d.span.unwrap_or((0, 0));
    salam_obs::DepMeta {
        kind: if d.is_store {
            salam_obs::OpKind::Store
        } else if d.is_load {
            salam_obs::OpKind::Load
        } else {
            salam_obs::OpKind::Compute
        },
        latency: d.latency,
        inst: d.inst.index() as u32,
        group: d.group,
        ctrl: d.ctrl,
        addr_dep: d.addr_dep,
        addr,
        size,
    }
}

fn classify(op: &Opcode) -> IssueClass {
    match op {
        Opcode::Load => IssueClass::Load,
        Opcode::Store => IssueClass::Store,
        o if o.is_float_arith() => IssueClass::Float,
        Opcode::Add
        | Opcode::Sub
        | Opcode::Mul
        | Opcode::UDiv
        | Opcode::SDiv
        | Opcode::URem
        | Opcode::SRem
        | Opcode::Shl
        | Opcode::LShr
        | Opcode::AShr
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::ICmp(_)
        | Opcode::Gep { .. } => IssueClass::Int,
        _ => IssueClass::Other,
    }
}

fn const_rt(c: &salam_ir::Constant) -> RtVal {
    match c {
        salam_ir::Constant::Int { value, .. } => RtVal::I(*value),
        salam_ir::Constant::Float { ty, value } => RtVal::F(if *ty == Type::F32 {
            *value as f32 as f64
        } else {
            *value
        }),
        salam_ir::Constant::NullPtr => RtVal::P(0),
        salam_ir::Constant::Undef(_) => panic!("use of undef at runtime"),
    }
}

fn encode_scalar(ty: &Type, v: RtVal) -> Vec<u8> {
    let n = ty.size_bytes() as usize;
    let raw: u64 = match (ty, v) {
        (Type::F32, RtVal::F(f)) => (f as f32).to_bits() as u64,
        (Type::F64, RtVal::F(f)) => f.to_bits(),
        (Type::Ptr, RtVal::P(p)) => p,
        (t, RtVal::I(i)) if t.is_int() => i as u64,
        (t, v) => panic!("cannot store {v:?} as {t}"),
    };
    raw.to_le_bytes()[..n].to_vec()
}

fn decode_scalar(ty: &Type, bytes: &[u8]) -> RtVal {
    let mut buf = [0u8; 8];
    let n = (ty.size_bytes() as usize).min(bytes.len());
    buf[..n].copy_from_slice(&bytes[..n]);
    let raw = u64::from_le_bytes(buf);
    match ty {
        Type::F32 => RtVal::F(f32::from_bits(raw as u32) as f64),
        Type::F64 => RtVal::F(f64::from_bits(raw)),
        Type::Ptr => RtVal::P(raw),
        t if t.is_int() => RtVal::I(salam_ir::interp::sign_extend(raw, t.bits())),
        other => panic!("cannot load {other}"),
    }
}
