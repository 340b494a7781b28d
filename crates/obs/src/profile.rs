//! Cycle accounting: the attribution taxonomy every engine cycle is charged
//! against, and the compact dependency stream recorded for critical-path
//! analysis (see [`crate::critpath`]).
//!
//! The taxonomy is mutually exclusive by construction: the engine classifies
//! each cycle into exactly one [`CycleClass`], so an [`Attribution`]'s
//! buckets always sum to the engine's total cycle count — the invariant the
//! CI smoke asserts. The [`DepStream`] is the raw material of the analyzer:
//! one record per committed dynamic op with interned name/class strings and
//! producer uids, cheap enough to keep for whole MachSuite runs.

use crate::trace::{TraceRecorder, TraceSink};

/// Where a single engine cycle went. Exactly one class per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CycleClass {
    /// At least one op issued this cycle — forward progress.
    Compute,
    /// Ready work exists but every candidate waits on a producer.
    DepStall,
    /// An op was ready to issue but its functional-unit pool was exhausted.
    FuLimit,
    /// A memory op was ready but the port rejected it (or the outstanding
    /// limit was hit) — contention in the memory system.
    MemPort,
    /// Nothing issuable; the engine is waiting on in-flight memory or DMA.
    DmaWait,
    /// Fetch/drain overhead: no work resident in any queue.
    Control,
}

impl CycleClass {
    /// Every class, in report order. `dominant` breaks ties toward the
    /// earlier entry, so the order is part of the deterministic contract.
    pub const ALL: [CycleClass; 6] = [
        CycleClass::Compute,
        CycleClass::DepStall,
        CycleClass::FuLimit,
        CycleClass::MemPort,
        CycleClass::DmaWait,
        CycleClass::Control,
    ];

    /// Stable label used in JSON reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            CycleClass::Compute => "compute",
            CycleClass::DepStall => "dep_stall",
            CycleClass::FuLimit => "fu_limit",
            CycleClass::MemPort => "mem_port",
            CycleClass::DmaWait => "dma_wait",
            CycleClass::Control => "control",
        }
    }

    /// Inverse of [`CycleClass::label`].
    pub fn from_label(s: &str) -> Option<CycleClass> {
        CycleClass::ALL.into_iter().find(|c| c.label() == s)
    }

    fn index(self) -> usize {
        CycleClass::ALL.iter().position(|&c| c == self).unwrap()
    }
}

/// Per-class cycle counters. `total()` equals the engine's cycle count
/// because the engine charges exactly one class per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    counts: [u64; 6],
}

impl Attribution {
    /// Charges one cycle to `class`.
    pub fn charge(&mut self, class: CycleClass) {
        self.counts[class.index()] += 1;
    }

    /// Charges `n` cycles to `class` (deserialization, aggregation).
    pub fn add(&mut self, class: CycleClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Cycles charged to `class`.
    pub fn get(&self, class: CycleClass) -> u64 {
        self.counts[class.index()]
    }

    /// Sum over all classes — must equal the engine's total cycles.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The class with the most cycles; ties break toward the earlier entry
    /// of [`CycleClass::ALL`], keeping reports deterministic.
    pub fn dominant(&self) -> CycleClass {
        let mut best = CycleClass::ALL[0];
        for &c in &CycleClass::ALL[1..] {
            if self.get(c) > self.get(best) {
                best = c;
            }
        }
        best
    }

    /// Fraction of total cycles charged to `class` (0.0 on empty runs).
    pub fn fraction(&self, class: CycleClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(class) as f64 / total as f64
        }
    }

    /// `(class, cycles)` pairs in [`CycleClass::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleClass, u64)> + '_ {
        CycleClass::ALL.into_iter().map(|c| (c, self.get(c)))
    }
}

/// What a recorded op *is*, for replay resource modeling: compute ops
/// occupy functional units, memory ops occupy SPM ports and the
/// outstanding-access queues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OpKind {
    /// Occupies a functional unit.
    #[default]
    Compute,
    /// A memory read (SPM read port + outstanding-access slot).
    Load,
    /// A memory write (SPM write port + outstanding-access slot).
    Store,
}

impl OpKind {
    /// Stable numeric encoding used by the on-disk format.
    pub fn as_u8(self) -> u8 {
        match self {
            OpKind::Compute => 0,
            OpKind::Load => 1,
            OpKind::Store => 2,
        }
    }

    /// Inverse of [`OpKind::as_u8`].
    pub fn from_u8(v: u8) -> Option<OpKind> {
        match v {
            0 => Some(OpKind::Compute),
            1 => Some(OpKind::Load),
            2 => Some(OpKind::Store),
            _ => None,
        }
    }
}

/// Replay metadata attached to a [`DepOp`] at record time. Everything a
/// list-scheduling replay needs to re-run the op under different resource
/// constraints without re-simulating: what resource it occupies, how long
/// it holds it, where it came from in the static program, and which
/// control/address producers gate it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepMeta {
    /// Compute / load / store.
    pub kind: OpKind,
    /// Intrinsic op latency in cycles (FU latency for compute ops; the
    /// *recorded* memory latency for loads/stores — replay retimes those).
    pub latency: u32,
    /// Static instruction index (`InstId`) in program order.
    pub inst: u32,
    /// Block-import sequence number: ops imported by the same
    /// `import_block` call share a group, groups are numbered 0.. in
    /// import order.
    pub group: u32,
    /// Uid of the terminator whose issue triggered this op's block import
    /// (0 for the entry block).
    pub ctrl: u64,
    /// Memory ops: uid of the pointer-operand producer (0 when the
    /// address is an immediate/argument).
    pub addr_dep: u64,
    /// Memory ops: byte address touched (0 for compute ops).
    pub addr: u64,
    /// Memory ops: access size in bytes (0 for compute ops).
    pub size: u32,
}

/// One committed dynamic op in the dependency stream. `name` and `class`
/// index the stream's interned string tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepOp {
    /// The engine's dynamic-instance uid (unique, monotonically assigned).
    pub uid: u64,
    /// Interned mnemonic ("fmul", "load", ...).
    pub name: u32,
    /// Interned resource class — the FU name for compute ops, the issue
    /// class ("load"/"store") for memory ops.
    pub class: u32,
    /// Cycle the op issued.
    pub issue: u64,
    /// Cycle the op committed (result became visible to consumers).
    pub commit: u64,
    /// Uids of the producers this instance depended on.
    pub deps: Vec<u64>,
    /// Replay metadata; [`DepStream::record`] defaults it and replay-feeding
    /// recorders set it on the returned op.
    pub meta: DepMeta,
}

/// The compact producer→consumer record of one run: interned string tables
/// plus one [`DepOp`] per committed dynamic op, in commit order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepStream {
    names: Vec<String>,
    classes: Vec<String>,
    ops: Vec<DepOp>,
}

impl DepStream {
    /// An empty stream.
    pub fn new() -> Self {
        DepStream::default()
    }

    /// Interns an op mnemonic, returning its table index.
    pub fn intern_name(&mut self, s: &str) -> u32 {
        intern(&mut self.names, s)
    }

    /// Interns a resource-class name, returning its table index.
    pub fn intern_class(&mut self, s: &str) -> u32 {
        intern(&mut self.classes, s)
    }

    /// Appends a committed op and returns it, so a recorder that feeds
    /// the replay fast path can set its [`DepOp::meta`] (defaulted here).
    /// Deps should reference earlier uids; unknown uids (e.g. terminators
    /// that never issue) are tolerated by the analyzer.
    pub fn record(
        &mut self,
        uid: u64,
        name: &str,
        class: &str,
        issue: u64,
        commit: u64,
        deps: Vec<u64>,
    ) -> &mut DepOp {
        let name = self.intern_name(name);
        let class = self.intern_class(class);
        self.ops.push(DepOp {
            uid,
            name,
            class,
            issue,
            commit,
            deps,
            meta: DepMeta::default(),
        });
        self.ops.last_mut().expect("just pushed")
    }

    /// Ops in commit order.
    pub fn ops(&self) -> &[DepOp] {
        &self.ops
    }

    /// Resolves an interned mnemonic.
    pub fn name(&self, idx: u32) -> &str {
        self.names
            .get(idx as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Resolves an interned resource class.
    pub fn class(&self, idx: u32) -> &str {
        self.classes
            .get(idx as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// All interned resource classes.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no ops were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Versioned on-disk serialization: a JSON object carrying the format
    /// version, the exact per-op column schema, the interned string tables
    /// and one compact row array per op. [`DepStream::from_json`] refuses
    /// anything whose version *or* column list differs, so event-schema
    /// changes fail loudly instead of mis-replaying.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let strings = |table: &[String]| {
            table
                .iter()
                .map(|s| format!("\"{}\"", esc(s)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let columns = DEPSTREAM_COLUMNS
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "\"format_version\": {DEPSTREAM_FORMAT_VERSION},\n"
        ));
        out.push_str(&format!("\"columns\": [{columns}],\n"));
        out.push_str(&format!("\"names\": [{}],\n", strings(&self.names)));
        out.push_str(&format!("\"classes\": [{}],\n", strings(&self.classes)));
        out.push_str("\"ops\": [");
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let deps = op
                .deps
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                "\n[{},{},{},{},{},{},{},{},{},{},{},{},{},[{deps}]]",
                op.uid,
                op.name,
                op.class,
                op.issue,
                op.commit,
                op.meta.kind.as_u8(),
                op.meta.latency,
                op.meta.inst,
                op.meta.group,
                op.meta.ctrl,
                op.meta.addr_dep,
                op.meta.addr,
                op.meta.size,
            ));
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Parses a stream serialized by [`DepStream::to_json`].
    ///
    /// # Errors
    ///
    /// A descriptive message when the document is not valid JSON, the
    /// format version is missing or different from
    /// [`DEPSTREAM_FORMAT_VERSION`], the column schema differs, or any row
    /// is malformed. Version/schema mismatches are *always* errors — a
    /// stream from another schema must never be silently replayed.
    pub fn from_json(text: &str) -> Result<DepStream, String> {
        let v = crate::json::parse(text).map_err(|e| format!("depstream: bad JSON: {e}"))?;
        DepStream::from_json_value(&v)
    }

    /// [`DepStream::from_json`] on an already-parsed JSON value — for
    /// containers (the DSE result cache) that embed a stream inside a
    /// larger document and parse the whole document once.
    ///
    /// # Errors
    ///
    /// Same contract as [`DepStream::from_json`].
    pub fn from_json_value(v: &crate::json::Value) -> Result<DepStream, String> {
        let version = v
            .get("format_version")
            .and_then(|x| x.as_f64())
            .ok_or("depstream: missing format_version field")?;
        if version != DEPSTREAM_FORMAT_VERSION as f64 {
            return Err(format!(
                "depstream: format_version {version} but this build reads \
                 {DEPSTREAM_FORMAT_VERSION} — refusing to replay a stream \
                 from a different event schema"
            ));
        }
        let columns: Vec<&str> = v
            .get("columns")
            .and_then(|x| x.as_array())
            .ok_or("depstream: missing columns field")?
            .iter()
            .map(|c| c.as_str().unwrap_or("?"))
            .collect();
        if columns != DEPSTREAM_COLUMNS {
            return Err(format!(
                "depstream: column schema {columns:?} differs from \
                 {DEPSTREAM_COLUMNS:?} — refusing to replay"
            ));
        }
        let strings = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(|x| x.as_array())
                .ok_or_else(|| format!("depstream: missing {key} table"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("depstream: non-string entry in {key}"))
                })
                .collect()
        };
        let names = strings("names")?;
        let classes = strings("classes")?;
        let rows = v
            .get("ops")
            .and_then(|x| x.as_array())
            .ok_or("depstream: missing ops array")?;
        let mut ops = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let cells = row
                .as_array()
                .ok_or_else(|| format!("depstream: op row {i} is not an array"))?;
            if cells.len() != DEPSTREAM_COLUMNS.len() {
                return Err(format!(
                    "depstream: op row {i} has {} cells, expected {}",
                    cells.len(),
                    DEPSTREAM_COLUMNS.len()
                ));
            }
            let num = |j: usize| -> Result<u64, String> {
                cells[j]
                    .as_f64()
                    .filter(|f| *f >= 0.0 && f.fract() == 0.0)
                    .map(|f| f as u64)
                    .ok_or_else(|| {
                        format!(
                            "depstream: op row {i} column {} is not a non-negative integer",
                            DEPSTREAM_COLUMNS[j]
                        )
                    })
            };
            let kind = OpKind::from_u8(num(5)? as u8)
                .ok_or_else(|| format!("depstream: op row {i} has unknown kind"))?;
            let deps = cells[13]
                .as_array()
                .ok_or_else(|| format!("depstream: op row {i} deps is not an array"))?
                .iter()
                .map(|d| {
                    d.as_f64()
                        .map(|f| f as u64)
                        .ok_or_else(|| format!("depstream: op row {i} has a non-numeric dep"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            ops.push(DepOp {
                uid: num(0)?,
                name: num(1)? as u32,
                class: num(2)? as u32,
                issue: num(3)?,
                commit: num(4)?,
                deps,
                meta: DepMeta {
                    kind,
                    latency: num(6)? as u32,
                    inst: num(7)? as u32,
                    group: num(8)? as u32,
                    ctrl: num(9)?,
                    addr_dep: num(10)?,
                    addr: num(11)?,
                    size: num(12)? as u32,
                },
            });
        }
        Ok(DepStream {
            names,
            classes,
            ops,
        })
    }
}

/// Version stamp of the [`DepStream`] on-disk format. Bump on **any**
/// change to the event schema so old streams fail loudly at import.
pub const DEPSTREAM_FORMAT_VERSION: u32 = 1;

/// The exact per-op row schema of the on-disk format, in cell order.
pub const DEPSTREAM_COLUMNS: [&str; 14] = [
    "uid", "name", "class", "issue", "commit", "kind", "latency", "inst", "group", "ctrl",
    "addr_dep", "addr", "size", "deps",
];

fn intern(table: &mut Vec<String>, s: &str) -> u32 {
    if let Some(i) = table.iter().position(|t| t == s) {
        return i as u32;
    }
    table.push(s.to_string());
    (table.len() - 1) as u32
}

/// Renders a dependency stream as a trace: one track per resource class,
/// one span per op (issue→commit in simulated time), and the realized
/// critical path drawn as flow [`crate::trace::TraceEvent::Edge`]s between
/// consecutive path ops — the "explained timeline" view of a run.
pub fn depstream_to_trace(
    stream: &DepStream,
    critical_path: &[u64],
    clock_period_ps: u64,
) -> TraceRecorder {
    let period = clock_period_ps.max(1);
    let mut rec = TraceRecorder::new(TraceRecorder::DEFAULT_CAPACITY.max(stream.len() * 2 + 16));
    let mut span_of: std::collections::HashMap<u64, crate::trace::SpanId> =
        std::collections::HashMap::new();
    for op in stream.ops() {
        let track = rec.track(&format!("class.{}", stream.class(op.class)));
        let span = rec.begin_span(track, stream.name(op.name), op.issue * period);
        rec.end_span(span, (op.commit + 1) * period);
        span_of.insert(op.uid, span);
    }
    for pair in critical_path.windows(2) {
        if let (Some(&from), Some(&to)) = (span_of.get(&pair[0]), span_of.get(&pair[1])) {
            let ts = stream
                .ops()
                .iter()
                .find(|o| o.uid == pair[0])
                .map(|o| (o.commit + 1) * period)
                .unwrap_or(0);
            rec.edge(from, to, "critical", ts);
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_total_is_sum_of_charges() {
        let mut a = Attribution::default();
        a.charge(CycleClass::Compute);
        a.charge(CycleClass::Compute);
        a.charge(CycleClass::DmaWait);
        a.add(CycleClass::Control, 3);
        assert_eq!(a.total(), 6);
        assert_eq!(a.get(CycleClass::Compute), 2);
        assert_eq!(a.get(CycleClass::FuLimit), 0);
    }

    #[test]
    fn dominant_breaks_ties_toward_report_order() {
        let mut a = Attribution::default();
        a.add(CycleClass::DepStall, 5);
        a.add(CycleClass::DmaWait, 5);
        assert_eq!(a.dominant(), CycleClass::DepStall);
        a.add(CycleClass::DmaWait, 1);
        assert_eq!(a.dominant(), CycleClass::DmaWait);
    }

    #[test]
    fn labels_roundtrip() {
        for c in CycleClass::ALL {
            assert_eq!(CycleClass::from_label(c.label()), Some(c));
        }
        assert_eq!(CycleClass::from_label("nope"), None);
    }

    #[test]
    fn depstream_interns_and_resolves() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, vec![]);
        s.record(2, "fmul", "fp_mul_f64", 3, 7, vec![1]);
        s.record(3, "load", "load", 1, 3, vec![]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.ops()[0].name, s.ops()[2].name, "mnemonics interned once");
        assert_eq!(s.name(s.ops()[1].name), "fmul");
        assert_eq!(s.class(s.ops()[1].class), "fp_mul_f64");
        assert_eq!(s.classes(), &["load".to_string(), "fp_mul_f64".to_string()]);
    }

    #[test]
    fn depstream_json_roundtrip_preserves_everything() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, vec![]);
        s.record(2, "fmul", "fp_mul_f64", 3, 7, vec![1]).meta = DepMeta {
            kind: OpKind::Compute,
            latency: 4,
            inst: 9,
            group: 1,
            ctrl: 1,
            addr_dep: 0,
            addr: 0,
            size: 0,
        };
        s.record(3, "store", "store", 8, 9, vec![2]).meta = DepMeta {
            kind: OpKind::Store,
            latency: 1,
            inst: 10,
            group: 1,
            ctrl: 1,
            addr_dep: 2,
            addr: 1024,
            size: 8,
        };
        let json = s.to_json();
        let back = DepStream::from_json(&json).unwrap();
        assert_eq!(back, s);
        // Re-serializing the parsed stream is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn depstream_import_rejects_other_versions_and_schemas() {
        let mut s = DepStream::new();
        s.record(1, "add", "int_adder", 0, 1, vec![]);
        let json = s.to_json();
        // Foreign version: loud failure naming both versions.
        let bumped = json.replace(
            &format!("\"format_version\": {DEPSTREAM_FORMAT_VERSION}"),
            "\"format_version\": 999999",
        );
        let err = DepStream::from_json(&bumped).unwrap_err();
        assert!(err.contains("999999"), "{err}");
        assert!(err.contains(&DEPSTREAM_FORMAT_VERSION.to_string()), "{err}");
        // Missing version: also fatal.
        let stripped = json.replace(
            &format!("\"format_version\": {DEPSTREAM_FORMAT_VERSION},\n"),
            "",
        );
        assert!(DepStream::from_json(&stripped)
            .unwrap_err()
            .contains("format_version"));
        // Different column schema: fatal even at the same version.
        let reordered = json.replace("\"uid\", \"name\"", "\"name\", \"uid\"");
        assert!(DepStream::from_json(&reordered)
            .unwrap_err()
            .contains("column schema"));
    }

    #[test]
    fn depstream_to_trace_spans_every_op_and_draws_path_edges() {
        let mut s = DepStream::new();
        s.record(1, "load", "load", 0, 2, vec![]);
        s.record(2, "fmul", "fp_mul_f64", 3, 7, vec![1]);
        let rec = depstream_to_trace(&s, &[1, 2], 1000);
        let begins = rec
            .events()
            .filter(|e| matches!(e, crate::trace::TraceEvent::Begin { .. }))
            .count();
        let edges = rec
            .events()
            .filter(|e| matches!(e, crate::trace::TraceEvent::Edge { .. }))
            .count();
        assert_eq!(begins, 2);
        assert_eq!(edges, 1);
        assert_eq!(rec.tracks().len(), 2);
    }
}
