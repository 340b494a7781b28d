//! `salam-obs` — the observability spine of the simulator.
//!
//! Everything in this crate is dependency-free on purpose: the workspace
//! builds offline, and the instrumentation layer must never be the reason a
//! simulation behaves differently. Two pieces:
//!
//! * [`trace`] — a [`TraceSink`] trait plus a ring-buffer [`TraceRecorder`]
//!   collecting sim-time-stamped spans (op issue→retire, DMA transfers,
//!   cache miss fills), instants (stalls, port rejects, interrupts) and
//!   counter samples. The [`SharedTrace`] handle is what components hold;
//!   a disabled handle costs one branch per hook.
//! * [`chrome`] — serialises a recorder into Chrome `trace_event` JSON so
//!   any run opens in Perfetto or `chrome://tracing`, one track per
//!   component, overlapping spans fanned out onto lanes.
//!
//! Metrics live in `salam-telemetry`'s typed registry, which builds on
//! this crate's [`json`] escaping.
//!
//! The profiling layer builds on the spine: [`profile`] defines the
//! per-cycle attribution taxonomy ([`profile::Attribution`]) and the
//! compact dependency stream the engine records ([`profile::DepStream`]),
//! and [`critpath`] extracts the realized critical path, per-op slack and
//! per-FU-class headroom from that stream.
//!
//! Two support modules ride along: [`det`] (a SplitMix64 PRNG and a tiny
//! seeded-case property harness, replacing the `rand`/`proptest` crates.io
//! dependencies) and [`json`] (a minimal JSON reader the golden tests use
//! to validate exported traces).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod critpath;
pub mod det;
pub mod json;
pub mod profile;
pub mod trace;

pub use chrome::{export_chrome_json, write_chrome_trace};
pub use critpath::{analyze, CritPath};
pub use det::SplitMix64;
pub use profile::{
    depstream_to_trace, Attribution, CycleClass, DepMeta, DepOp, DepStream, OpKind,
    DEPSTREAM_FORMAT_VERSION,
};
pub use trace::{SharedTrace, SpanId, TraceEvent, TraceRecorder, TraceSink, TrackId};
