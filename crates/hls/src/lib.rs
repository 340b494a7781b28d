//! # salam-hls
//!
//! The validation references of the paper's §IV-A, rebuilt as independent
//! models:
//!
//! * [`scheduler`] — a static, resource-constrained list scheduler with
//!   innermost-loop pipelining, standing in for **Vivado HLS** as the timing
//!   reference (Fig. 10). It shares per-opcode latencies with the SALAM
//!   engine (the paper feeds both from the same device config) but computes
//!   cycles through an entirely *static* schedule, so agreement between the
//!   two is a genuine cross-model validation.
//! * [`netlist`] — a gate-level-style area/power estimator standing in for
//!   **Synopsys Design Compiler** (Figs. 11, 12). It derives area from
//!   NAND2-equivalent gate counts and power from activity counts observed by
//!   the reference interpreter — a different methodology from the profile-
//!   driven SALAM estimates it validates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod netlist;
pub mod scheduler;

pub use netlist::{estimate_netlist, NetlistReport};
pub use scheduler::{estimate_cycles, BlockTrips, HlsConfig, HlsReport};
