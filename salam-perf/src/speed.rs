//! The host's current speed, measured by a fixed probe run between the
//! operations of a workload.
//!
//! The benchmark shares a host whose speed for the same work drifts by a
//! quarter or more within minutes, as other guests load the shared cores,
//! caches and memory. Reading the thread's own CPU time removes the time
//! it waits for a CPU, but not the slower CPU. So every timed workload
//! also runs a small fixed probe between its operations — code of this
//! package alone, so no change to the simulator moves it — and scales its
//! times by `(REFERENCE_MS / probe cost) ^ sensitivity`: a time in
//! reference milliseconds is the time the operation would have taken had
//! the host run the probe at its reference cost. A change to the simulator
//! moves the scaled times as it moves the raw ones; a slow spell of the
//! host moves them much less.
//!
//! The sensitivity says how much more a workload slows down than the
//! probe when the host slows down, as an exponent on the probe's speed
//! ratio. Each workload's value was fitted on 20 runs of 30 s on the
//! reference host (README.md): the value at which the run-to-run spread
//! of its scaled figures was smallest.
//!
//! The probe does what the simulator does most: it allocates, fills and
//! searches an ordered map, and sorts a table that fits the L2 cache. A
//! dependent walk over an 8 MiB table, tried first, followed the host
//! less well: its slow spells slow compute more than memory latency.
//! README.md gives the measured effect.

use std::collections::BTreeMap;

use crate::common::{ms, Clock};

/// The probe cost that defines reference time, in ms. The probe costs
/// 0.8-1.0 ms of thread CPU time on the 2-vCPU host the baselines in
/// README.md were recorded on.
const REFERENCE_MS: f64 = 1.0;

/// Map entries per probe.
const KEYS: u64 = 1_500;

/// Entries of the sorted table (8 bytes each).
const TABLE: usize = 16 << 10;

/// The probe.
pub struct Probe {
    clock: Clock,
    /// The workload's sensitivity to the host's speed, relative to the
    /// probe's.
    sensitivity: f64,
    /// The table each probe sorts a copy of, in scrambled order.
    table: Vec<u64>,
}

impl Probe {
    /// A probe timed on `clock`, for a workload with the given
    /// sensitivity.
    pub fn new(clock: Clock, sensitivity: f64) -> Probe {
        let table = (0..TABLE as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        Probe {
            clock,
            sensitivity,
            table,
        }
    }

    /// Runs the probe `n` times; returns its mean cost per run, in ms.
    pub fn run(&self, n: u32) -> f64 {
        let t = (self.clock)();
        for _ in 0..n {
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let mut map = BTreeMap::new();
            for i in 0..KEYS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                map.insert(x % (4 * KEYS), vec![i; 3]);
            }
            let found: u64 = (0..4 * KEYS)
                .filter_map(|k| map.get(&k))
                .map(|v| v[0])
                .sum();
            let mut sorted = self.table.clone();
            sorted.sort_unstable();
            std::hint::black_box((found, sorted));
        }
        ms((self.clock)() - t) / f64::from(n.max(1))
    }

    /// The host's speed over a stretch of time with probe runs costing
    /// `before_ms` and `after_ms` at its ends, as the factor that turns a
    /// time measured in it into reference time (below 1 when the host was
    /// slower than the reference). Scaling each operation by the probes
    /// around it follows the host's speed more closely than one factor
    /// per pass.
    pub fn between(&self, before_ms: f64, after_ms: f64) -> f64 {
        (2.0 * REFERENCE_MS / (before_ms + after_ms)).powf(self.sensitivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::thread_cpu;

    #[test]
    fn probe_costs_are_positive_and_speed_is_their_inverse() {
        let p = Probe::new(thread_cpu, 1.0);
        let (a, b) = (p.run(2), p.run(1));
        assert!(a > 0.0 && b > 0.0, "costs {a} {b}");
        assert!((p.between(a, a) - REFERENCE_MS / a).abs() < 1e-12);
        assert!((p.between(0.5, 1.5) - REFERENCE_MS).abs() < 1e-12);
        // A slower host (dearer probe) gives a smaller factor.
        assert!(p.between(2.0, 2.0) < p.between(1.0, 1.0));
    }

    #[test]
    fn sensitivity_is_an_exponent_on_the_speed_ratio() {
        let p = Probe::new(thread_cpu, 1.5);
        let half = REFERENCE_MS * 2.0;
        assert!((p.between(half, half) - 0.5f64.powf(1.5)).abs() < 1e-12);
        assert!((p.between(REFERENCE_MS, REFERENCE_MS) - 1.0).abs() < 1e-12);
    }
}
