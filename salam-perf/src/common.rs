//! What every workload hands back to `main`, and small shared helpers.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::speed::Probe;
use crate::stats::{self, Digest};

/// A named value with its unit, for the human-readable table.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as the documentation uses it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `1/s`, `count`, …).
    pub unit: &'static str,
}

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or whose result disagreed
    /// with an earlier result for the same input or with its golden check.
    pub failed: u64,
    /// Set-up durations in reference seconds (see `speed`); the median
    /// is reported.
    pub setup_s: Vec<f64>,
    /// Set-up durations as measured.
    pub raw_setup_s: Vec<f64>,
    /// Operations per reference second (the workload's throughput).
    pub ops_per_s: f64,
    /// Geometric mean over the distinct inputs of each input's median
    /// host time, in reference ms: every input weighs the same, and a median per
    /// input keeps one disturbed run of it from moving the figure.
    pub op_ms_gmean: f64,
    /// Median host latency of one operation, in reference ms.
    pub op_ms_p50: f64,
    /// 90th-percentile host latency of one operation, in reference ms.
    pub op_ms_p90: f64,
    /// The workload's own metrics under their own names.
    pub table: Vec<Metric>,
    /// Host time of every operation, in reference ms, by input key.
    pub op_ms: BTreeMap<String, Vec<f64>>,
    /// The current pass's operation time in reference ms, and as measured.
    pending: (f64, f64),
    /// Each pass's operation time in reference ms, and as measured.
    pass_ms: Vec<(f64, f64)>,
    /// Host speed factor of every operation.
    speeds: Vec<f64>,
    /// Digest of each distinct operation's simulated result, by input key.
    pub results: BTreeMap<String, String>,
    /// Per-layer values of the traced run, by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Problems found by the checks, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// Adds a table row.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.table.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records one operation's result digest under its input key. A key
    /// seen before must produce the same digest; otherwise the operation
    /// counts as failed.
    pub fn result(&mut self, key: &str, digest: String) -> bool {
        match self.results.get(key) {
            Some(prev) if *prev != digest => {
                self.fail(format!("{key}: result changed between repeats"));
                false
            }
            Some(_) => true,
            None => {
                self.results.insert(key.to_string(), digest);
                true
            }
        }
    }

    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// The workload digest: every `(key, result digest)` pair in key order.
    pub fn digest(&self) -> String {
        let mut d = Digest::default();
        for (k, v) in &self.results {
            d.update(k.as_bytes());
            d.update(v.as_bytes());
        }
        d.hex()
    }

    /// Records the measured host time of one operation on input `key`,
    /// which ran at host speed `speed` (see `speed::Probe::between`).
    pub fn time(&mut self, key: &str, ms: f64, speed: f64) {
        self.op_ms
            .entry(key.to_string())
            .or_default()
            .push(ms * speed);
        self.pending.0 += ms * speed;
        self.pending.1 += ms;
        self.speeds.push(speed);
    }

    /// Closes a pass.
    pub fn end_pass(&mut self) {
        self.pass_ms.push(std::mem::take(&mut self.pending));
    }

    /// Measured (unscaled) host time of all closed passes, in seconds.
    pub fn raw_seconds(&self) -> f64 {
        self.pass_ms.iter().map(|p| p.1).sum::<f64>() / 1e3
    }

    /// Sets the throughput and latency figures from the closed passes,
    /// each of `ops_per_pass` operations: operations per reference second
    /// over the median pass, the geometric mean of per-input medians, and
    /// percentiles over all operations. The table also gets the measured
    /// (unscaled) throughput and the median host speed over operations.
    pub fn finish_passes(&mut self, ops_per_pass: usize) {
        let per_s = |ms: f64| ops_per_pass as f64 * 1e3 / ms;
        let scaled: Vec<f64> = self.pass_ms.iter().map(|p| p.0).collect();
        let raw: Vec<f64> = self.pass_ms.iter().map(|p| p.1).collect();
        self.ops_per_s = per_s(stats::median(&scaled));
        self.metric("raw.ops_per_s", per_s(stats::median(&raw)), "1/s");
        let speed = stats::median(&self.speeds);
        self.metric("host_speed", speed, "ratio");
        self.metric("passes", self.pass_ms.len() as f64, "count");
        let medians: Vec<f64> = self.op_ms.values().map(|t| stats::median(t)).collect();
        self.op_ms_gmean = stats::geomean(&medians);
        let all: Vec<f64> = self.op_ms.values().flatten().copied().collect();
        let s = stats::sorted(&all);
        self.op_ms_p50 = stats::percentile(&s, 50.0);
        self.op_ms_p90 = stats::percentile(&s, 90.0);
        self.tail_note(all.len());
    }

    /// States the highest percentile the sample supports with ten samples
    /// beyond it, so a p90 read from fewer than 100 samples is visible.
    pub fn tail_note(&mut self, samples: usize) {
        let tail = stats::tail_percentile(samples).unwrap_or(0.0);
        self.metric("latency_samples", samples as f64, "count");
        self.metric("tail_percentile_supported", tail, "pct");
    }
}

/// A source of host time: [`wall`] or [`thread_cpu`].
pub type Clock = fn() -> Duration;

/// Wall time since the first call.
pub fn wall() -> Duration {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// On-CPU time of the calling thread, from the first field of
/// `/proc/thread-self/schedstat` (nanoseconds). Unlike wall time it
/// leaves out time the thread waited for a CPU, including time the
/// hypervisor of a virtual machine ran other guests, so a single-threaded
/// workload reads the same on a busy host as on a quiet one as long as
/// the work is the same. Falls back to [`wall`] where the file is missing.
///
/// The kernel brings that field up to date only at a scheduler event,
/// which on its own comes once per timer tick; the yield first makes one,
/// so the value is exact to the nanosecond rather than to the tick.
pub fn thread_cpu() -> Duration {
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map_or_else(wall, Duration::from_nanos)
}

/// Probe runs before and after each set-up.
const SETUP_PROBES: u32 = 10;

/// Runs `setup` `reps` times, timed on `clock` with the probe run before
/// and after each, keeps the last result, and records every duration in
/// `rep`, both measured and in reference seconds.
pub fn timed_setup<T>(
    rep: &mut Report,
    reps: usize,
    clock: Clock,
    probe: &Probe,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut last = None;
    let mut before = probe.run(SETUP_PROBES);
    for _ in 0..reps {
        let t = clock();
        last = Some(setup());
        let raw = (clock() - t).as_secs_f64();
        let after = probe.run(SETUP_PROBES);
        rep.raw_setup_s.push(raw);
        rep.setup_s.push(raw * probe.between(before, after));
        before = after;
    }
    last.expect("at least one set-up")
}

/// Whole passes over a fixed list of operations, so every run sees the
/// same mix. Passes continue until `seconds` of wall time are used: a pass
/// starts only when it is expected to end less than half a pass past the
/// deadline.
pub struct Passes {
    t0: Instant,
    seconds: f64,
    min: usize,
    started: usize,
}

impl Passes {
    /// Starts the clock; at least `min` passes will run.
    pub fn new(seconds: f64, min: usize) -> Self {
        Passes {
            t0: Instant::now(),
            seconds,
            min,
            started: 0,
        }
    }

    /// Call before each pass: says whether another one should run.
    pub fn next(&mut self) -> bool {
        let done = self.started;
        let elapsed = self.t0.elapsed().as_secs_f64();
        let more = done < self.min || elapsed + elapsed / done as f64 / 2.0 < self.seconds;
        self.started += usize::from(more);
        more
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Ratio that reads 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_resolves_below_a_tick() {
        // A tick is at least 1 ms; 200 µs of spinning must still show.
        let mut short = Vec::new();
        for _ in 0..20 {
            let (c0, w0) = (thread_cpu(), Instant::now());
            while w0.elapsed() < Duration::from_micros(200) {
                std::hint::spin_loop();
            }
            short.push((thread_cpu() - c0).as_secs_f64());
        }
        let m = stats::median(&short);
        assert!(
            (100e-6..2e-3).contains(&m),
            "median {m} s for 200 µs of work"
        );
    }
}
