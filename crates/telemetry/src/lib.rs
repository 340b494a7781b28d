//! Typed telemetry: the simulator's one metrics registry.
//!
//! Every run, sweep and served request reports through [`Telemetry`]:
//! engine stats, component counters and cache occupancy as gauges, serve
//! and DSE event counts as counters, and latencies as histograms that can
//! answer "what is p99 end-to-end per tenant?". All std-only:
//!
//! * [`Telemetry`] — a registry of monotonic counters, gauges and
//!   log-bucketed [`Histogram`]s with optional `{label="value"}` key
//!   suffixes, a deterministic (merge-order-independent)
//!   [`Telemetry::merge_from`], and dotted-path JSON/table dumps;
//! * [`JobTrace`]/[`TraceCtx`] — request-scoped span trees feeding the
//!   existing Chrome `trace_event` exporter, one per served job;
//! * [`prom`] — Prometheus text exposition (`# TYPE` + counter/gauge
//!   samples + `_bucket`/`_sum`/`_count` histogram series);
//! * [`FlightRecorder`] — an always-on bounded ring of recent lifecycle /
//!   engine events, dumped into a post-mortem artifact when a job dies.
//!
//! Nothing here touches simulation state: recording is either under the
//! caller's existing lock (spans, serve histograms) or behind a cheap
//! `is_enabled()` gate (flight recorder), and the non-perturbation tests
//! in `salam-bench` pin that simulation artifacts are byte-identical with
//! telemetry on and off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

pub mod flight;
pub mod hist;
pub mod prom;
pub mod span;

pub use flight::{FlightEvent, FlightRecorder};
pub use hist::Histogram;
pub use span::{JobTrace, TraceCtx};

use salam_obs::json::escape;

/// Builds a labeled metric key: `base{k="v",k2="v2"}` (Prometheus-style;
/// the exposition encoder and the dotted-path dumps both parse it back).
/// Labels with an empty value are skipped.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::from(base);
    let mut first = true;
    for (k, v) in labels {
        if v.is_empty() {
            continue;
        }
        out.push(if first { '{' } else { ',' });
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    if !first {
        out.push('}');
    }
    out
}

/// A registry of typed metrics: monotonic counters, gauges and
/// histograms, keyed by `base` or `base{label="value"}` names.
///
/// Iteration order is the `BTreeMap` key order, so every export is
/// deterministic regardless of the order metrics were first touched —
/// worker scheduling never shows through.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Adds `n` to the counter `key`, creating it at zero.
    pub fn counter_add(&mut self, key: &str, n: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += n;
    }

    /// Sets the gauge `key` (last write wins, also across merges).
    pub fn gauge_set(&mut self, key: &str, v: f64) {
        self.gauges.insert(key.to_string(), v);
    }

    /// Records one sample into the histogram `key`, creating it empty.
    pub fn record(&mut self, key: &str, v: u64) {
        self.hists.entry(key.to_string()).or_default().record(v);
    }

    /// The histogram at `key`, if any samples were recorded.
    pub fn hist(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// The counter at `key`, zero if never incremented.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The gauge at `key`, if ever set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in key order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Merges another registry into this one: counters add, histograms
    /// merge element-wise, gauges overwrite (last merge wins — gauges are
    /// point-in-time facts, so order dependence is inherent and callers
    /// must not put determinism-sensitive data in gauges).
    pub fn merge_from(&mut self, other: &Telemetry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// The scalar at `key`: a counter, else a gauge. Histograms are read
    /// through [`Telemetry::hist`].
    pub fn get(&self, key: &str) -> Option<f64> {
        match self.counters.get(key) {
            Some(&n) => Some(n as f64),
            None => self.gauge(key),
        }
    }

    /// Sets one gauge per `(name, value)` pair at `prefix.name` (at `name`
    /// when `prefix` is empty) — the bulk import of component stats.
    pub fn merge_prefixed<I, S>(&mut self, prefix: &str, pairs: I)
    where
        I: IntoIterator<Item = (S, f64)>,
        S: AsRef<str>,
    {
        for (name, value) in pairs {
            if prefix.is_empty() {
                self.gauge_set(name.as_ref(), value);
            } else {
                self.gauge_set(&format!("{prefix}.{}", name.as_ref()), value);
            }
        }
    }

    /// Every metric as a dotted `path -> value` pair, in path order:
    /// `base{k="v"}` becomes `base.k.v` and a histogram expands to
    /// `.count/.p50/.p95/.p99/.max/.mean`.
    fn flat(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (k, v) in &self.counters {
            out.insert(dotted(k), *v as f64);
        }
        for (k, v) in &self.gauges {
            out.insert(dotted(k), *v);
        }
        for (k, h) in &self.hists {
            let base = dotted(k);
            out.insert(format!("{base}.count"), h.count() as f64);
            out.insert(format!("{base}.p50"), h.p50() as f64);
            out.insert(format!("{base}.p95"), h.p95() as f64);
            out.insert(format!("{base}.p99"), h.p99() as f64);
            out.insert(format!("{base}.max"), h.max() as f64);
            out.insert(format!("{base}.mean"), h.mean());
        }
        out
    }

    /// A flat JSON object of the dotted paths, `{"path": value, ...}`, in
    /// path order; non-finite values are written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.flat().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  \"{}\": {}", escape(k), fmt_value(*v)));
        }
        out.push_str("\n}\n");
        out
    }

    /// A two-column, aligned text table of the dotted paths for terminal
    /// dumps.
    pub fn to_table(&self) -> String {
        let flat = self.flat();
        let width = flat.keys().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &flat {
            out.push_str(&format!("{k:<width$}  {}\n", fmt_value(*v)));
        }
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/Infinity; null is the conventional stand-in.
        "null".to_string()
    }
}

/// `base{k="v",k2="v2"}` → `base.k.v.k2.v2`, for the dotted-path dumps
/// where `{}` would read as noise.
fn dotted(key: &str) -> String {
    let Some((base, labels)) = split_labels(key) else {
        return key.to_string();
    };
    let mut out = String::from(base);
    for (k, v) in labels {
        out.push('.');
        out.push_str(&k);
        out.push('.');
        out.push_str(&v);
    }
    out
}

/// Splits `base{k="v",...}` into the base name and its label pairs;
/// `None` when the key carries no labels.
pub(crate) fn split_labels(key: &str) -> Option<(&str, Vec<(String, String)>)> {
    let open = key.find('{')?;
    let inner = key[open..].strip_prefix('{')?.strip_suffix('}')?;
    let mut labels = Vec::new();
    for part in inner.split(',') {
        let (k, v) = part.split_once('=')?;
        labels.push((k.to_string(), v.trim_matches('"').to_string()));
    }
    Some((&key[..open], labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_builds_and_splits() {
        let k = labeled(
            "serve.latency.e2e_us",
            &[("class", "regular"), ("tenant", "alice")],
        );
        assert_eq!(
            k,
            "serve.latency.e2e_us{class=\"regular\",tenant=\"alice\"}"
        );
        let (base, labels) = split_labels(&k).unwrap();
        assert_eq!(base, "serve.latency.e2e_us");
        assert_eq!(labels[0], ("class".to_string(), "regular".to_string()));
        assert_eq!(labels[1], ("tenant".to_string(), "alice".to_string()));
        assert_eq!(labeled("plain", &[]), "plain");
        assert!(split_labels("plain").is_none());
        assert_eq!(labeled("x", &[("t", "")]), "x");
    }

    #[test]
    fn merge_is_typed() {
        let mut a = Telemetry::new();
        a.counter_add("jobs", 2);
        a.gauge_set("depth", 5.0);
        a.record("lat", 10);
        let mut b = Telemetry::new();
        b.counter_add("jobs", 3);
        b.gauge_set("depth", 7.0);
        b.record("lat", 20);
        a.merge_from(&b);
        assert_eq!(a.counter("jobs"), 5);
        assert_eq!(a.gauge("depth"), Some(7.0));
        assert_eq!(a.hist("lat").unwrap().count(), 2);
        assert_eq!(a.hist("lat").unwrap().max(), 20);
    }

    #[test]
    fn merge_order_does_not_change_exports() {
        let mut parts: Vec<Telemetry> = Vec::new();
        for w in 0..4u64 {
            let mut t = Telemetry::new();
            for i in 0..50 {
                t.record("lat", (w * 1000 + i * 37) % 5000);
                t.counter_add("n", 1);
            }
            parts.push(t);
        }
        let mut fwd = Telemetry::new();
        for p in &parts {
            fwd.merge_from(p);
        }
        let mut rev = Telemetry::new();
        for p in parts.iter().rev() {
            rev.merge_from(p);
        }
        assert_eq!(fwd.to_json(), rev.to_json());
        assert_eq!(prom::encode(&fwd), prom::encode(&rev));
    }

    #[test]
    fn json_is_sorted_dotted_and_valid() {
        let mut t = Telemetry::new();
        t.record(&labeled("lat_us", &[("class", "cpu")]), 100);
        t.counter_add("done", 1);
        t.gauge_set("a.bad", f64::NAN);
        t.gauge_set("quote\"and\\slash\nctrl\u{1}", 2.0);
        let v = salam_obs::json::parse(&t.to_json()).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert!(keys.is_sorted(), "{keys:?}");
        let num = |k: &str| v.get(k).and_then(|x| x.as_f64());
        assert_eq!(num("done"), Some(1.0));
        assert_eq!(num("quote\"and\\slash\nctrl\u{1}"), Some(2.0));
        assert!(matches!(v.get("a.bad"), Some(salam_obs::json::Value::Null)));
        assert_eq!(num("lat_us.class.cpu.count"), Some(1.0));
        assert!(num("lat_us.class.cpu.p99").unwrap() >= 100.0);
        assert!(t.to_table().contains("\nlat_us.class.cpu.max "));
    }

    #[test]
    fn get_reads_counters_and_gauges_and_merge_prefixed_joins_with_dots() {
        let mut t = Telemetry::new();
        t.counter_add("jobs", 3);
        t.merge_prefixed("cluster0.gemm", [("engine.stall_cycles", 7.0)]);
        t.merge_prefixed("", [("top", 1.0)]);
        t.record("lat", 5);
        assert_eq!(t.get("jobs"), Some(3.0));
        assert_eq!(t.get("cluster0.gemm.engine.stall_cycles"), Some(7.0));
        assert_eq!(t.get("top"), Some(1.0));
        assert_eq!(t.get("lat"), None, "histograms are read through hist()");
    }
}
