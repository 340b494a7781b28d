//! In-memory spans recorded by the benchmark around each layer call, with
//! per-layer self time and a Chrome-trace export through `salam-obs`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Time a span's children spent outside any recorded child span, e.g.
/// the summed duration of the thousands of memory-port calls inside one
/// engine run, which would be too many to record one by one.
#[derive(Debug, Clone)]
struct Aggregate {
    parent: usize,
    name: &'static str,
    ns: u64,
    calls: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Spans (or aggregated calls) of this layer.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl LayerStat {
    /// Mean self time per span, in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time per span, in milliseconds.
    pub fn mean_self_ms(&self) -> f64 {
        self.mean_self_us() / 1e3
    }
}

/// Records spans in memory; nothing is written until [`Tracer::write_chrome`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    aggregates: Vec<Aggregate>,
}

impl Tracer {
    /// An empty recorder whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// Records `calls` calls of layer `name` totalling `time` inside the
    /// innermost open span.
    pub fn aggregate(&mut self, name: &'static str, time: Duration, calls: u64) {
        let parent = *self
            .stack
            .last()
            .expect("aggregates belong to an open span");
        self.aggregates.push(Aggregate {
            parent,
            name,
            ns: time.as_nanos() as u64,
            calls,
        });
    }

    /// Per-layer count, total and self time. Aggregated calls count as
    /// one span each towards `count` and as child time of their parent.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for a in &self.aggregates {
            child_ns[a.parent] += a.ns;
            let e = out.entry(a.name).or_default();
            e.count += a.calls;
            e.total_ns += a.ns;
            e.self_ns += a.ns;
        }
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes every span as a Chrome trace on one track per workload; the
    /// operation id rides in each span's name, aggregated calls become a
    /// counter sample at the end of their parent span.
    pub fn write_chrome(&self, track_name: &str, path: &Path) -> std::io::Result<()> {
        // Begin/end events in time order; at equal timestamps ends come
        // first, and an outer span opens before the spans nested in it.
        let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(self.spans.len() * 2);
        for (i, s) in self.spans.iter().enumerate() {
            events.push((s.start_ns, 1, i));
            events.push((s.end_ns, 0, i));
        }
        events.sort_by_key(|&(ts, kind, i)| {
            let order = if kind == 0 { usize::MAX - i } else { i };
            (ts, kind, order)
        });
        let trace = salam_obs::SharedTrace::enabled();
        let track = trace.track(track_name);
        let mut ids = vec![salam_obs::trace::SpanId::INVALID; self.spans.len()];
        for (ts, kind, i) in events {
            let s = &self.spans[i];
            if kind == 1 {
                ids[i] = trace.begin_span(track, &format!("{} #{}", s.name, s.op), ts * 1000);
            } else {
                for a in self.aggregates.iter().filter(|a| a.parent == i) {
                    let ms = a.ns as f64 / 1e6;
                    trace.counter(track, &format!("{}_ms", a.name), ts * 1000, ms);
                }
                trace.end_span(ids[i], ts * 1000);
            }
        }
        let mut trace = trace;
        let rec = trace.take_recorder().expect("trace is enabled");
        salam_obs::chrome::write_chrome_trace(&rec, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let mut t = Tracer::new();
        let op = t.begin("op", 1);
        let child = t.begin("child", 1);
        std::thread::sleep(Duration::from_millis(2));
        t.end(child);
        t.aggregate("port", Duration::from_millis(1), 10);
        std::thread::sleep(Duration::from_millis(2));
        t.end(op);
        let l = t.layers();
        assert_eq!(l["op"].count, 1);
        assert_eq!(l["port"].count, 10);
        assert_eq!(l["port"].self_ns, 1_000_000);
        assert_eq!(
            l["op"].self_ns,
            l["op"].total_ns - l["child"].total_ns - 1_000_000
        );
    }
}
