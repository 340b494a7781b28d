//! `salam-perf`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path salam-perf/Cargo.toml -- \
//!     --workload <kernel-suite|soc-cluster|dse-sweep|serve-open|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workloads call the simulator's public entry points with inputs
//! drawn from `--seed`, check every simulated result (golden checks,
//! repeat consistency, and the digest pinned in `pins.json` for the named
//! seeds), and print a table followed by one JSON line. `--trace 0` gives
//! the end-to-end metrics; `--trace 1` runs the workload untraced and then
//! traced for half the time each, writes a Chrome trace under `out/`, and
//! gives the per-layer metrics. See README.md for what each metric means.
//!
//! `--compare <parent> <change>` reads two files of result lines (the last
//! line of each run, one per line, runs paired by position) and applies
//! the gain rule to every end-to-end metric: medians, quartile spread,
//! and the nine-tenths pair-win verdict.

#![forbid(unsafe_code)]

mod common;
mod dse_sweep;
mod kernel_suite;
mod serve_open;
mod soc_cluster;
mod spans;
mod speed;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Report;
use salam_obs::json::{self, Value};
use spans::Tracer;
use stats::DigestCheck;

const WORKLOADS: [&str; 4] = ["kernel-suite", "soc-cluster", "dse-sweep", "serve-open"];

/// End-to-end metrics of `--trace 0`, with units and whether higher
/// values are better.
const E2E: [(&str, &str, bool); 4] = [
    ("setup_s", "s", false),
    ("peak_rss_mib", "MiB", false),
    ("ops_per_s", "1/s", true),
    ("op_ms_gmean", "ms", false),
];

/// Per-layer metrics of `--trace 1`, in output order, with units.
const LAYERS: [(&str, &str); 30] = [
    ("machsuite.build_ms", "ms"),
    ("machsuite.check_ms", "ms"),
    ("llvm-ir.parse_us", "us"),
    ("verify.gate_us", "us"),
    ("cdfg.elaborate_us", "us"),
    ("flow.check_us", "us"),
    ("runtime.self_ms", "ms"),
    ("runtime.ns_per_cycle", "ns"),
    ("runtime.ns_per_inst", "ns"),
    ("runtime.cycles", "count"),
    ("runtime.insts", "count"),
    ("runtime.stall_cycle_share", "ratio"),
    ("memsys.port_ms", "ms"),
    ("memsys.accesses", "count"),
    ("memsys.reject_ratio", "ratio"),
    ("core.cluster_build_ms", "ms"),
    ("core.cluster_run_ms", "ms"),
    ("replay.prepare_ms", "ms"),
    ("replay.point_us", "us"),
    ("dse.cache_store_us", "us"),
    ("dse.bytes_written", "bytes"),
    ("dse.cache_lookup_us", "us"),
    ("dse.hit_ratio", "ratio"),
    ("dse.replayed_ratio", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_ms_p90", "ms"),
    ("serve.run_ms_p90", "ms"),
    ("serve.reuse_ratio", "ratio"),
    ("serve.gen_lag_ms_p90", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Seeds, serve rates and pinned digests.
const PINS: &str = include_str!("../pins.json");

struct Args {
    compare: Option<(String, String)>,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        compare: None,
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--compare" => {
                let parent = value()?.clone();
                a.compare = Some((
                    parent,
                    it.next().ok_or("--compare needs two files")?.clone(),
                ));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.compare.is_some() {
        return Ok(a);
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn pins() -> Value {
    json::parse(PINS).expect("pins.json is valid JSON")
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A scratch directory under `out/` unique to this process, removed when
/// dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `out/<tag>-<pid>`, emptying it first.
    pub fn new(tag: &str) -> ScratchDir {
        let p = out_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("scratch directory under out/ is creatable");
        ScratchDir(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(name: &str, seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Report {
    match name {
        "kernel-suite" => kernel_suite::run(seed, seconds, tracer),
        "soc-cluster" => soc_cluster::run(seed, seconds, tracer),
        "dse-sweep" => dse_sweep::run(seed, seconds, tracer),
        "serve-open" => serve_open::run(seed, seconds, tracer, &pins()),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn print_table(rep: &Report) {
    for m in &rep.table {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    out.push_str(&format!(
        "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
        json::escape(name),
        json::escape(unit)
    ));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("salam-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((parent, change)) = &args.compare {
        return compare(parent, change);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let name = args.workload.as_str();
    let (rep, metrics) = if args.trace {
        traced(name, &args)
    } else {
        untraced(name, &args)
    };
    for p in &rep.problems {
        eprintln!("salam-perf: {name}: {p}");
    }
    let correct = rep.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        rep.attempted.max(1),
        rep.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn header(name: &str, args: &Args, rep: &Report) {
    println!(
        "salam-perf {name} seed={} seconds={} trace={} attempted={} failed={} fail_ratio={:.4}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rep.attempted,
        rep.failed,
        common::ratio(rep.failed as f64, rep.attempted as f64)
    );
}

/// The stats-identity gate: the workload digest must equal the one pinned
/// for this seed, if any. Returns the digest and how it compared.
fn check_pin(name: &str, seed: u64, rep: &mut Report) -> (String, DigestCheck) {
    let digest = rep.digest();
    let pins = pins();
    let pinned = pins
        .get("digests")
        .and_then(|d| d.get(name))
        .and_then(|d| d.get(&seed.to_string()))
        .and_then(Value::as_str);
    let check = stats::check_digest(pinned, &digest);
    if let DigestCheck::Mismatch { pinned } = &check {
        rep.fail(format!("digest {digest} differs from the pin {pinned}"));
    }
    (digest, check)
}

/// `--trace 0`: the end-to-end metrics plus the digest gate.
fn untraced(name: &str, args: &Args) -> (Report, String) {
    let mut rep = run_workload(name, args.seed, args.seconds, None);
    let (digest, check) = check_pin(name, args.seed, &mut rep);
    header(name, args, &rep);
    println!("  digest {digest} ({check:?})");
    let setup_s = stats::median(&rep.setup_s);
    let rss = peak_rss_mib();
    rep.metric("setup_s", setup_s, "s");
    if !rep.raw_setup_s.is_empty() {
        rep.metric("raw.setup_s", stats::median(&rep.raw_setup_s), "s");
    }
    rep.metric("peak_rss_mib", rss, "MiB");
    print_table(&rep);
    let values = [setup_s, rss, rep.ops_per_s, rep.op_ms_gmean];
    let mut m = String::new();
    for ((name, unit, _), v) in E2E.into_iter().zip(values) {
        json_metric(&mut m, name, v, unit);
    }
    (rep, m)
}

/// `--trace 1`: an untraced half and a traced half of the same inputs;
/// the per-layer metrics come from the traced half's spans.
fn traced(name: &str, args: &Args) -> (Report, String) {
    let half = args.seconds / 2.0;
    let plain = run_workload(name, args.seed, half, None);
    let mut tracer = Tracer::new();
    let mut rep = run_workload(name, args.seed, half, Some(&mut tracer));
    let (digest, check) = check_pin(name, args.seed, &mut rep);
    rep.attempted += plain.attempted;
    rep.failed += plain.failed;
    rep.problems.extend(plain.problems.iter().cloned());
    // The traced path must reproduce the untraced results exactly.
    let changed: Vec<String> = rep
        .results
        .iter()
        .filter(|(key, d)| plain.results.get(*key).is_some_and(|p| p != *d))
        .map(|(key, _)| key.clone())
        .collect();
    for key in changed {
        rep.fail(format!("{key}: traced result differs from untraced"));
    }
    let overhead = (rep.op_ms_gmean / plain.op_ms_gmean - 1.0) * 100.0;
    rep.layers.insert("obs.trace_overhead_pct", overhead);
    let path = out_dir().join(format!("trace-{name}-{}.json", args.seed));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| tracer.write_chrome(name, &path));
    header(name, args, &rep);
    println!("  digest {digest} ({check:?})");
    match written {
        Ok(()) => println!("  chrome trace: {}", path.display()),
        Err(e) => eprintln!("salam-perf: writing {}: {e}", path.display()),
    }
    println!(
        "  {:<24} {:>8} {:>12} {:>12}",
        "span", "count", "self_ms", "total_ms"
    );
    for (layer, s) in tracer.layers() {
        println!(
            "  {:<24} {:>8} {:>12.3} {:>12.3}",
            layer,
            s.count,
            s.self_ns as f64 / 1e6,
            s.total_ns as f64 / 1e6
        );
    }
    let mut m = String::new();
    for (layer, unit) in LAYERS {
        let v = rep.layers.get(layer).copied().unwrap_or(0.0);
        println!("  {layer:<28} {v:>16.4} {unit}");
        json_metric(&mut m, layer, v, unit);
    }
    (rep, m)
}

/// `--workload all`: each workload in its own child process, one after
/// the other, so peak RSS stays per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("current executable is known");
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("salam-perf: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("salam-perf: running {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// `--compare`: the gain rule over paired runs of two commits.
fn compare(parent: &str, change: &str) -> ExitCode {
    let (p, c) = match (read_runs(parent), read_runs(change)) {
        (Ok(p), Ok(c)) if p.len() == c.len() && p.len() >= 2 => (p, c),
        (Ok(_), Ok(_)) => {
            eprintln!("salam-perf: --compare needs the same number (>= 2) of runs on each side");
            return ExitCode::from(2);
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("salam-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let values = |runs: &[Value], name: &str| -> Option<Vec<f64>> {
        runs.iter()
            .map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect()
    };
    println!(
        "{:<14} {:>12} {:>12} {:>8} {:>8} {:>5} {:>5} {:>5}  verdict",
        "metric", "parent_p50", "change_p50", "p_sprd", "c_sprd", "wins", "loss", "ties"
    );
    for (name, _, higher) in E2E {
        let (Some(pv), Some(cv)) = (values(&p, name), values(&c, name)) else {
            continue;
        };
        let v = stats::pair_verdict(&pv, &cv, higher);
        println!(
            "{name:<14} {:>12.4} {:>12.4} {:>8.3} {:>8.3} {:>5} {:>5} {:>5}  {}",
            stats::median(&pv),
            stats::median(&cv),
            stats::spread(&pv),
            stats::spread(&cv),
            v.wins,
            v.losses,
            v.ties,
            if v.gain { "gain" } else { "no gain" }
        );
    }
    ExitCode::SUCCESS
}
