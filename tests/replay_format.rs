//! Golden-format tests for the versioned `DepStream` serialization that
//! feeds the trace-replay fast path.
//!
//! The fixture at `tests/fixtures/depstream_v1.json` is the checked-in
//! byte-exact output of `DepStream::to_json` for a small hand-built
//! stream. Any change to the event schema, the column order, or the JSON
//! shape makes `golden_fixture_matches_serializer` fail — at which point
//! `DEPSTREAM_FORMAT_VERSION` must be bumped and the fixture regenerated
//! (`REGEN_FIXTURES=1 cargo test --test replay_format`). Tampered
//! version/schema documents must always be rejected loudly: silently
//! replaying a stream recorded under a different schema would produce
//! confidently wrong cycle counts.

use hw_profile::FuKind;
use salam_obs::{DepMeta, DepStream, OpKind};
use salam_replay::{replay, ReplayConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/depstream_v1.json"
);

/// A small but representative stream: two groups, a control transfer,
/// loads/stores with address metadata, and FU-classed compute ops —
/// every column of the on-disk schema carries a nonzero value somewhere.
fn golden_stream() -> DepStream {
    let mut s = DepStream::new();
    let m = DepMeta::default;
    // Entry group: load -> add -> terminator.
    s.record(1, "ld.a", "load", 0, 2, vec![]).meta = DepMeta {
        kind: OpKind::Load,
        latency: 1,
        inst: 0,
        addr: 64,
        size: 4,
        ..m()
    };
    s.record(2, "add.acc", "int_adder", 2, 3, vec![1]).meta = DepMeta {
        latency: 1,
        inst: 1,
        ..m()
    };
    s.record(3, "br.loop", "control", 3, 3, vec![2]).meta = DepMeta { inst: 2, ..m() };
    // Second group, fetched by the terminator: load -> fmul -> store.
    s.record(4, "ld.b", "load", 4, 6, vec![]).meta = DepMeta {
        kind: OpKind::Load,
        latency: 1,
        inst: 3,
        group: 1,
        ctrl: 3,
        addr_dep: 2,
        addr: 128,
        size: 8,
    };
    s.record(5, "fmul.c", "fp_mul_dp", 6, 10, vec![4, 2]).meta = DepMeta {
        latency: 4,
        inst: 4,
        group: 1,
        ctrl: 3,
        ..m()
    };
    s.record(6, "st.c", "store", 10, 12, vec![5]).meta = DepMeta {
        kind: OpKind::Store,
        latency: 1,
        inst: 5,
        group: 1,
        ctrl: 3,
        addr: 256,
        size: 8,
        ..m()
    };
    s
}

fn golden_text() -> String {
    std::fs::read_to_string(FIXTURE).expect(
        "golden fixture exists — regenerate with REGEN_FIXTURES=1 cargo test --test replay_format",
    )
}

/// The serializer's output is byte-identical to the checked-in fixture:
/// any schema or formatting drift fails here first.
#[test]
fn golden_fixture_matches_serializer() {
    let text = golden_stream().to_json();
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &text).expect("write fixture");
        return;
    }
    assert_eq!(
        text,
        golden_text(),
        "DepStream::to_json output drifted from the golden fixture — if the \
         event schema changed on purpose, bump DEPSTREAM_FORMAT_VERSION and \
         regenerate with REGEN_FIXTURES=1 cargo test --test replay_format"
    );
}

/// Fixture -> DepStream -> JSON round-trips byte-identically, and the
/// parsed stream preserves every op, dep edge, and metadata field.
#[test]
fn golden_fixture_round_trips() {
    let golden = golden_text();
    let parsed = DepStream::from_json(&golden).expect("golden fixture parses");
    assert_eq!(parsed.to_json(), golden, "round-trip must be byte-exact");

    let built = golden_stream();
    assert_eq!(parsed.len(), built.len());
    for (p, b) in parsed.ops().iter().zip(built.ops()) {
        assert_eq!(p.uid, b.uid);
        assert_eq!(parsed.name(p.name), built.name(b.name));
        assert_eq!(parsed.class(p.class), built.class(b.class));
        assert_eq!((p.issue, p.commit), (b.issue, b.commit));
        assert_eq!(p.deps, b.deps);
        assert_eq!(p.meta, b.meta);
    }
}

/// A deserialized stream is directly replayable: the fixture drives the
/// analytical scheduler end to end and yields a plausible schedule.
#[test]
fn golden_fixture_is_replayable() {
    let stream = DepStream::from_json(&golden_text()).expect("parses");
    let cfg = ReplayConfig {
        // Replay requires a pool entry for every FU class the stream uses.
        fu_pool: [(FuKind::IntAdder, 1), (FuKind::FpMulF64, 1)]
            .into_iter()
            .collect(),
        ..ReplayConfig::default()
    };
    let out = replay(&stream, &cfg).expect("replays");
    assert!(out.cycles > 0);
    assert_eq!(out.attribution.total(), out.cycles);
    let retimed = out.retimed.expect("retimed stream is on by default");
    assert_eq!(retimed.len(), stream.len());
}

/// A stream stamped with a different format version is refused with an
/// error naming both versions — never silently replayed.
#[test]
fn format_version_tamper_fails_loudly() {
    let tampered = golden_text().replace("\"format_version\": 1", "\"format_version\": 2");
    assert_ne!(tampered, golden_text(), "tamper must hit the version field");
    let err = DepStream::from_json(&tampered).expect_err("version mismatch must be an error");
    assert!(
        err.contains("format_version 2") && err.contains("refusing"),
        "error must name the offending version: {err}"
    );
}

/// A renamed column is a schema change even under the same version number
/// and must be refused too.
#[test]
fn column_schema_tamper_fails_loudly() {
    let tampered = golden_text().replace("\"addr_dep\"", "\"addr_producer\"");
    assert_ne!(tampered, golden_text(), "tamper must hit the column list");
    let err = DepStream::from_json(&tampered).expect_err("schema mismatch must be an error");
    assert!(
        err.contains("column schema") && err.contains("refusing"),
        "error must call out the schema difference: {err}"
    );
}

/// Malformed rows (wrong arity) are rejected with the row index.
#[test]
fn short_row_fails_loudly() {
    let golden = golden_text();
    // Drop the trailing deps array from the first op row.
    let tampered = golden.replace(",[]]", "]");
    assert_ne!(tampered, golden);
    let err = DepStream::from_json(&tampered).expect_err("short row must be an error");
    assert!(
        err.contains("op row"),
        "error must locate the bad row: {err}"
    );
}
