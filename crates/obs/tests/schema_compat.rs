//! Schema-compatibility fixtures: the repository's *committed*
//! recordings — `BENCH_3.json` (lbmf-bench/1 era) through
//! `BENCH_7.json` (lbmf-bench/2 era) — must keep parsing under the v3
//! reader, cross-schema compares must stay noise-gated, and a fixture
//! round-tripped through the v3 renderer must re-parse to the same
//! document. This is the test that makes "v1/v2 still parse" a pinned
//! contract instead of a release note.

use lbmf_obs::compare::compare;
use lbmf_obs::schema::{bench_files, BenchReport, SCHEMA};
use std::path::PathBuf;

/// The repository root, where `lbmf-obs record` commits recordings.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn fixture_schema(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let v = lbmf_trace::json::parse(&text).unwrap();
    v.get("schema")
        .and_then(lbmf_trace::json::Json::as_str)
        .expect("fixture has a schema tag")
        .to_string()
}

#[test]
fn every_committed_recording_parses_under_the_v3_reader() {
    let files = bench_files(&repo_root());
    let indices: std::collections::BTreeSet<u64> = files.iter().map(|(i, _)| *i).collect();
    assert!(
        (3..=7).all(|i| indices.contains(&i)),
        "BENCH_3..=BENCH_7 must stay committed (found {indices:?})"
    );
    let mut vintages = std::collections::BTreeSet::new();
    for (idx, path) in &files {
        let report = BenchReport::load(path)
            .unwrap_or_else(|e| panic!("BENCH_{idx} no longer parses under {SCHEMA}: {e}"));
        assert!(!report.benchmarks.is_empty(), "BENCH_{idx} is empty");
        // Pre-v3 recordings carry no pmu blocks; absence must read as
        // None, not as an error or a zeroed reading.
        if fixture_schema(path) != SCHEMA {
            assert!(
                report.benchmarks.iter().all(|b| b.result.pmu.is_none()),
                "BENCH_{idx}: pre-v3 fixtures cannot grow pmu blocks"
            );
        }
        vintages.insert(fixture_schema(path));
    }
    assert!(
        vintages.contains("lbmf-bench/1") && vintages.contains("lbmf-bench/2"),
        "the fixture set must keep covering both legacy schemas: {vintages:?}"
    );
}

#[test]
fn cross_schema_compare_stays_noise_gated() {
    let root = repo_root();
    // v1 (quick) baseline vs v2 (full) candidate: the exact shape an
    // old-baseline CI compare sees after a schema bump.
    let baseline = BenchReport::load(&root.join("BENCH_3.json")).unwrap();
    let candidate = BenchReport::load(&root.join("BENCH_7.json")).unwrap();
    let cmp = compare(&baseline, &candidate);
    assert!(
        !cmp.deltas.is_empty(),
        "shared suite names must still match across schema vintages"
    );
    // Every verdict was reached through a per-benchmark noise floor,
    // and the quick baseline doubles it — visible in the rendering.
    let text = cmp.render();
    assert!(text.contains('%'), "thresholds are relative: {text}");
    // Neither side carries pmu blocks, which must read as "nothing to
    // note", never as an error or a fabricated comparison.
    assert!(
        cmp.pmu_notes.is_empty(),
        "pmu notes from pmu-less fixtures: {:?}",
        cmp.pmu_notes
    );
}

#[test]
fn fixtures_round_trip_through_the_v3_renderer() {
    for (idx, path) in bench_files(&repo_root()) {
        let original = BenchReport::load(&path).unwrap();
        let rendered = original.render();
        assert!(
            rendered.contains(&format!("\"schema\": \"{SCHEMA}\"")),
            "re-render of BENCH_{idx} writes the current schema"
        );
        let reparsed = BenchReport::parse(&rendered)
            .unwrap_or_else(|e| panic!("BENCH_{idx} re-render fails self-parse: {e}"));
        assert_eq!(
            reparsed.render(),
            rendered,
            "BENCH_{idx}: v3 re-render must be a fixed point"
        );
        assert_eq!(reparsed.benchmarks.len(), original.benchmarks.len());
        for (a, b) in original.benchmarks.iter().zip(&reparsed.benchmarks) {
            assert_eq!(a.result.name, b.result.name);
            assert_eq!(a.result.pmu, b.result.pmu, "{}", a.result.name);
        }
    }
}
