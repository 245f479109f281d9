//! The `BENCH_<n>.json` schema: the repo's perf trajectory of record.
//!
//! One file per recording session, written at the repository root and
//! committed, so a regression is a diff you can `git log`. The schema is
//! versioned (`"schema": "lbmf-bench/3"`); `compare` refuses files whose
//! version it does not understand rather than guessing.
//!
//! Schema v3, informally:
//!
//! ```json
//! {
//!   "schema": "lbmf-bench/3",
//!   "recorded_unix": 1754500000,
//!   "quick": true,
//!   "host": {"os": "linux", "arch": "x86_64", "cpus": 1},
//!   "benchmarks": [
//!     {
//!       "name": "dekker_entry/signal",
//!       "strategy": "SignalFence",
//!       "iters": 524288, "samples": 5,
//!       "min_ns": 7.1, "mean_ns": 7.4, "max_ns": 8.0, "cv": 0.04,
//!       "fence_stats": {"primary_full_fences": 0, ...},
//!       "serialize": {"p50": 767, "p99": 49151, "count": 412}
//!     }
//!   ]
//! }
//! ```
//!
//! `strategy`, `fence_stats` and `serialize` are optional — raw-cost
//! benchmarks (`fence/full_fence`) have no strategy, and only workloads
//! that drove remote serializations carry percentiles.
//!
//! **v2 → v3**: added an optional per-benchmark `pmu` block. Every
//! block ever committed (`BENCH_8.json`, `BENCH_9.json`) is the `rdtscp`
//! fallback, whose `cycles_per_op` only restates `mean_ns` in cycles, so
//! the block is no longer written and the reader skips it. v1/v2 files
//! (`BENCH_3.json` … `BENCH_7.json`) parse unchanged.
//!
//! **v1 → v2**: `serialize.p50`/`p99` changed meaning. v1 recorded the
//! raw log2-bucket *upper bound* (always `2^k − 1`: 4095, 8191, ...); v2
//! records the bucket *midpoint*, a central estimate of the same bucket
//! ([`lbmf_trace::Log2Histogram::percentile_midpoint`]). Both are
//! granular to one power of two, so [`parse`](BenchReport::parse) still
//! accepts v1 files and `compare` treats serialize moves within one
//! bucket (2×) as granularity, not signal.

use lbmf_trace::json::{obj, parse, Json};
use lbmf::stats::FenceStatsSnapshot;
use lbmf_bench::criterion::BenchResult;
use std::path::{Path, PathBuf};

/// Current schema identifier. Bump the `/3` on breaking changes.
pub const SCHEMA: &str = "lbmf-bench/3";

/// Prior schema version, still accepted on read: the same shape.
pub const SCHEMA_V2: &str = "lbmf-bench/2";

/// Oldest schema version, still accepted on read: `serialize`
/// percentiles are bucket upper bounds instead of midpoints
/// (a within-one-bucket difference `compare` already tolerates).
pub const SCHEMA_V1: &str = "lbmf-bench/1";

/// Where the recording host ran; compared files from different hosts get
/// a loud warning instead of a silent apples-to-oranges delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostMeta {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism at record time.
    pub cpus: u64,
}

impl HostMeta {
    /// The recording host's metadata.
    pub fn current() -> Self {
        HostMeta {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }
}

/// Serialize round-trip percentiles drained from the trace rings during
/// one benchmark. v2 values are log2-bucket midpoints (central
/// estimates, granular to within 2×); values read from a v1 file are the
/// corresponding bucket upper bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SerializeLatency {
    /// p50 bucket-midpoint estimate, ns.
    pub p50: u64,
    /// p99 bucket-midpoint estimate, ns.
    pub p99: u64,
    /// Round trips observed.
    pub count: u64,
}

/// One benchmark's record: the mini-criterion numbers plus the
/// runtime-level observability captured while it ran.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Timing result from the mini-criterion harness.
    pub result: BenchResult,
    /// Fence-strategy label (`Symmetric`, `SignalFence`, ...) when the
    /// benchmark exercises one.
    pub strategy: Option<String>,
    /// Fence/serialization counters attributable to this benchmark
    /// (snapshot diff across its run).
    pub fence_stats: Option<FenceStatsSnapshot>,
    /// Serialize round-trip latency percentiles, when round trips
    /// happened.
    pub serialize: Option<SerializeLatency>,
}

impl BenchEntry {
    /// A timing-only entry (no strategy attribution).
    pub fn plain(result: BenchResult) -> Self {
        BenchEntry {
            result,
            strategy: None,
            fence_stats: None,
            serialize: None,
        }
    }

    fn to_json(&self) -> Json {
        let r = &self.result;
        let mut fields = vec![
            ("name", Json::Str(r.name.clone())),
            ("iters", Json::Num(r.iters as f64)),
            ("samples", Json::Num(r.samples as f64)),
            ("min_ns", Json::Num(round3(r.min_ns))),
            ("mean_ns", Json::Num(round3(r.mean_ns))),
            ("max_ns", Json::Num(round3(r.max_ns))),
            ("cv", Json::Num(round6(r.cv))),
        ];
        if let Some(s) = &self.strategy {
            fields.push(("strategy", Json::Str(s.clone())));
        }
        if let Some(fs) = &self.fence_stats {
            fields.push((
                "fence_stats",
                Json::Obj(
                    fs.fields()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                        .collect(),
                ),
            ));
        }
        if let Some(sl) = &self.serialize {
            fields.push((
                "serialize",
                obj(vec![
                    ("p50", Json::Num(sl.p50 as f64)),
                    ("p99", Json::Num(sl.p99 as f64)),
                    ("count", Json::Num(sl.count as f64)),
                ]),
            ));
        }
        obj(fields)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("benchmark entry missing \"name\"")?
            .to_string();
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("benchmark {name:?}: missing number {key:?}"))
        };
        let result = BenchResult {
            name: name.clone(),
            iters: num("iters")? as u64,
            samples: num("samples")? as usize,
            min_ns: num("min_ns")?,
            mean_ns: num("mean_ns")?,
            max_ns: num("max_ns")?,
            cv: num("cv")?,
        };
        if result.samples == 0 || result.iters == 0 {
            return Err(format!("benchmark {name:?}: zero samples or iters"));
        }
        if !(result.min_ns > 0.0 && result.min_ns <= result.mean_ns && result.mean_ns <= result.max_ns)
        {
            return Err(format!(
                "benchmark {name:?}: min/mean/max not ordered positive ({}/{}/{})",
                result.min_ns, result.mean_ns, result.max_ns
            ));
        }
        if !(0.0..=10.0).contains(&result.cv) {
            return Err(format!("benchmark {name:?}: implausible cv {}", result.cv));
        }
        let strategy = v.get("strategy").and_then(Json::as_str).map(str::to_string);
        let fence_stats = match v.get("fence_stats") {
            None => None,
            Some(fs) => {
                let field = |key: &str| {
                    fs.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("benchmark {name:?}: fence_stats missing {key:?}"))
                };
                Some(FenceStatsSnapshot {
                    primary_full_fences: field("primary_full_fences")?,
                    primary_compiler_fences: field("primary_compiler_fences")?,
                    secondary_full_fences: field("secondary_full_fences")?,
                    serializations_requested: field("serializations_requested")?,
                    serializations_delivered: field("serializations_delivered")?,
                })
            }
        };
        let serialize = match v.get("serialize") {
            None => None,
            Some(sl) => {
                let field = |key: &str| {
                    sl.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("benchmark {name:?}: serialize missing {key:?}"))
                };
                Some(SerializeLatency {
                    p50: field("p50")?,
                    p99: field("p99")?,
                    count: field("count")?,
                })
            }
        };
        Ok(BenchEntry {
            result,
            strategy,
            fence_stats,
            serialize,
        })
    }
}

/// One recording session: everything `BENCH_<n>.json` holds.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Unix seconds at record time.
    pub recorded_unix: u64,
    /// Whether the quick (CI-smoke) measurement window was used. Quick
    /// numbers are noisier; `compare` widens thresholds accordingly.
    pub quick: bool,
    /// Recording host.
    pub host: HostMeta,
    /// Per-benchmark records.
    pub benchmarks: Vec<BenchEntry>,
}

impl BenchReport {
    /// Serialize to pretty-stable JSON text (one benchmark per line for
    /// reviewable diffs), trailing newline included.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"recorded_unix\": {},\n", self.recorded_unix));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!(
            "  \"host\": {},\n",
            obj(vec![
                ("os", Json::Str(self.host.os.clone())),
                ("arch", Json::Str(self.host.arch.clone())),
                ("cpus", Json::Num(self.host.cpus as f64)),
            ])
            .render()
        ));
        out.push_str("  \"benchmarks\": [\n");
        for (i, b) in self.benchmarks.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&b.to_json().render());
            out.push_str(if i + 1 < self.benchmarks.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse and validate one BENCH file's text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA && schema != SCHEMA_V2 && schema != SCHEMA_V1 {
            return Err(format!(
                "unsupported schema {schema:?} (this build understands {SCHEMA:?}, {SCHEMA_V2:?} and {SCHEMA_V1:?})"
            ));
        }
        let recorded_unix = v
            .get("recorded_unix")
            .and_then(Json::as_u64)
            .ok_or("missing \"recorded_unix\"")?;
        let quick = match v.get("quick") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing \"quick\"".into()),
        };
        let host = v.get("host").ok_or("missing \"host\"")?;
        let host = HostMeta {
            os: host
                .get("os")
                .and_then(Json::as_str)
                .ok_or("host missing \"os\"")?
                .to_string(),
            arch: host
                .get("arch")
                .and_then(Json::as_str)
                .ok_or("host missing \"arch\"")?
                .to_string(),
            cpus: host
                .get("cpus")
                .and_then(Json::as_u64)
                .ok_or("host missing \"cpus\"")?,
        };
        let benchmarks = v
            .get("benchmarks")
            .and_then(Json::as_arr)
            .ok_or("missing \"benchmarks\" array")?;
        if benchmarks.is_empty() {
            return Err("empty \"benchmarks\" array".into());
        }
        let benchmarks = benchmarks
            .iter()
            .map(BenchEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut names: Vec<&str> = benchmarks.iter().map(|b| b.result.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != benchmarks.len() {
            return Err("duplicate benchmark names".into());
        }
        Ok(BenchReport {
            recorded_unix,
            quick,
            host,
            benchmarks,
        })
    }

    /// Load and validate a BENCH file from disk.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Entry by full benchmark name.
    pub fn entry(&self, name: &str) -> Option<&BenchEntry> {
        self.benchmarks.iter().find(|b| b.result.name == name)
    }
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// `BENCH_<n>.json` files under `dir`, sorted ascending by `n`.
pub fn bench_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            found.push((n, e.path()));
        }
    }
    found.sort_unstable();
    found
}

/// Index for the next recording under `dir`. Indices continue the PR
/// numbering that introduced the observatory, so the floor is 3.
pub fn next_index(dir: &Path) -> u64 {
    bench_files(dir).last().map(|(n, _)| n + 1).unwrap_or(0).max(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            recorded_unix: 1_754_500_000,
            quick: true,
            host: HostMeta {
                os: "linux".into(),
                arch: "x86_64".into(),
                cpus: 1,
            },
            benchmarks: vec![
                BenchEntry {
                    result: BenchResult {
                        name: "dekker_entry/signal".into(),
                        iters: 1 << 19,
                        samples: 5,
                        min_ns: 7.125,
                        mean_ns: 7.4,
                        max_ns: 8.0,
                        cv: 0.04,
                    },
                    strategy: Some("SignalFence".into()),
                    fence_stats: Some(FenceStatsSnapshot {
                        primary_compiler_fences: 42,
                        ..Default::default()
                    }),
                    serialize: Some(SerializeLatency {
                        p50: 1023,
                        p99: 65_535,
                        count: 412,
                    }),
                },
                BenchEntry::plain(BenchResult {
                    name: "fence/full_fence".into(),
                    iters: 1 << 20,
                    samples: 5,
                    min_ns: 5.0,
                    mean_ns: 5.5,
                    max_ns: 6.0,
                    cv: 0.02,
                }),
            ],
        }
    }

    #[test]
    fn report_roundtrips_through_text() {
        let r = sample_report();
        let text = r.render();
        assert!(text.ends_with('\n'));
        let back = BenchReport::parse(&text).expect("valid");
        assert_eq!(back, r);
        let e = back.entry("dekker_entry/signal").unwrap();
        assert_eq!(e.strategy.as_deref(), Some("SignalFence"));
        assert_eq!(e.fence_stats.unwrap().primary_compiler_fences, 42);
        assert_eq!(e.serialize.unwrap().p99, 65_535);
        assert!(back.entry("fence/full_fence").unwrap().strategy.is_none());
    }

    #[test]
    fn parse_rejects_broken_reports() {
        let good = sample_report().render();
        for (needle, replacement, why) in [
            ("lbmf-bench/3", "lbmf-bench/9", "unknown schema"),
            ("\"samples\":5", "\"samples\":0", "zero samples"),
            ("\"min_ns\":7.125", "\"min_ns\":9.5", "min above mean"),
            ("\"recorded_unix\": 1754500000,", "", "missing recorded_unix"),
            ("dekker_entry/signal", "fence/full_fence", "duplicate names"),
        ] {
            let bad = good.replacen(needle, replacement, 1);
            assert!(BenchReport::parse(&bad).is_err(), "{why}");
        }
        assert!(BenchReport::parse("{}").is_err());
    }

    #[test]
    fn parse_accepts_v1_and_v2_recordings() {
        // Committed BENCH_3..BENCH_7 predate schema v3; compare must keep
        // reading them.
        let v3_text = sample_report().render();
        let v2 = v3_text.replacen("lbmf-bench/3", "lbmf-bench/2", 1);
        let back = BenchReport::parse(&v2).expect("v2 accepted");
        assert_eq!(back.entry("dekker_entry/signal").unwrap().serialize.unwrap().p50, 1023);
        let v1 = v3_text.replacen("lbmf-bench/3", "lbmf-bench/1", 1);
        let back = BenchReport::parse(&v1).expect("v1 accepted");
        assert_eq!(back.entry("dekker_entry/signal").unwrap().serialize.unwrap().p50, 1023);
    }

    #[test]
    fn bench_file_discovery_and_next_index() {
        let dir = std::env::temp_dir().join(format!("lbmf_obs_schema_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_index(&dir), 3, "floor is the introducing PR");
        for n in [3u64, 10, 4] {
            std::fs::write(dir.join(format!("BENCH_{n}.json")), "{}").unwrap();
        }
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap(); // ignored
        let files = bench_files(&dir);
        assert_eq!(files.iter().map(|(n, _)| *n).collect::<Vec<_>>(), [3, 4, 10]);
        assert_eq!(next_index(&dir), 11);
        std::fs::remove_dir_all(&dir).ok();
    }
}
