//! Minimal drop-in replacement for the slice of the `criterion` API the
//! benches under `benches/` use. The hosts build offline, so the real
//! `criterion` crate (a registry dependency) is unavailable; this module
//! keeps the four bench binaries compiling and producing useful
//! nanosecond-per-iteration numbers with no external dependencies.
//!
//! Protocol per benchmark: calibrate the iteration count by doubling until
//! one batch exceeds the warm-up window, then time `SAMPLES` batches and
//! report the minimum, mean, and maximum per-iteration cost (minimum is
//! the robust statistic on a busy shared host), plus the coefficient
//! of variation across batches — the noise figure `lbmf-obs compare`
//! scales its regression thresholds by. Tune the measurement window with
//! `LBMF_BENCH_MS` (milliseconds per batch, default 50).
//!
//! Structured output: every completed benchmark is also available as a
//! [`BenchResult`] via [`Criterion::results`], and — when the
//! `LBMF_BENCH_JSON=<path>` environment variable is set — appended to
//! `<path>` as one JSON object per line (JSONL). `lbmf-obs record`
//! consumes both forms.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Number of timed batches per benchmark.
const SAMPLES: usize = 5;

fn target_batch() -> Duration {
    let ms = std::env::var("LBMF_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(50);
    Duration::from_millis(ms.max(1))
}

/// One benchmark's structured result: per-iteration nanoseconds and the
/// batch-to-batch noise figure. This is the record `lbmf-obs` persists
/// into `BENCH_<n>.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Full benchmark name (`group/id` for grouped benchmarks).
    pub name: String,
    /// Iterations per timed batch (after calibration).
    pub iters: u64,
    /// Number of timed batches.
    pub samples: usize,
    /// Minimum per-iteration cost across batches, nanoseconds.
    pub min_ns: f64,
    /// Mean per-iteration cost across batches, nanoseconds.
    pub mean_ns: f64,
    /// Maximum per-iteration cost across batches, nanoseconds.
    pub max_ns: f64,
    /// Coefficient of variation of the per-batch means (stddev / mean,
    /// dimensionless). The noise scale for regression thresholds.
    pub cv: f64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl BenchResult {
    /// Render as one JSON object (no trailing newline). Only numbers and
    /// escaped strings — consumable by any JSON parser.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"iters\":{},\"samples\":{},\"min_ns\":{:.3},\"mean_ns\":{:.3},\"max_ns\":{:.3},\"cv\":{:.6}}}",
            json_escape(&self.name),
            self.iters,
            self.samples,
            self.min_ns,
            self.mean_ns,
            self.max_ns,
            self.cv
        )
    }
}

/// Entry point handed to each `criterion_group!` function.
pub struct Criterion {
    target: Duration,
    results: Vec<BenchResult>,
    json_path: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            target: target_batch(),
            results: Vec::new(),
            json_path: std::env::var("LBMF_BENCH_JSON").ok().filter(|p| !p.is_empty()),
        }
    }
}

impl Criterion {
    /// A harness with an explicit measurement window, bypassing
    /// `LBMF_BENCH_MS` (used by `lbmf-obs record --quick`).
    pub fn with_target(target: Duration) -> Self {
        Criterion {
            target: target.max(Duration::from_millis(1)),
            ..Criterion::default()
        }
    }

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let report = run_benchmark(self.target, &mut f);
        println!("{}", report.render(name));
        let result = report.to_result(name);
        if let Some(path) = &self.json_path {
            // Append-mode JSONL so several bench binaries (or groups) can
            // share one collection file; a write failure is reported but
            // never fails the benchmark run itself.
            let line = result.to_json();
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = appended {
                eprintln!("LBMF_BENCH_JSON: cannot append to {path}: {e}");
            }
        }
        self.results.push(result);
        self
    }

    /// Structured results of every benchmark run so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
        }
    }
}

/// A named family of related benchmarks (`group/id` naming, like criterion).
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        self.c.bench_function(&full, f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        self.c.bench_function(&full, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Benchmark identifier within a group; only the `from_parameter` form is
/// used in this repository.
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn from_parameter<P: Display>(p: P) -> Self {
        BenchmarkId(p.to_string())
    }

    pub fn new<P: Display>(function: &str, p: P) -> Self {
        BenchmarkId(format!("{function}/{p}"))
    }
}

/// Passed to the benchmark closure; `iter` times the hot loop.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

struct Report {
    iters: u64,
    min: Duration,
    mean: Duration,
    max: Duration,
    /// Per-batch durations, run order.
    batches: Vec<Duration>,
}

impl Report {
    fn per_iter(&self, d: Duration) -> f64 {
        d.as_nanos() as f64 / self.iters.max(1) as f64
    }

    /// Coefficient of variation of the per-batch means (population
    /// stddev / mean). 0 for fewer than two batches or a zero mean.
    fn cv(&self) -> f64 {
        let n = self.batches.len();
        let mean = self.per_iter(self.mean);
        if n < 2 || mean <= 0.0 {
            return 0.0;
        }
        let var = self
            .batches
            .iter()
            .map(|&d| {
                let x = self.per_iter(d) - mean;
                x * x
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    fn render(&self, name: &str) -> String {
        format!(
            "{name:<44} time: [{:>10.1} ns {:>10.1} ns {:>10.1} ns]  cv {:>5.1}%  ({} iters/batch, {} samples)",
            self.per_iter(self.min),
            self.per_iter(self.mean),
            self.per_iter(self.max),
            self.cv() * 100.0,
            self.iters,
            self.batches.len()
        )
    }

    fn to_result(&self, name: &str) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            iters: self.iters,
            samples: self.batches.len(),
            min_ns: self.per_iter(self.min),
            mean_ns: self.per_iter(self.mean),
            max_ns: self.per_iter(self.max),
            cv: self.cv(),
        }
    }
}

fn run_once<F: FnMut(&mut Bencher)>(iters: u64, f: &mut F) -> Duration {
    let mut b = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    b.elapsed
}

fn run_benchmark<F: FnMut(&mut Bencher)>(target: Duration, f: &mut F) -> Report {
    // Calibration: double the batch size until one batch fills the window.
    let mut iters: u64 = 1;
    loop {
        let dt = run_once(iters, f);
        if dt >= target || iters >= 1 << 30 {
            break;
        }
        if dt < target / 16 {
            iters = iters.saturating_mul(8);
        } else {
            iters = iters.saturating_mul(2);
        }
    }
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    let mut total = Duration::ZERO;
    let mut batches = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let dt = run_once(iters, f);
        min = min.min(dt);
        max = max.max(dt);
        total += dt;
        batches.push(dt);
    }
    Report {
        iters,
        min,
        mean: total / SAMPLES as u32,
        max,
        batches,
    }
}

/// Build the group entry function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::criterion::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Build `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() { $( $group(); )+ }
    };
}

// Re-export the macros under this module's path so bench files can write
// `use lbmf_bench::criterion::{criterion_group, criterion_main, Criterion};`
// — a one-line diff from the upstream `use criterion::{...}`.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut n = 0u64;
        let dt = run_once(1000, &mut |b: &mut Bencher| {
            b.iter(|| n += 1);
        });
        assert_eq!(n, 1000);
        assert!(dt > Duration::ZERO);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::from_parameter(8).0, "8");
        assert_eq!(BenchmarkId::new("f", 8).0, "f/8");
    }

    fn sample_report() -> Report {
        Report {
            iters: 10,
            min: Duration::from_nanos(1000),
            mean: Duration::from_nanos(2000),
            max: Duration::from_nanos(3000),
            batches: vec![
                Duration::from_nanos(1000),
                Duration::from_nanos(2000),
                Duration::from_nanos(3000),
            ],
        }
    }

    #[test]
    fn report_renders_per_iter() {
        let s = sample_report().render("x");
        assert!(s.contains("100.0 ns"), "{s}");
        assert!(s.contains("300.0 ns"), "{s}");
        assert!(s.contains("3 samples"), "{s}");
        assert!(s.contains("cv"), "{s}");
    }

    #[test]
    fn cv_is_stddev_over_mean() {
        // Batches 100/200/300 ns-per-iter: population stddev = sqrt(2/3)*100,
        // mean = 200, so cv = 0.40824...
        let r = sample_report();
        assert!((r.cv() - 0.408_248).abs() < 1e-4, "cv = {}", r.cv());
        // Degenerate cases are 0, not NaN.
        let one = Report {
            batches: vec![Duration::from_nanos(1000)],
            ..sample_report()
        };
        assert_eq!(one.cv(), 0.0);
    }

    #[test]
    fn result_serializes_to_json_line() {
        let res = sample_report().to_result("group/bench \"q\"");
        assert_eq!(res.samples, 3);
        assert_eq!(res.min_ns, 100.0);
        let json = res.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"name\":\"group/bench \\\"q\\\"\""), "{json}");
        assert!(json.contains("\"mean_ns\":200.000"), "{json}");
        assert!(json.contains("\"cv\":0.408"), "{json}");
    }

    #[test]
    fn criterion_collects_results_and_appends_jsonl() {
        let dir = std::env::temp_dir().join(format!(
            "lbmf_bench_json_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.jsonl");
        let mut c = Criterion {
            target: Duration::from_micros(100),
            results: Vec::new(),
            json_path: Some(path.to_str().unwrap().to_string()),
        };
        c.bench_function("jsonl/a", |b| b.iter(|| std::hint::black_box(1 + 1)));
        c.bench_function("jsonl/b", |b| b.iter(|| std::hint::black_box(2 + 2)));
        assert_eq!(c.results().len(), 2);
        assert_eq!(c.results()[0].name, "jsonl/a");
        assert!(c.results()[0].mean_ns > 0.0);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[1].contains("\"name\":\"jsonl/b\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
