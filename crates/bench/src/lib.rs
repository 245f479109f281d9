//! Shared plumbing for the experiment harness binaries: tiny CLI parsing,
//! table rendering, and timing helpers. Each paper table/figure has one
//! binary under `src/bin/`; see `EXPERIMENTS.md` at the repository root for
//! the experiment index and the recorded outputs.

pub mod criterion;

use std::time::{Duration, Instant};

/// Minimal flag parser: `--key value`, `--flag`, bare positionals ignored.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    pub fn from(raw: &[&str]) -> Self {
        Args {
            raw: raw.iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.value(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Simple fixed-width table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Run `f` `reps` times and return the minimum duration (robust to noise
/// on a busy shared host).
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    assert!(reps >= 1);
    let mut best: Option<Duration> = None;
    let mut last: Option<T> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        if best.map(|b| dt < b).unwrap_or(true) {
            best = Some(dt);
        }
        last = Some(out);
    }
    (best.unwrap(), last.unwrap())
}

/// The banner of an oversubscribed real-thread run: more threads than
/// the host has CPUs, so the parallel shape is distorted.
pub fn oversubscribed_banner(experiment: &str) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{experiment} (real threads, OVERSUBSCRIBED on a {cpus}-CPU host — shape is distorted)\n"
    )
}

/// Format a ratio with a qualitative marker (`<1` favours the asymmetric
/// runtime).
pub fn ratio_cell(r: f64) -> String {
    format!("{r:.3}")
}

/// Nanoseconds-per-op formatting.
pub fn ns_per_op(total: Duration, ops: u64) -> f64 {
    total.as_nanos() as f64 / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_flags_and_values() {
        let a = Args::from(&["--paper", "--threads", "8", "--scale", "small"]);
        assert!(a.flag("--paper"));
        assert!(!a.flag("--real"));
        assert_eq!(a.value("--threads"), Some("8"));
        assert_eq!(a.get("--threads", 1usize), 8);
        assert_eq!(a.get("--missing", 3u64), 3);
        assert_eq!(a.value("--scale"), Some("small"));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn best_of_returns_min() {
        let mut n = 0u64;
        let (d, _) = best_of(3, || {
            n += 1;
            std::thread::sleep(Duration::from_micros(50 * n));
        });
        assert!(d < Duration::from_millis(5));
    }

    #[test]
    fn ns_per_op_divides() {
        assert_eq!(ns_per_op(Duration::from_nanos(1000), 10), 100.0);
        assert_eq!(ns_per_op(Duration::from_nanos(1000), 0), 1000.0);
    }
}
