//! Noise-aware comparison of two BENCH reports, and the CI regression
//! gate built on it.
//!
//! The threshold question is the whole game on a noisy shared host: a
//! fixed "fail at +5%" gate would page on scheduler jitter daily. Each
//! benchmark instead carries its own coefficient of variation from both
//! recordings, and a delta only counts as *confirmed* when it clears
//! `max(floor, K × max(cv_base, cv_cand))` — i.e. K noise standard
//! deviations, with an absolute floor so near-zero-CV microbenches
//! don't gate on a 0.3% wobble.

use crate::schema::BenchReport;
use lbmf_bench::Table;

/// Gate constants: a delta must exceed both the absolute floor and
/// `SIGMA` times the worse of the two CVs.
const FLOOR: f64 = 0.05;
/// Noise multiplier for the CV-scaled threshold.
const SIGMA: f64 = 3.0;
/// Extra widening for quick-mode recordings (5 ms batches are noisy).
const QUICK_FACTOR: f64 = 2.0;

/// How one benchmark moved between two recordings.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// Benchmark name.
    pub name: String,
    /// Baseline mean, ns/iter.
    pub base_ns: f64,
    /// Candidate mean, ns/iter.
    pub cand_ns: f64,
    /// Relative change of the mean (`+0.10` = 10% slower).
    pub rel: f64,
    /// The threshold this benchmark had to clear to count as real.
    pub threshold: f64,
    /// Classification after the noise test.
    pub verdict: Verdict,
}

/// Outcome per benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Slower by more than the noise threshold.
    Regression,
    /// Faster by more than the noise threshold.
    Improvement,
    /// Within noise.
    Unchanged,
    /// Only in the candidate: a benchmark this change introduced.
    Added,
    /// Only in the baseline: a benchmark this change lost — worth a
    /// human look (a renamed bench reads as one removal plus one
    /// addition).
    Removed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::Unchanged => "ok",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }

    fn is_unpaired(self) -> bool {
        matches!(self, Verdict::Added | Verdict::Removed)
    }
}

/// The full comparison of two reports.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Per-benchmark deltas: matched pairs and removals first (baseline
    /// order), then additions (candidate order).
    pub deltas: Vec<Delta>,
    /// Serialize-percentile observations for matched pairs that carry
    /// them. Advisory only: the percentiles are log2-bucket-granular, so
    /// a note is emitted only when p50 moved by more than one bucket
    /// (beyond 2× in either direction).
    pub serialize_notes: Vec<String>,
    /// Whether the two recordings came from different host shapes
    /// (worth a warning, not an error).
    pub host_mismatch: bool,
}

impl Comparison {
    /// Confirmed regressions only.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.verdict == Verdict::Regression)
    }

    /// Render the comparison as an aligned table plus a verdict line.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["benchmark", "base ns", "cand ns", "delta", "threshold", "verdict"]);
        for d in &self.deltas {
            if d.verdict.is_unpaired() {
                t.row(&[
                    d.name.clone(),
                    fmt_ns(d.base_ns),
                    fmt_ns(d.cand_ns),
                    "-".into(),
                    "-".into(),
                    d.verdict.label().into(),
                ]);
            } else {
                t.row(&[
                    d.name.clone(),
                    fmt_ns(d.base_ns),
                    fmt_ns(d.cand_ns),
                    format!("{:+.1}%", d.rel * 100.0),
                    format!("±{:.1}%", d.threshold * 100.0),
                    d.verdict.label().into(),
                ]);
            }
        }
        let mut out = t.render();
        for note in &self.serialize_notes {
            out.push_str(&format!("note: {note}\n"));
        }
        if self.host_mismatch {
            out.push_str("warning: recordings come from different host shapes; deltas are indicative only\n");
        }
        let n_reg = self.regressions().count();
        if n_reg == 0 {
            out.push_str("no confirmed regressions\n");
        } else {
            out.push_str(&format!("{n_reg} confirmed regression(s)\n"));
        }
        out
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns == 0.0 {
        "-".into()
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.1}ns")
    }
}

/// Compare `cand` against `base`, benchmark by benchmark.
pub fn compare(base: &BenchReport, cand: &BenchReport) -> Comparison {
    let quick = base.quick || cand.quick;
    let mut deltas = Vec::new();
    let mut serialize_notes = Vec::new();
    for b in &base.benchmarks {
        let name = &b.result.name;
        let Some(c) = cand.entry(name) else {
            deltas.push(Delta {
                name: name.clone(),
                base_ns: b.result.mean_ns,
                cand_ns: 0.0,
                rel: 0.0,
                threshold: 0.0,
                verdict: Verdict::Removed,
            });
            continue;
        };
        if let (Some(sb), Some(sc)) = (&b.serialize, &c.serialize) {
            // Log2-bucket percentiles: a move within one bucket (2×) is
            // granularity, not signal — this also absorbs the v1
            // upper-bound → v2 midpoint re-basing, which shifts every
            // value by strictly less than one bucket.
            // The +1 slack: adjacent midpoints (3071 → 6143) and
            // adjacent upper bounds (4095 → 8191) are both 2n+1.
            let beyond = |a: u64, b: u64| a > b.saturating_mul(2).saturating_add(1);
            if beyond(sc.p50, sb.p50) || beyond(sb.p50, sc.p50) {
                serialize_notes.push(format!(
                    "{name}: serialize p50 {} → {} ns (beyond one log2 bucket; advisory)",
                    sb.p50, sc.p50
                ));
            }
        }
        let rel = (c.result.mean_ns - b.result.mean_ns) / b.result.mean_ns;
        let mut threshold = (SIGMA * b.result.cv.max(c.result.cv)).max(FLOOR);
        if quick {
            threshold *= QUICK_FACTOR;
        }
        let verdict = if rel > threshold {
            Verdict::Regression
        } else if rel < -threshold {
            Verdict::Improvement
        } else {
            Verdict::Unchanged
        };
        deltas.push(Delta {
            name: name.clone(),
            base_ns: b.result.mean_ns,
            cand_ns: c.result.mean_ns,
            rel,
            threshold,
            verdict,
        });
    }
    for c in &cand.benchmarks {
        if base.entry(&c.result.name).is_none() {
            deltas.push(Delta {
                name: c.result.name.clone(),
                base_ns: 0.0,
                cand_ns: c.result.mean_ns,
                rel: 0.0,
                threshold: 0.0,
                verdict: Verdict::Added,
            });
        }
    }
    Comparison {
        deltas,
        serialize_notes,
        host_mismatch: base.host != cand.host,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{BenchEntry, HostMeta};
    use lbmf_bench::criterion::BenchResult;

    fn report(entries: &[(&str, f64, f64)], quick: bool) -> BenchReport {
        BenchReport {
            recorded_unix: 0,
            quick,
            host: HostMeta {
                os: "linux".into(),
                arch: "x86_64".into(),
                cpus: 1,
            },
            benchmarks: entries
                .iter()
                .map(|(name, mean, cv)| {
                    BenchEntry::plain(BenchResult {
                        name: name.to_string(),
                        iters: 1000,
                        samples: 5,
                        min_ns: mean * 0.9,
                        mean_ns: *mean,
                        max_ns: mean * 1.1,
                        cv: *cv,
                    })
                })
                .collect(),
        }
    }

    #[test]
    fn thresholds_scale_with_cv() {
        // 10% slower: confirmed for a tight benchmark (cv 1% → threshold
        // max(5%, 3%) = 5%), within noise for a jittery one (cv 5% →
        // threshold 15%).
        let base = report(&[("tight", 100.0, 0.01), ("noisy", 100.0, 0.05)], false);
        let cand = report(&[("tight", 110.0, 0.01), ("noisy", 110.0, 0.05)], false);
        let cmp = compare(&base, &cand);
        assert_eq!(cmp.deltas[0].verdict, Verdict::Regression);
        assert_eq!(cmp.deltas[1].verdict, Verdict::Unchanged);
        assert_eq!(cmp.regressions().count(), 1);
        let text = cmp.render();
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("1 confirmed regression"), "{text}");
    }

    #[test]
    fn quick_mode_widens_thresholds() {
        let base = report(&[("x", 100.0, 0.01)], true);
        let cand = report(&[("x", 108.0, 0.01)], false);
        // floor 5% × quick 2 = 10% → +8% is within noise.
        let cmp = compare(&base, &cand);
        assert_eq!(cmp.deltas[0].verdict, Verdict::Unchanged);
        assert_eq!(cmp.deltas[0].threshold, 0.10);
    }

    #[test]
    fn improvements_added_and_removed_are_classified() {
        let base = report(&[("gone", 50.0, 0.0), ("fast", 100.0, 0.0)], false);
        let cand = report(&[("fast", 80.0, 0.0), ("new", 5.0, 0.0)], false);
        let cmp = compare(&base, &cand);
        let by_name = |n: &str| cmp.deltas.iter().find(|d| d.name == n).unwrap().verdict;
        assert_eq!(by_name("gone"), Verdict::Removed, "baseline-only");
        assert_eq!(by_name("fast"), Verdict::Improvement);
        assert_eq!(by_name("new"), Verdict::Added, "candidate-only");
        assert_eq!(cmp.regressions().count(), 0);
        let text = cmp.render();
        assert!(text.contains("removed"), "{text}");
        assert!(text.contains("added"), "{text}");
        assert!(text.contains("no confirmed regressions"));

        // And the same names swap classification when the comparison
        // direction flips.
        let flipped = compare(&cand, &base);
        let by_name = |n: &str| flipped.deltas.iter().find(|d| d.name == n).unwrap().verdict;
        assert_eq!(by_name("gone"), Verdict::Added);
        assert_eq!(by_name("new"), Verdict::Removed);
        assert_eq!(by_name("fast"), Verdict::Regression, "80 → 100 ns");
    }

    #[test]
    fn serialize_moves_within_one_bucket_are_tolerated() {
        use crate::schema::SerializeLatency;
        let with_p50 = |mut r: BenchReport, p50: u64| {
            r.benchmarks[0].serialize = Some(SerializeLatency { p50, p99: p50 * 8, count: 100 });
            r
        };
        let base = with_p50(report(&[("serialize/signal_roundtrip", 100.0, 0.0)], false), 3071);
        // Upper bound 4095 vs midpoint 3071 of the same bucket (the v1 →
        // v2 re-basing), and a genuine one-bucket move: both silent.
        for quiet in [4095u64, 6143] {
            let cand = with_p50(report(&[("serialize/signal_roundtrip", 100.0, 0.0)], false), quiet);
            let cmp = compare(&base, &cand);
            assert!(cmp.serialize_notes.is_empty(), "p50 {quiet} should be within tolerance");
        }
        // More than one bucket away: noted (both directions), advisory.
        for (b, c) in [(3071u64, 12287u64), (12287, 3071)] {
            let cmp = compare(
                &with_p50(report(&[("serialize/signal_roundtrip", 100.0, 0.0)], false), b),
                &with_p50(report(&[("serialize/signal_roundtrip", 100.0, 0.0)], false), c),
            );
            assert_eq!(cmp.serialize_notes.len(), 1, "{b} → {c}");
            assert!(cmp.render().contains("beyond one log2 bucket"));
            assert_eq!(cmp.regressions().count(), 0, "notes never gate");
        }
    }

    #[test]
    fn host_mismatch_is_flagged() {
        let base = report(&[("x", 1.0, 0.0)], false);
        let mut cand = report(&[("x", 1.0, 0.0)], false);
        cand.host.cpus = 16;
        let cmp = compare(&base, &cand);
        assert!(cmp.host_mismatch);
        assert!(cmp.render().contains("different host shapes"));
    }
}
