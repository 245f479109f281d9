//! `lbmf-obs trend` — per-benchmark trajectory over *every* committed
//! recording.
//!
//! `compare` answers "did the newest recording regress against the one
//! before it?"; `trend` answers the question compare structurally cannot
//! see: slow drift. A benchmark that regresses 2% per recording never
//! trips a pairwise gate whose noise floor is 5%, yet after ten PRs it
//! is 20% slower. So `trend` loads all `BENCH_*.json` files in index
//! order, fits a least-squares line through each benchmark's mean, and
//! reports the slope as %/recording next to the benchmark's own noise
//! floor (the same `max(5%, 3·cv)` rule the compare gate uses, doubled
//! when any recording in the series was `--quick`).
//!
//! Trend is advisory by design — a slope over a handful of points is a
//! hint, not a verdict — but it is a hint that lands in CI output every
//! run, which is how slow drifts get caught while they are still small.

use crate::schema::{bench_files, BenchReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Trajectory classification against the benchmark's noise floor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trajectory {
    /// Total fitted drift is below the noise floor.
    Flat,
    /// Means are falling beyond noise (faster).
    Improving,
    /// Means are rising beyond noise (slower).
    Regressing,
}

impl Trajectory {
    fn label(self) -> &'static str {
        match self {
            Trajectory::Flat => "flat",
            Trajectory::Improving => "improving",
            Trajectory::Regressing => "REGRESSING",
        }
    }
}

/// One benchmark's fitted trajectory.
#[derive(Clone, Debug)]
pub struct TrendRow {
    /// Benchmark name.
    pub name: String,
    /// Recordings the benchmark appears in.
    pub points: usize,
    /// Mean ns/iter in the oldest recording that has it.
    pub first_mean: f64,
    /// Mean ns/iter in the newest.
    pub last_mean: f64,
    /// Least-squares slope, as % of the mean level per recording.
    pub slope_pct_per_rec: f64,
    /// Total fitted drift over the series, % of the fitted start.
    pub drift_pct: f64,
    /// Noise floor: `max(5%, 3·mean cv)`, ×2 if any recording was quick.
    pub noise_pct: f64,
    /// The verdict.
    pub trajectory: Trajectory,
}

/// The full trend report.
#[derive(Clone, Debug, Default)]
pub struct TrendReport {
    /// One row per benchmark with ≥ 2 points, name order.
    pub rows: Vec<TrendRow>,
    /// Recordings loaded (index order).
    pub recordings: usize,
    /// Benchmarks skipped for having a single point.
    pub skipped_single_point: usize,
}

/// Least-squares fit of `ys` against indices `0..n`; returns
/// `(intercept, slope)`.
fn fit(ys: &[f64]) -> (f64, f64) {
    let n = ys.len() as f64;
    let mean_x = (ys.len() - 1) as f64 / 2.0;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, y) in ys.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    let slope = if den == 0.0 { 0.0 } else { num / den };
    (mean_y - slope * mean_x, slope)
}

/// Compute trajectories from already-loaded reports (index order).
pub fn trend_of(reports: &[BenchReport]) -> TrendReport {
    // name -> (means, cvs, any_quick)
    let mut series: BTreeMap<String, (Vec<f64>, Vec<f64>, bool)> = BTreeMap::new();
    for report in reports {
        for b in &report.benchmarks {
            let entry = series.entry(b.result.name.clone()).or_default();
            entry.0.push(b.result.mean_ns);
            entry.1.push(b.result.cv);
            entry.2 |= report.quick;
        }
    }
    let mut rows = Vec::new();
    let mut skipped = 0usize;
    for (name, (means, cvs, any_quick)) in series {
        if means.len() < 2 {
            skipped += 1;
            continue;
        }
        let (intercept, slope) = fit(&means);
        let level = means.iter().sum::<f64>() / means.len() as f64;
        let slope_pct_per_rec = if level > 0.0 { slope / level * 100.0 } else { 0.0 };
        let fitted_first = intercept;
        let fitted_last = intercept + slope * (means.len() - 1) as f64;
        let drift_pct = if fitted_first > 0.0 {
            (fitted_last - fitted_first) / fitted_first * 100.0
        } else {
            0.0
        };
        let mean_cv = cvs.iter().sum::<f64>() / cvs.len() as f64;
        let mut noise_pct = (3.0 * mean_cv * 100.0).max(5.0);
        if any_quick {
            noise_pct *= 2.0;
        }
        let trajectory = if drift_pct.abs() <= noise_pct {
            Trajectory::Flat
        } else if drift_pct > 0.0 {
            Trajectory::Regressing
        } else {
            Trajectory::Improving
        };
        rows.push(TrendRow {
            name,
            points: means.len(),
            first_mean: means[0],
            last_mean: *means.last().unwrap(),
            slope_pct_per_rec,
            drift_pct,
            noise_pct,
            trajectory,
        });
    }
    TrendReport {
        rows,
        recordings: reports.len(),
        skipped_single_point: skipped,
    }
}

/// Load every `BENCH_*.json` under `dir` (index order) and compute the
/// trend. Errors on unreadable files — a trend over silently dropped
/// recordings would misstate the slope.
pub fn trend_dir(dir: &Path) -> Result<TrendReport, String> {
    let files = bench_files(dir);
    let mut reports = Vec::with_capacity(files.len());
    for (_, path) in &files {
        reports.push(BenchReport::load(path)?);
    }
    Ok(trend_of(&reports))
}

impl TrendReport {
    /// Benchmarks currently classified as regressing.
    pub fn regressing(&self) -> impl Iterator<Item = &TrendRow> {
        self.rows
            .iter()
            .filter(|r| r.trajectory == Trajectory::Regressing)
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trend over {} recording(s), {} benchmark(s) ({} single-point skipped):",
            self.recordings,
            self.rows.len(),
            self.skipped_single_point
        );
        if self.rows.is_empty() {
            out.push_str("  (need at least two recordings per benchmark)\n");
            return out;
        }
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:width$}  {:>4} pts  {:>10.1} -> {:>10.1} ns  {:>+7.2}%/rec  drift {:>+7.1}% (noise ±{:.1}%)  {}",
                r.name,
                r.points,
                r.first_mean,
                r.last_mean,
                r.slope_pct_per_rec,
                r.drift_pct,
                r.noise_pct,
                r.trajectory.label(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{BenchEntry, HostMeta};
    use lbmf_bench::criterion::BenchResult;

    fn report(quick: bool, entries: &[(&str, f64, f64)]) -> BenchReport {
        BenchReport {
            recorded_unix: 0,
            quick,
            host: HostMeta::current(),
            benchmarks: entries
                .iter()
                .map(|&(name, mean, cv)| {
                    BenchEntry::plain(BenchResult {
                        name: name.to_string(),
                        iters: 1,
                        samples: 10,
                        min_ns: mean * 0.9,
                        mean_ns: mean,
                        max_ns: mean * 1.1,
                        cv,
                    })
                })
                .collect(),
        }
    }

    #[test]
    fn fits_monotone_drift_and_classifies_against_noise() {
        // 10% per recording upward: far beyond a 1%-cv noise floor.
        let reports: Vec<_> = (0..5)
            .map(|i| {
                report(
                    false,
                    &[
                        ("rising", 100.0 * (1.0 + 0.1 * i as f64), 0.01),
                        ("steady", 100.0 + if i % 2 == 0 { 1.0 } else { -1.0 }, 0.01),
                        ("falling", 200.0 - 20.0 * i as f64, 0.01),
                    ],
                )
            })
            .collect();
        let t = trend_of(&reports);
        assert_eq!(t.recordings, 5);
        let by_name: std::collections::HashMap<_, _> =
            t.rows.iter().map(|r| (r.name.as_str(), r)).collect();
        assert_eq!(by_name["rising"].trajectory, Trajectory::Regressing);
        assert!(by_name["rising"].slope_pct_per_rec > 5.0);
        assert_eq!(by_name["steady"].trajectory, Trajectory::Flat);
        assert_eq!(by_name["falling"].trajectory, Trajectory::Improving);
        assert_eq!(t.regressing().count(), 1);
        let text = t.render();
        assert!(text.contains("REGRESSING"));
        assert!(text.contains("improving"));
    }

    #[test]
    fn quick_recordings_widen_the_noise_floor() {
        // 8% total drift over full recordings: regressing at noise 5%;
        // the same series with one quick recording (noise 10%) is flat.
        let series = |quick_last: bool| {
            vec![
                report(false, &[("b", 100.0, 0.001)]),
                report(false, &[("b", 104.0, 0.001)]),
                report(quick_last, &[("b", 108.0, 0.001)]),
            ]
        };
        assert_eq!(
            trend_of(&series(false)).rows[0].trajectory,
            Trajectory::Regressing
        );
        assert_eq!(trend_of(&series(true)).rows[0].trajectory, Trajectory::Flat);
    }

    #[test]
    fn trend_dir_orders_double_digit_indices_numerically() {
        // BENCH_10 must read *after* BENCH_9, not between BENCH_2 and
        // BENCH_9 as a lexicographic sort would have it. The synthetic
        // series rises 10%/recording in numeric order; read in
        // lexicographic order (10, 2, 9) the same files fit a *falling*
        // line, so the trajectory assertion pins the sort.
        let dir = std::env::temp_dir().join(format!("lbmf_obs_trend_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (n, mean) in [(2u64, 100.0), (9, 110.0), (10, 121.0)] {
            std::fs::write(
                dir.join(format!("BENCH_{n}.json")),
                report(false, &[("b", mean, 0.001)]).render(),
            )
            .unwrap();
        }
        let t = trend_dir(&dir).expect("synthetic recordings load");
        assert_eq!(t.recordings, 3);
        assert_eq!(t.rows[0].first_mean, 100.0, "BENCH_2 is oldest");
        assert_eq!(t.rows[0].last_mean, 121.0, "BENCH_10 is newest");
        assert_eq!(t.rows[0].trajectory, Trajectory::Regressing);
        assert!(t.rows[0].slope_pct_per_rec > 5.0, "{:?}", t.rows[0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_point_benchmarks_are_skipped_not_fitted() {
        let t = trend_of(&[
            report(false, &[("old", 10.0, 0.01), ("both", 10.0, 0.01)]),
            report(false, &[("new", 11.0, 0.01), ("both", 10.0, 0.01)]),
        ]);
        assert_eq!(t.rows.len(), 1, "only `both` has two points");
        assert_eq!(t.skipped_single_point, 2);
    }
}
