//! Per-worker and aggregated runtime statistics.
//!
//! The paper's Figure 5(b) analysis rests on two per-benchmark numbers this
//! module exposes: how many *steal attempts* (each costing a serialization
//! round trip under the asymmetric runtime) there were, and what fraction
//! became *successful steals* — 53.6% for `cholesky`, 72.8% for `lu`, over
//! 90% elsewhere, in the paper's runs.

use lbmf::stats::FenceStatsSnapshot;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters owned by one worker. Only that worker bumps them (its own
/// deque's pushes and pops, its own steal attempts), so each bump is
/// [`lbmf::stats::bump_owned`]: a plain relaxed load and store, no locked
/// RMW on the spawn and pop fast paths.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Jobs pushed onto the worker's own deque (spawns).
    pub pushes: AtomicU64,
    /// Successful pops from the worker's own deque.
    pub pops: AtomicU64,
    /// Pops that hit the THE-protocol conflict path (took the lock).
    pub pop_conflicts: AtomicU64,
    /// Steal attempts against other workers' deques (a deque that looked
    /// empty is skipped, not attempted).
    pub steal_attempts: AtomicU64,
    /// Steals that returned a job.
    pub steals: AtomicU64,
    /// Jobs executed (own or stolen).
    pub executed: AtomicU64,
}

/// Aggregated snapshot across all workers plus the fence strategy's
/// counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeStats {
    /// Jobs pushed (spawns) across all workers.
    pub pushes: u64,
    /// Successful own-deque pops.
    pub pops: u64,
    /// Pops that hit the THE conflict path.
    pub pop_conflicts: u64,
    /// Steal attempts against other deques.
    pub steal_attempts: u64,
    /// Successful steals.
    pub steals: u64,
    /// Jobs executed (own or stolen).
    pub executed: u64,
    /// The fence strategy's counters at snapshot time.
    pub fences: FenceStatsSnapshot,
}

impl RuntimeStats {
    /// Sum per-worker counters and attach the fence snapshot.
    pub fn aggregate<'a>(
        workers: impl Iterator<Item = &'a WorkerStats>,
        fences: FenceStatsSnapshot,
    ) -> Self {
        let mut out = RuntimeStats {
            fences,
            ..Default::default()
        };
        for w in workers {
            out.pushes += w.pushes.load(Ordering::Relaxed);
            out.pops += w.pops.load(Ordering::Relaxed);
            out.pop_conflicts += w.pop_conflicts.load(Ordering::Relaxed);
            out.steal_attempts += w.steal_attempts.load(Ordering::Relaxed);
            out.steals += w.steals.load(Ordering::Relaxed);
            out.executed += w.executed.load(Ordering::Relaxed);
        }
        out
    }

    /// Per-field difference `self - earlier` (saturating), fences
    /// included: the activity between two snapshots.
    pub fn diff(&self, earlier: &RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            pushes: self.pushes.saturating_sub(earlier.pushes),
            pops: self.pops.saturating_sub(earlier.pops),
            pop_conflicts: self.pop_conflicts.saturating_sub(earlier.pop_conflicts),
            steal_attempts: self.steal_attempts.saturating_sub(earlier.steal_attempts),
            steals: self.steals.saturating_sub(earlier.steals),
            executed: self.executed.saturating_sub(earlier.executed),
            fences: self.fences.diff(&earlier.fences),
        }
    }

    /// Fraction of serialization requests that turned into successful
    /// steals — the paper's "signals into successful steals" conversion.
    pub fn steal_conversion(&self) -> f64 {
        if self.fences.serializations_requested == 0 {
            return 1.0;
        }
        self.steals as f64 / self.fences.serializations_requested as f64
    }

    /// Fences the primary (victim) path avoided relative to the symmetric
    /// runtime.
    pub fn fences_avoided(&self) -> u64 {
        self.fences.fences_avoided()
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pushes={} pops={} (conflicts={}) steal_attempts={} steals={} executed={} \
             conversion={:.1}% | {}",
            self.pushes,
            self.pops,
            self.pop_conflicts,
            self.steal_attempts,
            self.steals,
            self.executed,
            self.steal_conversion() * 100.0,
            self.fences
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf::stats::bump_owned;

    #[test]
    fn aggregate_sums_workers() {
        let a = WorkerStats::default();
        let b = WorkerStats::default();
        bump_owned(&a.pushes);
        bump_owned(&a.steals);
        bump_owned(&b.pushes);
        let agg = RuntimeStats::aggregate([&a, &b].into_iter(), FenceStatsSnapshot::default());
        assert_eq!(agg.pushes, 2);
        assert_eq!(agg.steals, 1);
    }

    #[test]
    fn conversion_handles_zero_requests() {
        let s = RuntimeStats::default();
        assert_eq!(s.steal_conversion(), 1.0);
    }

    #[test]
    fn conversion_ratio() {
        let s = RuntimeStats {
            steals: 3,
            fences: FenceStatsSnapshot {
                serializations_requested: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.steal_conversion() - 0.75).abs() < 1e-9);
    }
}
