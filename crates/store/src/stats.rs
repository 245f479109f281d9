//! Store-level counters, exported with the same stable-name discipline
//! as [`lbmf::stats::FenceStatsSnapshot`].
//!
//! The read-path counters are deliberately *not* atomic RMWs: a
//! `fetch_add` is a `lock`-prefixed instruction on x86, which drains the
//! store buffer — silently giving every "fence-free" read mfence
//! semantics and invalidating the purity claim the model checker
//! enforces. Each reader owns its slot's counters (single writer), so a
//! plain load-add-store is lossless; the aggregate is folded on demand.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative writer-side and lifecycle counters of one shard (the
/// reader-side gets/hits live in the per-reader slots and are folded in
/// by [`crate::Store::stats`]).
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Lookups served (folded from reader slots).
    pub gets: AtomicU64,
    /// Lookups that found the key (folded from reader slots).
    pub hits: AtomicU64,
    /// Inserts/updates applied.
    pub puts: AtomicU64,
    /// Removes applied (whether or not the key existed).
    pub removes: AtomicU64,
    /// Snapshot tables retired to the limbo list by writers.
    pub tables_retired: AtomicU64,
    /// Retired tables reclaimed (recycled or freed, or poisoned in
    /// [`ReclaimMode::Poison`](crate::shard::ReclaimMode)) once no
    /// reader pin could still protect them.
    pub tables_reclaimed: AtomicU64,
}

impl StoreStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to `counter` (used when folding a retiring reader slot's
    /// private counts into the shard).
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot all counters (relaxed per-field loads; see
    /// `FenceStats::snapshot` for the cross-field caveat).
    pub fn snapshot(&self) -> StoreStatsSnapshot {
        StoreStatsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            tables_retired: self.tables_retired.load(Ordering::Relaxed),
            tables_reclaimed: self.tables_reclaimed.load(Ordering::Relaxed),
        }
    }
}

/// Add `n` to a counter that only the shard's writer updates, under its
/// mutex: a plain load-add-store, the single-writer discipline of
/// [`lbmf::stats::bump_owned`] (DESIGN.md §19), never a locked RMW.
#[inline]
pub(crate) fn add_owned(counter: &AtomicU64, n: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// A point-in-time copy of a store's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStatsSnapshot {
    /// Lookups served.
    pub gets: u64,
    /// Lookups that found the key.
    pub hits: u64,
    /// Inserts/updates applied.
    pub puts: u64,
    /// Removes applied.
    pub removes: u64,
    /// Snapshot tables retired by writers.
    pub tables_retired: u64,
    /// Retired tables reclaimed.
    pub tables_reclaimed: u64,
}

impl StoreStatsSnapshot {
    /// Component-wise sum (used to aggregate shards).
    pub fn merge(&self, other: &StoreStatsSnapshot) -> StoreStatsSnapshot {
        StoreStatsSnapshot {
            gets: self.gets + other.gets,
            hits: self.hits + other.hits,
            puts: self.puts + other.puts,
            removes: self.removes + other.removes,
            tables_retired: self.tables_retired + other.tables_retired,
            tables_reclaimed: self.tables_reclaimed + other.tables_reclaimed,
        }
    }

    /// Every counter as a `(stable_name, value)` pair, in declaration
    /// order. Like `FenceStatsSnapshot::fields`, the names are part of
    /// the observability schema: `/metrics` and `BENCH_<n>.json`
    /// exporters iterate this, so renaming one is a schema change.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("gets", self.gets),
            ("hits", self.hits),
            ("puts", self.puts),
            ("removes", self.removes),
            ("tables_retired", self.tables_retired),
            ("tables_reclaimed", self.tables_reclaimed),
        ]
    }

    /// Per-field saturating difference `self - earlier`: the activity
    /// between two snapshots of one store.
    pub fn diff(&self, earlier: &StoreStatsSnapshot) -> StoreStatsSnapshot {
        StoreStatsSnapshot {
            gets: self.gets.saturating_sub(earlier.gets),
            hits: self.hits.saturating_sub(earlier.hits),
            puts: self.puts.saturating_sub(earlier.puts),
            removes: self.removes.saturating_sub(earlier.removes),
            tables_retired: self.tables_retired.saturating_sub(earlier.tables_retired),
            tables_reclaimed: self.tables_reclaimed.saturating_sub(earlier.tables_reclaimed),
        }
    }
}

impl fmt::Display for StoreStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gets={} hits={} puts={} removes={} | tables retired={} reclaimed={}",
            self.gets, self.hits, self.puts, self.removes, self.tables_retired, self.tables_reclaimed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_cover_every_counter_with_stable_names() {
        let s = StoreStats::new();
        add_owned(&s.puts, 1);
        StoreStats::add(&s.gets, 5);
        let snap = s.snapshot();
        let names: Vec<&str> = snap.fields().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["gets", "hits", "puts", "removes", "tables_retired", "tables_reclaimed"]
        );
        let get = |name: &str| snap.fields().iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("puts"), 1);
        assert_eq!(get("gets"), 5);
    }

    #[test]
    fn diff_and_merge() {
        let a = StoreStatsSnapshot { gets: 10, hits: 8, puts: 2, ..Default::default() };
        let b = StoreStatsSnapshot { gets: 4, hits: 4, puts: 1, ..Default::default() };
        let d = a.diff(&b);
        assert_eq!((d.gets, d.hits, d.puts), (6, 4, 1));
        let m = a.merge(&b);
        assert_eq!((m.gets, m.hits, m.puts), (14, 12, 3));
        assert_eq!(b.diff(&a).gets, 0, "diff saturates");
        assert!(format!("{a}").contains("gets=10"));
    }
}
