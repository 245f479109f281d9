//! Counters for fence and serialization activity.
//!
//! The paper's parallel analysis hinges on two per-run quantities: how many
//! program-based fences the primary path *avoided*, and how many remote
//! serializations (signal round trips) the secondary path *paid*. Every
//! fence strategy carries a [`FenceStats`] so experiments can report both.
//!
//! Counting must not undo what it counts. On x86 a `lock`-prefixed RMW
//! (`fetch_add`) is itself a full fence, so a shared counter bumped on the
//! primary path would hand it back the very `mfence` semantics the
//! asymmetric strategies remove. Two counter shapes avoid that:
//!
//! * [`Counter`] — a count several threads bump. Each live thread owns one
//!   cache-padded row of every `Counter` and bumps it with a plain relaxed
//!   load and store; [`Counter::load`] adds the rows up.
//! * [`bump_owned`] — a plain `AtomicU64` that only one thread ever bumps
//!   by construction (a worker's own deque counts, the Dekker primary's
//!   entries, a store reader slot's gets).

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::sync::CachePadded;

/// Rows in every [`Counter`]: the number of threads that can bump
/// counters through a private row at once. Threads beyond this (and
/// bumps made while a thread's TLS is being torn down) count exactly
/// through one shared row with a locked `fetch_add`.
pub const COUNTER_ROWS: usize = 64;

/// [`ROW`] before the thread's first bump.
const UNCLAIMED: usize = usize::MAX;
/// [`ROW`] of a thread that holds no row: every row was taken when it
/// first bumped, or it has already given its row back at exit.
const SHARED: usize = usize::MAX - 1;

/// Row indexes not held by a live thread. `next` is the first never-used
/// index; `free` holds the indexes exited threads gave back.
struct RowPool {
    next: usize,
    free: Vec<usize>,
}

/// Locked only on a thread's first bump and at its exit. A poisoned lock
/// is recovered: every update leaves the pool valid, and the release runs
/// in a TLS destructor, which must not panic.
static POOL: Mutex<RowPool> = Mutex::new(RowPool {
    next: 0,
    free: Vec::new(),
});

thread_local! {
    /// The calling thread's row index in every [`Counter`], or
    /// [`UNCLAIMED`] / [`SHARED`]. No destructor, so it stays readable
    /// while other thread-locals are destroyed.
    static ROW: Cell<usize> = const { Cell::new(UNCLAIMED) };
    /// Gives the thread's row back to [`POOL`] when the thread exits.
    static RELEASE: RowRelease = const { RowRelease };
}

struct RowRelease;

impl Drop for RowRelease {
    fn drop(&mut self) {
        // From here on this thread counts through the shared row: a bump
        // from a later TLS destructor must not touch a row another
        // thread may already own.
        let row = ROW.with(|r| r.replace(SHARED));
        if row < COUNTER_ROWS {
            // The mutex orders this thread's last row stores before the
            // next owner's first row load.
            POOL.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .free
                .push(row);
        }
    }
}

/// The calling thread's first bump: take a row, or settle for the shared
/// row when none is free or the thread is already tearing down its TLS
/// (it could no longer give a row back).
#[cold]
#[inline(never)]
fn claim_row() -> usize {
    let row = if RELEASE.try_with(|_| ()).is_ok() {
        let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
        match pool.free.pop() {
            Some(row) => row,
            None if pool.next < COUNTER_ROWS => {
                pool.next += 1;
                pool.next - 1
            }
            None => SHARED,
        }
    } else {
        SHARED
    };
    ROW.with(|r| r.set(row));
    row
}

/// Add one to a counter that only the calling thread ever bumps: a plain
/// relaxed load and store, never a locked RMW. Exact as long as the
/// single-writer rule holds; a second writer would lose counts.
#[inline]
pub fn bump_owned(counter: &AtomicU64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(1),
        Ordering::Relaxed,
    );
}

/// A count that many threads bump, without a locked RMW on the bumping
/// path.
///
/// Each live thread owns one cache-padded row (the same index in every
/// `Counter`, claimed once through a thread-local and given back at
/// thread exit), and [`bump`](Self::bump) is [`bump_owned`] on that row.
/// No thread ever stores into another thread's row, so every count is
/// exact: a foreign store could be lost under the owner's in-flight
/// load+store. [`reset`](Self::reset) therefore records a baseline
/// rather than zeroing rows.
pub struct Counter {
    rows: Box<[CachePadded<AtomicU64>; COUNTER_ROWS]>,
    /// Threads without a row of their own (see [`COUNTER_ROWS`]).
    shared: AtomicU64,
    /// Total at the last [`reset`](Self::reset).
    base: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter {
            rows: Box::new([const { CachePadded::new(AtomicU64::new(0)) }; COUNTER_ROWS]),
            shared: AtomicU64::new(0),
            base: AtomicU64::new(0),
        }
    }

    /// Add one on behalf of the calling thread.
    #[inline]
    pub fn bump(&self) {
        let row = ROW.with(Cell::get);
        if row < COUNTER_ROWS {
            bump_owned(&self.rows[row]);
        } else {
            self.bump_cold(row);
        }
    }

    /// The first bump of a thread, or a bump by a thread without a row.
    #[cold]
    #[inline(never)]
    fn bump_cold(&self, row: usize) {
        let row = if row == UNCLAIMED { claim_row() } else { row };
        if row < COUNTER_ROWS {
            bump_owned(&self.rows[row]);
        } else {
            self.shared.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bumps since the last [`reset`](Self::reset): the sum of all rows,
    /// each read with `order`. Exact once the bumping threads are joined
    /// (or otherwise synchronized with); while they run, each row is
    /// individually monotone, so successive loads never go backwards.
    pub fn load(&self, order: Ordering) -> u64 {
        self.total(order)
            .saturating_sub(self.base.load(Ordering::Relaxed))
    }

    /// Start counting from zero again, by recording the current total as
    /// the baseline [`load`](Self::load) subtracts. Bumps in flight on
    /// other threads land on one side of the baseline or the other.
    pub fn reset(&self) {
        self.base
            .store(self.total(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn total(&self, order: Ordering) -> u64 {
        self.rows
            .iter()
            .map(|r| r.load(order))
            .fold(self.shared.load(order), u64::wrapping_add)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.load(Ordering::Relaxed), f)
    }
}

/// Cumulative, thread-safe fence statistics.
#[derive(Debug, Default)]
pub struct FenceStats {
    /// Full hardware fences executed on the primary path.
    pub primary_full_fences: Counter,
    /// Compiler-only fences executed on the primary path (the asymmetric
    /// fast path).
    pub primary_compiler_fences: Counter,
    /// Full fences executed on the secondary path.
    pub secondary_full_fences: Counter,
    /// Remote serializations requested by secondaries.
    pub serializations_requested: Counter,
    /// Remote serializations that required an actual signal/membarrier
    /// round trip (vs. short-circuited).
    pub serializations_delivered: Counter,
}

impl FenceStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot all counters.
    ///
    /// **Not atomic across fields**: each counter is read individually
    /// with `Relaxed` loads, so a snapshot taken while other threads are
    /// bumping counters can mix values from different instants (e.g. a
    /// `serializations_requested` that is already incremented paired with
    /// a `serializations_delivered` that is not yet). Each field is
    /// individually exact and monotone; for cross-field consistency,
    /// snapshot at a quiescent point (threads joined / locks released).
    /// Differencing two snapshots of one phase with
    /// [`FenceStatsSnapshot::diff`] is the supported way to isolate that
    /// phase's activity.
    pub fn snapshot(&self) -> FenceStatsSnapshot {
        FenceStatsSnapshot {
            primary_full_fences: self.primary_full_fences.load(Ordering::Relaxed),
            primary_compiler_fences: self.primary_compiler_fences.load(Ordering::Relaxed),
            secondary_full_fences: self.secondary_full_fences.load(Ordering::Relaxed),
            serializations_requested: self.serializations_requested.load(Ordering::Relaxed),
            serializations_delivered: self.serializations_delivered.load(Ordering::Relaxed),
        }
    }

    /// Count from zero again (between experiment phases), by saving the
    /// current totals as baselines that [`snapshot`](Self::snapshot)
    /// subtracts — see [`Counter::reset`].
    ///
    /// Like [`snapshot`](Self::snapshot), this is **not atomic across
    /// fields**: a concurrent bump can land between the per-field
    /// baselines. Prefer resetting only while the strategy is otherwise
    /// idle — or skip resetting entirely and subtract a phase-start
    /// snapshot via [`FenceStatsSnapshot::diff`].
    pub fn reset(&self) {
        self.primary_full_fences.reset();
        self.primary_compiler_fences.reset();
        self.secondary_full_fences.reset();
        self.serializations_requested.reset();
        self.serializations_delivered.reset();
    }
}

/// A point-in-time copy of [`FenceStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FenceStatsSnapshot {
    /// Full hardware fences executed on the primary path.
    pub primary_full_fences: u64,
    /// Compiler-only fences executed on the primary path.
    pub primary_compiler_fences: u64,
    /// Full fences executed on the secondary path.
    pub secondary_full_fences: u64,
    /// Remote serializations requested by secondaries.
    pub serializations_requested: u64,
    /// Serializations that required an actual round trip.
    pub serializations_delivered: u64,
}

impl FenceStatsSnapshot {
    /// Fences the primary path avoided relative to a symmetric design
    /// (every compiler-only fence would have been a full fence).
    pub fn fences_avoided(&self) -> u64 {
        self.primary_compiler_fences
    }

    /// Every counter as a `(stable_name, value)` pair, in declaration
    /// order. The names are part of the observability schema: exporters
    /// (Prometheus `/metrics`, `BENCH_<n>.json`) iterate this instead of
    /// hand-listing fields, so a counter added here automatically reaches
    /// every export — and renaming one is a schema change.
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("primary_full_fences", self.primary_full_fences),
            ("primary_compiler_fences", self.primary_compiler_fences),
            ("secondary_full_fences", self.secondary_full_fences),
            ("serializations_requested", self.serializations_requested),
            ("serializations_delivered", self.serializations_delivered),
        ]
    }

    /// Per-field difference `self - earlier`: the activity between two
    /// snapshots of the same [`FenceStats`]. Counters are monotone, so on
    /// snapshots taken in order from one instance this is exact per field
    /// (saturating, for robustness against an interleaved
    /// [`FenceStats::reset`]). This replaces hand-subtracting fields when
    /// isolating an experiment phase.
    pub fn diff(&self, earlier: &FenceStatsSnapshot) -> FenceStatsSnapshot {
        FenceStatsSnapshot {
            primary_full_fences: self
                .primary_full_fences
                .saturating_sub(earlier.primary_full_fences),
            primary_compiler_fences: self
                .primary_compiler_fences
                .saturating_sub(earlier.primary_compiler_fences),
            secondary_full_fences: self
                .secondary_full_fences
                .saturating_sub(earlier.secondary_full_fences),
            serializations_requested: self
                .serializations_requested
                .saturating_sub(earlier.serializations_requested),
            serializations_delivered: self
                .serializations_delivered
                .saturating_sub(earlier.serializations_delivered),
        }
    }
}

impl fmt::Display for FenceStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "primary full={} compiler={} | secondary full={} | serialize req={} delivered={}",
            self.primary_full_fences,
            self.primary_compiler_fences,
            self.secondary_full_fences,
            self.serializations_requested,
            self.serializations_delivered
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = FenceStats::new();
        s.primary_full_fences.bump();
        s.primary_compiler_fences.bump();
        s.primary_compiler_fences.bump();
        let snap = s.snapshot();
        assert_eq!(snap.primary_full_fences, 1);
        assert_eq!(snap.primary_compiler_fences, 2);
        assert_eq!(snap.fences_avoided(), 2);
        s.reset();
        assert_eq!(s.snapshot(), FenceStatsSnapshot::default());
    }

    #[test]
    fn diff_isolates_a_phase() {
        let s = FenceStats::new();
        s.primary_compiler_fences.bump();
        s.serializations_requested.bump();
        let start = s.snapshot();
        s.primary_compiler_fences.bump();
        s.primary_compiler_fences.bump();
        s.serializations_requested.bump();
        s.serializations_delivered.bump();
        let phase = s.snapshot().diff(&start);
        assert_eq!(phase.primary_compiler_fences, 2);
        assert_eq!(phase.serializations_requested, 1);
        assert_eq!(phase.serializations_delivered, 1);
        assert_eq!(phase.primary_full_fences, 0);
        // Saturates rather than wrapping if a reset slipped in between.
        let stale = FenceStatsSnapshot {
            primary_compiler_fences: 1_000,
            ..Default::default()
        };
        assert_eq!(s.snapshot().diff(&stale).primary_compiler_fences, 0);
    }

    #[test]
    fn fields_cover_every_counter_with_stable_names() {
        let s = FenceStats::new();
        s.primary_full_fences.bump();
        s.secondary_full_fences.bump();
        s.secondary_full_fences.bump();
        let snap = s.snapshot();
        let fields = snap.fields();
        assert_eq!(
            fields.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            [
                "primary_full_fences",
                "primary_compiler_fences",
                "secondary_full_fences",
                "serializations_requested",
                "serializations_delivered"
            ]
        );
        let get = |name: &str| fields.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("primary_full_fences"), 1);
        assert_eq!(get("secondary_full_fences"), 2);
        assert_eq!(get("serializations_requested"), 0);
    }

    #[test]
    fn concurrent_bumps_are_exact() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100_000 {
                        c.bump();
                    }
                });
            }
        });
        assert_eq!(c.load(Ordering::Relaxed), 800_000);
    }

    #[test]
    fn reused_rows_keep_their_counts() {
        let c = Counter::new();
        for _ in 0..200 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..10 {
                        c.bump();
                    }
                });
            });
        }
        assert_eq!(c.load(Ordering::Relaxed), 2_000);
    }

    #[test]
    fn more_threads_than_rows_count_through_the_shared_row() {
        let c = Counter::new();
        let barrier = std::sync::Barrier::new(COUNTER_ROWS + 4);
        std::thread::scope(|s| {
            for _ in 0..COUNTER_ROWS + 4 {
                s.spawn(|| {
                    // Claim (or fail to claim) a row while every thread is
                    // alive, then bump the rest.
                    c.bump();
                    barrier.wait();
                    for _ in 1..1_000 {
                        c.bump();
                    }
                });
            }
        });
        assert_eq!(c.load(Ordering::Relaxed), (COUNTER_ROWS as u64 + 4) * 1_000);
        assert!(c.shared.load(Ordering::Relaxed) >= 4 * 1_000);
    }

    #[test]
    fn bumps_from_tls_destructors_are_counted() {
        use std::cell::RefCell;
        use std::sync::Arc;
        struct BumpOnExit(Option<Arc<Counter>>);
        impl Drop for BumpOnExit {
            fn drop(&mut self) {
                if let Some(c) = &self.0 {
                    c.bump();
                }
            }
        }
        thread_local! {
            static EARLY: RefCell<BumpOnExit> = const { RefCell::new(BumpOnExit(None)) };
            static LATE: RefCell<BumpOnExit> = const { RefCell::new(BumpOnExit(None)) };
        }
        let c = Arc::new(Counter::new());
        for _ in 0..20 {
            let c = c.clone();
            std::thread::spawn(move || {
                // One destructor registered before the thread's row is
                // claimed, one after: whichever order the runtime runs
                // them in, one of them bumps around the row's release.
                EARLY.with(|e| e.borrow_mut().0 = Some(c.clone()));
                c.bump();
                LATE.with(|l| l.borrow_mut().0 = Some(c.clone()));
            })
            .join()
            .unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn reset_takes_a_baseline() {
        let s = FenceStats::new();
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| {
                    for _ in 0..1_000 {
                        s.primary_compiler_fences.bump();
                    }
                });
            }
        });
        s.reset();
        assert_eq!(s.snapshot(), FenceStatsSnapshot::default());
        std::thread::scope(|sc| {
            for _ in 0..3 {
                sc.spawn(|| {
                    for _ in 0..500 {
                        s.primary_compiler_fences.bump();
                        s.serializations_requested.bump();
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.primary_compiler_fences, 1_500);
        assert_eq!(snap.serializations_requested, 1_500);
        assert_eq!(snap.primary_full_fences, 0);
    }

    #[test]
    fn display_is_readable() {
        let s = FenceStats::new();
        s.serializations_requested.bump();
        let text = format!("{}", s.snapshot());
        assert!(text.contains("serialize req=1"));
    }
}
