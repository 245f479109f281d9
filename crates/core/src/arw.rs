//! The asymmetric multiple-readers single-writer lock of Section 5.
//!
//! Readers are the *primary* side: each registered reader has its own
//! padded `reading` flag, and a read acquisition is flag-store →
//! `primary_fence()` → check writer intent. Writers are the *secondary*
//! side: they compete on a mutex, publish intent, fence, and then engage in
//! an augmented Dekker protocol **with each registered reader**: remotely
//! serialize it (so its possibly-buffered `reading` flag becomes visible)
//! and wait for it to drain out.
//!
//! Three paper variants, one type:
//!
//! * **SRW** — `AsymRwLock<Symmetric>`: readers pay an `mfence` per read;
//!   the writer trusts `reading` flags directly (no serialization needed).
//! * **ARW** — `AsymRwLock<SignalFence>` with `spin_window == 0`: readers
//!   are fence-free; the writer signals every reader, one by one — the
//!   serializing bottleneck the paper measures in Figure 6(a).
//! * **ARW+** — nonzero `spin_window`: the writer first publishes intent
//!   and spin-waits; readers that notice the intent *acknowledge* it
//!   (executing their own fence), letting the writer skip their signals —
//!   Figure 6(b).

use crate::fence::{full_fence, spin_for, spin_until};
use crate::hooks::{load_u64, store_u64};
use crate::registry::{register_current_thread, Registration};
use crate::stats::Counter;
use crate::strategy::FenceStrategy;
use crate::sync::{CachePadded, Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-registered-reader state.
pub struct ReaderSlot {
    /// Nonzero while the reader is inside (or entering) a read section.
    reading: CachePadded<AtomicU64>,
    /// Intent epoch this reader has acknowledged (ARW+): an ack at epoch
    /// `e` means the reader fenced and will not read until the writer with
    /// epoch `e` finishes.
    acked: CachePadded<AtomicU64>,
    remote: crate::registry::RemoteThread,
    active: AtomicBool,
}

/// The reader-biased readers-writer lock.
pub struct AsymRwLock<S: FenceStrategy> {
    strategy: Arc<S>,
    /// Writer intent: 0 = none, otherwise the active writer's epoch.
    write_intent: CachePadded<AtomicU64>,
    /// Monotonic epoch source for writer sessions.
    epoch: AtomicU64,
    writer_mutex: Mutex<()>,
    readers: RwLock<Vec<Arc<ReaderSlot>>>,
    /// ARW+ waiting-heuristic spin budget; 0 disables the heuristic.
    spin_window: u32,
    /// Completed read acquisitions. A [`Counter`]: every reader bumps it
    /// on the fast path, where a shared `fetch_add` would be a fence.
    pub reads: Counter,
    /// Completed write acquisitions.
    pub writes: AtomicU64,
    /// Reads that found writer intent and had to back off.
    pub read_conflicts: Counter,
    /// Reader signals the writer skipped thanks to acknowledgments.
    pub signals_skipped: AtomicU64,
}

impl<S: FenceStrategy> AsymRwLock<S> {
    /// A lock without the waiting heuristic (plain ARW / SRW).
    pub fn new(strategy: Arc<S>) -> Self {
        Self::with_spin_window(strategy, 0)
    }

    /// A lock with the ARW+ waiting heuristic: the writer spins up to
    /// `spin_window` iterations for reader acknowledgments before
    /// signaling.
    pub fn with_spin_window(strategy: Arc<S>, spin_window: u32) -> Self {
        AsymRwLock {
            strategy,
            write_intent: CachePadded::new(AtomicU64::new(0)),
            epoch: AtomicU64::new(1),
            writer_mutex: Mutex::new(()),
            readers: RwLock::new(Vec::new()),
            spin_window,
            reads: Counter::new(),
            writes: AtomicU64::new(0),
            read_conflicts: Counter::new(),
            signals_skipped: AtomicU64::new(0),
        }
    }

    /// The fence strategy in use.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// The ARW+ waiting-heuristic budget (0 = plain ARW/SRW).
    pub fn spin_window(&self) -> u32 {
        self.spin_window
    }

    /// Register the calling thread as a reader. The handle's read path is
    /// only valid on this thread (it is `!Send` by construction through the
    /// registration).
    pub fn register_reader(self: &Arc<Self>) -> ReaderHandle<S> {
        let reg = register_current_thread();
        let slot = Arc::new(ReaderSlot {
            reading: CachePadded::new(AtomicU64::new(0)),
            acked: CachePadded::new(AtomicU64::new(0)),
            remote: reg.remote(),
            active: AtomicBool::new(true),
        });
        self.readers.write().push(slot.clone());
        ReaderHandle {
            lock: Arc::clone(self),
            slot,
            _registration: reg,
        }
    }

    /// Acquire the write lock (the secondary path).
    pub fn write_lock(&self) -> WriteGuard<'_, S> {
        let inner = self.writer_mutex.lock();
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        store_u64(&self.write_intent, epoch, Ordering::Release);
        self.strategy.secondary_fence();

        let readers = self.readers.read();
        if self.spin_window > 0 {
            // ARW+ heuristic: give readers a chance to acknowledge the
            // intent before resorting to signals. The writer's own reader
            // slot (a reader that "turned into a writer", as the paper
            // puts it) is trivially quiescent and skipped.
            spin_for(self.spin_window, || {
                readers
                    .iter()
                    .filter(|r| r.active.load(Ordering::Acquire) && !r.remote.is_current())
                    .all(|r| load_u64(&r.acked, Ordering::Acquire) >= epoch)
            });
        }
        for slot in readers.iter() {
            if !slot.active.load(Ordering::Acquire) || slot.remote.is_current() {
                continue;
            }
            if self.spin_window > 0 && load_u64(&slot.acked, Ordering::Acquire) >= epoch {
                // The reader fenced and parked itself: its `reading == 0`
                // store is visible and it will not re-enter this epoch.
                self.signals_skipped.fetch_add(1, Ordering::Relaxed);
            } else {
                // Serialize the reader so its flag is trustworthy, then
                // wait it out. The one-by-one loop is the serializing
                // bottleneck the paper identifies for the ARW lock.
                self.strategy.serialize_remote(&slot.remote);
            }
            spin_until(|| {
                load_u64(&slot.reading, Ordering::Acquire) == 0 || !slot.active.load(Ordering::Acquire)
            });
        }
        drop(readers);
        self.writes.fetch_add(1, Ordering::Relaxed);
        WriteGuard { lock: self, _inner: inner }
    }

    /// Run `f` under the write lock.
    pub fn with_write<T>(&self, f: impl FnOnce() -> T) -> T {
        let _g = self.write_lock();
        f()
    }

    /// Non-blocking write attempt: fails fast if another writer holds the
    /// lock or any reader is mid-section *after* serialization. On failure
    /// nothing is held and the intent has been withdrawn.
    pub fn try_write_lock(&self) -> Option<WriteGuard<'_, S>> {
        let inner = self.writer_mutex.try_lock()?;
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        store_u64(&self.write_intent, epoch, Ordering::Release);
        self.strategy.secondary_fence();
        let readers = self.readers.read();
        for slot in readers.iter() {
            if !slot.active.load(Ordering::Acquire) || slot.remote.is_current() {
                continue;
            }
            self.strategy.serialize_remote(&slot.remote);
            if load_u64(&slot.reading, Ordering::Acquire) != 0 {
                drop(readers);
                store_u64(&self.write_intent, 0, Ordering::Release);
                return None;
            }
        }
        drop(readers);
        self.writes.fetch_add(1, Ordering::Relaxed);
        Some(WriteGuard { lock: self, _inner: inner })
    }

    /// Number of currently registered (active) readers.
    pub fn active_readers(&self) -> usize {
        self.readers
            .read()
            .iter()
            .filter(|r| r.active.load(Ordering::Acquire))
            .count()
    }
}

/// A registered reader's handle; use from the registering thread.
pub struct ReaderHandle<S: FenceStrategy> {
    lock: Arc<AsymRwLock<S>>,
    slot: Arc<ReaderSlot>,
    _registration: Registration,
}

impl<S: FenceStrategy> ReaderHandle<S> {
    /// Run `f` inside a read section (the primary fast path).
    pub fn read<T>(&self, f: impl FnOnce() -> T) -> T {
        let l = &*self.lock;
        store_u64(&self.slot.reading, 1, Ordering::Release);
        l.strategy.primary_fence(); // the l-mfence position
        let intent = load_u64(&l.write_intent, Ordering::Acquire);
        if intent != 0 {
            self.wait_out_writers(intent);
        }
        let out = f();
        store_u64(&self.slot.reading, 0, Ordering::Release);
        l.reads.bump();
        out
    }

    /// The read entry's conflict path, out of line so the fast path
    /// carries none of its fence and spinning: back off, fence,
    /// acknowledge `intent`, wait, and retry the entry until no writer
    /// is active. The voluntary fence is what makes the acknowledgment
    /// sufficient for the writer to skip the signal (ARW+).
    #[cold]
    #[inline(never)]
    fn wait_out_writers(&self, mut intent: u64) {
        let l = &*self.lock;
        while intent != 0 {
            l.read_conflicts.bump();
            store_u64(&self.slot.reading, 0, Ordering::Release);
            full_fence();
            store_u64(&self.slot.acked, intent, Ordering::Release);
            spin_until(|| load_u64(&l.write_intent, Ordering::Acquire) == 0);
            store_u64(&self.slot.reading, 1, Ordering::Release);
            l.strategy.primary_fence(); // the l-mfence position
            intent = load_u64(&l.write_intent, Ordering::Acquire);
        }
    }

    /// The lock this handle reads on.
    pub fn lock_ref(&self) -> &Arc<AsymRwLock<S>> {
        &self.lock
    }
}

impl<S: FenceStrategy> Drop for ReaderHandle<S> {
    fn drop(&mut self) {
        self.slot.active.store(false, Ordering::Release);
    }
}

/// RAII guard for the write lock.
pub struct WriteGuard<'a, S: FenceStrategy> {
    lock: &'a AsymRwLock<S>,
    _inner: MutexGuard<'a, ()>,
}

impl<S: FenceStrategy> Drop for WriteGuard<'_, S> {
    fn drop(&mut self) {
        store_u64(&self.lock.write_intent, 0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{SignalFence, Symmetric};
    use std::sync::atomic::AtomicI64;
    use std::time::Duration;

    /// Readers observe a consistent (non-torn) pair of values; the writer
    /// updates both halves under the write lock.
    fn stress<S: FenceStrategy>(lock: Arc<AsymRwLock<S>>, readers: usize, iters: u64) {
        let a = Arc::new(AtomicI64::new(0));
        let b = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for _ in 0..readers {
            let l = lock.clone();
            let a = a.clone();
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                let h = l.register_reader();
                for _ in 0..iters {
                    h.read(|| {
                        let x = a.load(Ordering::Relaxed);
                        let y = b.load(Ordering::Relaxed);
                        assert_eq!(x, -y, "torn read: writer ran during read section");
                    });
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(2));
        let l = lock.clone();
        let wa = a.clone();
        let wb = b.clone();
        let writer = std::thread::spawn(move || {
            for i in 1..=(iters / 10).max(5) as i64 {
                l.with_write(|| {
                    wa.store(i, Ordering::Relaxed);
                    // A window where the invariant is broken: readers must
                    // never observe it.
                    std::thread::yield_now();
                    wb.store(-i, Ordering::Relaxed);
                });
            }
        });
        for h in handles {
            h.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(a.load(Ordering::Relaxed), -b.load(Ordering::Relaxed));
    }

    #[test]
    fn srw_variant_stress() {
        stress(Arc::new(AsymRwLock::new(Arc::new(Symmetric::new()))), 2, 1_000);
    }

    #[test]
    fn arw_variant_stress() {
        stress(Arc::new(AsymRwLock::new(Arc::new(SignalFence::new()))), 2, 500);
    }

    #[test]
    fn arw_plus_variant_stress() {
        stress(
            Arc::new(AsymRwLock::with_spin_window(Arc::new(SignalFence::new()), 2_000)),
            2,
            500,
        );
    }

    #[test]
    fn try_write_lock_succeeds_when_idle_and_fails_under_reader() {
        let lock = Arc::new(AsymRwLock::new(Arc::new(Symmetric::new())));
        assert!(lock.try_write_lock().is_some());

        // A reader camping inside a read section must defeat try_write.
        let l = lock.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let reader = std::thread::spawn(move || {
            let h = l.register_reader();
            h.read(|| {
                tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
        });
        rx.recv().unwrap();
        assert!(lock.try_write_lock().is_none());
        release_tx.send(()).unwrap();
        reader.join().unwrap();
        assert!(lock.try_write_lock().is_some());
    }

    #[test]
    fn reader_turned_writer_skips_its_own_slot() {
        // The paper's microbenchmark shape: the same thread reads mostly
        // and occasionally writes. Its write must not serialize (or spin
        // on) its own reader slot.
        let lock = Arc::new(AsymRwLock::with_spin_window(Arc::new(SignalFence::new()), 50_000));
        let l = lock.clone();
        std::thread::spawn(move || {
            let h = l.register_reader();
            for _ in 0..50 {
                h.read(|| {});
            }
            let t0 = std::time::Instant::now();
            l.with_write(|| {});
            // No other readers: the write must be fast (no spin window) and
            // must not signal anyone.
            assert!(t0.elapsed() < std::time::Duration::from_millis(50));
        })
        .join()
        .unwrap();
        assert_eq!(
            lock.strategy().stats().snapshot().serializations_requested,
            0,
            "a lone reader-writer must not serialize itself"
        );
    }

    #[test]
    fn writer_without_readers_proceeds() {
        let lock: Arc<AsymRwLock<SignalFence>> =
            Arc::new(AsymRwLock::new(Arc::new(SignalFence::new())));
        lock.with_write(|| {});
        assert_eq!(lock.writes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reader_fast_path_avoids_full_fences_with_signal_strategy() {
        let lock = Arc::new(AsymRwLock::new(Arc::new(SignalFence::new())));
        let l2 = lock.clone();
        std::thread::spawn(move || {
            let h = l2.register_reader();
            for _ in 0..50 {
                h.read(|| {});
            }
        })
        .join()
        .unwrap();
        let snap = lock.strategy().stats().snapshot();
        assert_eq!(snap.primary_compiler_fences, 50);
        assert_eq!(snap.primary_full_fences, 0);
        assert_eq!(lock.reads.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn writer_signals_each_active_reader_in_plain_arw() {
        let lock = Arc::new(AsymRwLock::new(Arc::new(SignalFence::new())));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let l = lock.clone();
            let s = stop.clone();
            handles.push(std::thread::spawn(move || {
                let h = l.register_reader();
                while !s.load(Ordering::Relaxed) {
                    h.read(|| {});
                }
            }));
        }
        spin_until(|| lock.active_readers() == 3);
        lock.with_write(|| {});
        let snap = lock.strategy().stats().snapshot();
        assert!(
            snap.serializations_requested >= 3,
            "writer must serialize every registered reader, got {}",
            snap.serializations_requested
        );
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn deregistered_readers_are_skipped() {
        let lock: Arc<AsymRwLock<SignalFence>> =
            Arc::new(AsymRwLock::new(Arc::new(SignalFence::new())));
        let l2 = lock.clone();
        std::thread::spawn(move || {
            let h = l2.register_reader();
            h.read(|| {});
            // handle dropped: reader deregisters
        })
        .join()
        .unwrap();
        assert_eq!(lock.active_readers(), 0);
        lock.with_write(|| {});
        assert_eq!(lock.writes.load(Ordering::Relaxed), 1);
    }
}
