//! The asymmetric Dekker protocol (paper Figure 3(a)) over a pluggable
//! [`FenceStrategy`], plus the turn-based tie-break the paper notes is
//! needed against livelock.
//!
//! Roles:
//!
//! * the **primary** thread enters often; its fast path is flag-store →
//!   `strategy.primary_fence()` → flag-load. Under an asymmetric strategy
//!   the fence is compiler-only, so an uncontended entry costs two cache
//!   hits.
//! * **secondary** threads first compete among themselves (an internal
//!   mutex — the paper's "augmented" protocol), then run flag-store →
//!   `mfence` → *remote-serialize the primary* → flag-load.
//!
//! The protocol degenerates to the classic symmetric Dekker when
//! instantiated with [`Symmetric`](crate::strategy::Symmetric).

use crate::fence::spin_until;
use crate::hooks::{load_usize, store_usize};
use crate::registry::{register_current_thread, Registration, RemoteThread};
use crate::stats::bump_owned;
use crate::strategy::FenceStrategy;
use crate::sync::{CachePadded, Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

const TURN_PRIMARY: usize = 0;
const TURN_SECONDARY: usize = 1;

/// Two-party mutual exclusion biased toward the primary thread.
pub struct AsymmetricDekker<S: FenceStrategy> {
    strategy: Arc<S>,
    /// `L1`: the primary's intent flag.
    primary_flag: CachePadded<AtomicUsize>,
    /// `L2`: the (winning) secondary's intent flag.
    secondary_flag: CachePadded<AtomicUsize>,
    /// Tie-break for livelock freedom (the full Dekker protocol).
    turn: CachePadded<AtomicUsize>,
    /// Handle for remotely serializing the primary; set by
    /// [`register_primary`](Self::register_primary).
    primary_thread: OnceLock<RemoteThread>,
    /// Secondaries compete for the right to engage the primary.
    secondary_mutex: Mutex<()>,
    /// Primary critical-section entries. Bumped only by the one
    /// registered primary ([`bump_owned`]: no locked RMW on its path).
    pub primary_entries: AtomicU64,
    /// Secondary critical-section entries.
    pub secondary_entries: AtomicU64,
    /// Times the primary observed a conflict and had to wait or retreat
    /// (single writer, like `primary_entries`).
    pub primary_conflicts: AtomicU64,
}

impl<S: FenceStrategy> AsymmetricDekker<S> {
    /// A protocol instance with no primary registered yet.
    pub fn new(strategy: Arc<S>) -> Self {
        AsymmetricDekker {
            strategy,
            primary_flag: CachePadded::new(AtomicUsize::new(0)),
            secondary_flag: CachePadded::new(AtomicUsize::new(0)),
            turn: CachePadded::new(AtomicUsize::new(TURN_PRIMARY)),
            primary_thread: OnceLock::new(),
            secondary_mutex: Mutex::new(()),
            primary_entries: AtomicU64::new(0),
            secondary_entries: AtomicU64::new(0),
            primary_conflicts: AtomicU64::new(0),
        }
    }

    /// The fence strategy in use.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Register the *calling* thread as the primary. Must be called exactly
    /// once, from the thread that will run the primary fast path.
    ///
    /// # Panics
    ///
    /// Panics if a primary was already registered.
    pub fn register_primary(self: &Arc<Self>) -> Primary<S> {
        let reg = register_current_thread();
        self.primary_thread
            .set(reg.remote())
            .expect("primary already registered");
        Primary {
            dekker: Arc::clone(self),
            _registration: reg,
        }
    }

    /// Acquire as a secondary thread: compete with other secondaries, then
    /// engage the primary with the fenced protocol.
    pub fn secondary_lock(&self) -> SecondaryGuard<'_, S> {
        let inner = self.secondary_mutex.lock();
        loop {
            store_usize(&self.secondary_flag, 1, Ordering::Release); // J1
            self.strategy.secondary_fence(); // J2
            // Remotely force the primary to serialize so its (possibly
            // buffered) flag store becomes visible before we read it.
            if let Some(primary) = self.primary_thread.get() {
                self.strategy.serialize_remote(primary);
            }
            if load_usize(&self.primary_flag, Ordering::Acquire) == 0 {
                // J3: primary not competing — enter.
                self.secondary_entries.fetch_add(1, Ordering::Relaxed);
                return SecondaryGuard { dekker: self, _inner: inner };
            }
            if load_usize(&self.turn, Ordering::Acquire) == TURN_PRIMARY {
                // Retreat and let the primary go first.
                store_usize(&self.secondary_flag, 0, Ordering::Release);
                spin_until(|| {
                    load_usize(&self.turn, Ordering::Acquire) == TURN_SECONDARY
                        || load_usize(&self.primary_flag, Ordering::Acquire) == 0
                });
            } else {
                // Our turn: hold the flag and wait the primary out.
                spin_until(|| load_usize(&self.primary_flag, Ordering::Acquire) == 0);
                self.secondary_entries.fetch_add(1, Ordering::Relaxed);
                return SecondaryGuard { dekker: self, _inner: inner };
            }
        }
    }

    /// Non-blocking secondary attempt; `None` if the primary holds the
    /// critical section (or another secondary holds the inner mutex).
    pub fn try_secondary_lock(&self) -> Option<SecondaryGuard<'_, S>> {
        let inner = self.secondary_mutex.try_lock()?;
        store_usize(&self.secondary_flag, 1, Ordering::Release);
        self.strategy.secondary_fence();
        if let Some(primary) = self.primary_thread.get() {
            self.strategy.serialize_remote(primary);
        }
        if load_usize(&self.primary_flag, Ordering::Acquire) == 0 {
            self.secondary_entries.fetch_add(1, Ordering::Relaxed);
            Some(SecondaryGuard { dekker: self, _inner: inner })
        } else {
            store_usize(&self.secondary_flag, 0, Ordering::Release);
            None
        }
    }
}

/// The primary role: owned by the registered primary thread.
pub struct Primary<S: FenceStrategy> {
    dekker: Arc<AsymmetricDekker<S>>,
    _registration: Registration,
}

impl<S: FenceStrategy> Primary<S> {
    /// The fast-path acquire (lines K1–K2 of Figure 3(a), plus tie-break).
    pub fn lock(&self) -> PrimaryGuard<'_, S> {
        let d = &*self.dekker;
        store_usize(&d.primary_flag, 1, Ordering::Release); // K1: guarded store
        d.strategy.primary_fence(); // the l-mfence position
        if load_usize(&d.secondary_flag, Ordering::Acquire) == 0 {
            // K2: no secondary competing — the common case.
            bump_owned(&d.primary_entries);
            return PrimaryGuard { dekker: d };
        }
        self.lock_contended()
    }

    /// The acquire's conflict path, out of line so the fast path carries
    /// none of its spinning: yield or wait by the turn tie-break, then
    /// retry K1–K2.
    #[cold]
    #[inline(never)]
    fn lock_contended(&self) -> PrimaryGuard<'_, S> {
        let d = &*self.dekker;
        loop {
            bump_owned(&d.primary_conflicts);
            if load_usize(&d.turn, Ordering::Acquire) == TURN_SECONDARY {
                store_usize(&d.primary_flag, 0, Ordering::Release);
                spin_until(|| {
                    load_usize(&d.turn, Ordering::Acquire) == TURN_PRIMARY
                        || load_usize(&d.secondary_flag, Ordering::Acquire) == 0
                });
            } else {
                spin_until(|| load_usize(&d.secondary_flag, Ordering::Acquire) == 0);
                bump_owned(&d.primary_entries);
                return PrimaryGuard { dekker: d };
            }
            store_usize(&d.primary_flag, 1, Ordering::Release);
            d.strategy.primary_fence();
            if load_usize(&d.secondary_flag, Ordering::Acquire) == 0 {
                bump_owned(&d.primary_entries);
                return PrimaryGuard { dekker: d };
            }
        }
    }

    /// Non-blocking fast-path attempt.
    pub fn try_lock(&self) -> Option<PrimaryGuard<'_, S>> {
        let d = &*self.dekker;
        store_usize(&d.primary_flag, 1, Ordering::Release);
        d.strategy.primary_fence();
        if load_usize(&d.secondary_flag, Ordering::Acquire) == 0 {
            bump_owned(&d.primary_entries);
            Some(PrimaryGuard { dekker: d })
        } else {
            bump_owned(&d.primary_conflicts);
            store_usize(&d.primary_flag, 0, Ordering::Release);
            None
        }
    }

    /// Run `f` inside the primary critical section.
    pub fn with_lock<T>(&self, f: impl FnOnce() -> T) -> T {
        let _g = self.lock();
        f()
    }

    /// The protocol instance this primary handle belongs to.
    pub fn dekker(&self) -> &Arc<AsymmetricDekker<S>> {
        &self.dekker
    }
}

/// RAII guard for the primary's critical section.
pub struct PrimaryGuard<'a, S: FenceStrategy> {
    dekker: &'a AsymmetricDekker<S>,
}

impl<S: FenceStrategy> Drop for PrimaryGuard<'_, S> {
    fn drop(&mut self) {
        store_usize(&self.dekker.turn, TURN_SECONDARY, Ordering::Release);
        store_usize(&self.dekker.primary_flag, 0, Ordering::Release); // K6
    }
}

/// RAII guard for a secondary's critical section.
pub struct SecondaryGuard<'a, S: FenceStrategy> {
    dekker: &'a AsymmetricDekker<S>,
    _inner: MutexGuard<'a, ()>,
}

impl<S: FenceStrategy> Drop for SecondaryGuard<'_, S> {
    fn drop(&mut self) {
        store_usize(&self.dekker.turn, TURN_PRIMARY, Ordering::Release);
        store_usize(&self.dekker.secondary_flag, 0, Ordering::Release); // J7
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{SignalFence, Symmetric};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn hammer<S: FenceStrategy>(strategy: Arc<S>, secondaries: usize, iters: u64) {
        let dekker = Arc::new(AsymmetricDekker::new(strategy));
        let counter = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicU64::new(0));

        let d2 = dekker.clone();
        let c2 = counter.clone();
        let in2 = inside.clone();
        let primary = std::thread::spawn(move || {
            let p = d2.register_primary();
            for _ in 0..iters {
                let _g = p.lock();
                let now = in2.fetch_add(1, Ordering::SeqCst);
                assert_eq!(now, 0, "mutual exclusion violated (primary)");
                c2.fetch_add(1, Ordering::Relaxed);
                in2.fetch_sub(1, Ordering::SeqCst);
            }
        });

        // Give the primary a moment to register before secondaries engage.
        std::thread::sleep(Duration::from_millis(5));
        let mut handles = Vec::new();
        for _ in 0..secondaries {
            let d = dekker.clone();
            let c = counter.clone();
            let ins = inside.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters / 10 {
                    let _g = d.secondary_lock();
                    let now = ins.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(now, 0, "mutual exclusion violated (secondary)");
                    c.fetch_add(1, Ordering::Relaxed);
                    ins.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        primary.join().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let expected = iters + secondaries as u64 * (iters / 10);
        assert_eq!(counter.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn symmetric_dekker_mutual_exclusion_stress() {
        hammer(Arc::new(Symmetric::new()), 2, 2_000);
    }

    #[test]
    fn signal_dekker_mutual_exclusion_stress() {
        hammer(Arc::new(SignalFence::new()), 2, 1_000);
    }

    #[test]
    fn membarrier_dekker_mutual_exclusion_stress() {
        if let Some(m) = crate::strategy::MembarrierFence::try_new() {
            hammer(Arc::new(m), 2, 1_000);
        }
    }

    #[test]
    fn primary_try_lock_fails_under_secondary_hold() {
        let dekker = Arc::new(AsymmetricDekker::new(Arc::new(Symmetric::new())));
        let d2 = dekker.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let primary_thread = std::thread::spawn(move || {
            let p = d2.register_primary();
            tx.send(()).unwrap();
            // Wait until the secondary holds the lock, then try.
            done_rx.recv().unwrap();
            assert!(p.try_lock().is_none());
            done_rx.recv().unwrap();
            assert!(p.try_lock().is_some());
        });
        rx.recv().unwrap();
        {
            let _g = dekker.secondary_lock();
            done_tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(30));
        }
        done_tx.send(()).unwrap();
        primary_thread.join().unwrap();
    }

    #[test]
    fn secondary_try_lock_fails_under_primary_hold() {
        let dekker = Arc::new(AsymmetricDekker::new(Arc::new(Symmetric::new())));
        let d2 = dekker.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let primary_thread = std::thread::spawn(move || {
            let p = d2.register_primary();
            let g = p.lock();
            tx.send(()).unwrap();
            done_rx.recv().unwrap();
            drop(g);
        });
        rx.recv().unwrap();
        assert!(dekker.try_secondary_lock().is_none());
        done_tx.send(()).unwrap();
        primary_thread.join().unwrap();
        assert!(dekker.try_secondary_lock().is_some());
    }

    #[test]
    fn counters_track_entries() {
        let dekker = Arc::new(AsymmetricDekker::new(Arc::new(Symmetric::new())));
        let d2 = dekker.clone();
        std::thread::spawn(move || {
            let p = d2.register_primary();
            for _ in 0..10 {
                p.with_lock(|| {});
            }
        })
        .join()
        .unwrap();
        {
            let _g = dekker.secondary_lock();
        }
        assert_eq!(dekker.primary_entries.load(Ordering::Relaxed), 10);
        assert_eq!(dekker.secondary_entries.load(Ordering::Relaxed), 1);
    }
}
