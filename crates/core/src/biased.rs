//! A biased lock: the motivating application class of Section 1 (Java
//! monitors with biased locking, JVM/JNI coordination).
//!
//! The lock is permanently biased to one *owner* thread, whose acquire is
//! the asymmetric-Dekker fast path: flag store → `primary_fence()` → flag
//! load. Other threads are *revokers*: they compete on an internal mutex,
//! publish a revocation request, force the owner to serialize, and wait for
//! the owner to drain out of the critical section. Priority goes to the
//! revoker (the owner retreats), which is the standard biased-lock shape —
//! revocation is presumed rare.

use crate::fence::spin_until;
use crate::hooks::{load_usize, store_usize};
use crate::registry::{register_current_thread, Registration, RemoteThread};
use crate::stats::bump_owned;
use crate::strategy::FenceStrategy;
use crate::sync::{CachePadded, Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A lock biased toward one owner thread.
pub struct BiasedLock<S: FenceStrategy> {
    strategy: Arc<S>,
    /// Owner's "I am inside" flag (the guarded location).
    owner_flag: CachePadded<AtomicUsize>,
    /// Nonzero while a revoker wants or holds the lock.
    revoke_flag: CachePadded<AtomicUsize>,
    owner_thread: OnceLock<RemoteThread>,
    revoker_mutex: Mutex<()>,
    /// Owner fast-path acquisitions (bumped only by the owner, with
    /// [`bump_owned`]).
    pub owner_acquires: AtomicU64,
    /// Owner acquisitions that had to wait for a revoker first.
    pub owner_waits: AtomicU64,
    /// Revoker acquisitions.
    pub revocations: AtomicU64,
}

impl<S: FenceStrategy> BiasedLock<S> {
    /// A biased lock with no owner bound yet.
    pub fn new(strategy: Arc<S>) -> Self {
        BiasedLock {
            strategy,
            owner_flag: CachePadded::new(AtomicUsize::new(0)),
            revoke_flag: CachePadded::new(AtomicUsize::new(0)),
            owner_thread: OnceLock::new(),
            revoker_mutex: Mutex::new(()),
            owner_acquires: AtomicU64::new(0),
            owner_waits: AtomicU64::new(0),
            revocations: AtomicU64::new(0),
        }
    }

    /// The fence strategy in use.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Bind the calling thread as the bias owner.
    ///
    /// # Panics
    ///
    /// Panics if an owner is already bound.
    pub fn register_owner(self: &Arc<Self>) -> Owner<S> {
        let reg = register_current_thread();
        self.owner_thread
            .set(reg.remote())
            .expect("owner already registered");
        Owner {
            lock: Arc::clone(self),
            _registration: reg,
        }
    }

    /// Acquire as a revoker (any non-owner thread).
    pub fn revoke_lock(&self) -> RevokerGuard<'_, S> {
        let inner = self.revoker_mutex.lock();
        store_usize(&self.revoke_flag, 1, Ordering::Release);
        self.strategy.secondary_fence();
        if let Some(owner) = self.owner_thread.get() {
            self.strategy.serialize_remote(owner);
        }
        // The owner retreats on seeing revoke_flag; wait it out.
        spin_until(|| load_usize(&self.owner_flag, Ordering::Acquire) == 0);
        self.revocations.fetch_add(1, Ordering::Relaxed);
        RevokerGuard { lock: self, _inner: inner }
    }
}

/// The owner role handle.
pub struct Owner<S: FenceStrategy> {
    lock: Arc<BiasedLock<S>>,
    _registration: Registration,
}

impl<S: FenceStrategy> Owner<S> {
    /// Fast-path acquire: two cache accesses plus the strategy's primary
    /// fence when no revoker is active.
    pub fn lock(&self) -> OwnerGuard<'_, S> {
        let l = &*self.lock;
        loop {
            store_usize(&l.owner_flag, 1, Ordering::Release);
            l.strategy.primary_fence();
            if load_usize(&l.revoke_flag, Ordering::Acquire) == 0 {
                bump_owned(&l.owner_acquires);
                return OwnerGuard { lock: l };
            }
            // A revoker is active: retreat (revokers have priority).
            store_usize(&l.owner_flag, 0, Ordering::Release);
            bump_owned(&l.owner_waits);
            spin_until(|| load_usize(&l.revoke_flag, Ordering::Acquire) == 0);
        }
    }

    /// Run `f` under the owner lock.
    pub fn with_lock<T>(&self, f: impl FnOnce() -> T) -> T {
        let _g = self.lock();
        f()
    }

    /// The lock this owner handle belongs to.
    pub fn lock_ref(&self) -> &Arc<BiasedLock<S>> {
        &self.lock
    }
}

/// RAII guard for the owner's critical section.
pub struct OwnerGuard<'a, S: FenceStrategy> {
    lock: &'a BiasedLock<S>,
}

impl<S: FenceStrategy> Drop for OwnerGuard<'_, S> {
    fn drop(&mut self) {
        store_usize(&self.lock.owner_flag, 0, Ordering::Release);
    }
}

/// RAII guard for a revoker's critical section.
pub struct RevokerGuard<'a, S: FenceStrategy> {
    lock: &'a BiasedLock<S>,
    _inner: MutexGuard<'a, ()>,
}

impl<S: FenceStrategy> Drop for RevokerGuard<'_, S> {
    fn drop(&mut self) {
        store_usize(&self.lock.revoke_flag, 0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{SignalFence, Symmetric};
    use std::time::Duration;

    fn stress<S: FenceStrategy>(strategy: Arc<S>, owner_iters: u64, revokers: usize) {
        let lock = Arc::new(BiasedLock::new(strategy));
        let shared = Arc::new(AtomicU64::new(0));
        let inside = Arc::new(AtomicUsize::new(0));

        let l2 = lock.clone();
        let s2 = shared.clone();
        let in2 = inside.clone();
        let owner = std::thread::spawn(move || {
            let o = l2.register_owner();
            for _ in 0..owner_iters {
                o.with_lock(|| {
                    assert_eq!(in2.fetch_add(1, Ordering::SeqCst), 0);
                    s2.fetch_add(1, Ordering::Relaxed);
                    in2.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        let mut handles = Vec::new();
        for _ in 0..revokers {
            let l = lock.clone();
            let s = shared.clone();
            let ins = inside.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..owner_iters / 20 {
                    let _g = l.revoke_lock();
                    assert_eq!(ins.fetch_add(1, Ordering::SeqCst), 0);
                    s.fetch_add(1, Ordering::Relaxed);
                    ins.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        owner.join().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let expected = owner_iters + revokers as u64 * (owner_iters / 20);
        assert_eq!(shared.load(Ordering::Relaxed), expected);
        assert_eq!(lock.owner_acquires.load(Ordering::Relaxed), owner_iters);
    }

    #[test]
    fn symmetric_biased_lock_stress() {
        stress(Arc::new(Symmetric::new()), 2_000, 2);
    }

    #[test]
    fn signal_biased_lock_stress() {
        stress(Arc::new(SignalFence::new()), 1_000, 2);
    }

    #[test]
    fn revoker_without_owner_succeeds() {
        let lock: Arc<BiasedLock<Symmetric>> = Arc::new(BiasedLock::new(Arc::new(Symmetric::new())));
        let _g = lock.revoke_lock();
        assert_eq!(lock.revocations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn owner_fast_path_counts_no_waits_when_uncontended() {
        let lock = Arc::new(BiasedLock::new(Arc::new(SignalFence::new())));
        let l2 = lock.clone();
        std::thread::spawn(move || {
            let o = l2.register_owner();
            for _ in 0..100 {
                o.with_lock(|| {});
            }
        })
        .join()
        .unwrap();
        assert_eq!(lock.owner_acquires.load(Ordering::Relaxed), 100);
        assert_eq!(lock.owner_waits.load(Ordering::Relaxed), 0);
        // Fast path executed compiler fences only.
        assert_eq!(
            lock.strategy().stats().snapshot().primary_compiler_fences,
            100
        );
        assert_eq!(lock.strategy().stats().snapshot().primary_full_fences, 0);
    }
}
