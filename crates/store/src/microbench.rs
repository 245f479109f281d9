//! The canonical read-path microbench loop, shared by every harness
//! that prices a store lookup.
//!
//! `lbmf-obs record` times it (suite `store/get/*`) under the same
//! hardware counter scope that `lbmf-obs pmu` reads back. Any other
//! harness that prices a lookup must drive this *same* loop — same
//! shard count, same prefilled working set, same key stride — or its
//! numbers attribute different code. This module is that loop, defined
//! once where the store lives.

use crate::{ReclaimMode, Store, StoreHandle};
use lbmf::strategy::FenceStrategy;
use std::sync::Arc;

/// A prefilled store plus a registered reader handle, iterating lookups
/// over a power-of-two working set. Not `Send` (the handle pins the
/// creating thread), which is exactly right: the loop measures one
/// reader's fence-free fast path.
pub struct ReadLoop<S: FenceStrategy> {
    store: Arc<Store<S>>,
    handle: StoreHandle<S>,
    next: u64,
}

impl<S: FenceStrategy> ReadLoop<S> {
    /// Working-set size: 1024 keys over 8 shards, small enough to stay
    /// cache-resident so the numbers isolate fence cost, large enough
    /// that the loop walks every shard.
    pub const KEYS: u64 = 1024;

    /// Build the store, prefill `k → k + 1` for every key, and register
    /// this thread as a reader.
    pub fn new(strategy: Arc<S>) -> Self {
        let store = Arc::new(Store::new(strategy, 8, Self::KEYS as usize, ReclaimMode::Free));
        for k in 0..Self::KEYS {
            store.put(k, k + 1);
        }
        let handle = store.handle();
        ReadLoop { store, handle, next: 0 }
    }

    /// One iteration of the measured loop: advance the key round-robin
    /// and perform the epoch-pinned lookup. Every key is present, so
    /// `Some` always — callers `black_box` the result.
    #[inline]
    pub fn read_next(&mut self) -> Option<u64> {
        self.next = (self.next + 1) & (Self::KEYS - 1);
        self.handle.get(std::hint::black_box(self.next))
    }

    /// The underlying store (for stats snapshots around the loop).
    pub fn store(&self) -> &Arc<Store<S>> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf::strategy::{SignalFence, Symmetric};

    #[test]
    fn read_loop_hits_the_prefilled_set_and_wraps() {
        let mut rl = ReadLoop::new(Arc::new(SignalFence::new()));
        for i in 0..(2 * ReadLoop::<SignalFence>::KEYS) {
            let expect = ((i + 1) & (ReadLoop::<SignalFence>::KEYS - 1)) + 1;
            assert_eq!(rl.read_next(), Some(expect), "iteration {i}");
        }
    }

    #[test]
    fn read_loop_is_fence_free_under_an_asymmetric_strategy() {
        // The same purity claim the suite's store/get rows rest on:
        // the symmetric loop pays full fences per read, the asymmetric
        // loop pays none.
        let sym = Arc::new(Symmetric::new());
        let mut rl = ReadLoop::new(sym.clone());
        let before = sym.stats().snapshot();
        for _ in 0..64 {
            std::hint::black_box(rl.read_next());
        }
        let d = sym.stats().snapshot().diff(&before);
        assert!(d.primary_full_fences >= 64, "symmetric reads drain: {d:?}");

        let sig = Arc::new(SignalFence::new());
        let mut rl = ReadLoop::new(sig.clone());
        let before = sig.stats().snapshot();
        for _ in 0..64 {
            std::hint::black_box(rl.read_next());
        }
        let d = sig.stats().snapshot().diff(&before);
        assert_eq!(d.primary_full_fences, 0, "asymmetric reads are fence-free: {d:?}");
        assert!(d.primary_compiler_fences >= 64, "{d:?}");
    }
}
