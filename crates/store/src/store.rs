//! The sharded store facade and its per-thread reader handles.

use crate::heat::{fold_writers, HeatPlane, HeatSnapshot, ReaderHeat, ShardLoad};
use crate::shard::{ReaderSlot, ReclaimMode, Shard};
use crate::stats::StoreStatsSnapshot;
use crate::table::HASH_MUL;
use lbmf::registry::{register_current_thread, Registration};
use lbmf::strategy::FenceStrategy;
use std::sync::{Arc, OnceLock};

/// Route `key` to one of `shards` shards. Public and deterministic on
/// purpose: the workload generator and the `lbmf-des` replay use the
/// *same* mapping, so the simulated schedule contends on the same shards
/// the real threads do.
#[inline]
pub fn shard_index(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((key.wrapping_mul(HASH_MUL) >> 32) as usize) % shards
}

/// A sharded read-mostly KV store. Each shard is an epoch-pinned RCU
/// cell (see [`Shard`]); the fence strategy decides who pays for the
/// store→load ordering the reclamation protocol needs — every reader on
/// every lookup ([`lbmf::strategy::Symmetric`]), or the writer once per
/// registered reader each time a shard's retired bytes reach one full
/// table or its pool of reclaimed memory runs low (the asymmetric
/// strategies).
///
/// Reads go through a per-thread [`StoreHandle`] (the handle owns the
/// pin words and the thread's serialization registration); writes go
/// directly through [`Store::put`] / [`Store::remove`].
pub struct Store<S: FenceStrategy> {
    shards: Box<[Shard<S>]>,
    strategy: Arc<S>,
    heat: HeatPlane,
}

impl<S: FenceStrategy> Store<S> {
    /// A store with `shards` shards, each pre-sized for
    /// `capacity_per_shard` entries.
    pub fn new(
        strategy: Arc<S>,
        shards: usize,
        capacity_per_shard: usize,
        mode: ReclaimMode,
    ) -> Store<S> {
        assert!(shards > 0, "a store needs at least one shard");
        Store {
            shards: (0..shards)
                .map(|_| Shard::new(strategy.clone(), mode, capacity_per_shard))
                .collect(),
            strategy,
            heat: HeatPlane::new(shards),
        }
    }

    /// Load `entries` into a store no handle can reach yet (`&mut self`):
    /// each shard's table is built once, so filling `n` keys costs O(n)
    /// rather than the O(n²) of `n` copy-on-write [`put`](Self::put)s.
    /// Each entry counts as a put; no table is retired and no reader is
    /// serialized.
    pub fn prefill(&mut self, entries: impl IntoIterator<Item = (u64, u64)>) {
        let mut per_shard = vec![Vec::new(); self.shards.len()];
        for (key, val) in entries {
            per_shard[shard_index(key, self.shards.len())].push((key, val));
        }
        for (shard, entries) in self.shards.iter_mut().zip(&per_shard) {
            shard.fill(entries);
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shared fence strategy (e.g. for snapshotting its
    /// [`FenceStats`](lbmf::stats::FenceStats) around a workload).
    pub fn strategy(&self) -> &Arc<S> {
        &self.strategy
    }

    /// Direct shard access (observability and tests).
    pub fn shard(&self, index: usize) -> &Shard<S> {
        &self.shards[index]
    }

    /// Insert or update; returns the previous value. Write-side cost: a
    /// path copy of one shard's table (its spine and one 1 KiB chunk,
    /// into memory the shard reclaimed earlier) plus — under an
    /// asymmetric strategy, once the shard's retired bytes reach one
    /// full table or its pool runs low — one remote serialization per
    /// registered reader.
    pub fn put(&self, key: u64, val: u64) -> Option<u64> {
        self.shards[shard_index(key, self.shards.len())].update(key, Some(val))
    }

    /// Remove; returns the previous value.
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.shards[shard_index(key, self.shards.len())].update(key, None)
    }

    /// Total entries across shards (takes each shard's writer mutex; for
    /// tests and reporting, not hot paths).
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arm the workload observatory: every reader handle starts sampling
    /// one lookup in `sample_every` into its hot-key sketches, and every
    /// shard starts attributing writes and serialize bills exactly.
    /// Sketch contents accumulate across arm/disarm cycles (the plane is
    /// an observatory, not a resettable counter; snapshot-diff at the
    /// report level if you need a window).
    ///
    /// # Panics
    /// If `sample_every` is zero — use [`disarm_heat`](Self::disarm_heat)
    /// to stop sampling.
    pub fn arm_heat(&self, sample_every: u64) {
        assert!(sample_every > 0, "arm_heat(0): use disarm_heat() instead");
        self.heat.set_sample_every(sample_every);
        for shard in self.shards.iter() {
            shard.heat().set_armed(true);
        }
    }

    /// Disarm the workload observatory: the read path falls back to its
    /// single raw relaxed arm-check load, writers stop attributing.
    pub fn disarm_heat(&self) {
        self.heat.set_sample_every(0);
        for shard in self.shards.iter() {
            shard.heat().set_armed(false);
        }
    }

    /// The current read-path sampling period (0 = disarmed).
    pub fn heat_sample_every(&self) -> u64 {
        self.heat.sample_every()
    }

    /// Fold every reader's and every shard's heat sketches into one
    /// [`HeatSnapshot`] — the same schema type
    /// [`lbmf_des::simulate_kv`] emits, so live scrapes and DES
    /// snapshots are interchangeable to `lbmf-obs heat`. `None` while
    /// disarmed.
    pub fn heat_report(&self) -> Option<HeatSnapshot> {
        let every = self.heat.sample_every();
        if every == 0 {
            return None;
        }
        let (top_reads, shard_reads) = self.heat.fold_readers();
        let (top_writes, top_bills, shard_writes) = fold_writers(self.shards.iter().map(Shard::heat));
        let shards = shard_reads
            .into_iter()
            .zip(shard_writes)
            .enumerate()
            .map(|(s, (sampled_reads, writes))| ShardLoad {
                shard: s as u32,
                sampled_reads,
                writes,
            })
            .collect();
        Some(HeatSnapshot::new(every, top_reads, top_writes, top_bills, shards))
    }

    /// [`heat_report`](Self::heat_report) rendered as the canonical
    /// `lbmf_store_hotkey_*` / `lbmf_store_skew_*` exposition families,
    /// labeled `store="name"`. `None` while disarmed.
    pub fn render_heat(&self, name: &str) -> Option<String> {
        self.heat_report().map(|h| h.render(name))
    }

    /// Aggregated counters: all shards plus all live reader handles.
    pub fn stats(&self) -> StoreStatsSnapshot {
        self.shards
            .iter()
            .map(Shard::stats)
            .fold(StoreStatsSnapshot::default(), |acc, s| acc.merge(&s))
    }

    /// Register the calling thread as a reader: creates one pin slot per
    /// shard and one serialization registration for the thread. Reads
    /// must go through the returned handle — the pin is what makes
    /// snapshot reclamation safe.
    pub fn handle(self: &Arc<Self>) -> StoreHandle<S> {
        let registration = register_current_thread();
        let slots: Vec<Arc<ReaderSlot>> = self
            .shards
            .iter()
            .map(|shard| {
                let slot = Arc::new(ReaderSlot::new(registration.remote()));
                shard.add_reader(slot.clone());
                slot
            })
            .collect();
        StoreHandle {
            store: self.clone(),
            slots,
            heat: OnceLock::new(),
            _registration: registration,
        }
    }
}

impl<S: FenceStrategy> std::fmt::Debug for Store<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("strategy", &self.strategy.name())
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// A per-thread reader handle: the fence-free (under an asymmetric
/// strategy) fast path into the store. Not `Send` — the pin protocol and
/// the serialization registration are tied to the creating thread.
pub struct StoreHandle<S: FenceStrategy> {
    store: Arc<Store<S>>,
    /// One pin slot per shard, same order as `store.shards`.
    slots: Vec<Arc<ReaderSlot>>,
    /// This thread's heat sketches, allocated and registered lazily on
    /// the first *armed* lookup so a disarmed store pays no memory.
    heat: OnceLock<Arc<ReaderHeat>>,
    /// Declared after `slots` conceptually, but the explicit `Drop` below
    /// removes the slots first anyway; dropping the registration then
    /// deactivates the thread's serialization target.
    _registration: Registration,
}

// (Deliberately no Send/Sync impls: `Registration` keeps the handle on
// its creating thread, which the protocol requires.)

impl<S: FenceStrategy> StoreHandle<S> {
    /// Snapshot lookup. Under an asymmetric strategy this is the paper's
    /// primary fast path: no hardware fence, no RMW.
    ///
    /// The heat plane rides along in raw (never [`lbmf::hooks`]) relaxed
    /// atomics: disarmed, one extra load; armed, a tick load+store plus
    /// — one lookup in `sample_every` — relaxed sketch updates. The
    /// instrumented fast path is exactly six ops in both states, which
    /// `check_store` proves.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        let idx = shard_index(key, self.slots.len());
        let found = self.store.shards[idx].get(&self.slots[idx], key);
        let every = self.store.heat.sample_every();
        if every != 0 {
            self.heat
                .get_or_init(|| self.store.heat.register())
                .observe(idx, key, every);
        }
        found
    }

    /// The owning store.
    pub fn store(&self) -> &Arc<Store<S>> {
        &self.store
    }

    /// This handle's reader slot id on `shard` — the §13 correlation key
    /// serialize events carry and the watchdog attributes stuck readers
    /// by (see [`ReaderSlot::slot_key`]).
    pub fn slot_key(&self, shard: usize) -> u64 {
        self.slots[shard].slot_key()
    }

    /// Fault injection: wedge this handle's reader on `shard` by pinning
    /// the current epoch and never advancing until the guard drops —
    /// exactly what a descheduled or deadlocked reader thread looks like
    /// to the rest of the system. Subsequent writes to the shard retire
    /// tables the stale pin holds in limbo, and the health plane's
    /// watchdog must flag this slot within one `max_pin_age_ns`. Used by
    /// the CI doctor smoke and the stuck-reader runbook; never call it
    /// in production code.
    pub fn wedge(&self, shard: usize) -> WedgedReader<'_, S> {
        let slot = &self.slots[shard];
        let e = self.store.shards[shard].epoch();
        slot.pin.store(e, std::sync::atomic::Ordering::SeqCst);
        WedgedReader {
            handle: self,
            shard,
        }
    }
}

/// The hold on a deliberately wedged reader slot (see
/// [`StoreHandle::wedge`]); dropping it unpins, modeling the stuck
/// reader finally getting scheduled again.
pub struct WedgedReader<'a, S: FenceStrategy> {
    handle: &'a StoreHandle<S>,
    shard: usize,
}

impl<S: FenceStrategy> Drop for WedgedReader<'_, S> {
    fn drop(&mut self) {
        self.handle.slots[self.shard]
            .pin
            .store(0, std::sync::atomic::Ordering::SeqCst);
    }
}

impl<S: FenceStrategy> Drop for StoreHandle<S> {
    fn drop(&mut self) {
        // Fold this thread's counters into the shards and stop writers
        // from serializing us; `_registration` drops afterwards.
        for (shard, slot) in self.store.shards.iter().zip(&self.slots) {
            shard.remove_reader(slot);
        }
        // Fold this thread's heat sketches into the plane's retired
        // accumulator so heat reports survive reader churn.
        if let Some(heat) = self.heat.get() {
            self.store.heat.retire(heat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf::strategy::{SignalFence, Symmetric};

    #[test]
    fn prefill_builds_each_shard_once() {
        let mut store = Store::new(Arc::new(SignalFence::new()), 4, 2, ReclaimMode::Free);
        store.prefill((0..1_000u64).map(|k| (k, k + 1)));
        store.prefill([(3, 30)]);
        let store = Arc::new(store);
        assert_eq!(store.len(), 1_000);
        let h = store.handle();
        for k in 0..1_000u64 {
            assert_eq!(h.get(k), Some(if k == 3 { 30 } else { k + 1 }));
        }
        let stats = store.stats();
        assert_eq!(stats.puts, 1_001);
        assert_eq!(stats.tables_retired, 0, "no reader could see the old tables");
        assert_eq!(store.strategy().stats().snapshot().serializations_requested, 0);
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for key in [0u64, 1, 7, 1 << 40, u64::MAX - 1] {
            let i = shard_index(key, 8);
            assert!(i < 8);
            assert_eq!(i, shard_index(key, 8), "deterministic");
        }
        // Single shard degenerates to 0.
        assert_eq!(shard_index(123, 1), 0);
    }

    #[test]
    fn sharded_roundtrip_and_aggregate_stats() {
        let store = Arc::new(Store::new(
            Arc::new(Symmetric::new()),
            4,
            16,
            ReclaimMode::Free,
        ));
        let handle = store.handle();
        for k in 0..64u64 {
            assert_eq!(store.put(k, k + 1000), None);
        }
        assert_eq!(store.len(), 64);
        for k in 0..64u64 {
            assert_eq!(handle.get(k), Some(k + 1000), "key {k}");
        }
        assert_eq!(handle.get(9999), None);
        let snap = store.stats();
        assert_eq!(snap.puts, 64);
        assert_eq!(snap.gets, 65);
        assert_eq!(snap.hits, 64);
        assert_eq!(store.remove(0), Some(1000));
        assert_eq!(store.len(), 63);
        drop(handle);
        // Counters survive handle drop (folded into the shards).
        assert_eq!(store.stats().gets, 65);
    }

    #[test]
    fn concurrent_readers_see_old_or_new_values_under_signal_fence() {
        let store = Arc::new(Store::new(
            Arc::new(SignalFence::new()),
            2,
            32,
            ReclaimMode::Free,
        ));
        for k in 0..32u64 {
            store.put(k, 1);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Writers must not start until both readers are registered, or —
        // on a 1-core host — the whole write phase can finish before any
        // reader exists to serialize.
        let ready = Arc::new(std::sync::Barrier::new(3));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let store = store.clone();
            let stop = stop.clone();
            let ready = ready.clone();
            readers.push(std::thread::spawn(move || {
                let handle = store.handle();
                ready.wait();
                let mut reads = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for k in 0..32u64 {
                        let v = handle.get(k).expect("keys are never removed");
                        assert!(v >= 1, "value {v} is neither old nor new");
                    }
                    reads += 32;
                }
                reads
            }));
        }
        ready.wait();
        // Writer: monotonically bump values; readers must only ever see
        // some previously-written value.
        for round in 2..40u64 {
            for k in 0..32u64 {
                store.put(k, round);
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        let snap = store.stats();
        assert_eq!(snap.puts, 32 * 39);
        assert!(snap.tables_retired >= snap.tables_reclaimed);
        // The asymmetric writer really did serialize remote readers.
        let fences = store.strategy().stats().snapshot();
        assert!(fences.serializations_requested > 0);
    }
}
