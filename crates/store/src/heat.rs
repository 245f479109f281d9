//! The workload observatory ("heat plane"): who is being read, who is
//! being written, and who is paying the serialization bill.
//!
//! PR 8's health plane watches the store for *failures*; this plane
//! watches it for *traffic* — the access pattern that decides whether a
//! location-based fence wins at all. Three questions, three sources:
//!
//! * **Which keys are hot?** Every reader handle samples one lookup in
//!   `sample_every` into a private space-saving top-k plus a count-min
//!   sketch (both from [`lbmf_trace::sketch`], both fed with raw relaxed
//!   stores only — never [`lbmf::hooks`] — so the instrumented six-op
//!   fast-path proof is untouched whether the plane is armed or not).
//! * **Which keys are written, and what do they cost?** Writers are
//!   mutex-serialized and rare, so each shard tracks them exactly:
//!   a write top-k plus a *serialize-bill* top-k charging each written
//!   key the remote round trips its `serialize_remote` loop performed
//!   (each trip is a §13 correlation-tracked span; the bill counts the
//!   same events the causal flight recorder attributes).
//! * **How skewed is the whole workload?** [`Store::heat_report`] folds
//!   every sketch into one [`HeatSnapshot`] — the schema type shared
//!   with [`lbmf_des::simulate_kv`] — which fits the Zipfian-θ MLE and
//!   derives per-shard write-ppm and imbalance, rendered as the
//!   `lbmf_store_hotkey_*` / `lbmf_store_skew_*` gauge families.
//!
//! # Cost contract
//!
//! Disarmed (the default), a lookup pays exactly one extra raw relaxed
//! load (the arm check). Armed, it adds a relaxed tick load+store and —
//! one lookup in `sample_every` — the sketch updates, which are relaxed
//! loads and stores with no RMW, no fence, and no lock. The registry
//! mutex is touched only on first sample per handle, handle drop, and
//! [`Store::heat_report`]. `check_store` proves the instrumented-op
//! claim for both states.

use lbmf::sync::Mutex;
use lbmf_trace::{CountMinSketch, SpaceSaving};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use lbmf_des::{
    HeatSnapshot, ShardLoad, HEAT_CMS_DEPTH, HEAT_CMS_WIDTH, HEAT_READ_TOPK, HEAT_WRITE_TOPK,
};

/// One reader thread's private heat sketches. Single-producer: only the
/// owning [`StoreHandle`](crate::StoreHandle) records; the report side
/// reads concurrently with relaxed loads (a torn in-flight update is an
/// acceptable lossy read, the sketches are approximate by contract).
#[derive(Debug)]
pub struct ReaderHeat {
    /// Lookups seen while armed (sampling phase counter).
    tick: AtomicU64,
    /// Sampled-read top-k.
    reads: SpaceSaving,
    /// Sampled-read count-min cross-check (see
    /// [`SpaceSaving::top_refined`]).
    cms: CountMinSketch,
    /// Sampled reads per shard.
    shard_reads: Vec<AtomicU64>,
}

impl ReaderHeat {
    fn new(shards: usize) -> ReaderHeat {
        ReaderHeat {
            tick: AtomicU64::new(0),
            reads: SpaceSaving::new(HEAT_READ_TOPK),
            cms: CountMinSketch::new(HEAT_CMS_WIDTH, HEAT_CMS_DEPTH),
            shard_reads: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Advance the per-thread phase and, one call in `every`, record the
    /// lookup. Raw relaxed ops only — no RMW, no fence, no hook.
    #[inline]
    pub(crate) fn observe(&self, shard: usize, key: u64, every: u64) {
        let t = self.tick.load(Ordering::Relaxed);
        self.tick.store(t.wrapping_add(1), Ordering::Relaxed);
        if t % every == 0 {
            self.reads.record(key);
            self.cms.record(key);
            let c = &self.shard_reads[shard];
            c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    /// Fold `other` into `self` (report/retire side, under the plane
    /// mutex).
    fn absorb(&self, other: &ReaderHeat) {
        self.reads.absorb(&other.reads);
        self.cms.absorb(&other.cms);
        for (acc, part) in self.shard_reads.iter().zip(&other.shard_reads) {
            acc.store(
                acc.load(Ordering::Relaxed) + part.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
    }
}

/// One shard's exact write-side attribution. All mutations happen under
/// the shard's writer mutex (single producer); the report side reads
/// concurrently, relaxed.
#[derive(Debug)]
pub(crate) struct ShardHeat {
    /// Snapshot of the plane's arm switch, mirrored per shard so the
    /// writer checks it without reaching into the store.
    armed: AtomicU64,
    /// Writes applied while armed.
    writes: AtomicU64,
    /// Written-key top-k.
    keys: SpaceSaving,
    /// Serialize-bill top-k: written key → remote round trips charged.
    bills: SpaceSaving,
}

impl ShardHeat {
    pub(crate) fn new() -> ShardHeat {
        ShardHeat {
            armed: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            keys: SpaceSaving::new(HEAT_WRITE_TOPK),
            bills: SpaceSaving::new(HEAT_WRITE_TOPK),
        }
    }

    /// Whether the write path should attribute this update.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed) != 0
    }

    /// Flip the per-shard mirror of the plane's arm switch.
    pub(crate) fn set_armed(&self, armed: bool) {
        self.armed.store(u64::from(armed), Ordering::Relaxed);
    }

    /// Record one write of `key` that paid `bills` remote serialization
    /// round trips. Called under the shard's writer mutex.
    pub(crate) fn record_write(&self, key: u64, bills: u64) {
        self.writes
            .store(self.writes.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.keys.record(key);
        if bills > 0 {
            self.bills.record_n(key, bills);
        }
    }
}

/// Reader-side registry: the live handles' sketches plus everything
/// retired handles folded in on drop.
struct PlaneInner {
    live: Vec<Arc<ReaderHeat>>,
    retired: ReaderHeat,
}

/// The store-level arm switch and reader-sketch registry. Owned by
/// [`Store`](crate::Store); shards keep their own [`ShardHeat`].
pub(crate) struct HeatPlane {
    /// 0 = disarmed; N = sample one read in N. Read by every lookup with
    /// one raw relaxed load.
    sample_every: AtomicU64,
    shards: usize,
    inner: Mutex<PlaneInner>,
}

impl HeatPlane {
    pub(crate) fn new(shards: usize) -> HeatPlane {
        HeatPlane {
            sample_every: AtomicU64::new(0),
            shards,
            inner: Mutex::new(PlaneInner {
                live: Vec::new(),
                retired: ReaderHeat::new(shards),
            }),
        }
    }

    /// The arm switch, as the read path checks it.
    #[inline]
    pub(crate) fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    pub(crate) fn set_sample_every(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// Allocate and register one handle's sketches (first armed sample).
    pub(crate) fn register(&self) -> Arc<ReaderHeat> {
        let heat = Arc::new(ReaderHeat::new(self.shards));
        self.inner.lock().live.push(heat.clone());
        heat
    }

    /// Fold a dropping handle's sketches into the retired accumulator.
    pub(crate) fn retire(&self, heat: &Arc<ReaderHeat>) {
        let mut inner = self.inner.lock();
        inner.retired.absorb(heat);
        inner.live.retain(|h| !Arc::ptr_eq(h, heat));
    }

    /// Fold every reader's sketches (live + retired) into fresh ones and
    /// return `(refined top-k reads, per-shard sampled reads)`.
    pub(crate) fn fold_readers(&self) -> (Vec<lbmf_trace::HotKey>, Vec<u64>) {
        let inner = self.inner.lock();
        let acc = ReaderHeat::new(self.shards);
        acc.absorb(&inner.retired);
        for h in &inner.live {
            acc.absorb(h);
        }
        let shard_reads = acc
            .shard_reads
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        (acc.reads.top_refined(&acc.cms), shard_reads)
    }
}

/// Aggregate the write-side sketches of `shards` into global top-k
/// lists: `(top writes, top serialize bills, per-shard write counts)`.
pub(crate) fn fold_writers<'a>(
    shards: impl Iterator<Item = &'a ShardHeat>,
) -> (Vec<lbmf_trace::HotKey>, Vec<lbmf_trace::HotKey>, Vec<u64>) {
    let keys = SpaceSaving::new(HEAT_WRITE_TOPK);
    let bills = SpaceSaving::new(HEAT_WRITE_TOPK);
    let mut writes = Vec::new();
    for sh in shards {
        keys.absorb(&sh.keys);
        bills.absorb(&sh.bills);
        writes.push(sh.writes.load(Ordering::Relaxed));
    }
    (keys.top(), bills.top(), writes)
}

#[cfg(test)]
mod tests {
    use crate::shard::ReclaimMode;
    use crate::store::{shard_index, Store};
    use lbmf::strategy::{SignalFence, Symmetric};
    use std::sync::{Arc, Barrier};

    #[test]
    fn disarmed_store_reports_nothing() {
        let store = Arc::new(Store::new(
            Arc::new(Symmetric::new()),
            2,
            16,
            ReclaimMode::Free,
        ));
        let handle = store.handle();
        store.put(1, 10);
        assert_eq!(handle.get(1), Some(10));
        assert_eq!(store.heat_sample_every(), 0);
        assert!(store.heat_report().is_none());
        assert!(store.render_heat("s").is_none());
    }

    #[test]
    fn one_in_n_sampling_records_the_expected_fraction() {
        let store = Arc::new(Store::new(
            Arc::new(Symmetric::new()),
            2,
            16,
            ReclaimMode::Free,
        ));
        store.put(3, 30);
        store.arm_heat(4);
        let handle = store.handle();
        for _ in 0..8 {
            handle.get(3);
        }
        let heat = store.heat_report().expect("armed");
        // Ticks 0 and 4 of 0..8 fire.
        assert_eq!(heat.sampled_reads, 2);
        assert_eq!(heat.top_reads[0].key, 3);
        assert_eq!(heat.top_reads[0].count, 2);
        assert_eq!(heat.sample_every, 4);
    }

    /// The full attribution loop under the asymmetric strategy: a remote
    /// reader hammers one key, the writer updates it and pays one
    /// serialization round trip per write — the heat report must pin the
    /// reads, the writes, and the bills on that key, and survive the
    /// reader handle dropping.
    #[test]
    fn armed_store_attributes_reads_writes_and_serialize_bills() {
        let store = Arc::new(Store::new(
            Arc::new(SignalFence::new()),
            4,
            64,
            ReclaimMode::Free,
        ));
        store.put(7, 1); // no remote reader yet: a write with bills = 0
        store.arm_heat(1);
        let reads_done = Arc::new(Barrier::new(2));
        let writes_done = Arc::new(Barrier::new(2));
        let reader = {
            let store = store.clone();
            let reads_done = reads_done.clone();
            let writes_done = writes_done.clone();
            std::thread::spawn(move || {
                let handle = store.handle();
                for _ in 0..100 {
                    handle.get(7);
                }
                for _ in 0..10 {
                    handle.get(5);
                }
                reads_done.wait();
                // Stay registered (and serializable) across the writes.
                writes_done.wait();
            })
        };
        reads_done.wait();
        for v in 0..5u64 {
            store.put(7, v + 2);
        }
        let live = store.heat_report().expect("armed");
        writes_done.wait();
        reader.join().unwrap();
        let folded = store.heat_report().expect("armed");
        for heat in [&live, &folded] {
            assert_eq!(heat.sampled_reads, 110, "sample_every = 1 sees every read");
            assert_eq!(heat.top_reads[0].key, 7);
            assert_eq!(heat.top_reads[0].count, 100);
            assert_eq!(heat.top_reads[1].key, 5);
            // All six writes hit key 7. The shard's table is two 1 KiB
            // chunks; a write retires a spine and one chunk, so the
            // second write brings the limbo to a full table's bytes and
            // runs the pass. That pass fills the shard's pool with one
            // husk and both chunks (one table's bytes), which each later
            // write drains, so writes 2 to 6, all armed, each run a pass
            // and bill the remote reader's round trip.
            assert_eq!(heat.top_writes[0].key, 7);
            assert_eq!(heat.top_writes[0].count, 5);
            assert_eq!(heat.top_bills[0].key, 7);
            assert_eq!(heat.top_bills[0].count, 5);
            let shard = shard_index(7, 4);
            assert_eq!(heat.shards[shard].writes, 5);
            assert!(heat.shards[shard].sampled_reads >= 100);
        }
        let text = store.render_heat("live").expect("armed");
        assert!(text.contains("lbmf_store_hotkey_reads{store=\"live\",key=\"7\",rank=\"1\"} 100"));
        assert!(text.contains("lbmf_store_hotkey_serialize_bill{store=\"live\",key=\"7\"} 5"));
        assert!(text.contains("lbmf_store_skew_sample_every{store=\"live\"} 1"));
        // Disarm: the report goes dark but the read path still works.
        store.disarm_heat();
        assert!(store.heat_report().is_none());
        let handle = store.handle();
        assert_eq!(handle.get(7), Some(6));
    }

    #[test]
    #[should_panic(expected = "disarm_heat")]
    fn arming_with_zero_period_panics() {
        let store: Arc<Store<Symmetric>> = Arc::new(Store::new(
            Arc::new(Symmetric::new()),
            1,
            8,
            ReclaimMode::Free,
        ));
        store.arm_heat(0);
    }
}
