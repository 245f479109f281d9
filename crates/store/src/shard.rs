//! One shard: an epoch-pinned RCU cell guarded by a pluggable
//! [`FenceStrategy`].
//!
//! # The protocol
//!
//! The shard holds a pointer to an immutable [`Table`] snapshot plus a
//! monotonically increasing epoch (starting at 1; pin value 0 means "not
//! reading"). Each registered reader owns a cache-padded pin word.
//!
//! **Reader** (the paper's *primary* — the side `l-mfence` makes free):
//!
//! 1. load `epoch` → `e`;
//! 2. store `pin ← e` (sits in the reader's store buffer under TSO);
//! 3. `strategy.primary_fence()` — the store→load ordering point. Under
//!    [`Symmetric`](lbmf::strategy::Symmetric) this is a real `mfence`
//!    (the pin is globally visible before step 4); under the asymmetric
//!    strategies it is a compiler fence only, so the pin may still be
//!    buffered — *that* is the location-based fence position;
//! 4. load the table pointer, look the key up (exactly one value load);
//! 5. store `pin ← 0`.
//!
//! **Writer** (the *secondary*), under the shard's writer mutex:
//!
//! 1. build the copy-on-write table: a slot-for-slot copy of the current
//!    one with the single change applied in place
//!    ([`Table::derive`]), written into a recycled table from the
//!    shard's spare list when one is there (at most two, kept by step 6
//!    in [`ReclaimMode::Free`]), into a fresh allocation otherwise. Only
//!    growth rehashes;
//! 2. publish: store the new table pointer **first**, then `epoch ← e+1`.
//!    TSO commits the buffer FIFO, so no thread can observe the new epoch
//!    with the old pointer. (The opposite order would be unsound: a
//!    reader pinning `e+1` while loading the *old* table would not be
//!    protected by the reclamation rule below.)
//! 3. `strategy.secondary_fence()` — the publication is globally visible
//!    before anything downstream;
//! 4. retire the old table into limbo at `retire_epoch = e+1`. Steps 5
//!    and 6 run only once the limbo holds two tables, so a shard pays
//!    one reclamation pass per two retirements. Paying it on every put
//!    signals the readers so often that about 1% of their gets land in a
//!    signal handler, which lifts the get p99 from ~0.6 µs to ~3.9 µs on
//!    the 2-vCPU host (DESIGN.md §15);
//! 5. serialize every registered reader
//!    ([`FenceStrategy::serialize_remote`]) — for the asymmetric
//!    strategies this drains each reader's store buffer (the signal /
//!    membarrier round trip the paper charges the secondary), making
//!    every pin stored *before* the serialization point visible;
//! 6. load the pins and reclaim each limbo table whose
//!    `retire_epoch = r` satisfies: **no** visible nonzero pin `p < r`.
//!    In [`ReclaimMode::Free`] a reclaimed table goes to the spare list
//!    (or is freed once two are kept); a later step 1 reuses it, so a
//!    table is republished only after the same proof that would free it.
//!
//! # Why reclamation is safe
//!
//! A reader that loaded epoch `p` loads the table pointer *after* that
//! epoch load, so the table it obtains is current at some epoch `≥ p` and
//! therefore has `retire_epoch ≥ p + 1 > p`. Hence a *visible* pin `p`
//! can only protect tables with `r > p` — which is exactly what rule 6
//! keeps. Deferring steps 5–6 changes nothing here: a table waiting in
//! limbo is simply not reclaimed yet, and the pass that does reclaim it
//! serializes and reads pins after that table's retirement, as the
//! argument needs. Two ways a pin can be invisible:
//!
//! * **Asymmetric strategies:** the pin store was buffered — but step 5
//!   drained every reader's buffer, so a post-serialization pin belongs
//!   to a reader whose subsequent pointer load (serialization is atomic
//!   with respect to the instruction stream) executes after step 3
//!   committed the *new* pointer: that reader holds the new table, not
//!   anything in limbo.
//! * **[`Symmetric`](lbmf::strategy::Symmetric):** no serialization
//!   happens, but the reader's own `mfence` (step 3) commits its pin
//!   before its pointer load. If the writer reads `pin = 0`, the
//!   reader's fence had not completed when the writer looked — so its
//!   pointer load happens after the writer's `secondary_fence`, and it
//!   too sees the new pointer. (The classic store-buffer/Dekker
//!   argument, with the pin and the table pointer as the two cells.)
//!
//! [`NoFence`](lbmf::strategy::NoFence) breaks exactly step 5 (its
//! `serialize_remote` is a no-op) while its readers still skip the
//! `mfence`: a buffered pin is invisible *and* nothing drains it, so the
//! writer reclaims a table a reader is still probing. The model-check
//! suite demonstrates that as a deterministic torn read under
//! [`ReclaimMode::Poison`].

use crate::heat::ShardHeat;
use crate::stats::{StoreStats, StoreStatsSnapshot};
use crate::table::Table;
use lbmf::hooks;
use lbmf::registry::RemoteThread;
use lbmf::stats::bump_owned;
use lbmf::strategy::FenceStrategy;
use lbmf::sync::{CachePadded, Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// What to do with a retired table once no pin can reach it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReclaimMode {
    /// Free the allocation (production behavior).
    Free,
    /// Model allocator reuse without the undefined behavior: overwrite
    /// the table's values with [`POISON`](crate::table::POISON) and keep
    /// the allocation in a graveyard. A protocol bug that lets a reader
    /// touch a reclaimed table becomes a memory-safe, observable torn
    /// read — which is how the check suite catches the
    /// [`NoFence`](lbmf::strategy::NoFence) control.
    Poison,
}

/// Per-(reader thread, shard) state: the pin word the protocol
/// synchronizes through, the remote-serialization handle of the owning
/// thread, and that reader's private fast-path counters.
#[derive(Debug)]
pub struct ReaderSlot {
    /// Epoch pin: 0 = not reading, `e` = "I may hold a table that was
    /// current at epoch `e` or later". Cache-padded — it is the one cell
    /// both sides hammer.
    pub(crate) pin: CachePadded<AtomicU64>,
    /// Serialization handle of the reader thread (shared by all of the
    /// thread's slots; one signal drains one store buffer).
    pub(crate) remote: RemoteThread,
    /// Cleared when the owning handle drops; writers skip inactive slots.
    pub(crate) active: AtomicBool,
    /// Lookups performed through this slot. Plain load-add-store only
    /// (single writer): a `fetch_add` would be a `lock`-prefixed RMW,
    /// i.e. a hidden full fence on the "fence-free" fast path.
    pub(crate) gets: AtomicU64,
    /// Lookups that found their key. Same single-writer discipline.
    pub(crate) hits: AtomicU64,
}

impl ReaderSlot {
    pub(crate) fn new(remote: RemoteThread) -> ReaderSlot {
        ReaderSlot {
            pin: CachePadded::new(AtomicU64::new(0)),
            remote,
            active: AtomicBool::new(true),
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The reader's stable slot id: the §13 correlation key
    /// ([`RemoteThread::key`]) serialize trace events carry as their
    /// `guarded_addr`. The health plane attributes stuck readers by this
    /// id, so a `doctor` verdict cross-references directly with an
    /// `lbmf-obs explain` chain against the same reader.
    pub fn slot_key(&self) -> u64 {
        self.remote.key() as u64
    }
}

/// A wait-free point-in-time read of one shard's health: the published
/// epoch, the writer-maintained reclamation mirrors, and every active
/// reader's `(slot id, pin)` pair. Taken by the monitor/watchdog —
/// never by readers or writers on their own paths.
#[derive(Clone, Debug, Default)]
pub struct ShardProbe {
    /// Published epoch at probe time.
    pub epoch: u64,
    /// Retired tables awaiting reclamation (mirror; see [`Shard::health_probe`]).
    pub limbo_depth: u64,
    /// Bytes those tables hold.
    pub limbo_bytes: u64,
    /// Poisoned allocations kept alive (poison mode).
    pub graveyard: u64,
    /// Worst-case probe length across tables published so far.
    pub probe_hwm: u64,
    /// Active readers' `(slot id, pin value)` pairs, relaxed-loaded.
    pub pins: Vec<(u64, u64)>,
}

/// Writer-maintained relaxed mirrors of the reclamation state. The real
/// state lives behind the writer mutex — which a *wedged writer* could
/// hold indefinitely, exactly when the health plane most needs a read —
/// so the writer publishes these copies (plain relaxed stores, already
/// under the mutex) at the end of every update, and samplers read them
/// wait-free.
#[derive(Debug, Default)]
struct HealthMirror {
    limbo_depth: AtomicU64,
    limbo_bytes: AtomicU64,
    graveyard: AtomicU64,
    probe_hwm: AtomicU64,
}

struct LimboEntry {
    /// The epoch whose publication retired this table: a visible pin
    /// `p < retire_epoch` may still reach it.
    retire_epoch: u64,
    table: *mut Table,
    /// The table's heap footprint, captured at retirement so the bytes
    /// gauge never dereferences a table a racing Drop could free.
    bytes: u64,
}

struct WriterState {
    /// Mirror of the published epoch, readable without touching the
    /// shared cell (the mutex serializes writers).
    epoch_value: u64,
    /// Retired tables not yet proven unreachable.
    limbo: Vec<LimboEntry>,
    /// Poisoned allocations kept alive in [`ReclaimMode::Poison`].
    graveyard: Vec<*mut Table>,
    /// Reclaimed tables kept for the next derivations to copy into
    /// ([`ReclaimMode::Free`] only; at most [`SPARES`]). Boxed because the
    /// whole allocation is reused: a spare is republished as `current`.
    #[allow(clippy::vec_box)]
    spares: Vec<Box<Table>>,
}

/// Retired tables in limbo that trigger a reclamation pass (protocol
/// steps 5–6). With one pass per put, puts that copy instead of rehash
/// signal the readers so often that about 1% of gets land in a signal
/// handler, and the get p99 rises from ~0.6 µs to ~3.9 µs; one pass per
/// two retirements keeps the signal rate at or below the rehashing
/// store's (DESIGN.md §15).
const RECLAIM_BATCH: usize = 2;

/// Reclaimed tables a shard keeps for reuse instead of freeing.
const SPARES: usize = 2;

/// One epoch-pinned RCU shard (see the module docs for the protocol).
pub struct Shard<S: FenceStrategy> {
    strategy: Arc<S>,
    /// The published snapshot. Readers load it on the fast path; only
    /// writers (mutex-serialized) store it.
    current: AtomicPtr<Table>,
    /// The published epoch, bumped after every pointer publication.
    epoch: CachePadded<AtomicU64>,
    writer: Mutex<WriterState>,
    readers: RwLock<Vec<Arc<ReaderSlot>>>,
    mode: ReclaimMode,
    stats: StoreStats,
    health: HealthMirror,
    /// Write-side workload attribution (armed/updated under the writer
    /// mutex; read lock-free by [`Store::heat_report`](crate::Store)).
    heat: ShardHeat,
}

// SAFETY: the raw pointers in `current`, limbo, and the graveyard are
// uniquely managed by the protocol above — tables are freed exactly once
// (by the reclamation rule or by Drop) and shared access to live tables
// is read-only.
unsafe impl<S: FenceStrategy> Send for Shard<S> {}
unsafe impl<S: FenceStrategy> Sync for Shard<S> {}

impl<S: FenceStrategy> Shard<S> {
    /// A shard whose initial (empty) table can hold `capacity` entries
    /// without growing.
    pub fn new(strategy: Arc<S>, mode: ReclaimMode, capacity: usize) -> Shard<S> {
        let initial = Box::into_raw(Box::new(Table::with_capacity(capacity)));
        Shard {
            strategy,
            current: AtomicPtr::new(initial),
            epoch: CachePadded::new(AtomicU64::new(1)),
            writer: Mutex::new(WriterState {
                epoch_value: 1,
                limbo: Vec::new(),
                graveyard: Vec::new(),
                spares: Vec::new(),
            }),
            readers: RwLock::new(Vec::new()),
            mode,
            stats: StoreStats::new(),
            health: HealthMirror::default(),
            heat: ShardHeat::new(),
        }
    }

    /// Insert or update every `(key, value)` of `entries` with one table
    /// copy, however many entries there are. `&mut self` proves no reader
    /// or writer can reach the shard, so the table is replaced in place:
    /// no epoch bump, no serialization, nothing retired. Counts as
    /// `entries.len()` puts.
    pub(crate) fn fill(&mut self, entries: &[(u64, u64)]) {
        let current = self.current.get_mut();
        // SAFETY: exclusive access; `current` is this shard's live table,
        // owned by it and freed exactly once (here, after replacement).
        let filled = unsafe { (**current).clone_with_all(entries) };
        let hwm = filled.probe_hwm() as u64;
        let old = std::mem::replace(current, Box::into_raw(Box::new(filled)));
        // SAFETY: see above; nothing else holds `old`.
        unsafe { drop(Box::from_raw(old)) };
        *self.stats.puts.get_mut() += entries.len() as u64;
        let mirror = self.health.probe_hwm.get_mut();
        *mirror = (*mirror).max(hwm);
    }

    /// The shard's write-side heat sketches (crate-internal: armed by
    /// the store's plane, read by its report).
    pub(crate) fn heat(&self) -> &ShardHeat {
        &self.heat
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Entries in the current snapshot (takes the writer mutex so the
    /// snapshot cannot be retired mid-read; not for hot paths).
    pub fn len(&self) -> usize {
        let _w = self.writer.lock();
        // SAFETY: the writer mutex blocks retirement; `current` stays
        // valid for the duration of the guard.
        unsafe { (*self.current.load(Ordering::Acquire)).len() }
    }

    /// Whether the current snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This shard's counters plus the live readers' private counts.
    pub fn stats(&self) -> StoreStatsSnapshot {
        let mut snap = self.stats.snapshot();
        for slot in self.readers.read().iter() {
            snap.gets += slot.gets.load(Ordering::Relaxed);
            snap.hits += slot.hits.load(Ordering::Relaxed);
        }
        snap
    }

    pub(crate) fn add_reader(&self, slot: Arc<ReaderSlot>) {
        self.readers.write().push(slot);
    }

    /// Retire a reader slot: fold its private counters into the shard and
    /// drop it from the serialization list. Called from handle drop, when
    /// no read through the slot can be in flight (`pin` is 0).
    pub(crate) fn remove_reader(&self, slot: &Arc<ReaderSlot>) {
        slot.active.store(false, Ordering::Release);
        // Hold the write lock across fold + removal: a concurrent
        // `stats()` (which reads the slot list under the read lock) must
        // see the slot's counters in exactly one place — still in the
        // list, or already folded into the shard — never both.
        let mut readers = self.readers.write();
        StoreStats::add(&self.stats.gets, slot.gets.load(Ordering::Relaxed));
        StoreStats::add(&self.stats.hits, slot.hits.load(Ordering::Relaxed));
        readers.retain(|s| !Arc::ptr_eq(s, slot));
    }

    /// The reader fast path (protocol steps 1–5 from the module docs).
    ///
    /// Under an asymmetric strategy this performs **no** hardware fence
    /// and no RMW: three instrumented loads, two instrumented stores, one
    /// compiler fence. The check suite's purity test asserts exactly that
    /// event sequence.
    pub(crate) fn get(&self, slot: &ReaderSlot, key: u64) -> Option<u64> {
        let e = hooks::load_u64(&self.epoch, Ordering::Acquire);
        // Release, NOT SeqCst: a SeqCst store compiles to a locked `xchg`
        // on x86-64 — a full fence + RMW that would silently give every
        // strategy mfence semantics at this position. Release stays in
        // the store buffer under TSO; whether the pin drains here is
        // decided solely by `primary_fence` on the next line (the
        // experiment's variable). The safety proofs cover the buffered
        // pin (module docs, "Why reclamation is safe").
        hooks::store_u64(&slot.pin, e, Ordering::Release);
        self.strategy.primary_fence();
        let table = hooks::load_ptr(&self.current, Ordering::Acquire);
        // SAFETY: the pin protocol (module docs) keeps `table` alive for
        // the duration of this read: it cannot be reclaimed until a
        // writer proves no visible pin protects it, and our pin does.
        let found = unsafe { (*table).get(key) };
        hooks::store_u64(&slot.pin, 0, Ordering::Release);
        // Private single-writer counters: never an RMW (see
        // `ReaderSlot::gets`).
        bump_owned(&slot.gets);
        if found.is_some() {
            bump_owned(&slot.hits);
        }
        found
    }

    /// Insert/update (`val = Some`) or remove (`val = None`); returns the
    /// previous value. Protocol steps 1–6 from the module docs.
    pub fn update(&self, key: u64, val: Option<u64>) -> Option<u64> {
        let mut w = self.writer.lock();
        let cur_ptr = self.current.load(Ordering::Acquire);
        // SAFETY: we hold the writer mutex, so `cur_ptr` is the published
        // table and cannot be retired (let alone reclaimed) under us.
        let cur = unsafe { &*cur_ptr };
        let prev = cur.peek(key);
        if val.is_none() && prev.is_none() {
            // Removing an absent key: count it, skip the table churn.
            StoreStats::bump(&self.stats.removes);
            return None;
        }
        let spare = w.spares.pop();
        let next_box = cur.derive(key, val, spare);
        // Probe HWM is computed while building the copy (writer-side);
        // grab it before publication hands the table to readers.
        let next_hwm = next_box.probe_hwm() as u64;
        let retired_bytes = cur.bytes() as u64;
        let next = Box::into_raw(next_box);
        let retire_epoch = w.epoch_value + 1;
        // Publish pointer FIRST, then epoch (TSO FIFO commit: no observer
        // sees the new epoch with the old pointer — required by the
        // reclamation rule, see module docs).
        hooks::store_ptr(&self.current, next, Ordering::Release);
        hooks::store_u64(&self.epoch, retire_epoch, Ordering::Release);
        w.epoch_value = retire_epoch;
        // Commit the publication globally before serializing readers or
        // trusting their pins.
        self.strategy.secondary_fence();
        w.limbo.push(LimboEntry {
            retire_epoch,
            table: cur_ptr,
            bytes: retired_bytes,
        });
        StoreStats::bump(&self.stats.tables_retired);
        StoreStats::bump(match val {
            Some(_) => &self.stats.puts,
            None => &self.stats.removes,
        });
        let bills = if w.limbo.len() >= RECLAIM_BATCH {
            self.reclaim(&mut w)
        } else {
            0
        };
        // Workload attribution (heat plane): the write and the remote
        // round trips it billed, charged to the written key. Writers are
        // not purity-constrained, but the same single-producer relaxed
        // discipline applies — we hold the writer mutex.
        if self.heat.armed() {
            self.heat.record_write(key, bills);
        }
        // Refresh the wait-free health mirrors — still under the writer
        // mutex, so plain load/max/store needs no RMW.
        let hwm = self.health.probe_hwm.load(Ordering::Relaxed).max(next_hwm);
        self.health.probe_hwm.store(hwm, Ordering::Relaxed);
        self.health
            .limbo_depth
            .store(w.limbo.len() as u64, Ordering::Relaxed);
        self.health
            .limbo_bytes
            .store(w.limbo.iter().map(|e| e.bytes).sum(), Ordering::Relaxed);
        self.health
            .graveyard
            .store(w.graveyard.len() as u64, Ordering::Relaxed);
        prev
    }

    /// Wait-free health snapshot for the monitor/watchdog: published
    /// epoch, the writer-maintained mirrors, and every active reader's
    /// `(slot id, pin)`. Deliberately does **not** take the writer mutex
    /// (a wedged writer must still be diagnosable) and performs no
    /// instrumented operation, no RMW, and no fence — the check suite's
    /// purity test proves sampling is invisible to the protocol.
    pub fn health_probe(&self) -> ShardProbe {
        let pins = self
            .readers
            .read()
            .iter()
            .filter(|s| s.active.load(Ordering::Relaxed))
            .map(|s| (s.slot_key(), s.pin.load(Ordering::Relaxed)))
            .collect();
        ShardProbe {
            epoch: self.epoch.load(Ordering::Relaxed),
            limbo_depth: self.health.limbo_depth.load(Ordering::Relaxed),
            limbo_bytes: self.health.limbo_bytes.load(Ordering::Relaxed),
            graveyard: self.health.graveyard.load(Ordering::Relaxed),
            probe_hwm: self.health.probe_hwm.load(Ordering::Relaxed),
            pins,
        }
    }

    /// Protocol steps 5–6: serialize every remote reader, then read the
    /// pins and apply the reclamation rule — a limbo table with
    /// `retire_epoch = r` is still protected iff some visible nonzero pin
    /// `p` has `p < r`. Returns the round trips billed.
    fn reclaim(&self, w: &mut WriterState) -> u64 {
        let mut bills = 0u64;
        let min_pin = {
            let readers = self.readers.read();
            // The write-side serialization cost: one round trip per
            // registered reader (`serialize_remote` mints a correlation
            // id per trip, so each shows up as its own causal span in the
            // flight recorder). Symmetric documents this as a no-op; a
            // thread is trivially serialized with respect to itself.
            for slot in readers.iter() {
                if slot.active.load(Ordering::Acquire) && !slot.remote.is_current() {
                    self.strategy.serialize_remote(&slot.remote);
                    bills += 1;
                }
            }
            // Pins are only read AFTER every serialization completed:
            // that is what makes buffered pins visible (or provably
            // harmless — see module docs).
            readers
                .iter()
                .filter(|s| s.active.load(Ordering::Acquire))
                .map(|s| hooks::load_u64(&s.pin, Ordering::Acquire))
                .filter(|&p| p != 0)
                .min()
        };
        let WriterState {
            limbo,
            graveyard,
            spares,
            ..
        } = w;
        let mode = self.mode;
        let mut reclaimed = 0u64;
        limbo.retain(|entry| {
            if min_pin.is_some_and(|p| p < entry.retire_epoch) {
                return true;
            }
            // SAFETY: the reclamation rule just proved no reader can
            // reach `entry.table` (module docs); each limbo pointer is
            // reclaimed exactly once because `retain` removes it. A spare
            // is republished only by a later derivation, after this proof.
            match mode {
                ReclaimMode::Free => {
                    let table = unsafe { Box::from_raw(entry.table) };
                    if spares.len() < SPARES {
                        spares.push(table);
                    }
                }
                ReclaimMode::Poison => {
                    unsafe { (*entry.table).poison() };
                    graveyard.push(entry.table);
                }
            }
            reclaimed += 1;
            false
        });
        StoreStats::add(&self.stats.tables_reclaimed, reclaimed);
        bills
    }
}

impl<S: FenceStrategy> Drop for Shard<S> {
    fn drop(&mut self) {
        let (limbo, graveyard) = {
            let mut w = self.writer.lock();
            (std::mem::take(&mut w.limbo), std::mem::take(&mut w.graveyard))
        };
        // SAFETY: exclusive access (`&mut self`); every pointer below is
        // owned by this shard and freed exactly once.
        unsafe {
            for entry in limbo {
                drop(Box::from_raw(entry.table));
            }
            for table in graveyard {
                drop(Box::from_raw(table));
            }
            drop(Box::from_raw(self.current.load(Ordering::Acquire)));
        }
    }
}

impl<S: FenceStrategy> std::fmt::Debug for Shard<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("strategy", &self.strategy.name())
            .field("epoch", &self.epoch())
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::POISON;
    use lbmf::registry::register_current_thread;
    use lbmf::strategy::{SignalFence, Symmetric};
    use std::collections::HashSet;

    fn slot_for_current_thread() -> Arc<ReaderSlot> {
        // Keep the registration alive for the process: tests only need
        // the remote handle's identity, and slots are tiny.
        let reg = Box::leak(Box::new(register_current_thread()));
        Arc::new(ReaderSlot::new(reg.remote()))
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let shard = Shard::new(Arc::new(Symmetric::new()), ReclaimMode::Free, 8);
        let slot = slot_for_current_thread();
        shard.add_reader(slot.clone());
        assert_eq!(shard.get(&slot, 1), None);
        assert_eq!(shard.update(1, Some(10)), None);
        assert_eq!(shard.update(1, Some(11)), Some(10));
        assert_eq!(shard.get(&slot, 1), Some(11));
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.update(1, None), Some(11));
        assert_eq!(shard.get(&slot, 1), None);
        assert!(shard.is_empty());
        let snap = shard.stats();
        assert_eq!((snap.gets, snap.hits), (3, 1));
        assert_eq!((snap.puts, snap.removes), (2, 1));
        shard.remove_reader(&slot);
    }

    #[test]
    fn epoch_advances_per_mutation_and_absent_remove_is_free() {
        let shard = Shard::new(Arc::new(Symmetric::new()), ReclaimMode::Free, 8);
        assert_eq!(shard.epoch(), 1);
        shard.update(5, Some(50));
        assert_eq!(shard.epoch(), 2);
        shard.update(5, None);
        assert_eq!(shard.epoch(), 3);
        // Removing a key that is not there retires no table.
        shard.update(99, None);
        assert_eq!(shard.epoch(), 3);
        let snap = shard.stats();
        assert_eq!(snap.tables_retired, 2);
        assert_eq!(snap.removes, 2);
    }

    #[test]
    fn unpinned_readers_allow_immediate_reclamation() {
        let shard = Shard::new(Arc::new(Symmetric::new()), ReclaimMode::Free, 8);
        let slot = slot_for_current_thread();
        shard.add_reader(slot.clone());
        for k in 0..10u64 {
            shard.update(k, Some(k));
        }
        let snap = shard.stats();
        assert_eq!(snap.tables_retired, 10);
        // The only registered reader is this thread, pin 0 throughout:
        // every retired table is reclaimed on the spot.
        assert_eq!(snap.tables_reclaimed, 10);
        shard.remove_reader(&slot);
    }

    #[test]
    fn a_visible_pin_holds_back_reclamation_until_cleared() {
        let shard = Shard::new(Arc::new(SignalFence::new()), ReclaimMode::Poison, 8);
        let reader = slot_for_current_thread();
        shard.add_reader(reader.clone());
        // Simulate a reader parked inside protocol step 4 at epoch 1.
        // (The slot belongs to the current thread, so `update` skips the
        // self-serialization — exactly a reader whose pin is visible.)
        reader.pin.store(1, Ordering::SeqCst);
        shard.update(7, Some(70));
        shard.update(7, Some(71));
        let held = shard.stats();
        assert_eq!(held.tables_retired, 2);
        assert_eq!(held.tables_reclaimed, 0, "pin 1 protects retire epochs 2 and 3");
        // Reader finishes: pin clears, the next write reclaims everything.
        reader.pin.store(0, Ordering::SeqCst);
        shard.update(7, Some(72));
        assert_eq!(shard.stats().tables_reclaimed, 3);
        shard.remove_reader(&reader);
    }

    #[test]
    fn poison_mode_keeps_allocations_and_marks_values() {
        let shard = Shard::new(Arc::new(Symmetric::new()), ReclaimMode::Poison, 8);
        let old_table = shard.current.load(Ordering::Acquire);
        shard.update(3, Some(30));
        // One retirement waits in limbo for the next.
        assert_eq!(shard.stats().tables_reclaimed, 0);
        shard.update(3, Some(31));
        // No pins: both retired tables were poisoned, but the
        // allocations are still alive in the graveyard — reading through
        // the stale pointer is memory-safe and yields the sentinel.
        assert_eq!(shard.stats().tables_reclaimed, 2);
        // SAFETY: poison mode never frees; the graveyard owns the block.
        let stale = unsafe { &*old_table };
        assert_eq!(stale.get(3), None, "old snapshot never had the key");
        let _ = POISON; // sentinel value asserted in the table tests
    }

    #[test]
    fn free_mode_recycles_a_bounded_set_of_tables() {
        let shard = Shard::new(Arc::new(Symmetric::new()), ReclaimMode::Free, 8);
        let mut published = HashSet::new();
        for k in 0..100u64 {
            shard.update(k % 4, Some(k));
            published.insert(shard.current.load(Ordering::Acquire));
        }
        // The current table, the limbo and the spares: nothing else.
        let warm = published.len();
        assert!(warm <= 1 + RECLAIM_BATCH + SPARES, "{warm} tables");
        for k in 0..1_000u64 {
            shard.update(k % 4, Some(k));
            published.insert(shard.current.load(Ordering::Acquire));
        }
        assert_eq!(published.len(), warm, "no new allocation after warm-up");
        assert_eq!(shard.stats().tables_reclaimed, 1_100);
    }

    #[test]
    fn poison_mode_never_republishes_a_graveyard_table() {
        let shard = Shard::new(Arc::new(Symmetric::new()), ReclaimMode::Poison, 8);
        for k in 0..200u64 {
            shard.update(k % 4, Some(k));
            let current = shard.current.load(Ordering::Acquire);
            let w = shard.writer.lock();
            assert!(
                !w.graveyard.contains(&current),
                "put {k} republished a poisoned table"
            );
            assert!(w.spares.is_empty());
        }
        assert_eq!(shard.stats().tables_reclaimed, 200);
    }

    #[test]
    fn a_visible_pin_keeps_its_table_out_of_the_spares() {
        let shard = Shard::new(Arc::new(SignalFence::new()), ReclaimMode::Free, 8);
        let reader = slot_for_current_thread();
        shard.add_reader(reader.clone());
        for k in 0..10u64 {
            shard.update(k, Some(k));
        }
        // The reader pins the current epoch and holds the current table.
        let held = shard.current.load(Ordering::Acquire);
        reader.pin.store(shard.epoch(), Ordering::SeqCst);
        for k in 0..50u64 {
            shard.update(k % 4, Some(k));
            assert_ne!(shard.current.load(Ordering::Acquire), held, "put {k}");
        }
        // Pin cleared: the held table is reclaimed into the spares and a
        // following put copies into it again.
        reader.pin.store(0, Ordering::SeqCst);
        let republished = (0..4u64).any(|k| {
            shard.update(k, Some(k));
            shard.current.load(Ordering::Acquire) == held
        });
        assert!(republished, "the released table is recycled");
        shard.remove_reader(&reader);
    }

    #[test]
    fn health_probe_mirrors_limbo_graveyard_and_pins() {
        let shard = Shard::new(Arc::new(SignalFence::new()), ReclaimMode::Poison, 8);
        let reader = slot_for_current_thread();
        shard.add_reader(reader.clone());
        let idle = shard.health_probe();
        assert_eq!(idle.epoch, 1);
        assert_eq!(idle.limbo_depth, 0);
        assert_eq!(idle.limbo_bytes, 0);
        assert_eq!(idle.probe_hwm, 0, "no table published yet");
        assert_eq!(idle.pins, [(reader.slot_key(), 0)]);
        // A visible stale pin holds retired tables in limbo; the probe
        // sees the depth, the bytes, and the guilty pin without touching
        // the writer mutex.
        reader.pin.store(1, Ordering::SeqCst);
        shard.update(7, Some(70));
        shard.update(8, Some(80));
        let stuck = shard.health_probe();
        assert_eq!(stuck.epoch, 3);
        assert_eq!(stuck.limbo_depth, 2);
        assert!(stuck.limbo_bytes > 0);
        assert!(stuck.probe_hwm >= 1);
        assert_eq!(stuck.pins, [(reader.slot_key(), 1)]);
        // Pin clears: the next write reclaims into the graveyard (poison
        // mode) and the mirrors follow.
        reader.pin.store(0, Ordering::SeqCst);
        shard.update(9, Some(90));
        let clean = shard.health_probe();
        assert_eq!(clean.limbo_depth, 0);
        assert_eq!(clean.limbo_bytes, 0);
        assert_eq!(clean.graveyard, 3);
        shard.remove_reader(&reader);
    }

    #[test]
    fn symmetric_writer_pays_no_serialization_roundtrip() {
        let shard = Shard::new(Arc::new(Symmetric::new()), ReclaimMode::Free, 8);
        let slot = slot_for_current_thread();
        shard.add_reader(slot.clone());
        shard.update(1, Some(1));
        let fence_snap = shard.strategy.stats().snapshot();
        assert_eq!(fence_snap.serializations_delivered, 0);
        shard.remove_reader(&slot);
    }
}
