//! One shard: an epoch-pinned RCU cell guarded by a pluggable
//! [`FenceStrategy`].
//!
//! # The protocol
//!
//! The shard holds a pointer to an immutable `Table` snapshot plus a
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
//! 1. build the next version by path copy (`Table::derive`): a new
//!    spine sharing every chunk of the current one except the one or two
//!    the change writes, which are copied. Only growth rehashes;
//! 2. publish: store the new table pointer **first**, then `epoch ← e+1`.
//!    TSO commits the buffer FIFO, so no thread can observe the new epoch
//!    with the old pointer. (The opposite order would be unsound: a
//!    reader pinning `e+1` while loading the *old* table would not be
//!    protected by the reclamation rule below.)
//! 3. `strategy.secondary_fence()` — the publication is globally visible
//!    before anything downstream;
//! 4. retire the old version into limbo at `retire_epoch = e+1`: its
//!    spine and the chunks step 1 replaced, which no newer version
//!    references. Steps 5 and 6 run only once the limbo holds as many
//!    bytes as one full table of the new version, or once this put drew
//!    the shard's pool of reclaimed memory (below) down to less than the
//!    next put may need. So a shard of 64 chunks pays one pass per ~40
//!    puts and a one-chunk table one per retirement, and the limbo never
//!    holds much more than one table. A pass per put would signal the
//!    readers so often that about 1% of their gets land in a signal
//!    handler (DESIGN.md §15);
//! 5. serialize every registered reader
//!    ([`FenceStrategy::serialize_remote`]) — for the asymmetric
//!    strategies this drains each reader's store buffer (the signal /
//!    membarrier round trip the paper charges the secondary), making
//!    every pin stored *before* the serialization point visible;
//! 6. load the pins and reclaim each limbo entry whose
//!    `retire_epoch = r` satisfies: **no** visible nonzero pin `p < r`.
//!    Reclaiming hands the entry's spine and replaced chunks to the
//!    shard's pool, which frees what it has no room for (in
//!    [`ReclaimMode::Poison`] it poisons them instead), nothing else.
//!
//! # The pool
//!
//! In [`ReclaimMode::Free`] each shard keeps the memory its passes
//! reclaim, up to one table's bytes, and the next puts copy into it
//! instead of calling the allocator (the table module's "Who recycles a
//! chunk"). The pool is writer-private state under the writer mutex. It
//! also paces the passes: a put that found the pool able to serve a put
//! and left it unable runs the pass, whose reclaim refills the pool with
//! what the puts since the last pass took. At steady state a pass thus
//! never reclaims more than the pool can keep, and a put neither
//! allocates nor frees. The byte rule stays as the backstop: it paces
//! the passes until the pool first fills (at the start, and again after
//! a growth changes the spine length), every pass in poison mode (which
//! never recycles), and a shard whose pass a pinned reader held back.
//!
//! # The published block
//!
//! The two shard cells a get reads, the table pointer and the epoch,
//! share one [`CachePadded`] block that nothing else is written in. A
//! put stores both once, and nothing else it writes (its counters, the
//! health mirrors) lands in that block, so a reader's loads miss only on
//! a publication.
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
//! argument needs. Shared chunks change nothing either: a chunk is
//! retired with the last version that references it, at epoch `r`, and
//! every older version that reaches it retired at an epoch below `r`, so
//! a pin that could reach the chunk through any of them is `< r` and
//! keeps the entry. Recycling changes nothing either: writing a pooled
//! chunk later is a write to memory the rule proved unreachable, which
//! is what freeing and reallocating it would be. Two ways a pin can be
//! invisible:
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
use crate::stats::{add_owned, StoreStats, StoreStatsSnapshot};
use crate::table::{Pool, Retired, Table};
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
    /// Retired versions awaiting reclamation (mirror; see [`Shard::health_probe`]).
    pub limbo_depth: u64,
    /// Bytes those versions release when reclaimed (spines plus replaced
    /// chunks).
    pub limbo_bytes: u64,
    /// The limbo bytes at which a write runs a reclamation pass: one full
    /// table of the current version. Limbo above it after a write means
    /// that write's pass could not reclaim (one retirement is at most a
    /// table).
    pub pass_bytes: u64,
    /// Poisoned retirements kept alive (poison mode).
    pub graveyard: u64,
    /// Bytes the shard's pool holds for the next puts to copy into:
    /// reclaimed chunks, headers and spines. At most `pass_bytes` (one
    /// table); always 0 in poison mode.
    pub pool_bytes: u64,
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
    pass_bytes: AtomicU64,
    graveyard: AtomicU64,
    pool_bytes: AtomicU64,
    probe_hwm: AtomicU64,
}

struct LimboEntry {
    /// The epoch whose publication retired this version: a visible pin
    /// `p < retire_epoch` may still reach it.
    retire_epoch: u64,
    retired: Retired,
}

struct WriterState {
    /// Mirror of the published epoch, readable without touching the
    /// shared cell (the mutex serializes writers).
    epoch_value: u64,
    /// Retired versions not yet proven unreachable.
    limbo: Vec<LimboEntry>,
    /// Sum of the limbo's [`Retired::bytes`]: a pass runs once it reaches
    /// one full table (protocol step 4).
    limbo_bytes: usize,
    /// Reclaimed memory for the next derivations ([`ReclaimMode::Free`]
    /// only; module docs, "The pool").
    pool: Pool,
    /// Poisoned retirements kept alive in [`ReclaimMode::Poison`].
    graveyard: Vec<Retired>,
}

/// The two cells a get reads (module docs, "The published block").
#[derive(Debug)]
struct Published {
    /// The published snapshot. Readers load it on the fast path; only
    /// writers (mutex-serialized) store it.
    current: AtomicPtr<Table>,
    /// The published epoch, bumped after every pointer publication.
    epoch: AtomicU64,
}

/// One epoch-pinned RCU shard (see the module docs for the protocol).
pub struct Shard<S: FenceStrategy> {
    strategy: Arc<S>,
    published: CachePadded<Published>,
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
// managed by the protocol above — each spine and each chunk is freed
// exactly once (a chunk by the retirement that replaced it or, still
// current, by Drop), and shared access to live versions is read-only.
unsafe impl<S: FenceStrategy> Send for Shard<S> {}
unsafe impl<S: FenceStrategy> Sync for Shard<S> {}

impl<S: FenceStrategy> Shard<S> {
    /// A shard whose initial (empty) table can hold `capacity` entries
    /// without growing.
    pub fn new(strategy: Arc<S>, mode: ReclaimMode, capacity: usize) -> Shard<S> {
        let initial = Box::new(Table::with_capacity(capacity));
        let health = HealthMirror::default();
        health
            .pass_bytes
            .store(initial.bytes() as u64, Ordering::Relaxed);
        Shard {
            strategy,
            published: CachePadded::new(Published {
                current: AtomicPtr::new(Box::into_raw(initial)),
                epoch: AtomicU64::new(1),
            }),
            writer: Mutex::new(WriterState {
                epoch_value: 1,
                limbo: Vec::new(),
                limbo_bytes: 0,
                pool: Pool::default(),
                graveyard: Vec::new(),
            }),
            readers: RwLock::new(Vec::new()),
            mode,
            stats: StoreStats::new(),
            health,
            heat: ShardHeat::new(),
        }
    }

    /// Insert or update every `(key, value)` of `entries`. `&mut self`
    /// proves no reader or writer can reach the shard, so there is no
    /// epoch bump, no serialization and nothing retired: the entries go
    /// into the current table in place, after one rehash into a larger
    /// table if it has no room for all of them. Counts as
    /// `entries.len()` puts.
    pub(crate) fn fill(&mut self, entries: &[(u64, u64)]) {
        let current = self.published.current.get_mut();
        // SAFETY (both derefs): exclusive access; `current` is this
        // shard's live table. Limbo and graveyard spines may share its
        // chunks, but nothing reads through them any more.
        let table = unsafe { &**current };
        if !table.has_room_for(entries.len()) {
            let grown = table.rehashed_for(table.len() + entries.len());
            let old = std::mem::replace(current, Box::into_raw(Box::new(grown)));
            // SAFETY: see above; no retirement frees `old`'s chunks, as
            // no derivation replaced them.
            unsafe { Table::free_all(old) };
        }
        let table = unsafe { &mut **current };
        unsafe { table.insert_all(entries) };
        *self.stats.puts.get_mut() += entries.len() as u64;
        let mirror = self.health.probe_hwm.get_mut();
        *mirror = (*mirror).max(table.probe_hwm() as u64);
        *self.health.pass_bytes.get_mut() = table.bytes() as u64;
    }

    /// The shard's write-side heat sketches (crate-internal: armed by
    /// the store's plane, read by its report).
    pub(crate) fn heat(&self) -> &ShardHeat {
        &self.heat
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.published.epoch.load(Ordering::Acquire)
    }

    /// Entries in the current snapshot (takes the writer mutex so the
    /// snapshot cannot be retired mid-read; not for hot paths).
    pub fn len(&self) -> usize {
        let _w = self.writer.lock();
        // SAFETY: the writer mutex blocks retirement; `current` stays
        // valid for the duration of the guard.
        unsafe { (*self.published.current.load(Ordering::Acquire)).len() }
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
        let e = hooks::load_u64(&self.published.epoch, Ordering::Acquire);
        // Release, NOT SeqCst: a SeqCst store compiles to a locked `xchg`
        // on x86-64 — a full fence + RMW that would silently give every
        // strategy mfence semantics at this position. Release stays in
        // the store buffer under TSO; whether the pin drains here is
        // decided solely by `primary_fence` on the next line (the
        // experiment's variable). The safety proofs cover the buffered
        // pin (module docs, "Why reclamation is safe").
        hooks::store_u64(&slot.pin, e, Ordering::Release);
        self.strategy.primary_fence();
        let table = hooks::load_ptr(&self.published.current, Ordering::Acquire);
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
        let mut guard = self.writer.lock();
        let w = &mut *guard;
        let cur_ptr = self.published.current.load(Ordering::Acquire);
        // SAFETY: we hold the writer mutex, so `cur_ptr` is the published
        // table and cannot be retired (let alone reclaimed) under us.
        let cur = unsafe { &*cur_ptr };
        let prev = cur.peek(key);
        // The writer-side counters are the mutex holder's alone: plain
        // load-add-store (`bump_owned`), no locked RMW.
        if val.is_none() && prev.is_none() {
            // Removing an absent key: count it, skip the table churn.
            bump_owned(&self.stats.removes);
            return None;
        }
        let pool_ready = !w.pool.low_for(cur);
        let (next_box, replaced) = cur.derive(key, val, &mut w.pool);
        // Probe HWM is computed while building the version (writer-side);
        // grab it, the pass threshold and the pool's state before
        // publication hands the table to readers.
        let next_hwm = next_box.probe_hwm() as u64;
        let pass_bytes = next_box.bytes();
        let pool_drained = pool_ready && w.pool.low_for(&next_box);
        let retired = Retired::new(cur_ptr, replaced);
        let next = Box::into_raw(next_box);
        let retire_epoch = w.epoch_value + 1;
        // Publish pointer FIRST, then epoch (TSO FIFO commit: no observer
        // sees the new epoch with the old pointer — required by the
        // reclamation rule, see module docs).
        hooks::store_ptr(&self.published.current, next, Ordering::Release);
        hooks::store_u64(&self.published.epoch, retire_epoch, Ordering::Release);
        w.epoch_value = retire_epoch;
        // Commit the publication globally before serializing readers or
        // trusting their pins.
        self.strategy.secondary_fence();
        w.limbo_bytes += retired.bytes();
        w.limbo.push(LimboEntry {
            retire_epoch,
            retired,
        });
        bump_owned(&self.stats.tables_retired);
        bump_owned(match val {
            Some(_) => &self.stats.puts,
            None => &self.stats.removes,
        });
        let bills = if w.limbo_bytes >= pass_bytes || pool_drained {
            self.reclaim(w)
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
            .store(w.limbo_bytes as u64, Ordering::Relaxed);
        self.health
            .pass_bytes
            .store(pass_bytes as u64, Ordering::Relaxed);
        self.health
            .graveyard
            .store(w.graveyard.len() as u64, Ordering::Relaxed);
        self.health
            .pool_bytes
            .store(w.pool.bytes() as u64, Ordering::Relaxed);
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
            epoch: self.published.epoch.load(Ordering::Relaxed),
            limbo_depth: self.health.limbo_depth.load(Ordering::Relaxed),
            limbo_bytes: self.health.limbo_bytes.load(Ordering::Relaxed),
            pass_bytes: self.health.pass_bytes.load(Ordering::Relaxed),
            graveyard: self.health.graveyard.load(Ordering::Relaxed),
            pool_bytes: self.health.pool_bytes.load(Ordering::Relaxed),
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
        // The limbo is in retire-epoch order, so the reclaimable entries
        // (`r <= p` for the smallest visible pin `p`, or all of them) are
        // a prefix: split it off in place.
        let free = min_pin.map_or(w.limbo.len(), |p| {
            w.limbo.partition_point(|e| e.retire_epoch <= p)
        });
        add_owned(&self.stats.tables_reclaimed, free as u64);
        // SAFETY: under the writer mutex the published table is live.
        let current = unsafe { &*self.published.current.load(Ordering::Relaxed) };
        for entry in w.limbo.drain(..free) {
            w.limbo_bytes -= entry.retired.bytes();
            // SAFETY: the reclamation rule just proved no reader can
            // reach the retired version (module docs), nor so its
            // replaced chunks; each entry is reclaimed once, as it left
            // the limbo above.
            match self.mode {
                ReclaimMode::Free => unsafe { w.pool.recycle(entry.retired, current) },
                ReclaimMode::Poison => {
                    entry.retired.poison();
                    w.graveyard.push(entry.retired);
                }
            }
        }
        bills
    }
}

impl<S: FenceStrategy> Drop for Shard<S> {
    fn drop(&mut self) {
        let (limbo, graveyard, pool) = {
            let mut w = self.writer.lock();
            (
                std::mem::take(&mut w.limbo),
                std::mem::take(&mut w.graveyard),
                std::mem::take(&mut w.pool),
            )
        };
        // The pool owns its chunks and husks alone.
        drop(pool);
        // SAFETY: exclusive access (`&mut self`); every chunk is reached
        // by the current version, was replaced by exactly one
        // retirement, or is pooled, so each is freed once.
        unsafe {
            for entry in limbo {
                entry.retired.free();
            }
            for retired in graveyard {
                retired.free();
            }
            Table::free_all(*self.published.current.get_mut());
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
        shard.update(3, Some(30));
        let stale = shard.published.current.load(Ordering::Acquire);
        shard.update(3, Some(31));
        // A one-chunk table: each retirement releases a full table's
        // bytes, so each put reclaims the version it retired.
        assert_eq!(shard.stats().tables_reclaimed, 2);
        // SAFETY: poison mode never frees; the graveyard owns the block,
        // so reading through the stale pointer is memory-safe and yields
        // the sentinel.
        let stale = unsafe { &*stale };
        assert_eq!(stale.get(3), Some(POISON));
        assert_eq!(stale.get(4), None, "keys survive poisoning");
    }

    #[test]
    fn a_pass_runs_once_the_limbo_holds_a_full_table() {
        // 512 slots in 8 chunks; the only reader is this thread, unpinned.
        // Poison mode never recycles, so the byte rule alone paces it.
        let shard = Shard::new(Arc::new(Symmetric::new()), ReclaimMode::Poison, 256);
        let slot = slot_for_current_thread();
        shard.add_reader(slot.clone());
        let pass_bytes = shard.health_probe().pass_bytes;
        assert!(
            pass_bytes > 8 * 1024,
            "one table: eight 1 KiB chunks and a spine"
        );
        shard.update(0, Some(0));
        // An insert copies one chunk: the retirement is a spine and it.
        let per_put = shard.health_probe().limbo_bytes;
        assert!(per_put > 1024 && per_put < 2 * 1024, "{per_put} bytes");
        let puts_per_pass = pass_bytes.div_ceil(per_put);
        let mut passes = 0;
        for k in 1..200u64 {
            let before = shard.stats().tables_reclaimed;
            shard.update(k % 64, Some(k));
            let probe = shard.health_probe();
            assert!(probe.limbo_bytes < probe.pass_bytes, "put {k}");
            if shard.stats().tables_reclaimed > before {
                passes += 1;
                assert_eq!(probe.limbo_depth, 0, "put {k}: a pass reclaims all");
                assert_eq!((k + 1) % puts_per_pass, 0, "put {k} passed early");
            }
        }
        assert_eq!(passes, 200 / puts_per_pass);
        shard.remove_reader(&slot);
    }

    #[test]
    fn once_the_pool_is_filled_it_paces_the_passes() {
        // 512 slots in 8 chunks; the only reader is this thread, unpinned.
        let shard = Shard::new(Arc::new(Symmetric::new()), ReclaimMode::Free, 256);
        let slot = slot_for_current_thread();
        shard.add_reader(slot.clone());
        let husk = shard.health_probe().pass_bytes - 8 * 1024;
        let mut passes = Vec::new();
        for k in 0..100u64 {
            let before = shard.stats().tables_reclaimed;
            shard.update(k % 64, Some(k));
            let probe = shard.health_probe();
            assert!(probe.pool_bytes <= probe.pass_bytes, "put {k}");
            if shard.stats().tables_reclaimed > before {
                passes.push(k);
                // Eight husks (header and spine) and seven chunks: the
                // eighth chunk would take the pool past one table.
                assert_eq!(probe.pool_bytes, 8 * husk + 7 * 1024, "put {k}");
            }
        }
        // The pool starts empty, so the byte rule runs the first pass:
        // eight puts retire a spine and one chunk each, a table's bytes.
        // From then on a pass runs when a put leaves the pool fewer than
        // two chunks, every sixth put, and refills it as it was.
        assert_eq!(passes[0], 7);
        assert!(passes.windows(2).all(|w| w[1] - w[0] == 6), "{passes:?}");
        shard.remove_reader(&slot);
    }

    /// A 256-slot, four-chunk shard in poison mode with this thread as
    /// its one (never serialized) reader.
    fn poison_shard() -> (Shard<SignalFence>, Arc<ReaderSlot>) {
        let shard = Shard::new(Arc::new(SignalFence::new()), ReclaimMode::Poison, 128);
        let slot = slot_for_current_thread();
        shard.add_reader(slot.clone());
        (shard, slot)
    }

    #[test]
    fn poison_mode_never_poisons_a_published_chunk() {
        let (shard, slot) = poison_shard();
        let mut model = std::collections::BTreeMap::new();
        let mut rng = lbmf_prng::SplitMix64::new(0x5eed);
        for step in 0..1_000u64 {
            let key = lbmf_prng::Rng::bounded_u64(&mut rng, 120);
            if step % 3 == 2 {
                model.remove(&key);
                shard.update(key, None);
            } else {
                model.insert(key, step);
                shard.update(key, Some(step));
            }
            for k in 0..120u64 {
                assert_eq!(
                    shard.get(&slot, k),
                    model.get(&k).copied(),
                    "step {step} key {k}"
                );
            }
        }
        assert!(
            shard.stats().tables_reclaimed > 100,
            "the graveyard filled up"
        );
        shard.remove_reader(&slot);
    }

    #[test]
    fn a_visible_pin_keeps_every_chunk_of_its_version_alive() {
        let (shard, reader) = poison_shard();
        for k in 0..100u64 {
            shard.update(k, Some(k));
        }
        // The reader pins the current epoch and holds the current version.
        let held = shard.published.current.load(Ordering::Acquire);
        reader.pin.store(shard.epoch(), Ordering::SeqCst);
        // SAFETY: the pin keeps `held` and every chunk it reaches alive.
        let held = unsafe { &*held };
        for k in 0..200u64 {
            match k % 4 {
                3 => shard.update(k % 100, None),
                _ => shard.update(k % 100, Some(1_000 + k)),
            };
            assert!((0..100).all(|key| held.get(key) == Some(key)), "put {k}");
        }
        assert_eq!(
            shard.stats().tables_reclaimed,
            100,
            "only the pre-pin versions"
        );
        // Pin cleared: the next pass poisons the chunks only `held` and
        // the versions after it reached.
        reader.pin.store(0, Ordering::SeqCst);
        shard.update(0, Some(7));
        assert!((0..100).any(|key| held.get(key) == Some(POISON)));
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
        assert!(idle.pass_bytes > 0, "one empty table's bytes");
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
        assert!(
            stuck.limbo_bytes > stuck.pass_bytes,
            "the pass could not reclaim"
        );
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
