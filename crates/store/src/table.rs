//! Immutable-once-published open-addressing tables, path-copied chunk by
//! chunk.
//!
//! A `Table` is one shard's snapshot: writers build a new version off
//! to the side, publish it with a single pointer store, and never mutate
//! a published version again. That immutability is what makes the reader
//! fast path so small — probing walks plain key loads (no atomics needed
//! for data that cannot change), and a present key costs exactly **one**
//! instrumented atomic load, of its value cell. The model checker's
//! purity test counts on that: a read must be `epoch load → pin store →
//! primary fence → table-pointer load → one value load → unpin store` and
//! nothing else.
//!
//! A version is a *spine*: an array of pointers to fixed chunks of
//! `CHUNK_SLOTS` slots (1 KiB; a table smaller than that is one chunk of
//! its own size). Each slot holds its key and value side by side, so a
//! hit touches one cache line. The spine and every chunk it reaches are
//! immutable once published, so the spine load is a plain load too.
//!
//! A writer builds the next version with `Table::derive`, a *path
//! copy*: a new spine that shares every chunk of the current one except
//! the chunk or chunks the change writes — the slot of an insert or
//! update, the hole and the shifted entries of a backward-shift remove
//! (no tombstones), which may run into the next chunk. Only an insert
//! past the ½ load factor rehashes, into twice the capacity and all-new
//! chunks. (Copying a kv_write_mix shard's whole 64 KiB table was 11.7 µs
//! of a 14.7 µs put; one chunk is 1 KiB.)
//!
//! # Who frees a chunk
//!
//! Versions share chunks, so no version owns its chunks. `derive`
//! returns the chunks it replaced: no newer version references them, so
//! they are retired together with the old spine as one `Retired`, and
//! reclamation frees or poisons exactly them. A chunk is thereby retired
//! with the *last* version that references it, and every older version
//! sharing it was retired before, at a smaller retire epoch — so the pin
//! rule that proves the last one unreachable proves them all unreachable
//! (see the shard's module docs). Dropping a `Table` frees its spine
//! only; `Table::free_all` frees the one version still standing
//! together with every chunk it reaches.
//!
//! # Who recycles a chunk
//!
//! In [`ReclaimMode::Free`](crate::shard::ReclaimMode) a reclaimed
//! `Retired` is not handed back to the allocator: [`Pool::recycle`] keeps
//! its full-size chunks, and its header with spine and `replaced` list
//! (a *husk*), in the shard's pool, and `derive` copies into those
//! before it allocates. Only the writer touches the pool, under the
//! shard's mutex, and only reclamation fills it, so a pooled chunk is
//! one the pin rule has already proven unreachable: writing it is what
//! freeing and reallocating it would have been, without the allocator.
//! The pool holds at most one table's bytes of the version current at
//! the pass that fills it (the shard's pass threshold); reclamation
//! frees the rest, and a husk whose spine no longer matches the current
//! length. Each pass refills the pool with what the puts since the
//! previous pass took from it, so at steady state a put neither
//! allocates nor frees (the shard's module docs say when a pass runs).
//! Without the pool a pass freed about forty spines, chunks and lists
//! at once, more than glibc's per-thread cache holds, and a chunk freed
//! by the client that did not allocate it took the other client's arena
//! lock.
//!
//! Value cells are `AtomicU64` (not plain `u64`) for one reason: poison.
//! In [`ReclaimMode::Poison`](crate::shard::ReclaimMode) the shard models
//! allocator reuse by overwriting a *reclaimed* chunk's values with
//! [`POISON`] while keeping the allocation alive — so a protocol bug
//! (reading a version the writer already reclaimed) becomes a
//! memory-safe, deterministic torn read the checker can observe, instead
//! of an actual use-after-free. Only the chunks a retirement replaced
//! are poisoned, not its spine (and not the chunks it shares with newer
//! versions), so a premature reclaim shows only on a read that lands in
//! a replaced chunk: a read of a shared chunk through the reclaimed
//! spine returns a valid value. Full coverage comes from the one-chunk
//! tables the model checker explores, where every derivation replaces
//! the whole table.

use lbmf::hooks;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// Key sentinel marking an empty probe slot. `u64::MAX` is therefore the
/// one key value the store cannot hold.
pub const EMPTY_KEY: u64 = u64::MAX;

/// The value written through reclaimed chunks in poison mode: a pattern
/// no test workload ever stores, so reading it proves a use-after-reclaim.
pub const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// Fibonacci-hash multiplier (2⁶⁴/φ), the same mixer the workload
/// generator and the DES schedule use for shard routing.
pub const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slots per chunk: 64 slots of 16 bytes, 1 KiB.
const CHUNK_SLOTS: usize = 64;

/// Bytes of one full-size chunk: the unit the pool keeps.
const CHUNK_BYTES: usize = CHUNK_SLOTS * std::mem::size_of::<Slot>();

/// One probe slot: a key and its value side by side.
#[derive(Debug)]
struct Slot {
    key: u64,
    val: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            key: EMPTY_KEY,
            val: AtomicU64::new(0),
        }
    }

    /// Writer-side copy (plain loads of immutable data).
    fn copy(&self) -> Slot {
        Slot {
            key: self.key,
            val: AtomicU64::new(self.val.load(Ordering::Relaxed)),
        }
    }
}

/// The address of one chunk. Its length is the chunk size of the table
/// whose spine it came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Chunk(NonNull<Slot>);

impl Chunk {
    fn alloc(slots: impl Iterator<Item = Slot>) -> Chunk {
        let chunk: Box<[Slot]> = slots.collect();
        Chunk(NonNull::from(Box::leak(chunk)).cast())
    }

    /// # Safety
    /// The chunk is live and holds `len` slots.
    unsafe fn slots<'a>(self, len: usize) -> &'a [Slot] {
        std::slice::from_raw_parts(self.0.as_ptr(), len)
    }

    /// # Safety
    /// The chunk holds `len` slots, no version can be read through it
    /// any more, and it is freed once.
    unsafe fn free(self, len: usize) {
        drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
            self.0.as_ptr(),
            len,
        )));
    }
}

/// One shard snapshot: a fixed-capacity linear-probe hash table stored
/// as a spine of chunk pointers (module docs).
#[derive(Debug)]
pub(crate) struct Table {
    mask: usize,
    /// log₂ of the slots per chunk.
    shift: u32,
    spine: Box<[Chunk]>,
    len: usize,
    /// Worst probe length any present key needs (1 = home-slot hit,
    /// 0 = empty table). Computed at build time, on the writer's side —
    /// the read path must never be instrumented to measure itself, so
    /// the health plane's probe-length gauge reads this immutable field
    /// instead.
    probe_hwm: usize,
}

impl Table {
    /// An empty table able to hold `at_least` entries below the ½ load
    /// factor (capacity is the next power of two of `2·at_least`, min 4),
    /// in fresh chunks: free it with [`free_all`](Self::free_all).
    pub fn with_capacity(at_least: usize) -> Table {
        Table::with_slots(Table::cap_for(at_least))
    }

    /// Capacity for `at_least` entries below the ½ load factor.
    fn cap_for(at_least: usize) -> usize {
        (at_least.max(1) * 2).next_power_of_two().max(4)
    }

    /// An empty table of exactly `cap` slots (a power of two, at least 4).
    fn with_slots(cap: usize) -> Table {
        debug_assert!(cap.is_power_of_two() && cap >= 4);
        let per_chunk = cap.min(CHUNK_SLOTS);
        Table {
            mask: cap - 1,
            shift: per_chunk.trailing_zeros(),
            spine: (0..cap / per_chunk)
                .map(|_| Chunk::alloc((0..per_chunk).map(|_| Slot::empty())))
                .collect(),
            len: 0,
            probe_hwm: 0,
        }
    }

    /// Worst-case probe length for any present key (slots inspected,
    /// 1 = home hit; 0 for an empty table). Immutable once published.
    pub fn probe_hwm(&self) -> usize {
        self.probe_hwm
    }

    /// Heap footprint of this version: header, spine and every chunk it
    /// reaches. A shard runs a reclamation pass once its limbo holds
    /// this many bytes.
    pub fn bytes(&self) -> usize {
        self.spine_bytes() + self.spine.len() * self.chunk_bytes()
    }

    /// Header plus spine: what a version costs beyond its chunks.
    fn spine_bytes(&self) -> usize {
        std::mem::size_of::<Table>() + std::mem::size_of_val(&*self.spine)
    }

    fn chunk_slots(&self) -> usize {
        1 << self.shift
    }

    fn chunk_bytes(&self) -> usize {
        self.chunk_slots() * std::mem::size_of::<Slot>()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Probe-slot count.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // High multiplier bits are the well-mixed ones.
        ((key.wrapping_mul(HASH_MUL) >> 32) as usize) & self.mask
    }

    /// Slot `i`: a plain load of the spine entry, then the slot's line.
    #[inline]
    fn slot(&self, i: usize) -> &Slot {
        let chunk = self.spine[i >> self.shift];
        // SAFETY: every spine entry points at `chunk_slots()` live slots
        // for as long as this version can be read (module docs), and the
        // offset is below that.
        unsafe { &*chunk.0.as_ptr().add(i & (self.chunk_slots() - 1)) }
    }

    /// Reader fast-path lookup. Key probing is plain loads of immutable
    /// data; a hit performs exactly one instrumented value load (the only
    /// scheduling point the check harness sees inside the table).
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY_KEY, "u64::MAX is the empty sentinel");
        let mut i = self.home(key);
        // The ½ load-factor invariant guarantees an EMPTY_KEY slot, but
        // that is only debug-asserted at build time; bound the probe at
        // one full sweep so a violated invariant in a release build
        // degrades to a miss, never an infinite loop on the fast path.
        for _ in 0..self.capacity() {
            let slot = self.slot(i);
            if slot.key == key {
                return Some(hooks::load_u64(&slot.val, Ordering::Acquire));
            }
            if slot.key == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// Writer-side lookup of the committed value (plain atomics; callers
    /// hold the shard's writer mutex, published versions are immutable).
    pub fn peek(&self, key: u64) -> Option<u64> {
        let mut i = self.home(key);
        // Same full-sweep bound as `get`.
        for _ in 0..self.capacity() {
            let slot = self.slot(i);
            if slot.key == key {
                return Some(slot.val.load(Ordering::Relaxed));
            }
            if slot.key == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// Live `(key, value)` pairs in probe order (writer-side, plain loads).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.capacity())
            .map(|i| self.slot(i))
            .filter(|s| s.key != EMPTY_KEY)
            .map(|s| (s.key, s.val.load(Ordering::Relaxed)))
    }

    /// Path-copy derivation: the next version, with `key` updated
    /// (`Some(val)`) or removed (`None`), and the chunks of this version
    /// it replaced. The new version shares every other chunk with this
    /// one; this version stays readable, unchanged.
    ///
    /// While the capacity suffices, the change is applied through the
    /// probe (insert or update) or by backward-shift deletion, copying
    /// each chunk before its first write. Only an insert that would push
    /// the table past the ½ load factor rehashes, into a table twice as
    /// large; then every chunk of this version is replaced. Shrink never
    /// happens (serving tiers size for their peak).
    ///
    /// A path copy writes the new header, spine and chunk copies into
    /// memory taken from `pool` while it has some, and allocates the
    /// rest; a rehash allocates.
    pub fn derive(&self, key: u64, val: Option<u64>, pool: &mut Pool) -> (Box<Table>, Vec<Chunk>) {
        if val.is_some() && (self.len + 1) * 2 > self.capacity() && self.peek(key).is_none() {
            let next = self.rehash(self.capacity() * 2, val.map(|v| (key, v)));
            return (Box::new(next), self.spine.to_vec());
        }
        // The new header and spine: a pooled husk of the same length,
        // overwritten, or a fresh allocation.
        let (mut next, replaced) = match pool.take_husk(self.spine.len()) {
            Some(Husk {
                mut table,
                replaced,
            }) => {
                let mut spine = std::mem::take(&mut table.spine);
                spine.copy_from_slice(&self.spine);
                *table = Table { spine, ..*self };
                (table, replaced)
            }
            // Two entries: a backward shift may replace two chunks.
            None => (
                Box::new(Table {
                    spine: self.spine.clone(),
                    ..*self
                }),
                Vec::with_capacity(2),
            ),
        };
        let mut copy = PathCopy {
            src: &self.spine,
            replaced,
            pool,
        };
        match val {
            Some(v) => next.put(key, v, Some(&mut copy)),
            None => next.remove(key, Some(&mut copy)),
        }
        (next, copy.replaced)
    }

    /// Insert or update every `(key, value)` of `entries`, in order, in
    /// place. The caller checks there is room below the ½ load factor
    /// ([`has_room_for`](Self::has_room_for)).
    ///
    /// # Safety
    /// No reader can reach this version or any version sharing its
    /// chunks while this runs: the chunks are written in place.
    pub unsafe fn insert_all(&mut self, entries: &[(u64, u64)]) {
        debug_assert!(self.has_room_for(entries.len()));
        for &(k, v) in entries {
            self.put(k, v, None);
        }
    }

    /// Whether `n` more entries fit below the ½ load factor.
    pub fn has_room_for(&self, n: usize) -> bool {
        (self.len + n) * 2 <= self.capacity()
    }

    /// This version's entries in fresh chunks, in a table sized for
    /// `at_least` entries as [`with_capacity`](Self::with_capacity) sizes
    /// it: free it with [`free_all`](Self::free_all).
    pub fn rehashed_for(&self, at_least: usize) -> Table {
        self.rehash(Table::cap_for(at_least), std::iter::empty())
    }

    /// This version's entries plus `extra`, in `cap` fresh slots.
    fn rehash(&self, cap: usize, extra: impl IntoIterator<Item = (u64, u64)>) -> Table {
        let mut next = Table::with_slots(cap);
        for (k, v) in self.iter().chain(extra) {
            next.put(k, v, None);
        }
        next
    }

    /// Slot `i` for writing. Under a derivation (`copy`), a chunk this
    /// version still shares with its source is first replaced by a
    /// private copy and recorded as replaced; without one (`insert_all`,
    /// `rehash`) every chunk is written in place.
    fn slot_mut(&mut self, i: usize, copy: Option<&mut PathCopy>) -> &mut Slot {
        let c = i >> self.shift;
        let n = self.chunk_slots();
        if let Some(copy) = copy {
            if copy.src[c] == self.spine[c] {
                let shared = self.spine[c];
                // SAFETY: `shared` belongs to the live source version.
                self.spine[c] = unsafe { copy.pool.copy_of(shared, n) };
                copy.replaced.push(shared);
            }
        }
        // SAFETY: the chunk is this version's own — copied above, fresh,
        // or (for `insert_all`) unreachable by any reader — so nothing
        // else reads or writes it; the offset is in bounds.
        unsafe { &mut *self.spine[c].0.as_ptr().add(i & (n - 1)) }
    }

    /// Pre-publication insert or update through the probe.
    fn put(&mut self, key: u64, val: u64, copy: Option<&mut PathCopy>) {
        debug_assert_ne!(key, EMPTY_KEY);
        debug_assert!(self.len * 2 <= self.capacity(), "load factor exceeded");
        let mut i = self.home(key);
        let mut probes = 1;
        loop {
            let k = self.slot(i).key;
            if k == key || k == EMPTY_KEY {
                if k == EMPTY_KEY {
                    self.len += 1;
                }
                let slot = self.slot_mut(i, copy);
                slot.key = key;
                *slot.val.get_mut() = val;
                self.probe_hwm = self.probe_hwm.max(probes);
                return;
            }
            i = (i + 1) & self.mask;
            probes += 1;
        }
    }

    /// Pre-publication backward-shift deletion: empty `key`'s slot, then
    /// pull each later entry of its cluster back into the hole when the
    /// hole lies on that entry's probe path, so every remaining key stays
    /// reachable from its home slot without tombstones. Only hole slots
    /// are written, so only their chunks are copied. Probe lengths only
    /// shrink, so `probe_hwm` stays an upper bound.
    fn remove(&mut self, key: u64, mut copy: Option<&mut PathCopy>) {
        let mut hole = self.home(key);
        loop {
            match self.slot(hole).key {
                k if k == key => break,
                EMPTY_KEY => return,
                _ => hole = (hole + 1) & self.mask,
            }
        }
        let mut i = (hole + 1) & self.mask;
        loop {
            let k = self.slot(i).key;
            if k == EMPTY_KEY {
                break;
            }
            // `k` may move into the hole iff the hole is no further from
            // `k`'s home than `i` is (cyclic distances).
            if (i.wrapping_sub(self.home(k)) & self.mask) >= (i.wrapping_sub(hole) & self.mask) {
                let v = self.slot(i).val.load(Ordering::Relaxed);
                let slot = self.slot_mut(hole, copy.as_deref_mut());
                slot.key = k;
                *slot.val.get_mut() = v;
                hole = i;
            }
            i = (i + 1) & self.mask;
        }
        let slot = self.slot_mut(hole, copy);
        slot.key = EMPTY_KEY;
        *slot.val.get_mut() = 0;
        self.len -= 1;
    }

    /// Free `table`'s spine and every chunk it reaches.
    ///
    /// # Safety
    /// `table` came from `Box::into_raw`, no reader can reach it, and no
    /// other version's retirement frees any of its chunks: it is the last
    /// version standing.
    pub unsafe fn free_all(table: *mut Table) {
        let table = Box::from_raw(table);
        for &chunk in table.spine.iter() {
            chunk.free(table.chunk_slots());
        }
    }
}

/// What one derivation took out of service: the old version's spine and
/// the chunks [`Table::derive`] replaced, which no newer version
/// references. Reclaiming it releases exactly these.
pub(crate) struct Retired {
    table: *mut Table,
    chunks: Vec<Chunk>,
    /// Spine plus chunks, captured at retirement so the limbo gauges
    /// never dereference a retired version.
    bytes: usize,
    chunk_slots: usize,
}

impl Retired {
    /// Retire `table` (from `Box::into_raw`), the version `derive` was
    /// called on, with the `chunks` that call returned.
    pub fn new(table: *mut Table, chunks: Vec<Chunk>) -> Retired {
        // SAFETY: the caller's version is live: it was current until now.
        let t = unsafe { &*table };
        Retired {
            table,
            bytes: t.spine_bytes() + chunks.len() * t.chunk_bytes(),
            chunk_slots: t.chunk_slots(),
            chunks,
        }
    }

    /// Heap bytes reclamation releases.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Model allocator reuse: overwrite every value of the replaced
    /// chunks with [`POISON`]. Plain, immediately visible stores on
    /// purpose — a reader still holding the version must be able to
    /// observe the tear at once, under the harness and on hardware alike.
    pub fn poison(&self) {
        for &chunk in &self.chunks {
            // SAFETY: poisoned chunks are kept alive (never freed until
            // the shard drops).
            for slot in unsafe { chunk.slots(self.chunk_slots) } {
                slot.val.store(POISON, Ordering::SeqCst);
            }
        }
    }

    /// Free the spine and the replaced chunks.
    ///
    /// # Safety
    /// No reader can reach the retired version any more.
    pub unsafe fn free(self) {
        for chunk in self.chunks {
            chunk.free(self.chunk_slots);
        }
        drop(Box::from_raw(self.table));
    }
}

/// A derivation's copy-on-write state: the source spine, the chunks
/// replaced so far, and where the copies come from.
struct PathCopy<'a> {
    src: &'a [Chunk],
    replaced: Vec<Chunk>,
    pool: &'a mut Pool,
}

/// A reclaimed version minus its chunks: its header with the spine, and
/// its emptied `replaced` list, ready to be the next version's.
struct Husk {
    table: Box<Table>,
    replaced: Vec<Chunk>,
}

/// One shard's reclaimed memory, which derivations copy into before they
/// allocate (module docs, "Who recycles a chunk"). Writer-private: the
/// shard keeps it under its writer mutex.
#[derive(Default)]
pub(crate) struct Pool {
    /// Full-size chunks. Smaller ones (a table under `CHUNK_SLOTS`
    /// slots is one chunk of its own size) are freed.
    chunks: Vec<Chunk>,
    /// Husks, all with spines of one length: the current table's as of
    /// the last recycling.
    husks: Vec<Husk>,
    /// Chunk bytes plus the husks' header-and-spine bytes.
    bytes: usize,
}

impl Pool {
    /// Bytes held: at most one table's, as of the last recycling.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether a path copy of `table` could find the pool short: it has
    /// no husk of `table`'s spine length, or fewer chunks than a put that
    /// copies two (a backward shift across one chunk boundary).
    pub fn low_for(&self, table: &Table) -> bool {
        let chunks_needed = if table.chunk_slots() == CHUNK_SLOTS {
            table.spine.len().min(2)
        } else {
            0
        };
        !self
            .husks
            .last()
            .is_some_and(|h| h.table.spine.len() == table.spine.len())
            || self.chunks.len() < chunks_needed
    }

    fn take_husk(&mut self, spine_len: usize) -> Option<Husk> {
        let husk = self.husks.pop_if(|h| h.table.spine.len() == spine_len)?;
        self.bytes -= husk.table.spine_bytes();
        Some(husk)
    }

    /// A private copy of the `slots`-slot chunk `src`: into a pooled
    /// chunk when one fits, else freshly allocated.
    ///
    /// # Safety
    /// `src` is live and holds `slots` slots.
    unsafe fn copy_of(&mut self, src: Chunk, slots: usize) -> Chunk {
        let pooled = if slots == CHUNK_SLOTS {
            self.chunks.pop()
        } else {
            None
        };
        match pooled {
            Some(dst) => {
                self.bytes -= CHUNK_BYTES;
                // A plain copy of immutable slots into a chunk no reader
                // can reach (it was reclaimed).
                std::ptr::copy_nonoverlapping(src.0.as_ptr(), dst.0.as_ptr(), slots);
                dst
            }
            None => Chunk::alloc(src.slots(slots).iter().map(Slot::copy)),
        }
    }

    /// Keep what `retired` releases for the next derivations of
    /// `current` (the shard's table at reclamation time), up to one
    /// table's bytes of `current`, and free the rest: chunks that are
    /// not full-size, husks whose spine length is not `current`'s, and
    /// whatever does not fit.
    ///
    /// # Safety
    /// As for [`Retired::free`]: no reader can reach the retired version.
    pub unsafe fn recycle(&mut self, retired: Retired, current: &Table) {
        let limit = current.bytes();
        let spine_len = current.spine.len();
        if self
            .husks
            .first()
            .is_some_and(|h| h.table.spine.len() != spine_len)
        {
            // The table grew: no later derivation fits these spines.
            for husk in self.husks.drain(..) {
                self.bytes -= husk.table.spine_bytes();
            }
        }
        let Retired {
            table,
            mut chunks,
            chunk_slots,
            ..
        } = retired;
        for chunk in chunks.drain(..) {
            if chunk_slots == CHUNK_SLOTS && self.bytes + CHUNK_BYTES <= limit {
                self.bytes += CHUNK_BYTES;
                self.chunks.push(chunk);
            } else {
                chunk.free(chunk_slots);
            }
        }
        let table = Box::from_raw(table);
        if table.spine.len() == spine_len && self.bytes + table.spine_bytes() <= limit {
            self.bytes += table.spine_bytes();
            self.husks.push(Husk {
                table,
                replaced: chunks,
            });
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for &chunk in &self.chunks {
            // SAFETY: pooled chunks are full-size and owned by the pool
            // alone (only reclamation, after the pin rule, puts them
            // here). Husks free their spines on drop.
            unsafe { chunk.free(CHUNK_SLOTS) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf_prng::{Rng, SplitMix64};
    use std::collections::BTreeMap;

    /// A chain of versions owned the way a shard owns them, minus the
    /// readers: each derivation retires the previous version at once,
    /// into the chain's pool.
    struct Chain(*mut Table, Pool);

    impl Chain {
        fn new(at_least: usize) -> Chain {
            Chain(
                Box::into_raw(Box::new(Table::with_capacity(at_least))),
                Pool::default(),
            )
        }

        fn table(&self) -> &Table {
            // SAFETY: `self.0` is the live current version.
            unsafe { &*self.0 }
        }

        /// Derive from the current version through the chain's pool.
        fn derive(&mut self, key: u64, val: Option<u64>) -> (Box<Table>, Vec<Chunk>) {
            // SAFETY: `self.0` is the live current version.
            unsafe { &*self.0 }.derive(key, val, &mut self.1)
        }

        /// Publish `next` and recycle the version it replaces.
        fn retire(&mut self, next: Box<Table>, replaced: Vec<Chunk>) {
            let old = std::mem::replace(&mut self.0, Box::into_raw(next));
            // SAFETY: nothing reads the old version any more.
            unsafe { self.1.recycle(Retired::new(old, replaced), &*self.0) };
        }

        fn set(&mut self, key: u64, val: Option<u64>) -> &Table {
            let (next, replaced) = self.derive(key, val);
            self.retire(next, replaced);
            self.table()
        }
    }

    impl Drop for Chain {
        fn drop(&mut self) {
            // SAFETY: the last version standing.
            unsafe { Table::free_all(self.0) };
        }
    }

    #[test]
    fn empty_table_misses() {
        let c = Chain::new(8);
        assert_eq!(c.table().len(), 0);
        assert_eq!(c.table().get(42), None);
        assert_eq!(c.table().peek(42), None);
    }

    #[test]
    fn derive_inserts_updates_removes_and_leaves_the_source_alone() {
        let mut c = Chain::new(4);
        c.set(7, Some(70));
        c.set(9, Some(90));
        let (t3, replaced) = c.derive(7, Some(71)); // update
        assert_eq!(t3.len(), 2);
        assert_eq!(t3.get(7), Some(71));
        assert_eq!(t3.get(9), Some(90));
        // The source is untouched (persistence).
        assert_eq!(c.table().get(7), Some(70));
        c.retire(t3, replaced);
        let t4 = c.set(7, None);
        assert_eq!(t4.len(), 1);
        assert_eq!(t4.get(7), None);
        assert_eq!(t4.get(9), Some(90));
        // Removing a missing key replaces nothing.
        let (t5, replaced) = c.derive(1234, None);
        assert_eq!((t5.len(), replaced.len()), (1, 0));
    }

    #[test]
    fn grows_past_load_factor_and_keeps_every_entry() {
        let mut c = Chain::new(1);
        let initial_cap = c.table().capacity();
        for k in 0..200u64 {
            c.set(k, Some(k * 10));
        }
        let t = c.table();
        assert_eq!(t.len(), 200);
        assert!(t.capacity() > initial_cap);
        assert!(t.len() * 2 <= t.capacity(), "load factor bound holds");
        for k in 0..200u64 {
            assert_eq!(t.get(k), Some(k * 10), "key {k}");
        }
        assert_eq!(t.get(200), None);
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Many keys in a tiny namespace force collision chains.
        let mut c = Chain::new(4);
        for k in [1u64, 2, 3, 4, 5, 6] {
            c.set(k, Some(100 + k));
        }
        for k in [1u64, 2, 3, 4, 5, 6] {
            assert_eq!(c.table().get(k), Some(100 + k));
        }
    }

    #[test]
    fn poison_overwrites_replaced_values_but_not_keys() {
        let mut c = Chain::new(4);
        c.set(5, Some(55));
        let (next, replaced) = c.derive(5, Some(56));
        let old = std::mem::replace(&mut c.0, Box::into_raw(next));
        let retired = Retired::new(old, replaced);
        retired.poison();
        // SAFETY: poisoning keeps the retired version alive.
        let stale = unsafe { &*old };
        assert_eq!(stale.get(5), Some(POISON), "probe still finds the key");
        assert_eq!(stale.get(6), None);
        assert_eq!(c.table().get(5), Some(56), "the new version is untouched");
        unsafe { retired.free() };
    }

    #[test]
    fn probe_hwm_tracks_worst_displacement_and_bytes_scale() {
        let mut c = Chain::new(8);
        assert_eq!(c.table().probe_hwm(), 0);
        // A one-entry table hits its home slot.
        assert_eq!(c.set(5, Some(50)).probe_hwm(), 1);
        // Packing 6 keys into capacity 8 forces at least one collision
        // chain; the HWM bounds every get's probe count.
        let mut c = Chain::new(4);
        for k in 1u64..=6 {
            c.set(k, Some(k));
        }
        let t = c.table();
        assert!(t.probe_hwm() >= 1);
        assert!(t.probe_hwm() <= t.capacity());
        // bytes(): header, one pointer per chunk, 16 bytes per slot.
        assert_eq!(
            t.bytes(),
            std::mem::size_of::<Table>() + t.spine.len() * 8 + t.capacity() * 16
        );
        let big = Table::with_capacity(512);
        assert_eq!((big.capacity(), big.spine.len()), (1024, 16));
        assert_eq!(big.chunk_bytes(), 1024, "a chunk is 1 KiB");
        unsafe { Table::free_all(Box::into_raw(Box::new(big))) };
    }

    #[test]
    fn a_path_copy_replaces_only_the_written_chunk() {
        let mut c = Chain::new(512);
        for k in 0..400u64 {
            c.set(k, Some(k));
        }
        let (next, replaced) = c.derive(17, Some(1));
        let src = c.table();
        assert_eq!(replaced.len(), 1, "an update writes one slot");
        let differ: Vec<usize> = (0..src.spine.len())
            .filter(|&i| src.spine[i] != next.spine[i])
            .collect();
        assert_eq!(differ.len(), 1);
        assert_eq!(src.spine[differ[0]], replaced[0]);
        c.retire(next, replaced);
        assert_eq!(c.table().get(17), Some(1));
    }

    /// Slots a lookup of `key` inspects before it stops (1 = home hit).
    fn probe_len(t: &Table, key: u64) -> usize {
        let mut i = t.home(key);
        let mut probes = 1;
        while t.slot(i).key != key && t.slot(i).key != EMPTY_KEY {
            i = (i + 1) & t.mask;
            probes += 1;
        }
        probes
    }

    /// `t` holds exactly `model`, and its `probe_hwm` bounds every probe.
    fn assert_matches(t: &Table, model: &BTreeMap<u64, u64>, universe: &[u64]) {
        assert_eq!(t.len(), model.len());
        let mut pairs: Vec<_> = t.iter().collect();
        pairs.sort_unstable();
        assert_eq!(
            pairs,
            model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
        for &k in universe {
            assert_eq!(t.get(k), model.get(&k).copied(), "key {k}");
        }
        for &k in model.keys() {
            assert!(
                t.probe_hwm() >= probe_len(t, k),
                "hwm below key {k}'s probe"
            );
        }
    }

    /// The chain's pool after a recycling: it reaches no chunk of the
    /// current version, its byte count is what it holds, and that is at
    /// most one table's bytes.
    fn assert_pool(c: &Chain, at: &str) {
        let (t, pool) = (c.table(), &c.1);
        assert!(
            pool.chunks.iter().all(|ch| !t.spine.contains(ch)),
            "{at}: a live chunk was pooled"
        );
        let held = pool.chunks.len() * CHUNK_BYTES
            + pool
                .husks
                .iter()
                .map(|h| h.table.spine_bytes())
                .sum::<usize>();
        assert_eq!(pool.bytes(), held, "{at}: pool byte count");
        assert!(pool.bytes() <= t.bytes(), "{at}: pool over one table");
    }

    #[test]
    fn derivations_match_a_btreemap_model() {
        let mut rng = SplitMix64::new(0x7ab1e);
        for cap in [4usize, 8, 16, 32, 64, 128, 256, 1024] {
            let mut c = Chain::new(cap / 2);
            assert_eq!(c.table().capacity(), cap);
            // Half the keys home on the last two slots, so their clusters
            // wrap around to slot 0, and half are spread anywhere: with
            // `cap` keys about ⅔ are live at steady state, past the ½
            // load factor, so the table grows. A multi-chunk table adds
            // keys homing on the last two slots of an inner chunk, whose
            // clusters run into the next chunk, so a backward shift
            // spans two chunks.
            let chunk = cap.min(CHUNK_SLOTS);
            let home = |k: u64| c.table().home(k);
            let mut universe: Vec<u64> = (0..)
                .filter(|&k| home(k) >= cap - 2)
                .take(cap / 2)
                .collect();
            universe.extend((0..cap as u64 / 2).map(|k| 1_000_000 + k));
            if chunk < cap {
                universe.extend(
                    (0..)
                        .filter(|&k| home(k) % chunk >= chunk - 2 && home(k) < cap - 2)
                        .take(cap / 4),
                );
            }
            let mut model = BTreeMap::new();
            let mut val_seq = 0u64;
            let mut step = |c: &mut Chain, model: &mut BTreeMap<u64, u64>| {
                let key = universe[rng.bounded_u64(universe.len() as u64) as usize];
                val_seq += 1;
                let val = (rng.bounded_u64(3) > 0).then_some(val_seq);
                let (next, replaced) = c.derive(key, val);
                match val {
                    Some(v) => model.insert(key, v),
                    None => model.remove(&key),
                };
                (next, replaced)
            };
            // A large table first fills, unchecked, to just below the ½
            // load factor, so the checked steps run into the growth path.
            while model.len() + 8 < cap / 2 && cap > CHUNK_SLOTS {
                let (next, replaced) = step(&mut c, &mut model);
                c.retire(next, replaced);
            }
            let (mut grew, mut spanned, mut reused) = (false, false, false);
            let steps = if cap > CHUNK_SLOTS { 600 } else { 2_000 };
            for i in 0..steps {
                let before = model.clone();
                let pooled = c.1.chunks.clone();
                let (next, replaced) = step(&mut c, &mut model);
                // The copies left the pool: a chunk both pooled and live
                // would be overwritten by the next copy into it.
                assert!(
                    next.spine.iter().all(|ch| !c.1.chunks.contains(ch)),
                    "cap {cap} step {i}: a pooled chunk is in the new spine"
                );
                reused |= next.spine.iter().any(|ch| pooled.contains(ch));
                let src = c.table();
                // Persistence: the source answers as before.
                assert_matches(src, &before, &universe);
                // Chunk ownership: the replaced chunks came from the old
                // spine, the new spine reaches none of them, and every
                // other old chunk is still reached — else reclaiming them
                // frees a live chunk or leaks one.
                for r in &replaced {
                    assert!(src.spine.contains(r), "cap {cap} step {i}: not ours");
                    assert!(!next.spine.contains(r), "cap {cap} step {i}: still live");
                }
                let kept = next.spine.iter().filter(|c| src.spine.contains(c)).count();
                assert_eq!(
                    kept + replaced.len(),
                    src.spine.len(),
                    "cap {cap} step {i}: leak"
                );
                grew |= next.capacity() > src.capacity();
                spanned |= next.capacity() == src.capacity() && replaced.len() > 1;
                c.retire(next, replaced);
                assert_pool(&c, &format!("cap {cap} step {i}"));
                assert_matches(c.table(), &model, &universe);
            }
            assert!(grew, "cap {cap}: the growth path never ran");
            assert!(
                spanned || cap <= CHUNK_SLOTS,
                "cap {cap}: no shift across chunks"
            );
            assert!(
                reused || cap <= CHUNK_SLOTS,
                "cap {cap}: no derivation copied into a pooled chunk"
            );
        }
    }

    #[test]
    fn iter_yields_live_entries() {
        let mut c = Chain::new(4);
        c.set(1, Some(10));
        c.set(2, Some(20));
        let mut pairs: Vec<_> = c.table().iter().collect();
        pairs.sort();
        assert_eq!(pairs, [(1, 10), (2, 20)]);
    }

    #[test]
    fn insert_all_fills_in_place_after_rehashed_for_grows() {
        let mut t = Table::with_capacity(64);
        let spine = t.spine.clone();
        let entries: Vec<(u64, u64)> = (0..64u64).map(|k| (k, k + 1)).collect();
        assert!(t.has_room_for(entries.len()));
        unsafe { t.insert_all(&entries) };
        assert_eq!(t.spine, spine, "no chunk was replaced");
        assert_eq!(t.len(), 64);
        assert!(!t.has_room_for(1));
        let more = [(1_000, 1), (3, 30)];
        let mut grown = t.rehashed_for(t.len() + more.len());
        assert!(grown.capacity() > t.capacity());
        assert!(grown.has_room_for(more.len()));
        assert!(
            grown.spine.iter().all(|c| !t.spine.contains(c)),
            "fresh chunks"
        );
        unsafe { grown.insert_all(&more) };
        assert_eq!(grown.len(), 65);
        assert_eq!(grown.get(3), Some(30));
        assert_eq!(grown.get(1_000), Some(1));
        assert_eq!(grown.get(63), Some(64));
        unsafe {
            Table::free_all(Box::into_raw(Box::new(t)));
            Table::free_all(Box::into_raw(Box::new(grown)));
        }
    }
}
