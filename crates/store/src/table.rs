//! Immutable-once-published open-addressing tables.
//!
//! A [`Table`] is one shard's snapshot: writers build a new table off to
//! the side (copy-on-write), publish it with a single pointer store, and
//! never mutate a published table again. That immutability is what makes
//! the reader fast path so small — probing walks a plain `u64` key slice
//! (no atomics needed for data that cannot change), and a present key
//! costs exactly **one** instrumented atomic load, of its value cell.
//! The model checker's purity test counts on that: a read must be
//! `epoch load → pin store → primary fence → table-pointer load →
//! one value load → unpin store` and nothing else.
//!
//! A writer builds the next snapshot with [`Table::derive`]: a
//! slot-for-slot copy of the current table with its one change applied in
//! place — an insert or update through the probe, a remove by
//! backward-shift deletion (no tombstones). The copy goes into a recycled
//! table of the same capacity when the shard has one, so a put is a
//! memcpy rather than a rehash into a fresh allocation; only growth past
//! the ½ load factor rehashes. (Rehashing the 2,048 entries of a
//! kv_write_mix shard into a freshly allocated 64 KiB table cost 12.7 µs
//! a put, and the malloc/free churn cost page faults on top.)
//!
//! Value cells are `AtomicU64` (not plain `u64`) for one reason:
//! [`Table::poison`]. In [`ReclaimMode::Poison`](crate::shard::ReclaimMode)
//! the shard models allocator reuse by overwriting a *reclaimed* table's
//! values with [`POISON`] while keeping the allocation alive — so a
//! protocol bug (reading a table the writer already reclaimed) becomes a
//! memory-safe, deterministic torn read the checker can observe, instead
//! of an actual use-after-free.

use lbmf::hooks;
use std::sync::atomic::{AtomicU64, Ordering};

/// Key sentinel marking an empty probe slot. `u64::MAX` is therefore the
/// one key value the store cannot hold.
pub const EMPTY_KEY: u64 = u64::MAX;

/// The value written through reclaimed tables in poison mode: a pattern
/// no test workload ever stores, so reading it proves a use-after-reclaim.
pub const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// Fibonacci-hash multiplier (2⁶⁴/φ), the same mixer the workload
/// generator and the DES schedule use for shard routing.
pub const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One shard snapshot: a fixed-capacity linear-probe hash table.
#[derive(Debug)]
pub struct Table {
    mask: usize,
    keys: Box<[u64]>,
    vals: Box<[AtomicU64]>,
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
    /// factor (capacity is the next power of two of `2·at_least`, min 4).
    pub fn with_capacity(at_least: usize) -> Table {
        Table::with_slots((at_least.max(1) * 2).next_power_of_two().max(4))
    }

    /// Worst-case probe length for any present key (slots inspected,
    /// 1 = home hit; 0 for an empty table). Immutable once published.
    pub fn probe_hwm(&self) -> usize {
        self.probe_hwm
    }

    /// Heap footprint of this snapshot (keys + value cells + header) —
    /// what one limbo entry pins until reclamation.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Table>() + self.capacity() * (8 + std::mem::size_of::<AtomicU64>())
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
            let k = self.keys[i];
            if k == key {
                return Some(hooks::load_u64(&self.vals[i], Ordering::Acquire));
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// Writer-side lookup of the committed value (plain atomics; callers
    /// hold the shard's writer mutex, published tables are immutable).
    pub fn peek(&self, key: u64) -> Option<u64> {
        let mut i = self.home(key);
        // Same full-sweep bound as `get`: terminate even if the table
        // were ever (incorrectly) filled to capacity.
        for _ in 0..self.capacity() {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i].load(Ordering::Relaxed));
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// Pre-publication insert/update (plain stores: the table is private
    /// to the building writer until the publishing pointer store).
    fn insert(&mut self, key: u64, val: u64) {
        debug_assert_ne!(key, EMPTY_KEY);
        debug_assert!(self.len * 2 <= self.capacity(), "load factor exceeded");
        let mut i = self.home(key);
        let mut probes = 1;
        loop {
            let k = self.keys[i];
            if k == key {
                *self.vals[i].get_mut() = val;
                self.probe_hwm = self.probe_hwm.max(probes);
                return;
            }
            if k == EMPTY_KEY {
                self.keys[i] = key;
                *self.vals[i].get_mut() = val;
                self.len += 1;
                self.probe_hwm = self.probe_hwm.max(probes);
                return;
            }
            i = (i + 1) & self.mask;
            probes += 1;
        }
    }

    /// Live `(key, value)` pairs in probe order (writer-side, plain loads).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, v)| (k, v.load(Ordering::Relaxed)))
    }

    /// Copy-on-write derivation into a fresh allocation: this table's
    /// entries with `key` updated (`Some(val)`) or removed (`None`). See
    /// [`derive`](Self::derive).
    pub fn clone_with(&self, key: u64, val: Option<u64>) -> Table {
        *self.derive(key, val, None)
    }

    /// Copy-on-write derivation: this table's entries with `key` updated
    /// (`Some(val)`) or removed (`None`), written into `spare`'s
    /// allocation when it has this table's capacity (every slot of the
    /// spare is overwritten, so none of its old entries survive), into a
    /// fresh allocation otherwise.
    ///
    /// While the capacity suffices the derivation is a slot-for-slot copy
    /// with the one change applied in place: an insert or update through
    /// the probe, a remove by backward-shift deletion. Only an insert that
    /// would push the table past the ½ load factor rehashes, into a table
    /// twice as large; shrink never happens (serving tiers size for their
    /// peak).
    pub fn derive(&self, key: u64, val: Option<u64>, spare: Option<Box<Table>>) -> Box<Table> {
        if val.is_some() && (self.len + 1) * 2 > self.capacity() && self.peek(key).is_none() {
            let mut next = Box::new(Table::with_slots(self.capacity() * 2));
            for (k, v) in self.iter().chain(val.map(|v| (key, v))) {
                next.insert(k, v);
            }
            return next;
        }
        let mut next = match spare {
            Some(t) if t.capacity() == self.capacity() => t,
            _ => Box::new(Table::with_slots(self.capacity())),
        };
        next.copy_from(self);
        match val {
            Some(v) => next.insert(key, v),
            None => next.remove(key),
        }
        next
    }

    /// Bulk derivation: this table's entries with every `(key, value)` of
    /// `entries` inserted or updated, in order — one copy for the whole
    /// batch instead of one per entry.
    pub fn clone_with_all(&self, entries: &[(u64, u64)]) -> Table {
        let mut cap = self.capacity();
        while (self.len + entries.len()) * 2 > cap {
            cap *= 2;
        }
        let mut next = Table::with_slots(cap);
        for (k, v) in self.iter().chain(entries.iter().copied()) {
            next.insert(k, v);
        }
        next
    }

    /// An empty table of exactly `cap` slots (a power of two, at least 4).
    fn with_slots(cap: usize) -> Table {
        debug_assert!(cap.is_power_of_two() && cap >= 4);
        Table {
            mask: cap - 1,
            keys: vec![EMPTY_KEY; cap].into_boxed_slice(),
            vals: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            len: 0,
            probe_hwm: 0,
        }
    }

    /// Overwrite every slot with `src`'s, which has the same capacity.
    /// The inherited `probe_hwm` stays an upper bound on every probe.
    fn copy_from(&mut self, src: &Table) {
        debug_assert_eq!(self.capacity(), src.capacity());
        self.keys.copy_from_slice(&src.keys);
        for (dst, v) in self.vals.iter_mut().zip(src.vals.iter()) {
            *dst.get_mut() = v.load(Ordering::Relaxed);
        }
        self.len = src.len;
        self.probe_hwm = src.probe_hwm;
    }

    /// Pre-publication backward-shift deletion: empty `key`'s slot, then
    /// pull each later entry of its cluster back into the hole when the
    /// hole lies on that entry's probe path, so every remaining key stays
    /// reachable from its home slot without tombstones. Probe lengths only
    /// shrink, so `probe_hwm` stays an upper bound.
    fn remove(&mut self, key: u64) {
        let mut hole = self.home(key);
        loop {
            match self.keys[hole] {
                k if k == key => break,
                EMPTY_KEY => return,
                _ => hole = (hole + 1) & self.mask,
            }
        }
        let mut i = (hole + 1) & self.mask;
        while self.keys[i] != EMPTY_KEY {
            let k = self.keys[i];
            // `k` may move into the hole iff the hole is no further from
            // `k`'s home than `i` is (cyclic distances).
            if (i.wrapping_sub(self.home(k)) & self.mask) >= (i.wrapping_sub(hole) & self.mask) {
                self.keys[hole] = k;
                *self.vals[hole].get_mut() = *self.vals[i].get_mut();
                hole = i;
            }
            i = (i + 1) & self.mask;
        }
        self.keys[hole] = EMPTY_KEY;
        *self.vals[hole].get_mut() = 0;
        self.len -= 1;
    }

    /// Model allocator reuse of a reclaimed table: overwrite every value
    /// cell with [`POISON`]. Plain (immediately visible) stores on
    /// purpose — a reader still holding this table must be able to
    /// observe the tear at once, under the harness and on hardware alike.
    pub fn poison(&self) {
        for v in self.vals.iter() {
            v.store(POISON, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf_prng::{Rng, SplitMix64};
    use std::collections::BTreeMap;

    #[test]
    fn empty_table_misses() {
        let t = Table::with_capacity(8);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.get(42), None);
        assert_eq!(t.peek(42), None);
    }

    #[test]
    fn clone_with_inserts_updates_and_removes() {
        let t0 = Table::with_capacity(4);
        let t1 = t0.clone_with(7, Some(70));
        let t2 = t1.clone_with(9, Some(90));
        let t3 = t2.clone_with(7, Some(71)); // update in place
        assert_eq!(t3.len(), 2);
        assert_eq!(t3.get(7), Some(71));
        assert_eq!(t3.get(9), Some(90));
        // The originals are untouched (copy-on-write).
        assert_eq!(t2.get(7), Some(70));
        let t4 = t3.clone_with(7, None);
        assert_eq!(t4.len(), 1);
        assert_eq!(t4.get(7), None);
        assert_eq!(t4.get(9), Some(90));
        // Removing a missing key is a plain copy.
        assert_eq!(t4.clone_with(1234, None).len(), 1);
    }

    #[test]
    fn grows_past_load_factor_and_keeps_every_entry() {
        let mut t = Table::with_capacity(1);
        let initial_cap = t.capacity();
        for k in 0..200u64 {
            t = t.clone_with(k, Some(k * 10));
        }
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
        // Keys equal mod a small capacity's mask collide by construction
        // of the fibonacci home slot only probabilistically; force the
        // issue with many keys in a tiny namespace instead.
        let mut t = Table::with_capacity(4);
        for k in [1u64, 2, 3, 4, 5, 6] {
            t = t.clone_with(k, Some(100 + k));
        }
        for k in [1u64, 2, 3, 4, 5, 6] {
            assert_eq!(t.get(k), Some(100 + k));
        }
    }

    #[test]
    fn poison_overwrites_values_but_not_keys() {
        let t = Table::with_capacity(4).clone_with(5, Some(55));
        t.poison();
        assert_eq!(t.get(5), Some(POISON), "probe still finds the key");
        assert_eq!(t.get(6), None);
    }

    #[test]
    fn probe_hwm_tracks_worst_displacement_and_bytes_scale() {
        let empty = Table::with_capacity(8);
        assert_eq!(empty.probe_hwm(), 0);
        // A one-entry table hits its home slot.
        let one = empty.clone_with(5, Some(50));
        assert_eq!(one.probe_hwm(), 1);
        // Packing 6 keys into capacity 16 forces at least one collision
        // chain; the HWM bounds every get's probe count.
        let mut t = Table::with_capacity(4);
        for k in 1u64..=6 {
            t = t.clone_with(k, Some(k));
        }
        assert!(t.probe_hwm() >= 1);
        assert!(t.probe_hwm() <= t.capacity());
        // bytes(): header plus 16 bytes per slot.
        assert_eq!(
            t.bytes(),
            std::mem::size_of::<Table>() + t.capacity() * 16
        );
        assert!(t.bytes() > empty.bytes() || t.capacity() == empty.capacity());
    }

    /// Slots a lookup of `key` inspects before it stops (1 = home hit).
    fn probe_len(t: &Table, key: u64) -> usize {
        let mut i = t.home(key);
        let mut probes = 1;
        while t.keys[i] != key && t.keys[i] != EMPTY_KEY {
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

    #[test]
    fn derivations_match_a_btreemap_model() {
        let mut rng = SplitMix64::new(0x7ab1e);
        for cap in [4usize, 8, 16, 32, 64] {
            let start = Table::with_capacity(cap / 2);
            assert_eq!(start.capacity(), cap);
            // Half the keys home on the last two slots, so their clusters
            // wrap around to slot 0; the rest are spread anywhere.
            let mut universe: Vec<u64> = (0..)
                .filter(|&k| start.home(k) >= cap - 2)
                .take(cap / 2)
                .collect();
            universe.extend((0..cap as u64 / 2).map(|k| 1_000_000 + k));
            let mut model = BTreeMap::new();
            // The derivation before last plays the reclaimed spare, as in
            // a shard: it held other keys, none of which may survive.
            let mut older: Option<Box<Table>> = None;
            let mut t = Box::new(start);
            for step in 0..2_000u64 {
                let key = universe[rng.bounded_u64(universe.len() as u64) as usize];
                let val = (rng.bounded_u64(3) > 0).then_some(step);
                match val {
                    Some(v) => model.insert(key, v),
                    None => model.remove(&key),
                };
                let next = t.derive(key, val, older.take());
                older = Some(std::mem::replace(&mut t, next));
                assert_matches(&t, &model, &universe);
            }
        }
    }

    #[test]
    fn a_recycled_table_keeps_none_of_its_old_keys() {
        let mut spare = Table::with_capacity(8);
        for k in 100..108u64 {
            spare = spare.clone_with(k, Some(k));
        }
        let mut src = Table::with_capacity(8);
        for k in 1..4u64 {
            src = src.clone_with(k, Some(k * 10));
        }
        assert_eq!(spare.capacity(), src.capacity());
        let spare = Box::new(spare);
        let spare_addr = &*spare as *const Table;
        let next = src.derive(2, None, Some(spare));
        assert_eq!(&*next as *const Table, spare_addr, "the spare was reused");
        let model = BTreeMap::from([(1, 10), (3, 30)]);
        assert_matches(&next, &model, &(1..108).collect::<Vec<_>>());
        // A spare of the wrong capacity is dropped, not reused.
        let small = Box::new(Table::with_capacity(1));
        assert_eq!(
            src.derive(9, Some(90), Some(small)).capacity(),
            src.capacity()
        );
    }

    #[test]
    fn iter_yields_live_entries() {
        let t = Table::with_capacity(4)
            .clone_with(1, Some(10))
            .clone_with(2, Some(20));
        let mut pairs: Vec<_> = t.iter().collect();
        pairs.sort();
        assert_eq!(pairs, [(1, 10), (2, 20)]);
    }
}
