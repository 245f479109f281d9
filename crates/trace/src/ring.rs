//! Per-thread, fixed-capacity, lock-free event rings.
//!
//! One ring per recording thread, single-producer by construction (the
//! owning thread appends, nobody else). An append is the instrumentation
//! cost on the primary fast path, so it must obey the paper's own
//! discipline — it performs
//!
//! * `Relaxed` stores into the slot's words, and
//! * `compiler_fence(SeqCst)` between the protocol stages;
//!
//! never an atomic RMW, never a hardware fence, never a lock. The
//! *drainer* pays instead: [`ThreadRing::drain`] executes a full
//! `fence(SeqCst)` up front and validates each slot with a seqlock-style
//! sequence word (odd while a write is in flight, `2·(i+1)` once logical
//! index `i` landed), skipping anything torn or mid-overwrite.
//!
//! Wrapping is lossy by design: index `i` lives in slot `i % capacity`,
//! so the newest `capacity` events survive and `dropped()` reports how
//! many were overwritten. A tracer that blocks the traced thread when its
//! buffer fills would reintroduce the serialization we are measuring.

use crate::{EventKind, FenceEvent, ThreadTrace, TraceSnapshot};
use std::cell::OnceCell;
use std::sync::atomic::{compiler_fence, fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity in events (2^10 = 1024; ~40 KiB).
/// Rings live for the life of the process, so this bounds tracing memory
/// at ~40 KiB per thread that ever recorded.
pub const DEFAULT_CAPACITY_LOG2: u32 = 10;

/// Default per-thread ring capacity in events.
pub const DEFAULT_CAPACITY: usize = 1 << DEFAULT_CAPACITY_LOG2;

/// One slot: a sequence word plus the four event payload words.
/// All plain atomics — written `Relaxed` by the producer, validated by
/// the drainer through `seq`.
#[derive(Debug, Default)]
struct Slot {
    /// `2·i + 1` while logical index `i` is being written, `2·(i + 1)`
    /// once it landed. A drainer reading logical index `i` accepts the
    /// payload only if `seq == 2·(i + 1)` both before and after reading.
    seq: AtomicU64,
    nanos: AtomicU64,
    kind: AtomicU64,
    addr: AtomicU64,
    dur: AtomicU64,
}

/// A single-producer event ring. Obtain one implicitly through [`record`]
/// (per-thread, registered in the global registry) or explicitly through
/// [`ThreadRing::new`] for tests and simulated streams.
#[derive(Debug)]
pub struct ThreadRing {
    tid: u32,
    name: String,
    mask: u64,
    /// Total events ever appended (monotone; `head - capacity` of them
    /// have been overwritten once `head > capacity`).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadRing {
    /// A ring with capacity `2^capacity_log2` events.
    pub fn new(tid: u32, name: impl Into<String>, capacity_log2: u32) -> Self {
        let cap = 1usize << capacity_log2;
        ThreadRing {
            tid,
            name: name.into(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::default()).collect(),
        }
    }

    /// This ring's small thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// The thread name captured at registration.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever appended (including overwritten ones).
    pub fn appended(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events overwritten so far (ring wraps drop the oldest).
    pub fn dropped(&self) -> u64 {
        self.appended().saturating_sub(self.slots.len() as u64)
    }

    /// Append one event. **Producer side**: plain `Relaxed` stores and
    /// compiler fences only — no RMW, no hardware fence, no lock, no
    /// allocation. Call only from the owning thread (a second concurrent
    /// producer cannot corrupt memory, but its events may be lost).
    #[inline]
    pub fn append(&self, nanos: u64, kind: EventKind, addr: usize, dur: u64) {
        self.append_corr(nanos, kind, addr, dur, 0);
    }

    /// [`ThreadRing::append`] with a causal correlation id. The id is
    /// packed into the upper 56 bits of the slot's kind word, so carrying
    /// it costs the producer *nothing*: the append is the exact same
    /// number of `Relaxed` stores as before (ids above 2^56 wrap into the
    /// field; at one mint per remote serialization that is unreachable).
    #[inline]
    pub fn append_corr(&self, nanos: u64, kind: EventKind, addr: usize, dur: u64, corr: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h & self.mask) as usize];
        // Stage 1: mark the slot in-flight (odd seq) so a concurrent
        // drainer discards whatever it reads from it.
        slot.seq.store(2 * h + 1, Ordering::Relaxed);
        compiler_fence(Ordering::SeqCst);
        // Stage 2: the payload. Kind occupies the low byte, corr the rest.
        slot.nanos.store(nanos, Ordering::Relaxed);
        slot.kind.store(kind as u8 as u64 | (corr << 8), Ordering::Relaxed);
        slot.addr.store(addr as u64, Ordering::Relaxed);
        slot.dur.store(dur, Ordering::Relaxed);
        compiler_fence(Ordering::SeqCst);
        // Stage 3: publish — seq names the logical index that landed,
        // then head advances.
        slot.seq.store(2 * (h + 1), Ordering::Relaxed);
        compiler_fence(Ordering::SeqCst);
        self.head.store(h + 1, Ordering::Relaxed);
    }

    /// Drain the surviving events, oldest first. **Drainer side**: this
    /// is where the synchronization cost lives — a full `fence(SeqCst)`
    /// up front, then per-slot seq validation; torn or in-flight slots
    /// are skipped rather than misread. Non-destructive (the producer
    /// keeps appending; drain again later for more).
    pub fn drain(&self) -> ThreadTrace {
        fence(Ordering::SeqCst); // the drainer pays
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i & self.mask) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * (i + 1) {
                continue; // overwritten by a newer lap, or mid-write
            }
            let nanos = slot.nanos.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let addr = slot.addr.load(Ordering::Relaxed);
            let dur = slot.dur.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten while we were reading
            }
            let corr = kind >> 8;
            let Some(kind) = EventKind::from_u8(kind as u8) else {
                continue;
            };
            events.push(FenceEvent {
                nanos,
                thread: self.tid,
                kind,
                guarded_addr: addr as usize,
                dur,
                corr,
            });
        }
        ThreadTrace {
            tid: self.tid,
            name: self.name.clone(),
            events,
            dropped: start,
        }
    }
}

// ---------------------------------------------------------------------
// Process-wide recording: one ring per thread, registered lazily.
// ---------------------------------------------------------------------

/// Runtime kill-switch (recording defaults to on; the *compile-time*
/// switch is `lbmf`'s `trace` cargo feature).
static ENABLED: AtomicBool = AtomicBool::new(true);

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

fn registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

/// Enable or disable recording process-wide. `record` is a no-op while
/// disabled (already-recorded events stay drainable).
#[inline]
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds since the process trace epoch (set at first use).
///
/// Async-signal-safety note: after the first call has initialized the
/// epoch, subsequent calls are a vDSO `clock_gettime` plus arithmetic —
/// safe from a signal handler. Callers that record from handlers must
/// warm this (and their ring) before installing the handler.
#[inline]
pub fn now_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Mint a fresh, process-unique, nonzero correlation id for one causal
/// serialization chain. This is an atomic RMW — it runs on the
/// *requester* (the thread already paying for a remote serialization),
/// never on the primary's fence-free fast path.
#[inline]
pub fn next_corr_id() -> u64 {
    static NEXT_CORR: AtomicU64 = AtomicU64::new(1);
    NEXT_CORR.fetch_add(1, Ordering::Relaxed)
}

fn register_current_thread() -> Arc<ThreadRing> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let ring = Arc::new(ThreadRing::new(tid, name, DEFAULT_CAPACITY_LOG2));
    registry().lock().unwrap().push(ring.clone());
    ring
}

/// Allocate and register an auxiliary ring that is *not* any thread's
/// implicit TLS ring. Used for producers that cannot share the owning
/// thread's ring — chiefly signal handlers, which would otherwise reenter
/// a TLS append mid-protocol and corrupt the seqlock. The caller owns the
/// single-producer discipline; the ring drains with everything else in
/// [`take_snapshot`]. Warms [`now_nanos`] so later appends from
/// async-signal context never hit the epoch initialization.
pub fn register_aux_ring(name: impl Into<String>) -> Arc<ThreadRing> {
    now_nanos();
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let ring = Arc::new(ThreadRing::new(tid, name, DEFAULT_CAPACITY_LOG2));
    registry().lock().unwrap().push(ring.clone());
    ring
}

/// Record one event on the calling thread's ring, stamped with
/// [`now_nanos`]. The first event a thread records allocates and
/// registers its ring (a one-time lock + allocation); every subsequent
/// record is the fence-free fast path described in [`ThreadRing::append`].
/// While recording is switched off it returns before reading the clock.
#[inline]
pub fn record(kind: EventKind, addr: usize, dur: u64) {
    record_corr(kind, addr, dur, 0);
}

/// [`record`] carrying a causal correlation id (see [`next_corr_id`]).
#[inline]
pub fn record_corr(kind: EventKind, addr: usize, dur: u64, corr: u64) {
    if is_enabled() {
        record_at_corr(now_nanos(), kind, addr, dur, corr);
    }
}

/// Record one event with an explicit timestamp (used by [`record_span`]
/// and by replayers).
#[inline]
pub fn record_at(nanos: u64, kind: EventKind, addr: usize, dur: u64) {
    record_at_corr(nanos, kind, addr, dur, 0);
}

/// [`record_at`] carrying a causal correlation id.
#[inline]
pub fn record_at_corr(nanos: u64, kind: EventKind, addr: usize, dur: u64, corr: u64) {
    if !is_enabled() {
        return;
    }
    // try_with: a thread unwinding through TLS destruction simply stops
    // recording rather than panicking inside a destructor.
    let _ = RING.try_with(|cell| {
        cell.get_or_init(register_current_thread)
            .append_corr(nanos, kind, addr, dur, corr);
    });
}

/// Record a span that began at `start_nanos` (from [`now_nanos`]) and
/// ends now; the event is stamped at the start with `dur` = elapsed.
#[inline]
pub fn record_span(kind: EventKind, addr: usize, start_nanos: u64) {
    record_at(start_nanos, kind, addr, now_nanos().saturating_sub(start_nanos));
}

/// [`record_span`] carrying a causal correlation id.
#[inline]
pub fn record_span_corr(kind: EventKind, addr: usize, start_nanos: u64, corr: u64) {
    record_at_corr(start_nanos, kind, addr, now_nanos().saturating_sub(start_nanos), corr);
}

/// Drain every registered ring into a [`TraceSnapshot`] (non-destructive;
/// rings keep recording). For a consistent end-of-run trace, join the
/// traced threads first — `join` gives the drainer happens-before with
/// every append; a mid-run snapshot is best-effort (see [`ThreadRing::drain`]).
pub fn take_snapshot() -> TraceSnapshot {
    let rings: Vec<Arc<ThreadRing>> = registry().lock().unwrap().clone();
    TraceSnapshot {
        threads: rings.iter().map(|r| r.drain()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_then_drain_roundtrips() {
        let ring = ThreadRing::new(7, "t7", 4);
        ring.append(10, EventKind::PrimaryFence, 0xabc, 0);
        ring.append(20, EventKind::SerializeDeliver, 0xdef, 5);
        let t = ring.drain();
        assert_eq!(t.tid, 7);
        assert_eq!(t.name, "t7");
        assert_eq!(t.dropped, 0);
        assert_eq!(t.events.len(), 2);
        assert_eq!(
            t.events[0],
            FenceEvent {
                nanos: 10,
                thread: 7,
                kind: EventKind::PrimaryFence,
                guarded_addr: 0xabc,
                dur: 0,
                corr: 0
            }
        );
        assert_eq!(t.events[1].dur, 5);
    }

    #[test]
    fn corr_roundtrips_through_the_kind_word() {
        let ring = ThreadRing::new(1, "corr", 4);
        ring.append_corr(5, EventKind::SerializeSignalSent, 0x10, 0, 42);
        ring.append_corr(6, EventKind::SerializeAckObserved, 0x10, 900, u64::MAX >> 8);
        ring.append(7, EventKind::PrimaryFence, 0, 0);
        let t = ring.drain();
        assert_eq!(t.events[0].kind, EventKind::SerializeSignalSent);
        assert_eq!(t.events[0].corr, 42);
        assert_eq!(t.events[1].corr, u64::MAX >> 8, "full 56-bit field survives");
        assert_eq!(t.events[1].dur, 900);
        assert_eq!(t.events[2].corr, 0, "plain append means no chain");
    }

    #[test]
    fn corr_ids_are_unique_and_nonzero() {
        let a = next_corr_id();
        let b = next_corr_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn aux_ring_registers_and_drains_with_snapshot() {
        let ring = register_aux_ring("aux-unit-ring");
        ring.append_corr(1, EventKind::SerializeHandlerEnter, 0x99, 0, 7);
        let snap = take_snapshot();
        let t = snap
            .threads
            .iter()
            .find(|t| t.name == "aux-unit-ring")
            .expect("aux ring visible to take_snapshot");
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].corr, 7);
    }

    #[test]
    fn wrap_drops_oldest_and_counts() {
        let ring = ThreadRing::new(0, "wrap", 3); // 8 slots
        for i in 0..11u64 {
            ring.append(i, EventKind::StealAttempt, 0, 0);
        }
        assert_eq!(ring.appended(), 11);
        assert_eq!(ring.dropped(), 3);
        let t = ring.drain();
        assert_eq!(t.dropped, 3);
        assert_eq!(t.events.len(), 8);
        // Oldest three (ts 0,1,2) gone; survivors in order.
        assert_eq!(t.events.first().unwrap().nanos, 3);
        assert_eq!(t.events.last().unwrap().nanos, 10);
    }

    #[test]
    fn drain_is_nondestructive_and_incremental() {
        let ring = ThreadRing::new(0, "inc", 4);
        ring.append(1, EventKind::PrimaryFence, 0, 0);
        assert_eq!(ring.drain().events.len(), 1);
        ring.append(2, EventKind::PrimaryFence, 0, 0);
        assert_eq!(ring.drain().events.len(), 2);
    }

    #[test]
    fn record_registers_thread_and_respects_kill_switch() {
        // One test for both global-state behaviours (registration and the
        // ENABLED flag): the flag is process-wide, so a separate test
        // toggling it could race a concurrently running one.
        std::thread::Builder::new()
            .name("ring-unit-recorder".into())
            .spawn(|| {
                set_enabled(false);
                record(EventKind::StealSuccess, 0, 0); // dropped
                set_enabled(true);
                record(EventKind::SafepointEnter, 1, 0);
                record(EventKind::SafepointExit, 1, 9);
            })
            .unwrap()
            .join()
            .unwrap();
        let snap = take_snapshot();
        let t = snap
            .threads
            .iter()
            .find(|t| t.name == "ring-unit-recorder")
            .expect("thread registered on first record");
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].kind, EventKind::SafepointEnter);
        assert!(t.events[0].nanos <= t.events[1].nanos, "monotonic stamps");
    }

    #[test]
    fn concurrent_drain_never_yields_garbage() {
        // A drainer racing the producer may skip torn slots but must never
        // return an event with an undecodable kind or out-of-range index.
        let ring = Arc::new(ThreadRing::new(0, "race", 6));
        let r2 = ring.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..50_000u64 {
                r2.append(i, EventKind::SerializeDeliver, 0x1000, i % 17);
            }
        });
        let mut max_seen = 0;
        for _ in 0..200 {
            let t = ring.drain();
            for e in &t.events {
                assert_eq!(e.kind, EventKind::SerializeDeliver);
                assert_eq!(e.guarded_addr, 0x1000);
                assert_eq!(e.dur, e.nanos % 17);
                max_seen = max_seen.max(e.nanos);
            }
        }
        producer.join().unwrap();
        let t = ring.drain();
        assert_eq!(t.events.len(), 64);
        assert_eq!(t.events.last().unwrap().nanos, 49_999);
        assert_eq!(t.dropped, 50_000 - 64);
    }
}
