//! Real-thread stress of chunk reclamation on a multi-chunk shard.
//!
//! The model-check suite (`check_store.rs`) explores every interleaving
//! of tiny one-chunk tables, where a derivation replaces the whole table.
//! It cannot see a chunk retired while the current spine still reaches
//! it, because there every chunk is replaced every time. Here one reader
//! thread gets keys in a loop while a writer updates, removes and
//! re-inserts keys that share the reader's chunks, under `SignalFence`,
//! once in each reclaim mode.
//!
//! * `ReclaimMode::Poison`: a reclaimed chunk's values become
//!   [`POISON`], so reading one through a live version is a visible
//!   tear. Poison leaves a reclaimed spine and the chunks it shares with
//!   newer versions readable, so a reclaim that came too early shows
//!   only on a read of a replaced chunk; every key the reader reads is
//!   one the writer writes, so it reads replaced chunks throughout.
//! * `ReclaimMode::Free`: a reclaimed chunk goes to the shard's pool,
//!   and the next put overwrites it with a copy of whichever chunk it
//!   writes. A chunk recycled while the reader can still reach it thus
//!   holds another chunk's slots, and a get through it misses a key that
//!   is always present or finds a value tagged with another key.

use lbmf::strategy::{FenceStrategy, SignalFence};
use lbmf_store::{ReclaimMode, Store, POISON};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Keys that are only ever updated: every get must find them.
const STABLE: u64 = 64;
/// Keys `STABLE..KEYS` are removed and re-inserted as well.
const KEYS: u64 = 128;
/// Poison mode keeps every reclaimed chunk alive until the store drops,
/// so the writer stops here even if a second has not passed (~25 MiB).
/// Free mode recycles them, so it writes for the full second.
const MAX_WRITES: u64 = 20_000;

/// A written value names its key and the writer's sequence number.
fn value(key: u64, seq: u64) -> u64 {
    key << 32 | seq
}

#[test]
fn a_reader_never_sees_a_reclaimed_chunk() {
    stress(ReclaimMode::Poison);
}

#[test]
fn a_reader_never_sees_a_recycled_chunk() {
    stress(ReclaimMode::Free);
}

/// One reader against one writer on a four-chunk shard in `mode`.
fn stress(mode: ReclaimMode) {
    // One shard of 256 slots in four 1 KiB chunks: 128 keys fill it to
    // the ½ load factor, so clusters run across chunk boundaries.
    let mut store = Store::new(Arc::new(SignalFence::new()), 1, 128, mode);
    store.prefill((0..KEYS).map(|k| (k, value(k, 0))));
    let store = Arc::new(store);
    let written = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // The writer starts once the reader is registered, so every pass
    // really serializes it.
    let ready = Arc::new(Barrier::new(2));

    let reader = {
        let (store, written, stop, ready) =
            (store.clone(), written.clone(), stop.clone(), ready.clone());
        std::thread::spawn(move || {
            let handle = store.handle();
            ready.wait();
            let mut gets = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for key in 0..KEYS {
                    let got = handle.get(key);
                    // Read after the get: a bound on what was written.
                    let seq = written.load(Ordering::Acquire);
                    match got {
                        None => assert!(key >= STABLE, "stable key {key} missing"),
                        Some(v) => {
                            assert_ne!(v, POISON, "key {key}: read a reclaimed chunk");
                            // Also what a recycled chunk yields: a value
                            // tagged with another key.
                            assert!(
                                v >> 32 == key && v & 0xffff_ffff <= seq,
                                "key {key}: {v:#x} was never written"
                            );
                        }
                    }
                    gets += 1;
                }
            }
            gets
        })
    };

    ready.wait();
    let start = Instant::now();
    let mut seq = 0u64;
    while (seq < MAX_WRITES || mode == ReclaimMode::Free)
        && start.elapsed() < Duration::from_secs(1)
    {
        seq += 1;
        // Publish the sequence number before any version can carry it.
        written.store(seq, Ordering::Release);
        let key = (seq * 37) % KEYS;
        if key >= STABLE && seq.is_multiple_of(3) {
            store.remove(key);
        } else {
            store.put(key, value(key, seq));
        }
    }
    stop.store(true, Ordering::Relaxed);
    let gets = reader.join().expect("reader saw a torn or invented value");

    let snap = store.stats();
    assert!(gets > 0);
    assert!(snap.tables_reclaimed > 0, "passes must have run");
    let fences = store.strategy().stats().snapshot();
    assert!(
        fences.serializations_requested > 0,
        "the reader was serialized"
    );
}
