//! A put at steady state neither allocates nor frees.
//!
//! In `ReclaimMode::Free` a shard keeps what its reclamation passes
//! reclaim (chunks, version headers with their spines, `replaced` lists)
//! in a pool, and a put copies into that memory instead of calling the
//! allocator. This binary wraps the system allocator to count the calls
//! the test thread makes, warms one multi-chunk shard until its passes
//! have filled the pool, and then checks that 1,000 updates and removes
//! that do not grow the table make none.

use lbmf::strategy::Symmetric;
use lbmf_prng::{Rng, SplitMix64};
use lbmf_store::{ReclaimMode, Store};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// `(allocations, frees)` made by this thread. Const-initialized, so
    /// reading it never allocates.
    static CALLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(alloc: u64, free: u64) {
    // `try_with`: a thread's last frees can run after its TLS is gone.
    let _ = CALLS.try_with(|c| {
        let (a, f) = c.get();
        c.set((a + alloc, f + free));
    });
}

/// The system allocator, counting each call per thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, 1);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Keys the test writes: 200 in a 512-slot table, so it never grows.
const KEYS: u64 = 200;

#[test]
fn steady_state_updates_and_removes_neither_allocate_nor_free() {
    // One shard sized for 256 keys: 512 slots in eight 1 KiB chunks.
    let mut store = Store::new(Arc::new(Symmetric::new()), 1, 256, ReclaimMode::Free);
    store.prefill((0..KEYS).map(|k| (k, k)));
    let mut rng = SplitMix64::new(0xa110c);
    // A third of the ops remove a key (a backward shift, which may copy
    // two chunks), the rest update one or put a removed key back.
    let mut op = |i: u64| {
        let key = rng.bounded_u64(KEYS);
        if i % 3 == 0 {
            store.remove(key);
        } else {
            store.put(key, i);
        }
    };
    // Warm-up: the first pass, which the byte rule runs, fills the pool;
    // the passes after it run when the puts have drained it.
    for i in 0..300 {
        op(i);
    }
    let warm = store.stats();
    assert!(warm.tables_reclaimed > 0, "no pass ran during the warm-up");

    let before = CALLS.with(Cell::get);
    for i in 300..1_300 {
        op(i);
    }
    let after = CALLS.with(Cell::get);

    let (allocs, frees) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "1,000 steady-state writes called the allocator"
    );
    let done = store.stats();
    assert!(
        done.tables_reclaimed > warm.tables_reclaimed,
        "passes ran in the measured window"
    );
    assert!(done.removes > warm.removes && done.puts > warm.puts);
    let probe = store.shard(0).health_probe();
    assert!(probe.pool_bytes > 0 && probe.pool_bytes <= probe.pass_bytes);
}
