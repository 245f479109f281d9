//! Probes of the primary fast paths, for reading their machine code.
//!
//! Each `lbmf_probe_*` function is one fast-path operation compiled
//! on its own (`#[inline(never)]`, unmangled so `objdump` finds it) with
//! the crates' default features — the build users get, `trace` included
//! and `check-hooks` off. `scripts/purity_gate.py` disassembles them and
//! fails on any `lock` prefix, `xchg` with memory, `mfence` or `cpuid`,
//! and on any call outside a short allowlist of cold paths.
//!
//! `lbmf_probe_symmetric_primary_fence` is the negative control: the
//! program-based fence must show up as an `mfence`, or the gate is
//! reading the wrong code.
//!
//! Run as a program, the binary calls every probe once on live objects
//! (a smoke test that the probes are the real paths) and prints one
//! line per probe.

use lbmf::arw::{AsymRwLock, ReaderHandle};
use lbmf::dekker::{AsymmetricDekker, Primary};
use lbmf::strategy::{FenceStrategy, MembarrierFence, SignalFence, Symmetric};
use lbmf_cilk::deque::TheDeque;
use lbmf_cilk::job::JobCore;
use lbmf_cilk::stats::WorkerStats;
use lbmf_store::{ReclaimMode, Store, StoreHandle};
use std::sync::Arc;

/// `SignalFence::primary_fence`: the paper's software `l-mfence`.
#[inline(never)]
#[no_mangle]
pub fn lbmf_probe_signal_primary_fence(s: &SignalFence) {
    s.primary_fence();
}

/// `MembarrierFence::primary_fence`.
#[inline(never)]
#[no_mangle]
pub fn lbmf_probe_membarrier_primary_fence(s: &MembarrierFence) {
    s.primary_fence();
}

/// Negative control: the program-based fence.
#[inline(never)]
#[no_mangle]
pub fn lbmf_probe_symmetric_primary_fence(s: &Symmetric) {
    s.primary_fence();
}

/// The store's reader fast path.
#[inline(never)]
#[no_mangle]
pub fn lbmf_probe_store_get(h: &StoreHandle<SignalFence>, key: u64) -> Option<u64> {
    h.get(key)
}

/// The THE deque's spawn path.
#[inline(never)]
#[no_mangle]
pub fn lbmf_probe_deque_push(
    d: &TheDeque<SignalFence>,
    job: *mut JobCore<SignalFence>,
    stats: &WorkerStats,
) {
    d.push(job, stats);
}

/// The THE deque's victim pop: the fence ACilk-5 removes.
#[inline(never)]
#[no_mangle]
pub fn lbmf_probe_deque_pop(
    d: &TheDeque<SignalFence>,
    stats: &WorkerStats,
) -> Option<*mut JobCore<SignalFence>> {
    d.pop(stats)
}

/// The ARW lock's read section around one plain load.
#[inline(never)]
#[no_mangle]
pub fn lbmf_probe_arw_read(h: &ReaderHandle<SignalFence>, word: &u64) -> u64 {
    h.read(|| *word)
}

/// The asymmetric Dekker primary's acquire and release.
#[inline(never)]
#[no_mangle]
pub fn lbmf_probe_dekker_primary_lock(p: &Primary<SignalFence>) {
    drop(p.lock());
}

fn main() {
    let signal = SignalFence::new();
    lbmf_probe_signal_primary_fence(&signal);
    println!("signal_primary_fence: {}", signal.stats().snapshot());

    match MembarrierFence::try_new() {
        Some(m) => {
            lbmf_probe_membarrier_primary_fence(&m);
            println!("membarrier_primary_fence: {}", m.stats().snapshot());
        }
        None => println!("membarrier_primary_fence: not supported by this kernel"),
    }

    let symmetric = Symmetric::new();
    lbmf_probe_symmetric_primary_fence(&symmetric);
    println!("symmetric_primary_fence: {}", symmetric.stats().snapshot());

    let mut store = Store::new(Arc::new(SignalFence::new()), 2, 16, ReclaimMode::Free);
    store.prefill([(7, 70)]);
    let store = Arc::new(store);
    let handle = store.handle();
    assert_eq!(lbmf_probe_store_get(&handle, 7), Some(70));
    println!("store_get: {}", store.stats());

    let deque = TheDeque::new(Arc::new(SignalFence::new()), 4);
    let stats = WorkerStats::default();
    let job = std::ptr::NonNull::<JobCore<SignalFence>>::dangling().as_ptr();
    lbmf_probe_deque_push(&deque, job, &stats);
    assert_eq!(lbmf_probe_deque_pop(&deque, &stats), Some(job));
    println!("deque_push + deque_pop: {stats:?}");

    let lock = Arc::new(AsymRwLock::new(Arc::new(SignalFence::new())));
    let reader = lock.register_reader();
    assert_eq!(lbmf_probe_arw_read(&reader, &42), 42);
    println!("arw_read: reads={:?}", lock.reads);

    let dekker = Arc::new(AsymmetricDekker::new(Arc::new(SignalFence::new())));
    let primary = dekker.register_primary();
    lbmf_probe_dekker_primary_lock(&primary);
    println!("dekker_primary_lock: entries={:?}", dekker.primary_entries);
}
