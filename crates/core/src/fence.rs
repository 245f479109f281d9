//! Program-based fences and spin helpers.
//!
//! On x86-64, `std::sync::atomic::fence(SeqCst)` compiles to a full
//! serializing operation (an `mfence` or a locked RMW — both drain the
//! store buffer before later loads commit), which is exactly the
//! program-based fence the paper contrasts `l-mfence` against.
//! `compiler_fence(SeqCst)` only stops the *compiler* from reordering —
//! the paper's software prototype uses precisely this on the primary's fast
//! path ("we achieve this simply by inserting a compiler fence").

use crate::hooks;
use std::sync::atomic::{compiler_fence, fence, Ordering};

/// A full program-based memory fence (the paper's `mfence`): all stores
/// before it are globally visible before any load after it executes.
///
/// Under an `lbmf-check` harness this additionally drains the calling
/// virtual thread's modeled store buffer — the same drain the hardware
/// fence performs on the real store buffer.
#[inline]
pub fn full_fence() {
    fence(Ordering::SeqCst);
    hooks::fence_hook();
}

/// A compiler-only fence: prevents compile-time reordering across this
/// point but emits no hardware fence. This is the primary-side cost of the
/// software `l-mfence` prototype.
///
/// Under an `lbmf-check` harness this is a scheduling point that (by
/// design) does **not** drain the modeled store buffer.
#[inline]
pub fn compiler_fence_only() {
    compiler_fence(Ordering::SeqCst);
    hooks::compiler_fence_hook();
}

/// Read the processor's cycle counter *at the fence position*: `rdtscp`
/// waits for every prior instruction to retire before sampling the TSC,
/// so a pair of these brackets exactly the work between them — without
/// adding the `mfence` it is trying to measure (unlike `cpuid`+`rdtsc`,
/// `rdtscp` does not drain the store buffer, so the l-mfence position
/// stays fence-free while being timed).
///
/// This is the repository's cycle hook: `perfbench` times each op with
/// it. For hardware counters (cache misses, stall cycles) run the
/// workload under an external `perf stat` on a host that exposes a PMU;
/// nothing in-process opens `perf_event_open(2)`. On non-x86-64 targets
/// it falls back to monotonic nanoseconds since the first call
/// (1 pseudo-cycle = 1 ns), keeping the contract "monotonic, cheap,
/// never panics".
#[inline]
pub fn rdtscp_cycles() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let lo: u32;
        let hi: u32;
        // SAFETY: rdtscp reads TSC + aux into eax/edx/ecx; no memory is
        // touched. Present on every x86-64 CPU this repo targets (the
        // sys.rs ABI layer already assumes post-2008 glibc/x86-64).
        unsafe {
            std::arch::asm!(
                "rdtscp",
                out("eax") lo,
                out("edx") hi,
                out("ecx") _,
                options(nomem, nostack, preserves_flags),
            );
        }
        ((hi as u64) << 32) | lo as u64
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Spin until `cond()` holds, yielding to the OS scheduler after a short
/// busy phase. The yield matters: on few-core hosts (including the 1-core
/// machine these experiments run on) a pure busy-wait can starve the very
/// thread that must make the condition true.
#[inline]
pub fn spin_until(mut cond: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        hooks::spin_yield();
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Spin until `cond()` holds or roughly `budget_spins` busy iterations have
/// elapsed; returns whether the condition was met. Used by the ARW+ lock's
/// waiting heuristic.
#[inline]
pub fn spin_for(budget_spins: u32, mut cond: impl FnMut() -> bool) -> bool {
    for s in 0..budget_spins {
        if cond() {
            return true;
        }
        hooks::spin_yield();
        if s % 128 == 127 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    cond()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
    use std::sync::Arc;

    #[test]
    fn fences_do_not_crash() {
        full_fence();
        compiler_fence_only();
    }

    #[test]
    fn spin_until_returns_when_condition_met() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = flag.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            f2.store(true, Relaxed);
        });
        spin_until(|| flag.load(Relaxed));
        h.join().unwrap();
        assert!(flag.load(Relaxed));
    }

    #[test]
    fn spin_for_times_out() {
        assert!(!spin_for(1000, || false));
        assert!(spin_for(1, || true));
    }
}
