//! Minimal in-repo FFI surface replacing the `libc` crate.
//!
//! The build hosts have no registry access, so this crate cannot depend on
//! `libc`. Everything the signal prototype needs is a handful of symbols
//! that `std` already links from glibc (`pthread_*`, `sigaction`) plus one
//! raw syscall (`membarrier`), declared here for x86-64 Linux/glibc — the
//! only configuration the experiment hosts run.
//!
//! Layout notes (x86-64 glibc):
//!
//! * `sigset_t` is 1024 bits (128 bytes);
//! * `struct sigaction` is `{ handler union, sa_mask, sa_flags,
//!   sa_restorer }` — handler first on x86-64;
//! * `siginfo_t` places the `sigval` payload of a queued signal at byte
//!   offset 24: `si_signo`, `si_errno`, `si_code` (12 bytes), 4 bytes of
//!   union alignment padding, then `si_pid`/`si_uid` (8 bytes), then
//!   `si_value`.

#![allow(non_camel_case_types)]

use std::os::raw::{c_int, c_long, c_void};

/// Thread identifier as used by the pthread API (`unsigned long` on Linux).
pub type pthread_t = usize;

/// The value payload of a queued (`SA_SIGINFO`) signal.
#[repr(C)]
#[derive(Clone, Copy)]
pub union sigval {
    /// Integer payload (unused here, part of the ABI union).
    pub sival_int: c_int,
    /// Pointer payload — carries the target's `ThreadSlot`.
    pub sival_ptr: *mut c_void,
}

/// glibc signal set: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sigset_t {
    bits: [u64; 16],
}

impl sigset_t {
    /// An empty (all-clear) signal mask.
    pub const fn empty() -> Self {
        sigset_t { bits: [0; 16] }
    }
}

/// glibc `struct sigaction` for x86-64.
#[repr(C)]
pub struct sigaction_t {
    /// Handler: either a `void (*)(int)` or, with [`SA_SIGINFO`], a
    /// `void (*)(int, siginfo_t *, void *)`, stored as a word.
    pub sa_sigaction: usize,
    /// Signals blocked while the handler runs.
    pub sa_mask: sigset_t,
    /// `SA_*` flags.
    pub sa_flags: c_int,
    /// Obsolete trampoline slot (kernel-managed; must be present for ABI).
    pub sa_restorer: usize,
}

/// Prefix of glibc `siginfo_t` up to and including the queued-signal
/// payload, padded to the ABI's full 128-byte size.
#[repr(C)]
pub struct siginfo_t {
    /// Signal number.
    pub si_signo: c_int,
    /// Errno value associated with the signal.
    pub si_errno: c_int,
    /// Signal origin code (`SI_QUEUE` for `pthread_sigqueue`).
    pub si_code: c_int,
    _pad0: c_int,
    /// Sending process id.
    pub si_pid: c_int,
    /// Sending user id.
    pub si_uid: c_int,
    /// The `sigval` passed by the sender.
    pub si_value: sigval,
    _pad: [u64; 12],
}

impl siginfo_t {
    /// The queued payload (named like libc's accessor for familiarity).
    ///
    /// # Safety
    ///
    /// Only meaningful when the signal was delivered with a payload
    /// (`SI_QUEUE`), which is the only way this repo's signal arrives.
    pub unsafe fn si_value(&self) -> sigval {
        self.si_value
    }
}

/// `sa_sigaction` of the default disposition.
pub const SIG_DFL: usize = 0;
/// `sa_sigaction` of the ignore disposition.
pub const SIG_IGN: usize = 1;
/// Deliver extra handler arguments (`siginfo_t`, context).
pub const SA_SIGINFO: c_int = 4;
/// Restart interruptible syscalls instead of failing them with `EINTR`.
pub const SA_RESTART: c_int = 0x1000_0000;

extern "C" {
    /// The calling thread's pthread id.
    pub fn pthread_self() -> pthread_t;
    /// Nonzero iff two pthread ids denote the same thread.
    pub fn pthread_equal(a: pthread_t, b: pthread_t) -> c_int;
    /// Queue `sig` with payload `value` to a specific thread (glibc).
    pub fn pthread_sigqueue(thread: pthread_t, sig: c_int, value: sigval) -> c_int;
    /// Install a signal handler.
    pub fn sigaction(signum: c_int, act: *const sigaction_t, old: *mut sigaction_t) -> c_int;
    fn __libc_current_sigrtmin() -> c_int;
}

/// The first real-time signal number usable by applications.
#[allow(non_snake_case)]
pub fn SIGRTMIN() -> c_int {
    // SAFETY: no arguments, returns a plain int.
    unsafe { __libc_current_sigrtmin() }
}

/// `membarrier(2)` command: query supported commands.
pub const MEMBARRIER_CMD_QUERY: c_int = 0;
/// `membarrier(2)` command: expedited barrier across the process's CPUs.
pub const MEMBARRIER_CMD_PRIVATE_EXPEDITED: c_int = 8;
/// `membarrier(2)` command: register intent to use the expedited barrier.
pub const MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED: c_int = 16;

/// Raw `membarrier(cmd, 0, 0)` syscall; returns the kernel's raw result
/// (negative errno on failure), or `-ENOSYS`-style `-38` where the repo
/// has no syscall stub for the target architecture.
pub fn membarrier(cmd: c_int) -> c_long {
    #[cfg(target_arch = "x86_64")]
    {
        const SYS_MEMBARRIER: u64 = 324;
        let ret: i64;
        // SAFETY: membarrier takes no pointers; flags and cpu_id are zero.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MEMBARRIER as i64 => ret,
                in("rdi") cmd as i64,
                in("rsi") 0i64,
                in("rdx") 0i64,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret as c_long
    }
    #[cfg(target_arch = "aarch64")]
    {
        const SYS_MEMBARRIER: u64 = 283;
        let ret: i64;
        // SAFETY: membarrier takes no pointers; flags and cpu_id are zero.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") SYS_MEMBARRIER as i64,
                inlateout("x0") cmd as i64 => ret,
                in("x1") 0i64,
                in("x2") 0i64,
                options(nostack),
            );
        }
        ret as c_long
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = cmd;
        -38 // -ENOSYS: strategy probing treats this as "unsupported"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pthread_self_is_stable_and_equal_to_itself() {
        let a = unsafe { pthread_self() };
        let b = unsafe { pthread_self() };
        assert_ne!(a, 0);
        assert_ne!(unsafe { pthread_equal(a, b) }, 0);
    }

    #[test]
    fn distinct_threads_have_distinct_ids() {
        let main_id = unsafe { pthread_self() };
        let other = std::thread::spawn(move || {
            let me = unsafe { pthread_self() };
            assert_eq!(unsafe { pthread_equal(me, main_id) }, 0);
        });
        other.join().unwrap();
    }

    #[test]
    fn sigrtmin_is_in_realtime_range() {
        let s = SIGRTMIN();
        assert!((32..64).contains(&s), "SIGRTMIN out of range: {s}");
    }

    #[test]
    fn membarrier_query_does_not_crash() {
        // Any result is acceptable (kernels/sandboxes may deny it); the
        // call itself must be well-formed.
        let _ = membarrier(MEMBARRIER_CMD_QUERY);
    }

    #[test]
    fn abi_layout_sanity() {
        assert_eq!(std::mem::size_of::<sigset_t>(), 128);
        assert_eq!(std::mem::size_of::<sigaction_t>(), 128 + 8 + 8 + 8);
        assert_eq!(std::mem::size_of::<siginfo_t>(), 128);
        assert_eq!(std::mem::offset_of!(siginfo_t, si_value), 24);
    }
}
