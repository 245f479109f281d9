//! Thread registration for remote serialization.
//!
//! The software prototype of `l-mfence` (Section 5) serializes the primary
//! thread by sending it a POSIX signal: "a software signal generates an
//! interrupt on the processor receiving the signal, and the processor
//! flushes its store buffer before calling the signal handling routine."
//! To target a thread we need its `pthread_t` and a per-thread ack word the
//! handler can bump — that is what a [`ThreadSlot`] holds and what
//! [`register_current_thread`] creates.
//!
//! The handler is installed once, for a real-time signal (`SIGRTMIN + 3`):
//! real-time signals queue rather than coalesce, and `SA_SIGINFO` delivery
//! carries a pointer to the target's [`ThreadSlot`] in `si_value`, so the
//! handler needs no thread-local lookup — it is a handful of
//! async-signal-safe atomic operations.

use crate::sys;
#[allow(unused_imports)]
use crate::trace::{trace_event_corr, trace_mint_corr, trace_span_end_corr, trace_span_start};
use std::os::raw::{c_int, c_void};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-registered-thread state shared with the signal handler.
#[derive(Debug)]
pub struct ThreadSlot {
    /// The registered thread's `pthread_t`.
    pthread: AtomicU64,
    /// Bumped by the signal handler after it fences; waiters compare
    /// against a pre-send snapshot.
    ack: AtomicU64,
    /// Signals delivered to this slot (handler-side counter, equals `ack`).
    handled: AtomicU64,
    /// Cleared when the thread deregisters; senders then treat
    /// serialization as trivially complete (a dead thread has no store
    /// buffer to flush).
    active: AtomicBool,
    /// Causal-span handoff: the requester stores its chain's correlation
    /// id here before queueing the signal; the handler reads it back to
    /// stamp its phase events. Plain relaxed word, last-writer-wins under
    /// concurrent requesters — a lost id turns into an orphan in the
    /// attribution report, mirroring the protocol's own "accept a
    /// concurrent ack" looseness, and never affects correctness.
    #[cfg(feature = "trace")]
    pending_corr: AtomicU64,
    /// The handler's own event ring. The handler cannot touch the target
    /// thread's TLS ring (it may have interrupted that very thread
    /// mid-append, and a reentrant append would corrupt the seqlock
    /// protocol), so each slot gets a dedicated aux ring. Single-producer
    /// holds because the serialization signal is auto-blocked during its
    /// own handler (no `SA_NODEFER`), so handler runs on one thread never
    /// overlap. `OnceLock::get` from the handler is one atomic load —
    /// async-signal-safe, as are the ring's preallocated relaxed stores.
    ///
    /// Created by the first requester, before its signal exists (see
    /// [`RemoteThread::serialize_with_corr`]): a thread that is never
    /// serialized never pays for a ring, and the handler skips a slot
    /// whose ring is missing.
    #[cfg(feature = "trace")]
    handler_ring: std::sync::OnceLock<Arc<lbmf_trace::ThreadRing>>,
    /// The registered thread's name, for the handler ring's row
    /// (`<name>/serialize-handler`); the ring is made on another thread.
    #[cfg(feature = "trace")]
    name: String,
}

impl ThreadSlot {
    fn new(pthread: sys::pthread_t) -> Self {
        ThreadSlot {
            #[cfg(feature = "trace")]
            name: std::thread::current().name().unwrap_or("thread").to_owned(),
            #[allow(clippy::unnecessary_cast)] // pthread_t width varies by platform
            pthread: AtomicU64::new(pthread as u64),
            ack: AtomicU64::new(0),
            handled: AtomicU64::new(0),
            active: AtomicBool::new(true),
            #[cfg(feature = "trace")]
            pending_corr: AtomicU64::new(0),
            #[cfg(feature = "trace")]
            handler_ring: std::sync::OnceLock::new(),
        }
    }

    /// Signals handled on behalf of this slot so far.
    pub fn acks(&self) -> u64 {
        self.ack.load(Ordering::Acquire)
    }

    /// Whether the registered thread is still alive (signals deliverable).
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }
}

/// Handle to a registered thread, used by fence strategies to force that
/// thread to serialize. Cloneable and sendable.
#[derive(Clone, Debug)]
pub struct RemoteThread {
    slot: Arc<ThreadSlot>,
}

impl RemoteThread {
    /// The shared per-thread slot (ack counters, liveness).
    pub fn slot(&self) -> &Arc<ThreadSlot> {
        &self.slot
    }

    /// A stable opaque key identifying the target thread across handles
    /// (the slot's address). Trace events use it as the `guarded_addr` of
    /// serialize requests/deliveries, and it matches the key the check
    /// harness maps to its virtual thread.
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.slot) as usize
    }

    /// Whether this handle refers to the *calling* thread. Protocols use
    /// it to skip self-serialization (a thread is trivially serialized
    /// with respect to itself).
    pub fn is_current(&self) -> bool {
        let stored = self.slot.pthread.load(Ordering::Acquire) as sys::pthread_t;
        // SAFETY: pthread_equal on a live id and pthread_self.
        unsafe { sys::pthread_equal(stored, sys::pthread_self()) != 0 }
    }

    /// Send one serialization signal and wait for the handler's ack.
    ///
    /// Returns `true` if a signal round trip actually happened (`false`
    /// when the thread already deregistered). Correctness of accepting a
    /// *concurrent* ack: any handler run that begins after our pre-send
    /// snapshot also begins after our caller's preceding `mfence`, which is
    /// all the Dekker argument needs.
    pub fn serialize(&self) -> bool {
        self.serialize_with_corr(trace_mint_corr!())
    }

    /// [`RemoteThread::serialize`] as one phase-stamped causal chain:
    /// `corr` (usually from the strategy's `serialize-request` event)
    /// links the requester-side `serialize-signal-sent` /
    /// `serialize-ack-observed` instants and the handler-side
    /// `serialize-handler-enter` / `serialize-drained` stamps into one
    /// cross-thread span. Pass `corr = 0` (or build without the `trace`
    /// feature) for an uncorrelated round trip.
    pub fn serialize_with_corr(&self, corr: u64) -> bool {
        #[cfg(not(feature = "trace"))]
        let _ = corr;
        if !self.slot.is_active() {
            return false;
        }
        // Under a check harness the target is a *virtual* thread: the
        // harness drains its modeled store buffer and no real signal is
        // needed (or wanted — the scheduler has the target suspended).
        if crate::hooks::serialize_hook(Arc::as_ptr(&self.slot) as usize) {
            return true;
        }
        let start = trace_span_start!();
        let before = self.slot.ack.load(Ordering::Acquire);
        // Publish the chain id for the handler before the signal exists;
        // see `ThreadSlot::pending_corr` for the concurrent-sender story.
        #[cfg(feature = "trace")]
        {
            self.slot.pending_corr.store(corr, Ordering::Relaxed);
            // The handler's ring, made on first use (this also warms the
            // trace clock the handler reads).
            self.slot.handler_ring.get_or_init(|| {
                lbmf_trace::register_aux_ring(format!("{}/serialize-handler", self.slot.name))
            });
        }
        let sig = serialization_signal();
        let value = sys::sigval {
            sival_ptr: Arc::as_ptr(&self.slot) as *mut c_void,
        };
        let pthread = self.slot.pthread.load(Ordering::Acquire) as sys::pthread_t;
        let rc = unsafe { sys::pthread_sigqueue(pthread, sig, value) };
        if rc != 0 {
            // ESRCH etc.: the thread is gone; nothing to serialize.
            self.slot.active.store(false, Ordering::Release);
            return false;
        }
        trace_event_corr!(SerializeSignalSent, self.key(), corr);
        crate::fence::spin_until(|| {
            self.slot.ack.load(Ordering::Acquire) > before || !self.slot.is_active()
        });
        trace_event_corr!(SerializeAckObserved, self.key(), corr);
        // Recorded on the *secondary* (calling) thread — the handler must
        // stay async-signal-safe and the primary's ring single-producer.
        trace_span_end_corr!(SerializeDeliver, self.key(), start, corr);
        true
    }
}

/// RAII registration of the current thread; deregisters on drop.
#[derive(Debug)]
pub struct Registration {
    remote: RemoteThread,
}

impl Registration {
    /// A cloneable handle other threads can use to serialize this one.
    pub fn remote(&self) -> RemoteThread {
        self.remote.clone()
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        // Drain the modeled store buffer (check harness only) before the
        // deactivation becomes visible: a thread that sees the slot
        // inactive skips serializing us, which is only sound if our
        // earlier stores are already globally visible — which x86's FIFO
        // buffer guarantees, and the model must too.
        crate::hooks::deregister_hook();
        self.remote.slot.active.store(false, Ordering::Release);
    }
}

/// The real-time signal used for serialization requests.
fn serialization_signal() -> c_int {
    sys::SIGRTMIN() + 3
}

/// The signal handler: the kernel's delivery path has already drained the
/// receiving CPU's store buffer (that is the prototype's entire mechanism);
/// we add an explicit fence for portability, then ack.
///
/// The causal-span stamps bracket the fence: `serialize-handler-enter`
/// before it, `serialize-drained` after, both into the slot's dedicated
/// handler ring (see `ThreadSlot::handler_ring` for why not the TLS ring
/// and why single-producer holds). Everything here stays
/// async-signal-safe: atomic loads/stores into preallocated slots plus
/// vDSO clock reads (warmed by the requester that made the ring).
extern "C" fn serialize_handler(_sig: c_int, info: *mut sys::siginfo_t, _ctx: *mut c_void) {
    // SAFETY: senders always place a valid `*const ThreadSlot` in si_value
    // and keep the Arc alive until the ack arrives.
    unsafe {
        let slot_ptr = (*info).si_value().sival_ptr as *const ThreadSlot;
        if slot_ptr.is_null() {
            return;
        }
        #[cfg(feature = "trace")]
        let stamped = (*slot_ptr)
            .handler_ring
            .get()
            .filter(|_| lbmf_trace::is_enabled())
            .map(|ring| {
                let corr = (*slot_ptr).pending_corr.load(Ordering::Relaxed);
                let enter = lbmf_trace::now_nanos();
                ring.append_corr(
                    enter,
                    lbmf_trace::EventKind::SerializeHandlerEnter,
                    slot_ptr as usize,
                    0,
                    corr,
                );
                (ring, corr)
            });
        std::sync::atomic::fence(Ordering::SeqCst);
        #[cfg(feature = "trace")]
        if let Some((ring, corr)) = stamped {
            ring.append_corr(
                lbmf_trace::now_nanos(),
                lbmf_trace::EventKind::SerializeDrained,
                slot_ptr as usize,
                0,
                corr,
            );
        }
        (*slot_ptr).handled.fetch_add(1, Ordering::AcqRel);
        (*slot_ptr).ack.fetch_add(1, Ordering::AcqRel);
    }
}

/// Install the serialization handler on first use. Refuses (panics,
/// naming the signal) when the application already handles the signal
/// itself: replacing its handler would silently break it, and our
/// handler would read its signals' payloads as slot pointers.
fn install_handler_once() {
    static INSTALLED: OnceLock<Result<(), String>> = OnceLock::new();
    let installed = INSTALLED.get_or_init(|| unsafe {
        let sig = serialization_signal();
        let ours =
            serialize_handler as extern "C" fn(c_int, *mut sys::siginfo_t, *mut c_void) as usize;
        let mut old = sys::sigaction_t {
            sa_sigaction: sys::SIG_DFL,
            sa_mask: sys::sigset_t::empty(),
            sa_flags: 0,
            sa_restorer: 0,
        };
        let rc = sys::sigaction(sig, std::ptr::null(), &mut old);
        assert_eq!(rc, 0, "failed to read the serialization signal's action");
        if ![sys::SIG_DFL, sys::SIG_IGN, ours].contains(&old.sa_sigaction) {
            return Err(format!(
                "signal {sig} (SIGRTMIN+3), the serialization signal, already has \
                 a handler this library did not install; refusing to replace it"
            ));
        }
        let sa = sys::sigaction_t {
            sa_sigaction: ours,
            sa_mask: sys::sigset_t::empty(),
            sa_flags: sys::SA_SIGINFO | sys::SA_RESTART,
            sa_restorer: 0,
        };
        let rc = sys::sigaction(sig, &sa, std::ptr::null_mut());
        assert_eq!(rc, 0, "failed to install serialization signal handler");
        Ok(())
    });
    if let Err(refusal) = installed {
        panic!("{refusal}");
    }
}

/// Global registry keeping every slot alive for the life of the process
/// (slots are tiny; a signal in flight must never dangle).
fn registry() -> &'static Mutex<Vec<Arc<ThreadSlot>>> {
    static REGISTRY: std::sync::OnceLock<Mutex<Vec<Arc<ThreadSlot>>>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register the calling thread as a serialization target. Installs the
/// process-wide signal handler on first use.
pub fn register_current_thread() -> Registration {
    install_handler_once();
    let slot = Arc::new(ThreadSlot::new(unsafe { sys::pthread_self() }));
    registry().lock().unwrap().push(slot.clone());
    // Let an active check harness map this slot to its virtual thread, so
    // later `serialize_hook` calls with the same key drain that thread's
    // modeled store buffer.
    crate::hooks::register_hook(Arc::as_ptr(&slot) as usize);
    Registration {
        remote: RemoteThread { slot },
    }
}

/// Number of threads ever registered (monitoring/tests).
pub fn registered_count() -> usize {
    registry().lock().unwrap().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn register_and_signal_roundtrip() {
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let reg = register_current_thread();
            tx.send(reg.remote()).unwrap();
            // Stay alive until the main thread finishes signaling.
            done_rx.recv().unwrap();
        });
        let remote = rx.recv().unwrap();
        assert!(remote.slot().is_active());
        let before = remote.slot().acks();
        assert!(remote.serialize());
        assert!(remote.slot().acks() > before);
        done_tx.send(()).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn serialize_after_deregistration_is_noop() {
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let reg = register_current_thread();
            tx.send(reg.remote()).unwrap();
            // Registration dropped here.
        });
        let remote = rx.recv().unwrap();
        h.join().unwrap();
        // The thread deregistered (and exited): serialize is a no-op.
        assert!(!remote.serialize());
    }

    #[test]
    fn concurrent_serializers_all_observe_acks() {
        let (tx, rx) = std::sync::mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let target = std::thread::spawn(move || {
            let reg = register_current_thread();
            tx.send(reg.remote()).unwrap();
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        let remote = rx.recv().unwrap();
        let total = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = remote.clone();
            let t = total.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    if r.serialize() {
                        t.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        target.join().unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 100);
        assert!(remote.slot().acks() >= 1);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn handler_ring_is_made_by_the_first_serialization() {
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("lazy-ring".into())
            .spawn(move || {
                let reg = register_current_thread();
                tx.send(reg.remote()).unwrap();
                done_rx.recv().unwrap();
            })
            .unwrap();
        let remote = rx.recv().unwrap();
        assert!(
            remote.slot().handler_ring.get().is_none(),
            "registration allocates no ring"
        );
        assert!(remote.serialize());
        let ring = remote
            .slot()
            .handler_ring
            .get()
            .expect("first request makes the ring");
        assert_eq!(ring.name(), "lazy-ring/serialize-handler");
        done_tx.send(()).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn registered_count_grows() {
        let before = registered_count();
        let _reg = register_current_thread();
        assert!(registered_count() > before);
    }
}
