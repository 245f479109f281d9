//! Registration refuses to replace an application's own handler for the
//! serialization signal (`SIGRTMIN+3`). A test binary of its own: the
//! handler is installed once per process, so no other test may register
//! a thread first.

use lbmf::registry::register_current_thread;
use lbmf::sys;
use std::os::raw::{c_int, c_void};

extern "C" fn application_handler(_sig: c_int, _info: *mut sys::siginfo_t, _ctx: *mut c_void) {}

fn action(handler: usize) -> sys::sigaction_t {
    sys::sigaction_t {
        sa_sigaction: handler,
        sa_mask: sys::sigset_t::empty(),
        sa_flags: sys::SA_SIGINFO,
        sa_restorer: 0,
    }
}

fn current_handler(sig: c_int) -> usize {
    let mut old = action(sys::SIG_DFL);
    // SAFETY: a query; `old` is a valid out-parameter.
    assert_eq!(
        unsafe { sys::sigaction(sig, std::ptr::null(), &mut old) },
        0
    );
    old.sa_sigaction
}

#[test]
fn registration_refuses_a_foreign_serialization_signal_handler() {
    let sig = sys::SIGRTMIN() + 3;
    let ours =
        application_handler as extern "C" fn(c_int, *mut sys::siginfo_t, *mut c_void) as usize;
    // SAFETY: installs a valid, empty handler.
    assert_eq!(
        unsafe { sys::sigaction(sig, &action(ours), std::ptr::null_mut()) },
        0
    );

    for attempt in 0..2 {
        let refusal = std::panic::catch_unwind(register_current_thread)
            .expect_err("registration must refuse the foreign handler");
        let message = refusal
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("SIGRTMIN+3") && message.contains(&sig.to_string()),
            "attempt {attempt}: the refusal names the signal, got {message:?}"
        );
        assert_eq!(
            current_handler(sig),
            ours,
            "the application's handler stays"
        );
    }
}
