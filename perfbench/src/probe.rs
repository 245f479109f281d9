//! Unit costs of single layers, timed in isolation before the workload
//! phases (so their counter bumps fall outside every stats diff).

use crate::harness::{cycles, median, ns, per_call_ns};
use crate::Metrics;
use lbmf::registry::register_current_thread;
use lbmf::strategy::FenceStrategy;
use lbmf_trace::EventKind;
use std::sync::atomic::{AtomicBool, Ordering};

/// Nanoseconds per `primary_fence()` on the workload's own strategy.
pub fn primary_fence_ns<S: FenceStrategy>(strategy: &S) -> f64 {
    per_call_ns(|| strategy.primary_fence())
}

/// Median microseconds of one `serialize_remote` against a live peer: a
/// registered thread spinning on its own CPU, as a worker would be.
pub fn serialize_remote_us<S: FenceStrategy>(strategy: &S) -> f64 {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        let stop = &stop;
        let peer = scope.spawn(move || {
            let registration = register_current_thread();
            tx.send(registration.remote()).expect("prober is waiting");
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let remote = rx.recv().expect("peer registers");
        let mut trips: Vec<f64> = (0..301)
            .map(|_| {
                let c0 = cycles();
                strategy.serialize_remote(&remote);
                ns((cycles() - c0) as f64) / 1000.0
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        peer.join().expect("serialize peer panicked");
        median(&mut trips[1..])
    })
}

/// The trace layer's unit costs: the clock read, a public `record` with
/// recording on, and the same `record` with recording switched off.
pub fn trace_costs(m: &mut Metrics) {
    m.set(
        "trace.now_ns",
        per_call_ns(|| {
            std::hint::black_box(lbmf_trace::now_nanos());
        }),
    );
    m.set(
        "trace.record_ns",
        per_call_ns(|| lbmf_trace::record(EventKind::PrimaryFence, 0, 0)),
    );
    let was_on = lbmf_trace::is_enabled();
    lbmf_trace::set_enabled(false);
    m.set(
        "trace.record_off_ns",
        per_call_ns(|| lbmf_trace::record(EventKind::PrimaryFence, 0, 0)),
    );
    lbmf_trace::set_enabled(was_on);
}

/// The harness's own timer floor: two back-to-back cycle-counter reads.
pub fn timer_ns() -> f64 {
    let mut pairs: Vec<f64> = (0..10_001)
        .map(|_| {
            let c0 = cycles();
            (cycles() - c0) as f64
        })
        .collect();
    ns(median(&mut pairs))
}

/// Every probe that applies to a workload on `strategy`.
pub fn common<S: FenceStrategy>(strategy: &S, m: &mut Metrics) {
    m.set("strategy.primary_fence_ns", primary_fence_ns(strategy));
    m.set(
        "strategy.serialize_remote_us",
        serialize_remote_us(strategy),
    );
    trace_costs(m);
    m.set("bench.timer_ns", timer_ns());
}
