//! Asymmetric Dekker under `SignalFence`, traced end to end.
//!
//! The primary thread hammers its fence-free lock fast path while a
//! secondary takes the lock a few dozen times, each time remotely
//! serializing the primary through the signal handshake. Every fence,
//! serialize request, and serialize round trip lands in the per-thread
//! trace rings; afterwards we drain them, self-validate the Chrome
//! export, and write a `.trace.json` you can open in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Usage: `cargo run --release --example trace_dekker [out.trace.json]`
//! (default output: `target/trace_dekker.trace.json`). Exits nonzero if
//! the trace fails validation or lacks a serialize request/deliver pair.

use lbmf::dekker::AsymmetricDekker;
use lbmf::strategy::{FenceStrategy, SignalFence};
use lbmf_repro::trace::causal::ChainSet;
use lbmf_repro::trace::{chrome, prometheus, summary, take_snapshot, EventKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const SECONDARY_LOCKS: u64 = 25;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/trace_dekker.trace.json".into());

    let dekker = Arc::new(AsymmetricDekker::new(Arc::new(SignalFence::new())));
    let done = Arc::new(AtomicBool::new(false));
    // The secondary starts only once the primary is registered: a
    // secondary lock with no registered primary serializes nobody.
    let registered = Arc::new(Barrier::new(2));

    let primary = {
        let dekker = dekker.clone();
        let done = done.clone();
        let registered = registered.clone();
        std::thread::Builder::new()
            .name("dekker-primary".into())
            .spawn(move || {
                let primary = dekker.register_primary();
                registered.wait();
                let mut entries = 0u64;
                while !done.load(Ordering::Relaxed) {
                    primary.with_lock(|| entries += 1);
                }
                entries
            })
            .unwrap()
    };

    let secondary = {
        let dekker = dekker.clone();
        std::thread::Builder::new()
            .name("dekker-secondary".into())
            .spawn(move || {
                registered.wait();
                for _ in 0..SECONDARY_LOCKS {
                    let _g = dekker.secondary_lock();
                }
            })
            .unwrap()
    };

    secondary.join().unwrap();
    done.store(true, Ordering::Relaxed);
    let primary_entries = primary.join().unwrap();

    // Both threads joined: the drain below is authoritative, not racing.
    let snap = take_snapshot();
    print!("{}", summary::render(&snap));
    println!("primary entries: {primary_entries}");

    // The quantitative claim, per event stream: the primary never paid a
    // hardware fence, and every secondary acquisition serialized it.
    assert!(primary_entries > 0, "primary never entered");
    assert_eq!(
        snap.count(EventKind::PrimaryFullFence),
        0,
        "asymmetric primary must not execute full fences"
    );
    assert!(
        snap.count(EventKind::PrimaryFence) > 0,
        "primary fast path not traced"
    );
    assert!(
        snap.count(EventKind::SerializeRequest) >= SECONDARY_LOCKS,
        "every secondary acquisition requests a serialization"
    );
    assert!(
        snap.count(EventKind::SerializeDeliver) >= 1,
        "no serialize round trip completed"
    );
    let stats = dekker.strategy().stats().snapshot();
    assert_eq!(stats.primary_full_fences, 0);

    // Causal chains: each secondary acquisition minted a correlation id
    // that flows request → signal-sent → handler-enter → drained →
    // ack-observed; at least one must have survived ring wrap intact.
    let set = ChainSet::from_snapshot(&snap);
    let acc = set.accounting();
    println!(
        "causal chains: {} ({} complete, {} missing-interior, {} orphaned)",
        set.chains.len(),
        acc.complete,
        acc.missing_interior,
        acc.orphans
    );
    assert!(acc.complete >= 1, "no complete serialization chain survived");

    let json = chrome::export_with_strategy(&snap, Some(dekker.strategy().name()));
    // validate() also enforces flow-event pairing: every chain's `s`
    // arrow start has a matching `f` finish under a unique id.
    let events = chrome::validate_with_serialize_pair(&json)
        .expect("exported trace failed its own self-check");
    assert!(json.contains("\"ph\":\"s\""), "chains must export flow arrows");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, &json).expect("write trace file");
    println!("wrote {events} chrome events to {out_path} (open in https://ui.perfetto.dev)");

    println!("--- prometheus dump ---");
    print!("{}", prometheus::export(&snap));
}
