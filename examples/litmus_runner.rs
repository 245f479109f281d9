//! Run the store-buffering litmus on *real threads* and on the *simulated
//! machine*, side by side — the repository's two views of the same
//! question: "can both threads miss each other's store?"
//!
//! ```text
//! cargo run --release --example litmus_runner [iters]
//! ```
//!
//! On a many-core host the unfenced real-thread run exhibits the relaxed
//! `(0,0)` outcome; on a host with few cores it is rare or absent and
//! only the simulator reliably shows it (context switches serialize real
//! store buffers), which is precisely why the simulator exists.

use lbmf_repro::fences::prelude::*;
use lbmf_repro::sim::prelude::*;
use std::sync::Arc;

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);

    println!("=== simulated machine (exhaustive, all interleavings) ===\n");
    for kinds in [
        [FenceKind::None, FenceKind::None],
        [FenceKind::Mfence, FenceKind::Mfence],
        [FenceKind::Lmfence, FenceKind::Mfence],
    ] {
        let m = Machine::for_checking(litmus_sb(kinds));
        let r = Explorer::default().explore(m, |m| (m.cpus[0].regs[0], m.cpus[1].regs[0]));
        println!(
            "{:>9} | {:<9} outcomes: {:?}  (0,0) reachable: {}",
            kinds[0].label(),
            kinds[1].label(),
            r.outcomes.iter().collect::<Vec<_>>(),
            r.has_outcome(&(0, 0))
        );
    }

    println!("\n=== real threads ({iters} iterations each) ===\n");
    let unfenced = run_sb_litmus(Arc::new(NoFence::new()), iters);
    println!("no fences:\n{unfenced}");
    let symmetric = run_sb_litmus(Arc::new(Symmetric::new()), iters);
    println!("mfence pair:\n{symmetric}");
    let asymmetric = run_sb_litmus(Arc::new(SignalFence::new()), iters / 10);
    println!("l-mfence (signal) pair:\n{asymmetric}");

    assert_eq!(symmetric.count((0, 0)), 0, "mfence pair must forbid (0,0)");
    assert_eq!(asymmetric.count((0, 0)), 0, "l-mfence pair must forbid (0,0)");
    if unfenced.count((0, 0)) > 0 {
        println!(
            "the unfenced run exhibited the TSO reordering {} times — \
             multi-core host detected",
            unfenced.count((0, 0))
        );
    } else {
        println!(
            "the unfenced run never exhibited (0,0) — expected on a host with \
             few cores; the simulator output above shows it is reachable."
        );
    }
}
