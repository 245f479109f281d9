//! **E5 / E8** — Figure 5(b): relative execution time of ACilk-5 versus
//! Cilk-5 on **16 processors**, plus the signal→steal conversion analysis
//! (the paper reports 53.6% for cholesky, 72.8% for lu, >90% elsewhere).
//!
//! The host has 2 vCPUs, so the 16-worker runs are discrete-event
//! simulations driven by the calibrated cost model (see `lbmf-des`); pass
//! `--real-threads` to run the actual runtime oversubscribed instead
//! (documented as distorted on this host).
//!
//! ```text
//! cargo run --release -p lbmf-bench --bin fig5b_parallel \
//!     [--workers N] [--stats] [--real-threads]
//! ```

use lbmf_bench::{Args, Table};
use lbmf_des::steal_sim::{simulate, StealSimConfig};
use lbmf_des::{SerializeKind, Task};

fn main() {
    let args = Args::parse();
    let workers: usize = args.get("--workers", 16);
    let show_stats = args.flag("--stats");

    if args.flag("--real-threads") {
        real_threads(workers);
        return;
    }

    println!("E5: Figure 5(b) — ACilk-5 / Cilk-5 relative time on {workers} simulated processors");
    println!("(discrete-event simulation, calibrated cost model; below 1.0 = asymmetric wins)\n");

    let names = [
        "cholesky", "cilksort", "fft", "fib", "fibx", "heat", "knapsack", "lu", "matmul",
        "nqueens", "rectmul", "strassen",
    ];
    let mut t = Table::new(&[
        "benchmark",
        "signal/sym",
        "membarrier/sym",
        "le-st/sym",
        "conversion",
    ]);
    let mut stats_t = Table::new(&["benchmark", "steals", "serializations", "conversion", "fences avoided"]);
    for name in names {
        let root = Task::benchmark_root(name).expect("known benchmark");
        let sym = simulate(root, &StealSimConfig::new(workers, SerializeKind::Symmetric));
        let sig = simulate(root, &StealSimConfig::new(workers, SerializeKind::Signal));
        let mb = simulate(root, &StealSimConfig::new(workers, SerializeKind::Membarrier));
        let lest = simulate(root, &StealSimConfig::new(workers, SerializeKind::LeSt));
        t.row(&[
            name.into(),
            format!("{:.3}", sig.makespan as f64 / sym.makespan as f64),
            format!("{:.3}", mb.makespan as f64 / sym.makespan as f64),
            format!("{:.3}", lest.makespan as f64 / sym.makespan as f64),
            format!("{:.1}%", sig.conversion() * 100.0),
        ]);
        stats_t.row(&[
            name.into(),
            format!("{}", sig.steals),
            format!("{}", sig.serializations),
            format!("{:.1}%", sig.conversion() * 100.0),
            format!("{}", sig.pops),
        ]);
    }
    t.print();
    println!(
        "\npaper shape: most signal ratios ≤ ~1; cholesky/heat/lu above 1 \
         (poor conversion or few fences avoided per signal); the LE/ST \
         column shows the proposed hardware erasing the penalty."
    );
    if show_stats {
        println!("\nE8: steal-conversion analysis (signal prototype):");
        stats_t.print();
        println!("(paper: cholesky 53.6%, lu 72.8%, others >90%)");
    }
}

/// Oversubscribed real-thread runs (shape only: more workers than CPUs).
fn real_threads(workers: usize) {
    use lbmf::strategy::{SignalFence, Symmetric};
    use lbmf_cilk::bench::{Kernel, Scale};
    use lbmf_cilk::Scheduler;
    use std::sync::Arc;

    println!("{}", lbmf_bench::oversubscribed_banner("E5"));
    let sym = Scheduler::new(workers, Arc::new(Symmetric::new()));
    let asym = Scheduler::new(workers, Arc::new(SignalFence::new()));
    let mut t = Table::new(&["benchmark", "sym", "asym", "ratio", "conversion"]);
    for k in Kernel::all() {
        let a = k.run_timed(&sym, Scale::Test);
        asym.reset_stats();
        let b = k.run_timed(&asym, Scale::Test);
        let st = asym.stats();
        t.row(&[
            k.name().into(),
            format!("{:.1?}", a.elapsed),
            format!("{:.1?}", b.elapsed),
            format!("{:.3}", b.elapsed.as_secs_f64() / a.elapsed.as_secs_f64()),
            format!("{:.1}%", st.steal_conversion() * 100.0),
        ]);
    }
    t.print();
}
