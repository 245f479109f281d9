//! **E6** — Figure 6(a): read throughput of the ARW lock normalized to the
//! SRW lock, across thread counts {1, 2, 4, 8, 16} and read-to-write
//! ratios {300, 500, 1000, 10000, 100000} : 1.
//!
//! Above 1.0 the asymmetric (reader-biased) lock wins; the paper shows it
//! collapsing at low ratios and high thread counts because the writer
//! signals readers one by one.
//!
//! The 16-thread sweeps are discrete-event simulations on this 2-vCPU
//! host; `--real` runs the actual lock implementation instead (threads
//! oversubscribed, shape distorted).
//!
//! ```text
//! cargo run --release -p lbmf-bench --bin fig6a_arw [--real] [--reads N]
//! ```

use lbmf_bench::{Args, Table};
use lbmf_des::rw_sim::{simulate, RwSimConfig, RwVariant};
use lbmf_des::SerializeKind;

pub const THREADS: [usize; 5] = [1, 2, 4, 8, 16];
pub const RATIOS: [u64; 5] = [300, 500, 1_000, 10_000, 100_000];

fn main() {
    let args = Args::parse();
    if args.flag("--real") {
        real_threads(&args);
        return;
    }
    let reads: u64 = args.get("--reads", 30_000);

    println!("E6: Figure 6(a) — ARW / SRW normalized read throughput (simulated)");
    println!("(rows: read:write ratio; columns: thread count; >1.0 = ARW wins)\n");
    let mut t = Table::new(&["ratio", "1", "2", "4", "8", "16"]);
    for ratio in RATIOS {
        let mut cells = vec![format!("{ratio}:1")];
        for p in THREADS {
            let mut srw_cfg = RwSimConfig::new(p, ratio, RwVariant::Srw);
            srw_cfg.reads_per_thread = reads;
            let mut arw_cfg = RwSimConfig::new(
                p,
                ratio,
                RwVariant::Arw { serialize: SerializeKind::Signal },
            );
            arw_cfg.reads_per_thread = reads;
            let srw = simulate(&srw_cfg);
            let arw = simulate(&arw_cfg);
            cells.push(format!("{:.2}", arw.read_throughput() / srw.read_throughput()));
        }
        t.row(&cells);
    }
    t.print();
    println!(
        "\npaper shape: >1 at one thread and at very high ratios; below 1 at \
         low ratios with many threads (the writer's serialized signaling)."
    );
}

fn real_threads(args: &Args) {
    use lbmf::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let per_thread_ms: u64 = args.get("--ms", 200);
    println!("{}", lbmf_bench::oversubscribed_banner("E6"));

    // Measure reads completed in a fixed wall-clock window.
    fn throughput<S: FenceStrategy>(
        lock: Arc<AsymRwLock<S>>,
        threads: usize,
        ratio: u64,
        window: Duration,
    ) -> f64 {
        let reads = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writes_every = (ratio / threads as u64).max(1);
        let mut handles = Vec::new();
        for _ in 0..threads {
            let lock = lock.clone();
            let reads = reads.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let h = lock.register_reader();
                let mut since_write = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if since_write >= writes_every {
                        since_write = 0;
                        lock.with_write(|| std::hint::black_box(()));
                    } else {
                        h.read(|| std::hint::black_box(()));
                        since_write += 1;
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        reads.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
    }

    let window = Duration::from_millis(per_thread_ms);
    let mut t = Table::new(&["ratio", "1", "2", "4"]);
    for ratio in [300u64, 1_000, 100_000] {
        let mut cells = vec![format!("{ratio}:1")];
        for p in [1usize, 2, 4] {
            let srw = throughput(
                Arc::new(AsymRwLock::new(Arc::new(Symmetric::new()))),
                p,
                ratio,
                window,
            );
            let arw = throughput(
                Arc::new(AsymRwLock::new(Arc::new(SignalFence::new()))),
                p,
                ratio,
                window,
            );
            cells.push(format!("{:.2}", arw / srw));
        }
        t.row(&cells);
    }
    t.print();
}
