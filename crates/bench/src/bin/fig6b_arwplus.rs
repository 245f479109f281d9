//! **E7** — Figure 6(b): read throughput of the ARW+ lock (the ARW lock
//! with the writer's *waiting heuristic*) normalized to the SRW lock, over
//! the same sweep as Figure 6(a).
//!
//! The paper: ARW+ "scales much better and consistently has higher
//! throughput compared to the SRW lock, except for the 300:1 ratio", with
//! a notable outlier at (300:1, two threads) where the writer's single
//! peer acknowledges fast enough that no signals are needed.
//!
//! ```text
//! cargo run --release -p lbmf-bench --bin fig6b_arwplus [--window CYCLES] [--reads N]
//! ```

use lbmf_bench::{Args, Table};
use lbmf_des::rw_sim::{simulate, RwSimConfig, RwVariant};
use lbmf_des::SerializeKind;

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];
const RATIOS: [u64; 5] = [300, 500, 1_000, 10_000, 100_000];

fn main() {
    let args = Args::parse();
    if args.flag("--real") {
        real_threads(&args);
        return;
    }
    let reads: u64 = args.get("--reads", 30_000);
    let window: u64 = args.get("--window", 20_000);

    println!("E7: Figure 6(b) — ARW+ / SRW normalized read throughput (simulated)");
    println!("(waiting-heuristic window: {window} cycles; >1.0 = ARW+ wins)\n");
    let mut t = Table::new(&["ratio", "1", "2", "4", "8", "16"]);
    let mut skipped_t = Table::new(&["ratio", "1", "2", "4", "8", "16"]);
    for ratio in RATIOS {
        let mut cells = vec![format!("{ratio}:1")];
        let mut skip_cells = vec![format!("{ratio}:1")];
        for p in THREADS {
            let mut srw_cfg = RwSimConfig::new(p, ratio, RwVariant::Srw);
            srw_cfg.reads_per_thread = reads;
            let mut plus_cfg = RwSimConfig::new(
                p,
                ratio,
                RwVariant::ArwPlus { serialize: SerializeKind::Signal, window },
            );
            plus_cfg.reads_per_thread = reads;
            let srw = simulate(&srw_cfg);
            let plus = simulate(&plus_cfg);
            cells.push(format!("{:.2}", plus.read_throughput() / srw.read_throughput()));
            let total = plus.serializations + plus.signals_skipped;
            skip_cells.push(if total == 0 {
                "-".into()
            } else {
                format!("{:.0}%", plus.signals_skipped as f64 * 100.0 / total as f64)
            });
        }
        t.row(&cells);
        skipped_t.row(&skip_cells);
    }
    t.print();
    println!("\nsignals skipped by the waiting heuristic (% of serializations avoided):");
    skipped_t.print();
    println!(
        "\npaper shape: ≥1 nearly everywhere; the heuristic converts almost \
         every would-be signal into a spin-wait acknowledgment."
    );
}

/// Oversubscribed real-thread ARW+ runs (shape only: more threads than CPUs).
fn real_threads(args: &Args) {
    use lbmf::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let per_thread_ms: u64 = args.get("--ms", 200);
    let window: u32 = args.get("--window", 20_000u32);
    println!("{}", lbmf_bench::oversubscribed_banner("E7"));

    fn throughput<S: FenceStrategy>(
        lock: Arc<AsymRwLock<S>>,
        threads: usize,
        ratio: u64,
        window: Duration,
    ) -> f64 {
        let reads = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
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

    let measure_window = Duration::from_millis(per_thread_ms);
    let mut t = Table::new(&["ratio", "1", "2", "4"]);
    for ratio in [300u64, 1_000, 100_000] {
        let mut cells = vec![format!("{ratio}:1")];
        for p in [1usize, 2, 4] {
            let srw = throughput(
                Arc::new(AsymRwLock::new(Arc::new(Symmetric::new()))),
                p,
                ratio,
                measure_window,
            );
            let plus = throughput(
                Arc::new(AsymRwLock::with_spin_window(Arc::new(SignalFence::new()), window)),
                p,
                ratio,
                measure_window,
            );
            cells.push(format!("{:.2}", plus / srw));
        }
        t.row(&cells);
    }
    t.print();
}
