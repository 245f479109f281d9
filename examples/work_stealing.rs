//! The ACilk-5 scenario: a work-stealing runtime whose victim/thief deque
//! protocol uses location-based fences.
//!
//! Three modes:
//!
//! * default — run a few of the paper's Figure-4 kernels on the
//!   symmetric (Cilk-5 style, mfence per pop) and asymmetric (ACilk-5
//!   style, fence-free pops) runtimes and print the ratio plus the steal
//!   statistics;
//! * `--serve` — keep an asymmetric runtime stealing continuously and
//!   expose the observatory's live `/metrics` + `/healthz` endpoints, so
//!   a Prometheus scraper (or `curl`) can watch fence counters and steal
//!   events move while the run is in flight;
//! * `--trace-out PATH` — run asymmetric kernels until at least one
//!   steal's serialization round trip landed as a *complete causal
//!   chain* in the trace rings, then write the validated Chrome trace
//!   (with flow arrows and the strategy metadata `lbmf-obs explain`
//!   consumes) to PATH.
//!
//! ```text
//! cargo run --release --example work_stealing [workers]
//! cargo run --release --example work_stealing -- --serve [--addr 127.0.0.1:9478] \
//!     [--workers N] [--duration-secs N]
//! cargo run --release --example work_stealing -- --trace-out steal.trace.json [--workers N]
//! ```

use lbmf_repro::cilk::bench::{Kernel, Scale};
use lbmf_repro::cilk::Scheduler;
use lbmf_repro::fences::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--serve") {
        let refs: Vec<&str> = argv.iter().map(String::as_str).collect();
        serve(&lbmf_bench::Args::from(&refs));
        return;
    }
    if argv.iter().any(|a| a == "--trace-out") {
        let refs: Vec<&str> = argv.iter().map(String::as_str).collect();
        trace_out(&lbmf_bench::Args::from(&refs));
        return;
    }

    let workers: usize = argv.first().and_then(|a| a.parse().ok()).unwrap_or(2);

    let symmetric = Scheduler::new(workers, Arc::new(Symmetric::new()));
    let asymmetric = Scheduler::new(workers, Arc::new(SignalFence::new()));

    println!("{workers} workers, Test-scale inputs\n");
    println!(
        "{:>10} {:>12} {:>12} {:>7} {:>16}",
        "kernel", "cilk-5", "acilk-5", "ratio", "fences avoided"
    );
    for kernel in [Kernel::Fib, Kernel::Cilksort, Kernel::Nqueens, Kernel::Matmul] {
        let sym = kernel.run_timed(&symmetric, Scale::Test);
        asymmetric.reset_stats();
        let asym = kernel.run_timed(&asymmetric, Scale::Test);
        assert_eq!(sym.checksum, asym.checksum, "runtimes must agree");
        let stats = asymmetric.stats();
        println!(
            "{:>10} {:>12.1?} {:>12.1?} {:>7.3} {:>16}",
            kernel.name(),
            sym.elapsed,
            asym.elapsed,
            asym.elapsed.as_secs_f64() / sym.elapsed.as_secs_f64(),
            stats.fences_avoided(),
        );
    }

    // Show the full statistics of one asymmetric parallel run.
    asymmetric.reset_stats();
    let r = Kernel::Fib.run_timed(&asymmetric, Scale::Test);
    let stats = asymmetric.stats();
    println!("\nfib on the asymmetric runtime (checksum {:x}):", r.checksum);
    println!("  {stats}");
    println!(
        "  every steal attempt serialized the victim remotely; the victim \
         itself never executed a hardware fence."
    );
}

/// The flight-recorder run: steal on the asymmetric runtime until the
/// rings hold at least one complete causal serialization chain
/// (steal-attempt → request → signal-sent → handler-enter → drained →
/// ack-observed), then export it for `lbmf-obs explain` / Perfetto.
fn trace_out(args: &lbmf_bench::Args) {
    use lbmf_repro::trace::{causal::ChainSet, chrome, take_snapshot};

    let path = args.value("--trace-out").expect("--trace-out needs a path");
    let workers: usize = args.get("--workers", 2);
    let strategy = Arc::new(SignalFence::new());
    let sched = Scheduler::new(workers, strategy.clone());

    // Discard whatever earlier activity left in the global rings so the
    // exported trace is this run's story.
    let _ = take_snapshot();

    // Steals are scheduling luck; each attempt drains (destructively),
    // so on a miss we run more kernels and try again.
    const ATTEMPTS: usize = 10;
    const RUNS_PER_ATTEMPT: usize = 10;
    for attempt in 0..ATTEMPTS {
        for _ in 0..RUNS_PER_ATTEMPT {
            std::hint::black_box(Kernel::Fib.run_timed(&sched, Scale::Test).checksum);
            if strategy.stats().snapshot().serializations_delivered > 0 {
                break;
            }
        }
        let snap = take_snapshot();
        let set = ChainSet::from_snapshot(&snap);
        let acc = set.accounting();
        if acc.complete == 0 {
            println!(
                "attempt {}/{ATTEMPTS}: {} chain(s), none complete yet",
                attempt + 1,
                set.chains.len()
            );
            continue;
        }
        let steals = set.chains.iter().filter(|c| c.is_steal()).count();
        println!(
            "captured {} chain(s): {} complete, {} missing-interior, {} orphaned, \
             {} attempt-only probes; {} from steals",
            set.chains.len(),
            acc.complete,
            acc.missing_interior,
            acc.orphans,
            acc.attempt_only,
            steals
        );
        let json = chrome::export_with_strategy(&snap, Some(strategy.name()));
        chrome::validate(&json).expect("exported steal trace failed its own self-check");
        assert!(json.contains("\"ph\":\"s\""), "complete chains must export flow arrows");
        if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(path, &json).expect("write trace file");
        println!(
            "wrote {path} — open in https://ui.perfetto.dev or run: \
             cargo run -p lbmf-obs -- explain {path}"
        );
        return;
    }
    eprintln!("no complete serialization chain captured in {ATTEMPTS} attempts");
    std::process::exit(1);
}

/// The scrapeable long run: ACilk-5 steals while `lbmf_obs::http` serves its
/// counters. `curl http://<addr>/metrics` mid-run to watch.
fn serve(args: &lbmf_bench::Args) {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:9478");
    let workers: usize = args.get("--workers", 2);
    let duration_secs: u64 = args.get("--duration-secs", 30);

    let strategy = Arc::new(SignalFence::new());
    let strategy_for_metrics = strategy.clone();
    let server = lbmf_obs::http::MetricsServer::start(addr, move || {
        lbmf_obs::metrics::render_all(&[(
            strategy_for_metrics.name().to_string(),
            strategy_for_metrics.stats().snapshot(),
        )])
    })
    .expect("bind metrics endpoint");
    println!(
        "ACilk-5 stealing on {workers} workers; scrape http://{}/metrics for {duration_secs}s \
         (0 = until killed)",
        server.local_addr()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let strategy2 = strategy.clone();
    let driver = std::thread::Builder::new()
        .name("work-stealing-driver".into())
        .spawn(move || {
            let sched = Scheduler::new(workers, strategy2);
            let kernels = [Kernel::Fib, Kernel::Cilksort, Kernel::Nqueens];
            let mut runs = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                let k = kernels[runs % kernels.len()];
                std::hint::black_box(k.run_timed(&sched, Scale::Test).checksum);
                runs += 1;
            }
            runs
        })
        .expect("spawn driver");

    if duration_secs == 0 {
        let _ = driver.join();
        return;
    }
    std::thread::sleep(std::time::Duration::from_secs(duration_secs));
    stop.store(true, Ordering::Relaxed);
    let runs = driver.join().unwrap_or(0);
    let stats = strategy.stats().snapshot();
    println!("done: {runs} kernel runs; {stats}");
    // Final self-scrape so the run's last counters are visible even
    // without an external scraper.
    let (status, body) =
        lbmf_obs::http::get(server.local_addr(), "/metrics").expect("self-scrape");
    assert!(status.contains("200"), "{status}");
    let needle = format!(
        "lbmf_fence_serializations_delivered_total{{strategy=\"lbmf-signal\"}} {}",
        stats.serializations_delivered
    );
    assert!(
        body.contains(&needle),
        "endpoint and snapshot must agree on {needle:?}"
    );
    println!("final scrape consistent with FenceStatsSnapshot ({} bytes)", body.len());
}
