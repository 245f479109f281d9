//! The serving-tier scenario: a sharded read-mostly KV store whose
//! snapshot reads ride the fence-free primary fast path while writers
//! pay the remote-serialization bill.
//!
//! Four modes, all self-validating (any assertion failure exits
//! nonzero):
//!
//! * default — run the same deterministic Zipfian read-mostly workload
//!   under the symmetric (`mfence`-per-get) store and the asymmetric
//!   (signal-serialization) store, print throughput and the fence and
//!   store counters, then replay the identical schedule through
//!   `lbmf-des` at 8–256 simulated cores per serialization mechanism —
//!   the projection a 2-vCPU host cannot measure directly;
//! * `--smoke` — a capped version of the same (small workload, 64-core
//!   projection only) for CI;
//! * `--serve` — drive the store continuously with the full health plane
//!   armed: `/metrics` exposes the fence counters, the `lbmf_store_*`
//!   counter families, *and* the per-shard health gauges + watchdog
//!   families; `/healthz` is computed from the watchdog verdict. The run
//!   finishes with a self-scrape that asserts the endpoint agrees with
//!   the in-process snapshots. `--wedge-reader` injects the §13 failure
//!   mode the watchdog exists for — a reader pins a shard epoch and
//!   never unpins — and the end-of-run checks then assert `/healthz`
//!   went *red* with the stuck slot attributed;
//! * `--des-health PATH` — replay the workload through `lbmf-des` at
//!   `--cores N` (default 64) simulated cores, optionally wedging
//!   `--stuck-core N`, and write the resulting shard-health gauge
//!   snapshot to PATH for `lbmf-obs doctor --snapshot`;
//! * `--des-heat PATH` — replay a Zipfian workload of known ground-truth
//!   `--theta` (default 0.99) through `lbmf-des` at `--cores N` (default
//!   64) with the simulated heat plane sampling 1-in-`--heat-every`
//!   reads, and write the hot-key/shard-skew gauge snapshot to PATH for
//!   `lbmf-obs heat --snapshot` — the estimator-validation loop: the
//!   snapshot's θ gauge is an *estimate*, the flag is the *truth*.
//!
//! `--serve` also arms the store's workload heat plane (1-in-8 read
//! sampling by default; `--heat-every N`, 0 disarms) and publishes the
//! `lbmf_store_hotkey_*` / `lbmf_store_skew_*` families alongside the
//! health plane; the end-of-run self-scrape reassembles them and checks
//! the scraped spectrum against the in-process heat report.
//!
//! ```text
//! cargo run --release --example store_server
//! cargo run --release --example store_server -- --smoke
//! cargo run --release --example store_server -- --serve [--addr 127.0.0.1:9479] \
//!     [--duration-secs N] [--wedge-reader] [--max-pin-age-ms N] [--heat-every N]
//! cargo run --release --example store_server -- --des-health /tmp/health.prom \
//!     [--cores 64] [--stuck-core 5]
//! cargo run --release --example store_server -- --des-heat /tmp/heat.prom \
//!     [--cores 64] [--theta 0.99] [--heat-every 7]
//! ```

use lbmf_repro::des::{simulate_kv, KvSimConfig, SerializeKind};
use lbmf_repro::fences::prelude::*;
use lbmf_repro::store::{
    build_store, kv_schedule, project, project_heat, run, shard_index, HealthCfg, HealthMonitor,
    Sampler, WorkloadCfg,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = argv.iter().map(String::as_str).collect();
    let args = lbmf_bench::Args::from(&refs);
    if let Some(path) = args.value("--des-health") {
        des_health(path, &args);
        return;
    }
    if let Some(path) = args.value("--des-heat") {
        des_heat(path, &args);
        return;
    }
    if args.flag("--serve") {
        serve(&args);
        return;
    }
    let smoke = args.flag("--smoke");

    let mut cfg = WorkloadCfg::read_mostly();
    if smoke {
        cfg.threads = 2;
        cfg.shards = 4;
        cfg.keys = 1024;
        cfg.writes_per_million = 5_000;
        cfg.ops_per_thread = 10_000;
    }
    println!(
        "workload: {} threads, {} shards, {} keys, theta {}, {} ppm writes, {} ops/thread\n",
        cfg.threads, cfg.shards, cfg.keys, cfg.theta, cfg.writes_per_million, cfg.ops_per_thread
    );

    // -- measured: the same schedule under both fence regimes ----------
    let sym_strategy = Arc::new(Symmetric::new());
    let sym = run(&build_store(sym_strategy.clone(), &cfg), &cfg);
    let sig_strategy = Arc::new(SignalFence::new());
    let sig_store = build_store(sig_strategy.clone(), &cfg);
    let sig = run(&sig_store, &cfg);

    println!("{:>12} {:>14} {:>12} {:>12} {:>14}", "strategy", "reads/s", "reads", "writes", "serializations");
    for (name, r) in [("symmetric", &sym), ("signal", &sig)] {
        println!(
            "{:>12} {:>14.0} {:>12} {:>12} {:>14}",
            name,
            r.read_throughput(),
            r.reads,
            r.writes,
            r.fences.serializations_requested
        );
    }

    // The two runs replay the identical deterministic schedule.
    assert_eq!(sym.reads, sig.reads, "same schedule, same read count");
    assert_eq!(sym.writes, sig.writes, "same schedule, same write count");
    assert_eq!(sym.hits, sym.reads, "prefilled store: every get hits");
    assert_eq!(sig.hits, sig.reads, "prefilled store: every get hits");
    assert_eq!(sig.store.gets, sig.reads);
    assert_eq!(sig.store.puts, sig.writes);
    // The asymmetric writer really serialized remote readers; the
    // readers themselves never executed a hardware fence.
    assert!(sig.fences.serializations_requested > 0, "writers must serialize readers");
    assert_eq!(sig.fences.primary_full_fences, 0, "asymmetric reads are fence-free");
    assert!(sym.fences.primary_full_fences >= sym.reads, "symmetric reads each pay mfence");
    // The reclamation cadence: a shard serializes its readers once its
    // limbo holds one full table's bytes (its pass threshold), or once a
    // put drained its pool of reclaimed memory, which a pass refills
    // with at most one table's bytes. After a write its limbo is either
    // below the threshold (no pass ran) or what the pass held back: with
    // no wedged reader, at most the one retirement a client was mid-get
    // on, and a retirement releases at most one table. So no shard ends
    // the run over its threshold, which is also the health plane's burn
    // criterion, and no pool holds more than one table.
    for shard in 0..cfg.shards {
        let probe = sig_store.shard(shard).health_probe();
        assert!(
            probe.limbo_bytes <= probe.pass_bytes,
            "shard {shard}: {} bytes left in limbo against a {}-byte pass threshold",
            probe.limbo_bytes,
            probe.pass_bytes
        );
        assert!(
            probe.pool_bytes <= probe.pass_bytes,
            "shard {shard}: a {}-byte pool over its {}-byte bound",
            probe.pool_bytes,
            probe.pass_bytes
        );
    }
    // Every shard is sized for 256 keys at the ½ load factor, so its
    // table is at least eight 1 KiB chunks, while an update retires a
    // spine and one chunk, under 2 KiB. A full pool holds at least six
    // chunks and a pass runs once fewer than two are left, so a pass
    // takes at least four puts (plus one pass per shard held back by a
    // pin).
    let remote_readers = cfg.threads as u64 - 1;
    let budget = (sig.store.puts / 4 + cfg.shards as u64) * remote_readers;
    assert!(
        sig.fences.serializations_requested <= budget,
        "{} serializations for {} puts: over the byte-cadence budget {budget}",
        sig.fences.serializations_requested,
        sig.store.puts
    );
    println!("\nmeasured runs agree with the generated schedule; counters consistent.\n");

    // -- projected: the same schedule at many simulated cores ----------
    // Low write mix for the sweep: the asymmetric crossover at high core
    // counts needs writes rare enough that per-reader serialization
    // round trips stay cheaper than an mfence on every read.
    let mut proj = cfg;
    proj.ops_per_thread = 2_000;
    proj.writes_per_million = 30;
    let cores: &[usize] = if smoke { &[64] } else { &[8, 64, 256] };
    println!("DES projection (reads per mega-cycle, identical Zipfian schedule):");
    println!("{:>8} {:>12} {:>12} {:>12}", "cores", "symmetric", "signal", "lest");
    for &n in cores {
        let sym_p = project(&proj, n, SerializeKind::Symmetric);
        let sig_p = project(&proj, n, SerializeKind::Signal);
        let lest_p = project(&proj, n, SerializeKind::LeSt);
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>12.1}",
            n,
            sym_p.read_throughput(),
            sig_p.read_throughput(),
            lest_p.read_throughput()
        );
        if n == 64 {
            // Only asserted at 64 cores: serializing one write costs
            // (cores − 1) round trips, so the break-even write rate
            // falls as 1/cores — at 256 cores this schedule's ~15
            // writes already tip the balance back, which the printed
            // sweep shows.
            assert!(
                lest_p.read_throughput() > sym_p.read_throughput(),
                "at {n} cores the LE/ST store must out-read the mfence store \
                 ({:.1} vs {:.1} reads/Mcycle)",
                lest_p.read_throughput(),
                sym_p.read_throughput()
            );
        }
    }
    println!("\nstore_server: all self-checks passed");
}

/// The scrapeable long run: the signal-fence store serving a Zipfian
/// read-mostly workload with the health plane armed — `/metrics` exposes
/// fence counters, store counters, per-shard health gauges, and the
/// watchdog families; `/healthz` answers from the watchdog verdict.
/// `curl http://<addr>/metrics` mid-run.
fn serve(args: &lbmf_bench::Args) {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:9479");
    let duration_secs: u64 = args.get("--duration-secs", 30);
    let wedge_reader = args.flag("--wedge-reader");
    let max_pin_age_ms: u64 = args.get("--max-pin-age-ms", 1_000);
    let heat_every: u64 = args.get("--heat-every", 8);

    let mut cfg = WorkloadCfg::read_mostly();
    cfg.ops_per_thread = 20_000;
    if wedge_reader {
        // A wedged pin blocks reclamation on its shard: every write there
        // retires a table limbo cannot free until the pin drops at exit.
        // Smaller tables and a lower write rate bound that deliberate
        // leak while still advancing the epoch past the stuck pin.
        cfg.keys = 4 * 1024;
        cfg.writes_per_million = 100;
        assert!(
            duration_secs == 0 || duration_secs * 1_000 >= max_pin_age_ms + 2_000,
            "--wedge-reader needs --duration-secs comfortably past --max-pin-age-ms \
             ({duration_secs}s vs {max_pin_age_ms}ms) for the watchdog to trip"
        );
    }
    let strategy = Arc::new(SignalFence::new());
    let store = build_store(strategy.clone(), &cfg);
    let fences_at_start = strategy.stats().snapshot();
    let store_at_start = store.stats();
    if heat_every > 0 {
        store.arm_heat(heat_every);
        println!("heat plane armed: sampling 1 in {heat_every} reads per thread");
    }

    let mut health_cfg = HealthCfg::default();
    health_cfg.max_pin_age_ns = max_pin_age_ms.saturating_mul(1_000_000);
    let monitor = Arc::new(HealthMonitor::new(
        store.clone(),
        strategy.name(),
        health_cfg,
    ));
    let _sampler = Sampler::start(monitor.clone(), Duration::from_millis(100));

    // Fault injection: pin shard 0's current epoch on this thread and
    // never unpin (until process exit). A handful of direct writes to
    // the shard guarantees its epoch moves past the pin even if the
    // Zipfian schedule happens to write elsewhere.
    let wedge_handle = store.handle();
    let wedged_slot = wedge_handle.slot_key(0);
    let _wedge = wedge_reader.then(|| {
        let w = wedge_handle.wedge(0);
        let key = (0..u64::MAX)
            .find(|&k| shard_index(k, store.shard_count()) == 0)
            .expect("some key routes to shard 0");
        for i in 0..8 {
            store.put(key, i);
        }
        println!(
            "wedged reader: shard 0 slot {wedged_slot:#x} pinned; \
             watchdog armed at {max_pin_age_ms}ms"
        );
        w
    });

    let strategy_m = strategy.clone();
    let store_m = store.clone();
    let monitor_m = monitor.clone();
    let monitor_h = monitor.clone();
    let server = lbmf_obs::http::MetricsServer::start_with_health(
        addr,
        move || {
            let mut payload = lbmf_obs::metrics::render_all(&[(
                strategy_m.name().to_string(),
                strategy_m.stats().snapshot(),
            )]);
            payload.push_str(&lbmf_obs::metrics::render_store_stats(
                strategy_m.name(),
                &store_m.stats(),
            ));
            payload.push_str(&monitor_m.render());
            // The workload heat families, when the plane is armed —
            // folding the reader sketches happens here, on the scrape
            // thread: the drainer pays, readers never do.
            if let Some(heat) = store_m.render_heat(strategy_m.name()) {
                payload.push_str(&heat);
            }
            payload
        },
        move || {
            let v = monitor_h.verdict();
            lbmf_obs::http::HealthStatus {
                healthy: v.healthy,
                reasons: v.reasons,
            }
        },
    )
    .expect("bind metrics endpoint");
    println!(
        "store serving Zipfian read-mostly workload; scrape http://{}/metrics for \
         {duration_secs}s (0 = until killed)",
        server.local_addr()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let store2 = store.clone();
    let driver = std::thread::Builder::new()
        .name("store-server-driver".into())
        .spawn(move || {
            let mut rounds = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                std::hint::black_box(run(&store2, &cfg));
                rounds += 1;
            }
            rounds
        })
        .expect("spawn driver");

    if duration_secs == 0 {
        let _ = driver.join();
        return;
    }
    std::thread::sleep(std::time::Duration::from_secs(duration_secs));
    stop.store(true, Ordering::Relaxed);
    let rounds = driver.join().unwrap_or(0);
    // One settled sample after the driver stops: limbo is no longer
    // churning, so the verdict the self-checks read reflects steady
    // state (still red if a pin is wedged — age only grew).
    let _ = monitor.tick();
    let fences = strategy.stats().snapshot().diff(&fences_at_start);
    let store_snap = store.stats();
    let store_diff = store_snap.diff(&store_at_start);
    println!(
        "done: {rounds} workload rounds; {} gets ({} serializations requested)",
        store_diff.gets, fences.serializations_requested
    );
    assert!(rounds > 0 && store_diff.gets > 0, "driver must have served reads");

    // Self-scrape: the endpoint must agree with the in-process
    // snapshots — the fence family, the store family, and the health
    // plane's gauge/watchdog families.
    let (status, body) =
        lbmf_obs::http::get(server.local_addr(), "/metrics").expect("self-scrape");
    assert!(status.contains("200"), "{status}");
    for (field, value) in store_snap.fields() {
        let needle = format!("lbmf_store_{field}_total{{store=\"lbmf-signal\"}} {value}");
        assert!(
            body.contains(&needle),
            "endpoint and StoreStatsSnapshot must agree on {needle:?}"
        );
    }
    let fences_now = strategy.stats().snapshot();
    let needle = format!(
        "lbmf_fence_serializations_requested_total{{strategy=\"lbmf-signal\"}} {}",
        fences_now.serializations_requested
    );
    assert!(body.contains(&needle), "endpoint and FenceStatsSnapshot must agree on {needle:?}");
    for family in [
        "lbmf_store_shard_epoch{",
        "lbmf_store_shard_limbo_depth{",
        "lbmf_store_watchdog_trips_total",
        "lbmf_store_serialize_wait_window_ns_bucket",
    ] {
        assert!(body.contains(family), "scrape must carry health family {family:?}");
    }

    // The heat families: the scraped spectrum, reassembled by the same
    // code `lbmf-obs heat` runs, must agree with the in-process report.
    if heat_every > 0 {
        let heat = store.heat_report().expect("armed plane must report");
        assert!(heat.sampled_reads > 0, "sampled reader hooks must have fired");
        let samples = lbmf_obs::doctor::parse_exposition(&body).expect("parseable scrape");
        let scraped = lbmf_obs::heat::assemble(&samples).expect("well-formed heat families");
        let view = scraped
            .stores
            .iter()
            .find(|s| s.store == strategy.name())
            .expect("scrape must carry this store's heat families");
        assert_eq!(view.snapshot.sample_every, heat_every);
        assert_eq!(
            view.snapshot.sampled_reads, heat.sampled_reads,
            "scrape and in-process heat report must agree (driver is stopped)"
        );
        assert_eq!(
            view.snapshot.top_reads.first().map(|e| e.key),
            heat.top_reads.first().map(|e| e.key)
        );
        let head = view.snapshot.top_reads[0].key;
        assert!(
            head < 8,
            "Zipf(θ={}) head must surface a low-rank key, got {head}",
            cfg.theta
        );
        println!(
            "heat scrape consistent: {} sampled reads, hottest key {head}{}",
            heat.sampled_reads,
            match view.snapshot.theta {
                Some(t) => format!(", theta {:.3} +/- {:.3}", t.theta, t.std_err),
                None => String::new(),
            }
        );
    } else {
        assert!(store.heat_report().is_none(), "disarmed plane must stay silent");
        assert!(!body.contains("lbmf_store_skew_sample_every"), "disarmed plane must not render");
    }

    // The computed /healthz must agree with the injected fault.
    let (hstatus, hbody) =
        lbmf_obs::http::get(server.local_addr(), "/healthz").expect("healthz");
    let verdict = monitor.verdict();
    if wedge_reader {
        assert!(
            hstatus.contains("503"),
            "wedged reader must turn /healthz red: {hstatus}\n{hbody}"
        );
        assert!(
            verdict.stuck.iter().any(|s| s.shard == 0 && s.slot == wedged_slot),
            "watchdog must attribute the stuck reader to shard 0 slot \
             {wedged_slot:#x}, got {:?}",
            verdict.stuck
        );
        assert!(monitor.trips() >= 1, "watchdog must have tripped at least once");
        println!(
            "healthz red as injected: {}",
            hbody.lines().nth(1).unwrap_or("")
        );
    } else {
        assert!(
            hstatus.contains("200") && verdict.healthy,
            "healthy run must keep /healthz green: {hstatus}\n{hbody}"
        );
    }
    println!("final scrape consistent with store + fence + health snapshots ({} bytes)", body.len());
}

/// Write a DES-run shard-health snapshot — the same gauge schema the
/// live monitor publishes, stamped with virtual time — so
/// `lbmf-obs doctor --snapshot PATH` can diagnose a simulated topology
/// (including core counts this host does not have) exactly like a live
/// scrape.
/// Write a DES-run workload-heat snapshot — the same hot-key/shard-skew
/// gauge schema the live heat plane publishes, fed from 1-in-N sampled
/// *virtual* reads — so `lbmf-obs heat --snapshot PATH` can analyze a
/// simulated topology exactly like a live scrape. The workload's
/// ground-truth `--theta` is printed (and chosen) here, which closes
/// the validation loop: `lbmf-obs heat --expect-theta <same value>`
/// gates the estimator against the truth the generator used.
fn des_heat(path: &str, args: &lbmf_bench::Args) {
    let cores: usize = args.get("--cores", 64);
    let heat_every: u64 = args.get("--heat-every", 7);
    let theta: f64 = args
        .value("--theta")
        .map(|v| v.parse().expect("--theta needs a numeric value"))
        .unwrap_or(0.99);
    assert!(heat_every > 0, "--heat-every 0 would disarm the simulated plane");

    let mut cfg = WorkloadCfg::read_mostly();
    cfg.theta = theta;
    cfg.keys = 16 * 1024;
    cfg.ops_per_thread = 5_000;
    cfg.writes_per_million = 1_000;
    let result = project_heat(&cfg, cores, SerializeKind::LeSt, heat_every);
    let heat = result.heat.as_ref().expect("armed simulated plane");
    let text = result.render_heat("kv-sim");
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "des-heat: {cores} cores, ground-truth theta {theta}, 1-in-{heat_every} sampling; \
         {} sampled reads, estimated theta {}; wrote {} bytes to {path}",
        heat.sampled_reads,
        match heat.theta {
            Some(t) => format!("{:.3} +/- {:.3}", t.theta, t.std_err),
            None => "(not estimable)".to_string(),
        },
        text.len()
    );
}

fn des_health(path: &str, args: &lbmf_bench::Args) {
    let cores: usize = args.get("--cores", 64);
    let stuck_core: i64 = args.get("--stuck-core", -1);
    let mut cfg = WorkloadCfg::read_mostly();
    cfg.ops_per_thread = 2_000;
    // Enough writes that every shard's epoch visibly outruns a wedged pin.
    cfg.writes_per_million = 20_000;
    let schedule = kv_schedule(&cfg, cores);
    let mut sim = KvSimConfig::new(SerializeKind::LeSt);
    if stuck_core >= 0 {
        assert!(
            (stuck_core as usize) < cores,
            "--stuck-core {stuck_core} out of range for --cores {cores}"
        );
        sim.stuck_core = Some(stuck_core as usize);
    }
    let result = simulate_kv(&sim, &schedule);
    let text = result.render_health("kv-sim");
    std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "des-health: {cores} cores, stuck core {:?}, {} reads / {} writes simulated; \
         wrote {} bytes to {path}",
        sim.stuck_core,
        result.reads,
        result.writes,
        text.len()
    );
}
