//! `lbmf-obs` CLI: `record`, `compare`, `serve`, plus the simulator-facing
//! `sim` and `validate`. See `lbmf_obs` (the library half)
//! for what each subcommand is made of, and EXPERIMENTS.md for the
//! recipes CI and humans follow.

use lbmf_bench::Args;
use lbmf_obs::schema::{bench_files, next_index, BenchReport};
use lbmf_obs::{compare, doctor, explain, heat, http, metrics, pmu, sim, source, suite, trend};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const USAGE: &str = "\
lbmf-obs — perf observatory for the lbmf runtime

USAGE:
    lbmf-obs record  [--quick] [--dir DIR] [--out PATH] [--ingest PATH]
    lbmf-obs compare [--dir DIR] [--baseline PATH] [--candidate PATH] [--gate] [--advisory]
    lbmf-obs compare --self-check [PATH] [--dir DIR]
    lbmf-obs explain TRACE.json [TRACE.json ...] [--require-complete N] [--max-sum-deviation PCT]
    lbmf-obs serve   [--addr HOST:PORT] [--workers N] [--duration-secs N]
    lbmf-obs doctor  [--addr HOST:PORT | --snapshot PATH] [--max-pin-age-ms N] [--require-healthy]
                     [--json]
    lbmf-obs heat    [--addr HOST:PORT | --snapshot PATH] [--top N] [--prometheus]
                     [--expect-theta F [--theta-tol F]] [--require-heat]
    lbmf-obs pmu     [PATH] [--dir DIR]
    lbmf-obs trend   [--dir DIR]
    lbmf-obs sim     [--iters N] [--prometheus]
    lbmf-obs validate TRACE.json [TRACE.json ...]

record:   run the benchmark suite, write BENCH_<n>.json (next free n, floor 3).
          --quick uses 5 ms measurement batches (CI smoke; noisier, and
          flagged as such in the file). --ingest folds a mini-criterion
          JSONL collection (LBMF_BENCH_JSON hook) into the report.
compare:  newest recording vs the one before it (or explicit paths).
          Deltas are noise-aware: threshold = max(5%, 3×cv), doubled for
          quick recordings. --gate exits 2 on confirmed regressions;
          --advisory downgrades the gate to a warning (1-core CI hosts).
          --self-check validates a recording parses against the schema.
explain:  validate an exported Chrome trace, reconstruct the causal
          serialization chains from their correlation ids, and print
          per-phase latency attribution (queue/delivery/drain/ack) with
          orphan accounting, one section per trace. --require-complete N
          exits 2 unless at least N fully-phased chains were found across
          all traces; --max-sum-deviation PCT exits 2 when the phase-p50
          sum strays further than PCT% from the measured round-trip p50.
serve:    run a steal-heavy ACilk-5 workload and serve /metrics + /healthz
          until --duration-secs elapses (0 = forever, default). /healthz
          is computed: it turns 503 once the workload driver exits.
doctor:   diagnose a store's health plane per shard. Live mode scrapes
          /metrics and /healthz at --addr (default 127.0.0.1:9478);
          --snapshot reads exposition text from a file (e.g. a DES
          kv_sim health dump) — both carry the same gauge schema. Stuck
          readers are attributed by reader slot id. Exits 1 when any
          shard is unhealthy; --require-healthy also exits 1 when no
          shard gauges were found at all (vacuous-health guard). --json
          emits the same diagnosis as an lbmf-doctor/1 document.
heat:     the workload observatory: reassemble the hot-key / shard-skew
          gauge families from a live /metrics scrape (--addr, default
          127.0.0.1:9478) or a snapshot file (e.g. a DES kv_sim heat
          dump) and print the top-k read spectrum with write and
          serialize-bill attribution, the re-derived Zipfian-theta MLE
          with +/- 1 sigma, per-shard load, and a hot-key / imbalance
          verdict. --top widens the table (default 10); --prometheus
          re-renders the families through the shared renderer.
          --expect-theta F exits 2 unless every store's theta lands
          within --theta-tol (default 0.1) of F; --require-heat exits 1
          when no heat families were found at all (disarmed plane).
pmu:      the microarchitectural view of a recording: per-strategy
          attribution (cycles, IPC, cache misses and stall cycles per
          op) from the pmu blocks `record` stores on every measured row
          of PATH (default: the newest BENCH_*.json under --dir). Hosts
          without perf_event_open record a reported rdtscp cycles-only
          fallback (also forceable at record time with
          LBMF_PMU_FORCE=tsc), which the view names. Exits 2 when real
          counters show the store read path is NOT asymmetric
          (symmetric must retire measurably more stall cycles per read
          than signal); under the tsc fallback that verdict is
          advisory, because a TSC delta cannot attribute why cycles
          were spent.
trend:    fit every benchmark's mean across ALL committed BENCH_*.json
          recordings (index order) and report %/recording slopes vs each
          benchmark's noise floor. Advisory: always exits 0.
sim:      run the cycle simulator's Dekker handoff under l-mfence and
          mfence and attribute the coherence traffic each strategy causes:
          per-(op, instruction class) bus transactions, link clears by
          reason, and the serialization bill with who paid it.
          --prometheus additionally prints the exposition-format counters.
validate: structurally validate exported Chrome traces (flow-event
          pairing included) without any further interpretation.
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = argv.first().map(String::as_str);
    let rest: Vec<&str> = argv.iter().skip(1).map(String::as_str).collect();
    let args = Args::from(&rest);
    match sub {
        Some("record") => cmd_record(&args),
        Some("compare") => cmd_compare(&args),
        Some("explain") => cmd_explain(&rest),
        Some("serve") => cmd_serve(&args),
        Some("doctor") => cmd_doctor(&args),
        Some("heat") => cmd_heat(&args),
        Some("pmu") => cmd_pmu(&rest),
        Some("trend") => cmd_trend(&args),
        Some("sim") => cmd_sim(&args),
        Some("validate") => cmd_validate(&rest),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dir_of(args: &Args) -> PathBuf {
    PathBuf::from(args.value("--dir").unwrap_or("."))
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("lbmf-obs: {msg}");
    ExitCode::FAILURE
}

fn cmd_record(args: &Args) -> ExitCode {
    let quick = args.flag("--quick");
    let dir = dir_of(args);
    println!(
        "recording {} suite (batch window {:?})...",
        if quick { "quick" } else { "full" },
        suite::target_for(quick)
    );
    let mut report = suite::run(quick);

    // The LBMF_BENCH_JSON hook: fold externally collected rows in.
    let ingest_path = args
        .value("--ingest")
        .map(str::to_string)
        .or_else(|| std::env::var("LBMF_BENCH_JSON").ok().filter(|p| !p.is_empty()));
    if let Some(path) = ingest_path {
        match std::fs::read_to_string(&path) {
            Ok(text) => match suite::ingest_jsonl(&mut report, &text) {
                Ok(n) => println!("ingested {n} external result(s) from {path}"),
                Err(e) => return fail(&format!("ingest {path}: {e}")),
            },
            Err(e) => eprintln!("note: no ingestable JSONL at {path} ({e})"),
        }
    }

    let out = match args.value("--out") {
        Some(p) => PathBuf::from(p),
        None => dir.join(format!("BENCH_{}.json", next_index(&dir))),
    };
    let text = report.render();
    // Round-trip before writing: a file `compare` cannot read back must
    // never land on disk.
    if let Err(e) = BenchReport::parse(&text) {
        return fail(&format!("internal error: recording fails self-parse: {e}"));
    }
    if let Err(e) = std::fs::write(&out, &text) {
        return fail(&format!("write {}: {e}", out.display()));
    }
    println!(
        "wrote {} ({} benchmarks, host {}/{} cpus={})",
        out.display(),
        report.benchmarks.len(),
        report.host.os,
        report.host.arch,
        report.host.cpus
    );
    ExitCode::SUCCESS
}

fn cmd_compare(args: &Args) -> ExitCode {
    let dir = dir_of(args);
    if args.flag("--self-check") {
        // `--self-check [PATH]`: explicit file, else the newest recording.
        let path = match args.value("--self-check").filter(|v| !v.starts_with("--")) {
            Some(p) => PathBuf::from(p),
            None => match bench_files(&dir).pop() {
                Some((_, p)) => p,
                None => return fail(&format!("no BENCH_*.json under {}", dir.display())),
            },
        };
        return match BenchReport::load(&path) {
            Ok(r) => {
                println!(
                    "{}: schema ok ({} benchmarks, recorded_unix {}, quick={})",
                    path.display(),
                    r.benchmarks.len(),
                    r.recorded_unix,
                    r.quick
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }

    let files = bench_files(&dir);
    let candidate_path = match args.value("--candidate") {
        Some(p) => PathBuf::from(p),
        None => match files.last() {
            Some((_, p)) => p.clone(),
            None => return fail(&format!("no BENCH_*.json under {}", dir.display())),
        },
    };
    let baseline_path = match args.value("--baseline") {
        Some(p) => PathBuf::from(p),
        None => {
            // Newest prior recording that isn't the candidate itself.
            match files
                .iter()
                .rev()
                .map(|(_, p)| p)
                .find(|p| **p != candidate_path)
            {
                Some(p) => p.clone(),
                None => return fail("need two recordings (or --baseline) to compare"),
            }
        }
    };
    let baseline = match BenchReport::load(&baseline_path) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let candidate = match BenchReport::load(&candidate_path) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    println!(
        "baseline:  {} (recorded_unix {})",
        baseline_path.display(),
        baseline.recorded_unix
    );
    println!(
        "candidate: {} (recorded_unix {})",
        candidate_path.display(),
        candidate.recorded_unix
    );
    let cmp = compare::compare(&baseline, &candidate);
    print!("{}", cmp.render());
    let regressions = cmp.regressions().count();
    if args.flag("--gate") && regressions > 0 {
        if args.flag("--advisory") {
            eprintln!("gate (advisory): {regressions} regression(s) — not failing the build");
        } else {
            eprintln!("gate: {regressions} confirmed regression(s)");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_explain(rest: &[&str]) -> ExitCode {
    // Positional paths plus two value flags; Args has no positional
    // accessor, so split by hand.
    let args = Args::from(rest);
    let require_complete: usize = args.get("--require-complete", 0);
    let max_sum_deviation: Option<f64> = args.value("--max-sum-deviation").and_then(|v| v.parse().ok());
    if args.value("--max-sum-deviation").is_some() && max_sum_deviation.is_none() {
        return fail("--max-sum-deviation needs a numeric percentage");
    }
    let mut paths = Vec::new();
    let mut skip_next = false;
    for a in rest {
        if skip_next {
            skip_next = false;
            continue;
        }
        if *a == "--require-complete" || *a == "--max-sum-deviation" {
            skip_next = true;
        } else if a.starts_with("--") {
            return fail(&format!("unknown flag {a:?}\n\n{USAGE}"));
        } else {
            paths.push(PathBuf::from(a));
        }
    }
    if paths.is_empty() {
        return fail(&format!("explain needs at least one trace path\n\n{USAGE}"));
    }

    let mut total_complete = 0usize;
    let mut gate_failures = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("{}: {e}", path.display())),
        };
        // Structural validation first (including flow-event pairing) —
        // explain must never attribute latency from a malformed trace.
        if let Err(e) = lbmf_trace::chrome::validate(&text) {
            return fail(&format!("{}: invalid trace: {e}", path.display()));
        }
        let parsed = match explain::parse_trace(&text) {
            Ok(p) => p,
            Err(e) => return fail(&format!("{}: {e}", path.display())),
        };
        let ex = explain::explain(&parsed);
        println!("=== {} ===", path.display());
        print!("{}", ex.text);
        total_complete += ex.complete_chains;
        if let (Some(max_pct), Some(dev)) = (max_sum_deviation, ex.phase_sum_deviation) {
            if dev.abs() * 100.0 > max_pct {
                gate_failures.push(format!(
                    "{}: phase-p50 sum deviates {:+.1}% from round-trip p50 (limit ±{max_pct}%)",
                    path.display(),
                    dev * 100.0
                ));
            }
        }
    }
    if require_complete > 0 && total_complete < require_complete {
        gate_failures.push(format!(
            "found {total_complete} complete chain(s), --require-complete {require_complete}"
        ));
    }
    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("explain gate: {f}");
        }
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

fn cmd_doctor(args: &Args) -> ExitCode {
    let max_pin_age_ms: u64 = args.get("--max-pin-age-ms", 1000);
    let require_healthy = args.flag("--require-healthy");

    let mut healthz_reasons = Vec::new();
    let text = match source::fetch_exposition(args, Some(&mut healthz_reasons)) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };

    let samples = match doctor::parse_exposition(&text) {
        Ok(s) => s,
        Err(e) => return fail(&format!("unparseable metrics: {e}")),
    };
    let mut report = doctor::diagnose(&samples, max_pin_age_ms * 1_000_000);
    report.healthz_reasons = healthz_reasons;
    if args.flag("--json") {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    if report.is_vacuous() && require_healthy {
        eprintln!("doctor: --require-healthy with no shard health data is a failure");
        return ExitCode::FAILURE;
    }
    if report.healthy() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_heat(args: &Args) -> ExitCode {
    let top: usize = args.get("--top", 10);
    let expect_theta: Option<f64> = match args.value("--expect-theta") {
        Some(v) => match v.parse() {
            Ok(f) => Some(f),
            Err(_) => return fail("--expect-theta needs a numeric theta"),
        },
        None => None,
    };
    let theta_tol: f64 = match args.value("--theta-tol") {
        Some(v) => match v.parse() {
            Ok(t) if t > 0.0 => t,
            _ => return fail("--theta-tol needs a positive tolerance"),
        },
        None => 0.1,
    };

    let text = match source::fetch_exposition(args, None) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let samples = match doctor::parse_exposition(&text) {
        Ok(s) => s,
        Err(e) => return fail(&format!("unparseable metrics: {e}")),
    };
    let report = match heat::assemble(&samples) {
        Ok(r) => r,
        Err(e) => return fail(&format!("malformed heat families: {e}")),
    };
    print!("{}", report.render(top));
    if args.flag("--prometheus") {
        print!("{}", report.render_prometheus());
    }
    if report.is_vacuous() && args.flag("--require-heat") {
        eprintln!("heat: --require-heat with no heat families is a failure (disarmed plane?)");
        return ExitCode::FAILURE;
    }
    if let Some(expect) = expect_theta {
        let failures = report.theta_gate(expect, theta_tol);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("heat gate: {f}");
            }
            return ExitCode::from(2);
        }
        println!("heat gate: theta within {expect} +/- {theta_tol} for all stores");
    }
    ExitCode::SUCCESS
}

fn cmd_pmu(rest: &[&str]) -> ExitCode {
    // `pmu [PATH]`: an explicit recording, else the newest under --dir.
    let mut path = None;
    let mut skip_next = false;
    for a in rest {
        if skip_next {
            skip_next = false;
        } else if *a == "--dir" {
            skip_next = true;
        } else if a.starts_with("--") {
            return fail(&format!("unknown flag {a:?}\n\n{USAGE}"));
        } else if path.replace(PathBuf::from(a)).is_some() {
            return fail("pmu reads one recording");
        }
    }
    let dir = dir_of(&Args::from(rest));
    let Some(path) = path.or_else(|| bench_files(&dir).pop().map(|(_, p)| p)) else {
        return fail(&format!("no BENCH_*.json under {}", dir.display()));
    };
    let report = match BenchReport::load(&path) {
        Ok(r) => pmu::PmuReport::from_recording(&r),
        Err(e) => return fail(&e),
    };
    if report.is_vacuous() {
        return fail(&format!("{}: no benchmark carries a pmu block", path.display()));
    }
    println!("recording: {}", path.display());
    print!("{}", report.render());
    match report.read_asymmetry() {
        Some(a) if !a.ok() && a.hard => {
            eprintln!(
                "pmu gate: store read path not asymmetric under hardware counters \
                 (symmetric {:.1} vs signal {:.1} {}, need {ASYMMETRY_MIN_RATIO}x)",
                a.symmetric,
                a.asymmetric,
                a.metric,
                ASYMMETRY_MIN_RATIO = pmu::ASYMMETRY_MIN_RATIO
            );
            return ExitCode::from(2);
        }
        Some(a) if !a.ok() => {
            eprintln!(
                "pmu (advisory): tsc fallback saw no read asymmetry ({:.2}x) — \
                 a TSC delta cannot attribute stalls, not gating",
                a.ratio
            );
        }
        _ => {}
    }
    ExitCode::SUCCESS
}

fn cmd_trend(args: &Args) -> ExitCode {
    let dir = dir_of(args);
    match trend::trend_dir(&dir) {
        Ok(report) => {
            print!("{}", report.render());
            let regressing = report.regressing().count();
            if regressing > 0 {
                eprintln!("trend (advisory): {regressing} benchmark(s) drifting slower");
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn cmd_sim(args: &Args) -> ExitCode {
    let iters: u64 = args.get("--iters", 3);
    if iters == 0 {
        return fail("--iters must be at least 1");
    }
    let strategies = sim::traffic_report(iters);
    print!("{}", sim::render_traffic(&strategies));
    if args.flag("--prometheus") {
        for s in &strategies {
            println!("\n# strategy {}", s.label);
            print!("{}", s.prometheus);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_validate(rest: &[&str]) -> ExitCode {
    let paths: Vec<&&str> = rest.iter().filter(|a| !a.starts_with("--")).collect();
    if let Some(flag) = rest.iter().find(|a| a.starts_with("--")) {
        return fail(&format!("unknown flag {flag:?}\n\n{USAGE}"));
    }
    if paths.is_empty() {
        return fail(&format!("validate needs at least one trace path\n\n{USAGE}"));
    }
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        match lbmf_trace::chrome::validate(&text) {
            Ok(n) => println!("{path}: valid ({n} events)"),
            Err(e) => return fail(&format!("{path}: invalid trace: {e}")),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &Args) -> ExitCode {
    use lbmf::strategy::{FenceStrategy, SignalFence};
    use lbmf_cilk::bench::{Kernel, Scale};
    use lbmf_cilk::Scheduler;

    let addr = args.value("--addr").unwrap_or("127.0.0.1:9478");
    let workers: usize = args.get("--workers", 2);
    let duration_secs: u64 = args.get("--duration-secs", 0);

    let strategy = Arc::new(SignalFence::new());
    let strategy_for_metrics = strategy.clone();
    // /healthz is computed, not constant: it reports ready only while
    // the workload driver is actually running (a serving process whose
    // workload died should fail its probes, not smile through them).
    let driver_alive = Arc::new(AtomicBool::new(true));
    let driver_alive_hz = driver_alive.clone();
    let server = match http::MetricsServer::start_with_health(
        addr,
        move || {
            metrics::render_all(&[(
                strategy_for_metrics.name().to_string(),
                strategy_for_metrics.stats().snapshot(),
            )])
        },
        move || {
            if driver_alive_hz.load(Ordering::Acquire) {
                http::HealthStatus::ok()
            } else {
                http::HealthStatus {
                    healthy: false,
                    reasons: vec!["workload driver exited".into()],
                }
            }
        },
    ) {
        Ok(s) => s,
        Err(e) => return fail(&format!("bind {addr}: {e}")),
    };
    println!(
        "serving http://{}/metrics and /healthz ({} ACilk-5 workers, {})",
        server.local_addr(),
        workers,
        if duration_secs == 0 {
            "until killed".to_string()
        } else {
            format!("for {duration_secs}s")
        }
    );

    // The workload: an ACilk-5 scheduler stealing continuously. One
    // driver thread resubmits Figure-4 kernels; the scrape thread only
    // ever reads counters and drains rings.
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let strategy2 = strategy.clone();
    let driver_alive2 = driver_alive.clone();
    let driver = std::thread::Builder::new()
        .name("obs-workload".into())
        .spawn(move || {
            let sched = Scheduler::new(workers, strategy2);
            let kernels = [Kernel::Fib, Kernel::Cilksort, Kernel::Nqueens];
            let mut i = 0usize;
            while !stop2.load(Ordering::Relaxed) {
                let k = kernels[i % kernels.len()];
                std::hint::black_box(k.run_timed(&sched, Scale::Test).checksum);
                i += 1;
            }
            driver_alive2.store(false, Ordering::Release);
            i
        })
        .expect("spawn workload");

    if duration_secs == 0 {
        let _ = driver.join();
    } else {
        std::thread::sleep(std::time::Duration::from_secs(duration_secs));
        stop.store(true, Ordering::Relaxed);
        let runs = driver.join().unwrap_or(0);
        let stats = strategy.stats().snapshot();
        println!("workload finished: {runs} kernel runs; {stats}");
    }
    drop(server);
    ExitCode::SUCCESS
}
