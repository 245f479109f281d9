//! The repository's benchmark: four closed-loop workloads driven through
//! the public APIs of `lbmf-store`, `lbmf-cilk` and `lbmf::arw`, on the
//! default build (`trace` compiled in and recording, `SignalFence`).
//!
//! ```text
//! lbmf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's own
//! spans off; `--trace 1` measures the per-layer metrics (unit-cost
//! probes, counter diffs, spans around every call into a layer) and a
//! reconciliation of per-op time against them. Human-readable lines come
//! first; the last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod arw;
mod cilk;
mod harness;
mod kv;
mod probe;

use harness::{CtxSwitches, TraceTotals};
use lbmf::stats::FenceStatsSnapshot;
use lbmf::strategy::{FenceStrategy, MembarrierFence, SignalFence};
use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports under `--trace 0`.
/// "fast" is the op carrying the l-mfence position, "slow" the op that
/// pays the remote serialization; see `BENCHMARK.json` for each
/// workload's meaning.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("fast_ns_p50", "ns"),
    ("fast_ns_p99", "ns"),
    ("slow_us_p50", "us"),
    ("slow_us_p90", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The latency percentiles of the fast op.
pub const FAST_PERCENTILES: [(&str, f64); 2] = [("fast_ns_p50", 50.0), ("fast_ns_p99", 99.0)];

/// The latency percentiles of the slow op. Its p99 waits on whether the
/// serialized peer's vCPU is running, which on a shared host changes
/// from run to run, so it is reported per layer, without a bound.
pub const SLOW_PERCENTILES: [(&str, f64); 3] = [
    ("slow_us_p50", 50.0),
    ("slow_us_p90", 90.0),
    ("slow_us_p99", 99.0),
];

/// The per-layer metrics every workload reports under `--trace 1` (0 for
/// a layer the workload never enters).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("slow_us_p99", "us"),
    ("strategy.primary_fence_ns", "ns"),
    ("strategy.serialize_remote_us", "us"),
    ("strategy.primary_fences", "count"),
    ("strategy.secondary_fences", "count"),
    ("strategy.serializations_requested", "count"),
    ("strategy.serializations_delivered", "count"),
    ("strategy.delivered_ratio", "ratio"),
    ("trace.now_ns", "ns"),
    ("trace.record_ns", "ns"),
    ("trace.record_off_ns", "ns"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.dropped_ratio", "ratio"),
    ("store.get_ns", "ns"),
    ("store.put_us", "us"),
    ("store.get_self_ns", "ns"),
    ("store.put_self_us", "us"),
    ("store.gets", "count"),
    ("store.puts", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.tables_retired", "count"),
    ("store.tables_reclaimed", "count"),
    ("store.reclaim_ratio", "ratio"),
    ("store.serializations_per_put", "ratio"),
    ("cilk.join_ns", "ns"),
    ("cilk.pushes", "count"),
    ("cilk.pops", "count"),
    ("cilk.pop_conflicts", "count"),
    ("cilk.steal_attempts", "count"),
    ("cilk.steals", "count"),
    ("cilk.steal_conversion", "ratio"),
    ("arw.read_ns", "ns"),
    ("arw.write_us", "us"),
    ("arw.reads", "count"),
    ("arw.writes", "count"),
    ("arw.read_conflicts", "count"),
    ("arw.signals_skipped", "count"),
    ("arw.conflict_ratio", "ratio"),
    ("os.ctx_switches_voluntary", "count"),
    ("os.ctx_switches_involuntary", "count"),
    ("bench.timer_ns", "ns"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("recon.op_ns", "ns"),
    ("recon.predicted_ns", "ns"),
    ("recon.residual_ns", "ns"),
    ("recon.residual_ratio", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "kv_read_mostly",
    "kv_write_mix",
    "cilk_fib",
    "arw_read_mostly",
];

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            flags.insert(flag, value);
        }
        let get = |k: &str| flags.get(k).ok_or(format!("missing {k}"));
        let args = Args {
            workload: get("--workload")?.clone(),
            seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: get("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            traced: match get("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other}")),
            },
        };
        if !(args.seconds > 0.0 && args.seconds <= 120.0) {
            return Err("--seconds must be in (0, 120]".into());
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "unknown workload {}; one of {WORKLOADS:?}",
                args.workload
            ));
        }
        Ok(args)
    }
}

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Ops whose results were checked.
    pub attempted: u64,
    /// Wrong results and counter disagreements (see each workload).
    pub failed: u64,
    pub metrics: Metrics,
    /// Extra human-readable lines (reconciliation, what fast/slow mean).
    pub notes: Vec<String>,
}

/// `num / den`, 0 when nothing happened.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Each `(name, p)` of `wanted`: the `p`-th percentile of each window's
/// latencies (`values(w)`, already in the metrics' unit), reported as its
/// median over the windows.
pub fn set_percentiles(
    m: &mut Metrics,
    wanted: &[(&'static str, f64)],
    windows: usize,
    mut values: impl FnMut(usize) -> Vec<f64>,
) {
    let mut per_window = vec![Vec::new(); wanted.len()];
    for w in 0..windows {
        let mut v = values(w);
        if !v.is_empty() {
            for (figures, &(_, p)) in per_window.iter_mut().zip(wanted) {
                figures.push(harness::percentile(&mut v, p));
            }
        }
    }
    for (mut figures, &(name, _)) in per_window.into_iter().zip(wanted) {
        m.set(name, harness::median(&mut figures));
    }
}

/// The fence-strategy counters of one phase.
pub fn fence_layers(d: &FenceStatsSnapshot, m: &mut Metrics) {
    m.set(
        "strategy.primary_fences",
        (d.primary_compiler_fences + d.primary_full_fences) as f64,
    );
    m.set("strategy.secondary_fences", d.secondary_full_fences as f64);
    m.set(
        "strategy.serializations_requested",
        d.serializations_requested as f64,
    );
    m.set(
        "strategy.serializations_delivered",
        d.serializations_delivered as f64,
    );
    m.set(
        "strategy.delivered_ratio",
        ratio(d.serializations_delivered, d.serializations_requested),
    );
}

/// Trace-ring and scheduler-interference counters of one phase.
pub fn process_layers(trace: &TraceTotals, ctx: &CtxSwitches, m: &mut Metrics) {
    m.set("trace.events", trace.recorded as f64);
    m.set("trace.dropped", trace.dropped as f64);
    m.set("trace.dropped_ratio", ratio(trace.dropped, trace.recorded));
    m.set("os.ctx_switches_voluntary", ctx.voluntary as f64);
    m.set("os.ctx_switches_involuntary", ctx.involuntary as f64);
}

/// Reconcile measured per-op thread time against Σ(unit cost × per-op
/// count) and record the residual.
pub fn reconcile(out: &mut Outcome, measured_ns: f64, parts: &[(&str, f64)]) {
    let predicted: f64 = parts.iter().map(|(_, ns)| ns).sum();
    let residual = measured_ns - predicted;
    let m = &mut out.metrics;
    m.set("recon.op_ns", measured_ns);
    m.set("recon.predicted_ns", predicted);
    m.set("recon.residual_ns", residual);
    m.set("recon.residual_ratio", residual / measured_ns);
    let terms: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
    out.notes.push(format!(
        "reconcile: {measured_ns:.1} ns/op measured = {} + residual {residual:.1} ({:.1}%)",
        terms.join(" + "),
        100.0 * residual / measured_ns
    ));
}

/// The build configuration as observed from outside, printed with every
/// result so results of different builds are never compared.
fn config_json(args: &Args) -> String {
    let before = TraceTotals::now();
    SignalFence::new().primary_fence();
    let fence_event = TraceTotals::now().recorded > before.recorded;
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{},\"strategy\":\"{}\",\
         \"trace_enabled\":{},\"trace_event_per_fence\":{},\"membarrier\":{},\"threads\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        SignalFence::new().name(),
        lbmf_trace::is_enabled(),
        fence_event,
        MembarrierFence::try_new().is_some(),
        harness::THREADS,
    )
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lbmf-perfbench: {e}");
            std::process::exit(2);
        }
    };
    harness::calibrate();
    println!("config {}", config_json(&args));
    let mut out = match args.workload.as_str() {
        "kv_read_mostly" => kv::run(&args, 1_000),
        "kv_write_mix" => kv::run(&args, 50_000),
        "cilk_fib" => cilk::run(&args),
        _ => arw::run(&args),
    };
    out.metrics.set("peak_rss_mb", harness::peak_rss_mb());
    let names: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for (name, unit) in names {
        let value = out.metrics.get(name);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} {value} {unit}");
        json.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "metric failed_ratio {} ratio",
        ratio(out.failed, out.attempted)
    );
    for note in &out.notes {
        println!("{}: {note}", args.workload);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        json.join(",")
    );
}
