//! The recording suite: the benchmarks `lbmf-obs record` drives, in
//! process, through the mini-criterion harness — with the two
//! observability channels the stdout benches lose captured alongside
//! each timing: the strategy's [`FenceStats`] diff across the run, and
//! the serialize round-trip latency percentiles drained from the trace
//! rings.
//!
//! The suite mirrors the paper's measurement axes:
//!
//! * `dekker_entry/*` — E1, the uncontended primary fast path per
//!   strategy (the headline asymmetric-vs-`mfence` number);
//! * `fence/*` — the raw cost of the two fence flavours, for scale;
//! * `serialize/*_roundtrip` — E2, one remote serialization per
//!   mechanism (signal handshake, and `membarrier(2)` where the kernel
//!   supports it);
//! * `steal/fib_test` — a whole ACilk-5 work-stealing run, the
//!   macro-benchmark the fast-path numbers are supposed to add up to;
//! * `store/get/*`, `store/put/signal` — the lbmf-store serving tier:
//!   the epoch-pinned read fast path per strategy, and a write paying
//!   one remote serialization to a registered reader every second put
//!   (the reclamation cadence of its two-chunk table);
//! * `store/des/*@64c` — the same Zipfian workload replayed through
//!   `lbmf-des` at 64 simulated cores (deterministic projections).

use crate::schema::{BenchEntry, BenchReport, HostMeta, SerializeLatency};
use lbmf::dekker::AsymmetricDekker;
use lbmf::fence::{compiler_fence_only, full_fence};
use lbmf::registry::register_current_thread;
use lbmf::strategy::{FenceStrategy, MembarrierFence, NoFence, SignalFence, Symmetric};
use lbmf_bench::criterion::{BenchResult, Criterion};
use lbmf_cilk::bench::{Kernel, Scale};
use lbmf_cilk::Scheduler;
use lbmf_des::SerializeKind;
use lbmf_store::workload::CYCLES_PER_NS;
use lbmf_store::{ReclaimMode, Store, StoreHandle, WorkloadCfg};
use lbmf_trace::json::{self, Json};
use lbmf_trace::EventKind;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Measurement window per batch: 5 ms in quick (CI smoke) mode, the
/// mini-criterion's 50 ms default otherwise.
pub fn target_for(quick: bool) -> Duration {
    Duration::from_millis(if quick { 5 } else { 50 })
}

/// Run one benchmark and pair its timing with the strategy's counter
/// diff over exactly that run.
fn bench_with_stats<S: FenceStrategy>(
    c: &mut Criterion,
    name: &str,
    strategy: &Arc<S>,
    f: impl FnMut(&mut lbmf_bench::criterion::Bencher),
) -> BenchEntry {
    let before = strategy.stats().snapshot();
    c.bench_function(name, f);
    let after = strategy.stats().snapshot();
    let result = c.results().last().expect("bench just ran").clone();
    BenchEntry {
        result,
        strategy: Some(strategy.name().to_string()),
        fence_stats: Some(after.diff(&before)),
        serialize: None,
    }
}

fn bench_dekker_entry<S: FenceStrategy>(
    c: &mut Criterion,
    name: &str,
    strategy: Arc<S>,
) -> BenchEntry {
    // Single-threaded throughout, so the recording thread is the primary.
    let dekker = Arc::new(AsymmetricDekker::new(strategy.clone()));
    let primary = dekker.register_primary();
    bench_with_stats(c, name, &strategy, |b| {
        b.iter(|| primary.with_lock(|| black_box(())))
    })
}

/// A parked thread that serves as the remote-serialization target.
struct Target {
    remote: lbmf::registry::RemoteThread,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Target {
    fn spawn() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("obs-serialize-target".into())
            .spawn(move || {
                let reg = register_current_thread();
                tx.send(reg.remote()).unwrap();
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
            .expect("spawn serialize target");
        Target {
            remote: rx.recv().unwrap(),
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Target {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The read-path microbench loop: a reader handle on a prefilled store,
/// iterating lookups over a power-of-two working set. Not `Send` (the
/// handle pins the creating thread), which is exactly right: the loop
/// measures one reader's fence-free fast path.
struct ReadLoop<S: FenceStrategy> {
    handle: StoreHandle<S>,
    next: u64,
}

impl<S: FenceStrategy> ReadLoop<S> {
    /// Working-set size: 1024 keys over 8 shards, small enough to stay
    /// cache-resident so the numbers isolate fence cost, large enough
    /// that the loop walks every shard.
    const KEYS: u64 = 1024;

    /// Build the store, prefill `k → k + 1` for every key, and register
    /// this thread as a reader.
    fn new(strategy: Arc<S>) -> Self {
        let store = Arc::new(Store::new(
            strategy,
            8,
            Self::KEYS as usize,
            ReclaimMode::Free,
        ));
        for k in 0..Self::KEYS {
            store.put(k, k + 1);
        }
        ReadLoop {
            handle: store.handle(),
            next: 0,
        }
    }

    /// One iteration of the measured loop: advance the key round-robin
    /// and perform the epoch-pinned lookup. Every key is present, so
    /// `Some` always — callers `black_box` the result.
    #[inline]
    fn read_next(&mut self) -> Option<u64> {
        self.next = (self.next + 1) & (Self::KEYS - 1);
        self.handle.get(std::hint::black_box(self.next))
    }
}

/// The store's read fast path, uncontended: the canonical [`ReadLoop`]
/// (one epoch-pinned lookup per iteration over a prefilled working
/// set). Under `Symmetric` every lookup drains the store buffer at the
/// l-mfence position; under the asymmetric strategies the same position
/// is a compiler fence — the delta between the two entries is the
/// paper's read-side win priced on a real data structure.
fn bench_store_get<S: FenceStrategy>(
    c: &mut Criterion,
    name: &str,
    strategy: Arc<S>,
) -> BenchEntry {
    let mut rl = ReadLoop::new(strategy.clone());
    bench_with_stats(c, name, &strategy, |b| b.iter(|| black_box(rl.read_next())))
}

/// A parked thread holding a live [`StoreHandle`], so a benchmarked
/// writer has a registered remote reader to serialize.
struct ParkedStoreReader {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ParkedStoreReader {
    fn spawn<S: FenceStrategy>(store: Arc<Store<S>>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("obs-store-reader".into())
            .spawn(move || {
                let reader = store.handle();
                tx.send(()).unwrap();
                while !stop2.load(Ordering::Relaxed) {
                    black_box(reader.get(0));
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
            .expect("spawn store reader");
        rx.recv().unwrap();
        ParkedStoreReader { stop, handle: Some(handle) }
    }
}

impl Drop for ParkedStoreReader {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Replay the canonical read-mostly store workload through `lbmf-des` at
/// `cores` simulated cores and fold the projection into a timing row:
/// `mean_ns` is the makespan-implied cost per read at the DES's assumed
/// clock. Fully deterministic (same schedule, same cost table), hence
/// one sample with zero variance.
fn store_projection(name: &str, cores: usize, serialize: SerializeKind) -> BenchResult {
    let mut cfg = WorkloadCfg::read_mostly();
    // Small enough to simulate in milliseconds; write mix low enough
    // (≈4 writes across 128k ops) that the asymmetric crossover at 64
    // cores is on the winning side — see the workload tests for the
    // arithmetic.
    cfg.ops_per_thread = 2000;
    cfg.keys = 4096;
    cfg.writes_per_million = 30;
    let r = lbmf_store::project(&cfg, cores, serialize);
    let per_read_ns = (r.makespan as f64 / CYCLES_PER_NS as f64) / r.reads.max(1) as f64;
    BenchResult {
        name: name.to_string(),
        iters: r.reads,
        samples: 1,
        min_ns: per_read_ns,
        mean_ns: per_read_ns,
        max_ns: per_read_ns,
        cv: 0.0,
    }
}

/// Serialize round-trip percentiles currently visible in the trace
/// rings, as log2-bucket midpoints (the `lbmf-bench/2` semantics — v1
/// recorded the bucket upper bound, which read as an implausibly tidy
/// `2^k − 1`). `None` when no round trip was traced — including builds
/// with the `trace` feature off.
pub fn serialize_latency_now() -> Option<SerializeLatency> {
    let h = lbmf_trace::take_snapshot().latency_histogram(EventKind::SerializeDeliver);
    (h.count() > 0).then(|| SerializeLatency {
        p50: h.percentile_midpoint(50),
        p99: h.percentile_midpoint(99),
        count: h.count(),
    })
}

/// Run the full recording suite and assemble the report.
pub fn run(quick: bool) -> BenchReport {
    let mut c = Criterion::with_target(target_for(quick));
    let mut benchmarks = Vec::new();

    // E1: uncontended primary entry, per strategy. Symmetric is the
    // mfence baseline, SignalFence the paper's asymmetric prototype,
    // NoFence the (unsafe) lower bound on protocol cost.
    benchmarks.push(bench_dekker_entry(&mut c, "dekker_entry/symmetric", Arc::new(Symmetric::new())));
    benchmarks.push(bench_dekker_entry(&mut c, "dekker_entry/signal", Arc::new(SignalFence::new())));
    benchmarks.push(bench_dekker_entry(&mut c, "dekker_entry/no_fence", Arc::new(NoFence::new())));
    if let Some(m) = MembarrierFence::try_new() {
        benchmarks.push(bench_dekker_entry(&mut c, "dekker_entry/membarrier", Arc::new(m)));
    }

    // Raw fence costs, for scale.
    c.bench_function("fence/full_fence", |b| {
        b.iter(|| {
            full_fence();
            black_box(())
        })
    });
    benchmarks.push(BenchEntry::plain(c.results().last().unwrap().clone()));
    c.bench_function("fence/compiler_fence", |b| {
        b.iter(|| {
            compiler_fence_only();
            black_box(())
        })
    });
    benchmarks.push(BenchEntry::plain(c.results().last().unwrap().clone()));

    // E2: one remote serialization round trip (signal prototype). The
    // trace rings capture each round trip's wait; percentiles of those
    // waits ride along with the timing.
    {
        let strategy = Arc::new(SignalFence::new());
        let target = Target::spawn();
        let hist_before = lbmf_trace::take_snapshot()
            .latency_histogram(EventKind::SerializeDeliver)
            .count();
        let mut entry = bench_with_stats(&mut c, "serialize/signal_roundtrip", &strategy, |b| {
            b.iter(|| strategy.serialize_remote(&target.remote))
        });
        entry.serialize = serialize_latency_now().filter(|sl| sl.count > hist_before);
        benchmarks.push(entry);
        // The kernel-assisted mechanism against the same parked target.
        if let Some(m) = MembarrierFence::try_new() {
            let strategy = Arc::new(m);
            benchmarks.push(bench_with_stats(&mut c, "serialize/membarrier_roundtrip", &strategy, |b| {
                b.iter(|| strategy.serialize_remote(&target.remote))
            }));
        }
    }

    // The macro-benchmark: a whole work-stealing fib run on the
    // asymmetric runtime (2 workers so steals actually happen).
    {
        let strategy = Arc::new(SignalFence::new());
        let sched = Scheduler::new(2, strategy.clone());
        benchmarks.push(bench_with_stats(&mut c, "steal/fib_test", &strategy, |b| {
            b.iter(|| black_box(Kernel::Fib.run_timed(&sched, Scale::Test).checksum))
        }));
    }

    // The serving tier. Reads first: the same lookup under the mfence
    // baseline and the asymmetric prototype — the store-level E1.
    benchmarks.push(bench_store_get(&mut c, "store/get/symmetric", Arc::new(Symmetric::new())));
    benchmarks.push(bench_store_get(&mut c, "store/get/signal", Arc::new(SignalFence::new())));

    // Then a write paying the secondary's bill: a path-copy publish
    // plus one signal round trip to a parked registered reader. The
    // table is two chunks, so the shard's pool, which keeps at most one
    // table's bytes, holds one spine beside its two chunks, and every
    // put that drains it runs the pass that refills it: once warm,
    // every put serializes. The round-trip percentiles ride along as
    // for E2.
    {
        let strategy = Arc::new(SignalFence::new());
        let store = Arc::new(Store::new(strategy.clone(), 1, 64, ReclaimMode::Free));
        store.put(0, 1);
        let reader = ParkedStoreReader::spawn(store.clone());
        let hist_before = lbmf_trace::take_snapshot()
            .latency_histogram(EventKind::SerializeDeliver)
            .count();
        let mut v = 1u64;
        let mut entry = bench_with_stats(&mut c, "store/put/signal", &strategy, |b| {
            b.iter(|| {
                v = v.wrapping_add(1) & (u64::MAX >> 1);
                black_box(store.put(0, v))
            })
        });
        entry.serialize = serialize_latency_now().filter(|sl| sl.count > hist_before);
        drop(reader);
        benchmarks.push(entry);
    }

    // And the projection: the identical Zipfian schedule replayed through
    // the DES at 64 simulated cores, per serialization mechanism.
    for (name, kind) in [
        ("store/des/symmetric@64c", SerializeKind::Symmetric),
        ("store/des/signal@64c", SerializeKind::Signal),
        ("store/des/lest@64c", SerializeKind::LeSt),
    ] {
        benchmarks.push(BenchEntry::plain(store_projection(name, 64, kind)));
    }

    BenchReport {
        recorded_unix: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        quick,
        host: HostMeta::current(),
        benchmarks,
    }
}

/// Fold externally collected mini-criterion JSONL (the `LBMF_BENCH_JSON`
/// hook) into a report as timing-only entries. Rows whose names collide
/// with suite entries are suffixed `@ingest` rather than dropped.
pub fn ingest_jsonl(report: &mut BenchReport, text: &str) -> Result<usize, String> {
    let rows = json::parse_lines(text)?;
    let mut added = 0;
    for row in &rows {
        let get = |k: &str| {
            row.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("ingest row missing number {k:?}"))
        };
        let mut name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or("ingest row missing \"name\"")?
            .to_string();
        if report.entry(&name).is_some() {
            name.push_str("@ingest");
        }
        if report.entry(&name).is_some() {
            continue; // same external row fed twice
        }
        report
            .benchmarks
            .push(BenchEntry::plain(lbmf_bench::criterion::BenchResult {
                name,
                iters: get("iters")? as u64,
                samples: get("samples")? as usize,
                min_ns: get("min_ns")?,
                mean_ns: get("mean_ns")?,
                max_ns: get("max_ns")?,
                cv: get("cv")?,
            }));
        added += 1;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_loop_hits_the_prefilled_set_and_wraps() {
        let mut rl = ReadLoop::new(Arc::new(SignalFence::new()));
        for i in 0..(2 * ReadLoop::<SignalFence>::KEYS) {
            let expect = ((i + 1) & (ReadLoop::<SignalFence>::KEYS - 1)) + 1;
            assert_eq!(rl.read_next(), Some(expect), "iteration {i}");
        }
    }

    #[test]
    fn read_loop_is_fence_free_under_an_asymmetric_strategy() {
        // The same purity claim the suite's store/get rows rest on:
        // the symmetric loop pays full fences per read, the asymmetric
        // loop pays none.
        let sym = Arc::new(Symmetric::new());
        let mut rl = ReadLoop::new(sym.clone());
        let before = sym.stats().snapshot();
        for _ in 0..64 {
            std::hint::black_box(rl.read_next());
        }
        let d = sym.stats().snapshot().diff(&before);
        assert!(d.primary_full_fences >= 64, "symmetric reads drain: {d:?}");

        let sig = Arc::new(SignalFence::new());
        let mut rl = ReadLoop::new(sig.clone());
        let before = sig.stats().snapshot();
        for _ in 0..64 {
            std::hint::black_box(rl.read_next());
        }
        let d = sig.stats().snapshot().diff(&before);
        assert_eq!(
            d.primary_full_fences, 0,
            "asymmetric reads are fence-free: {d:?}"
        );
        assert!(d.primary_compiler_fences >= 64, "{d:?}");
    }

    #[test]
    fn ingest_appends_and_renames_collisions() {
        let mut report = BenchReport {
            recorded_unix: 0,
            quick: true,
            host: HostMeta::current(),
            benchmarks: vec![BenchEntry::plain(lbmf_bench::criterion::BenchResult {
                name: "a".into(),
                iters: 1,
                samples: 1,
                min_ns: 1.0,
                mean_ns: 1.0,
                max_ns: 1.0,
                cv: 0.0,
            })],
        };
        let jsonl = "{\"name\":\"a\",\"iters\":2,\"samples\":3,\"min_ns\":1,\"mean_ns\":2,\"max_ns\":3,\"cv\":0.1}\n\
                     {\"name\":\"b\",\"iters\":2,\"samples\":3,\"min_ns\":1,\"mean_ns\":2,\"max_ns\":3,\"cv\":0.1}";
        let added = ingest_jsonl(&mut report, jsonl).unwrap();
        assert_eq!(added, 2);
        assert!(report.entry("a@ingest").is_some());
        assert!(report.entry("b").is_some());
        assert!(ingest_jsonl(&mut report, "{\"name\":\"c\"}").is_err());
    }
}
