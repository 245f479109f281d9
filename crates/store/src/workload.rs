//! The Zipfian workload generator — one seed, two consumers.
//!
//! [`ops_for_core`] deterministically expands `(seed, core)` into that
//! core's operation stream: Zipf-distributed keys (hot-key skew is what
//! makes a serving tier read-*mostly* in practice), a configurable write
//! mix in parts per million, and per-op values. Two consumers replay the
//! *identical* streams:
//!
//! * [`run`] spawns real threads against a [`Store`] on this host,
//!   optionally pacing each thread open-loop (ops *scheduled* at a fixed
//!   arrival interval, so queueing delay is observable as sojourn time
//!   rather than hidden by coordinated omission);
//! * [`project`] maps the same streams through
//!   [`shard_index`] into [`lbmf_des::KvOp`] schedules and replays them
//!   in [`lbmf_des::simulate_kv`] at core counts this host does not have
//!   (64, 256, …), with the serialization mechanism as the axis.
//!
//! Because both derive from the same generator, a BENCH entry can pair a
//! measured 2-thread run with a projected 64-core replay of the *same*
//! workload and attribute the difference entirely to scale.

use crate::shard::ReclaimMode;
use crate::stats::StoreStatsSnapshot;
use crate::store::{shard_index, Store};
use crate::table::HASH_MUL;
use lbmf::stats::FenceStatsSnapshot;
use lbmf::strategy::FenceStrategy;
use lbmf_des::{simulate_kv, KvOp, KvSimConfig, KvSimResult, SerializeKind};
use lbmf_prng::{Rng, SplitMix64, Zipf};
use lbmf_trace::Log2Histogram;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles per nanosecond assumed when mapping wall-clock arrival rates
/// onto the DES's cycle clock (the cost table is calibrated at ~2 GHz).
pub const CYCLES_PER_NS: u64 = 2;

/// One generated operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Lookup of a key.
    Get(u64),
    /// Insert/update of a key with a value.
    Put(u64, u64),
}

impl Op {
    /// The key this op touches.
    pub fn key(&self) -> u64 {
        match *self {
            Op::Get(k) | Op::Put(k, _) => k,
        }
    }

    /// Whether this op mutates the store.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Put(..))
    }
}

/// Workload shape shared by the real-thread driver and the DES replay.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadCfg {
    /// Real threads [`run`] spawns.
    pub threads: usize,
    /// Shards in the store (and in the replayed schedule's routing).
    pub shards: usize,
    /// Key-space size; keys `0..keys` are prefilled so every get hits.
    pub keys: u64,
    /// Zipf skew θ ∈ [0, 1): 0 = uniform, 0.99 ≈ YCSB's default.
    pub theta: f64,
    /// Write fraction in parts per million (e.g. 1000 = 0.1% writes).
    pub writes_per_million: u32,
    /// Operations per thread/core stream.
    pub ops_per_thread: usize,
    /// Master seed; everything below derives from it deterministically.
    pub seed: u64,
    /// Open-loop arrival interval between scheduled ops on each thread,
    /// in nanoseconds. `None` = closed loop (issue as fast as possible).
    pub arrival_ns: Option<u64>,
}

impl WorkloadCfg {
    /// A read-mostly serving-tier default: 2 threads, 8 shards, 16 Ki
    /// keys, YCSB-like skew, 0.1% writes, closed loop.
    pub fn read_mostly() -> WorkloadCfg {
        WorkloadCfg {
            threads: 2,
            shards: 8,
            keys: 16 * 1024,
            theta: 0.9,
            writes_per_million: 1000,
            ops_per_thread: 50_000,
            seed: 0x1b3f_5707_ea15_0001,
            arrival_ns: None,
        }
    }
}

/// Core `core`'s deterministic operation stream under `cfg`. Each op
/// consumes a fixed pattern of PRNG draws (one bounded draw for the
/// read/write decision, one uniform for the Zipf rank, one more for a
/// written value), so streams are stable across refactors of consumers.
pub fn ops_for_core(cfg: &WorkloadCfg, core: usize) -> Vec<Op> {
    let zipf = Zipf::new(cfg.keys, cfg.theta);
    let mut rng = SplitMix64::new(cfg.seed ^ (core as u64 + 1).wrapping_mul(HASH_MUL));
    (0..cfg.ops_per_thread)
        .map(|_| {
            let write = rng.bounded_u64(1_000_000) < u64::from(cfg.writes_per_million);
            let key = zipf.sample(&mut rng);
            if write {
                // High bit cleared: values stay clear of the poison
                // sentinel so validation can tell them apart.
                Op::Put(key, rng.next_u64() >> 1)
            } else {
                Op::Get(key)
            }
        })
        .collect()
}

/// The same streams as [`ops_for_core`], reduced to the cost-relevant
/// shape ([`KvOp`]: read/write + shard + key) for `cores` simulated cores.
pub fn kv_schedule(cfg: &WorkloadCfg, cores: usize) -> Vec<Vec<KvOp>> {
    (0..cores)
        .map(|c| {
            ops_for_core(cfg, c)
                .into_iter()
                .map(|op| KvOp {
                    write: op.is_write(),
                    shard: shard_index(op.key(), cfg.shards) as u32,
                    key: op.key(),
                })
                .collect()
        })
        .collect()
}

/// Build a store for `cfg` and prefill every key (`k -> k + 1`), so the
/// measured phase runs at a 100% hit rate over a stable working set.
pub fn build_store<S: FenceStrategy>(strategy: Arc<S>, cfg: &WorkloadCfg) -> Arc<Store<S>> {
    let per_shard = (cfg.keys as usize / cfg.shards).max(16);
    let mut store = Store::new(strategy, cfg.shards, per_shard, ReclaimMode::Free);
    store.prefill((0..cfg.keys).map(|k| (k, k + 1)));
    Arc::new(store)
}

/// What a measured [`run`] produced.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Gets performed.
    pub reads: u64,
    /// Puts performed.
    pub writes: u64,
    /// Gets that found their key (equals `reads` on a prefilled store).
    pub hits: u64,
    /// Store counter activity during the run (diff of snapshots).
    pub store: StoreStatsSnapshot,
    /// Fence-strategy activity during the run (diff of snapshots).
    pub fences: FenceStatsSnapshot,
    /// Open-loop read sojourn times in nanoseconds (completion −
    /// scheduled arrival); `None` for closed-loop runs.
    pub sojourn: Option<Log2Histogram>,
}

impl WorkloadReport {
    /// Reads per second of wall-clock time.
    pub fn read_throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.reads as f64 / secs
    }
}

/// Execute the workload with real threads against `store`.
///
/// Thread `t` replays [`ops_for_core`]`(cfg, t)` through its own
/// [`StoreHandle`](crate::StoreHandle). With `cfg.arrival_ns` set, op
/// `i` is *scheduled* at `start + i * arrival_ns` and its read sojourn
/// (completion − schedule) is recorded — late ops are not excused.
pub fn run<S: FenceStrategy>(store: &Arc<Store<S>>, cfg: &WorkloadCfg) -> WorkloadReport {
    let store_before = store.stats();
    let fences_before = store.strategy().stats().snapshot();
    let start = Instant::now();
    let mut totals = (0u64, 0u64, 0u64); // reads, writes, hits
    let mut sojourn: Option<Log2Histogram> = cfg.arrival_ns.map(|_| Log2Histogram::new());
    // Two rendezvous points so the measured phase is honest on a 1-core
    // host: no thread issues an op until every thread has registered its
    // reader handle (otherwise an early writer sees no remote readers to
    // serialize), and no handle drops until every thread finished (so
    // writers pay the full per-reader serialization bill throughout).
    let ready = std::sync::Barrier::new(cfg.threads);
    let done = std::sync::Barrier::new(cfg.threads);
    std::thread::scope(|scope| {
        let ready = &ready;
        let done = &done;
        let workers: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let store = store.clone();
                scope.spawn(move || {
                    let handle = store.handle();
                    let ops = ops_for_core(cfg, t);
                    ready.wait();
                    // Per-thread arrival baseline, taken after the
                    // rendezvous so early ops are not born late.
                    let t0 = Instant::now();
                    let mut reads = 0u64;
                    let mut writes = 0u64;
                    let mut hits = 0u64;
                    let mut hist = cfg.arrival_ns.map(|_| Log2Histogram::new());
                    for (i, op) in ops.iter().enumerate() {
                        let sched = cfg.arrival_ns.map(|a| {
                            let target = Duration::from_nanos(i as u64 * a);
                            while t0.elapsed() < target {
                                std::hint::spin_loop();
                            }
                            target
                        });
                        match *op {
                            Op::Get(k) => {
                                reads += 1;
                                if handle.get(k).is_some() {
                                    hits += 1;
                                }
                                if let (Some(h), Some(target)) = (hist.as_mut(), sched) {
                                    let done = t0.elapsed();
                                    h.record(done.saturating_sub(target).as_nanos() as u64);
                                }
                            }
                            Op::Put(k, v) => {
                                writes += 1;
                                store.put(k, v);
                            }
                        }
                    }
                    done.wait();
                    (reads, writes, hits, hist)
                })
            })
            .collect();
        for worker in workers {
            let (r, w, h, hist) = worker.join().expect("workload thread panicked");
            totals.0 += r;
            totals.1 += w;
            totals.2 += h;
            if let (Some(acc), Some(part)) = (sojourn.as_mut(), hist.as_ref()) {
                acc.merge(part);
            }
        }
    });
    let elapsed = start.elapsed();
    WorkloadReport {
        elapsed,
        reads: totals.0,
        writes: totals.1,
        hits: totals.2,
        store: store.stats().diff(&store_before),
        fences: store.strategy().stats().snapshot().diff(&fences_before),
        sojourn,
    }
}

/// Replay the identical workload at `cores` simulated cores under the
/// given serialization mechanism. Deterministic — same `cfg`, same
/// result — so projections can live in recorded benchmark files.
pub fn project(cfg: &WorkloadCfg, cores: usize, serialize: SerializeKind) -> KvSimResult {
    project_heat(cfg, cores, serialize, 0)
}

/// [`project`] with the workload-observatory heat plane armed: each
/// simulated core samples one read in `sample_every` into the hot-key
/// sketches (`0` = disarmed, identical to [`project`]). The result's
/// [`KvSimResult::heat`] snapshot renders the same
/// `lbmf_store_hotkey_*` / `lbmf_store_skew_*` families as a live
/// store, with the generator's θ as ground truth for the estimator.
pub fn project_heat(
    cfg: &WorkloadCfg,
    cores: usize,
    serialize: SerializeKind,
    sample_every: u64,
) -> KvSimResult {
    let schedule = kv_schedule(cfg, cores);
    let mut sim = KvSimConfig::new(serialize);
    sim.arrival = cfg.arrival_ns.map(|ns| ns.saturating_mul(CYCLES_PER_NS));
    sim.heat_sample_every = sample_every;
    simulate_kv(&sim, &schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf::strategy::{SignalFence, Symmetric};

    fn small() -> WorkloadCfg {
        WorkloadCfg {
            threads: 2,
            shards: 4,
            keys: 256,
            theta: 0.9,
            writes_per_million: 20_000, // 2% writes: exercise the writer path
            ops_per_thread: 2_000,
            seed: 42,
            arrival_ns: None,
        }
    }

    #[test]
    fn streams_are_deterministic_and_distinct_per_core() {
        let cfg = small();
        assert_eq!(ops_for_core(&cfg, 0), ops_for_core(&cfg, 0));
        assert_ne!(ops_for_core(&cfg, 0), ops_for_core(&cfg, 1));
        let mut other = cfg;
        other.seed += 1;
        assert_ne!(ops_for_core(&cfg, 0), ops_for_core(&other, 0));
    }

    #[test]
    fn write_mix_tracks_the_configured_ppm() {
        let mut cfg = small();
        cfg.ops_per_thread = 50_000;
        cfg.writes_per_million = 100_000; // 10%
        let ops = ops_for_core(&cfg, 0);
        let writes = ops.iter().filter(|o| o.is_write()).count() as f64;
        let frac = writes / ops.len() as f64;
        assert!((frac - 0.1).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn zipfian_keys_are_skewed_toward_low_ranks() {
        let mut cfg = small();
        cfg.theta = 0.99;
        cfg.ops_per_thread = 20_000;
        let ops = ops_for_core(&cfg, 0);
        let hot = ops.iter().filter(|o| o.key() < 8).count() as f64;
        // Under θ=0.99 the top 8 of 256 keys carry a large share; under
        // uniform they would carry ~3%.
        assert!(hot / ops.len() as f64 > 0.3, "hot share {}", hot / ops.len() as f64);
        assert!(ops.iter().all(|o| o.key() < cfg.keys));
    }

    #[test]
    fn schedule_mirrors_the_op_streams() {
        let cfg = small();
        let sched = kv_schedule(&cfg, 3);
        assert_eq!(sched.len(), 3);
        for (c, core_sched) in sched.iter().enumerate() {
            let ops = ops_for_core(&cfg, c);
            assert_eq!(core_sched.len(), ops.len());
            for (kv, op) in core_sched.iter().zip(&ops) {
                assert_eq!(kv.write, op.is_write());
                assert_eq!(kv.shard as usize, shard_index(op.key(), cfg.shards));
            }
        }
    }

    #[test]
    fn real_run_matches_the_generated_counts() {
        let cfg = small();
        let store = build_store(Arc::new(Symmetric::new()), &cfg);
        assert_eq!(store.len() as u64, cfg.keys);
        let report = run(&store, &cfg);
        let expected: Vec<_> = (0..cfg.threads).map(|t| ops_for_core(&cfg, t)).collect();
        let expected_writes: u64 = expected
            .iter()
            .flatten()
            .filter(|o| o.is_write())
            .count() as u64;
        let expected_total = (cfg.threads * cfg.ops_per_thread) as u64;
        assert_eq!(report.reads + report.writes, expected_total);
        assert_eq!(report.writes, expected_writes);
        assert_eq!(report.hits, report.reads, "prefilled store: every get hits");
        assert_eq!(report.store.gets, report.reads);
        assert_eq!(report.store.puts, report.writes);
        assert!(report.read_throughput() > 0.0);
        assert!(report.sojourn.is_none(), "closed loop records no sojourn");
    }

    #[test]
    fn asymmetric_run_serializes_and_reclaims() {
        let cfg = small();
        let store = build_store(Arc::new(SignalFence::new()), &cfg);
        let report = run(&store, &cfg);
        assert!(report.fences.serializations_requested > 0);
        assert!(report.store.tables_retired > 0);
        assert!(report.store.tables_reclaimed <= report.store.tables_retired);
        // Fast-path reads under the asymmetric strategy took the
        // compiler-fence position, not a full fence.
        assert!(report.fences.primary_compiler_fences >= report.reads);
    }

    #[test]
    fn open_loop_run_records_sojourn() {
        let mut cfg = small();
        cfg.ops_per_thread = 500;
        cfg.arrival_ns = Some(2_000); // 500 kops/s per thread: unloaded
        let store = build_store(Arc::new(Symmetric::new()), &cfg);
        let report = run(&store, &cfg);
        let hist = report.sojourn.expect("open loop records sojourn");
        assert_eq!(hist.count(), report.reads);
        assert!(report.elapsed >= Duration::from_nanos(499 * 2_000));
    }

    #[test]
    fn projection_extends_the_same_workload_to_64_cores() {
        let mut cfg = small();
        cfg.ops_per_thread = 1_000;
        // The 64-core crossover: one write costs the machine roughly
        // 63 round trips (~150 cycles each under LE/ST, serialized), so
        // the asymmetric side wins while total writes stay below about
        // reads_per_core * mfence / 10k ≈ 4. 30 ppm over 64k ops lands
        // at ~2 expected writes.
        cfg.writes_per_million = 30;
        let sched = kv_schedule(&cfg, 64);
        let writes: usize = sched.iter().flatten().filter(|o| o.write).count();
        assert!(writes <= 4, "workload drifted write-heavy: {writes} writes");
        let sym = project(&cfg, 64, SerializeKind::Symmetric);
        let lest = project(&cfg, 64, SerializeKind::LeSt);
        assert_eq!(sym.reads + sym.writes, 64_000);
        assert_eq!(sym.reads, lest.reads, "identical schedules");
        assert_eq!(sym.serializations, 0);
        assert_eq!(lest.serializations, writes as u64 * 63);
        assert!(
            lest.read_throughput() > sym.read_throughput(),
            "LE/ST {} vs symmetric {}",
            lest.read_throughput(),
            sym.read_throughput()
        );
    }

    /// The acceptance loop for the workload observatory: the generator
    /// draws keys where Zipf rank *is* the key (rank 1 hottest = key 0),
    /// so a θ=0.99 projection at 64 cores has ground truth for both the
    /// estimator and the top-k ranking.
    #[test]
    fn heat_projection_recovers_ground_truth_theta_at_64_cores() {
        let mut cfg = small();
        cfg.theta = 0.99;
        cfg.keys = 16 * 1024;
        cfg.ops_per_thread = 5_000; // 64 cores -> 320k ops
        cfg.writes_per_million = 1_000;
        let r = project_heat(&cfg, 64, SerializeKind::LeSt, 7);
        let heat = r.heat.as_ref().expect("sampling armed");
        assert!(heat.sampled_reads > 40_000, "1-in-7 of ~320k reads");
        let est = heat.theta.as_ref().expect("top-k spectrum supports a fit");
        assert!(
            (est.theta - 0.99).abs() < 0.1,
            "estimated theta {:.3} ± {:.3} vs ground truth 0.99",
            est.theta,
            est.std_err
        );
        let top10: Vec<u64> = heat.top_reads.iter().take(10).map(|h| h.key).collect();
        let overlap = top10.iter().filter(|&&k| k < 10).count();
        assert!(overlap >= 8, "true-top-10 overlap {overlap}/10: {top10:?}");
        // Disarmed projection is untouched by the heat machinery: same
        // virtual-time outcome as before this plane existed.
        let off = project(&cfg, 64, SerializeKind::LeSt);
        assert!(off.heat.is_none());
        assert_eq!(off.makespan, r.makespan);
        assert_eq!(off.serializations, r.serializations);
    }

    #[test]
    fn uniform_heat_projection_reports_no_skew() {
        let mut cfg = small();
        cfg.theta = 0.0; // uniform over 256 keys
        cfg.ops_per_thread = 4_000;
        let r = project_heat(&cfg, 8, SerializeKind::LeSt, 3);
        let heat = r.heat.as_ref().expect("sampling armed");
        if let Some(est) = heat.theta.as_ref() {
            assert!(est.theta < 0.3, "uniform workload fit theta {:.3}", est.theta);
        }
        // 4 shards over a uniform key space: close to fair.
        assert!(
            heat.imbalance_ppm() < 1_400_000,
            "imbalance {} ppm on a uniform workload",
            heat.imbalance_ppm()
        );
    }
}
