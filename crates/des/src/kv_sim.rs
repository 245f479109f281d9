//! Discrete-event replay of the `lbmf-store` serving tier at core counts
//! this host does not have.
//!
//! The store's protocol has a fixed cost shape the cost table can price
//! without re-implementing the data structure:
//!
//! * a **read** pins the reader's epoch slot, passes the l-mfence
//!   position (a real `mfence` under the symmetric strategy, a compiler
//!   fence under the asymmetric ones), probes the snapshot table, and
//!   unpins — it never blocks, RCU-style, no matter how many writers are
//!   in flight;
//! * a **write** takes the shard's writer mutex, builds a copy-on-write
//!   table, publishes it with the secondary's own fence, and then
//!   serializes every *other* core one by one through the configured
//!   mechanism — the requester stalls for each round trip and each
//!   victim's clock is pushed forward by the delivery cost, exactly the
//!   "signal a list of readers and wait one by one" bottleneck the paper
//!   calls out for ARW. The replay bills that round trip on **every**
//!   write, while the real store serializes only when a shard's retired
//!   bytes reach one full table (`lbmf-store`'s reclamation cadence):
//!   about once per 40 puts on a shard of 64 chunks, once per put on a
//!   one-chunk table. So a projection overstates the real write cost in
//!   round trips, by up to ~40× at kv_write_mix's shard size.
//!
//! Feed it the *same* per-core [`KvOp`] schedules the real-thread driver
//! executes (see `lbmf-store`'s workload generator, which derives both
//! from one seed) and it projects throughput and open-loop sojourn
//! percentiles for 64, 256, … simulated cores on a host with few real ones.

use crate::costs::{DesCosts, SerializeKind};
use lbmf_trace::{
    estimate_theta, CountMinSketch, GaugeSet, HotKey, Log2Histogram, SpaceSaving, ThetaEstimate,
};
use std::sync::Arc;

// ---------------------------------------------------------------------
// The shard health-gauge schema.
//
// One schema, two producers: the real store's health monitor
// (`lbmf-store`) publishes these gauges from live shard probes, and
// `simulate_kv` emits the same families in virtual time — so `lbmf-obs
// doctor` diagnoses a 64-core simulated run exactly like a live one.
// The names are defined once, here, because the dependency points this
// way (`lbmf-store` depends on `lbmf-des` for its projections).
// ---------------------------------------------------------------------

/// Published epoch of the shard.
pub const GAUGE_EPOCH: &str = "lbmf_store_shard_epoch";
/// Minimum visible nonzero reader pin (0 = no pinned reader).
pub const GAUGE_MIN_PIN: &str = "lbmf_store_shard_min_pin";
/// Age of the oldest unchanged nonzero pin (ns real / cycles simulated).
pub const GAUGE_OLDEST_PIN_AGE: &str = "lbmf_store_shard_oldest_pin_age_ns";
/// Retired tables awaiting reclamation.
pub const GAUGE_LIMBO_DEPTH: &str = "lbmf_store_shard_limbo_depth";
/// Bytes held by retired tables awaiting reclamation.
pub const GAUGE_LIMBO_BYTES: &str = "lbmf_store_shard_limbo_bytes";
/// Poisoned allocations kept alive (poison reclaim mode only).
pub const GAUGE_GRAVEYARD: &str = "lbmf_store_shard_graveyard";
/// Worst-case probe length across published tables (high-water mark).
pub const GAUGE_PROBE_HWM: &str = "lbmf_store_shard_probe_hwm";
/// Readers the watchdog currently flags as stuck on this shard.
pub const GAUGE_STUCK_READERS: &str = "lbmf_store_shard_stuck_readers";
/// Slot id of the most-lagged stuck reader (0 = none). Live stores
/// publish the §13 correlation key (the reader slot's address, the same
/// id serialize trace events carry); the DES publishes `core + 1`.
pub const GAUGE_STUCK_SLOT: &str = "lbmf_store_shard_stuck_reader_slot";

/// Nominal bytes one retired simulated table pins in limbo. The DES does
/// not model table contents; this keeps `limbo_bytes` on the same order
/// as a real small shard so dashboards and `doctor` thresholds transfer.
pub const SIM_TABLE_BYTES: u64 = 4096;

/// One shard's health gauges at a sampling instant — the value set
/// behind the schema constants above, shared by the live monitor and
/// the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardHealthSample {
    /// Shard index (becomes the `shard` label).
    pub shard: u32,
    /// Published epoch.
    pub epoch: u64,
    /// Minimum visible nonzero pin; 0 when no reader is pinned.
    pub min_pin: u64,
    /// Age of the oldest unchanged nonzero pin (ns / cycles).
    pub oldest_pin_age: u64,
    /// Retired tables awaiting reclamation.
    pub limbo_depth: u64,
    /// Bytes those tables hold.
    pub limbo_bytes: u64,
    /// Graveyard length (poison mode).
    pub graveyard: u64,
    /// Probe-length high-water mark.
    pub probe_hwm: u64,
    /// Stuck readers flagged by the watchdog.
    pub stuck_readers: u64,
    /// Slot id of the most-lagged stuck reader (0 = none).
    pub stuck_slot: u64,
}

/// The registered gauge handles for one shard — the live monitor keeps
/// these and republishes through [`publish`](Self::publish) each sample
/// (relaxed stores only; the registry lock is paid once, here).
#[derive(Debug)]
pub struct ShardHealthGauges {
    epoch: Arc<lbmf_trace::Gauge>,
    min_pin: Arc<lbmf_trace::Gauge>,
    oldest_pin_age: Arc<lbmf_trace::Gauge>,
    limbo_depth: Arc<lbmf_trace::Gauge>,
    limbo_bytes: Arc<lbmf_trace::Gauge>,
    graveyard: Arc<lbmf_trace::Gauge>,
    probe_hwm: Arc<lbmf_trace::Gauge>,
    stuck_readers: Arc<lbmf_trace::Gauge>,
    stuck_slot: Arc<lbmf_trace::Gauge>,
}

impl ShardHealthGauges {
    /// Register the full per-shard family set on `set`, labelled
    /// `{store=…,shard=…}`.
    pub fn register(set: &GaugeSet, store: &str, shard: u32) -> ShardHealthGauges {
        let shard_label = shard.to_string();
        let labels: &[(&str, &str)] = &[("store", store), ("shard", &shard_label)];
        let g = |name: &'static str, help: &'static str| set.gauge(name, help, labels);
        ShardHealthGauges {
            epoch: g(GAUGE_EPOCH, "Published epoch of the shard."),
            min_pin: g(GAUGE_MIN_PIN, "Minimum visible nonzero reader pin (0 = none)."),
            oldest_pin_age: g(
                GAUGE_OLDEST_PIN_AGE,
                "Age of the oldest unchanged nonzero pin (ns real / cycles simulated).",
            ),
            limbo_depth: g(GAUGE_LIMBO_DEPTH, "Retired tables awaiting reclamation."),
            limbo_bytes: g(GAUGE_LIMBO_BYTES, "Bytes held by retired tables awaiting reclamation."),
            graveyard: g(GAUGE_GRAVEYARD, "Poisoned allocations kept alive (poison mode)."),
            probe_hwm: g(GAUGE_PROBE_HWM, "Worst-case probe length across published tables."),
            stuck_readers: g(GAUGE_STUCK_READERS, "Readers the watchdog flags as stuck."),
            stuck_slot: g(
                GAUGE_STUCK_SLOT,
                "Slot id of the most-lagged stuck reader (0 = none).",
            ),
        }
    }

    /// Publish one sample (nine relaxed stores).
    pub fn publish(&self, s: &ShardHealthSample) {
        self.epoch.set(s.epoch);
        self.min_pin.set(s.min_pin);
        self.oldest_pin_age.set(s.oldest_pin_age);
        self.limbo_depth.set(s.limbo_depth);
        self.limbo_bytes.set(s.limbo_bytes);
        self.graveyard.set(s.graveyard);
        self.probe_hwm.set(s.probe_hwm);
        self.stuck_readers.set(s.stuck_readers);
        self.stuck_slot.set(s.stuck_slot);
    }
}

/// Render `samples` as the canonical exposition-format gauge families —
/// the exact text a live `/metrics` scrape carries for the same state,
/// which is what makes DES snapshots `doctor`-diagnosable.
pub fn render_shard_health(store: &str, samples: &[ShardHealthSample]) -> String {
    let set = GaugeSet::new();
    for s in samples {
        ShardHealthGauges::register(&set, store, s.shard).publish(s);
    }
    set.render()
}

// ---------------------------------------------------------------------
// The workload heat-gauge schema.
//
// Same single-sourcing argument as the shard health schema above: the
// real store's heat plane (`lbmf-store`) and `simulate_kv` emit these
// exact families — the live ones from sampled reader hooks, the
// simulated ones in virtual time where the generator's ground-truth θ
// is known — so `lbmf-obs heat` reads both identically, and the DES run
// doubles as the estimator's validation harness.
// ---------------------------------------------------------------------

/// Sampled read count of one hot key (space-saving top-k survivor;
/// labels: `store`, `key`, `rank`).
pub const GAUGE_HOTKEY_READS: &str = "lbmf_store_hotkey_reads";
/// Space-saving over-estimate bound of that key's sampled read count
/// (labels: `store`, `key`, `rank`).
pub const GAUGE_HOTKEY_READ_ERR: &str = "lbmf_store_hotkey_read_err";
/// Write count of one write-hot key (labels: `store`, `key`).
pub const GAUGE_HOTKEY_WRITES: &str = "lbmf_store_hotkey_writes";
/// Remote-serialization round trips writers paid publishing this key —
/// the §13 per-trip causal spans, attributed to the key that triggered
/// them (labels: `store`, `key`).
pub const GAUGE_HOTKEY_SERIALIZE_BILL: &str = "lbmf_store_hotkey_serialize_bill";
/// The read-path sampling period N (every Nth per-thread read feeds the
/// sketches; 1 = unsampled).
pub const GAUGE_SKEW_SAMPLE_EVERY: &str = "lbmf_store_skew_sample_every";
/// Total sampled reads across all threads (the estimator denominator).
pub const GAUGE_SKEW_SAMPLED_READS: &str = "lbmf_store_skew_sampled_reads";
/// Zipfian-θ MLE over the top-k spectrum, in milli-θ (990 = θ 0.99).
/// Omitted entirely when the spectrum is too thin to estimate.
pub const GAUGE_SKEW_THETA_MILLI: &str = "lbmf_store_skew_theta_milli";
/// Standard error of the θ estimate, in milli-θ.
pub const GAUGE_SKEW_THETA_STDERR_MILLI: &str = "lbmf_store_skew_theta_stderr_milli";
/// Sampled reads that routed to each shard (labels: `store`, `shard`).
pub const GAUGE_SKEW_SHARD_READS: &str = "lbmf_store_skew_shard_reads";
/// Writes applied to each shard — exact, the writer path is not
/// sampling-constrained (labels: `store`, `shard`).
pub const GAUGE_SKEW_SHARD_WRITES: &str = "lbmf_store_skew_shard_writes";
/// Estimated write fraction of each shard in parts per million,
/// reconstructed from exact writes and `sample_every`-scaled reads.
pub const GAUGE_SKEW_SHARD_WRITE_PPM: &str = "lbmf_store_skew_shard_write_ppm";
/// Hottest shard's share of sampled reads relative to fair share, in
/// ppm: 1_000_000 = perfectly balanced, `shards`·1e6 = one shard takes
/// everything.
pub const GAUGE_SKEW_IMBALANCE_PPM: &str = "lbmf_store_skew_imbalance_ppm";

/// Monitored slots in the read-side space-saving sketch. Sized so the
/// rendered spectrum covers enough ranks for a tight θ fit (the MLE's
/// truncation point) while the per-sample linear scan stays cheap.
pub const HEAT_READ_TOPK: usize = 128;
/// Monitored slots in the write-side and serialize-bill sketches —
/// writes are rare, a shorter list suffices.
pub const HEAT_WRITE_TOPK: usize = 64;
/// Width of the read-side count-min sketch that cross-checks the
/// space-saving counts (see [`SpaceSaving::top_refined`]): collision
/// slack ≈ samples/width stays far below the eviction slack it corrects.
pub const HEAT_CMS_WIDTH: usize = 2048;
/// Rows in the read-side count-min sketch.
pub const HEAT_CMS_DEPTH: usize = 4;

/// Per-shard sampled load at a heat snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index (the `shard` label).
    pub shard: u32,
    /// Sampled reads that routed here.
    pub sampled_reads: u64,
    /// Exact writes applied here.
    pub writes: u64,
}

/// One workload-observatory snapshot: the top-k read spectrum, the
/// write/serialize-bill attribution, per-shard load, and the θ estimate
/// — the value set behind the heat schema constants, shared by the live
/// store's heat plane and the simulator.
#[derive(Clone, Debug)]
pub struct HeatSnapshot {
    /// Read-path sampling period (1 = every read).
    pub sample_every: u64,
    /// Total sampled reads (Σ over shards).
    pub sampled_reads: u64,
    /// Zipfian-θ MLE over `top_reads`, when estimable.
    pub theta: Option<ThetaEstimate>,
    /// Hot keys by sampled reads, rank order (rank 1 first).
    pub top_reads: Vec<HotKey>,
    /// Hot keys by writes (an independent top list; writers are rare
    /// enough to track unsampled).
    pub top_writes: Vec<HotKey>,
    /// Hot keys by remote-serialization round trips billed.
    pub top_bills: Vec<HotKey>,
    /// Per-shard sampled load, shard order.
    pub shards: Vec<ShardLoad>,
}

impl HeatSnapshot {
    /// Assemble a snapshot: totals and the θ estimate are derived here
    /// so both producers (live plane, DES) share the math.
    ///
    /// The θ fit is restricted to the *reliable* head of the spectrum.
    /// When the sketch churned (any slot carries eviction slack), a
    /// monitored key's list rank only provably equals its true frequency
    /// rank while its count clears the space-saving retention guarantee
    /// (count > N/k): every key that frequent is necessarily present.
    /// Below that line the list holds whichever tail keys happened to
    /// survive eviction — fitting them drags θ away from truth in either
    /// direction. An unchurned sketch (no slack anywhere) is an exact
    /// spectrum and is fitted in full.
    pub fn new(
        sample_every: u64,
        top_reads: Vec<HotKey>,
        top_writes: Vec<HotKey>,
        top_bills: Vec<HotKey>,
        shards: Vec<ShardLoad>,
    ) -> HeatSnapshot {
        let sampled_reads: u64 = shards.iter().map(|s| s.sampled_reads).sum();
        let churned = top_reads.iter().any(|e| e.err > 0);
        let floor = if churned {
            sampled_reads / top_reads.len().max(1) as u64
        } else {
            0
        };
        let spectrum: Vec<u64> = top_reads
            .iter()
            .map(|e| e.count)
            .take_while(|&c| c > floor)
            .collect();
        HeatSnapshot {
            sample_every: sample_every.max(1),
            sampled_reads,
            theta: estimate_theta(&spectrum),
            top_reads,
            top_writes,
            top_bills,
            shards,
        }
    }

    /// Estimated write fraction of `shard` in ppm, reconstructing the
    /// unsampled read count as `sampled_reads · sample_every`.
    pub fn shard_write_ppm(&self, shard: &ShardLoad) -> u64 {
        let reads = shard.sampled_reads.saturating_mul(self.sample_every);
        let total = reads + shard.writes;
        if total == 0 {
            return 0;
        }
        shard.writes.saturating_mul(1_000_000) / total
    }

    /// Hottest shard's sampled-read share relative to fair share, in
    /// ppm (1_000_000 = perfectly balanced).
    pub fn imbalance_ppm(&self) -> u64 {
        let max = self.shards.iter().map(|s| s.sampled_reads).max().unwrap_or(0);
        if self.sampled_reads == 0 || self.shards.is_empty() {
            return 0;
        }
        max.saturating_mul(self.shards.len() as u64)
            .saturating_mul(1_000_000)
            / self.sampled_reads
    }

    /// Render the snapshot as the canonical exposition-format heat
    /// families — the same text a live `/metrics` scrape carries, which
    /// is what makes DES heat snapshots `lbmf-obs heat`-readable.
    pub fn render(&self, store: &str) -> String {
        let set = GaugeSet::new();
        let store_label: &[(&str, &str)] = &[("store", store)];
        set.gauge(
            GAUGE_SKEW_SAMPLE_EVERY,
            "Read-path sampling period N (1 = unsampled).",
            store_label,
        )
        .set(self.sample_every);
        set.gauge(
            GAUGE_SKEW_SAMPLED_READS,
            "Total sampled reads feeding the sketches.",
            store_label,
        )
        .set(self.sampled_reads);
        if let Some(t) = self.theta {
            set.gauge(
                GAUGE_SKEW_THETA_MILLI,
                "Zipfian-theta MLE over the top-k spectrum, milli-theta.",
                store_label,
            )
            .set((t.theta * 1000.0).round() as u64);
            set.gauge(
                GAUGE_SKEW_THETA_STDERR_MILLI,
                "Standard error of the theta estimate, milli-theta.",
                store_label,
            )
            .set((t.std_err * 1000.0).round().min(u64::MAX as f64) as u64);
        }
        for (i, e) in self.top_reads.iter().enumerate() {
            let key = e.key.to_string();
            let rank = (i + 1).to_string();
            let labels: &[(&str, &str)] =
                &[("store", store), ("key", &key), ("rank", &rank)];
            set.gauge(GAUGE_HOTKEY_READS, "Sampled reads of one hot key.", labels)
                .set(e.count);
            set.gauge(
                GAUGE_HOTKEY_READ_ERR,
                "Space-saving over-estimate bound of the sampled read count.",
                labels,
            )
            .set(e.err);
        }
        for e in &self.top_writes {
            let key = e.key.to_string();
            let labels: &[(&str, &str)] = &[("store", store), ("key", &key)];
            set.gauge(GAUGE_HOTKEY_WRITES, "Writes of one write-hot key.", labels)
                .set(e.count);
        }
        for e in &self.top_bills {
            let key = e.key.to_string();
            let labels: &[(&str, &str)] = &[("store", store), ("key", &key)];
            set.gauge(
                GAUGE_HOTKEY_SERIALIZE_BILL,
                "Remote-serialization round trips billed to this key's writes.",
                labels,
            )
            .set(e.count);
        }
        for s in &self.shards {
            let shard = s.shard.to_string();
            let labels: &[(&str, &str)] = &[("store", store), ("shard", &shard)];
            set.gauge(GAUGE_SKEW_SHARD_READS, "Sampled reads routed to this shard.", labels)
                .set(s.sampled_reads);
            set.gauge(GAUGE_SKEW_SHARD_WRITES, "Writes applied to this shard (exact).", labels)
                .set(s.writes);
            set.gauge(
                GAUGE_SKEW_SHARD_WRITE_PPM,
                "Estimated write fraction of this shard, ppm.",
                labels,
            )
            .set(self.shard_write_ppm(s));
        }
        set.gauge(
            GAUGE_SKEW_IMBALANCE_PPM,
            "Hottest shard's sampled-read share vs fair share, ppm.",
            store_label,
        )
        .set(self.imbalance_ppm());
        set.render()
    }
}

/// One operation of a per-core schedule: a read or a write of one key
/// against one shard. The cost model prices only the shard (writer-mutex
/// domain) and the read/write flavor; the key exists for the heat plane
/// — the simulated sketches sample the same key stream the real store's
/// hooks would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvOp {
    /// `true` for a put/remove, `false` for a get.
    pub write: bool,
    /// The shard the operation routes to.
    pub shard: u32,
    /// The key the operation touches.
    pub key: u64,
}

/// Simulation configuration.
#[derive(Clone, Copy, Debug)]
pub struct KvSimConfig {
    /// The serialization mechanism writers use ([`SerializeKind::Symmetric`]
    /// models `MfenceFence`-style readers: no remote round trips, but a
    /// full fence on every read).
    pub serialize: SerializeKind,
    /// Cycle cost table.
    pub costs: DesCosts,
    /// Cycles probing the snapshot table on a read.
    pub read_work: u64,
    /// Cycles building the copy-on-write table on a write.
    pub write_work: u64,
    /// Pin/unpin stores and branches on the read path, excluding the
    /// ordering point.
    pub read_overhead: u64,
    /// Open-loop arrival: cycles between successive op *scheduled* times
    /// on each core. `None` runs closed-loop (each core issues its next
    /// op as soon as the previous completes).
    pub arrival: Option<u64>,
    /// Fault injection: this core wedges mid-read — on its first read it
    /// pins the shard's current epoch and never unpins (nor issues
    /// another op). Models a descheduled/deadlocked reader, the failure
    /// mode the health plane's watchdog exists to surface: every
    /// subsequent write to that shard retires a table limbo can never
    /// reclaim.
    pub stuck_core: Option<usize>,
    /// Workload-observatory sampling period: every Nth read per core
    /// feeds the heat sketches (`0` = heat plane disarmed — the
    /// default, matching the real store's disarm switch). Writes are
    /// tracked exactly whenever armed; see the heat schema block.
    pub heat_sample_every: u64,
}

impl KvSimConfig {
    /// A configuration with the default cost table and store-shaped work
    /// sizes (small probe, a larger COW copy).
    pub fn new(serialize: SerializeKind) -> Self {
        KvSimConfig {
            serialize,
            costs: DesCosts::default(),
            read_work: 24,
            write_work: 400,
            read_overhead: 10,
            arrival: None,
            stuck_core: None,
            heat_sample_every: 0,
        }
    }
}

/// Simulation outcome.
#[derive(Clone, Debug)]
pub struct KvSimResult {
    /// Virtual completion time (cycles).
    pub makespan: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Remote serializations writers performed.
    pub serializations: u64,
    /// Read sojourn times (completion − scheduled arrival) in cycles;
    /// under closed loop this is pure service time.
    pub read_sojourn: Log2Histogram,
    /// Per-shard health gauges at the end of the run, in shard order —
    /// the same schema the live store's monitor publishes, stamped with
    /// virtual time (see [`render_shard_health`]).
    pub shard_health: Vec<ShardHealthSample>,
    /// Workload-heat snapshot at the end of the run — the same schema
    /// the live store's heat plane publishes, fed from sampled virtual
    /// ops. `None` when `heat_sample_every` was 0 (plane disarmed).
    pub heat: Option<HeatSnapshot>,
}

impl KvSimResult {
    /// Reads per mega-cycle — the Figure-6-style throughput metric.
    pub fn read_throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.reads as f64 * 1e6 / self.makespan as f64
    }

    /// p50 of the read sojourn, in cycles (log2-bucket midpoint).
    pub fn sojourn_p50(&self) -> u64 {
        self.read_sojourn.percentile_midpoint(50)
    }

    /// p99 of the read sojourn, in cycles (log2-bucket midpoint).
    pub fn sojourn_p99(&self) -> u64 {
        self.read_sojourn.percentile_midpoint(99)
    }

    /// The run's shard health as exposition-format gauge text — a
    /// snapshot `lbmf-obs doctor --snapshot` diagnoses exactly like a
    /// live `/metrics` scrape.
    pub fn render_health(&self, store: &str) -> String {
        render_shard_health(store, &self.shard_health)
    }

    /// The run's workload heat as exposition-format gauge text — a
    /// snapshot `lbmf-obs heat --snapshot` reads exactly like a live
    /// scrape. Panics if the run's `heat_sample_every` was 0.
    pub fn render_heat(&self, store: &str) -> String {
        self.heat
            .as_ref()
            .expect("heat plane was disarmed: set KvSimConfig::heat_sample_every > 0")
            .render(store)
    }
}

struct Core {
    clock: u64,
    next: usize,
}

/// Replay `ops` (one schedule per simulated core) under `cfg`.
///
/// Deterministic: the same schedules and configuration always produce
/// the same result, which is what lets a BENCH entry carry a projection.
pub fn simulate_kv(cfg: &KvSimConfig, ops: &[Vec<KvOp>]) -> KvSimResult {
    assert!(!ops.is_empty(), "at least one core schedule");
    let shards = ops
        .iter()
        .flatten()
        .map(|op| op.shard as usize + 1)
        .max()
        .unwrap_or(1);
    let mut shard_free_at = vec![0u64; shards];
    let mut cores: Vec<Core> = (0..ops.len())
        .map(|i| Core {
            // Deterministic skew so cores do not act in lockstep.
            clock: i as u64 * 7,
            next: 0,
        })
        .collect();
    let mut result = KvSimResult {
        makespan: 0,
        reads: 0,
        writes: 0,
        serializations: 0,
        read_sojourn: Log2Histogram::new(),
        shard_health: Vec::new(),
        heat: None,
    };
    // Heat plane (virtual time): per-core 1-in-N read sampling into the
    // shared sketches — the same discipline the real store's per-thread
    // hooks follow — plus exact write/serialize-bill attribution.
    let heat_on = cfg.heat_sample_every > 0;
    let mut heat_tick = vec![0u64; ops.len()];
    let heat_reads = SpaceSaving::new(HEAT_READ_TOPK);
    let heat_cms = CountMinSketch::new(HEAT_CMS_WIDTH, HEAT_CMS_DEPTH);
    let heat_writes = SpaceSaving::new(HEAT_WRITE_TOPK);
    let heat_bills = SpaceSaving::new(HEAT_WRITE_TOPK);
    let mut heat_shard_reads = vec![0u64; shards];
    // Health bookkeeping (virtual time): per-shard write counts drive
    // the epoch; a wedged core contributes the one pin that can hold
    // limbo, everything else reclaims eagerly (matching the real store,
    // whose writers reclaim inline once no visible pin protects a
    // table).
    let mut shard_writes = vec![0u64; shards];
    let mut shard_limbo = vec![0u64; shards];
    // (shard, pinned_epoch, pin_time, core) once the stuck core wedges.
    let mut stuck_pin: Option<(usize, u64, u64, usize)> = None;

    // The op's open-loop scheduled (arrival) time; under closed loop an
    // op "arrives" the moment the core frees up.
    let sched_at = |core: &Core, i: usize| -> u64 {
        match cfg.arrival {
            Some(a) => core.next as u64 * a + i as u64 * 3,
            None => core.clock,
        }
    };
    // A core's next op becomes *ready* at max(its clock, its scheduled
    // time); process the globally earliest-ready op so victim-clock
    // pushes stay causally ordered.
    let ready_at = |core: &Core, i: usize| -> u64 { core.clock.max(sched_at(core, i)) };

    while let Some(c) = (0..cores.len())
        .filter(|&i| cores[i].next < ops[i].len())
        .min_by_key(|&i| ready_at(&cores[i], i))
    {
        let op = ops[c][cores[c].next];
        let sched = sched_at(&cores[c], c);
        let ready = ready_at(&cores[c], c);
        cores[c].next += 1;

        if !op.write && cfg.stuck_core == Some(c) && stuck_pin.is_none() {
            // Fault injection: the read pins the shard's current epoch
            // (1 + writes so far) and the core never runs again.
            let shard = op.shard as usize;
            stuck_pin = Some((shard, 1 + shard_writes[shard], ready, c));
            cores[c].next = ops[c].len();
            continue;
        }
        if op.write {
            let shard = op.shard as usize;
            let start = ready.max(shard_free_at[shard]) + cfg.costs.lock;
            // Build the COW table, publish, pay the secondary's fence.
            let mut time = start + cfg.write_work + cfg.costs.mfence;
            let (req, vic) = cfg.costs.serialize(cfg.serialize);
            let mut bills = 0u64;
            if req > 0 || vic > 0 {
                // Serialize every other core, one round trip at a time.
                for (j, core) in cores.iter_mut().enumerate() {
                    if j == c {
                        continue;
                    }
                    time += req;
                    core.clock = core.clock.max(time).saturating_add(vic);
                    result.serializations += 1;
                    bills += 1;
                }
            }
            shard_free_at[shard] = time;
            cores[c].clock = time;
            result.writes += 1;
            shard_writes[shard] += 1;
            if heat_on {
                heat_writes.record(op.key);
                if bills > 0 {
                    heat_bills.record_n(op.key, bills);
                }
            }
            // Reclamation rule: the retired table stays in limbo iff a
            // visible pin predates its retire epoch — only the wedged
            // core's pin ever does (live readers unpin within one op).
            if matches!(stuck_pin, Some((s, pin, _, _)) if s == shard && pin < 1 + shard_writes[shard])
            {
                shard_limbo[shard] += 1;
            }
        } else {
            let fence = cfg.costs.victim_fence(cfg.serialize);
            let time = ready + cfg.read_overhead + fence + cfg.read_work;
            cores[c].clock = time;
            result.reads += 1;
            result.read_sojourn.record(time.saturating_sub(sched));
            if heat_on {
                let t = heat_tick[c];
                heat_tick[c] = t + 1;
                if t % cfg.heat_sample_every == 0 {
                    heat_reads.record(op.key);
                    heat_cms.record(op.key);
                    heat_shard_reads[op.shard as usize] += 1;
                }
            }
        }
    }
    result.makespan = cores.iter().map(|c| c.clock).max().unwrap_or(0);
    result.shard_health = (0..shards)
        .map(|s| {
            let stuck = stuck_pin.filter(|&(shard, _, _, _)| shard == s);
            let epoch = 1 + shard_writes[s];
            // The watchdog rule, applied in virtual time: a pin is
            // *stuck* once the published epoch has moved past it (a pin
            // at the current epoch protects nothing and flags nothing).
            let flagged = stuck.filter(|&(_, pin, _, _)| pin < epoch);
            ShardHealthSample {
                shard: s as u32,
                epoch,
                min_pin: stuck.map_or(0, |(_, pin, _, _)| pin),
                oldest_pin_age: stuck
                    .map_or(0, |(_, _, at, _)| result.makespan.saturating_sub(at)),
                limbo_depth: shard_limbo[s],
                limbo_bytes: shard_limbo[s] * SIM_TABLE_BYTES,
                graveyard: 0,
                probe_hwm: 0,
                stuck_readers: u64::from(flagged.is_some()),
                stuck_slot: flagged.map_or(0, |(_, _, _, core)| core as u64 + 1),
            }
        })
        .collect();
    result.heat = heat_on.then(|| {
        HeatSnapshot::new(
            cfg.heat_sample_every,
            heat_reads.top_refined(&heat_cms),
            heat_writes.top(),
            heat_bills.top(),
            (0..shards)
                .map(|s| ShardLoad {
                    shard: s as u32,
                    sampled_reads: heat_shard_reads[s],
                    writes: shard_writes[s],
                })
                .collect(),
        )
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cores` schedules of `n` ops each: a write every `period` ops on
    /// shard 0, reads otherwise.
    fn schedules(cores: usize, n: usize, period: usize) -> Vec<Vec<KvOp>> {
        (0..cores)
            .map(|c| {
                (0..n)
                    .map(|i| KvOp {
                        write: (i + c) % period == 0,
                        shard: 0,
                        key: (i % 7) as u64,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn counts_match_the_schedule() {
        let ops = schedules(4, 100, 10);
        let expected_writes: u64 = ops
            .iter()
            .flatten()
            .filter(|o| o.write)
            .count() as u64;
        let r = simulate_kv(&KvSimConfig::new(SerializeKind::Signal), &ops);
        assert_eq!(r.writes, expected_writes);
        assert_eq!(r.reads + r.writes, 400);
        assert_eq!(r.serializations, expected_writes * 3);
    }

    #[test]
    fn deterministic() {
        let ops = schedules(8, 200, 20);
        let a = simulate_kv(&KvSimConfig::new(SerializeKind::Signal), &ops);
        let b = simulate_kv(&KvSimConfig::new(SerializeKind::Signal), &ops);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.sojourn_p99(), b.sojourn_p99());
    }

    /// `cores` schedules of `n` reads each, with `writes` writes in
    /// total spread round-robin across cores at the schedule heads.
    fn read_mostly(cores: usize, n: usize, writes: usize) -> Vec<Vec<KvOp>> {
        let mut ops = vec![vec![KvOp { write: false, shard: 0, key: 1 }; n]; cores];
        for w in 0..writes {
            ops[w % cores][(w / cores) * 7] = KvOp { write: true, shard: 0, key: 1 };
        }
        ops
    }

    #[test]
    fn read_mostly_signal_beats_symmetric_at_8_cores() {
        // The serving-tier win: with one write per 32k reads, fence-free
        // reads beat mfence-per-read even though that write signals
        // every other core one by one.
        let ops = read_mostly(8, 4_000, 1);
        let sym = simulate_kv(&KvSimConfig::new(SerializeKind::Symmetric), &ops);
        let sig = simulate_kv(&KvSimConfig::new(SerializeKind::Signal), &ops);
        assert_eq!(sym.serializations, 0);
        assert_eq!(sig.serializations, 7);
        assert!(
            sig.read_throughput() > sym.read_throughput(),
            "signal {} vs symmetric {}",
            sig.read_throughput(),
            sym.read_throughput()
        );
    }

    #[test]
    fn lest_keeps_the_asymmetric_win_at_64_cores() {
        // At 64 cores the signal handshake's per-victim round trip makes
        // writes brutally expensive; the paper's proposed LE/ST hardware
        // keeps remote serialization cheap enough that the fence-free
        // read path still wins on the same 64-core schedule.
        let ops = read_mostly(64, 2_000, 2);
        let sym = simulate_kv(&KvSimConfig::new(SerializeKind::Symmetric), &ops);
        let lest = simulate_kv(&KvSimConfig::new(SerializeKind::LeSt), &ops);
        assert_eq!(lest.serializations, 2 * 63);
        assert!(
            lest.read_throughput() > sym.read_throughput(),
            "lest {} vs symmetric {}",
            lest.read_throughput(),
            sym.read_throughput()
        );
    }

    #[test]
    fn write_heavy_signal_collapses_but_lest_does_not() {
        // The ARW bottleneck at scale: with writes every 5 ops the
        // signal round trips dominate; the proposed LE/ST hardware keeps
        // the asymmetric win.
        let ops = schedules(64, 200, 5);
        let sym = simulate_kv(&KvSimConfig::new(SerializeKind::Symmetric), &ops);
        let sig = simulate_kv(&KvSimConfig::new(SerializeKind::Signal), &ops);
        let lest = simulate_kv(&KvSimConfig::new(SerializeKind::LeSt), &ops);
        assert!(sig.read_throughput() < sym.read_throughput());
        assert!(lest.read_throughput() > sig.read_throughput());
    }

    #[test]
    fn healthy_run_reports_clean_shard_gauges() {
        let ops = schedules(4, 100, 10);
        let r = simulate_kv(&KvSimConfig::new(SerializeKind::Signal), &ops);
        assert_eq!(r.shard_health.len(), 1);
        let h = r.shard_health[0];
        assert_eq!(h.epoch, 1 + r.writes);
        assert_eq!(h.min_pin, 0);
        assert_eq!(h.limbo_depth, 0, "live readers never hold limbo");
        assert_eq!((h.stuck_readers, h.stuck_slot), (0, 0));
        let text = r.render_health("des-signal");
        assert!(text.contains("# TYPE lbmf_store_shard_epoch gauge"));
        assert!(text.contains(&format!(
            "lbmf_store_shard_epoch{{store=\"des-signal\",shard=\"0\"}} {}",
            h.epoch
        )));
        assert!(text.contains("lbmf_store_shard_stuck_readers{store=\"des-signal\",shard=\"0\"} 0"));
    }

    #[test]
    fn stuck_core_pins_its_shard_and_grows_limbo() {
        // 64 simulated cores, one wedged mid-read: limbo on its shard
        // must grow with every subsequent write, the pin must lag the
        // epoch, and the health render must name the core.
        let ops = schedules(64, 50, 10);
        let mut cfg = KvSimConfig::new(SerializeKind::LeSt);
        cfg.stuck_core = Some(3);
        let r = simulate_kv(&cfg, &ops);
        let healthy = simulate_kv(&KvSimConfig::new(SerializeKind::LeSt), &ops);
        // The wedged core consumed one read and then stopped.
        assert!(r.reads < healthy.reads);
        let h = r.shard_health[0];
        assert!(h.min_pin > 0, "pin visible");
        assert!(h.epoch > h.min_pin, "pin lags the published epoch");
        assert!(h.limbo_depth > 0, "unreclaimable tables accumulate");
        assert_eq!(h.limbo_bytes, h.limbo_depth * SIM_TABLE_BYTES);
        assert!(h.oldest_pin_age > 0);
        assert_eq!(h.stuck_readers, 1);
        assert_eq!(h.stuck_slot, 4, "core 3 = slot id 4 (0 reserved for none)");
        let text = r.render_health("des-lest");
        assert!(text.contains("lbmf_store_shard_stuck_reader_slot{store=\"des-lest\",shard=\"0\"} 4"));
        // Deterministic, like every other DES projection.
        let again = simulate_kv(&cfg, &ops);
        assert_eq!(again.shard_health, r.shard_health);
    }

    #[test]
    fn open_loop_records_sojourn_above_service_time() {
        let ops = schedules(4, 200, 50);
        let mut cfg = KvSimConfig::new(SerializeKind::Signal);
        let closed = simulate_kv(&cfg, &ops);
        // Saturating arrival: ops scheduled faster than service, so
        // queueing delay accumulates and p99 sojourn grows well past the
        // closed-loop service time.
        cfg.arrival = Some(1);
        let open = simulate_kv(&cfg, &ops);
        assert_eq!(open.reads, closed.reads);
        assert!(open.read_sojourn.count() > 0);
        // A generous arrival gap means no *queueing* delay: the typical
        // read's sojourn is its bare service time. (The p99 still shows
        // serialization victims — a read scheduled right after a write
        // signaled its core starts tens of kilocycles late, which is
        // exactly the tail the open-loop mode exists to expose.)
        cfg.arrival = Some(1_000_000);
        let idle = simulate_kv(&cfg, &ops);
        assert!(
            idle.sojourn_p50() <= closed.sojourn_p50().max(1) * 4,
            "unloaded open loop must not queue at the median: {} vs {}",
            idle.sojourn_p50(),
            closed.sojourn_p50()
        );
        assert!(
            idle.sojourn_p99() > idle.sojourn_p50() * 100,
            "the serialization-victim tail must be visible: p99 {} p50 {}",
            idle.sojourn_p99(),
            idle.sojourn_p50()
        );
        assert!(idle.makespan > closed.makespan, "idle arrivals stretch the run");
    }

    #[test]
    fn heat_plane_is_disarmed_by_default() {
        let r = simulate_kv(&KvSimConfig::new(SerializeKind::Signal), &schedules(2, 50, 10));
        assert!(r.heat.is_none(), "heat_sample_every = 0 must emit nothing");
    }

    /// 4 cores; each core reads key 1 (shard 0) 90 times and key 5
    /// (shard 1) 10 times, then writes key 9 (shard 1) twice.
    fn heat_schedule() -> Vec<Vec<KvOp>> {
        (0..4)
            .map(|_| {
                let mut ops = Vec::new();
                ops.extend((0..90).map(|_| KvOp { write: false, shard: 0, key: 1 }));
                ops.extend((0..10).map(|_| KvOp { write: false, shard: 1, key: 5 }));
                ops.extend((0..2).map(|_| KvOp { write: true, shard: 1, key: 9 }));
                ops
            })
            .collect()
    }

    #[test]
    fn heat_tracks_hot_keys_serialize_bills_and_shard_load() {
        let mut cfg = KvSimConfig::new(SerializeKind::Signal);
        cfg.heat_sample_every = 1;
        let r = simulate_kv(&cfg, &heat_schedule());
        let heat = r.heat.as_ref().expect("armed");
        assert_eq!(heat.sampled_reads, 400);
        assert_eq!(heat.top_reads[0], HotKey { key: 1, count: 360, err: 0 });
        assert_eq!(heat.top_reads[1], HotKey { key: 5, count: 40, err: 0 });
        assert_eq!(heat.top_writes[0], HotKey { key: 9, count: 8, err: 0 });
        // Every write signals the 3 other cores: 8 writes bill 24 trips,
        // all attributed to key 9.
        assert_eq!(heat.top_bills[0], HotKey { key: 9, count: 24, err: 0 });
        assert_eq!(r.serializations, 24);
        assert_eq!(heat.shards[0].sampled_reads, 360);
        assert_eq!(heat.shards[1], ShardLoad { shard: 1, sampled_reads: 40, writes: 8 });
        // Shard 0 holds 90% of sampled reads across 2 shards: 1.8x fair.
        assert_eq!(heat.imbalance_ppm(), 1_800_000);
        assert_eq!(heat.shard_write_ppm(&heat.shards[0]), 0);
        assert_eq!(heat.shard_write_ppm(&heat.shards[1]), 8 * 1_000_000 / 48);
        let text = r.render_heat("des-heat");
        assert!(text.contains("# TYPE lbmf_store_hotkey_reads gauge"));
        assert!(text
            .contains("lbmf_store_hotkey_reads{store=\"des-heat\",key=\"1\",rank=\"1\"} 360"));
        assert!(text.contains("lbmf_store_hotkey_serialize_bill{store=\"des-heat\",key=\"9\"} 24"));
        assert!(text.contains("lbmf_store_skew_imbalance_ppm{store=\"des-heat\"} 1800000"));
        assert!(text.contains("lbmf_store_skew_sample_every{store=\"des-heat\"} 1"));
        // Two hot ranks cannot support a theta fit — the gauges must be
        // omitted rather than rendered as a fake zero.
        assert!(heat.theta.is_none());
        assert!(!text.contains(GAUGE_SKEW_THETA_MILLI));
        // Deterministic like every DES projection.
        let again = simulate_kv(&cfg, &heat_schedule());
        assert_eq!(again.heat.as_ref().unwrap().top_reads, heat.top_reads);
    }

    #[test]
    fn heat_sampling_scales_counts_but_keeps_the_ranking() {
        let mut cfg = KvSimConfig::new(SerializeKind::Signal);
        cfg.heat_sample_every = 1;
        let full = simulate_kv(&cfg, &heat_schedule());
        cfg.heat_sample_every = 4;
        let sampled = simulate_kv(&cfg, &heat_schedule());
        let (f, s) = (full.heat.unwrap(), sampled.heat.unwrap());
        assert_eq!(s.sampled_reads, f.sampled_reads / 4);
        assert_eq!(s.top_reads[0].key, f.top_reads[0].key, "ranking survives sampling");
        // Writes are exact regardless of the read sampling period.
        assert_eq!(s.top_writes, f.top_writes);
        assert_eq!(s.shards[1].writes, f.shards[1].writes);
    }
}
