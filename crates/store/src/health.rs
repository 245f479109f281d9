//! The store's runtime health plane: per-shard gauges, a stuck-reader
//! watchdog, and a rolling serialize-latency SLO window.
//!
//! Everything here is **sampler-side**. The reader fast path is the
//! product being observed — six instrumented ops, no fence, no RMW —
//! and observing it must not change it. So the monitor never installs
//! hooks, never takes the writer mutex, and never makes a reader publish
//! anything it was not already publishing for the protocol itself:
//!
//! * the **pin words** are the protocol's own synchronization cells; the
//!   watchdog reads them relaxed, exactly like a writer peeks at them
//!   (minus the serialization round trip — a *stale* read is fine here,
//!   because a stuck pin is by definition one that stopped changing);
//! * the **reclamation mirrors** (limbo depth/bytes, graveyard, probe
//!   HWM) are relaxed copies the writer refreshes at the end of every
//!   update while it already holds the writer mutex
//!   ([`Shard::health_probe`](crate::shard::Shard::health_probe));
//! * the **serialize SLO window** is fed from the flight-recorder rings
//!   at scrape time. Ring drains are non-consuming, so the ingest keeps
//!   a per-thread timestamp watermark and only records events newer than
//!   the last scrape — re-reading the same survivors twice must not
//!   double-count a round trip.
//!
//! The check suite's purity test drives a monitor [`sample`] between two
//! recorded `get`s and proves the fast path stays exactly the protocol's
//! six ops (`crates/store/tests/check_store.rs`).
//!
//! [`sample`]: HealthMonitor::sample
//!
//! # The watchdog rule
//!
//! A reader is **stuck** on a shard iff its pin `p` satisfies all of:
//! `p != 0` (it claims to be reading), `epoch > p` (writes have moved on
//! — on a write-free shard a hot reader re-pins the same epoch forever
//! and is perfectly healthy), and the pin *value* has not changed for at
//! least [`HealthCfg::max_pin_age_ns`]. The age is tracked sampler-side
//! (first-seen timestamp per `(shard, slot, value)`), so the reader
//! never timestamps anything. A stuck reader is attributed by its slot
//! id — the same [`RemoteThread::key`](lbmf::registry::RemoteThread::key)
//! correlation id serialize trace events carry, so `lbmf-obs doctor`'s
//! verdict cross-references the flight recorder directly.
//!
//! # The burn rule
//!
//! A healthy shard's limbo grows for dozens of puts and then empties:
//! a write runs a reclamation pass once the limbo holds one full
//! table's bytes (the shard's pass threshold). So growth says nothing;
//! what does is limbo still over the threshold after a write, which
//! means that write's pass ran and could not reclaim. One retirement
//! held back by a reader that was mid-get when the pass read the pins is
//! healthy, and it releases at most one table's bytes (exactly one on a
//! one-chunk shard, where a retirement is the whole table), so the rule
//! needs limbo strictly over the threshold. A sample counts toward a
//! burn when the shard's epoch moved since the last sample (it was
//! written) and its limbo is over the threshold; a sample with limbo at
//! or below it ends the streak, and a sample with no write in between
//! leaves it as it was (no pass ran). A shard with
//! [`HealthCfg::burn_samples`] counted samples in a row is burning
//! memory.

use crate::store::Store;
use lbmf::strategy::FenceStrategy;
use lbmf_des::{ShardHealthGauges, ShardHealthSample};
use lbmf_trace::prometheus::{render_counter_family, render_histogram_family};
use lbmf_trace::{EventKind, GaugeSet, Log2Histogram, TraceSnapshot, WindowedHistogram};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Watchdog and SLO-window configuration.
#[derive(Clone, Copy, Debug)]
pub struct HealthCfg {
    /// A nonzero pin lagging the published epoch whose value is
    /// unchanged for at least this long is a stuck reader (default 1s).
    pub max_pin_age_ns: u64,
    /// A shard whose limbo holds more than its pass threshold
    /// ([`ShardProbe::pass_bytes`](crate::shard::ShardProbe)) over this
    /// many consecutive samples is a reclamation burn (default 3).
    pub burn_samples: u32,
    /// Rotating epochs in the serialize-latency SLO window (default 10).
    pub window_epochs: usize,
    /// Width of one window epoch (default 1s, so the window's
    /// percentiles cover roughly the last 10 s, not since boot).
    pub window_rotate_ns: u64,
}

impl Default for HealthCfg {
    fn default() -> HealthCfg {
        HealthCfg {
            max_pin_age_ns: 1_000_000_000,
            burn_samples: 3,
            window_epochs: 10,
            window_rotate_ns: 1_000_000_000,
        }
    }
}

/// One stuck reader, attributed to its slot id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StuckReader {
    /// Shard the reader is pinned on.
    pub shard: u32,
    /// The reader's slot id (the §13 serialize correlation key).
    pub slot: u64,
    /// The pin value that stopped moving.
    pub pin: u64,
    /// The shard's published epoch at flag time.
    pub epoch: u64,
    /// How long the pin value has been unchanged.
    pub age_ns: u64,
}

/// The monitor's overall judgment after a sample.
#[derive(Clone, Debug)]
pub struct HealthVerdict {
    /// No stuck reader and no limbo burn anywhere.
    pub healthy: bool,
    /// Human-readable reasons when unhealthy (one per condition).
    pub reasons: Vec<String>,
    /// Every reader the watchdog currently flags.
    pub stuck: Vec<StuckReader>,
}

impl Default for HealthVerdict {
    fn default() -> HealthVerdict {
        HealthVerdict {
            healthy: true,
            reasons: Vec::new(),
            stuck: Vec::new(),
        }
    }
}

struct MonitorState {
    /// `(shard, slot)` → `(pin value, first seen at)`. Re-stamped
    /// whenever the value changes; the age of an *unchanged* value is
    /// what the watchdog thresholds.
    pin_seen: HashMap<(usize, u64), (u64, u64)>,
    /// Last sample's epoch per shard: whether a write (and so maybe a
    /// pass) happened since.
    epoch_prev: Vec<u64>,
    /// Consecutive written samples the shard's limbo held more than its
    /// pass threshold.
    limbo_over: Vec<u32>,
    /// Whether the shard was in the stuck state last sample (trip =
    /// false → true transition).
    stuck_prev: Vec<bool>,
    /// Serialize round-trip waits over the rolling window.
    window: WindowedHistogram,
    last_rotate: u64,
    /// Per-thread newest-ingested event timestamp: ring drains are
    /// non-consuming, so this is what makes ingestion idempotent.
    watermarks: HashMap<u32, u64>,
    samples: Vec<ShardHealthSample>,
    verdict: HealthVerdict,
}

/// The health plane for one [`Store`]: registers the shared gauge schema
/// ([`lbmf_des::kv_sim`] defines the names, so the DES emits identical
/// families), runs the stuck-reader watchdog, and maintains the rolling
/// serialize SLO window.
pub struct HealthMonitor<S: FenceStrategy> {
    store: Arc<Store<S>>,
    cfg: HealthCfg,
    gauges: GaugeSet,
    shard_gauges: Vec<ShardHealthGauges>,
    /// Shards newly entering the stuck state (a counter, not a gauge:
    /// trips accumulate so alerting catches a flap between scrapes).
    trips: AtomicU64,
    state: Mutex<MonitorState>,
}

impl<S: FenceStrategy> HealthMonitor<S> {
    /// A monitor over `store`, publishing gauges labelled
    /// `{store=name,shard=…}`.
    pub fn new(store: Arc<Store<S>>, name: &str, cfg: HealthCfg) -> HealthMonitor<S> {
        let gauges = GaugeSet::new();
        let shard_gauges = (0..store.shard_count())
            .map(|i| ShardHealthGauges::register(&gauges, name, i as u32))
            .collect();
        let shards = store.shard_count();
        HealthMonitor {
            store,
            cfg,
            gauges,
            shard_gauges,
            trips: AtomicU64::new(0),
            state: Mutex::new(MonitorState {
                pin_seen: HashMap::new(),
                epoch_prev: vec![0; shards],
                limbo_over: vec![0; shards],
                stuck_prev: vec![false; shards],
                window: WindowedHistogram::new(cfg.window_epochs),
                last_rotate: 0,
                watermarks: HashMap::new(),
                samples: Vec::new(),
                verdict: HealthVerdict::default(),
            }),
        }
    }

    /// The configuration in force.
    pub fn cfg(&self) -> &HealthCfg {
        &self.cfg
    }

    /// Take one sample at `now_ns`: probe every shard, run the watchdog
    /// and burn-rate rules, publish the gauges, and return the verdict.
    ///
    /// Synchronous and deterministic in `now_ns` on purpose — tests and
    /// the purity proof drive it directly; production wraps it in a
    /// [`Sampler`] thread.
    pub fn sample(&self, now_ns: u64) -> HealthVerdict {
        let mut st = self.state.lock().unwrap();
        let st = &mut *st;
        let mut verdict = HealthVerdict::default();
        let mut samples = Vec::with_capacity(self.shard_gauges.len());
        for (i, gauges) in self.shard_gauges.iter().enumerate() {
            let probe = self.store.shard(i).health_probe();
            let mut sample = ShardHealthSample {
                shard: i as u32,
                epoch: probe.epoch,
                limbo_depth: probe.limbo_depth,
                limbo_bytes: probe.limbo_bytes,
                graveyard: probe.graveyard,
                probe_hwm: probe.probe_hwm,
                ..ShardHealthSample::default()
            };
            let mut live: Vec<u64> = Vec::new();
            let (mut worst_age, mut worst_pin) = (0u64, 0u64);
            for &(slot, pin) in &probe.pins {
                if pin == 0 {
                    continue;
                }
                live.push(slot);
                sample.min_pin = if sample.min_pin == 0 {
                    pin
                } else {
                    sample.min_pin.min(pin)
                };
                let entry = st.pin_seen.entry((i, slot)).or_insert((pin, now_ns));
                if entry.0 != pin {
                    *entry = (pin, now_ns);
                }
                let age = now_ns.saturating_sub(entry.1);
                sample.oldest_pin_age = sample.oldest_pin_age.max(age);
                // The stuck rule (module docs): a pin at the published
                // epoch is a hot reader, not a hazard.
                if probe.epoch > pin && age >= self.cfg.max_pin_age_ns {
                    sample.stuck_readers += 1;
                    if age >= worst_age {
                        worst_age = age;
                        worst_pin = pin;
                        sample.stuck_slot = slot;
                    }
                    verdict.stuck.push(StuckReader {
                        shard: i as u32,
                        slot,
                        pin,
                        epoch: probe.epoch,
                        age_ns: age,
                    });
                }
            }
            // Forget unpinned or deregistered slots: their next pin is a
            // fresh observation.
            st.pin_seen
                .retain(|&(s, slot), _| s != i || live.contains(&slot));

            // The burn rule (module docs).
            if probe.limbo_bytes <= probe.pass_bytes {
                st.limbo_over[i] = 0;
            } else if probe.epoch != st.epoch_prev[i] {
                st.limbo_over[i] += 1;
            }
            st.epoch_prev[i] = probe.epoch;
            if st.limbo_over[i] >= self.cfg.burn_samples {
                verdict.healthy = false;
                verdict.reasons.push(format!(
                    "shard {i}: limbo over its {}-byte pass threshold for {} consecutive \
                     samples: a pass ran and could not reclaim (depth {}, {} bytes unreclaimed)",
                    probe.pass_bytes, st.limbo_over[i], sample.limbo_depth, sample.limbo_bytes
                ));
            }
            if sample.stuck_readers > 0 {
                verdict.healthy = false;
                verdict.reasons.push(format!(
                    "shard {i}: {} stuck reader(s), worst slot {:#x} \
                     (pin {} < epoch {}, unchanged for {} ms)",
                    sample.stuck_readers,
                    sample.stuck_slot,
                    worst_pin,
                    sample.epoch,
                    worst_age / 1_000_000
                ));
                if !st.stuck_prev[i] {
                    self.trips.fetch_add(1, Ordering::Relaxed);
                }
                st.stuck_prev[i] = true;
            } else {
                st.stuck_prev[i] = false;
            }
            gauges.publish(&sample);
            samples.push(sample);
        }
        st.samples = samples;
        st.verdict = verdict.clone();
        verdict
    }

    /// Feed serialize round-trip waits from a flight-recorder snapshot
    /// into the rolling window. Idempotent per event: drains are
    /// non-consuming, so a per-thread timestamp watermark skips events
    /// already ingested by an earlier scrape.
    pub fn ingest(&self, snap: &TraceSnapshot, now_ns: u64) {
        let mut st = self.state.lock().unwrap();
        let st = &mut *st;
        let gap = now_ns.saturating_sub(st.last_rotate);
        let due = (gap / self.cfg.window_rotate_ns) as usize;
        if due > 0 {
            // Rotating more times than there are epochs is a full clear;
            // cap the loop so a long idle gap stays O(epochs).
            for _ in 0..due.min(st.window.epochs()) {
                st.window.rotate();
            }
            st.last_rotate = now_ns - (gap % self.cfg.window_rotate_ns);
        }
        for t in &snap.threads {
            let wm = st.watermarks.entry(t.tid).or_insert(0);
            let mut newest = *wm;
            for e in t
                .events
                .iter()
                .filter(|e| e.kind == EventKind::SerializeDeliver && e.nanos > *wm)
            {
                st.window.record(e.dur);
                newest = newest.max(e.nanos);
            }
            *wm = newest;
        }
    }

    /// Ingest the live flight recorder and sample, both at real now —
    /// one sampler period's worth of work.
    pub fn tick(&self) -> HealthVerdict {
        let now = lbmf_trace::now_nanos();
        self.ingest(&lbmf_trace::take_snapshot(), now);
        self.sample(now)
    }

    /// The most recent verdict (without resampling).
    pub fn verdict(&self) -> HealthVerdict {
        self.state.lock().unwrap().verdict.clone()
    }

    /// The most recent per-shard samples (without resampling).
    pub fn samples(&self) -> Vec<ShardHealthSample> {
        self.state.lock().unwrap().samples.clone()
    }

    /// Cumulative watchdog trips (shards entering the stuck state).
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// The merged rolling-window serialize histogram (for percentiles).
    pub fn serialize_window(&self) -> Log2Histogram {
        self.state.lock().unwrap().window.merged()
    }

    /// Render the health plane in exposition format: every per-shard
    /// gauge family, the watchdog trip counter, and the windowed
    /// serialize histogram. Appended verbatim to `/metrics`.
    pub fn render(&self) -> String {
        let mut out = self.gauges.render();
        let no_labels: &[(&str, &str)] = &[];
        render_counter_family(
            &mut out,
            "lbmf_store_watchdog_trips_total",
            "Shards newly entering the stuck-reader state.",
            &[(no_labels, self.trips.load(Ordering::Relaxed))],
        );
        render_histogram_family(
            &mut out,
            "lbmf_store_serialize_wait_window_ns",
            "Serialize round-trip wait over the rolling SLO window.",
            &[],
            &self.serialize_window(),
        );
        out
    }
}

impl<S: FenceStrategy> std::fmt::Debug for HealthMonitor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("shards", &self.shard_gauges.len())
            .field("trips", &self.trips())
            .finish_non_exhaustive()
    }
}

/// A background thread driving [`HealthMonitor::tick`] every `period`;
/// stops (and joins) on drop.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawn the sampler.
    pub fn start<S: FenceStrategy + Send + Sync + 'static>(
        monitor: Arc<HealthMonitor<S>>,
        period: Duration,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("lbmf-health-sampler".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    monitor.tick();
                    std::thread::sleep(period);
                }
            })
            .expect("spawn health sampler");
        Sampler {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ReclaimMode;
    use crate::store::shard_index;
    use lbmf::strategy::SignalFence;
    use lbmf_trace::{FenceEvent, ThreadTrace};

    const MS: u64 = 1_000_000;

    fn test_cfg() -> HealthCfg {
        HealthCfg {
            max_pin_age_ns: 100 * MS,
            burn_samples: 3,
            window_epochs: 4,
            window_rotate_ns: 100 * MS,
        }
    }

    fn key_on_shard(shard: usize, shards: usize) -> u64 {
        (0..).find(|&k| shard_index(k, shards) == shard).unwrap()
    }

    #[test]
    fn watchdog_flags_a_wedged_reader_by_slot_and_trips_once() {
        let store = Arc::new(Store::new(
            Arc::new(SignalFence::new()),
            2,
            8,
            ReclaimMode::Free,
        ));
        let monitor = HealthMonitor::new(store.clone(), "t", test_cfg());
        let handle = store.handle();
        let k0 = key_on_shard(0, 2);
        store.put(k0, 1);
        assert!(monitor.sample(0).healthy, "no pins, nothing stuck");

        let wedge = handle.wedge(0);
        // Writes move the epoch past the wedged pin and pile up limbo.
        store.put(k0, 2);
        store.put(k0, 3);
        // Age 0: lagging, but not yet past the threshold.
        let young = monitor.sample(10 * MS);
        assert!(young.healthy, "lag alone is not stuck: {:?}", young.reasons);
        // Past the threshold: flagged, attributed, one trip.
        let tripped = monitor.sample(200 * MS);
        assert!(!tripped.healthy);
        assert_eq!(tripped.stuck.len(), 1);
        let s = tripped.stuck[0];
        assert_eq!(s.shard, 0);
        assert_eq!(s.slot, handle.slot_key(0), "attributed to the §13 slot id");
        assert!(s.epoch > s.pin);
        assert!(s.age_ns >= 100 * MS);
        assert_eq!(monitor.trips(), 1);
        // Still stuck: no second trip (trips count transitions).
        assert!(!monitor.sample(300 * MS).healthy);
        assert_eq!(monitor.trips(), 1);
        let sample0 = monitor.samples()[0];
        assert_eq!(sample0.stuck_readers, 1);
        assert_eq!(sample0.stuck_slot, handle.slot_key(0));
        assert!(sample0.limbo_depth >= 2);
        assert!(sample0.limbo_bytes > 0);

        drop(wedge);
        let recovered = monitor.sample(400 * MS);
        assert!(recovered.healthy, "unpinning clears the flag");
        assert_eq!(monitor.trips(), 1);
        // Recovery and re-wedge is a *new* trip.
        let wedge = handle.wedge(0);
        store.put(k0, 4);
        monitor.sample(500 * MS);
        assert!(!monitor.sample(700 * MS).healthy);
        assert_eq!(monitor.trips(), 2);
        drop(wedge);
    }

    #[test]
    fn hot_reader_at_current_epoch_never_flags() {
        let store = Arc::new(Store::new(
            Arc::new(SignalFence::new()),
            1,
            8,
            ReclaimMode::Free,
        ));
        let monitor = HealthMonitor::new(store.clone(), "t", test_cfg());
        let handle = store.handle();
        // Pin the *current* epoch (a reader mid-step-4 on a write-free
        // shard) and let it age far past the threshold.
        let wedge = handle.wedge(0);
        assert!(monitor.sample(0).healthy);
        let v = monitor.sample(10_000 * MS);
        assert!(v.healthy, "epoch == pin is a hot reader: {:?}", v.reasons);
        let s = monitor.samples()[0];
        assert_eq!(s.min_pin, s.epoch);
        assert!(s.oldest_pin_age >= 10_000 * MS, "age is still reported");
        drop(wedge);
    }

    #[test]
    fn limbo_burn_needs_consecutive_samples_over_the_pass_threshold() {
        // Four shards of 512 slots, 8 chunks each: a put retires a spine
        // and one chunk, so a healthy shard's limbo grows for several
        // puts before a pass empties it.
        let store = Arc::new(Store::new(
            Arc::new(SignalFence::new()),
            4,
            256,
            ReclaimMode::Free,
        ));
        let monitor = HealthMonitor::new(store.clone(), "t", test_cfg());
        let handle = store.handle();
        let k0 = key_on_shard(0, 4);
        // Healthy: limbo grows sample after sample, never a burn.
        for i in 1..=6u64 {
            store.put(k0, i);
            let v = monitor.sample(i * MS);
            assert!(v.healthy, "growth below the threshold: {:?}", v.reasons);
        }
        assert!(monitor.samples()[0].limbo_depth >= 6);
        // Wedged: once a pass runs it cannot reclaim, and the limbo stays
        // over the threshold. Samples stay well inside the pin-age
        // threshold so only the burn rule can fire.
        let wedge = handle.wedge(0);
        let over = || {
            let p = store.shard(0).health_probe();
            p.limbo_bytes > p.pass_bytes
        };
        while !over() {
            store.put(k0, 0);
        }
        let mut t = 10 * MS;
        for n in 1..=3u32 {
            let v = monitor.sample(t);
            t += MS;
            // No write, no pass: an idle sample does not extend the streak.
            assert_eq!(monitor.sample(t).healthy, v.healthy, "sample {n}");
            store.put(k0, 0);
            assert!(over());
            if n < 3 {
                assert!(v.healthy, "burn needs 3 samples, got {n}: {:?}", v.reasons);
            } else {
                assert!(!v.healthy);
                assert!(
                    v.reasons[0].contains("pass threshold"),
                    "burn reason, got {:?}",
                    v.reasons
                );
            }
        }
        // The pin clears and the next put's pass reclaims: the streak ends.
        drop(wedge);
        store.put(k0, 1);
        assert!(monitor.sample(t).healthy);
    }

    #[test]
    fn one_held_retirement_on_a_one_chunk_shard_is_not_a_burn() {
        // One chunk: every put retires the whole table's bytes, so each
        // put runs a pass.
        let store = Arc::new(Store::new(
            Arc::new(SignalFence::new()),
            1,
            8,
            ReclaimMode::Free,
        ));
        let monitor = HealthMonitor::new(store.clone(), "t", test_cfg());
        let handle = store.handle();
        // A reader is mid-get at every pass and holds back the version
        // that pass retired; the next pass reclaims it.
        for i in 1..=6u64 {
            let mid_get = handle.wedge(0);
            store.put(1, i);
            drop(mid_get);
            let p = store.shard(0).health_probe();
            assert_eq!(p.limbo_depth, 1);
            assert_eq!(p.limbo_bytes, p.pass_bytes, "one retirement is one table");
            let v = monitor.sample(i * MS);
            assert!(v.healthy, "sample {i}: {:?}", v.reasons);
        }
        // Two held retirements are more than a table: a burn.
        let wedge = handle.wedge(0);
        for i in 1..=3u64 {
            store.put(1, i);
            store.put(1, i);
            let v = monitor.sample((10 + i) * MS);
            assert_eq!(v.healthy, i < 3, "sample {i}: {:?}", v.reasons);
        }
        drop(wedge);
    }

    fn deliver(nanos: u64, dur: u64) -> FenceEvent {
        FenceEvent {
            nanos,
            thread: 1,
            kind: EventKind::SerializeDeliver,
            guarded_addr: 0,
            dur,
            corr: 0,
        }
    }

    #[test]
    fn ingest_dedupes_nonconsuming_drains_and_window_ages_out() {
        let store = Arc::new(Store::new(
            Arc::new(SignalFence::new()),
            1,
            8,
            ReclaimMode::Free,
        ));
        let monitor = HealthMonitor::new(store, "t", test_cfg());
        let snap = TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 1,
                name: "w".into(),
                events: vec![deliver(10, 111), deliver(20, 222)],
                dropped: 0,
            }],
        };
        monitor.ingest(&snap, 30);
        assert_eq!(monitor.serialize_window().count(), 2);
        // The same survivors drain again (rings are non-consuming): the
        // watermark must keep them from double-counting.
        monitor.ingest(&snap, 40);
        assert_eq!(monitor.serialize_window().count(), 2);
        // A genuinely new event past the watermark lands.
        let snap2 = TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 1,
                name: "w".into(),
                events: vec![deliver(10, 111), deliver(20, 222), deliver(25, 333)],
                dropped: 0,
            }],
        };
        monitor.ingest(&snap2, 50);
        assert_eq!(monitor.serialize_window().count(), 3);
        // After every window epoch rotates, old waits age out of the
        // percentiles: the window reports "now", not "since boot".
        let empty = TraceSnapshot::default();
        monitor.ingest(&empty, 50 + 5 * 100 * MS);
        assert_eq!(monitor.serialize_window().count(), 0);
    }

    #[test]
    fn render_carries_gauges_trips_and_window_families() {
        let store = Arc::new(Store::new(
            Arc::new(SignalFence::new()),
            1,
            8,
            ReclaimMode::Free,
        ));
        let monitor = HealthMonitor::new(store.clone(), "demo", test_cfg());
        store.put(1, 1);
        monitor.sample(0);
        let text = monitor.render();
        assert!(text.contains("# TYPE lbmf_store_shard_epoch gauge"));
        assert!(text.contains("lbmf_store_shard_epoch{store=\"demo\",shard=\"0\"} 2"));
        assert!(text.contains("# TYPE lbmf_store_watchdog_trips_total counter"));
        assert!(text.contains("# TYPE lbmf_store_serialize_wait_window_ns histogram"));
        assert!(text.contains("lbmf_store_serialize_wait_window_ns_count 0"));
    }
}
