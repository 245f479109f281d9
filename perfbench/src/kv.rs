//! `kv_read_mostly` and `kv_write_mix`: the `lbmf-store` Zipfian mix.
//!
//! Two closed-loop client threads, each with its own `StoreHandle`,
//! replay their `workload::ops_for_core` streams (8 shards, 16 Ki
//! prefilled keys, θ = 0.99) cyclically. A get is the fast op: the
//! epoch-pinned read whose `primary_fence()` is the l-mfence position. A
//! put is the slow op: a copy-on-write of one shard table plus one
//! remote serialization of the other client thread.

use crate::harness::{
    self, cycles, run_phases, Pace, PhaseRun, Samples, Span, Tally, TraceTotals, Worker, THREADS,
};
use crate::{
    fence_layers, probe, process_layers, ratio, reconcile, set_percentiles, Args, Outcome,
    FAST_PERCENTILES, SLOW_PERCENTILES,
};
use lbmf::stats::FenceStatsSnapshot;
use lbmf::strategy::{FenceStrategy, SignalFence};
use lbmf_store::{
    build_store, ops_for_core, Op, Store, StoreHandle, StoreStatsSnapshot, WorkloadCfg,
};
use std::sync::Arc;

/// Prefilled key space. Prefill through `Store::put` copies a shard table
/// per key, so set-up grows quadratically with it; 16 Ki keeps set-up at
/// about 0.1 s.
const KEYS: u64 = 16 * 1024;
const SHARDS: usize = 8;
const THETA: f64 = 0.99;
/// Ops generated per thread before timing; the clients replay them
/// cyclically for as long as a phase lasts.
const STREAM: usize = 1 << 20;
/// One get in this many is timed for the latency percentiles.
const GET_SAMPLE_EVERY: usize = 64;
const SETUP_REPS: usize = 7;
/// Tags a value written by a put (see [`put_value`]).
const PUT_TAG: u64 = 1 << 47;

/// The value the put at position `i` of thread `t`'s stream writes under
/// `key`: it names its writer, so a get can check it was really written.
fn put_value(key: u64, t: usize, i: usize) -> u64 {
    PUT_TAG | key << 32 | (t as u64) << 31 | i as u64
}

/// Both client threads' op streams, plus where their puts sit.
struct Streams {
    ops: Vec<Vec<Op>>,
    is_put: Vec<Vec<u64>>,
}

impl Streams {
    fn generate(cfg: &WorkloadCfg) -> Streams {
        let mut streams = Streams {
            ops: Vec::new(),
            is_put: Vec::new(),
        };
        for t in 0..THREADS {
            let mut ops = ops_for_core(cfg, t);
            let mut is_put = vec![0u64; STREAM / 64];
            for (i, op) in ops.iter_mut().enumerate() {
                if let Op::Put(key, value) = op {
                    *value = put_value(*key, t, i);
                    is_put[i / 64] |= 1 << (i % 64);
                }
            }
            streams.ops.push(ops);
            streams.is_put.push(is_put);
        }
        streams
    }

    /// Whether `got` is a correct answer to a get of `key`: the prefilled
    /// `key + 1`, or the value some put of `key` wrote.
    #[inline]
    fn valid(&self, key: u64, got: Option<u64>) -> bool {
        match got {
            Some(v) if v == key + 1 => true,
            Some(v) if v & PUT_TAG != 0 => {
                let (k, t, i) = (
                    (v ^ PUT_TAG) >> 32,
                    (v >> 31 & 1) as usize,
                    (v & 0x7FFF_FFFF) as usize,
                );
                k == key && i < STREAM && self.is_put[t][i / 64] >> (i % 64) & 1 == 1
            }
            _ => false,
        }
    }
}

struct KvWorker<'a> {
    t: usize,
    store: &'a Store<SignalFence>,
    handle: StoreHandle<SignalFence>,
    streams: &'a Streams,
    pos: usize,
}

struct KvOut {
    ops: Tally,
    gets: u64,
    puts: u64,
    wrong: u64,
    get_lat: Samples,
    put_lat: Samples,
    get_span: Span,
    put_span: Span,
}

impl Worker for KvWorker<'_> {
    type Out = KvOut;

    fn run(&mut self, spans: bool, pace: &Pace) -> KvOut {
        let (get_cap, put_cap) = if spans { (0, 0) } else { (1 << 20, 1 << 18) };
        let mut out = KvOut {
            ops: Tally::default(),
            gets: 0,
            puts: 0,
            wrong: 0,
            get_lat: Samples::with_capacity(get_cap),
            put_lat: Samples::with_capacity(put_cap),
            get_span: Span::default(),
            put_span: Span::default(),
        };
        let ops = &self.streams.ops[self.t];
        let mut window = None;
        while let Some(w) = pace.window() {
            if window != Some(w) {
                window = Some(w);
                out.ops.open(w);
                out.get_lat.open(w);
                out.put_lat.open(w);
            }
            for _ in 0..256 {
                let i = self.pos;
                self.pos = (i + 1) % STREAM;
                match ops[i] {
                    Op::Get(key) => {
                        let got = if spans || i.is_multiple_of(GET_SAMPLE_EVERY) {
                            let c0 = cycles();
                            let got = self.handle.get(key);
                            let dt = cycles() - c0;
                            if spans {
                                out.get_span.add(dt);
                            } else {
                                out.get_lat.push(dt);
                            }
                            got
                        } else {
                            self.handle.get(key)
                        };
                        out.wrong += u64::from(!self.streams.valid(key, got));
                        out.gets += 1;
                    }
                    Op::Put(key, value) => {
                        let c0 = cycles();
                        self.store.put(key, value);
                        let dt = cycles() - c0;
                        if spans {
                            out.put_span.add(dt);
                        } else {
                            out.put_lat.push(dt);
                        }
                        out.puts += 1;
                    }
                }
            }
            out.ops.add(256);
        }
        out
    }
}

/// Counters taken while the clients are quiescent.
struct Snap {
    store: StoreStatsSnapshot,
    fences: FenceStatsSnapshot,
    trace: TraceTotals,
}

/// Per-phase totals of both clients, checked against the counters.
struct PhaseSums {
    gets: u64,
    puts: u64,
    failed: u64,
    store: StoreStatsSnapshot,
    fences: FenceStatsSnapshot,
    ops_per_s: f64,
}

fn sums(run: &PhaseRun<KvOut, Snap>) -> PhaseSums {
    let gets: u64 = run.outs.iter().map(|o| o.gets).sum();
    let puts: u64 = run.outs.iter().map(|o| o.puts).sum();
    let wrong: u64 = run.outs.iter().map(|o| o.wrong).sum();
    let store = run.after.store.diff(&run.before.store);
    let fences = run.after.fences.diff(&run.before.fences);
    let undelivered = fences
        .serializations_requested
        .abs_diff(fences.serializations_delivered);
    PhaseSums {
        gets,
        puts,
        failed: wrong + store.gets.abs_diff(gets) + store.puts.abs_diff(puts) + undelivered,
        store,
        fences,
        ops_per_s: (gets + puts) as f64 / run.wall_s(),
    }
}

pub fn run(args: &Args, writes_per_million: u32) -> Outcome {
    let cfg = WorkloadCfg {
        threads: THREADS,
        shards: SHARDS,
        keys: KEYS,
        theta: THETA,
        writes_per_million,
        ops_per_thread: STREAM,
        seed: args.seed,
        arrival_ns: None,
    };
    let streams = Streams::generate(&cfg);
    let build = || build_store(Arc::new(SignalFence::new()), &cfg);
    let setup_s = harness::median_setup(SETUP_REPS, || {
        let store = build();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| drop(store.handle()));
            }
        });
        store
    });
    let store = build();
    let mut out = Outcome::default();
    if args.traced {
        probe::common(store.strategy().as_ref(), &mut out.metrics);
    }
    let runs = run_phases(
        &harness::phases(args.seconds, args.traced),
        |t| KvWorker {
            t,
            store: &store,
            handle: store.handle(),
            streams: &streams,
            pos: 0,
        },
        || Snap {
            store: store.stats(),
            fences: store.strategy().stats().snapshot(),
            trace: if args.traced {
                TraceTotals::now()
            } else {
                TraceTotals::default()
            },
        },
    );
    let phase: Vec<PhaseSums> = runs.iter().map(sums).collect();
    out.attempted = phase.iter().map(|p| p.gets + p.puts).sum();
    out.failed = phase.iter().map(|p| p.failed).sum();
    out.notes
        .push("fast = StoreHandle::get (1 in 64 timed), slow = Store::put (all timed)".into());
    let m = &mut out.metrics;
    let (run, sum) = (&runs[1], &phase[1]);
    let windows = run.windows.len();
    set_percentiles(m, &FAST_PERCENTILES, windows, |w| {
        Samples::window_ns(run.outs.iter().map(|o| &o.get_lat), w)
    });
    set_percentiles(m, &SLOW_PERCENTILES, windows, |w| {
        let put_ns = Samples::window_ns(run.outs.iter().map(|o| &o.put_lat), w);
        put_ns.iter().map(|ns| ns / 1000.0).collect()
    });
    if !args.traced {
        let ops = |w| run.outs.iter().map(|o| o.ops.window(w)).sum::<u64>() as f64;
        m.set(
            "ops_per_s",
            harness::over_windows(windows, |w| Some(ops(w) / run.windows[w])),
        );
        m.set("setup_s", setup_s);
        return out;
    }
    fence_layers(&sum.fences, m);
    process_layers(&run.after.trace.since(&run.before.trace), &run.ctx, m);
    let s = &sum.store;
    m.set("store.gets", s.gets as f64);
    m.set("store.puts", s.puts as f64);
    m.set("store.hit_ratio", ratio(s.hits, s.gets));
    m.set("store.tables_retired", s.tables_retired as f64);
    m.set("store.tables_reclaimed", s.tables_reclaimed as f64);
    m.set(
        "store.reclaim_ratio",
        ratio(s.tables_reclaimed, s.tables_retired),
    );
    let per_put = ratio(sum.fences.serializations_requested, s.puts);
    m.set("store.serializations_per_put", per_put);
    let traced = &runs[2];
    let timer_ns = m.get("bench.timer_ns");
    let get_ns = Span::merge(traced.outs.iter().map(|o| o.get_span)).mean_ns(timer_ns);
    let put_us = Span::merge(traced.outs.iter().map(|o| o.put_span)).mean_ns(timer_ns) / 1000.0;
    let (fence_ns, serialize_us) = (
        m.get("strategy.primary_fence_ns"),
        m.get("strategy.serialize_remote_us"),
    );
    m.set("store.get_ns", get_ns);
    m.set("store.put_us", put_us);
    m.set("store.get_self_ns", get_ns - fence_ns);
    m.set("store.put_self_us", put_us - serialize_us * per_put);
    m.set(
        "bench.trace_overhead_ratio",
        phase[2].ops_per_s / sum.ops_per_s,
    );
    let ops = (sum.gets + sum.puts) as f64;
    let per_op = |count: u64| count as f64 / ops;
    let fences = sum.fences.primary_compiler_fences + sum.fences.primary_full_fences;
    let parts = [
        ("get self", (get_ns - fence_ns) * per_op(sum.gets)),
        ("primary fence", fence_ns * per_op(fences)),
        (
            "put self",
            (put_us - serialize_us * per_put) * 1000.0 * per_op(sum.puts),
        ),
        (
            "serialize",
            serialize_us * 1000.0 * per_op(sum.fences.serializations_requested),
        ),
    ];
    reconcile(&mut out, THREADS as f64 * run.wall_s() * 1e9 / ops, &parts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_prefilled_or_written_values_are_valid() {
        let cfg = WorkloadCfg {
            threads: THREADS,
            shards: SHARDS,
            keys: KEYS,
            theta: THETA,
            writes_per_million: 50_000,
            ops_per_thread: STREAM,
            seed: 7,
            arrival_ns: None,
        };
        let streams = Streams::generate(&cfg);
        let (i, key) = streams.ops[1]
            .iter()
            .enumerate()
            .find_map(|(i, op)| match op {
                Op::Put(k, _) => Some((i, *k)),
                Op::Get(_) => None,
            })
            .expect("a 5% write mix has puts");
        assert!(streams.valid(key, Some(key + 1)));
        assert!(streams.valid(key, Some(put_value(key, 1, i))));
        assert!(!streams.valid(key, None), "prefilled keys never miss");
        assert!(
            !streams.valid(key + 1, Some(put_value(key, 1, i))),
            "another key's value"
        );
        let get_at = streams.ops[0]
            .iter()
            .position(|op| !op.is_write())
            .expect("gets");
        assert!(
            !streams.valid(key, Some(put_value(key, 0, get_at))),
            "no such put"
        );
        assert!(!streams.valid(key, Some(lbmf_store::POISON)));
    }
}
