//! `arw_read_mostly`: the ARW lock (`AsymRwLock<SignalFence>`, spin
//! window 0). Two registered reader threads run read sections over a
//! 64-word shared array; one op in 1000 is a write section that rewrites
//! the whole array, serializing the other reader first.

use crate::harness::{
    self, cycles, run_phases, Pace, PhaseRun, Samples, Span, Tally, TraceTotals, Worker, THREADS,
};
use crate::{
    fence_layers, probe, process_layers, ratio, reconcile, set_percentiles, Args, Outcome,
    FAST_PERCENTILES, SLOW_PERCENTILES,
};
use lbmf::arw::{AsymRwLock, ReaderHandle};
use lbmf::stats::FenceStatsSnapshot;
use lbmf::strategy::{FenceStrategy, SignalFence};
use lbmf_prng::{Rng, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WORDS: usize = 64;
/// One op in this many is a write section.
const WRITE_ONE_IN: u64 = 1000;
/// Ops generated per thread before timing, replayed cyclically.
const STREAM: usize = 1 << 20;
/// One read section in this many is timed for the latency percentiles.
const READ_SAMPLE_EVERY: usize = 64;
const SETUP_REPS: usize = 51;

struct Shared {
    lock: Arc<AsymRwLock<SignalFence>>,
    /// Every write section stores one value into all words, so a read
    /// section that sees two different values saw a torn write.
    words: [AtomicU64; WORDS],
}

impl Shared {
    fn new() -> Shared {
        Shared {
            lock: Arc::new(AsymRwLock::new(Arc::new(SignalFence::new()))),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// A read section's body: whether the array is whole.
    fn whole(&self) -> bool {
        let first = self.words[0].load(Ordering::Relaxed);
        self.words[1..]
            .iter()
            .all(|w| w.load(Ordering::Relaxed) == first)
    }
}

/// Which ops of thread `t`'s stream are write sections.
fn stream(seed: u64, t: usize) -> Vec<bool> {
    let mut rng = SplitMix64::new(seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..STREAM)
        .map(|_| rng.bounded_u64(WRITE_ONE_IN) == 0)
        .collect()
}

struct ArwWorker<'a> {
    t: usize,
    shared: &'a Shared,
    handle: ReaderHandle<SignalFence>,
    writes: &'a [bool],
    pos: usize,
    written: u64,
}

struct ArwOut {
    ops: Tally,
    reads: u64,
    writes: u64,
    torn: u64,
    read_lat: Samples,
    write_lat: Samples,
    read_span: Span,
    write_span: Span,
}

impl Worker for ArwWorker<'_> {
    type Out = ArwOut;

    fn run(&mut self, spans: bool, pace: &Pace) -> ArwOut {
        let (read_cap, write_cap) = if spans { (0, 0) } else { (1 << 20, 1 << 18) };
        let mut out = ArwOut {
            ops: Tally::default(),
            reads: 0,
            writes: 0,
            torn: 0,
            read_lat: Samples::with_capacity(read_cap),
            write_lat: Samples::with_capacity(write_cap),
            read_span: Span::default(),
            write_span: Span::default(),
        };
        let shared = self.shared;
        let mut window = None;
        while let Some(w) = pace.window() {
            if window != Some(w) {
                window = Some(w);
                out.ops.open(w);
                out.read_lat.open(w);
                out.write_lat.open(w);
            }
            for _ in 0..256 {
                let i = self.pos;
                self.pos = (i + 1) % STREAM;
                if self.writes[i] {
                    self.written += 1;
                    let value = (self.t as u64 + 1) << 48 | self.written;
                    let c0 = cycles();
                    shared.lock.with_write(|| {
                        for w in &shared.words {
                            w.store(value, Ordering::Relaxed);
                        }
                    });
                    let dt = cycles() - c0;
                    if spans {
                        out.write_span.add(dt);
                    } else {
                        out.write_lat.push(dt);
                    }
                    out.writes += 1;
                } else {
                    let whole = if spans || i.is_multiple_of(READ_SAMPLE_EVERY) {
                        let c0 = cycles();
                        let whole = self.handle.read(|| shared.whole());
                        let dt = cycles() - c0;
                        if spans {
                            out.read_span.add(dt);
                        } else {
                            out.read_lat.push(dt);
                        }
                        whole
                    } else {
                        self.handle.read(|| shared.whole())
                    };
                    out.torn += u64::from(!whole);
                    out.reads += 1;
                }
            }
            out.ops.add(256);
        }
        out
    }
}

/// The lock's own counters plus the strategy's and the trace rings'.
struct Snap {
    reads: u64,
    writes: u64,
    read_conflicts: u64,
    signals_skipped: u64,
    fences: FenceStatsSnapshot,
    trace: TraceTotals,
}

/// Per-phase totals of both threads, checked against the counters.
struct PhaseSums {
    reads: u64,
    writes: u64,
    failed: u64,
    fences: FenceStatsSnapshot,
    ops_per_s: f64,
}

fn sums(run: &PhaseRun<ArwOut, Snap>) -> PhaseSums {
    let reads: u64 = run.outs.iter().map(|o| o.reads).sum();
    let writes: u64 = run.outs.iter().map(|o| o.writes).sum();
    let torn: u64 = run.outs.iter().map(|o| o.torn).sum();
    let (a, b) = (&run.after, &run.before);
    let fences = a.fences.diff(&b.fences);
    let undelivered = fences
        .serializations_requested
        .abs_diff(fences.serializations_delivered);
    PhaseSums {
        reads,
        writes,
        failed: torn
            + (a.reads - b.reads).abs_diff(reads)
            + (a.writes - b.writes).abs_diff(writes)
            + undelivered,
        fences,
        ops_per_s: (reads + writes) as f64 / run.wall_s(),
    }
}

pub fn run(args: &Args) -> Outcome {
    let streams: Vec<Vec<bool>> = (0..THREADS).map(|t| stream(args.seed, t)).collect();
    let setup_s = harness::median_setup(SETUP_REPS, || {
        let shared = Shared::new();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| drop(shared.lock.register_reader()));
            }
        });
        shared
    });
    let shared = Shared::new();
    let lock = &shared.lock;
    let mut out = Outcome::default();
    if args.traced {
        probe::common(lock.strategy(), &mut out.metrics);
    }
    let runs = run_phases(
        &harness::phases(args.seconds, args.traced),
        |t| ArwWorker {
            t,
            shared: &shared,
            handle: lock.register_reader(),
            writes: &streams[t],
            pos: 0,
            written: 0,
        },
        || Snap {
            reads: lock.reads.load(Ordering::Relaxed),
            writes: lock.writes.load(Ordering::Relaxed),
            read_conflicts: lock.read_conflicts.load(Ordering::Relaxed),
            signals_skipped: lock.signals_skipped.load(Ordering::Relaxed),
            fences: lock.strategy().stats().snapshot(),
            trace: if args.traced {
                TraceTotals::now()
            } else {
                TraceTotals::default()
            },
        },
    );
    let phase: Vec<PhaseSums> = runs.iter().map(sums).collect();
    out.attempted = phase.iter().map(|p| p.reads + p.writes).sum();
    out.failed = phase.iter().map(|p| p.failed).sum();
    out.notes
        .push("fast = read section (1 in 64 timed), slow = write section (all timed)".into());
    let m = &mut out.metrics;
    let (run, sum) = (&runs[1], &phase[1]);
    let windows = run.windows.len();
    set_percentiles(m, &FAST_PERCENTILES, windows, |w| {
        Samples::window_ns(run.outs.iter().map(|o| &o.read_lat), w)
    });
    set_percentiles(m, &SLOW_PERCENTILES, windows, |w| {
        let write_ns = Samples::window_ns(run.outs.iter().map(|o| &o.write_lat), w);
        write_ns.iter().map(|ns| ns / 1000.0).collect()
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
    let conflicts = run.after.read_conflicts - run.before.read_conflicts;
    m.set("arw.reads", sum.reads as f64);
    m.set("arw.writes", sum.writes as f64);
    m.set("arw.read_conflicts", conflicts as f64);
    m.set(
        "arw.signals_skipped",
        (run.after.signals_skipped - run.before.signals_skipped) as f64,
    );
    m.set("arw.conflict_ratio", ratio(conflicts, sum.reads));
    let traced = &runs[2];
    let timer_ns = m.get("bench.timer_ns");
    let read_ns = Span::merge(traced.outs.iter().map(|o| o.read_span)).mean_ns(timer_ns);
    let write_us = Span::merge(traced.outs.iter().map(|o| o.write_span)).mean_ns(timer_ns) / 1000.0;
    m.set("arw.read_ns", read_ns);
    m.set("arw.write_us", write_us);
    m.set(
        "bench.trace_overhead_ratio",
        phase[2].ops_per_s / sum.ops_per_s,
    );
    let (fence_ns, serialize_us) = (
        m.get("strategy.primary_fence_ns"),
        m.get("strategy.serialize_remote_us"),
    );
    let per_write = ratio(sum.fences.serializations_requested, sum.writes);
    let ops = (sum.reads + sum.writes) as f64;
    let per_op = |count: u64| count as f64 / ops;
    let fences = sum.fences.primary_compiler_fences + sum.fences.primary_full_fences;
    let parts = [
        ("read self", (read_ns - fence_ns) * per_op(sum.reads)),
        ("primary fence", fence_ns * per_op(fences)),
        (
            "write self",
            (write_us - serialize_us * per_write) * 1000.0 * per_op(sum.writes),
        ),
        (
            "serialize",
            serialize_us * 1000.0 * per_op(sum.fences.serializations_requested),
        ),
    ];
    reconcile(&mut out, THREADS as f64 * run.wall_s() * 1e9 / ops, &parts);
    out
}
