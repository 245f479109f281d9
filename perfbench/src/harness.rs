//! What every workload shares: the cycle clock, latency samples, the
//! windowed two-thread phase runner, set-up timing and the process
//! counters.

use lbmf::fence::rdtscp_cycles;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Worker threads every workload runs (the host's `nproc`).
pub const THREADS: usize = 2;

/// Length of the windows a measured phase is cut into. Each end-to-end
/// figure is the median over windows, so a disturbance that hits a few
/// windows moves it little.
pub const WINDOW_S: f64 = 0.5;

/// The cycle counter the benchmark times individual calls with: an
/// `Instant` pair costs more than a store get.
#[inline]
pub fn cycles() -> u64 {
    rdtscp_cycles()
}

static NS_PER_CYCLE: OnceLock<f64> = OnceLock::new();

/// Calibrate the cycle counter against the monotonic clock (median of
/// five 20 ms windows). Called once, before any set-up is timed.
pub fn calibrate() {
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let (t0, c0) = (Instant::now(), cycles());
            std::thread::sleep(Duration::from_millis(20));
            let (c1, dt) = (cycles(), t0.elapsed());
            dt.as_nanos() as f64 / (c1 - c0) as f64
        })
        .collect();
    let _ = NS_PER_CYCLE.set(median(&mut rates));
}

/// Cycles to nanoseconds.
pub fn ns(cycles: f64) -> f64 {
    cycles * NS_PER_CYCLE.get().expect("harness::calibrate runs first")
}

/// Median of `v` (sorted in place); 0 for an empty sample.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile (0..=100) of `v`, sorted in place, linearly
/// interpolated between ranks. 0 for an empty sample.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median over windows of `f(window)`, skipping windows it has no figure
/// for.
pub fn over_windows(windows: usize, f: impl FnMut(usize) -> Option<f64>) -> f64 {
    median(&mut (0..windows).filter_map(f).collect::<Vec<f64>>())
}

/// Latencies in cycles of one worker's calls over a phase, cut into the
/// phase's windows. The buffer is allocated and touched before the
/// phase, so recording neither reallocates nor page-faults, and its
/// footprint does not depend on throughput (samples past capacity are
/// dropped).
pub struct Samples {
    cycles: Vec<u32>,
    /// `(window, index of its first sample)`, in window order.
    cuts: Vec<(usize, usize)>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        let mut cycles = vec![1u32; n];
        cycles.clear();
        Samples {
            cycles,
            cuts: Vec::new(),
        }
    }

    /// Start recording into window `w`.
    pub fn open(&mut self, w: usize) {
        self.cuts.push((w, self.cycles.len()));
    }

    #[inline]
    pub fn push(&mut self, cycles: u64) {
        if self.cycles.len() < self.cycles.capacity() {
            self.cycles.push(cycles.min(u64::from(u32::MAX)) as u32);
        }
    }

    /// Window `w`'s samples of all `parts`, in nanoseconds.
    pub fn window_ns<'a>(parts: impl IntoIterator<Item = &'a Samples>, w: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for s in parts {
            if let Some(i) = s.cuts.iter().position(|&(cw, _)| cw == w) {
                let end = s.cuts.get(i + 1).map_or(s.cycles.len(), |&(_, e)| e);
                out.extend(s.cycles[s.cuts[i].1..end].iter().map(|&c| ns(f64::from(c))));
            }
        }
        out
    }
}

/// One worker's completed ops per window.
#[derive(Default)]
pub struct Tally(Vec<(usize, u64)>);

impl Tally {
    pub fn open(&mut self, w: usize) {
        self.0.push((w, 0));
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        if let Some(last) = self.0.last_mut() {
            last.1 += n;
        }
    }

    pub fn window(&self, w: usize) -> u64 {
        self.0
            .iter()
            .filter(|&&(cw, _)| cw == w)
            .map(|&(_, n)| n)
            .sum()
    }
}

/// The benchmark's own span around one layer's calls: total cycles and
/// call count.
#[derive(Clone, Copy, Default)]
pub struct Span {
    pub cycles: u64,
    pub calls: u64,
}

impl Span {
    #[inline]
    pub fn add(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.calls += 1;
    }

    pub fn merge(spans: impl IntoIterator<Item = Span>) -> Span {
        spans.into_iter().fold(Span::default(), |a, s| Span {
            cycles: a.cycles + s.cycles,
            calls: a.calls + s.calls,
        })
    }

    /// Mean nanoseconds per call, less the timer floor `timer_ns` the
    /// span itself adds (0 without calls).
    pub fn mean_ns(&self, timer_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            ns(self.cycles as f64) / self.calls as f64 - timer_ns
        }
    }
}

/// Median wall time in seconds of `reps` calls of `build`. What `build`
/// returns is dropped outside the timed window, so tear-down is not
/// counted as set-up.
pub fn median_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let built = build();
            let dt = t0.elapsed().as_secs_f64();
            drop(built);
            dt
        })
        .collect();
    median(&mut times)
}

/// Median nanoseconds per call of `f`, timed in batches of 1000 calls.
pub fn per_call_ns(mut f: impl FnMut()) -> f64 {
    const BATCH: u32 = 1000;
    for _ in 0..BATCH {
        f();
    }
    let mut batches: Vec<f64> = (0..101)
        .map(|_| {
            let c0 = cycles();
            for _ in 0..BATCH {
                f();
            }
            (cycles() - c0) as f64
        })
        .collect();
    ns(median(&mut batches)) / f64::from(BATCH)
}

/// One measured stretch of a workload.
pub struct Phase {
    pub secs: f64,
    /// Whether the benchmark's spans time every call into the layers.
    pub spans: bool,
}

impl Phase {
    pub fn windows(&self) -> usize {
        ((self.secs / WINDOW_S).round() as usize).max(1)
    }
}

/// The phases of one run: a warm-up, the measured phase with spans off,
/// and (traced runs) a second measured phase with spans on. The traced
/// run splits the time between its two measured phases.
pub fn phases(seconds: f64, traced: bool) -> Vec<Phase> {
    let warm = Phase {
        secs: (seconds * 0.1).clamp(0.5, 1.0),
        spans: false,
    };
    if traced {
        vec![
            warm,
            Phase {
                secs: seconds / 2.0,
                spans: false,
            },
            Phase {
                secs: seconds / 2.0,
                spans: true,
            },
        ]
    } else {
        vec![
            warm,
            Phase {
                secs: seconds,
                spans: false,
            },
        ]
    }
}

/// The window the workers are in; `None` once the phase is over.
pub struct Pace(AtomicUsize);

impl Pace {
    const OVER: usize = usize::MAX;

    #[inline]
    pub fn window(&self) -> Option<usize> {
        let w = self.0.load(Ordering::Relaxed);
        (w != Pace::OVER).then_some(w)
    }
}

/// A closed-loop client thread: issues its next op when the last one
/// returned, for as long as the phase lasts.
pub trait Worker {
    type Out: Send;
    fn run(&mut self, spans: bool, pace: &Pace) -> Self::Out;
}

/// What one phase produced: each window's wall time, each worker's
/// output, the caller's snapshots around it, and the workers' context
/// switches.
pub struct PhaseRun<O, S> {
    pub windows: Vec<f64>,
    pub outs: Vec<O>,
    pub before: S,
    pub after: S,
    pub ctx: CtxSwitches,
}

impl<O, S> PhaseRun<O, S> {
    pub fn wall_s(&self) -> f64 {
        self.windows.iter().sum()
    }
}

/// Run `phases` on [`THREADS`] workers built by `make` on their own
/// threads (so thread-bound registrations happen there). All workers
/// are quiescent whenever `snap` runs, so counter diffs are exact.
pub fn run_phases<W: Worker, S>(
    phases: &[Phase],
    make: impl Fn(usize) -> W + Sync,
    mut snap: impl FnMut() -> S,
) -> Vec<PhaseRun<W::Out, S>> {
    let pace = Pace(AtomicUsize::new(Pace::OVER));
    let barrier = Barrier::new(THREADS + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (make, pace, barrier) = (&make, &pace, &barrier);
                scope.spawn(move || {
                    let mut worker = make(t);
                    let mut outs = Vec::new();
                    for phase in phases {
                        barrier.wait();
                        outs.push(worker.run(phase.spans, pace));
                        barrier.wait();
                    }
                    // Stay alive until the last context-switch reading.
                    barrier.wait();
                    outs
                })
            })
            .collect();
        let mut runs = Vec::new();
        for phase in phases {
            let before = snap();
            let ctx0 = CtxSwitches::of_other_threads();
            pace.0.store(0, Ordering::Relaxed);
            barrier.wait();
            let t0 = Instant::now();
            let mut ends = vec![t0];
            let n = phase.windows();
            for w in 1..=n {
                let end = t0 + Duration::from_secs_f64(phase.secs * w as f64 / n as f64);
                std::thread::sleep(end.saturating_duration_since(Instant::now()));
                pace.0
                    .store(if w == n { Pace::OVER } else { w }, Ordering::Relaxed);
                ends.push(Instant::now());
            }
            barrier.wait();
            let ctx = CtxSwitches::of_other_threads().since(&ctx0);
            let windows = ends
                .windows(2)
                .map(|e| (e[1] - e[0]).as_secs_f64())
                .collect();
            runs.push(PhaseRun {
                windows,
                outs: Vec::new(),
                before,
                after: snap(),
                ctx,
            });
        }
        barrier.wait();
        for worker in workers {
            let outs = worker.join().expect("benchmark worker panicked");
            for (run, out) in runs.iter_mut().zip(outs) {
                run.outs.push(out);
            }
        }
        runs
    })
}

/// Context switches summed over every thread of the process but the
/// calling (phase-pacing) one, from `/proc/self/task/*/status`.
#[derive(Clone, Copy, Default)]
pub struct CtxSwitches {
    pub voluntary: u64,
    pub involuntary: u64,
}

impl CtxSwitches {
    pub fn of_other_threads() -> CtxSwitches {
        let me = std::process::id().to_string();
        let mut sum = CtxSwitches::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return sum;
        };
        for task in tasks.flatten() {
            if task.file_name().to_str() == Some(me.as_str()) {
                continue;
            }
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            sum.voluntary += status_field(&status, "voluntary_ctxt_switches:");
            sum.involuntary += status_field(&status, "nonvoluntary_ctxt_switches:");
        }
        sum
    }

    pub fn since(&self, earlier: &CtxSwitches) -> CtxSwitches {
        CtxSwitches {
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }
}

/// A numeric `/proc/.../status` field (0 when absent).
fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

/// Events ever recorded into, and dropped from, every trace ring.
#[derive(Clone, Copy, Default)]
pub struct TraceTotals {
    pub recorded: u64,
    pub dropped: u64,
}

impl TraceTotals {
    pub fn now() -> TraceTotals {
        let snap = lbmf_trace::take_snapshot();
        TraceTotals {
            recorded: snap.total_events() as u64 + snap.total_dropped(),
            dropped: snap.total_dropped(),
        }
    }

    pub fn since(&self, earlier: &TraceTotals) -> TraceTotals {
        TraceTotals {
            recorded: self.recorded.saturating_sub(earlier.recorded),
            dropped: self.dropped.saturating_sub(earlier.dropped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 4.0);
        assert_eq!(percentile(&mut v, 50.0), 2.5);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(over_windows(3, |w| (w != 1).then_some(w as f64)), 1.0);
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM:"), 2048);
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), 7);
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches:"), 0);
    }

    #[test]
    fn samples_and_tallies_split_by_window() {
        calibrate();
        let mut s = Samples::with_capacity(3);
        let mut t = Tally::default();
        s.open(0);
        t.open(0);
        s.push(1);
        t.add(1);
        s.open(2);
        t.open(2);
        for c in [2, 3, 4] {
            s.push(c);
            t.add(1);
        }
        let n = |w| Samples::window_ns([&s], w).len();
        assert_eq!(
            (n(0), n(1), n(2)),
            (1, 0, 2),
            "the fourth sample is past capacity"
        );
        assert_eq!((t.window(0), t.window(1), t.window(2)), (1, 0, 3));
    }
}
