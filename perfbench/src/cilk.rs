//! `cilk_fib`: the ACilk-5 `fib` kernel at `Scale::Small` (fib 27) on a
//! two-worker `SignalFence` scheduler, run back to back from one client.
//!
//! Every spawn-return pops the THE deque through `primary_fence()` (the
//! fast op); a steal remotely serializes its victim. The input is fixed:
//! the seed is recorded but chooses nothing.

use crate::harness::{self, CtxSwitches, TraceTotals, THREADS};
use crate::{
    fence_layers, probe, process_layers, ratio, reconcile, set_percentiles, Args, Outcome,
    FAST_PERCENTILES, SLOW_PERCENTILES,
};
use lbmf::strategy::{SignalFence, Symmetric};
use lbmf_cilk::bench::{Kernel, Scale};
use lbmf_cilk::{RuntimeStats, Scheduler};
use std::sync::Arc;
use std::time::Instant;

const SETUP_REPS: usize = 51;

/// `later - earlier` for every counter of a runtime snapshot.
fn diff(later: &RuntimeStats, earlier: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        pushes: later.pushes - earlier.pushes,
        pops: later.pops - earlier.pops,
        pop_conflicts: later.pop_conflicts - earlier.pop_conflicts,
        steal_attempts: later.steal_attempts - earlier.steal_attempts,
        steals: later.steals - earlier.steals,
        executed: later.executed - earlier.executed,
        fences: later.fences.diff(&earlier.fences),
    }
}

/// One kernel run: its wall time and its spawns.
struct FibRun {
    ns: f64,
    spawns: u64,
}

/// The kernel runs of one phase. A run takes tens of milliseconds and
/// its tail is what varies, so percentiles are over all runs of the
/// phase rather than per window.
struct FibPhase {
    runs: Vec<FibRun>,
    wrong: u64,
    wall_s: f64,
    /// Counter diffs over the phase. Idle workers keep trying to steal
    /// between runs, so these may be off by the few serializations in
    /// flight at either end; [`undelivered`] checks the whole life.
    stats: RuntimeStats,
    trace: TraceTotals,
    ctx: CtxSwitches,
}

impl FibPhase {
    fn spawns_per_s(&self) -> f64 {
        self.stats.pushes as f64 / self.wall_s
    }
}

fn phase(sched: &Scheduler<SignalFence>, secs: f64, reference: u64, traced: bool) -> FibPhase {
    let before = sched.stats();
    let trace = if traced {
        TraceTotals::now()
    } else {
        TraceTotals::default()
    };
    let ctx = CtxSwitches::of_other_threads();
    let (mut runs, mut wrong) = (Vec::new(), 0);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        let pushes = sched.stats().pushes;
        let run = Kernel::Fib.run_timed(sched, Scale::Small);
        let spawns = sched.stats().pushes - pushes;
        runs.push(FibRun {
            ns: run.elapsed.as_nanos() as f64,
            spawns,
        });
        wrong += u64::from(run.checksum != reference);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    FibPhase {
        runs,
        wrong,
        wall_s,
        stats: diff(&sched.stats(), &before),
        trace: if traced {
            TraceTotals::now().since(&trace)
        } else {
            trace
        },
        ctx: CtxSwitches::of_other_threads().since(&ctx),
    }
}

/// Serializations the scheduler's strategy was asked for and never
/// delivered over its life. Idle workers keep stealing, so this waits (up
/// to a second) for a moment with none in flight.
fn undelivered(sched: &Scheduler<SignalFence>) -> u64 {
    let mut missing = 0;
    for _ in 0..1000 {
        let f = sched.stats().fences;
        missing = f
            .serializations_requested
            .abs_diff(f.serializations_delivered);
        if missing == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    missing
}

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Drop the calling thread to the lowest priority (nice 19). The client
/// waits for each kernel run by spinning and yielding (`Latch::wait`),
/// and next to two busy workers on two CPUs it would otherwise take a
/// third of their CPU time and preempt them for whole scheduler ticks.
/// On Linux the nice value is per thread and `who = 0` names the caller,
/// so the workers, started earlier, keep theirs.
fn yield_to_workers() {
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: plain system call wrapper; raising one's own nice value
    // needs no privilege, and a failure only leaves the priority as it was.
    unsafe { setpriority(PRIO_PROCESS, 0, 19) };
}

pub fn run(args: &Args) -> Outcome {
    let reference = Kernel::Fib
        .run_timed(&Scheduler::new(1, Arc::new(Symmetric::new())), Scale::Small)
        .checksum;
    let build = || {
        let sched = Scheduler::new(THREADS, Arc::new(SignalFence::new()));
        sched.run(|_| ());
        sched
    };
    let setup_s = harness::median_setup(SETUP_REPS, build);
    let sched = build();
    let mut out = Outcome::default();
    if args.traced {
        probe::common(sched.strategy(), &mut out.metrics);
        let join_ns = sched.run(|ctx| {
            harness::per_call_ns(|| {
                ctx.join(|_| (), |_| ());
            })
        });
        out.metrics.set("cilk.join_ns", join_ns);
    }
    yield_to_workers();
    let phases: Vec<FibPhase> = harness::phases(args.seconds, args.traced)
        .iter()
        .map(|p| phase(&sched, p.secs, reference, args.traced))
        .collect();
    out.failed = undelivered(&sched);
    for p in &phases {
        out.attempted += p.runs.len() as u64;
        out.failed += p.wrong;
    }
    out.notes
        .push("fast = one spawn (a fib run's wall time per spawn), slow = one fib(27) run".into());
    let m = &mut out.metrics;
    let measured = &phases[1];
    set_percentiles(m, &FAST_PERCENTILES, 1, |_| {
        measured
            .runs
            .iter()
            .map(|r| r.ns / r.spawns.max(1) as f64)
            .collect()
    });
    set_percentiles(m, &SLOW_PERCENTILES, 1, |_| {
        measured.runs.iter().map(|r| r.ns / 1000.0).collect()
    });
    if !args.traced {
        m.set("ops_per_s", measured.spawns_per_s());
        m.set("setup_s", setup_s);
        return out;
    }
    let s = &measured.stats;
    fence_layers(&s.fences, m);
    process_layers(&measured.trace, &measured.ctx, m);
    m.set("cilk.pushes", s.pushes as f64);
    m.set("cilk.pops", s.pops as f64);
    m.set("cilk.pop_conflicts", s.pop_conflicts as f64);
    m.set("cilk.steal_attempts", s.steal_attempts as f64);
    m.set("cilk.steals", s.steals as f64);
    m.set("cilk.steal_conversion", ratio(s.steals, s.steal_attempts));
    // No span fits inside a library kernel run, so both measured phases
    // time whole runs and this ratio shows only run-to-run drift.
    m.set(
        "bench.trace_overhead_ratio",
        phases[2].spawns_per_s() / measured.spawns_per_s(),
    );
    let (join_ns, fence_ns) = (m.get("cilk.join_ns"), m.get("strategy.primary_fence_ns"));
    let serialize_ns = m.get("strategy.serialize_remote_us") * 1000.0;
    let per_spawn = |count: u64| ratio(count, s.pushes);
    let fences = s.fences.primary_compiler_fences + s.fences.primary_full_fences;
    let parts = [
        ("join self", (join_ns - fence_ns) * per_spawn(s.pushes)),
        ("primary fence", fence_ns * per_spawn(fences)),
        (
            "serialize",
            serialize_ns * per_spawn(s.fences.serializations_requested),
        ),
    ];
    reconcile(
        &mut out,
        THREADS as f64 * measured.wall_s * 1e9 / s.pushes as f64,
        &parts,
    );
    out
}
