//! The work-stealing scheduler (a miniature Cilk-5).
//!
//! `P` worker threads each own a [`TheDeque`]; work enters through
//! [`Scheduler::run`], which injects a root job and blocks until it
//! completes. Inside the runtime, parallelism is expressed with
//! [`WorkerCtx::join`] — the child-stealing analogue of `spawn`/`sync`:
//! the second closure is pushed onto the worker's own deque (stealable),
//! the first runs immediately, and the worker then pops the second back
//! (the common, fence-sensitive fast path) or, if it was stolen, steals
//! other work while waiting ("work-first" — scheduling overhead lands on
//! the thief's path, amortized against successful steals).

use crate::deque::{Steal, TheDeque};
use crate::job::{execute, JobCore, Latch, StackJob};
use crate::stats::{RuntimeStats, WorkerStats};
use lbmf::registry::register_current_thread;
use lbmf::stats::bump_owned;
use lbmf::strategy::FenceStrategy;
use lbmf::sync::{CachePadded, Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Spawn-depth capacity of each worker deque (2^18 = 262144 frames).
const DEQUE_LOG2_CAPACITY: u32 = 18;

struct SendJobPtr<S: FenceStrategy>(*mut JobCore<S>);
// SAFETY: job pointers target StackJobs whose owners outlive execution.
unsafe impl<S: FenceStrategy> Send for SendJobPtr<S> {}

struct Inner<S: FenceStrategy> {
    strategy: Arc<S>,
    deques: Vec<TheDeque<S>>,
    /// One padded block per worker: each worker bumps only its own, so
    /// no two workers' counters share a cache line.
    worker_stats: Vec<CachePadded<WorkerStats>>,
    /// Worker totals at the last [`Scheduler::reset_stats`], which
    /// [`Scheduler::stats`] subtracts (its `fences` stay zero: the
    /// strategy keeps its own baselines).
    baseline: Mutex<RuntimeStats>,
    injector: Mutex<VecDeque<SendJobPtr<S>>>,
    idle_mutex: Mutex<()>,
    idle_cv: Condvar,
    shutdown: AtomicBool,
    /// Workers that have left their main loop; the last ones out let
    /// everyone drop their signal registrations safely.
    exited: AtomicUsize,
    nworkers: usize,
}

/// A work-stealing scheduler over `P` workers and a fence strategy.
pub struct Scheduler<S: FenceStrategy> {
    inner: Arc<Inner<S>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl<S: FenceStrategy> Scheduler<S> {
    /// Start `nworkers` worker threads using `strategy` for the deque's
    /// victim/thief protocol.
    pub fn new(nworkers: usize, strategy: Arc<S>) -> Self {
        assert!(nworkers >= 1, "need at least one worker");
        let inner = Arc::new(Inner {
            deques: (0..nworkers)
                .map(|_| TheDeque::new(strategy.clone(), DEQUE_LOG2_CAPACITY))
                .collect(),
            worker_stats: (0..nworkers).map(|_| CachePadded::default()).collect(),
            baseline: Mutex::new(RuntimeStats::default()),
            injector: Mutex::new(VecDeque::new()),
            idle_mutex: Mutex::new(()),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            exited: AtomicUsize::new(0),
            nworkers,
            strategy,
        });
        let threads = (0..nworkers)
            .map(|index| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("lbmf-cilk-worker-{index}"))
                    .spawn(move || worker_main(inner, index))
                    .expect("failed to spawn worker")
            })
            .collect();
        Scheduler { inner, threads }
    }

    /// A pool sized to the host's available parallelism (at least 1).
    pub fn with_default_workers(strategy: Arc<S>) -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Scheduler::new(n, strategy)
    }

    /// Number of worker threads in the pool.
    pub fn num_workers(&self) -> usize {
        self.inner.nworkers
    }

    /// The fence strategy driving the deque protocol.
    pub fn strategy(&self) -> &S {
        &self.inner.strategy
    }

    /// Run `f` on the pool and block until it finishes. `f` may borrow from
    /// the caller's stack: the caller blocks until the job (and everything
    /// it joined) completes.
    pub fn run<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&WorkerCtx<'_, S>) -> R + Send,
    {
        let job = StackJob::new(f);
        self.inner
            .injector
            .lock()
            .push_back(SendJobPtr(job.core_ptr()));
        self.inner.idle_cv.notify_all();
        job.latch.wait();
        // SAFETY: latch set means the result was stored.
        unsafe { job.take_result() }
    }

    /// Aggregate statistics since the last [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> RuntimeStats {
        self.worker_totals().diff(&self.inner.baseline.lock())
    }

    /// Count from zero again (between measurements). The worker counters
    /// are never zeroed from here — only their owners store into them,
    /// and idle workers keep bumping `pop_conflicts`/`steal_attempts`
    /// meanwhile — so this saves the current totals as a baseline that
    /// [`stats`](Self::stats) subtracts, and resets the strategy's
    /// counters the same way.
    pub fn reset_stats(&self) {
        let mut baseline = self.inner.baseline.lock();
        *baseline = RuntimeStats {
            fences: Default::default(),
            ..self.worker_totals()
        };
        self.inner.strategy.stats().reset();
    }

    fn worker_totals(&self) -> RuntimeStats {
        RuntimeStats::aggregate(
            self.inner.worker_stats.iter().map(|w| &**w),
            self.inner.strategy.stats().snapshot(),
        )
    }
}

impl<S: FenceStrategy> Drop for Scheduler<S> {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.idle_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_main<S: FenceStrategy>(inner: Arc<Inner<S>>, index: usize) {
    let registration = register_current_thread();
    inner.deques[index].set_owner(registration.remote());
    let ctx = WorkerCtx {
        inner: &inner,
        index,
        rng: Cell::new(0x9E3779B97F4A7C15u64.wrapping_mul(index as u64 + 1) | 1),
    };
    while !inner.shutdown.load(Ordering::Acquire) {
        match ctx.find_work() {
            Some(job) => unsafe {
                bump_owned(&ctx.stats().executed);
                execute(job, &ctx);
            },
            None => {
                let guard = inner.idle_mutex.lock();
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let _guard = inner.idle_cv.wait_for(guard, Duration::from_micros(500));
            }
        }
    }
    // Exit barrier: no worker drops its signal registration until every
    // worker has stopped stealing — signaling an exited pthread is UB.
    inner.exited.fetch_add(1, Ordering::AcqRel);
    lbmf::fence::spin_until(|| inner.exited.load(Ordering::Acquire) == inner.nworkers);
    drop(registration);
}

/// The execution context handed to every job; `join` is the spawn
/// primitive.
pub struct WorkerCtx<'s, S: FenceStrategy> {
    inner: &'s Inner<S>,
    index: usize,
    rng: Cell<u64>,
}

impl<'s, S: FenceStrategy> WorkerCtx<'s, S> {
    /// This worker's index in `0..num_workers`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total workers in the pool.
    pub fn num_workers(&self) -> usize {
        self.inner.nworkers
    }

    fn deque(&self) -> &TheDeque<S> {
        &self.inner.deques[self.index]
    }

    fn stats(&self) -> &WorkerStats {
        &self.inner.worker_stats[self.index]
    }

    fn next_rand(&self) -> u64 {
        // xorshift64*: cheap per-steal victim selection.
        let mut x = self.rng.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng.set(x);
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Fork-join: push `b` (stealable), run `a`, then run or wait for `b`.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce(&WorkerCtx<'_, S>) -> RA + Send,
        B: FnOnce(&WorkerCtx<'_, S>) -> RB + Send,
    {
        let b_job = StackJob::new(b);
        let core = b_job.core_ptr();
        self.deque().push(core, self.stats());
        let ra = a(self);
        match self.deque().pop(self.stats()) {
            Some(ptr) => {
                // Fast path: nobody stole b — run it inline. Under an
                // asymmetric strategy this pop cost no hardware fence.
                // Every job `a` pushed it also popped or lost to a thief
                // before returning, so the top of the deque is b.
                debug_assert!(ptr == core, "join popped a job other than its own b");
                let rb = unsafe { b_job.run_inline(self) };
                (ra, rb)
            }
            None => {
                // b was stolen: steal other work while waiting.
                self.wait_for(&b_job.latch);
                (ra, unsafe { b_job.take_result() })
            }
        }
    }

    /// Keep the worker busy (executing own and stolen work) until `latch`
    /// is set.
    fn wait_for(&self, latch: &Latch) {
        while !latch.probe() {
            match self.find_work() {
                Some(job) => unsafe {
                    bump_owned(&self.stats().executed);
                    execute(job, self);
                },
                None => std::thread::yield_now(),
            }
        }
    }

    /// Own deque first, then random victims, then the injector.
    fn find_work(&self) -> Option<*mut JobCore<S>> {
        if let Some(job) = self.deque().pop(self.stats()) {
            return Some(job);
        }
        let n = self.inner.nworkers;
        if n > 1 {
            // One sweep over the other workers starting at a random point.
            let start = (self.next_rand() % n as u64) as usize;
            for k in 0..n {
                let v = (start + k) % n;
                if v == self.index {
                    continue;
                }
                match self.inner.deques[v].steal(self.stats()) {
                    Steal::Success(job) => return Some(job),
                    Steal::Empty | Steal::Retry => {}
                }
            }
        }
        let mut injector = self.inner.injector.lock();
        injector.pop_front().map(|p| p.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf::strategy::{SignalFence, Symmetric};

    fn fib(ctx: &WorkerCtx<'_, impl FenceStrategy>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = ctx.join(|c| fib(c, n - 1), |c| fib(c, n - 2));
        a + b
    }

    #[test]
    fn fib_single_worker_symmetric() {
        let s = Scheduler::new(1, Arc::new(Symmetric::new()));
        assert_eq!(s.run(|ctx| fib(ctx, 15)), 610);
    }

    #[test]
    fn fib_multi_worker_symmetric() {
        let s = Scheduler::new(4, Arc::new(Symmetric::new()));
        assert_eq!(s.run(|ctx| fib(ctx, 18)), 2584);
        let stats = s.stats();
        assert!(stats.pushes > 0);
        assert_eq!(stats.pushes, stats.pops + stats.steals, "conservation");
    }

    #[test]
    fn fib_multi_worker_signal_fence() {
        let s = Scheduler::new(3, Arc::new(SignalFence::new()));
        assert_eq!(s.run(|ctx| fib(ctx, 16)), 987);
        let stats = s.stats();
        assert_eq!(stats.pushes, stats.pops + stats.steals, "conservation");
        // The victim fast path must have avoided hardware fences entirely.
        assert_eq!(stats.fences.primary_full_fences, 0);
        assert!(stats.fences.primary_compiler_fences > 0);
    }

    #[test]
    fn serial_run_uses_no_serializations_single_worker() {
        let s = Scheduler::new(1, Arc::new(SignalFence::new()));
        assert_eq!(s.run(|ctx| fib(ctx, 12)), 144);
        let stats = s.stats();
        assert_eq!(
            stats.fences.serializations_requested, 0,
            "no thieves exist with one worker"
        );
    }

    #[test]
    fn multiple_runs_reuse_pool() {
        let s = Scheduler::new(2, Arc::new(Symmetric::new()));
        for n in [5u64, 8, 10] {
            let expected = [5u64, 21, 55][match n {
                5 => 0,
                8 => 1,
                _ => 2,
            }];
            assert_eq!(s.run(|ctx| fib(ctx, n)), expected);
        }
    }

    #[test]
    fn default_worker_count_matches_host() {
        let s = Scheduler::with_default_workers(Arc::new(Symmetric::new()));
        assert!(s.num_workers() >= 1);
        assert_eq!(s.run(|ctx| fib(ctx, 10)), 55);
    }

    #[test]
    fn borrows_callers_stack() {
        let s = Scheduler::new(2, Arc::new(Symmetric::new()));
        let data = [1u64, 2, 3, 4];
        let sum = s.run(|ctx| {
            let (a, b) = ctx.join(
                |_| data[..2].iter().sum::<u64>(),
                |_| data[2..].iter().sum::<u64>(),
            );
            a + b
        });
        assert_eq!(sum, 10);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let s = Scheduler::new(2, Arc::new(Symmetric::new()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(|ctx| {
                let ((), ()) = ctx.join(
                    |_| {},
                    |_| panic!("boom from joined task"),
                );
            })
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        assert_eq!(s.run(|ctx| fib(ctx, 10)), 55);
    }

    #[test]
    fn deep_sequential_joins_do_not_overflow_deque() {
        let s = Scheduler::new(2, Arc::new(Symmetric::new()));
        let total = s.run(|ctx| {
            fn count(ctx: &WorkerCtx<'_, impl FenceStrategy>, n: u64) -> u64 {
                if n == 0 {
                    return 0;
                }
                let (a, b) = ctx.join(|c| count(c, n - 1), |_| 1u64);
                a + b
            }
            count(ctx, 5_000)
        });
        assert_eq!(total, 5_000);
    }
}
