//! Property-style tests for the work-stealing runtime: randomly shaped
//! fork-join computations must produce exactly the sequential result under
//! any worker count and fence strategy.
//!
//! The random expression trees come from a fixed SplitMix64 seed, so
//! every run checks the same cases.

use lbmf::strategy::FenceStrategy;
use lbmf::strategy::{SignalFence, Symmetric};
use lbmf_cilk::{Scheduler, WorkerCtx};
use lbmf_prng::{Rng, SplitMix64};
use std::sync::Arc;

/// A randomly shaped fork-join expression tree.
#[derive(Clone, Debug)]
enum Expr {
    Leaf(u64),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

/// A random tree of depth at most `depth` (at each level, half the mass
/// goes to leaves).
fn random_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || rng.random_ratio(1, 2) {
        return Expr::Leaf(rng.bounded_u64(1000));
    }
    let a = Box::new(random_expr(rng, depth - 1));
    let b = Box::new(random_expr(rng, depth - 1));
    if rng.random_ratio(1, 2) {
        Expr::Add(a, b)
    } else {
        Expr::Mul(a, b)
    }
}

fn eval_seq(e: &Expr) -> u64 {
    match e {
        Expr::Leaf(v) => *v,
        Expr::Add(a, b) => eval_seq(a).wrapping_add(eval_seq(b)),
        Expr::Mul(a, b) => eval_seq(a).wrapping_mul(eval_seq(b)),
    }
}

fn eval_par<S: FenceStrategy>(ctx: &WorkerCtx<'_, S>, e: &Expr) -> u64 {
    match e {
        Expr::Leaf(v) => *v,
        Expr::Add(a, b) => {
            let (x, y) = ctx.join(|c| eval_par(c, a), |c| eval_par(c, b));
            x.wrapping_add(y)
        }
        Expr::Mul(a, b) => {
            let (x, y) = ctx.join(|c| eval_par(c, a), |c| eval_par(c, b));
            x.wrapping_mul(y)
        }
    }
}

/// Random expression trees evaluate identically in sequence and on the
/// symmetric pool.
#[test]
fn random_trees_match_sequential_symmetric() {
    let mut rng = SplitMix64::seed_from_u64(0xC11C_0001);
    let pool = Scheduler::new(3, Arc::new(Symmetric::new()));
    for _ in 0..24 {
        let e = random_expr(&mut rng, 8);
        let par = pool.run(|ctx| eval_par(ctx, &e));
        assert_eq!(par, eval_seq(&e), "tree diverged: {e:?}");
    }
}

/// Same under the asymmetric (signal-serialized) pool.
#[test]
fn random_trees_match_sequential_asymmetric() {
    let mut rng = SplitMix64::seed_from_u64(0xC11C_0002);
    let pool = Scheduler::new(2, Arc::new(SignalFence::new()));
    for _ in 0..24 {
        let e = random_expr(&mut rng, 8);
        let par = pool.run(|ctx| eval_par(ctx, &e));
        assert_eq!(par, eval_seq(&e), "tree diverged: {e:?}");
    }
}

/// Job conservation: pushes == pops + steals after any run.
#[test]
fn job_conservation() {
    let mut rng = SplitMix64::seed_from_u64(0xC11C_0003);
    for _ in 0..12 {
        let workers = rng.random_range(1..5);
        let e = random_expr(&mut rng, 8);
        let pool = Scheduler::new(workers, Arc::new(Symmetric::new()));
        pool.reset_stats();
        let _ = pool.run(|ctx| eval_par(ctx, &e));
        let s = pool.stats();
        assert_eq!(s.pushes, s.pops + s.steals, "workers={workers} tree={e:?}");
    }
}

/// Concurrent `run` calls from several external threads share the pool
/// safely (the injector serializes root submission).
#[test]
fn concurrent_runs_share_the_pool() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let pool = Arc::new(Scheduler::new(3, Arc::new(Symmetric::new())));
    let total = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for k in 1..=4u64 {
        let pool = pool.clone();
        let total = total.clone();
        handles.push(std::thread::spawn(move || {
            let v = pool.run(move |ctx| {
                let (a, b) = ctx.join(move |_| 10 * k, move |_| k);
                a + b
            });
            total.fetch_add(v, Ordering::Relaxed);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // sum of 11k for k=1..4
    assert_eq!(total.load(Ordering::Relaxed), 11 * (1 + 2 + 3 + 4));
}
